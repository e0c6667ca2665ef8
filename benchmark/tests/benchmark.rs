//! The benchmark's own checks: `BENCHMARK.json` stays within its limits,
//! every workload runs at tiny scale and prints every metric the file
//! names, and the committed goldens cover every cell.

use std::collections::BTreeSet;

use asap_benchmark::workload::{label, specs};
use asap_benchmark::{
    golden_path, run_workload, Options, Scale, Workload, DEFAULT_SEED, HELD_OUT_SEED,
};
use asap_sim::json::{self, Value};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_array).expect(key)
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).expect(key)
}

#[test]
fn benchmark_json_stays_within_its_limits() {
    let v = benchmark_json();
    let workloads = list(&v, "workloads");
    let e2e = list(&v, "end_to_end");
    let layers = list(&v, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    let mut seen = BTreeSet::new();
    for item in workloads.iter().chain(e2e).chain(layers) {
        let name = str_of(item, "name");
        assert!(name.len() <= 64, "{name}");
        assert!(
            name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name}"
        );
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        assert!(seen.insert(name), "{name} is used twice");
    }
    for w in workloads {
        assert!(Workload::from_name(str_of(w, "name")).is_some());
    }
    let names: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
    let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, all, "BENCHMARK.json lists every workload, in order");
    for m in e2e {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{bound}");
    }
    assert!(e2e.iter().any(|m| str_of(m, "name") == "setup_s"));
}

/// Checks that the result line names exactly `wanted`, each with its unit.
fn assert_metrics(line: &str, wanted: &[Value]) {
    let v = json::parse(line).expect("the result line is JSON");
    let metrics = v
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let names: BTreeSet<&str> = wanted.iter().map(|m| str_of(m, "name")).collect();
    let printed: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
    assert_eq!(printed, names);
    for m in wanted {
        let got = &metrics[str_of(m, "name")];
        assert_eq!(str_of(got, "unit"), str_of(m, "unit"), "{line}");
        assert!(got.get("value").and_then(Value::as_f64).is_some(), "{line}");
    }
}

#[test]
fn every_workload_runs_tiny_and_prints_every_metric() {
    let v = benchmark_json();
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run_workload(&Options {
                workload: w,
                seed: DEFAULT_SEED,
                seconds: 0.0,
                trace,
                scale: Scale::Tiny,
            });
            let line = out.json_line();
            // Three rounds that each match round 1, digest for digest.
            assert!(out.correct() && out.failed == 0, "{}: {line}", w.name());
            assert!(out.attempted > 0);
            if trace {
                assert_metrics(&line, list(&v, "per_layer"));
                let m = |name: &str| out.metrics.iter().find(|m| m.name == name).unwrap().value;
                // The traced re-drive reproduced every untraced result bit
                // for bit.
                assert_eq!(m("trace.redrive_mismatches"), 0.0, "{:?}", out.notes);
                assert!(out.tracer.as_ref().is_some_and(|t| !t.spans().is_empty()));
            } else {
                assert_metrics(&line, list(&v, "end_to_end"));
            }
        }
    }
}

#[test]
fn goldens_cover_every_cell_of_both_seeds() {
    for w in Workload::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let path = golden_path(w, seed);
            let text = std::fs::read_to_string(&path).expect("golden file exists");
            let mut labels = BTreeSet::new();
            for line in text.lines() {
                let (label, digest) = line.split_once(' ').expect("label digest");
                assert_eq!(digest.len(), 32, "{}: {line}", path.display());
                assert!(digest.chars().all(|c| c.is_ascii_hexdigit()));
                assert!(labels.insert(label.to_string()), "{label} twice");
            }
            let want: BTreeSet<String> = specs(w, seed, Scale::Full).iter().map(label).collect();
            assert_eq!(labels, want, "{}", path.display());
        }
    }
}
