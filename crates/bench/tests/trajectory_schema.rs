//! `BENCH_TRAJECTORY.json` is the repository's committed record of host
//! performance, one record per change, and it is edited by hand. This
//! test holds its shape against the benchmark it reports on
//! (`BENCHMARK.json`, which it only reads):
//!
//! - `pr` rises strictly from record to record;
//! - every workload is one `BENCHMARK.json` declares, and every metric one
//!   of its `end_to_end` metrics;
//! - each `parent`/`change` side is `null` or carries `median`, `q1` and
//!   `q3`, each a number or `null`;
//! - `change_wins` never exceeds `pairs`;
//! - every record but the newest names its `commit` (each change fills in
//!   its predecessor's hash).

use std::collections::BTreeSet;
use std::path::Path;

use asap_sim::json::{self, Value};

fn read_json(name: &str) -> Value {
    // CARGO_MANIFEST_DIR of this crate is crates/bench.
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"))
}

/// The `name` field of every entry of `BENCHMARK.json`'s `key` list.
fn declared_names(bench: &Value, key: &str) -> BTreeSet<String> {
    bench
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("a `{key}` entry has no name"))
                .to_string()
        })
        .collect()
}

/// Checks one `parent`/`change` side: `null`, or an object whose
/// `median`, `q1` and `q3` are each a number or `null`.
fn check_side(side: Option<&Value>, at: &str) {
    let side = side.unwrap_or_else(|| panic!("{at}: side missing"));
    if *side == Value::Null {
        return;
    }
    for stat in ["median", "q1", "q3"] {
        let v = side
            .get(stat)
            .unwrap_or_else(|| panic!("{at}: `{stat}` missing"));
        assert!(
            *v == Value::Null || v.as_f64().is_some(),
            "{at}: `{stat}` is neither a number nor null"
        );
    }
}

/// Checks a `workloads` object: `{workload: [{seed, pairs, metrics}]}`.
fn check_workloads(
    workloads: &Value,
    at: &str,
    known_workloads: &BTreeSet<String>,
    known_metrics: &BTreeSet<String>,
) {
    let workloads = workloads
        .as_object()
        .unwrap_or_else(|| panic!("{at}: `workloads` is not an object"));
    for (name, runs) in workloads {
        assert!(
            known_workloads.contains(name),
            "{at}: workload `{name}` is not declared in BENCHMARK.json"
        );
        let runs = runs
            .as_array()
            .unwrap_or_else(|| panic!("{at}/{name}: not a list of seeded runs"));
        for run in runs {
            let seed = run.get("seed").and_then(Value::as_str).unwrap_or("?");
            let at = format!("{at}/{name}@{seed}");
            let pairs = run
                .get("pairs")
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("{at}: `pairs` missing"));
            let metrics = run
                .get("metrics")
                .and_then(Value::as_object)
                .unwrap_or_else(|| panic!("{at}: `metrics` missing"));
            for (metric, m) in metrics {
                let at = format!("{at}/{metric}");
                assert!(
                    known_metrics.contains(metric),
                    "{at}: not an end-to-end metric of BENCHMARK.json"
                );
                check_side(m.get("parent"), &format!("{at}/parent"));
                check_side(m.get("change"), &format!("{at}/change"));
                if let Some(wins) = m.get("change_wins").and_then(Value::as_u64) {
                    assert!(wins <= pairs, "{at}: {wins} wins in {pairs} pairs");
                }
            }
        }
    }
}

#[test]
fn trajectory_matches_the_benchmark_it_reports() {
    let bench = read_json("BENCHMARK.json");
    let known_workloads = declared_names(&bench, "workloads");
    let known_metrics = declared_names(&bench, "end_to_end");

    let trajectory = read_json("BENCH_TRAJECTORY.json");
    let records = trajectory
        .get("records")
        .and_then(Value::as_array)
        .expect("BENCH_TRAJECTORY.json has a `records` list");
    assert!(!records.is_empty(), "the trajectory has records");

    let mut last_pr = None;
    for (i, rec) in records.iter().enumerate() {
        let pr = rec
            .get("pr")
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("record {i}: `pr` missing"));
        assert!(
            last_pr.is_none_or(|last| pr > last),
            "record {i}: pr {pr} does not follow pr {last_pr:?}"
        );
        last_pr = Some(pr);
        let at = format!("pr {pr}");

        let commit = rec
            .get("commit")
            .unwrap_or_else(|| panic!("{at}: `commit` missing"));
        if i + 1 < records.len() {
            assert!(
                commit.as_str().is_some_and(|c| !c.is_empty()),
                "{at}: only the newest record may leave `commit` null"
            );
        }

        let workloads = rec
            .get("workloads")
            .unwrap_or_else(|| panic!("{at}: `workloads` missing"));
        check_workloads(workloads, &at, &known_workloads, &known_metrics);
        for (j, ablation) in rec
            .get("ablations")
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .enumerate()
        {
            let workloads = ablation
                .get("workloads")
                .unwrap_or_else(|| panic!("{at} ablation {j}: `workloads` missing"));
            check_workloads(
                workloads,
                &format!("{at} ablation {j}"),
                &known_workloads,
                &known_metrics,
            );
        }
    }
}
