//! A figure's telemetry export lands under `ASAP_TELEMETRY_OUT` as one
//! parseable document with one telemetry object per cell, in spec order.
//!
//! One `#[test]`, in its own test binary: it sets a process environment
//! variable that the harness reads.

use asap_bench::runcache::RunCacheConfig;
use asap_bench::{export_telemetry, run_grid_with};
use asap_core::scheme::SchemeKind;
use asap_sim::json::{self, Value};
use asap_sim::TelemetrySettings;
use asap_workloads::{BenchId, WorkloadSpec};

#[test]
fn telemetry_exports_with_the_wallclock_record_off() {
    let tmp = std::env::temp_dir().join(format!("asap-telemetry-export-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::env::set_var("ASAP_TELEMETRY_OUT", &tmp);

    let specs: Vec<WorkloadSpec> = [BenchId::Q, BenchId::Hm]
        .into_iter()
        .map(|b| {
            WorkloadSpec::new(b, SchemeKind::Asap)
                .with_threads(2)
                .with_ops(10)
                .with_telemetry(TelemetrySettings::enabled())
        })
        .collect();
    let grid = run_grid_with(&specs, 1, &RunCacheConfig::off());
    export_telemetry("telemetry_export", &[&grid]);

    let path = tmp.join("telemetry_export.json");
    let body = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("telemetry export missing at {}: {e}", path.display()));
    let doc = json::parse(&body).expect("telemetry export parses");
    assert_eq!(
        doc.get("figure").and_then(Value::as_str),
        Some("telemetry_export")
    );
    assert_eq!(
        doc.get("runs")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(specs.len()),
        "one telemetry object per cell"
    );
    let _ = std::fs::remove_dir_all(&tmp);
}
