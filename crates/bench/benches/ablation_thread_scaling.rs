//! Ablation (beyond the paper's figures): thread scaling under lock
//! contention.
//!
//! §2.1 argues that persist latency inside critical sections translates
//! into lock contention: "high latency atomic regions translate into high
//! latency critical sections". Synchronous schemes hold data unavailable
//! (the lock, for the sync family; the region body itself never waits for
//! ASAP) — so ASAP's advantage should *grow* with thread count on a
//! lock-contended benchmark. Q uses a single global lock.

use asap_bench::{export_telemetry, geomean, header, ops, row, run_grid};
use asap_core::scheme::SchemeKind;
use asap_sim::SystemConfig;
use asap_workloads::{BenchId, WorkloadSpec};

const THREADS: [u32; 5] = [1, 2, 4, 8, 16];
const SCHEMES: [(&str, SchemeKind); 4] = [
    ("SW", SchemeKind::SwUndo),
    ("HWUndo", SchemeKind::HwUndo),
    ("ASAP", SchemeKind::Asap),
    ("NP", SchemeKind::NoPersist),
];

fn main() {
    println!(
        "\n=== Ablation: throughput vs threads on Q (global lock), normalized to 1-thread SW ==="
    );
    header("scheme", &["t=1", "t=2", "t=4", "t=8", "t=16"]);
    // Grid layout: scheme-major, thread-minor. The first cell (SW, t=1) is
    // also the normalization baseline.
    let specs: Vec<_> = SCHEMES
        .iter()
        .flat_map(|(_, scheme)| {
            THREADS.iter().map(move |t| {
                WorkloadSpec::new(BenchId::Q, *scheme)
                    .with_threads(*t)
                    .with_ops(ops())
            })
        })
        .collect();
    let results = run_grid(&specs);
    let base = &results[0];
    let rows: Vec<(usize, Vec<f64>)> = SCHEMES
        .iter()
        .enumerate()
        .map(|(si, _)| {
            let vals = results[si * THREADS.len()..(si + 1) * THREADS.len()]
                .iter()
                .map(|r| r.speedup_over(base))
                .collect();
            (si, vals)
        })
        .collect();
    for (si, vals) in &rows {
        row(
            SCHEMES[*si].0,
            &vals.iter().map(|v| format!("{v:.2}")).collect::<Vec<_>>(),
        );
    }
    let mut asap_over_undo = Vec::new();
    for (i, _) in THREADS.iter().enumerate() {
        let undo = rows[1].1[i];
        let asap = rows[2].1[i];
        asap_over_undo.push(asap / undo);
    }
    println!(
        "\nASAP/HWUndo by thread count: {}",
        asap_over_undo
            .iter()
            .map(|v| format!("{v:.2}"))
            .collect::<Vec<_>>()
            .join("  ")
    );
    println!(
        "(§2.1: the async-commit advantage should hold or grow with contention; geomean {:.2})",
        geomean(&asap_over_undo)
    );
    // --- Wide-machine cells: presence masks beyond one 64-bit word. ---
    // cores = threads at 128 and 256 exercises the multi-word sharer
    // masks in the cache hierarchy end-to-end (every run asserts
    // `check_inclusive` after the drain). Reduced op counts keep the
    // wall-clock bounded: the point is correctness at scale plus the
    // contention trend, not absolute throughput.
    println!("\n=== Wide-machine cells: cores = threads, normalized to 128-core SW ===");
    header("scheme", &["c=128", "c=256"]);
    const WIDE: [u32; 2] = [128, 256];
    let wide_ops = (ops() / 8).max(4);
    let wide_specs: Vec<_> = SCHEMES
        .iter()
        .flat_map(|(_, scheme)| {
            WIDE.iter().map(move |c| {
                let mut sys = SystemConfig::table2();
                sys.cores = *c;
                WorkloadSpec::new(BenchId::Q, *scheme)
                    .with_system(sys)
                    .with_threads(*c)
                    .with_ops(wide_ops)
            })
        })
        .collect();
    let wide_results = run_grid(&wide_specs);
    let wide_base = &wide_results[0];
    for (si, (name, _)) in SCHEMES.iter().enumerate() {
        let vals: Vec<String> = wide_results[si * WIDE.len()..(si + 1) * WIDE.len()]
            .iter()
            .map(|r| format!("{:.2}", r.speedup_over(wide_base)))
            .collect();
        row(name, &vals);
    }
    export_telemetry("ablation_thread_scaling", &[&results, &wide_results]);
}
