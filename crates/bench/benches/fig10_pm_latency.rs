//! Figure 10: sensitivity of throughput to PM latency (higher is better).
//!
//! Throughput normalized to NP as the PM access latency grows from 1× to
//! 16× battery-backed DRAM. The paper: HWUndo degrades fastest (slow
//! synchronous persists extend the critical path), HWRedo is less
//! sensitive (async DPOs), and ASAP tracks NP across the sweep.

use asap_bench::{benches, export_telemetry, fig_spec, geomean, header, row, run_grid};
use asap_core::scheme::SchemeKind;
use asap_workloads::{BenchId, WorkloadSpec};

const MULTS: [u64; 4] = [1, 2, 4, 16];

/// Longer runs than the other figures: WPQ backpressure under slow PM
/// needs time to reach steady state.
fn spec(bench: BenchId, scheme: SchemeKind, mult: u64) -> WorkloadSpec {
    let mut s = fig_spec(bench, scheme).with_ops(asap_bench::ops() * 3);
    s.system = s.system.with_pm_latency_mult(mult);
    s
}
const SCHEMES: [(&str, SchemeKind); 3] = [
    ("ASAP", SchemeKind::Asap),
    ("HWUndo", SchemeKind::HwUndo),
    ("HWRedo", SchemeKind::HwRedo),
];

fn main() {
    println!("\n=== Figure 10: throughput vs PM latency, normalized to NP at each point ===");
    header("bench", &["mult", "NP", "ASAP", "HWUndo", "HWRedo"]);
    // Cell layout per (bench, mult): NP baseline, then the three schemes.
    let the_benches = benches(&BenchId::all());
    let specs: Vec<_> = the_benches
        .iter()
        .flat_map(|bench| {
            MULTS.iter().flat_map(move |mult| {
                std::iter::once(SchemeKind::NoPersist)
                    .chain(SCHEMES.iter().map(|(_, s)| *s))
                    .map(move |scheme| spec(*bench, scheme, *mult))
            })
        })
        .collect();
    let results = run_grid(&specs);
    let cell_len = 1 + SCHEMES.len();
    let mut geo: Vec<Vec<f64>> = vec![Vec::new(); SCHEMES.len() * MULTS.len()];
    for (ci, cell) in results.chunks(cell_len).enumerate() {
        let bench = the_benches[ci / MULTS.len()];
        let mi = ci % MULTS.len();
        let np = &cell[0];
        let mut cells = vec![format!("{}x", MULTS[mi]), "1.00".to_string()];
        for (si, r) in cell[1..].iter().enumerate() {
            let s = r.speedup_over(np);
            geo[si * MULTS.len() + mi].push(s);
            cells.push(format!("{s:.2}"));
        }
        row(bench.label(), &cells);
    }
    println!("\n--- geomeans per latency multiplier ---");
    header("scheme", &["1x", "2x", "4x", "16x"]);
    for (si, (name, _)) in SCHEMES.iter().enumerate() {
        let cells: Vec<String> = (0..MULTS.len())
            .map(|mi| format!("{:.2}", geomean(&geo[si * MULTS.len() + mi])))
            .collect();
        row(name, &cells);
    }
    println!("(paper: ASAP stays near NP at 16x; HWUndo degrades the most)");
    export_telemetry("fig10_pm_latency", &[&results]);
}
