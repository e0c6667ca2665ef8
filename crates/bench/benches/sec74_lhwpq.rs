//! §7.4: sensitivity to LH-WPQ size.
//!
//! ASAP with a 16-entry/channel LH-WPQ runs at 0.78× its 128-entry
//! throughput in the paper, yet still beats the synchronous hardware
//! baselines using 128 entries. A full LH-WPQ stalls a region's first LPO
//! until some region commits and releases its slot.

use asap_bench::{benches, export_telemetry, fig_spec, geomean, header, row, run_grid};
use asap_core::scheme::SchemeKind;
use asap_workloads::{BenchId, WorkloadSpec};

/// §7.4 needs enough concurrently-uncommitted regions to pressure the
/// LH-WPQ: run with 16 threads (close to the paper's 18 cores).
const THREADS: u32 = 16;

fn asap_with_wpq(bench: BenchId, entries: u32) -> WorkloadSpec {
    let mut spec = fig_spec(bench, SchemeKind::Asap).with_threads(THREADS);
    spec.system = spec.system.with_lh_wpq_entries(entries);
    spec
}

fn main() {
    println!("\n=== Section 7.4: LH-WPQ size sensitivity (normalized to ASAP-128, 16 threads) ===");
    header(
        "bench",
        &["ASAP-128", "ASAP-4", "ASAP-1", "HWUndo", "HWRedo"],
    );
    // Cell layout per bench: ASAP-128 baseline, ASAP-4, ASAP-1, HWUndo,
    // HWRedo.
    let the_benches = benches(&BenchId::all());
    let specs: Vec<_> = the_benches
        .iter()
        .flat_map(|bench| {
            [
                fig_spec(*bench, SchemeKind::Asap).with_threads(THREADS),
                asap_with_wpq(*bench, 4),
                asap_with_wpq(*bench, 1),
                fig_spec(*bench, SchemeKind::HwUndo).with_threads(THREADS),
                fig_spec(*bench, SchemeKind::HwRedo).with_threads(THREADS),
            ]
        })
        .collect();
    let results = run_grid(&specs);
    let mut geos = vec![Vec::new(); 4];
    for (ci, cell) in results.chunks(5).enumerate() {
        let base = &cell[0];
        let mut cells = vec!["1.00".to_string()];
        for (i, r) in cell[1..].iter().enumerate() {
            let s = r.speedup_over(base);
            geos[i].push(s);
            cells.push(format!("{s:.2}"));
        }
        row(the_benches[ci].label(), &cells);
    }
    row(
        "GeoMean",
        &std::iter::once("1.00".to_string())
            .chain(geos.iter().map(|g| format!("{:.2}", geomean(g))))
            .collect::<Vec<_>>(),
    );
    println!("(paper: a 16-entry LH-WPQ runs at 0.78x yet still beats HWUndo/HWRedo)");
    export_telemetry("sec74_lhwpq", &[&results]);
}
