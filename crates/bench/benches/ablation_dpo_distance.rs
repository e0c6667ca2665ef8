//! Ablation (beyond the paper's figures): the DPO coalescing distance.
//!
//! §4.6.2 fixes the distance at 4 ("empirically determined, as no benefit
//! has been observed at a distance larger than four"). This bench sweeps
//! the distance and reports PM write traffic and throughput so the choice
//! can be checked in this model.

use asap_bench::{benches, export_telemetry, fig_spec, geomean, header, row, run_grid};
use asap_core::scheme::SchemeKind;
use asap_workloads::{BenchId, WorkloadSpec};

const DISTANCES: [u32; 5] = [1, 2, 4, 8, 16];

fn spec(bench: BenchId, distance: u32) -> WorkloadSpec {
    let mut s = fig_spec(bench, SchemeKind::Asap);
    s.system.asap.dpo_distance = distance;
    s
}

fn main() {
    println!("\n=== Ablation: DPO coalescing distance (traffic normalized to distance 4) ===");
    header("bench", &["d=1", "d=2", "d=4", "d=8", "d=16"]);
    // Cell layout per bench: one run per distance; the d=4 run is the
    // baseline.
    let the_benches = benches(&BenchId::all());
    let specs: Vec<_> = the_benches
        .iter()
        .flat_map(|bench| DISTANCES.iter().map(move |d| spec(*bench, *d)))
        .collect();
    let results = run_grid(&specs);
    let mut geo = vec![Vec::new(); DISTANCES.len()];
    for (ci, cell) in results.chunks(DISTANCES.len()).enumerate() {
        let base = &cell[2];
        debug_assert_eq!(DISTANCES[2], 4);
        let mut cells = Vec::new();
        for (i, d) in DISTANCES.iter().enumerate() {
            let r = if *d == 4 {
                1.0
            } else {
                cell[i].traffic_ratio_to(base)
            };
            geo[i].push(r);
            cells.push(format!("{r:.2}"));
        }
        row(the_benches[ci].label(), &cells);
    }
    row(
        "GeoMean",
        &geo.iter()
            .map(|g| format!("{:.2}", geomean(g)))
            .collect::<Vec<_>>(),
    );
    println!("(expected: traffic falls up to d≈4, little benefit beyond — §4.6.2)");
    export_telemetry("ablation_dpo_distance", &[&results]);
}
