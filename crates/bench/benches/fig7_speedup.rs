//! Figure 7: performance comparison — speedup over SW (higher is better).
//!
//! All nine benchmarks with 64B and 2KB data sizes per atomic region, for
//! SW / HWRedo / HWUndo / ASAP / NP. The paper's geomeans: HWRedo 1.49×,
//! HWUndo 1.60×, ASAP 2.25×, NP ≈ 1.04× ASAP.

use asap_bench::{benches, export_telemetry, fig_spec, geomean, header, row, run_grid};
use asap_core::scheme::SchemeKind;
use asap_workloads::BenchId;

const SCHEMES: [SchemeKind; 5] = [
    SchemeKind::SwUndo,
    SchemeKind::HwRedo,
    SchemeKind::HwUndo,
    SchemeKind::Asap,
    SchemeKind::NoPersist,
];

const SIZES: [u64; 2] = [64, 2048];

fn main() {
    println!("\n=== Figure 7: speedup over SW (higher is better) ===");
    header("bench", &["size", "SW", "HWRedo", "HWUndo", "ASAP", "NP"]);
    // One grid cell per (bench, size, scheme); the SW run appears exactly
    // once per (bench, size) and doubles as that row's baseline.
    let the_benches = benches(&BenchId::all());
    let specs: Vec<_> = the_benches
        .iter()
        .flat_map(|bench| {
            SIZES.iter().flat_map(move |vb| {
                SCHEMES
                    .iter()
                    .map(move |scheme| fig_spec(*bench, *scheme).with_value_bytes(*vb))
            })
        })
        .collect();
    let results = run_grid(&specs);
    let mut geo = vec![Vec::new(); SCHEMES.len()];
    for (ci, cell) in results.chunks(SCHEMES.len()).enumerate() {
        let bench = the_benches[ci / SIZES.len()];
        let vb = SIZES[ci % SIZES.len()];
        let sw = &cell[0];
        let mut cells = vec![format!("{}B", vb)];
        for (i, r) in cell.iter().enumerate() {
            let s = if i == 0 { 1.0 } else { r.speedup_over(sw) };
            geo[i].push(s);
            cells.push(format!("{s:.2}"));
        }
        row(bench.label(), &cells);
    }
    let cells: Vec<String> = std::iter::once("both".to_string())
        .chain(geo.iter().map(|g| format!("{:.2}", geomean(g))))
        .collect();
    row("GeoMean", &cells);
    println!("(paper geomeans: SW 1.00, HWRedo 1.49, HWUndo 1.60, ASAP 2.25, NP 2.35)");
    export_telemetry("fig7_speedup", &[&results]);
}
