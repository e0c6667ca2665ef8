//! Figure 8: average cycles per atomic region, normalized to NP (lower is
//! better).
//!
//! Synchronous-commit schemes pay their persist waits inside the region;
//! ASAP proceeds past `asap_end` immediately. The paper reports HWRedo
//! 1.69×, HWUndo 1.61× and ASAP only 1.08× of NP.

use asap_bench::{benches, export_telemetry, fig_spec, geomean, header, row, run_grid};
use asap_core::scheme::SchemeKind;
use asap_workloads::BenchId;

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::SwUndo,
    SchemeKind::HwRedo,
    SchemeKind::HwUndo,
    SchemeKind::Asap,
];

const SIZES: [u64; 2] = [64, 2048];

fn main() {
    println!("\n=== Figure 8: cycles per atomic region normalized to NP (lower is better) ===");
    header("bench", &["size", "SW", "HWRedo", "HWUndo", "ASAP", "NP"]);
    // Cell layout: NP baseline first, then the four schemes.
    let the_benches = benches(&BenchId::all());
    let specs: Vec<_> = the_benches
        .iter()
        .flat_map(|bench| {
            SIZES.iter().flat_map(move |vb| {
                std::iter::once(SchemeKind::NoPersist)
                    .chain(SCHEMES)
                    .map(move |scheme| fig_spec(*bench, scheme).with_value_bytes(*vb))
            })
        })
        .collect();
    let results = run_grid(&specs);
    let mut geo = vec![Vec::new(); SCHEMES.len()];
    for (ci, cell) in results.chunks(1 + SCHEMES.len()).enumerate() {
        let bench = the_benches[ci / SIZES.len()];
        let vb = SIZES[ci % SIZES.len()];
        let base = cell[0].region_cycles_mean.max(1.0);
        let mut cells = vec![format!("{}B", vb)];
        for (i, r) in cell[1..].iter().enumerate() {
            let norm = r.region_cycles_mean / base;
            geo[i].push(norm);
            cells.push(format!("{norm:.2}"));
        }
        cells.push("1.00".into());
        row(bench.label(), &cells);
    }
    let cells: Vec<String> = std::iter::once("both".to_string())
        .chain(geo.iter().map(|g| format!("{:.2}", geomean(g))))
        .chain(std::iter::once("1.00".to_string()))
        .collect();
    row("GeoMean", &cells);
    println!("(paper geomeans: HWRedo 1.69, HWUndo 1.61, ASAP 1.08 of NP)");
    export_telemetry("fig8_region_cycles", &[&results]);
}
