//! Figure 9: persistent memory write traffic (lower is better).
//!
//! (a) the incremental effect of ASAP's §5.1 optimizations — DPO
//! coalescing (+C), LPO dropping (+LP) and DPO dropping (full ASAP),
//! normalized to full ASAP;
//! (b) traffic of SW / HWRedo / HWUndo vs ASAP.
//!
//! The paper: coalescing saves ~8%, +LPO dropping ~33%, +DPO dropping
//! ~31%; ASAP generates 0.62× / 0.52× / 0.39× the traffic of HWRedo /
//! HWUndo / SW.

use asap_bench::{benches, export_telemetry, fig_spec, geomean, header, row, run_grid};
use asap_core::scheme::{AsapOpts, SchemeKind};
use asap_workloads::BenchId;

fn main() {
    let variants = [
        ("No-Opt", SchemeKind::AsapWith(AsapOpts::none())),
        ("+C", SchemeKind::AsapWith(AsapOpts::coalescing_only())),
        (
            "+C+LP",
            SchemeKind::AsapWith(AsapOpts::coalescing_and_lpo()),
        ),
        ("ASAP", SchemeKind::Asap),
    ];
    let schemes = [
        ("SW", SchemeKind::SwUndo),
        ("HWRedo", SchemeKind::HwRedo),
        ("HWUndo", SchemeKind::HwUndo),
        ("ASAP", SchemeKind::Asap),
    ];
    // One combined grid for both panels: per bench, the full-ASAP run comes
    // first and serves as the baseline for 9a *and* 9b (it used to be
    // simulated twice), then the three 9a variants, then the three 9b
    // baselines.
    let the_benches = benches(&BenchId::all());
    let extras = [
        SchemeKind::AsapWith(AsapOpts::none()),
        SchemeKind::AsapWith(AsapOpts::coalescing_only()),
        SchemeKind::AsapWith(AsapOpts::coalescing_and_lpo()),
        SchemeKind::SwUndo,
        SchemeKind::HwRedo,
        SchemeKind::HwUndo,
    ];
    let specs: Vec<_> = the_benches
        .iter()
        .flat_map(|bench| {
            std::iter::once(SchemeKind::Asap)
                .chain(extras)
                .map(move |scheme| fig_spec(*bench, scheme))
        })
        .collect();
    let results = run_grid(&specs);
    let cell_len = 1 + extras.len();

    println!("\n=== Figure 9a: ASAP traffic-optimization ablation (normalized to full ASAP) ===");
    header(
        "bench",
        &variants.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
    );
    let mut geo_a = vec![Vec::new(); variants.len()];
    for (ci, cell) in results.chunks(cell_len).enumerate() {
        let full = &cell[0];
        let mut cells = Vec::new();
        for (i, (_, scheme)) in variants.iter().enumerate() {
            let r = if *scheme == SchemeKind::Asap {
                1.0
            } else {
                cell[1 + i].traffic_ratio_to(full)
            };
            geo_a[i].push(r);
            cells.push(format!("{r:.2}"));
        }
        row(the_benches[ci].label(), &cells);
    }
    row(
        "GeoMean",
        &geo_a
            .iter()
            .map(|g| format!("{:.2}", geomean(g)))
            .collect::<Vec<_>>(),
    );
    println!("(paper: +C saves ~8%, +LP another ~33%, DPO dropping another ~31%)");

    println!("\n=== Figure 9b: PM write traffic normalized to ASAP (lower is better) ===");
    header(
        "bench",
        &schemes.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
    );
    let mut geo_b = vec![Vec::new(); schemes.len()];
    for (ci, cell) in results.chunks(cell_len).enumerate() {
        let asap = &cell[0];
        let mut cells = Vec::new();
        for (i, (_, scheme)) in schemes.iter().enumerate() {
            let r = if *scheme == SchemeKind::Asap {
                1.0
            } else {
                cell[4 + i].traffic_ratio_to(asap)
            };
            geo_b[i].push(r);
            cells.push(format!("{r:.2}"));
        }
        row(the_benches[ci].label(), &cells);
    }
    row(
        "GeoMean",
        &geo_b
            .iter()
            .map(|g| format!("{:.2}", geomean(g)))
            .collect::<Vec<_>>(),
    );
    println!("(paper: ASAP traffic is 0.39x SW, 0.52x HWUndo, 0.62x HWRedo — i.e. SW 2.56, HWUndo 1.92, HWRedo 1.61 normalized to ASAP)");
    export_telemetry("fig9_traffic", &[&results]);
}
