//! Figure 1: overhead of LPOs and DPOs in a software approach.
//!
//! Normalized throughput of the software baseline with data flushes only
//! ("DPO Only") and with full undo logging ("LPO & DPO"), relative to no
//! persistence (NP). The paper measures 0.58× and 0.31× geomean on real
//! hardware; the simulator reproduces the ordering and rough magnitudes.

use asap_bench::{benches, export_telemetry, fig_spec, geomean, header, row, run_grid};
use asap_core::scheme::SchemeKind;
use asap_workloads::BenchId;

const SCHEMES: [SchemeKind; 3] = [
    SchemeKind::NoPersist,
    SchemeKind::SwDpoOnly,
    SchemeKind::SwUndo,
];

fn main() {
    println!("\n=== Figure 1: software persist-operation overhead (normalized throughput) ===");
    header("bench", &["NP", "DPO Only", "LPO & DPO"]);
    let the_benches = benches(&BenchId::fig1());
    let specs: Vec<_> = the_benches
        .iter()
        .flat_map(|bench| SCHEMES.iter().map(move |scheme| fig_spec(*bench, *scheme)))
        .collect();
    let results = run_grid(&specs);
    let mut dpo_only = Vec::new();
    let mut full = Vec::new();
    for (ci, cell) in results.chunks(SCHEMES.len()).enumerate() {
        let np = &cell[0];
        let dr = cell[1].speedup_over(np);
        let fr = cell[2].speedup_over(np);
        dpo_only.push(dr);
        full.push(fr);
        row(
            the_benches[ci].label(),
            &[
                format!("{:.2}", 1.0),
                format!("{dr:.2}"),
                format!("{fr:.2}"),
            ],
        );
    }
    row(
        "GeoMean",
        &[
            "1.00".into(),
            format!("{:.2}", geomean(&dpo_only)),
            format!("{:.2}", geomean(&full)),
        ],
    );
    println!("(paper: DPO Only 0.58, LPO & DPO 0.31)");
    export_telemetry("fig1_sw_overhead", &[&results]);
}
