//! Telemetry samples stay where they are.
//!
//! A thread waiting on the memory system advances, and samples its
//! telemetry, once per distinct memory-event time, so a change to how
//! memory events are queued could move telemetry samples without moving
//! a byte of figure output (which is all `ci.sh` compares with telemetry
//! on). This test runs small cells of every scheme with telemetry on, two
//! threads and a 64-cycle period, and pins a fingerprint of each cell's
//! telemetry JSON: time series, lifecycle log and hottest lines.
//!
//! A change that moves simulated time on purpose re-pins the table from
//! the failure message, which lists every cell's fingerprint.

use asap_core::scheme::SchemeKind;
use asap_sim::fingerprint::hash_bytes;
use asap_sim::TelemetrySettings;
use asap_workloads::{run, BenchId, WorkloadSpec};

/// The schemes each bench of [`PINNED`] runs under.
const SCHEMES: [SchemeKind; 6] = [
    SchemeKind::NoPersist,
    SchemeKind::SwUndo,
    SchemeKind::SwDpoOnly,
    SchemeKind::HwUndo,
    SchemeKind::HwRedo,
    SchemeKind::Asap,
];

/// Per bench, the fingerprint of each [`SCHEMES`] cell's telemetry JSON.
const PINNED: [(BenchId, [&str; 6]); 2] = [
    (
        BenchId::Hm,
        [
            "17586303a93256b79e0d9466c341c2be",
            "c6d1a19094205badc67b8e37020c6742",
            "38c30a9f204d1af2e6aea5b25d641341",
            "c33df51fba8a55cd391cd3843cc3134c",
            "6731ab5194b1175938901a492e5c0fcc",
            "0ce80e5cd5ad42114c5c3e05eb013111",
        ],
    ),
    (
        BenchId::Bt,
        [
            "0ecf74008b8538d1caa01f522f7ccd2c",
            "77d6739a25f586df110f4dc745094c40",
            "74db68166d6b2768c5836b3be415c23f",
            "4d79a407a48ea9b87a91df7f1ed1988e",
            "825e948a85af5f573e0d80beb9f41dc4",
            "d036ab1a3d4f522abb8753219a0e574f",
        ],
    ),
];

#[test]
fn telemetry_of_small_cells_is_pinned() {
    let mut moved = Vec::new();
    let mut table = String::new();
    for (bench, pinned) in PINNED {
        table.push_str(&format!("{bench:?}:\n"));
        for (scheme, want) in SCHEMES.into_iter().zip(pinned) {
            let spec = WorkloadSpec::small(bench, scheme)
                .with_threads(2)
                .with_ops(200)
                .with_telemetry(TelemetrySettings::enabled().with_period(64));
            let json = run(&spec).telemetry_json().expect("telemetry is on");
            let got = hash_bytes(json.as_bytes()).hex();
            table.push_str(&format!("    \"{got}\", // {scheme}\n"));
            if got != want {
                moved.push(format!("{bench}/{scheme}"));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "telemetry moved for {moved:?}; every cell's fingerprint now:\n{table}"
    );
}
