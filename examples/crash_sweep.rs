//! Crash-point sweep smoke: one shared prefix, many forked crash points.
//!
//! Crash points come from a lifecycle-guided plan
//! ([`asap_workloads::enumerate_crash_points`]): a recording pilot notes
//! every WPQ-acceptance / persist / commit / region-end boundary, and the
//! sweep crash-straddles up to `ASAP_CRASH_SWEEP` of them (default 32).
//! The sweep itself is the walk: one pass over the prefix that, at each
//! point's write, crashes, recovers and verifies a cache-less copy of the
//! live machine (with `ASAP_SWEEP_JOBS` > 1, each chunk of points restores
//! one spine snapshot and walks from there). It is checked two ways:
//!
//! - against a serial flat-cadence sweep of the same points
//!   (bit-identical forks; the walk replays exactly 0 writes, via the
//!   `snapshot.replayed_writes` metric, while the flat cadence replays
//!   each fork's tail);
//! - at ≤64 points, additionally against the legacy
//!   one-full-run-per-point path (bit-identical, and ≥5x faster at 32+
//!   points; both passes run with the result cache off, so the ratio
//!   compares simulation work, not memoization).
//!
//! ```sh
//! ASAP_CRASH_SWEEP=1000 ASAP_SWEEP_JOBS=4 cargo run --release --example crash_sweep
//! ```
//!
//! The outcome table goes to stdout and is deterministic — byte-identical
//! at any `ASAP_SWEEP_JOBS`; wall clocks and throughput go to stderr
//! (host-dependent, like every timing note).

use std::time::Instant;

use asap_bench::runcache::RunCacheConfig;
use asap_bench::{emit_wallclock, emit_wallclock_sweep, ops, run_crash_sweep_with, threads};
use asap_core::scheme::SchemeKind;
use asap_sim::obs::metrics;
use asap_workloads::resultjson::results_identical;
use asap_workloads::{
    enumerate_crash_points, run, run_sweep_with, BenchId, RunResult, SweepConfig, WorkloadSpec,
};

fn main() {
    let n_points: u64 = std::env::var("ASAP_CRASH_SWEEP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    // Crash sweeps probe recovery behavior, not figure timing, so the
    // small system (4 cores, small caches) is enough. Table 2 works too:
    // its cache tag arrays are copy-on-write, so a snapshot copies chunk
    // pointers rather than the whole geometry.
    let mut spec = WorkloadSpec::new(BenchId::Hm, SchemeKind::Asap)
        .with_threads(threads())
        .with_ops(ops());
    spec.system = asap_sim::SystemConfig::small();
    // Lifecycle-guided plan: one recording pilot enumerates every
    // persistence boundary; the budget samples them evenly. Point
    // placement is metadata a sweeping tool measures once and reuses, so
    // it stays outside the timed comparison.
    let plan = enumerate_crash_points(&spec, n_points as usize);
    let points = &plan.points;
    // Snapshot cadence trades snapshot cost against fork replay distance;
    // an eighth of the write range keeps both well under one full run.
    let snap_every = (plan.prefix_writes / 8).max(1);

    let replayed0 = metrics::counter_value("snapshot.replayed_writes");
    let t0 = Instant::now();
    let sweep = run_crash_sweep_with(&spec, points, snap_every, &RunCacheConfig::off());
    let sweep_elapsed = t0.elapsed();
    let walk_replayed = metrics::counter_value("snapshot.replayed_writes") - replayed0;

    println!(
        "crash-point sweep: {} x {} ({} lifecycle points of {} candidates, \
         snapshot every {} writes)",
        spec.bench.label(),
        spec.scheme.name(),
        points.len(),
        plan.candidates,
        snap_every
    );
    println!(
        "{:>12} {:>10} {:>12} {:>9} {:>9}",
        "crash_after", "outcome", "uncommitted", "replayed", "tx"
    );
    for p in &sweep.baseline.crash_points {
        println!(
            "{:>12} {:>10} {:>12} {:>9} {:>9}",
            p.crash_after,
            if p.crashed { "crashed" } else { "completed" },
            p.uncommitted,
            p.replayed,
            p.tx
        );
    }

    // Every planned point lies inside the write range, so every fork must
    // fire and recover (the per-scheme invariants already ran inside).
    for (f, p) in sweep.forks.iter().zip(&sweep.baseline.crash_points) {
        assert!(p.crashed, "point {} did not fire", p.crash_after);
        assert!(
            f.recovery.is_some(),
            "point {} has no recovery report",
            p.crash_after
        );
    }

    // Flat-cadence reference: same points, serial, no walk. The forks
    // must match bit-for-bit, and the walk must replay no write at all
    // (the `snapshot.replayed_writes` metric both sweeps feed).
    let flat0 = metrics::counter_value("snapshot.replayed_writes");
    let flat = run_sweep_with(&spec, points, &SweepConfig::flat(snap_every));
    let flat_replayed = metrics::counter_value("snapshot.replayed_writes") - flat0;
    for (f, t) in flat.forks.iter().zip(&sweep.forks) {
        assert!(
            results_identical(t, f),
            "walked fork at {} diverged from the flat-cadence layout",
            f.spec.crash_after.unwrap_or(0)
        );
    }
    println!(
        "replayed writes: walk {} vs flat cadence {}",
        walk_replayed, flat_replayed
    );
    assert_eq!(
        walk_replayed, 0,
        "the walk crashes copies of the live machine and replays nothing"
    );

    if points.len() <= 64 {
        // Small sweeps afford the legacy cross-check: one full
        // simulation per point, bit-compared against the forks.
        let t1 = Instant::now();
        let legacy: Vec<RunResult> = points
            .iter()
            .map(|&n| run(&spec.with_crash_after(n)))
            .collect();
        let legacy_elapsed = t1.elapsed();
        for ((f, l), p) in sweep
            .forks
            .iter()
            .zip(&legacy)
            .zip(&sweep.baseline.crash_points)
        {
            assert!(
                results_identical(f, l),
                "fork at {} diverged from the legacy crash_after path",
                p.crash_after
            );
        }
        println!(
            "all {} forks identical to legacy re-runs; all recoveries verified",
            points.len()
        );
        emit_wallclock("crash_sweep_legacy", legacy_elapsed, &[&legacy]);
        let speedup = legacy_elapsed.as_secs_f64() / sweep_elapsed.as_secs_f64().max(1e-9);
        eprintln!(
            "crash_sweep: sweep {:.3}s vs legacy {:.3}s ({speedup:.1}x)",
            sweep_elapsed.as_secs_f64(),
            legacy_elapsed.as_secs_f64()
        );
        if points.len() >= 32 {
            assert!(
                speedup >= 5.0,
                "sweep must be at least 5x faster than {} legacy re-runs (got {speedup:.2}x)",
                points.len()
            );
        }
    } else {
        println!(
            "all {} crash points recovered; forks verified against the flat-cadence layout",
            points.len()
        );
    }

    emit_wallclock_sweep(
        "crash_sweep",
        sweep_elapsed,
        &[&sweep.forks],
        points.len() as u64,
    );
    // The ci.sh parallel gate parses this line from two runs (serial and
    // ASAP_SWEEP_JOBS=2) and compares the seconds.
    eprintln!(
        "crash_sweep: {} points in {:.3}s ({:.0} points/s)",
        points.len(),
        sweep_elapsed.as_secs_f64(),
        points.len() as f64 / sweep_elapsed.as_secs_f64().max(1e-9)
    );
}
