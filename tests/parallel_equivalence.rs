//! The parallel figure harness must be a pure wall-clock optimization:
//! running a grid of simulations on N host threads has to produce results
//! indistinguishable from running them one after another. Each simulation
//! is single-threaded and deterministic, so any divergence here means the
//! harness corrupted ordering or shared state.
//!
//! The run cache must be held to the same standard: a result served from
//! the in-process or on-disk memo tier has to be indistinguishable —
//! artifact by artifact — from re-simulating the cell. The pool tests pin
//! the cache *off* so they keep comparing real runs; the cache tests pin a
//! hermetic disk store and compare against a fresh reference.
//!
//! `ci.sh` runs this suite under both `ASAP_JOBS=1` and `ASAP_JOBS=4`.

use asap_bench::runcache::RunCacheConfig;
use asap_bench::{run_grid, run_grid_jobs, run_grid_with};
use asap_core::scheme::SchemeKind;
use asap_sim::TelemetrySettings;
use asap_workloads::{BenchId, RunResult, WorkloadSpec};

/// A small but heterogeneous grid: different benchmarks, schemes, thread
/// counts and payload sizes, so cells finish out of order under parallel
/// execution.
fn grid() -> Vec<WorkloadSpec> {
    let mut specs = Vec::new();
    for bench in [BenchId::Q, BenchId::Hm, BenchId::Bt] {
        for scheme in [
            SchemeKind::NoPersist,
            SchemeKind::SwUndo,
            SchemeKind::HwRedo,
            SchemeKind::Asap,
        ] {
            specs.push(
                WorkloadSpec::new(bench, scheme)
                    .with_threads(2)
                    .with_ops(30),
            );
        }
    }
    specs.push(
        WorkloadSpec::new(BenchId::Ss, SchemeKind::Asap)
            .with_threads(4)
            .with_ops(20)
            .with_value_bytes(2048),
    );
    // One telemetry-enabled cell: the sampler and lifecycle log are driven
    // by virtual time only, so their exports must also be byte-identical
    // between the serial and parallel harness paths.
    specs.push(
        WorkloadSpec::new(BenchId::Hm, SchemeKind::Asap)
            .with_threads(2)
            .with_ops(25)
            .with_telemetry(TelemetrySettings::enabled()),
    );
    // A crash cell: power failure drains the memory event queue, ADR
    // flushes the WPQ, and the cache slab / forward-index arenas reset —
    // recovery must replay identically on every harness thread.
    specs.push(
        WorkloadSpec::new(BenchId::Hm, SchemeKind::HwUndo)
            .with_threads(2)
            .with_ops(30)
            .with_tracking()
            .with_crash_after(40),
    );
    // A residency-delayed WPQ: `DrainCheck` events land thousands of
    // cycles out, so the event queue holds near and far events at once
    // inside a real workload.
    let mut delayed = asap_sim::SystemConfig::table2();
    delayed.mem.wpq_residency = 4096;
    specs.push(
        WorkloadSpec::new(BenchId::Tpcc, SchemeKind::Asap)
            .with_threads(2)
            .with_ops(15)
            .with_system(delayed),
    );
    specs
}

/// Every observable field must agree exactly — floats bit-for-bit, and the
/// whole stats registry via its canonical JSON dump.
fn assert_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.spec.bench, b.spec.bench);
    assert_eq!(a.spec.scheme, b.spec.scheme);
    assert_eq!(a.tx, b.tx);
    assert_eq!(a.exec_cycles, b.exec_cycles);
    assert_eq!(a.drained_cycles, b.drained_cycles);
    assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
    assert_eq!(a.pm_writes, b.pm_writes);
    assert_eq!(
        a.region_cycles_mean.to_bits(),
        b.region_cycles_mean.to_bits()
    );
    assert_eq!(a.stalls.compute.to_bits(), b.stalls.compute.to_bits());
    assert_eq!(a.stalls.log_full.to_bits(), b.stalls.log_full.to_bits());
    assert_eq!(
        a.stalls.wpq_backpressure.to_bits(),
        b.stalls.wpq_backpressure.to_bits()
    );
    assert_eq!(
        a.stalls.dependency_wait.to_bits(),
        b.stalls.dependency_wait.to_bits()
    );
    assert_eq!(
        a.stalls.commit_wait.to_bits(),
        b.stalls.commit_wait.to_bits()
    );
    assert_eq!(a.stats.to_json(), b.stats.to_json());
    assert_eq!(a.chrome_trace, b.chrome_trace);
    assert_eq!(a.trace_dump, b.trace_dump);
    assert_eq!(a.timeseries, b.timeseries);
    assert_eq!(a.lifecycle, b.lifecycle);
    assert_eq!(a.lifecycle_dot, b.lifecycle_dot);
    assert_eq!(a.hot_lines, b.hot_lines);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(format!("{:?}", a.recovery), format!("{:?}", b.recovery));
}

#[test]
fn serial_and_parallel_grids_are_identical() {
    let specs = grid();
    // Cache off: this test is about the worker pool, and a memoized
    // second grid would compare a result with itself.
    let serial = run_grid_with(&specs, 1, &RunCacheConfig::off());
    let parallel = run_grid_with(&specs, 4, &RunCacheConfig::off());
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_identical(a, b);
    }
}

/// A cell served from the run cache must be indistinguishable from a
/// fresh simulation — every scalar, the stats registry, and all exported
/// artifacts (telemetry series, lifecycle log/DOT, traces) byte for
/// byte, whether the hit comes from a cold-started disk store or a warm
/// one, serially or through the worker pool.
#[test]
fn cached_grid_is_identical_to_fresh_runs() {
    let specs = grid();
    let dir = std::env::temp_dir().join(format!("asap-runcache-equiv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fresh = run_grid_with(&specs, 1, &RunCacheConfig::off());
    // Hermetic disk-only store: no process-global tier involved, so the
    // second and third grids below are served by real file round-trips.
    let store = RunCacheConfig::disk_only(&dir, 64);
    let cold = run_grid_with(&specs, 1, &store);
    let warm_serial = run_grid_with(&specs, 1, &store);
    let warm_parallel = run_grid_with(&specs, 4, &store);
    for cached in [&cold, &warm_serial, &warm_parallel] {
        assert_eq!(cached.len(), fresh.len());
        for (a, b) in cached.iter().zip(&fresh) {
            assert_identical(a, b);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `run_grid` (the env-driven entry the benches use) must agree with the
/// serial reference no matter what `ASAP_JOBS` or `ASAP_RUNCACHE` the
/// environment sets — this is the variant ci.sh exercises at
/// `ASAP_JOBS=1` and `ASAP_JOBS=4` (and, under the default `mem` cache
/// mode, it doubles as an in-process-tier equivalence check: the serial
/// reference populates the tier and the env-driven grid is served from
/// it).
#[test]
fn env_driven_grid_matches_serial_reference() {
    let specs = grid();
    let serial = run_grid_jobs(&specs, 1);
    let env = run_grid(&specs);
    for (a, b) in serial.iter().zip(&env) {
        assert_identical(a, b);
    }
}

/// Copy-on-write crash-point sweeps must be a pure wall-clock
/// optimization exactly like the pool and the cache: every fork —
/// snapshot-restored mid-run, then crashed and recovered — has to be
/// byte-identical to the legacy one-full-run-per-point path, whether the
/// legacy reference ran serially or through the parallel pool, and
/// whether its cells were simulated or served from a disk store.
#[test]
fn crash_sweeps_are_identical_to_legacy_crash_cells() {
    use asap_bench::run_crash_sweep_with;
    let spec = WorkloadSpec::new(BenchId::Hm, SchemeKind::Asap)
        .with_threads(2)
        .with_ops(30)
        .with_tracking();
    // Early, mid, late, and one point beyond the workload's writes (that
    // fork completes instead of crashing).
    let points = [1u64, 11, 29, 64, 1_000_000];
    let crash_specs: Vec<WorkloadSpec> = points.iter().map(|&n| spec.with_crash_after(n)).collect();

    // Legacy reference: one full re-run per point, via the parallel pool
    // (itself equivalence-tested above).
    let legacy = run_grid_with(&crash_specs, 4, &RunCacheConfig::off());

    // Serial sweep, cache off.
    let sweep = run_crash_sweep_with(&spec, &points, 16, &RunCacheConfig::off());
    assert_eq!(sweep.forks.len(), legacy.len());
    for (a, b) in sweep.forks.iter().zip(&legacy) {
        assert_identical(a, b);
    }

    // The sweep baseline minus its crash-point summary is an ordinary
    // uninterrupted run of the unarmed spec.
    let plain = run_grid_with(&[spec], 1, &RunCacheConfig::off());
    let mut base = sweep.baseline.clone();
    base.crash_points.clear();
    assert_identical(&base, &plain[0]);

    // Cached sweeps: a cold pass populates a hermetic disk store, a warm
    // pass is served from it — forks and the rebuilt crash-point summary
    // must both be unchanged.
    let dir = std::env::temp_dir().join(format!("asap-sweep-equiv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = RunCacheConfig::disk_only(&dir, 64);
    let cold = run_crash_sweep_with(&spec, &points, 16, &store);
    let warm = run_crash_sweep_with(&spec, &points, 16, &store);
    for cached in [&cold, &warm] {
        for (a, b) in cached.forks.iter().zip(&legacy) {
            assert_identical(a, b);
        }
        assert_eq!(cached.baseline.crash_points, sweep.baseline.crash_points);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The parallel sweep engine stacks two axes of host parallelism —
/// fork-dispatch workers (`ASAP_SWEEP_JOBS`) and the grid pool that
/// produces the legacy reference (`ASAP_JOBS`) — and every combination
/// must still be bit-identical to the serial flat sweep and to the legacy
/// one-run-per-point path.
/// The walk (the fourth axis) rides along: walked forks must match
/// flat-cadence forks under every dispatch mode.
#[test]
fn parallel_tree_sweeps_match_serial_flat_and_legacy() {
    use asap_workloads::{run_sweep_with, SweepConfig};
    let spec = WorkloadSpec::new(BenchId::Hm, SchemeKind::Asap)
        .with_threads(2)
        .with_ops(30)
        .with_tracking();
    let points = [2u64, 17, 17, 41, 1_000_000];
    let crash_specs: Vec<WorkloadSpec> = points.iter().map(|&n| spec.with_crash_after(n)).collect();
    // Legacy reference through the 4-way grid pool (the ASAP_JOBS axis).
    let legacy = run_grid_with(&crash_specs, 4, &RunCacheConfig::off());
    let flat = run_sweep_with(&spec, &points, &SweepConfig::flat(16));
    for (a, b) in flat.forks.iter().zip(&legacy) {
        assert_identical(a, b);
    }
    for sweep_jobs in [1usize, 2, 4] {
        for cfg in [
            SweepConfig::flat(16).with_jobs(sweep_jobs),
            SweepConfig::tree(16).with_budget(2).with_jobs(sweep_jobs),
        ] {
            let sw = run_sweep_with(&spec, &points, &cfg);
            for (a, b) in sw.forks.iter().zip(&flat.forks) {
                assert_identical(a, b);
            }
            assert_eq!(sw.baseline.crash_points, flat.baseline.crash_points);
            assert_eq!(sw.prefix_writes, flat.prefix_writes);
            if cfg.walk {
                assert_eq!(sw.replayed_writes, 0, "a walk replays nothing ({cfg:?})");
            }
        }
    }
}

/// Results come back in spec order, not completion order.
#[test]
fn results_preserve_spec_order() {
    let specs = grid();
    for jobs in [2, 4, 8] {
        let results = run_grid_with(&specs, jobs, &RunCacheConfig::off());
        assert_eq!(results.len(), specs.len());
        for (spec, res) in specs.iter().zip(&results) {
            assert_eq!(res.spec.bench, spec.bench, "order broken at {jobs} jobs");
            assert_eq!(res.spec.scheme, spec.scheme, "order broken at {jobs} jobs");
            assert_eq!(
                res.spec.threads, spec.threads,
                "order broken at {jobs} jobs"
            );
        }
    }
}

/// More workers than specs must not deadlock or drop cells.
#[test]
fn more_jobs_than_specs() {
    let specs = vec![
        WorkloadSpec::new(BenchId::Q, SchemeKind::Asap)
            .with_threads(1)
            .with_ops(10),
        WorkloadSpec::new(BenchId::Q, SchemeKind::NoPersist)
            .with_threads(1)
            .with_ops(10),
    ];
    let results = run_grid_with(&specs, 16, &RunCacheConfig::off());
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(|r| r.tx > 0));
}
