//! Shared harness for the figure-regeneration benches.
//!
//! Every table and figure in the paper's evaluation (§7) has a bench
//! target under `benches/` that prints the same rows/series the paper
//! plots. Run them all with `cargo bench`, or one with e.g.
//! `cargo bench --bench fig7_speedup`.
//!
//! Scale knobs (environment):
//!
//! - `ASAP_OPS` — transactions per thread (default 200);
//! - `ASAP_THREADS` — worker threads (default 4);
//! - `ASAP_JOBS` — host worker threads running simulations in parallel
//!   (default: available parallelism; `1` forces the serial path);
//! - `ASAP_BENCHES` — comma-separated benchmark labels to restrict to;
//! - `ASAP_TELEMETRY` — sample occupancy time series and the
//!   region-lifecycle log in virtual time (see EXPERIMENTS.md
//!   §Telemetry);
//! - `ASAP_TELEMETRY_OUT` — directory for the per-figure merged
//!   telemetry JSON (default `target/telemetry/`; empty disables);
//! - `ASAP_RUNCACHE` / `ASAP_RUNCACHE_DIR` — content-addressed result
//!   memoization (`off`/`mem`/`disk`, default `mem`; see [`runcache`]);
//! - `ASAP_PROGRESS` — live status line on stderr (`1`/`on` enable);
//! - `ASAP_CRASH_SWEEP` — crash-point count for the `crash_sweep`
//!   example, which drives [`run_crash_sweep_with`] (one pass over the
//!   workload that crashes a copy of the live machine at each point,
//!   bit-identical to legacy `crash_after` cells);
//! - `ASAP_SWEEP_JOBS` — worker threads for crash sweeps (default 1; at
//!   more than one, the points split into chunks that each walk from
//!   their own setup, merging back in point order — output is identical
//!   at any value).
//!
//! Unrecognized `ASAP_`-prefixed variables draw a warning on stderr at
//! grid startup (see [`asap_sim::warn_unknown_asap_env`]) — a typo'd
//! knob should never fail silently.
//!
//! Every figure is a grid of *independent deterministic simulations* — one
//! per `(bench × scheme × payload)` cell — so the harness runs them on the
//! shared worker pool ([`asap_sim::pool::ordered`], via [`run_grid`]) and
//! hands results back in spec order: the printed tables are byte-identical
//! for any `ASAP_JOBS`. A cell that panics fails alone: every other cell
//! still runs and is cached, and the grid panics only once it has drained.

#![warn(missing_docs)]

mod progress;
pub mod runcache;

use std::any::Any;
use std::collections::HashMap;

use asap_core::scheme::SchemeKind;
use asap_sim::obs::{self, metrics};
use asap_sim::{Fingerprint, TelemetrySettings};
use asap_workloads::{
    run, walk_sweep, BenchId, CrashPointOutcome, RunResult, SweepResult, WorkloadSpec,
};

use progress::Progress;
use runcache::RunCacheConfig;

/// Transactions per thread, from `ASAP_OPS` (default 200).
pub fn ops() -> u64 {
    std::env::var("ASAP_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

/// Worker threads, from `ASAP_THREADS` (default 4).
pub fn threads() -> u32 {
    std::env::var("ASAP_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// The benchmark set, optionally restricted by `ASAP_BENCHES`.
pub fn benches(all: &[BenchId]) -> Vec<BenchId> {
    match std::env::var("ASAP_BENCHES") {
        Ok(list) => {
            let want: Vec<String> = list.split(',').map(|s| s.trim().to_uppercase()).collect();
            all.iter()
                .copied()
                .filter(|b| want.contains(&b.label().to_string()))
                .collect()
        }
        Err(_) => all.to_vec(),
    }
}

/// Host worker threads for [`run_grid`], from `ASAP_JOBS` (default: the
/// machine's available parallelism; minimum 1).
pub fn jobs() -> usize {
    match std::env::var("ASAP_JOBS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Worker threads for crash sweeps, from `ASAP_SWEEP_JOBS` (default 1 —
/// the sweep's own parallelism is opt-in, separate from the grid pool's
/// [`jobs`]; minimum 1): the `jobs` of [`asap_workloads::walk_sweep`].
/// Sweep output is bit-identical at any value
/// (`tests/parallel_equivalence.rs` and the sweep proptests hold the
/// claim).
pub fn sweep_jobs() -> usize {
    std::env::var("ASAP_SWEEP_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(1)
        .max(1)
}

/// Runs every spec in `specs` and returns the results in the same order,
/// using [`jobs`] host worker threads and the environment-configured
/// result cache ([`RunCacheConfig::from_env`]).
///
/// Each cell is an independent, deterministic, single-threaded (host-side)
/// simulation, so neither parallel execution nor memoization can change
/// any result — only the wall clock. `tests/parallel_equivalence.rs` in
/// the workspace root holds the harness to both claims.
pub fn run_grid(specs: &[WorkloadSpec]) -> Vec<RunResult> {
    run_grid_jobs(specs, jobs())
}

/// [`run_grid`] with an explicit worker count (`jobs <= 1` runs inline
/// without spawning).
pub fn run_grid_jobs(specs: &[WorkloadSpec], jobs: usize) -> Vec<RunResult> {
    run_grid_with(specs, jobs, &RunCacheConfig::from_env())
}

/// [`run_grid`] with an explicit worker count *and* cache configuration.
/// Cache lookups happen up front — by content fingerprint, so duplicate
/// cells within one grid collapse to a single simulation too — and only
/// the missing cells go to the worker pool; results come back in spec
/// order regardless, so stdout is byte-identical whatever hits.
/// `ASAP_PROGRESS=1` draws a live status line on stderr.
///
/// # Panics
///
/// Panics, naming every failed cell, if any cell's simulation panicked.
/// The failure is held until the grid has drained: each failed cell is
/// warned about on stderr as it comes back, and every cell that finished
/// is cached first.
pub fn run_grid_with(
    specs: &[WorkloadSpec],
    jobs: usize,
    cache: &RunCacheConfig,
) -> Vec<RunResult> {
    asap_sim::warn_unknown_asap_env();
    let progress = Progress::from_env(specs.len());
    let results = if cache.enabled() {
        let fps: Vec<Fingerprint> = specs.iter().map(WorkloadSpec::fingerprint).collect();
        grid_with_cache(specs, jobs, cache, &fps, &progress)
    } else {
        run_cells(specs, jobs, &progress)
    };
    progress.finish();
    if cache.enabled() {
        // Cumulative for the process (stderr: the figure's stdout must
        // not depend on cache state).
        obs::note!("{}", runcache::summary_line(&runcache::counters()));
    }
    let failed: Vec<String> = (0..specs.len())
        .filter(|&i| results[i].is_none())
        .map(|i| format!("#{i} {}", cell_name(&specs[i])))
        .collect();
    assert!(
        failed.is_empty(),
        "run_grid: {} of {} cells failed: {}",
        failed.len(),
        specs.len(),
        failed.join(", ")
    );
    results
        .into_iter()
        .map(|r| r.expect("failed cells panicked above"))
        .collect()
}

/// The cached path of [`run_grid_with`]: probe the tiers, simulate the
/// misses, fan duplicates out from their first occurrence. A failed cell
/// (and every duplicate of it) comes back `None` and is never cached.
fn grid_with_cache(
    specs: &[WorkloadSpec],
    jobs: usize,
    cache: &RunCacheConfig,
    fps: &[Fingerprint],
    progress: &Progress,
) -> Vec<Option<RunResult>> {
    let mut results: Vec<Option<RunResult>> = vec![None; specs.len()];
    // First index of each distinct fingerprint; later duplicates are
    // filled by fan-out below instead of consulting the tiers (or the
    // pool) again.
    let mut first: HashMap<Fingerprint, usize> = HashMap::new();
    let mut to_run: Vec<usize> = Vec::new();
    for (i, fp) in fps.iter().enumerate() {
        if first.contains_key(fp) {
            continue;
        }
        first.insert(*fp, i);
        match runcache::lookup(fp, cache) {
            Some((mut r, _)) => {
                // Fingerprint equality makes the cached spec equal to the
                // requested one; overwrite anyway so a cache can never
                // alter what a figure prints about its own inputs.
                r.spec = specs[i];
                results[i] = Some(r);
                progress.tick(true);
            }
            None => {
                runcache::note_miss();
                to_run.push(i);
            }
        }
    }
    let missing: Vec<WorkloadSpec> = to_run.iter().map(|&i| specs[i]).collect();
    for (&i, r) in to_run.iter().zip(run_cells(&missing, jobs, progress)) {
        if let Some(r) = &r {
            runcache::insert(&fps[i], r, cache);
        }
        results[i] = r;
    }
    for i in 0..specs.len() {
        if results[i].is_none() {
            let Some(mut r) = results[first[&fps[i]]].clone() else {
                continue; // the representative failed
            };
            r.spec = specs[i];
            runcache::note_dedup_fanout();
            progress.tick(true);
            results[i] = Some(r);
        }
    }
    results
}

/// Runs a crash-point sweep for `spec` under the cache configuration
/// `cache`.
///
/// The sweep itself ([`asap_workloads::walk_sweep`] on [`sweep_jobs`]
/// workers) runs the workload once per chunk of points and crashes a copy
/// of the live machine at each crash point; this wrapper adds the
/// memoization layer: every fork is keyed by the fingerprint of
/// `spec.with_crash_after(point)` — the *same* key an ordinary
/// [`run_grid`] cell for that spec would use, because the fork's result
/// is byte-identical to the legacy re-run (enforced by the equivalence
/// suite). Sweeps therefore dedupe against prior sweeps *and* against
/// ordinary crash-cell grids across invocations. The baseline is cached
/// under the unarmed spec's fingerprint in its plain-run form
/// (crash-point summaries stripped), interchangeable with any non-sweep
/// cell of the same spec.
///
/// `_snap_every` is unused: the walk takes no snapshots. It stays only
/// because the repository benchmark still passes it.
///
/// Ticks the same progress line as a grid run, one cell per crash point
/// plus one for the baseline. Stdout is untouched; results come back in
/// point order whatever hits.
pub fn run_crash_sweep_with(
    spec: &WorkloadSpec,
    points: &[u64],
    _snap_every: u64,
    cache: &RunCacheConfig,
) -> SweepResult {
    asap_sim::warn_unknown_asap_env();
    let progress = Progress::from_env(points.len() + 1);
    let fork_specs: Vec<WorkloadSpec> = points.iter().map(|&n| spec.with_crash_after(n)).collect();
    let fps: Option<Vec<Fingerprint>> = cache
        .enabled()
        .then(|| fork_specs.iter().map(WorkloadSpec::fingerprint).collect());
    let base_fp = cache.enabled().then(|| spec.fingerprint());

    let mut forks: Vec<Option<RunResult>> = vec![None; points.len()];
    let mut baseline: Option<RunResult> = None;
    let mut first: HashMap<Fingerprint, usize> = HashMap::new();
    let mut to_run: Vec<usize> = Vec::new();
    if let (Some(fps), Some(bfp)) = (&fps, &base_fp) {
        match runcache::lookup(bfp, cache) {
            Some((mut r, _)) => {
                r.spec = *spec;
                baseline = Some(r);
                progress.tick(true);
            }
            None => runcache::note_miss(),
        }
        for (i, fp) in fps.iter().enumerate() {
            if first.contains_key(fp) {
                continue;
            }
            first.insert(*fp, i);
            match runcache::lookup(fp, cache) {
                Some((mut r, _)) => {
                    r.spec = fork_specs[i];
                    forks[i] = Some(r);
                    progress.tick(true);
                }
                None => {
                    runcache::note_miss();
                    to_run.push(i);
                }
            }
        }
    } else {
        to_run = (0..points.len()).collect();
    }

    let mut prefix_writes = 0;
    let mut replayed_writes = 0;
    if baseline.is_none() || !to_run.is_empty() {
        // One sweep covers the baseline and every missing point: the
        // prefix has to be executed to reach the points anyway, and the
        // baseline's completion falls out of it for free.
        let missing: Vec<u64> = to_run.iter().map(|&i| points[i]).collect();
        let sweep = walk_sweep(spec, &missing, sweep_jobs());
        prefix_writes = sweep.prefix_writes;
        replayed_writes = sweep.replayed_writes;
        for (&i, r) in to_run.iter().zip(sweep.forks) {
            if let Some(fps) = &fps {
                runcache::insert(&fps[i], &r, cache);
            }
            forks[i] = Some(r);
            progress.tick(false);
        }
        if baseline.is_none() {
            let mut b = sweep.baseline;
            // Cache the plain-run form: a sweep baseline minus its
            // crash-point summaries is byte-identical to an ordinary run
            // of the unarmed spec, so the entry is interchangeable with
            // (and dedupes against) non-sweep cells. The summaries are
            // rebuilt below from the assembled forks either way.
            b.crash_points.clear();
            if let Some(bfp) = &base_fp {
                runcache::insert(bfp, &b, cache);
            }
            baseline = Some(b);
            progress.tick(false);
        }
    }

    // Duplicate points fan out from their first occurrence.
    for i in 0..points.len() {
        if forks[i].is_none() {
            let fps = fps.as_deref().expect("dedup implies fps");
            let mut r = forks[first[&fps[i]]].clone().expect("representative ran");
            r.spec = fork_specs[i];
            runcache::note_dedup_fanout();
            progress.tick(true);
            forks[i] = Some(r);
        }
    }

    let forks: Vec<RunResult> = forks
        .into_iter()
        .map(|r| r.expect("every point filled"))
        .collect();
    let mut baseline = baseline.expect("baseline filled");
    // Rebuild the summary over *all* requested points (cache hits
    // included) exactly as the driver derives it, so a fully-warm sweep
    // reports the same outcomes as a cold one.
    baseline.crash_points = points
        .iter()
        .zip(&forks)
        .map(|(&n, r)| CrashPointOutcome::of(n, r))
        .collect();
    progress.finish();
    if cache.enabled() {
        obs::note!("{}", runcache::summary_line(&runcache::counters()));
    }
    // `prefix_writes` and `replayed_writes` stay 0 for a fully-warm
    // sweep: the prefix never re-executed, so there is nothing to
    // re-measure (and nothing was replayed).
    SweepResult {
        baseline,
        forks,
        prefix_writes,
        replayed_writes,
    }
}

/// Simulates every spec on `jobs` workers of the shared pool, no
/// memoization; cells are self-scheduled because they vary widely in cost
/// (2KB payloads are ~10x 64B cells). Each worker counts its cells in the
/// `pool.worker<i>.cells` metric. A cell that panicked is warned about and
/// comes back `None`.
fn run_cells(specs: &[WorkloadSpec], jobs: usize, progress: &Progress) -> Vec<Option<RunResult>> {
    let workers: Vec<usize> = (0..jobs.max(1)).collect();
    asap_sim::pool::ordered(workers, specs.len(), |w, i| {
        let r = run(&specs[i]);
        metrics::counter(&format!("pool.worker{w}.cells")).inc();
        progress.tick(false);
        r
    })
    .into_iter()
    .zip(specs)
    .map(|(r, spec)| {
        r.inspect_err(|panic| {
            obs::warn!(
                "run_grid: cell {} panicked: {}",
                cell_name(spec),
                panic_message(panic.as_ref())
            );
        })
        .ok()
    })
    .collect()
}

/// A cell's `bench/scheme` label for failure reports.
fn cell_name(spec: &WorkloadSpec) -> String {
    format!("{}/{}", spec.bench.label(), spec.scheme.name())
}

/// The message a panic was raised with (`panic!` payloads are `&str` or
/// `String`).
fn panic_message(panic: &(dyn Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Writes `body` to a same-directory temp file, then renames it over
/// `path`, so readers never observe a partial file.
fn write_atomic(path: &std::path::Path, body: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Merges the per-run telemetry of every grid into one figure-level JSON
/// object, in spec order: `{"figure":…,"runs":[…]}`. Returns `None` when
/// no run carried telemetry (the knob was off), so callers can skip the
/// write entirely. Deterministic: each run's telemetry is virtual-time
/// sampled, so the merge is byte-identical for any `ASAP_JOBS`.
pub fn merged_telemetry_json(figure: &str, grids: &[&[RunResult]]) -> Option<String> {
    let runs: Vec<String> = grids
        .iter()
        .flat_map(|g| g.iter())
        .filter_map(RunResult::telemetry_json)
        .collect();
    if runs.is_empty() {
        return None;
    }
    Some(format!(
        "{{\"figure\":\"{figure}\",\"runs\":[{}]}}",
        runs.join(",")
    ))
}

/// Writes the merged telemetry of `figure`'s grids ([`merged_telemetry_json`])
/// to `<dir>/<figure>.json`, where `<dir>` is `ASAP_TELEMETRY_OUT`
/// (default `target/telemetry/` next to the workspace root; empty
/// disables). A no-op when telemetry was off for every run. Each figure
/// bench calls it once its grids are done; the note confirming the write
/// goes to stderr, so stdout stays byte-identical.
pub fn export_telemetry(figure: &str, grids: &[&[RunResult]]) {
    let Some(merged) = merged_telemetry_json(figure, grids) else {
        return;
    };
    let dir = match std::env::var("ASAP_TELEMETRY_OUT") {
        Ok(d) if d.is_empty() => return,
        Ok(d) => std::path::PathBuf::from(d),
        Err(_) => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/telemetry"),
    };
    let path = dir.join(format!("{figure}.json"));
    let res = std::fs::create_dir_all(&dir).and_then(|()| write_atomic(&path, &merged));
    match res {
        Ok(()) => obs::note!("telemetry: {figure} -> {}", path.display()),
        Err(e) => obs::warn!("telemetry: could not write {}: {e}", path.display()),
    }
}

/// The standard figure spec: Table 2 system, scaled ops/threads, and
/// telemetry per the `ASAP_TELEMETRY` environment knob.
pub fn fig_spec(bench: BenchId, scheme: SchemeKind) -> WorkloadSpec {
    WorkloadSpec::new(bench, scheme)
        .with_threads(threads())
        .with_ops(ops())
        .with_telemetry(TelemetrySettings::from_env())
}

/// Geometric mean (0.0 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (s / xs.len() as f64).exp()
}

/// Prints a fixed-width table row.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<8}");
    for c in cells {
        print!(" {c:>9}");
    }
    println!();
}

/// Prints a table header followed by a rule.
pub fn header(label: &str, cols: &[&str]) {
    row(
        label,
        &cols.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
    );
    println!("{}", "-".repeat(8 + cols.len() * 10));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn env_defaults() {
        // Not set in the test environment.
        if std::env::var("ASAP_OPS").is_err() {
            assert_eq!(ops(), 200);
        }
        if std::env::var("ASAP_THREADS").is_err() {
            assert_eq!(threads(), 4);
        }
    }

    #[test]
    fn bench_filter_passthrough() {
        if std::env::var("ASAP_BENCHES").is_err() {
            assert_eq!(benches(&BenchId::all()).len(), 9);
        }
    }

    #[test]
    fn jobs_floor_is_one() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn run_grid_preserves_spec_order() {
        let specs: Vec<WorkloadSpec> = [SchemeKind::NoPersist, SchemeKind::Asap]
            .into_iter()
            .flat_map(|s| {
                [BenchId::Q, BenchId::Bt]
                    .into_iter()
                    .map(move |b| WorkloadSpec::new(b, s).with_threads(2).with_ops(20))
            })
            .collect();
        let parallel = run_grid_jobs(&specs, 4);
        assert_eq!(parallel.len(), specs.len());
        for (spec, res) in specs.iter().zip(&parallel) {
            assert_eq!(res.spec.bench, spec.bench);
            assert_eq!(res.spec.scheme, spec.scheme);
        }
    }

    #[test]
    fn merged_telemetry_is_identical_across_job_counts() {
        let specs: Vec<WorkloadSpec> = [BenchId::Q, BenchId::Hm]
            .into_iter()
            .map(|b| {
                WorkloadSpec::new(b, SchemeKind::Asap)
                    .with_threads(2)
                    .with_ops(20)
                    .with_telemetry(TelemetrySettings::enabled())
            })
            .collect();
        // Cache pinned off so both grids really run — a memoized second
        // grid would make the comparison vacuous.
        let serial = run_grid_with(&specs, 1, &RunCacheConfig::off());
        let parallel = run_grid_with(&specs, 2, &RunCacheConfig::off());
        let a = merged_telemetry_json("test", &[&serial]).expect("telemetry on");
        let b = merged_telemetry_json("test", &[&parallel]).expect("telemetry on");
        assert_eq!(a, b, "merge must not depend on ASAP_JOBS");
        asap_sim::json::parse(&a).expect("merged telemetry parses");
        // Telemetry-off grids merge to nothing.
        let off = vec![WorkloadSpec::new(BenchId::Q, SchemeKind::Asap)
            .with_threads(2)
            .with_ops(10)];
        let res = run_grid_with(&off, 1, &RunCacheConfig::off());
        assert!(merged_telemetry_json("test", &[&res]).is_none());
    }

    #[test]
    fn run_grid_serial_and_parallel_agree() {
        let specs: Vec<WorkloadSpec> = [BenchId::Q, BenchId::Hm, BenchId::Ss]
            .into_iter()
            .map(|b| {
                WorkloadSpec::new(b, SchemeKind::Asap)
                    .with_threads(2)
                    .with_ops(20)
            })
            .collect();
        // Cache pinned off so the parallel grid actually re-simulates.
        let serial = run_grid_with(&specs, 1, &RunCacheConfig::off());
        let parallel = run_grid_with(&specs, 3, &RunCacheConfig::off());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.exec_cycles, b.exec_cycles);
            assert_eq!(a.drained_cycles, b.drained_cycles);
            assert_eq!(a.pm_writes, b.pm_writes);
            assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
        }
    }

    #[test]
    fn crash_sweep_grid_matches_legacy_and_interops_with_cache() {
        use asap_workloads::resultjson::results_identical;
        let spec = WorkloadSpec::new(BenchId::Hm, SchemeKind::Asap)
            .with_threads(2)
            .with_ops(20);
        // A duplicate point (dedup fan-out) and one beyond the workload's
        // writes (the fork completes).
        let points = [1u64, 9, 9, 1_000_000];
        let legacy: Vec<RunResult> = points
            .iter()
            .map(|&n| run(&spec.with_crash_after(n)))
            .collect();
        let plain = run(&spec);

        // Cache off: forks byte-identical to the legacy re-run path.
        let cold = run_crash_sweep_with(&spec, &points, 4, &RunCacheConfig::off());
        assert_eq!(cold.forks.len(), points.len());
        for (a, b) in cold.forks.iter().zip(&legacy) {
            assert!(results_identical(a, b), "cold sweep fork diverged");
        }
        assert_eq!(cold.baseline.crash_points.len(), points.len());

        // Disk cache: populate cold, then serve warm — same results, and
        // the warm baseline rebuilds the same crash-point summary.
        let dir = std::env::temp_dir().join(format!("asap-crash-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RunCacheConfig::disk_only(&dir, 16);
        let c1 = run_crash_sweep_with(&spec, &points, 4, &cache);
        let c2 = run_crash_sweep_with(&spec, &points, 4, &cache);
        for sweep in [&c1, &c2] {
            for (a, b) in sweep.forks.iter().zip(&legacy) {
                assert!(results_identical(a, b), "cached sweep fork diverged");
            }
            assert!(results_identical(&sweep.baseline, &cold.baseline));
        }

        // Interop both ways: an ordinary grid over the same crash specs
        // is served from the sweep-populated cache, and the baseline
        // entry is interchangeable with a plain cell of the unarmed spec.
        let crash_specs: Vec<WorkloadSpec> =
            points.iter().map(|&n| spec.with_crash_after(n)).collect();
        let grid = run_grid_with(&crash_specs, 2, &cache);
        for (a, b) in grid.iter().zip(&legacy) {
            assert!(results_identical(a, b), "grid over sweep cache diverged");
        }
        let base_cell = run_grid_with(&[spec], 1, &cache);
        assert!(
            results_identical(&base_cell[0], &plain),
            "cached sweep baseline must be interchangeable with a plain cell"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_cells_collapse_and_match_fresh() {
        use asap_workloads::resultjson::results_identical;
        let spec = WorkloadSpec::new(BenchId::Q, SchemeKind::Asap)
            .with_threads(2)
            .with_ops(20);
        let specs = vec![spec, spec, spec];
        let dir = std::env::temp_dir().join(format!("asap-grid-dedup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fresh = run_grid_with(&specs, 1, &RunCacheConfig::off());
        // Cold cached grid: one simulation, fan-out to all three slots.
        let cold = run_grid_with(&specs, 1, &RunCacheConfig::disk_only(&dir, 8));
        // Warm grid in a parallel pool: served from disk entirely.
        let warm = run_grid_with(&specs, 2, &RunCacheConfig::disk_only(&dir, 8));
        for grid in [&cold, &warm] {
            assert_eq!(grid.len(), specs.len());
            for (a, b) in grid.iter().zip(&fresh) {
                assert!(results_identical(a, b), "cached grid must equal fresh");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
