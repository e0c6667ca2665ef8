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
//! - `ASAP_WALLCLOCK` — path of the host wall-clock report
//!   (default `BENCH_WALLCLOCK.json` in the repo root; empty disables);
//! - `ASAP_TELEMETRY` — sample occupancy time series and the
//!   region-lifecycle log in virtual time (see EXPERIMENTS.md
//!   §Telemetry);
//! - `ASAP_TELEMETRY_OUT` — directory for the per-figure merged
//!   telemetry JSON (default `target/telemetry/`; empty disables);
//! - `ASAP_RUNCACHE` / `ASAP_RUNCACHE_DIR` — content-addressed result
//!   memoization (`off`/`mem`/`disk`, default `mem`; see [`runcache`]);
//! - `ASAP_PROGRESS` — live status line on stderr (`1`/`on` enable);
//! - `ASAP_CRASH_SWEEP` — crash-point count for the `crash_sweep`
//!   example, which drives [`run_crash_sweep`] (shared-prefix
//!   copy-on-write forks, bit-identical to legacy `crash_after` cells);
//! - `ASAP_SWEEP_JOBS` — fork-dispatch worker threads for crash sweeps
//!   (default 1; snapshots are `Send`, so forks run on a scoped pool and
//!   merge back in point order — output is identical at any value);
//! - `ASAP_EVENTS` — NDJSON run-event stream (`<path>` or `stderr`; see
//!   [`asap_sim::obs::events`]).
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
use std::time::{Duration, Instant};

use asap_core::machine::RunOutcome;
use asap_core::scheme::SchemeKind;
use asap_sim::obs::{self, events, metrics, phase};
use asap_sim::{Fingerprint, TelemetrySettings};
use asap_workloads::{
    run, run_sweep_with, BenchId, CrashPointOutcome, RunResult, SweepConfig, SweepResult,
    WorkloadSpec,
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

/// Fork-dispatch worker threads for crash sweeps, from `ASAP_SWEEP_JOBS`
/// (default 1 — the sweep's own parallelism is opt-in, separate from the
/// grid pool's [`jobs`]; minimum 1). Sweep output is bit-identical at any
/// value (`tests/parallel_equivalence.rs` and the sweep proptests hold
/// the claim).
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
///
/// Observability (all off the figure's stdout): when `ASAP_EVENTS` is
/// set, the grid emits `grid_start`, one `cell_start`/`cell_end` pair
/// per cell (ordered by completion, keyed by fingerprint), and
/// `grid_end` records; `ASAP_PROGRESS=1` draws a live status line on
/// stderr; host time is attributed to the [`phase`] profiler either way.
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
    let events_on = events::enabled();
    let progress = Progress::from_env(specs.len());
    let t0 = Instant::now();
    if events_on {
        events::Event::new("grid_start")
            .field_str("schema", events::SCHEMA)
            .field_u64("cells", specs.len() as u64)
            .field_u64("jobs", jobs as u64)
            .field_str("cache", if cache.enabled() { "on" } else { "off" })
            .emit();
    }
    // Fingerprints key both memoization and the event stream; with
    // neither consumer active, skip hashing entirely.
    let fps: Option<Vec<Fingerprint>> = (cache.enabled() || events_on).then(|| {
        let _t = phase::scope(phase::Phase::Fingerprint);
        specs.iter().map(WorkloadSpec::fingerprint).collect()
    });
    let results = if cache.enabled() {
        grid_with_cache(
            specs,
            jobs,
            cache,
            fps.as_deref().expect("cache implies fps"),
            &progress,
        )
    } else {
        run_cells(specs, jobs, fps.as_deref(), &progress)
    };
    progress.finish();
    if events_on {
        let c = runcache::counters();
        events::Event::new("grid_end")
            .field_u64("cells", specs.len() as u64)
            .field_u64("host_us", t0.elapsed().as_micros() as u64)
            .field_u64("cache_hits", c.hits())
            .field_u64("cache_misses", c.misses)
            .emit();
    }
    if cache.enabled() {
        // Cumulative for the process (stderr, like the wall-clock note —
        // the figure's stdout must not depend on cache state).
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
    {
        let _t = phase::scope(phase::Phase::CacheProbe);
        for (i, fp) in fps.iter().enumerate() {
            if first.contains_key(fp) {
                continue;
            }
            first.insert(*fp, i);
            let probe_t0 = Instant::now();
            match runcache::lookup(fp, cache) {
                Some((mut r, tier)) => {
                    // Fingerprint equality makes the cached spec equal to
                    // the requested one; overwrite anyway so a cache can
                    // never alter what a figure prints about its own
                    // inputs.
                    r.spec = specs[i];
                    emit_cell_start(&specs[i], fp);
                    emit_cell_end(
                        &specs[i],
                        fp,
                        tier.label(),
                        &r,
                        probe_t0.elapsed().as_micros() as u64,
                    );
                    results[i] = Some(r);
                    progress.tick(true);
                }
                None => {
                    runcache::note_miss();
                    to_run.push(i);
                }
            }
        }
    }
    let missing: Vec<WorkloadSpec> = to_run.iter().map(|&i| specs[i]).collect();
    let missing_fps: Vec<Fingerprint> = to_run.iter().map(|&i| fps[i]).collect();
    for (&i, r) in to_run
        .iter()
        .zip(run_cells(&missing, jobs, Some(&missing_fps), progress))
    {
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
            emit_cell_start(&specs[i], &fps[i]);
            emit_cell_end(&specs[i], &fps[i], "dedup", &r, 0);
            progress.tick(true);
            results[i] = Some(r);
        }
    }
    results
}

/// Runs a copy-on-write crash-point sweep for `spec` under the
/// environment-configured result cache ([`RunCacheConfig::from_env`]).
///
/// The sweep itself ([`asap_workloads::run_sweep`]) executes the shared
/// prefix once and forks each crash point from the nearest machine
/// snapshot; this wrapper adds the memoization layer: every fork is keyed
/// by the fingerprint of `spec.with_crash_after(point)` — the *same* key
/// an ordinary [`run_grid`] cell for that spec would use, because the
/// fork's result is byte-identical to the legacy re-run (enforced by the
/// equivalence suite). Sweeps therefore dedupe against prior sweeps *and*
/// against ordinary crash-cell grids across invocations. The baseline is
/// cached under the unarmed spec's fingerprint in its plain-run form
/// (crash-point summaries stripped), interchangeable with any non-sweep
/// cell of the same spec.
pub fn run_crash_sweep(spec: &WorkloadSpec, points: &[u64], snap_every: u64) -> SweepResult {
    run_crash_sweep_with(spec, points, snap_every, &RunCacheConfig::from_env())
}

/// [`run_crash_sweep`] with an explicit cache configuration. Emits the
/// same observability records as a grid run — `grid_start`/`grid_end`
/// brackets, one `cell_start`/`cell_end` pair per crash point plus one
/// for the baseline, progress ticks. Stdout is untouched; results come
/// back in point order whatever hits.
pub fn run_crash_sweep_with(
    spec: &WorkloadSpec,
    points: &[u64],
    snap_every: u64,
    cache: &RunCacheConfig,
) -> SweepResult {
    asap_sim::warn_unknown_asap_env();
    let events_on = events::enabled();
    let progress = Progress::from_env(points.len() + 1);
    let t0 = Instant::now();
    if events_on {
        events::Event::new("grid_start")
            .field_str("schema", events::SCHEMA)
            .field_u64("cells", points.len() as u64 + 1)
            .field_u64("jobs", sweep_jobs() as u64)
            .field_str("cache", if cache.enabled() { "on" } else { "off" })
            .emit();
    }
    let fork_specs: Vec<WorkloadSpec> = points.iter().map(|&n| spec.with_crash_after(n)).collect();
    let want_fps = cache.enabled() || events_on;
    let fps: Option<Vec<Fingerprint>> = want_fps.then(|| {
        let _t = phase::scope(phase::Phase::Fingerprint);
        fork_specs.iter().map(WorkloadSpec::fingerprint).collect()
    });
    let base_fp = want_fps.then(|| spec.fingerprint());

    let mut forks: Vec<Option<RunResult>> = vec![None; points.len()];
    let mut baseline: Option<RunResult> = None;
    let mut first: HashMap<Fingerprint, usize> = HashMap::new();
    let mut to_run: Vec<usize> = Vec::new();
    if cache.enabled() {
        let fps = fps.as_deref().expect("cache implies fps");
        let bfp = base_fp.as_ref().expect("cache implies fps");
        let _t = phase::scope(phase::Phase::CacheProbe);
        let probe_t0 = Instant::now();
        match runcache::lookup(bfp, cache) {
            Some((mut r, tier)) => {
                r.spec = *spec;
                emit_cell_start(spec, bfp);
                emit_cell_end(
                    spec,
                    bfp,
                    tier.label(),
                    &r,
                    probe_t0.elapsed().as_micros() as u64,
                );
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
            let probe_t0 = Instant::now();
            match runcache::lookup(fp, cache) {
                Some((mut r, tier)) => {
                    r.spec = fork_specs[i];
                    emit_cell_start(&fork_specs[i], fp);
                    emit_cell_end(
                        &fork_specs[i],
                        fp,
                        tier.label(),
                        &r,
                        probe_t0.elapsed().as_micros() as u64,
                    );
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
        // prefix has to be executed to build the snapshots anyway, and
        // the baseline's completion falls out of it for free.
        let missing: Vec<u64> = to_run.iter().map(|&i| points[i]).collect();
        if baseline.is_none() {
            if let Some(bfp) = &base_fp {
                emit_cell_start(spec, bfp);
            }
        }
        for &i in &to_run {
            if let Some(fps) = &fps {
                emit_cell_start(&fork_specs[i], &fps[i]);
            }
        }
        let sim_t0 = Instant::now();
        let sweep = {
            let _t = phase::scope(phase::Phase::Simulate);
            // Tree layout + env-configured fork pool: bit-identical to
            // the serial flat sweep, only faster and memory-bounded.
            let cfg = SweepConfig::tree(snap_every).with_jobs(sweep_jobs());
            run_sweep_with(spec, &missing, &cfg)
        };
        prefix_writes = sweep.prefix_writes;
        replayed_writes = sweep.replayed_writes;
        // Host time split evenly across the cells the sweep served —
        // the prefix is shared, so no per-cell attribution is exact.
        let per_us = sim_t0.elapsed().as_micros() as u64 / (to_run.len() as u64 + 1);
        for (&i, r) in to_run.iter().zip(sweep.forks) {
            if let Some(fps) = &fps {
                emit_cell_end(&fork_specs[i], &fps[i], "miss", &r, per_us);
                if cache.enabled() {
                    runcache::insert(&fps[i], &r, cache);
                }
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
                emit_cell_end(spec, bfp, "miss", &b, per_us);
                if cache.enabled() {
                    runcache::insert(bfp, &b, cache);
                }
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
            emit_cell_start(&fork_specs[i], &fps[i]);
            emit_cell_end(&fork_specs[i], &fps[i], "dedup", &r, 0);
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
        .map(|(&n, r)| CrashPointOutcome {
            crash_after: n,
            crashed: r.outcome == RunOutcome::Crashed,
            uncommitted: r
                .recovery
                .as_ref()
                .map_or(0, |x| x.uncommitted.len() as u64),
            replayed: r.recovery.as_ref().map_or(0, |x| x.replayed.len() as u64),
            restored_lines: r.recovery.as_ref().map_or(0, |x| x.restored_lines),
            tx: r.tx,
        })
        .collect();
    progress.finish();
    if events_on {
        let c = runcache::counters();
        events::Event::new("grid_end")
            .field_u64("cells", points.len() as u64 + 1)
            .field_u64("host_us", t0.elapsed().as_micros() as u64)
            .field_u64("cache_hits", c.hits())
            .field_u64("cache_misses", c.misses)
            .emit();
    }
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
/// (2KB payloads are ~10x 64B cells). A cell that panicked is warned about
/// and comes back `None`. `fps` is present whenever the event stream is on
/// (the grid runner computes fingerprints for either consumer), so cell
/// records can be keyed by content.
fn run_cells(
    specs: &[WorkloadSpec],
    jobs: usize,
    fps: Option<&[Fingerprint]>,
    progress: &Progress,
) -> Vec<Option<RunResult>> {
    let workers: Vec<usize> = (0..jobs.max(1)).collect();
    asap_sim::pool::ordered(workers, specs.len(), |w, i| {
        run_cell(i, specs, fps, progress, *w)
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

/// Simulates one cell on worker `w`, bracketing it with cell events and
/// accounting host time to the Simulate phase and the worker's registry
/// counters.
fn run_cell(
    i: usize,
    specs: &[WorkloadSpec],
    fps: Option<&[Fingerprint]>,
    progress: &Progress,
    w: usize,
) -> RunResult {
    let spec = &specs[i];
    let fp = fps.map(|f| &f[i]);
    if let Some(fp) = fp {
        emit_cell_start(spec, fp);
    }
    let t0 = Instant::now();
    let r = {
        let _t = phase::scope(phase::Phase::Simulate);
        run(spec)
    };
    let host_us = t0.elapsed().as_micros() as u64;
    if let Some(fp) = fp {
        emit_cell_end(spec, fp, "miss", &r, host_us);
    }
    metrics::counter(&format!("pool.worker{w}.cells")).inc();
    metrics::counter(&format!("pool.worker{w}.busy_us")).add(host_us);
    progress.tick(false);
    r
}

/// Starts a cell record carrying the cell's identity fields.
fn cell_record(ev: &str, spec: &WorkloadSpec, fp: &Fingerprint) -> events::Event {
    events::Event::new(ev)
        .field_str("fp", &fp.hex())
        .field_str("bench", spec.bench.label())
        .field_str("scheme", spec.scheme.name())
}

/// Emits `cell_start` (no-op with the stream off).
fn emit_cell_start(spec: &WorkloadSpec, fp: &Fingerprint) {
    if events::enabled() {
        cell_record("cell_start", spec, fp).emit();
    }
}

/// Emits `cell_end`. `cache` says how the cell was served: `"miss"`
/// (simulated), `"mem"`/`"disk"` (tier hit), or `"dedup"` (intra-grid
/// fan-out copy).
fn emit_cell_end(spec: &WorkloadSpec, fp: &Fingerprint, cache: &str, r: &RunResult, host_us: u64) {
    if !events::enabled() {
        return;
    }
    let outcome = match r.outcome {
        RunOutcome::Completed => "completed",
        RunOutcome::Crashed => "crashed",
    };
    cell_record("cell_end", spec, fp)
        .field_str("outcome", outcome)
        .field_str("cache", cache)
        .field_u64("host_us", host_us)
        .field_u64("sim_cycles", r.exec_cycles)
        .emit();
}

/// Sums a counter across results (used by the wall-clock report).
fn total(results: &[&[RunResult]], f: impl Fn(&RunResult) -> u64) -> u64 {
    results.iter().flat_map(|g| g.iter()).map(&f).sum()
}

/// Appends one record for `figure` to the wall-clock trajectory file
/// (`BENCH_WALLCLOCK.json`, override with `ASAP_WALLCLOCK`; set it empty to
/// disable), then exports the figure's merged telemetry (see
/// [`merged_telemetry_json`]) whatever the wall-clock setting. The file
/// is a JSON array of records: `{figure, host_seconds, jobs, cells,
/// cache, sim_cycles, pm_writes, phases, metrics, unix_time}` — host
/// seconds move with harness work; simulated cycles and traffic must
/// not, which is what makes the trajectory useful to future perf PRs.
/// `cache` is `"warm"` when any run-cache hit served part of this
/// process (so its host seconds measure the memoized path, not the
/// simulator) and `"cold"` otherwise; perf comparisons must skip warm
/// records. `phases` is the host-phase profile *taken* at write time
/// ([`phase::take_snapshot_json`]): each record owns the interval since
/// the previous record, so back-to-back emits in one process (e.g.
/// `crash_sweep` then `crash_sweep_legacy`) never repeat each other's
/// `simulate_us`/`cells_timed`. `metrics` is the process-cumulative
/// host metrics registry ([`metrics::snapshot_json`]): run-cache
/// traffic, per-worker pool time, and the simulator's host-side
/// structure counters.
///
/// The note confirming the write goes to *stderr*: stdout stays
/// byte-identical across `ASAP_JOBS` settings and host speeds.
pub fn emit_wallclock(figure: &str, elapsed: Duration, grids: &[&[RunResult]]) {
    emit_wallclock_env(figure, elapsed, grids, None);
}

/// [`emit_wallclock`] for crash sweeps: the record additionally carries
/// `crash_points` (how many points the sweep covered) and
/// `points_per_sec` (that count over the host seconds) — the sweep
/// throughput.
pub fn emit_wallclock_sweep(
    figure: &str,
    elapsed: Duration,
    grids: &[&[RunResult]],
    crash_points: u64,
) {
    emit_wallclock_env(figure, elapsed, grids, Some(crash_points));
}

fn emit_wallclock_env(
    figure: &str,
    elapsed: Duration,
    grids: &[&[RunResult]],
    crash_points: Option<u64>,
) {
    let path = match std::env::var("ASAP_WALLCLOCK") {
        Ok(p) if p.is_empty() => None,
        Ok(p) => Some(std::path::PathBuf::from(p)),
        // CARGO_MANIFEST_DIR of this crate is crates/bench.
        Err(_) => Some(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_WALLCLOCK.json"),
        ),
    };
    if let Some(path) = path {
        if let Err(e) = emit_wallclock_record(&path, figure, elapsed, grids, crash_points) {
            obs::warn!("wallclock: could not write {}: {e}", path.display());
        }
    }
    emit_telemetry(figure, grids);
}

/// The write behind [`emit_wallclock`], with an explicit path so tests
/// can aim it at a temp (or unwritable) location. The stderr note and
/// the `wallclock_written` event fire only after the atomic rename has
/// returned `Ok` — a failed write must never claim the record landed.
pub fn emit_wallclock_to(
    path: &std::path::Path,
    figure: &str,
    elapsed: Duration,
    grids: &[&[RunResult]],
) -> std::io::Result<()> {
    emit_wallclock_record(path, figure, elapsed, grids, None)
}

/// [`emit_wallclock_to`] with the optional sweep-throughput fields.
pub fn emit_wallclock_record(
    path: &std::path::Path,
    figure: &str,
    elapsed: Duration,
    grids: &[&[RunResult]],
    crash_points: Option<u64>,
) -> std::io::Result<()> {
    let _t = phase::scope(phase::Phase::Export);
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let cache_tag = if runcache::counters().hits() > 0 {
        "warm"
    } else {
        "cold"
    };
    let sweep_fields = crash_points.map_or(String::new(), |n| {
        format!(
            "\"crash_points\":{n},\"points_per_sec\":{:.1},",
            n as f64 / elapsed.as_secs_f64().max(1e-9)
        )
    });
    let record = format!(
        "{{\"figure\":\"{}\",\"host_seconds\":{:.3},\"jobs\":{},\"cells\":{},\
         \"cache\":\"{}\",\"sim_cycles\":{},\"pm_writes\":{},{}\"phases\":{},\
         \"metrics\":{},\"unix_time\":{}}}",
        figure,
        elapsed.as_secs_f64(),
        jobs(),
        grids.iter().map(|g| g.len()).sum::<usize>(),
        cache_tag,
        total(grids, |r| r.exec_cycles),
        total(grids, |r| r.pm_writes),
        sweep_fields,
        phase::take_snapshot_json(),
        metrics::snapshot_json(),
        unix_time,
    );
    // The file is a JSON array; append the record so repeated figure runs
    // accumulate a trajectory, keeping only the newest
    // [`MAX_WALLCLOCK_ENTRIES`] records per figure (prior records are kept
    // verbatim — only membership changes, never formatting).
    let mut records: Vec<String> = std::fs::read_to_string(path)
        .map(|prev| extract_json_objects(&prev))
        .unwrap_or_default();
    records.push(record);
    let dropped = cap_trajectory(&mut records, figure);
    let body = format!("[\n  {}\n]\n", records.join(",\n  "));
    // Write-temp-then-rename: figures may run concurrently (or be
    // interrupted), and a half-written trajectory file would poison every
    // later append. `rename` within one directory is atomic on POSIX.
    write_atomic(path, &body)?;
    if dropped > 0 {
        obs::note!(
            "wallclock: {figure} trajectory capped at {MAX_WALLCLOCK_ENTRIES} \
             entries ({dropped} oldest dropped)"
        );
    }
    obs::note!(
        "wallclock: {figure} {:.3}s ({} jobs) -> {}",
        elapsed.as_secs_f64(),
        jobs(),
        path.display()
    );
    if events::enabled() {
        events::Event::new("wallclock_written")
            .field_str("figure", figure)
            .field_f64("host_seconds", elapsed.as_secs_f64())
            .field_str("path", &path.display().to_string())
            .emit();
    }
    Ok(())
}

/// Newest records kept per figure in the wall-clock trajectory file; the
/// oldest beyond this are dropped on append (noted on stderr).
const MAX_WALLCLOCK_ENTRIES: usize = 64;

/// Extracts the top-level `{…}` objects of a JSON array as verbatim text
/// slices. Brace-depth counting copes with nested objects (the `phases`
/// and `metrics` sub-objects); the records never put brace characters
/// inside strings (metric names are dotted identifiers). A
/// malformed file yields an empty list, so the caller starts a fresh
/// trajectory rather than corrupting the file further.
fn extract_json_objects(s: &str) -> Vec<String> {
    let mut v = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            '}' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    v.push(s[start..=i].to_string());
                }
            }
            _ => {}
        }
    }
    v
}

/// Drops the oldest records of `figure` beyond [`MAX_WALLCLOCK_ENTRIES`]
/// (other figures' records are untouched) and returns how many were
/// dropped.
fn cap_trajectory(records: &mut Vec<String>, figure: &str) -> usize {
    let tag = format!("\"figure\":\"{figure}\"");
    let mine = records.iter().filter(|r| r.contains(&tag)).count();
    let dropped = mine.saturating_sub(MAX_WALLCLOCK_ENTRIES);
    let mut left = dropped;
    records.retain(|r| {
        if left > 0 && r.contains(&tag) {
            left -= 1;
            false
        } else {
            true
        }
    });
    dropped
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

/// Writes the merged telemetry for `figure` under the `ASAP_TELEMETRY_OUT`
/// directory (default `target/telemetry/` next to the workspace root;
/// empty disables). A no-op when telemetry was off for every run. Called
/// from [`emit_wallclock`] whether or not the wall-clock record is on, so
/// every figure bench exports for free.
fn emit_telemetry(figure: &str, grids: &[&[RunResult]]) {
    let Some(merged) = merged_telemetry_json(figure, grids) else {
        return;
    };
    let dir = match std::env::var("ASAP_TELEMETRY_OUT") {
        Ok(d) if d.is_empty() => return,
        Ok(d) => std::path::PathBuf::from(d),
        Err(_) => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/telemetry"),
    };
    let path = dir.join(format!("{figure}.json"));
    let _t = phase::scope(phase::Phase::Export);
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
    fn trajectory_extraction_and_cap() {
        assert!(extract_json_objects("garbage").is_empty());
        assert!(extract_json_objects("").is_empty());
        let s = "[\n  {\"figure\":\"a\",\"x\":1},\n  {\"figure\":\"b\",\"x\":2}\n]\n";
        assert_eq!(
            extract_json_objects(s),
            vec!["{\"figure\":\"a\",\"x\":1}", "{\"figure\":\"b\",\"x\":2}"]
        );

        // Over-full trajectory: the oldest records of the capped figure
        // are dropped, records of other figures stay, order is preserved.
        let mut records: Vec<String> = (0..MAX_WALLCLOCK_ENTRIES + 3)
            .map(|i| format!("{{\"figure\":\"f7\",\"n\":{i}}}"))
            .collect();
        records.insert(1, "{\"figure\":\"other\",\"n\":99}".to_string());
        assert_eq!(cap_trajectory(&mut records, "f7"), 3);
        assert_eq!(records.len(), MAX_WALLCLOCK_ENTRIES + 1);
        assert_eq!(records[0], "{\"figure\":\"other\",\"n\":99}");
        assert_eq!(records[1], "{\"figure\":\"f7\",\"n\":3}");
        assert_eq!(
            records.last().unwrap(),
            &format!("{{\"figure\":\"f7\",\"n\":{}}}", MAX_WALLCLOCK_ENTRIES + 2)
        );
        // Under the cap: untouched.
        assert_eq!(cap_trajectory(&mut records, "f7"), 0);
        assert_eq!(cap_trajectory(&mut records, "other"), 0);
        assert_eq!(records.len(), MAX_WALLCLOCK_ENTRIES + 1);
    }

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
