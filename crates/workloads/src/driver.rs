//! Turns a [`WorkloadSpec`] into a simulated run and its measurements.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Mutex;

use asap_core::machine::{
    Machine, MachineConfig, MachineSnapshot, RunOutcome, StepFn, StepOutcome, ThreadCtx,
};
use asap_core::scheme::RecoveryReport;
use asap_sim::{Cycle, Stats, Summary};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spec::WorkloadSpec;
use crate::structures::{AnyBench, Benchmark};

/// Mean per-region cycle breakdown: compute plus the four stall classes.
/// The components sum to the mean of `region.cycles` (within float error),
/// because the machine samples them from the same per-region accumulator.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StallBreakdown {
    /// Cycles not attributed to any stall class.
    pub compute: f64,
    /// Waiting for log space (`region.stall.log_full`).
    pub log_full: f64,
    /// Persistence-path backpressure (LH-WPQ, CL entries, CLPtr slots).
    pub wpq_backpressure: f64,
    /// Inter-region dependence waits (Dep slots/entries, LPO locks).
    pub dependency_wait: f64,
    /// Synchronous durability waits (commit, fence, drain).
    pub commit_wait: f64,
}

impl StallBreakdown {
    /// Sum of all components (≈ mean region cycles).
    pub fn total(&self) -> f64 {
        self.compute
            + self.log_full
            + self.wpq_backpressure
            + self.dependency_wait
            + self.commit_wait
    }

    fn from_stats(stats: &Stats) -> Self {
        let mean = |n: &str| stats.summary(n).map_or(0.0, Summary::mean);
        StallBreakdown {
            compute: mean("region.compute"),
            log_full: mean("region.stall.log_full"),
            wpq_backpressure: mean("region.stall.wpq_backpressure"),
            dependency_wait: mean("region.stall.dependency_wait"),
            commit_wait: mean("region.stall.commit_wait"),
        }
    }
}

/// Everything a figure needs from one run.
///
/// Results are plain owned data (`Send`), so a harness may simulate many
/// specs on host worker threads and move the finished results back — each
/// *simulation* stays single-threaded and deterministic regardless.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The spec that produced this result.
    pub spec: WorkloadSpec,
    /// Transactions completed.
    pub tx: u64,
    /// Execution makespan in cycles (excludes the post-run drain tail).
    pub exec_cycles: u64,
    /// Makespan after draining all asynchronous work.
    pub drained_cycles: u64,
    /// Transactions per kilocycle.
    pub throughput: f64,
    /// 64-byte writes that reached the PM media.
    pub pm_writes: u64,
    /// Mean cycles per atomic region (Fig. 8's metric).
    pub region_cycles_mean: f64,
    /// Mean per-region cycle breakdown by stall class.
    pub stalls: StallBreakdown,
    /// Full statistics registry.
    pub stats: Stats,
    /// Chrome trace-event JSON (only when the spec enables tracing).
    pub chrome_trace: Option<String>,
    /// Deterministic text dump of the CPU and memory traces (only when
    /// the spec enables tracing); byte-identical across identical runs.
    pub trace_dump: Option<String>,
    /// Occupancy time-series JSON (only when the spec enables telemetry);
    /// deterministic, bounded by the decimating buffer.
    pub timeseries: Option<String>,
    /// Region-lifecycle log JSON (only when the spec enables telemetry).
    pub lifecycle: Option<String>,
    /// Lifecycle dependency DAG as Graphviz DOT (telemetry only).
    pub lifecycle_dot: Option<String>,
    /// The hottest PM lines as `(line, media_writes)`, hottest first
    /// (telemetry only; capped at [`HOT_LINES`] entries).
    pub hot_lines: Vec<(u64, u64)>,
    /// Whether the run completed or crashed.
    pub outcome: RunOutcome,
    /// Recovery report when the run crashed and recovered.
    pub recovery: Option<RecoveryReport>,
    /// Per-crash-point outcomes when this result is the baseline of a
    /// [`run_sweep`] (empty for ordinary runs and sweep forks — a fork
    /// stays byte-identical to its legacy `crash_after` equivalent).
    pub crash_points: Vec<CrashPointOutcome>,
}

/// One crash point's outcome in a [`run_sweep`] summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPointOutcome {
    /// The crash point: power failure at the N-th post-setup persistent
    /// write (the spec's `crash_after` coordinate).
    pub crash_after: u64,
    /// Whether the armed failure fired (`false`: the point lay beyond the
    /// workload's writes and the fork completed normally).
    pub crashed: bool,
    /// Regions rolled back (or discarded) by recovery.
    pub uncommitted: u64,
    /// Regions rolled forward by recovery (redo schemes).
    pub replayed: u64,
    /// Log entries written back to data locations during recovery.
    pub restored_lines: u64,
    /// Transactions completed before the failure.
    pub tx: u64,
}

// The parallel figure harness moves whole results across host threads:
// everything in a RunResult must stay plain data. (`Send` is not `Sync` —
// a finished result never needs sharing, only moving.)
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<RunResult>();
};

/// How many hottest PM lines a telemetry-enabled run reports.
pub const HOT_LINES: usize = 32;

impl RunResult {
    /// One self-contained telemetry JSON object for this run — cell
    /// identity, time series, lifecycle log and hottest lines — or `None`
    /// when the spec ran without telemetry. This is what the bench
    /// harness's merged export is made of.
    pub fn telemetry_json(&self) -> Option<String> {
        let ts = self.timeseries.as_deref()?;
        let lc = self.lifecycle.as_deref().unwrap_or("null");
        let mut hot = String::from("[");
        for (i, (line, n)) in self.hot_lines.iter().enumerate() {
            if i > 0 {
                hot.push(',');
            }
            hot.push_str(&format!("[{line},{n}]"));
        }
        hot.push(']');
        Some(format!(
            "{{\"bench\":\"{}\",\"scheme\":\"{}\",\"threads\":{},\"value_bytes\":{},\
             \"timeseries\":{ts},\"lifecycle\":{lc},\"hot_lines\":{hot}}}",
            self.spec.bench.label(),
            self.spec.scheme,
            self.spec.threads,
            self.spec.value_bytes,
        ))
    }

    /// Throughput of `self` relative to `base`.
    pub fn speedup_over(&self, base: &RunResult) -> f64 {
        if base.throughput == 0.0 {
            0.0
        } else {
            self.throughput / base.throughput
        }
    }

    /// PM write traffic of `self` relative to `base`.
    pub fn traffic_ratio_to(&self, base: &RunResult) -> f64 {
        if base.pm_writes == 0 {
            0.0
        } else {
            self.pm_writes as f64 / base.pm_writes as f64
        }
    }
}

/// Builds the machine for a spec.
fn machine_for(spec: &WorkloadSpec) -> Machine {
    let mut cfg = MachineConfig::new(spec.scheme, spec.threads)
        .with_system(spec.system)
        .with_trace(spec.trace)
        .with_telemetry(spec.telemetry);
    if spec.track {
        cfg = cfg.with_tracking();
    }
    Machine::new(cfg)
}

/// Runs a spec end to end: setup, timed run, drain, verification.
///
/// When the spec arms a crash, the run stops at the power failure and
/// recovery executes (with shadow verification if tracking is on); the
/// result then reports the crashed outcome and the recovery report.
///
/// # Examples
///
/// Compare ASAP against the software baseline on the hash-map benchmark:
///
/// ```
/// use asap_core::scheme::SchemeKind;
/// use asap_workloads::{run, BenchId, WorkloadSpec};
///
/// let sw = run(&WorkloadSpec::small(BenchId::Hm, SchemeKind::SwUndo).with_ops(10));
/// let asap = run(&WorkloadSpec::small(BenchId::Hm, SchemeKind::Asap).with_ops(10));
/// assert!(asap.speedup_over(&sw) > 1.0);
/// ```
///
/// # Panics
///
/// Panics if a structural invariant or crash-consistency check fails —
/// that is a bug in the scheme under test, which is the point.
pub fn run(spec: &WorkloadSpec) -> RunResult {
    let (mut m, mut bench, marks) = prepare(spec);
    let state = thread_states(spec);
    let mut steps = shared_steps(bench, spec, &state);
    let outcome = m.run(&mut steps);
    drop(steps);
    collect(&mut m, &mut bench, spec, outcome, &marks)
}

/// Boundary measurements taken between setup and the timed run, shared by
/// the single-run and sweep paths (and by every fork of a sweep).
#[derive(Clone, Copy, Debug)]
struct SetupMarks {
    /// PM media write traffic consumed by setup (excluded from results).
    pm_writes_setup: u64,
    /// CPU persistent-write count at arm time — the origin of the
    /// `crash_after` coordinate.
    armed_base: u64,
    /// Makespan when the timed run began.
    setup_end: Cycle,
}

/// Builds the machine, runs benchmark setup, and establishes the
/// steady-state baseline: drained, clock-synced, per-region summaries
/// reset, crash armed (when the spec asks for one).
fn prepare(spec: &WorkloadSpec) -> (Machine, AnyBench, SetupMarks) {
    let mut m = machine_for(spec);
    let mut bench = AnyBench::create(&mut m, spec);
    bench.setup(&mut m, spec);
    // Steady state starts here: drain setup persists, barrier the thread
    // clocks, and exclude setup from the per-region and traffic metrics.
    m.drain();
    m.sync_thread_clocks();
    // Exclude setup regions from every per-region metric, so the stall
    // breakdown keeps summing to `region.cycles`.
    for name in [
        "region.cycles",
        "region.compute",
        "region.stall.log_full",
        "region.stall.wpq_backpressure",
        "region.stall.dependency_wait",
        "region.stall.commit_wait",
        "region.lines_written",
        "region.deps",
    ] {
        m.reset_summary(name);
    }
    let pm_writes_setup = m.pm_write_traffic();
    let armed_base = m.pm_write_ops();
    // Arm the crash counter only after setup so setup always survives.
    if let Some(n) = spec.crash_after {
        m.arm_crash_after_additional(n);
    }
    let setup_end = m.makespan();
    (
        m,
        bench,
        SetupMarks {
            pm_writes_setup,
            armed_base,
            setup_end,
        },
    )
}

/// Per-thread workload-driver state. It lives *outside* the step
/// closures (shared via `Rc<RefCell<…>>`) so a crash sweep can capture
/// and rewind it alongside a [`MachineSnapshot`]; a plain [`run`] uses
/// the same arrangement so the two paths execute identical code.
#[derive(Clone, Debug)]
struct ThreadState {
    rng: StdRng,
    remaining: u64,
}

type SharedStates = Rc<RefCell<Vec<ThreadState>>>;

fn thread_states(spec: &WorkloadSpec) -> SharedStates {
    Rc::new(RefCell::new(
        (0..spec.threads as u64)
            .map(|t| ThreadState {
                rng: StdRng::seed_from_u64(spec.seed ^ t.wrapping_mul(0x9e37)),
                remaining: spec.ops_per_thread,
            })
            .collect(),
    ))
}

fn shared_steps(bench: AnyBench, spec: &WorkloadSpec, state: &SharedStates) -> Vec<StepFn> {
    (0..spec.threads as usize)
        .map(|t| {
            let b = bench;
            let s = *spec;
            let state = Rc::clone(state);
            Box::new(move |ctx: &mut ThreadCtx| {
                let st = &mut state.borrow_mut()[t];
                if st.remaining == 0 {
                    return false;
                }
                b.step(ctx, &mut st.rng, &s);
                ctx.complete_tx();
                st.remaining -= 1;
                st.remaining > 0
            }) as StepFn
        })
        .collect()
}

/// Post-run bookkeeping shared by every path that finishes a simulation:
/// drain-or-recover, verification, and measurement into a [`RunResult`].
fn collect(
    m: &mut Machine,
    bench: &mut AnyBench,
    spec: &WorkloadSpec,
    outcome: RunOutcome,
    marks: &SetupMarks,
) -> RunResult {
    let SetupMarks {
        pm_writes_setup,
        setup_end,
        ..
    } = *marks;
    let (exec, drained, recovery) = match outcome {
        RunOutcome::Completed => {
            let exec = m.makespan();
            let drained = m.drain();
            bench.verify(m).expect("structural invariants after run");
            // Cross-validate the sharer presence masks against the tag
            // arrays. The walk is O(cache) with a set lookup per line,
            // so release builds only pay it for >64-core machines —
            // the multi-word-mask stripes the unit tests can't cover at
            // full figure scale; debug builds (the test suites) check
            // every run.
            if cfg!(debug_assertions) || spec.system.cores > 64 {
                assert!(
                    m.hw().caches.check_inclusive(),
                    "cache inclusion/presence-mask invariant violated after drain"
                );
            }
            (exec, drained, None)
        }
        RunOutcome::Crashed => {
            let exec = m.makespan();
            let report = m.recover(); // panics on a consistency violation
                                      // Atomic durability means structural invariants hold at region
                                      // boundaries — so they must hold in the recovered image too.
            bench
                .verify(m)
                .expect("structural invariants after recovery");
            (exec, exec, Some(report))
        }
    };
    let stats = m.stats();
    let tx = m.tx_count();
    let cycles = exec.raw().saturating_sub(setup_end.raw()).max(1);
    let (chrome_trace, trace_dump) = if spec.trace.enabled {
        let dump = format!("{}{}", m.trace().dump(), m.hw().mem.trace().dump());
        (Some(m.trace_chrome_json()), Some(dump))
    } else {
        (None, None)
    };
    let (timeseries, lifecycle, lifecycle_dot) = if spec.telemetry.enabled {
        (
            Some(m.timeseries().to_json()),
            Some(m.lifecycle().to_json()),
            Some(m.lifecycle().to_dot()),
        )
    } else {
        (None, None, None)
    };
    let hot_lines = m.hw().mem.hottest_lines(HOT_LINES);
    flush_host_metrics(m);
    RunResult {
        spec: *spec,
        tx,
        exec_cycles: cycles,
        drained_cycles: drained.raw(),
        throughput: tx as f64 * 1000.0 / cycles as f64,
        pm_writes: stats.get("pm.write.total").saturating_sub(pm_writes_setup),
        region_cycles_mean: stats.summary("region.cycles").map_or(0.0, |s| s.mean()),
        stalls: StallBreakdown::from_stats(&stats),
        stats,
        outcome,
        recovery,
        chrome_trace,
        trace_dump,
        timeseries,
        lifecycle,
        lifecycle_dot,
        hot_lines,
        crash_points: Vec::new(),
    }
}

/// The result of a [`run_sweep`]: the uninterrupted baseline run (whose
/// [`RunResult::crash_points`] summarizes every fork) plus one full
/// [`RunResult`] per crash point, each byte-identical to what [`run`]
/// would produce for `spec.with_crash_after(point)`.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The uninterrupted prefix run, crash-point summaries attached.
    pub baseline: RunResult,
    /// One result per requested crash point, in request order.
    pub forks: Vec<RunResult>,
    /// Post-setup persistent writes the full prefix performed — the upper
    /// end of the meaningful `crash_after` coordinate for this spec.
    /// Callers use it to place sweep points (e.g. quantiles of the write
    /// range); a pilot `run_sweep(spec, &[], u64::MAX)` measures it for
    /// the cost of one uninterrupted run.
    pub prefix_writes: u64,
    /// Persistent writes re-simulated across all forks: for a flat fork,
    /// the distance from its restored snapshot to where its run stopped.
    /// A walked fork crashes a copy of the live machine at its point, so
    /// it replays nothing, and a walked sweep reads 0. Also accumulated
    /// into the process-global `snapshot.replayed_writes` metric.
    pub replayed_writes: u64,
}

/// Sweep-engine tuning: how forks are made and dispatched.
///
/// The configuration never affects results — every combination produces
/// bit-identical [`RunResult`]s (the equivalence suites enforce it) —
/// only wall clock and resident memory.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Spine snapshot cadence in persistent writes (quantized to step
    /// boundaries; minimum 1). A serial walk takes no snapshots.
    pub snap_every: u64,
    /// Most spine snapshots retained (0 = unbounded). When the prefix
    /// outgrows the budget, every other spine snapshot is evicted and the
    /// cadence doubles — memory stays O(budget) while worst-case replay
    /// distance stays O(prefix / budget).
    pub snap_budget: usize,
    /// Walk the points in one pass: the live machine steps through them
    /// in ascending order, and at each point's write a cache-less copy of
    /// it crashes, recovers and is verified while the live machine
    /// carries on ([`Machine::crash_copy`]). `false` is the flat
    /// reference path: every fork restores the latest spine snapshot
    /// before its point and replays, armed, to the legacy power failure.
    pub walk: bool,
    /// Fork-dispatch worker threads on [`asap_sim::pool::ordered`] (1 =
    /// inline on the calling thread; results are identical either way).
    /// A walk at 1 job is the prefix pass itself; at more, each chunk of
    /// points restores one spine snapshot and walks from there.
    pub jobs: usize,
}

impl SweepConfig {
    /// The flat reference layout: unbounded spine, one restore and one
    /// armed replay per point, serial dispatch.
    pub fn flat(snap_every: u64) -> Self {
        SweepConfig {
            snap_every,
            snap_budget: 0,
            walk: false,
            jobs: 1,
        }
    }

    /// The walk, with a budgeted spine for parallel chunks.
    pub fn tree(snap_every: u64) -> Self {
        SweepConfig {
            snap_every,
            snap_budget: 64,
            walk: true,
            jobs: 1,
        }
    }

    /// Sets the fork-dispatch worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Sets the spine snapshot budget (0 = unbounded).
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.snap_budget = budget;
        self
    }
}

/// Runs a crash-point sweep over one workload with the flat reference
/// layout, [`SweepConfig::flat`]: the prefix simulates once, machine
/// snapshots are taken copy-on-write every `snap_every` persistent writes
/// (quantized to step boundaries), and every crash point forks from the
/// latest preceding snapshot instead of re-simulating from cycle 0. See
/// [`run_sweep_with`] for the one-pass walk and parallel dispatch.
///
/// Each fork arms the power failure at exactly the absolute write count
/// the legacy path would have crashed on, and both paths execute the same
/// [`Machine::step_thread`] loop, so a fork's `RunResult` is
/// byte-identical to `run(&spec.with_crash_after(point))` — the
/// equivalence suite enforces this. The baseline is what [`run`] returns
/// for the unarmed spec, plus the `crash_points` summary.
///
/// # Panics
///
/// Panics if `spec.crash_after` is set (the sweep owns crash arming), or
/// if a scheme invariant or crash-consistency check fails in any fork.
pub fn run_sweep(spec: &WorkloadSpec, points: &[u64], snap_every: u64) -> SweepResult {
    run_sweep_with(spec, points, &SweepConfig::flat(snap_every))
}

/// A spine snapshot: machine plus driver state at a step boundary.
type SpineSnap = (MachineSnapshot, Vec<ThreadState>);

/// State one sweep's fork workers share by reference.
struct SweepShared<'a> {
    spec: &'a WorkloadSpec,
    marks: SetupMarks,
    /// Requested crash points, in request order.
    points: &'a [u64],
    /// Spine snapshots with their `pm_write_ops`, ascending. `Mutex`
    /// because a snapshot is `Send` but not `Sync` (the PM image keeps
    /// single-thread `Cell` caches): workers hold the lock only for the
    /// restore.
    spine: Vec<(u64, Mutex<SpineSnap>)>,
    bench: AnyBench,
}

impl SweepShared<'_> {
    /// The absolute write count at which point `i` crashes. `n = 0` fires
    /// on the next write exactly like `n = 1` (the arming check is `>=`).
    fn target(&self, i: usize) -> u64 {
        self.marks.armed_base + self.points[i].max(1)
    }

    /// Restores `m` and `state` to the latest spine snapshot strictly
    /// below point `i`'s crashing write, returning its write count.
    fn restore_spine(&self, i: usize, m: &mut Machine, state: &SharedStates) -> u64 {
        let target = self.target(i);
        let (w, snap) = &self.spine[self.spine.partition_point(|(w, _)| *w < target) - 1];
        let g = snap.lock().expect("no restore panics holding the lock");
        m.restore(&g.0);
        state.borrow_mut().clone_from(&g.1);
        *w
    }
}

/// Counts one fork in the `snapshot.forks` metric, and the writes it
/// replayed in `snapshot.replayed_writes`.
fn note_fork(replayed: u64) {
    use asap_sim::obs::metrics;
    metrics::counter("snapshot.forks").inc();
    metrics::counter("snapshot.replayed_writes").add(replayed);
}

/// The flat reference path over `idxs`: each point restores the latest
/// preceding spine snapshot and replays, armed, through the same
/// [`Machine::run`] loop as [`run`] to the legacy power failure. Returns
/// `(point index, fork result, replayed writes)` per point.
fn flat_forks(
    sh: &SweepShared<'_>,
    idxs: &[usize],
    m: &mut Machine,
) -> Vec<(usize, RunResult, u64)> {
    let spec = sh.spec;
    let mut bench = sh.bench;
    let state: SharedStates = Rc::new(RefCell::new(Vec::new()));
    idxs.iter()
        .map(|&i| {
            let n = sh.points[i];
            let snap_writes = sh.restore_spine(i, m, &state);
            m.arm_crash_after_additional(sh.marks.armed_base + n - snap_writes);
            let mut steps = shared_steps(bench, spec, &state);
            let outcome = m.run(&mut steps);
            drop(steps);
            let replayed = m.pm_write_ops() - snap_writes;
            note_fork(replayed);
            let r = collect(m, &mut bench, &spec.with_crash_after(n), outcome, &sh.marks);
            (i, r, replayed)
        })
        .collect()
}

/// The walk: steps `m` (with `state`, its driver state) from a step
/// boundary until every point of `idxs` (sorted ascending) has fired —
/// or to the end of the run when `to_end`. At each point's write a
/// [`CrashHook`](asap_core::machine::CrashHook) takes a
/// [`Machine::crash_copy`] of the live machine, which is recovered,
/// verified and collected while the live machine carries on. Points that
/// fire on the same write share one copy. Returns `(point index, fork
/// result, replayed writes)` per point that fired — a walked fork replays
/// nothing, so always 0; points beyond the run's last write are the
/// caller's.
fn walk(
    sh: &SweepShared<'_>,
    idxs: &[usize],
    m: &mut Machine,
    state: &SharedStates,
    to_end: bool,
) -> Vec<(usize, RunResult, u64)> {
    let spec = sh.spec;
    let mut bench = sh.bench;
    let mut done = Vec::with_capacity(idxs.len());
    let mut copy: Option<Machine> = None;
    let mut next = 0usize;
    let mut hook = |live: &Machine| {
        let fired = live.pm_write_ops();
        let first = next;
        while next < idxs.len() && sh.target(idxs[next]) <= fired {
            note_fork(0);
            next += 1;
        }
        let fspec = |i: usize| spec.with_crash_after(sh.points[i]);
        let c = live.crash_copy(&mut copy);
        let r = collect(
            c,
            &mut bench,
            &fspec(idxs[first]),
            RunOutcome::Crashed,
            &sh.marks,
        );
        // Give the allocator maps back: while the copy shares them, the
        // live machine's next alloc or free would copy them first. The
        // copy keeps its image pages, so the next refresh re-points only
        // the pages either side rewrote.
        let hw = c.hw_mut();
        hw.heap.release();
        hw.dram_heap.release();
        for &i in &idxs[first + 1..next] {
            let mut ri = r.clone();
            ri.spec = fspec(i);
            done.push((i, ri, 0));
        }
        done.push((idxs[first], r, 0));
        idxs.get(next).map(|&i| sh.target(i))
    };
    if let Some(&i) = idxs.first() {
        m.arm_crash_after_additional(sh.target(i) - m.pm_write_ops());
    }
    let mut steps = shared_steps(sh.bench, spec, state);
    m.begin_schedule();
    while to_end || m.crash_armed().is_some() {
        let Some(t) = m.next_runnable() else { break };
        m.step_thread_with(t, &mut steps[t], &mut hook);
    }
    done
}

/// Runs the prefix unarmed on `m`, keeping spine snapshots of machine and
/// driver state at step boundaries: the origin (which covers every point
/// on its own), then one every `cfg.snap_every` persistent writes,
/// thinned to `cfg.snap_budget`.
fn run_spine(
    m: &mut Machine,
    state: &SharedStates,
    bench: AnyBench,
    spec: &WorkloadSpec,
    cfg: &SweepConfig,
) -> Vec<(u64, Mutex<SpineSnap>)> {
    use asap_sim::obs::metrics;
    let mut spine: Vec<SpineSnap> = vec![(m.snapshot(), state.borrow().clone())];
    let mut stride = cfg.snap_every.max(1);
    let mut next_mark = m.pm_write_ops().saturating_add(stride);
    let mut steps = shared_steps(bench, spec, state);
    m.begin_schedule();
    while let Some(t) = m.next_runnable() {
        let out = m.step_thread(t, &mut steps[t]);
        debug_assert_ne!(out, StepOutcome::Crashed, "the prefix runs unarmed");
        let w = m.pm_write_ops();
        if w >= next_mark {
            spine.push((m.snapshot(), state.borrow().clone()));
            if cfg.snap_budget > 0 && spine.len() > cfg.snap_budget {
                // Over budget: evict every other snapshot (even indices
                // survive, so the origin always does) and double the
                // cadence — logarithmic thinning keeps memory O(budget)
                // and flat replay distance O(prefix / budget).
                let mut idx = 0usize;
                spine.retain(|_| {
                    let keep = idx.is_multiple_of(2);
                    idx += 1;
                    keep
                });
                stride = stride.saturating_mul(2);
                metrics::counter("snapshot.spine.compactions").inc();
            }
            next_mark = w.saturating_add(stride);
        }
    }
    for (snap, _) in &spine {
        metrics::counter("snapshot.bytes").add(snap.approx_image_bytes());
    }
    metrics::gauge("snapshot.spine.len").set_max(spine.len() as u64);
    spine
        .into_iter()
        .map(|s| (s.0.pm_write_ops(), Mutex::new(s)))
        .collect()
}

/// [`run_sweep`] with an explicit [`SweepConfig`]: the one-pass walk and
/// the parallel fork engine.
///
/// With `cfg.walk` at one job, the prefix pass is the walk: the machine
/// runs the workload once, and each point crashes a cache-less copy of it
/// at that point's write ([`Machine::crash_copy`]) — no snapshot,
/// restore or replay. Otherwise the prefix runs once recording spine
/// snapshots, and the points, in ascending order, split into contiguous
/// chunks over `cfg.jobs` workers of [`asap_sim::pool::ordered`], each
/// owning one scratch [`Machine`] (the first reuses the prefix machine).
/// A walked chunk restores one spine snapshot and walks; a flat chunk
/// restores and replays per point. Results merge back in request order.
///
/// Determinism argument: a fork's result depends only on the machine
/// state at its crashing write, which the same [`Machine::step_thread`]
/// loop reaches whether the machine started at setup, at a snapshot, or
/// on any worker. So the merged output is bit-identical at any
/// configuration — and to the legacy one-run-per-point path.
///
/// # Panics
///
/// Panics if `spec.crash_after` is set (the sweep owns crash arming), or
/// if a scheme invariant or crash-consistency check fails in any fork.
pub fn run_sweep_with(spec: &WorkloadSpec, points: &[u64], cfg: &SweepConfig) -> SweepResult {
    assert!(
        spec.crash_after.is_none(),
        "sweep specs must not pre-arm a crash (the points are the sweep's)"
    );
    let (mut m, mut bench, marks) = prepare(spec);
    let state = thread_states(spec);
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by_key(|&i| (points[i], i));
    let jobs = cfg.jobs.max(1).min(points.len().max(1));
    let mut sh = SweepShared {
        spec,
        marks,
        points,
        spine: Vec::new(),
        bench,
    };

    let (mut baseline, done, prefix_writes) = if cfg.walk && jobs == 1 {
        let done = walk(&sh, &order, &mut m, &state, true);
        let prefix_writes = m.pm_write_ops() - marks.armed_base;
        let baseline = collect(&mut m, &mut bench, spec, RunOutcome::Completed, &marks);
        (baseline, done, prefix_writes)
    } else {
        sh.spine = run_spine(&mut m, &state, bench, spec, cfg);
        let prefix_writes = m.pm_write_ops() - marks.armed_base;
        let baseline = collect(&mut m, &mut bench, spec, RunOutcome::Completed, &marks);
        // A walk only reaches points inside the prefix; the rest are
        // filled from the baseline below.
        if cfg.walk {
            order.retain(|&i| sh.target(i) <= marks.armed_base + prefix_writes);
        }
        let chunk_count = if jobs == 1 {
            order.len().min(1)
        } else {
            (jobs * 4).min(order.len())
        };
        let chunks: Vec<&[usize]> = (0..chunk_count)
            .map(|c| &order[c * order.len() / chunk_count..(c + 1) * order.len() / chunk_count])
            .collect();
        // Worker 0 forks on the prefix machine; the others build their
        // scratch machine on first use, on their own thread.
        let mut workers: Vec<Option<Machine>> = (0..jobs).map(|_| None).collect();
        workers[0] = Some(m);
        let chunk_results = asap_sim::pool::ordered(workers, chunks.len(), |wm, c| {
            let wm = wm.get_or_insert_with(|| machine_for(spec));
            let idxs = chunks[c];
            if cfg.walk {
                let state: SharedStates = Rc::new(RefCell::new(Vec::new()));
                sh.restore_spine(idxs[0], wm, &state);
                walk(&sh, idxs, wm, &state, false)
            } else {
                flat_forks(&sh, idxs, wm)
            }
        });
        // Merge: output is a pure function of the per-point results,
        // never of which worker ran them. A fork that panicked re-raises
        // here, once every chunk has come back.
        let mut done = Vec::with_capacity(points.len());
        for chunk in chunk_results {
            done.extend(chunk.unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        (baseline, done, prefix_writes)
    };

    let mut slots: Vec<Option<(RunResult, u64)>> = points.iter().map(|_| None).collect();
    for (i, r, replayed) in done {
        slots[i] = Some((r, replayed));
    }
    // A point beyond the prefix's last write never fires: its fork is the
    // completed run under its own spec, cloned before the baseline gets
    // its crash-point summaries.
    let mut forks = Vec::with_capacity(points.len());
    let mut replayed_writes = 0u64;
    for (i, slot) in slots.into_iter().enumerate() {
        let (r, replayed) = slot.unwrap_or_else(|| {
            note_fork(0);
            let mut r = baseline.clone();
            r.spec = spec.with_crash_after(points[i]);
            (r, 0)
        });
        replayed_writes += replayed;
        forks.push(r);
    }
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
    SweepResult {
        baseline,
        forks,
        prefix_writes,
        replayed_writes,
    }
}

/// A lifecycle-guided crash plan: where a sweep should actually crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashPlan {
    /// Chosen crash points (post-setup persistent-write counts),
    /// ascending and deduplicated; at most `budget` of them.
    pub points: Vec<u64>,
    /// Distinct candidate points the lifecycle log yielded before
    /// budget sampling.
    pub candidates: usize,
    /// Post-setup persistent writes of the uninterrupted run (the upper
    /// end of the `crash_after` coordinate).
    pub prefix_writes: u64,
}

/// Enumerates crash points from the machine's persistence lifecycle
/// instead of a blind fixed stride: one recording pilot run notes the
/// persistent-write count at every WPQ acceptance, media persist, audited
/// commit, and region end, and each boundary contributes the write that
/// straddles it (`k` and `k + 1` — crashing just before and just after).
/// When the candidate set exceeds `budget` (0 = unbounded), it is sampled
/// at an even stride that keeps the first and last candidates, so the
/// plan stays deterministic for a given spec.
///
/// The returned points are ordinary `crash_after` coordinates: each fork
/// of the sweep still fingerprints as a legacy `crash_after` cell, so the
/// runcache dedupes them across sweeps and grids.
///
/// # Panics
///
/// Panics if `spec.crash_after` is set.
pub fn enumerate_crash_points(spec: &WorkloadSpec, budget: usize) -> CrashPlan {
    assert!(
        spec.crash_after.is_none(),
        "enumeration pilots must not pre-arm a crash"
    );
    let (mut m, bench, marks) = prepare(spec);
    m.record_crash_candidates(true);
    let state = thread_states(spec);
    let mut steps = shared_steps(bench, spec, &state);
    let outcome = m.run(&mut steps);
    drop(steps);
    debug_assert_eq!(outcome, RunOutcome::Completed, "the pilot runs unarmed");
    let raw = m.take_crash_candidates();
    let prefix_writes = m.pm_write_ops() - marks.armed_base;
    let mut points: Vec<u64> = raw
        .iter()
        .flat_map(|&abs| {
            let k = abs.saturating_sub(marks.armed_base);
            [k, k + 1]
        })
        .filter(|&k| k >= 1 && k <= prefix_writes)
        .collect();
    points.sort_unstable();
    points.dedup();
    let candidates = points.len();
    if budget > 0 && candidates > budget {
        points = (0..budget)
            .map(|j| points[j * (candidates - 1) / (budget - 1).max(1)])
            .collect();
        points.dedup();
    }
    CrashPlan {
        points,
        candidates,
        prefix_writes,
    }
}

/// Publishes the run's host-side data-structure statistics — page-index
/// and last-page-cache traffic and the store-forward slab high-water
/// mark — to the process-global observability registry
/// ([`asap_sim::obs::metrics`]). These observe
/// the *host implementation*, never the simulated machine: figures and
/// cached results don't depend on them, which is why a cache-served cell
/// legitimately contributes nothing here. The counters are plain `Cell`
/// reads flushed once per run, so the simulated hot path pays nothing
/// atomic.
///
/// Flushing *takes* the counters (reads and zeroes them), and copies of
/// a machine start theirs at zero, so every lookup and copy-on-write
/// fault is counted once: a sweep's forks add their own work, never the
/// prefix's again.
fn flush_host_metrics(m: &Machine) {
    use asap_sim::obs::metrics;
    let img = m.hw().image.take_access_stats();
    metrics::counter("pmem.image.lookups").add(img.lookups);
    metrics::counter("pmem.image.last_page_hits").add(img.last_page_hits);
    metrics::counter("pmem.image.index_probes").add(img.index_probes);
    metrics::counter("pmem.image.cow_copies").add(img.cow_copies);
    metrics::gauge("mem.fwd_slab.hwm").set_max(m.hw().mem.fwd_slab_hwm());
    // Telemetry sampler health: whether long runs are still sampling at
    // useful resolution. The period doubles on every decimation, so a
    // metrics snapshot (the run report's registry tables) showing
    // `telemetry.period` far above the configured one (or a climbing
    // `telemetry.decimations`) flags resolution loss.
    let ts = m.timeseries();
    if ts.enabled() {
        metrics::gauge("telemetry.series").set(ts.names().len() as u64);
        metrics::gauge("telemetry.samples").set(ts.len() as u64);
        metrics::gauge("telemetry.period").set(ts.period());
        metrics::gauge("telemetry.decimations").set(u64::from(ts.decimations()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BenchId;
    use asap_core::scheme::SchemeKind;

    fn small(bench: BenchId, scheme: SchemeKind) -> WorkloadSpec {
        WorkloadSpec::small(bench, scheme).with_ops(20)
    }

    #[test]
    fn every_benchmark_runs_under_np_and_asap() {
        for bench in BenchId::all() {
            for scheme in [SchemeKind::NoPersist, SchemeKind::Asap] {
                let r = run(&small(bench, scheme));
                assert_eq!(r.outcome, RunOutcome::Completed, "{bench}/{scheme}");
                assert_eq!(r.tx, 2 * 20, "{bench}/{scheme}");
                assert!(r.throughput > 0.0);
            }
        }
    }

    #[test]
    fn asap_outperforms_sw_on_a_tree() {
        let sw = run(&small(BenchId::Bn, SchemeKind::SwUndo));
        let asap = run(&small(BenchId::Bn, SchemeKind::Asap));
        assert!(
            asap.speedup_over(&sw) > 1.0,
            "ASAP {:.4} vs SW {:.4}",
            asap.throughput,
            sw.throughput
        );
    }

    #[test]
    fn results_are_deterministic() {
        let a = run(&small(BenchId::Hm, SchemeKind::Asap));
        let b = run(&small(BenchId::Hm, SchemeKind::Asap));
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(a.pm_writes, b.pm_writes);
        assert_eq!(a.tx, b.tx);
    }

    #[test]
    fn telemetry_run_exports_deterministic_series_and_lifecycle() {
        use asap_sim::TelemetrySettings;
        let spec = small(BenchId::Hm, SchemeKind::Asap)
            .with_telemetry(TelemetrySettings::enabled().with_period(64));
        let a = run(&spec);
        let b = run(&spec);
        let ts = a.timeseries.as_deref().expect("timeseries exported");
        let lc = a.lifecycle.as_deref().expect("lifecycle exported");
        let dot = a.lifecycle_dot.as_deref().expect("DOT exported");
        assert_eq!(a.timeseries, b.timeseries, "series must be deterministic");
        assert_eq!(a.lifecycle, b.lifecycle);
        assert_eq!(a.hot_lines, b.hot_lines);
        assert!(ts.contains("\"wpq.ch0\""), "series names present: {ts}");
        assert!(lc.contains("\"commits\""));
        assert!(dot.starts_with("digraph regions {"));
        assert!(!a.hot_lines.is_empty());
        // The composed per-run telemetry object parses with the in-tree
        // parser — the harness merge relies on that.
        let obj = a.telemetry_json().expect("telemetry object");
        let v = asap_sim::json::parse(&obj).expect("telemetry JSON parses");
        assert_eq!(v.get("bench").and_then(|b| b.as_str()), Some("HM"), "{obj}");
        // A telemetry-free run exports nothing.
        let off = run(&small(BenchId::Hm, SchemeKind::Asap));
        assert!(off.timeseries.is_none() && off.telemetry_json().is_none());
        assert!(off.hot_lines.is_empty());
    }

    #[test]
    fn stall_breakdown_sums_to_region_cycles() {
        // Table 2 configuration (acceptance criterion): the per-region
        // breakdown components must sum to the mean region duration within
        // one cycle per region.
        let r = run(&WorkloadSpec::new(BenchId::Hm, SchemeKind::Asap).with_ops(50));
        assert!(r.region_cycles_mean > 0.0);
        let diff = (r.stalls.total() - r.region_cycles_mean).abs();
        assert!(
            diff <= 1.0,
            "breakdown {:?} (total {:.2}) vs region.cycles mean {:.2}",
            r.stalls,
            r.stalls.total(),
            r.region_cycles_mean
        );
    }

    #[test]
    fn sync_schemes_attribute_commit_wait() {
        let r = run(&small(BenchId::Hm, SchemeKind::HwUndo));
        assert!(
            r.stalls.commit_wait > 0.0,
            "synchronous commit must show up as commit-wait: {:?}",
            r.stalls
        );
    }

    #[test]
    fn traces_are_deterministic_and_off_by_default() {
        use asap_sim::TraceSettings;
        let plain = run(&small(BenchId::Hm, SchemeKind::Asap));
        assert!(plain.chrome_trace.is_none() && plain.trace_dump.is_none());
        let spec = small(BenchId::Hm, SchemeKind::Asap).with_trace(TraceSettings::enabled());
        let a = run(&spec);
        let b = run(&spec);
        let dump = a.trace_dump.as_deref().expect("trace captured");
        assert!(!dump.is_empty());
        assert_eq!(
            a.trace_dump, b.trace_dump,
            "event streams must be byte-identical"
        );
        assert_eq!(a.chrome_trace, b.chrome_trace);
        assert!(dump.contains("RegionBegin") && dump.contains("WpqAccept"));
    }

    #[test]
    fn sweep_forks_match_legacy_crash_cells() {
        use crate::resultjson::results_identical;
        let spec = small(BenchId::Hm, SchemeKind::Asap).with_tracking();
        // Mixed coverage: early, mid, near-end, and one point beyond the
        // workload's writes (the fork completes instead of crashing).
        let points = [1u64, 7, 23, 40, 1_000_000];
        let sw = run_sweep(&spec, &points, 8);
        assert_eq!(sw.forks.len(), points.len());
        for (i, &n) in points.iter().enumerate() {
            let legacy = run(&spec.with_crash_after(n));
            assert!(
                results_identical(&sw.forks[i], &legacy),
                "fork {n} diverged from the legacy crash_after path"
            );
        }
        // The baseline is the plain uninterrupted run plus the summary.
        let plain = run(&spec);
        let mut stripped = sw.baseline.clone();
        stripped.crash_points.clear();
        assert!(results_identical(&stripped, &plain));
        let cps = &sw.baseline.crash_points;
        assert_eq!(cps.len(), points.len());
        assert!(cps[0].crashed && cps[0].crash_after == 1);
        assert!(!cps[4].crashed, "beyond-the-end point completes");
        assert_eq!(cps[4].tx, plain.tx);
    }

    #[test]
    fn tree_and_parallel_sweeps_match_flat_serial() {
        use crate::resultjson::results_identical;
        let spec = small(BenchId::Hm, SchemeKind::Asap).with_tracking();
        let points = [3u64, 1, 17, 17, 30, 1_000_000];
        let flat = run_sweep_with(&spec, &points, &SweepConfig::flat(8));
        for cfg in [
            SweepConfig::tree(8),
            SweepConfig::tree(8).with_budget(2),
            SweepConfig::flat(8).with_jobs(3),
            SweepConfig::tree(8).with_jobs(2),
            SweepConfig::tree(1).with_budget(1).with_jobs(4),
        ] {
            let sw = run_sweep_with(&spec, &points, &cfg);
            assert!(
                results_identical(&sw.baseline, &flat.baseline),
                "baseline diverged under {cfg:?}"
            );
            assert_eq!(sw.baseline.crash_points, flat.baseline.crash_points);
            assert_eq!(sw.prefix_writes, flat.prefix_writes);
            for (i, (a, b)) in sw.forks.iter().zip(&flat.forks).enumerate() {
                assert!(
                    results_identical(a, b),
                    "fork {} (point {}) diverged under {cfg:?}",
                    i,
                    points[i]
                );
            }
            if cfg.walk {
                assert_eq!(
                    sw.replayed_writes, 0,
                    "a walk replays nothing under {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn enumeration_is_deterministic_lifecycle_guided_and_budgeted() {
        let spec = small(BenchId::Hm, SchemeKind::Asap);
        let a = enumerate_crash_points(&spec, 0);
        let b = enumerate_crash_points(&spec, 0);
        assert_eq!(a, b, "plans must be deterministic");
        assert!(!a.points.is_empty());
        assert_eq!(a.candidates, a.points.len(), "budget 0 keeps everything");
        assert!(a.points.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        assert!(*a.points.first().unwrap() >= 1);
        assert!(*a.points.last().unwrap() <= a.prefix_writes);
        // Sampling keeps the envelope and respects the budget.
        let s = enumerate_crash_points(&spec, 5);
        assert!(s.points.len() <= 5);
        assert_eq!(s.candidates, a.candidates);
        assert_eq!(s.points.first(), a.points.first());
        assert_eq!(s.points.last(), a.points.last());
        assert_eq!(s.prefix_writes, a.prefix_writes);
        // The plan's points are ordinary crash_after coordinates: a
        // sweep over them behaves like any other sweep.
        let sw = run_sweep_with(&spec, &s.points, &SweepConfig::tree(8));
        assert!(sw.baseline.crash_points.iter().all(|p| p.crashed));
    }

    #[test]
    fn flushing_takes_the_host_counters() {
        let spec = small(BenchId::Hm, SchemeKind::Asap);
        let (mut m, bench, _) = prepare(&spec);
        let state = thread_states(&spec);
        let mut steps = shared_steps(bench, &spec, &state);
        assert_eq!(m.run(&mut steps), RunOutcome::Completed);
        assert!(m.hw().image.access_stats().lookups > 0);
        flush_host_metrics(&m);
        // The first flush took every counter, so a second adds nothing.
        assert_eq!(
            m.hw().image.access_stats(),
            asap_pmem::ImageStats::default()
        );
    }

    #[test]
    fn crash_run_recovers_consistently() {
        for scheme in [SchemeKind::Asap, SchemeKind::HwUndo] {
            let spec = small(BenchId::Hm, scheme)
                .with_tracking()
                .with_crash_after(40);
            let r = run(&spec);
            assert_eq!(r.outcome, RunOutcome::Crashed, "{scheme}");
            assert!(r.recovery.is_some());
        }
    }
}
