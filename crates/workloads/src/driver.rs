//! Turns a [`WorkloadSpec`] into a simulated run and its measurements.

use std::cell::RefCell;
use std::rc::Rc;

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
    /// sweep, [`walk_sweep`] or [`run_sweep`] (empty for ordinary runs and
    /// sweep forks — a fork stays byte-identical to its legacy
    /// `crash_after` equivalent).
    pub crash_points: Vec<CrashPointOutcome>,
}

/// One crash point's outcome in a sweep's summary.
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

impl CrashPointOutcome {
    /// The summary of a sweep's fork `fork` at crash point `crash_after`.
    pub fn of(crash_after: u64, fork: &RunResult) -> Self {
        let recovery = fork.recovery.as_ref();
        CrashPointOutcome {
            crash_after,
            crashed: fork.outcome == RunOutcome::Crashed,
            uncommitted: recovery.map_or(0, |x| x.uncommitted.len() as u64),
            replayed: recovery.map_or(0, |x| x.replayed.len() as u64),
            restored_lines: recovery.map_or(0, |x| x.restored_lines),
            tx: fork.tx,
        }
    }
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
    let (mut m, bench, marks) = prepare(spec);
    let state = thread_states(spec);
    let mut steps = shared_steps(bench, spec, &state);
    let outcome = m.run(&mut steps);
    drop(steps);
    collect(&mut m, &bench, spec, outcome, &marks)
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
    bench: &AnyBench,
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

/// The result of a crash-point sweep ([`walk_sweep`] or [`run_sweep`]):
/// the uninterrupted baseline run (whose [`RunResult::crash_points`]
/// summarizes every fork) plus one full [`RunResult`] per crash point,
/// each byte-identical to what [`run`] would produce for
/// `spec.with_crash_after(point)`.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The uninterrupted prefix run, crash-point summaries attached.
    pub baseline: RunResult,
    /// One result per requested crash point, in request order.
    pub forks: Vec<RunResult>,
    /// Post-setup persistent writes the full prefix performed — the upper
    /// end of the meaningful `crash_after` coordinate for this spec.
    /// Callers use it to place sweep points (e.g. quantiles of the write
    /// range); a pilot `walk_sweep(spec, &[], 1)` measures it for the
    /// cost of one uninterrupted run.
    pub prefix_writes: u64,
    /// Persistent writes re-simulated across all forks: for a flat fork,
    /// the distance from its restored snapshot to where its run stopped.
    /// A walked fork crashes a copy of the live machine at its point, so
    /// it replays nothing, and a walked sweep reads 0. Also accumulated
    /// into the process-global `snapshot.replayed_writes` metric.
    pub replayed_writes: u64,
}

impl SetupMarks {
    /// The absolute write count at which a `crash_after = n` run crashes.
    /// `n = 0` fires on the next write exactly like `n = 1` (the arming
    /// check is `>=`).
    fn crash_write(&self, n: u64) -> u64 {
        self.armed_base + n.max(1)
    }
}

/// Point indices in ascending point order (request order among equals).
fn sorted_order(points: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by_key(|&i| (points[i], i));
    order
}

/// Counts one fork in the `snapshot.forks` metric, and the writes it
/// replayed in `snapshot.replayed_writes`.
fn note_fork(replayed: u64) {
    use asap_sim::obs::metrics;
    metrics::counter("snapshot.forks").inc();
    metrics::counter("snapshot.replayed_writes").add(replayed);
}

/// Runs a crash-point sweep over one workload: the walk. The points sort
/// ascending and split into `jobs` contiguous chunks (at most one per
/// point, at least one), each an item of [`asap_sim::pool::ordered`] —
/// at one job the single chunk runs inline on the calling thread. Each
/// chunk builds its own machine from setup and runs the workload, and at
/// each of its points' writes a cache-less copy of the live machine
/// crashes, recovers and is verified while the run carries on
/// ([`Machine::crash_copy`]): no snapshot, restore or replay. The chunk
/// holding the largest points runs to the end and yields the baseline;
/// the others stop after their last point.
///
/// Every chunk starts from the same deterministic setup as [`run`] and
/// steps through the same [`Machine::step_thread`] loop, so it reaches
/// each of its points' writes in the state the legacy run crashes in,
/// and results merge by point index. So a fork's `RunResult` is
/// byte-identical to `run(&spec.with_crash_after(point))` at any `jobs`
/// — the equivalence suites enforce it — and the baseline is what
/// [`run`] returns for the unarmed spec, plus the `crash_points` summary.
///
/// # Panics
///
/// Panics if `spec.crash_after` is set (the sweep owns crash arming), or
/// if a scheme invariant or crash-consistency check fails in any fork;
/// that panic re-raises once every chunk is back.
pub fn walk_sweep(spec: &WorkloadSpec, points: &[u64], jobs: usize) -> SweepResult {
    assert!(
        spec.crash_after.is_none(),
        "sweep specs must not pre-arm a crash (the points are the sweep's)"
    );
    let order = sorted_order(points);
    let chunks = jobs.clamp(1, points.len().max(1));
    let chunk = |c: usize| &order[c * order.len() / chunks..(c + 1) * order.len() / chunks];
    let walked = asap_sim::pool::ordered(vec![(); chunks], chunks, |_, c| {
        walk(spec, points, chunk(c), c + 1 == chunks)
    });
    let mut forks: Vec<Option<RunResult>> = vec![None; points.len()];
    let mut end = None;
    for w in walked {
        let (fired, tail) = w.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        for (i, r) in fired {
            forks[i] = Some(r);
        }
        end = end.or(tail);
    }
    let (baseline, prefix_writes) = end.expect("the last chunk runs to the end");
    assemble(spec, points, forks, baseline, prefix_writes, 0)
}

/// The forks a walk fired, as `(point index, fork result)`.
type Fired = Vec<(usize, RunResult)>;

/// One chunk of a [`walk_sweep`]: builds a machine from setup and steps
/// it until every point of `idxs` (indices into `points`, in ascending
/// point order) has fired — or, when `to_end`, to the end of the run,
/// returning the completed baseline and its post-setup write count too.
/// At each point's write a [`CrashHook`](asap_core::machine::CrashHook)
/// takes a [`Machine::crash_copy`] of the live machine, which is
/// recovered, verified and collected while the live machine carries on.
/// Points that fire on the same write share one copy. Returns `(point
/// index, fork result)` per point that fired; points beyond the run's
/// last write are the caller's.
fn walk(
    spec: &WorkloadSpec,
    points: &[u64],
    idxs: &[usize],
    to_end: bool,
) -> (Fired, Option<(RunResult, u64)>) {
    let (mut m, bench, marks) = prepare(spec);
    let state = thread_states(spec);
    let target = |i: usize| marks.crash_write(points[i]);
    let fspec = |i: usize| spec.with_crash_after(points[i]);
    let mut fired = Vec::with_capacity(idxs.len());
    let mut copy: Option<Machine> = None;
    let mut next = 0usize;
    let mut hook = |live: &Machine| {
        let first = next;
        while next < idxs.len() && target(idxs[next]) <= live.pm_write_ops() {
            note_fork(0);
            next += 1;
        }
        let c = live.crash_copy(&mut copy);
        let r = collect(c, &bench, &fspec(idxs[first]), RunOutcome::Crashed, &marks);
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
            fired.push((i, ri));
        }
        fired.push((idxs[first], r));
        idxs.get(next).map(|&i| target(i))
    };
    if let Some(&i) = idxs.first() {
        m.arm_crash_after_additional(target(i) - m.pm_write_ops());
    }
    let mut steps = shared_steps(bench, spec, &state);
    m.begin_schedule();
    while to_end || m.crash_armed().is_some() {
        let Some(t) = m.next_runnable() else { break };
        m.step_thread_with(t, &mut steps[t], &mut hook);
    }
    let end = to_end.then(|| {
        let prefix_writes = m.pm_write_ops() - marks.armed_base;
        let baseline = collect(&mut m, &bench, spec, RunOutcome::Completed, &marks);
        (baseline, prefix_writes)
    });
    (fired, end)
}

/// Runs a crash-point sweep over one workload the flat way, serially on
/// the calling thread: the reference that [`walk_sweep`] is tested
/// against. The prefix simulates once, taking copy-on-write machine
/// snapshots every `snap_every` persistent writes (quantized to step
/// boundaries; minimum 1), and every crash point restores the latest
/// snapshot before its write and replays, armed, through the same
/// [`Machine::run`] loop as [`run`] to the legacy power failure.
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
    use asap_sim::obs::metrics;
    assert!(
        spec.crash_after.is_none(),
        "sweep specs must not pre-arm a crash (the points are the sweep's)"
    );
    let (mut m, bench, marks) = prepare(spec);
    let state = thread_states(spec);
    // The prefix, unarmed, with snapshots of machine and driver state at
    // step boundaries: the origin (which covers every point on its own),
    // then one every `snap_every` persistent writes.
    let mut spine: Vec<(MachineSnapshot, Vec<ThreadState>)> =
        vec![(m.snapshot(), state.borrow().clone())];
    let stride = snap_every.max(1);
    let mut next_mark = m.pm_write_ops().saturating_add(stride);
    let mut steps = shared_steps(bench, spec, &state);
    m.begin_schedule();
    while let Some(t) = m.next_runnable() {
        let out = m.step_thread(t, &mut steps[t]);
        debug_assert_ne!(out, StepOutcome::Crashed, "the prefix runs unarmed");
        if m.pm_write_ops() >= next_mark {
            spine.push((m.snapshot(), state.borrow().clone()));
            next_mark = m.pm_write_ops().saturating_add(stride);
        }
    }
    drop(steps);
    for (snap, _) in &spine {
        metrics::counter("snapshot.bytes").add(snap.approx_image_bytes());
    }
    let prefix_writes = m.pm_write_ops() - marks.armed_base;
    let baseline = collect(&mut m, &bench, spec, RunOutcome::Completed, &marks);

    let mut forks: Vec<Option<RunResult>> = vec![None; points.len()];
    let mut replayed_writes = 0u64;
    for i in sorted_order(points) {
        let n = points[i];
        let target = marks.crash_write(n);
        let (snap, st) = &spine[spine.partition_point(|(s, _)| s.pm_write_ops() < target) - 1];
        let snap_writes = snap.pm_write_ops();
        m.restore(snap);
        state.borrow_mut().clone_from(st);
        m.arm_crash_after_additional(marks.armed_base + n - snap_writes);
        let mut steps = shared_steps(bench, spec, &state);
        let outcome = m.run(&mut steps);
        drop(steps);
        let replayed = m.pm_write_ops() - snap_writes;
        note_fork(replayed);
        replayed_writes += replayed;
        let fspec = spec.with_crash_after(n);
        forks[i] = Some(collect(&mut m, &bench, &fspec, outcome, &marks));
    }
    assemble(
        spec,
        points,
        forks,
        baseline,
        prefix_writes,
        replayed_writes,
    )
}

/// Finishes a sweep. A point that never fired lay beyond the prefix's
/// last write: its fork is the completed run under its own spec, cloned
/// before the baseline gets its crash-point summaries.
fn assemble(
    spec: &WorkloadSpec,
    points: &[u64],
    forks: Vec<Option<RunResult>>,
    mut baseline: RunResult,
    prefix_writes: u64,
    replayed_writes: u64,
) -> SweepResult {
    let forks: Vec<RunResult> = forks
        .into_iter()
        .zip(points)
        .map(|(r, &n)| {
            r.unwrap_or_else(|| {
                note_fork(0);
                let mut r = baseline.clone();
                r.spec = spec.with_crash_after(n);
                r
            })
        })
        .collect();
    baseline.crash_points = points
        .iter()
        .zip(&forks)
        .map(|(&n, r)| CrashPointOutcome::of(n, r))
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
    fn walks_match_flat_serial_at_every_chunk_edge() {
        use crate::resultjson::results_identical;
        let spec = small(BenchId::Hm, SchemeKind::Asap).with_tracking();
        // Mixed points, then the shapes that meet the chunk edges: a
        // duplicate pair split across two chunks at 2 jobs, beyond-end
        // points filling chunks that are not the last at 3 jobs, and no
        // points at all (the pilot run).
        let sets: [&[u64]; 4] = [
            &[3, 1, 17, 17, 30, 1_000_000],
            &[17, 17],
            &[1_000_000; 3],
            &[],
        ];
        for points in sets {
            let flat = run_sweep(&spec, points, 8);
            for jobs in 1..=4 {
                let sw = walk_sweep(&spec, points, jobs);
                let at = format!("{points:?} at {jobs} jobs");
                assert!(
                    results_identical(&sw.baseline, &flat.baseline),
                    "baseline diverged: {at}"
                );
                assert_eq!(sw.baseline.crash_points, flat.baseline.crash_points);
                assert_eq!(sw.prefix_writes, flat.prefix_writes, "{at}");
                assert_eq!(sw.replayed_writes, 0, "a walk replays nothing: {at}");
                assert_eq!(sw.forks.len(), points.len());
                for (i, (a, b)) in sw.forks.iter().zip(&flat.forks).enumerate() {
                    assert!(
                        results_identical(a, b),
                        "fork {i} (point {}) diverged: {at}",
                        points[i]
                    );
                }
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
        let sw = walk_sweep(&spec, &s.points, 1);
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
