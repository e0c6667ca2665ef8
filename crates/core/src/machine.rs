//! The simulated machine: software interface, executor, crash/recovery.
//!
//! A [`Machine`] owns the hardware ([`Hw`]), one persistence [`Scheme`],
//! per-thread virtual clocks and a table of [`VirtualLock`]s. Simulated
//! threads are ordinary Rust closures receiving a [`ThreadCtx`], whose
//! methods mirror the paper's Table 1 interface:
//!
//! | Paper | Here |
//! |-------|------|
//! | `asap_init()` | implicit at first step of each thread |
//! | `asap_malloc()` / `asap_free()` | [`Machine::pm_alloc`] / [`Machine::pm_free`] (or [`ThreadCtx::pm_alloc`]) |
//! | `asap_begin()` / `asap_end()` | [`ThreadCtx::begin_region`] / [`ThreadCtx::end_region`] |
//! | `asap_fence()` | [`ThreadCtx::fence`] |
//!
//! # Scheduling model
//!
//! [`Machine::run`] drives all threads with a deterministic virtual-time
//! scheduler: the runnable thread with the smallest local clock executes
//! one *step* (typically one lock-guarded transaction) to completion, then
//! yields. Because steps are serialized, a region observed by another
//! thread has always finished executing — so every hardware stall a scheme
//! performs (full CL List, Dep slots, LH-WPQ) resolves purely through
//! memory events, never through another thread's future execution.
//! Cross-thread timing still matters: lock hand-offs, WPQ contention and
//! commit ordering all happen in virtual time.
//!
//! # Crash injection
//!
//! Configure [`MachineConfig::crash_after_pm_writes`] and the machine
//! "loses power" at the matching persistent write: caches vanish, the
//! WPQs and the scheme's persistence-domain structures are flushed
//! (ADR), and [`Machine::recover`] rolls the image to a consistent state.
//!
//! A step run through [`Machine::step_thread_with`] hands the armed
//! write to a [`CrashHook`] instead: the hook sees the machine exactly as
//! the power failure would, takes a crashed copy of it
//! ([`Machine::crash_copy`]) and re-arms, while the machine itself runs
//! on. Crash sweeps use this to crash many points in one run.

use std::any::Any;
use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};

use asap_mem::cache::AccessKind;
use asap_mem::Rid;
use asap_pmem::{AllocError, LineAddr, PmAddr, LINE_BYTES};
use asap_sim::{
    chrome_trace_json, Counter, Cycle, Dist, StallClass, Stats, SystemConfig, TelemetrySettings,
    ThreadClocks, TimeSeries, Trace, TraceEvent, TracePart, TraceSettings, VirtualLock,
};

use crate::hw::Hw;
use crate::lifecycle::RegionLog;
use crate::scheme::{self, RecoveryReport, Scheme, SchemeKind};
use crate::tracker::RegionTracker;

/// Payload used to unwind out of workload code at a simulated power
/// failure.
struct SimCrash;

fn install_panic_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SimCrash>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Machine construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// The Table 2 system configuration.
    pub system: SystemConfig,
    /// The persistence scheme to run.
    pub scheme: SchemeKind,
    /// Number of simulated threads (≤ cores; 1:1 mapped).
    pub threads: u32,
    /// Per-thread log buffer bytes (`asap_init` size parameter).
    pub log_bytes: u64,
    /// Persistent heap bytes.
    pub heap_bytes: u64,
    /// Record an execution shadow for crash-consistency verification.
    pub track_regions: bool,
    /// Simulate a power failure at the N-th persistent-line write.
    pub crash_after_pm_writes: Option<u64>,
    /// Size of the virtual lock table.
    pub num_locks: usize,
    /// Event-trace settings (off by default; see [`TraceSettings`]).
    pub trace: TraceSettings,
    /// Telemetry sampler settings (off by default; see
    /// [`TelemetrySettings`]).
    pub telemetry: TelemetrySettings,
}

impl MachineConfig {
    /// Full Table 2 machine.
    pub fn new(scheme: SchemeKind, threads: u32) -> Self {
        MachineConfig {
            system: SystemConfig::table2(),
            scheme,
            threads,
            log_bytes: 4 << 20,
            heap_bytes: 256 << 20,
            track_regions: false,
            crash_after_pm_writes: None,
            num_locks: 64,
            trace: TraceSettings::disabled(),
            telemetry: TelemetrySettings::disabled(),
        }
    }

    /// Scaled-down machine for tests (small caches, 4 cores).
    pub fn small(scheme: SchemeKind, threads: u32) -> Self {
        let mut c = Self::new(scheme, threads);
        c.system = SystemConfig::small();
        c.log_bytes = 1 << 20;
        c.heap_bytes = 32 << 20;
        c
    }

    /// Enables the verification shadow.
    pub fn with_tracking(mut self) -> Self {
        self.track_regions = true;
        self
    }

    /// Arms a power failure at the N-th persistent write.
    pub fn with_crash_after(mut self, pm_writes: u64) -> Self {
        self.crash_after_pm_writes = Some(pm_writes);
        self
    }

    /// Overrides the system configuration.
    pub fn with_system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }

    /// Overrides the per-thread log buffer size (`asap_init`'s optional
    /// size parameter, §4.4).
    pub fn with_log_bytes(mut self, bytes: u64) -> Self {
        self.log_bytes = bytes;
        self
    }

    /// Enables event tracing with the given settings (e.g.
    /// [`TraceSettings::enabled`]).
    pub fn with_trace(mut self, trace: TraceSettings) -> Self {
        self.trace = trace;
        self
    }

    /// Enables virtual-time telemetry sampling and lifecycle recording
    /// (e.g. [`TelemetrySettings::from_env`] for the `ASAP_TELEMETRY`
    /// knob).
    pub fn with_telemetry(mut self, telemetry: TelemetrySettings) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// One thread's step closure for [`Machine::run`]: execute one
/// transaction, return `false` when the thread is finished.
pub type StepFn = Box<dyn FnMut(&mut ThreadCtx<'_>) -> bool>;

/// How a [`Machine::run`] call ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// All threads finished their steps.
    Completed,
    /// The armed power failure fired; call [`Machine::recover`].
    Crashed,
}

/// How one [`Machine::step_thread`] call ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step ran; the thread has more steps.
    Continue,
    /// The step ran and returned `false`; the thread is finished.
    Finished,
    /// The armed power failure fired; call [`Machine::recover`].
    Crashed,
}

/// A frozen deep copy of a [`Machine`]'s complete state — hardware
/// (caches, WPQs, event queue, PM image via copy-on-write pages, logs,
/// stats, traces), scheme state, thread clocks, locks and region
/// bookkeeping.
///
/// Taking one copies the cached lines, WPQs, logs and scheme state
/// outright, and only pointer tables for the two large structures: the PM
/// image (one pointer per touched page) and the cache tag arrays (one per
/// 16-set chunk, ~1,700 on Table 2 against ~9 MB of tags). Large heaps
/// and Table 2 caches thus snapshot in microseconds and pay per-page or
/// per-chunk deep copies lazily, on first write after the fork
/// ([`MemoryImage::snapshot`](asap_pmem::MemoryImage::snapshot)).
///
/// Restoring with [`Machine::restore`] reuses the destination's
/// buffers (`clone_from` all the way down) and re-points only the pages
/// and tag chunks that differ.
pub struct MachineSnapshot(Machine);

impl MachineSnapshot {
    /// Persistent-line writes performed by the machine when the snapshot
    /// was taken — the coordinate crash sweeps use to pick the latest
    /// snapshot preceding a crash point.
    pub fn pm_write_ops(&self) -> u64 {
        self.0.pm_write_ops
    }

    /// Approximate resident size of the PM image: its touched pages,
    /// shared with the live machine until written. The cached lines and
    /// any cache tag chunks are not counted.
    pub fn approx_image_bytes(&self) -> u64 {
        self.0.hw.image.touched_pages() as u64 * asap_pmem::PAGE_BYTES
    }
}

impl std::fmt::Debug for MachineSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachineSnapshot")
            .field("scheme", &self.0.cfg.scheme)
            .field("pm_write_ops", &self.0.pm_write_ops)
            .field("makespan", &self.0.clocks.makespan())
            .finish()
    }
}

// Machines and snapshots may move across host threads. `Scheme: Send`
// (the only non-trivial component — everything else is flat owned data;
// the PM image's `Arc<Page>` table is `Send` by construction) makes this
// structural. A parallel crash sweep moves neither: each chunk builds its
// own machine on its worker. Neither is `Sync`: the image keeps
// single-thread `Cell` caches, so no thread reads another's by reference.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<MachineSnapshot>();
    assert_send::<Machine>();
};

/// The simulated machine. See the [module docs](self).
pub struct Machine {
    cfg: MachineConfig,
    hw: Hw,
    scheme: Box<dyn Scheme>,
    clocks: ThreadClocks,
    locks: Vec<VirtualLock>,
    nest: Vec<u32>,
    local_rid: Vec<u64>,
    cur_rid: Vec<Option<Rid>>,
    region_start: Vec<Cycle>,
    started: Vec<bool>,
    tracker: Option<RegionTracker>,
    pm_write_ops: u64,
    crash_armed: Option<u64>,
    crashed: bool,
    tx_count: u64,
    /// Persistent-write counts at which persistence-lifecycle boundaries
    /// occurred (WPQ acceptances, media persists, audited commits, region
    /// ends), recorded while crash-point enumeration is on. Observer
    /// state: deliberately excluded from snapshot/restore so a recording
    /// pilot run and a replaying fork never disagree on machine state.
    crash_candidates: Option<Vec<u64>>,
}

/// Appends a candidate coordinate unless it repeats the latest one — the
/// event pump visits many events between persistent writes, and only
/// distinct write counts are distinct crash points.
fn push_candidate(c: &mut Vec<u64>, k: u64) {
    if c.last() != Some(&k) {
        c.push(k);
    }
}

impl Machine {
    /// Builds a machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (e.g. more threads than
    /// cores).
    pub fn new(cfg: MachineConfig) -> Self {
        install_panic_hook();
        let mut hw = Hw::new(cfg.system, cfg.threads, cfg.log_bytes, cfg.heap_bytes);
        hw.set_trace_settings(cfg.trace);
        hw.set_telemetry(cfg.telemetry);
        let scheme = scheme::build(cfg.scheme, &cfg.system);
        let threads = cfg.threads as usize;
        Machine {
            hw,
            scheme,
            clocks: ThreadClocks::new(threads),
            locks: (0..cfg.num_locks)
                .map(|_| VirtualLock::new(cfg.system.lock_cost))
                .collect(),
            nest: vec![0; threads],
            local_rid: vec![0; threads],
            cur_rid: vec![None; threads],
            region_start: vec![Cycle::ZERO; threads],
            started: vec![false; threads],
            tracker: cfg.track_regions.then(RegionTracker::new),
            pm_write_ops: 0,
            crash_armed: cfg.crash_after_pm_writes,
            crashed: false,
            tx_count: 0,
            crash_candidates: None,
            cfg,
        }
    }

    /// Allocates persistent memory (`asap_malloc`): cache-line aligned,
    /// page persistent bits set.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when the heap is exhausted.
    pub fn pm_alloc(&mut self, len: u64) -> Result<PmAddr, AllocError> {
        let addr = self.hw.heap.alloc(len)?;
        self.hw.image.mark_persistent(addr, len.max(1));
        Ok(addr)
    }

    /// Frees persistent memory (`asap_free`).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::NotAllocated`] for a bad address.
    pub fn pm_free(&mut self, addr: PmAddr) -> Result<(), AllocError> {
        self.hw.heap.free(addr)
    }

    /// Allocates volatile DRAM.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when DRAM is exhausted.
    pub fn dram_alloc(&mut self, len: u64) -> Result<PmAddr, AllocError> {
        self.hw.dram_heap.alloc(len)
    }

    fn ensure_started(&mut self, t: usize) {
        if !self.started[t] {
            self.started[t] = true;
            let now = self.clocks.clock(t);
            let now = self.scheme.on_thread_start(&mut self.hw, t, now);
            self.clocks.advance(t, now);
        }
    }

    fn pump(&mut self, now: Cycle) {
        self.hw.advance_mem(now);
        let audited0 = self
            .crash_candidates
            .is_some()
            .then(|| self.hw.lifecycle.audited_commits());
        while let Some(ev) = self.hw.mem.pop_event() {
            self.hw.observe_mem_event(&ev);
            if let Some(c) = &mut self.crash_candidates {
                // Every memory event is a persistence boundary: WPQ
                // acceptance (`Accepted`) and media persist (`PmWritten`)
                // are exactly the coordinates where a power failure
                // changes what recovery sees.
                push_candidate(c, self.pm_write_ops);
            }
            self.scheme.on_mem_event(&mut self.hw, &ev);
        }
        // ASAP-style asynchronous commits surface here (the commit
        // cascade runs from `on_mem_event`): a change in the audited
        // commit count marks a commit boundary.
        if let Some(a0) = audited0 {
            if self.hw.lifecycle.audited_commits() != a0 {
                if let Some(c) = &mut self.crash_candidates {
                    push_candidate(c, self.pm_write_ops);
                }
            }
        }
        if self.hw.telemetry_due(now) {
            let gauges = self.scheme.gauges();
            self.hw.telemetry_record(now, gauges);
        }
    }

    /// Turns crash-candidate recording on or off. While on, the machine
    /// appends its current [`pm_write_ops`](Self::pm_write_ops) to an
    /// internal list at every persistence-lifecycle boundary: WPQ
    /// acceptance, media persist, audited commit, and region end. Crash
    /// sweeps run one recording pilot and crash-straddle these counts
    /// instead of sweeping a blind fixed stride.
    pub fn record_crash_candidates(&mut self, on: bool) {
        self.crash_candidates = on.then(Vec::new);
    }

    /// Takes the recorded candidate coordinates (absolute persistent-write
    /// counts, ascending, deduplicated) and turns recording off.
    pub fn take_crash_candidates(&mut self) -> Vec<u64> {
        self.crash_candidates.take().unwrap_or_default()
    }

    fn note_crash_candidate(&mut self) {
        if let Some(c) = &mut self.crash_candidates {
            push_candidate(c, self.pm_write_ops);
        }
    }

    /// Runs one closure as a single step of thread `t`.
    pub fn run_thread(&mut self, t: usize, f: impl FnOnce(&mut ThreadCtx)) -> RunOutcome {
        assert!(!self.crashed, "machine crashed: call recover() first");
        self.ensure_started(t);
        let now = self.clocks.clock(t);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut ctx = ThreadCtx {
                m: self,
                t,
                now,
                hook: None,
            };
            f(&mut ctx);
            ctx.now
        }));
        self.settle(t, caught)
    }

    /// Runs all threads to completion under the virtual-time scheduler.
    /// Each closure invocation is one step; returning `false` finishes the
    /// thread.
    ///
    /// This is exactly the [`begin_schedule`](Self::begin_schedule) /
    /// [`next_runnable`](Self::next_runnable) /
    /// [`step_thread`](Self::step_thread) loop — crash-sweep drivers that
    /// drive the primitives directly (to snapshot between steps) execute
    /// the same code path and cannot diverge from a plain `run`.
    ///
    /// # Panics
    ///
    /// Panics if `steps.len()` differs from the configured thread count.
    pub fn run(&mut self, steps: &mut [StepFn]) -> RunOutcome {
        assert!(!self.crashed, "machine crashed: call recover() first");
        assert_eq!(
            steps.len(),
            self.cfg.threads as usize,
            "one step closure per thread"
        );
        self.begin_schedule();
        while let Some(t) = self.next_runnable() {
            if self.step_thread(t, &mut steps[t]) == StepOutcome::Crashed {
                return RunOutcome::Crashed;
            }
        }
        RunOutcome::Completed
    }

    /// Restarts the virtual-time scheduler: clears the per-thread
    /// finished flags so every thread is runnable again. Clocks are kept —
    /// re-stepping a thread whose step closure immediately returns `false`
    /// is a no-op in simulated state.
    pub fn begin_schedule(&mut self) {
        self.clocks.restart();
    }

    /// The runnable thread with the smallest local clock, or `None` when
    /// all threads have finished.
    pub fn next_runnable(&mut self) -> Option<usize> {
        self.clocks.next_runnable()
    }

    /// Executes one step of thread `t` under the crash-injection guard —
    /// one iteration of the [`run`](Self::run) loop. Step boundaries are
    /// the machine's consistent snapshot points: no workload closure is on
    /// the stack, so [`snapshot`](Self::snapshot) captures resumable
    /// state.
    pub fn step_thread(&mut self, t: usize, step: &mut StepFn) -> StepOutcome {
        self.step(t, step, None)
    }

    /// [`step_thread`](Self::step_thread) with a [`CrashHook`] in place of
    /// the power failure: when the armed write count is reached, the
    /// machine calls `hook` with itself, mid-step, and re-arms at the
    /// count the hook returns (`None` disarms). The step then carries on,
    /// so this call never returns [`StepOutcome::Crashed`]. The hook is
    /// borrowed for this one step, so it may borrow its caller's state.
    pub fn step_thread_with(
        &mut self,
        t: usize,
        step: &mut StepFn,
        hook: &mut CrashHook<'_>,
    ) -> StepOutcome {
        self.step(t, step, Some(hook))
    }

    fn step(
        &mut self,
        t: usize,
        step: &mut StepFn,
        hook: Option<&mut CrashHook<'_>>,
    ) -> StepOutcome {
        assert!(!self.crashed, "machine crashed: call recover() first");
        self.ensure_started(t);
        let now = self.clocks.clock(t);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut ctx = ThreadCtx {
                m: self,
                t,
                now,
                // The cast shortens the hook's lifetime to this step's.
                hook: hook.map(|h| h as &mut CrashHook<'_>),
            };
            let more = step(&mut ctx);
            (more, ctx.now)
        }));
        match caught {
            Ok((more, end)) => {
                self.clocks.advance(t, end);
                if more {
                    StepOutcome::Continue
                } else {
                    self.clocks.finish(t);
                    StepOutcome::Finished
                }
            }
            Err(payload) => {
                if payload.downcast_ref::<SimCrash>().is_some() {
                    self.perform_crash();
                    StepOutcome::Crashed
                } else {
                    panic::resume_unwind(payload)
                }
            }
        }
    }

    /// A deep copy of the machine's complete state, cheap where it
    /// matters: the PM image and the cache tag arrays are captured
    /// copy-on-write (pointer-table copies; see
    /// [`MemoryImage::snapshot`](asap_pmem::MemoryImage::snapshot)), and
    /// the rest of the volatile state is flat slab vectors that `memcpy`.
    ///
    /// Call at a step boundary (not from inside a step closure). Workload
    /// state living outside the machine — step closures, RNGs, per-thread
    /// op budgets — is the caller's to capture alongside.
    ///
    /// # Panics
    ///
    /// Panics if the machine is in the crashed state (snapshot the
    /// pre-crash machine instead; the crash is re-injectable).
    pub fn snapshot(&self) -> MachineSnapshot {
        assert!(!self.crashed, "snapshot of a crashed machine");
        MachineSnapshot(self.copy_with(self.hw.clone()))
    }

    /// A copy of the machine's state with `hw` as its hardware. The
    /// crash-candidate recorder is observer state and starts off.
    fn copy_with(&self, hw: Hw) -> Machine {
        Machine {
            cfg: self.cfg,
            hw,
            scheme: self.scheme.clone_box(),
            clocks: self.clocks.clone(),
            locks: self.locks.clone(),
            nest: self.nest.clone(),
            local_rid: self.local_rid.clone(),
            cur_rid: self.cur_rid.clone(),
            region_start: self.region_start.clone(),
            started: self.started.clone(),
            tracker: self.tracker.clone(),
            pm_write_ops: self.pm_write_ops,
            crash_armed: self.crash_armed,
            crashed: self.crashed,
            tx_count: self.tx_count,
            crash_candidates: None,
        }
    }

    /// `clone_from` of every field of `src` but the hardware and the
    /// crash-candidate recorder.
    fn copy_from_except_hw(&mut self, src: &Machine) {
        self.cfg = src.cfg;
        self.scheme = src.scheme.clone_box();
        self.clocks.clone_from(&src.clocks);
        self.locks.clone_from(&src.locks);
        self.nest.clone_from(&src.nest);
        self.local_rid.clone_from(&src.local_rid);
        self.cur_rid.clone_from(&src.cur_rid);
        self.region_start.clone_from(&src.region_start);
        self.started.clone_from(&src.started);
        self.tracker.clone_from(&src.tracker);
        self.pm_write_ops = src.pm_write_ops;
        self.crash_armed = src.crash_armed;
        self.crashed = src.crashed;
        self.tx_count = src.tx_count;
    }

    /// Crashes a copy of this machine, leaving this one untouched: the
    /// copy gets every field by `clone`/`clone_from`, then loses power,
    /// which clears its caches. Recovery reads only the flushed
    /// persistence domain, so the cleared cache contents change nothing it
    /// sees.
    ///
    /// Called from a [`CrashHook`] at an armed write, the copy is exactly
    /// the machine the legacy path leaves when that write raises its
    /// power failure: the failure fires right after the write is counted,
    /// unwinding the step closure changes no machine state (a thread's
    /// clock is written only when its step returns), and the crash itself
    /// reads the scheme, the WPQs and the image and only clears the
    /// caches. Call [`recover`](Self::recover) on it next.
    ///
    /// `slot` holds the copy. An empty slot is filled with a clone; a
    /// full one is refreshed in place, reusing its buffers, skipping
    /// the cache lines the crash would clear
    /// ([`Hw::clone_without_caches_from`]) and re-pointing only the image
    /// pages and allocator maps that differ from this machine's.
    ///
    /// # Panics
    ///
    /// Panics if this machine is in the crashed state.
    pub fn crash_copy<'s>(&self, slot: &'s mut Option<Machine>) -> &'s mut Machine {
        assert!(!self.crashed, "crash copy of a crashed machine");
        let copy = match slot {
            Some(c) => {
                c.hw.clone_without_caches_from(&self.hw);
                c.copy_from_except_hw(self);
                c
            }
            None => slot.insert(self.copy_with(self.hw.clone())),
        };
        copy.crash_armed = None;
        copy.perform_crash();
        copy
    }

    /// Rewinds the machine to `snap`, byte-for-byte: a subsequent run is
    /// indistinguishable — stats, traces, telemetry, outcomes — from one
    /// that never forked. Reuses this machine's existing buffers
    /// (`clone_from` down the whole ownership tree) and re-points only the
    /// image pages and cache tag chunks that differ, so restore cost
    /// follows the footprint, not the heap size or the cache geometry.
    ///
    /// # Panics
    ///
    /// Panics if `snap` came from a machine with a different
    /// configuration.
    pub fn restore(&mut self, snap: &MachineSnapshot) {
        assert_eq!(
            self.cfg.threads, snap.0.cfg.threads,
            "snapshot from a differently-sized machine"
        );
        let snap = &snap.0;
        assert_eq!(
            self.cfg.scheme, snap.cfg.scheme,
            "snapshot from a different scheme"
        );
        self.hw.clone_from(&snap.hw);
        self.copy_from_except_hw(snap);
    }

    /// Persistent-line writes performed so far (the crash-injection
    /// coordinate:
    /// [`arm_crash_after_additional`](Self::arm_crash_after_additional)
    /// counts from this value).
    pub fn pm_write_ops(&self) -> u64 {
        self.pm_write_ops
    }

    fn settle(&mut self, t: usize, caught: Result<Cycle, Box<dyn Any + Send>>) -> RunOutcome {
        match caught {
            Ok(end) => {
                self.clocks.advance(t, end);
                RunOutcome::Completed
            }
            Err(payload) => {
                if payload.downcast_ref::<SimCrash>().is_some() {
                    self.perform_crash();
                    RunOutcome::Crashed
                } else {
                    panic::resume_unwind(payload)
                }
            }
        }
    }

    /// Simulates an immediate power failure.
    pub fn crash_now(&mut self) {
        self.perform_crash();
    }

    /// Arms (or re-arms) a power failure `writes` persistent writes from
    /// now — useful to exclude a setup phase from the crash budget.
    pub fn arm_crash_after_additional(&mut self, writes: u64) {
        self.crash_armed = Some(self.pm_write_ops + writes);
    }

    /// The [`pm_write_ops`](Self::pm_write_ops) count at which the armed
    /// power failure fires, or `None` when nothing is armed.
    pub fn crash_armed(&self) -> Option<u64> {
        self.crash_armed
    }

    /// Advances every thread's clock to the current makespan — a barrier,
    /// used after a single-threaded setup phase so worker threads do not
    /// start in the virtual past of the setup thread.
    pub fn sync_thread_clocks(&mut self) {
        let t = self.clocks.makespan();
        for i in 0..self.clocks.len() {
            self.clocks.advance(i, t);
        }
    }

    /// Discards the samples of one statistics summary (e.g. exclude setup
    /// regions from `region.cycles`).
    pub fn reset_summary(&mut self, name: &str) {
        self.hw.stats.reset_summary(name);
    }

    fn perform_crash(&mut self) {
        assert!(!self.crashed, "already crashed");
        self.hw.stats.bump(Counter::CrashCount);
        self.hw
            .trace
            .emit(self.clocks.makespan(), 0, TraceEvent::CrashInjected);
        // Persistence domain flush: scheme structures, then the WPQs.
        self.scheme.on_crash(&mut self.hw);
        let mut image = std::mem::take(&mut self.hw.image);
        self.hw.mem.flush_to_image(&mut image);
        self.hw.image = image;
        self.hw.caches.invalidate_all();
        // In-flight regions died with the power: the commit auditor must
        // not expect them to commit after recovery.
        self.hw.lifecycle.note_crash();
        self.crashed = true;
    }

    /// Recovers after a crash: replays/undoes logs per the scheme, resets
    /// volatile state, and verifies the shadow when tracking is enabled.
    ///
    /// # Panics
    ///
    /// Panics if the machine has not crashed, or if verification fails.
    pub fn recover(&mut self) -> RecoveryReport {
        assert!(self.crashed, "recover() without a crash");
        let report = self.scheme.recover(&mut self.hw);
        if let Some(tracker) = &self.tracker {
            let un: BTreeSet<Rid> = report.uncommitted.iter().copied().collect();
            if let Err(e) = tracker.verify(&self.hw.image, &un) {
                panic!("crash-consistency violation: {e}");
            }
        }
        if let Some(tracker) = &mut self.tracker {
            let un: BTreeSet<Rid> = report.uncommitted.iter().copied().collect();
            tracker.discard(&un);
        }
        // Reboot volatile state; the image (and heap metadata) survive.
        self.scheme = scheme::build(self.cfg.scheme, &self.cfg.system);
        for s in &mut self.started {
            *s = false;
        }
        for n in &mut self.nest {
            *n = 0;
        }
        for c in &mut self.cur_rid {
            *c = None;
        }
        self.locks = (0..self.cfg.num_locks)
            .map(|_| VirtualLock::new(self.cfg.system.lock_cost))
            .collect();
        self.crashed = false;
        self.crash_armed = None;
        report
    }

    /// Waits for all asynchronous work (region commits, WPQ drain) to
    /// finish. Returns the fully-drained makespan.
    pub fn drain(&mut self) -> Cycle {
        let now = self.clocks.makespan();
        let end = self.scheme.drain(&mut self.hw, now);
        self.hw.stats.add(Counter::RunDrainCycles, end - now);
        end
    }

    /// Migrates thread `t` to a different core (§5.7 context switch).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn context_switch(&mut self, t: usize, core: usize) {
        assert!(core < self.cfg.system.cores as usize, "no such core");
        self.ensure_started(t);
        let now = self.clocks.clock(t);
        let now = self.scheme.on_context_switch(&mut self.hw, t, now);
        self.hw.thread_core[t] = core;
        self.clocks.advance(t, now);
        self.hw.stats.bump(Counter::MachineContextSwitch);
    }

    /// Architectural read of a `u64` (debug/verification — no timing),
    /// straight from the image when it is current (see
    /// [`debug_read`](Self::debug_read)).
    pub fn debug_read_u64(&mut self, addr: PmAddr) -> u64 {
        if self.image_is_current() {
            return self.hw.image.read_u64(addr);
        }
        let mut b = [0u8; 8];
        self.debug_read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Whether the image holds every line's newest value: the caches are
    /// empty and no persist op is live. Every crashed or recovered machine
    /// is in that state, which is where structural verification does its
    /// reads.
    fn image_is_current(&self) -> bool {
        self.hw.caches.is_empty() && self.hw.mem.forwards_nothing()
    }

    /// Architectural read of a byte span (debug/verification — no timing).
    ///
    /// When the image is current, the span is read from it directly.
    pub fn debug_read(&mut self, addr: PmAddr, buf: &mut [u8]) {
        if self.image_is_current() {
            self.hw.image.read(addr, buf);
            return;
        }
        let mut pos = 0usize;
        while pos < buf.len() {
            let a = addr.offset(pos as u64);
            let line = a.line();
            let off = a.offset_in_line() as usize;
            let n = (buf.len() - pos).min(LINE_BYTES as usize - off);
            let data = self.hw.line_value(line);
            buf[pos..pos + n].copy_from_slice(&data[off..off + n]);
            pos += n;
        }
    }

    /// Merged machine + memory-system statistics, with the cache
    /// hierarchy's eviction counters folded in as `machine.evict.*`.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        self.hw.stats.export_into(&mut s);
        self.hw.mem.stats().export_into(&mut s);
        let ev = self.hw.caches.eviction_counts();
        for (id, v) in [
            (Counter::EvictTotal, ev.total),
            (Counter::EvictForced, ev.forced),
            (Counter::EvictDirty, ev.dirty),
        ] {
            s.add(id.name(), v);
        }
        s
    }

    /// Merged statistics as a JSON report (counters + histograms).
    pub fn stats_json(&self) -> String {
        self.stats().to_json()
    }

    /// The CPU-side event trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.hw.trace
    }

    /// The telemetry time series (empty unless telemetry was enabled).
    pub fn timeseries(&self) -> &TimeSeries {
        self.hw.telemetry()
    }

    /// The region-lifecycle log (records populated only when telemetry was
    /// enabled; the commit-order auditor inside runs regardless).
    pub fn lifecycle(&self) -> &RegionLog {
        &self.hw.lifecycle
    }

    /// The whole run as Chrome trace-event JSON: CPU thread lanes under
    /// pid 0, memory-system persist channels under pid 1. Open the output
    /// in Perfetto (`ui.perfetto.dev`); one cycle renders as 1 µs.
    pub fn trace_chrome_json(&self) -> String {
        chrome_trace_json(&[
            TracePart {
                name: "cpu",
                pid: 0,
                trace: &self.hw.trace,
            },
            TracePart {
                name: "pm",
                pid: 1,
                trace: self.hw.mem.trace(),
            },
        ])
    }

    /// The largest thread clock (execution makespan).
    pub fn makespan(&self) -> Cycle {
        self.clocks.makespan()
    }

    /// Transactions completed (workloads call [`ThreadCtx::complete_tx`]).
    pub fn tx_count(&self) -> u64 {
        self.tx_count
    }

    /// Transactions per kilocycle of makespan.
    pub fn throughput(&self) -> f64 {
        let c = self.makespan().raw();
        if c == 0 {
            0.0
        } else {
            self.tx_count as f64 * 1000.0 / c as f64
        }
    }

    /// Total 64-byte writes that reached the PM media.
    pub fn pm_write_traffic(&self) -> u64 {
        self.hw.mem.stats().get(Counter::PmWriteTotal)
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Whether the machine is in the crashed state.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Direct access to the hardware (tests and examples).
    pub fn hw(&self) -> &Hw {
        &self.hw
    }

    /// Mutable access to the hardware (tests).
    pub fn hw_mut(&mut self) -> &mut Hw {
        &mut self.hw
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("scheme", &self.cfg.scheme)
            .field("threads", &self.cfg.threads)
            .field("makespan", &self.makespan())
            .field("crashed", &self.crashed)
            .finish()
    }
}

/// What [`Machine::step_thread_with`] runs at an armed write instead of
/// raising the power failure. It receives the machine at exactly the
/// point where the legacy path would crash — typically to take a
/// [`Machine::crash_copy`] — and returns the next absolute
/// [`pm_write_ops`](Machine::pm_write_ops) count to arm, or `None`.
pub type CrashHook<'h> = dyn FnMut(&Machine) -> Option<u64> + 'h;

/// A thread's handle onto the machine during one step.
pub struct ThreadCtx<'m> {
    m: &'m mut Machine,
    t: usize,
    now: Cycle,
    /// The step's crash hook, if it was run by
    /// [`Machine::step_thread_with`].
    hook: Option<&'m mut CrashHook<'m>>,
}

impl ThreadCtx<'_> {
    /// This thread's id.
    pub fn thread(&self) -> usize {
        self.t
    }

    /// This thread's local clock.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Whether the thread is inside an atomic region.
    pub fn in_region(&self) -> bool {
        self.m.nest[self.t] > 0
    }

    /// Burns `ops` compute operations' worth of cycles.
    pub fn compute(&mut self, ops: u64) {
        self.now += ops * self.m.cfg.system.compute_cost;
    }

    /// Marks one workload transaction as complete (throughput metric).
    pub fn complete_tx(&mut self) {
        self.m.tx_count += 1;
        self.m.hw.stats.bump(Counter::TxCompleted);
    }

    /// `asap_begin`: starts (or nests into) an atomic region.
    pub fn begin_region(&mut self) {
        let t = self.t;
        self.m.nest[t] += 1;
        if self.m.nest[t] > 1 {
            self.now += 1; // flattened nested begin: a counter bump
            return;
        }
        self.m.local_rid[t] += 1;
        let rid = Rid::new(t as u32, self.m.local_rid[t]);
        self.m.cur_rid[t] = Some(rid);
        self.m.region_start[t] = self.now;
        self.m.hw.stats.bump(Counter::RegionBegun);
        self.m.hw.reset_region_stalls(t);
        self.m.hw.trace.emit(
            self.now,
            t as u32,
            TraceEvent::RegionBegin {
                rid: (rid.thread(), rid.local()),
            },
        );
        if let Some(tr) = &mut self.m.tracker {
            tr.begin(rid);
        }
        self.m.hw.lifecycle.begin(rid, self.now);
        let m = &mut *self.m;
        self.now = m.scheme.on_begin(&mut m.hw, t, rid, self.now);
    }

    /// `asap_end`: ends the current region (commit per the scheme).
    ///
    /// # Panics
    ///
    /// Panics if no region is active.
    pub fn end_region(&mut self) {
        let t = self.t;
        assert!(self.m.nest[t] > 0, "end_region without begin_region");
        self.m.nest[t] -= 1;
        if self.m.nest[t] > 0 {
            self.now += 1;
            return;
        }
        let rid = self.m.cur_rid[t].expect("region id set at begin");
        let m = &mut *self.m;
        self.now = m.scheme.on_end(&mut m.hw, t, rid, self.now);
        m.hw.lifecycle.end(rid, self.now);
        // Region end is a persist-order boundary for synchronous schemes
        // (durable when `on_end` returns) and the commit-request edge for
        // asynchronous ones — a candidate either way.
        m.note_crash_candidate();
        if !m.cfg.scheme.commits_asynchronously() {
            // Synchronous schemes are durable when on_end returns: the
            // region is persist-ordered and committed at this instant.
            // ASAP records these from its commit cascade instead.
            m.hw.lifecycle.ordered(rid, self.now);
            m.hw.lifecycle.commit(rid, self.now);
        }
        if let Some(tr) = &mut m.tracker {
            let (lines, deps) = tr.end(rid);
            m.hw.stats.sample(Dist::RegionLinesWritten, lines as u64);
            m.hw.stats.sample(Dist::RegionDeps, deps as u64);
        }
        m.hw.trace.emit(
            self.now,
            t as u32,
            TraceEvent::RegionCommit {
                rid: (rid.thread(), rid.local()),
            },
        );
        let dur = self.now - m.region_start[t];
        // Per-region cycle breakdown: the four stall classes plus compute
        // sum exactly to the region's duration.
        let stalls = m.hw.take_region_stalls(t);
        let stalled: u64 = stalls.iter().sum();
        for class in StallClass::all() {
            let id = match class {
                StallClass::LogFull => Dist::RegionStallLogFull,
                StallClass::WpqBackpressure => Dist::RegionStallWpqBackpressure,
                StallClass::DependencyWait => Dist::RegionStallDependencyWait,
                StallClass::CommitWait => Dist::RegionStallCommitWait,
            };
            m.hw.stats.sample(id, stalls[class.index()]);
        }
        m.hw.stats
            .sample(Dist::RegionCompute, dur.saturating_sub(stalled));
        m.hw.stats.sample(Dist::RegionCycles, dur);
        m.hw.stats.bump(Counter::RegionCount);
    }

    /// `asap_fence` (§5.2): blocks until this thread's last region (and
    /// transitively everything it depends on) has committed.
    pub fn fence(&mut self) {
        let t = self.t;
        let m = &mut *self.m;
        self.now = m.scheme.on_fence(&mut m.hw, t, self.now);
        if let Some(tr) = &mut self.m.tracker {
            tr.fence(t as u32);
        }
    }

    /// Acquires virtual lock `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn lock(&mut self, id: usize) {
        self.now = self.m.locks[id].acquire(self.now);
    }

    /// Releases virtual lock `id`.
    pub fn unlock(&mut self, id: usize) {
        self.m.locks[id].release(self.now);
    }

    /// Runs `f` as a lock-guarded atomic region, ordering the unlock and
    /// region end the way each scheme family does: asynchronous-commit
    /// schemes release the lock *before* `asap_end` (Fig. 6 — the region
    /// commits in the background, so the critical section never pays for
    /// persistence), synchronous ones release it only after the region is
    /// durable (the data must not be visible before it is recoverable).
    pub fn locked_region(&mut self, lock_id: usize, f: impl FnOnce(&mut Self)) {
        if self.m.cfg.scheme.commits_asynchronously() {
            self.lock(lock_id);
            self.begin_region();
            f(self);
            self.unlock(lock_id);
            self.end_region();
        } else {
            self.lock(lock_id);
            self.begin_region();
            f(self);
            self.end_region();
            self.unlock(lock_id);
        }
    }

    /// Allocates persistent memory mid-run (charged a small cost).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when the heap is exhausted.
    pub fn pm_alloc(&mut self, len: u64) -> Result<PmAddr, AllocError> {
        self.now += 40; // allocator bookkeeping
        self.m.pm_alloc(len)
    }

    /// Frees persistent memory mid-run.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::NotAllocated`] for a bad address.
    pub fn pm_free(&mut self, addr: PmAddr) -> Result<(), AllocError> {
        self.now += 20;
        self.m.pm_free(addr)
    }

    /// Reads `buf.len()` bytes from `addr`.
    pub fn read_bytes(&mut self, addr: PmAddr, buf: &mut [u8]) {
        let mut pos = 0usize;
        while pos < buf.len() {
            let a = addr.offset(pos as u64);
            let line = a.line();
            let off = a.offset_in_line() as usize;
            let n = (buf.len() - pos).min(LINE_BYTES as usize - off);
            self.access_line(line, AccessKind::Load);
            let data = self.m.hw.caches.line(line).expect("filled").data;
            buf[pos..pos + n].copy_from_slice(&data[off..off + n]);
            pos += n;
        }
    }

    /// Reads a `u64` at `addr`.
    pub fn read_u64(&mut self, addr: PmAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes `data` at `addr`.
    pub fn write_bytes(&mut self, addr: PmAddr, data: &[u8]) {
        let mut pos = 0usize;
        while pos < data.len() {
            let a = addr.offset(pos as u64);
            let line = a.line();
            let off = a.offset_in_line() as usize;
            let n = (data.len() - pos).min(LINE_BYTES as usize - off);
            self.write_line_span(line, off, &data[pos..pos + n]);
            pos += n;
        }
    }

    /// Writes a `u64` at `addr`.
    pub fn write_u64(&mut self, addr: PmAddr, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// One cache access with event pumping, eviction routing and latency.
    ///
    /// Returns `(persistent, hooked)`: the accessed line's post-access
    /// persistent bit, and whether an eviction hook ran (only then can the
    /// scheme have displaced `line` itself again). Store callers use the
    /// pair to skip re-resolving the line on the hit path.
    fn access_line(&mut self, line: LineAddr, kind: AccessKind) -> (bool, bool) {
        let m = &mut *self.m;
        m.pump(self.now);
        let access = m.hw.cache_access(self.t, line, kind);
        self.now += access.latency;
        let hooked = access.evicted.is_some();
        if let Some(e) = &access.evicted {
            m.hw.trace.emit(
                self.now,
                self.t as u32,
                TraceEvent::CacheEvict {
                    line: e.line.0,
                    dirty: e.state.dirty,
                },
            );
            m.scheme.on_evict(&mut m.hw, e, self.now);
        }
        // Region bookkeeping for persistent lines. Without an eviction hook
        // nothing can have touched the just-accessed line, so the bit
        // captured by the access itself is current.
        let persistent = if hooked {
            m.hw.caches.line(line).is_some_and(|s| s.pbit)
        } else {
            access.pbit
        };
        if persistent && m.nest[self.t] > 0 {
            let rid = m.cur_rid[self.t].expect("in region");
            if kind == AccessKind::Load {
                self.now = m.scheme.post_read(&mut m.hw, self.t, rid, line, self.now);
                if let Some(tr) = &mut m.tracker {
                    tr.read(rid, line);
                }
            }
        } else if persistent && kind == AccessKind::Store {
            m.hw.stats.bump(Counter::MachineNonregionPmWrite);
        }
        (persistent, hooked)
    }

    fn write_line_span(&mut self, line: LineAddr, off: usize, bytes: &[u8]) {
        let t = self.t;
        let (persistent, hooked) = self.access_line(line, AccessKind::Store);
        let m = &mut *self.m;
        let in_region = m.nest[t] > 0 && persistent;
        let rid = m.cur_rid[t];
        if in_region {
            let rid = rid.expect("in region");
            self.now = m.scheme.pre_write(&mut m.hw, t, rid, line, self.now);
        }
        // A scheme's own log stores may (rarely) have evicted the target
        // line from the small-cache configs: refill before mutating. Only
        // a hook (`pre_write` above, `on_evict` inside the access) can
        // have done that — the plain hit path skips the lookup.
        if (in_region || hooked) && m.hw.caches.line(line).is_none() {
            let access = m.hw.cache_access(t, line, AccessKind::Store);
            self.now += access.latency;
            if let Some(e) = &access.evicted {
                m.scheme.on_evict(&mut m.hw, e, self.now);
            }
        }
        {
            let st = m.hw.caches.line_mut(line).expect("filled");
            st.data[off..off + bytes.len()].copy_from_slice(bytes);
            st.dirty = true;
        }
        if in_region {
            let rid = rid.expect("in region");
            self.now = m.scheme.post_write(&mut m.hw, t, rid, line, self.now);
            if let Some(tr) = &mut m.tracker {
                let data = m.hw.line_value(line);
                tr.write(rid, line, data);
            }
        }
        if persistent {
            m.pm_write_ops += 1;
            if m.crash_armed.is_some_and(|n| m.pm_write_ops >= n) {
                match self.hook.as_deref_mut() {
                    Some(hook) => m.crash_armed = hook(m),
                    None => {
                        m.crash_armed = None;
                        panic::panic_any(SimCrash);
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for ThreadCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("thread", &self.t)
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_pmem::PAGE_BYTES;

    fn machine(kind: SchemeKind) -> Machine {
        Machine::new(MachineConfig::small(kind, 2).with_tracking())
    }

    fn all_kinds() -> Vec<SchemeKind> {
        vec![
            SchemeKind::NoPersist,
            SchemeKind::SwUndo,
            SchemeKind::SwDpoOnly,
            SchemeKind::HwUndo,
            SchemeKind::HwRedo,
            SchemeKind::Asap,
        ]
    }

    #[test]
    fn single_region_updates_data_under_every_scheme() {
        for kind in all_kinds() {
            let mut m = Machine::new(MachineConfig::small(kind, 1));
            let a = m.pm_alloc(64).unwrap();
            m.run_thread(0, |ctx| {
                ctx.begin_region();
                ctx.write_u64(a, 42);
                let v = ctx.read_u64(a);
                assert_eq!(v, 42);
                ctx.end_region();
                ctx.complete_tx();
            });
            m.drain();
            assert_eq!(m.debug_read_u64(a), 42, "{kind}");
            assert_eq!(m.tx_count(), 1);
            assert!(m.makespan() > Cycle::ZERO);
        }
    }

    #[test]
    fn data_is_durable_in_pm_after_drain() {
        for kind in [
            SchemeKind::SwUndo,
            SchemeKind::HwUndo,
            SchemeKind::HwRedo,
            SchemeKind::Asap,
        ] {
            let mut m = Machine::new(MachineConfig::small(kind, 1));
            let a = m.pm_alloc(8).unwrap();
            m.run_thread(0, |ctx| {
                ctx.begin_region();
                ctx.write_u64(a, 7);
                ctx.end_region();
                ctx.fence();
            });
            m.drain();
            // After drain + fence, the PM image itself (not just caches)
            // must hold the value or its recoverable log.
            m.crash_now();
            let report = m.recover();
            assert!(report.uncommitted.is_empty(), "{kind}: nothing uncommitted");
            assert_eq!(m.debug_read_u64(a), 7, "{kind}");
        }
    }

    #[test]
    fn nested_regions_flatten() {
        let mut m = machine(SchemeKind::Asap);
        let a = m.pm_alloc(8).unwrap();
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            ctx.begin_region();
            ctx.write_u64(a, 1);
            ctx.end_region();
            assert!(ctx.in_region());
            ctx.write_u64(a, 2);
            ctx.end_region();
            assert!(!ctx.in_region());
        });
        m.drain();
        assert_eq!(m.debug_read_u64(a), 2);
        let s = m.stats();
        assert_eq!(s.get("region.count"), 1, "nested regions flattened");
    }

    #[test]
    #[should_panic(expected = "end_region without begin_region")]
    fn unbalanced_end_panics() {
        let mut m = machine(SchemeKind::NoPersist);
        m.run_thread(0, |ctx| ctx.end_region());
    }

    #[test]
    fn two_threads_interleave_by_clock() {
        let mut m = Machine::new(MachineConfig::small(SchemeKind::Asap, 2));
        let a = m.pm_alloc(8).unwrap();
        let mut steps: Vec<StepFn> = vec![
            Box::new(move |ctx| {
                ctx.locked_region(0, |ctx| {
                    let v = ctx.read_u64(a);
                    ctx.write_u64(a, v + 1);
                });
                ctx.complete_tx();
                false
            }),
            Box::new(move |ctx| {
                ctx.locked_region(0, |ctx| {
                    let v = ctx.read_u64(a);
                    ctx.write_u64(a, v + 10);
                });
                ctx.complete_tx();
                false
            }),
        ];
        assert_eq!(m.run(&mut steps), RunOutcome::Completed);
        m.drain();
        assert_eq!(m.debug_read_u64(a), 11);
        assert_eq!(m.tx_count(), 2);
    }

    #[test]
    fn crash_injection_fires_and_recovery_restores_consistency() {
        for kind in [
            SchemeKind::SwUndo,
            SchemeKind::HwUndo,
            SchemeKind::HwRedo,
            SchemeKind::Asap,
        ] {
            let mut m = Machine::new(
                MachineConfig::small(kind, 1)
                    .with_tracking()
                    .with_crash_after(5),
            );
            let a = m.pm_alloc(64 * 8).unwrap();
            let outcome = m.run_thread(0, |ctx| {
                for i in 0..16u64 {
                    ctx.begin_region();
                    ctx.write_u64(a.offset(i % 8 * 64), i + 1);
                    ctx.end_region();
                }
            });
            assert_eq!(outcome, RunOutcome::Crashed, "{kind}");
            assert!(m.is_crashed());
            let _report = m.recover(); // panics on inconsistency
            assert!(!m.is_crashed());
        }
    }

    #[test]
    fn fence_makes_regions_durable_for_asap() {
        let mut m = machine(SchemeKind::Asap);
        let a = m.pm_alloc(8).unwrap();
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            ctx.write_u64(a, 99);
            ctx.end_region();
            ctx.fence(); // §5.2 synchronous point
        });
        m.crash_now();
        let report = m.recover();
        assert!(report.uncommitted.is_empty());
        assert_eq!(m.debug_read_u64(a), 99);
    }

    #[test]
    fn asap_region_latency_is_far_below_sync_schemes() {
        let mut cycles = std::collections::BTreeMap::new();
        for kind in [SchemeKind::Asap, SchemeKind::HwUndo, SchemeKind::SwUndo] {
            let mut m = Machine::new(MachineConfig::small(kind, 1));
            let a = m.pm_alloc(64 * 32).unwrap();
            m.run_thread(0, |ctx| {
                for i in 0..64u64 {
                    ctx.begin_region();
                    for j in 0..4 {
                        ctx.write_u64(a.offset((i * 4 + j) % 32 * 64), i);
                    }
                    ctx.end_region();
                }
            });
            m.drain();
            let s = m.stats();
            cycles.insert(kind.name(), s.summary("region.cycles").unwrap().mean());
        }
        assert!(
            cycles["asap"] < cycles["hw-undo"],
            "async commit must beat sync commit: {cycles:?}"
        );
        assert!(
            cycles["hw-undo"] < cycles["sw"],
            "hardware must beat software: {cycles:?}"
        );
    }

    #[test]
    fn context_switch_preserves_correctness() {
        let mut m = machine(SchemeKind::Asap);
        let a = m.pm_alloc(8).unwrap();
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            ctx.write_u64(a, 5);
            ctx.end_region();
        });
        m.context_switch(0, 2);
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            ctx.write_u64(a, 6);
            ctx.end_region();
        });
        m.drain();
        assert_eq!(m.debug_read_u64(a), 6);
        assert_eq!(m.stats().get("machine.context_switch"), 1);
    }

    #[test]
    fn context_switch_mid_region_continues_safely() {
        // §5.7: the suspended thread's CL entry is cleared after its
        // persist operations complete; once rescheduled (on a different
        // core) the In Progress region continues and commits normally.
        let mut m = machine(SchemeKind::Asap);
        let a = m.pm_alloc(64 * 4).unwrap();
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            ctx.write_u64(a, 1);
            ctx.write_u64(a.offset(64), 2);
            // Deliberately leave the region open across steps.
        });
        m.context_switch(0, 3);
        m.run_thread(0, |ctx| {
            assert!(ctx.in_region());
            ctx.write_u64(a.offset(128), 3);
            ctx.end_region();
            ctx.fence();
        });
        m.crash_now();
        let r = m.recover();
        assert!(r.uncommitted.is_empty());
        assert_eq!(m.debug_read_u64(a), 1);
        assert_eq!(m.debug_read_u64(a.offset(64)), 2);
        assert_eq!(m.debug_read_u64(a.offset(128)), 3);
    }

    #[test]
    fn context_switch_mid_region_then_no_more_writes() {
        let mut m = machine(SchemeKind::Asap);
        let a = m.pm_alloc(64).unwrap();
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            ctx.write_u64(a, 9);
        });
        m.context_switch(0, 2);
        m.run_thread(0, |ctx| {
            ctx.end_region(); // no writes on the new core
            ctx.fence();
        });
        m.crash_now();
        let r = m.recover();
        assert!(r.uncommitted.is_empty());
        assert_eq!(m.debug_read_u64(a), 9);
    }

    #[test]
    fn throughput_counts_transactions() {
        let mut m = machine(SchemeKind::NoPersist);
        let a = m.pm_alloc(8).unwrap();
        m.run_thread(0, |ctx| {
            for _ in 0..10 {
                ctx.begin_region();
                ctx.write_u64(a, 1);
                ctx.end_region();
                ctx.complete_tx();
            }
        });
        assert_eq!(m.tx_count(), 10);
        assert!(m.throughput() > 0.0);
    }

    #[test]
    fn tiny_log_stalls_but_stays_correct() {
        // Room for just four records per thread: regions must wait for
        // older commits to reclaim log space (§4.4 overflow handling).
        let mut m = Machine::new(
            MachineConfig::small(SchemeKind::Asap, 1)
                .with_tracking()
                .with_log_bytes(4 * 8 * 64),
        );
        let a = m.pm_alloc(64 * 64).unwrap();
        m.run_thread(0, |ctx| {
            for i in 0..32u64 {
                ctx.begin_region();
                for j in 0..8 {
                    ctx.write_u64(a.offset((i * 8 + j) % 64 * 64), i);
                }
                ctx.end_region();
            }
        });
        m.drain();
        assert!(
            m.stats().get("asap.stall.log_full") > 0,
            "the tiny log stalled"
        );
        m.crash_now();
        let r = m.recover();
        assert!(r.uncommitted.is_empty(), "drained before crash");
    }

    #[test]
    fn pm_alloc_marks_pages_persistent() {
        let mut m = machine(SchemeKind::Asap);
        let a = m.pm_alloc(128).unwrap();
        assert!(m.hw().image.is_persistent(a));
        m.pm_free(a).unwrap();
    }

    #[test]
    fn byte_spans_cross_cache_lines() {
        let mut m = machine(SchemeKind::Asap);
        let a = m.pm_alloc(64 * 4).unwrap();
        // A 100-byte pattern starting 30 bytes into a line spans 3 lines.
        let pattern: Vec<u8> = (0..100u32).map(|i| (i * 7 % 251) as u8 + 1).collect();
        let start = a.offset(30);
        let p = pattern.clone();
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            ctx.write_bytes(start, &p);
            ctx.end_region();
            let mut buf = vec![0u8; 100];
            ctx.read_bytes(start, &mut buf);
            assert_eq!(buf, p);
        });
        m.drain();
        let mut buf = vec![0u8; 100];
        m.debug_read(start, &mut buf);
        assert_eq!(buf, pattern);
        // The crash path respects the span too.
        m.crash_now();
        m.recover();
        let mut buf = vec![0u8; 100];
        m.debug_read(start, &mut buf);
        assert_eq!(buf, pattern);
    }

    /// `debug_read` of one `u64` and how many store-forwarded reads it
    /// counted.
    fn read_counting_forwards(m: &mut Machine, a: PmAddr) -> (u64, u64) {
        let before = m.hw().mem.stats().get(Counter::MemReadForwarded);
        let v = m.debug_read_u64(a);
        (
            v,
            m.hw().mem.stats().get(Counter::MemReadForwarded) - before,
        )
    }

    #[test]
    fn debug_read_sees_a_dirty_cached_line() {
        let mut m = Machine::new(MachineConfig::small(SchemeKind::NoPersist, 1));
        let a = m.pm_alloc(64).unwrap();
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            ctx.write_u64(a, 77);
            ctx.end_region();
        });
        // The only copy of the write is the dirty cached line: nothing is
        // live on the way to memory and the image still reads zero.
        assert!(m.hw().caches.line(a.line()).is_some_and(|s| s.dirty));
        assert!(m.hw().mem.forwards_nothing());
        assert_eq!(m.hw().image.read_u64(a), 0);
        assert_eq!(m.debug_read_u64(a), 77);
    }

    #[test]
    fn debug_read_forwards_ops_on_the_wire_and_in_the_wpq() {
        let mut m = Machine::new(MachineConfig::small(SchemeKind::Asap, 1));
        let a = m.pm_alloc(64).unwrap();
        assert!(m.hw().caches.is_empty());
        let hop = m.config().system.mem.mc_hop_latency;
        m.hw_mut().submit_value(
            asap_mem::PersistKind::WriteBack,
            a.line(),
            [5u8; 64],
            None,
            Cycle(0),
        );
        let five = u64::from_le_bytes([5; 8]);
        // On the wire: not yet at its controller.
        assert!(!m.hw().mem.forwards_nothing());
        assert_eq!(read_counting_forwards(&mut m, a), (five, 1));
        // Resting in the WPQ, not yet written to the media.
        let hw = m.hw_mut();
        hw.mem.advance_to(Cycle(hop + 1), &mut hw.image);
        assert_eq!(m.hw().image.read_u64(a), 0);
        assert_eq!(read_counting_forwards(&mut m, a), (five, 1));
        // Written: the image holds it and nothing is forwarded.
        let hw = m.hw_mut();
        hw.mem.advance_to(Cycle(1_000_000), &mut hw.image);
        assert!(m.hw().mem.forwards_nothing());
        assert_eq!(read_counting_forwards(&mut m, a), (five, 0));
    }

    #[test]
    fn debug_read_after_a_crash_matches_the_per_line_path() {
        for kind in all_kinds() {
            let mut m = Machine::new(MachineConfig::small(kind, 2));
            let a = m.pm_alloc(64 * 16).unwrap();
            let b = m.pm_alloc(64 * 3).unwrap();
            for i in 0..24u64 {
                m.run_thread((i % 2) as usize, |ctx| {
                    ctx.begin_region();
                    ctx.write_u64(a.offset(i % 16 * 64 + i % 8 * 8), i + 1);
                    ctx.write_u64(b.offset(i % 3 * 64), i * 3);
                    ctx.end_region();
                });
            }
            // Crash with persist ops still in flight: the flush leaves no
            // cached line and no live op, the state every crashed copy and
            // every recovered machine is in.
            if kind == SchemeKind::Asap {
                assert!(!m.hw().mem.forwards_nothing());
            }
            // A u64 across a page boundary, which is also a line boundary.
            let c = m.pm_alloc(2 * PAGE_BYTES).unwrap();
            let straddle = PmAddr((c.0 / PAGE_BYTES + 1) * PAGE_BYTES - 4);
            m.run_thread(0, |ctx| {
                ctx.begin_region();
                ctx.write_u64(straddle, 0x0123_4567_89ab_cdef);
                ctx.end_region();
            });
            m.crash_now();
            assert_heap_reads_match_lines(&mut m, &format!("{kind} crashed"));
            assert_u64_reads_match_lines(&mut m, straddle, &format!("{kind} crashed"));
            m.recover();
            assert_heap_reads_match_lines(&mut m, &format!("{kind} recovered"));
            assert_u64_reads_match_lines(&mut m, straddle, &format!("{kind} recovered"));
            if kind == SchemeKind::Asap {
                // Recovery kept some of the writes: the lines compared
                // above were not all zero.
                assert_ne!(m.debug_read_u64(b.offset(64)), 0);
            }
        }
    }

    /// `m`, which must have no cached line and no live persist op, reads
    /// the same `u64`s through `debug_read_u64` as through the per-line
    /// path: at `straddle` (across a page boundary), and across the first
    /// boundary of two pages no write ever touched, which read 0.
    fn assert_u64_reads_match_lines(m: &mut Machine, straddle: PmAddr, phase: &str) {
        assert!(m.hw().caches.is_empty() && m.hw().mem.forwards_nothing());
        let end = m
            .hw()
            .heap
            .live_allocations()
            .map(|(a, len)| a.0 + len)
            .max()
            .unwrap();
        let untouched = PmAddr((end / PAGE_BYTES + 16) * PAGE_BYTES);
        for addr in [straddle, untouched, untouched.offset(PAGE_BYTES - 4)] {
            let mut bytes = [0u8; 8];
            for (i, b) in bytes.iter_mut().enumerate() {
                let a = addr.offset(i as u64);
                *b = m.hw_mut().line_value(a.line())[a.offset_in_line() as usize];
            }
            let want = u64::from_le_bytes(bytes);
            assert_eq!(m.debug_read_u64(addr), want, "{phase} {addr:?}");
            if addr != straddle {
                assert_eq!(want, 0, "{phase}: a never-written page reads 0");
            }
        }
    }

    /// Every heap line of `m`, which must have no cached line and no live
    /// persist op, reads the same through `debug_read` as through the
    /// per-line path.
    fn assert_heap_reads_match_lines(m: &mut Machine, phase: &str) {
        assert!(m.hw().caches.is_empty() && m.hw().mem.forwards_nothing());
        let heap: Vec<(PmAddr, u64)> = m.hw().heap.live_allocations().collect();
        for (start, len) in heap {
            for off in (0..len).step_by(LINE_BYTES as usize) {
                let line = start.offset(off).line();
                let mut direct = [0u8; LINE_BYTES as usize];
                m.debug_read(line.base(), &mut direct);
                assert_eq!(direct, m.hw_mut().line_value(line), "{phase} {line:?}");
            }
        }
    }

    #[test]
    fn clock_is_monotone_across_ops() {
        let mut m = machine(SchemeKind::Asap);
        let a = m.pm_alloc(64 * 2).unwrap();
        m.run_thread(0, |ctx| {
            let t0 = ctx.now();
            ctx.compute(10);
            let t1 = ctx.now();
            assert_eq!(t1 - t0, 10, "compute_cost is 1 in the small config");
            ctx.begin_region();
            let t2 = ctx.now();
            assert!(t2 >= t1);
            ctx.write_u64(a, 1);
            let t3 = ctx.now();
            assert!(t3 > t2, "a write costs time");
            let _ = ctx.read_u64(a.offset(64));
            let t4 = ctx.now();
            assert!(t4 > t3, "a read costs time");
            ctx.end_region();
            assert!(ctx.now() >= t4);
        });
    }

    #[test]
    fn dram_heap_is_separate_from_pm_heap() {
        let mut m = machine(SchemeKind::Asap);
        let d = m.dram_alloc(64).unwrap();
        let p = m.pm_alloc(64).unwrap();
        assert!(!d.is_pm_region());
        assert!(p.is_pm_region());
        assert!(!m.hw().image.is_persistent(d));
    }

    /// A driver-style workload: each thread runs `per_thread` one-region
    /// steps against a shared array, with the loop counters held outside
    /// the closures (as the crash-sweep driver does) so they can be
    /// captured alongside a machine snapshot.
    fn counter_steps(a: PmAddr, remaining: &[std::rc::Rc<std::cell::Cell<u64>>]) -> Vec<StepFn> {
        remaining
            .iter()
            .map(|rem| {
                let rem = std::rc::Rc::clone(rem);
                Box::new(move |ctx: &mut ThreadCtx<'_>| {
                    let left = rem.get();
                    if left == 0 {
                        return false;
                    }
                    rem.set(left - 1);
                    let t = ctx.thread() as u64;
                    ctx.locked_region(0, |ctx| {
                        let slot = a.offset((left % 8) * 64);
                        let v = ctx.read_u64(slot);
                        ctx.write_u64(slot, v + t + 1);
                    });
                    ctx.complete_tx();
                    left > 1
                }) as StepFn
            })
            .collect()
    }

    fn fingerprint(m: &Machine) -> (String, u64, u64, Cycle) {
        (m.stats_json(), m.tx_count(), m.pm_write_ops(), m.makespan())
    }

    #[test]
    fn snapshot_restore_continue_is_bit_identical() {
        let mk = || {
            let mut m = Machine::new(MachineConfig::small(SchemeKind::Asap, 2).with_tracking());
            let a = m.pm_alloc(64 * 8).unwrap();
            m.drain();
            m.sync_thread_clocks();
            (m, a)
        };
        // Reference: uninterrupted run.
        let (mut reference, a) = mk();
        let rem: Vec<_> = (0..2)
            .map(|_| std::rc::Rc::new(std::cell::Cell::new(6u64)))
            .collect();
        let mut steps = counter_steps(a, &rem);
        assert_eq!(reference.run(&mut steps), RunOutcome::Completed);
        reference.drain();
        let want = fingerprint(&reference);

        // Forked: drive the primitives, snapshot mid-run, finish, then
        // restore and finish again. Both completions must match the
        // uninterrupted reference exactly.
        let (mut m, a2) = mk();
        assert_eq!(a2, a, "deterministic allocation");
        let rem: Vec<_> = (0..2)
            .map(|_| std::rc::Rc::new(std::cell::Cell::new(6u64)))
            .collect();
        let mut steps = counter_steps(a2, &rem);
        m.begin_schedule();
        let mut taken = None;
        let mut stepped = 0u32;
        while let Some(t) = m.next_runnable() {
            assert_ne!(m.step_thread(t, &mut steps[t]), StepOutcome::Crashed);
            stepped += 1;
            if stepped == 3 {
                // Capture the machine and the driver-side counters.
                taken = Some((
                    m.snapshot(),
                    rem.iter().map(|r| r.get()).collect::<Vec<_>>(),
                ));
            }
        }
        m.drain();
        assert_eq!(fingerprint(&m), want, "primitive-driven run == run()");

        let (snap, saved_rem) = taken.expect("snapshot taken");
        m.restore(&snap);
        for (r, v) in rem.iter().zip(&saved_rem) {
            r.set(*v);
        }
        let mut steps = counter_steps(a2, &rem);
        assert_eq!(m.run(&mut steps), RunOutcome::Completed);
        m.drain();
        assert_eq!(fingerprint(&m), want, "restored-and-continued run");
    }

    #[test]
    fn snapshot_crash_fork_matches_legacy_crash_after() {
        for kind in [SchemeKind::HwUndo, SchemeKind::Asap] {
            let crash_at = 9u64;
            // Legacy: crash armed from construction.
            let mut legacy = Machine::new(
                MachineConfig::small(kind, 2)
                    .with_tracking()
                    .with_crash_after(crash_at),
            );
            let a = legacy.pm_alloc(64 * 8).unwrap();
            legacy.drain();
            legacy.sync_thread_clocks();
            let rem: Vec<_> = (0..2)
                .map(|_| std::rc::Rc::new(std::cell::Cell::new(6u64)))
                .collect();
            let mut steps = counter_steps(a, &rem);
            assert_eq!(legacy.run(&mut steps), RunOutcome::Crashed);
            let legacy_report = legacy.recover();
            let legacy_fp = fingerprint(&legacy);

            // Fork: run unarmed to a snapshot before the crash point, then
            // restore, arm the remaining writes, and continue.
            let mut m = Machine::new(MachineConfig::small(kind, 2).with_tracking());
            let a2 = m.pm_alloc(64 * 8).unwrap();
            assert_eq!(a2, a);
            m.drain();
            m.sync_thread_clocks();
            let rem: Vec<_> = (0..2)
                .map(|_| std::rc::Rc::new(std::cell::Cell::new(6u64)))
                .collect();
            let mut steps = counter_steps(a, &rem);
            m.begin_schedule();
            let mut taken = None;
            while let Some(t) = m.next_runnable() {
                assert_ne!(m.step_thread(t, &mut steps[t]), StepOutcome::Crashed);
                if taken.is_none() && m.pm_write_ops() >= 2 {
                    assert!(m.pm_write_ops() < crash_at, "snapshot precedes crash");
                    taken = Some((
                        m.snapshot(),
                        rem.iter().map(|r| r.get()).collect::<Vec<_>>(),
                    ));
                }
            }
            let (snap, saved_rem) = taken.expect("snapshot taken before crash point");
            m.restore(&snap);
            for (r, v) in rem.iter().zip(&saved_rem) {
                r.set(*v);
            }
            m.arm_crash_after_additional(crash_at - snap.pm_write_ops());
            let mut steps = counter_steps(a, &rem);
            assert_eq!(m.run(&mut steps), RunOutcome::Crashed, "{kind}");
            let report = m.recover();
            assert_eq!(report.uncommitted, legacy_report.uncommitted, "{kind}");
            assert_eq!(fingerprint(&m), legacy_fp, "{kind}: fork == legacy");
        }
    }

    #[test]
    fn crash_hook_copy_matches_legacy_crash_and_live_run_continues() {
        let mk = |crash_at: Option<u64>| {
            let mut cfg = MachineConfig::small(SchemeKind::Asap, 2).with_tracking();
            cfg.crash_after_pm_writes = crash_at;
            let mut m = Machine::new(cfg);
            let a = m.pm_alloc(64 * 8).unwrap();
            m.drain();
            m.sync_thread_clocks();
            let rem: Vec<_> = (0..2)
                .map(|_| std::rc::Rc::new(std::cell::Cell::new(6u64)))
                .collect();
            let steps = counter_steps(a, &rem);
            (m, steps)
        };
        // The run makes 12 persistent writes.
        let points = [3u64, 8, 8, 12];
        // Legacy: one armed run per distinct point.
        let legacy: Vec<_> = [3u64, 8, 12]
            .iter()
            .map(|&n| {
                let (mut m, mut steps) = mk(Some(n));
                assert_eq!(m.run(&mut steps), RunOutcome::Crashed);
                let report = m.recover();
                (report.uncommitted, fingerprint(&m))
            })
            .collect();
        let (mut reference, mut steps) = mk(None);
        assert_eq!(reference.run(&mut steps), RunOutcome::Completed);
        reference.drain();

        // One pass: the hook crashes a copy at each point and re-arms.
        let (mut m, mut steps) = mk(None);
        let mut copy = None;
        let mut got = Vec::new();
        let mut next = 0;
        let mut hook = |live: &Machine| {
            let c = live.crash_copy(&mut copy);
            assert!(c.is_crashed() && !live.is_crashed());
            assert_eq!(c.hw().caches.len(), 0, "the copy carries no cache lines");
            let report = c.recover();
            got.push((report.uncommitted, fingerprint(c)));
            while next < points.len() && points[next] <= live.pm_write_ops() {
                next += 1;
            }
            points.get(next).copied()
        };
        m.arm_crash_after_additional(points[0]);
        m.begin_schedule();
        while let Some(t) = m.next_runnable() {
            let out = m.step_thread_with(t, &mut steps[t], &mut hook);
            assert_ne!(out, StepOutcome::Crashed, "a hook replaces the crash");
        }
        assert_eq!(got, legacy, "each copy equals its legacy crash");
        assert_eq!(m.crash_armed(), None, "the last point disarmed");
        m.drain();
        assert_eq!(
            fingerprint(&m),
            fingerprint(&reference),
            "live run unchanged"
        );
    }

    #[test]
    fn dram_writes_are_not_tracked_or_logged() {
        let mut m = machine(SchemeKind::Asap);
        let d = m.dram_alloc(64).unwrap();
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            ctx.write_u64(d, 123);
            assert_eq!(ctx.read_u64(d), 123);
            ctx.end_region();
        });
        m.drain();
        assert_eq!(m.stats().get("asap.lpo"), 0, "no LPO for DRAM writes");
    }
}
