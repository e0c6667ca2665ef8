//! The traced re-drive: each cell again, one public call at a time, with a
//! span around every call. The spans live here, in the benchmark, around
//! calls into the layers; nothing inside the simulator is hooked. A
//! re-drive must reproduce the untraced result bit for bit, or its spans
//! are dropped and it counts as a mismatch.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use asap_core::machine::{Machine, MachineConfig, RunOutcome, StepFn, StepOutcome, ThreadCtx};
use asap_sim::Cycle;
use asap_workloads::structures::AnyBench;
use asap_workloads::{Benchmark, RunResult, SweepResult, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One timed call: its name, the cell it belongs to, the span that
/// enclosed it, and when it started and ended (from the tracer's origin).
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`, e.g. `machine.step`.
    pub name: &'static str,
    /// Index of the cell in its workload.
    pub cell: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, from the tracer's origin.
    pub start: Duration,
    /// End, from the tracer's origin.
    pub end: Duration,
}

impl Span {
    /// How long the call took, children included.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Spans kept in memory, written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    cell: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            cell: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span called `name`, child of the innermost open one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            cell: self.cell,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed();
        r
    }

    /// Every span recorded, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut out: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.duration());
            }
        }
        out
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"cell\":{},\"parent\":{},\"start_us\":{},\"end_us\":{}}}",
                    s.name,
                    s.cell,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start.as_micros(),
                    s.end.as_micros()
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }

    /// Re-drives one cell, keeping its spans only when it matched.
    pub fn cell(
        &mut self,
        cell: usize,
        f: impl FnOnce(&mut Self) -> Result<Counts, String>,
    ) -> Result<Counts, String> {
        let mark = self.spans.len();
        self.cell = cell;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(self)))
            .unwrap_or_else(|_| Err("re-drive panicked".to_string()));
        if r.is_err() {
            self.spans.truncate(mark);
            self.open.clear();
        }
        r
    }
}

/// Work a re-drive did, to turn span times into per-unit costs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Transactions the step loop completed.
    pub tx: u64,
    /// Persistent writes the step loop issued.
    pub writes: u64,
    /// Persistent writes re-simulated by armed replays.
    pub replayed: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.tx += o.tx;
        self.writes += o.writes;
        self.replayed += o.replayed;
    }
}

// What follows mirrors `asap_workloads::driver` step for step: `run`,
// `prepare`, `thread_states`, `shared_steps` and `collect`. A change there
// shows up here as `trace.redrive_mismatches`.

fn machine_config(spec: &WorkloadSpec) -> MachineConfig {
    let cfg = MachineConfig::new(spec.scheme, spec.threads)
        .with_system(spec.system)
        .with_trace(spec.trace)
        .with_telemetry(spec.telemetry);
    if spec.track {
        cfg.with_tracking()
    } else {
        cfg
    }
}

/// Where the timed run starts, as `prepare` records it.
struct Marks {
    pm_writes_setup: u64,
    armed_base: u64,
    setup_end: Cycle,
}

/// Drains setup, barriers the thread clocks and drops setup from the
/// per-region summaries.
fn settle(m: &mut Machine) -> Marks {
    m.drain();
    m.sync_thread_clocks();
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
    Marks {
        pm_writes_setup: m.pm_write_traffic(),
        armed_base: m.pm_write_ops(),
        setup_end: m.makespan(),
    }
}

#[derive(Clone, Debug)]
struct ThreadState {
    rng: StdRng,
    remaining: u64,
}

type States = Rc<RefCell<Vec<ThreadState>>>;

fn thread_states(spec: &WorkloadSpec) -> States {
    Rc::new(RefCell::new(
        (0..u64::from(spec.threads))
            .map(|t| ThreadState {
                rng: StdRng::seed_from_u64(spec.seed ^ t.wrapping_mul(0x9e37)),
                remaining: spec.ops_per_thread,
            })
            .collect(),
    ))
}

fn step_fns(bench: AnyBench, spec: &WorkloadSpec, states: &States) -> Vec<StepFn> {
    (0..spec.threads as usize)
        .map(|t| {
            let s = *spec;
            let states = Rc::clone(states);
            Box::new(move |ctx: &mut ThreadCtx| {
                let st = &mut states.borrow_mut()[t];
                if st.remaining == 0 {
                    return false;
                }
                bench.step(ctx, &mut st.rng, &s);
                ctx.complete_tx();
                st.remaining -= 1;
                st.remaining > 0
            }) as StepFn
        })
        .collect()
}

/// The `Machine::run` loop, through the scheduling primitives.
fn drive(m: &mut Machine, steps: &mut [StepFn]) -> RunOutcome {
    m.begin_schedule();
    while let Some(t) = m.next_runnable() {
        if m.step_thread(t, &mut steps[t]) == StepOutcome::Crashed {
            return RunOutcome::Crashed;
        }
    }
    RunOutcome::Completed
}

/// Builds the machine and the structure, and settles setup, each in its
/// own span.
fn start(tr: &mut Tracer, spec: &WorkloadSpec) -> (Machine, AnyBench, Marks) {
    let mut m = tr.span("machine.new", |_| Machine::new(machine_config(spec)));
    let bench = tr.span("structures.setup", |_| {
        let mut b = AnyBench::create(&mut m, spec);
        b.setup(&mut m, spec);
        b
    });
    let marks = tr.span("machine.setup_drain", |_| settle(&mut m));
    (m, bench, marks)
}

/// Re-drives a grid cell and checks it against the untraced `run` result.
pub fn grid(tr: &mut Tracer, spec: &WorkloadSpec, want: &RunResult) -> Result<Counts, String> {
    tr.span("driver.cell", |tr| {
        let (mut m, bench, marks) = start(tr, spec);
        let states = thread_states(spec);
        let mut steps = step_fns(bench, spec, &states);
        let tx0 = m.tx_count();
        tr.span("machine.step", |_| drive(&mut m, &mut steps));
        drop(steps);
        let counts = Counts {
            tx: m.tx_count() - tx0,
            writes: m.pm_write_ops() - marks.armed_base,
            replayed: 0,
        };
        let exec = m.makespan();
        let drained = tr.span("machine.drain", |_| m.drain());
        tr.span("structures.verify", |_| bench.verify(&mut m))?;
        let stats = tr.span("machine.stats", |_| m.stats());
        let got = (
            m.tx_count(),
            exec.raw().saturating_sub(marks.setup_end.raw()).max(1),
            drained.raw(),
            stats.get("pm.write.total") - marks.pm_writes_setup,
        );
        let expected = (
            want.tx,
            want.exec_cycles,
            want.drained_cycles,
            want.pm_writes,
        );
        if got != expected || stats != want.stats {
            return Err(format!(
                "(tx, exec, drained, pm_writes) {got:?} vs run() {expected:?}, stats equal: {}",
                stats == want.stats
            ));
        }
        Ok(counts)
    })
}

/// Re-drives a sweep cell: the prefix with a spine snapshot every
/// `snap_every` persistent writes, then, for each sampled point, restore,
/// armed replay, recovery and verification, each checked against the
/// untraced sweep's fork.
pub fn sweep(
    tr: &mut Tracer,
    spec: &WorkloadSpec,
    points: &[u64],
    snap_every: u64,
    sample: &[usize],
    want: &SweepResult,
) -> Result<Counts, String> {
    tr.span("driver.cell", |tr| {
        let (mut m, bench, marks) = start(tr, spec);
        let states = thread_states(spec);
        let mut steps = step_fns(bench, spec, &states);
        let snap = |tr: &mut Tracer, m: &Machine| {
            tr.span("machine.snapshot", |_| {
                (m.snapshot(), states.borrow().clone())
            })
        };
        let mut spine = vec![snap(tr, &m)];
        let tx0 = m.tx_count();
        tr.span("machine.step", |tr| {
            let mut next_mark = marks.armed_base + snap_every;
            m.begin_schedule();
            while let Some(t) = m.next_runnable() {
                m.step_thread(t, &mut steps[t]);
                let w = m.pm_write_ops();
                if w >= next_mark {
                    spine.push(snap(tr, &m));
                    next_mark = w + snap_every;
                }
            }
        });
        drop(steps);
        let mut counts = Counts {
            tx: m.tx_count() - tx0,
            writes: m.pm_write_ops() - marks.armed_base,
            replayed: 0,
        };
        for &i in sample {
            let n = points[i];
            let limit = marks.armed_base + n.max(1);
            let (s, st) = &spine[spine.partition_point(|(s, _)| s.pm_write_ops() < limit) - 1];
            tr.span("machine.restore", |_| {
                m.restore(s);
                states.borrow_mut().clone_from(st);
            });
            m.arm_crash_after_additional(marks.armed_base + n - m.pm_write_ops());
            let mut steps = step_fns(bench, spec, &states);
            let outcome = tr.span("machine.replay", |_| drive(&mut m, &mut steps));
            drop(steps);
            counts.replayed += m.pm_write_ops() - s.pm_write_ops();
            if outcome != RunOutcome::Crashed {
                return Err(format!("point {n} did not crash"));
            }
            let report = tr.span("machine.recover", |_| m.recover());
            tr.span("structures.verify", |_| bench.verify(&mut m))?;
            let stats = tr.span("machine.stats", |_| m.stats());
            let f = &want.forks[i];
            if f.outcome != outcome
                || f.tx != m.tx_count()
                || f.recovery.as_ref() != Some(&report)
                || f.stats != stats
            {
                return Err(format!("fork at point {n} differs from the sweep's"));
            }
        }
        Ok(counts)
    })
}
