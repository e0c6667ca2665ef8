//! Host-speed benchmark of the ASAP reproduction.
//!
//! Four workloads (see [`Workload`]) drive the simulator through its
//! public entry points in a closed loop: one client, one cell in flight.
//! Every number the untraced run reports is host time or host memory;
//! simulated results only serve as correctness checks, by digest against
//! committed goldens or against the run's first round. A separate traced
//! run ([`Options::trace`]) re-drives each cell one public call at a time
//! ([`redrive`]) and reports per-layer host time and exact per-layer
//! counts. `README.md` next to this crate maps each layer metric to the
//! end-to-end metric it should move.

pub mod redrive;
pub mod report;
pub mod speed;
pub mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use asap_core::scheme::SchemeKind;
use asap_sim::obs::metrics::counter_value;
use asap_sim::Summary;
use asap_workloads::RunResult;

use redrive::{Counts, Tracer};
use report::{median, metric, quantile, ratio, Metric};
pub use workload::{Cell, Output, Scale, Workload};

/// The figures' own seed, and the default.
pub const DEFAULT_SEED: u64 = 0xA5A5_0001;
/// The seed held out while the benchmark was written.
pub const HELD_OUT_SEED: u64 = 0x5EED_0002;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_RUNS: usize = 5;
/// Fewest untraced rounds, whatever `--seconds` says: each cell's median
/// needs a few rounds to shrug off one disturbed round.
const MIN_ROUNDS: usize = 3;
/// Crash points per sweep cell the traced re-drive replays.
const SAMPLED_POINTS: usize = 8;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every spec in the workload.
    pub seed: u64,
    /// Measuring time: rounds repeat until the next one would overrun it.
    pub seconds: f64,
    /// Report per-layer metrics from a traced re-drive instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Cell sizes.
    pub scale: Scale,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Ops run (cells, or crash points on sweep workloads).
    pub attempted: u64,
    /// Ops that panicked, deviated from the golden or from round 1, or
    /// (crash points) did not crash.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// Human-readable lines about the run.
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Whether every op ran and matched.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line.
    pub fn json_line(&self) -> String {
        report::json_line(self.correct(), self.attempted, self.failed, &self.metrics)
    }
}

/// Where the golden digests of `w` at `seed` live.
pub fn golden_path(w: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}-{seed:#x}.txt", w.name()))
}

/// The digest each cell must produce: from the golden file when there is
/// one (a cell it lacks can never match), `None` otherwise.
fn load_golden(w: Workload, seed: u64, scale: Scale, cells: &[Cell]) -> Vec<Option<String>> {
    let text = match scale {
        Scale::Full => std::fs::read_to_string(golden_path(w, seed)).ok(),
        Scale::Tiny => None,
    };
    let Some(text) = text else {
        return vec![None; cells.len()];
    };
    let golden: BTreeMap<&str, &str> = text.lines().filter_map(|l| l.split_once(' ')).collect();
    cells
        .iter()
        .map(|c| Some(golden.get(c.label().as_str()).unwrap_or(&"").to_string()))
        .collect()
}

/// Runs every cell of the workload once and writes its digests as the
/// golden file for `o.seed`.
///
/// # Errors
///
/// Fails when a cell panics or goes wrong, or the file cannot be written.
pub fn write_golden(o: &Options) -> Result<PathBuf, String> {
    let mut text = String::new();
    for cell in workload::plan(o.workload, o.seed, o.scale) {
        let out = catch_unwind(AssertUnwindSafe(|| cell.execute()))
            .map_err(|_| format!("{} panicked", cell.label()))?;
        if out.bad_ops() > 0 {
            return Err(format!(
                "{}: {} ops went wrong",
                cell.label(),
                out.bad_ops()
            ));
        }
        text.push_str(&format!("{} {}\n", cell.label(), out.digest()));
    }
    let path = golden_path(o.workload, o.seed);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Calls `round` until the next call would end after `seconds`, and at
/// least `min` times. Returns the number of calls.
fn repeat(seconds: f64, min: usize, mut round: impl FnMut()) -> usize {
    let t0 = Instant::now();
    let mut n = 0;
    loop {
        round();
        n += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if n >= min && elapsed * (n + 1) as f64 / n as f64 > seconds {
            return n;
        }
    }
}

/// One round's totals.
#[derive(Clone, Copy, Default)]
struct Round {
    ops: u64,
    /// Host seconds in the timed calls.
    secs: f64,
    /// Host seconds in the probes taken before them.
    probe_secs: f64,
    probes: u64,
}

/// Per-op bookkeeping of the timed rounds.
#[derive(Default)]
struct Tally {
    /// Each cell's host seconds, one per round, scaled to the reference
    /// host speed by the probe taken just before.
    scaled: Vec<Vec<f64>>,
    rounds: Vec<Round>,
    current: Round,
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Books one timed cell. `expect` is the digest it must match; the
    /// first round sets it when no golden exists.
    fn record(
        &mut self,
        i: usize,
        cell: &Cell,
        (secs, probe): (f64, f64),
        out: Option<&Output>,
        expect: &mut Option<String>,
    ) {
        let ops = cell.ops();
        if i == self.scaled.len() {
            self.scaled.push(Vec::new());
        }
        self.scaled[i].push(secs * speed::REFERENCE_SECS / probe);
        self.current.ops += ops;
        self.current.secs += secs;
        self.current.probe_secs += probe;
        self.current.probes += 1;
        self.attempted += ops;
        self.failed += match out {
            None => ops,
            Some(out) => {
                let digest = out.digest();
                match expect {
                    Some(e) if *e != digest => ops,
                    Some(_) => out.bad_ops(),
                    None => {
                        *expect = Some(digest);
                        out.bad_ops()
                    }
                }
            }
        };
    }

    fn end_round(&mut self) {
        self.rounds.push(std::mem::take(&mut self.current));
    }
}

/// Registry counters, with units, whose change across each untraced call
/// the traced run reports (the driver flushes them at the end of a run).
const REGISTRY: [(&str, &str); 9] = [
    ("snapshot.forks", "count"),
    ("snapshot.replayed_writes", "count"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.tree.leaves", "count"),
    ("snapshot.spine.compactions", "count"),
    ("pmem.image.cow_copies", "count"),
    ("pmem.image.lookups", "count"),
    ("pmem.image.last_page_hits", "count"),
    ("sim.calendar.full_scans", "count"),
];

fn registry_values() -> [u64; REGISTRY.len()] {
    REGISTRY.map(|(name, _)| counter_value(name))
}

/// What the traced run collects next to each untraced call.
#[derive(Default)]
struct TraceState {
    tracer: Tracer,
    counts: Counts,
    mismatches: u64,
    registry: [u64; REGISTRY.len()],
    /// Untraced host seconds in `run` (grid) and in sweeps.
    run_s: f64,
    sweep_s: f64,
    /// Untraced and traced host seconds of the grid cells that matched.
    untraced_s: f64,
    traced_s: f64,
    /// Each cell's uninterrupted result from the latest round.
    last: Vec<Option<RunResult>>,
    notes: Vec<String>,
}

/// Evenly spaced indices into `n` points, at most [`SAMPLED_POINTS`].
fn sample(n: usize) -> Vec<usize> {
    let k = SAMPLED_POINTS.min(n);
    let mut v: Vec<usize> = (0..k).map(|j| j * (n - 1) / (k - 1).max(1)).collect();
    v.dedup();
    v
}

impl TraceState {
    fn observe(
        &mut self,
        i: usize,
        cell: &Cell,
        secs: f64,
        out: &Output,
        before: [u64; REGISTRY.len()],
    ) {
        for ((sum, after), before) in self.registry.iter_mut().zip(registry_values()).zip(before) {
            *sum += after - before;
        }
        self.last.resize(self.last.len().max(i + 1), None);
        self.last[i] = Some(out.main_result().clone());
        let mark = self.tracer.spans().len();
        let r = match (cell, out) {
            (Cell::Grid(spec), Output::Grid(res)) => {
                self.run_s += secs;
                self.tracer.cell(i, |tr| redrive::grid(tr, spec, res))
            }
            (
                Cell::Sweep {
                    spec,
                    points,
                    snap_every,
                },
                Output::Sweep(res),
            ) => {
                self.sweep_s += secs;
                let sample = sample(points.len());
                self.tracer.cell(i, |tr| {
                    redrive::sweep(tr, spec, points, *snap_every, &sample, res)
                })
            }
            _ => unreachable!("a cell's output matches its kind"),
        };
        match r {
            Ok(c) => {
                self.counts += c;
                if matches!(cell, Cell::Grid(_)) {
                    self.untraced_s += secs;
                    self.traced_s += self.tracer.spans()[mark].duration().as_secs_f64();
                }
            }
            Err(e) => {
                self.mismatches += 1;
                self.notes
                    .push(format!("re-drive mismatch in {}: {e}", cell.label()));
            }
        }
    }

    /// The per-layer metrics, per round where they are totals.
    fn metrics(&self, w: Workload, cells: &[Cell], rounds: usize, plan_s: f64) -> Vec<Metric> {
        let n = rounds as f64;
        let self_times = self.tracer.self_times();
        let mut by_name: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
        let mut step_by_scheme: BTreeMap<&str, f64> = BTreeMap::new();
        let mut cell_total = 0.0;
        for (s, t) in self.tracer.spans().iter().zip(&self_times) {
            let e = by_name.entry(s.name).or_default();
            e.0 += t.as_secs_f64();
            e.1 += 1;
            if s.name == "driver.cell" {
                cell_total += s.duration().as_secs_f64();
            }
            if s.name == "machine.step" {
                let key = scheme_key(cells[s.cell].spec().scheme);
                *step_by_scheme.entry(key).or_default() += t.as_secs_f64();
            }
        }
        let total = |name: &str| by_name.get(name).map_or(0.0, |e| e.0);
        let mean = |name: &str| by_name.get(name).map_or(0.0, |e| ratio(e.0, e.1 as f64));
        let step = total("machine.step");
        let mut m = vec![
            metric("driver.run_s", self.run_s / n, "s"),
            metric("driver.sweep_s", self.sweep_s / n, "s"),
            metric("driver.plan_s", plan_s, "s"),
            metric("structures.setup_s", total("structures.setup") / n, "s"),
            metric("structures.verify_s", total("structures.verify") / n, "s"),
            metric(
                "structures.verify_us",
                mean("structures.verify") * 1e6,
                "us",
            ),
            metric("machine.new_s", total("machine.new") / n, "s"),
            metric(
                "machine.setup_drain_s",
                total("machine.setup_drain") / n,
                "s",
            ),
            metric("machine.step_s", step / n, "s"),
        ];
        for key in SCHEME_KEYS {
            let s = step_by_scheme.get(key).copied().unwrap_or(0.0);
            m.push(metric(format!("machine.step_s.{key}"), s / n, "s"));
        }
        m.extend([
            metric(
                "machine.step_ns_per_tx",
                ratio(step * 1e9, self.counts.tx as f64),
                "ns",
            ),
            metric(
                "machine.step_ns_per_pm_write",
                ratio(step * 1e9, self.counts.writes as f64),
                "ns",
            ),
            metric("machine.drain_s", total("machine.drain") / n, "s"),
            metric("machine.stats_s", total("machine.stats") / n, "s"),
            metric("machine.snapshot_us", mean("machine.snapshot") * 1e6, "us"),
            metric("machine.restore_us", mean("machine.restore") * 1e6, "us"),
            metric(
                "machine.replay_ns_per_write",
                ratio(total("machine.replay") * 1e9, self.counts.replayed as f64),
                "ns",
            ),
            metric("machine.recover_us", mean("machine.recover") * 1e6, "us"),
        ]);
        for ((name, unit), sum) in REGISTRY.iter().zip(self.registry) {
            m.push(metric(*name, sum as f64 / n, unit));
        }
        let reg = |name: &str| m.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);
        let hit_ratio = ratio(reg("pmem.image.last_page_hits"), reg("pmem.image.lookups"));
        m.push(metric("pmem.image.last_page_hit_ratio", hit_ratio, "ratio"));
        let last: Vec<&RunResult> = self.last.iter().flatten().collect();
        m.extend(simulated(w, &last));
        m.extend([
            metric("trace.redrive_mismatches", self.mismatches as f64, "count"),
            metric(
                "trace.unattributed_pct",
                ratio(total("driver.cell") * 100.0, cell_total),
                "%",
            ),
            metric(
                "trace.overhead_pct",
                ratio((self.traced_s - self.untraced_s) * 100.0, self.untraced_s),
                "%",
            ),
        ]);
        m
    }
}

const SCHEME_KEYS: [&str; 5] = ["sw_undo", "hw_redo", "hw_undo", "asap", "no_persist"];

fn scheme_key(s: SchemeKind) -> &'static str {
    match s {
        SchemeKind::SwUndo | SchemeKind::SwDpoOnly => "sw_undo",
        SchemeKind::HwRedo => "hw_redo",
        SchemeKind::HwUndo => "hw_undo",
        SchemeKind::Asap | SchemeKind::AsapWith(_) => "asap",
        SchemeKind::NoPersist => "no_persist",
    }
}

/// Pooled mean of one summary over results.
fn pooled_mean(results: &[&RunResult], name: &str) -> f64 {
    let (sum, count) = results
        .iter()
        .filter_map(|r| r.stats.summary(name))
        .fold((0u128, 0u64), |(s, c), x: &Summary| {
            (s + x.sum, c + x.count)
        });
    ratio(sum as f64, count as f64)
}

/// Simulated, exact per-layer numbers of one round: a perf change must
/// leave every one of them where it was.
fn simulated(w: Workload, results: &[&RunResult]) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&RunResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
    let avg = |f: &dyn Fn(&RunResult) -> f64| {
        ratio(results.iter().map(|r| f(r)).sum(), results.len() as f64)
    };
    let mut m = vec![
        metric("mem.pm_writes", sum(&|r| r.pm_writes), "count"),
        metric(
            "mem.wpq_full_arrivals",
            sum(&|r| r.stats.get("mem.wpq.full_arrival")),
            "count",
        ),
        metric(
            "mem.wpq_occupancy_mean",
            pooled_mean(results, "mem.wpq.occupancy"),
            "entries",
        ),
        metric(
            "mem.persist_latency_mean",
            pooled_mean(results, "mem.persist.latency"),
            "cycles",
        ),
        metric(
            "cache.evictions",
            sum(&|r| r.stats.get("machine.evict.total")),
            "count",
        ),
        metric(
            "cache.evictions_dirty",
            sum(&|r| r.stats.get("machine.evict.dirty")),
            "count",
        ),
        metric(
            "scheme.region_cycles_mean",
            avg(&|r| r.region_cycles_mean),
            "cycles",
        ),
        metric(
            "scheme.stall.log_full",
            avg(&|r| r.stalls.log_full),
            "cycles",
        ),
        metric(
            "scheme.stall.wpq_backpressure",
            avg(&|r| r.stalls.wpq_backpressure),
            "cycles",
        ),
        metric(
            "scheme.stall.dependency_wait",
            avg(&|r| r.stalls.dependency_wait),
            "cycles",
        ),
        metric(
            "scheme.stall.commit_wait",
            avg(&|r| r.stalls.commit_wait),
            "cycles",
        ),
    ];
    for (key, scheme) in [
        ("hwredo", SchemeKind::HwRedo),
        ("hwundo", SchemeKind::HwUndo),
        ("asap", SchemeKind::Asap),
        ("np", SchemeKind::NoPersist),
    ] {
        let g = if w == Workload::Fig7Cold {
            fig7_geomean(results, scheme)
        } else {
            0.0
        };
        m.push(metric(format!("model.fig7_geomean.{key}"), g, "x"));
    }
    m
}

/// Geometric mean over (bench, payload) of `scheme`'s throughput over SW's.
fn fig7_geomean(results: &[&RunResult], scheme: SchemeKind) -> f64 {
    let find = |r: &RunResult, s: SchemeKind| {
        results.iter().find(|x| {
            x.spec.scheme == s
                && x.spec.bench == r.spec.bench
                && x.spec.value_bytes == r.spec.value_bytes
        })
    };
    let logs: Vec<f64> = results
        .iter()
        .filter(|r| r.spec.scheme == SchemeKind::SwUndo)
        .filter_map(|sw| find(sw, scheme).map(|x| x.speedup_over(sw).ln()))
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// Runs one workload: set-up [`SETUP_RUNS`] times, then timed rounds for
/// `o.seconds` (at least [`MIN_ROUNDS`] untraced, one traced).
pub fn run_workload(o: &Options) -> Outcome {
    let (w, seed) = (o.workload, o.seed);
    let mut setup_s = Vec::new();
    let mut plan_s = Vec::new();
    let mut cells = Vec::new();
    let mut expect = Vec::new();
    for _ in 0..SETUP_RUNS {
        let probe = speed::probe();
        let t0 = Instant::now();
        cells = workload::plan(w, seed, o.scale);
        plan_s.push(t0.elapsed().as_secs_f64());
        expect = load_golden(w, seed, o.scale, &cells);
        // One untimed cell, so the first timed op does not pay for cold
        // host caches and allocator growth.
        let _ = catch_unwind(AssertUnwindSafe(|| cells[0].execute()));
        setup_s.push(t0.elapsed().as_secs_f64() * speed::REFERENCE_SECS / probe);
    }
    let golden = expect.iter().any(Option::is_some);
    let mut notes = vec![format!(
        "workload {} seed {seed:#x}: {} cells, {} ops per round, checked against {}",
        w.name(),
        cells.len(),
        cells.iter().map(Cell::ops).sum::<u64>(),
        if golden {
            "the golden digests"
        } else {
            "round 1"
        }
    )];

    let mut tally = Tally::default();
    let mut trace = o.trace.then(TraceState::default);
    let rounds = repeat(o.seconds, if o.trace { 1 } else { MIN_ROUNDS }, || {
        for (i, cell) in cells.iter().enumerate() {
            let probe = speed::probe();
            let before = registry_values();
            let t0 = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| cell.execute()));
            let secs = t0.elapsed().as_secs_f64();
            tally.record(i, cell, (secs, probe), out.as_ref().ok(), &mut expect[i]);
            if let (Some(tr), Ok(out)) = (trace.as_mut(), &out) {
                tr.observe(i, cell, secs, out, before);
            }
        }
        tally.end_round();
    });

    for (k, r) in tally.rounds.iter().enumerate() {
        let slow = r.probe_secs / r.probes as f64 / speed::REFERENCE_SECS;
        notes.push(format!(
            "round {}: {} ops in {:.3} s, {:.2} ops/s, probe at {slow:.2}x its reference time",
            k + 1,
            r.ops,
            r.secs,
            ratio(r.ops as f64, r.secs)
        ));
    }
    // Each cell's median scaled time over the rounds. (Percentiles of the
    // pooled samples would carry every probe's own jitter.)
    let cell_ms: Vec<f64> = tally.scaled.iter().map(|v| median(v) * 1e3).collect();
    notes.push(format!(
        "setup: {SETUP_RUNS} runs, median {:.3} s; cell times: median of {rounds} rounds, {} cells",
        median(&setup_s),
        cell_ms.len()
    ));
    let (metrics, tracer) = match trace {
        None => {
            let ops: u64 = cells.iter().map(Cell::ops).sum();
            let metrics = vec![
                metric(
                    "ops_per_s",
                    ratio(ops as f64 * 1e3, cell_ms.iter().sum()),
                    "ops/s",
                ),
                metric("cell_ms_p50", quantile(&cell_ms, 0.5), "ms"),
                metric("cell_ms_p90", quantile(&cell_ms, 0.9), "ms"),
                metric("peak_rss_mb", report::peak_rss_mb(), "MB"),
                metric("setup_s", median(&setup_s), "s"),
            ];
            (metrics, None)
        }
        Some(mut tr) => {
            let metrics = tr.metrics(w, &cells, rounds, median(&plan_s));
            notes.append(&mut tr.notes);
            (metrics, Some(tr.tracer))
        }
    };
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
        tracer,
    }
}
