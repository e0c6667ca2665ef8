//! The four workloads: which cells each one runs and how a cell executes.

use asap_bench::run_crash_sweep_with;
use asap_bench::runcache::RunCacheConfig;
use asap_core::machine::RunOutcome;
use asap_core::scheme::SchemeKind;
use asap_sim::fingerprint::{hash_bytes, Canon};
use asap_sim::SystemConfig;
use asap_workloads::resultjson::to_json;
use asap_workloads::{enumerate_crash_points, run, BenchId, RunResult, SweepResult, WorkloadSpec};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 7's 90 cells on the Table 2 system.
    Fig7Cold,
    /// Fig. 10's 4x and 16x PM-latency columns, 600 ops per thread.
    SlowPm,
    /// Crash sweeps of 128 points over 9 benches x 4 schemes, small system.
    CrashMatrix,
    /// Crash sweeps of 32 points over the same matrix, Table 2 system.
    SweepTable2,
}

impl Workload {
    /// Every workload, in the order the suite runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Fig7Cold,
        Workload::SlowPm,
        Workload::CrashMatrix,
        Workload::SweepTable2,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7Cold => "fig7_cold",
            Workload::SlowPm => "slow_pm",
            Workload::CrashMatrix => "crash_matrix",
            Workload::SweepTable2 => "sweep_table2",
        }
    }

    /// The workload called `name`, if there is one.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether an op is a crash point (sweep workloads) or a whole cell.
    pub fn is_sweep(self) -> bool {
        matches!(self, Workload::CrashMatrix | Workload::SweepTable2)
    }
}

/// How large the cells are: the measured size, or a tiny one for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// `WorkloadSpec::small`, 10 ops per thread, 4 crash points per sweep.
    Tiny,
}

const FIG7_SCHEMES: [SchemeKind; 5] = [
    SchemeKind::SwUndo,
    SchemeKind::HwRedo,
    SchemeKind::HwUndo,
    SchemeKind::Asap,
    SchemeKind::NoPersist,
];
const SLOW_PM_SCHEMES: [SchemeKind; 4] = [
    SchemeKind::NoPersist,
    SchemeKind::Asap,
    SchemeKind::HwUndo,
    SchemeKind::HwRedo,
];
const SWEEP_SCHEMES: [SchemeKind; 4] = [
    SchemeKind::SwUndo,
    SchemeKind::HwUndo,
    SchemeKind::HwRedo,
    SchemeKind::Asap,
];

/// One timed op of a grid workload, or one sweep of a crash workload.
#[derive(Clone, Debug)]
pub enum Cell {
    /// One `asap_workloads::run` call.
    Grid(WorkloadSpec),
    /// One `run_crash_sweep_with` call over planned points.
    Sweep {
        /// The unarmed spec the sweep forks from.
        spec: WorkloadSpec,
        /// Lifecycle-guided crash points, from `enumerate_crash_points`.
        points: Vec<u64>,
        /// Spine snapshot cadence in persistent writes.
        snap_every: u64,
    },
}

impl Cell {
    /// The cell's spec (the unarmed one for sweeps).
    pub fn spec(&self) -> &WorkloadSpec {
        match self {
            Cell::Grid(spec) | Cell::Sweep { spec, .. } => spec,
        }
    }

    /// Ops the cell counts for: 1 for a grid cell, its points for a sweep.
    pub fn ops(&self) -> u64 {
        match self {
            Cell::Grid(_) => 1,
            Cell::Sweep { points, .. } => points.len() as u64,
        }
    }

    /// The cell's [`label`].
    pub fn label(&self) -> String {
        label(self.spec())
    }

    /// Runs the cell through the public driver entry points.
    pub fn execute(&self) -> Output {
        match self {
            Cell::Grid(spec) => Output::Grid(run(spec)),
            Cell::Sweep {
                spec,
                points,
                snap_every,
            } => Output::Sweep(run_crash_sweep_with(
                spec,
                points,
                *snap_every,
                &RunCacheConfig::off(),
            )),
        }
    }
}

/// What a cell produced.
pub enum Output {
    /// A grid cell's result.
    Grid(RunResult),
    /// A sweep's baseline and forks.
    Sweep(SweepResult),
}

impl Output {
    /// The hash of the canonical result JSON: of the one result for a grid
    /// cell, of the baseline and every fork for a sweep.
    pub fn digest(&self) -> String {
        match self {
            Output::Grid(r) => hash_bytes(to_json(r).as_bytes()).hex(),
            Output::Sweep(s) => {
                let mut c = Canon::new();
                for r in std::iter::once(&s.baseline).chain(&s.forks) {
                    c.str(&to_json(r));
                }
                c.fingerprint().hex()
            }
        }
    }

    /// Ops that went wrong without a panic: a grid cell that did not
    /// complete, or a planned crash point whose fork did not crash.
    pub fn bad_ops(&self) -> u64 {
        match self {
            Output::Grid(r) => u64::from(r.outcome != RunOutcome::Completed),
            Output::Sweep(s) => s
                .baseline
                .crash_points
                .iter()
                .filter(|p| !p.crashed)
                .count() as u64,
        }
    }

    /// The uninterrupted run: the grid result, or the sweep's baseline.
    pub fn main_result(&self) -> &RunResult {
        match self {
            Output::Grid(r) => r,
            Output::Sweep(s) => &s.baseline,
        }
    }
}

/// A name unique within a workload, e.g. `HM/64B/asap/x16`; the golden
/// files key digests by it.
pub fn label(s: &WorkloadSpec) -> String {
    format!(
        "{}/{}B/{}/x{}",
        s.bench.label(),
        s.value_bytes,
        s.scheme.name(),
        s.system.mem.pm_latency_mult
    )
}

/// The specs of a workload, before crash points are planned.
pub fn specs(w: Workload, seed: u64, scale: Scale) -> Vec<WorkloadSpec> {
    let base = |bench, scheme, ops: u64| match scale {
        Scale::Full => WorkloadSpec::new(bench, scheme).with_ops(ops),
        Scale::Tiny => WorkloadSpec::small(bench, scheme).with_ops(10),
    };
    let mut out = Vec::new();
    for bench in BenchId::all() {
        match w {
            Workload::Fig7Cold => {
                for vb in [64, 2048] {
                    for scheme in FIG7_SCHEMES {
                        out.push(base(bench, scheme, 200).with_value_bytes(vb));
                    }
                }
            }
            Workload::SlowPm => {
                for mult in [4, 16] {
                    for scheme in SLOW_PM_SCHEMES {
                        let s = base(bench, scheme, 600);
                        out.push(s.with_system(s.system.with_pm_latency_mult(mult)));
                    }
                }
            }
            Workload::CrashMatrix => {
                for scheme in SWEEP_SCHEMES {
                    let s = base(bench, scheme, 200);
                    out.push(s.with_system(SystemConfig::small()).with_threads(2));
                }
            }
            Workload::SweepTable2 => {
                for scheme in SWEEP_SCHEMES {
                    out.push(base(bench, scheme, 200).with_threads(2));
                }
            }
        }
    }
    out.into_iter().map(|s| s.with_seed(seed)).collect()
}

/// Crash points per sweep cell.
fn points_per_cell(w: Workload, scale: Scale) -> usize {
    match (w, scale) {
        (_, Scale::Tiny) => 4,
        (Workload::SweepTable2, Scale::Full) => 32,
        _ => 128,
    }
}

/// The workload's cells. For sweep workloads this runs one planning pilot
/// per cell (`enumerate_crash_points`) and sets the snapshot cadence to an
/// eighth of the pilot's persistent writes.
pub fn plan(w: Workload, seed: u64, scale: Scale) -> Vec<Cell> {
    specs(w, seed, scale)
        .into_iter()
        .map(|spec| {
            if !w.is_sweep() {
                return Cell::Grid(spec);
            }
            let plan = enumerate_crash_points(&spec, points_per_cell(w, scale));
            Cell::Sweep {
                spec,
                points: plan.points,
                snap_every: (plan.prefix_writes / 8).max(1),
            }
        })
        .collect()
}
