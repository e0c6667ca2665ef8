//! Walked sweep forks equal legacy crash runs across the whole matrix.
//!
//! For every benchmark under the four persistent schemes, a sweep over a
//! lifecycle-guided plan — plus `0`, a duplicate and a point beyond the
//! last write — must give, at one to four sweep jobs, forks that are
//! [`results_identical`] to `run(spec.with_crash_after(n))`. One HM × ASAP
//! cell runs with tracing and telemetry on, since a crashed copy must
//! carry the trace, the lifecycle log and the time series too.
//!
//! The matrix runs untracked, as the repository benchmark does: tracked
//! TPCC sweeps fail under HWRedo and ASAP at some points, which is an open
//! item of its own.

use asap_core::scheme::SchemeKind;
use asap_sim::{TelemetrySettings, TraceSettings};
use asap_workloads::resultjson::results_identical;
use asap_workloads::{enumerate_crash_points, run, walk_sweep, BenchId, WorkloadSpec};

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::SwUndo,
    SchemeKind::HwUndo,
    SchemeKind::HwRedo,
    SchemeKind::Asap,
];

fn check_cell(spec: &WorkloadSpec) {
    let plan = enumerate_crash_points(spec, 6);
    let mut points = plan.points.clone();
    points.push(0);
    points.push(plan.points[plan.points.len() / 2]);
    points.push(plan.prefix_writes + 1);
    let legacy: Vec<_> = points
        .iter()
        .map(|&n| run(&spec.with_crash_after(n)))
        .collect();
    let label = format!("{}/{}", spec.bench, spec.scheme);
    for jobs in 1..=4 {
        let sw = walk_sweep(spec, &points, jobs);
        assert_eq!(sw.prefix_writes, plan.prefix_writes, "{label}");
        assert_eq!(sw.replayed_writes, 0, "{label}: a walk replays nothing");
        for ((f, l), n) in sw.forks.iter().zip(&legacy).zip(&points) {
            assert!(
                results_identical(f, l),
                "{label}: fork {n} at {jobs} jobs differs from the legacy crash run"
            );
        }
        let cps = &sw.baseline.crash_points;
        assert!(cps[..points.len() - 1].iter().all(|p| p.crashed), "{label}");
        assert!(!cps[points.len() - 1].crashed, "{label}: beyond the end");
    }
}

#[test]
fn walked_forks_match_legacy_runs_on_every_cell() {
    for bench in BenchId::all() {
        for scheme in SCHEMES {
            check_cell(
                &WorkloadSpec::small(bench, scheme)
                    .with_threads(2)
                    .with_ops(20),
            );
        }
    }
}

#[test]
fn walked_forks_carry_trace_and_telemetry() {
    let spec = WorkloadSpec::small(BenchId::Hm, SchemeKind::Asap)
        .with_threads(2)
        .with_ops(20)
        .with_trace(TraceSettings::enabled())
        .with_telemetry(TelemetrySettings::enabled().with_period(64));
    check_cell(&spec);
}
