//! Property-based equivalence for the crash-sweep walk.
//!
//! Over arbitrary crash-point sets (duplicates, out-of-order, beyond-end
//! points included), two claims must hold bit-for-bit:
//!
//! - a walk split into chunks (`jobs` ∈ {2, 3, 4}, the `ASAP_SWEEP_JOBS`
//!   axis, so uneven chunks are covered) is identical to the one-job
//!   walk;
//! - walked forks (cache-less crash copies of the live machine) are
//!   identical to the flat reference's forks, restored from a snapshot
//!   every `snap_every` writes and replayed.
//!
//! "Identical" is [`results_identical`]: every scalar, float bit
//! patterns, the full stats registry, and all exported artifacts.

use asap_core::scheme::SchemeKind;
use asap_workloads::resultjson::results_identical;
use asap_workloads::{run_sweep, walk_sweep, BenchId, SweepResult, WorkloadSpec};
use proptest::prelude::*;

fn spec() -> WorkloadSpec {
    WorkloadSpec::small(BenchId::Hm, SchemeKind::Asap)
        .with_threads(2)
        .with_ops(12)
        .with_tracking()
}

fn assert_sweeps_identical(
    points: &[u64],
    x: &SweepResult,
    y: &SweepResult,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(x.forks.len(), y.forks.len());
    for (i, (f, g)) in x.forks.iter().zip(&y.forks).enumerate() {
        prop_assert!(
            results_identical(f, g),
            "fork {} (point {}) diverged: {}",
            i,
            points[i],
            what
        );
    }
    prop_assert!(
        results_identical(&x.baseline, &y.baseline),
        "baselines diverged: {}",
        what
    );
    prop_assert_eq!(&x.baseline.crash_points, &y.baseline.crash_points);
    prop_assert_eq!(x.prefix_writes, y.prefix_writes);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial(
        points in proptest::collection::vec(0u64..90, 1..8),
        jobs in prop_oneof![Just(2usize), Just(3usize), Just(4usize)],
    ) {
        let serial = walk_sweep(&spec(), &points, 1);
        let parallel = walk_sweep(&spec(), &points, jobs);
        prop_assert_eq!(parallel.replayed_writes, 0);
        assert_sweeps_identical(&points, &serial, &parallel, &format!("{jobs} jobs"))?;
    }

    #[test]
    fn walked_forks_match_flat_cadence(
        points in proptest::collection::vec(0u64..90, 1..8),
        snap_every in 1u64..24,
    ) {
        let flat = run_sweep(&spec(), &points, snap_every);
        let walked = walk_sweep(&spec(), &points, 1);
        prop_assert_eq!(walked.replayed_writes, 0);
        assert_sweeps_identical(
            &points,
            &flat,
            &walked,
            &format!("walk against flat every {snap_every} writes"),
        )?;
    }
}
