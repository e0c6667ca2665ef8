//! Property-based equivalence for the parallel crash-sweep engine.
//!
//! Over arbitrary crash-point sets (duplicates, out-of-order, beyond-end
//! points included) and arbitrary snapshot layouts, two claims must hold
//! bit-for-bit:
//!
//! - a parallel sweep (`jobs` ∈ {2, 4}, the `ASAP_SWEEP_JOBS` axis) is
//!   identical to the serial sweep of the same configuration;
//! - walked forks (cache-less crash copies of the live machine, with a
//!   budgeted spine for parallel chunks) are identical to flat-cadence
//!   forks.
//!
//! "Identical" is [`results_identical`]: every scalar, float bit
//! patterns, the full stats registry, and all exported artifacts.

use asap_core::scheme::SchemeKind;
use asap_workloads::resultjson::results_identical;
use asap_workloads::{run_sweep_with, BenchId, SweepConfig, WorkloadSpec};
use proptest::prelude::*;

fn spec() -> WorkloadSpec {
    WorkloadSpec::small(BenchId::Hm, SchemeKind::Asap)
        .with_threads(2)
        .with_ops(12)
        .with_tracking()
}

fn assert_sweeps_identical(
    points: &[u64],
    a: &SweepConfig,
    b: &SweepConfig,
) -> Result<(), TestCaseError> {
    let x = run_sweep_with(&spec(), points, a);
    let y = run_sweep_with(&spec(), points, b);
    prop_assert_eq!(x.forks.len(), y.forks.len());
    for (i, (f, g)) in x.forks.iter().zip(&y.forks).enumerate() {
        prop_assert!(
            results_identical(f, g),
            "fork {} (point {}) diverged between {:?} and {:?}",
            i,
            points[i],
            a,
            b
        );
    }
    prop_assert!(
        results_identical(&x.baseline, &y.baseline),
        "baselines diverged between {:?} and {:?}",
        a,
        b
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
        jobs in prop_oneof![Just(2usize), Just(4usize)],
        snap_every in 1u64..24,
        walk in proptest::bool::weighted(0.5),
    ) {
        let mut serial = SweepConfig::flat(snap_every);
        serial.walk = walk;
        let parallel = serial.with_jobs(jobs);
        assert_sweeps_identical(&points, &serial, &parallel)?;
    }

    #[test]
    fn tree_restored_forks_match_flat_cadence(
        points in proptest::collection::vec(0u64..90, 1..8),
        snap_every in 1u64..24,
        budget in 0usize..5,
    ) {
        let flat = SweepConfig::flat(snap_every);
        let tree = SweepConfig::tree(snap_every).with_budget(budget);
        assert_sweeps_identical(&points, &flat, &tree)?;
    }
}
