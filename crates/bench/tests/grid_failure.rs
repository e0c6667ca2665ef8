//! A cell that panics fails alone: the grid still runs and caches every
//! other cell, and only once it has drained does it panic, naming the
//! failed cell.
//!
//! Its own test binary, because it reads the process-global run-cache
//! counters and no other test may move them meanwhile.

use std::panic::{catch_unwind, AssertUnwindSafe};

use asap_bench::run_grid_with;
use asap_bench::runcache::{self, RunCacheConfig};
use asap_core::scheme::SchemeKind;
use asap_sim::SystemConfig;
use asap_workloads::{BenchId, WorkloadSpec};

#[test]
fn a_failed_cell_fails_alone_and_the_rest_are_cached() {
    let cell = |bench| WorkloadSpec::small(bench, SchemeKind::Asap).with_ops(10);
    // No memory channels: `Machine::new` panics "invalid system
    // configuration" for this cell only.
    let mut no_channels = SystemConfig::small();
    no_channels.mem.controllers = 0;
    let specs = [
        cell(BenchId::Q),
        cell(BenchId::Hm).with_system(no_channels),
        cell(BenchId::Bt),
    ];
    for jobs in [1, 4] {
        let dir =
            std::env::temp_dir().join(format!("asap-grid-failure-{}-{jobs}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RunCacheConfig::disk_only(&dir, 16);

        let panic = catch_unwind(AssertUnwindSafe(|| run_grid_with(&specs, jobs, &store)))
            .expect_err("a grid with a failed cell must panic");
        let msg = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(
            msg.contains("1 of 3 cells failed: #1 HM/asap"),
            "jobs {jobs}: {msg}"
        );

        // Both valid cells finished and reached the cache before the panic.
        let misses = runcache::counters().misses;
        let rerun = run_grid_with(&[specs[0], specs[2]], jobs, &store);
        assert_eq!(rerun.len(), 2);
        assert_eq!(
            runcache::counters().misses,
            misses,
            "jobs {jobs}: the valid cells must be served from the cache"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
