//! Host-side observability: metrics and stderr logging.
//!
//! Everything in this tree observes the *host* — cache traffic, worker
//! pools, host-side data structures — as opposed to the virtual-time
//! tracing, telemetry and lifecycle layers, which observe the *simulated*
//! machine. Two small pieces, both off the simulated hot path and both
//! leaving bench stdout byte-identical whether anything reads them or not:
//!
//! - [`metrics`] — a process-global registry of named counters and
//!   gauges with cheap atomic updates and a JSON snapshot. The run
//!   cache, the figure worker pool, the crash-sweep engine and the
//!   simulator's host-side data structures (page index, calendar wheel,
//!   store-forward slab) all publish here.
//! - [`log`] — the [`note!`](crate::obs_note) / [`warn!`](crate::obs_warn)
//!   stderr helpers, which step around the `ASAP_PROGRESS` status line.
//!
//! Host *time* is measured from outside, by the repository's benchmark
//! package under a fixed protocol; nothing here keeps wall clocks.

pub mod log;
pub mod metrics;

// The stderr helpers, usable as `obs::note!(...)` / `obs::warn!(...)`.
pub use crate::{obs_note as note, obs_warn as warn};
