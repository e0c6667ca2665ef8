//! Host-side observability bus: metrics, run events, stderr logging,
//! and host-phase profiling.
//!
//! Everything in this tree observes the *host* — wall clock, cache
//! traffic, worker pools — as opposed to the virtual-time tracing,
//! telemetry and lifecycle layers, which observe the *simulated*
//! machine. Four small pieces, all designed to stay off the simulated
//! hot path and to leave bench stdout byte-identical whether they are
//! enabled or not:
//!
//! - [`metrics`] — a process-global registry of named counters and
//!   gauges with cheap atomic updates and a JSON snapshot. The run
//!   cache, the figure worker pool, and the simulator's host-side data
//!   structures (page index, calendar wheel, store-forward slab) all
//!   publish here.
//! - [`events`] — an append-only NDJSON run-event stream
//!   (`ASAP_EVENTS=<path|stderr>`), schema `asap-events-v1`: one JSON
//!   object per line, every record parseable by [`crate::json::parse`].
//! - [`log`] — the [`note!`](crate::obs_note) / [`warn!`](crate::obs_warn)
//!   stderr helpers, which step around the `ASAP_PROGRESS` status line.
//! - [`phase`] — scoped host-phase timers (fingerprint / cache-probe /
//!   simulate / export) whose totals land in `BENCH_WALLCLOCK.json`
//!   records and the HTML run report.
//!
//! Determinism rules (held by `ci.sh` and the bench tests): stdout is
//! never touched; event records carry wall time (`t_us`) and an ordering
//! key (`seq`) plus host durations (`host_us`), and comparisons across
//! `ASAP_JOBS` settings strip exactly those keys and sort lines.

pub mod events;
pub mod log;
pub mod metrics;
pub mod phase;

// The stderr helpers, usable as `obs::note!(...)` / `obs::warn!(...)`.
pub use crate::{obs_note as note, obs_warn as warn};
