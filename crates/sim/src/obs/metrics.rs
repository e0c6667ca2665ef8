//! Process-global metrics registry: named counters and gauges.
//!
//! Handles are `&'static` and updates are single atomic operations, so a
//! metric can sit on host-side paths (cache probes, worker-pool cells)
//! without measurable cost. Handle *acquisition* takes a registry lock —
//! call sites that update in a loop should hoist the handle (or cache it
//! in a `OnceLock`) rather than re-resolving by name.
//!
//! Counters only go up; gauges hold the last value set (plus a
//! high-water-mark helper). Both observe the host; simulated quantities
//! belong in the per-run [`crate::stats::Stats`] registry, which stays
//! deterministic.
//!
//! [`snapshot_json`] renders everything as one JSON object that
//! [`crate::json::parse`] round-trips; the HTML run report renders it,
//! and tests assert it against the run cache's summary line.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge with a compare-and-max helper for high-water
/// marks.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, &'static Counter>,
    gauges: BTreeMap<String, &'static Gauge>,
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Registry::default()))
}

/// The counter named `name`, created on first use. The handle (and the
/// one `Box::leak` behind it) lives for the process — the metric
/// namespace is small and static by construction.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = registry().lock().unwrap();
    if let Some(c) = reg.counters.get(name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::default());
    reg.counters.insert(name.to_owned(), c);
    c
}

/// The gauge named `name`, created on first use.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut reg = registry().lock().unwrap();
    if let Some(g) = reg.gauges.get(name) {
        return g;
    }
    let g: &'static Gauge = Box::leak(Box::default());
    reg.gauges.insert(name.to_owned(), g);
    g
}

/// The value of counter `name`, or 0 when it has never been touched
/// (reading must not allocate registry slots as a side effect).
pub fn counter_value(name: &str) -> u64 {
    registry()
        .lock()
        .unwrap()
        .counters
        .get(name)
        .map_or(0, |c| c.get())
}

/// The value of gauge `name`, or 0 when it has never been set.
pub fn gauge_value(name: &str) -> u64 {
    registry()
        .lock()
        .unwrap()
        .gauges
        .get(name)
        .map_or(0, |g| g.get())
}

/// One JSON object with every registered metric:
/// `{"counters":{name:value,…},"gauges":{name:value,…}}`.
/// Keys are sorted (BTreeMap), so two snapshots of identical state are
/// byte-identical; the whole document parses with [`crate::json::parse`].
pub fn snapshot_json() -> String {
    let reg = registry().lock().unwrap();
    let mut out = String::from("{\"counters\":{");
    for (i, (name, c)) in reg.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", json::escape(name), c.get()));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, g)) in reg.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", json::escape(name), g.get()));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_and_update() {
        let c = counter("test.metrics.counter");
        c.inc();
        c.add(4);
        assert_eq!(counter_value("test.metrics.counter"), 5);
        // Same name resolves to the same handle.
        counter("test.metrics.counter").inc();
        assert_eq!(c.get(), 6);
        assert_eq!(counter_value("test.metrics.never_touched"), 0);

        let g = gauge("test.metrics.gauge");
        g.set(10);
        g.set_max(7); // lower: ignored
        assert_eq!(g.get(), 10);
        g.set_max(12);
        assert_eq!(gauge_value("test.metrics.gauge"), 12);
    }

    #[test]
    fn snapshot_parses_and_carries_values() {
        counter("test.metrics.snap").add(41);
        gauge("test.metrics.snap_gauge").set(9);
        let snap = json::parse(&snapshot_json()).expect("snapshot parses");
        assert_eq!(
            snap.get("counters")
                .and_then(|c| c.get("test.metrics.snap"))
                .and_then(json::Value::as_u64),
            Some(41)
        );
        assert_eq!(
            snap.get("gauges")
                .and_then(|g| g.get("test.metrics.snap_gauge"))
                .and_then(json::Value::as_u64),
            Some(9)
        );
    }
}
