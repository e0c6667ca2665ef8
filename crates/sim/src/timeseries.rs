//! Virtual-time telemetry sampler with decimating, bounded buffers.
//!
//! When telemetry is enabled ([`TelemetrySettings`], env knob
//! `ASAP_TELEMETRY`), the machine samples a set of registered gauges —
//! WPQ occupancy per channel, hardware log fill, uncommitted region
//! count, dependency-wait depth, dirty-line count, store-buffer depth —
//! every `period` *simulated* cycles into a [`TimeSeries`].
//!
//! Sampling is driven by virtual time only, so an enabled run is still
//! bit-deterministic and serial/parallel harness results stay identical.
//! Memory is bounded for any run length by *decimation*: when the buffer
//! reaches its capacity, every other sample is discarded and the sampling
//! period doubles. A run of any length therefore holds at most `cap`
//! points at a resolution matched to its duration, and the total number of
//! samples ever taken is `O(cap · log(run_cycles / period))`.

use crate::clock::Cycle;
use crate::json;

/// Default sampling period, in simulated cycles.
pub const DEFAULT_TELEMETRY_PERIOD: u64 = 1024;

/// Default point capacity of each series before decimation kicks in.
pub const DEFAULT_TELEMETRY_CAP: usize = 512;

/// Telemetry configuration carried by machine/workload configs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetrySettings {
    /// Whether the sampler records anything at all.
    pub enabled: bool,
    /// Initial sampling period in simulated cycles (doubles on decimation).
    pub period: u64,
    /// Maximum number of retained sample points.
    pub cap: usize,
}

impl TelemetrySettings {
    /// Telemetry off (the default).
    pub fn disabled() -> Self {
        TelemetrySettings {
            enabled: false,
            period: DEFAULT_TELEMETRY_PERIOD,
            cap: DEFAULT_TELEMETRY_CAP,
        }
    }

    /// Telemetry on with the default period and capacity.
    pub fn enabled() -> Self {
        TelemetrySettings {
            enabled: true,
            ..TelemetrySettings::disabled()
        }
    }

    /// Returns a copy with the given initial sampling period (min 1).
    pub fn with_period(mut self, period: u64) -> Self {
        self.period = period.max(1);
        self
    }

    /// Reads `ASAP_TELEMETRY` (any non-empty value other than `0` enables)
    /// at the default period [`DEFAULT_TELEMETRY_PERIOD`].
    pub fn from_env() -> Self {
        let enabled = std::env::var("ASAP_TELEMETRY")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        TelemetrySettings {
            enabled,
            ..TelemetrySettings::disabled()
        }
    }
}

impl Default for TelemetrySettings {
    fn default() -> Self {
        TelemetrySettings::disabled()
    }
}

/// A set of named gauge series sharing one timestamp column, stored in a
/// fixed-capacity decimating buffer.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    enabled: bool,
    cap: usize,
    period: u64,
    next_due: u64,
    decimations: u32,
    names: Vec<String>,
    times: Vec<u64>,
    values: Vec<Vec<u64>>,
}

impl TimeSeries {
    /// A sampler that records nothing ([`TimeSeries::due`] is always false).
    pub fn disabled() -> Self {
        TimeSeries::new(TelemetrySettings::disabled(), Vec::new())
    }

    /// Creates a sampler for the given gauge names. The first sample is due
    /// at cycle 0 so every enabled run records its initial state.
    pub fn new(settings: TelemetrySettings, names: Vec<String>) -> Self {
        let values = names.iter().map(|_| Vec::new()).collect();
        TimeSeries {
            enabled: settings.enabled,
            cap: settings.cap.max(8),
            period: settings.period.max(1),
            next_due: 0,
            decimations: 0,
            names,
            times: Vec::new(),
            values,
        }
    }

    /// Whether the sampler records at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// True when a sample should be taken at cycle `now`. One predictable
    /// branch when telemetry is disabled.
    #[inline]
    pub fn due(&self, now: Cycle) -> bool {
        self.enabled && now.0 >= self.next_due
    }

    /// Records one sample. `vals` must match the registered gauge names.
    /// The caller is expected to gate on [`TimeSeries::due`]; recording
    /// advances the next due time to the following period boundary.
    pub fn record(&mut self, now: Cycle, vals: &[u64]) {
        if !self.enabled {
            return;
        }
        assert_eq!(
            vals.len(),
            self.names.len(),
            "gauge arity mismatch in telemetry sample"
        );
        self.times.push(now.0);
        for (col, v) in self.values.iter_mut().zip(vals) {
            col.push(*v);
        }
        self.next_due = (now.0 / self.period + 1) * self.period;
        if self.times.len() >= self.cap {
            self.decimate();
        }
    }

    /// Drops every other sample and doubles the period: resolution halves,
    /// memory stays bounded for any run length.
    fn decimate(&mut self) {
        retain_even(&mut self.times);
        for col in &mut self.values {
            retain_even(col);
        }
        self.period *= 2;
        self.decimations += 1;
        if let Some(last) = self.times.last() {
            self.next_due = (last / self.period + 1) * self.period;
        }
    }

    /// Number of retained sample points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Current sampling period (initial period × 2^decimations).
    pub fn period(&self) -> u64 {
        self.period
    }

    /// How many times the buffer halved its resolution.
    pub fn decimations(&self) -> u32 {
        self.decimations
    }

    /// Registered gauge names, in recording order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The shared timestamp column (simulated cycles).
    pub fn times(&self) -> &[u64] {
        &self.times
    }

    /// The value column for the named gauge, if registered.
    pub fn series(&self, name: &str) -> Option<&[u64]> {
        let i = self.names.iter().position(|n| n == name)?;
        Some(&self.values[i])
    }

    /// Serializes the series as one JSON object:
    /// `{"period":…,"decimations":…,"t":[…],"series":{name:[…],…}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.times.len() * 8 * (1 + self.names.len()));
        out.push_str(&format!(
            "{{\"period\":{},\"decimations\":{},\"t\":",
            self.period, self.decimations
        ));
        push_u64_array(&mut out, &self.times);
        out.push_str(",\"series\":{");
        for (i, (name, col)) in self.names.iter().zip(&self.values).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&json::escape(name));
            out.push_str("\":");
            push_u64_array(&mut out, col);
        }
        out.push_str("}}");
        out
    }
}

/// Keeps elements at even indices (0, 2, 4, …).
fn retain_even(v: &mut Vec<u64>) {
    let mut i = 0;
    v.retain(|_| {
        let keep = i % 2 == 0;
        i += 1;
        keep
    });
}

fn push_u64_array(out: &mut String, vals: &[u64]) {
    out.push('[');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(cap: usize, period: u64) -> TimeSeries {
        let settings = TelemetrySettings {
            enabled: true,
            period,
            cap,
        };
        TimeSeries::new(settings, vec!["a".into(), "b".into()])
    }

    #[test]
    fn disabled_records_nothing_and_is_never_due() {
        let mut ts = TimeSeries::disabled();
        assert!(!ts.due(Cycle(0)));
        ts.record(Cycle(0), &[]);
        assert!(ts.is_empty());
    }

    #[test]
    fn due_follows_period_boundaries() {
        let mut ts = series(64, 100);
        assert!(ts.due(Cycle(0)));
        ts.record(Cycle(0), &[1, 2]);
        assert!(!ts.due(Cycle(99)));
        assert!(ts.due(Cycle(100)));
        ts.record(Cycle(137), &[3, 4]);
        // Next boundary after 137 is 200, not 237.
        assert!(!ts.due(Cycle(199)));
        assert!(ts.due(Cycle(200)));
        assert_eq!(ts.times(), &[0, 137]);
        assert_eq!(ts.series("a").unwrap(), &[1, 3]);
        assert_eq!(ts.series("b").unwrap(), &[2, 4]);
        assert!(ts.series("zzz").is_none());
    }

    #[test]
    fn decimation_halves_points_and_doubles_period() {
        let mut ts = series(8, 10);
        let mut t = 0;
        while ts.decimations() == 0 {
            if ts.due(Cycle(t)) {
                ts.record(Cycle(t), &[t, 2 * t]);
            }
            t += 10;
        }
        assert_eq!(ts.period(), 20);
        assert_eq!(ts.len(), 4);
        // Survivors are the even-indexed original samples.
        assert_eq!(ts.times(), &[0, 20, 40, 60]);
        assert_eq!(ts.series("a").unwrap(), &[0, 20, 40, 60]);
    }

    #[test]
    fn memory_stays_bounded_for_long_runs() {
        let mut ts = series(16, 1);
        let mut samples_taken = 0u64;
        for t in 0..100_000u64 {
            if ts.due(Cycle(t)) {
                ts.record(Cycle(t), &[t, t]);
                samples_taken += 1;
            }
        }
        assert!(ts.len() < 16, "buffer exceeded its cap: {}", ts.len());
        // Total work is O(cap · log(run/period)), not O(run).
        assert!(
            samples_taken < 16 * 20,
            "took {samples_taken} samples for a 100k-cycle run"
        );
        assert!(ts.period() > 1024);
    }

    #[test]
    fn json_round_trips_through_parser() {
        let mut ts = series(8, 10);
        ts.record(Cycle(0), &[1, 2]);
        ts.record(Cycle(10), &[3, 4]);
        let text = ts.to_json();
        let v = json::parse(&text).expect("telemetry JSON parses");
        assert_eq!(json::parse(&v.to_json()).unwrap(), v);
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get("period").unwrap().as_f64(), Some(10.0));
        let t = obj.get("t").unwrap().as_array().unwrap();
        assert_eq!(t.len(), 2);
    }
}
