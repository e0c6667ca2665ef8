//! Virtual-time event tracing: a bounded ring buffer of typed simulator
//! events, stamped with thread id and virtual cycle.
//!
//! Tracing is off by default and costs one branch per instrumentation site
//! (the [`Trace::emit`] early-return). When enabled, the newest
//! [`TraceSettings::cap`] records are kept and older ones are counted as
//! dropped — a run can never exhaust memory through tracing.
//!
//! Two exports exist: a deterministic line-per-event text dump (used by the
//! determinism tests) and the Chrome trace-event JSON format, which opens
//! directly in Perfetto (`ui.perfetto.dev`) with one simulated cycle shown
//! as one microsecond.

use std::collections::VecDeque;

use crate::clock::Cycle;
use crate::json;

/// Why a thread is stalled, at the granularity of the hardware resource it
/// is waiting on. Mirrors the `asap.stall.*` counter registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallReason {
    /// Log space exhausted; waiting for committed regions to free records.
    LogFull,
    /// The Log Header WPQ (persistence-domain log metadata) is full.
    LhWpq,
    /// No free CL List entries to track a written cache line.
    ClEntries,
    /// No free CL pointer slots in the region's CL List head.
    ClptrSlots,
    /// No free Dependence List slot for a new region.
    DepSlots,
    /// A region's dependence-vector entry set is full.
    DepEntries,
    /// Waiting for another region's LPO lock on the line.
    LpoLock,
    /// Synchronous commit: waiting at region end for persists to complete.
    CommitWait,
    /// Waiting at a fence for prior regions to become durable.
    FenceWait,
    /// End-of-run drain of outstanding persists.
    Drain,
}

/// Coarse stall classes used by the per-region cycle breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallClass {
    /// [`StallReason::LogFull`].
    LogFull,
    /// Persistence-path backpressure: [`StallReason::LhWpq`],
    /// [`StallReason::ClEntries`], [`StallReason::ClptrSlots`].
    WpqBackpressure,
    /// Inter-region dependence waits: [`StallReason::DepSlots`],
    /// [`StallReason::DepEntries`], [`StallReason::LpoLock`].
    DependencyWait,
    /// Synchronous durability waits: [`StallReason::CommitWait`],
    /// [`StallReason::FenceWait`], [`StallReason::Drain`].
    CommitWait,
}

impl StallReason {
    /// The dotted stat-name suffix for this reason (`asap.stall.<label>`).
    pub fn label(self) -> &'static str {
        match self {
            StallReason::LogFull => "log_full",
            StallReason::LhWpq => "lh_wpq",
            StallReason::ClEntries => "cl_entries",
            StallReason::ClptrSlots => "clptr_slots",
            StallReason::DepSlots => "dep_slots",
            StallReason::DepEntries => "dep_entries",
            StallReason::LpoLock => "lpo_lock",
            StallReason::CommitWait => "commit_wait",
            StallReason::FenceWait => "fence_wait",
            StallReason::Drain => "drain",
        }
    }

    /// The coarse class this reason folds into.
    pub fn class(self) -> StallClass {
        match self {
            StallReason::LogFull => StallClass::LogFull,
            StallReason::LhWpq | StallReason::ClEntries | StallReason::ClptrSlots => {
                StallClass::WpqBackpressure
            }
            StallReason::DepSlots | StallReason::DepEntries | StallReason::LpoLock => {
                StallClass::DependencyWait
            }
            StallReason::CommitWait | StallReason::FenceWait | StallReason::Drain => {
                StallClass::CommitWait
            }
        }
    }
}

impl StallClass {
    /// All classes, in reporting order.
    pub fn all() -> [StallClass; 4] {
        [
            StallClass::LogFull,
            StallClass::WpqBackpressure,
            StallClass::DependencyWait,
            StallClass::CommitWait,
        ]
    }

    /// Dense index of this class within [`StallClass::all`] (accumulator
    /// slot).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The dotted stat-name suffix for this class (`region.stall.<label>`).
    pub fn label(self) -> &'static str {
        match self {
            StallClass::LogFull => "log_full",
            StallClass::WpqBackpressure => "wpq_backpressure",
            StallClass::DependencyWait => "dependency_wait",
            StallClass::CommitWait => "commit_wait",
        }
    }
}

/// A region identity in trace events: `(thread, local index)`. Kept as a
/// plain tuple so `asap-sim` stays independent of the memory crate's `Rid`.
pub type TraceRid = (u32, u64);

/// A typed simulator event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A thread entered an atomic region.
    RegionBegin {
        /// The region.
        rid: TraceRid,
    },
    /// A thread left an atomic region (execution commit; durability may
    /// still be pending under asynchronous schemes).
    RegionCommit {
        /// The region.
        rid: TraceRid,
    },
    /// A region became durable (all its log/data persists accepted).
    RegionPersisted {
        /// The region.
        rid: TraceRid,
    },
    /// A log persist operation was issued for `line`.
    LpoIssued {
        /// The owning region.
        rid: TraceRid,
        /// The logged cache line.
        line: u64,
    },
    /// A data persist operation was issued for `line`.
    DpoIssued {
        /// The owning region (if known).
        rid: Option<TraceRid>,
        /// The persisted cache line.
        line: u64,
    },
    /// A memory channel accepted a persist into its WPQ.
    WpqAccept {
        /// Channel index.
        channel: u32,
        /// Persist kind label (`dpo`, `lpo`, ...).
        kind: &'static str,
    },
    /// A memory channel drained a persist from its WPQ to media.
    WpqDrain {
        /// Channel index.
        channel: u32,
        /// Persist kind label.
        kind: &'static str,
        /// Cycles the op sat in the WPQ before draining.
        residency: u64,
    },
    /// A thread began stalling.
    StallBegin {
        /// What the thread is waiting on.
        reason: StallReason,
    },
    /// A thread stopped stalling.
    StallEnd {
        /// What the thread was waiting on.
        reason: StallReason,
        /// How long the stall lasted.
        cycles: u64,
    },
    /// A persist-order dependence edge `from → to` was recorded.
    DepEdge {
        /// The region that must persist first.
        from: TraceRid,
        /// The dependent region.
        to: TraceRid,
    },
    /// A cache line was evicted from the hierarchy.
    CacheEvict {
        /// The evicted line.
        line: u64,
        /// Whether the line was dirty (forced a writeback).
        dirty: bool,
    },
    /// The harness injected a crash (power failure).
    CrashInjected,
}

/// One trace record: a typed event with its virtual timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotonic per-trace sequence number (total order within a trace).
    pub seq: u64,
    /// Virtual cycle at which the event occurred.
    pub at: Cycle,
    /// The thread (or channel owner) that produced the event.
    pub thread: u32,
    /// The event itself.
    pub ev: TraceEvent,
}

/// Trace configuration (off by default).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSettings {
    /// Master switch.
    pub enabled: bool,
    /// Ring-buffer capacity in records.
    pub cap: usize,
}

/// Default ring capacity (records) of [`TraceSettings::enabled`].
pub const DEFAULT_TRACE_CAP: usize = 1 << 20;

impl TraceSettings {
    /// Tracing off (the default; instrumentation costs one branch).
    pub fn disabled() -> Self {
        TraceSettings {
            enabled: false,
            cap: 0,
        }
    }

    /// Tracing on with the default capacity.
    pub fn enabled() -> Self {
        TraceSettings {
            enabled: true,
            cap: DEFAULT_TRACE_CAP,
        }
    }

    /// Tracing on keeping the newest `cap` records.
    pub fn with_cap(cap: usize) -> Self {
        TraceSettings { enabled: true, cap }
    }
}

impl Default for TraceSettings {
    fn default() -> Self {
        TraceSettings::disabled()
    }
}

/// A bounded ring buffer of [`TraceRecord`]s.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    settings: TraceSettings,
    seq: u64,
    dropped: u64,
    buf: VecDeque<TraceRecord>,
}

impl Trace {
    /// Creates a trace with the given settings.
    pub fn new(settings: TraceSettings) -> Self {
        Trace {
            settings,
            seq: 0,
            dropped: 0,
            buf: VecDeque::new(),
        }
    }

    /// A disabled trace (every `emit` is a single branch).
    pub fn disabled() -> Self {
        Trace::new(TraceSettings::disabled())
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.settings.enabled
    }

    /// Records `ev` at cycle `at` on `thread`. A no-op when disabled.
    #[inline]
    pub fn emit(&mut self, at: Cycle, thread: u32, ev: TraceEvent) {
        if !self.settings.enabled {
            return;
        }
        self.push(at, thread, ev);
    }

    #[inline(never)]
    fn push(&mut self, at: Cycle, thread: u32, ev: TraceEvent) {
        if self.settings.cap == 0 {
            self.dropped += 1;
            self.seq += 1;
            return;
        }
        if self.buf.len() == self.settings.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TraceRecord {
            seq: self.seq,
            at,
            thread,
            ev,
        });
        self.seq += 1;
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records evicted by the ring (or discarded with cap 0).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discards all retained records (counters keep running).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// A deterministic text dump, one record per line. Two identical runs
    /// produce byte-identical dumps; the determinism tests compare these.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for r in &self.buf {
            out.push_str(&format!(
                "{:>12} t{:<3} #{:<8} {:?}\n",
                r.at.0, r.thread, r.seq, r.ev
            ));
        }
        out
    }
}

/// One named process lane of a Chrome trace export.
#[derive(Clone, Copy)]
pub struct TracePart<'a> {
    /// Process name shown in the viewer (e.g. `cpu`, `pm`).
    pub name: &'a str,
    /// Chrome `pid` for this lane group.
    pub pid: u32,
    /// The trace providing the events.
    pub trace: &'a Trace,
}

/// Renders traces as Chrome trace-event JSON (the `traceEvents` array
/// format). Open the output in Perfetto: one simulated cycle is shown as
/// one microsecond. Regions and stalls become duration (`B`/`E`) events;
/// everything else becomes instant (`i`) events.
pub fn chrome_trace_json(parts: &[TracePart<'_>]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for part in parts {
        let meta = format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            part.pid,
            json::escape(part.name)
        );
        push_event(&mut out, &mut first, &meta);
        for r in part.trace.records() {
            emit_chrome(&mut out, &mut first, part.pid, r);
        }
    }
    out.push_str("\n]}\n");
    out
}

fn push_event(out: &mut String, first: &mut bool, ev: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(ev);
}

fn rid_args(rid: TraceRid) -> String {
    format!("{{\"rid\":\"{}:{}\"}}", rid.0, rid.1)
}

fn emit_chrome(out: &mut String, first: &mut bool, pid: u32, r: &TraceRecord) {
    let ts = r.at.0;
    let tid = r.thread;
    let common = format!("\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}");
    let ev = match &r.ev {
        TraceEvent::RegionBegin { rid } => {
            format!(
                "{{\"name\":\"region\",\"ph\":\"B\",{common},\"args\":{}}}",
                rid_args(*rid)
            )
        }
        TraceEvent::RegionCommit { rid } => {
            format!(
                "{{\"name\":\"region\",\"ph\":\"E\",{common},\"args\":{}}}",
                rid_args(*rid)
            )
        }
        TraceEvent::RegionPersisted { rid } => {
            format!(
                "{{\"name\":\"persisted\",\"ph\":\"i\",\"s\":\"t\",{common},\"args\":{}}}",
                rid_args(*rid)
            )
        }
        TraceEvent::LpoIssued { rid, line } => {
            format!(
                "{{\"name\":\"lpo\",\"ph\":\"i\",\"s\":\"t\",{common},\
                 \"args\":{{\"rid\":\"{}:{}\",\"line\":{line}}}}}",
                rid.0, rid.1
            )
        }
        TraceEvent::DpoIssued { rid, line } => {
            let rid = rid
                .map(|r| format!("\"{}:{}\"", r.0, r.1))
                .unwrap_or_else(|| "null".into());
            format!(
                "{{\"name\":\"dpo\",\"ph\":\"i\",\"s\":\"t\",{common},\
                 \"args\":{{\"rid\":{rid},\"line\":{line}}}}}"
            )
        }
        TraceEvent::WpqAccept { channel, kind } => {
            format!(
                "{{\"name\":\"wpq_accept\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                 \"pid\":{pid},\"tid\":{channel},\"args\":{{\"kind\":\"{}\"}}}}",
                json::escape(kind)
            )
        }
        TraceEvent::WpqDrain {
            channel,
            kind,
            residency,
        } => {
            format!(
                "{{\"name\":\"wpq_drain\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                 \"pid\":{pid},\"tid\":{channel},\
                 \"args\":{{\"kind\":\"{}\",\"residency\":{residency}}}}}",
                json::escape(kind)
            )
        }
        TraceEvent::StallBegin { reason } => {
            format!(
                "{{\"name\":\"stall:{}\",\"ph\":\"B\",{common}}}",
                reason.label()
            )
        }
        TraceEvent::StallEnd { reason, cycles } => {
            format!(
                "{{\"name\":\"stall:{}\",\"ph\":\"E\",{common},\
                 \"args\":{{\"cycles\":{cycles}}}}}",
                reason.label()
            )
        }
        TraceEvent::DepEdge { from, to } => {
            format!(
                "{{\"name\":\"dep_edge\",\"ph\":\"i\",\"s\":\"t\",{common},\
                 \"args\":{{\"from\":\"{}:{}\",\"to\":\"{}:{}\"}}}}",
                from.0, from.1, to.0, to.1
            )
        }
        TraceEvent::CacheEvict { line, dirty } => {
            format!(
                "{{\"name\":\"cache_evict\",\"ph\":\"i\",\"s\":\"t\",{common},\
                 \"args\":{{\"line\":{line},\"dirty\":{dirty}}}}}"
            )
        }
        TraceEvent::CrashInjected => {
            format!("{{\"name\":\"crash\",\"ph\":\"i\",\"s\":\"g\",{common}}}")
        }
    };
    push_event(out, first, &ev);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace: &mut Trace, at: u64, thread: u32, ev: TraceEvent) {
        trace.emit(Cycle(at), thread, ev);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        assert!(!t.enabled());
        rec(&mut t, 1, 0, TraceEvent::CrashInjected);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut t = Trace::new(TraceSettings::with_cap(2));
        for i in 0..5u64 {
            rec(
                &mut t,
                i,
                0,
                TraceEvent::CacheEvict {
                    line: i,
                    dirty: false,
                },
            );
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let kept: Vec<u64> = t.records().map(|r| r.at.0).collect();
        assert_eq!(kept, [3, 4]);
        assert_eq!(t.records().next().unwrap().seq, 3);
    }

    #[test]
    fn dump_is_deterministic() {
        let build = || {
            let mut t = Trace::new(TraceSettings::with_cap(16));
            rec(&mut t, 5, 1, TraceEvent::RegionBegin { rid: (1, 0) });
            rec(
                &mut t,
                9,
                1,
                TraceEvent::StallEnd {
                    reason: StallReason::LhWpq,
                    cycles: 4,
                },
            );
            t.dump()
        };
        assert_eq!(build(), build());
        assert!(build().contains("RegionBegin"));
    }

    #[test]
    fn chrome_json_shape() {
        let mut t = Trace::new(TraceSettings::with_cap(16));
        rec(&mut t, 10, 0, TraceEvent::RegionBegin { rid: (0, 7) });
        rec(&mut t, 30, 0, TraceEvent::RegionCommit { rid: (0, 7) });
        let mut pm = Trace::new(TraceSettings::with_cap(16));
        rec(
            &mut pm,
            20,
            0,
            TraceEvent::WpqAccept {
                channel: 3,
                kind: "dpo",
            },
        );
        let j = chrome_trace_json(&[
            TracePart {
                name: "cpu",
                pid: 0,
                trace: &t,
            },
            TracePart {
                name: "pm",
                pid: 1,
                trace: &pm,
            },
        ]);
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.trim_end().ends_with("]}"));
        assert!(j.contains("\"ph\":\"B\""));
        assert!(j.contains("\"ph\":\"E\""));
        assert!(j.contains("\"name\":\"wpq_accept\""));
        assert!(j.contains("\"tid\":3"));
        assert!(j.contains("process_name"));
        // Balanced braces/brackets — cheap structural validity check.
        let opens = j.matches('{').count();
        let closes = j.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn zero_cap_ring_drops_everything_but_counts() {
        let mut t = Trace::new(TraceSettings::with_cap(0));
        assert!(t.enabled());
        for i in 0..7u64 {
            rec(&mut t, i, 0, TraceEvent::CrashInjected);
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.dropped(), 7);
        assert!(t.records().next().is_none());
    }

    #[test]
    fn drop_counter_survives_interleaved_reads() {
        let mut t = Trace::new(TraceSettings::with_cap(1));
        rec(&mut t, 0, 0, TraceEvent::CrashInjected);
        assert_eq!((t.len(), t.dropped()), (1, 0));
        rec(&mut t, 1, 0, TraceEvent::CrashInjected);
        rec(&mut t, 2, 0, TraceEvent::CrashInjected);
        assert_eq!((t.len(), t.dropped()), (1, 2));
        // dropped + len always equals the number of emits.
        assert_eq!(t.dropped() + t.len() as u64, 3);
    }

    #[test]
    fn chrome_json_escapes_exotic_labels() {
        let exotic = "wpq \"kind\"\\with\nnewline\tand\u{1}ctl";
        let mut t = Trace::new(TraceSettings::with_cap(8));
        rec(
            &mut t,
            5,
            0,
            TraceEvent::WpqAccept {
                channel: 0,
                kind: exotic,
            },
        );
        let j = chrome_trace_json(&[TracePart {
            name: "pm \"quoted\"\n",
            pid: 1,
            trace: &t,
        }]);
        // The emitted document must parse, and the decoded strings must
        // round-trip the exotic originals exactly.
        let v = crate::json::parse(&j).expect("chrome trace JSON is well-formed");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let decoded: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("args"))
            .filter_map(|a| a.get("kind"))
            .filter_map(|k| k.as_str())
            .collect();
        assert_eq!(decoded, vec![exotic]);
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("args"))
            .filter_map(|a| a.get("name"))
            .filter_map(|n| n.as_str())
            .collect();
        assert!(names.contains(&"pm \"quoted\"\n"));
    }

    #[test]
    fn stall_reasons_classify() {
        assert_eq!(StallReason::LogFull.class(), StallClass::LogFull);
        assert_eq!(StallReason::LhWpq.class(), StallClass::WpqBackpressure);
        assert_eq!(StallReason::ClEntries.class(), StallClass::WpqBackpressure);
        assert_eq!(StallReason::DepSlots.class(), StallClass::DependencyWait);
        assert_eq!(StallReason::LpoLock.class(), StallClass::DependencyWait);
        assert_eq!(StallReason::CommitWait.class(), StallClass::CommitWait);
        assert_eq!(StallClass::all().len(), 4);
    }

    #[test]
    fn settings_env_parsing_defaults() {
        // No env manipulation here (tests run in parallel); just the
        // constructors.
        assert!(!TraceSettings::disabled().enabled);
        assert!(TraceSettings::enabled().enabled);
        assert_eq!(TraceSettings::enabled().cap, DEFAULT_TRACE_CAP);
        assert_eq!(TraceSettings::with_cap(9).cap, 9);
    }
}
