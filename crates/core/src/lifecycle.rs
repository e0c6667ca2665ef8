//! Region-lifecycle audit log and always-on commit-order auditor.
//!
//! Every atomic region passes through the same lifecycle no matter which
//! scheme runs it: *begin* → *end* (execution leaves the region) →
//! *persist-ordered* (all of its persist operations are accepted by the
//! persistence domain) → *commit* (the region is durable and its log space
//! reclaimable) → *drain* (its last data write reaches the PM media).
//! Synchronous schemes collapse end/ordered/commit into one instant; ASAP
//! is the one scheme where they spread out in time, and the gap is exactly
//! the asynchrony the paper sells.
//!
//! [`RegionLog`] records those five timestamps plus the dependency edges
//! hardware observed between regions, and exports them as JSON, Graphviz
//! DOT, and a commit-order timeline. Recording is bounded (oldest regions
//! are evicted beyond a cap) and only active when telemetry is enabled.
//!
//! Independently of recording, a cheap **auditor** runs on every simulation:
//! it keeps the set of live (begun, not yet committed) regions and the
//! dependency edges among them, and asserts at each commit that every
//! dependency of the committing region has already committed — i.e. that
//! the observed commit order is a linear extension of the dependency DAG.
//! A violation here is precisely the recoverability bug class ASAP's
//! Dependence List exists to prevent, so it panics loudly instead of
//! accumulating a statistic.

use std::collections::{BTreeMap, VecDeque};

use asap_mem::Rid;
use asap_pmem::{AddrMap, AddrSet};
use asap_sim::Cycle;

/// Maximum regions (and committed-region timeline entries) retained by the
/// recorder before the oldest are evicted.
pub const DEFAULT_LIFECYCLE_CAP: usize = 1 << 16;

/// Lifecycle timestamps and dependencies of one region.
#[derive(Clone, Debug, Default)]
pub struct RegionRecord {
    /// Cycle `begin_region` ran.
    pub begin: u64,
    /// Cycle `end_region` returned (execution left the region).
    pub end: Option<u64>,
    /// Cycle the region became persist-ordered (all persists accepted).
    pub ordered: Option<u64>,
    /// Cycle the region committed (durable, log reclaimable).
    pub commit: Option<u64>,
    /// Cycle the region's last data write reached the PM media.
    pub drained: Option<u64>,
    /// Regions this region depends on (must commit first).
    pub deps: Vec<Rid>,
}

/// The per-machine lifecycle recorder plus the always-on commit auditor.
#[derive(Clone, Debug, Default)]
pub struct RegionLog {
    recording: bool,
    cap: usize,
    records: BTreeMap<Rid, RegionRecord>,
    /// Insertion order of `records`, for bounded eviction.
    order: VecDeque<Rid>,
    /// Commit-order timeline: `(rid, commit_cycle)` in commit order.
    commits: VecDeque<(Rid, u64)>,
    /// Regions evicted from the bounded recorder.
    dropped: u64,
    // ---- auditor state (always on, O(live regions)) ----
    /// Begun but not yet committed.
    live: AddrSet<Rid>,
    /// Dependencies recorded while both endpoints were live.
    audit_deps: AddrMap<Rid, Vec<Rid>>,
    /// Commits checked against the DAG so far.
    audited: u64,
}

impl RegionLog {
    /// A log with the auditor armed and recording off.
    pub fn new() -> Self {
        RegionLog {
            cap: DEFAULT_LIFECYCLE_CAP,
            ..RegionLog::default()
        }
    }

    /// Turns full lifecycle recording on or off. The auditor runs either
    /// way.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
        if self.cap == 0 {
            self.cap = DEFAULT_LIFECYCLE_CAP;
        }
    }

    /// Whether full lifecycle recording is active.
    #[inline]
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// A region began at `now`.
    pub fn begin(&mut self, rid: Rid, now: Cycle) {
        self.live.insert(rid);
        if !self.recording {
            return;
        }
        if self.records.len() >= self.cap {
            if let Some(old) = self.order.pop_front() {
                self.records.remove(&old);
                self.dropped += 1;
            }
        }
        self.records.insert(
            rid,
            RegionRecord {
                begin: now.0,
                ..RegionRecord::default()
            },
        );
        self.order.push_back(rid);
    }

    /// Execution left the region at `now`.
    pub fn end(&mut self, rid: Rid, now: Cycle) {
        if self.recording {
            if let Some(r) = self.records.get_mut(&rid) {
                r.end = Some(now.0);
            }
        }
    }

    /// The region became persist-ordered at `now`.
    pub fn ordered(&mut self, rid: Rid, now: Cycle) {
        if self.recording {
            if let Some(r) = self.records.get_mut(&rid) {
                r.ordered = Some(now.0);
            }
        }
    }

    /// The region committed at `now`. Runs the commit-order audit.
    ///
    /// # Panics
    ///
    /// Panics if any dependency recorded for `rid` has not itself
    /// committed — the observed commit order would not be a linear
    /// extension of the dependency DAG, which breaks recoverability.
    pub fn commit(&mut self, rid: Rid, now: Cycle) {
        if let Some(deps) = self.audit_deps.remove(&rid) {
            for dep in deps {
                assert!(
                    !self.live.contains(&dep),
                    "commit-order violation: region {rid} committed at cycle {} \
                     before its dependency {dep}",
                    now.0
                );
            }
        }
        self.live.remove(&rid);
        self.audited += 1;
        if self.recording {
            if let Some(r) = self.records.get_mut(&rid) {
                r.commit = Some(now.0);
            }
            if self.commits.len() >= self.cap {
                self.commits.pop_front();
            }
            self.commits.push_back((rid, now.0));
        }
    }

    /// One of the region's data writes reached the PM media at `now`.
    /// The last such write is the drain timestamp.
    pub fn pm_written(&mut self, rid: Rid, now: Cycle) {
        if self.recording {
            if let Some(r) = self.records.get_mut(&rid) {
                r.drained = Some(r.drained.unwrap_or(0).max(now.0));
            }
        }
    }

    /// Hardware observed that `to` depends on `from` (`from` must commit
    /// first). Ignored by the auditor unless `from` is still live — a
    /// dependency on an already-committed region is trivially satisfied.
    pub fn dep_edge(&mut self, from: Rid, to: Rid) {
        if self.live.contains(&from) {
            self.audit_deps.entry(to).or_default().push(from);
        }
        if self.recording {
            if let Some(r) = self.records.get_mut(&to) {
                if !r.deps.contains(&from) {
                    r.deps.push(from);
                }
            }
        }
    }

    /// A crash wiped the machine: in-flight regions will never commit, so
    /// the auditor forgets them. Recorded history is kept for post-mortems.
    pub fn note_crash(&mut self) {
        self.live.clear();
        self.audit_deps.clear();
    }

    /// Commits checked against the dependency DAG so far.
    pub fn audited_commits(&self) -> u64 {
        self.audited
    }

    /// Regions evicted from the bounded recorder.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of regions currently recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no regions have been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Recorded regions in `Rid` order.
    pub fn records(&self) -> impl Iterator<Item = (&Rid, &RegionRecord)> {
        self.records.iter()
    }

    /// The commit-order timeline as `(rid, commit_cycle)` pairs.
    pub fn commit_order(&self) -> impl Iterator<Item = &(Rid, u64)> {
        self.commits.iter()
    }

    /// Serializes the log as one JSON object (regions in `Rid` order, the
    /// commit timeline in commit order, plus audit/eviction counters).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"regions\":[");
        for (i, (rid, r)) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rid\":\"{rid}\",\"begin\":{},\"end\":{},\"ordered\":{},\
                 \"commit\":{},\"drained\":{},\"deps\":[",
                r.begin,
                opt(r.end),
                opt(r.ordered),
                opt(r.commit),
                opt(r.drained),
            ));
            for (j, d) in r.deps.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{d}\""));
            }
            out.push_str("]}");
        }
        out.push_str("],\"commits\":[");
        for (i, (rid, at)) in self.commits.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[\"{rid}\",{at}]"));
        }
        out.push_str(&format!(
            "],\"dropped\":{},\"audited\":{}}}",
            self.dropped, self.audited
        ));
        out
    }

    /// Exports the dependency DAG as Graphviz DOT. Nodes are regions
    /// labelled with their begin→commit window; edges point from a region
    /// to the region that had to commit before it.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph regions {\n  rankdir=LR;\n  node [shape=box];\n");
        for (rid, r) in &self.records {
            let commit = r
                .commit
                .map(|c| c.to_string())
                .unwrap_or_else(|| "?".into());
            out.push_str(&format!(
                "  \"{rid}\" [label=\"{rid}\\n{}..{commit}\"];\n",
                r.begin
            ));
        }
        for (rid, r) in &self.records {
            for d in &r.deps {
                out.push_str(&format!("  \"{rid}\" -> \"{d}\";\n"));
            }
        }
        out.push_str("}\n");
        out
    }

    /// The commit-order timeline as text: one `cycle rid` line per commit.
    pub fn timeline(&self) -> String {
        let mut out = String::new();
        for (rid, at) in &self.commits {
            out.push_str(&format!("{at:>12} {rid}\n"));
        }
        out
    }
}

/// Renders an optional cycle as JSON (`null` when absent).
fn opt(v: Option<u64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "null".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_sim::json;

    fn rid(t: u32, l: u64) -> Rid {
        Rid::new(t, l)
    }

    #[test]
    fn auditor_accepts_linear_extension() {
        let mut log = RegionLog::new();
        let (a, b, c) = (rid(0, 0), rid(0, 1), rid(1, 0));
        log.begin(a, Cycle(0));
        log.begin(b, Cycle(5));
        log.begin(c, Cycle(6));
        log.dep_edge(a, b); // b depends on a
        log.dep_edge(a, c); // c depends on a
        log.commit(a, Cycle(10));
        log.commit(c, Cycle(11));
        log.commit(b, Cycle(12));
        assert_eq!(log.audited_commits(), 3);
    }

    #[test]
    #[should_panic(expected = "commit-order violation")]
    fn auditor_rejects_dependency_inversion() {
        let mut log = RegionLog::new();
        let (a, b) = (rid(0, 0), rid(0, 1));
        log.begin(a, Cycle(0));
        log.begin(b, Cycle(1));
        log.dep_edge(a, b); // b depends on a …
        log.commit(b, Cycle(5)); // … but b commits first.
    }

    #[test]
    fn auditor_runs_even_when_not_recording() {
        let mut log = RegionLog::new();
        assert!(!log.recording());
        let a = rid(0, 0);
        log.begin(a, Cycle(0));
        log.commit(a, Cycle(3));
        assert_eq!(log.audited_commits(), 1);
        assert!(log.is_empty(), "no records kept while recording is off");
    }

    #[test]
    fn dep_on_committed_region_is_trivially_satisfied() {
        let mut log = RegionLog::new();
        let (a, b) = (rid(0, 0), rid(0, 1));
        log.begin(a, Cycle(0));
        log.commit(a, Cycle(2));
        log.begin(b, Cycle(3));
        log.dep_edge(a, b); // a already durable: no audit edge.
        log.commit(b, Cycle(4));
    }

    #[test]
    fn crash_clears_live_set() {
        let mut log = RegionLog::new();
        let (a, b) = (rid(0, 0), rid(0, 1));
        log.begin(a, Cycle(0));
        log.begin(b, Cycle(1));
        log.dep_edge(a, b);
        log.note_crash();
        // Post-crash, b's replayed successor may commit freely.
        log.begin(b, Cycle(10));
        log.commit(b, Cycle(11));
    }

    #[test]
    fn recording_captures_full_lifecycle() {
        let mut log = RegionLog::new();
        log.set_recording(true);
        let (a, b) = (rid(0, 0), rid(0, 1));
        log.begin(a, Cycle(0));
        log.end(a, Cycle(4));
        log.ordered(a, Cycle(6));
        log.begin(b, Cycle(5));
        log.dep_edge(a, b);
        log.commit(a, Cycle(8));
        log.pm_written(a, Cycle(9));
        log.pm_written(a, Cycle(12));
        let (_, r) = log.records().next().unwrap();
        assert_eq!(r.begin, 0);
        assert_eq!(r.end, Some(4));
        assert_eq!(r.ordered, Some(6));
        assert_eq!(r.commit, Some(8));
        assert_eq!(r.drained, Some(12));
        let rec_b = &log.records[&b];
        assert_eq!(rec_b.deps, vec![a]);
        assert_eq!(log.commit_order().count(), 1);
    }

    #[test]
    fn recorder_is_bounded() {
        let mut log = RegionLog::new();
        log.set_recording(true);
        log.cap = 4;
        for i in 0..10u64 {
            let r = rid(0, i);
            log.begin(r, Cycle(i));
            log.commit(r, Cycle(i + 1));
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.dropped(), 6);
        assert!(log.commit_order().count() <= 4);
    }

    #[test]
    fn exports_are_well_formed() {
        let mut log = RegionLog::new();
        log.set_recording(true);
        let (a, b) = (rid(0, 0), rid(1, 0));
        log.begin(a, Cycle(0));
        log.begin(b, Cycle(1));
        log.dep_edge(a, b);
        log.commit(a, Cycle(5));
        log.commit(b, Cycle(7));
        let v = json::parse(&log.to_json()).expect("lifecycle JSON parses");
        assert_eq!(
            v.get("regions").and_then(|r| r.as_array()).unwrap().len(),
            2
        );
        assert_eq!(v.get("audited").and_then(json::Value::as_f64), Some(2.0));
        let dot = log.to_dot();
        assert!(dot.starts_with("digraph regions {"));
        assert!(dot.contains("\"R1.0\" -> \"R0.0\";"));
        assert!(dot.trim_end().ends_with('}'));
        let tl = log.timeline();
        assert_eq!(tl.lines().count(), 2);
        assert!(tl.contains("R0.0"));
    }
}
