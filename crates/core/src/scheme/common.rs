//! Machinery shared by the logging schemes: active-region log writers,
//! in-flight sealed-header tracking, per-thread and per-region
//! bookkeeping, and the event-wait loop.

use asap_mem::{OpId, PersistKind, Rid};
use asap_pmem::{AddrMap, LineAddr, MemoryImage, PmAddr};
use asap_sim::Cycle;

use crate::hw::Hw;
use crate::logbuf::{LogBuffer, LogFull, RecordHeader};

/// Blocks until `$cond` holds, advancing the memory system event by event
/// and feeding each event through `$self.handle_event`. Returns the updated
/// clock.
///
/// # Panics
///
/// Panics if the condition cannot become true because no memory events are
/// pending (a scheme bookkeeping bug).
macro_rules! wait_mem {
    ($self:ident, $hw:expr, $now:expr, $cond:expr) => {{
        let mut now: asap_sim::Cycle = $now;
        loop {
            while let Some(ev) = $hw.mem.pop_event() {
                $hw.observe_mem_event(&ev);
                $self.handle_event($hw, &ev);
            }
            if $cond {
                break;
            }
            match $hw.mem.next_event_time() {
                Some(t) => {
                    $hw.advance_mem(t);
                    now = now.max(t + $hw.hop() as u64);
                    // Drain loops can run for millions of cycles without
                    // returning to the machine's pump, so the telemetry
                    // sampler must also tick here.
                    if $hw.telemetry_due(now) {
                        let gauges = $crate::scheme::Scheme::gauges($self);
                        $hw.telemetry_record(now, gauges);
                    }
                }
                None => {
                    panic!("scheme deadlock: waiting on condition with no pending memory events")
                }
            }
        }
        now
    }};
}
pub(crate) use wait_mem;

/// Grows a scheme's thread-indexed state so that `thread` has an entry,
/// building each missing one with `make(t)`. Threads may start in any
/// order; an entry made ahead of its thread's start is fresh state, which
/// is what that start would have made.
pub fn start_thread<T>(threads: &mut Vec<T>, thread: usize, mut make: impl FnMut(usize) -> T) {
    while threads.len() <= thread {
        let t = threads.len();
        threads.push(make(t));
    }
}

/// Removes `id` from a set of pending persist ops kept as a plain vector
/// (nothing observes their order, only whether any remain).
pub fn remove_op(ops: &mut Vec<OpId>, id: OpId) {
    if let Some(i) = ops.iter().position(|&o| o == id) {
        ops.swap_remove(i);
    }
}

/// A region's written lines, each with a small value, kept as a vector
/// sorted by line address. Lookups are binary searches, iteration visits
/// lines in ascending order (the order a scheme's flushes and DPOs go out
/// in), and [`clear`](Self::clear) keeps the buffer, so each thread reuses
/// one set region after region.
#[derive(Clone, Debug)]
pub struct LineSet<V = ()> {
    entries: Vec<(LineAddr, V)>,
}

impl<V> Default for LineSet<V> {
    fn default() -> Self {
        LineSet {
            entries: Vec::new(),
        }
    }
}

impl<V> LineSet<V> {
    fn find(&self, line: LineAddr) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&line, |&(l, _)| l)
    }

    /// Whether `line` is in the set.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_ok()
    }

    /// The value of `line`, if it is in the set.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut V> {
        let i = self.find(line).ok()?;
        Some(&mut self.entries[i].1)
    }

    /// Sets `line`'s value, returning the old one if the line was
    /// already in the set.
    pub fn insert(&mut self, line: LineAddr, v: V) -> Option<V> {
        match self.find(line) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, v)),
            Err(i) => {
                self.entries.insert(i, (line, v));
                None
            }
        }
    }

    /// Removes `line`, returning its value if it was in the set.
    #[cfg(test)]
    pub fn remove(&mut self, line: LineAddr) -> Option<V> {
        let i = self.find(line).ok()?;
        Some(self.entries.remove(i).1)
    }

    /// Empties the set, keeping its buffer.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The lines and their values, in ascending line order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &V)> {
        self.entries.iter().map(|(l, v)| (*l, v))
    }

    /// The lines and their values, mutably, in ascending line order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (LineAddr, &mut V)> {
        self.entries.iter_mut().map(|(l, v)| (*l, v))
    }
}

/// The per-region log writer used by the hardware baselines: tracks the
/// current (partial) record and the region's log extent.
#[derive(Clone, Debug)]
pub struct ActiveLog {
    /// The region being logged.
    pub rid: Rid,
    /// Current record header address.
    pub header_addr: PmAddr,
    /// Current (partial) header contents.
    pub header: RecordHeader,
    /// Log tail counter after the region's last allocation (for freeing).
    pub log_end_tail: u64,
    /// Number of data entries logged so far.
    pub entries: u64,
}

impl ActiveLog {
    /// Starts a region's log: allocates its first record.
    ///
    /// # Errors
    ///
    /// Returns [`LogFull`] if the thread's log buffer is exhausted.
    pub fn start(log: &mut LogBuffer, rid: Rid) -> Result<Self, LogFull> {
        let header_addr = log.alloc_record()?;
        Ok(ActiveLog {
            rid,
            header_addr,
            header: RecordHeader::new(rid, None),
            log_end_tail: log.tail(),
            entries: 0,
        })
    }

    /// Allocates the next log entry for `data_line`.
    ///
    /// Returns the entry's address, plus — when the current record just
    /// filled — the sealed header `(addr, bytes)` that must be written
    /// through the WPQ while a fresh record takes its place.
    ///
    /// # Errors
    ///
    /// Returns [`LogFull`] if a new record is needed and the buffer is
    /// exhausted.
    #[allow(clippy::type_complexity)]
    pub fn add_entry(
        &mut self,
        log: &mut LogBuffer,
        data_line: LineAddr,
    ) -> Result<(PmAddr, Option<(PmAddr, [u8; 64])>), LogFull> {
        let i = self.header.push_entry(data_line);
        let entry_addr = RecordHeader::entry_addr(self.header_addr, i);
        self.entries += 1;
        let sealed = if self.header.is_full() {
            self.header.sealed = true;
            let bytes = self.header.encode();
            let old_addr = self.header_addr;
            let new_addr = log.alloc_record()?;
            self.header = RecordHeader::new(self.rid, Some(old_addr));
            self.header_addr = new_addr;
            self.log_end_tail = log.tail();
            Some((old_addr, bytes))
        } else {
            None
        };
        Ok((entry_addr, sealed))
    }

    /// Seals the final (possibly partial) record, marking it `committed`
    /// when requested (the redo commit marker). Returns `(addr, bytes)` to
    /// write through the WPQ.
    #[allow(dead_code)] // used by tests; kept for SW-style writers
    pub fn seal_final(&mut self, committed: bool) -> (PmAddr, [u8; 64]) {
        self.header.sealed = true;
        self.header.committed = committed;
        (self.header_addr, self.header.encode())
    }
}

/// Acceptance-aware log record state for the hardware schemes.
///
/// A record header's entry-address fields become durable knowledge only
/// when the corresponding LPO is *accepted* by the WPQ — the hardware
/// fills the LH-WPQ field at the memory controller, simultaneously with
/// acceptance. Tracking this per entry closes a crash window: a header
/// flushed at power failure must not reference a log entry whose value
/// never reached the persistence domain (recovery would restore garbage).
///
/// The tracker owns every live record header: the region's current
/// (partial) record and sealed records awaiting full acceptance. Once a
/// sealed record's entries are all accepted, [`accepted`](Self::accepted)
/// hands back the encoded header for submission through the WPQ.
#[derive(Clone, Debug, Default)]
pub struct LogAcceptTracker {
    records: AddrMap<PmAddr, TrackedRecord>,
    by_op: AddrMap<OpId, (PmAddr, usize, LineAddr)>,
}

/// One live record's header plus acceptance progress.
#[derive(Clone, Debug)]
struct TrackedRecord {
    header: RecordHeader,
    accepted: usize,
    /// Seal requested with this committed flag; the header is released
    /// for its WPQ write once all reserved entries are accepted.
    want_seal: Option<bool>,
}

impl LogAcceptTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a freshly allocated record at `addr` for `rid`, chained
    /// to `prev`.
    pub fn start_record(&mut self, rid: Rid, addr: PmAddr, prev: Option<PmAddr>) {
        let old = self.records.insert(
            addr,
            TrackedRecord {
                header: RecordHeader::new(rid, prev),
                accepted: 0,
                want_seal: None,
            },
        );
        debug_assert!(old.is_none(), "record address reused while live");
    }

    /// Reserves the next entry slot of the record at `addr`. Returns the
    /// entry index (the log line is `RecordHeader::entry_addr(addr, i)`).
    ///
    /// # Panics
    ///
    /// Panics if the record is unknown or full.
    pub fn reserve_slot(&mut self, addr: PmAddr) -> usize {
        let r = self.records.get_mut(&addr).expect("record started");
        r.header.reserve_entry()
    }

    /// Registers the in-flight LPO `op` that will publish entry `i` of
    /// the record at `addr` as holding `data_line`'s logged value.
    pub fn register(&mut self, op: OpId, addr: PmAddr, i: usize, data_line: LineAddr) {
        self.by_op.insert(op, (addr, i, data_line));
    }

    /// Marks `op` accepted, publishing its address field. When this
    /// completes a sealed record, returns `(header_addr, bytes)` ready to
    /// write through the WPQ.
    pub fn accepted(&mut self, op: OpId) -> Option<(PmAddr, [u8; 64])> {
        let (addr, i, data_line) = self.by_op.remove(&op)?;
        let r = self.records.get_mut(&addr)?;
        r.header.set_entry(i, data_line);
        r.accepted += 1;
        self.release_if_complete(addr)
    }

    /// Requests sealing of the record at `addr` (with the `committed`
    /// marker flag for redo). Returns the encoded header immediately if
    /// all its entries are already accepted; otherwise it is returned by
    /// the final [`accepted`](Self::accepted) call.
    pub fn request_seal(&mut self, addr: PmAddr, committed: bool) -> Option<(PmAddr, [u8; 64])> {
        let r = self.records.get_mut(&addr)?;
        r.want_seal = Some(committed);
        self.release_if_complete(addr)
    }

    fn release_if_complete(&mut self, addr: PmAddr) -> Option<(PmAddr, [u8; 64])> {
        let r = self.records.get(&addr)?;
        let committed = r.want_seal?;
        if r.accepted < r.header.count as usize {
            return None;
        }
        let mut r = self.records.remove(&addr).expect("present");
        r.header.sealed = true;
        r.header.committed = committed;
        Some((addr, r.header.encode()))
    }

    /// Crash: writes every live header (current acceptance view — fields
    /// of unaccepted LPOs stay invalid and recovery skips them).
    pub fn flush(&self, image: &mut MemoryImage) {
        for (addr, r) in &self.records {
            image.write(*addr, &r.header.encode());
        }
    }

    /// Drops all state belonging to `rid` (region committed).
    pub fn forget_region(&mut self, rid: Rid) {
        self.records.retain(|_, r| r.header.rid != rid);
        let records = &self.records;
        self.by_op
            .retain(|_, (addr, _, _)| records.contains_key(addr));
    }
}

/// Sealed record headers submitted to the WPQ but not yet accepted.
///
/// Hardware keeps a sealed header inside the persistence domain until the
/// WPQ takes it; if power fails in that window the header must still be
/// flushed, or the log chain through it would break. This tracker holds
/// those headers and writes the stragglers out at crash time.
#[derive(Clone, Debug, Default)]
pub struct InflightHeaders {
    pending: AddrMap<OpId, (PmAddr, [u8; 64])>,
}

impl InflightHeaders {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submits a sealed header through the WPQ and tracks it until
    /// acceptance.
    pub fn submit(
        &mut self,
        hw: &mut Hw,
        rid: Rid,
        addr: PmAddr,
        bytes: [u8; 64],
        now: Cycle,
    ) -> OpId {
        let id = hw.submit_value(
            PersistKind::LogHeader,
            addr.line(),
            bytes,
            Some(rid),
            None,
            now,
        );
        self.pending.insert(id, (addr, bytes));
        id
    }

    /// Marks a header as accepted (safe in the WPQ).
    pub fn accepted(&mut self, id: OpId) {
        self.pending.remove(&id);
    }

    /// Crash: writes every unaccepted sealed header directly to the image
    /// (they were still in the persistence domain).
    pub fn flush(&mut self, image: &mut MemoryImage) {
        for (_, (addr, bytes)) in self.pending.drain() {
            image.write(addr, &bytes);
        }
    }

    /// Number of headers in flight.
    #[allow(dead_code)] // exercised by tests; handy for diagnostics
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no headers are in flight.
    #[allow(dead_code)] // exercised by tests; handy for diagnostics
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logbuf::{MAX_ENTRIES, RECORD_LINES};

    #[test]
    fn active_log_allocates_entries_in_record() {
        let mut log = LogBuffer::new(PmAddr(0), 4 * RECORD_LINES * 64);
        let mut al = ActiveLog::start(&mut log, Rid::new(0, 1)).unwrap();
        let (e0, s0) = al.add_entry(&mut log, LineAddr(10)).unwrap();
        let (e1, s1) = al.add_entry(&mut log, LineAddr(11)).unwrap();
        assert_eq!(e0, PmAddr(64));
        assert_eq!(e1, PmAddr(128));
        assert!(s0.is_none() && s1.is_none());
        assert_eq!(al.entries, 2);
    }

    #[test]
    fn record_seals_at_seven_entries_and_chains() {
        let mut log = LogBuffer::new(PmAddr(0), 4 * RECORD_LINES * 64);
        let mut al = ActiveLog::start(&mut log, Rid::new(0, 1)).unwrap();
        let first_header = al.header_addr;
        let mut sealed = None;
        for i in 0..MAX_ENTRIES {
            let (_, s) = al.add_entry(&mut log, LineAddr(i as u64)).unwrap();
            if s.is_some() {
                sealed = s;
                assert_eq!(i, MAX_ENTRIES - 1, "seals exactly on the 7th entry");
            }
        }
        let (addr, bytes) = sealed.expect("record sealed");
        assert_eq!(addr, first_header);
        let h = RecordHeader::decode(&bytes).unwrap();
        assert!(h.sealed && !h.committed);
        assert_eq!(h.count as usize, MAX_ENTRIES);
        // The fresh record chains back to the sealed one.
        assert_eq!(al.header.prev, Some(first_header));
        assert_ne!(al.header_addr, first_header);
    }

    #[test]
    fn seal_final_marks_commit() {
        let mut log = LogBuffer::new(PmAddr(0), 4 * RECORD_LINES * 64);
        let mut al = ActiveLog::start(&mut log, Rid::new(0, 1)).unwrap();
        al.add_entry(&mut log, LineAddr(5)).unwrap();
        let (_, bytes) = al.seal_final(true);
        let h = RecordHeader::decode(&bytes).unwrap();
        assert!(h.sealed && h.committed);
        assert_eq!(h.count, 1);
    }

    #[test]
    fn log_full_surfaces() {
        let mut log = LogBuffer::new(PmAddr(0), RECORD_LINES * 64);
        let mut al = ActiveLog::start(&mut log, Rid::new(0, 1)).unwrap();
        for i in 0..MAX_ENTRIES - 1 {
            al.add_entry(&mut log, LineAddr(i as u64)).unwrap();
        }
        // The 7th entry seals and needs a new record: buffer is full.
        assert!(al.add_entry(&mut log, LineAddr(99)).is_err());
    }

    #[test]
    fn forget_region_drops_its_records_and_their_ops() {
        let mut t = LogAcceptTracker::new();
        let (r1, r2) = (Rid::new(0, 1), Rid::new(1, 1));
        for (rid, addr, op) in [(r1, PmAddr(0), OpId(1)), (r2, PmAddr(512), OpId(2))] {
            t.start_record(rid, addr, None);
            let i = t.reserve_slot(addr);
            t.register(op, addr, i, LineAddr(op.0));
        }
        t.forget_region(r1);
        assert_eq!(t.records.len(), 1);
        assert!(
            !t.by_op.contains_key(&OpId(1)),
            "a forgotten record's op goes"
        );
        assert_eq!(t.accepted(OpId(1)), None);
        // The other region's record still completes and releases.
        assert_eq!(t.request_seal(PmAddr(512), false), None);
        assert!(t.accepted(OpId(2)).is_some());
        assert!(t.records.is_empty() && t.by_op.is_empty());
    }

    /// `LineSet` against a `BTreeMap` oracle: every op answers the same,
    /// and after every op the set iterates the oracle's entries in the
    /// oracle's (ascending) order, through clears and reuse.
    mod line_set {
        use super::super::LineSet;
        use asap_pmem::LineAddr;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        #[derive(Clone, Debug)]
        enum Op {
            Insert(u64, u32),
            Contains(u64),
            GetMut(u64, u32),
            Remove(u64),
            /// Add 1 to every value through `iter_mut`.
            BumpAll,
            Clear,
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            // 24 lines, so ops hit present and absent lines alike.
            prop_oneof![
                6 => (0u64..24, any::<u32>()).prop_map(|(l, v)| Op::Insert(l, v)),
                2 => (0u64..24).prop_map(Op::Contains),
                2 => (0u64..24, any::<u32>()).prop_map(|(l, v)| Op::GetMut(l, v)),
                2 => (0u64..24).prop_map(Op::Remove),
                1 => Just(Op::BumpAll),
                1 => Just(Op::Clear),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

            #[test]
            fn line_set_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
                let mut set = LineSet::default();
                let mut oracle = BTreeMap::new();
                for op in &ops {
                    match *op {
                        Op::Insert(l, v) => {
                            prop_assert_eq!(set.insert(LineAddr(l), v), oracle.insert(LineAddr(l), v));
                        }
                        Op::Contains(l) => {
                            prop_assert_eq!(set.contains(LineAddr(l)), oracle.contains_key(&LineAddr(l)));
                        }
                        Op::GetMut(l, v) => {
                            let got = set.get_mut(LineAddr(l)).map(|x| std::mem::replace(x, v));
                            let want = oracle.get_mut(&LineAddr(l)).map(|x| std::mem::replace(x, v));
                            prop_assert_eq!(got, want);
                        }
                        Op::Remove(l) => {
                            prop_assert_eq!(set.remove(LineAddr(l)), oracle.remove(&LineAddr(l)));
                        }
                        Op::BumpAll => {
                            set.iter_mut().for_each(|(_, v)| *v = v.wrapping_add(1));
                            oracle.values_mut().for_each(|v| *v = v.wrapping_add(1));
                        }
                        Op::Clear => {
                            set.clear();
                            oracle.clear();
                        }
                    }
                    let got: Vec<(LineAddr, u32)> = set.iter().map(|(l, v)| (l, *v)).collect();
                    let want: Vec<(LineAddr, u32)> = oracle.iter().map(|(l, v)| (*l, *v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
    }

    #[test]
    fn inflight_headers_flush_on_crash() {
        use asap_sim::SystemConfig;
        let mut hw = Hw::new(SystemConfig::small(), 1, 1 << 20, 1 << 20);
        let mut infl = InflightHeaders::new();
        let addr = hw.layout.log_base(0);
        let rid = Rid::new(0, 1);
        let id = infl.submit(&mut hw, rid, addr, [0xabu8; 64], Cycle(0));
        assert_eq!(infl.len(), 1);
        // Crash before acceptance: flush writes it to the image.
        infl.flush(&mut hw.image);
        assert_eq!(hw.image.read_line(addr.line())[0], 0xab);
        assert!(infl.is_empty());
        // Acceptance path: a new header, accepted, needs no flush.
        let id2 = infl.submit(&mut hw, rid, addr.offset(512), [1u8; 64], Cycle(0));
        assert_ne!(id, id2);
        infl.accepted(id2);
        assert!(infl.is_empty());
    }
}
