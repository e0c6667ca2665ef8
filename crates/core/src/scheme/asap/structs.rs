//! ASAP's hardware structures: CL List, Dependence List, LH-WPQ (§4.3).

use asap_mem::Rid;
use asap_pmem::{AddrMap, LineAddr, PmAddr};

use crate::logbuf::RecordHeader;

// ---------------------------------------------------------------------------
// Modified Cache Line List (❸, per core)
// ---------------------------------------------------------------------------

/// State of one CLPtr slot's DPO.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DpoState {
    /// Waiting for the coalescing distance or region end (and the LPO).
    Pending {
        /// Updates to *other* cache lines since this line's last write.
        other_writes: u32,
    },
    /// DPO submitted, waiting for WPQ acceptance.
    Initiated,
}

/// One CLPtr slot: a modified line whose DPO has not yet completed.
#[derive(Clone, Copy, Debug)]
pub struct ClSlot {
    /// The modified cache line.
    pub line: LineAddr,
    /// DPO progress.
    pub dpo: DpoState,
}

/// One CL List entry: an atomic region's modified-line tracking.
#[derive(Clone, Debug)]
pub struct ClEntry {
    /// The region.
    pub rid: Rid,
    /// `asap_end` was reached — no more writes will arrive (state Done,
    /// Fig. 4 ②).
    pub done: bool,
    /// Occupied CLPtr slots.
    pub slots: Vec<ClSlot>,
}

impl ClEntry {
    /// Index of the slot tracking `line`, if present.
    pub fn slot_of(&self, line: LineAddr) -> Option<usize> {
        self.slots.iter().position(|s| s.line == line)
    }
}

/// The per-core Modified Cache Line Lists.
///
/// Each core has `entry_cap` entries (paper: 4) of `slot_cap` CLPtr slots
/// (paper: 8). A region's entry lives from `asap_begin` until all its DPOs
/// complete after `asap_end` (Done@L1, Fig. 4 ③).
#[derive(Clone, Debug)]
pub struct ClLists {
    per_core: Vec<Vec<ClEntry>>,
    entry_cap: usize,
    slot_cap: usize,
}

impl ClLists {
    /// Creates lists for `cores` cores.
    pub fn new(cores: usize, entry_cap: usize, slot_cap: usize) -> Self {
        ClLists {
            per_core: vec![Vec::new(); cores],
            entry_cap,
            slot_cap,
        }
    }

    /// Whether core `c` has a free entry.
    pub fn has_free_entry(&self, c: usize) -> bool {
        self.per_core[c].len() < self.entry_cap
    }

    /// Creates an entry for `rid` on core `c`.
    ///
    /// # Panics
    ///
    /// Panics if the core's list is full — callers must stall first.
    pub fn insert(&mut self, c: usize, rid: Rid) {
        assert!(self.has_free_entry(c), "CL List full on core {c}");
        self.per_core[c].push(ClEntry {
            rid,
            done: false,
            slots: Vec::new(),
        });
    }

    /// The entry for `rid` on core `c`, if present.
    pub fn entry_mut(&mut self, c: usize, rid: Rid) -> Option<&mut ClEntry> {
        self.per_core[c].iter_mut().find(|e| e.rid == rid)
    }

    /// Immutable entry lookup.
    pub fn entry(&self, c: usize, rid: Rid) -> Option<&ClEntry> {
        self.per_core[c].iter().find(|e| e.rid == rid)
    }

    /// Removes `rid`'s entry from core `c` (Done@L1).
    pub fn remove(&mut self, c: usize, rid: Rid) {
        self.per_core[c].retain(|e| e.rid != rid);
    }

    /// Whether `rid`'s entry on core `c` can take one more CLPtr.
    pub fn has_free_slot(&self, c: usize, rid: Rid) -> bool {
        self.entry(c, rid)
            .is_some_and(|e| e.slots.len() < self.slot_cap)
    }

    /// CLPtr slot capacity per entry.
    pub fn slot_cap(&self) -> usize {
        self.slot_cap
    }

    /// All entries on core `c`.
    pub fn entries(&self, c: usize) -> &[ClEntry] {
        &self.per_core[c]
    }

    /// Clears core `c`'s list (context switch, §5.7 — after the persist
    /// operations for each slot have completed).
    pub fn clear_core(&mut self, c: usize) {
        self.per_core[c].clear();
    }
}

// ---------------------------------------------------------------------------
// Dependence List (❹, per memory channel; persistence domain)
// ---------------------------------------------------------------------------

/// One Dependence List entry: an uncommitted region and what it awaits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DepEntry {
    /// The region.
    pub rid: Rid,
    /// All the region's modified lines persisted (Done@MC, Fig. 4 ③).
    pub done: bool,
    /// Regions this one depends on (Dep slots; paper: 4).
    pub deps: Vec<Rid>,
}

impl DepEntry {
    /// Ready to commit: all lines persisted and all dependencies met.
    pub fn committable(&self) -> bool {
        self.done && self.deps.is_empty()
    }
}

/// Outcome of trying to record a dependence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AddDep {
    /// Recorded (or already present).
    Added,
    /// The dependence target already committed — nothing to record.
    TargetGone,
    /// All Dep slots occupied; the caller must stall (§4.6.3).
    SlotsFull,
}

/// The per-channel Dependence Lists.
#[derive(Clone, Debug)]
pub struct DepLists {
    per_channel: Vec<Vec<DepEntry>>,
    entry_cap: usize,
    slot_cap: usize,
}

impl DepLists {
    /// Creates lists for `channels` channels (paper: 128 entries × 4 Dep
    /// slots each).
    pub fn new(channels: usize, entry_cap: usize, slot_cap: usize) -> Self {
        DepLists {
            per_channel: vec![Vec::new(); channels],
            entry_cap,
            slot_cap,
        }
    }

    fn channel(&self, rid: Rid) -> usize {
        rid.channel(self.per_channel.len() as u32) as usize
    }

    /// Whether `rid`'s home channel has a free entry.
    pub fn has_free_entry(&self, rid: Rid) -> bool {
        self.per_channel[self.channel(rid)].len() < self.entry_cap
    }

    /// Inserts an InProgress entry for `rid`.
    ///
    /// # Panics
    ///
    /// Panics if the channel is full — callers must stall first.
    pub fn insert(&mut self, rid: Rid) {
        let ch = self.channel(rid);
        assert!(
            self.per_channel[ch].len() < self.entry_cap,
            "Dependence List full on channel {ch}"
        );
        self.per_channel[ch].push(DepEntry {
            rid,
            done: false,
            deps: Vec::new(),
        });
    }

    /// Looks up `rid`'s entry.
    pub fn get(&self, rid: Rid) -> Option<&DepEntry> {
        self.per_channel[self.channel(rid)]
            .iter()
            .find(|e| e.rid == rid)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, rid: Rid) -> Option<&mut DepEntry> {
        let ch = self.channel(rid);
        self.per_channel[ch].iter_mut().find(|e| e.rid == rid)
    }

    /// Whether `rid` is still uncommitted (present in any list).
    pub fn contains(&self, rid: Rid) -> bool {
        self.get(rid).is_some()
    }

    /// Records that `rid` depends on `dep`.
    pub fn add_dep(&mut self, rid: Rid, dep: Rid) -> AddDep {
        if !self.contains(dep) {
            return AddDep::TargetGone;
        }
        let slot_cap = self.slot_cap;
        let e = self
            .get_mut(rid)
            .expect("region must have a Dependence List entry");
        if e.deps.contains(&dep) {
            return AddDep::Added;
        }
        if e.deps.len() >= slot_cap {
            return AddDep::SlotsFull;
        }
        e.deps.push(dep);
        AddDep::Added
    }

    /// Removes `rid`'s entry (commit, Fig. 4 ④).
    pub fn remove(&mut self, rid: Rid) {
        let ch = self.channel(rid);
        self.per_channel[ch].retain(|e| e.rid != rid);
    }

    /// Broadcast: clears `dep` from every entry's Dep slots; returns the
    /// regions whose last dependence was just cleared (commit candidates).
    pub fn clear_dep_everywhere(&mut self, dep: Rid) -> Vec<Rid> {
        self.clear_dep_counting(dep).0
    }

    /// Like [`clear_dep_everywhere`](Self::clear_dep_everywhere) but also
    /// reports how many channels actually held `dep` in a Dep slot — the
    /// §7.3 NUMA extension uses this to send completion messages only to
    /// the (remote) Dependence Lists that need them.
    pub fn clear_dep_counting(&mut self, dep: Rid) -> (Vec<Rid>, u32) {
        let mut unblocked = Vec::new();
        let mut channels_holding = 0;
        for ch in &mut self.per_channel {
            let mut held = false;
            for e in ch.iter_mut() {
                if let Some(i) = e.deps.iter().position(|d| *d == dep) {
                    e.deps.remove(i);
                    held = true;
                    if e.committable() {
                        unblocked.push(e.rid);
                    }
                }
            }
            channels_holding += u32::from(held);
        }
        (unblocked, channels_holding)
    }

    /// Dep slots per entry.
    pub fn slot_cap(&self) -> usize {
        self.slot_cap
    }

    /// Whether every channel's list is empty (bloom filters may clear).
    pub fn all_empty(&self) -> bool {
        self.per_channel.iter().all(|c| c.is_empty())
    }

    /// Iterates over all entries across channels.
    pub fn iter(&self) -> impl Iterator<Item = &DepEntry> {
        self.per_channel.iter().flatten()
    }

    /// Total entries across channels.
    pub fn len(&self) -> usize {
        self.per_channel.iter().map(Vec::len).sum()
    }

    /// Whether there are no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes all entries (crash dump).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"DEPS");
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for e in self.iter() {
            out.extend_from_slice(&(e.rid.thread() as u16).to_le_bytes());
            out.extend_from_slice(&e.rid.local().to_le_bytes());
            out.push(u8::from(e.done));
            out.push(e.deps.len() as u8);
            for d in &e.deps {
                out.extend_from_slice(&(d.thread() as u16).to_le_bytes());
                out.extend_from_slice(&d.local().to_le_bytes());
            }
        }
        out
    }

    /// Parses a crash dump produced by [`encode`](Self::encode).
    pub fn decode(bytes: &[u8]) -> Option<Vec<DepEntry>> {
        let mut p = 0usize;
        if bytes.get(p..p + 4)? != b"DEPS" {
            return None;
        }
        p += 4;
        let n = u32::from_le_bytes(bytes.get(p..p + 4)?.try_into().ok()?) as usize;
        p += 4;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let thread = u16::from_le_bytes(bytes.get(p..p + 2)?.try_into().ok()?);
            p += 2;
            let local = u64::from_le_bytes(bytes.get(p..p + 8)?.try_into().ok()?);
            p += 8;
            let done = *bytes.get(p)? != 0;
            p += 1;
            let nd = *bytes.get(p)? as usize;
            p += 1;
            let mut deps = Vec::with_capacity(nd);
            for _ in 0..nd {
                let dt = u16::from_le_bytes(bytes.get(p..p + 2)?.try_into().ok()?);
                p += 2;
                let dl = u64::from_le_bytes(bytes.get(p..p + 8)?.try_into().ok()?);
                p += 8;
                deps.push(Rid::new(u32::from(dt), dl));
            }
            out.push(DepEntry {
                rid: Rid::new(u32::from(thread), local),
                done,
                deps,
            });
        }
        Some(out)
    }
}

// ---------------------------------------------------------------------------
// LH-WPQ (per channel; persistence domain)
// ---------------------------------------------------------------------------

/// One LH-WPQ entry: the latest (possibly partial) log record header of an
/// uncommitted region, with its destination address (Fig. 5b).
#[derive(Clone, Debug)]
pub struct LhEntry {
    /// The region owning this record.
    pub rid: Rid,
    /// Where the header will be written in PM (`LogHeaderAddr`).
    pub header_addr: PmAddr,
    /// The in-flight header contents.
    pub header: RecordHeader,
}

/// The per-channel Log Header WPQs.
///
/// Each uncommitted region that has logged at least one entry holds exactly
/// one slot: its latest record's header. When a record fills, the header
/// moves to the WPQ and the slot is reused for the region's next record;
/// the slot is released at commit (the partial header is never written).
/// A full LH-WPQ stalls new LPOs until some region commits (§7.4).
#[derive(Clone, Debug)]
pub struct LhWpq {
    per_channel: Vec<Vec<LhEntry>>,
    cap: usize,
}

impl LhWpq {
    /// Creates `channels` queues of `cap` entries each (paper: 128).
    pub fn new(channels: usize, cap: usize) -> Self {
        LhWpq {
            per_channel: vec![Vec::new(); channels],
            cap,
        }
    }

    fn channel(&self, rid: Rid) -> usize {
        rid.channel(self.per_channel.len() as u32) as usize
    }

    /// Whether `rid`'s home channel can take another entry.
    pub fn has_room(&self, rid: Rid) -> bool {
        self.per_channel[self.channel(rid)].len() < self.cap
    }

    /// Inserts a fresh header entry for `rid`.
    ///
    /// # Panics
    ///
    /// Panics if the channel is full — callers must stall first.
    pub fn insert(&mut self, rid: Rid, header_addr: PmAddr, header: RecordHeader) {
        let ch = self.channel(rid);
        assert!(
            self.per_channel[ch].len() < self.cap,
            "LH-WPQ full on channel {ch}"
        );
        self.per_channel[ch].push(LhEntry {
            rid,
            header_addr,
            header,
        });
    }

    /// The entry for `rid`, if it holds one.
    pub fn get(&self, rid: Rid) -> Option<&LhEntry> {
        self.per_channel[self.channel(rid)]
            .iter()
            .find(|e| e.rid == rid)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, rid: Rid) -> Option<&mut LhEntry> {
        let ch = self.channel(rid);
        self.per_channel[ch].iter_mut().find(|e| e.rid == rid)
    }

    /// Releases `rid`'s slot (commit), returning the entry if present.
    pub fn remove(&mut self, rid: Rid) -> Option<LhEntry> {
        let ch = self.channel(rid);
        let i = self.per_channel[ch].iter().position(|e| e.rid == rid)?;
        Some(self.per_channel[ch].remove(i))
    }

    /// Iterates over all held entries.
    pub fn iter(&self) -> impl Iterator<Item = &LhEntry> {
        self.per_channel.iter().flatten()
    }

    /// Total entries held.
    pub fn len(&self) -> usize {
        self.per_channel.iter().map(Vec::len).sum()
    }

    /// Whether no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the region → final-header-address table (crash dump).
    pub fn encode_table(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"LHWQ");
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for e in self.iter() {
            out.extend_from_slice(&(e.rid.thread() as u16).to_le_bytes());
            out.extend_from_slice(&e.rid.local().to_le_bytes());
            out.extend_from_slice(&e.header_addr.0.to_le_bytes());
        }
        out
    }

    /// Parses the table from a crash dump.
    pub fn decode_table(bytes: &[u8]) -> Option<AddrMap<Rid, PmAddr>> {
        let mut p = 0usize;
        if bytes.get(p..p + 4)? != b"LHWQ" {
            return None;
        }
        p += 4;
        let n = u32::from_le_bytes(bytes.get(p..p + 4)?.try_into().ok()?) as usize;
        p += 4;
        let mut out = AddrMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let t = u16::from_le_bytes(bytes.get(p..p + 2)?.try_into().ok()?);
            p += 2;
            let l = u64::from_le_bytes(bytes.get(p..p + 8)?.try_into().ok()?);
            p += 8;
            let a = u64::from_le_bytes(bytes.get(p..p + 8)?.try_into().ok()?);
            p += 8;
            out.insert(Rid::new(u32::from(t), l), PmAddr(a));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(t: u32, l: u64) -> Rid {
        Rid::new(t, l)
    }

    // -------------------- CL List --------------------

    #[test]
    fn cl_list_capacity_per_core() {
        let mut cl = ClLists::new(2, 4, 8);
        for i in 0..4 {
            assert!(cl.has_free_entry(0));
            cl.insert(0, rid(0, i));
        }
        assert!(!cl.has_free_entry(0));
        assert!(cl.has_free_entry(1), "other core unaffected");
        cl.remove(0, rid(0, 2));
        assert!(cl.has_free_entry(0));
    }

    #[test]
    #[should_panic(expected = "CL List full")]
    fn cl_list_overflow_panics() {
        let mut cl = ClLists::new(1, 1, 8);
        cl.insert(0, rid(0, 1));
        cl.insert(0, rid(0, 2));
    }

    #[test]
    fn cl_slots_track_lines() {
        let mut cl = ClLists::new(1, 4, 2);
        cl.insert(0, rid(0, 1));
        let e = cl.entry_mut(0, rid(0, 1)).unwrap();
        e.slots.push(ClSlot {
            line: LineAddr(5),
            dpo: DpoState::Pending { other_writes: 0 },
        });
        assert_eq!(e.slot_of(LineAddr(5)), Some(0));
        assert_eq!(e.slot_of(LineAddr(6)), None);
        assert!(cl.has_free_slot(0, rid(0, 1)));
        cl.entry_mut(0, rid(0, 1)).unwrap().slots.push(ClSlot {
            line: LineAddr(6),
            dpo: DpoState::Initiated,
        });
        assert!(!cl.has_free_slot(0, rid(0, 1)));
    }

    #[test]
    fn cl_clear_core_removes_everything() {
        let mut cl = ClLists::new(1, 4, 8);
        cl.insert(0, rid(0, 1));
        cl.insert(0, rid(0, 2));
        cl.clear_core(0);
        assert!(cl.entries(0).is_empty());
    }

    // -------------------- Dependence List --------------------

    #[test]
    fn dep_entries_live_on_rid_channel() {
        let mut d = DepLists::new(4, 128, 4);
        d.insert(rid(0, 1));
        d.insert(rid(0, 2));
        assert!(d.contains(rid(0, 1)));
        assert!(d.contains(rid(0, 2)));
        assert!(!d.contains(rid(0, 3)));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn add_dep_outcomes() {
        let mut d = DepLists::new(2, 8, 2);
        d.insert(rid(0, 1));
        d.insert(rid(0, 2));
        d.insert(rid(1, 1));
        d.insert(rid(1, 2));
        assert_eq!(d.add_dep(rid(0, 2), rid(0, 1)), AddDep::Added);
        assert_eq!(d.add_dep(rid(0, 2), rid(0, 1)), AddDep::Added, "idempotent");
        assert_eq!(d.get(rid(0, 2)).unwrap().deps.len(), 1);
        assert_eq!(d.add_dep(rid(0, 2), rid(9, 9)), AddDep::TargetGone);
        assert_eq!(d.add_dep(rid(0, 2), rid(1, 1)), AddDep::Added);
        assert_eq!(d.add_dep(rid(0, 2), rid(1, 2)), AddDep::SlotsFull);
    }

    #[test]
    fn broadcast_clears_and_reports_unblocked() {
        let mut d = DepLists::new(2, 8, 4);
        d.insert(rid(0, 1));
        d.insert(rid(0, 2));
        d.insert(rid(1, 5));
        d.add_dep(rid(0, 2), rid(0, 1));
        d.add_dep(rid(1, 5), rid(0, 1));
        d.get_mut(rid(0, 2)).unwrap().done = true;
        // r0.2 is done and its only dep is r0.1: broadcast unblocks it.
        let unblocked = d.clear_dep_everywhere(rid(0, 1));
        assert_eq!(unblocked, vec![rid(0, 2)]);
        assert!(d.get(rid(1, 5)).unwrap().deps.is_empty());
        assert!(!d.get(rid(1, 5)).unwrap().committable(), "not done yet");
    }

    #[test]
    fn counting_broadcast_reports_holding_channels() {
        let mut d = DepLists::new(4, 8, 4);
        // Dependents on channels 1 and 2 (locals 1, 2); target on ch 3.
        d.insert(rid(0, 3));
        d.insert(rid(0, 1));
        d.insert(rid(0, 2));
        d.add_dep(rid(0, 1), rid(0, 3));
        d.add_dep(rid(0, 2), rid(0, 3));
        let (unblocked, channels) = d.clear_dep_counting(rid(0, 3));
        assert_eq!(channels, 2, "only two channels held the dependence");
        assert!(unblocked.is_empty(), "entries not done yet");
        let (_, channels) = d.clear_dep_counting(rid(0, 3));
        assert_eq!(channels, 0, "already cleared");
    }

    #[test]
    fn committable_requires_done_and_no_deps() {
        let e = DepEntry {
            rid: rid(0, 1),
            done: false,
            deps: vec![],
        };
        assert!(!e.committable());
        let e = DepEntry {
            rid: rid(0, 1),
            done: true,
            deps: vec![rid(0, 0)],
        };
        assert!(!e.committable());
        let e = DepEntry {
            rid: rid(0, 1),
            done: true,
            deps: vec![],
        };
        assert!(e.committable());
    }

    #[test]
    fn dep_capacity_is_per_channel() {
        let mut d = DepLists::new(2, 1, 4);
        d.insert(rid(0, 2)); // channel 0
        assert!(!d.has_free_entry(rid(0, 4)), "channel 0 full");
        assert!(d.has_free_entry(rid(0, 3)), "channel 1 free");
    }

    #[test]
    fn dep_encode_decode_roundtrip() {
        let mut d = DepLists::new(4, 128, 4);
        d.insert(rid(0, 1));
        d.insert(rid(1, 7));
        d.add_dep(rid(1, 7), rid(0, 1));
        d.get_mut(rid(0, 1)).unwrap().done = true;
        let entries = DepLists::decode(&d.encode()).unwrap();
        assert_eq!(entries.len(), 2);
        let e17 = entries.iter().find(|e| e.rid == rid(1, 7)).unwrap();
        assert_eq!(e17.deps, vec![rid(0, 1)]);
        let e01 = entries.iter().find(|e| e.rid == rid(0, 1)).unwrap();
        assert!(e01.done);
    }

    #[test]
    fn dep_decode_rejects_garbage() {
        assert!(DepLists::decode(b"NOPE").is_none());
        assert!(DepLists::decode(&[]).is_none());
    }

    #[test]
    fn all_empty_after_removals() {
        let mut d = DepLists::new(2, 8, 4);
        assert!(d.all_empty());
        d.insert(rid(0, 1));
        assert!(!d.all_empty());
        d.remove(rid(0, 1));
        assert!(d.all_empty());
        assert!(d.is_empty());
    }

    // -------------------- LH-WPQ --------------------

    #[test]
    fn lh_wpq_one_slot_per_region() {
        let mut lh = LhWpq::new(2, 2);
        let h = RecordHeader::new(rid(0, 1), None);
        lh.insert(rid(0, 1), PmAddr(0x1000), h);
        assert!(lh.get(rid(0, 1)).is_some());
        assert_eq!(lh.len(), 1);
        let e = lh.remove(rid(0, 1)).unwrap();
        assert_eq!(e.header_addr, PmAddr(0x1000));
        assert!(lh.is_empty());
    }

    #[test]
    fn lh_wpq_capacity_per_channel() {
        let mut lh = LhWpq::new(2, 1);
        lh.insert(rid(0, 2), PmAddr(64), RecordHeader::new(rid(0, 2), None)); // ch 0
        assert!(!lh.has_room(rid(0, 4)), "channel 0 full");
        assert!(lh.has_room(rid(0, 3)), "channel 1 has room");
    }

    #[test]
    #[should_panic(expected = "LH-WPQ full")]
    fn lh_wpq_overflow_panics() {
        let mut lh = LhWpq::new(1, 1);
        lh.insert(rid(0, 1), PmAddr(0), RecordHeader::new(rid(0, 1), None));
        lh.insert(rid(0, 2), PmAddr(64), RecordHeader::new(rid(0, 2), None));
    }

    #[test]
    fn lh_table_roundtrip() {
        let mut lh = LhWpq::new(4, 128);
        lh.insert(rid(0, 1), PmAddr(0x100), RecordHeader::new(rid(0, 1), None));
        lh.insert(rid(2, 9), PmAddr(0x940), RecordHeader::new(rid(2, 9), None));
        let table = LhWpq::decode_table(&lh.encode_table()).unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table[&rid(0, 1)], PmAddr(0x100));
        assert_eq!(table[&rid(2, 9)], PmAddr(0x940));
        assert!(LhWpq::decode_table(b"XXXX").is_none());
    }

    #[test]
    fn header_mutation_through_get_mut() {
        let mut lh = LhWpq::new(1, 4);
        lh.insert(rid(0, 1), PmAddr(0), RecordHeader::new(rid(0, 1), None));
        lh.get_mut(rid(0, 1))
            .unwrap()
            .header
            .push_entry(LineAddr(42));
        assert_eq!(lh.get(rid(0, 1)).unwrap().header.count, 1);
    }
}
