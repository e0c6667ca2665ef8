//! ASAP: asynchronous-commit hardware undo logging (§4, §5).
//!
//! The scheme ties together the hardware structures of Fig. 3:
//!
//! - **Thread State Registers** (❶): per-thread log buffer registers and
//!   the current region id;
//! - **Cache line tag extensions** (❷): `PBit`, `LockBit`, `OwnerRID`
//!   (held in [`asap_mem::LineState`]);
//! - **Modified Cache Line List** (❸): per-core [`structs::ClLists`] —
//!   which lines still need DPOs before a region is Done@L1;
//! - **Dependence List** (❹): per-channel [`structs::DepLists`] — which
//!   regions are uncommitted and what they depend on (persistence domain);
//! - **LH-WPQ**: per-channel [`structs::LhWpq`] — the latest log record
//!   header of every uncommitted region (persistence domain).
//!
//! Regions move through the Fig. 4 state machine: `asap_begin` ①,
//! `asap_end` ② (execution proceeds immediately — *asynchronous commit*),
//! all CLPtr slots cleared ③ (Done@L1 → Done@MC), all Dep slots cleared ④
//! (log freed, entry cleared, completion broadcast).
//!
//! The §5.1 traffic optimizations (LPO dropping, DPO coalescing, DPO
//! dropping) are individually switchable via
//! [`AsapOpts`] — see the Fig. 9a ablation.
//!
//! [`AsapOpts`]: crate::scheme::AsapOpts

pub mod structs;

use asap_mem::{BloomFilter, Evicted, MemEvent, OpId, PersistKind, Rid};
use asap_pmem::{AddrMap, LineAddr};
use asap_sim::{Counter, Cycle, StallReason, SystemConfig, TraceEvent};

use crate::hw::Hw;
use crate::logbuf::{LogBuffer, RecordHeader};
use crate::recovery;
use crate::scheme::common::{start_thread, wait_mem, InflightHeaders, LogAcceptTracker};
use crate::scheme::{AsapOpts, RecoveryReport, Scheme, SchemeGauges, SchemeKind};

use structs::{AddDep, ClLists, ClSlot, DepLists, DpoState, LhWpq};

/// Hardware cost of the begin/end region instructions.
const MARKER_COST: u64 = 3;

/// A region id as carried by trace events.
fn trid(rid: Rid) -> (u32, u64) {
    (rid.thread(), rid.local())
}

/// Per-thread state (Thread State Registers + log buffer).
#[derive(Clone, Debug)]
struct AsapThread {
    log: LogBuffer,
    latest_rid: Option<Rid>,
}

/// Volatile per-region metadata (log extent) used when freeing the log.
#[derive(Clone, Copy, Debug, Default)]
struct RegionMeta {
    has_log: bool,
    log_end_tail: u64,
}

/// The ASAP persistence scheme.
#[derive(Clone)]
pub struct Asap {
    opts: AsapOpts,
    dpo_distance: u32,
    num_channels: u32,
    /// §7.3 NUMA extension: broadcast only to channels holding the dep.
    numa_broadcast_filter: bool,
    cl: ClLists,
    deps: DepLists,
    lh: LhWpq,
    blooms: Vec<BloomFilter>,
    /// The DRAM buffer of §5.3: owner RIDs of evicted uncommitted lines.
    evicted_owners: AddrMap<LineAddr, Rid>,
    /// Indexed by thread id.
    threads: Vec<AsapThread>,
    meta: AddrMap<Rid, RegionMeta>,
    /// LPO op → the data line whose old value it logs.
    lpo_of: AddrMap<OpId, LineAddr>,
    inflight_headers: InflightHeaders,
    /// Header fields publish at LPO acceptance (see `LogAcceptTracker`).
    log_tracker: LogAcceptTracker,
    /// Lines whose DPO to try next; empty between uses, kept for its
    /// capacity (see [`Asap::try_initiate_dpos`]).
    dpo_lines: Vec<LineAddr>,
}

impl Asap {
    /// Builds the scheme for the given configuration.
    pub fn new(opts: AsapOpts, cfg: &SystemConfig) -> Self {
        let channels = cfg.mem.num_channels() as usize;
        Asap {
            opts,
            dpo_distance: if opts.dpo_coalescing {
                cfg.asap.dpo_distance
            } else {
                0
            },
            num_channels: cfg.mem.num_channels(),
            numa_broadcast_filter: cfg.asap.numa_broadcast_filter,
            cl: ClLists::new(
                cfg.cores as usize,
                cfg.asap.cl_list_entries as usize,
                cfg.asap.clptr_slots as usize,
            ),
            deps: DepLists::new(
                channels,
                cfg.asap.dep_list_entries as usize,
                cfg.asap.dep_slots as usize,
            ),
            lh: LhWpq::new(channels, cfg.asap.lh_wpq_entries as usize),
            blooms: (0..channels)
                .map(|_| BloomFilter::new(cfg.asap.bloom_bits))
                .collect(),
            evicted_owners: AddrMap::default(),
            threads: Vec::new(),
            meta: AddrMap::default(),
            lpo_of: AddrMap::default(),
            inflight_headers: InflightHeaders::new(),
            log_tracker: LogAcceptTracker::new(),
            dpo_lines: Vec::new(),
        }
    }

    fn line_channel(&self, line: LineAddr) -> usize {
        (line.0 % u64::from(self.num_channels)) as usize
    }

    /// §5.3: on (re)access to an ownerless persistent line, consult the
    /// bloom filter and DRAM buffer and restore the saved OwnerRID if its
    /// region is still uncommitted. The DRAM lookup runs concurrently with
    /// the access, so it adds traffic but no latency.
    fn restore_owner(&mut self, hw: &mut Hw, line: LineAddr) {
        let Some(st) = hw.caches.line(line) else {
            return;
        };
        if st.owner.is_some() {
            return;
        }
        if !self.blooms[self.line_channel(line)].may_contain(line) {
            return;
        }
        hw.stats.bump(Counter::AsapOwnerBufferLookup);
        match self.evicted_owners.get(&line) {
            Some(&o) if self.deps.contains(o) => {
                hw.caches.line_mut(line).expect("present").owner = Some(o);
                hw.stats.bump(Counter::AsapOwnerRestored);
            }
            Some(_) => {
                self.evicted_owners.remove(&line);
            }
            None => {
                hw.stats.bump(Counter::AsapBloomFalsePositive);
            }
        }
    }

    /// Initiates the DPO for slot `i` of `rid`'s CL entry if it is pending
    /// and its line's LPO has completed (LockBit clear).
    fn try_initiate_dpo(&mut self, hw: &mut Hw, core: usize, rid: Rid, line: LineAddr, now: Cycle) {
        let Some(entry) = self.cl.entry_mut(core, rid) else {
            return;
        };
        let Some(i) = entry.slot_of(line) else { return };
        if entry.slots[i].dpo != DpoState::Initiated {
            match hw.caches.line(line) {
                Some(st) if st.lock_bit => {} // LPO outstanding: wait
                Some(_) => {
                    if hw
                        .persist_line(line, PersistKind::Dpo, Some(rid), now)
                        .is_some()
                    {
                        entry.slots[i].dpo = DpoState::Initiated;
                        hw.trace.emit(
                            now,
                            rid.thread(),
                            TraceEvent::DpoIssued {
                                rid: Some(trid(rid)),
                                line: line.0,
                            },
                        );
                    } else {
                        // Nothing dirty to persist (already written back).
                        entry.slots[i].dpo = DpoState::Initiated;
                    }
                }
                None => {
                    // Line left the hierarchy: its eviction writeback acts
                    // as the DPO (see on_evict).
                    entry.slots[i].dpo = DpoState::Initiated;
                }
            }
        }
    }

    /// Runs [`try_initiate_dpo`](Self::try_initiate_dpo) over the lines
    /// `collect` puts in the scheme's reused line buffer, which is taken
    /// for the walk and put back empty.
    fn try_initiate_dpos(
        &mut self,
        hw: &mut Hw,
        core: usize,
        rid: Rid,
        now: Cycle,
        collect: impl FnOnce(&mut Self, &mut Vec<LineAddr>),
    ) {
        let mut lines = std::mem::take(&mut self.dpo_lines);
        collect(self, &mut lines);
        for &line in &lines {
            self.try_initiate_dpo(hw, core, rid, line, now);
        }
        lines.clear();
        self.dpo_lines = lines;
    }

    /// Initiates every eligible pending DPO of `rid` (region end, stalls,
    /// context switches).
    fn kick_all_dpos(&mut self, hw: &mut Hw, core: usize, rid: Rid, now: Cycle) {
        self.try_initiate_dpos(hw, core, rid, now, |this, lines| {
            if let Some(e) = this.cl.entry(core, rid) {
                lines.extend(
                    e.slots
                        .iter()
                        .filter(|s| s.dpo != DpoState::Initiated)
                        .map(|s| s.line),
                );
            }
        });
    }

    /// A DPO (or eviction writeback standing in for one) for `line` of
    /// `rid` was accepted: clear the CLPtr slot, or re-arm it if the line
    /// was modified again after the snapshot (coalescing continues).
    fn dpo_accepted(&mut self, hw: &mut Hw, rid: Rid, line: LineAddr, at: Cycle) {
        let core = hw.thread_core[rid.thread() as usize];
        let Some(entry) = self.cl.entry_mut(core, rid) else {
            return;
        };
        let Some(i) = entry.slot_of(line) else { return };
        let redirty = hw
            .caches
            .line(line)
            .is_some_and(|st| st.dirty && st.owner == Some(rid));
        if redirty {
            entry.slots[i].dpo = DpoState::Pending { other_writes: 0 };
            if entry.done {
                self.try_initiate_dpo(hw, core, rid, line, at);
            }
            return;
        }
        entry.slots.remove(i);
        let finished = entry.done && entry.slots.is_empty();
        if finished {
            // Done@L1 (Fig. 4 ③): all the region's lines have persisted.
            self.cl.remove(core, rid);
            if let Some(d) = self.deps.get_mut(rid) {
                d.done = true;
            }
            hw.lifecycle.ordered(rid, at);
            self.try_commit(hw, rid, at);
        }
    }

    /// Fig. 4 ④: commit `rid` if it is Done@MC with no outstanding
    /// dependencies, cascading to regions its broadcast unblocks.
    fn try_commit(&mut self, hw: &mut Hw, rid: Rid, at: Cycle) {
        let mut stack = vec![rid];
        while let Some(r) = stack.pop() {
            if !self.deps.get(r).is_some_and(|e| e.committable()) {
                continue;
            }
            // Free the log.
            self.lh.remove(r);
            self.log_tracker.forget_region(r);
            if let Some(meta) = self.meta.remove(&r) {
                if meta.has_log {
                    self.threads[r.thread() as usize]
                        .log
                        .free_to(meta.log_end_tail);
                }
            }
            if self.opts.lpo_dropping {
                hw.mem.drop_log_writes_of(r);
            }
            // Clear the entry and broadcast completion. With the §7.3
            // NUMA filter, only channels actually holding the dependence
            // receive a message; otherwise every channel does.
            self.deps.remove(r);
            hw.stats.bump(Counter::RegionCommitted);
            hw.trace
                .emit(at, r.thread(), TraceEvent::RegionPersisted { rid: trid(r) });
            hw.lifecycle.commit(r, at);
            let (unblocked, channels_holding) = self.deps.clear_dep_counting(r);
            let messages = if self.numa_broadcast_filter {
                u64::from(channels_holding)
            } else {
                u64::from(self.num_channels)
            };
            hw.stats.add(Counter::AsapBroadcastMessages, messages);
            for u in unblocked {
                stack.push(u);
            }
            if self.deps.all_empty() {
                for b in &mut self.blooms {
                    b.clear();
                }
                self.evicted_owners.clear();
            }
        }
    }

    fn handle_event(&mut self, hw: &mut Hw, ev: &MemEvent) {
        let MemEvent::Accepted { id, op, at, .. } = ev else {
            return;
        };
        match op.kind {
            PersistKind::Lpo => {
                let Some(rid) = op.rid else { return };
                let Some(line) = self.lpo_of.remove(id) else {
                    return;
                };
                // The old value is in the persistence domain: publish its
                // header field; a completed sealed record's header heads
                // to the WPQ now.
                if let Some((addr, bytes)) = self.log_tracker.accepted(*id) {
                    self.inflight_headers.submit(hw, rid, addr, bytes, *at);
                }
                // Unlock the data line.
                if let Some(st) = hw.caches.line_mut(line) {
                    st.lock_bit = false;
                }
                // §5.1 DPO dropping: an earlier region's DPO for this line
                // still in the WPQ carries the same bytes as this LPO.
                if self.opts.dpo_dropping {
                    hw.mem.drop_pending_dpo(line, rid);
                }
                // The unlocked line's DPO may now be due.
                let core = hw.thread_core[rid.thread() as usize];
                let due = self.cl.entry(core, rid).is_some_and(|e| {
                    e.slot_of(line).is_some_and(|i| match e.slots[i].dpo {
                        DpoState::Pending { other_writes } => {
                            e.done || other_writes >= self.dpo_distance
                        }
                        DpoState::Initiated => false,
                    })
                });
                if due {
                    self.try_initiate_dpo(hw, core, rid, line, *at);
                }
            }
            PersistKind::LogHeader => {
                self.inflight_headers.accepted(*id);
            }
            PersistKind::Dpo | PersistKind::WriteBack => {
                if let Some(rid) = op.rid {
                    self.dpo_accepted(hw, rid, op.target, *at);
                }
            }
            _ => {}
        }
    }

    /// Allocates a log record, stalling while the circular buffer is full
    /// until older regions commit and free space (the paper handles
    /// overflow with an exception that allocates more space, §4.4; the
    /// model waits for reclamation instead).
    ///
    /// # Panics
    ///
    /// Panics if the log can never be freed (a single region larger than
    /// the whole buffer).
    fn alloc_record_blocking(
        &mut self,
        hw: &mut Hw,
        thread: usize,
        now: Cycle,
    ) -> (asap_pmem::PmAddr, Cycle) {
        let mut now = now;
        if !self.threads[thread].log.can_alloc() {
            hw.stats.bump(Counter::AsapStallLogFull);
            let t0 = now;
            now = wait_mem!(self, hw, now, self.threads[thread].log.can_alloc());
            hw.note_stall(thread, StallReason::LogFull, t0, now);
        }
        let th = &mut self.threads[thread];
        (th.log.alloc_record().expect("space just verified"), now)
    }

    /// Appends a log entry for the first write to `line` by `rid`,
    /// managing the region's LH-WPQ slot and record chain. Returns the
    /// possibly-updated clock (it may stall on a full LH-WPQ, §7.4).
    fn append_log_entry(
        &mut self,
        hw: &mut Hw,
        thread: usize,
        rid: Rid,
        line: LineAddr,
        now: Cycle,
    ) -> Cycle {
        let mut now = now;
        if self.lh.get(rid).is_none() {
            // The region's first LPO needs an LH-WPQ slot.
            if !self.lh.has_room(rid) {
                hw.stats.bump(Counter::AsapStallLhWpq);
                let t0 = now;
                now = wait_mem!(self, hw, now, self.lh.has_room(rid));
                hw.note_stall(thread, StallReason::LhWpq, t0, now);
            }
            let (header_addr, t2) = self.alloc_record_blocking(hw, thread, now);
            now = t2;
            let tail = self.threads[thread].log.tail();
            self.lh
                .insert(rid, header_addr, RecordHeader::new(rid, None));
            self.log_tracker.start_record(rid, header_addr, None);
            let meta = self.meta.entry(rid).or_default();
            meta.has_log = true;
            meta.log_end_tail = tail;
        }
        let old = hw.line_value(line);
        let cur_addr = self.lh.get(rid).expect("slot just ensured").header_addr;
        let i = self.log_tracker.reserve_slot(cur_addr);
        let entry_addr = RecordHeader::entry_addr(cur_addr, i);
        let lpo = hw.submit_value(PersistKind::Lpo, entry_addr.line(), old, Some(rid), now);
        self.log_tracker.register(lpo, cur_addr, i, line);
        self.lpo_of.insert(lpo, line);
        hw.stats.bump(Counter::AsapLpo);
        hw.trace.emit(
            now,
            thread as u32,
            TraceEvent::LpoIssued {
                rid: trid(rid),
                line: line.0,
            },
        );
        if i + 1 == crate::logbuf::MAX_ENTRIES {
            // Record full: it seals and moves to the WPQ once all its
            // LPOs are accepted; the LH-WPQ slot is reused for the
            // region's next record (Fig. 5b).
            if let Some((addr, bytes)) = self.log_tracker.request_seal(cur_addr, false) {
                self.inflight_headers.submit(hw, rid, addr, bytes, now);
            }
            let (new_addr, t2) = self.alloc_record_blocking(hw, thread, now);
            now = t2;
            self.meta.get_mut(&rid).expect("meta exists").log_end_tail =
                self.threads[thread].log.tail();
            self.log_tracker.start_record(rid, new_addr, Some(cur_addr));
            self.lh.get_mut(rid).expect("present").header_addr = new_addr;
        }
        now
    }

    /// Records `rid depends on owner`, stalling while Dep slots are full.
    fn track_dependence(&mut self, hw: &mut Hw, rid: Rid, owner: Rid, now: Cycle) -> Cycle {
        let mut now = now;
        let thread = rid.thread() as usize;
        loop {
            match self.deps.add_dep(rid, owner) {
                AddDep::Added => {
                    hw.trace.emit(
                        now,
                        rid.thread(),
                        TraceEvent::DepEdge {
                            from: trid(owner),
                            to: trid(rid),
                        },
                    );
                    hw.lifecycle.dep_edge(owner, rid);
                    return now;
                }
                AddDep::TargetGone => return now,
                AddDep::SlotsFull => {
                    hw.stats.bump(Counter::AsapStallDepSlots);
                    let cap = self.deps.slot_cap();
                    let t0 = now;
                    now = wait_mem!(self, hw, now, {
                        self.deps.get(rid).is_some_and(|e| e.deps.len() < cap)
                            || !self.deps.contains(owner)
                    });
                    hw.note_stall(thread, StallReason::DepSlots, t0, now);
                }
            }
        }
    }
}

impl std::fmt::Debug for Asap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Asap")
            .field("opts", &self.opts)
            .field("uncommitted", &self.deps.len())
            .field("lh_entries", &self.lh.len())
            .finish()
    }
}

impl Scheme for Asap {
    fn clone_box(&self) -> Box<dyn Scheme> {
        Box::new(self.clone())
    }

    fn kind(&self) -> SchemeKind {
        if self.opts == AsapOpts::all() {
            SchemeKind::Asap
        } else {
            SchemeKind::AsapWith(self.opts)
        }
    }

    fn gauges(&self) -> SchemeGauges {
        SchemeGauges {
            log_fill_lines: self.threads.iter().map(|t| t.log.live_lines()).sum(),
            uncommitted_regions: self.deps.len() as u64,
            dep_queue_depth: self.deps.iter().map(|e| e.deps.len() as u64).sum(),
        }
    }

    fn on_thread_start(&mut self, hw: &mut Hw, thread: usize, now: Cycle) -> Cycle {
        start_thread(&mut self.threads, thread, |t| AsapThread {
            log: LogBuffer::new(hw.layout.log_base(t), hw.layout.log_bytes),
            latest_rid: None,
        });
        now
    }

    fn on_begin(&mut self, hw: &mut Hw, thread: usize, rid: Rid, now: Cycle) -> Cycle {
        let core = hw.thread_core[thread];
        let mut now = now + MARKER_COST;
        // Stall while hardware structures are full (earlier regions must
        // drain; their persist completions arrive as memory events).
        if !self.cl.has_free_entry(core) {
            hw.stats.bump(Counter::AsapStallClEntries);
            let t0 = now;
            now = wait_mem!(self, hw, now, self.cl.has_free_entry(core));
            hw.note_stall(thread, StallReason::ClEntries, t0, now);
        }
        if !self.deps.has_free_entry(rid) {
            hw.stats.bump(Counter::AsapStallDepEntries);
            let t0 = now;
            now = wait_mem!(self, hw, now, self.deps.has_free_entry(rid));
            hw.note_stall(thread, StallReason::DepEntries, t0, now);
        }
        self.cl.insert(core, rid);
        self.deps.insert(rid);
        self.meta.insert(rid, RegionMeta::default());
        self.threads[thread].latest_rid = Some(rid);
        // Control dependence on the thread's previous region (§4.5).
        if let Some(prev) = rid.prev() {
            if self.deps.contains(prev) {
                now = self.track_dependence(hw, rid, prev, now);
            }
        }
        now
    }

    fn pre_write(
        &mut self,
        hw: &mut Hw,
        thread: usize,
        rid: Rid,
        line: LineAddr,
        now: Cycle,
    ) -> Cycle {
        let mut now = now;
        self.restore_owner(hw, line);
        let owner = hw.caches.line(line).expect("line filled").owner;
        if owner == Some(rid) {
            return now; // not a first write; counters handled post-write
        }
        // A pending LPO by the previous owner: its old value must reach
        // the persistence domain before this region's LPO may be
        // initiated, so log durability follows dependence order
        // (otherwise recovery could restore the previous owner's
        // uncommitted value with no way to roll it back — Fig. 2a).
        let locked_by_other = hw
            .caches
            .line(line)
            .is_some_and(|st| st.lock_bit && st.owner != Some(rid));
        if locked_by_other {
            hw.stats.bump(Counter::AsapStallLpoLock);
            let t0 = now;
            now = wait_mem!(self, hw, now, {
                hw.caches.line(line).is_none_or(|st| !st.lock_bit)
            });
            hw.note_stall(thread, StallReason::LpoLock, t0, now);
        }
        // §4.6.3: accessing another region's line is a data dependence.
        if let Some(o) = owner {
            if self.deps.contains(o) {
                now = self.track_dependence(hw, rid, o, now);
            }
        }
        // §4.6.1 first write: lock, take ownership, log the old value.
        {
            let st = hw.caches.line_mut(line).expect("line filled");
            st.lock_bit = true;
            st.owner = Some(rid);
        }
        now = self.append_log_entry(hw, thread, rid, line, now);
        now
    }

    fn post_write(
        &mut self,
        hw: &mut Hw,
        thread: usize,
        rid: Rid,
        line: LineAddr,
        now: Cycle,
    ) -> Cycle {
        let core = hw.thread_core[thread];
        let mut now = now;
        // §5.7: after a context switch the in-progress region's CL entry
        // was cleared on the old core; recreate it here on the new one.
        if self.cl.entry(core, rid).is_none() {
            if !self.cl.has_free_entry(core) {
                hw.stats.bump(Counter::AsapStallClEntries);
                let t0 = now;
                now = wait_mem!(self, hw, now, self.cl.has_free_entry(core));
                hw.note_stall(thread, StallReason::ClEntries, t0, now);
            }
            self.cl.insert(core, rid);
        }
        // §4.6.2: on *every* write, a CLPtr slot is added if one does not
        // already exist (a line may be re-dirtied after its DPO completed
        // and its slot cleared). Stall if all slots are occupied.
        let has_slot = self
            .cl
            .entry(core, rid)
            .is_some_and(|e| e.slot_of(line).is_some());
        if !has_slot {
            if !self.cl.has_free_slot(core, rid) {
                hw.stats.bump(Counter::AsapStallClptrSlots);
                let t0 = now;
                // Re-kick on every event: a slot whose LPO ack arrives
                // mid-stall must fire its DPO even if it never reached
                // the coalescing distance.
                now = wait_mem!(self, hw, now, {
                    self.kick_all_dpos(hw, core, rid, now);
                    self.cl.has_free_slot(core, rid)
                });
                hw.note_stall(thread, StallReason::ClptrSlots, t0, now);
            }
            let entry = self.cl.entry_mut(core, rid).expect("entry exists");
            entry.slots.push(ClSlot {
                line,
                dpo: DpoState::Pending { other_writes: 0 },
            });
        }
        let distance = self.dpo_distance;
        // Bump the other slots' distance counters; collect those now due.
        self.try_initiate_dpos(hw, core, rid, now, |this, due| {
            if let Some(entry) = this.cl.entry_mut(core, rid) {
                for s in &mut entry.slots {
                    if let DpoState::Pending { other_writes } = &mut s.dpo {
                        if s.line == line {
                            *other_writes = 0;
                        } else {
                            *other_writes += 1;
                            if *other_writes >= distance {
                                due.push(s.line);
                            }
                        }
                    }
                }
                // Without coalescing, the written line's DPO fires right
                // away.
                if distance == 0 {
                    due.push(line);
                }
            }
        });
        now
    }

    fn post_read(
        &mut self,
        hw: &mut Hw,
        _thread: usize,
        rid: Rid,
        line: LineAddr,
        now: Cycle,
    ) -> Cycle {
        let mut now = now;
        self.restore_owner(hw, line);
        let owner = hw.caches.line(line).and_then(|st| st.owner);
        if let Some(o) = owner {
            if o != rid && self.deps.contains(o) {
                now = self.track_dependence(hw, rid, o, now);
            }
        }
        now
    }

    fn on_end(&mut self, hw: &mut Hw, thread: usize, rid: Rid, now: Cycle) -> Cycle {
        let now = now + MARKER_COST;
        let core = hw.thread_core[thread];
        if let Some(entry) = self.cl.entry_mut(core, rid) {
            entry.done = true;
        }
        // Drain the region's remaining DPOs in the background.
        self.kick_all_dpos(hw, core, rid, now);
        // If nothing is outstanding the region is Done@L1 immediately. A
        // missing entry means a §5.7 context switch already drained and
        // cleared it (and no writes followed on the new core).
        let empty = self.cl.entry(core, rid).is_none_or(|e| e.slots.is_empty());
        if empty {
            self.cl.remove(core, rid);
            if let Some(d) = self.deps.get_mut(rid) {
                d.done = true;
            }
            hw.lifecycle.ordered(rid, now);
            self.try_commit(hw, rid, now);
        }
        now // asynchronous commit: execution proceeds immediately
    }

    fn on_fence(&mut self, hw: &mut Hw, thread: usize, now: Cycle) -> Cycle {
        // §5.2: block until the thread's last region committed (and hence
        // every region it transitively depends on).
        let Some(rid) = self.threads.get(thread).and_then(|t| t.latest_rid) else {
            return now;
        };
        hw.stats.bump(Counter::AsapFence);
        let end = wait_mem!(self, hw, now, !self.deps.contains(rid));
        hw.note_stall(thread, StallReason::FenceWait, now, end);
        end
    }

    fn on_evict(&mut self, hw: &mut Hw, evicted: &Evicted, now: Cycle) {
        if evicted.line.is_pm_region() {
            if let Some(o) = evicted.state.owner {
                if self.deps.contains(o) {
                    // §5.3: save the OwnerRID across the eviction.
                    self.evicted_owners.insert(evicted.line, o);
                    let ch = self.line_channel(evicted.line);
                    self.blooms[ch].insert(evicted.line);
                    hw.stats.bump(Counter::AsapOwnerSaved);
                    if evicted.state.lock_bit {
                        // Should be prevented by lock-aware victim choice.
                        hw.stats.bump(Counter::AsapForcedLockedEviction);
                    }
                    // The writeback doubles as the line's DPO: mark the
                    // slot initiated so acceptance clears it.
                    let core = hw.thread_core[o.thread() as usize];
                    if let Some(entry) = self.cl.entry_mut(core, o) {
                        if let Some(i) = entry.slot_of(evicted.line) {
                            entry.slots[i].dpo = DpoState::Initiated;
                            if !evicted.state.dirty {
                                // Clean line: no writeback will come; the
                                // DPO already completed earlier.
                                entry.slots.remove(i);
                            }
                        }
                    }
                }
            }
        }
        hw.default_evict(evicted, now);
    }

    fn on_mem_event(&mut self, hw: &mut Hw, ev: &MemEvent) {
        self.handle_event(hw, ev);
    }

    fn on_context_switch(&mut self, hw: &mut Hw, thread: usize, now: Cycle) -> Cycle {
        // §5.7: complete the persist operations behind every CLPtr of this
        // thread's regions, then clear the core's entries. The active (or
        // latest) region keeps its Dependence List entry and continues on
        // the new core when the machine remaps thread_core.
        let core = hw.thread_core[thread];
        let rids: Vec<Rid> = self
            .cl
            .entries(core)
            .iter()
            .map(|e| e.rid)
            .filter(|r| r.thread() as usize == thread)
            .collect();
        let mut now = now;
        for rid in rids {
            // Re-kick on every event so slots unlock → initiate → clear
            // regardless of the coalescing distance.
            let t0 = now;
            now = wait_mem!(self, hw, now, {
                self.kick_all_dpos(hw, core, rid, now);
                self.cl.entry(core, rid).is_none_or(|e| e.slots.is_empty())
            });
            hw.note_stall(thread, StallReason::Drain, t0, now);
            // A not-yet-done region's entry is cleared and recreated on
            // the next core; done regions proceed through Done@L1.
            if let Some(e) = self.cl.entry(core, rid) {
                let done = e.done;
                self.cl.remove(core, rid);
                if done {
                    if let Some(d) = self.deps.get_mut(rid) {
                        d.done = true;
                    }
                    hw.lifecycle.ordered(rid, now);
                    self.try_commit(hw, rid, now);
                }
            }
        }
        now
    }

    fn drain(&mut self, hw: &mut Hw, now: Cycle) -> Cycle {
        let end = wait_mem!(self, hw, now, self.deps.is_empty() && hw.mem.is_idle());
        hw.note_stall(0, StallReason::Drain, now, end);
        end
    }

    fn on_crash(&mut self, hw: &mut Hw) {
        // Flush the persistence domain: in-flight sealed headers, every
        // live record header (with only *accepted* entry fields
        // published), and the Dependence List.
        self.inflight_headers.flush(&mut hw.image);
        self.log_tracker.flush(&mut hw.image);
        let deps_blob = self.deps.encode();
        let lh_blob = self.lh.encode_table();
        let base = hw.layout.dump_base();
        recovery::write_dump(&mut hw.image, base, &[&deps_blob, &lh_blob]);
    }

    fn recover(&mut self, hw: &mut Hw) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let base = hw.layout.dump_base();
        let Some(sections) = recovery::read_dump(&hw.image, base) else {
            return report;
        };
        let entries = DepLists::decode(&sections[0]).expect("ASAP dump: dependence list");
        let lh_table = LhWpq::decode_table(&sections[1]).expect("ASAP dump: LH table");
        // §5.5: derive the happens-before order from the dependence DAG
        // and undo dependents before the regions they depend on.
        for rid in recovery::undo_order(&entries) {
            if let Some(&last_header) = lh_table.get(&rid) {
                let records = recovery::collect_records(&hw.image, last_header, rid);
                report.restored_lines += recovery::undo_region(&mut hw.image, &records);
            }
            report.uncommitted.push(rid);
        }
        recovery::clear_dump(&mut hw.image, base);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::small()
    }

    #[test]
    fn kind_reflects_opts() {
        assert_eq!(Asap::new(AsapOpts::all(), &cfg()).kind(), SchemeKind::Asap);
        assert_eq!(
            Asap::new(AsapOpts::none(), &cfg()).kind(),
            SchemeKind::AsapWith(AsapOpts::none())
        );
    }

    #[test]
    fn coalescing_off_means_distance_zero() {
        assert_eq!(Asap::new(AsapOpts::none(), &cfg()).dpo_distance, 0);
        assert_eq!(
            Asap::new(AsapOpts::all(), &cfg()).dpo_distance,
            cfg().asap.dpo_distance
        );
    }

    #[test]
    fn debug_shows_counts() {
        let a = Asap::new(AsapOpts::all(), &cfg());
        assert!(format!("{a:?}").contains("uncommitted"));
    }

    /// Drives one region through the whole Fig. 4 state machine by
    /// calling the scheme hooks directly and inspecting internal state.
    #[test]
    fn fig4_region_state_machine() {
        use asap_mem::cache::AccessKind;

        let cfgv = cfg();
        let mut hw = Hw::new(cfgv, 1, 1 << 20, 1 << 20);
        let mut s = Asap::new(AsapOpts::all(), &cfgv);
        let mut now = s.on_thread_start(&mut hw, 0, Cycle(0));

        // ① asap_begin: CL List and Dependence List entries InProgress.
        let rid = Rid::new(0, 1);
        now = s.on_begin(&mut hw, 0, rid, now);
        assert!(s.deps.contains(rid), "Dependence List entry created");
        let e = s.cl.entry(0, rid).expect("CL List entry created");
        assert!(!e.done && e.slots.is_empty());

        // First write to a persistent line: LockBit, OwnerRID, LPO, CLPtr.
        let line = LineAddr(hw.layout.heap_base().0 / 64);
        hw.image.mark_persistent(line.base(), 64);
        hw.cache_access(0, line, AccessKind::Store);
        now = s.pre_write(&mut hw, 0, rid, line, now);
        {
            let st = hw.caches.line_mut(line).unwrap();
            st.data[0] = 0xEE;
            st.dirty = true;
            assert!(st.lock_bit, "LockBit set until the LPO completes");
            assert_eq!(st.owner, Some(rid), "OwnerRID taken");
        }
        now = s.post_write(&mut hw, 0, rid, line, now);
        assert_eq!(s.cl.entry(0, rid).unwrap().slots.len(), 1, "CLPtr slot");
        assert!(s.lh.get(rid).is_some(), "LH-WPQ slot held");

        // ② asap_end: state Done, execution would continue immediately.
        now = s.on_end(&mut hw, 0, rid, now);
        assert!(s.deps.contains(rid), "not yet committed at end");

        // Drain background events: LPO accepted → LockBit clears → DPO →
        // ③ Done@L1/Done@MC → ④ commit (entry cleared, log freed).
        while let Some(t) = hw.mem.next_event_time() {
            hw.advance_mem(t);
            while let Some(ev) = hw.mem.pop_event() {
                s.on_mem_event(&mut hw, &ev);
            }
        }
        assert!(s.cl.entry(0, rid).is_none(), "Done@L1: CL entry cleared");
        assert!(
            !s.deps.contains(rid),
            "④ committed: Dependence List cleared"
        );
        assert!(s.lh.get(rid).is_none(), "LH-WPQ slot released");
        assert!(s.deps.all_empty());
        assert!(
            !hw.caches.line(line).unwrap().lock_bit,
            "LockBit cleared at LPO acceptance"
        );
        let _ = now;
    }

    /// The control dependence of §4.5: a region records its predecessor
    /// while that predecessor is still uncommitted.
    #[test]
    fn control_dependence_recorded_when_predecessor_active() {
        let cfgv = cfg();
        let mut hw = Hw::new(cfgv, 1, 1 << 20, 1 << 20);
        let mut s = Asap::new(AsapOpts::all(), &cfgv);
        let mut now = s.on_thread_start(&mut hw, 0, Cycle(0));
        let r1 = Rid::new(0, 1);
        let r2 = Rid::new(0, 2);
        now = s.on_begin(&mut hw, 0, r1, now);
        // r1 has pending work (a logged write) so it stays uncommitted.
        let line = LineAddr(hw.layout.heap_base().0 / 64);
        hw.image.mark_persistent(line.base(), 64);
        hw.cache_access(0, line, asap_mem::cache::AccessKind::Store);
        now = s.pre_write(&mut hw, 0, r1, line, now);
        now = s.post_write(&mut hw, 0, r1, line, now);
        now = s.on_end(&mut hw, 0, r1, now);
        // Begin r2 while r1 is still in the Dependence List.
        assert!(s.deps.contains(r1));
        let _ = s.on_begin(&mut hw, 0, r2, now);
        assert_eq!(
            s.deps.get(r2).unwrap().deps,
            vec![r1],
            "control dependence on the previous region"
        );
    }
}
