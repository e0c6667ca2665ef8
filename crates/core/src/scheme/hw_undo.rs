//! The HWUndo baseline: hardware undo logging with synchronous commit
//! (§2.3, §6.3 — modeled on Proteus).
//!
//! LPOs are initiated automatically on the first write to each line and
//! overlap with execution inside the region. DPOs are initiated at region
//! end, each only after its line's LPO completed (the old value must be in
//! the persistence domain before the new value overwrites it). The region
//! *commits synchronously*: execution waits at `end` until every LPO,
//! header and DPO has been accepted by the WPQ. LPO dropping is applied at
//! commit (the paper notes this optimization is also applied in \[61\]).
//!
//! Like ASAP, record-header address fields are published at LPO
//! *acceptance* (the on-chip logging metadata lives in persistence-domain
//! resources of LH-WPQ-comparable size, §6.3), so a crash mid-region never
//! leaves a header pointing at a log entry that never became durable.

use asap_mem::{MemEvent, OpId, PersistKind, Rid};
use asap_pmem::{AddrMap, LineAddr, PmAddr};
use asap_sim::{Counter, Cycle, StallReason};

use crate::hw::Hw;
use crate::logbuf::{LogBuffer, RecordHeader, MAX_ENTRIES};
use crate::recovery;
use crate::scheme::common::{
    remove_op, start_thread, wait_mem, InflightHeaders, LineSet, LogAcceptTracker,
};
use crate::scheme::{RecoveryReport, Scheme, SchemeGauges, SchemeKind};

/// Hardware cost of the begin/end region instructions.
const MARKER_COST: u64 = 3;

#[derive(Clone, Debug)]
struct HwUndoThread {
    log: LogBuffer,
    active: Option<HwUndoRegion>,
    /// The active region's written lines; true once the line's LPO was
    /// accepted. Cleared at region begin.
    lines: LineSet<bool>,
    /// The active region's LPO + header ops not yet accepted.
    pending_log: Vec<OpId>,
    /// The active region's DPO ops not yet accepted (populated during the
    /// end-of-region wait).
    pending_dpo: Vec<OpId>,
}

#[derive(Clone, Debug)]
struct HwUndoRegion {
    rid: Rid,
    /// Current (partial) record, if any entries were logged.
    cur_record: Option<PmAddr>,
    /// Log tail after the last allocation (for freeing at commit).
    log_end_tail: u64,
    /// Region has reached `end` and is draining.
    ending: bool,
}

/// The synchronous-commit hardware undo-logging scheme.
#[derive(Clone, Debug)]
pub struct HwUndo {
    /// Indexed by thread id.
    threads: Vec<HwUndoThread>,
    inflight_headers: InflightHeaders,
    log_tracker: LogAcceptTracker,
    /// op → (thread, line) for LPO completion bookkeeping.
    lpo_of: AddrMap<OpId, (usize, LineAddr)>,
}

impl HwUndo {
    /// Creates the scheme.
    pub fn new() -> Self {
        HwUndo {
            threads: Vec::new(),
            inflight_headers: InflightHeaders::new(),
            log_tracker: LogAcceptTracker::new(),
            lpo_of: AddrMap::default(),
        }
    }

    /// Thread `t`, if it has a region active.
    fn active_thread(&mut self, t: usize) -> Option<&mut HwUndoThread> {
        self.threads.get_mut(t).filter(|th| th.active.is_some())
    }

    fn handle_event(&mut self, hw: &mut Hw, ev: &MemEvent) {
        let MemEvent::Accepted { id, op, at, .. } = ev else {
            return;
        };
        match op.kind {
            PersistKind::Lpo | PersistKind::LogHeader => {
                self.inflight_headers.accepted(*id);
                let Some(rid) = op.rid else { return };
                let t = rid.thread() as usize;
                // A completed sealed record's header heads to the WPQ.
                if let Some((addr, bytes)) = self.log_tracker.accepted(*id) {
                    let hid = self.inflight_headers.submit(hw, rid, addr, bytes, *at);
                    if let Some(th) = self.active_thread(t) {
                        th.pending_log.push(hid);
                    }
                }
                if let Some(th) = self.active_thread(t) {
                    remove_op(&mut th.pending_log, *id);
                }
                if let Some((t, line)) = self.lpo_of.remove(id) {
                    // The line's old value is in the persistence domain:
                    // clear its lock bit and, if the region is draining,
                    // fire its DPO.
                    if let Some(st) = hw.caches.line_mut(line) {
                        st.lock_bit = false;
                    }
                    if let Some(th) = self.active_thread(t) {
                        th.lines.insert(line, true);
                        let region = th.active.as_ref().expect("region active");
                        if region.ending {
                            if let Some(dpo) =
                                hw.persist_line(line, PersistKind::Dpo, Some(region.rid), None, *at)
                            {
                                th.pending_dpo.push(dpo);
                            }
                        }
                    }
                }
            }
            PersistKind::Dpo => {
                if let Some(th) = op.rid.and_then(|r| self.active_thread(r.thread() as usize)) {
                    remove_op(&mut th.pending_dpo, *id);
                }
            }
            _ => {}
        }
    }
}

impl Default for HwUndo {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheme for HwUndo {
    fn clone_box(&self) -> Box<dyn Scheme> {
        Box::new(self.clone())
    }

    fn kind(&self) -> SchemeKind {
        SchemeKind::HwUndo
    }

    fn gauges(&self) -> SchemeGauges {
        SchemeGauges {
            log_fill_lines: self.threads.iter().map(|t| t.log.live_lines()).sum(),
            uncommitted_regions: self.threads.iter().filter(|t| t.active.is_some()).count() as u64,
            dep_queue_depth: 0,
        }
    }

    fn on_thread_start(&mut self, hw: &mut Hw, thread: usize, now: Cycle) -> Cycle {
        start_thread(&mut self.threads, thread, |t| HwUndoThread {
            log: LogBuffer::new(hw.layout.log_base(t), hw.layout.log_bytes),
            active: None,
            lines: LineSet::default(),
            pending_log: Vec::new(),
            pending_dpo: Vec::new(),
        });
        now
    }

    fn on_begin(&mut self, _hw: &mut Hw, thread: usize, rid: Rid, now: Cycle) -> Cycle {
        let th = &mut self.threads[thread];
        assert!(th.active.is_none(), "synchronous regions do not overlap");
        th.active = Some(HwUndoRegion {
            rid,
            cur_record: None,
            log_end_tail: th.log.tail(),
            ending: false,
        });
        // The previous region's commit waited for all its ops.
        debug_assert!(th.pending_log.is_empty() && th.pending_dpo.is_empty());
        th.lines.clear();
        now + MARKER_COST
    }

    fn pre_write(
        &mut self,
        hw: &mut Hw,
        thread: usize,
        rid: Rid,
        line: LineAddr,
        now: Cycle,
    ) -> Cycle {
        let th = &mut self.threads[thread];
        let Some(region) = th.active.as_mut() else {
            return now;
        };
        if th.lines.contains(line) {
            return now; // already logged: nothing on the critical path
        }
        th.lines.insert(line, false);
        // Lazily open the region's current record.
        let cur = match region.cur_record {
            Some(c) => c,
            None => {
                let c = th.log.alloc_record().expect("hardware log overflow");
                let region = th.active.as_mut().unwrap();
                region.cur_record = Some(c);
                region.log_end_tail = th.log.tail();
                self.log_tracker.start_record(rid, c, None);
                c
            }
        };
        let i = self.log_tracker.reserve_slot(cur);
        let entry_addr = RecordHeader::entry_addr(cur, i);
        let old = hw.line_value(line);
        // Lock the line until its old value is safely in the WPQ.
        if let Some(st) = hw.caches.line_mut(line) {
            st.lock_bit = true;
            st.owner = Some(rid);
        }
        let lpo = hw.submit_value(
            PersistKind::Lpo,
            entry_addr.line(),
            old,
            Some(rid),
            Some(line),
            now,
        );
        self.log_tracker.register(lpo, cur, i, line);
        self.lpo_of.insert(lpo, (thread, line));
        self.threads[thread].pending_log.push(lpo);
        if i + 1 == MAX_ENTRIES {
            // Record full: seal (header written once all LPOs accepted)
            // and open the next record.
            if let Some((addr, bytes)) = self.log_tracker.request_seal(cur, false) {
                let hid = self.inflight_headers.submit(hw, rid, addr, bytes, now);
                self.threads[thread].pending_log.push(hid);
            }
            let th = &mut self.threads[thread];
            let new_addr = th.log.alloc_record().expect("hardware log overflow");
            let region = th.active.as_mut().unwrap();
            region.log_end_tail = th.log.tail();
            self.log_tracker.start_record(rid, new_addr, Some(cur));
            th.active.as_mut().unwrap().cur_record = Some(new_addr);
        }
        now // LPO runs in the background
    }

    fn on_end(&mut self, hw: &mut Hw, thread: usize, rid: Rid, now: Cycle) -> Cycle {
        let mut now = now + MARKER_COST;
        let th = &mut self.threads[thread];
        let region = th.active.as_mut().expect("region active");
        region.ending = true;
        // Seal the final record so the log chain is complete.
        if let Some(cur) = region.cur_record {
            if let Some((addr, bytes)) = self.log_tracker.request_seal(cur, false) {
                let hid = self.inflight_headers.submit(hw, rid, addr, bytes, now);
                th.pending_log.push(hid);
            }
        }
        // Fire DPOs, in ascending line order, for lines whose LPOs
        // already completed; the rest fire from the acceptance handler.
        for (line, &done) in th.lines.iter() {
            if done {
                if let Some(dpo) = hw.persist_line(line, PersistKind::Dpo, Some(rid), None, now) {
                    th.pending_dpo.push(dpo);
                }
            }
        }
        // Synchronous commit: wait for every LPO, header and DPO.
        let t0 = now;
        now = wait_mem!(self, hw, now, {
            let th = &self.threads[thread];
            th.pending_log.is_empty() && th.pending_dpo.is_empty()
        });
        hw.note_stall(thread, StallReason::CommitWait, t0, now);
        // Commit: drop undrained log writes, reclaim the log space.
        let th = &mut self.threads[thread];
        let region = th.active.take().expect("region active");
        th.log.free_to(region.log_end_tail);
        self.log_tracker.forget_region(rid);
        hw.mem.drop_log_writes_of(rid);
        hw.stats.bump(Counter::RegionCommitted);
        now
    }

    fn on_fence(&mut self, _hw: &mut Hw, _thread: usize, now: Cycle) -> Cycle {
        now // synchronous commit: regions are already durable at end
    }

    fn on_mem_event(&mut self, hw: &mut Hw, ev: &MemEvent) {
        self.handle_event(hw, ev);
    }

    fn drain(&mut self, hw: &mut Hw, now: Cycle) -> Cycle {
        let end = wait_mem!(self, hw, now, hw.mem.is_idle());
        hw.note_stall(0, StallReason::Drain, now, end);
        end
    }

    fn on_crash(&mut self, hw: &mut Hw) {
        // The on-chip region metadata sits in persistence-domain resources
        // (§6.3): dump each thread's active region so recovery can undo it.
        let mut blob = Vec::new();
        blob.extend_from_slice(b"HWUN");
        let active: Vec<(u16, u64, u64)> = self
            .threads
            .iter()
            .filter_map(|th| th.active.as_ref())
            .filter_map(|r| {
                r.cur_record
                    .map(|c| (r.rid.thread() as u16, r.rid.local(), c.0))
            })
            .collect();
        blob.extend_from_slice(&(active.len() as u32).to_le_bytes());
        for (t, l, a) in active {
            blob.extend_from_slice(&t.to_le_bytes());
            blob.extend_from_slice(&l.to_le_bytes());
            blob.extend_from_slice(&a.to_le_bytes());
        }
        self.inflight_headers.flush(&mut hw.image);
        self.log_tracker.flush(&mut hw.image);
        let base = hw.layout.dump_base();
        recovery::write_dump(&mut hw.image, base, &[&blob]);
    }

    fn recover(&mut self, hw: &mut Hw) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let base = hw.layout.dump_base();
        let Some(sections) = recovery::read_dump(&hw.image, base) else {
            return report;
        };
        let blob = &sections[0];
        assert_eq!(&blob[0..4], b"HWUN", "wrong dump for HwUndo recovery");
        let n = u32::from_le_bytes(blob[4..8].try_into().unwrap()) as usize;
        let mut p = 8;
        for _ in 0..n {
            let t = u16::from_le_bytes(blob[p..p + 2].try_into().unwrap());
            let l = u64::from_le_bytes(blob[p + 2..p + 10].try_into().unwrap());
            let a = u64::from_le_bytes(blob[p + 10..p + 18].try_into().unwrap());
            p += 18;
            let rid = Rid::new(u32::from(t), l);
            let records = recovery::collect_records(&hw.image, PmAddr(a), rid);
            report.restored_lines += recovery::undo_region(&mut hw.image, &records);
            report.uncommitted.push(rid);
        }
        recovery::clear_dump(&mut hw.image, base);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_is_hw_undo() {
        assert_eq!(HwUndo::new().kind(), SchemeKind::HwUndo);
    }

    #[test]
    fn fence_is_free_under_sync_commit() {
        let mut hw = Hw::new(asap_sim::SystemConfig::small(), 1, 1 << 20, 1 << 20);
        let mut s = HwUndo::new();
        assert_eq!(s.on_fence(&mut hw, 0, Cycle(9)), Cycle(9));
    }
}
