//! The HWRedo baseline: hardware redo logging (§2.3, §6.3).
//!
//! LPOs log *new* values in the background as the region executes; at
//! region end the region waits synchronously for all LPOs plus a commit
//! marker, then commits. DPOs — in-place data updates from the log — run
//! asynchronously after commit, and the log is reclaimed only once they
//! complete (a crash in between re-initiates them from the log).
//!
//! Redo specifics modeled here:
//!
//! - a line modified again after its LPO was issued is re-logged at region
//!   end (the log must hold final values);
//! - an *uncommitted* modified line evicted from the LLC must not
//!   overwrite PM in place: its writeback is suppressed and reads are
//!   redirected to the log (modeled with a redirect buffer plus a PM-read
//!   latency penalty);
//! - consecutive regions' DPOs to the same line are filtered (the paper:
//!   "HWRedo takes advantage of using DRAM on commit to filter out any
//!   unnecessary DPOs"), and a region's undrained log writes are dropped
//!   once its DPOs complete;
//! - record-header address fields publish at LPO acceptance, and the
//!   commit marker (the final header, `committed` flag set) is written
//!   only after every log entry of the region is accepted — the region's
//!   commit point is the marker's own acceptance.

use std::collections::VecDeque;

use asap_mem::{Evicted, MemEvent, OpId, PersistKind, Rid};
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
struct RedoThread {
    log: LogBuffer,
    active: Option<RedoRegion>,
    /// The active region's written lines; true = modified again after its
    /// LPO (needs re-log). Cleared at region begin.
    lines: LineSet<bool>,
    /// LPO/header/marker ops the active region's commit must wait for.
    pending_log: Vec<OpId>,
    /// Committed regions whose async DPOs are still draining, in commit
    /// order.
    retiring: VecDeque<Retiring>,
}

#[derive(Clone, Debug)]
struct RedoRegion {
    rid: Rid,
    /// Current (partial) record, if any entries were logged.
    cur_record: Option<PmAddr>,
    /// Log tail after the last allocation (for freeing at retire).
    log_end_tail: u64,
}

#[derive(Clone, Debug)]
struct Retiring {
    rid: Rid,
    /// Global commit order (recovery replays in this order, and log
    /// reclamation follows it across threads — an older region's log may
    /// never be outlived by a newer region that shares its lines).
    seq: u64,
    log_end_tail: u64,
    last_header: PmAddr,
    pending_dpo: Vec<OpId>,
}

/// The hardware redo-logging scheme.
#[derive(Clone, Debug)]
pub struct HwRedo {
    /// Indexed by thread id.
    threads: Vec<RedoThread>,
    inflight_headers: InflightHeaders,
    log_tracker: LogAcceptTracker,
    /// Uncommitted modified lines evicted from the LLC: their (new) data,
    /// readable only via the log until commit.
    redirect: AddrMap<LineAddr, [u8; 64]>,
    /// Global commit counter (orders retirement across threads).
    commit_seq: u64,
}

impl HwRedo {
    /// Creates the scheme.
    pub fn new() -> Self {
        HwRedo {
            threads: Vec::new(),
            inflight_headers: InflightHeaders::new(),
            log_tracker: LogAcceptTracker::new(),
            redirect: AddrMap::default(),
            commit_seq: 0,
        }
    }

    /// Thread `t`, if it has a region active.
    fn active_thread(&mut self, t: usize) -> Option<&mut RedoThread> {
        self.threads.get_mut(t).filter(|th| th.active.is_some())
    }

    /// Whether `rid` is active (uncommitted): the region its thread runs.
    fn is_active(&self, rid: Rid) -> bool {
        self.threads
            .get(rid.thread() as usize)
            .and_then(|th| th.active.as_ref())
            .is_some_and(|r| r.rid == rid)
    }

    /// Retires fully-drained regions in *global* commit order: a region's
    /// log is reclaimed only once every earlier-committed region (on any
    /// thread) has fully drained, so recovery can always roll the newest
    /// writer of a line forward last.
    fn retire_in_order(&mut self) {
        // Each thread retires in commit order, so the oldest retiring
        // region overall is the front with the least seq.
        while let Some(th) = self
            .threads
            .iter_mut()
            .filter(|th| !th.retiring.is_empty())
            .min_by_key(|th| th.retiring[0].seq)
        {
            if !th.retiring[0].pending_dpo.is_empty() {
                return;
            }
            let r = th.retiring.pop_front().expect("front exists");
            th.log.free_to(r.log_end_tail);
        }
    }

    /// Logs `data` as the redo entry for `line` in `rid`'s current record
    /// (opening records as needed).
    fn log_entry(
        &mut self,
        hw: &mut Hw,
        thread: usize,
        rid: Rid,
        line: LineAddr,
        data: [u8; 64],
        now: Cycle,
    ) {
        let th = &mut self.threads[thread];
        let region = th.active.as_mut().expect("region active");
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
        let lpo = hw.submit_value(PersistKind::Lpo, entry_addr.line(), data, Some(rid), now);
        self.log_tracker.register(lpo, cur, i, line);
        self.threads[thread].pending_log.push(lpo);
        if i + 1 == MAX_ENTRIES {
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
    }

    fn handle_event(&mut self, hw: &mut Hw, ev: &MemEvent) {
        let MemEvent::Accepted { id, op, at, .. } = ev else {
            return;
        };
        let Some(rid) = op.rid else { return };
        let t = rid.thread() as usize;
        match op.kind {
            PersistKind::Lpo | PersistKind::LogHeader => {
                self.inflight_headers.accepted(*id);
                if let Some((addr, bytes)) = self.log_tracker.accepted(*id) {
                    let hid = self.inflight_headers.submit(hw, rid, addr, bytes, *at);
                    if let Some(th) = self.active_thread(t) {
                        th.pending_log.push(hid);
                    }
                }
                if let Some(th) = self.active_thread(t) {
                    remove_op(&mut th.pending_log, *id);
                }
            }
            PersistKind::Dpo => {
                let Some(th) = self.threads.get_mut(t) else {
                    return;
                };
                for r in &mut th.retiring {
                    remove_op(&mut r.pending_dpo, *id);
                }
                // Reclaim logs in global commit order. Unlike ASAP, the
                // redo baseline [33] has no LPO dropping: its log writes
                // all reach the media.
                self.retire_in_order();
            }
            _ => {}
        }
    }

    /// If `line` was evicted uncommitted, its current value lives in the
    /// log: restore it into the cache and charge the log-read penalty.
    fn restore_redirected(&mut self, hw: &mut Hw, line: LineAddr, now: Cycle) -> Cycle {
        let Some(data) = self.redirect.remove(&line) else {
            return now;
        };
        let st = hw.caches.line_mut(line).expect("line was just filled");
        st.data = data;
        st.dirty = true;
        hw.stats.bump(Counter::RedoRedirectedRead);
        now + hw.mem.read_latency(line) // extra log lookup in PM
    }
}

impl Default for HwRedo {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheme for HwRedo {
    fn clone_box(&self) -> Box<dyn Scheme> {
        Box::new(self.clone())
    }

    fn kind(&self) -> SchemeKind {
        SchemeKind::HwRedo
    }

    fn gauges(&self) -> SchemeGauges {
        SchemeGauges {
            log_fill_lines: self.threads.iter().map(|t| t.log.live_lines()).sum(),
            // Active regions are pre-commit; `retiring` regions are durable
            // and only draining DPOs, so they don't count as uncommitted.
            uncommitted_regions: self.threads.iter().filter(|t| t.active.is_some()).count() as u64,
            dep_queue_depth: 0,
        }
    }

    fn on_thread_start(&mut self, hw: &mut Hw, thread: usize, now: Cycle) -> Cycle {
        start_thread(&mut self.threads, thread, |t| RedoThread {
            log: LogBuffer::new(hw.layout.log_base(t), hw.layout.log_bytes),
            active: None,
            lines: LineSet::default(),
            pending_log: Vec::new(),
            retiring: VecDeque::new(),
        });
        now
    }

    fn on_begin(&mut self, _hw: &mut Hw, thread: usize, rid: Rid, now: Cycle) -> Cycle {
        let th = &mut self.threads[thread];
        assert!(th.active.is_none(), "synchronous regions do not overlap");
        th.active = Some(RedoRegion {
            rid,
            cur_record: None,
            log_end_tail: th.log.tail(),
        });
        // The previous region's commit waited for all its log ops.
        debug_assert!(th.pending_log.is_empty());
        th.lines.clear();
        now + MARKER_COST
    }

    fn pre_write(
        &mut self,
        hw: &mut Hw,
        _thread: usize,
        _rid: Rid,
        line: LineAddr,
        now: Cycle,
    ) -> Cycle {
        self.restore_redirected(hw, line, now)
    }

    fn post_write(
        &mut self,
        hw: &mut Hw,
        thread: usize,
        rid: Rid,
        line: LineAddr,
        now: Cycle,
    ) -> Cycle {
        let th = &mut self.threads[thread];
        if th.active.is_none() {
            return now;
        }
        if let Some(stale) = th.lines.get_mut(line) {
            *stale = true; // value changed after its LPO: re-log at end
            return now;
        }
        th.lines.insert(line, false);
        let new = hw.line_value(line); // post-write: the NEW value
        if let Some(st) = hw.caches.line_mut(line) {
            st.owner = Some(rid);
        }
        self.log_entry(hw, thread, rid, line, new, now);
        now // LPO runs in the background
    }

    fn post_read(
        &mut self,
        hw: &mut Hw,
        _thread: usize,
        _rid: Rid,
        line: LineAddr,
        now: Cycle,
    ) -> Cycle {
        self.restore_redirected(hw, line, now)
    }

    fn on_end(&mut self, hw: &mut Hw, thread: usize, rid: Rid, now: Cycle) -> Cycle {
        let mut now = now + MARKER_COST;
        // Re-log lines modified after their LPO, in ascending order, so
        // the log holds finals. (`log_entry` never reads the line set.)
        let mut lines = std::mem::take(&mut self.threads[thread].lines);
        for (line, stale) in lines.iter_mut() {
            if *stale {
                let data = match self.redirect.get(&line) {
                    Some(d) => *d,
                    None => hw.line_value(line),
                };
                self.log_entry(hw, thread, rid, line, data, now);
                *stale = false;
            }
        }
        self.threads[thread].lines = lines;
        // Commit marker: the final record seals with the committed flag
        // once all its entries are accepted; ensure a record exists even
        // for regions whose writes all landed in sealed records.
        {
            let region = self.threads[thread].active.as_mut().expect("region active");
            let cur = match region.cur_record {
                Some(c) => c,
                None => {
                    let th = &mut self.threads[thread];
                    let c = th.log.alloc_record().expect("hardware log overflow");
                    let region = th.active.as_mut().unwrap();
                    region.cur_record = Some(c);
                    region.log_end_tail = th.log.tail();
                    self.log_tracker.start_record(rid, c, None);
                    c
                }
            };
            if let Some((addr, bytes)) = self.log_tracker.request_seal(cur, true) {
                let hid = self.inflight_headers.submit(hw, rid, addr, bytes, now);
                self.threads[thread].pending_log.push(hid);
            }
        }
        // Synchronous LPO wait: the region commits when the log, incl. the
        // marker header, is fully in the persistence domain.
        let t0 = now;
        now = wait_mem!(self, hw, now, self.threads[thread].pending_log.is_empty());
        hw.note_stall(thread, StallReason::CommitWait, t0, now);
        // Committed: kick off asynchronous DPOs and move to retiring.
        let th = &mut self.threads[thread];
        let region = th.active.take().expect("region active");
        let mut pending_dpo = Vec::new();
        for (line, _) in th.lines.iter() {
            hw.mem.drop_pending_dpo(line, rid); // supersede earlier DPOs
            let id = match self.redirect.remove(&line) {
                Some(data) => Some(hw.submit_value(PersistKind::Dpo, line, data, Some(rid), now)),
                None => hw.persist_line(line, PersistKind::Dpo, Some(rid), now),
            };
            if let Some(id) = id {
                pending_dpo.push(id);
            }
        }
        hw.stats.bump(Counter::RegionCommitted);
        let seq = self.commit_seq;
        self.commit_seq += 1;
        let th = &mut self.threads[thread];
        let last_header = region.cur_record.expect("marker record exists");
        th.retiring.push_back(Retiring {
            rid,
            seq,
            log_end_tail: region.log_end_tail,
            last_header,
            pending_dpo,
        });
        self.retire_in_order();
        now
    }

    fn on_fence(&mut self, _hw: &mut Hw, _thread: usize, now: Cycle) -> Cycle {
        now // regions are durable (committed) at end; DPOs are recoverable
    }

    fn on_evict(&mut self, hw: &mut Hw, evicted: &Evicted, now: Cycle) {
        if evicted.state.dirty
            && evicted.line.is_pm_region()
            && evicted.state.owner.is_some_and(|o| self.is_active(o))
        {
            // Uncommitted new value must not reach PM in place: keep it
            // aside; reads are redirected to the log (§2.3).
            self.redirect.insert(evicted.line, evicted.state.data);
            hw.stats.bump(Counter::RedoSuppressedWriteback);
            return;
        }
        hw.default_evict(evicted, now);
    }

    fn on_mem_event(&mut self, hw: &mut Hw, ev: &MemEvent) {
        self.handle_event(hw, ev);
    }

    fn drain(&mut self, hw: &mut Hw, now: Cycle) -> Cycle {
        let end = wait_mem!(self, hw, now, {
            hw.mem.is_idle() && self.threads.iter().all(|t| t.retiring.is_empty())
        });
        hw.note_stall(0, StallReason::Drain, now, end);
        end
    }

    fn on_crash(&mut self, hw: &mut Hw) {
        // Retiring regions are committed but possibly not yet in place:
        // dump them for roll-forward. Active regions are simply discarded.
        let mut blob = Vec::new();
        blob.extend_from_slice(b"HWRE");
        // Oldest commit first: recovery replays in this order so the
        // newest writer of any line wins.
        let mut retiring: Vec<(u64, u16, u64, u64)> = self
            .threads
            .iter()
            .flat_map(|th| th.retiring.iter())
            .map(|r| (r.seq, r.rid.thread() as u16, r.rid.local(), r.last_header.0))
            .collect();
        retiring.sort_unstable();
        blob.extend_from_slice(&(retiring.len() as u32).to_le_bytes());
        for (_, t, l, a) in retiring {
            blob.extend_from_slice(&t.to_le_bytes());
            blob.extend_from_slice(&l.to_le_bytes());
            blob.extend_from_slice(&a.to_le_bytes());
        }
        // Uncommitted regions are reported so verification knows them,
        // in thread order (which is rid order: one active region each).
        let active: Vec<(u16, u64)> = self
            .threads
            .iter()
            .filter_map(|th| th.active.as_ref())
            .map(|r| (r.rid.thread() as u16, r.rid.local()))
            .collect();
        blob.extend_from_slice(&(active.len() as u32).to_le_bytes());
        for (t, l) in active {
            blob.extend_from_slice(&t.to_le_bytes());
            blob.extend_from_slice(&l.to_le_bytes());
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
        assert_eq!(&blob[0..4], b"HWRE", "wrong dump for HwRedo recovery");
        let n = u32::from_le_bytes(blob[4..8].try_into().unwrap()) as usize;
        let mut p = 8;
        for _ in 0..n {
            let t = u16::from_le_bytes(blob[p..p + 2].try_into().unwrap());
            let l = u64::from_le_bytes(blob[p + 2..p + 10].try_into().unwrap());
            let a = u64::from_le_bytes(blob[p + 10..p + 18].try_into().unwrap());
            p += 18;
            let rid = Rid::new(u32::from(t), l);
            let records = recovery::collect_records(&hw.image, PmAddr(a), rid);
            assert!(
                records.first().is_some_and(|(_, h)| h.committed),
                "retiring region {rid} lacks a durable commit marker"
            );
            report.restored_lines += recovery::redo_region(&mut hw.image, &records);
            report.replayed.push(rid);
        }
        let na = u32::from_le_bytes(blob[p..p + 4].try_into().unwrap()) as usize;
        p += 4;
        for _ in 0..na {
            let t = u16::from_le_bytes(blob[p..p + 2].try_into().unwrap());
            let l = u64::from_le_bytes(blob[p + 2..p + 10].try_into().unwrap());
            p += 10;
            report.uncommitted.push(Rid::new(u32::from(t), l));
        }
        recovery::clear_dump(&mut hw.image, base);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_is_hw_redo() {
        assert_eq!(HwRedo::new().kind(), SchemeKind::HwRedo);
    }

    #[test]
    fn fence_is_free() {
        let mut hw = Hw::new(asap_sim::SystemConfig::small(), 1, 1 << 20, 1 << 20);
        let mut s = HwRedo::new();
        assert_eq!(s.on_fence(&mut hw, 0, Cycle(3)), Cycle(3));
    }
}
