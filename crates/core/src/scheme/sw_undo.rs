//! The SW baseline: software undo logging (§6.3).
//!
//! Software places persist operations on the critical path: every first
//! write to a line inside a region appends a log entry, flushes the entry
//! and its record header (`clwb`) and fences before the data store may
//! proceed; at region end every dirty line is flushed and a final fence
//! plus an anchor update make the region durable. Per the paper's
//! methodology the implementation is hand-optimized: persist operations to
//! the same cache line are coalesced (one flush per line per region) and
//! independent flushes overlap, separated by a single fence.
//!
//! The "DPO Only" variant (Fig. 1) skips logging entirely and only flushes
//! data at region end — it measures the cost of DPOs alone.

use asap_mem::{MemEvent, OpId, PersistKind, Rid};
use asap_pmem::{LineAddr, PmAddr};
use asap_sim::{Cycle, StallReason};

use crate::hw::Hw;
use crate::logbuf::LogBuffer;
use crate::recovery;
use crate::scheme::common::{remove_op, start_thread, wait_mem, ActiveLog, LineSet};
use crate::scheme::{RecoveryReport, Scheme, SchemeGauges, SchemeKind};

/// Cost of issuing one `clwb` instruction.
const CLWB_COST: u64 = 4;
/// Cost of the `sfence` instruction itself (waiting is extra).
const SFENCE_COST: u64 = 8;

const ANCHOR_MAGIC: u32 = 0x5357_414e; // "SWAN"

/// Which flavour of the software baseline to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwMode {
    /// Full undo logging: LPOs and DPOs on the critical path.
    Full,
    /// Data flushes only, no logging ("DPO Only" in Fig. 1). No recovery
    /// guarantee.
    DpoOnly,
}

/// The per-thread persistent anchor: which region is active and where its
/// first log record lives. Updated with flush+fence, read by recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Anchor {
    active: bool,
    rid: Rid,
    first_header: PmAddr,
}

impl Anchor {
    fn encode(&self) -> [u8; 64] {
        let mut b = [0u8; 64];
        b[0..4].copy_from_slice(&ANCHOR_MAGIC.to_le_bytes());
        b[4] = u8::from(self.active);
        b[6..8].copy_from_slice(&(self.rid.thread() as u16).to_le_bytes());
        b[8..16].copy_from_slice(&self.rid.local().to_le_bytes());
        b[16..24].copy_from_slice(&self.first_header.0.to_le_bytes());
        b
    }

    fn decode(b: &[u8; 64]) -> Option<Self> {
        if u32::from_le_bytes(b[0..4].try_into().unwrap()) != ANCHOR_MAGIC {
            return None;
        }
        let thread = u16::from_le_bytes(b[6..8].try_into().unwrap());
        Some(Anchor {
            active: b[4] != 0,
            rid: Rid::new(
                u32::from(thread),
                u64::from_le_bytes(b[8..16].try_into().unwrap()),
            ),
            first_header: PmAddr(u64::from_le_bytes(b[16..24].try_into().unwrap())),
        })
    }
}

/// `clwb` of `line`, adding its persist op (if any) to `outstanding`.
fn clwb_into(
    outstanding: &mut Vec<OpId>,
    hw: &mut Hw,
    rid: Rid,
    line: LineAddr,
    now: Cycle,
) -> Cycle {
    if let Some(id) = hw.persist_line(line, PersistKind::SwPersist, Some(rid), now) {
        outstanding.push(id);
    }
    now + CLWB_COST
}

/// One thread's software-logging state.
#[derive(Clone, Debug)]
struct SwThread {
    log: LogBuffer,
    active: Option<SwRegion>,
    /// Lines the active region wrote: each is logged on its first write
    /// (Full mode) and flushed at region end. Cleared at region begin.
    dirty: LineSet,
    /// Persist ops this thread's next fence must wait for.
    outstanding: Vec<OpId>,
}

#[derive(Clone, Debug)]
struct SwRegion {
    alog: Option<ActiveLog>, // None in DpoOnly mode
}

/// The software undo-logging scheme.
#[derive(Clone, Debug)]
pub struct SwUndo {
    mode: SwMode,
    /// Indexed by thread id.
    threads: Vec<SwThread>,
}

impl SwUndo {
    /// Creates the scheme in the given mode.
    pub fn new(mode: SwMode) -> Self {
        SwUndo {
            mode,
            threads: Vec::new(),
        }
    }

    /// The anchor line of thread `t` (second page of the dump area).
    fn anchor_addr(hw: &Hw, t: usize) -> PmAddr {
        hw.layout.dump_base().offset(4096 + t as u64 * 64)
    }

    fn handle_event(&mut self, _hw: &mut Hw, ev: &MemEvent) {
        if let MemEvent::Accepted { id, op, .. } = ev {
            if let Some(rid) = op.rid {
                if let Some(th) = self.threads.get_mut(rid.thread() as usize) {
                    remove_op(&mut th.outstanding, *id);
                }
            }
        }
    }

    /// `sfence`: wait until all of this thread's persists are accepted.
    fn sfence(&mut self, hw: &mut Hw, t: usize, now: Cycle) -> Cycle {
        let now = now + SFENCE_COST;
        let end = wait_mem!(self, hw, now, self.threads[t].outstanding.is_empty());
        hw.note_stall(t, StallReason::CommitWait, now, end);
        end
    }

    /// `clwb` of `line` charged to thread `t`'s fence set.
    fn clwb(&mut self, hw: &mut Hw, t: usize, rid: Rid, line: LineAddr, now: Cycle) -> Cycle {
        clwb_into(&mut self.threads[t].outstanding, hw, rid, line, now)
    }

    /// Store raw bytes to a PM line as software would (through the cache),
    /// routing any evictions through the default policy.
    fn sw_store(
        &mut self,
        hw: &mut Hw,
        t: usize,
        line: LineAddr,
        data: &[u8; 64],
        now: Cycle,
    ) -> Cycle {
        let (lat, evicted) = hw.scheme_store(t, line, 0, data);
        if let Some(e) = evicted {
            self.on_evict(hw, &e, now);
        }
        now + lat
    }

    /// Write + flush + fence the thread's anchor.
    fn persist_anchor(
        &mut self,
        hw: &mut Hw,
        t: usize,
        rid: Rid,
        anchor: Anchor,
        now: Cycle,
    ) -> Cycle {
        let addr = Self::anchor_addr(hw, t);
        let now = self.sw_store(hw, t, addr.line(), &anchor.encode(), now);
        let now = self.clwb(hw, t, rid, addr.line(), now);
        self.sfence(hw, t, now)
    }
}

impl Scheme for SwUndo {
    fn clone_box(&self) -> Box<dyn Scheme> {
        Box::new(self.clone())
    }

    fn kind(&self) -> SchemeKind {
        match self.mode {
            SwMode::Full => SchemeKind::SwUndo,
            SwMode::DpoOnly => SchemeKind::SwDpoOnly,
        }
    }

    fn gauges(&self) -> SchemeGauges {
        SchemeGauges {
            log_fill_lines: self.threads.iter().map(|t| t.log.live_lines()).sum(),
            uncommitted_regions: self.threads.iter().filter(|t| t.active.is_some()).count() as u64,
            dep_queue_depth: 0,
        }
    }

    fn on_thread_start(&mut self, hw: &mut Hw, thread: usize, now: Cycle) -> Cycle {
        start_thread(&mut self.threads, thread, |t| SwThread {
            log: LogBuffer::new(hw.layout.log_base(t), hw.layout.log_bytes),
            active: None,
            dirty: LineSet::default(),
            outstanding: Vec::new(),
        });
        now
    }

    fn on_begin(&mut self, hw: &mut Hw, thread: usize, rid: Rid, now: Cycle) -> Cycle {
        let mode = self.mode;
        let th = &mut self.threads[thread];
        assert!(th.active.is_none(), "software regions do not overlap");
        let (alog, first_header) = if mode == SwMode::Full {
            let alog = ActiveLog::start(&mut th.log, rid).expect("software log overflow");
            let first = alog.header_addr;
            (Some(alog), first)
        } else {
            (None, PmAddr(0))
        };
        th.active = Some(SwRegion { alog });
        th.dirty.clear();
        if mode == SwMode::Full {
            // Publish the active region so recovery can find its log.
            self.persist_anchor(
                hw,
                thread,
                rid,
                Anchor {
                    active: true,
                    rid,
                    first_header,
                },
                now,
            )
        } else {
            now
        }
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
            return now; // write outside a region: no logging
        };
        let first_write = th.dirty.insert(line, ()).is_none();
        if self.mode == SwMode::DpoOnly || !first_write {
            return now;
        }
        let alog = region.alog.as_mut().expect("Full mode has a log");
        let (entry_addr, sealed) = alog
            .add_entry(&mut th.log, line)
            .expect("software log overflow");
        let header_snapshot = (alog.header_addr, alog.header.encode());
        let old = hw.line_value(line);
        // Write the log entry (old value), then the header carrying its
        // address; flush both, fence, and only then may the data store go.
        let mut now = self.sw_store(hw, thread, entry_addr.line(), &old, now);
        now = self.clwb(hw, thread, rid, entry_addr.line(), now);
        if let Some((addr, bytes)) = sealed {
            now = self.sw_store(hw, thread, addr.line(), &bytes, now);
            now = self.clwb(hw, thread, rid, addr.line(), now);
        } else {
            let (addr, bytes) = header_snapshot;
            now = self.sw_store(hw, thread, addr.line(), &bytes, now);
            now = self.clwb(hw, thread, rid, addr.line(), now);
        }
        self.sfence(hw, thread, now)
    }

    fn on_end(&mut self, hw: &mut Hw, thread: usize, rid: Rid, now: Cycle) -> Cycle {
        let th = &mut self.threads[thread];
        let region = th.active.take().expect("region active");
        // DPOs: flush every dirty line in ascending order (issues
        // overlap), single fence.
        let mut now = now;
        for (line, ()) in th.dirty.iter() {
            now = clwb_into(&mut th.outstanding, hw, rid, line, now);
        }
        now = self.sfence(hw, thread, now);
        if self.mode == SwMode::Full {
            // Retire the region: clear the anchor, then reclaim the log.
            now = self.persist_anchor(
                hw,
                thread,
                rid,
                Anchor {
                    active: false,
                    rid,
                    first_header: PmAddr(0),
                },
                now,
            );
            let th = &mut self.threads[thread];
            let end = region.alog.expect("Full mode has a log").log_end_tail;
            th.log.free_to(end);
        }
        now
    }

    fn on_fence(&mut self, hw: &mut Hw, thread: usize, now: Cycle) -> Cycle {
        self.sfence(hw, thread, now)
    }

    fn on_mem_event(&mut self, hw: &mut Hw, ev: &MemEvent) {
        self.handle_event(hw, ev);
    }

    fn drain(&mut self, hw: &mut Hw, now: Cycle) -> Cycle {
        let end = wait_mem!(self, hw, now, hw.mem.is_idle());
        hw.note_stall(0, StallReason::Drain, now, end);
        end
    }

    fn on_crash(&mut self, _hw: &mut Hw) {
        // Software keeps no extra volatile persistence-domain state: the
        // anchors and logs are ordinary persistent data, already flushed
        // through the cache/WPQ path.
    }

    fn recover(&mut self, hw: &mut Hw) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        if self.mode == SwMode::DpoOnly {
            return report; // no guarantee, nothing to recover
        }
        for t in 0..hw.thread_core.len() {
            let addr = Self::anchor_addr(hw, t);
            let Some(anchor) = Anchor::decode(&hw.image.read_line(addr.line())) else {
                continue;
            };
            if !anchor.active {
                continue;
            }
            // Walk the region's records forward from its first header:
            // a thread's synchronous region occupies consecutive records.
            let mut records = Vec::new();
            let log_base = hw.layout.log_base(t);
            let cap_lines = hw.layout.log_bytes / 64;
            let mut cursor = anchor.first_header;
            #[allow(clippy::while_let_loop)] // interior rid/full checks
            loop {
                let Some(h) =
                    crate::logbuf::RecordHeader::decode(&hw.image.read_line(cursor.line()))
                else {
                    break; // header never became durable: no entries behind it matter
                };
                if h.rid != anchor.rid {
                    break;
                }
                let full = h.is_full();
                records.push((cursor, h));
                if !full {
                    break; // a partial record is the last one
                }
                // Next record follows, with wrap padding like the allocator.
                let line_off = (cursor.0 - log_base.0) / 64 + crate::logbuf::RECORD_LINES;
                let next_off = if line_off + crate::logbuf::RECORD_LINES > cap_lines {
                    0
                } else {
                    line_off
                };
                cursor = log_base.offset(next_off * 64);
            }
            // Undo newest-first.
            records.reverse();
            report.restored_lines += recovery::undo_region(&mut hw.image, &records);
            report.uncommitted.push(anchor.rid);
            // Clear the anchor.
            let cleared = Anchor {
                active: false,
                rid: anchor.rid,
                first_header: PmAddr(0),
            };
            hw.image.write(addr, &cleared.encode());
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_roundtrip() {
        let a = Anchor {
            active: true,
            rid: Rid::new(3, 9),
            first_header: PmAddr(0x8010_0000),
        };
        assert_eq!(Anchor::decode(&a.encode()), Some(a));
        assert_eq!(Anchor::decode(&[0u8; 64]), None);
    }

    #[test]
    fn mode_maps_to_kind() {
        assert_eq!(SwUndo::new(SwMode::Full).kind(), SchemeKind::SwUndo);
        assert_eq!(SwUndo::new(SwMode::DpoOnly).kind(), SchemeKind::SwDpoOnly);
    }
}
