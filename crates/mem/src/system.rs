//! Memory controllers: WPQ acceptance, drain to PM, dropping, crash flush.
//!
//! Each memory channel owns a Write Pending Queue (WPQ). Per §4.1 the WPQ
//! is inside the persistence domain (ADR flushes it on power failure), so a
//! persist operation is *complete* the moment it is accepted into the WPQ.
//! The channel drains accepted entries to the PM media at a bandwidth-
//! limited service rate; entries still in the WPQ can be *dropped* by the
//! §5.1 traffic optimizations (LPO dropping, DPO dropping) and then never
//! cost PM write traffic.
//!
//! Host-side hot-path structure: every channel keeps each of its *live*
//! ops — on the wire, queued behind a full WPQ, or resting in the WPQ —
//! in one slab node, from submit until the op is written, dropped or
//! flushed. The arrival event, the pending queue and the WPQ carry the
//! node's `u32` handle, so an op's 64 data bytes are stored once. The
//! nodes are also a line-address index, so store-forwarding reads
//! ([`MemSystem::read_for_fill`]) are one hash lookup instead of a scan of
//! the WPQ, the pending queue, and the whole event queue. The WPQ is a
//! seq-ordered `VecDeque` whose front is always the in-flight entry (drain
//! picks the minimum sequence number, which is the front of a FIFO).

use std::collections::VecDeque;

use asap_pmem::{AddrMap, LineAddr, MemoryImage};
use asap_sim::{
    Counter, Cycle, Dist, EventQueue, MemConfig, StatSlots, Trace, TraceEvent, TraceSettings,
};

use crate::persist::{MemEvent, OpId, PersistKind, PersistOp};
use crate::rid::Rid;

/// An accepted WPQ entry.
#[derive(Clone, Debug)]
struct WpqSlot {
    /// The op's node in the channel's slab.
    node: u32,
    /// FIFO drain order within the channel.
    seq: u64,
    /// Acceptance time (drains after the residency window).
    accepted_at: Cycle,
}

/// The counter of a submission of `kind` (`mem.submit.<kind>`).
fn submit_counter(kind: PersistKind) -> Counter {
    match kind {
        PersistKind::Lpo => Counter::MemSubmitLpo,
        PersistKind::LogHeader => Counter::MemSubmitLogHeader,
        PersistKind::Dpo => Counter::MemSubmitDpo,
        PersistKind::WriteBack => Counter::MemSubmitWriteback,
        PersistKind::SwPersist => Counter::MemSubmitSwPersist,
        PersistKind::Marker => Counter::MemSubmitMarker,
    }
}

/// The counter of a media write of `kind` (`pm.write.<kind>`).
fn pm_write_counter(kind: PersistKind) -> Counter {
    match kind {
        PersistKind::Lpo => Counter::PmWriteLpo,
        PersistKind::LogHeader => Counter::PmWriteLogHeader,
        PersistKind::Dpo => Counter::PmWriteDpo,
        PersistKind::WriteBack => Counter::PmWriteWriteback,
        PersistKind::SwPersist => Counter::PmWriteSwPersist,
        PersistKind::Marker => Counter::PmWriteMarker,
    }
}

/// Internal channel events.
#[derive(Clone, Debug)]
enum ChEvent {
    /// The op in this slab node reaches its controller.
    Arrive(u32),
    WriteDone(OpId),
    /// Residency expiry check: start draining if an entry is overdue.
    DrainCheck,
}

/// Lanes of the memory system's event queue, one per [`ChEvent`] kind.
const EVENT_LANES: usize = 3;

impl ChEvent {
    /// This event's queue lane. Each kind fires a fixed delay after the
    /// time being handled — an arrival one hop after submit, a write-done
    /// one write service after its start, a drain check one residency
    /// window after acceptance — so each lane receives its events almost
    /// in time order (DESIGN.md §12).
    #[inline]
    fn lane(&self) -> usize {
        match self {
            ChEvent::Arrive(_) => 0,
            ChEvent::WriteDone(_) => 1,
            ChEvent::DrainCheck => 2,
        }
    }
}

/// The memory system's pending channel events, each tagged with the
/// channel that handles it.
type ChEvents = EventQueue<(u32, ChEvent), EVENT_LANES>;

/// Freelist/list terminator for the store-forward node slab.
const FWD_NIL: u32 = u32::MAX;

/// A live op's only home, and one node of its line's store-forward list;
/// slab-allocated so submitting and retiring an op never touches the heap
/// at steady state.
#[derive(Clone, Debug)]
struct FwdNode {
    id: OpId,
    op: PersistOp,
    /// Submit time, the start of the persist-latency sample.
    submitted: Cycle,
    /// Next (newer) op targeting the same line, or [`FWD_NIL`].
    next: u32,
}

/// One memory channel: WPQ plus the PM write engine.
#[derive(Clone, Debug)]
struct Channel {
    capacity: usize,
    /// Accepted entries in sequence order. When `writing` is `Some`, the
    /// in-flight entry is always the front: drain selects the minimum
    /// sequence number, acceptance appends increasing sequence numbers, and
    /// drops never remove the in-flight entry.
    wpq: VecDeque<WpqSlot>,
    /// Nodes of ops that arrived while the WPQ was full; accepted as
    /// slots free (FIFO).
    pending: VecDeque<u32>,
    /// Entry currently being written to the media, if any.
    writing: Option<OpId>,
    next_seq: u64,
    /// Store-forward index: every live op targeting this channel (on the
    /// wire, pending, or in the WPQ), per line, as a `(head, tail)` list
    /// of slab nodes in submission-id order — the newest write to a line
    /// is the tail node. Maintained on submit, media write, drop, and
    /// crash flush.
    by_line: AddrMap<LineAddr, (u32, u32)>,
    /// Node arena holding every live op, recycled through `fwd_free`.
    fwd_nodes: Vec<FwdNode>,
    fwd_free: Vec<u32>,
}

impl Channel {
    fn new(capacity: usize) -> Self {
        Channel {
            capacity,
            wpq: VecDeque::new(),
            pending: VecDeque::new(),
            writing: None,
            next_seq: 0,
            by_line: AddrMap::default(),
            fwd_nodes: Vec::new(),
            fwd_free: Vec::new(),
        }
    }

    fn has_free_slot(&self) -> bool {
        self.wpq.len() < self.capacity
    }

    /// Stores a submitted op in a slab node and adds it to the
    /// store-forward index, returning the node. Ids are monotonic, so
    /// appending at the tail keeps each per-line list sorted by id.
    fn index(&mut self, id: OpId, op: PersistOp, submitted: Cycle) -> u32 {
        let line = op.target;
        let node = FwdNode {
            id,
            op,
            submitted,
            next: FWD_NIL,
        };
        let n = match self.fwd_free.pop() {
            Some(n) => {
                self.fwd_nodes[n as usize] = node;
                n
            }
            None => {
                self.fwd_nodes.push(node);
                (self.fwd_nodes.len() - 1) as u32
            }
        };
        match self.by_line.entry(line) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let tail = e.get().1;
                self.fwd_nodes[tail as usize].next = n;
                e.get_mut().1 = n;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert((n, n));
            }
        }
        n
    }

    /// The op held by live node `n`.
    #[inline]
    fn op(&self, n: u32) -> &PersistOp {
        &self.fwd_nodes[n as usize].op
    }

    /// The newest live write to `line`, if any.
    fn newest(&self, line: LineAddr) -> Option<&[u8; 64]> {
        let (_, tail) = self.by_line.get(&line)?;
        Some(&self.op(*tail).data)
    }

    /// Every live op targeting `line` (on the wire, pending, or in the
    /// WPQ), oldest first.
    fn live_ops(&self, line: LineAddr) -> impl Iterator<Item = &PersistOp> {
        let mut cur = self.by_line.get(&line).map_or(FWD_NIL, |&(head, _)| head);
        std::iter::from_fn(move || {
            if cur == FWD_NIL {
                return None;
            }
            let node = &self.fwd_nodes[cur as usize];
            cur = node.next;
            Some(&node.op)
        })
    }

    /// Frees node `n` and removes its op from the store-forward index (it
    /// left the live set), through one probe of the line's entry.
    /// Per-line lists are short (usually one node: a drained op is the
    /// oldest for its line, i.e. the head), so the walk is effectively
    /// constant time.
    fn unindex(&mut self, n: u32) {
        let line = self.op(n).target;
        let std::collections::hash_map::Entry::Occupied(mut entry) = self.by_line.entry(line)
        else {
            panic!("live op must be indexed");
        };
        let (head, tail) = *entry.get();
        let mut prev = FWD_NIL;
        let mut cur = head;
        while cur != n {
            prev = cur;
            cur = self.fwd_nodes[cur as usize].next;
            assert_ne!(cur, FWD_NIL, "live op must be indexed");
        }
        let next = self.fwd_nodes[cur as usize].next;
        if prev == FWD_NIL {
            if next == FWD_NIL {
                entry.remove();
            } else {
                entry.get_mut().0 = next;
            }
        } else {
            self.fwd_nodes[prev as usize].next = next;
            if cur == tail {
                entry.get_mut().1 = prev;
            }
        }
        self.fwd_free.push(cur);
    }

    /// Empties the store-forward index (crash flush). The node arena and
    /// map buckets keep their capacity for reuse after recovery.
    fn clear_index(&mut self) {
        self.by_line.clear();
        self.fwd_nodes.clear();
        self.fwd_free.clear();
    }
}

/// The memory system: all channels, their WPQs, and PM/DRAM timing.
///
/// Drive it with [`submit`](Self::submit) (send a persist op), then
/// [`advance_to`](Self::advance_to) (process internal events up to a time)
/// and [`pop_event`](Self::pop_event) (collect acceptance/write
/// notifications).
///
/// # Example
///
/// ```
/// use asap_mem::{MemSystem, PersistKind, PersistOp, MemEvent};
/// use asap_pmem::{LineAddr, MemoryImage, PM_BASE};
/// use asap_sim::{Cycle, SystemConfig};
///
/// let cfg = SystemConfig::small();
/// let mut image = MemoryImage::new();
/// let mut mem = MemSystem::new(&cfg);
/// let line = LineAddr(PM_BASE / 64);
/// let op = PersistOp::new(PersistKind::Dpo, line, [9u8; 64], None);
/// mem.submit(op, Cycle(0));
/// mem.advance_to(Cycle(10_000), &mut image);
/// assert!(matches!(mem.pop_event(), Some(MemEvent::Accepted { .. })));
/// assert!(matches!(mem.pop_event(), Some(MemEvent::PmWritten { .. })));
/// assert_eq!(image.read_line(line)[0], 9);
/// ```
pub struct MemSystem {
    cfg: MemConfig,
    channels: Vec<Channel>,
    /// Every channel's pending internal events on one queue, each tagged
    /// with the channel that handles it.
    events: ChEvents,
    out: VecDeque<MemEvent>,
    next_id: u64,
    stats: StatSlots,
    trace: Trace,
    /// PM media writes per line, kept only when telemetry asks for the
    /// hottest-lines table (`None` = tracking off, zero overhead).
    line_writes: Option<AddrMap<LineAddr, u64>>,
}

/// Snapshot support: a clone carries every piece of simulation state —
/// channels (WPQ, pending, forward index + node arenas), the event
/// queue, the out queue, stats, trace, and hot-line counts — bit-exactly.
impl Clone for MemSystem {
    fn clone(&self) -> Self {
        MemSystem {
            cfg: self.cfg,
            channels: self.channels.clone(),
            events: self.events.clone(),
            out: self.out.clone(),
            next_id: self.next_id,
            stats: self.stats.clone(),
            trace: self.trace.clone(),
            line_writes: self.line_writes.clone(),
        }
    }

    /// Allocation-reusing restore: overwrites `self` in place so channel
    /// deques and index tables keep their buffers across repeated restores
    /// into the same scratch machine (a derived `clone_from` would
    /// reallocate every field).
    fn clone_from(&mut self, src: &Self) {
        self.cfg = src.cfg;
        self.channels.clone_from(&src.channels);
        self.events.clone_from(&src.events);
        self.out.clone_from(&src.out);
        self.next_id = src.next_id;
        self.stats.clone_from(&src.stats);
        self.trace.clone_from(&src.trace);
        self.line_writes.clone_from(&src.line_writes);
    }
}

impl MemSystem {
    /// Builds the memory system from a full system configuration.
    pub fn new(cfg: &asap_sim::SystemConfig) -> Self {
        let mem = cfg.mem;
        let n = mem.num_channels();
        MemSystem {
            cfg: mem,
            channels: (0..n)
                .map(|_| Channel::new(mem.wpq_entries as usize))
                .collect(),
            events: EventQueue::new(),
            out: VecDeque::new(),
            next_id: 0,
            stats: StatSlots::new(),
            trace: Trace::disabled(),
            line_writes: None,
        }
    }

    /// Reconfigures event tracing (records `WpqAccept`/`WpqDrain` with the
    /// channel as the trace thread id).
    pub fn set_trace_settings(&mut self, settings: TraceSettings) {
        self.trace = Trace::new(settings);
    }

    /// Turns per-line PM write counting on or off (the telemetry report's
    /// hottest-lines table). Off by default; resets counts when toggled.
    pub fn set_hot_line_tracking(&mut self, on: bool) {
        self.line_writes = on.then(AddrMap::default);
    }

    /// The `n` most-written PM lines as `(line, media_writes)`, hottest
    /// first (ties by line address). Empty unless tracking is on.
    pub fn hottest_lines(&self, n: usize) -> Vec<(u64, u64)> {
        let Some(map) = &self.line_writes else {
            return Vec::new();
        };
        let mut v: Vec<(u64, u64)> = map.iter().map(|(l, c)| (l.0, *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// The memory-side event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The channel serving `line` (interleaved by line address).
    pub fn channel_of(&self, line: LineAddr) -> u32 {
        (line.0 % self.channels.len() as u64) as u32
    }

    /// Submits a persist operation at time `now`; it arrives at its channel
    /// one on-chip hop later. Returns the op's id.
    pub fn submit(&mut self, op: PersistOp, now: Cycle) -> OpId {
        let id = OpId(self.next_id);
        self.next_id += 1;
        let ch = self.channel_of(op.target);
        self.stats.bump(submit_counter(op.kind));
        let node = self.channels[ch as usize].index(id, op, now);
        let ev = ChEvent::Arrive(node);
        self.events
            .push(ev.lane(), now + self.cfg.mc_hop_latency, (ch, ev));
        id
    }

    /// Latency of a demand read of `line` (beyond the LLC lookup): one hop
    /// to the controller plus the media access.
    pub fn read_latency(&self, line: LineAddr) -> u64 {
        let media = if line.is_pm_region() {
            self.cfg.pm_latency()
        } else {
            self.cfg.dram_latency
        };
        self.cfg.mc_hop_latency + media
    }

    /// Reads `line` for a cache fill, forwarding the newest matching write
    /// wherever it currently is — resting in the WPQ, queued behind a full
    /// WPQ, or still on the wire to its controller — before falling back
    /// to the image. (A line evicted and immediately re-read must observe
    /// its own writeback.) Returns the line data and its page-table
    /// persistent bit.
    pub fn read_for_fill(&mut self, line: LineAddr, image: &MemoryImage) -> ([u8; 64], bool) {
        let ch = &self.channels[self.channel_of(line) as usize];
        // The per-line node list is in submission order, so the newest
        // matching write — wherever it currently travels — is the tail.
        let newest = ch.newest(line);
        let pbit = image.line_is_persistent(line);
        match newest {
            Some(data) => {
                let data = *data;
                self.stats.bump(Counter::MemReadForwarded);
                (data, pbit)
            }
            None => (image.read_line(line), pbit),
        }
    }

    /// Whether no persist op is live on any channel — on the wire,
    /// queued behind a full WPQ, or resting in a WPQ — so
    /// [`read_for_fill`](Self::read_for_fill) forwards nothing and every
    /// line reads as the image holds it.
    pub fn forwards_nothing(&self) -> bool {
        self.channels.iter().all(|c| c.by_line.is_empty())
    }

    /// Advances internal channel state to `now`, applying media writes to
    /// `image` and queueing [`MemEvent`]s for [`pop_event`](Self::pop_event).
    pub fn advance_to(&mut self, now: Cycle, image: &mut MemoryImage) {
        while let Some((t, (ch, ev))) = self.events.pop_until(now) {
            self.handle(t, ch as usize, ev, image);
        }
    }

    /// Next internal event time, if any work is outstanding.
    pub fn next_event_time(&self) -> Option<Cycle> {
        self.events.peek_time()
    }

    /// Pops the next acceptance / PM-write notification.
    pub fn pop_event(&mut self) -> Option<MemEvent> {
        self.out.pop_front()
    }

    /// Whether all channels are fully drained and no events are pending.
    pub fn is_idle(&self) -> bool {
        self.events.is_empty()
            && self.out.is_empty()
            && self
                .channels
                .iter()
                .all(|c| c.wpq.is_empty() && c.pending.is_empty() && c.writing.is_none())
    }

    /// Dispatches one channel event.
    fn handle(&mut self, t: Cycle, ch_idx: usize, ev: ChEvent, image: &mut MemoryImage) {
        let mut fx = DirectFx {
            out: &mut self.out,
            image: Some(image),
            stats: &mut self.stats,
            hot: self.line_writes.as_mut(),
            trace: &mut self.trace,
            events: &mut self.events,
            channel: ch_idx as u32,
        };
        handle_ch(&self.cfg, &mut self.channels[ch_idx], &mut fx, t, ev);
    }

    /// Accepts a pending arrival into a slot a drop just freed (never
    /// writes media, so no image is needed).
    fn accept_refill(&mut self, t: Cycle, ch_idx: usize, node: u32) {
        let mut fx = DirectFx {
            out: &mut self.out,
            image: None,
            stats: &mut self.stats,
            hot: self.line_writes.as_mut(),
            trace: &mut self.trace,
            events: &mut self.events,
            channel: ch_idx as u32,
        };
        accept_ch(&self.cfg, &mut self.channels[ch_idx], &mut fx, t, node);
    }

    /// Drops a committed region's log writes (LPOs and log headers) still
    /// sitting in WPQs — LPO dropping, §5.1. Returns how many were dropped.
    pub fn drop_log_writes_of(&mut self, rid: Rid) -> u64 {
        let mut dropped = 0;
        for ch_idx in 0..self.channels.len() {
            dropped += self.drop_matching(ch_idx, |op| {
                matches!(op.kind, PersistKind::Lpo | PersistKind::LogHeader) && op.rid == Some(rid)
            });
        }
        self.stats.add(Counter::PmDropLpo, dropped);
        dropped
    }

    /// Drops an earlier region's pending DPO to `line` when a later
    /// region's LPO for the same line arrives (they carry the same bytes) —
    /// DPO dropping, §5.1. Returns how many were dropped (0 or 1).
    ///
    /// The line's live ops are looked up in the store-forward index
    /// first, and the WPQ is scanned only when one of them is another
    /// region's DPO (an op that is not live is not in the WPQ).
    pub fn drop_pending_dpo(&mut self, line: LineAddr, later_region: Rid) -> u64 {
        let ch_idx = self.channel_of(line) as usize;
        let earlier_dpo =
            |op: &PersistOp| op.kind == PersistKind::Dpo && op.rid != Some(later_region);
        if !self.channels[ch_idx].live_ops(line).any(earlier_dpo) {
            return 0;
        }
        let dropped = self.drop_matching(ch_idx, |op| op.target == line && earlier_dpo(op));
        self.stats.add(Counter::PmDropDpo, dropped);
        dropped
    }

    /// Removes all non-in-flight WPQ slots matching `pred`; frees slots are
    /// refilled from the pending queue. Dropped ops emit no events.
    fn drop_matching(&mut self, ch_idx: usize, pred: impl Fn(&PersistOp) -> bool) -> u64 {
        let ch = &mut self.channels[ch_idx];
        let writing = ch.writing;
        let nodes = &ch.fwd_nodes;
        let mut removed: Vec<u32> = Vec::new();
        ch.wpq.retain(|s| {
            let n = &nodes[s.node as usize];
            if Some(n.id) == writing || !pred(&n.op) {
                true
            } else {
                removed.push(s.node);
                false
            }
        });
        let dropped = removed.len() as u64;
        for n in removed {
            ch.unindex(n);
        }
        for _ in 0..dropped {
            if !self.channels[ch_idx].has_free_slot() {
                break;
            }
            match self.channels[ch_idx].pending.pop_front() {
                Some(node) => {
                    // Accept at the time the channel last made progress; we
                    // use the next event horizon conservatively: acceptance
                    // is immediate bookkeeping, timestamped "now-ish" via
                    // the earliest pending event or zero. The scheme only
                    // cares about ordering, which is preserved.
                    let t = self.events.peek_time().unwrap_or(Cycle::ZERO);
                    self.accept_refill(t, ch_idx, node);
                }
                None => break,
            }
        }
        dropped
    }

    /// Power failure: ADR flushes every accepted WPQ entry (including the
    /// in-flight one) to the media. Unaccepted pending arrivals are lost.
    /// Internal state is cleared.
    pub fn flush_to_image(&mut self, image: &mut MemoryImage) {
        for ch in &mut self.channels {
            // The WPQ is kept in seq order, so iterating front-to-back
            // applies same-line writes oldest-first (the newest wins).
            let slots = std::mem::take(&mut ch.wpq);
            debug_assert!(slots
                .iter()
                .zip(slots.iter().skip(1))
                .all(|(a, b)| a.seq < b.seq));
            for s in &slots {
                let op = ch.op(s.node);
                image.write_line(op.target, &op.data);
                self.stats.bump(Counter::CrashFlushed);
            }
            let lost = ch.pending.len() as u64;
            self.stats.add(Counter::CrashLostUnaccepted, lost);
            ch.pending.clear();
            ch.writing = None;
            // Every live op either reached the image (WPQ) or was lost
            // (pending / on the wire): nothing is forwardable any more.
            ch.clear_index();
        }
        // Ops still travelling to their controller (unprocessed arrival
        // events) never reached the persistence domain either. Counting
        // needs no order, so the queue is emptied in place.
        let on_the_wire = self
            .events
            .drain()
            .filter(|(_, (_, ev))| matches!(ev, ChEvent::Arrive(..)))
            .count();
        self.stats
            .add(Counter::CrashLostUnaccepted, on_the_wire as u64);
        self.out.clear();
    }

    /// WPQ occupancy of channel `ch` (accepted entries).
    pub fn wpq_len(&self, ch: u32) -> usize {
        self.channels[ch as usize].wpq.len()
    }

    /// Unaccepted arrivals queued at channel `ch`.
    pub fn pending_len(&self, ch: u32) -> usize {
        self.channels[ch as usize].pending.len()
    }

    /// Number of channels.
    pub fn num_channels(&self) -> u32 {
        self.channels.len() as u32
    }

    /// Statistics accumulated by the memory system.
    pub fn stats(&self) -> &StatSlots {
        &self.stats
    }

    /// High-water mark of the op node slab across channels. The slab only
    /// grows (freed nodes go to a freelist), so its length *is* the
    /// high-water mark of concurrently live ops per channel.
    pub fn fwd_slab_hwm(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.fwd_nodes.len() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Counts DRAM traffic for a dirty non-PM writeback (fire-and-forget:
    /// DRAM writes are not persist operations and skip the WPQ).
    pub fn dram_writeback(&mut self, image: &mut MemoryImage, line: LineAddr, data: &[u8; 64]) {
        image.write_line(line, data);
        self.stats.bump(Counter::DramWriteWriteback);
    }
}

impl std::fmt::Debug for MemSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemSystem")
            .field("channels", &self.channels.len())
            .field("pending_events", &self.events.len())
            .finish()
    }
}

/// Effect sink for the per-channel handlers ([`handle_ch`], [`accept_ch`],
/// [`maybe_start_write_ch`]): the [`MemSystem`] fields a channel event may
/// touch besides its own channel, borrowed next to it.
struct DirectFx<'a> {
    out: &'a mut VecDeque<MemEvent>,
    /// `None` only on the drop-refill acceptance path, which never writes
    /// media.
    image: Option<&'a mut MemoryImage>,
    stats: &'a mut StatSlots,
    hot: Option<&'a mut AddrMap<LineAddr, u64>>,
    trace: &'a mut Trace,
    events: &'a mut ChEvents,
    /// The channel whose event is being handled.
    channel: u32,
}

impl DirectFx<'_> {
    /// Emits an externally visible memory event.
    fn emit(&mut self, ev: MemEvent) {
        self.out.push_back(ev);
    }

    /// Applies a PM media write.
    fn write_line(&mut self, line: LineAddr, data: &[u8; 64]) {
        self.image
            .as_mut()
            .expect("media write outside an advance window")
            .write_line(line, data);
    }

    /// Counts a media write against the hottest-lines table, if tracking.
    fn hot_line(&mut self, line: LineAddr) {
        if let Some(map) = self.hot.as_mut() {
            *map.entry(line).or_insert(0) += 1;
        }
    }

    /// Records a trace event against this channel.
    fn trace(&mut self, at: Cycle, ev: TraceEvent) {
        self.trace.emit(at, self.channel, ev);
    }

    /// Schedules a follow-up event on this channel.
    fn push_event(&mut self, at: Cycle, ev: ChEvent) {
        self.events.push(ev.lane(), at, (self.channel, ev));
    }
}

/// Handles one channel event.
fn handle_ch(cfg: &MemConfig, ch: &mut Channel, fx: &mut DirectFx<'_>, t: Cycle, ev: ChEvent) {
    match ev {
        ChEvent::Arrive(node) => {
            if ch.has_free_slot() {
                accept_ch(cfg, ch, fx, t, node);
            } else {
                ch.pending.push_back(node);
                fx.stats.bump(Counter::MemWpqFullArrival);
            }
            maybe_start_write_ch(cfg, ch, fx, t);
        }
        ChEvent::WriteDone(id) => {
            debug_assert_eq!(ch.writing, Some(id), "write-done for wrong op");
            ch.writing = None;
            let slot = ch.wpq.pop_front().expect("in-flight slot missing");
            let op = *ch.op(slot.node);
            debug_assert_eq!(
                ch.fwd_nodes[slot.node as usize].id, id,
                "in-flight slot must be the front"
            );
            ch.unindex(slot.node);
            fx.write_line(op.target, &op.data);
            fx.stats.bump(pm_write_counter(op.kind));
            fx.stats.bump(Counter::PmWriteTotal);
            fx.hot_line(op.target);
            let residency = t.since(slot.accepted_at);
            fx.stats.sample(Dist::MemWpqResidencyCycles, residency);
            fx.trace(
                t,
                TraceEvent::WpqDrain {
                    channel: fx.channel,
                    kind: op.kind.name(),
                    residency,
                },
            );
            fx.emit(MemEvent::PmWritten {
                id,
                op: op.summary(),
                at: t,
            });
            // A slot freed: accept the oldest pending arrival, if any.
            if let Some(node) = ch.pending.pop_front() {
                accept_ch(cfg, ch, fx, t, node);
            }
            maybe_start_write_ch(cfg, ch, fx, t);
        }
        ChEvent::DrainCheck => {
            maybe_start_write_ch(cfg, ch, fx, t);
        }
    }
}

/// Accepts the op in `node` into the channel's WPQ — the §4.1
/// durability point.
fn accept_ch(cfg: &MemConfig, ch: &mut Channel, fx: &mut DirectFx<'_>, t: Cycle, node: u32) {
    debug_assert!(ch.has_free_slot());
    let seq = ch.next_seq;
    ch.next_seq += 1;
    ch.wpq.push_back(WpqSlot {
        node,
        seq,
        accepted_at: t,
    });
    let n = &ch.fwd_nodes[node as usize];
    let (id, op, submitted) = (n.id, n.op.summary(), n.submitted);
    fx.stats.sample(Dist::MemWpqOccupancy, ch.wpq.len() as u64);
    // Persist latency: submit to persistence-domain acceptance (the
    // durability point under ADR, §4.1).
    fx.stats.sample(Dist::MemPersistLatency, t.since(submitted));
    fx.trace(
        t,
        TraceEvent::WpqAccept {
            channel: fx.channel,
            kind: op.kind.name(),
        },
    );
    if cfg.wpq_residency > 0 {
        // Lazy drain: revisit this entry when its residency expires.
        fx.push_event(t + cfg.wpq_residency, ChEvent::DrainCheck);
    }
    fx.emit(MemEvent::Accepted {
        id,
        op,
        at: t,
        ack_at: t + cfg.mc_hop_latency,
    });
}

/// Starts draining if warranted: always when an entry is past its
/// residency window or the queue is above the watermark; immediately
/// when residency is 0 (eager mode).
fn maybe_start_write_ch(cfg: &MemConfig, ch: &mut Channel, fx: &mut DirectFx<'_>, t: Cycle) {
    if ch.writing.is_some() {
        return;
    }
    // No write in flight, so the oldest (minimum-seq) entry is the
    // front of the seq-ordered queue.
    let Some(slot) = ch.wpq.front() else {
        return;
    };
    let residency = cfg.wpq_residency;
    let due = residency == 0
        || ch.wpq.len() >= cfg.wpq_drain_watermark as usize
        || slot.accepted_at + residency <= t;
    if due {
        let id = ch.fwd_nodes[slot.node as usize].id;
        ch.writing = Some(id);
        fx.push_event(t + cfg.pm_write_service(), ChEvent::WriteDone(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_pmem::PM_BASE;
    use asap_sim::SystemConfig;

    fn pm_line(i: u64) -> LineAddr {
        LineAddr(PM_BASE / 64 + i)
    }

    /// Small config with the hop pinned to 16 cycles and eager draining so
    /// the exact-time assertions below stay readable.
    fn test_cfg() -> SystemConfig {
        let mut c = SystemConfig::small();
        c.mem.mc_hop_latency = 16;
        c.mem.wpq_residency = 0;
        c
    }

    fn setup() -> (MemSystem, MemoryImage) {
        (MemSystem::new(&test_cfg()), MemoryImage::new())
    }

    fn dpo(line: LineAddr, byte: u8, rid: Option<Rid>) -> PersistOp {
        PersistOp::new(PersistKind::Dpo, line, [byte; 64], rid)
    }

    #[test]
    fn accept_then_write_reaches_image() {
        let (mut mem, mut image) = setup();
        mem.submit(dpo(pm_line(0), 5, None), Cycle(0));
        mem.advance_to(Cycle(100_000), &mut image);
        let mut accepted = 0;
        let mut written = 0;
        while let Some(e) = mem.pop_event() {
            match e {
                MemEvent::Accepted { at, ack_at, .. } => {
                    accepted += 1;
                    assert_eq!(at, Cycle(16)); // one hop
                    assert_eq!(ack_at, Cycle(32));
                }
                MemEvent::PmWritten { at, .. } => {
                    written += 1;
                    assert_eq!(at, Cycle(16 + 12)); // + write service
                }
            }
        }
        assert_eq!((accepted, written), (1, 1));
        assert_eq!(image.read_line(pm_line(0))[0], 5);
        assert!(mem.is_idle());
    }

    #[test]
    fn wpq_backpressure_queues_arrivals() {
        let mut cfg = test_cfg();
        cfg.mem.wpq_entries = 2;
        cfg.mem.controllers = 1;
        cfg.mem.channels_per_mc = 1;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        for i in 0..5 {
            mem.submit(dpo(pm_line(i), i as u8, None), Cycle(0));
        }
        // Advance just past arrival: only 2 accepted, 3 pending.
        mem.advance_to(Cycle(16), &mut image);
        assert_eq!(mem.wpq_len(0), 2);
        assert_eq!(mem.pending_len(0), 3);
        // Full drain accepts and writes everything.
        mem.advance_to(Cycle(100_000), &mut image);
        assert_eq!(mem.wpq_len(0), 0);
        assert_eq!(mem.stats().get(Counter::PmWriteTotal), 5);
        assert_eq!(mem.stats().get(Counter::MemWpqFullArrival), 3);
    }

    #[test]
    fn drain_is_bandwidth_limited() {
        let mut cfg = test_cfg();
        cfg.mem.controllers = 1;
        cfg.mem.channels_per_mc = 1;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        for i in 0..4 {
            mem.submit(dpo(pm_line(i), 0, None), Cycle(0));
        }
        mem.advance_to(Cycle(1_000_000), &mut image);
        let mut last_write = Cycle::ZERO;
        let mut writes = Vec::new();
        while let Some(e) = mem.pop_event() {
            if let MemEvent::PmWritten { at, .. } = e {
                writes.push(at);
                last_write = at;
            }
        }
        assert_eq!(writes.len(), 4);
        // Serial service: 16 (hop) + 12*k.
        assert_eq!(last_write, Cycle(16 + 12 * 4));
    }

    #[test]
    fn pm_latency_multiplier_slows_service() {
        let cfg = test_cfg().with_pm_latency_mult(4);
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        mem.submit(dpo(pm_line(0), 0, None), Cycle(0));
        mem.advance_to(Cycle(1_000_000), &mut image);
        let mut written_at = None;
        while let Some(e) = mem.pop_event() {
            if let MemEvent::PmWritten { at, .. } = e {
                written_at = Some(at);
            }
        }
        assert_eq!(written_at, Some(Cycle(16 + 48)));
        assert_eq!(mem.read_latency(pm_line(0)), 16 + 600);
        assert_eq!(mem.read_latency(LineAddr(0)), 16 + 150); // DRAM side
    }

    #[test]
    fn read_forwards_from_wpq() {
        let (mut mem, mut image) = setup();
        image.write_line(pm_line(8), &[1u8; 64]);
        mem.submit(dpo(pm_line(8), 2, None), Cycle(0));
        mem.advance_to(Cycle(17), &mut image); // accepted, not yet written
        let (data, _) = mem.read_for_fill(pm_line(8), &image);
        assert_eq!(data[0], 2);
        assert_eq!(mem.stats().get(Counter::MemReadForwarded), 1);
    }

    #[test]
    fn read_forwards_newest_entry() {
        let mut cfg = test_cfg();
        cfg.mem.wpq_entries = 1;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        mem.submit(dpo(pm_line(4), 1, None), Cycle(0));
        mem.submit(dpo(pm_line(4), 2, None), Cycle(0));
        mem.advance_to(Cycle(16), &mut image); // first accepted, second pending
        let (data, _) = mem.read_for_fill(pm_line(4), &image);
        assert_eq!(data[0], 2, "must forward the newest (pending) write");
    }

    #[test]
    fn read_forwards_from_ops_still_on_the_wire() {
        let (mut mem, mut image) = setup();
        image.write_line(pm_line(8), &[1u8; 64]);
        mem.submit(dpo(pm_line(8), 3, None), Cycle(0));
        // Do NOT advance: the op has not even arrived at its controller.
        let (data, _) = mem.read_for_fill(pm_line(8), &image);
        assert_eq!(
            data[0], 3,
            "a just-evicted line must read its own writeback"
        );
    }

    #[test]
    fn forwarding_stops_once_the_write_reaches_media() {
        let (mut mem, mut image) = setup();
        mem.submit(dpo(pm_line(8), 4, None), Cycle(0));
        mem.advance_to(Cycle(100_000), &mut image); // accepted and drained
        let (data, _) = mem.read_for_fill(pm_line(8), &image);
        assert_eq!(data[0], 4, "data now comes from the image");
        assert_eq!(
            mem.stats().get(Counter::MemReadForwarded),
            0,
            "a drained op must leave the store-forward index"
        );
    }

    #[test]
    fn dropped_op_is_not_forwarded() {
        let (mut mem, mut image) = setup();
        let r1 = Rid::new(0, 1);
        let r2 = Rid::new(0, 2);
        image.write_line(pm_line(0), &[9u8; 64]);
        // Sacrificial op occupies the write engine so the next one stays
        // droppable in the WPQ.
        mem.submit(dpo(pm_line(4), 0, None), Cycle(0));
        mem.submit(dpo(pm_line(0), 1, Some(r1)), Cycle(0));
        mem.advance_to(Cycle(16), &mut image);
        assert_eq!(mem.drop_pending_dpo(pm_line(0), r2), 1);
        let (data, _) = mem.read_for_fill(pm_line(0), &image);
        assert_eq!(data[0], 9, "dropped write must not forward; image wins");
        assert_eq!(mem.stats().get(Counter::MemReadForwarded), 0);
    }

    #[test]
    fn crash_flush_clears_the_forward_index() {
        let mut cfg = test_cfg();
        cfg.mem.wpq_entries = 1;
        cfg.mem.controllers = 1;
        cfg.mem.channels_per_mc = 1;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        mem.submit(dpo(pm_line(0), 1, None), Cycle(0));
        mem.submit(dpo(pm_line(1), 2, None), Cycle(0)); // stays pending
        mem.advance_to(Cycle(16), &mut image);
        mem.flush_to_image(&mut image);
        // Neither the flushed op (now in the image) nor the lost pending
        // op may forward after the crash.
        let (a, _) = mem.read_for_fill(pm_line(0), &image);
        let (b, _) = mem.read_for_fill(pm_line(1), &image);
        assert_eq!((a[0], b[0]), (1, 0));
        assert_eq!(mem.stats().get(Counter::MemReadForwarded), 0);
    }

    #[test]
    fn read_falls_back_to_image() {
        let (mut mem, mut image) = setup();
        image.write_line(pm_line(3), &[9u8; 64]);
        image.mark_persistent(pm_line(3).base(), 64);
        let (data, pbit) = mem.read_for_fill(pm_line(3), &image);
        assert_eq!(data[0], 9);
        assert!(pbit);
    }

    #[test]
    fn lpo_dropping_removes_region_log_writes() {
        let (mut mem, mut image) = setup();
        let rid = Rid::new(0, 1);
        let nch = mem.num_channels() as u64;
        // All ops on one channel; the first occupies the write engine so
        // the rest stay droppable in the WPQ.
        mem.submit(dpo(pm_line(0), 0, None), Cycle(0));
        mem.submit(
            PersistOp::new(PersistKind::Lpo, pm_line(nch), [1; 64], Some(rid)),
            Cycle(0),
        );
        mem.submit(
            PersistOp::new(PersistKind::LogHeader, pm_line(2 * nch), [2; 64], Some(rid)),
            Cycle(0),
        );
        mem.submit(dpo(pm_line(3 * nch), 3, Some(rid)), Cycle(0));
        mem.advance_to(Cycle(16), &mut image); // all accepted, first in flight
        while mem.pop_event().is_some() {}
        let dropped = mem.drop_log_writes_of(rid);
        assert_eq!(dropped, 2, "both log writes dropped");
        mem.advance_to(Cycle(100_000), &mut image);
        let log_writes =
            mem.stats().get(Counter::PmWriteLpo) + mem.stats().get(Counter::PmWriteLogHeader);
        assert_eq!(log_writes, 0);
        assert_eq!(mem.stats().get(Counter::PmWriteDpo), 2); // DPOs untouched
    }

    #[test]
    fn dpo_dropping_matches_line_and_skips_own_region() {
        let (mut mem, mut image) = setup();
        let r1 = Rid::new(0, 1);
        let r2 = Rid::new(0, 2);
        // Occupy the write engine with an unrelated sacrificial op so the
        // DPO of interest stays droppable (not in flight).
        mem.submit(dpo(pm_line(4), 0, None), Cycle(0));
        mem.submit(dpo(pm_line(0), 1, Some(r1)), Cycle(0));
        mem.advance_to(Cycle(16), &mut image);
        assert_eq!(
            mem.drop_pending_dpo(pm_line(0), r1),
            0,
            "own region's DPO kept"
        );
        assert_eq!(mem.drop_pending_dpo(pm_line(8), r2), 0, "other line kept");
        assert_eq!(
            mem.drop_pending_dpo(pm_line(0), r2),
            1,
            "earlier region's DPO dropped"
        );
        mem.advance_to(Cycle(100_000), &mut image);
        assert_eq!(mem.stats().get(Counter::PmWriteDpo), 1); // only sacrificial one
        assert_eq!(mem.stats().get(Counter::PmDropDpo), 1);
    }

    #[test]
    fn dpo_drop_exits_early_unless_an_earlier_dpo_rests_in_the_wpq() {
        let mut cfg = test_cfg();
        cfg.mem.wpq_entries = 2;
        cfg.mem.controllers = 1;
        cfg.mem.channels_per_mc = 1;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        let (r1, r2) = (Rid::new(0, 1), Rid::new(0, 2));
        // The sacrificial op goes in flight; r1's DPO of line 0 rests in
        // the WPQ, which is then full, so r1's DPO of line 1 waits in the
        // pending queue; r1's DPO of line 2 is still on the wire.
        mem.submit(dpo(pm_line(4), 0, None), Cycle(0));
        mem.submit(dpo(pm_line(0), 1, Some(r1)), Cycle(0));
        mem.submit(dpo(pm_line(1), 2, Some(r1)), Cycle(0));
        mem.advance_to(Cycle(16), &mut image);
        mem.submit(dpo(pm_line(2), 3, Some(r1)), Cycle(16));
        assert_eq!((mem.wpq_len(0), mem.pending_len(0)), (2, 1));
        let wpq =
            |mem: &MemSystem| -> Vec<u64> { mem.channels[0].wpq.iter().map(|s| s.seq).collect() };
        let before = wpq(&mem);
        for (line, later) in [(0, r1), (1, r2), (2, r2), (3, r2)] {
            assert_eq!(
                mem.drop_pending_dpo(pm_line(line), later),
                0,
                "line {line}: same region, pending, on the wire, or no op"
            );
            assert_eq!(wpq(&mem), before, "line {line}: WPQ untouched");
            assert_eq!(mem.pending_len(0), 1);
        }
        assert_eq!(
            mem.drop_pending_dpo(pm_line(0), r2),
            1,
            "earlier region's DPO dropped"
        );
        assert_eq!(mem.stats().get(Counter::PmDropDpo), 1);
        // The freed slot took the pending DPO of line 1.
        assert_eq!((mem.wpq_len(0), mem.pending_len(0)), (2, 0));
    }

    #[test]
    fn crash_flush_applies_accepted_discards_pending() {
        let mut cfg = test_cfg();
        cfg.mem.wpq_entries = 1;
        cfg.mem.controllers = 1;
        cfg.mem.channels_per_mc = 1;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        mem.submit(dpo(pm_line(0), 1, None), Cycle(0));
        mem.submit(dpo(pm_line(1), 2, None), Cycle(0));
        mem.advance_to(Cycle(16), &mut image); // first accepted, second pending
        mem.flush_to_image(&mut image);
        assert_eq!(
            image.read_line(pm_line(0))[0],
            1,
            "accepted entry flushed (ADR)"
        );
        assert_eq!(image.read_line(pm_line(1))[0], 0, "unaccepted entry lost");
        assert_eq!(mem.stats().get(Counter::CrashFlushed), 1);
        assert_eq!(mem.stats().get(Counter::CrashLostUnaccepted), 1);
        assert!(mem.is_idle());
    }

    #[test]
    fn same_line_writes_apply_in_order_on_flush() {
        let (mut mem, mut image) = setup();
        mem.submit(dpo(pm_line(0), 1, None), Cycle(0));
        mem.submit(dpo(pm_line(0), 2, None), Cycle(0));
        mem.advance_to(Cycle(16), &mut image);
        mem.flush_to_image(&mut image);
        assert_eq!(image.read_line(pm_line(0))[0], 2, "newest write wins");
    }

    #[test]
    fn channel_interleaving_by_line() {
        let (mem, _) = setup();
        let n = mem.num_channels() as u64;
        assert!(n >= 2);
        assert_ne!(mem.channel_of(LineAddr(0)), mem.channel_of(LineAddr(1)));
        assert_eq!(mem.channel_of(LineAddr(0)), mem.channel_of(LineAddr(n)));
    }

    #[test]
    fn lazy_drain_waits_for_residency() {
        let mut cfg = test_cfg();
        cfg.mem.wpq_residency = 500;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        mem.submit(dpo(pm_line(0), 1, None), Cycle(0));
        // Long after acceptance but before residency expiry: still queued.
        mem.advance_to(Cycle(400), &mut image);
        assert_eq!(
            mem.stats().get(Counter::PmWriteTotal),
            0,
            "write rests in WPQ"
        );
        assert_eq!(mem.wpq_len(mem.channel_of(pm_line(0))), 1);
        // After expiry it drains.
        mem.advance_to(Cycle(10_000), &mut image);
        assert_eq!(mem.stats().get(Counter::PmWriteTotal), 1);
        assert_eq!(image.read_line(pm_line(0))[0], 1);
    }

    #[test]
    fn lazy_drain_gives_drops_a_window() {
        let mut cfg = test_cfg();
        cfg.mem.wpq_residency = 1000;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        let rid = Rid::new(0, 1);
        mem.submit(
            PersistOp::new(PersistKind::Lpo, pm_line(0), [1; 64], Some(rid)),
            Cycle(0),
        );
        mem.advance_to(Cycle(200), &mut image); // accepted, resting
        assert_eq!(mem.drop_log_writes_of(rid), 1, "droppable while resting");
        mem.advance_to(Cycle(10_000), &mut image);
        assert_eq!(
            mem.stats().get(Counter::PmWriteTotal),
            0,
            "dropped, never written"
        );
    }

    #[test]
    fn watermark_overrides_residency() {
        let mut cfg = test_cfg();
        cfg.mem.wpq_residency = 100_000;
        cfg.mem.wpq_drain_watermark = 2;
        cfg.mem.controllers = 1;
        cfg.mem.channels_per_mc = 1;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        for i in 0..4 {
            mem.submit(dpo(pm_line(i), i as u8, None), Cycle(0));
        }
        // Occupancy (4) exceeds the watermark (2): drains without waiting
        // out the residency.
        mem.advance_to(Cycle(5_000), &mut image);
        assert!(mem.stats().get(Counter::PmWriteTotal) >= 2);
    }

    /// An event is a channel index plus a node handle or an op id; the
    /// micro benches' `event_queue_*` payloads (`[u64; 3]`) match it.
    #[test]
    fn channel_events_are_24_bytes() {
        assert_eq!(std::mem::size_of::<(u32, ChEvent)>(), 24);
    }

    /// A memory event carries its op's summary, not the op's data bytes.
    #[test]
    fn mem_events_are_64_bytes() {
        assert_eq!(std::mem::size_of::<MemEvent>(), 64);
    }

    #[test]
    fn dram_writeback_is_immediate() {
        let (mut mem, mut image) = setup();
        mem.dram_writeback(&mut image, LineAddr(5), &[3u8; 64]);
        assert_eq!(image.read_line(LineAddr(5))[0], 3);
        assert_eq!(mem.stats().get(Counter::DramWriteWriteback), 1);
        assert_eq!(mem.stats().get(Counter::PmWriteTotal), 0);
    }

    #[test]
    fn fwd_slab_reuses_nodes_after_drain() {
        let mut cfg = test_cfg();
        cfg.mem.controllers = 1;
        cfg.mem.channels_per_mc = 1;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        // Warm up: a burst of ops grows the node slab, then drains fully.
        for round in 0..3u64 {
            for i in 0..8 {
                mem.submit(dpo(pm_line(i), round as u8, None), Cycle(round * 10_000));
            }
            mem.advance_to(Cycle((round + 1) * 10_000 - 1), &mut image);
        }
        let ch = &mem.channels[0];
        assert!(ch.by_line.is_empty(), "all ops drained");
        let arena = ch.fwd_nodes.len();
        assert_eq!(ch.fwd_free.len(), arena, "every node back on the freelist");
        // Steady state: the same traffic shape must not grow the arena.
        for i in 0..8 {
            mem.submit(dpo(pm_line(i), 9, None), Cycle(40_000));
        }
        mem.advance_to(Cycle(50_000), &mut image);
        let ch = &mem.channels[0];
        assert_eq!(ch.fwd_nodes.len(), arena, "nodes recycled, none allocated");
        assert_eq!(ch.fwd_free.len(), arena);
    }

    #[test]
    fn fwd_slab_resets_on_crash_flush() {
        let (mut mem, mut image) = setup();
        for i in 0..6 {
            mem.submit(dpo(pm_line(i), i as u8, None), Cycle(0));
        }
        mem.advance_to(Cycle(20), &mut image); // some accepted, none drained
        mem.flush_to_image(&mut image);
        for ch in &mem.channels {
            assert!(ch.by_line.is_empty(), "index emptied by crash flush");
            assert!(ch.fwd_nodes.is_empty());
            assert!(ch.fwd_free.is_empty());
        }
        // Post-recovery traffic rebuilds the index from scratch.
        mem.submit(dpo(pm_line(0), 7, None), Cycle(100));
        let (data, _) = mem.read_for_fill(pm_line(0), &image);
        assert_eq!(data[0], 7);
    }

    #[test]
    fn fwd_list_removal_handles_middle_and_tail() {
        // Three live ops on one line (wpq_entries=1 keeps two pending), then
        // drain them one at a time: unindex removes head, middle, and tail
        // positions while read_for_fill keeps seeing the newest write.
        let mut cfg = test_cfg();
        cfg.mem.wpq_entries = 1;
        cfg.mem.controllers = 1;
        cfg.mem.channels_per_mc = 1;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        mem.submit(dpo(pm_line(0), 1, None), Cycle(0));
        mem.submit(dpo(pm_line(0), 2, None), Cycle(0));
        mem.submit(dpo(pm_line(0), 3, None), Cycle(0));
        for _ in 0..3 {
            let (data, _) = mem.read_for_fill(pm_line(0), &image);
            assert_eq!(data[0], 3, "newest live write forwards");
            let before = mem.stats().get(Counter::PmWriteTotal);
            let mut t = 16;
            while mem.stats().get(Counter::PmWriteTotal) == before {
                t += 1;
                mem.advance_to(Cycle(t), &mut image);
                assert!(t < 1_000_000, "drain must make progress");
            }
        }
        assert!(mem.channels[0].by_line.is_empty());
        assert_eq!(image.read_line(pm_line(0))[0], 3, "newest wins on media");
    }
}
