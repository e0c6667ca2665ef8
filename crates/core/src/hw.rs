//! The shared hardware context every persistence scheme operates on.

use asap_mem::cache::AccessKind;
use asap_mem::{
    Access, CacheHierarchy, Evicted, MemEvent, MemSystem, OpId, PersistKind, PersistOp, Rid,
};
use asap_pmem::{LineAddr, MemoryImage, PmAddr, RangeAllocator, LINE_BYTES, PM_BASE};
use asap_sim::{
    Cycle, StallClass, StallReason, Stats, SystemConfig, TelemetrySettings, TimeSeries, Trace,
    TraceEvent, TraceSettings,
};

use crate::lifecycle::RegionLog;
use crate::scheme::SchemeGauges;

/// Size of the persistence-domain crash-dump area at the bottom of PM.
///
/// On power failure the WPQ, LH-WPQ and active Dependence List entries are
/// flushed to persistent memory (§5.5); this reserved range is where the
/// non-WPQ structures land, so recovery can parse them from the image.
pub const DUMP_BYTES: u64 = 1 << 20;

/// Physical layout of the simulated persistent memory.
///
/// ```text
/// PM_BASE ─┬─ crash-dump area (DUMP_BYTES)
///          ├─ per-thread log buffers (threads × log_bytes)
///          └─ persistent heap (heap_bytes)
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PmLayout {
    /// Bytes of log buffer per thread.
    pub log_bytes: u64,
    /// Number of per-thread log buffers.
    pub threads: u32,
    /// Bytes of persistent heap.
    pub heap_bytes: u64,
}

impl PmLayout {
    /// Base address of the crash-dump area.
    pub fn dump_base(&self) -> PmAddr {
        PmAddr(PM_BASE)
    }

    /// Base address of thread `t`'s log buffer.
    pub fn log_base(&self, t: usize) -> PmAddr {
        PmAddr(PM_BASE + DUMP_BYTES + t as u64 * self.log_bytes)
    }

    /// Base address of the persistent heap.
    pub fn heap_base(&self) -> PmAddr {
        PmAddr(PM_BASE + DUMP_BYTES + u64::from(self.threads) * self.log_bytes)
    }
}

/// All scheme-independent hardware state: caches, memory system, memory
/// image, allocators and statistics.
///
/// Schemes receive `&mut Hw` in every hook; the machine and the scheme
/// never borrow it simultaneously.
pub struct Hw {
    /// The full system configuration (Table 2).
    pub cfg: SystemConfig,
    /// PM address-space layout.
    pub layout: PmLayout,
    /// The cache hierarchy (L1/L2/LLC with tag extensions).
    pub caches: CacheHierarchy,
    /// Memory controllers and WPQs.
    pub mem: MemSystem,
    /// Byte contents of main memory (PM durable state + DRAM).
    pub image: MemoryImage,
    /// Persistent heap (`pm_alloc`/`pm_free`).
    pub heap: RangeAllocator,
    /// Volatile DRAM heap.
    pub dram_heap: RangeAllocator,
    /// Machine-level statistics.
    pub stats: Stats,
    /// CPU-side event trace (regions, stalls, persist issues). Disabled by
    /// default; see [`Hw::set_trace_settings`].
    pub trace: Trace,
    /// Core each thread currently runs on (1:1 by default; §5.7 context
    /// switches can remap).
    pub thread_core: Vec<usize>,
    /// Per-thread stall cycles of the current region, by [`StallClass`]
    /// index. Reset at region begin, collected at region end.
    stall_acc: Vec<[u64; 4]>,
    /// Region-lifecycle recorder and always-on commit-order auditor.
    pub lifecycle: RegionLog,
    /// Virtual-time occupancy sampler (disabled unless telemetry is on).
    telemetry: TimeSeries,
}

impl Hw {
    /// Builds the hardware for `threads` threads with the given PM sizing.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `threads` exceeds cores.
    pub fn new(cfg: SystemConfig, threads: u32, log_bytes: u64, heap_bytes: u64) -> Self {
        cfg.validate().expect("invalid system configuration");
        assert!(
            threads <= cfg.cores,
            "threads ({threads}) must not exceed cores ({})",
            cfg.cores
        );
        let layout = PmLayout {
            log_bytes,
            threads,
            heap_bytes,
        };
        let mut image = MemoryImage::new();
        // Dump area and log buffers are persistent by construction.
        image.mark_persistent(layout.dump_base(), DUMP_BYTES);
        image.mark_persistent(layout.log_base(0), u64::from(threads) * log_bytes);
        let heap = RangeAllocator::new(layout.heap_base(), heap_bytes);
        let dram_heap = RangeAllocator::new(PmAddr(4096), PM_BASE / 2);
        Hw {
            caches: CacheHierarchy::new(&cfg),
            mem: MemSystem::new(&cfg),
            image,
            heap,
            dram_heap,
            stats: Stats::new(),
            trace: Trace::disabled(),
            thread_core: (0..threads as usize).collect(),
            stall_acc: vec![[0u64; 4]; threads as usize],
            lifecycle: RegionLog::new(),
            telemetry: TimeSeries::disabled(),
            cfg,
            layout,
        }
    }

    /// Switches tracing on/off for the CPU side and the memory system.
    pub fn set_trace_settings(&mut self, settings: TraceSettings) {
        self.trace = Trace::new(settings);
        self.mem.set_trace_settings(settings);
    }

    /// Configures the telemetry sampler: registers the gauge set (one WPQ
    /// gauge per memory channel plus the scheme/cache/memory gauges) and
    /// arms lifecycle recording and hot-line tracking when enabled.
    pub fn set_telemetry(&mut self, settings: TelemetrySettings) {
        let mut names: Vec<String> = (0..self.mem.num_channels())
            .map(|c| format!("wpq.ch{c}"))
            .collect();
        names.extend(
            [
                "log.fill_lines",
                "regions.uncommitted",
                "deps.pending",
                "cache.dirty_lines",
                "mem.inflight",
            ]
            .map(String::from),
        );
        self.telemetry = TimeSeries::new(settings, names);
        self.lifecycle.set_recording(settings.enabled);
        self.mem.set_hot_line_tracking(settings.enabled);
    }

    /// True when the sampler wants a sample at `now` — one predictable
    /// branch when telemetry is off, so it is safe on every hot path.
    #[inline]
    pub fn telemetry_due(&self, now: Cycle) -> bool {
        self.telemetry.due(now)
    }

    /// Takes one telemetry sample at `now`. Callers gate on
    /// [`Hw::telemetry_due`] and pass the scheme's current gauge readings.
    pub fn telemetry_record(&mut self, now: Cycle, sg: SchemeGauges) {
        let channels = self.mem.num_channels();
        let mut vals = Vec::with_capacity(channels as usize + 5);
        let mut inflight = 0u64;
        for c in 0..channels {
            vals.push(self.mem.wpq_len(c) as u64);
            inflight += self.mem.pending_len(c) as u64;
        }
        vals.push(sg.log_fill_lines);
        vals.push(sg.uncommitted_regions);
        vals.push(sg.dep_queue_depth);
        vals.push(self.caches.dirty_lines());
        vals.push(inflight);
        self.telemetry.record(now, &vals);
    }

    /// The telemetry sampler (empty when telemetry is disabled).
    pub fn telemetry(&self) -> &TimeSeries {
        &self.telemetry
    }

    /// Feeds a popped memory event to the lifecycle recorder. Both event
    /// pop sites — [`crate::machine::Machine`]'s pump and the schemes'
    /// `wait_mem!` loops — must call this so drain timestamps are complete.
    #[inline]
    pub fn observe_mem_event(&mut self, ev: &MemEvent) {
        if !self.lifecycle.recording() {
            return;
        }
        if let MemEvent::PmWritten { op, at, .. } = ev {
            if let Some(rid) = op.rid {
                self.lifecycle.pm_written(rid, *at);
            }
        }
    }

    /// Records a stall of `thread` on `reason` over `[from, to)`: feeds the
    /// per-region breakdown accumulator, the aggregate
    /// `machine.stall_cycles.<class>` counters and (when enabled) the
    /// trace. Zero-length waits are ignored.
    pub fn note_stall(&mut self, thread: usize, reason: StallReason, from: Cycle, to: Cycle) {
        let cycles = to.since(from);
        if cycles == 0 {
            return;
        }
        let class = reason.class();
        self.stall_acc[thread][class.index()] += cycles;
        let counter = match class {
            StallClass::LogFull => "machine.stall_cycles.log_full",
            StallClass::WpqBackpressure => "machine.stall_cycles.wpq_backpressure",
            StallClass::DependencyWait => "machine.stall_cycles.dependency_wait",
            StallClass::CommitWait => "machine.stall_cycles.commit_wait",
        };
        self.stats.add(counter, cycles);
        if self.trace.enabled() {
            let t = thread as u32;
            self.trace.emit(from, t, TraceEvent::StallBegin { reason });
            self.trace
                .emit(to, t, TraceEvent::StallEnd { reason, cycles });
        }
    }

    /// Clears `thread`'s per-region stall accumulator (region begin).
    pub fn reset_region_stalls(&mut self, thread: usize) {
        self.stall_acc[thread] = [0; 4];
    }

    /// Takes `thread`'s per-region stall cycles by [`StallClass`] index
    /// (region end), resetting the accumulator.
    pub fn take_region_stalls(&mut self, thread: usize) -> [u64; 4] {
        std::mem::take(&mut self.stall_acc[thread])
    }

    /// Advances the memory system's internal events to `now`.
    pub fn advance_mem(&mut self, now: Cycle) {
        self.mem.advance_to(now, &mut self.image);
    }

    /// A cache access by `thread` (not core!) with miss handling: fills
    /// from the memory system (with WPQ forwarding) when needed.
    /// Evictions are returned for the caller/scheme to handle.
    pub fn cache_access(&mut self, thread: usize, line: LineAddr, kind: AccessKind) -> Access {
        let core = self.thread_core[thread];
        // One tag walk: the probe decides whether fill data is needed and
        // is handed back to the access so the hierarchy does not re-probe.
        let probe = self.caches.probe(core, line);
        let (fill, miss_latency) = if probe.level == asap_mem::HitLevel::Memory {
            let fill = self.mem.read_for_fill(line, &self.image);
            (Some(fill), self.mem.read_latency(line))
        } else {
            (None, 0)
        };
        self.caches
            .access_probed(core, line, kind, probe, fill, miss_latency)
    }

    /// The current architectural value of `line`: cache copy if present,
    /// otherwise memory (with WPQ forwarding). No timing side effects.
    pub fn line_value(&mut self, line: LineAddr) -> [u8; 64] {
        match self.caches.line(line) {
            Some(s) => s.data,
            None => self.mem.read_for_fill(line, &self.image).0,
        }
    }

    /// A store to a cached line performed by scheme-internal machinery
    /// (log-entry writes): brings the line in, mutates `bytes` at `offset`,
    /// and marks it dirty. Returns the latency plus any LLC evictions.
    ///
    /// # Panics
    ///
    /// Panics if the write would cross the line boundary.
    pub fn scheme_store(
        &mut self,
        thread: usize,
        line: LineAddr,
        offset: usize,
        bytes: &[u8],
    ) -> (u64, Option<Evicted>) {
        assert!(
            offset + bytes.len() <= LINE_BYTES as usize,
            "store crosses line"
        );
        let access = self.cache_access(thread, line, AccessKind::Store);
        let state = self.caches.line_mut(line).expect("just filled");
        state.data[offset..offset + bytes.len()].copy_from_slice(bytes);
        state.dirty = true;
        (access.latency, access.evicted)
    }

    /// Persists a cached line's current contents (`clwb` or a hardware
    /// persist-op snapshot): clears the cache dirty bit and submits the
    /// write toward the WPQ. Returns `None` if the line is not cached
    /// (nothing to persist — it was already written back).
    pub fn persist_line(
        &mut self,
        line: LineAddr,
        kind: PersistKind,
        rid: Option<Rid>,
        logged_data_line: Option<LineAddr>,
        now: Cycle,
    ) -> Option<OpId> {
        let data = self.caches.writeback_copy(line)?;
        let mut op = PersistOp::new(kind, line, data, rid);
        op.logged_data_line = logged_data_line;
        Some(self.mem.submit(op, now))
    }

    /// Submits a persist operation carrying explicit `data` (used when the
    /// payload is composed by hardware, e.g. a log entry holding another
    /// line's old value).
    pub fn submit_value(
        &mut self,
        kind: PersistKind,
        target: LineAddr,
        data: [u8; 64],
        rid: Option<Rid>,
        logged_data_line: Option<LineAddr>,
        now: Cycle,
    ) -> OpId {
        let mut op = PersistOp::new(kind, target, data, rid);
        op.logged_data_line = logged_data_line;
        self.mem.submit(op, now)
    }

    /// Default eviction handling: dirty PM lines are written back through
    /// the WPQ, dirty DRAM lines go straight to the DRAM image. Schemes
    /// layer their extra behaviour (owner saving, redo redirection) on top.
    pub fn default_evict(&mut self, e: &Evicted, now: Cycle) {
        if !e.state.dirty {
            return;
        }
        if e.line.is_pm_region() {
            let op = PersistOp::new(PersistKind::WriteBack, e.line, e.state.data, e.state.owner);
            self.mem.submit(op, now);
        } else {
            let data = e.state.data;
            self.mem.dram_writeback(&mut self.image, e.line, &data);
        }
    }

    /// Whether the page under `line` is persistent (page-table bit).
    pub fn line_is_persistent(&self, line: LineAddr) -> bool {
        self.image.line_is_persistent(line)
    }

    /// One on-chip hop latency (cache controller ↔ memory controller).
    pub fn hop(&self) -> u64 {
        self.cfg.mem.mc_hop_latency
    }

    /// `clone_from` with the caches left empty
    /// ([`CacheHierarchy::clone_empty_from`]): what a power failure leaves
    /// of `src` before the persistence domain is flushed, without copying
    /// the cache lines the failure clears.
    pub fn clone_without_caches_from(&mut self, src: &Self) {
        self.copy_from_except_caches(src);
        self.caches.clone_empty_from(&src.caches);
    }

    /// `clone_from` of every field but the caches.
    fn copy_from_except_caches(&mut self, src: &Self) {
        self.cfg = src.cfg;
        self.layout = src.layout;
        self.mem.clone_from(&src.mem);
        self.image.clone_from(&src.image);
        self.heap.clone_from(&src.heap);
        self.dram_heap.clone_from(&src.dram_heap);
        self.stats.clone_from(&src.stats);
        self.trace.clone_from(&src.trace);
        self.thread_core.clone_from(&src.thread_core);
        self.stall_acc.clone_from(&src.stall_acc);
        self.lifecycle.clone_from(&src.lifecycle);
        self.telemetry.clone_from(&src.telemetry);
    }
}

/// Snapshot support: every field of [`Hw`] is simulation state, so a
/// clone is a complete, bit-exact copy. The memory image clones as a
/// copy-on-write pointer table (see `asap_pmem::MemoryImage`), so the
/// dominant cost is the volatile side's flat vectors — a memcpy, not a
/// page-by-page walk. `clone_from` restores in place, reusing the
/// destination's allocations across repeated forks.
impl Clone for Hw {
    fn clone(&self) -> Self {
        Hw {
            cfg: self.cfg,
            layout: self.layout,
            caches: self.caches.clone(),
            mem: self.mem.clone(),
            image: self.image.clone(),
            heap: self.heap.clone(),
            dram_heap: self.dram_heap.clone(),
            stats: self.stats.clone(),
            trace: self.trace.clone(),
            thread_core: self.thread_core.clone(),
            stall_acc: self.stall_acc.clone(),
            lifecycle: self.lifecycle.clone(),
            telemetry: self.telemetry.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.copy_from_except_caches(src);
        self.caches.clone_from(&src.caches);
    }
}

impl std::fmt::Debug for Hw {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hw")
            .field("threads", &self.thread_core.len())
            .field("caches", &self.caches)
            .field("mem", &self.mem)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> Hw {
        Hw::new(SystemConfig::small(), 2, 1 << 20, 16 << 20)
    }

    #[test]
    fn layout_is_disjoint_and_ordered() {
        let h = hw();
        let dump = h.layout.dump_base();
        let log0 = h.layout.log_base(0);
        let log1 = h.layout.log_base(1);
        let heap = h.layout.heap_base();
        assert_eq!(dump.0, PM_BASE);
        assert_eq!(log0.0, PM_BASE + DUMP_BYTES);
        assert_eq!(log1.0, log0.0 + (1 << 20));
        assert_eq!(heap.0, log1.0 + (1 << 20));
        assert!(h.heap.base() == heap);
    }

    #[test]
    fn log_and_dump_pages_are_persistent() {
        let h = hw();
        assert!(h.image.is_persistent(h.layout.dump_base()));
        assert!(h.image.is_persistent(h.layout.log_base(1)));
    }

    #[test]
    fn scheme_store_makes_line_dirty() {
        let mut h = hw();
        let line = LineAddr(h.layout.heap_base().0 / 64);
        let (lat, _ev) = h.scheme_store(0, line, 8, &[1, 2, 3]);
        assert!(lat > 0);
        let st = h.caches.line(line).unwrap();
        assert!(st.dirty);
        assert_eq!(&st.data[8..11], &[1, 2, 3]);
    }

    #[test]
    fn persist_line_clears_dirty_and_submits() {
        let mut h = hw();
        let line = LineAddr(h.layout.heap_base().0 / 64);
        h.scheme_store(0, line, 0, &[9]);
        let id = h.persist_line(line, PersistKind::SwPersist, None, None, Cycle(0));
        assert!(id.is_some());
        assert!(!h.caches.line(line).unwrap().dirty);
        h.advance_mem(Cycle(1_000_000));
        assert_eq!(h.image.read_line(line)[0], 9);
    }

    #[test]
    fn persist_uncached_line_is_none() {
        let mut h = hw();
        assert!(h
            .persist_line(
                LineAddr(12345),
                PersistKind::SwPersist,
                None,
                None,
                Cycle(0)
            )
            .is_none());
    }

    #[test]
    fn line_value_prefers_cache() {
        let mut h = hw();
        let line = LineAddr(h.layout.heap_base().0 / 64);
        h.image.write_line(line, &[7u8; 64]);
        assert_eq!(h.line_value(line)[0], 7); // from memory
        h.scheme_store(0, line, 0, &[8]);
        assert_eq!(h.line_value(line)[0], 8); // cache copy wins
    }

    #[test]
    fn default_evict_routes_by_region() {
        let mut h = hw();
        let pm = LineAddr(h.layout.heap_base().0 / 64);
        let dram = LineAddr(100);
        // Build evicted states manually.
        let mut st = asap_mem::LineState::from_bytes([3u8; 64]);
        st.dirty = true;
        h.default_evict(
            &Evicted {
                line: dram,
                state: st.clone(),
                forced: false,
            },
            Cycle(0),
        );
        assert_eq!(h.image.read_line(dram)[0], 3, "DRAM writeback immediate");
        h.default_evict(
            &Evicted {
                line: pm,
                state: st.clone(),
                forced: false,
            },
            Cycle(0),
        );
        h.advance_mem(Cycle(1_000_000));
        assert_eq!(h.image.read_line(pm)[0], 3, "PM writeback via WPQ");
        st.dirty = false;
        let clean = LineAddr(pm.0 + 1);
        h.default_evict(
            &Evicted {
                line: clean,
                state: st,
                forced: false,
            },
            Cycle(0),
        );
        h.advance_mem(Cycle(2_000_000));
        assert_eq!(
            h.image.read_line(clean)[0],
            0,
            "clean eviction writes nothing"
        );
    }

    #[test]
    #[should_panic(expected = "must not exceed cores")]
    fn too_many_threads_panics() {
        Hw::new(SystemConfig::small(), 64, 1 << 20, 1 << 20);
    }

    #[test]
    fn cache_access_fills_pbit() {
        let mut h = hw();
        let line = LineAddr(h.layout.heap_base().0 / 64);
        h.image.mark_persistent(line.base(), 64);
        h.cache_access(0, line, AccessKind::Load);
        assert!(h.caches.line(line).unwrap().pbit);
    }
}
