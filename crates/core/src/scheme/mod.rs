//! Persistence schemes: the paper's contribution and its four baselines.
//!
//! Every scheme implements [`Scheme`], a set of hooks the simulated
//! [`Machine`](crate::machine::Machine) invokes around workload execution:
//! region begin/end, persistent-line reads/writes, LLC evictions, memory
//! events (WPQ acceptances, PM writes), fences, crash and recovery.
//!
//! | Scheme | Commit | LPOs | DPOs | §6.3 baseline |
//! |--------|--------|------|------|---------------|
//! | [`NoPersist`](no_persist::NoPersist) | n/a | none | none | NP (upper bound) |
//! | [`SwUndo`](sw_undo::SwUndo) | sync | critical path | critical path | SW |
//! | [`HwUndo`](hw_undo::HwUndo) | sync | background | sync at end | HWUndo (Proteus-like) |
//! | [`HwRedo`](hw_redo::HwRedo) | sync (LPO only) | background | async after commit | HWRedo |
//! | [`Asap`](asap::Asap) | **async** | async | async | ASAP |

pub mod asap;
pub(crate) mod common;
pub mod hw_redo;
pub mod hw_undo;
pub mod no_persist;
pub mod sw_undo;

use std::fmt;

use asap_mem::{Evicted, MemEvent, Rid};
use asap_pmem::LineAddr;
use asap_sim::Cycle;

use crate::hw::Hw;

/// Which of ASAP's §5.1 traffic optimizations are enabled (Fig. 9a
/// ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AsapOpts {
    /// DPO coalescing: delay a dirty line's DPO until `dpo_distance`
    /// updates to other lines, merging consecutive DPOs of the same line.
    pub dpo_coalescing: bool,
    /// LPO dropping: remove a committed region's log writes from the WPQ.
    pub lpo_dropping: bool,
    /// DPO dropping: remove an earlier region's WPQ-resident DPO when a
    /// later region's LPO for the same line arrives.
    pub dpo_dropping: bool,
}

impl AsapOpts {
    /// Everything on (the paper's ASAP configuration).
    pub fn all() -> Self {
        AsapOpts {
            dpo_coalescing: true,
            lpo_dropping: true,
            dpo_dropping: true,
        }
    }

    /// Everything off (`ASAP-No-Opt` in Fig. 9a).
    pub fn none() -> Self {
        AsapOpts {
            dpo_coalescing: false,
            lpo_dropping: false,
            dpo_dropping: false,
        }
    }

    /// Coalescing only (`ASAP+C`).
    pub fn coalescing_only() -> Self {
        AsapOpts {
            dpo_coalescing: true,
            lpo_dropping: false,
            dpo_dropping: false,
        }
    }

    /// Coalescing + LPO dropping (`ASAP+C+LP`).
    pub fn coalescing_and_lpo() -> Self {
        AsapOpts {
            dpo_coalescing: true,
            lpo_dropping: true,
            dpo_dropping: false,
        }
    }
}

impl Default for AsapOpts {
    fn default() -> Self {
        AsapOpts::all()
    }
}

/// Selects a persistence scheme (and its options).
///
/// # Examples
///
/// ```
/// use asap_core::scheme::{AsapOpts, SchemeKind};
///
/// assert!(SchemeKind::Asap.commits_asynchronously());
/// assert!(!SchemeKind::HwUndo.commits_asynchronously());
/// let ablation = SchemeKind::AsapWith(AsapOpts::coalescing_only());
/// assert_eq!(ablation.name(), "asap");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeKind {
    /// No persistence enforced (NP): the performance upper bound.
    NoPersist,
    /// Software undo logging with flushes and fences on the critical path.
    SwUndo,
    /// Software variant that only flushes data at region end, without
    /// logging ("DPO Only" in Fig. 1).
    SwDpoOnly,
    /// Hardware undo logging with synchronous commit (Proteus-like).
    HwUndo,
    /// Hardware redo logging: synchronous LPOs at region end, async DPOs.
    HwRedo,
    /// ASAP with all optimizations.
    Asap,
    /// ASAP with a specific optimization subset (Fig. 9a ablation).
    AsapWith(AsapOpts),
}

impl SchemeKind {
    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::NoPersist => "np",
            SchemeKind::SwUndo => "sw",
            SchemeKind::SwDpoOnly => "sw-dpo-only",
            SchemeKind::HwUndo => "hw-undo",
            SchemeKind::HwRedo => "hw-redo",
            SchemeKind::Asap | SchemeKind::AsapWith(_) => "asap",
        }
    }

    /// Whether atomic regions commit asynchronously (execution proceeds
    /// past region end before the region is durable).
    pub fn commits_asynchronously(self) -> bool {
        matches!(self, SchemeKind::Asap | SchemeKind::AsapWith(_))
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What recovery did after a crash.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Regions found uncommitted at crash (rolled back, or — for redo —
    /// regions whose effects never reached data and were discarded).
    pub uncommitted: Vec<Rid>,
    /// Regions found committed-but-incomplete and rolled forward (redo).
    pub replayed: Vec<Rid>,
    /// Log data entries written back to data locations during recovery.
    pub restored_lines: u64,
}

/// Instantaneous occupancy readings a scheme reports to the telemetry
/// sampler (all zero for schemes without the corresponding structure).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchemeGauges {
    /// Live lines across all hardware/software log buffers.
    pub log_fill_lines: u64,
    /// Regions begun but not yet durable.
    pub uncommitted_regions: u64,
    /// Outstanding dependency edges regions are waiting on (ASAP's
    /// Dependence List occupancy; zero for synchronous schemes).
    pub dep_queue_depth: u64,
}

/// The hooks a persistence scheme implements.
///
/// Time flows through the hooks explicitly: each receives the thread's
/// current local clock `now` and returns the clock after the operation
/// (including any synchronous waiting the scheme performs).
///
/// `Send` is a supertrait so `Box<dyn Scheme>` — and with it
/// [`Machine`](crate::machine::Machine) and
/// [`MachineSnapshot`](crate::machine::MachineSnapshot) — can move across
/// host threads. Schemes are plain owned data (no interior `Rc`/raw
/// pointers), so every implementation satisfies the bound structurally.
pub trait Scheme: Send {
    /// The scheme's kind.
    fn kind(&self) -> SchemeKind;

    /// Called once per thread before it runs (allocates log buffers —
    /// `asap_init`).
    fn on_thread_start(&mut self, hw: &mut Hw, thread: usize, now: Cycle) -> Cycle;

    /// Top-level atomic region begin (`asap_begin` reaching depth 1).
    fn on_begin(&mut self, hw: &mut Hw, thread: usize, rid: Rid, now: Cycle) -> Cycle;

    /// Top-level atomic region end (`asap_end` reaching depth 0).
    fn on_end(&mut self, hw: &mut Hw, thread: usize, rid: Rid, now: Cycle) -> Cycle;

    /// `asap_fence`: block until the thread's last region committed (§5.2).
    fn on_fence(&mut self, hw: &mut Hw, thread: usize, now: Cycle) -> Cycle;

    /// Before the bytes of a write to a persistent line are applied (the
    /// line is cached; its data still holds the old value).
    fn pre_write(
        &mut self,
        _hw: &mut Hw,
        _thread: usize,
        _rid: Rid,
        _line: LineAddr,
        now: Cycle,
    ) -> Cycle {
        now
    }

    /// After the bytes of a write to a persistent line were applied.
    fn post_write(
        &mut self,
        _hw: &mut Hw,
        _thread: usize,
        _rid: Rid,
        _line: LineAddr,
        now: Cycle,
    ) -> Cycle {
        now
    }

    /// After a read of a persistent line inside a region.
    fn post_read(
        &mut self,
        _hw: &mut Hw,
        _thread: usize,
        _rid: Rid,
        _line: LineAddr,
        now: Cycle,
    ) -> Cycle {
        now
    }

    /// An LLC eviction happened (the machine already removed the line from
    /// the caches; the scheme decides what, if anything, is written back).
    fn on_evict(&mut self, hw: &mut Hw, evicted: &Evicted, now: Cycle) {
        hw.default_evict(evicted, now);
    }

    /// A memory-system event (WPQ acceptance or PM write) to process.
    fn on_mem_event(&mut self, _hw: &mut Hw, _ev: &MemEvent) {}

    /// Current occupancy readings for the telemetry sampler. Only called
    /// when a sample is due, so an O(threads) walk is acceptable.
    fn gauges(&self) -> SchemeGauges {
        SchemeGauges::default()
    }

    /// The thread is context-switched off its core (§5.7): complete its
    /// in-flight persist bookkeeping tied to core-local structures.
    fn on_context_switch(&mut self, _hw: &mut Hw, _thread: usize, now: Cycle) -> Cycle {
        now
    }

    /// Block until all regions are durable and the memory system is idle.
    fn drain(&mut self, hw: &mut Hw, now: Cycle) -> Cycle;

    /// Power failure: flush the scheme's persistence-domain structures
    /// (Dependence List, LH-WPQ, software anchors) into the image. The
    /// machine flushes the WPQs and invalidates caches separately.
    fn on_crash(&mut self, hw: &mut Hw);

    /// Recover the image to a consistent state after [`on_crash`]
    /// (undo/redo from logs in dependence order).
    ///
    /// [`on_crash`]: Scheme::on_crash
    fn recover(&mut self, hw: &mut Hw) -> RecoveryReport;

    /// An owned deep copy of the scheme's full state, for machine
    /// snapshots (`Clone` cannot be a supertrait of an object-safe
    /// trait, hence the boxed spelling).
    fn clone_box(&self) -> Box<dyn Scheme>;
}

/// Builds the scheme selected by `kind` for a machine with configuration
/// `cfg` (ASAP sizes its hardware structures from it).
pub fn build(kind: SchemeKind, cfg: &asap_sim::SystemConfig) -> Box<dyn Scheme> {
    match kind {
        SchemeKind::NoPersist => Box::new(no_persist::NoPersist::new()),
        SchemeKind::SwUndo => Box::new(sw_undo::SwUndo::new(sw_undo::SwMode::Full)),
        SchemeKind::SwDpoOnly => Box::new(sw_undo::SwUndo::new(sw_undo::SwMode::DpoOnly)),
        SchemeKind::HwUndo => Box::new(hw_undo::HwUndo::new()),
        SchemeKind::HwRedo => Box::new(hw_redo::HwRedo::new()),
        SchemeKind::Asap => Box::new(asap::Asap::new(AsapOpts::all(), cfg)),
        SchemeKind::AsapWith(opts) => Box::new(asap::Asap::new(opts, cfg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(SchemeKind::NoPersist.name(), "np");
        assert_eq!(SchemeKind::Asap.name(), "asap");
        assert_eq!(SchemeKind::AsapWith(AsapOpts::none()).name(), "asap");
        assert_eq!(SchemeKind::HwUndo.to_string(), "hw-undo");
    }

    #[test]
    fn only_asap_commits_asynchronously() {
        assert!(SchemeKind::Asap.commits_asynchronously());
        assert!(SchemeKind::AsapWith(AsapOpts::none()).commits_asynchronously());
        assert!(!SchemeKind::HwUndo.commits_asynchronously());
        assert!(!SchemeKind::HwRedo.commits_asynchronously());
        assert!(!SchemeKind::SwUndo.commits_asynchronously());
        assert!(!SchemeKind::NoPersist.commits_asynchronously());
    }

    #[test]
    fn opts_presets() {
        assert_eq!(
            AsapOpts::all(),
            AsapOpts {
                dpo_coalescing: true,
                lpo_dropping: true,
                dpo_dropping: true
            }
        );
        assert!(!AsapOpts::none().dpo_coalescing);
        assert!(AsapOpts::coalescing_only().dpo_coalescing);
        assert!(!AsapOpts::coalescing_only().lpo_dropping);
        assert!(AsapOpts::coalescing_and_lpo().lpo_dropping);
        assert!(!AsapOpts::coalescing_and_lpo().dpo_dropping);
        assert_eq!(AsapOpts::default(), AsapOpts::all());
    }

    #[test]
    fn build_produces_each_kind() {
        let cfg = asap_sim::SystemConfig::small();
        for kind in [
            SchemeKind::NoPersist,
            SchemeKind::SwUndo,
            SchemeKind::SwDpoOnly,
            SchemeKind::HwUndo,
            SchemeKind::HwRedo,
            SchemeKind::Asap,
            SchemeKind::AsapWith(AsapOpts::coalescing_only()),
        ] {
            let s = build(kind, &cfg);
            assert_eq!(s.kind().name(), kind.name());
        }
    }
}
