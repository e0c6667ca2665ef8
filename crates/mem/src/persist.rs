//! Persist-operation descriptors and memory-system events.

use std::fmt;

use asap_pmem::LineAddr;
use asap_sim::Cycle;

use crate::line::LINE_SIZE;
use crate::rid::Rid;

/// Unique identifier of a submitted persist operation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId(pub u64);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// What a persist operation writes to persistent memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PersistKind {
    /// Log persist operation: a log *data entry* (old value for undo, new
    /// value for redo).
    Lpo,
    /// A log record header (RID, state, entry addresses — Fig. 5a).
    LogHeader,
    /// Data persist operation: in-place write of modified data.
    Dpo,
    /// Ordinary dirty-line writeback on LLC eviction.
    WriteBack,
    /// A software persist (`clwb`-initiated writeback of log or data).
    SwPersist,
    /// A software commit marker / log-tail update.
    Marker,
}

impl PersistKind {
    /// Stable lowercase name used in statistics counters.
    pub fn name(self) -> &'static str {
        match self {
            PersistKind::Lpo => "lpo",
            PersistKind::LogHeader => "log_header",
            PersistKind::Dpo => "dpo",
            PersistKind::WriteBack => "writeback",
            PersistKind::SwPersist => "sw_persist",
            PersistKind::Marker => "marker",
        }
    }
}

/// One 64-byte write travelling to the persistence domain.
#[derive(Clone, Copy)]
pub struct PersistOp {
    /// What kind of write this is (for statistics and drop rules).
    pub kind: PersistKind,
    /// The PM line being written.
    pub target: LineAddr,
    /// The 64 bytes to write.
    pub data: [u8; LINE_SIZE],
    /// The atomic region on whose behalf the write happens, if any.
    pub rid: Option<Rid>,
}

impl PersistOp {
    /// An op of `kind` writing `data` to `target` for region `rid`.
    pub fn new(
        kind: PersistKind,
        target: LineAddr,
        data: [u8; LINE_SIZE],
        rid: Option<Rid>,
    ) -> Self {
        PersistOp {
            kind,
            target,
            data,
            rid,
        }
    }

    /// The op without its data bytes, as [`MemEvent`]s carry it.
    pub fn summary(&self) -> OpSummary {
        OpSummary {
            kind: self.kind,
            target: self.target,
            rid: self.rid,
        }
    }
}

/// What a [`MemEvent`] says about its op: everything but the 64 data
/// bytes, which no event reader needs (the data reaches the image through
/// the WPQ).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpSummary {
    /// What kind of write the op is.
    pub kind: PersistKind,
    /// The PM line it writes.
    pub target: LineAddr,
    /// The atomic region on whose behalf it writes, if any.
    pub rid: Option<Rid>,
}

impl fmt::Debug for PersistOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PersistOp")
            .field("kind", &self.kind)
            .field("target", &self.target)
            .field("rid", &self.rid)
            .finish()
    }
}

/// Notifications surfaced by [`MemSystem::advance_to`]. Each carries its
/// op's [`OpSummary`], not the op, so an event is 64 bytes.
///
/// [`MemSystem::advance_to`]: crate::system::MemSystem::advance_to
#[derive(Clone, Debug)]
pub enum MemEvent {
    /// The op was accepted into a WPQ — per ADR this is the moment the
    /// persist operation *completes* (§4.1). `ack_at` is when the issuing
    /// cache controller learns of it (one on-chip hop later).
    Accepted {
        /// The operation's id.
        id: OpId,
        /// The operation's kind, target and region.
        op: OpSummary,
        /// Acceptance (= persistence) time.
        at: Cycle,
        /// Time the ack reaches the issuing controller.
        ack_at: Cycle,
    },
    /// The op's bytes physically reached the PM media (traffic accounting;
    /// dropped ops never produce this).
    PmWritten {
        /// The operation's id.
        id: OpId,
        /// The operation's kind, target and region.
        op: OpSummary,
        /// Media write completion time.
        at: Cycle,
    },
}

impl MemEvent {
    /// The timestamp of the event.
    pub fn at(&self) -> Cycle {
        match self {
            MemEvent::Accepted { at, .. } | MemEvent::PmWritten { at, .. } => *at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(PersistKind::Lpo.name(), "lpo");
        assert_eq!(PersistKind::Dpo.name(), "dpo");
        assert_eq!(PersistKind::WriteBack.name(), "writeback");
        assert_eq!(PersistKind::LogHeader.name(), "log_header");
        assert_eq!(PersistKind::SwPersist.name(), "sw_persist");
        assert_eq!(PersistKind::Marker.name(), "marker");
    }

    #[test]
    fn event_at_returns_timestamp() {
        let op = PersistOp::new(PersistKind::Dpo, LineAddr(1), [0; 64], None).summary();
        let e = MemEvent::Accepted {
            id: OpId(1),
            op,
            at: Cycle(5),
            ack_at: Cycle(6),
        };
        assert_eq!(e.at(), Cycle(5));
        let e = MemEvent::PmWritten {
            id: OpId(1),
            op,
            at: Cycle(9),
        };
        assert_eq!(e.at(), Cycle(9));
    }

    #[test]
    fn debug_impls_nonempty() {
        let op = PersistOp::new(PersistKind::Lpo, LineAddr(2), [0; 64], Some(Rid::new(0, 1)));
        assert!(format!("{op:?}").contains("Lpo"));
        assert_eq!(OpId(3).to_string(), "op3");
    }
}
