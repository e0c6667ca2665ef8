//! Memory-hierarchy substrate: caches, memory controllers, WPQ.
//!
//! This crate models the timing-and-functional behaviour of the memory
//! system the paper evaluates (Table 2): per-core L1/L2 caches, a shared
//! LLC, and memory controllers whose Write Pending Queues (WPQs) form the
//! persistence domain (§4.1 — a persist operation is *complete when
//! accepted by the WPQ*, per ADR semantics).
//!
//! Components:
//!
//! - [`rid`] — atomic-region IDs (`ThreadID` + `LocalRID`, §5.6);
//! - [`line`](mod@line) — cache-line state including ASAP's tag extensions
//!   (`PBit`, `LockBit`, `OwnerRID`, §4.3 ❷);
//! - [`cache`] — an inclusive three-level hierarchy with real line data,
//!   LRU replacement, and lock-bit-aware victim selection (§4.6.1);
//! - [`persist`] — persist-operation descriptors (LPO, DPO, log header,
//!   write-back) and memory-system events;
//! - [`system`] — [`MemSystem`]: per-channel WPQs with acceptance,
//!   bandwidth-limited drain to PM, store-forwarding reads, entry dropping
//!   (for the §5.1 traffic optimizations) and crash flush (ADR);
//! - [`bloom`] — the non-counting bloom filter used to detect evicted
//!   owner RIDs (§5.3).

#![warn(missing_docs)]

pub mod bloom;
pub mod cache;
pub mod line;
pub mod persist;
pub mod rid;
pub mod system;

pub use bloom::BloomFilter;
pub use cache::{Access, CacheHierarchy, Evicted, HitLevel};
pub use line::LineState;
pub use persist::{MemEvent, OpId, OpSummary, PersistKind, PersistOp};
pub use rid::Rid;
pub use system::MemSystem;
