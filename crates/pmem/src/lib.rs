//! Persistent-memory substrate: address space, memory image, heap.
//!
//! The ASAP reproduction simulates a heterogeneous main memory (§4.1): each
//! memory controller fronts both DRAM and persistent-memory (PM) modules.
//! This crate provides the *functional* half of that model:
//!
//! - [`addr`] — typed physical addresses and the DRAM/PM address-space
//!   split, with cache-line and page arithmetic;
//! - [`image`] — a sparse byte-accurate [`MemoryImage`] holding the contents
//!   of main memory (pages allocated on first write), with a page-granular
//!   *persistent bit* (the page-table bit set by `asap_malloc`, §4.6) kept
//!   as a set of page ranges;
//! - [`heap`] — a deterministic first-fit [`RangeAllocator`] used for the
//!   persistent heap (`asap_malloc`/`asap_free`) and per-thread log buffers.
//!
//! Timing lives elsewhere (`asap-mem`): this crate answers *what bytes are
//! where*, which is what crash-recovery tests check.
//!
//! # Example
//!
//! ```
//! use asap_pmem::{MemoryImage, PmAddr, PM_BASE};
//!
//! let mut image = MemoryImage::new();
//! image.mark_persistent(PmAddr(PM_BASE), 64);
//! image.write_u64(PmAddr(PM_BASE), 0xdead_beef);
//! assert_eq!(image.read_u64(PmAddr(PM_BASE)), 0xdead_beef);
//! assert!(image.is_persistent(PmAddr(PM_BASE)));
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod hash;
pub mod heap;
pub mod image;

pub use addr::{LineAddr, PmAddr, DRAM_BASE, LINE_BYTES, PAGE_BYTES, PM_BASE};
pub use hash::{AddrBuildHasher, AddrHasher, AddrMap, AddrSet};
pub use heap::{AllocError, RangeAllocator};
pub use image::{ImageStats, MemoryImage};
