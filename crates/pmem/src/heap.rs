//! A deterministic first-fit allocator over a physical address range.
//!
//! Used for the persistent heap (`asap_malloc`/`asap_free`) and for
//! carving out per-thread log buffers. Allocations are cache-line aligned
//! so that a region's log entries and ownership tracking operate on whole
//! lines, matching the hardware's line-granular LPOs/DPOs.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::addr::{PmAddr, LINE_BYTES};

/// Error returned when an allocation cannot be satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// No free range large enough.
    OutOfMemory {
        /// Bytes requested (after line-size round-up).
        requested: u64,
    },
    /// `free` called on an address that is not an allocation start.
    NotAllocated {
        /// The offending address.
        addr: PmAddr,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { requested } => {
                write!(f, "out of simulated memory allocating {requested} bytes")
            }
            AllocError::NotAllocated { addr } => {
                write!(f, "free of non-allocated address {addr}")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// First-fit allocator with coalescing free, over `[base, base + size)`.
///
/// Deterministic: the same allocation/free sequence always produces the same
/// addresses, which keeps whole simulations reproducible.
///
/// Copy-on-write: the free and live maps sit behind one [`Arc`], so a
/// clone shares them and `clone_from` from the handle a copy was cloned
/// from is a pointer compare. The first `alloc`/`free` on a shared
/// handle copies the maps; [`release`](Self::release) gives a copy's
/// share back so the handle it came from writes in place again.
///
/// # Example
///
/// ```
/// use asap_pmem::{PmAddr, RangeAllocator, PM_BASE};
///
/// # fn main() -> Result<(), asap_pmem::AllocError> {
/// let mut heap = RangeAllocator::new(PmAddr(PM_BASE), 1 << 20);
/// let a = heap.alloc(100)?;
/// let b = heap.alloc(100)?;
/// assert_ne!(a, b);
/// heap.free(a)?;
/// let c = heap.alloc(100)?; // first fit reuses the freed range
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
pub struct RangeAllocator {
    base: PmAddr,
    size: u64,
    maps: Arc<Maps>,
}

/// The allocator's bookkeeping, shared between clones until one writes.
#[derive(Clone, Default)]
struct Maps {
    /// Free ranges: start -> length. Non-adjacent (always coalesced).
    free: BTreeMap<u64, u64>,
    /// Live allocations: start -> length.
    live: BTreeMap<u64, u64>,
}

impl Clone for RangeAllocator {
    fn clone(&self) -> Self {
        RangeAllocator {
            base: self.base,
            size: self.size,
            maps: Arc::clone(&self.maps),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.base = src.base;
        self.size = src.size;
        if !Arc::ptr_eq(&self.maps, &src.maps) {
            self.maps = Arc::clone(&src.maps);
        }
    }
}

impl RangeAllocator {
    /// Creates an allocator over `[base, base + size)`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not cache-line aligned or `size` is zero.
    pub fn new(base: PmAddr, size: u64) -> Self {
        assert!(
            base.0.is_multiple_of(LINE_BYTES),
            "allocator base must be line-aligned"
        );
        assert!(size > 0, "allocator size must be nonzero");
        let mut free = BTreeMap::new();
        free.insert(base.0, size);
        RangeAllocator {
            base,
            size,
            maps: Arc::new(Maps {
                free,
                live: BTreeMap::new(),
            }),
        }
    }

    /// Allocates `len` bytes (rounded up to whole cache lines).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::OutOfMemory`] if no free range fits.
    pub fn alloc(&mut self, len: u64) -> Result<PmAddr, AllocError> {
        let len = round_up_lines(len.max(1));
        let found = self
            .maps
            .free
            .iter()
            .find(|(_, &flen)| flen >= len)
            .map(|(&start, &flen)| (start, flen));
        let (start, flen) = found.ok_or(AllocError::OutOfMemory { requested: len })?;
        let maps = Arc::make_mut(&mut self.maps);
        maps.free.remove(&start);
        if flen > len {
            maps.free.insert(start + len, flen - len);
        }
        maps.live.insert(start, len);
        Ok(PmAddr(start))
    }

    /// Frees a previous allocation, coalescing with neighbours.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::NotAllocated`] if `addr` was not returned by
    /// [`alloc`](Self::alloc) (or was already freed).
    pub fn free(&mut self, addr: PmAddr) -> Result<(), AllocError> {
        let len = self
            .allocation_len(addr)
            .ok_or(AllocError::NotAllocated { addr })?;
        let Maps { free, live } = Arc::make_mut(&mut self.maps);
        live.remove(&addr.0);
        let mut start = addr.0;
        let mut size = len;
        // Coalesce with the predecessor if adjacent.
        if let Some((&pstart, &plen)) = free.range(..start).next_back() {
            if pstart + plen == start {
                free.remove(&pstart);
                start = pstart;
                size += plen;
            }
        }
        // Coalesce with the successor if adjacent.
        if let Some(slen) = free.remove(&(addr.0 + len)) {
            size += slen;
        }
        free.insert(start, size);
        Ok(())
    }

    /// The size in bytes of the live allocation starting at `addr`.
    pub fn allocation_len(&self, addr: PmAddr) -> Option<u64> {
        self.maps.live.get(&addr.0).copied()
    }

    /// Total bytes currently allocated.
    pub fn live_bytes(&self) -> u64 {
        self.maps.live.values().sum()
    }

    /// Total bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.maps.free.values().sum()
    }

    /// The managed range's base address.
    pub fn base(&self) -> PmAddr {
        self.base
    }

    /// The managed range's total size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Iterates over live allocations as `(start, len)` in address order.
    pub fn live_allocations(&self) -> impl Iterator<Item = (PmAddr, u64)> + '_ {
        self.maps.live.iter().map(|(&a, &l)| (PmAddr(a), l))
    }

    /// Gives up this handle's share of the maps, so the handle it was
    /// cloned from allocates and frees in place again. Leaves this one
    /// with no free range and no allocation: only a `clone_from` makes
    /// it usable again.
    pub fn release(&mut self) {
        self.maps = Arc::default();
    }
}

impl fmt::Debug for RangeAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RangeAllocator")
            .field("base", &self.base)
            .field("size", &self.size)
            .field("live", &self.maps.live.len())
            .field("free_ranges", &self.maps.free.len())
            .finish()
    }
}

fn round_up_lines(len: u64) -> u64 {
    len.div_ceil(LINE_BYTES) * LINE_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn heap() -> RangeAllocator {
        RangeAllocator::new(PmAddr(0), 64 * 1024)
    }

    #[test]
    fn allocations_are_line_aligned_and_disjoint() {
        let mut h = heap();
        let a = h.alloc(1).unwrap();
        let b = h.alloc(65).unwrap();
        assert_eq!(a.0 % 64, 0);
        assert_eq!(b.0 % 64, 0);
        assert_eq!(h.allocation_len(a), Some(64));
        assert_eq!(h.allocation_len(b), Some(128));
        assert!(b.0 >= a.0 + 64);
    }

    #[test]
    fn accounting_adds_up() {
        let mut h = heap();
        let total = h.free_bytes();
        let a = h.alloc(100).unwrap();
        assert_eq!(h.live_bytes() + h.free_bytes(), total);
        h.free(a).unwrap();
        assert_eq!(h.free_bytes(), total);
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn free_coalesces_both_sides() {
        let mut h = heap();
        let a = h.alloc(64).unwrap();
        let b = h.alloc(64).unwrap();
        let c = h.alloc(64).unwrap();
        let _d = h.alloc(64).unwrap(); // guard so c has a live successor
        h.free(a).unwrap();
        h.free(c).unwrap();
        h.free(b).unwrap(); // merges with both neighbours
                            // After coalescing we can allocate the whole 3-line span again.
        let big = h.alloc(192).unwrap();
        assert_eq!(big, a);
    }

    #[test]
    fn oom_is_reported() {
        let mut h = RangeAllocator::new(PmAddr(0), 128);
        h.alloc(128).unwrap();
        let err = h.alloc(1).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { requested: 64 }));
        assert!(err.to_string().contains("out of simulated memory"));
    }

    #[test]
    fn double_free_is_an_error() {
        let mut h = heap();
        let a = h.alloc(64).unwrap();
        h.free(a).unwrap();
        assert!(matches!(h.free(a), Err(AllocError::NotAllocated { .. })));
    }

    #[test]
    fn free_of_interior_address_is_an_error() {
        let mut h = heap();
        let a = h.alloc(128).unwrap();
        assert!(h.free(PmAddr(a.0 + 64)).is_err());
    }

    #[test]
    #[should_panic(expected = "line-aligned")]
    fn misaligned_base_panics() {
        let _ = RangeAllocator::new(PmAddr(3), 1024);
    }

    #[test]
    fn live_allocations_iterates_in_order() {
        let mut h = heap();
        let a = h.alloc(64).unwrap();
        let b = h.alloc(64).unwrap();
        let v: Vec<_> = h.live_allocations().collect();
        assert_eq!(v, vec![(a, 64), (b, 64)]);
    }

    #[test]
    fn zero_len_alloc_rounds_to_one_line() {
        let mut h = heap();
        let a = h.alloc(0).unwrap();
        assert_eq!(h.allocation_len(a), Some(64));
    }

    #[test]
    fn clones_share_maps_until_one_writes() {
        let mut h = heap();
        let a = h.alloc(64).unwrap();
        let mut copy = h.clone();
        assert!(Arc::ptr_eq(&h.maps, &copy.maps));
        // A refresh from the handle it shares with is a pointer compare.
        copy.clone_from(&h);
        assert!(Arc::ptr_eq(&h.maps, &copy.maps));
        // The first write to a shared handle copies the maps; the other
        // handle keeps the old state.
        let b = copy.alloc(64).unwrap();
        assert!(!Arc::ptr_eq(&h.maps, &copy.maps));
        assert_eq!(h.allocation_len(b), None);
        // Released, a copy gives its share back: the source writes in place.
        copy.clone_from(&h);
        copy.release();
        assert_eq!(Arc::strong_count(&h.maps), 1);
        let before = Arc::as_ptr(&h.maps);
        h.free(a).unwrap();
        assert_eq!(Arc::as_ptr(&h.maps), before);
        assert_eq!(copy.live_allocations().count(), 0);
        assert_eq!(copy.free_bytes(), 0);
    }

    #[test]
    fn failed_free_leaves_shared_maps_shared() {
        let h = heap();
        let mut copy = h.clone();
        assert!(copy.free(PmAddr(64)).is_err());
        assert!(Arc::ptr_eq(&h.maps, &copy.maps));
    }

    /// One step a handle took, with the result it got.
    #[derive(Clone, Debug)]
    enum Step {
        Alloc(u64, Result<PmAddr, AllocError>),
        Free(PmAddr, Result<(), AllocError>),
    }

    #[derive(Clone, Debug)]
    enum HeapOp {
        Alloc { who: u8, len: u64 },
        Free { who: u8, pick: u8 },
        Refresh { src: u8 },
    }

    fn heap_op() -> impl Strategy<Value = HeapOp> {
        prop_oneof![
            4 => (any::<u8>(), 1u64..512).prop_map(|(who, len)| HeapOp::Alloc { who, len }),
            3 => (any::<u8>(), any::<u8>()).prop_map(|(who, pick)| HeapOp::Free { who, pick }),
            1 => any::<u8>().prop_map(|src| HeapOp::Refresh { src }),
        ]
    }

    const SHARED_HEAP: u64 = 4096;

    /// A fresh allocator that replays `log`, checked step by step against
    /// the results the logged handle got.
    fn replay(log: &[Step]) -> Result<RangeAllocator, TestCaseError> {
        let mut fresh = RangeAllocator::new(PmAddr(0), SHARED_HEAP);
        for step in log {
            match step {
                Step::Alloc(len, got) => prop_assert_eq!(&fresh.alloc(*len), got),
                Step::Free(addr, got) => prop_assert_eq!(&fresh.free(*addr), got),
            }
        }
        Ok(fresh)
    }

    proptest! {
        /// An allocator, a clone of it and a third handle refreshed by
        /// `clone_from` (first from a differently shaped allocator) step
        /// through interleaved allocs and frees. Every handle matches a
        /// fresh allocator that replays its own history — same
        /// addresses, same live allocations, same free bytes — and once
        /// the other two drop, the original owns its maps alone.
        #[test]
        fn prop_shared_handles_match_fresh_replays(
            ops in proptest::collection::vec(heap_op(), 1..64),
        ) {
            let original = RangeAllocator::new(PmAddr(0), SHARED_HEAP);
            let clone = original.clone();
            let mut third = RangeAllocator::new(PmAddr(1 << 20), 2 * SHARED_HEAP);
            third.alloc(128).unwrap();
            third.clone_from(&original);
            let mut handles = vec![original, clone, third];
            let mut logs: Vec<Vec<Step>> = vec![Vec::new(); 3];
            for op in &ops {
                match *op {
                    HeapOp::Alloc { who, len } => {
                        let w = who as usize % 3;
                        let got = handles[w].alloc(len);
                        logs[w].push(Step::Alloc(len, got));
                    }
                    HeapOp::Free { who, pick } => {
                        let w = who as usize % 3;
                        let live: Vec<PmAddr> =
                            handles[w].live_allocations().map(|(a, _)| a).collect();
                        // With nothing live, free an address that was never
                        // allocated: the error path must change nothing.
                        let addr = live
                            .get(pick as usize % live.len().max(1))
                            .copied()
                            .unwrap_or(PmAddr(64 * u64::from(pick)));
                        let got = handles[w].free(addr);
                        logs[w].push(Step::Free(addr, got));
                    }
                    HeapOp::Refresh { src } => {
                        let s = src as usize % 2;
                        let (sources, third) = handles.split_at_mut(2);
                        third[0].clone_from(&sources[s]);
                        logs[2] = logs[s].clone();
                    }
                }
                for (h, log) in handles.iter().zip(&logs) {
                    let fresh = replay(log)?;
                    prop_assert_eq!(
                        h.live_allocations().collect::<Vec<_>>(),
                        fresh.live_allocations().collect::<Vec<_>>()
                    );
                    prop_assert_eq!(h.free_bytes(), fresh.free_bytes());
                    prop_assert_eq!(h.live_bytes(), fresh.live_bytes());
                }
            }
            handles.truncate(1);
            prop_assert_eq!(Arc::strong_count(&handles[0].maps), 1);
        }

        #[test]
        fn prop_alloc_free_never_leaks(ops in proptest::collection::vec((any::<bool>(), 1u64..512), 1..64)) {
            let mut h = RangeAllocator::new(PmAddr(0), 1 << 20);
            let total = h.free_bytes();
            let mut live = Vec::new();
            for (do_alloc, len) in ops {
                if do_alloc || live.is_empty() {
                    if let Ok(a) = h.alloc(len) {
                        live.push(a);
                    }
                } else {
                    let a = live.pop().unwrap();
                    h.free(a).unwrap();
                }
                prop_assert_eq!(h.live_bytes() + h.free_bytes(), total);
            }
            for a in live {
                h.free(a).unwrap();
            }
            prop_assert_eq!(h.free_bytes(), total);
        }

        #[test]
        fn prop_live_allocations_disjoint(lens in proptest::collection::vec(1u64..300, 1..32)) {
            let mut h = RangeAllocator::new(PmAddr(0), 1 << 20);
            for len in lens {
                h.alloc(len).unwrap();
            }
            let allocs: Vec<_> = h.live_allocations().collect();
            for w in allocs.windows(2) {
                prop_assert!(w[0].0 .0 + w[0].1 <= w[1].0 .0);
            }
        }
    }
}
