//! The sparse, byte-accurate contents of main memory.

use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

use crate::addr::{LineAddr, PmAddr, LINE_BYTES, PAGE_BYTES};

/// The bytes of one 4KB page: one allocation behind its [`Arc`].
///
/// Pages are held behind [`Arc`] so a [`MemoryImage::snapshot`] is a
/// pointer-table copy: both images share every page until one of them
/// writes, and the write path deep-copies only the shared page it is
/// about to mutate (copy-on-write). `Arc` rather than `Rc` keeps the
/// image `Send`, which the parallel figure harness relies on.
#[derive(Clone)]
struct Page([u8; PAGE_BYTES as usize]);

/// Sentinel key for an empty index slot. Page numbers are byte addresses
/// divided by `PAGE_BYTES`, so `u64::MAX` can never be a real page number.
const EMPTY: u64 = u64::MAX;

/// An open-addressed (linear-probe) map from page number to the page's slot
/// in the backing `Vec<Page>`. Supports insert and lookup only — the image
/// never frees a page, so no tombstones are needed.
struct PageIndex {
    keys: Vec<u64>,
    slots: Vec<u32>,
    /// Capacity minus one; capacity is always a power of two.
    mask: usize,
    len: usize,
}

impl Clone for PageIndex {
    fn clone(&self) -> Self {
        PageIndex {
            keys: self.keys.clone(),
            slots: self.slots.clone(),
            mask: self.mask,
            len: self.len,
        }
    }

    /// Allocation-reusing copy: restoring a machine from a snapshot
    /// overwrites the live index in place, so the key/slot tables keep
    /// their buffers across forks.
    fn clone_from(&mut self, src: &Self) {
        self.keys.clone_from(&src.keys);
        self.slots.clone_from(&src.slots);
        self.mask = src.mask;
        self.len = src.len;
    }
}

impl PageIndex {
    fn new() -> Self {
        const CAP: usize = 64;
        PageIndex {
            keys: vec![EMPTY; CAP],
            slots: vec![0; CAP],
            mask: CAP - 1,
            len: 0,
        }
    }

    /// Fibonacci hashing: multiplicative spread of the page number across
    /// the table, using the high bits (the low bits of sequential page
    /// numbers are dense and would cluster under masking alone).
    #[inline]
    fn bucket(&self, page_no: u64) -> usize {
        let h = page_no.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & self.mask
    }

    /// Lookup plus the number of probe steps it took (1 = direct hit in
    /// the home bucket) — the probe count feeds the image's access
    /// statistics without a second pass.
    #[inline]
    fn get_probed(&self, page_no: u64) -> (Option<u32>, u64) {
        let mut i = self.bucket(page_no);
        let mut probes = 1u64;
        loop {
            let k = self.keys[i];
            if k == page_no {
                return (Some(self.slots[i]), probes);
            }
            if k == EMPTY {
                return (None, probes);
            }
            probes += 1;
            i = (i + 1) & self.mask;
        }
    }

    fn insert(&mut self, page_no: u64, slot: u32) {
        // Grow at 3/4 load to keep probe chains short.
        if (self.len + 1) * 4 > (self.mask + 1) * 3 {
            self.grow();
        }
        let mut i = self.bucket(page_no);
        while self.keys[i] != EMPTY {
            debug_assert_ne!(self.keys[i], page_no, "page inserted twice");
            i = (i + 1) & self.mask;
        }
        self.keys[i] = page_no;
        self.slots[i] = slot;
        self.len += 1;
    }

    fn grow(&mut self) {
        let new_cap = (self.mask + 1) * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_slots = std::mem::replace(&mut self.slots, vec![0; new_cap]);
        self.mask = new_cap - 1;
        for (k, s) in old_keys.into_iter().zip(old_slots) {
            if k == EMPTY {
                continue;
            }
            let mut i = self.bucket(k);
            while self.keys[i] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.keys[i] = k;
            self.slots[i] = s;
        }
    }
}

/// Byte-accurate main-memory contents with page-granular persistent bits.
///
/// In the machine model this image holds what is *in the memory modules*:
/// for PM pages, that is the durable state (plus whatever the WPQ flushes on
/// a crash — see `asap-mem`); caches hold newer dirty copies on top.
///
/// Unwritten memory reads as zero, like freshly mapped pages, and a page
/// is allocated only when first written.
///
/// Internally pages live in a flat `Vec` reached through an open-addressed
/// page index plus a one-entry last-page cache — almost every access in a
/// simulation run touches the same page as its predecessor, so the common
/// case is one compare instead of a map walk. The persistent bits are not
/// in the pages: they are one sorted set of coalesced page ranges, so
/// marking megabytes of log buffer persistent inserts one range and
/// allocates no page.
///
/// # Example
///
/// ```
/// use asap_pmem::{MemoryImage, PmAddr};
///
/// let mut m = MemoryImage::new();
/// m.write(PmAddr(10), &[1, 2, 3]);
/// let mut buf = [0u8; 3];
/// m.read(PmAddr(10), &mut buf);
/// assert_eq!(buf, [1, 2, 3]);
/// assert_eq!(m.read_u64(PmAddr(4096)), 0); // untouched memory is zero
/// ```
pub struct MemoryImage {
    pages: Vec<Arc<Page>>,
    index: PageIndex,
    /// Last page looked up, as `(page_no, slot)` — hit on nearly every
    /// sequential access.
    last: Cell<(u64, u32)>,
    /// Persistent page ranges `[first, end)` in page numbers: sorted,
    /// disjoint and never adjacent (touching ranges are merged).
    persistent: Vec<(u64, u64)>,
    /// Hot-path access statistics (plain `Cell`s, not atomics — each
    /// image belongs to one simulation). Never printed by figures;
    /// taken into the host metrics registry after a run. They count this
    /// image's own work: a clone starts at zero and `clone_from` leaves
    /// them alone, so a snapshot or a fork never re-counts its source's.
    stats: Cell<ImageStats>,
}

// An image (and hence a machine snapshot) is `Send` — `Arc<Page>`
// refcounts are atomic, so two images sharing pages may live on
// different threads and fault their CoW copies concurrently without
// contending (each `Arc::strong_count` check and page deep-copy touches
// only that page's refcount). The `Cell` caches above keep it `!Sync`:
// the sweep engine shares snapshots across workers behind a `Mutex`,
// never by reference.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<MemoryImage>();
};

/// Access statistics of a [`MemoryImage`]: how hard the page lookup
/// machinery worked. `last_page_hits / lookups` is the one-entry-cache
/// hit rate; `index_probes` counts open-addressing steps (1 per
/// fall-through lookup when the table is collision-free).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImageStats {
    /// Page lookups (one per page touched by each read or write).
    pub lookups: u64,
    /// Lookups answered by the one-entry last-page cache.
    pub last_page_hits: u64,
    /// Linear-probe steps taken by lookups that reached the open-addressed
    /// page index.
    pub index_probes: u64,
    /// Pages deep-copied by the write path because a snapshot still shared
    /// them (copy-on-write faults).
    pub cow_copies: u64,
}

impl MemoryImage {
    /// Creates an empty (all-zero) image.
    pub fn new() -> Self {
        MemoryImage {
            pages: Vec::new(),
            index: PageIndex::new(),
            last: Cell::new((EMPTY, 0)),
            persistent: Vec::new(),
            stats: Cell::new(ImageStats::default()),
        }
    }

    /// Slot of `page_no` if the page has been touched, via the last-page
    /// cache first.
    #[inline]
    fn lookup(&self, page_no: u64) -> Option<u32> {
        let mut st = self.stats.get();
        st.lookups += 1;
        let (cached_no, cached_slot) = self.last.get();
        if cached_no == page_no {
            st.last_page_hits += 1;
            self.stats.set(st);
            return Some(cached_slot);
        }
        let (slot, probes) = self.index.get_probed(page_no);
        st.index_probes += probes;
        self.stats.set(st);
        let slot = slot?;
        self.last.set((page_no, slot));
        Some(slot)
    }

    fn page_mut(&mut self, page_no: u64) -> &mut Page {
        let slot = match self.lookup(page_no) {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.pages.len()).expect("page count fits u32");
                self.pages.push(Arc::new(Page([0; PAGE_BYTES as usize])));
                self.index.insert(page_no, s);
                self.last.set((page_no, s));
                s
            }
        };
        let arc = &mut self.pages[slot as usize];
        // Copy-on-write: a page still shared with a snapshot is deep-copied
        // before the first mutation; exclusively owned pages (the common
        // case — there are no weak handles, so `strong_count == 1` means
        // unique) are written in place with no extra work.
        if Arc::strong_count(arc) != 1 {
            let mut st = self.stats.get();
            st.cow_copies += 1;
            self.stats.set(st);
            *arc = Arc::new(Page::clone(arc));
        }
        Arc::get_mut(arc).expect("page unique after copy-on-write")
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: PmAddr, buf: &mut [u8]) {
        let mut pos = addr.0;
        let mut done = 0usize;
        while done < buf.len() {
            let page_no = pos / PAGE_BYTES;
            let off = (pos % PAGE_BYTES) as usize;
            let n = (buf.len() - done).min(PAGE_BYTES as usize - off);
            match self.lookup(page_no) {
                Some(slot) => {
                    let p = &self.pages[slot as usize];
                    buf[done..done + n].copy_from_slice(&p.0[off..off + n]);
                }
                None => buf[done..done + n].fill(0),
            }
            done += n;
            pos += n as u64;
        }
    }

    /// Writes `data` starting at `addr`.
    pub fn write(&mut self, addr: PmAddr, data: &[u8]) {
        let mut pos = addr.0;
        let mut done = 0usize;
        while done < data.len() {
            let page_no = pos / PAGE_BYTES;
            let off = (pos % PAGE_BYTES) as usize;
            let n = (data.len() - done).min(PAGE_BYTES as usize - off);
            self.page_mut(page_no).0[off..off + n].copy_from_slice(&data[done..done + n]);
            done += n;
            pos += n as u64;
        }
    }

    /// Reads a little-endian `u64` at `addr`: one page lookup and an
    /// 8-byte load when the value sits in one page, the general
    /// [`read`](Self::read) when it straddles two.
    pub fn read_u64(&self, addr: PmAddr) -> u64 {
        let off = (addr.0 % PAGE_BYTES) as usize;
        if off + 8 > PAGE_BYTES as usize {
            let mut b = [0u8; 8];
            self.read(addr, &mut b);
            return u64::from_le_bytes(b);
        }
        match self.lookup(addr.0 / PAGE_BYTES) {
            Some(slot) => {
                let page = &self.pages[slot as usize].0;
                u64::from_le_bytes(page[off..off + 8].try_into().expect("8 bytes"))
            }
            None => 0,
        }
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: PmAddr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Reads one whole cache line.
    pub fn read_line(&self, line: LineAddr) -> [u8; LINE_BYTES as usize] {
        let mut buf = [0u8; LINE_BYTES as usize];
        self.read(line.base(), &mut buf);
        buf
    }

    /// Writes one whole cache line.
    pub fn write_line(&mut self, line: LineAddr, data: &[u8; LINE_BYTES as usize]) {
        self.write(line.base(), data);
    }

    /// Sets the page-table persistent bit for every page overlapping
    /// `[addr, addr + len)` — what `asap_malloc` does (§4.6).
    ///
    /// Marking merges one page range into the image's range set: it
    /// allocates no page and copies no shared page, and a marked page
    /// still reads zero until written. Bits are never cleared.
    pub fn mark_persistent(&mut self, addr: PmAddr, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr.page();
        let end = (addr.0 + len - 1) / PAGE_BYTES + 1;
        // The ranges that overlap or touch `[first, end)` merge with it.
        let lo = self.persistent.partition_point(|r| r.1 < first);
        let hi = self.persistent.partition_point(|r| r.0 <= end);
        if lo == hi {
            self.persistent.insert(lo, (first, end));
        } else {
            let merged = (
                first.min(self.persistent[lo].0),
                end.max(self.persistent[hi - 1].1),
            );
            self.persistent[lo] = merged;
            self.persistent.drain(lo + 1..hi);
        }
    }

    /// Whether the page containing `addr` has its persistent bit set: a
    /// search of the range set, whether or not the page was ever written.
    pub fn is_persistent(&self, addr: PmAddr) -> bool {
        let page = addr.page();
        let i = self.persistent.partition_point(|r| r.1 <= page);
        self.persistent.get(i).is_some_and(|r| r.0 <= page)
    }

    /// Whether the page containing `line` has its persistent bit set.
    pub fn line_is_persistent(&self, line: LineAddr) -> bool {
        self.is_persistent(line.base())
    }

    /// Number of pages that hold bytes: every page written at least once.
    /// Reading or marking a page allocates none.
    pub fn touched_pages(&self) -> usize {
        self.pages.len()
    }

    /// Access statistics since this image was created, cloned or last
    /// drained by [`take_access_stats`](Self::take_access_stats). They
    /// survive [`clone_from`](Clone::clone_from), like the image's
    /// identity does.
    pub fn access_stats(&self) -> ImageStats {
        self.stats.get()
    }

    /// Returns the access statistics and zeroes them, so a second flush
    /// of the same image adds nothing.
    pub fn take_access_stats(&self) -> ImageStats {
        self.stats.take()
    }

    /// A copy-on-write snapshot of the image: O(touched pages) pointer
    /// copies that bump each page's refcount, not a byte copy. Writes to
    /// either image after the snapshot deep-copy only the page being
    /// written (counted in [`ImageStats::cow_copies`]). Refreshing the
    /// snapshot later with `clone_from` re-points only the pages that
    /// differ (see the [`Clone`] impl).
    pub fn snapshot(&self) -> MemoryImage {
        self.clone()
    }

    /// Number of pages currently shared with at least one other image
    /// (refcount > 1). Purely introspective — used by the CoW property
    /// tests to prove forks release their pages.
    pub fn shared_pages(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| Arc::strong_count(p) > 1)
            .count()
    }
}

/// `clone` is the snapshot primitive (pointer-table copy, refcount bumps,
/// plus a copy of the persistent range set); `clone_from` reuses the
/// destination's page table, index and range buffers and re-points only
/// the page slots whose page differs from the source's, so
/// refreshing a copy from the image it was cloned from costs one pointer
/// compare per page plus a refcount pair per page either side rewrote.
/// The price of keeping the copy's pages: until the next refresh, the
/// source copies on write any page the copy still holds.
/// Neither copies the access statistics: a clone starts at zero and
/// `clone_from` keeps the destination's, so each image counts only the
/// lookups and copy-on-write faults it performed itself.
impl Clone for MemoryImage {
    fn clone(&self) -> Self {
        MemoryImage {
            pages: self.pages.clone(),
            index: self.index.clone(),
            last: self.last.clone(),
            persistent: self.persistent.clone(),
            stats: Cell::new(ImageStats::default()),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.pages.truncate(src.pages.len());
        let kept = self.pages.len();
        for (dst, page) in self.pages.iter_mut().zip(&src.pages) {
            if !Arc::ptr_eq(dst, page) {
                *dst = Arc::clone(page);
            }
        }
        self.pages.extend_from_slice(&src.pages[kept..]);
        self.index.clone_from(&src.index);
        self.last.set(src.last.get());
        self.persistent.clone_from(&src.persistent);
    }
}

impl Default for MemoryImage {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for MemoryImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryImage")
            .field("touched_pages", &self.pages.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn untouched_memory_is_zero() {
        let m = MemoryImage::new();
        let mut buf = [0xffu8; 16];
        m.read(PmAddr(123456), &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(m.touched_pages(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = MemoryImage::new();
        m.write(PmAddr(100), b"hello world");
        let mut buf = [0u8; 11];
        m.read(PmAddr(100), &mut buf);
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn access_stats_track_last_page_cache() {
        let mut m = MemoryImage::new();
        m.write(PmAddr(0), &[1]);
        m.write(PmAddr(1), &[2]); // same page: last-page hit
        m.write(PmAddr(PAGE_BYTES), &[3]); // new page: index miss + insert
        let st = m.access_stats();
        assert!(st.lookups >= 3);
        assert!(st.last_page_hits >= 1);
        assert!(st.index_probes >= 1);
        assert!(st.last_page_hits < st.lookups);
    }

    #[test]
    fn cross_page_write() {
        let mut m = MemoryImage::new();
        let addr = PmAddr(PAGE_BYTES - 4);
        m.write(addr, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut buf = [0u8; 8];
        m.read(addr, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.touched_pages(), 2);
    }

    #[test]
    fn write_spanning_three_pages() {
        let mut m = MemoryImage::new();
        // Starts mid-page 0, covers all of page 1, ends mid-page 2.
        let addr = PmAddr(PAGE_BYTES / 2);
        let data: Vec<u8> = (0..2 * PAGE_BYTES).map(|i| (i % 251) as u8).collect();
        m.write(addr, &data);
        assert_eq!(m.touched_pages(), 3);
        let mut buf = vec![0u8; data.len()];
        m.read(addr, &mut buf);
        assert_eq!(buf, data);
        // The bytes just outside the span stay zero.
        assert_eq!(m.read_u64(PmAddr(addr.0 - 8)), 0);
        let mut tail = [0u8; 8];
        m.read(PmAddr(addr.0 + 2 * PAGE_BYTES), &mut tail);
        assert_eq!(tail, [0u8; 8]);
    }

    #[test]
    fn u64_roundtrip() {
        let mut m = MemoryImage::new();
        m.write_u64(PmAddr(8), u64::MAX - 1);
        assert_eq!(m.read_u64(PmAddr(8)), u64::MAX - 1);
    }

    #[test]
    fn line_roundtrip() {
        let mut m = MemoryImage::new();
        let mut line = [0u8; 64];
        line[0] = 0xab;
        line[63] = 0xcd;
        m.write_line(LineAddr(5), &line);
        assert_eq!(m.read_line(LineAddr(5)), line);
    }

    #[test]
    fn sparse_pages_do_not_interfere() {
        // Widely scattered pages exercise the open-addressed index across
        // several growth steps; every untouched page in between reads zero.
        let mut m = MemoryImage::new();
        let stride = 977 * PAGE_BYTES; // coprime spread
        for i in 0..300u64 {
            m.write_u64(PmAddr(i * stride), i + 1);
        }
        assert_eq!(m.touched_pages(), 300);
        for i in 0..300u64 {
            assert_eq!(m.read_u64(PmAddr(i * stride)), i + 1);
            assert_eq!(m.read_u64(PmAddr(i * stride + PAGE_BYTES)), 0);
        }
    }

    #[test]
    fn sparse_reread_after_crash_style_line_flush() {
        // Lines flushed in the pattern of a post-crash WPQ flush (scattered
        // line-granularity writes), then re-read sparsely: flushed lines
        // hold their data, neighbours on untouched pages read zero.
        let mut m = MemoryImage::new();
        let lines_per_page = PAGE_BYTES / LINE_BYTES;
        for i in 0..64u64 {
            let line = LineAddr(i * 3 * lines_per_page + i); // distinct pages
            m.write_line(line, &[i as u8 + 1; 64]);
        }
        for i in (0..64u64).rev() {
            let line = LineAddr(i * 3 * lines_per_page + i);
            assert_eq!(m.read_line(line), [i as u8 + 1; 64]);
            let untouched = LineAddr((i * 3 + 1) * lines_per_page);
            assert_eq!(m.read_line(untouched), [0u8; 64]);
        }
    }

    #[test]
    fn alternating_page_accesses_stay_correct() {
        // Ping-pong between two pages so every access misses the last-page
        // cache; values must still come from the right page.
        let mut m = MemoryImage::new();
        let a = PmAddr(0);
        let b = PmAddr(10 * PAGE_BYTES);
        m.write_u64(a, 1);
        m.write_u64(b, 2);
        for _ in 0..8 {
            assert_eq!(m.read_u64(a), 1);
            assert_eq!(m.read_u64(b), 2);
        }
    }

    #[test]
    fn persistent_bit_is_page_granular() {
        let mut m = MemoryImage::new();
        m.mark_persistent(PmAddr(PAGE_BYTES + 10), 1);
        assert!(m.is_persistent(PmAddr(PAGE_BYTES)));
        assert!(m.is_persistent(PmAddr(2 * PAGE_BYTES - 1)));
        assert!(!m.is_persistent(PmAddr(0)));
        assert!(!m.is_persistent(PmAddr(2 * PAGE_BYTES)));
    }

    #[test]
    fn mark_persistent_spans_pages() {
        let mut m = MemoryImage::new();
        m.mark_persistent(PmAddr(0), 3 * PAGE_BYTES);
        for p in 0..3 {
            assert!(m.is_persistent(PmAddr(p * PAGE_BYTES)));
        }
        assert!(!m.is_persistent(PmAddr(3 * PAGE_BYTES)));
    }

    #[test]
    fn mark_persistent_zero_len_is_noop() {
        let mut m = MemoryImage::new();
        m.mark_persistent(PmAddr(0), 0);
        assert!(!m.is_persistent(PmAddr(0)));
    }

    #[test]
    fn line_is_persistent_follows_page() {
        let mut m = MemoryImage::new();
        m.mark_persistent(PmAddr(0), 64);
        assert!(m.line_is_persistent(LineAddr(0)));
        assert!(m.line_is_persistent(LineAddr(63))); // same page
        assert!(!m.line_is_persistent(LineAddr(64))); // next page
    }

    #[test]
    fn debug_nonempty() {
        assert!(format!("{:?}", MemoryImage::new()).contains("MemoryImage"));
    }

    #[test]
    fn snapshot_shares_pages_until_write() {
        let mut m = MemoryImage::new();
        m.write_u64(PmAddr(0), 7);
        m.write_u64(PmAddr(PAGE_BYTES), 8);
        let snap = m.snapshot();
        assert_eq!(m.shared_pages(), 2);
        assert_eq!(snap.shared_pages(), 2);
        assert_eq!(m.access_stats().cow_copies, 0);
        // Writing one page copies exactly that page; the other stays shared.
        m.write_u64(PmAddr(8), 9);
        assert_eq!(m.access_stats().cow_copies, 1);
        assert_eq!(m.shared_pages(), 1);
        // The snapshot kept the pre-write bytes.
        assert_eq!(snap.read_u64(PmAddr(8)), 0);
        assert_eq!(snap.read_u64(PmAddr(0)), 7);
        assert_eq!(m.read_u64(PmAddr(8)), 9);
        // A second write to the now-unique page is free.
        m.write_u64(PmAddr(16), 10);
        assert_eq!(m.access_stats().cow_copies, 1);
    }

    #[test]
    fn snapshot_preserves_persistent_bits_and_marking_copies_no_page() {
        let mut m = MemoryImage::new();
        m.write_u64(PmAddr(0), 1);
        let snap = m.snapshot();
        // Marking changes the image's range set, not the shared page.
        m.mark_persistent(PmAddr(0), 8);
        assert!(m.is_persistent(PmAddr(0)));
        assert!(!snap.is_persistent(PmAddr(0)));
        assert_eq!(m.access_stats().cow_copies, 0);
        assert_eq!(m.shared_pages(), 1);
    }

    #[test]
    fn overlapping_and_adjacent_marks_coalesce() {
        let mut m = MemoryImage::new();
        m.mark_persistent(PmAddr(4 * PAGE_BYTES), PAGE_BYTES);
        m.mark_persistent(PmAddr(8 * PAGE_BYTES), 2 * PAGE_BYTES);
        m.mark_persistent(PmAddr(0), 1);
        assert_eq!(m.persistent, [(0, 1), (4, 5), (8, 10)]);
        // Adjacent on the left of (4, 5), overlapping (8, 10) on the right.
        m.mark_persistent(PmAddr(5 * PAGE_BYTES), 3 * PAGE_BYTES + 1);
        assert_eq!(m.persistent, [(0, 1), (4, 10)]);
        // Touching both remaining ranges merges everything.
        m.mark_persistent(PmAddr(PAGE_BYTES), 3 * PAGE_BYTES);
        assert_eq!(m.persistent, [(0, 10)]);
        // A mark inside a range changes nothing.
        m.mark_persistent(PmAddr(3 * PAGE_BYTES), 64);
        assert_eq!(m.persistent, [(0, 10)]);
        assert_eq!(m.touched_pages(), 0);
    }

    #[test]
    fn dropping_all_snapshots_returns_refcounts_to_one() {
        let mut m = MemoryImage::new();
        for p in 0..8u64 {
            m.write_u64(PmAddr(p * PAGE_BYTES), p);
        }
        let a = m.snapshot();
        let b = a.snapshot();
        assert_eq!(m.shared_pages(), 8);
        drop(a);
        assert_eq!(m.shared_pages(), 8); // still shared with b
        drop(b);
        assert_eq!(m.shared_pages(), 0); // exclusively owned again
    }

    #[test]
    fn copies_count_only_their_own_accesses() {
        let mut m = MemoryImage::new();
        for p in 0..4u64 {
            m.write_u64(PmAddr(p * PAGE_BYTES), p);
        }
        let before = m.access_stats();
        assert!(before.lookups > 0);
        // A snapshot starts from zero and does not disturb the source.
        let snap = m.snapshot();
        assert_eq!(snap.access_stats(), ImageStats::default());
        assert_eq!(m.access_stats(), before);
        // `clone_from` keeps the destination's counters.
        let mut scratch = MemoryImage::new();
        scratch.write_u64(PmAddr(0), 1);
        let own = scratch.access_stats();
        scratch.clone_from(&m);
        assert_eq!(scratch.access_stats(), own);
        // Taking drains: a second take reads zero.
        assert_eq!(m.take_access_stats(), before);
        assert_eq!(m.take_access_stats(), ImageStats::default());
    }

    #[test]
    fn clone_from_reuses_and_matches_clone() {
        let mut m = MemoryImage::new();
        for p in 0..20u64 {
            m.write_u64(PmAddr(p * PAGE_BYTES), p + 1);
        }
        let mut scratch = MemoryImage::new();
        scratch.write_u64(PmAddr(5 * PAGE_BYTES), 999);
        scratch.clone_from(&m);
        for p in 0..20u64 {
            assert_eq!(scratch.read_u64(PmAddr(p * PAGE_BYTES)), p + 1);
        }
        assert_eq!(scratch.touched_pages(), m.touched_pages());
        // Writes to the restored copy do not leak back.
        scratch.write_u64(PmAddr(0), 42);
        assert_eq!(m.read_u64(PmAddr(0)), 1);
    }

    /// The page slots of `m` as `(pointer, refcount)`.
    fn page_slots(m: &MemoryImage) -> Vec<(*const Page, usize)> {
        m.pages
            .iter()
            .map(|p| (Arc::as_ptr(p), Arc::strong_count(p)))
            .collect()
    }

    #[test]
    fn clone_from_repoints_only_changed_pages() {
        let mut live = MemoryImage::new();
        for p in 0..6u64 {
            live.write_u64(PmAddr(p * PAGE_BYTES), p + 1);
        }
        let mut copy = live.clone();
        // The copy writes two pages of its own: both stop sharing.
        copy.write_u64(PmAddr(PAGE_BYTES), 70);
        copy.write_u64(PmAddr(4 * PAGE_BYTES), 80);
        // A refresh from the unchanged source re-points just those two,
        // and a second one touches no pointer and no refcount.
        copy.clone_from(&live);
        assert_eq!(page_slots(&copy), page_slots(&live));
        let (live_before, copy_before) = (page_slots(&live), page_slots(&copy));
        copy.clone_from(&live);
        assert_eq!(page_slots(&live), live_before);
        assert_eq!(page_slots(&copy), copy_before);
        // The source rewrites one page (copying it on write, since the
        // copy holds it) and touches a new one: the refresh re-points the
        // rewritten page, appends the new one and keeps every other
        // pointer.
        live.write_u64(PmAddr(2 * PAGE_BYTES), 99);
        live.write_u64(PmAddr(9 * PAGE_BYTES), 100);
        assert_ne!(page_slots(&live)[2].0, copy_before[2].0);
        copy.clone_from(&live);
        let after = page_slots(&copy);
        assert_eq!(after.len(), 7);
        for (i, (&(ptr, _), &(live_ptr, rc))) in after.iter().zip(&page_slots(&live)).enumerate() {
            assert_eq!(ptr, live_ptr, "slot {i} points at the source's page");
            assert_eq!(rc, 2, "slot {i} is shared by exactly the pair");
            if i != 2 && i < 6 {
                assert_eq!(ptr, copy_before[i].0, "unchanged slot {i} kept its pointer");
            }
        }
        assert_eq!(copy.read_u64(PmAddr(2 * PAGE_BYTES)), 99);
        assert_eq!(copy.read_u64(PmAddr(9 * PAGE_BYTES)), 100);
        assert_eq!(copy.read_u64(PmAddr(PAGE_BYTES)), 2);
        // Refreshing from a smaller image drops the extra slots.
        copy.clone_from(&MemoryImage::new());
        assert_eq!(copy.touched_pages(), 0);
        assert_eq!(copy.read_u64(PmAddr(0)), 0);
        assert_eq!(live.shared_pages(), 0);
    }

    /// An eager-deep-copy model of the image: every snapshot duplicates
    /// all bytes and bits up front. The CoW implementation must be
    /// observationally identical to this through any interleaving.
    #[derive(Clone, Default)]
    struct EagerImage {
        bytes: std::collections::BTreeMap<u64, u8>,
        persistent: std::collections::BTreeSet<u64>,
    }

    impl EagerImage {
        fn write_u64(&mut self, addr: u64, v: u64) {
            for (i, b) in v.to_le_bytes().iter().enumerate() {
                self.bytes.insert(addr + i as u64, *b);
            }
        }

        fn read_u64(&self, addr: u64) -> u64 {
            let mut b = [0u8; 8];
            for (i, byte) in b.iter_mut().enumerate() {
                *byte = self.bytes.get(&(addr + i as u64)).copied().unwrap_or(0);
            }
            u64::from_le_bytes(b)
        }

        fn mark_persistent(&mut self, addr: u64, len: u64) {
            if len == 0 {
                return;
            }
            for p in (addr / PAGE_BYTES)..=((addr + len - 1) / PAGE_BYTES) {
                self.persistent.insert(p);
            }
        }

        fn is_persistent(&self, addr: u64) -> bool {
            self.persistent.contains(&(addr / PAGE_BYTES))
        }
    }

    /// One step of the CoW-vs-oracle interleaving. `target` selects which
    /// live image (base or one of the forks) the operation applies to.
    #[derive(Clone, Debug)]
    enum CowOp {
        Write { target: u8, addr: u64, v: u64 },
        Mark { target: u8, addr: u64, len: u64 },
        Snapshot { target: u8 },
        DropFork { which: u8 },
        Refresh { dst: u8, src: u8 },
    }

    fn cow_op() -> impl Strategy<Value = CowOp> {
        let addr = 0u64..16 * PAGE_BYTES;
        prop_oneof![
            4 => (any::<u8>(), addr.clone(), any::<u64>())
                .prop_map(|(target, addr, v)| CowOp::Write { target, addr, v }),
            1 => (any::<u8>(), addr.clone(), 0u64..=16 * PAGE_BYTES)
                .prop_map(|(target, addr, len)| CowOp::Mark { target, addr, len }),
            2 => any::<u8>().prop_map(|target| CowOp::Snapshot { target }),
            2 => any::<u8>().prop_map(|which| CowOp::DropFork { which }),
            2 => (any::<u8>(), any::<u8>()).prop_map(|(dst, src)| CowOp::Refresh { dst, src }),
        ]
    }

    proptest! {
        /// CoW image vs eager-deep-copy oracle through arbitrary
        /// interleavings of writes, persistent marks (up to the whole
        /// window, over written and never-written pages, overlapping and
        /// adjacent), snapshots, forks-of-forks, refreshes of one image
        /// from another, and fork drops: byte contents and persistent bits
        /// must stay identical on every live image, and once every fork is
        /// gone the base image must own all its pages exclusively again
        /// (no leaked sharing).
        #[test]
        fn prop_cow_matches_eager_oracle(
            ops in proptest::collection::vec(cow_op(), 1..80),
            probes in proptest::collection::vec(0u64..16 * PAGE_BYTES, 8),
        ) {
            let mut cows: Vec<MemoryImage> = vec![MemoryImage::new()];
            let mut oracles: Vec<EagerImage> = vec![EagerImage::default()];
            for op in &ops {
                match *op {
                    CowOp::Write { target, addr, v } => {
                        let t = target as usize % cows.len();
                        cows[t].write_u64(PmAddr(addr), v);
                        oracles[t].write_u64(addr, v);
                    }
                    CowOp::Mark { target, addr, len } => {
                        let t = target as usize % cows.len();
                        cows[t].mark_persistent(PmAddr(addr), len);
                        oracles[t].mark_persistent(addr, len);
                    }
                    CowOp::Snapshot { target } => {
                        let t = target as usize % cows.len();
                        let (c, o) = (cows[t].snapshot(), oracles[t].clone());
                        cows.push(c);
                        oracles.push(o);
                    }
                    CowOp::DropFork { which } => {
                        // Never drop the base image (index 0).
                        if cows.len() > 1 {
                            let i = 1 + which as usize % (cows.len() - 1);
                            cows.remove(i);
                            oracles.remove(i);
                        }
                    }
                    CowOp::Refresh { dst, src } => {
                        let (d, s) = (dst as usize % cows.len(), src as usize % cows.len());
                        if d != s {
                            let src_img = std::mem::take(&mut cows[s]);
                            cows[d].clone_from(&src_img);
                            cows[s] = src_img;
                            oracles[d] = oracles[s].clone();
                        }
                    }
                }
                // Every live image agrees with its oracle at the probe
                // addresses after every step, not just at the end.
                for (c, o) in cows.iter().zip(&oracles) {
                    for &p in &probes {
                        prop_assert_eq!(c.read_u64(PmAddr(p)), o.read_u64(p));
                        prop_assert_eq!(c.is_persistent(PmAddr(p)), o.is_persistent(p));
                    }
                }
            }
            // Drop every fork: the base must hold the sole reference to
            // each of its pages — a leaked refcount would show up here.
            cows.truncate(1);
            oracles.truncate(1);
            prop_assert_eq!(cows[0].shared_pages(), 0);
            for &p in &probes {
                prop_assert_eq!(cows[0].read_u64(PmAddr(p)), oracles[0].read_u64(p));
                prop_assert_eq!(cows[0].is_persistent(PmAddr(p)), oracles[0].is_persistent(p));
            }
        }
    }

    proptest! {
        #[test]
        fn prop_write_then_read_any_span(
            addr in 0u64..3 * PAGE_BYTES,
            data in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let mut m = MemoryImage::new();
            m.write(PmAddr(addr), &data);
            let mut buf = vec![0u8; data.len()];
            m.read(PmAddr(addr), &mut buf);
            prop_assert_eq!(buf, data);
        }

        #[test]
        fn prop_disjoint_writes_do_not_interfere(
            a in 0u64..1024,
            b in 2048u64..4096,
            va in any::<u64>(),
            vb in any::<u64>(),
        ) {
            let mut m = MemoryImage::new();
            m.write_u64(PmAddr(a), va);
            m.write_u64(PmAddr(b), vb);
            prop_assert_eq!(m.read_u64(PmAddr(a)), va);
            prop_assert_eq!(m.read_u64(PmAddr(b)), vb);
        }

        #[test]
        fn prop_matches_btreemap_reference(
            ops in proptest::collection::vec(
                (0u64..64 * PAGE_BYTES, any::<u64>()), 1..64),
        ) {
            // The open-addressed index + last-page cache must be
            // observationally identical to the old BTreeMap-of-pages model.
            let mut m = MemoryImage::new();
            let mut reference = std::collections::BTreeMap::new();
            for (addr, v) in &ops {
                m.write_u64(PmAddr(*addr), *v);
                for (i, byte) in v.to_le_bytes().iter().enumerate() {
                    reference.insert(addr + i as u64, *byte);
                }
            }
            for (addr, _) in &ops {
                let mut buf = [0u8; 8];
                m.read(PmAddr(*addr), &mut buf);
                for (i, byte) in buf.iter().enumerate() {
                    let want = reference.get(&(addr + i as u64)).copied().unwrap_or(0);
                    prop_assert_eq!(*byte, want);
                }
            }
        }
    }
}
