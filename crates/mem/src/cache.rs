//! Inclusive three-level cache hierarchy with real line data.
//!
//! The model keeps one *data store* for all cached lines (they are coherent
//! by construction, standing in for an invalidation-based protocol that
//! ASAP leaves unmodified) plus per-level LRU tag arrays used for timing:
//! per-core L1 and L2, and a shared LLC. The hierarchy is inclusive — a
//! line evicted from the LLC is back-invalidated from every L1/L2.
//!
//! ASAP-specific behaviour modelled here:
//!
//! - every line carries the tag extensions (`PBit`, `LockBit`, `OwnerRID`);
//! - victim selection skips lines whose `LockBit` is set (their first-write
//!   LPO has not completed, §4.6.1); if a set is entirely locked the forced
//!   eviction is reported so the caller can stall for the LPO.
//!
//! # Memory layout
//!
//! The structures are data-oriented for the simulator's per-access hot
//! path (see DESIGN.md §Memory layout & hot-path engineering):
//!
//! - line data lives in a *slab arena* ([`LineSlab`]) indexed by an
//!   open-addressed `LineAddr → slot` table (the PR 2 `PageIndex`
//!   pattern), with a one-entry last-lookup cache;
//! - every tag way carries its line's slab slot, so a cache hit resolves
//!   data with **zero** hash probes;
//! - each [`TagArray`] holds its sets inline (`ways ≤ 16`, found by mask)
//!   in copy-on-write chunks of [`CHUNK_SETS`] sets, the PM image's
//!   `Arc<Page>` layout: a snapshot copies chunk pointers, a restore
//!   re-points the chunks that differ, a crash drops them, and a write
//!   copies a shared chunk first. An empty chunk is `None`, so a Table 2
//!   machine allocates tags only for the sets its cores touch;
//! - the slab tracks per-core private-cache presence masks, so remote-hit
//!   detection and store write-invalidation visit only the cores that
//!   actually hold a copy instead of scanning every core's tag sets.
//!
//! None of this may change behaviour: victim choice depends only on the
//! relative order of unique LRU stamps, ticks are drawn at the same points
//! whether or not a chunk exists, and all scans iterate cores in ascending
//! order — exactly like the nested-`Vec` layout it replaced.

use std::cell::Cell;
use std::sync::Arc;

use asap_pmem::LineAddr;
use asap_sim::{CacheConfig, SystemConfig};

use crate::line::{LineState, LINE_SIZE};

/// Where an access hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HitLevel {
    /// Own L1.
    L1,
    /// Own L2.
    L2,
    /// Shared LLC (no private copy elsewhere).
    Llc,
    /// Another core's private cache (snoop forward).
    Remote,
    /// Missed the whole hierarchy.
    Memory,
}

/// A line pushed out of the LLC (and back-invalidated everywhere).
#[derive(Clone, Debug)]
pub struct Evicted {
    /// The evicted line's address.
    pub line: LineAddr,
    /// Its full state at eviction (data, dirty, tag extensions).
    pub state: LineState,
    /// True if every candidate way was locked and an LPO-locked line had
    /// to be chosen anyway; the caller must wait for that LPO first.
    pub forced: bool,
}

/// The outcome of one access.
#[derive(Clone, Debug)]
pub struct Access {
    /// Cycles the access costs the issuing thread.
    pub latency: u64,
    /// Where the line was found.
    pub level: HitLevel,
    /// The LLC eviction triggered by the fill, if any (at most one; held
    /// inline so the hit path never allocates).
    pub evicted: Option<Evicted>,
    /// The accessed line's page-table persistent bit, captured after the
    /// fill/hit — callers that already hold the `Access` can branch on it
    /// without a second line lookup.
    pub pbit: bool,
}

/// Extra cycles a store-miss write-allocate costs beyond the LLC lookup
/// (the fill itself overlaps with subsequent execution).
const STORE_MISS_ALLOC: u64 = 30;

/// Load or store — stores retire through the store buffer and pay the
/// bandwidth of the level that owns the line; loads pay the full hierarchy
/// latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A load: pays the latency of the level it hits.
    Load,
    /// A store: write-allocates but is charged store-buffer cost only.
    Store,
}

/// Sentinel for "no line" in tag ways, slab keys and the MRU hints. Real
/// line addresses are physical addresses divided by 64, far below this.
const NO_LINE: LineAddr = LineAddr(u64::MAX);
/// Sentinel slab slot / way index.
const NO_SLOT: u32 = u32::MAX;

/// Open-addressed linear-probe `LineAddr → slab slot` map — the PR 2
/// `PageIndex` pattern: Fibonacci hashing, power-of-two capacity, grow at
/// 3/4 load. Unlike `PageIndex` it also supports removal (LLC evictions),
/// implemented as tombstone-free backward-shift deletion so probe chains
/// never degrade over a long run.
struct LineIndex {
    /// Key per bucket; `u64::MAX` marks an empty bucket.
    keys: Vec<u64>,
    /// Slab slot per bucket (parallel to `keys`).
    slots: Vec<u32>,
    mask: usize,
    len: usize,
}

const EMPTY_KEY: u64 = u64::MAX;

/// `clone_from` reuses the destination's tables, so a restore into a
/// scratch machine does not reallocate them.
impl Clone for LineIndex {
    fn clone(&self) -> Self {
        LineIndex {
            keys: self.keys.clone(),
            slots: self.slots.clone(),
            mask: self.mask,
            len: self.len,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.keys.clone_from(&src.keys);
        self.slots.clone_from(&src.slots);
        self.mask = src.mask;
        self.len = src.len;
    }
}

impl LineIndex {
    fn new() -> Self {
        let cap = 256;
        LineIndex {
            keys: vec![EMPTY_KEY; cap],
            slots: vec![0; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    #[inline]
    fn bucket(&self, key: u64) -> usize {
        ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & self.mask
    }

    #[inline]
    fn get(&self, key: u64) -> Option<u32> {
        let mut i = self.bucket(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.slots[i]);
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn insert(&mut self, key: u64, slot: u32) {
        if (self.len + 1) * 4 > (self.mask + 1) * 3 {
            self.grow();
        }
        let mut i = self.bucket(key);
        loop {
            let k = self.keys[i];
            if k == EMPTY_KEY {
                self.keys[i] = key;
                self.slots[i] = slot;
                self.len += 1;
                return;
            }
            debug_assert_ne!(k, key, "line already indexed");
            i = (i + 1) & self.mask;
        }
    }

    /// Removes `key`, returning its slot. Backward-shift deletion: walk
    /// the probe chain after the hole and pull back every entry whose home
    /// bucket does not lie cyclically inside `(hole, entry]`.
    fn remove(&mut self, key: u64) -> Option<u32> {
        let mut i = self.bucket(key);
        loop {
            let k = self.keys[i];
            if k == key {
                break;
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
        let slot = self.slots[i];
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let k = self.keys[j];
            if k == EMPTY_KEY {
                break;
            }
            let home = self.bucket(k);
            let stays = if hole < j {
                hole < home && home <= j
            } else {
                hole < home || home <= j
            };
            if !stays {
                self.keys[hole] = k;
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.keys[hole] = EMPTY_KEY;
        self.len -= 1;
        Some(slot)
    }

    fn grow(&mut self) {
        let cap = (self.mask + 1) * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; cap]);
        let old_slots = std::mem::take(&mut self.slots);
        self.slots = vec![0; cap];
        self.mask = cap - 1;
        self.len = 0;
        for (k, s) in old_keys.into_iter().zip(old_slots) {
            if k != EMPTY_KEY {
                self.insert(k, s);
            }
        }
    }

    fn clear(&mut self) {
        self.keys.fill(EMPTY_KEY);
        self.len = 0;
    }
}

/// Slab arena holding every cached line's state.
///
/// Slots are recycled through a freelist, so steady-state traffic (insert
/// on fill, remove on eviction) performs no heap allocation once the
/// resident set has peaked. Alongside each line the slab keeps per-core
/// presence masks for the private levels as fixed-stride multi-word
/// bitmasks — bit `c % 64` of word `c / 64` in a slot's `l1_mask` stripe
/// is set iff core `c`'s L1 tag array holds the line. One word covers up
/// to 64 cores (`mask_words == 1`, the common case, keeps the single-word
/// fast paths); wider machines get `ceil(cores / 64)` words per slot.
struct LineSlab {
    /// Line address per slot; [`NO_LINE`] marks a free slot.
    keys: Vec<LineAddr>,
    states: Vec<LineState>,
    /// Per-slot presence stripes (`mask_words` words each) of cores whose
    /// L1 holds the line.
    l1_mask: Vec<u64>,
    /// Per-slot presence stripes of cores whose L2 holds the line.
    l2_mask: Vec<u64>,
    /// Stripe width in words: `ceil(cores / 64)`, at least 1.
    mask_words: usize,
    free: Vec<u32>,
    index: LineIndex,
    len: usize,
    /// One-entry lookup cache `(line.0, slot)`: the hierarchy is queried
    /// several times per simulated access for the same line, and a single
    /// compare beats even the open-addressed probe.
    last: Cell<(u64, u32)>,
}

/// `clone_from` reuses the destination's vectors, like [`LineIndex`].
impl Clone for LineSlab {
    fn clone(&self) -> Self {
        LineSlab {
            keys: self.keys.clone(),
            states: self.states.clone(),
            l1_mask: self.l1_mask.clone(),
            l2_mask: self.l2_mask.clone(),
            mask_words: self.mask_words,
            free: self.free.clone(),
            index: self.index.clone(),
            len: self.len,
            last: self.last.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.keys.clone_from(&src.keys);
        self.states.clone_from(&src.states);
        self.l1_mask.clone_from(&src.l1_mask);
        self.l2_mask.clone_from(&src.l2_mask);
        self.mask_words = src.mask_words;
        self.free.clone_from(&src.free);
        self.index.clone_from(&src.index);
        self.len = src.len;
        self.last.set(src.last.get());
    }
}

impl LineSlab {
    fn new(mask_words: usize) -> Self {
        LineSlab {
            keys: Vec::new(),
            states: Vec::new(),
            l1_mask: Vec::new(),
            l2_mask: Vec::new(),
            mask_words: mask_words.max(1),
            free: Vec::new(),
            index: LineIndex::new(),
            len: 0,
            last: Cell::new((EMPTY_KEY, 0)),
        }
    }

    /// First word of `slot`'s presence stripe.
    #[inline]
    fn mask_base(&self, slot: u32) -> usize {
        slot as usize * self.mask_words
    }

    /// Index of the word holding `core`'s bit in `slot`'s stripe. The
    /// one-word case skips the stride multiply — `core >> 6` is 0 there.
    #[inline]
    fn word_of(&self, slot: u32, core: usize) -> usize {
        if self.mask_words == 1 {
            slot as usize
        } else {
            self.mask_base(slot) + (core >> 6)
        }
    }

    #[inline]
    fn set_l1(&mut self, slot: u32, core: usize) {
        let i = self.word_of(slot, core);
        self.l1_mask[i] |= 1u64 << (core & 63);
    }

    #[inline]
    fn clear_l1(&mut self, slot: u32, core: usize) {
        let i = self.word_of(slot, core);
        self.l1_mask[i] &= !(1u64 << (core & 63));
    }

    #[inline]
    fn set_l2(&mut self, slot: u32, core: usize) {
        let i = self.word_of(slot, core);
        self.l2_mask[i] |= 1u64 << (core & 63);
    }

    #[inline]
    fn clear_l2(&mut self, slot: u32, core: usize) {
        let i = self.word_of(slot, core);
        self.l2_mask[i] &= !(1u64 << (core & 63));
    }

    #[inline]
    fn test_l1(&self, slot: u32, core: usize) -> bool {
        let i = self.word_of(slot, core);
        self.l1_mask[i] & (1u64 << (core & 63)) != 0
    }

    #[inline]
    fn test_l2(&self, slot: u32, core: usize) -> bool {
        let i = self.word_of(slot, core);
        self.l2_mask[i] & (1u64 << (core & 63)) != 0
    }

    /// Whether any core other than `core` holds the line privately.
    ///
    /// The one-word body stays inline at the call sites (the hot cache
    /// probe path); the wide loop is kept out-of-line so it does not eat
    /// the callers' inline budget — same for the other wide variants
    /// below.
    #[inline]
    fn private_elsewhere(&self, slot: u32, core: usize) -> bool {
        if self.mask_words == 1 {
            let m = self.l1_mask[slot as usize] | self.l2_mask[slot as usize];
            return m & !(1u64 << core) != 0;
        }
        self.private_elsewhere_wide(slot, core)
    }

    #[inline(never)]
    fn private_elsewhere_wide(&self, slot: u32, core: usize) -> bool {
        let b = self.mask_base(slot);
        for w in 0..self.mask_words {
            let mut m = self.l1_mask[b + w] | self.l2_mask[b + w];
            if w == core >> 6 {
                m &= !(1u64 << (core & 63));
            }
            if m != 0 {
                return true;
            }
        }
        false
    }

    /// Calls `f` for every core holding the line privately, excluding
    /// `except` if given — ascending core order (word-major, then bit
    /// order), like the full core scan the masks replace.
    #[inline]
    fn for_each_private(&self, slot: u32, except: Option<usize>, mut f: impl FnMut(usize)) {
        if self.mask_words == 1 {
            let mut m = self.l1_mask[slot as usize] | self.l2_mask[slot as usize];
            if let Some(c) = except {
                m &= !(1u64 << c);
            }
            while m != 0 {
                let c = m.trailing_zeros() as usize;
                m &= m - 1;
                f(c);
            }
            return;
        }
        let b = self.mask_base(slot);
        for w in 0..self.mask_words {
            let mut m = self.l1_mask[b + w] | self.l2_mask[b + w];
            if let Some(c) = except {
                if w == c >> 6 {
                    m &= !(1u64 << (c & 63));
                }
            }
            while m != 0 {
                let c = (w << 6) + m.trailing_zeros() as usize;
                m &= m - 1;
                f(c);
            }
        }
    }

    /// Clears both presence stripes except (at most) `core`'s own bits.
    #[inline]
    fn retain_only(&mut self, slot: u32, core: usize) {
        if self.mask_words == 1 {
            self.l1_mask[slot as usize] &= 1u64 << core;
            self.l2_mask[slot as usize] &= 1u64 << core;
            return;
        }
        self.retain_only_wide(slot, core)
    }

    #[inline(never)]
    fn retain_only_wide(&mut self, slot: u32, core: usize) {
        let b = self.mask_base(slot);
        for w in 0..self.mask_words {
            let keep = if w == core >> 6 {
                1u64 << (core & 63)
            } else {
                0
            };
            self.l1_mask[b + w] &= keep;
            self.l2_mask[b + w] &= keep;
        }
    }

    /// Resolves a line address to its slot, if cached.
    #[inline]
    fn slot_of(&self, line: LineAddr) -> Option<u32> {
        let (lk, ls) = self.last.get();
        if lk == line.0 {
            return Some(ls);
        }
        let slot = self.index.get(line.0)?;
        self.last.set((line.0, slot));
        Some(slot)
    }

    #[inline]
    fn state(&self, slot: u32) -> &LineState {
        debug_assert_ne!(self.keys[slot as usize], NO_LINE, "stale slot");
        &self.states[slot as usize]
    }

    #[inline]
    fn state_mut(&mut self, slot: u32) -> &mut LineState {
        debug_assert_ne!(self.keys[slot as usize], NO_LINE, "stale slot");
        &mut self.states[slot as usize]
    }

    fn insert(&mut self, line: LineAddr, st: LineState) -> u32 {
        debug_assert_ne!(line, NO_LINE);
        let slot = match self.free.pop() {
            Some(s) => {
                self.keys[s as usize] = line;
                self.states[s as usize] = st;
                if self.mask_words == 1 {
                    self.l1_mask[s as usize] = 0;
                    self.l2_mask[s as usize] = 0;
                } else {
                    let b = s as usize * self.mask_words;
                    self.l1_mask[b..b + self.mask_words].fill(0);
                    self.l2_mask[b..b + self.mask_words].fill(0);
                }
                s
            }
            None => {
                let s = self.keys.len() as u32;
                self.keys.push(line);
                self.states.push(st);
                if self.mask_words == 1 {
                    self.l1_mask.push(0);
                    self.l2_mask.push(0);
                } else {
                    self.l1_mask.resize(self.l1_mask.len() + self.mask_words, 0);
                    self.l2_mask.resize(self.l2_mask.len() + self.mask_words, 0);
                }
                s
            }
        };
        self.index.insert(line.0, slot);
        self.last.set((line.0, slot));
        self.len += 1;
        slot
    }

    /// Frees `slot` (holding `line`), returning the line's final state.
    fn remove_slot(&mut self, line: LineAddr, slot: u32) -> LineState {
        debug_assert_eq!(self.keys[slot as usize], line, "slot/line mismatch");
        let removed = self.index.remove(line.0);
        debug_assert_eq!(removed, Some(slot));
        self.keys[slot as usize] = NO_LINE;
        self.free.push(slot);
        if self.last.get().0 == line.0 {
            self.last.set((EMPTY_KEY, 0));
        }
        self.len -= 1;
        self.states[slot as usize].clone()
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.states.clear();
        self.l1_mask.clear();
        self.l2_mask.clear();
        self.free.clear();
        self.index.clear();
        self.len = 0;
        self.last.set((EMPTY_KEY, 0));
    }

    fn iter(&self) -> impl Iterator<Item = (LineAddr, &LineState)> {
        self.keys
            .iter()
            .zip(&self.states)
            .filter(|(k, _)| **k != NO_LINE)
            .map(|(k, s)| (*k, s))
    }
}

/// Widest set a [`TagArray`] holds inline.
const MAX_WAYS: usize = CacheConfig::MAX_WAYS as usize;
/// Sets per copy-on-write chunk: a chunk of 16-way sets is ~5 KB, so a
/// Table 2 LLC is 512 chunks and a fork copies only the ones it writes.
const CHUNK_SETS: usize = 16;

/// One set's ways, inline. Only the first `ways` entries are used.
#[derive(Clone, Debug)]
struct TagSet {
    /// Line per way; `NO_LINE` = empty way.
    lines: [LineAddr; MAX_WAYS],
    /// Slab slot per way (read only for non-empty ways).
    slots: [u32; MAX_WAYS],
    /// LRU stamp per way (read only for non-empty ways).
    stamps: [u64; MAX_WAYS],
    /// The MRU line (the way hint); `NO_LINE` when unknown.
    mru_line: LineAddr,
    /// Way index of the MRU line (valid when `mru_line` is not `NO_LINE`).
    mru_way: u32,
}

const EMPTY_SET: TagSet = TagSet {
    lines: [NO_LINE; MAX_WAYS],
    slots: [NO_SLOT; MAX_WAYS],
    stamps: [0; MAX_WAYS],
    mru_line: NO_LINE,
    mru_way: NO_SLOT,
};

type Chunk = [TagSet; CHUNK_SETS];

/// A set-associative LRU tag array (timing only — data lives in the slab).
///
/// The sets live in fixed-size chunks of [`CHUNK_SETS`] inline sets behind
/// copy-on-write `Arc`s, the PM image's page layout applied to tags:
/// `clone` (a machine snapshot) copies chunk pointers, `clone_from` (a
/// restore) re-points only the chunks that differ, `clear` (a crash) drops
/// them, and the first write to a shared chunk copies that chunk alone.
/// `None` is an all-empty chunk, so an array allocates tag storage only
/// for the sets its cores actually touch. Each way records its line's slab
/// slot, so tag hits hand the data location straight back.
///
/// Each set carries a *way hint*: the index of its most-recently-used
/// way. Repeated accesses to the same line — by far the common case on the
/// simulator's hot path — then resolve `lookup`/`touch` with one compare
/// instead of a way scan. Skipping the re-stamp of an already-MRU line is
/// sound: it cannot change the relative `last_used` order, which is all
/// LRU victim selection looks at. Every stamping operation draws a fresh
/// `tick`, so stamps are unique per array and the LRU minimum is unique —
/// victim choice cannot depend on scan order or physical layout.
#[derive(Debug)]
struct TagArray {
    /// `sets / CHUNK_SETS` (rounded up) chunks; `None` = every way empty.
    chunks: Vec<Option<Arc<Chunk>>>,
    /// `sets - 1`; the set count is a power of two.
    set_mask: usize,
    ways: usize,
    tick: u64,
}

impl TagArray {
    fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets() as usize;
        let ways = cfg.ways as usize;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways <= MAX_WAYS, "inline sets hold at most {MAX_WAYS} ways");
        TagArray {
            chunks: vec![None; sets.div_ceil(CHUNK_SETS)],
            set_mask: sets - 1,
            ways,
            tick: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        line.0 as usize & self.set_mask
    }

    /// `line`'s set, or `None` while its chunk is empty.
    #[inline]
    fn set(&self, line: LineAddr) -> Option<&TagSet> {
        let set = self.set_of(line);
        let chunk = self.chunks[set / CHUNK_SETS].as_deref()?;
        Some(&chunk[set % CHUNK_SETS])
    }

    /// Mutable access to set number `set`, first materialising its chunk
    /// if empty or copying it if shared.
    #[inline]
    fn set_mut(&mut self, set: usize) -> &mut TagSet {
        let chunk =
            self.chunks[set / CHUNK_SETS].get_or_insert_with(|| Arc::new([EMPTY_SET; CHUNK_SETS]));
        &mut Arc::make_mut(chunk)[set % CHUNK_SETS]
    }

    /// Finds `line`'s way, returning its slab slot.
    #[inline]
    fn lookup(&self, line: LineAddr) -> Option<u32> {
        let s = self.set(line)?;
        if s.mru_line == line {
            return Some(s.slots[s.mru_way as usize]);
        }
        let w = s.lines[..self.ways].iter().position(|&l| l == line)?;
        Some(s.slots[w])
    }

    fn contains(&self, line: LineAddr) -> bool {
        self.lookup(line).is_some()
    }

    fn touch(&mut self, line: LineAddr) {
        let way = match self.set(line) {
            // Already the newest stamp in its set; re-stamping preserves
            // the relative order, so skip it.
            Some(s) if s.mru_line == line => return,
            Some(s) => s.lines[..self.ways].iter().position(|&l| l == line),
            None => None,
        };
        // An absent line draws a tick too, as it always has.
        self.tick += 1;
        if let Some(w) = way {
            let tick = self.tick;
            let s = self.set_mut(self.set_of(line));
            s.stamps[w] = tick;
            s.mru_line = line;
            s.mru_way = w as u32;
        }
    }

    fn remove(&mut self, line: LineAddr) {
        let Some(s) = self.set(line) else { return };
        let Some(w) = s.lines[..self.ways].iter().position(|&l| l == line) else {
            return;
        };
        let s = self.set_mut(self.set_of(line));
        if s.mru_line == line {
            s.mru_line = NO_LINE;
            s.mru_way = NO_SLOT;
        }
        s.lines[w] = NO_LINE;
    }

    /// Inserts `line` (cached in slab slot `slot`); if the set is full,
    /// evicts and returns the victim's `(line, slot, forced)` preferring
    /// unlocked lines (per `evictable`, judged by slab slot). `forced` is
    /// true when a locked line had to be forced out.
    fn insert<F>(
        &mut self,
        line: LineAddr,
        slot: u32,
        evictable: F,
    ) -> Option<(LineAddr, u32, bool)>
    where
        F: Fn(u32) -> bool,
    {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.ways;
        let s = self.set_mut(self.set_of(line));
        debug_assert!(!s.lines[..ways].contains(&line), "double insert");
        let mut victim = None;
        let way = match s.lines[..ways].iter().position(|&l| l == NO_LINE) {
            Some(w) => w,
            None => {
                // LRU among evictable ways; fall back to overall LRU if all
                // ways are locked. Stamps are unique, so `min` is unique.
                let mut best: Option<(usize, u64)> = None;
                let mut best_any: Option<(usize, u64)> = None;
                for w in 0..ways {
                    let stamp = s.stamps[w];
                    if best_any.is_none_or(|(_, b)| stamp < b) {
                        best_any = Some((w, stamp));
                    }
                    if evictable(s.slots[w]) && best.is_none_or(|(_, b)| stamp < b) {
                        best = Some((w, stamp));
                    }
                }
                let (w, forced) = match best {
                    Some((w, _)) => (w, false),
                    None => (best_any.expect("set is full").0, true),
                };
                victim = Some((s.lines[w], s.slots[w], forced));
                w
            }
        };
        s.lines[way] = line;
        s.slots[way] = slot;
        s.stamps[way] = tick;
        // The inserted line carries the newest stamp in the set; this also
        // retires any hint pointing at the victim.
        s.mru_line = line;
        s.mru_way = way as u32;
        victim
    }

    fn lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.chunks
            .iter()
            .flatten()
            .flat_map(|c| c.iter())
            .flat_map(|s| s.lines[..self.ways].iter().copied())
            .filter(|l| *l != NO_LINE)
    }

    fn clear(&mut self) {
        self.chunks.fill(None);
    }

    /// `clone_from` followed by `clear`, without re-pointing the chunks
    /// first: the same geometry and tick, every way empty.
    fn clone_empty_from(&mut self, src: &Self) {
        self.chunks.clear();
        self.chunks.resize(src.chunks.len(), None);
        self.set_mask = src.set_mask;
        self.ways = src.ways;
        self.tick = src.tick;
    }
}

/// [`TagArray::clone_empty_from`] over a per-core vector of arrays.
fn clone_empty_arrays(dst: &mut Vec<TagArray>, src: &[TagArray]) {
    dst.truncate(src.len());
    dst.extend(src[dst.len()..].iter().cloned());
    for (d, s) in dst.iter_mut().zip(src) {
        d.clone_empty_from(s);
    }
}

/// A snapshot: copies chunk pointers.
impl Clone for TagArray {
    fn clone(&self) -> Self {
        TagArray {
            chunks: self.chunks.clone(),
            set_mask: self.set_mask,
            ways: self.ways,
            tick: self.tick,
        }
    }

    /// A restore: re-points only the chunks whose pointer differs, reusing
    /// the chunk table.
    fn clone_from(&mut self, src: &Self) {
        self.chunks.resize(src.chunks.len(), None);
        for (dst, s) in self.chunks.iter_mut().zip(&src.chunks) {
            let same = match (&*dst, s) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            };
            if !same {
                dst.clone_from(s);
            }
        }
        self.set_mask = src.set_mask;
        self.ways = src.ways;
        self.tick = src.tick;
    }
}

/// Running eviction counters kept by the hierarchy (folded into run stats
/// as `machine.evict.*` by the owning core model).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvictionCounts {
    /// LLC evictions of any kind.
    pub total: u64,
    /// Evictions that had to force out an LPO-locked line.
    pub forced: u64,
    /// Evictions of dirty lines (caused a writeback).
    pub dirty: u64,
}

/// The result of probing the hierarchy for a line without touching it:
/// where it would hit, plus (internally) the slab slot so a following
/// [`CacheHierarchy::access_probed`] resolves data with no further lookup.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Where an access would hit right now.
    pub level: HitLevel,
    slot: u32,
}

/// The full cache hierarchy: shared slab data store plus per-level SoA tag
/// arrays carrying slab slot ids.
pub struct CacheHierarchy {
    /// Shared data store for every cached line.
    slab: LineSlab,
    l1: Vec<TagArray>,
    l2: Vec<TagArray>,
    llc: TagArray,
    l1_lat: u64,
    l2_lat: u64,
    llc_lat: u64,
    remote_lat: u64,
    store_cost: u64,
    evictions: EvictionCounts,
}

/// `clone` is the snapshot primitive: the tag arrays copy chunk pointers,
/// the slab copies its live lines. `clone_from` is the restore: it
/// overwrites `self` in place, so a scratch hierarchy restored again and
/// again keeps its buffers (a derived `clone_from` would reallocate
/// every field).
impl Clone for CacheHierarchy {
    fn clone(&self) -> Self {
        CacheHierarchy {
            slab: self.slab.clone(),
            l1: self.l1.clone(),
            l2: self.l2.clone(),
            llc: self.llc.clone(),
            l1_lat: self.l1_lat,
            l2_lat: self.l2_lat,
            llc_lat: self.llc_lat,
            remote_lat: self.remote_lat,
            store_cost: self.store_cost,
            evictions: self.evictions,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.slab.clone_from(&src.slab);
        self.l1.clone_from(&src.l1);
        self.l2.clone_from(&src.l2);
        self.llc.clone_from(&src.llc);
        self.l1_lat = src.l1_lat;
        self.l2_lat = src.l2_lat;
        self.llc_lat = src.llc_lat;
        self.remote_lat = src.remote_lat;
        self.store_cost = src.store_cost;
        self.evictions = src.evictions;
    }
}

impl CacheHierarchy {
    /// Builds the hierarchy for `cores` cores per `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        let cores = cfg.cores as usize;
        CacheHierarchy {
            slab: LineSlab::new(cores.div_ceil(64)),
            l1: (0..cores).map(|_| TagArray::new(&cfg.l1)).collect(),
            l2: (0..cores).map(|_| TagArray::new(&cfg.l2)).collect(),
            llc: TagArray::new(&cfg.llc),
            l1_lat: cfg.l1.latency,
            l2_lat: cfg.l2.latency,
            llc_lat: cfg.llc.latency,
            remote_lat: cfg.llc.latency + 18,
            store_cost: cfg.store_cost,
            evictions: EvictionCounts::default(),
        }
    }

    /// Eviction counters since construction.
    pub fn eviction_counts(&self) -> EvictionCounts {
        self.evictions
    }

    /// What a power failure leaves of `src`, written into `self`: the same
    /// geometry, LRU ticks and eviction counters, with no line cached.
    /// Equal to `clone_from` followed by
    /// [`invalidate_all`](Self::invalidate_all), without copying the
    /// lines first.
    pub fn clone_empty_from(&mut self, src: &Self) {
        self.slab.clear();
        self.slab.mask_words = src.slab.mask_words;
        clone_empty_arrays(&mut self.l1, &src.l1);
        clone_empty_arrays(&mut self.l2, &src.l2);
        self.llc.clone_empty_from(&src.llc);
        self.l1_lat = src.l1_lat;
        self.l2_lat = src.l2_lat;
        self.llc_lat = src.llc_lat;
        self.remote_lat = src.remote_lat;
        self.store_cost = src.store_cost;
        self.evictions = src.evictions;
    }

    /// Number of cores the hierarchy was built for.
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    /// Where would an access by `core` to `line` hit right now? The
    /// returned [`Probe`] can be handed to
    /// [`access_probed`](Self::access_probed) to avoid a second tag walk.
    pub fn probe(&self, core: usize, line: LineAddr) -> Probe {
        if let Some(slot) = self.l1[core].lookup(line) {
            return Probe {
                level: HitLevel::L1,
                slot,
            };
        }
        if let Some(slot) = self.l2[core].lookup(line) {
            return Probe {
                level: HitLevel::L2,
                slot,
            };
        }
        if let Some(slot) = self.llc.lookup(line) {
            let level = if self.slab.private_elsewhere(slot, core) {
                HitLevel::Remote
            } else {
                HitLevel::Llc
            };
            return Probe { level, slot };
        }
        Probe {
            level: HitLevel::Memory,
            slot: NO_SLOT,
        }
    }

    /// Where would an access by `core` to `line` hit right now?
    pub fn peek_level(&self, core: usize, line: LineAddr) -> HitLevel {
        self.probe(core, line).level
    }

    /// Performs an access by `core` to `line`.
    ///
    /// On a miss the caller must supply `fill`: the line data (from the
    /// memory system, with WPQ forwarding) and its persistent bit.
    /// `miss_latency` is the additional memory latency beyond the LLC
    /// lookup, also supplied by the caller (it depends on DRAM vs PM).
    ///
    /// For [`AccessKind::Store`] the data is *not* modified here — the
    /// caller mutates the line via [`line_mut`](Self::line_mut) afterwards
    /// (and sets dirty/owner bits per its scheme).
    ///
    /// # Panics
    ///
    /// Panics if the access misses and `fill` is `None`.
    pub fn access(
        &mut self,
        core: usize,
        line: LineAddr,
        kind: AccessKind,
        fill: Option<([u8; LINE_SIZE], bool)>,
        miss_latency: u64,
    ) -> Access {
        let probe = self.probe(core, line);
        self.access_probed(core, line, kind, probe, fill, miss_latency)
    }

    /// [`access`](Self::access) with the hit level pre-resolved by
    /// [`probe`](Self::probe) — the fast path for callers that needed the
    /// level first to decide whether to fetch fill data. `probe` must come
    /// from the same `(core, line)` with no intervening cache mutation.
    pub fn access_probed(
        &mut self,
        core: usize,
        line: LineAddr,
        kind: AccessKind,
        probe: Probe,
        fill: Option<([u8; LINE_SIZE], bool)>,
        miss_latency: u64,
    ) -> Access {
        debug_assert_eq!(probe.level, self.probe(core, line).level, "stale probe");
        let level = probe.level;
        let mut slot = probe.slot;
        let mut evicted = None;
        if level == HitLevel::Memory {
            let (data, pbit) = fill.expect("miss requires fill data");
            let mut st = LineState::from_bytes(data);
            st.pbit = pbit;
            slot = self.slab.insert(line, st);
            let slab = &self.slab;
            if let Some((victim, vslot, forced)) =
                self.llc.insert(line, slot, |s| slab.state(s).evictable())
            {
                // Back-invalidate only the cores whose private levels hold
                // the victim (ascending core order, like the full scan the
                // masks replace).
                let (slab, l1s, l2s) = (&self.slab, &mut self.l1, &mut self.l2);
                slab.for_each_private(vslot, None, |c| {
                    l1s[c].remove(victim);
                    l2s[c].remove(victim);
                });
                let state = self.slab.remove_slot(victim, vslot);
                self.evictions.total += 1;
                if forced {
                    self.evictions.forced += 1;
                }
                if state.dirty {
                    self.evictions.dirty += 1;
                }
                evicted = Some(Evicted {
                    line: victim,
                    state,
                    forced,
                });
            }
        }
        // Promote into the private levels (tag-only; no writeback needed
        // since data lives in the shared slab). A silent private-level
        // victim keeps its slab entry — only its presence bit dies.
        if !self.l1[core].contains(line) {
            if let Some((_, vslot, _)) = self.l1[core].insert(line, slot, |_| true) {
                self.slab.clear_l1(vslot, core);
            }
            self.slab.set_l1(slot, core);
        }
        if !self.l2[core].contains(line) {
            if let Some((_, vslot, _)) = self.l2[core].insert(line, slot, |_| true) {
                self.slab.clear_l2(vslot, core);
            }
            self.slab.set_l2(slot, core);
        }
        self.l1[core].touch(line);
        self.l2[core].touch(line);
        self.llc.touch(line);
        if kind == AccessKind::Store {
            // Write-invalidate other cores' private copies (ascending core
            // order over the presence masks).
            let (slab, l1s, l2s) = (&self.slab, &mut self.l1, &mut self.l2);
            slab.for_each_private(slot, Some(core), |c| {
                l1s[c].remove(line);
                l2s[c].remove(line);
            });
            self.slab.retain_only(slot, core);
        }
        let latency = match kind {
            // Stores retire through the store buffer: they do not wait for
            // the full memory round trip, but sustained streams are bound
            // by the bandwidth of the level that owns the line — charge
            // that level's latency, capping misses at LLC + an allocation
            // penalty (the fill overlaps with later work).
            AccessKind::Store => {
                self.store_cost
                    + match level {
                        HitLevel::L1 => self.l1_lat,
                        HitLevel::L2 => self.l2_lat,
                        HitLevel::Llc => self.llc_lat,
                        HitLevel::Remote => self.remote_lat,
                        HitLevel::Memory => self.llc_lat + STORE_MISS_ALLOC,
                    }
            }
            AccessKind::Load => match level {
                HitLevel::L1 => self.l1_lat,
                HitLevel::L2 => self.l2_lat,
                HitLevel::Llc => self.llc_lat,
                HitLevel::Remote => self.remote_lat,
                HitLevel::Memory => self.llc_lat + miss_latency,
            },
        };
        Access {
            latency,
            level,
            evicted,
            pbit: self.slab.state(slot).pbit,
        }
    }

    /// Read access to a cached line's state.
    pub fn line(&self, line: LineAddr) -> Option<&LineState> {
        let slot = self.slab.slot_of(line)?;
        Some(self.slab.state(slot))
    }

    /// Mutable access to a cached line's state (data, dirty, tag bits).
    pub fn line_mut(&mut self, line: LineAddr) -> Option<&mut LineState> {
        let slot = self.slab.slot_of(line)?;
        Some(self.slab.state_mut(slot))
    }

    /// Whether `line` is present anywhere in the hierarchy.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.slab.slot_of(line).is_some()
    }

    /// Copies a line's current data out and clears its dirty bit, leaving
    /// the line cached (the effect of `clwb` or a hardware DPO snapshot).
    pub fn writeback_copy(&mut self, line: LineAddr) -> Option<[u8; LINE_SIZE]> {
        let slot = self.slab.slot_of(line)?;
        let s = self.slab.state_mut(slot);
        s.dirty = false;
        Some(s.data)
    }

    /// Discards every cached line without writeback — a power failure.
    pub fn invalidate_all(&mut self) {
        self.slab.clear();
        for t in self.l1.iter_mut().chain(self.l2.iter_mut()) {
            t.clear();
        }
        self.llc.clear();
    }

    /// Iterates over all cached lines and their states (slab slot order).
    pub fn lines(&self) -> impl Iterator<Item = (LineAddr, &LineState)> {
        self.slab.iter()
    }

    /// Number of lines currently cached.
    pub fn len(&self) -> usize {
        self.slab.len
    }

    /// Number of cached lines whose dirty bit is set — the telemetry
    /// sampler's dirty-line gauge. O(slab slots); the sampler's
    /// decimating buffer bounds how often this walk runs.
    pub fn dirty_lines(&self) -> u64 {
        self.slab.iter().filter(|(_, s)| s.dirty).count() as u64
    }

    /// Whether the hierarchy is empty.
    pub fn is_empty(&self) -> bool {
        self.slab.len == 0
    }

    /// Consistency check: every tag-array line must be in the data slab
    /// (with matching slot ids and presence masks) and every L1/L2 line
    /// must also be in the LLC (inclusivity).
    pub fn check_inclusive(&self) -> bool {
        let llc_ok = self.llc.lines().all(|l| self.slab.slot_of(l).is_some());
        let priv_ok = self
            .l1
            .iter()
            .chain(self.l2.iter())
            .flat_map(|t| t.lines())
            .all(|l| self.llc.contains(l));
        let store_ok = self.slab.iter().all(|(l, _)| self.llc.contains(l));
        let masks_ok = (0..self.l1.len()).all(|c| {
            self.l1[c].lines().all(|l| {
                self.slab
                    .slot_of(l)
                    .is_some_and(|s| self.slab.test_l1(s, c))
            }) && self.l2[c].lines().all(|l| {
                self.slab
                    .slot_of(l)
                    .is_some_and(|s| self.slab.test_l2(s, c))
            })
        });
        llc_ok && priv_ok && store_ok && masks_ok
    }
}

impl std::fmt::Debug for CacheHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheHierarchy")
            .field("cores", &self.l1.len())
            .field("cached_lines", &self.slab.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rid::Rid;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(&SystemConfig::small())
    }

    fn fill() -> Option<([u8; LINE_SIZE], bool)> {
        Some(([7u8; LINE_SIZE], true))
    }

    #[test]
    fn miss_then_hits_climb_levels() {
        let mut h = hierarchy();
        let a = h.access(0, LineAddr(1), AccessKind::Load, fill(), 150);
        assert_eq!(a.level, HitLevel::Memory);
        assert_eq!(a.latency, 42 + 150);
        let a = h.access(0, LineAddr(1), AccessKind::Load, None, 150);
        assert_eq!(a.level, HitLevel::L1);
        assert_eq!(a.latency, 4);
    }

    #[test]
    fn fill_sets_pbit_from_page_table() {
        let mut h = hierarchy();
        h.access(0, LineAddr(1), AccessKind::Load, Some(([0; 64], true)), 0);
        assert!(h.line(LineAddr(1)).unwrap().pbit);
        h.access(0, LineAddr(2), AccessKind::Load, Some(([0; 64], false)), 0);
        assert!(!h.line(LineAddr(2)).unwrap().pbit);
    }

    #[test]
    fn remote_hit_detected() {
        let mut h = hierarchy();
        h.access(0, LineAddr(1), AccessKind::Load, fill(), 0);
        let a = h.access(1, LineAddr(1), AccessKind::Load, None, 0);
        assert_eq!(a.level, HitLevel::Remote);
    }

    #[test]
    fn many_core_hierarchy_crosses_mask_words() {
        // 128 cores: the presence stripes are two words per slot. Cores
        // from different words share, detect remote hits, and get
        // write-invalidated exactly like the single-word fast path.
        let mut cfg = SystemConfig::small();
        cfg.cores = 128;
        let mut h = CacheHierarchy::new(&cfg);
        let line = LineAddr(1);
        for core in [0usize, 3, 63, 64, 70, 127] {
            h.access(
                core,
                line,
                AccessKind::Load,
                (core == 0).then_some(([7u8; LINE_SIZE], true)),
                0,
            );
        }
        // Every sharer now hits locally; an outsider sees a remote hit.
        for core in [3usize, 64, 127] {
            assert_eq!(h.peek_level(core, line), HitLevel::L1, "core {core}");
        }
        assert_eq!(h.peek_level(9, line), HitLevel::Remote);
        assert!(h.check_inclusive());
        // A store from a high-word core invalidates all other sharers.
        h.access(70, line, AccessKind::Store, None, 0);
        for core in [0usize, 3, 63, 64, 127] {
            assert_eq!(h.peek_level(core, line), HitLevel::Remote, "core {core}");
        }
        assert_eq!(h.peek_level(70, line), HitLevel::L1);
        assert!(h.check_inclusive());
        // Evicting the line back-invalidates sharers across both words.
        h.access(127, line, AccessKind::Load, None, 0);
        let span = 4 * (cfg.llc.size_bytes / 64);
        for i in 2..span + 2 {
            if !h.contains(LineAddr(i)) {
                h.access(1, LineAddr(i), AccessKind::Load, Some(([0; 64], false)), 0);
            }
        }
        assert!(!h.contains(line), "line evicted by LLC pressure");
        assert_eq!(h.peek_level(70, line), HitLevel::Memory);
        assert_eq!(h.peek_level(127, line), HitLevel::Memory);
        assert!(h.check_inclusive());
    }

    #[test]
    fn store_invalidates_other_cores_private_copies() {
        let mut h = hierarchy();
        h.access(0, LineAddr(1), AccessKind::Load, fill(), 0);
        h.access(1, LineAddr(1), AccessKind::Load, None, 0);
        // Core 1 writes: core 0's private copy must go away.
        h.access(1, LineAddr(1), AccessKind::Store, None, 0);
        let a = h.access(0, LineAddr(1), AccessKind::Load, None, 0);
        assert_eq!(a.level, HitLevel::Remote); // refetched via LLC/snoop
    }

    #[test]
    fn store_latency_tracks_owning_level() {
        let mut h = hierarchy();
        // Miss: capped at LLC + allocation penalty, far below a full
        // memory round trip.
        let a = h.access(0, LineAddr(9), AccessKind::Store, fill(), 500);
        assert_eq!(a.latency, 1 + 42 + 30);
        assert_eq!(a.level, HitLevel::Memory);
        // L1 hit: store-buffer cost only.
        let a = h.access(0, LineAddr(9), AccessKind::Store, None, 500);
        assert_eq!(a.latency, 1 + 4);
        assert_eq!(a.level, HitLevel::L1);
    }

    #[test]
    fn eviction_counts_track_kinds() {
        let cfg = SystemConfig::small();
        let mut h = CacheHierarchy::new(&cfg);
        assert_eq!(h.eviction_counts(), EvictionCounts::default());
        let llc_lines = cfg.llc.size_bytes / 64;
        for i in 0..llc_lines + 64 {
            h.access(0, LineAddr(i), AccessKind::Load, fill(), 0);
        }
        let c = h.eviction_counts();
        assert!(c.total >= 64);
        assert_eq!(c.forced, 0);
        assert_eq!(c.dirty, 0);
    }

    #[test]
    fn llc_eviction_back_invalidates_and_reports() {
        let cfg = SystemConfig::small();
        let mut h = CacheHierarchy::new(&cfg);
        let llc_lines = cfg.llc.size_bytes / 64;
        // Touch one more distinct set-colliding line than the LLC holds.
        let mut evicted = 0;
        for i in 0..llc_lines + 64 {
            let a = h.access(0, LineAddr(i), AccessKind::Load, fill(), 0);
            evicted += a.evicted.iter().count();
            if let Some(e) = &a.evicted {
                assert!(!h.contains(e.line));
            }
        }
        assert!(evicted >= 64);
        assert!(h.check_inclusive());
    }

    #[test]
    fn locked_lines_avoid_eviction() {
        let cfg = SystemConfig::small();
        let mut h = CacheHierarchy::new(&cfg);
        let sets = cfg.llc.sets();
        let ways = cfg.llc.ways as u64;
        // Fill one LLC set completely, locking the LRU (first) line.
        let set_stride = sets;
        for i in 0..ways {
            h.access(0, LineAddr(i * set_stride), AccessKind::Load, fill(), 0);
        }
        h.line_mut(LineAddr(0)).unwrap().lock_bit = true;
        // Next fill in the same set must evict line at stride*1, not 0.
        let a = h.access(0, LineAddr(ways * set_stride), AccessKind::Load, fill(), 0);
        let e = a.evicted.expect("one eviction");
        assert_eq!(e.line, LineAddr(set_stride));
        assert!(!e.forced);
        assert!(h.contains(LineAddr(0)));
    }

    #[test]
    fn fully_locked_set_forces_eviction() {
        let cfg = SystemConfig::small();
        let mut h = CacheHierarchy::new(&cfg);
        let sets = cfg.llc.sets();
        let ways = cfg.llc.ways as u64;
        for i in 0..ways {
            h.access(0, LineAddr(i * sets), AccessKind::Load, fill(), 0);
            h.line_mut(LineAddr(i * sets)).unwrap().lock_bit = true;
        }
        let a = h.access(0, LineAddr(ways * sets), AccessKind::Load, fill(), 0);
        assert!(a.evicted.expect("one eviction").forced);
    }

    #[test]
    fn writeback_copy_clears_dirty_keeps_line() {
        let mut h = hierarchy();
        h.access(0, LineAddr(3), AccessKind::Store, fill(), 0);
        let l = h.line_mut(LineAddr(3)).unwrap();
        l.dirty = true;
        l.data[0] = 0xaa;
        let data = h.writeback_copy(LineAddr(3)).unwrap();
        assert_eq!(data[0], 0xaa);
        assert!(!h.line(LineAddr(3)).unwrap().dirty);
        assert!(h.contains(LineAddr(3)));
    }

    #[test]
    fn invalidate_all_clears_everything() {
        let mut h = hierarchy();
        h.access(0, LineAddr(1), AccessKind::Load, fill(), 0);
        h.access(1, LineAddr(2), AccessKind::Load, fill(), 0);
        h.invalidate_all();
        assert!(h.is_empty());
        assert_eq!(h.peek_level(0, LineAddr(1)), HitLevel::Memory);
        assert!(h.check_inclusive());
    }

    #[test]
    fn clone_empty_from_behaves_like_clone_then_invalidate() {
        let cfg = SystemConfig::small();
        let sets = cfg.llc.sets();
        let mut h = hierarchy();
        // Enough same-set fills to evict, so the counters are non-zero.
        for i in 0..2 * u64::from(cfg.llc.ways) {
            h.access(
                (i % 2) as usize,
                LineAddr(i * sets),
                AccessKind::Store,
                fill(),
                0,
            );
        }
        assert!(h.eviction_counts().total > 0);
        let mut crashed = h.clone();
        crashed.invalidate_all();
        // One destination holding lines of its own, one built for fewer
        // cores than the source.
        let mut full = hierarchy();
        full.access(3, LineAddr(9), AccessKind::Load, fill(), 0);
        let mut narrow = CacheHierarchy::new(&SystemConfig { cores: 1, ..cfg });
        let mut copies = [&mut full, &mut narrow];
        for c in copies.iter_mut() {
            c.clone_empty_from(&h);
            assert!(c.is_empty() && c.check_inclusive());
            assert_eq!(c.eviction_counts(), h.eviction_counts());
        }
        // The same accesses from here on behave identically.
        for i in 0..3 * u64::from(cfg.llc.ways) {
            let line = LineAddr(i * sets + i % 3);
            let core = (i % 4) as usize;
            let want = crashed.access(core, line, AccessKind::Load, fill(), 0);
            for c in copies.iter_mut() {
                let got = c.access(core, line, AccessKind::Load, fill(), 0);
                assert_eq!((got.latency, got.level), (want.latency, want.level));
                assert_eq!(
                    got.evicted.map(|e| e.line),
                    want.evicted.as_ref().map(|e| e.line)
                );
            }
        }
        for c in copies {
            assert_eq!(c.eviction_counts(), crashed.eviction_counts());
        }
    }

    #[test]
    fn owner_rid_travels_with_line_state() {
        let mut h = hierarchy();
        h.access(0, LineAddr(5), AccessKind::Store, fill(), 0);
        h.line_mut(LineAddr(5)).unwrap().owner = Some(Rid::new(0, 1));
        assert!(h
            .line(LineAddr(5))
            .unwrap()
            .is_owned_by_other(Rid::new(1, 1)));
    }

    #[test]
    fn eviction_preserves_line_state() {
        let cfg = SystemConfig::small();
        let mut h = CacheHierarchy::new(&cfg);
        let sets = cfg.llc.sets();
        let ways = cfg.llc.ways as u64;
        h.access(0, LineAddr(0), AccessKind::Store, fill(), 0);
        {
            let l = h.line_mut(LineAddr(0)).unwrap();
            l.dirty = true;
            l.owner = Some(Rid::new(0, 7));
            l.data[10] = 0x42;
        }
        let mut got = None;
        for i in 1..=ways {
            let a = h.access(0, LineAddr(i * sets), AccessKind::Load, fill(), 0);
            if let Some(e) = a.evicted {
                if e.line == LineAddr(0) {
                    got = Some(e);
                }
            }
        }
        let e = got.expect("line 0 should have been evicted");
        assert!(e.state.dirty);
        assert_eq!(e.state.owner, Some(Rid::new(0, 7)));
        assert_eq!(e.state.data[10], 0x42);
    }

    #[test]
    fn way_hint_tracks_presence_under_churn() {
        let cfg = SystemConfig::small();
        let mut t = TagArray::new(&cfg.l1);
        t.insert(LineAddr(0), 0, |_| true);
        assert!(t.contains(LineAddr(0)));
        t.touch(LineAddr(0)); // MRU fast path
        t.remove(LineAddr(0));
        assert!(!t.contains(LineAddr(0)), "hint must die with the line");
        t.touch(LineAddr(0)); // absent: must not resurrect the hint
        assert!(!t.contains(LineAddr(0)));
        t.clear();
        t.insert(LineAddr(0), 0, |_| true);
        assert!(t.contains(LineAddr(0)));
    }

    #[test]
    fn way_hint_does_not_change_lru_order() {
        // Fill a set, re-touch the MRU line (fast path, no re-stamp), then
        // overflow: the victim must still be the true LRU line.
        let cfg = SystemConfig::small();
        let mut h = CacheHierarchy::new(&cfg);
        let sets = cfg.llc.sets();
        let ways = cfg.llc.ways as u64;
        for i in 0..ways {
            h.access(0, LineAddr(i * sets), AccessKind::Load, fill(), 0);
        }
        // Newest line is MRU; touching it repeatedly must not disturb the
        // order, and re-touching the oldest promotes it.
        for _ in 0..3 {
            h.access(0, LineAddr((ways - 1) * sets), AccessKind::Load, None, 0);
        }
        h.access(0, LineAddr(0), AccessKind::Load, None, 0);
        let a = h.access(0, LineAddr(ways * sets), AccessKind::Load, fill(), 0);
        let e = a.evicted.expect("one eviction");
        assert_eq!(e.line, LineAddr(sets), "true LRU is evicted");
    }

    #[test]
    fn inclusivity_invariant_holds_under_load() {
        let cfg = SystemConfig::small();
        let mut h = CacheHierarchy::new(&cfg);
        for i in 0..5000u64 {
            let core = (i % cfg.cores as u64) as usize;
            h.access(core, LineAddr(i * 3 % 2048), AccessKind::Load, fill(), 0);
        }
        assert!(h.check_inclusive());
    }

    /// The slab must recycle slots through its freelist: evicting then
    /// refilling lines may not grow the arena once it has peaked.
    #[test]
    fn slab_freelist_reuses_slots_after_eviction() {
        let cfg = SystemConfig::small();
        let mut h = CacheHierarchy::new(&cfg);
        let llc_lines = cfg.llc.size_bytes / 64;
        for i in 0..llc_lines * 4 {
            h.access(0, LineAddr(i), AccessKind::Load, fill(), 0);
        }
        let peak = h.slab.keys.len();
        assert!(h.eviction_counts().total > 0, "churn must evict");
        for i in 0..llc_lines * 4 {
            h.access(0, LineAddr(i * 7 + 1), AccessKind::Load, fill(), 0);
        }
        assert_eq!(h.slab.keys.len(), peak, "freelist must recycle slots");
        assert_eq!(
            h.slab.len + h.slab.free.len(),
            h.slab.keys.len(),
            "every slot is live or free"
        );
        assert!(h.check_inclusive());
    }

    /// A crash flush (`invalidate_all`) empties the slab; subsequent fills
    /// must reuse the already-allocated arena and index.
    #[test]
    fn slab_freelist_survives_crash_flush() {
        let cfg = SystemConfig::small();
        let mut h = CacheHierarchy::new(&cfg);
        for i in 0..256u64 {
            h.access(0, LineAddr(i), AccessKind::Load, fill(), 0);
        }
        h.invalidate_all();
        assert!(h.is_empty());
        for i in 0..256u64 {
            h.access(0, LineAddr(i + 1000), AccessKind::Load, fill(), 0);
        }
        assert_eq!(h.len(), 256);
        assert!(h.check_inclusive());
    }

    /// Backward-shift deletion keeps the open-addressed index correct
    /// through colliding insert/remove churn.
    #[test]
    fn line_index_removal_preserves_probe_chains() {
        let mut idx = LineIndex::new();
        // Many keys, enough to force growth and long probe chains.
        for i in 0..1000u64 {
            idx.insert(i * 0x1000 + 3, i as u32);
        }
        for i in (0..1000u64).step_by(2) {
            assert_eq!(idx.remove(i * 0x1000 + 3), Some(i as u32));
        }
        for i in 0..1000u64 {
            let got = idx.get(i * 0x1000 + 3);
            if i % 2 == 0 {
                assert_eq!(got, None, "removed key {i} must be gone");
            } else {
                assert_eq!(got, Some(i as u32), "kept key {i} must survive");
            }
        }
        // Reinsert the removed half.
        for i in (0..1000u64).step_by(2) {
            idx.insert(i * 0x1000 + 3, i as u32 + 5000);
        }
        for i in (0..1000u64).step_by(2) {
            assert_eq!(idx.get(i * 0x1000 + 3), Some(i as u32 + 5000));
        }
    }
}
