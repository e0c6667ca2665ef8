//! Execution shadow for verifying atomic durability end to end.
//!
//! When enabled, the machine records every atomic region's line-granular
//! write set (old and new values), its reads, and its happens-before
//! dependencies, against an independently maintained shadow of persistent
//! memory. After a crash and recovery, [`RegionTracker::verify`] checks
//! the paper's guarantees against the recovered image:
//!
//! 1. **per-thread order** — the committed regions of each thread form a
//!    prefix of that thread's region sequence;
//! 2. **dependence closure** — a committed region's data dependencies are
//!    all committed (the Fig. 2 scenario can never appear);
//! 3. **fence durability** — every region completed before an
//!    `asap_fence` returned is committed;
//! 4. **atomic durability** — replaying exactly the committed regions over
//!    the initial state reproduces the recovered image on every tracked
//!    line.

use std::collections::{BTreeMap, BTreeSet};

use asap_mem::Rid;
use asap_pmem::{AddrMap, LineAddr, MemoryImage};

/// One tracked atomic region.
#[derive(Clone, Debug)]
pub struct TrackedRegion {
    /// The region's id.
    pub rid: Rid,
    /// Line → (value before the region's first write, value after its
    /// last write).
    pub writes: BTreeMap<LineAddr, ([u8; 64], [u8; 64])>,
    /// Cross-region data dependencies (regions whose data this one read
    /// or overwrote while they were uncommitted is a superset; we record
    /// all last-writers, and filter at verification time).
    pub deps: BTreeSet<Rid>,
    /// The region finished (`end_region` returned).
    pub ended: bool,
    /// A fence completed after this region ended.
    pub fenced: bool,
}

/// The execution shadow (see module docs).
#[derive(Clone, Debug, Default)]
pub struct RegionTracker {
    regions: Vec<TrackedRegion>,
    index: AddrMap<Rid, usize>,
    /// Region sequence per thread, in begin order.
    per_thread: BTreeMap<u32, Vec<Rid>>,
    /// Last region to write each line.
    last_writer: AddrMap<LineAddr, Rid>,
    /// Shadow of current persistent-line values.
    shadow: AddrMap<LineAddr, [u8; 64]>,
    open: BTreeMap<u32, Rid>,
}

impl RegionTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a region begin.
    ///
    /// # Panics
    ///
    /// Panics if the thread already has an open region.
    pub fn begin(&mut self, rid: Rid) {
        let t = rid.thread();
        assert!(
            !self.open.contains_key(&t),
            "thread {t} already has an open region"
        );
        self.open.insert(t, rid);
        self.index.insert(rid, self.regions.len());
        self.per_thread.entry(t).or_default().push(rid);
        self.regions.push(TrackedRegion {
            rid,
            writes: BTreeMap::new(),
            deps: BTreeSet::new(),
            ended: false,
            fenced: false,
        });
    }

    /// Records a write of `new` (full line value after the write) by the
    /// open region of `rid`'s thread.
    pub fn write(&mut self, rid: Rid, line: LineAddr, new: [u8; 64]) {
        let old = self.shadow.get(&line).copied().unwrap_or([0u8; 64]);
        if let Some(&w) = self.last_writer.get(&line) {
            if w != rid {
                self.region_mut(rid).deps.insert(w);
            }
        }
        self.last_writer.insert(line, rid);
        let r = self.region_mut(rid);
        r.writes.entry(line).or_insert((old, new)).1 = new;
        self.shadow.insert(line, new);
    }

    /// Records a read by `rid`.
    pub fn read(&mut self, rid: Rid, line: LineAddr) {
        if let Some(&w) = self.last_writer.get(&line) {
            if w != rid {
                self.region_mut(rid).deps.insert(w);
            }
        }
    }

    /// Records a region end. Returns the region's footprint —
    /// `(lines written, cross-region dependencies)` — so the caller can
    /// fold it into the run statistics (`region.lines_written`,
    /// `region.deps`).
    pub fn end(&mut self, rid: Rid) -> (usize, usize) {
        self.open.remove(&rid.thread());
        let r = self.region_mut(rid);
        r.ended = true;
        (r.writes.len(), r.deps.len())
    }

    /// Records a completed fence on `thread`: all of its ended regions are
    /// now guaranteed durable.
    pub fn fence(&mut self, thread: u32) {
        if let Some(rids) = self.per_thread.get(&thread) {
            for rid in rids.clone() {
                let r = self.region_mut(rid);
                if r.ended {
                    r.fenced = true;
                }
            }
        }
    }

    fn region_mut(&mut self, rid: Rid) -> &mut TrackedRegion {
        let i = *self.index.get(&rid).expect("region was begun");
        &mut self.regions[i]
    }

    /// Number of tracked regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether nothing was tracked.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// All tracked regions in begin order.
    pub fn regions(&self) -> &[TrackedRegion] {
        &self.regions
    }

    /// Removes regions rolled back by recovery and rebuilds the shadow
    /// from the surviving history, so tracking can continue after a
    /// crash+recover cycle.
    pub fn discard(&mut self, uncommitted: &BTreeSet<Rid>) {
        self.regions.retain(|r| !uncommitted.contains(&r.rid));
        self.index.clear();
        self.per_thread.clear();
        self.last_writer.clear();
        self.shadow.clear();
        self.open.clear();
        for (i, r) in self.regions.iter().enumerate() {
            self.index.insert(r.rid, i);
            self.per_thread
                .entry(r.rid.thread())
                .or_default()
                .push(r.rid);
            for (line, (_, new)) in &r.writes {
                self.shadow.insert(*line, *new);
                self.last_writer.insert(*line, r.rid);
            }
        }
    }

    /// Verifies the recovered `image` against the shadow, given the set of
    /// regions recovery reported as uncommitted (rolled back).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated guarantee.
    pub fn verify(&self, image: &MemoryImage, uncommitted: &BTreeSet<Rid>) -> Result<(), String> {
        let committed: BTreeSet<Rid> = self
            .regions
            .iter()
            .map(|r| r.rid)
            .filter(|r| !uncommitted.contains(r))
            .collect();
        // 1. Per-thread prefix order.
        for (t, rids) in &self.per_thread {
            let mut seen_uncommitted = false;
            for rid in rids {
                let is_committed = committed.contains(rid);
                if is_committed && seen_uncommitted {
                    return Err(format!(
                        "thread {t}: region {rid} committed after an earlier uncommitted region"
                    ));
                }
                if !is_committed {
                    seen_uncommitted = true;
                }
            }
        }
        // 2. Dependence closure.
        for r in &self.regions {
            if !committed.contains(&r.rid) {
                continue;
            }
            for d in &r.deps {
                if !committed.contains(d) {
                    return Err(format!(
                        "region {} committed but its dependence {d} did not",
                        r.rid
                    ));
                }
            }
        }
        // 3. Fence durability.
        for r in &self.regions {
            if r.fenced && !committed.contains(&r.rid) {
                return Err(format!("region {} was fenced but not committed", r.rid));
            }
        }
        // 4. Atomic durability: replay committed regions in begin order.
        let mut replay: AddrMap<LineAddr, [u8; 64]> = AddrMap::default();
        for r in &self.regions {
            if !committed.contains(&r.rid) {
                continue;
            }
            for (line, (_, new)) in &r.writes {
                replay.insert(*line, *new);
            }
        }
        let tracked: BTreeSet<LineAddr> = self
            .regions
            .iter()
            .flat_map(|r| r.writes.keys().copied())
            .collect();
        for line in tracked {
            let expect = replay.get(&line).copied().unwrap_or([0u8; 64]);
            let got = image.read_line(line);
            if got != expect {
                let byte = (0..64).find(|&i| got[i] != expect[i]).unwrap_or(0);
                let writers: Vec<String> = self
                    .regions
                    .iter()
                    .filter(|r| r.writes.contains_key(&line))
                    .map(|r| {
                        format!(
                            "{}{}",
                            r.rid,
                            if committed.contains(&r.rid) {
                                "(C)"
                            } else {
                                "(U)"
                            }
                        )
                    })
                    .collect();
                return Err(format!(
                    "line {line}: byte {byte} image={:#04x} != replay={:#04x}; \
                     writers: {}; {} committed regions",
                    got[byte],
                    expect[byte],
                    writers.join(","),
                    committed.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(t: u32, l: u64) -> Rid {
        Rid::new(t, l)
    }

    fn line_val(b: u8) -> [u8; 64] {
        [b; 64]
    }

    #[test]
    fn tracks_old_and_new_values() {
        let mut tr = RegionTracker::new();
        tr.begin(rid(0, 1));
        tr.write(rid(0, 1), LineAddr(5), line_val(1));
        tr.write(rid(0, 1), LineAddr(5), line_val(2));
        tr.end(rid(0, 1));
        let r = &tr.regions()[0];
        let (old, new) = r.writes[&LineAddr(5)];
        assert_eq!(old, line_val(0), "old value is pre-region");
        assert_eq!(new, line_val(2), "new value is the last write");
    }

    #[test]
    fn cross_region_deps_recorded() {
        let mut tr = RegionTracker::new();
        tr.begin(rid(0, 1));
        tr.write(rid(0, 1), LineAddr(9), line_val(1));
        tr.end(rid(0, 1));
        tr.begin(rid(1, 1));
        tr.read(rid(1, 1), LineAddr(9));
        tr.end(rid(1, 1));
        assert!(tr.regions()[1].deps.contains(&rid(0, 1)));
        assert!(tr.regions()[0].deps.is_empty());
    }

    #[test]
    fn verify_accepts_consistent_crash() {
        let mut tr = RegionTracker::new();
        tr.begin(rid(0, 1));
        tr.write(rid(0, 1), LineAddr(1), line_val(0xA));
        tr.end(rid(0, 1));
        tr.begin(rid(0, 2));
        tr.write(rid(0, 2), LineAddr(1), line_val(0xB));
        tr.end(rid(0, 2));
        // Crash: region 2 uncommitted, image holds region 1's value.
        let mut image = MemoryImage::new();
        image.write_line(LineAddr(1), &line_val(0xA));
        let un: BTreeSet<Rid> = [rid(0, 2)].into();
        tr.verify(&image, &un).unwrap();
    }

    #[test]
    fn verify_rejects_prefix_violation() {
        let mut tr = RegionTracker::new();
        tr.begin(rid(0, 1));
        tr.write(rid(0, 1), LineAddr(1), line_val(1));
        tr.end(rid(0, 1));
        tr.begin(rid(0, 2));
        tr.write(rid(0, 2), LineAddr(2), line_val(2));
        tr.end(rid(0, 2));
        // Claim region 1 rolled back but region 2 kept: order violation.
        let mut image = MemoryImage::new();
        image.write_line(LineAddr(2), &line_val(2));
        let un: BTreeSet<Rid> = [rid(0, 1)].into();
        let err = tr.verify(&image, &un).unwrap_err();
        assert!(
            err.contains("committed after an earlier uncommitted"),
            "{err}"
        );
    }

    #[test]
    fn verify_rejects_dependence_violation() {
        let mut tr = RegionTracker::new();
        tr.begin(rid(0, 1));
        tr.write(rid(0, 1), LineAddr(1), line_val(1));
        tr.end(rid(0, 1));
        tr.begin(rid(1, 1));
        tr.read(rid(1, 1), LineAddr(1));
        tr.write(rid(1, 1), LineAddr(2), line_val(2));
        tr.end(rid(1, 1));
        // Consumer kept, producer rolled back: Fig. 2's broken state.
        let mut image = MemoryImage::new();
        image.write_line(LineAddr(2), &line_val(2));
        let un: BTreeSet<Rid> = [rid(0, 1)].into();
        let err = tr.verify(&image, &un).unwrap_err();
        assert!(err.contains("dependence"), "{err}");
    }

    #[test]
    fn verify_rejects_torn_region() {
        let mut tr = RegionTracker::new();
        tr.begin(rid(0, 1));
        tr.write(rid(0, 1), LineAddr(1), line_val(1));
        tr.write(rid(0, 1), LineAddr(2), line_val(2));
        tr.end(rid(0, 1));
        // Image has only half the region's writes but claims it committed.
        let mut image = MemoryImage::new();
        image.write_line(LineAddr(1), &line_val(1));
        let err = tr.verify(&image, &BTreeSet::new()).unwrap_err();
        assert!(err.contains("replay"), "{err}");
    }

    #[test]
    fn verify_rejects_unfenced_rollback() {
        let mut tr = RegionTracker::new();
        tr.begin(rid(0, 1));
        tr.write(rid(0, 1), LineAddr(1), line_val(1));
        tr.end(rid(0, 1));
        tr.fence(0);
        let image = MemoryImage::new(); // rolled back
        let un: BTreeSet<Rid> = [rid(0, 1)].into();
        let err = tr.verify(&image, &un).unwrap_err();
        assert!(err.contains("fenced"), "{err}");
    }

    #[test]
    fn fence_only_covers_ended_regions() {
        let mut tr = RegionTracker::new();
        tr.begin(rid(0, 1));
        tr.end(rid(0, 1));
        tr.begin(rid(0, 2)); // still open
        tr.fence(0);
        assert!(tr.regions()[0].fenced);
        assert!(!tr.regions()[1].fenced);
    }

    #[test]
    fn end_reports_region_footprint() {
        let mut tr = RegionTracker::new();
        tr.begin(rid(0, 1));
        tr.write(rid(0, 1), LineAddr(1), line_val(1));
        tr.end(rid(0, 1));
        tr.begin(rid(1, 1));
        tr.read(rid(1, 1), LineAddr(1));
        tr.write(rid(1, 1), LineAddr(2), line_val(2));
        tr.write(rid(1, 1), LineAddr(3), line_val(3));
        assert_eq!(tr.end(rid(1, 1)), (2, 1), "two lines, one dependence");
    }

    #[test]
    #[should_panic(expected = "already has an open region")]
    fn overlapping_regions_same_thread_panic() {
        let mut tr = RegionTracker::new();
        tr.begin(rid(0, 1));
        tr.begin(rid(0, 2));
    }

    #[test]
    fn empty_tracker_verifies_empty_image() {
        let tr = RegionTracker::new();
        assert!(tr.is_empty());
        tr.verify(&MemoryImage::new(), &BTreeSet::new()).unwrap();
    }
}
