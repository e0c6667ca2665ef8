//! Steady-state hot paths perform no heap allocation.
//!
//! The data-oriented core (slab-arena cache store, inline SoA tag sets,
//! event lanes of inline entries, WPQ ops held in a per-channel node slab,
//! fixed-slot statistics) exists so the per-access/per-op simulator loop
//! never touches the allocator once its arenas are warm, and so restoring
//! a cache snapshot, an event queue or a statistics registry reuses the
//! destination's buffers. This binary
//! installs a counting global allocator and drives each structure through
//! a warm-up phase followed by a measured steady-state phase that must
//! allocate exactly zero times.
//!
//! The whole file is one `#[test]` on purpose: the counter is a process
//! global, and a single test keeps other tests' allocations out of the
//! measured windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use asap_mem::cache::AccessKind;
use asap_mem::{CacheHierarchy, MemSystem, PersistKind, PersistOp};
use asap_pmem::{LineAddr, MemoryImage, PM_BASE};
use asap_sim::{Counter, Cycle, Dist, EventQueue, StatSlots, SystemConfig};

/// Counts allocations (not bytes) going through the global allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many allocations it performed.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

fn pm_line(i: u64) -> LineAddr {
    LineAddr(PM_BASE / 64 + i)
}

fn dpo(line: LineAddr, v: u8) -> PersistOp {
    PersistOp::new(PersistKind::Dpo, line, [v; 64], None)
}

#[test]
fn steady_state_hot_paths_do_not_allocate() {
    let cfg = SystemConfig::small();

    // --- EventQueue: push/pop churn of inline entries within the warmed
    // lanes, every lane taking appends and pushes before its back. The
    // first pass sizes the lanes; the identical second pass must run
    // entirely out of that capacity.
    let mut q: EventQueue<u64, 3> = EventQueue::new();
    let churn_queue = |q: &mut EventQueue<u64, 3>| {
        for round in 0..64u64 {
            for i in 0..128u64 {
                q.push(i as usize % 3, Cycle(round * 1000 + i % 11), i);
            }
            while q.pop().is_some() {}
        }
    };
    churn_queue(&mut q);
    let n = allocs_in(|| churn_queue(&mut q));
    assert_eq!(n, 0, "event queue steady state must not allocate");

    // --- EventQueue restore: `clone_from` a churned queue with events
    // pending in every lane into the warmed one, as a crash sweep
    // refreshes its copy of the machine. It overwrites each lane's
    // entries in place.
    let mut src: EventQueue<u64, 3> = EventQueue::new();
    churn_queue(&mut src);
    for i in 0..128u64 {
        src.push(i as usize % 3, Cycle(i * 37 % 500), i);
    }
    for _ in 0..32 {
        src.pop();
    }
    let n = allocs_in(|| q.clone_from(&src));
    assert_eq!(n, 0, "event queue restore must not allocate");

    // --- Cache hierarchy: hits and capacity-eviction churn over a warmed
    // slab (evicted lines recycle their slots through the freelist).
    let mut caches = CacheHierarchy::new(&cfg);
    let span = 4 * (cfg.llc.size_bytes / 64);
    let churn_caches = |caches: &mut CacheHierarchy| {
        for round in 0..4u64 {
            for i in 0..span {
                let kind = if i % 3 == 0 {
                    AccessKind::Load
                } else {
                    AccessKind::Store
                };
                let line = pm_line((i + round * 17) % span);
                if caches.contains(line) {
                    caches.access(0, line, kind, None, 10);
                } else {
                    caches.access(0, line, kind, Some(([0; 64], true)), 10);
                }
            }
        }
    };
    churn_caches(&mut caches);
    let n = allocs_in(|| churn_caches(&mut caches));
    assert_eq!(n, 0, "cache slab/tag steady state must not allocate");

    // --- Cache hierarchy restore: `clone_from` a snapshot back into the
    // live hierarchy, the crash sweep's per-fork step. It overwrites the
    // slab, its index and the tag chunks in place, so once the first
    // restore has sized them the second allocates nothing — on the Table 2
    // geometry too, whose owned tag chunks are copied into the chunks the
    // first restore made (the churn between them only adds chunks).
    for cfg in [SystemConfig::small(), SystemConfig::table2()] {
        let mut caches = CacheHierarchy::new(&cfg);
        let churn_two_cores = |caches: &mut CacheHierarchy, offset: u64| {
            for i in 0..4096u64 {
                let kind = if i % 3 == 0 {
                    AccessKind::Load
                } else {
                    AccessKind::Store
                };
                let line = pm_line(i * 7 + offset);
                let fill = (!caches.contains(line)).then_some(([0; 64], true));
                caches.access((i % 2) as usize, line, kind, fill, 10);
            }
        };
        churn_two_cores(&mut caches, 0);
        let snap = caches.clone();
        churn_two_cores(&mut caches, 1);
        caches.clone_from(&snap);
        churn_two_cores(&mut caches, 2);
        let n = allocs_in(|| caches.clone_from(&snap));
        assert_eq!(n, 0, "{} cores: cache restore must not allocate", cfg.cores);
    }

    // --- MemSystem: WPQ submit/drain churn over a warmed channel (each
    // op's slab node, its only home from submit to media write, recycles
    // through the channel freelist). Every
    // round has the same shape — 32 submits 50 cycles apart, then an
    // advance far enough to drain them all — so the warm-up pass sizes
    // exactly the event-queue and channel capacity the measured pass
    // reuses.
    let mut mem = MemSystem::new(&cfg);
    let mut image = MemoryImage::new();
    let mut t = 0u64;
    let mut churn_wpq = |mem: &mut MemSystem, image: &mut MemoryImage| {
        for round in 0..32u64 {
            for i in 0..32u64 {
                mem.submit(dpo(pm_line(i % 16), round as u8), Cycle(t));
                t += 50;
            }
            t += 14_784;
            mem.advance_to(Cycle(t), image);
            while mem.pop_event().is_some() {}
        }
    };
    churn_wpq(&mut mem, &mut image);
    let n = allocs_in(|| churn_wpq(&mut mem, &mut image));
    assert_eq!(n, 0, "WPQ submit/drain steady state must not allocate");

    // --- Statistics restore: `clone_from` a registry into a warmed one,
    // as each crash-sweep refresh does for the machine's and the memory
    // system's statistics. The counters are one flat array and every
    // distribution reuses its bucket buffer.
    let record = |s: &mut StatSlots, scale: u64| {
        for (i, id) in Counter::ALL.into_iter().enumerate() {
            s.add(id, i as u64 * scale);
        }
        for id in Dist::ALL {
            for v in 0..2000u64 {
                s.sample(id, v * scale);
            }
        }
    };
    let mut src = StatSlots::new();
    record(&mut src, 3);
    let mut dst = src.clone();
    record(&mut dst, 1);
    let n = allocs_in(|| dst.clone_from(&src));
    assert_eq!(n, 0, "statistics restore must not allocate");
    assert_eq!(dst, src);
}
