//! Microbenchmarks of the simulator substrates: event queue, cache hierarchy
//! access, WPQ submit/drain, log-record encode/decode, Dependence List
//! broadcast, bloom filter probes, spec fingerprinting, run-cache disk
//! hits/inserts, machine construction, snapshots and sweeps, and an
//! end-to-end small transaction.
//!
//! Plain `fn main` harness (no criterion — the build environment is offline):
//! each benchmark warms up, then runs timed batches and reports mean ns/iter
//! with the standard deviation across batches and the fastest batch. The
//! fastest batch is the steadier figure when another process shares the
//! host. Raw ns/iter compare only between runs on the same idle host, so
//! a before/after alternates the two builds back to back.
//!
//! `cargo bench -p asap-bench --bench micro -- <filter>` runs only the
//! benchmarks whose name starts with `<filter>` (every group's setup still
//! runs).

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use asap_core::logbuf::RecordHeader;
use asap_core::machine::{Machine, MachineConfig};
use asap_core::scheme::asap::structs::DepLists;
use asap_core::scheme::SchemeKind;
use asap_mem::cache::AccessKind;
use asap_mem::{BloomFilter, CacheHierarchy, MemSystem, PersistKind, PersistOp, Rid};
use asap_pmem::{LineAddr, MemoryImage, PmAddr, PM_BASE};
use asap_sim::{Cycle, EventQueue, Summary, SystemConfig};

const WARMUP_ITERS: u64 = 2_000;
const BATCHES: u64 = 10;
const ITERS_PER_BATCH: u64 = 20_000;

/// The name filter: the first command-line argument other than the
/// `--bench` flag cargo passes to bench targets.
fn filter() -> Option<&'static str> {
    static FILTER: OnceLock<Option<String>> = OnceLock::new();
    FILTER
        .get_or_init(|| std::env::args().skip(1).find(|a| a != "--bench"))
        .as_deref()
}

/// Runs `f` repeatedly and prints mean ± stddev and the fastest batch's
/// ns/iter over the batches.
fn bench(name: &str, f: impl FnMut()) {
    bench_with(name, WARMUP_ITERS, ITERS_PER_BATCH, f);
}

/// [`bench`] with explicit warmup/iteration counts, for benchmarks whose
/// single iteration is orders of magnitude heavier than the substrate
/// loops (e.g. a full fork restore + replay).
fn bench_with(name: &str, warmup: u64, iters: u64, mut f: impl FnMut()) {
    if filter().is_some_and(|f| !name.starts_with(f)) {
        return;
    }
    for _ in 0..warmup {
        f();
    }
    // Picoseconds per iteration, so sub-ns differences survive.
    let mut per_batch = Summary::default();
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_batch.record((t0.elapsed().as_nanos() * 1000 / u128::from(iters)) as u64);
    }
    println!(
        "{name:<28} {:>8.1} ns/iter  (stddev {:>6.1}, min {:>8.1}, {BATCHES} batches x {iters} iters)",
        per_batch.mean() / 1000.0,
        per_batch.stddev() / 1000.0,
        per_batch.min as f64 / 1000.0,
    );
}

fn bench_events() {
    // Every queue here has the three lanes and the 24-byte payloads of
    // `MemSystem`'s `(channel, ChEvent)` events, so moving one costs what
    // it costs in the simulator: payload size can flip the ranking of
    // queue designs (an inline heap lost to a payload slab at the 144
    // bytes events had while they carried whole persist ops).

    // Rolling near-future window with 0–2 events pending on two lanes,
    // popped in time order. Stays within the warmed lanes, so the loop
    // is allocation-free.
    let mut q: EventQueue<[u64; 3], 3> = EventQueue::new();
    let mut t = 0u64;
    bench("event_queue_push_pop", || {
        t += 13;
        q.push(0, Cycle(t + 16), [t; 3]);
        q.push(2, Cycle(t + 900), [t + 1; 3]);
        black_box(q.pop());
        black_box(q.pop());
    });

    // Same-cycle burst over every lane: all events of a batch share one
    // cycle and must pop in insertion order (FIFO within a cycle).
    let mut q: EventQueue<[u64; 3], 3> = EventQueue::new();
    let mut t = 0u64;
    bench("event_queue_burst_fifo", || {
        t += 1;
        for i in 0..8u64 {
            q.push(i as usize % 3, Cycle(t), [i; 3]);
        }
        while q.pop().is_some() {}
    });

    // The memory system's mix (DESIGN.md §12): per op an `Arrive` one hop
    // (40 cycles) out, a `WriteDone` one write service (12) out and a
    // `DrainCheck` one residency window (1,500) out, each on its lane.
    // About 12 % of arrivals and 20 % of checks come from a thread 1,000
    // cycles behind and land before their lane's back. Popping up to the
    // current time keeps ~75 checks pending, as `fig7_cold` does.
    let mut q: EventQueue<[u64; 3], 3> = EventQueue::new();
    let mut t = 1_000_000u64;
    let mut i = 0u64;
    bench("event_queue_memsystem_mix", || {
        t += 20;
        i += 1;
        let behind = |pct: u64| if i * 37 % 100 < pct { 1_000 } else { 0 };
        q.push(0, Cycle(t + 40 - behind(12)), [i; 3]);
        q.push(1, Cycle(t + 12), [i; 3]);
        q.push(2, Cycle(t + 1_500 - behind(20)), [i; 3]);
        while let Some(e) = q.pop_until(Cycle(t)) {
            black_box(e);
        }
    });
}

fn bench_cache() {
    let cfg = SystemConfig::table2();
    let mut h = CacheHierarchy::new(&cfg);
    h.access(
        0,
        LineAddr(1),
        AccessKind::Load,
        Some(([0u8; 64], false)),
        150,
    );
    bench("cache_hit_l1", || {
        black_box(
            h.access(0, LineAddr(1), AccessKind::Load, None, 150)
                .latency,
        );
    });

    let mut h = CacheHierarchy::new(&SystemConfig::small());
    let mut i = 0u64;
    bench("cache_miss_fill_evict", || {
        i += 1;
        black_box(
            h.access(
                0,
                LineAddr(i % 8192),
                AccessKind::Load,
                Some(([0u8; 64], true)),
                150,
            )
            .latency,
        );
    });

    // Cold fills on the Table 2 geometry, the path the 2 KB cells of
    // `fig7_cold` take: each store fills a line into an LLC set no line
    // has touched since the last crash flush, which every `sets` fills
    // drops every tag chunk again. A batch is `2 * sets` fills, so every
    // batch holds exactly two flushes.
    let sets = cfg.llc.sets();
    let mut h = CacheHierarchy::new(&cfg);
    let mut i = 0u64;
    bench_with("cache_fill_table2", WARMUP_ITERS, 2 * sets, || {
        if i.is_multiple_of(sets) {
            h.invalidate_all();
        }
        let line = LineAddr(PM_BASE / 64 + i % sets);
        i += 1;
        black_box(
            h.access(0, line, AccessKind::Store, Some(([0u8; 64], true)), 150)
                .latency,
        );
    });

    // Lookups of uncached lines whose LLC sets hold eight lines each: the
    // path of verifying a warm hierarchy.
    let mut h = CacheHierarchy::new(&cfg);
    for i in 0..8 * sets {
        h.access(
            (i % 4) as usize,
            LineAddr(PM_BASE / 64 + i),
            AccessKind::Load,
            Some(([0u8; 64], true)),
            150,
        );
    }
    let mut i = 0u64;
    bench("cache_probe_absent", || {
        i += 1;
        black_box(h.peek_level(0, LineAddr(PM_BASE / 64 + 64 * sets + i % sets)));
    });
}

fn bench_wpq() {
    let cfg = SystemConfig::table2();
    let mut mem = MemSystem::new(&cfg);
    let mut image = MemoryImage::new();
    let mut t = 0u64;
    bench("wpq_submit_drain", || {
        t += 100;
        let line = LineAddr(PM_BASE / 64 + t % 1024);
        mem.submit(
            PersistOp::new(PersistKind::Dpo, line, [0u8; 64], None),
            Cycle(t),
        );
        mem.advance_to(Cycle(t), &mut image);
        while mem.pop_event().is_some() {}
    });
}

fn bench_image() {
    // The hot loop of every simulated store: byte writes that hit the
    // image's last-page cache.
    let mut image = MemoryImage::new();
    let mut i = 0u64;
    bench("image_write_same_page", || {
        i += 1;
        image.write_u64(PmAddr(PM_BASE + (i % 500) * 8), i);
    });

    // Page-index probes: a strided walk that misses the last-page cache on
    // every access.
    let mut image = MemoryImage::new();
    for p in 0..512u64 {
        image.write_u64(PmAddr(PM_BASE + p * 4096), p);
    }
    let mut i = 0u64;
    bench("image_read_strided_pages", || {
        i += 1;
        black_box(image.read_u64(PmAddr(PM_BASE + (i % 512) * 4096)));
    });

    // Line-sized copies that straddle a page boundary exercise the
    // split-write path.
    let mut image = MemoryImage::new();
    let buf = [0xabu8; 64];
    let mut i = 0u64;
    bench("image_write_page_boundary", || {
        i += 1;
        image.write(PmAddr(PM_BASE + (i % 64) * 4096 + 4096 - 32), &buf);
    });
}

fn bench_store_forward() {
    // read_for_fill against a WPQ holding many queued lines: one probe of
    // the per-channel line index.
    let cfg = SystemConfig::table2();
    let mut mem = MemSystem::new(&cfg);
    let image = MemoryImage::new();
    for i in 0..64u64 {
        mem.submit(
            PersistOp::new(
                PersistKind::Dpo,
                LineAddr(PM_BASE / 64 + i),
                [7u8; 64],
                None,
            ),
            Cycle(0),
        );
    }
    let mut i = 0u64;
    bench("wpq_store_forward_probe", || {
        i += 1;
        black_box(mem.read_for_fill(LineAddr(PM_BASE / 64 + i % 128), &image));
    });
}

fn bench_log() {
    let mut h = RecordHeader::new(Rid::new(3, 99), Some(PmAddr(0x8000_1000)));
    for i in 0..7 {
        h.push_entry(LineAddr(0x200_0000 + i));
    }
    bench("record_header_encode_decode", || {
        let bytes = black_box(h.encode());
        black_box(RecordHeader::decode(&bytes));
    });
}

fn bench_deplist() {
    bench("deplist_insert_broadcast", || {
        let mut d = DepLists::new(4, 128, 4);
        for i in 0..64 {
            d.insert(Rid::new(0, i));
            if i > 0 {
                d.add_dep(Rid::new(0, i), Rid::new(0, i - 1));
            }
        }
        for i in 0..64 {
            d.get_mut(Rid::new(0, i)).unwrap().done = true;
            d.remove(Rid::new(0, i));
            black_box(d.clear_dep_everywhere(Rid::new(0, i)));
        }
    });
}

fn bench_bloom() {
    let mut bf = BloomFilter::new(8 * 1024);
    let mut i = 0u64;
    bench("bloom_insert_probe", || {
        i += 1;
        bf.insert(LineAddr(i));
        black_box(bf.may_contain(LineAddr(i + 1)));
    });
}

fn bench_fingerprint() {
    // The cache key computation run_grid performs once per cell before
    // the worker pool starts: canonical serialization + two-lane hash of
    // the complete spec.
    let spec = asap_workloads::WorkloadSpec::new(asap_workloads::BenchId::Tpcc, SchemeKind::Asap)
        .with_threads(8)
        .with_value_bytes(2048);
    bench("spec_fingerprint", || {
        black_box(black_box(&spec).fingerprint());
    });

    // The raw hash over a cell-sized canonical buffer, isolating the
    // mixing loop from the serialization above.
    let bytes = vec![0x5au8; 256];
    bench("fingerprint_hash_256b", || {
        black_box(asap_sim::fingerprint::hash_bytes(black_box(&bytes)));
    });
}

fn bench_runcache() {
    use asap_bench::runcache::{insert, lookup, RunCacheConfig};

    // One small real result, inserted into a hermetic disk store.
    let spec = asap_workloads::WorkloadSpec::small(asap_workloads::BenchId::Q, SchemeKind::Asap)
        .with_ops(10);
    let result = asap_workloads::run(&spec);
    let fp = spec.fingerprint();
    let dir = std::env::temp_dir().join(format!("asap-runcache-micro-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = RunCacheConfig::disk_only(&dir, 64);
    insert(&fp, &result, &cfg);

    // A disk hit: read + lossless parse + mtime touch of one cell file.
    bench("runcache_disk_hit", || {
        black_box(lookup(black_box(&fp), &cfg).is_some());
    });

    // An insert: serialize + atomic write + cap scan (the store holds a
    // single file, so this is the fixed per-cell overhead floor).
    bench("runcache_disk_insert", || {
        insert(black_box(&fp), black_box(&result), &cfg);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_machine_new() {
    // One `fig7_cold` cell's construction: a 4-thread Table 2 machine
    // (1 MB dump area and 4 x 4 MB log buffers marked persistent) built
    // and dropped.
    bench_with("machine_new_table2", 5, 20, || {
        black_box(Machine::new(MachineConfig::new(SchemeKind::Asap, 4)));
    });
}

fn bench_snapshot() {
    // CoW image snapshot: a refcounted pointer-table copy whose cost is
    // O(touched pages), not O(bytes) — 512 pages here.
    let mut image = MemoryImage::new();
    for p in 0..512u64 {
        image.write_u64(PmAddr(PM_BASE + p * 4096), p);
    }
    bench("image_snapshot_512p", || {
        black_box(image.snapshot());
    });

    // First write after a snapshot pays the copy-on-write page
    // materialization (one 4KB copy) on top of the pointer-table copy.
    let mut i = 0u64;
    bench("image_snapshot_cow_write", || {
        i += 1;
        let s = image.snapshot();
        image.write_u64(PmAddr(PM_BASE + (i % 512) * 4096), i);
        black_box(&s);
    });

    // Machine snapshot and fork (restore): the sweep driver's per-cadence
    // and per-crash-point costs on a small-config machine with live
    // cache, WPQ, scheme, and image state.
    let mut m = Machine::new(MachineConfig::small(SchemeKind::Asap, 1));
    let a = m.pm_alloc(64 * 64).unwrap();
    for i in 0..64u64 {
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            ctx.write_u64(a.offset(i % 64 * 64), i);
            ctx.end_region();
        });
    }
    bench("machine_snapshot_small", || {
        black_box(m.snapshot());
    });
    let snap = m.snapshot();
    bench("machine_restore_small", || {
        m.restore(&snap);
    });

    // The same two costs on the Table 2 system: 18 cores, 2 of them
    // running, a footprint of a few hundred lines. The tag arrays hold
    // only the chunks those lines map to (~9 MB if every chunk existed),
    // and a snapshot deep-copies them. The restore case is one crash-sweep
    // fork: run a region from the snapshot, crash, recover, restore.
    let mut m = Machine::new(MachineConfig::new(SchemeKind::Asap, 2));
    let a = m.pm_alloc(64 * 64).unwrap();
    let region = |m: &mut Machine, i: u64| {
        m.run_thread((i % 2) as usize, |ctx| {
            ctx.begin_region();
            ctx.write_u64(a.offset(i % 64 * 64), i);
            ctx.end_region();
        });
    };
    for i in 0..64u64 {
        region(&mut m, i);
    }
    bench_with("machine_snapshot_table2", 20, 200, || {
        black_box(m.snapshot());
    });
    let snap = m.snapshot();
    bench_with("machine_restore_after_crash_table2", 20, 200, || {
        region(&mut m, 64);
        m.crash_now();
        black_box(m.recover());
        m.restore(&snap);
    });
}

fn bench_sweep() {
    // The sweep engine's two per-fork shapes, isolated from the driver.
    // The flat reference restores a cadence snapshot a full tail behind
    // the crash point and replays to it; the walk crashes a cache-less
    // copy of the live machine at the point and recovers it.
    let mut m = Machine::new(MachineConfig::small(SchemeKind::Asap, 1));
    let a = m.pm_alloc(64 * 64).unwrap();
    let region = |m: &mut Machine, i: u64| {
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            ctx.write_u64(a.offset(i % 64 * 64), i);
            ctx.end_region();
        });
    };
    for i in 0..8 {
        region(&mut m, i);
    }
    let far = m.snapshot();
    for i in 8..63 {
        region(&mut m, i);
    }

    // Flat cadence: restore the cadence snapshot, replay the tail of
    // regions up to the crash point.
    bench_with("sweep_restore_flat_tail", 20, 200, || {
        m.restore(&far);
        for i in 8..63 {
            region(&mut m, i);
        }
    });
    // Walk: as between two points of a sweep, the live machine runs a
    // region, then the crashed copy is refreshed from it and recovered,
    // and gives its allocator share back. Each refresh re-points the
    // pages either side rewrote, and the live machine's region copies on
    // write the pages the copy still holds (the copy is built once, then
    // refreshed in place).
    let mut copy = None;
    let fork = |m: &mut Machine, copy: &mut Option<Machine>| {
        let c = m.crash_copy(copy);
        black_box(c.recover());
        let hw = c.hw_mut();
        hw.heap.release();
        hw.dram_heap.release();
    };
    let mut i = 63;
    bench_with("sweep_crash_copy_small", 20, 200, || {
        i += 1;
        region(&mut m, i);
        fork(&mut m, &mut copy);
    });
    // The same on the Table 2 system (18 cores, 2 running), whose cache
    // lines and tag chunks a refresh leaves out.
    let mut t2 = Machine::new(MachineConfig::new(SchemeKind::Asap, 2));
    let a = t2.pm_alloc(64 * 64).unwrap();
    let region = |m: &mut Machine, i: u64| {
        m.run_thread((i % 2) as usize, |ctx| {
            ctx.begin_region();
            ctx.write_u64(a.offset(i % 64 * 64), i);
            ctx.end_region();
        });
    };
    for i in 0..64u64 {
        region(&mut t2, i);
    }
    let mut copy = None;
    let mut i = 63;
    bench_with("sweep_crash_copy_table2", 20, 200, || {
        i += 1;
        region(&mut t2, i);
        fork(&mut t2, &mut copy);
    });
}

fn bench_transaction() {
    // One region per iteration on a small-config machine, per scheme:
    // a one-line (64 B) write, and a 2 KB write of 32 lines, which
    // exercises the scheme's per-region line and op sets.
    for (name, kind) in [
        ("sw_undo", SchemeKind::SwUndo),
        ("hw_undo", SchemeKind::HwUndo),
        ("hw_redo", SchemeKind::HwRedo),
        ("asap", SchemeKind::Asap),
    ] {
        let mut m = Machine::new(MachineConfig::small(kind, 1));
        let a = m.pm_alloc(64 * 16).unwrap();
        let mut i = 0u64;
        bench(&format!("{name}_small_transaction"), || {
            i += 1;
            m.run_thread(0, |ctx| {
                ctx.begin_region();
                ctx.write_u64(a.offset(i % 16 * 64), i);
                ctx.end_region();
            });
        });
        let b = m.pm_alloc(2048 * 4).unwrap();
        let value = [0x5au8; 2048];
        bench_with(&format!("{name}_2kb_transaction"), 200, 2_000, || {
            i += 1;
            m.run_thread(0, |ctx| {
                ctx.begin_region();
                ctx.write_bytes(b.offset(i % 4 * 2048), &value);
                ctx.end_region();
            });
        });
    }
}

fn main() {
    bench_events();
    bench_cache();
    bench_image();
    bench_wpq();
    bench_store_forward();
    bench_log();
    bench_deplist();
    bench_bloom();
    bench_fingerprint();
    bench_runcache();
    bench_machine_new();
    bench_snapshot();
    bench_sweep();
    bench_transaction();
}
