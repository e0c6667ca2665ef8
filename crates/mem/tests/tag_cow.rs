//! Copy-on-write isolation of cache-hierarchy snapshots.
//!
//! The tag arrays share fixed-size chunks of sets between a hierarchy and
//! its clones, and copy a chunk only on the first write to it. This is the
//! cache counterpart of the PM image's CoW-vs-eager proptest: random access
//! sequences run on a live hierarchy that is snapshotted (`clone`), churned,
//! crashed (`invalidate_all`) and restored (`clone_from`), and every state
//! must equal a fresh hierarchy that replays the same ops from scratch.
//!
//! 1. After more live accesses and a crash, the snapshot still equals a
//!    replay of the prefix: no write to the live side reached a shared
//!    chunk.
//! 2. After restoring the snapshot and running a second suffix, the live
//!    hierarchy equals a replay of prefix + that suffix, and the snapshot
//!    still equals the prefix.
//! 3. A hierarchy restored from that live one keeps its state while the
//!    live one runs on.
//! 4. Restoring the snapshot again, with no crash first, onto the live
//!    hierarchy while it holds chunks it wrote itself, then running the
//!    second suffix, again gives prefix + suffix, and the snapshot still
//!    equals the prefix.
//!
//! Two geometries: the tiny caches of `functional_equivalence.rs` (one
//! chunk per array, constant evictions), and Table 2 with two active
//! cores out of 18, its lines spread over three LLC chunks and colliding
//! in their sets so that every level evicts.

use asap_mem::cache::AccessKind;
use asap_mem::{CacheHierarchy, HitLevel};
use asap_pmem::{LineAddr, PM_BASE};
use asap_sim::{CacheConfig, SystemConfig};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Load {
        core: u8,
        line: u8,
    },
    Store {
        core: u8,
        line: u8,
        value: u8,
    },
    /// Toggles the LockBit of a cached line (locked lines resist eviction).
    Lock {
        line: u8,
    },
    /// `clwb`-style copy-out: clears the dirty bit, keeps the line.
    Writeback {
        line: u8,
    },
}

/// Distinct lines each geometry draws from.
const LINES: u8 = 72;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..2, 0u8..LINES).prop_map(|(core, line)| Op::Load { core, line }),
        4 => (0u8..2, 0u8..LINES, 1u8..=255)
            .prop_map(|(core, line, value)| Op::Store { core, line, value }),
        1 => (0u8..LINES).prop_map(|line| Op::Lock { line }),
        1 => (0u8..LINES).prop_map(|line| Op::Writeback { line }),
    ]
}

#[derive(Clone, Copy, Debug)]
enum Geometry {
    Tiny,
    Table2,
}

impl Geometry {
    fn config(self) -> SystemConfig {
        match self {
            Geometry::Tiny => {
                let mut cfg = SystemConfig::small();
                cfg.l1 = CacheConfig {
                    size_bytes: 4 * 64,
                    ways: 2,
                    latency: 4,
                };
                cfg.l2 = CacheConfig {
                    size_bytes: 8 * 64,
                    ways: 2,
                    latency: 14,
                };
                cfg.llc = CacheConfig {
                    size_bytes: 16 * 64,
                    ways: 4,
                    latency: 42,
                };
                cfg
            }
            Geometry::Table2 => SystemConfig::table2(),
        }
    }

    fn line(self, i: u8) -> LineAddr {
        let i = u64::from(i);
        match self {
            Geometry::Tiny => LineAddr(PM_BASE / 64 + i),
            // Three groups of 24 lines. A group shares one LLC set (8192
            // sets) and one L2 set (1024 sets), so 24 lines overflow the 16
            // ways of each; the groups sit 112 sets apart, in different
            // LLC chunks and different L1 sets.
            Geometry::Table2 => LineAddr(PM_BASE / 64 + (i % 3) * 112 + (i / 3) * 8192),
        }
    }
}

fn apply(h: &mut CacheHierarchy, g: Geometry, op: &Op) {
    match *op {
        Op::Load { core, line } => {
            access(h, core as usize, g.line(line), AccessKind::Load);
        }
        Op::Store { core, line, value } => {
            let l = g.line(line);
            access(h, core as usize, l, AccessKind::Store);
            let st = h.line_mut(l).expect("filled");
            st.data = [value; 64];
            st.dirty = true;
        }
        Op::Lock { line } => {
            if let Some(st) = h.line_mut(g.line(line)) {
                st.lock_bit = !st.lock_bit;
            }
        }
        Op::Writeback { line } => {
            h.writeback_copy(g.line(line));
        }
    }
}

fn access(h: &mut CacheHierarchy, core: usize, line: LineAddr, kind: AccessKind) {
    let fill = (h.peek_level(core, line) == HitLevel::Memory)
        .then_some(([line.0 as u8; 64], line.0.is_multiple_of(2)));
    h.access(core, line, kind, fill, 100);
}

fn replay(g: Geometry, ops: &[&Op]) -> CacheHierarchy {
    let mut h = CacheHierarchy::new(&g.config());
    for op in ops {
        apply(&mut h, g, op);
    }
    h
}

/// Compares everything observable: the hit level of every core for every
/// line, line states, occupancy, eviction counters and inclusivity.
fn same(a: &CacheHierarchy, b: &CacheHierarchy, g: Geometry) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "cached line count");
    prop_assert_eq!(a.eviction_counts(), b.eviction_counts(), "eviction counts");
    prop_assert!(a.check_inclusive(), "left side not inclusive");
    prop_assert!(b.check_inclusive(), "right side not inclusive");
    for i in 0..LINES {
        let l = g.line(i);
        prop_assert_eq!(a.line(l), b.line(l), "state of line {}", i);
        for core in 0..a.cores() {
            prop_assert_eq!(
                a.probe(core, l).level,
                b.probe(core, l).level,
                "core {} line {}",
                core,
                i
            );
        }
    }
    Ok(())
}

fn check(g: Geometry, prefix: &[Op], suffix1: &[Op], suffix2: &[Op]) -> Result<(), TestCaseError> {
    let mut live = CacheHierarchy::new(&g.config());
    for op in prefix {
        apply(&mut live, g, op);
    }
    let snap = live.clone();
    for op in suffix1 {
        apply(&mut live, g, op);
    }
    live.invalidate_all();
    let want_prefix = replay(g, &prefix.iter().collect::<Vec<_>>());
    same(&snap, &want_prefix, g)?;

    live.clone_from(&snap);
    for op in suffix2 {
        apply(&mut live, g, op);
    }
    let want = replay(g, &prefix.iter().chain(suffix2).collect::<Vec<_>>());
    same(&live, &want, g)?;
    same(&snap, &want_prefix, g)?;

    // Restoring *from* a written hierarchy shares its chunks too: the
    // copy must not see the source's later writes.
    let mut copy = CacheHierarchy::new(&g.config());
    copy.clone_from(&live);
    for op in suffix1 {
        apply(&mut live, g, op);
    }
    same(&copy, &want, g)?;

    // A restore with no crash before it: `live` holds chunks of its own,
    // and every one that differs from the snapshot's must be re-pointed.
    live.clone_from(&snap);
    for op in suffix2 {
        apply(&mut live, g, op);
    }
    same(&live, &want, g)?;
    same(&snap, &want_prefix, g)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn snapshots_are_isolated_tiny(
        prefix in proptest::collection::vec(op_strategy(), 0..120),
        suffix1 in proptest::collection::vec(op_strategy(), 0..80),
        suffix2 in proptest::collection::vec(op_strategy(), 0..80),
    ) {
        check(Geometry::Tiny, &prefix, &suffix1, &suffix2)?;
    }

    #[test]
    fn snapshots_are_isolated_table2_idle_cores(
        prefix in proptest::collection::vec(op_strategy(), 0..120),
        suffix1 in proptest::collection::vec(op_strategy(), 0..80),
        suffix2 in proptest::collection::vec(op_strategy(), 0..80),
    ) {
        check(Geometry::Table2, &prefix, &suffix1, &suffix2)?;
    }
}
