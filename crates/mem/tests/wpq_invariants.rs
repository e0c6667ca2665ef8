//! Conservation invariants of the memory system under random traffic.
//!
//! Every submitted persist op has exactly one fate: written to the PM
//! media, dropped by an optimization, flushed at a crash (ADR), or lost
//! because it never reached the persistence domain (arrival still pending
//! at power failure). Randomized schedules of submissions, advances and
//! drops must never create or destroy writes.

use asap_mem::{MemEvent, MemSystem, PersistKind, PersistOp, Rid};
use asap_pmem::{LineAddr, MemoryImage, PM_BASE};
use asap_sim::{Counter, Cycle, SystemConfig};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Action {
    /// Submit an op of the given kind to one of 8 PM lines.
    Submit { kind: u8, line: u64, rid_local: u64 },
    /// Advance virtual time by this many cycles.
    Advance(u64),
    /// Drop a region's log writes (the §5.1 LPO-dropping hook).
    DropLogs { rid_local: u64 },
    /// Drop a pending DPO for a line (the §5.1 DPO-dropping hook).
    DropDpo { line: u64, rid_local: u64 },
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u8..3, 0u64..8, 0u64..4).prop_map(|(kind, line, rid_local)| Action::Submit {
            kind,
            line,
            rid_local
        }),
        (1u64..4000).prop_map(Action::Advance),
        (0u64..4).prop_map(|rid_local| Action::DropLogs { rid_local }),
        (0u64..8, 0u64..4).prop_map(|(line, rid_local)| Action::DropDpo { line, rid_local }),
    ]
}

fn pm_line(i: u64) -> LineAddr {
    LineAddr(PM_BASE / 64 + i)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn submitted_ops_are_conserved(
        actions in proptest::collection::vec(action_strategy(), 1..120),
        residency in prop_oneof![Just(0u64), Just(300), Just(5_000)],
        crash in any::<bool>(),
    ) {
        let mut cfg = SystemConfig::small();
        cfg.mem.wpq_entries = 4; // small queues: plenty of backpressure
        cfg.mem.wpq_residency = residency;
        cfg.mem.wpq_drain_watermark = 2;
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        let mut now = Cycle(0);
        let mut submitted = 0u64;
        let mut accepted = 0u64;
        for a in &actions {
            match a {
                Action::Submit { kind, line, rid_local } => {
                    let kind = match kind {
                        0 => PersistKind::Lpo,
                        1 => PersistKind::Dpo,
                        _ => PersistKind::WriteBack,
                    };
                    let op = PersistOp::new(
                        kind,
                        pm_line(*line),
                        [*line as u8; 64],
                        Some(Rid::new(0, *rid_local)),
                    );
                    mem.submit(op, now);
                    submitted += 1;
                }
                Action::Advance(d) => {
                    now += *d;
                    mem.advance_to(now, &mut image);
                }
                Action::DropLogs { rid_local } => {
                    mem.drop_log_writes_of(Rid::new(0, *rid_local));
                }
                Action::DropDpo { line, rid_local } => {
                    mem.drop_pending_dpo(pm_line(*line), Rid::new(0, *rid_local));
                }
            }
            while let Some(ev) = mem.pop_event() {
                if matches!(ev, MemEvent::Accepted { .. }) {
                    accepted += 1;
                }
            }
        }
        let (written, flushed, lost) = if crash {
            mem.flush_to_image(&mut image);
            (
                mem.stats().get(Counter::PmWriteTotal),
                mem.stats().get(Counter::CrashFlushed),
                mem.stats().get(Counter::CrashLostUnaccepted),
            )
        } else {
            // Drain everything.
            while let Some(t) = mem.next_event_time() {
                mem.advance_to(t, &mut image);
            }
            while let Some(ev) = mem.pop_event() {
                if matches!(ev, MemEvent::Accepted { .. }) {
                    accepted += 1;
                }
            }
            prop_assert!(mem.is_idle());
            (mem.stats().get(Counter::PmWriteTotal), 0, 0)
        };
        let dropped = mem.stats().get(Counter::PmDropLpo) + mem.stats().get(Counter::PmDropDpo);
        // Conservation: every submission is written, dropped, flushed or
        // (crash only) lost before acceptance.
        prop_assert_eq!(
            written + dropped + flushed + lost,
            submitted,
            "written {} + dropped {} + flushed {} + lost {} != submitted {}",
            written, dropped, flushed, lost, submitted
        );
        if !crash {
            // Without a crash, every submission must have been accepted.
            prop_assert_eq!(accepted, submitted);
            prop_assert_eq!(lost, 0u64);
        }
    }

    #[test]
    fn forwarding_always_returns_newest_write(
        values in proptest::collection::vec(1u8..=255, 1..20),
        advance_between in 0u64..200,
    ) {
        let mut cfg = SystemConfig::small();
        cfg.mem.wpq_entries = 2;
        cfg.mem.wpq_residency = 10_000; // hold writes so forwarding matters
        let mut mem = MemSystem::new(&cfg);
        let mut image = MemoryImage::new();
        let mut now = Cycle(0);
        let line = pm_line(0);
        for v in &values {
            let op = PersistOp::new(PersistKind::Dpo, line, [*v; 64], None);
            mem.submit(op, now);
            now += advance_between;
            mem.advance_to(now, &mut image);
            while mem.pop_event().is_some() {}
        }
        // Regardless of what drained, a read must see the last value.
        mem.advance_to(now + 80, &mut image);
        while mem.pop_event().is_some() {}
        let (data, _) = mem.read_for_fill(line, &image);
        prop_assert_eq!(data[0], *values.last().unwrap());
    }
}
