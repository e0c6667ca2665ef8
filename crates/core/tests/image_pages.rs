//! A machine allocates the image pages it writes, and no others.
//!
//! The crash-dump area and every per-thread log buffer are persistent
//! from construction (§4.4, §4.6). Marking them persistent inserts one
//! page range into the image; a page itself comes into being only when
//! something writes it.

use asap_core::hw::DUMP_BYTES;
use asap_core::{Machine, MachineConfig, SchemeKind};
use asap_pmem::{PmAddr, PAGE_BYTES};

#[test]
fn table2_machine_allocates_only_what_it_writes() {
    // One `fig7_cold` cell's machine: Table 2, four threads, 4 MB logs.
    let mut m = Machine::new(MachineConfig::new(SchemeKind::Asap, 4));
    let hw = m.hw();
    let layout = hw.layout;
    assert_eq!(hw.image.touched_pages(), 0, "construction writes no page");

    let persistent = |base: u64, len: u64| {
        (base..base + len)
            .step_by(PAGE_BYTES as usize)
            .chain([base + len - 1])
            .all(|a| hw.image.is_persistent(PmAddr(a)))
    };
    assert!(persistent(layout.dump_base().0, DUMP_BYTES), "dump area");
    for t in 0..4 {
        assert!(
            persistent(layout.log_base(t).0, layout.log_bytes),
            "log buffer {t}"
        );
    }
    assert!(!hw.image.is_persistent(PmAddr(layout.dump_base().0 - 1)));
    // The heap is marked by `pm_alloc`, not by construction.
    assert!(!hw.image.is_persistent(layout.heap_base()));
    let heap_end = layout.heap_base().0 + layout.heap_bytes;
    assert!(!hw.image.is_persistent(PmAddr(heap_end)));
    assert_eq!(hw.image.touched_pages(), 0, "queries allocate nothing");

    // Writing into a marked, never-written page allocates exactly it.
    let target = layout.log_base(2).offset(3 * PAGE_BYTES + 64);
    m.hw_mut().image.write_u64(target, 7);
    let image = &m.hw().image;
    assert_eq!(image.touched_pages(), 1);
    assert!(image.is_persistent(target));
    assert_eq!(image.read_u64(target), 7);
    assert_eq!(image.read_u64(target.offset(8)), 0);

    // An allocation climbs from the heap base: marked, still unwritten.
    let a = m.pm_alloc(3 * PAGE_BYTES).unwrap();
    assert!(m.hw().image.is_persistent(a.offset(3 * PAGE_BYTES - 1)));
    assert_eq!(m.hw().image.touched_pages(), 1);
}
