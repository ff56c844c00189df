//! Property-based invariant tests across the whole stack: page
//! accounting, list membership, device byte conservation, and placement
//! invariants hold under randomized workloads and policy churn.

use proptest::prelude::*;

use hemem_repro::baselines::{AnyBackend, BackendKind};
use hemem_repro::core::backend::AccessBatch;
use hemem_repro::core::machine::MachineConfig;
use hemem_repro::core::runtime::{Event, Sim};
use hemem_repro::sim::Ns;
use hemem_repro::vmm::{PageState, Tier};

const GIB: u64 = 1 << 30;

fn build(kind: BackendKind, seed: u64) -> Sim<AnyBackend> {
    let mut mc = MachineConfig::small(2, 8);
    mc.seed = seed;
    let backend = kind.build(&mc);
    Sim::new(mc, backend)
}

/// Checks global conservation: every mapped page's physical frame is
/// accounted in exactly one pool's allocated count, and pools never leak.
fn check_accounting(sim: &Sim<AnyBackend>) {
    let mut dram_mapped = 0u64;
    let mut nvm_mapped = 0u64;
    for region in sim.m.space.regions() {
        if region.kind() != hemem_repro::vmm::RegionKind::ManagedHeap {
            continue;
        }
        for i in 0..region.page_count() {
            match region.state(i) {
                PageState::Mapped {
                    tier: hemem_repro::vmm::Tier::Dram,
                    ..
                } => dram_mapped += 1,
                PageState::Mapped {
                    tier: hemem_repro::vmm::Tier::Nvm,
                    ..
                } => nvm_mapped += 1,
                PageState::Mapped {
                    tier: hemem_repro::vmm::Tier::Ssd,
                    ..
                } => {}
                PageState::Unmapped => {}
            }
        }
    }
    // In-flight migrations hold a destination frame in addition to the
    // mapped source frame.
    let in_flight = sim.m.stats.migrations_started - sim.m.stats.migrations_done;
    let dram_alloc = sim.m.pool(Tier::Dram).allocated_pages();
    let nvm_alloc = sim.m.pool(Tier::Nvm).allocated_pages();
    assert!(
        dram_alloc + nvm_alloc <= dram_mapped + nvm_mapped + 2 * in_flight,
        "allocated {dram_alloc}+{nvm_alloc} vs mapped {dram_mapped}+{nvm_mapped} (+{in_flight} in flight)"
    );
    assert!(
        dram_alloc >= dram_mapped.min(sim.m.pool(Tier::Dram).total_pages()),
        "DRAM pool lost frames: alloc {dram_alloc} < mapped {dram_mapped}"
    );
    // Fenwick residency indices agree with the raw page states.
    for region in sim.m.space.regions() {
        let mut dram = 0;
        let mut mapped = 0;
        for i in 0..region.page_count() {
            if let PageState::Mapped { tier, .. } = region.state(i) {
                mapped += 1;
                if tier == hemem_repro::vmm::Tier::Dram {
                    dram += 1;
                }
            }
        }
        assert_eq!(region.dram_pages(), dram, "dram index out of sync");
        assert_eq!(region.mapped_pages(), mapped, "mapped index out of sync");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn page_accounting_survives_random_churn(
        seed in 0u64..1000,
        region_gib in 1u64..6,
        write_frac in 0.0f64..1.0,
        rounds in 5usize..30,
    ) {
        let mut sim = build(BackendKind::HeMem, seed);
        let id = sim.mmap(region_gib * GIB);
        sim.populate(id, true);
        sim.set_app_threads(2);
        let pages = sim.m.space.region(id).page_count();
        for round in 0..rounds {
            // Alternate between a narrow hot slice and broad traffic.
            let (lo, hi) = if round % 2 == 0 {
                let lo = (round as u64 * 7) % pages.saturating_sub(8).max(1);
                (lo, (lo + 8).min(pages))
            } else {
                (0, pages)
            };
            let batch = AccessBatch::uniform(
                id, lo, hi, 100_000, 8, write_frac, region_gib * GIB,
            );
            sim.submit_batch(0, &batch);
            loop {
                match sim.step() {
                    Some((_, Event::ThreadReady(_))) | None => break,
                    Some(_) => {}
                }
            }
        }
        sim.advance(Ns::millis(500));
        check_accounting(&sim);
        prop_assert!(sim.m.stats.migrations_started >= sim.m.stats.migrations_done);
    }

    #[test]
    fn device_byte_counters_are_monotone_and_consistent(
        seed in 0u64..1000,
        count in 1_000u64..500_000,
        write_frac in 0.0f64..1.0,
    ) {
        let mut sim = build(BackendKind::MemoryMode, seed);
        let id = sim.mmap(2 * GIB);
        sim.populate(id, true);
        let pages = sim.m.space.region(id).page_count();
        let before_r = sim.m.nvm.stats().media_bytes_read;
        let before_w = sim.m.nvm.stats().media_bytes_written;
        let batch = AccessBatch::uniform(id, 0, pages, count, 64, write_frac, 2 * GIB);
        sim.submit_batch(0, &batch);
        loop {
            match sim.step() {
                Some((_, Event::ThreadReady(_))) | None => break,
                Some(_) => {}
            }
        }
        // Media traffic never shrinks and is at least app-visible traffic.
        let s = sim.m.nvm.stats();
        prop_assert!(s.media_bytes_read >= before_r);
        prop_assert!(s.media_bytes_written >= before_w);
        prop_assert!(s.media_bytes_read >= s.bytes_read);
        prop_assert!(s.media_bytes_written >= s.bytes_written);
    }

    #[test]
    fn munmap_returns_every_frame(
        seed in 0u64..1000,
        region_gib in 1u64..4,
    ) {
        let mut sim = build(BackendKind::HeMem, seed);
        let free_dram0 = sim.m.pool(Tier::Dram).free_pages();
        let free_nvm0 = sim.m.pool(Tier::Nvm).free_pages();
        let id = sim.mmap(region_gib * GIB);
        sim.populate(id, true);
        // Let any migrations drain before unmapping.
        sim.advance(Ns::secs(1));
        sim.munmap(id);
        prop_assert_eq!(sim.m.pool(Tier::Dram).free_pages(), free_dram0);
        prop_assert_eq!(sim.m.pool(Tier::Nvm).free_pages(), free_nvm0);
    }

    #[test]
    fn static_backends_never_migrate(
        seed in 0u64..1000,
        kind_idx in 0usize..3,
    ) {
        let kind = [BackendKind::XMem, BackendKind::DramOnly, BackendKind::NvmOnly][kind_idx];
        let mut sim = build(kind, seed);
        let id = sim.mmap(2 * GIB);
        sim.populate(id, true);
        let pages = sim.m.space.region(id).page_count();
        let batch = AccessBatch::uniform(id, 0, pages, 200_000, 8, 0.5, 2 * GIB);
        sim.submit_batch(0, &batch);
        loop {
            match sim.step() {
                Some((_, Event::ThreadReady(_))) | None => break,
                Some(_) => {}
            }
        }
        sim.advance(Ns::secs(1));
        prop_assert_eq!(sim.m.stats.migrations_started, 0);
    }
}
