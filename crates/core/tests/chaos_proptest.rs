//! Property tests: HeMem under randomized fault plans keeps the
//! machine's accounting honest. Whatever mix of DMA failures, channel
//! losses, NVM media errors, PEBS storms, and fault-thread stalls is
//! injected, pages are never lost or double mapped, pool occupancy
//! always balances (total = free + allocated + retired), the migration
//! ledger reconciles, and the same plan replayed from the same seed
//! produces identical stats.

use proptest::prelude::*;

use hemem_core::hemem::{HeMem, HeMemConfig};
use hemem_core::machine::MachineConfig;
use hemem_core::runtime::{Event, Sim};
use hemem_core::AccessBatch;
use hemem_sim::{FaultPlanConfig, Ns};
use hemem_vmm::{RegionId, Tier};

const GIB: u64 = 1 << 30;
const REGION_PAGES: u64 = 1024; // 2 GiB of 2 MiB pages

fn chaos_strategy() -> impl Strategy<Value = FaultPlanConfig> {
    (
        1u64..1_000_000,
        0.0f64..0.6,  // DMA submission failure rate
        0.0f64..0.3,  // DMA channel loss rate
        0.0f64..0.05, // NVM media error base rate
        0.0f64..0.01, // media error wear scaling
        0.0f64..0.6,  // PEBS storm rate
    )
        .prop_map(|(seed, dma, chan, media, wear, storm)| {
            let mut c = FaultPlanConfig::none();
            c.seed = seed;
            c.dma_submit_fail = dma;
            c.dma_channel_loss = chan;
            c.nvm_media_error = media;
            c.nvm_media_wear_scale = wear;
            c.pebs_storm = storm;
            c.fault_thread_stall = chan / 2.0;
            c
        })
}

fn build(chaos: FaultPlanConfig) -> (Sim<HeMem>, RegionId) {
    let mut mc = MachineConfig::small(1, 4);
    mc.chaos = chaos;
    let hc = HeMemConfig::scaled_for(&mc);
    let mut sim = Sim::new(mc, HeMem::new(hc));
    let region = sim.mmap(2 * GIB);
    sim.populate(region, true);
    (sim, region)
}

/// Runs one access batch to completion, then lets background work drain.
fn churn(sim: &mut Sim<HeMem>, region: RegionId, lo: u64, write_frac: f64) {
    let hi = (lo + 256).min(REGION_PAGES);
    let batch = AccessBatch::uniform(region, lo, hi, 150_000, 8, write_frac, GIB);
    sim.submit_batch(0, &batch);
    loop {
        match sim.step() {
            Some((_, Event::ThreadReady(_))) | None => break,
            Some(_) => {}
        }
    }
    sim.advance(Ns::millis(50));
}

/// Every accounting invariant the fault plan must not be able to break.
fn check_accounting(sim: &Sim<HeMem>, region: RegionId) -> Result<(), TestCaseError> {
    // Pool occupancy balances, retirement included.
    for (name, pool) in [
        ("dram", sim.m.pool(Tier::Dram)),
        ("nvm", sim.m.pool(Tier::Nvm)),
    ] {
        prop_assert_eq!(
            pool.total_pages(),
            pool.free_pages() + pool.allocated_pages() + pool.retired_pages(),
            "{} pool occupancy out of balance",
            name
        );
    }
    // Migration ledger reconciles; in-flight count never goes negative.
    let s = &sim.m.stats;
    let finished = s.migrations_done + s.migrations_failed + s.migrations_aborted;
    prop_assert!(
        finished <= s.migrations_started,
        "more migrations finished ({finished}) than started ({})",
        s.migrations_started
    );
    let in_flight = s.migrations_started - finished;
    // Every region page stays mapped — failed migrations must restore
    // the page, never lose it.
    let r = sim.m.space.region(region);
    prop_assert_eq!(
        r.mapped_pages(),
        REGION_PAGES,
        "pages lost: {} mapped",
        r.mapped_pages()
    );
    // Frames in use = mapped pages + destination frames of in-flight
    // migrations. More would be a leak, fewer a double mapping.
    let allocated =
        sim.m.pool(Tier::Dram).allocated_pages() + sim.m.pool(Tier::Nvm).allocated_pages();
    prop_assert_eq!(
        allocated,
        r.mapped_pages() + in_flight,
        "frame leak: {} allocated vs {} mapped + {} in flight",
        allocated,
        r.mapped_pages(),
        in_flight
    );
    Ok(())
}

fn stats_fingerprint(sim: &Sim<HeMem>) -> String {
    format!(
        "{:?}|{:?}|{:?}|{}/{}",
        sim.m.stats,
        sim.m.chaos.stats(),
        sim.m.dma.stats(),
        sim.m.pool(Tier::Nvm).free_pages(),
        sim.m.pool(Tier::Nvm).retired_pages(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn accounting_survives_random_fault_plans(
        chaos in chaos_strategy(),
        offsets in prop::collection::vec((0u64..768, 0.0f64..1.0), 3..8),
    ) {
        let (mut sim, region) = build(chaos);
        check_accounting(&sim, region)?;
        for (lo, wf) in offsets {
            churn(&mut sim, region, lo, wf);
            check_accounting(&sim, region)?;
        }
        // Quiesce: no new traffic, let in-flight migrations land, then
        // re-check the ledger one last time.
        sim.advance(Ns::secs(1));
        check_accounting(&sim, region)?;
    }

    #[test]
    fn same_fault_plan_same_stats(chaos in chaos_strategy()) {
        let run = || {
            let (mut sim, region) = build(chaos.clone());
            for lo in [0u64, 512, 256, 700] {
                churn(&mut sim, region, lo, 0.5);
            }
            stats_fingerprint(&sim)
        };
        prop_assert_eq!(run(), run(), "chaos run is not reproducible");
    }
}
