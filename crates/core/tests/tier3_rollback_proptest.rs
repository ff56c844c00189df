//! Property tests: manager kills at arbitrary points of the three-tier
//! demotion cascade (DRAM -> NVM -> SSD, promotions back the other way)
//! never lose a page or leak a frame. Each case arms the NVM watermark
//! so background NVM -> SSD demotion runs alongside DRAM -> NVM
//! demotion and fault-driven SSD promotions, then kills the manager at
//! sampled instants — landing before prepare, between prepare and
//! commit, or after commit of in-flight journal transactions. Recovery
//! must roll prepared entries back, keep committed ones, and leave the
//! machine audit-clean.

use proptest::prelude::*;

use hemem_core::hemem::{HeMem, HeMemConfig};
use hemem_core::machine::MachineConfig;
use hemem_core::runtime::{Event, Sim};
use hemem_core::AccessBatch;
use hemem_sim::Ns;
use hemem_vmm::{RegionId, Tier};

const GIB: u64 = 1 << 30;
// 1.5x the byte-addressable capacity of the small(1, 2) machine: the
// populate phase alone forces a spill cascade onto the SSD.
const REGION_BYTES: u64 = 4 * GIB + GIB / 2;
const REGION_PAGES: u64 = REGION_BYTES / (2 << 20);

fn build(seed: u64, kills: &[Ns]) -> (Sim<HeMem>, RegionId) {
    let mut mc = MachineConfig::small(1, 2).with_tier3(8 * GIB);
    mc.seed = seed;
    mc.chaos.seed = seed.wrapping_mul(0x9E37_79B9).max(1);
    mc.chaos.manager_kill_at = kills.to_vec();
    let mut hc = HeMemConfig::scaled_for(&mc);
    // Arm the NVM watermark so the background policy demotes NVM -> SSD
    // (the second hop) instead of leaving all spill to direct reclaim.
    hc.nvm_watermark = mc.nvm.capacity / 16;
    let mut sim = Sim::new(mc, HeMem::new(hc));
    let region = sim.mmap(REGION_BYTES);
    sim.populate(region, true);
    (sim, region)
}

/// One access batch to completion plus a short drain, so migrations are
/// in flight when a scheduled kill lands mid-window.
fn churn(sim: &mut Sim<HeMem>, region: RegionId, lo: u64, write_frac: f64) {
    let hi = (lo + 256).min(REGION_PAGES);
    let batch = AccessBatch::uniform(region, lo, hi, 150_000, 8, write_frac, REGION_BYTES);
    sim.submit_batch(0, &batch);
    loop {
        match sim.step() {
            Some((_, Event::ThreadReady(_))) | None => break,
            Some(_) => {}
        }
    }
    sim.advance(Ns::millis(50));
}

/// Conservation across all three tiers: no page lost, no frame leaked,
/// every pool's occupancy balanced, and the runtime auditor clean.
fn check_three_tier(sim: &mut Sim<HeMem>, region: RegionId) -> Result<(), TestCaseError> {
    for (name, tier) in [("dram", Tier::Dram), ("nvm", Tier::Nvm), ("ssd", Tier::Ssd)] {
        let pool = sim.m.pool(tier);
        prop_assert_eq!(
            pool.total_pages(),
            pool.free_pages() + pool.allocated_pages() + pool.retired_pages(),
            "{} pool occupancy out of balance",
            name
        );
    }
    let r = sim.m.space.region(region);
    prop_assert_eq!(
        r.mapped_pages(),
        REGION_PAGES,
        "pages lost across the cascade"
    );
    // A started (journaled) migration ends exactly one of three ways:
    // commit (done), media-error abort (failed), or kill-recovery
    // rollback. `migrations_aborted` counts prepare-time rejections that
    // never entered the journal, so it stays out of this ledger.
    let s = &sim.m.stats;
    let finished = s.migrations_done + s.migrations_failed + sim.m.recovery.journal_rollbacks;
    prop_assert!(finished <= s.migrations_started, "migration ledger broken");
    let in_flight = s.migrations_started - finished;
    let allocated = sim.m.pool(Tier::Dram).allocated_pages()
        + sim.m.pool(Tier::Nvm).allocated_pages()
        + sim.m.pool(Tier::Ssd).allocated_pages();
    prop_assert_eq!(
        allocated,
        sim.m.space.region(region).mapped_pages() + in_flight,
        "frame leak after rollback"
    );
    let violations = sim.run_audit(false);
    prop_assert!(violations.is_empty(), "audit violations: {violations:?}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A manager kill at any instant of the three-tier run — mid
    /// DRAM->NVM demotion, mid NVM->SSD demotion, mid SSD promotion, or
    /// between any prepare/commit pair — recovers to a consistent,
    /// audit-clean machine with every page still reachable.
    #[test]
    fn rollback_is_clean_at_every_kill_point(
        seed in 1u64..1_000_000,
        kill_ms in prop::collection::vec(1u64..900, 1..4),
        offsets in prop::collection::vec((0u64..REGION_PAGES - 256, 0.0f64..1.0), 4..7),
    ) {
        let kills: Vec<Ns> = kill_ms.iter().map(|&ms| Ns::millis(ms)).collect();
        let (mut sim, region) = build(seed, &kills);
        for &(lo, wf) in &offsets {
            churn(&mut sim, region, lo, wf);
        }
        // Run past the last scheduled kill, then let recovery and any
        // restarted background work fully drain.
        sim.advance(Ns::millis(1000));
        sim.advance(Ns::secs(1));
        prop_assert_eq!(
            sim.m.recovery.manager_kills as usize,
            kills.len(),
            "every scheduled kill fires"
        );
        prop_assert!(
            sim.m.recovery.watchdog_restarts >= sim.m.recovery.manager_kills,
            "watchdog restarted the manager after each kill"
        );
        check_three_tier(&mut sim, region)?;
    }

    /// The same kill schedule replayed from the same seed reproduces the
    /// same recovery counters and pool state, three tiers included.
    #[test]
    fn killed_three_tier_run_replays_identically(
        seed in 1u64..1_000_000,
        kill_ms in 1u64..400,
    ) {
        let run = || {
            let (mut sim, region) = build(seed, &[Ns::millis(kill_ms)]);
            for lo in [0u64, REGION_PAGES / 2, REGION_PAGES - 300] {
                churn(&mut sim, region, lo, 0.5);
            }
            sim.advance(Ns::secs(1));
            format!(
                "{:?}|{:?}|{}/{}/{}",
                sim.m.stats,
                sim.m.recovery,
                sim.m.pool(Tier::Dram).free_pages(),
                sim.m.pool(Tier::Nvm).free_pages(),
                sim.m.pool(Tier::Ssd).free_pages(),
            )
        };
        prop_assert_eq!(run(), run(), "killed 3-tier run is not reproducible");
    }
}
