//! Property tests: manager and tenant kills landing around a scheduled
//! tier failure never corrupt the online evacuation. Each case arms an
//! NVM offline event on a loaded three-tier machine, then drops a
//! manager kill (watchdog restarts it) or a tenant kill (quarantine and
//! drain) into the evacuation window — before the failure, mid-drain,
//! or after. Recovery must roll prepared journal entries back in
//! transaction order, the offline tier must end with zero allocated
//! frames, no page may be lost or frame leaked, and the failure-domain
//! audit (`FramesOnOfflineTier` / `EvacuationLeak` included) must stay
//! silent. Replays from the same seed must be identical.

use proptest::prelude::*;

use hemem_core::hemem::{HeMem, HeMemConfig};
use hemem_core::machine::{MachineConfig, TierHealth};
use hemem_core::runtime::{Event, Sim};
use hemem_core::AccessBatch;
use hemem_sim::{Ns, TenantKill, TierFault};
use hemem_vmm::{RegionId, Tier};

const GIB: u64 = 1 << 30;
// 1.5x the byte-addressable capacity of the small(1, 2) machine, so the
// NVM tier is loaded when it dies; the 8 GiB SSD can absorb the whole
// region, keeping the N-1 machine viable.
const REGION_BYTES: u64 = 4 * GIB + GIB / 2;
const REGION_PAGES: u64 = REGION_BYTES / (2 << 20);
// Populate paces the zero-fill backlog through sim time (~1.7s on this
// machine); failure and kill schedules are anchored past it so they
// land on a warmed-up machine, not mid-populate.
const WARM_MS: u64 = 2_000;

/// Which kill lands in the evacuation window.
enum Kill {
    Manager(Ns),
    Tenant(Ns),
}

fn build(seed: u64, fail_at: Ns, kill: Kill) -> (Sim<HeMem>, RegionId) {
    let mut mc = MachineConfig::small(1, 2).with_tier3(8 * GIB);
    mc.seed = seed;
    mc.chaos.seed = seed.wrapping_mul(0x9E37_79B9).max(1);
    mc.chaos.tier_fail_at = vec![TierFault {
        tier: 1,
        at: fail_at,
    }];
    match kill {
        Kill::Manager(at) => mc.chaos.manager_kill_at = vec![at],
        Kill::Tenant(at) => {
            mc.chaos.tenant_kill_at = vec![TenantKill { tenant: 0, at }];
        }
    }
    let mut hc = HeMemConfig::scaled_for(&mc);
    // Arm the NVM watermark so background NVM -> SSD demotion runs
    // alongside the evacuation traffic.
    hc.nvm_watermark = mc.nvm.capacity / 16;
    let mut sim = Sim::new(mc, HeMem::new(hc));
    let region = sim.mmap(REGION_BYTES);
    sim.populate(region, true);
    let warm = Ns::millis(WARM_MS);
    assert!(sim.now() < warm, "populate overran the warm-up window");
    sim.run_until(warm);
    (sim, region)
}

/// One access batch to completion plus a short drain, so migrations and
/// evacuation traffic are in flight when the scheduled events land. A
/// tenant kill can unmap the region between batches; churn is a no-op
/// once it is gone.
fn churn(sim: &mut Sim<HeMem>, region: RegionId, lo: u64, write_frac: f64) {
    if !sim.m.space.regions().any(|r| r.id() == region) {
        return;
    }
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

/// Invariants every kill-during-evacuation case must restore: balanced
/// pools, zero frames on the offline tier, the migration ledger closed
/// out (commit, abort, or rollback — in transaction order, which the
/// journal-quiescence audit would flag if violated), and a silent audit.
fn check_drained(sim: &mut Sim<HeMem>, pages_expected: Option<u64>) -> Result<(), TestCaseError> {
    prop_assert_eq!(sim.m.tier_health(Tier::Nvm), TierHealth::Offline);
    for (name, tier) in [("dram", Tier::Dram), ("nvm", Tier::Nvm), ("ssd", Tier::Ssd)] {
        let pool = sim.m.pool(tier);
        prop_assert_eq!(
            pool.total_pages(),
            pool.free_pages() + pool.allocated_pages() + pool.retired_pages(),
            "{} pool occupancy out of balance",
            name
        );
    }
    prop_assert_eq!(
        sim.m.nvm_pool.allocated_pages(),
        0,
        "offline tier still holds frames after evacuation + recovery"
    );
    let s = &sim.m.stats;
    let finished = s.migrations_done + s.migrations_failed + sim.m.recovery.journal_rollbacks;
    prop_assert!(finished <= s.migrations_started, "migration ledger broken");
    let in_flight = s.migrations_started - finished;
    let allocated = sim.m.dram_pool.allocated_pages()
        + sim.m.nvm_pool.allocated_pages()
        + sim.m.ssd_pool.allocated_pages();
    if let Some(expected) = pages_expected {
        let r = sim.m.space.regions().next().expect("region still live");
        prop_assert_eq!(
            r.mapped_pages() + sim.m.health.poisoned_pages,
            expected,
            "pages lost beyond the typed poison ledger"
        );
        prop_assert_eq!(allocated, r.mapped_pages() + in_flight, "frame leak");
    } else {
        // Sole tenant drained: every frame in every tier must be back.
        prop_assert_eq!(allocated, in_flight, "frames leaked past the drain");
    }
    let violations = sim.run_audit(false);
    prop_assert!(violations.is_empty(), "audit violations: {violations:?}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A manager kill before, during, or after the NVM tier failure:
    /// the watchdog restarts the manager, recovery rolls prepared
    /// entries back in transaction order, and the evacuation still
    /// drains the offline tier to zero frames with a silent audit.
    #[test]
    fn manager_kill_mid_evacuation_recovers(
        seed in 1u64..1_000_000,
        fail_ms in 100u64..1200,
        kill_delta_ms in 0u64..400,
        offsets in prop::collection::vec((0u64..REGION_PAGES - 256, 0.0f64..1.0), 3..6),
    ) {
        // The kill lands in [fail - 100ms, fail + 300ms): before the
        // failure (in-flight policy migrations roll back), mid-drain,
        // or just after it.
        let kill_ms = WARM_MS + fail_ms - 100 + kill_delta_ms;
        let (mut sim, region) =
            build(seed, Ns::millis(WARM_MS + fail_ms),Kill::Manager(Ns::millis(kill_ms)));
        for &(lo, wf) in &offsets {
            churn(&mut sim, region, lo, wf);
        }
        // Run past the failure and the kill, then let the watchdog
        // restart, journal recovery, and the evacuation fully drain.
        sim.advance(Ns::secs(2));
        sim.advance(Ns::secs(1));
        prop_assert_eq!(sim.m.recovery.manager_kills, 1, "the kill fires");
        prop_assert!(
            sim.m.recovery.watchdog_restarts >= 1,
            "watchdog restarted the manager"
        );
        check_drained(&mut sim, Some(REGION_PAGES))?;
    }

    /// A tenant kill racing the evacuation: the drain rolls the
    /// tenant's prepared entries back in transaction order, purges its
    /// pages from the evacuation queue, and returns every frame on
    /// every tier — the offline tier ends empty even though its
    /// evacuation never ran to completion.
    #[test]
    fn tenant_kill_mid_evacuation_drains_clean(
        seed in 1u64..1_000_000,
        fail_ms in 100u64..1200,
        kill_delta_ms in 0u64..400,
        offsets in prop::collection::vec((0u64..REGION_PAGES - 256, 0.0f64..1.0), 3..6),
    ) {
        let kill_ms = WARM_MS + fail_ms - 100 + kill_delta_ms;
        let (mut sim, region) =
            build(seed, Ns::millis(WARM_MS + fail_ms),Kill::Tenant(Ns::millis(kill_ms)));
        for &(lo, wf) in &offsets {
            churn(&mut sim, region, lo, wf);
        }
        sim.advance(Ns::secs(2));
        sim.advance(Ns::secs(1));
        prop_assert_eq!(sim.m.recovery.tenant_kills, 1, "the kill fires");
        prop_assert_eq!(sim.m.recovery.tenant_drains, 1, "the drain completes");
        check_drained(&mut sim, None)?;
    }

    /// The same failure-plus-kill schedule replayed from the same seed
    /// reproduces identical recovery counters, health lifecycle
    /// counters, and pool state.
    #[test]
    fn killed_evacuation_replays_identically(
        seed in 1u64..1_000_000,
        fail_ms in 100u64..800,
        kill_delta_ms in 0u64..200,
        manager in any::<bool>(),
    ) {
        let kill_ms = WARM_MS + fail_ms - 100 + kill_delta_ms;
        let run = || {
            let kill = if manager {
                Kill::Manager(Ns::millis(kill_ms))
            } else {
                Kill::Tenant(Ns::millis(kill_ms))
            };
            let (mut sim, region) = build(seed, Ns::millis(WARM_MS + fail_ms),kill);
            if manager {
                for lo in [0u64, REGION_PAGES / 2, REGION_PAGES - 300] {
                    churn(&mut sim, region, lo, 0.5);
                }
            }
            sim.advance(Ns::secs(2));
            format!(
                "{:?}|{:?}|{:?}|{}/{}/{}",
                sim.m.stats,
                sim.m.recovery,
                sim.m.health,
                sim.m.dram_pool.free_pages(),
                sim.m.nvm_pool.free_pages(),
                sim.m.ssd_pool.free_pages(),
            )
        };
        prop_assert_eq!(run(), run(), "killed evacuation run is not reproducible");
    }
}
