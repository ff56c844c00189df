//! Property tests: manager and tenant kills landing at arbitrary points
//! of the shadow lifecycle (intent journaled, shadow clean, dirtied,
//! remap-demoted, reclaimed, re-promoted) never corrupt non-exclusive
//! tiering. Each case oversubscribes DRAM so promotion/demotion churn
//! creates and consumes NVM shadows, then drops a seeded manager kill
//! (watchdog restart + journal recovery + shadow reconcile) or tenant
//! kill (quarantine and drain) into the churn window. Afterwards the
//! pools must balance with shadow frames accounted, no page may have two
//! outstanding journal entries, every surviving shadow must back a
//! DRAM-resident primary, and the audit — `StaleShadowMapped`,
//! `ShadowFrameLeak`, `DoubleJournaledPage` included — must stay silent.
//! Replays from the same seed must be byte-identical, shadow counters
//! included.

use proptest::prelude::*;

use hemem_core::hemem::{HeMem, HeMemConfig};
use hemem_core::machine::MachineConfig;
use hemem_core::runtime::{Event, Sim};
use hemem_core::AccessBatch;
use hemem_sim::{Ns, TenantKill};
use hemem_vmm::{RegionId, Tier};

const GIB: u64 = 1 << 30;
// 2.5x DRAM on the small(1, 2) machine: the working set spills into NVM,
// so the policy continually promotes hot pages (journaling shadow
// intents) and demotes cold ones (consuming clean shadows by remap).
const REGION_BYTES: u64 = 2 * GIB + GIB / 2;
const REGION_PAGES: u64 = REGION_BYTES / (2 << 20);
const WARM_MS: u64 = 2_000;

/// Which kill lands in the churn window.
enum Kill {
    Manager(Ns),
    Tenant(Ns),
    None,
}

fn build(seed: u64, kill: Kill) -> (Sim<HeMem>, RegionId) {
    let mut mc = MachineConfig::small(1, 2)
        .with_tier3(8 * GIB)
        .with_shadows();
    mc.seed = seed;
    mc.chaos.seed = seed.wrapping_mul(0x9E37_79B9).max(1);
    match kill {
        Kill::Manager(at) => mc.chaos.manager_kill_at = vec![at],
        Kill::Tenant(at) => {
            mc.chaos.tenant_kill_at = vec![TenantKill { tenant: 0, at }];
        }
        Kill::None => {}
    }
    let mut hc = HeMemConfig::scaled_for(&mc);
    // Arm the NVM watermark so the shadow-reclaim-first pass runs under
    // genuine NVM pressure alongside the promotion churn.
    hc.nvm_watermark = mc.nvm.capacity / 16;
    let mut sim = Sim::new(mc, HeMem::new(hc));
    let region = sim.mmap(REGION_BYTES);
    sim.populate(region, true);
    let warm = Ns::millis(WARM_MS);
    assert!(sim.now() < warm, "populate overran the warm-up window");
    sim.run_until(warm);
    (sim, region)
}

/// One access batch to completion plus a short drain. A tenant kill can
/// unmap the region between batches; churn is a no-op once it is gone.
/// Low write fractions leave promoted pages clean (shadows survive to be
/// remap-demoted); high ones dirty the WP window and invalidate shadows
/// through PEBS store samples.
fn churn(sim: &mut Sim<HeMem>, region: RegionId, lo: u64, write_frac: f64) {
    if !sim.m.space.regions().any(|r| r.id() == region) {
        return;
    }
    let hi = (lo + 64).min(REGION_PAGES);
    let batch = AccessBatch::uniform(region, lo, hi, 600_000, 8, write_frac, REGION_BYTES);
    sim.submit_batch(0, &batch);
    loop {
        match sim.step() {
            Some((_, Event::ThreadReady(_))) | None => break,
            Some(_) => {}
        }
    }
    sim.advance(Ns::millis(50));
}

/// A drifting hot set: each round hammers two narrow spans, then moves
/// on. Newly hot NVM pages promote (journaling retain intents and
/// minting shadows on commit); last round's pages cool, fall to the
/// demotion queue, and — when still clean — leave DRAM by shadow remap.
/// The drift keeps shadows being minted, dirtied, consumed, and
/// reclaimed for the whole window the kills land in.
fn drift(sim: &mut Sim<HeMem>, region: RegionId, base: u64, stride: u64, wfs: &[f64]) {
    let span = REGION_PAGES - 300;
    for (i, &wf) in wfs.iter().enumerate() {
        let lo = (base + i as u64 * stride) % span;
        churn(sim, region, lo, wf);
        churn(sim, region, (lo + 640) % span, wf);
    }
}

/// Invariants every shadowed run must restore: balanced pools, shadow
/// frames counted as allocated NVM capacity, the migration ledger
/// closed, frame conservation *including* shadow frames, and a silent
/// audit (which itself checks `StaleShadowMapped`, `ShadowFrameLeak`,
/// and `DoubleJournaledPage`).
fn check_shadows_reconciled(sim: &mut Sim<HeMem>, region_live: bool) -> Result<(), TestCaseError> {
    for (name, tier) in [
        ("dram", hemem_vmm::Tier::Dram),
        ("nvm", hemem_vmm::Tier::Nvm),
        ("ssd", hemem_vmm::Tier::Ssd),
    ] {
        let pool = sim.m.pool(tier);
        prop_assert_eq!(
            pool.total_pages(),
            pool.free_pages() + pool.allocated_pages() + pool.retired_pages(),
            "{} pool occupancy out of balance",
            name
        );
    }
    let shadow_held = sim.m.pool(Tier::Nvm).shadow_held_pages();
    prop_assert!(
        shadow_held <= sim.m.pool(Tier::Nvm).allocated_pages(),
        "shadow sub-count exceeds allocated NVM frames"
    );
    let shadow_mapped: u64 = sim.m.space.regions().map(|r| r.shadow_pages()).sum();
    prop_assert_eq!(shadow_held, shadow_mapped, "pool/space shadow count split");
    let s = &sim.m.stats;
    let finished = s.migrations_done + s.migrations_failed + sim.m.recovery.journal_rollbacks;
    prop_assert!(finished <= s.migrations_started, "migration ledger broken");
    let in_flight = s.migrations_started - finished;
    let allocated = sim.m.pool(Tier::Dram).allocated_pages()
        + sim.m.pool(Tier::Nvm).allocated_pages()
        + sim.m.pool(Tier::Ssd).allocated_pages();
    if region_live {
        let r = sim.m.space.regions().next().expect("region still live");
        prop_assert_eq!(
            allocated,
            r.mapped_pages() + in_flight + shadow_held,
            "frame leak (shadows included)"
        );
    } else {
        // Sole tenant drained: its shadows must be gone with it.
        prop_assert_eq!(shadow_held, 0, "drained tenant left shadows behind");
        prop_assert_eq!(allocated, in_flight, "frames leaked past the drain");
    }
    let violations = sim.run_audit(false);
    prop_assert!(violations.is_empty(), "audit violations: {violations:?}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Churn with no kill: shadows form, dirty, remap-demote, and
    /// reclaim; the books must balance at every shadow population the
    /// workload can produce.
    #[test]
    fn shadow_churn_keeps_the_books(
        seed in 1u64..1_000_000,
        base in 0u64..REGION_PAGES - 300,
        stride in 32u64..160,
        wfs in prop::collection::vec(0.0f64..0.6, 8..16),
    ) {
        let (mut sim, region) = build(seed, Kill::None);
        drift(&mut sim, region, base, stride, &wfs);
        sim.advance(Ns::secs(1));
        check_shadows_reconciled(&mut sim, true)?;
    }

    /// A manager kill at an arbitrary instant of the shadow lifecycle:
    /// recovery rolls prepared entries (shadow intents included) back in
    /// transaction order, reconciles surviving shadows against their
    /// primaries, and leaves a silent audit.
    #[test]
    fn manager_kill_leaves_shadows_reconciled(
        seed in 1u64..1_000_000,
        kill_ms in 0u64..1200,
        base in 0u64..REGION_PAGES - 300,
        stride in 32u64..160,
        wfs in prop::collection::vec(0.0f64..0.6, 6..12),
    ) {
        let (mut sim, region) =
            build(seed, Kill::Manager(Ns::millis(WARM_MS + kill_ms)));
        drift(&mut sim, region, base, stride, &wfs);
        sim.advance(Ns::secs(2));
        prop_assert_eq!(sim.m.recovery.manager_kills, 1, "the kill fires");
        prop_assert!(
            sim.m.recovery.watchdog_restarts >= 1,
            "watchdog restarted the manager"
        );
        check_shadows_reconciled(&mut sim, true)?;
    }

    /// A tenant kill mid-churn: the drain returns every frame the tenant
    /// held — primaries, in-flight destinations, and shadows — and the
    /// machine ends shadow-free.
    #[test]
    fn tenant_kill_drains_shadows_with_the_tenant(
        seed in 1u64..1_000_000,
        kill_ms in 0u64..1200,
        base in 0u64..REGION_PAGES - 300,
        stride in 32u64..160,
        wfs in prop::collection::vec(0.0f64..0.6, 6..12),
    ) {
        let (mut sim, region) =
            build(seed, Kill::Tenant(Ns::millis(WARM_MS + kill_ms)));
        drift(&mut sim, region, base, stride, &wfs);
        sim.advance(Ns::secs(2));
        prop_assert_eq!(sim.m.recovery.tenant_kills, 1, "the kill fires");
        prop_assert_eq!(sim.m.recovery.tenant_drains, 1, "the drain completes");
        check_shadows_reconciled(&mut sim, false)?;
    }

    /// The same shadowed schedule replayed from the same seed reproduces
    /// identical stats, shadow counters, recovery counters, and pool
    /// state — kills included.
    #[test]
    fn shadowed_runs_replay_identically(
        seed in 1u64..1_000_000,
        kill_ms in 0u64..800,
        manager in any::<bool>(),
    ) {
        let run = || {
            let kill = if manager {
                Kill::Manager(Ns::millis(WARM_MS + kill_ms))
            } else {
                Kill::Tenant(Ns::millis(WARM_MS + kill_ms))
            };
            let (mut sim, region) = build(seed, kill);
            drift(&mut sim, region, 0, 96, &[0.0, 0.3, 0.0, 0.3, 0.0, 0.3]);
            sim.advance(Ns::secs(2));
            format!(
                "{:?}|{:?}|{:?}|{:?}|{}/{}/{}|{}",
                sim.m.stats,
                sim.m.shadow,
                sim.m.recovery,
                sim.m.health,
                sim.m.pool(Tier::Dram).free_pages(),
                sim.m.pool(Tier::Nvm).free_pages(),
                sim.m.pool(Tier::Ssd).free_pages(),
                sim.m.pool(Tier::Nvm).shadow_held_pages(),
            )
        };
        prop_assert_eq!(run(), run(), "shadowed run is not reproducible");
    }
}
