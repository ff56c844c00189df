//! Property tests: a manager kill landing at an arbitrary instant of the
//! region split/merge churn never corrupts multi-grained tracking. Each
//! case oversubscribes DRAM with region tracking (and the adaptive PEBS
//! controller) armed, drives a drifting hot set so spans are continually
//! splitting under the heat and merging behind it, then drops a seeded
//! manager kill into the churn window. Watchdog recovery must rebuild
//! the region view from the surviving per-page counters: every span's
//! residency summary re-derived, every pin dropped with the rolled-back
//! journal, and the region audit — `RegionCoverageGap`,
//! `RegionTemperatureMismatch`, `SplitMergeLeak` included — silent.
//! Replays from the same seed must be byte-identical, region and
//! controller counters included.

use proptest::prelude::*;

use hemem_core::hemem::{HeMem, HeMemConfig, RegionConfig};
use hemem_core::machine::MachineConfig;
use hemem_core::runtime::{Event, Sim};
use hemem_core::AccessBatch;
use hemem_pebs::AdaptiveConfig;
use hemem_sim::Ns;
use hemem_vmm::{RegionId, Tier};

const GIB: u64 = 1 << 30;
// 2.5x DRAM on the small(1, 4) machine: the working set spills into NVM
// so promotion/demotion churn keeps rewriting span residency while
// splits chase the drifting heat.
const REGION_BYTES: u64 = 2 * GIB + GIB / 2;
const REGION_PAGES: u64 = REGION_BYTES / (2 << 20);
const WARM_MS: u64 = 2_000;

fn build(seed: u64, kill_at: Option<Ns>, adaptive: bool) -> (Sim<HeMem>, RegionId) {
    let mut mc = MachineConfig::small(1, 4);
    mc.seed = seed;
    mc.chaos.seed = seed.wrapping_mul(0x9E37_79B9).max(1);
    if let Some(at) = kill_at {
        mc.chaos.manager_kill_at = vec![at];
    }
    if adaptive {
        mc.pebs.adaptive = Some(AdaptiveConfig::default());
    }
    let mut hc = HeMemConfig::scaled_for(&mc);
    hc.tracker.regions = RegionConfig::multi_grain();
    let mut sim = Sim::new(mc, HeMem::new(hc));
    let region = sim.mmap(REGION_BYTES);
    sim.populate(region, true);
    assert!(
        sim.now() < Ns::millis(WARM_MS),
        "populate overran the warm-up window"
    );
    sim.run_until(Ns::millis(WARM_MS));
    (sim, region)
}

/// One access batch to completion plus a short drain, hammering a narrow
/// span so its regions heat up, split to page grain, and leave the cold
/// wake behind them to merge back toward `max_span`.
fn churn(sim: &mut Sim<HeMem>, region: RegionId, lo: u64) {
    let hi = (lo + 48).min(REGION_PAGES);
    let batch = AccessBatch::uniform(region, lo, hi, 500_000, 8, 0.1, REGION_BYTES);
    sim.submit_batch(0, &batch);
    loop {
        match sim.step() {
            Some((_, Event::ThreadReady(_))) | None => break,
            Some(_) => {}
        }
    }
    sim.advance(Ns::millis(40));
}

/// A drifting hot set: each round hammers two narrow spans and moves on,
/// so the kill window always lands with some spans split hot, some
/// mid-cooling, and merges in progress behind the drift.
fn drift(sim: &mut Sim<HeMem>, region: RegionId, base: u64, stride: u64, rounds: u64) {
    let span = REGION_PAGES - 200;
    for i in 0..rounds {
        let lo = (base + i * stride) % span;
        churn(sim, region, lo);
        churn(sim, region, (lo + span / 2) % span);
    }
}

/// Invariants every recovered run must restore: region tracking still
/// active with its counters advancing, the migration ledger closed, and
/// a silent audit (which re-derives every span's residency from the
/// per-page metadata and checks `RegionCoverageGap`,
/// `RegionTemperatureMismatch`, and `SplitMergeLeak`).
fn check_regions_reconciled(sim: &mut Sim<HeMem>) -> Result<(), TestCaseError> {
    let stats = sim
        .backend
        .region_stats()
        .expect("region tracking stayed enabled through recovery");
    prop_assert!(stats.spans >= 1, "region view lost its spans");
    prop_assert!(stats.periods >= 1, "no region period ran");
    let s = &sim.m.stats;
    let finished = s.migrations_done + s.migrations_failed + sim.m.recovery.journal_rollbacks;
    prop_assert!(finished <= s.migrations_started, "migration ledger broken");
    let violations = sim.run_audit(false);
    prop_assert!(violations.is_empty(), "audit violations: {violations:?}");
    Ok(())
}

fn fingerprint(sim: &Sim<HeMem>) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{}/{}|{}",
        sim.m.stats,
        sim.m.recovery,
        sim.backend.region_stats(),
        sim.m.pebs.adapt_stats(),
        sim.m.pool(Tier::Dram).free_pages(),
        sim.m.pool(Tier::Nvm).free_pages(),
        sim.m.pebs.sample_period(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Region churn with no kill: the split/merge machinery must keep
    /// the span view consistent with the per-page counters at every
    /// drift schedule the workload can produce.
    #[test]
    fn region_churn_keeps_the_view_consistent(
        seed in 1u64..1_000_000,
        base in 0u64..REGION_PAGES - 200,
        stride in 48u64..200,
        rounds in 4u64..8,
    ) {
        let (mut sim, region) = build(seed, None, false);
        drift(&mut sim, region, base, stride, rounds);
        sim.advance(Ns::secs(1));
        check_regions_reconciled(&mut sim)?;
    }

    /// A manager kill at an arbitrary instant of the split/merge churn:
    /// the watchdog restarts the manager, recovery rolls the journal
    /// back, and the rebuilt region view must agree with the surviving
    /// per-page counters — silently, under the full region audit.
    #[test]
    fn manager_kill_rebuilds_region_view(
        seed in 1u64..1_000_000,
        kill_ms in 0u64..1500,
        base in 0u64..REGION_PAGES - 200,
        stride in 48u64..200,
        adaptive in any::<bool>(),
    ) {
        let (mut sim, region) =
            build(seed, Some(Ns::millis(WARM_MS + kill_ms)), adaptive);
        drift(&mut sim, region, base, stride, 6);
        sim.advance(Ns::secs(2));
        prop_assert_eq!(sim.m.recovery.manager_kills, 1, "the kill fires");
        prop_assert!(
            sim.m.recovery.watchdog_restarts >= 1,
            "watchdog restarted the manager"
        );
        check_regions_reconciled(&mut sim)?;
    }

    /// The same killed region schedule replayed from the same seed
    /// reproduces identical stats, region counters, controller state,
    /// and pool state.
    #[test]
    fn killed_region_runs_replay_identically(
        seed in 1u64..1_000_000,
        kill_ms in 0u64..1000,
        adaptive in any::<bool>(),
    ) {
        let run = || {
            let (mut sim, region) =
                build(seed, Some(Ns::millis(WARM_MS + kill_ms)), adaptive);
            drift(&mut sim, region, 0, 96, 5);
            sim.advance(Ns::secs(2));
            fingerprint(&sim)
        };
        prop_assert_eq!(run(), run(), "killed region run is not reproducible");
    }
}
