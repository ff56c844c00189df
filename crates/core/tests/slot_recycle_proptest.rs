//! Property tests: slot recycling never bleeds state across tenant
//! generations. Each case drives a small slot pool through a random
//! spawn / access / balloon / kill sequence (optionally with a seeded
//! chaos kill landing mid-run), then checks that every drained slot
//! returns scrubbed, no frame or quota survives an occupant, a new
//! occupant's fault history starts empty, and the fleet audit
//! (`SlotGenerationLeak` / `StaleSlotFrame` included) stays silent.
//! Every admission's claim asserts that the reset slot equals a fresh
//! one, and replays from the same seed are byte-identical.

use proptest::prelude::*;

use hemem_core::arbiter::ArbiterPolicy;
use hemem_core::hemem::{HeMem, HeMemConfig};
use hemem_core::machine::MachineConfig;
use hemem_core::runtime::{Event, Sim};
use hemem_core::AccessBatch;
use hemem_sim::{Ns, TenantKill};
use hemem_vmm::{TenantId, Tier};

const GIB: u64 = 1 << 30;
const SLOTS: usize = 4;
/// Per-instance working set: 4 slots x 96 MiB against a 256 MiB DRAM +
/// 512 MiB NVM socket, so concurrent occupants contend for tiers.
const WORKING_SET: u64 = 96 << 20;

/// One step of the random schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Admit an instance onto the next free slot (no-op when full).
    Spawn,
    /// Run one access batch on a live instance (selector, write frac).
    Batch(u8, u8),
    /// Balloon a live instance to a fraction of its quota (selector,
    /// fraction /256).
    Balloon(u8, u8),
    /// Kill a live instance and let its drain complete (selector).
    Kill(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted by hand (the vendored prop_oneof is unweighted):
    // 3 spawn : 3 batch : 1 balloon : 2 kill.
    (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(kind, s, p)| match kind % 9 {
        0..=2 => Op::Spawn,
        3..=5 => Op::Batch(s, p),
        6 => Op::Balloon(s, p),
        _ => Op::Kill(s),
    })
}

fn build(seed: u64, chaos_kill: Option<(u32, u64)>, regions: bool) -> Sim<HeMem> {
    let mut mc = MachineConfig::small(1, 1);
    mc.dram.capacity = 256 << 20;
    mc.nvm.capacity = 512 << 20;
    let mut mc = mc.with_tier3(8 * GIB);
    mc.seed = seed;
    mc.chaos.seed = seed.wrapping_mul(0x9E37_79B9).max(1);
    mc.pebs.sample_period *= 96;
    if let Some((slot, at_ms)) = chaos_kill {
        mc.chaos.tenant_kill_at = vec![TenantKill {
            tenant: slot,
            at: Ns::millis(at_ms),
        }];
    }
    let mut hc = HeMemConfig::scaled_for(&mc);
    hc.tracker.regions.enabled = regions;
    let mut h = HeMem::churn(hc, SLOTS, ArbiterPolicy::GreedyMissRatio);
    h.set_slot_pages(64);
    Sim::new(mc, h)
}

/// Drain the event loop after a batch: run submitted rounds to
/// completion, then advance so kills, drains, and balloon deadlines
/// make progress.
fn settle(sim: &mut Sim<HeMem>) {
    loop {
        match sim.step() {
            Some((_, Event::ThreadReady(_))) | None => break,
            Some(_) => {}
        }
    }
    sim.advance(Ns::millis(20));
}

/// Replay the op schedule against one simulator; returns a state
/// fingerprint that must be identical across replays.
fn run_schedule(sim: &mut Sim<HeMem>, ops: &[Op]) -> Result<String, TestCaseError> {
    let mut live: Vec<TenantId> = Vec::new();
    let mut regions = std::collections::BTreeMap::new();
    for &op in ops {
        // A seeded chaos kill may have retired a tenant between ops.
        live.retain(|&t| {
            let alive = sim.backend.tenant_is_live(t);
            if !alive {
                regions.remove(&t);
            }
            alive
        });
        match op {
            Op::Spawn => {
                let Some(t) = sim.backend.slot_pool().next_free() else {
                    continue;
                };
                let now = sim.now();
                let generation = sim.m.space.tenant_generation(t).wrapping_add(1);
                if sim.backend.admit_tenant(&mut sim.m, t, now).is_err() {
                    continue;
                }
                // The recycled slot's new occupant starts with an empty
                // fault history: no bleed from prior generations.
                prop_assert!(
                    !sim.m.tenant_major_faults.contains_key(&(t.0, generation)),
                    "slot {} generation {} inherited a fault history",
                    t.0,
                    generation
                );
                sim.set_active_tenant(t);
                let region = sim.mmap(WORKING_SET);
                regions.insert(t, region);
                live.push(t);
            }
            Op::Batch(sel, wf) => {
                if live.is_empty() {
                    continue;
                }
                let t = live[sel as usize % live.len()];
                let region = regions[&t];
                let pages = sim.m.space.region(region).page_count();
                let batch = AccessBatch::uniform(
                    region,
                    0,
                    pages,
                    30_000,
                    4,
                    wf as f64 / 255.0,
                    WORKING_SET,
                );
                sim.submit_batch(t.0, &batch);
                settle(sim);
            }
            Op::Balloon(sel, frac) => {
                if live.is_empty() {
                    continue;
                }
                let t = live[sel as usize % live.len()];
                let quota = sim.backend.arbiter().map_or(0, |a| a.quota_pages(t));
                let target = quota * (frac as u64).max(64) / 256;
                let now = sim.now();
                let deadline = Ns(now.as_nanos() + Ns::millis(30).as_nanos());
                sim.backend
                    .balloon_tenant(&mut sim.m, t, target, deadline, now);
                sim.advance(Ns::millis(60));
            }
            Op::Kill(sel) => {
                if live.is_empty() {
                    continue;
                }
                let t = live.swap_remove(sel as usize % live.len());
                regions.remove(&t);
                sim.inject_tenant_kill(t);
                sim.advance(Ns::millis(50));
            }
        }
    }
    // Tear the remaining fleet down and let every drain complete.
    for &t in &live {
        if sim.backend.tenant_is_live(t) {
            sim.inject_tenant_kill(t);
        }
    }
    sim.advance(Ns::millis(200));

    // Every slot is back in the pool, scrubbed; every spawn was
    // eventually recycled.
    let pool = sim.backend.slot_pool();
    prop_assert_eq!(pool.free_slots(), SLOTS, "slots leaked out of the pool");
    let ps = pool.stats();
    prop_assert_eq!(
        ps.spawns,
        ps.recycles,
        "spawn/recycle ledger out of balance"
    );
    // No frame, quota, or live flag survives retirement.
    for i in 0..SLOTS as u32 {
        let t = TenantId(i);
        let tf = sim.m.space.tenant_frames(t);
        prop_assert_eq!(
            tf.dram_pages + tf.nvm_pages + tf.ssd_pages,
            0,
            "slot {} frames survived the drain",
            i
        );
        let arb = sim.backend.arbiter().expect("churn pool has an arbiter");
        prop_assert!(
            !arb.is_live(t) && arb.quota_pages(t) == 0,
            "slot {} quota survived retirement",
            i
        );
    }
    let violations = sim.run_audit(false);
    prop_assert!(violations.is_empty(), "audit violations: {violations:?}");

    Ok(format!(
        "{:?}|{:?}|{}/{}/{}|{}/{}/{}|{:?}",
        sim.m.stats,
        sim.m.recovery,
        sim.m.pool(Tier::Dram).free_pages(),
        sim.m.pool(Tier::Nvm).free_pages(),
        sim.m.pool(Tier::Ssd).free_pages(),
        ps.spawns,
        ps.recycles,
        ps.generation_sum,
        sim.m.tenant_major_faults,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random spawn/access/balloon/kill schedules drain clean on
    /// recycled slots, every claim on a recycled slot passes the
    /// claim-time check against a fresh slot, and the run replays
    /// byte-for-byte, with region tracking off and on.
    #[test]
    fn recycled_slots_match_fresh_slots(
        seed in 1u64..1_000_000,
        ops in prop::collection::vec(op_strategy(), 6..24),
    ) {
        for regions in [false, true] {
            let a = run_schedule(&mut build(seed, None, regions), &ops)?;
            let b = run_schedule(&mut build(seed, None, regions), &ops)?;
            prop_assert_eq!(a, b, "recycled-slot schedule is not reproducible");
        }
    }

    /// A seeded chaos kill landing mid-schedule (racing batches, drains,
    /// and balloon deadlines) still leaves every slot scrubbed, and the
    /// whole run replays identically from the same seed.
    #[test]
    fn chaos_kill_mid_schedule_replays_identically(
        seed in 1u64..1_000_000,
        slot in 0u32..SLOTS as u32,
        kill_ms in 1u64..400,
        ops in prop::collection::vec(op_strategy(), 6..24),
    ) {
        let run = |mut sim: Sim<HeMem>| run_schedule(&mut sim, &ops);
        let a = run(build(seed, Some((slot, kill_ms)), false))?;
        let b = run(build(seed, Some((slot, kill_ms)), false))?;
        prop_assert_eq!(a, b, "chaos-kill fleet schedule is not reproducible");
    }
}
