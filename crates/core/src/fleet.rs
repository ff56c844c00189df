//! Fleet control plane: a pool of fixed-size tenant instance slots.
//!
//! The paper's per-process design (§4) gives every tenant its own
//! manager state — tracker arenas, region views, a PEBS demux lane,
//! breaker and balloon state. That is exactly what scales past
//! kernel-level tiering, but it turns tenant spawn into a pile of heap
//! construction and teardown into a pile of frees; under fleet churn
//! (thousands of short-lived instances, ROADMAP north-star) the control
//! plane would spend its time in the allocator and the slot vector
//! would be rebuilt per arrival. Lucet's pooling allocator proved the
//! alternative shape for serverless wasm — fixed-size instance slots
//! over a pre-sized pool, spawn = claim + reset, teardown = scrub +
//! recycle — and HMM-V showed tiered-memory state can be owned
//! per-guest and handed off without rebuilding it. [`SlotPool`] brings
//! both to the tenant control plane:
//!
//! * every slot's containers (tracker arena, queue links, metadata and
//!   page tables, region views) are kept across generations; `spawn`
//!   resets them in place ([`PageTracker::reset`]) and pre-warms
//!   capacity for the slot's working set, so the hot path never
//!   allocates or rebuilds,
//! * `teardown` runs after the runtime's drain (journal rolled back,
//!   frames reclaimed, quota returned): the slot is scrubbed back to a
//!   pristine state and pushed on the free list,
//! * each claim bumps the slot's **generation**; regions are tagged
//!   with the generation they were mapped under, and the
//!   `SlotGenerationLeak` / `StaleSlotFrame` audits prove that nothing
//!   — frames, quota, counters, PEBS stream history — bleeds from one
//!   occupant to the next.
//!
//! The pool is the storage for *every* HeMem configuration (solo,
//! multi-tenant, churn); with pooling disabled the spawn path rebuilds
//! tracker state from scratch exactly like the pre-pool code, which is
//! what `fleetbench`'s recycled-vs-fresh identity reduction compares
//! against.

use crate::arbiter::TenantSignal;
use crate::hemem::{PageTracker, TrackerConfig};
use hemem_sim::Ns;
use hemem_vmm::TenantId;

/// Where a tenant slot is in its lifecycle. The runtime drives the
/// transitions: a seeded kill quarantines the slot, the post-quiescence
/// drain retires it (Live → Quarantined → [drain] → Retired); admission
/// takes a Retired (or never-admitted) slot back to Live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lifecycle {
    /// Scheduled normally.
    Live,
    /// Kill taken: nothing new is scheduled for the tenant while the
    /// runtime rolls back its in-flight work and awaits DMA quiescence.
    Quarantined,
    /// Drained: frames reclaimed, quota returned. Also the starting
    /// state of a deferred slot awaiting admission.
    Retired,
}

/// An in-flight balloon shrink: the quota is already cut; the claim has
/// until `deadline` to drain through watermark demotion before the
/// manager starts forcing pages toward the slowest tier.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BalloonDrain {
    pub(crate) target_pages: u64,
    pub(crate) deadline: Ns,
}

/// One pooled tenant instance slot: the per-tenant manager state the
/// paper gives each process, plus the generation stamp slot reuse is
/// audited by.
#[derive(Debug, Clone)]
pub(crate) struct TenantInstance {
    pub(crate) id: TenantId,
    /// Claim generation: 0 until first (re-)admission, bumped per
    /// spawn. Regions mapped by this occupant carry the same stamp in
    /// the address space, which is what the `StaleSlotFrame` audit
    /// cross-checks.
    pub(crate) generation: u32,
    pub(crate) tracker: PageTracker,
    /// Load mix since the last arbiter reallocation.
    pub(crate) window: TenantSignal,
    /// Cumulative loads, for per-tenant miss-ratio reporting.
    pub(crate) total_dram_loads: u64,
    pub(crate) total_nvm_loads: u64,
    /// Samples this tenant's tracker consumed.
    pub(crate) samples_applied: u64,
    /// Where the slot is in its admit/kill/drain lifecycle.
    pub(crate) lifecycle: Lifecycle,
    /// Consecutive migration aborts feeding the circuit breaker.
    pub(crate) breaker_fails: u32,
    /// Remaining ticks the tripped breaker skips this tenant's pass.
    pub(crate) breaker_skip_ticks: u32,
    /// In-flight balloon shrink, if any.
    pub(crate) balloon: Option<BalloonDrain>,
}

impl TenantInstance {
    fn fresh(id: TenantId, cfg: TrackerConfig, lifecycle: Lifecycle) -> TenantInstance {
        TenantInstance {
            id,
            generation: 0,
            tracker: PageTracker::new(cfg),
            window: TenantSignal::default(),
            total_dram_loads: 0,
            total_nvm_loads: 0,
            samples_applied: 0,
            lifecycle,
            breaker_fails: 0,
            breaker_skip_ticks: 0,
            balloon: None,
        }
    }

    pub(crate) fn note_sample(&mut self, kind: hemem_pebs::SampleType) {
        self.samples_applied += 1;
        match kind {
            hemem_pebs::SampleType::DramLoad => {
                self.window.dram_loads += 1;
                self.total_dram_loads += 1;
            }
            hemem_pebs::SampleType::NvmLoad => {
                self.window.nvm_loads += 1;
                self.total_nvm_loads += 1;
            }
            hemem_pebs::SampleType::Store => {}
        }
    }

    /// Zeroes every per-occupant counter. Shared by spawn (a new
    /// occupant must not see its predecessor's history — re-admission
    /// used to leak `total_*_loads` across generations) and recycle
    /// (a parked slot must audit pristine).
    fn scrub_counters(&mut self) {
        self.window = TenantSignal::default();
        self.total_dram_loads = 0;
        self.total_nvm_loads = 0;
        self.samples_applied = 0;
        self.breaker_fails = 0;
        self.breaker_skip_ticks = 0;
        self.balloon = None;
    }

    /// True when the slot carries no trace of a previous occupant:
    /// pristine tracker, zero counters, no balloon. What the
    /// `SlotGenerationLeak` audit demands of every parked slot.
    pub(crate) fn is_scrubbed(&self) -> bool {
        self.tracker.is_pristine()
            && self.window == TenantSignal::default()
            && self.total_dram_loads == 0
            && self.total_nvm_loads == 0
            && self.samples_applied == 0
            && self.breaker_fails == 0
            && self.breaker_skip_ticks == 0
            && self.balloon.is_none()
    }
}

/// Slot-pool lifecycle counters, exported through
/// `TieredBackend::fleet_stats` into the bench fingerprint (the segment
/// only appears once a spawn happened, keeping pre-fleet baselines
/// byte-identical).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Slot claims (admissions), pooled or not.
    pub spawns: u64,
    /// Spawns served by in-place reset of a recycled slot.
    pub pooled_spawns: u64,
    /// Spawns that rebuilt tracker state from scratch (pooling off).
    pub scratch_spawns: u64,
    /// Slots scrubbed and returned to the free list after a drain.
    pub recycles: u64,
    /// Tracker footprint pages scrubbed across all recycles.
    pub scrubbed_pages: u64,
    /// Sum of all slots' current generations (replay-stable checksum of
    /// the claim history).
    pub generation_sum: u64,
}

/// Simulated cost of a pooled spawn: claim the slot, reset the arenas
/// in place, stamp the generation. Modeled on lucet's pooling
/// allocator, where instance spawn is a free-list pop plus bounded
/// bookkeeping regardless of slot size.
pub const POOLED_SPAWN_NS: u64 = 2_000;
/// Fixed cost of a from-scratch spawn: allocate and wire the tracker,
/// queue links, region view, demux lane, and journal view.
pub const SCRATCH_SPAWN_BASE_NS: u64 = 200_000;
/// Per-page cost of a from-scratch spawn: sizing the arena, metadata,
/// and page tables for the slot's working set.
pub const SCRATCH_SPAWN_PER_PAGE_NS: u64 = 200;

/// Simulated spawn latency the arrival driver charges before a new
/// tenant's first touch: a slot claim when pooled, a full rebuild
/// proportional to the slot's pre-sized working set when not. The cost
/// model is deliberately decoupled from the pooling *mechanism* knob on
/// the backend, so the identity gate can flip the mechanism while
/// charging both runs the same simulated cost.
pub fn spawn_cost_ns(pooled: bool, slot_pages: u64) -> u64 {
    if pooled {
        POOLED_SPAWN_NS
    } else {
        SCRATCH_SPAWN_BASE_NS + SCRATCH_SPAWN_PER_PAGE_NS * slot_pages
    }
}

/// A fixed-capacity pool of tenant instance slots with a free list.
///
/// Spawn is a slot claim plus deterministic reset; teardown is drain →
/// scrub → recycle. The pool is the backing store for every HeMem
/// tenant configuration — slots indexed by `TenantId` — so the manager
/// never grows a `Vec` or rebuilds tracker state in the hot path.
#[derive(Debug, Clone)]
pub struct SlotPool {
    pub(crate) slots: Vec<TenantInstance>,
    /// Free (claimable) slot indices, sorted descending so `pop` yields
    /// the lowest index — keeps claim order deterministic and matches
    /// the pre-pool admission order.
    free: Vec<u32>,
    /// Spawn mechanism: in-place reset of recycled slots (default) or
    /// from-scratch rebuild (the pre-pool behavior, kept for the
    /// recycled-vs-fresh identity reduction).
    pooled: bool,
    tracker_cfg: TrackerConfig,
    /// Pages each slot pre-warms tracker capacity for at claim time.
    slot_pages: u64,
    stats: FleetStats,
}

impl SlotPool {
    /// Builds a pool of `capacity` slots. `live` slots start admitted
    /// (the static multi-tenant construction); otherwise every slot
    /// starts retired on the free list awaiting an arrival
    /// (churn/fleet construction).
    pub(crate) fn new(tracker_cfg: TrackerConfig, capacity: usize, live: bool) -> SlotPool {
        assert!(capacity > 0, "pool needs at least one slot");
        let lifecycle = if live {
            Lifecycle::Live
        } else {
            Lifecycle::Retired
        };
        let slots = (0..capacity as u32)
            .map(|i| TenantInstance::fresh(TenantId(i), tracker_cfg.clone(), lifecycle))
            .collect();
        let free = if live {
            Vec::new()
        } else {
            (0..capacity as u32).rev().collect()
        };
        SlotPool {
            slots,
            free,
            pooled: true,
            tracker_cfg,
            slot_pages: 0,
            stats: FleetStats::default(),
        }
    }

    /// Number of slots (live or parked).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the pool has no slots (never: construction asserts).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of slots currently parked on the free list.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Lowest-indexed claimable slot, if any.
    pub fn next_free(&self) -> Option<TenantId> {
        self.free.last().map(|&i| TenantId(i))
    }

    /// Parked slot indices (descending), for the audit's scrub check.
    pub(crate) fn free_list(&self) -> &[u32] {
        &self.free
    }

    /// Spawn mechanism in effect.
    pub fn pooled(&self) -> bool {
        self.pooled
    }

    /// Selects the spawn mechanism: pooled reset-in-place (default) or
    /// from-scratch rebuild.
    pub fn set_pooled(&mut self, pooled: bool) {
        self.pooled = pooled;
    }

    /// Sets the per-slot working-set pre-warm size, in pages.
    pub fn set_slot_pages(&mut self, pages: u64) {
        self.slot_pages = pages;
    }

    /// Lifecycle counters.
    pub fn stats(&self) -> FleetStats {
        let mut s = self.stats;
        s.generation_sum = self.slots.iter().map(|i| i.generation as u64).sum();
        s
    }

    /// Claims slot `t` for a new occupant at `generation`: removes it
    /// from the free list and resets it to a just-constructed state —
    /// in place when pooled, by rebuild when not. The caller (the
    /// manager's admission path) has already secured the quota grant.
    pub(crate) fn claim(&mut self, t: TenantId, generation: u32) {
        let i = t.0 as usize;
        // Deferred slots sit on the free list; slots constructed live
        // (static multi-tenant) are claimed at admission after a drain
        // put them there. Either way membership is removed exactly once.
        if let Some(pos) = self.free.iter().rposition(|&f| f == t.0) {
            self.free.remove(pos);
        }
        let inst = &mut self.slots[i];
        if self.pooled {
            inst.tracker.reset();
            inst.tracker.prewarm(self.slot_pages);
            self.stats.pooled_spawns += 1;
        } else {
            inst.tracker = PageTracker::new(self.tracker_cfg.clone());
            self.stats.scratch_spawns += 1;
        }
        inst.scrub_counters();
        inst.lifecycle = Lifecycle::Live;
        inst.generation = generation;
        self.stats.spawns += 1;
    }

    /// Scrubs a drained slot and parks it on the free list. The runtime
    /// has already rolled back the occupant's journal entries, unmapped
    /// its regions, and returned its quota; what remains is per-slot
    /// state, which must leave no trace for the next generation.
    pub(crate) fn recycle(&mut self, t: TenantId) {
        let i = t.0 as usize;
        let inst = &mut self.slots[i];
        debug_assert_eq!(
            inst.tracker.tracked_pages(),
            0,
            "recycle before the drain unmapped {t}'s regions"
        );
        self.stats.scrubbed_pages += inst.tracker.footprint_pages();
        inst.tracker.reset();
        inst.scrub_counters();
        debug_assert!(inst.is_scrubbed(), "scrub left occupant state behind");
        // Insert keeping the descending order so the next claim still
        // pops the lowest free index deterministically.
        let pos = self
            .free
            .binary_search_by(|&f| t.0.cmp(&f))
            .expect_err("slot recycled twice");
        self.free.insert(pos, t.0);
        self.stats.recycles += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_vmm::PageId;
    use hemem_vmm::RegionId;

    #[test]
    fn deferred_pool_claims_lowest_slot_first() {
        let mut p = SlotPool::new(TrackerConfig::default(), 4, false);
        assert_eq!(p.free_slots(), 4);
        assert_eq!(p.next_free(), Some(TenantId(0)));
        p.claim(TenantId(0), 1);
        assert_eq!(p.next_free(), Some(TenantId(1)));
        p.claim(TenantId(2), 1);
        assert_eq!(p.next_free(), Some(TenantId(1)));
        assert_eq!(p.free_slots(), 2);
        assert_eq!(p.stats().spawns, 2);
    }

    #[test]
    fn recycle_scrubs_and_reinserts_in_order() {
        let mut p = SlotPool::new(TrackerConfig::default(), 3, false);
        for i in 0..3 {
            p.claim(TenantId(i), 1);
        }
        // Dirty slot 1 with a previous occupant's state.
        let inst = &mut p.slots[1];
        inst.tracker.add_region(RegionId(7), 16);
        inst.tracker.record(
            PageId {
                region: RegionId(7),
                index: 3,
            },
            false,
            Ns::ZERO,
        );
        inst.total_nvm_loads = 9;
        inst.samples_applied = 4;
        inst.lifecycle = Lifecycle::Retired;
        p.slots[1].tracker.remove_region(RegionId(7));
        p.recycle(TenantId(1));
        assert!(p.slots[1].is_scrubbed());
        assert_eq!(p.next_free(), Some(TenantId(1)));
        p.claim(TenantId(1), 2);
        assert_eq!(p.slots[1].generation, 2);
        assert_eq!(p.stats().recycles, 1);
        assert_eq!(p.stats().generation_sum, 1 + 2 + 1);
    }

    #[test]
    fn pooled_reset_is_logically_identical_to_scratch_rebuild() {
        // The identity reduction in miniature: drive a recycled slot
        // and a fresh tracker through the same sequence; their
        // observable state must match.
        let mut pooled = SlotPool::new(TrackerConfig::default(), 1, false);
        pooled.set_slot_pages(32);
        pooled.claim(TenantId(0), 1);
        pooled.slots[0].tracker.add_region(RegionId(1), 32);
        for i in 0..32 {
            pooled.slots[0].tracker.record(
                PageId {
                    region: RegionId(1),
                    index: i,
                },
                i % 3 == 0,
                Ns::ZERO,
            );
        }
        pooled.slots[0].tracker.remove_region(RegionId(1));
        pooled.slots[0].lifecycle = Lifecycle::Retired;
        pooled.recycle(TenantId(0));
        pooled.claim(TenantId(0), 2);

        let mut scratch = SlotPool::new(TrackerConfig::default(), 1, false);
        scratch.set_pooled(false);
        scratch.claim(TenantId(0), 2);

        for p in [&mut pooled, &mut scratch] {
            let t = &mut p.slots[0].tracker;
            t.add_region(RegionId(2), 8);
            for i in 0..8 {
                t.record(
                    PageId {
                        region: RegionId(2),
                        index: i,
                    },
                    false,
                    Ns::ZERO,
                );
            }
        }
        let a = &pooled.slots[0].tracker;
        let b = &scratch.slots[0].tracker;
        assert_eq!(a.stats().records, b.stats().records);
        assert_eq!(a.tracked_pages(), b.tracked_pages());
        assert_eq!(a.cool_clock(), b.cool_clock());
    }

    #[test]
    fn spawn_cost_model_separates_pooled_from_scratch() {
        let pages = 4096;
        let pooled = spawn_cost_ns(true, pages);
        let scratch = spawn_cost_ns(false, pages);
        assert!(
            scratch >= 5 * pooled,
            "pooling must buy at least the gated 5x ({pooled} vs {scratch})"
        );
    }
}
