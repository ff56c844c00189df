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
//! multi-tenant, churn), and claim-and-reset is the only spawn
//! mechanism. The pool keeps one pristine tracker, built once with the
//! pool's config; every claim asserts that the reset slot equals it
//! (arena, queues, region view and counters included), so every run
//! proves that a recycled slot is a fresh one.

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BalloonDrain {
    pub(crate) target_pages: u64,
    pub(crate) deadline: Ns,
}

/// A slot occupant's counters. The default is the zero state: spawn
/// resets to it (a new occupant must not see its predecessor's
/// history), recycle resets to it, and a claimed or parked slot must
/// equal it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OccupantCounters {
    /// Load mix since the last arbiter reallocation.
    pub(crate) window: TenantSignal,
    /// Cumulative loads, for per-tenant miss-ratio reporting.
    pub(crate) total_dram_loads: u64,
    pub(crate) total_nvm_loads: u64,
    /// Samples this tenant's tracker consumed.
    pub(crate) samples_applied: u64,
    /// Consecutive migration aborts feeding the circuit breaker.
    pub(crate) breaker_fails: u32,
    /// Remaining ticks the tripped breaker skips this tenant's pass.
    pub(crate) breaker_skip_ticks: u32,
    /// In-flight balloon shrink, if any.
    pub(crate) balloon: Option<BalloonDrain>,
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
    /// Where the slot is in its admit/kill/drain lifecycle.
    pub(crate) lifecycle: Lifecycle,
    /// Per-occupant counters, zeroed at every spawn and recycle.
    pub(crate) counters: OccupantCounters,
}

impl TenantInstance {
    fn fresh(id: TenantId, tracker: PageTracker, lifecycle: Lifecycle) -> TenantInstance {
        TenantInstance {
            id,
            generation: 0,
            tracker,
            lifecycle,
            counters: OccupantCounters::default(),
        }
    }

    pub(crate) fn note_sample(&mut self, kind: hemem_pebs::SampleType) {
        let c = &mut self.counters;
        c.samples_applied += 1;
        match kind {
            hemem_pebs::SampleType::DramLoad => {
                c.window.dram_loads += 1;
                c.total_dram_loads += 1;
            }
            hemem_pebs::SampleType::NvmLoad => {
                c.window.nvm_loads += 1;
                c.total_nvm_loads += 1;
            }
            hemem_pebs::SampleType::Store => {}
        }
    }
}

/// Slot-pool lifecycle counters, exported through
/// `TieredBackend::fleet_stats` into the bench fingerprint (the segment
/// only appears once a spawn happened, keeping pre-fleet baselines
/// byte-identical).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Slot claims (admissions). Each one reset its slot in place and
    /// checked it against the pool's pristine tracker.
    pub spawns: u64,
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
/// proportional to the slot's pre-sized working set when not. This is a
/// modeled cost input, not a measurement: the backend always spawns by
/// claim and reset, and `pooled = false` only charges what a
/// from-scratch rebuild would have cost.
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
    /// A `PageTracker::new` of the pool's config, built once: every
    /// claimed and every parked slot's tracker must equal it. Boxed to
    /// keep `HeMem` (inline in `AnyBackend`) small.
    pristine: Box<PageTracker>,
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
        let pristine = Box::new(PageTracker::new(tracker_cfg));
        let slots = (0..capacity as u32)
            .map(|i| TenantInstance::fresh(TenantId(i), (*pristine).clone(), lifecycle))
            .collect();
        let free = if live {
            Vec::new()
        } else {
            (0..capacity as u32).rev().collect()
        };
        SlotPool {
            slots,
            free,
            pristine,
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

    /// True when slot `t` carries no trace of a previous occupant: its
    /// tracker equals the pool's pristine tracker (arena, queues,
    /// region view and counters included) and every per-occupant
    /// counter is zero. What every claim asserts and the
    /// `SlotGenerationLeak` audit demands of every parked slot.
    pub(crate) fn is_scrubbed(&self, t: TenantId) -> bool {
        let inst = &self.slots[t.0 as usize];
        inst.tracker == *self.pristine && inst.counters == OccupantCounters::default()
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
    /// from the free list, resets it in place to a just-constructed
    /// state and asserts that it equals a fresh slot. The caller (the
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
        inst.tracker.reset();
        inst.tracker.prewarm(self.slot_pages);
        inst.counters = OccupantCounters::default();
        inst.lifecycle = Lifecycle::Live;
        inst.generation = generation;
        self.stats.spawns += 1;
        assert!(
            self.is_scrubbed(t),
            "claimed slot {t} differs from a fresh one after reset"
        );
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
        inst.counters = OccupantCounters::default();
        debug_assert!(self.is_scrubbed(t), "scrub left occupant state behind");
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
        inst.counters.total_nvm_loads = 9;
        inst.counters.samples_applied = 4;
        inst.lifecycle = Lifecycle::Retired;
        p.slots[1].tracker.remove_region(RegionId(7));
        p.recycle(TenantId(1));
        assert!(p.is_scrubbed(TenantId(1)));
        assert_eq!(p.next_free(), Some(TenantId(1)));
        p.claim(TenantId(1), 2);
        assert_eq!(p.slots[1].generation, 2);
        assert_eq!(p.stats().recycles, 1);
        assert_eq!(p.stats().generation_sum, 1 + 2 + 1);
    }

    #[test]
    fn pooled_reset_is_logically_identical_to_scratch_rebuild() {
        // A slot that held an occupant, recycled and claimed again,
        // equals a tracker built from scratch; both then behave alike.
        let cfg = TrackerConfig::default();
        let mut pooled = SlotPool::new(cfg, 1, false);
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

        let mut scratch = PageTracker::new(cfg);
        assert_eq!(pooled.slots[0].tracker, scratch);
        for t in [&mut pooled.slots[0].tracker, &mut scratch] {
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
        assert_eq!(pooled.slots[0].tracker, scratch);
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
