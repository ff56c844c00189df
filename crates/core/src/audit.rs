//! Online invariant auditor.
//!
//! A cheap structural audit over the machine's metadata: page
//! conservation in each pool, agreement between the address space and
//! the pools (every allocated frame is referenced exactly once, by a
//! mapping or by an in-flight journal entry), no double-mapped frames,
//! residency indices that agree with the page states they summarise,
//! and journal quiescence when the machine is idle. Violations are typed
//! values, not panics, so a long chaos or recovery run can count them in
//! telemetry and fail at the end with evidence.
//!
//! The audit walks every managed page, so its cost is linear in mapped
//! memory: cheap enough for every policy tick in tests, meant for a
//! coarse interval in benches (see `MachineConfig::audit_period`).

use std::collections::HashMap;

use hemem_vmm::{PageState, PhysPage, Region, RegionKind, TenantId, Tier};

use crate::journal::TxnState;
use crate::machine::MachineCore;

/// One invariant violation found by the auditor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditViolation {
    /// A pool's books do not balance: `total != free + allocated +
    /// retired`.
    PoolImbalance {
        /// The tier whose pool is imbalanced.
        tier: Tier,
        /// Total pages in the pool.
        total: u64,
        /// Pages on the free list.
        free: u64,
        /// Pages recorded as allocated.
        allocated: u64,
        /// Pages on the poisoned list.
        retired: u64,
    },
    /// One physical frame is referenced by two owners (two mappings, or
    /// a mapping and an in-flight migration destination).
    DoubleMappedFrame {
        /// The tier of the frame.
        tier: Tier,
        /// The frame referenced twice.
        phys: PhysPage,
    },
    /// A pool's allocated count disagrees with the number of frames
    /// actually referenced by mappings and journal entries.
    AllocationMismatch {
        /// The tier whose books disagree.
        tier: Tier,
        /// Pages the pool believes are allocated.
        allocated: u64,
        /// Frames actually referenced.
        referenced: u64,
    },
    /// The migration journal holds entries although the machine is
    /// supposed to be quiescent.
    JournalNotQuiescent {
        /// Outstanding journal entries.
        outstanding: u64,
    },
    /// A backend's tracker disagrees with the address space about where
    /// a page lives (reported through `TieredBackend::audit`).
    TrackerMismatch {
        /// The page in disagreement.
        page: hemem_vmm::PageId,
        /// Tier the tracker believes the page is on (`None`: untracked /
        /// not resident).
        tracked: Option<Tier>,
        /// Tier the address space maps the page on (`None`: unmapped).
        mapped: Option<Tier>,
    },
    /// One physical frame is referenced by regions (or in-flight
    /// migrations) of two different tenants — tenant isolation is broken
    /// at the frame level.
    CrossTenantFrame {
        /// The tier of the shared frame.
        tier: Tier,
        /// The frame referenced by both tenants.
        phys: PhysPage,
        /// The first tenant observed referencing the frame.
        first: TenantId,
        /// The second, different tenant referencing the same frame.
        second: TenantId,
    },
    /// A tenant holds more resident DRAM than its arbiter quota allows,
    /// beyond the grace window for in-flight demotions after a quota cut
    /// (reported through `TieredBackend::audit`).
    QuotaExceeded {
        /// The over-quota tenant.
        tenant: TenantId,
        /// DRAM pages the tenant has resident (mapped + in-flight into
        /// DRAM).
        resident_pages: u64,
        /// The tenant's current quota, in pages.
        quota_pages: u64,
        /// Pages of transient overshoot the auditor tolerates (one
        /// reallocation step plus the in-flight migration cap).
        grace_pages: u64,
    },
    /// A backend tracker's per-tenant residency totals disagree with the
    /// address space's per-tenant frame accounting (reported through
    /// `TieredBackend::audit`).
    TenantFrameMismatch {
        /// The tenant whose books disagree.
        tenant: TenantId,
        /// The tier being counted.
        tier: Tier,
        /// Pages the address space maps for this tenant on this tier.
        space_pages: u64,
        /// Pages the tracker believes are resident there.
        tracked_pages: u64,
    },
    /// A retired tenant still holds resident frames on some tier, or
    /// in-flight journal entries — teardown reclamation leaked memory
    /// (reported through `TieredBackend::audit`).
    FrameLeakAfterRetire {
        /// The retired tenant that still owns memory.
        tenant: TenantId,
        /// The tier the leaked frames live on.
        tier: Tier,
        /// Frames (or journal entries, for the journal pseudo-count)
        /// still attributed to the tenant.
        leaked_pages: u64,
    },
    /// A retired tenant still holds a nonzero DRAM quota in the arbiter —
    /// its share was never returned to the live set (reported through
    /// `TieredBackend::audit`).
    ZombieTenantQuota {
        /// The retired tenant.
        tenant: TenantId,
        /// The quota it still holds, in pages.
        quota_pages: u64,
    },
    /// An offline tier whose evacuation reported completion still has
    /// frames referenced by mappings or in-flight journal entries.
    FramesOnOfflineTier {
        /// The offline tier.
        tier: Tier,
        /// Frames still referenced there.
        frames: u64,
    },
    /// An offline, fully-evacuated tier's pool still records allocated
    /// frames that nothing references — the evacuation leaked frames on
    /// the dead device instead of freeing them.
    EvacuationLeak {
        /// The offline tier.
        tier: Tier,
        /// Allocated-but-unreferenced frames left behind.
        allocated: u64,
    },
    /// A page holds an NVM shadow frame but its primary mapping is not
    /// DRAM-resident — the shadow should have been dropped (or consumed
    /// by a remap demotion) when the primary moved.
    StaleShadowMapped {
        /// The page with the stale shadow.
        page: hemem_vmm::PageId,
        /// Tier the primary actually lives on (`None`: unmapped).
        primary: Option<Tier>,
    },
    /// The NVM pool's shadow-held sub-count disagrees with the number of
    /// shadow frames the address space actually records.
    ShadowFrameLeak {
        /// Shadow frames the pool believes it holds.
        pool_held: u64,
        /// Shadow frames summed over every region's shadow map.
        mapped: u64,
    },
    /// One page has two outstanding migration-journal entries — a
    /// conflicting concurrent promote+demote that recovery cannot
    /// reconcile in a defined order.
    DoubleJournaledPage {
        /// The doubly-journaled page.
        page: hemem_vmm::PageId,
        /// Outstanding entries referencing it.
        entries: u64,
    },
    /// The migration journal has counted protocol violations (duplicate
    /// prepares or retires of non-committed entries) since the last
    /// drain.
    JournalProtocolViolation {
        /// Violations the journal has counted.
        count: u64,
    },
    /// A tier's pool and the machine's health ledger disagree about how
    /// much capacity degradation has retired.
    DegradedCapacityMismatch {
        /// The tier in disagreement.
        tier: Tier,
        /// Health-retired pages the pool holds.
        pool_retired: u64,
        /// Health-retired pages the machine's ledger records.
        recorded: u64,
    },
    /// A region tracker's span tiling does not cover its region exactly:
    /// a gap, overlap, or misaligned span at `at` (reported through
    /// `TieredBackend::audit`).
    RegionCoverageGap {
        /// The region whose tiling is broken.
        region: hemem_vmm::RegionId,
        /// Page offset where the walk first disagreed with the tiling.
        at: u64,
    },
    /// A span's cached residency summary disagrees with a recount of the
    /// per-page state inside it (reported through
    /// `TieredBackend::audit`).
    RegionTemperatureMismatch {
        /// The region holding the span.
        region: hemem_vmm::RegionId,
        /// The span's head page offset.
        start: u64,
        /// DRAM pages the span caches.
        cached_dram: u64,
        /// DRAM pages actually inside per the page metadata.
        actual_dram: u64,
        /// NVM pages the span caches.
        cached_nvm: u64,
        /// NVM pages actually inside per the page metadata.
        actual_nvm: u64,
    },
    /// Split/merge bookkeeping leaked: the incremental span/coverage
    /// accounting disagrees with the span map, or spans stay pinned with
    /// no journal entry in flight to justify the pin (reported through
    /// `TieredBackend::audit`).
    SplitMergeLeak {
        /// The region with broken accounting.
        region: hemem_vmm::RegionId,
        /// Spans the incremental counter believes are live.
        live_spans: u64,
        /// Spans actually in the map.
        actual_spans: u64,
        /// Pages the incremental coverage counter believes are tiled.
        covered: u64,
        /// Pages the region actually has.
        pages: u64,
        /// Pins outstanding with an empty migration journal.
        orphan_pins: u64,
    },
    /// A region tracker's candidate index disagrees with its spans: the
    /// flag at a span head differs from what the span's temperature and
    /// residency imply, or the index holds a flag off every span head
    /// (reported through `TieredBackend::audit`).
    RegionIndexMismatch {
        /// The region holding the span.
        region: hemem_vmm::RegionId,
        /// The span head with the wrong flag, or the first stray flag.
        head: u64,
        /// The index in disagreement (`promo`, `demo` or `dram_any`).
        index: &'static str,
    },
    /// A managed region is stamped with a slot generation older than its
    /// tenant's current one: a mapping from a previous occupant of a
    /// recycled slot survived the teardown drain.
    StaleSlotFrame {
        /// The stale region.
        region: hemem_vmm::RegionId,
        /// The tenant slot it is attributed to.
        tenant: TenantId,
        /// Generation the region was mapped under.
        region_generation: u32,
        /// The slot's current generation.
        current_generation: u32,
    },
    /// A region's residency index for `tier` holds a different number of
    /// pages than a walk of the region's page states finds there: the
    /// index missed a residency change, so sampled pages are drawn from
    /// the wrong set.
    ResidencyIndexMismatch {
        /// The region whose index disagrees.
        region: hemem_vmm::RegionId,
        /// The tier being counted.
        tier: Tier,
        /// Pages the tier's index holds.
        indexed: u64,
        /// Pages the walk maps on the tier.
        walked: u64,
    },
    /// A parked (free-list) slot still carries occupant state — tracker
    /// pages, load counters, balloon, or PEBS stream history — that
    /// would bleed into the slot's next generation (reported through
    /// `TieredBackend::audit`).
    SlotGenerationLeak {
        /// The dirty parked slot.
        tenant: TenantId,
        /// The generation of the occupant that left the state behind.
        generation: u32,
    },
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditViolation::PoolImbalance {
                tier,
                total,
                free,
                allocated,
                retired,
            } => write!(
                f,
                "{tier:?} pool imbalance: total {total} != free {free} + allocated {allocated} + retired {retired}"
            ),
            AuditViolation::DoubleMappedFrame { tier, phys } => {
                write!(f, "{tier:?} frame {phys:?} referenced twice")
            }
            AuditViolation::AllocationMismatch {
                tier,
                allocated,
                referenced,
            } => write!(
                f,
                "{tier:?} pool says {allocated} allocated but {referenced} frames are referenced"
            ),
            AuditViolation::JournalNotQuiescent { outstanding } => {
                write!(f, "journal holds {outstanding} entries at quiescence")
            }
            AuditViolation::TrackerMismatch {
                page,
                tracked,
                mapped,
            } => write!(
                f,
                "tracker places {page:?} on {tracked:?} but the space maps it on {mapped:?}"
            ),
            AuditViolation::CrossTenantFrame {
                tier,
                phys,
                first,
                second,
            } => write!(
                f,
                "{tier:?} frame {phys:?} referenced by both {first} and {second}"
            ),
            AuditViolation::QuotaExceeded {
                tenant,
                resident_pages,
                quota_pages,
                grace_pages,
            } => write!(
                f,
                "{tenant} holds {resident_pages} DRAM pages over quota {quota_pages} (+{grace_pages} grace)"
            ),
            AuditViolation::TenantFrameMismatch {
                tenant,
                tier,
                space_pages,
                tracked_pages,
            } => write!(
                f,
                "{tenant} {tier:?}: space maps {space_pages} pages but tracker holds {tracked_pages}"
            ),
            AuditViolation::FrameLeakAfterRetire {
                tenant,
                tier,
                leaked_pages,
            } => write!(
                f,
                "retired {tenant} still holds {leaked_pages} pages on {tier:?}"
            ),
            AuditViolation::ZombieTenantQuota {
                tenant,
                quota_pages,
            } => write!(
                f,
                "retired {tenant} still holds a {quota_pages}-page DRAM quota"
            ),
            AuditViolation::FramesOnOfflineTier { tier, frames } => {
                write!(f, "offline {tier:?} still holds {frames} referenced frames after evacuation")
            }
            AuditViolation::EvacuationLeak { tier, allocated } => {
                write!(f, "offline {tier:?} pool leaks {allocated} allocated frames nothing references")
            }
            AuditViolation::StaleShadowMapped { page, primary } => write!(
                f,
                "{page:?} holds an NVM shadow but its primary maps on {primary:?}"
            ),
            AuditViolation::ShadowFrameLeak { pool_held, mapped } => write!(
                f,
                "NVM pool holds {pool_held} shadow frames but regions record {mapped}"
            ),
            AuditViolation::DoubleJournaledPage { page, entries } => {
                write!(f, "{page:?} has {entries} outstanding journal entries")
            }
            AuditViolation::StaleSlotFrame {
                region,
                tenant,
                region_generation,
                current_generation,
            } => write!(
                f,
                "{region:?} of {tenant} maps generation {region_generation} but the slot is at {current_generation}"
            ),
            AuditViolation::ResidencyIndexMismatch {
                region,
                tier,
                indexed,
                walked,
            } => write!(
                f,
                "{region:?} {tier:?} index holds {indexed} pages but its page states map {walked}"
            ),
            AuditViolation::SlotGenerationLeak { tenant, generation } => write!(
                f,
                "parked slot {tenant} still carries generation-{generation} occupant state"
            ),
            AuditViolation::JournalProtocolViolation { count } => {
                write!(f, "journal counted {count} protocol violations")
            }
            AuditViolation::DegradedCapacityMismatch {
                tier,
                pool_retired,
                recorded,
            } => write!(
                f,
                "{tier:?} pool health-retired {pool_retired} pages but the ledger records {recorded}"
            ),
            AuditViolation::RegionCoverageGap { region, at } => {
                write!(f, "{region:?} span tiling breaks at page {at}")
            }
            AuditViolation::RegionTemperatureMismatch {
                region,
                start,
                cached_dram,
                actual_dram,
                cached_nvm,
                actual_nvm,
            } => write!(
                f,
                "{region:?} span@{start} caches dram {cached_dram}/nvm {cached_nvm} but pages count dram {actual_dram}/nvm {actual_nvm}"
            ),
            AuditViolation::SplitMergeLeak {
                region,
                live_spans,
                actual_spans,
                covered,
                pages,
                orphan_pins,
            } => write!(
                f,
                "{region:?} split/merge leak: {live_spans} counted vs {actual_spans} actual spans, {covered}/{pages} pages covered, {orphan_pins} orphan pins"
            ),
            AuditViolation::RegionIndexMismatch {
                region,
                head,
                index,
            } => write!(
                f,
                "{region:?} {index} index disagrees with the span state at page {head}"
            ),
        }
    }
}

impl std::error::Error for AuditViolation {}

/// Compares `region`'s per-tier residency index totals with `walked`,
/// the pages a walk of its page states found on each tier (by
/// [`Tier::rank`]).
fn residency_index_mismatches(
    region: &Region,
    walked: [u64; Tier::ALL.len()],
) -> impl Iterator<Item = AuditViolation> + '_ {
    Tier::ALL.into_iter().filter_map(move |tier| {
        let indexed = match tier {
            Tier::Dram => region.dram_pages(),
            Tier::Nvm => region.nvm_pages(),
            Tier::Ssd => region.ssd_pages(),
        };
        let walked = walked[tier.rank()];
        (indexed != walked).then_some(AuditViolation::ResidencyIndexMismatch {
            region: region.id(),
            tier,
            indexed,
            walked,
        })
    })
}

/// Audits the machine's structural invariants; returns every violation
/// found (empty = clean). With `expect_quiescent`, outstanding journal
/// entries are also violations.
pub fn audit_machine(m: &MachineCore, expect_quiescent: bool) -> Vec<AuditViolation> {
    let mut v = Vec::new();

    // 1. Page conservation per pool, over however many tiers the machine
    // has configured.
    for &tier in m.tiers() {
        let p = m.pool(tier);
        if !p.conserved() {
            v.push(AuditViolation::PoolImbalance {
                tier,
                total: p.total_pages(),
                free: p.free_pages(),
                allocated: p.allocated_pages(),
                retired: p.retired_pages(),
            });
        }
    }

    // 2. Every pool frame referenced at most once, counting mappings and
    // in-flight migration destinations. SmallAnon regions are
    // kernel-backed and do not draw from the tiered pools.
    let mut refs: HashMap<(Tier, PhysPage), u64> = HashMap::new();
    let mut owners: HashMap<(Tier, PhysPage), TenantId> = HashMap::new();
    let mut crossed: Vec<(Tier, PhysPage, TenantId, TenantId)> = Vec::new();
    let mut note_owner = |key: (Tier, PhysPage), tenant: TenantId| match owners.entry(key) {
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(tenant);
        }
        std::collections::hash_map::Entry::Occupied(e) => {
            let first = *e.get();
            if first != tenant {
                crossed.push((key.0, key.1, first, tenant));
            }
        }
    };
    let mut stale_shadows: Vec<(hemem_vmm::PageId, Option<Tier>)> = Vec::new();
    let mut shadow_mapped = 0u64;
    let mut stale_slots: Vec<AuditViolation> = Vec::new();
    let mut index_mismatches: Vec<AuditViolation> = Vec::new();
    for region in m.space.regions() {
        if region.kind() != RegionKind::ManagedHeap {
            continue;
        }
        // Slot-generation agreement: a region must have been mapped by
        // the slot's *current* occupant. Machines without a fleet (no
        // generation bumps) stamp and expect zero, so the check is free.
        let current = m.space.tenant_generation(region.tenant());
        if region.generation() != current {
            stale_slots.push(AuditViolation::StaleSlotFrame {
                region: region.id(),
                tenant: region.tenant(),
                region_generation: region.generation(),
                current_generation: current,
            });
        }
        let mut walked = [0u64; Tier::ALL.len()];
        for i in 0..region.page_count() {
            if let PageState::Mapped { tier, phys, .. } = region.state(i) {
                *refs.entry((tier, phys)).or_insert(0) += 1;
                note_owner((tier, phys), region.tenant());
                walked[tier.rank()] += 1;
            }
        }
        index_mismatches.extend(residency_index_mismatches(region, walked));
        // Shadow frames are the third reference class (alongside
        // mappings and in-flight destinations); a shadow's primary must
        // be DRAM-resident or the shadow is stale.
        for (i, phys) in region.shadows() {
            shadow_mapped += 1;
            *refs.entry((Tier::Nvm, phys)).or_insert(0) += 1;
            note_owner((Tier::Nvm, phys), region.tenant());
            let primary = match region.state(i) {
                PageState::Mapped { tier, .. } => Some(tier),
                _ => None,
            };
            if primary != Some(Tier::Dram) {
                stale_shadows.push((
                    hemem_vmm::PageId {
                        region: region.id(),
                        index: i,
                    },
                    primary,
                ));
            }
        }
    }
    for (page, primary) in stale_shadows {
        v.push(AuditViolation::StaleShadowMapped { page, primary });
    }
    v.extend(stale_slots);
    v.extend(index_mismatches);
    let pool_held = m.pool(Tier::Nvm).shadow_held_pages();
    if pool_held != shadow_mapped {
        v.push(AuditViolation::ShadowFrameLeak {
            pool_held,
            mapped: shadow_mapped,
        });
    }
    let mut journaled: HashMap<hemem_vmm::PageId, u64> = HashMap::new();
    for (_, e) in m.journal.entries() {
        if e.state == TxnState::Prepared {
            *refs.entry((e.dst_tier, e.dst_phys)).or_insert(0) += 1;
            note_owner((e.dst_tier, e.dst_phys), e.tenant);
        }
        *journaled.entry(e.page).or_insert(0) += 1;
    }
    let mut doubled_pages: Vec<(hemem_vmm::PageId, u64)> =
        journaled.into_iter().filter(|&(_, n)| n > 1).collect();
    doubled_pages.sort_by_key(|&(p, _)| (p.region, p.index));
    for (page, entries) in doubled_pages {
        v.push(AuditViolation::DoubleJournaledPage { page, entries });
    }
    if m.journal.protocol_errors() > 0 {
        v.push(AuditViolation::JournalProtocolViolation {
            count: m.journal.protocol_errors(),
        });
    }
    let mut doubled: Vec<(Tier, PhysPage)> = refs
        .iter()
        .filter(|&(_, &n)| n > 1)
        .map(|(&k, _)| k)
        .collect();
    doubled.sort_by_key(|&(tier, phys)| (tier.rank(), phys.0));
    for (tier, phys) in doubled {
        v.push(AuditViolation::DoubleMappedFrame { tier, phys });
    }

    // 2b. No frame shared across tenants, counting both mappings and
    // in-flight migration destinations.
    crossed.sort_by_key(|&(tier, phys, ..)| (tier.rank(), phys.0));
    for (tier, phys, first, second) in crossed {
        v.push(AuditViolation::CrossTenantFrame {
            tier,
            phys,
            first,
            second,
        });
    }

    // 3. Allocated counts agree with the reference walk.
    for &tier in m.tiers() {
        let referenced = refs.keys().filter(|&&(t, _)| t == tier).count() as u64;
        let allocated = m.pool(tier).allocated_pages();
        if referenced != allocated {
            v.push(AuditViolation::AllocationMismatch {
                tier,
                allocated,
                referenced,
            });
        }
    }

    // 4. Journal quiescence.
    if expect_quiescent && !m.journal.is_empty() {
        let outstanding = m.journal.entries().count() as u64;
        v.push(AuditViolation::JournalNotQuiescent { outstanding });
    }

    // 5. Failure-domain invariants. A tier whose evacuation has reported
    // completion must be truly drained — nothing referencing its frames
    // and nothing allocated in its pool — and every tier's pool must
    // agree with the machine's health ledger on degraded capacity.
    for &tier in m.tiers() {
        let rank = tier.rank();
        if m.tier_health(tier) == crate::machine::TierHealth::Offline && m.health.evac_done[rank] {
            let referenced = refs.keys().filter(|&&(t, _)| t == tier).count() as u64;
            let allocated = m.pool(tier).allocated_pages();
            if referenced > 0 {
                v.push(AuditViolation::FramesOnOfflineTier {
                    tier,
                    frames: referenced,
                });
            } else if allocated > 0 {
                v.push(AuditViolation::EvacuationLeak { tier, allocated });
            }
        }
        let pool_retired = m.pool(tier).health_retired_pages();
        let recorded = m.health.health_retired[rank];
        if pool_retired != recorded {
            v.push(AuditViolation::DegradedCapacityMismatch {
                tier,
                pool_retired,
                recorded,
            });
        }
    }

    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use hemem_vmm::{PageId, PageSize, RegionId};

    fn machine() -> MachineCore {
        MachineCore::new(MachineConfig::small(1, 4))
    }

    fn map_one(m: &mut MachineCore) -> (RegionId, PhysPage) {
        let id = m
            .space
            .mmap(4 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        let phys = m.pool_mut(Tier::Dram).alloc().expect("frame");
        m.space.region_mut(id).map_page(0, Tier::Dram, phys);
        (id, phys)
    }

    #[test]
    fn clean_machine_audits_clean() {
        let mut m = machine();
        map_one(&mut m);
        assert_eq!(audit_machine(&m, true), Vec::new());
    }

    #[test]
    fn residency_index_disagreeing_with_the_walk_is_flagged() {
        let mut m = machine();
        let (id, _) = map_one(&mut m);
        let nvm = m.pool_mut(Tier::Nvm).alloc().expect("frame");
        m.space.region_mut(id).map_page(1, Tier::Nvm, nvm);
        let region = m.space.region(id);
        assert_eq!(
            residency_index_mismatches(region, [1, 1, 0]).count(),
            0,
            "the true walk agrees with the index"
        );
        // A walk that finds one more NVM page than the index holds, as
        // if a remap onto NVM had skipped the index update.
        let v: Vec<AuditViolation> = residency_index_mismatches(region, [1, 2, 0]).collect();
        let want = AuditViolation::ResidencyIndexMismatch {
            region: id,
            tier: Tier::Nvm,
            indexed: 1,
            walked: 2,
        };
        assert_eq!(v, vec![want]);
        assert!(want.to_string().contains("Nvm index holds 1 pages"));
        assert_eq!(audit_machine(&m, true), Vec::new());
    }

    #[test]
    fn double_mapped_frame_is_flagged() {
        let mut m = machine();
        let (id, phys) = map_one(&mut m);
        // Map a second page onto the same frame without allocating.
        m.space.region_mut(id).map_page(1, Tier::Dram, phys);
        let v = audit_machine(&m, true);
        assert!(v.contains(&AuditViolation::DoubleMappedFrame {
            tier: Tier::Dram,
            phys
        }));
        // One distinct frame referenced and one allocated, so the double
        // reference is the only violation.
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn leaked_frame_is_an_allocation_mismatch() {
        let mut m = machine();
        map_one(&mut m);
        let _leak = m.pool_mut(Tier::Dram).alloc().expect("frame"); // never mapped
        let v = audit_machine(&m, true);
        assert_eq!(
            v,
            vec![AuditViolation::AllocationMismatch {
                tier: Tier::Dram,
                allocated: 2,
                referenced: 1,
            }]
        );
    }

    #[test]
    fn cross_tenant_frame_is_flagged() {
        let mut m = machine();
        let (_, phys) = map_one(&mut m);
        // A second tenant's region mapped onto the same frame: both a
        // double reference and a tenant-isolation breach.
        let other = m.space.mmap_tagged(
            4 << 21,
            PageSize::Huge2M,
            RegionKind::ManagedHeap,
            TenantId(1),
        );
        m.space.region_mut(other).map_page(0, Tier::Dram, phys);
        let v = audit_machine(&m, true);
        assert!(v.contains(&AuditViolation::DoubleMappedFrame {
            tier: Tier::Dram,
            phys
        }));
        assert!(v.contains(&AuditViolation::CrossTenantFrame {
            tier: Tier::Dram,
            phys,
            first: TenantId::SOLO,
            second: TenantId(1),
        }));
    }

    #[test]
    fn clean_shadow_on_a_dram_page_audits_clean() {
        let mut m = machine();
        let (id, _) = map_one(&mut m);
        let shadow = m.pool_mut(Tier::Nvm).alloc().expect("frame");
        m.space.region_mut(id).set_shadow(0, shadow);
        m.pool_mut(Tier::Nvm).note_shadow();
        assert_eq!(audit_machine(&m, true), Vec::new());
    }

    #[test]
    fn shadow_without_a_dram_primary_is_stale() {
        let mut m = machine();
        let (id, _) = map_one(&mut m);
        // Shadow on a page that was never mapped: primary is None.
        let shadow = m.pool_mut(Tier::Nvm).alloc().expect("frame");
        m.space.region_mut(id).set_shadow(1, shadow);
        m.pool_mut(Tier::Nvm).note_shadow();
        let v = audit_machine(&m, true);
        assert!(v.contains(&AuditViolation::StaleShadowMapped {
            page: PageId {
                region: id,
                index: 1
            },
            primary: None,
        }));
    }

    #[test]
    fn shadow_count_disagreement_is_a_leak() {
        let mut m = machine();
        let (id, _) = map_one(&mut m);
        // Shadow recorded in the space but never counted by the pool.
        let shadow = m.pool_mut(Tier::Nvm).alloc().expect("frame");
        m.space.region_mut(id).set_shadow(0, shadow);
        let v = audit_machine(&m, true);
        assert!(v.contains(&AuditViolation::ShadowFrameLeak {
            pool_held: 0,
            mapped: 1,
        }));
    }

    #[test]
    fn two_outstanding_entries_for_one_page_are_flagged() {
        let mut m = machine();
        let (id, src_phys) = map_one(&mut m);
        let page = PageId {
            region: id,
            index: 0,
        };
        let d1 = m.pool_mut(Tier::Nvm).alloc().expect("frame");
        let d2 = m.pool_mut(Tier::Nvm).alloc().expect("frame");
        m.journal
            .prepare(0, page, TenantId::SOLO, Tier::Dram, src_phys, Tier::Nvm, d1);
        m.journal
            .prepare(1, page, TenantId::SOLO, Tier::Dram, src_phys, Tier::Nvm, d2);
        let v = audit_machine(&m, false);
        assert!(v.contains(&AuditViolation::DoubleJournaledPage { page, entries: 2 }));
    }

    #[test]
    fn journal_protocol_errors_surface_in_the_audit() {
        let mut m = machine();
        let (id, src_phys) = map_one(&mut m);
        let page = PageId {
            region: id,
            index: 0,
        };
        let dst = m.pool_mut(Tier::Nvm).alloc().expect("frame");
        m.journal.prepare(
            7,
            page,
            TenantId::SOLO,
            Tier::Dram,
            src_phys,
            Tier::Nvm,
            dst,
        );
        assert!(m
            .journal
            .try_prepare(
                7,
                page,
                TenantId::SOLO,
                Tier::Dram,
                src_phys,
                Tier::Nvm,
                dst,
                crate::journal::ShadowIntent::Drop,
            )
            .is_err());
        let v = audit_machine(&m, false);
        assert!(v.contains(&AuditViolation::JournalProtocolViolation { count: 1 }));
    }

    #[test]
    fn prepared_journal_entry_accounts_for_its_frame() {
        let mut m = machine();
        let (id, src_phys) = map_one(&mut m);
        let dst = m.pool_mut(Tier::Nvm).alloc().expect("frame");
        let page = PageId {
            region: id,
            index: 0,
        };
        m.journal.prepare(
            0,
            page,
            TenantId::SOLO,
            Tier::Dram,
            src_phys,
            Tier::Nvm,
            dst,
        );
        // Non-quiescent audit: the in-flight destination frame balances
        // the NVM pool's allocated count.
        assert_eq!(audit_machine(&m, false), Vec::new());
        // Quiescent audit: the outstanding entry itself is the violation.
        assert_eq!(
            audit_machine(&m, true),
            vec![AuditViolation::JournalNotQuiescent { outstanding: 1 }]
        );
    }
}
