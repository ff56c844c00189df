//! The simulated machine: devices, caches, TLB, page pools, PEBS, DMA,
//! cores, and a process address space.
//!
//! [`MachineCore`] holds all hardware/OS state shared between the event
//! loop ([`crate::runtime::Sim`]) and the tiered backend. It corresponds
//! to one socket of the paper's evaluation platform (§5): 24 cores,
//! 192 GB DDR4, 768 GB Optane DC, a 100 GbE NIC we do not model, and an
//! I/OAT DMA engine.

use hemem_memdev::{
    Device, DeviceConfig, DmaConfig, DmaEngine, Llc, MemOp, Reservation, SsdConfig, SsdDevice, GIB,
};
use hemem_pebs::{Pebs, PebsConfig, SampleRecord, SampleType};
use hemem_sim::{CoreModel, FaultPlan, FaultPlanConfig, Histogram, Ns, Rng, Tracer};
use hemem_vmm::{
    AddressSpace, FaultStats, FaultThread, PageId, PageSize, PageState, PhysPage, PhysPool, Tier,
    Tlb,
};

use crate::backend::Traffic;
use crate::journal::MigrationJournal;

/// Page size of managed (large heap) regions and of the physical page
/// pools: HeMem manages 2 MB pages (§3).
pub const MANAGED_PAGE: PageSize = PageSize::Huge2M;

/// Shared LLC capacity of the evaluation socket (33 MB).
const LLC_BYTES: u64 = 33 * 1024 * 1024;

/// Full machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Cores on the socket.
    pub cores: u32,
    /// DRAM device parameters.
    pub dram: DeviceConfig,
    /// NVM device parameters.
    pub nvm: DeviceConfig,
    /// PEBS parameters.
    pub pebs: PebsConfig,
    /// DMA engine parameters.
    pub dma: DmaConfig,
    /// Optional third capacity tier (§3.4's slowest tier): a
    /// block-style SSD swap device that pages are *placed on* (they stay
    /// mapped, tier `Ssd`). `None` (the default) leaves the machine a
    /// two-tier DRAM/NVM box with every tier-3 path unreachable.
    pub ssd: Option<SsdConfig>,
    /// Fault-injection plan; [`FaultPlanConfig::none`] (the default)
    /// injects nothing.
    pub chaos: FaultPlanConfig,
    /// Watchdog supervision (see `crate::runtime::Sim`); `false` (the
    /// default) disables the monitor unless the fault plan schedules
    /// manager kills, which force it on so the machine can recover.
    pub watchdog: bool,
    /// Interval of the online invariant audit; `None` (the default)
    /// disables periodic auditing (it stays available on demand).
    pub audit_period: Option<Ns>,
    /// Capture structured trace events ([`hemem_sim::trace`]); `false`
    /// (the default) leaves the event buffer empty. Latency histograms
    /// and policy attribution counters accumulate either way. Tracing
    /// never touches the RNG or the event queue, so enabling it cannot
    /// change any simulation outcome.
    pub trace: bool,
    /// When a tier goes offline (`FaultPlanConfig::tier_fail_at`), drain
    /// its resident pages out through the journaled migration path
    /// (`true`, the default). `false` skips evacuation and poisons every
    /// resident page immediately — the no-recovery baseline `failbench`
    /// compares against.
    pub evacuate_on_failure: bool,
    /// Non-exclusive tiering (Nomad-style): when a page is promoted
    /// NVM → DRAM, retain the NVM frame as a clean shadow so an
    /// unmodified page can later demote by remap alone — zero bytes
    /// moved. `false` (the default) is exclusive tiering: with no
    /// shadows ever created, every shadow-handling path is a no-op and
    /// runs are byte-identical to builds that predate the feature.
    pub nvm_shadows: bool,
    /// RNG seed; two runs with the same seed are identical.
    pub seed: u64,
}

impl MachineConfig {
    /// The paper's evaluation socket: 24-core Cascade Lake, 192 GB DRAM,
    /// 768 GB Optane DC.
    pub fn paper_testbed() -> MachineConfig {
        MachineConfig {
            cores: 24,
            dram: DeviceConfig::ddr4_dram(192 * GIB),
            nvm: DeviceConfig::optane_dc(768 * GIB),
            pebs: PebsConfig::default(),
            dma: DmaConfig::ioat(),
            ssd: None,
            chaos: FaultPlanConfig::none(),
            watchdog: false,
            audit_period: None,
            trace: false,
            evacuate_on_failure: true,
            nvm_shadows: false,
            seed: 0x4E564D_48454D45, // "NVM HEME"
        }
    }

    /// Enables non-exclusive tiering (clean NVM shadow pages).
    pub fn with_shadows(mut self) -> MachineConfig {
        self.nvm_shadows = true;
        self
    }

    /// Adds a third capacity tier: an NVMe swap device of `capacity`
    /// bytes that holds mapped `Tier::Ssd` pages.
    pub fn with_tier3(mut self, capacity: u64) -> MachineConfig {
        self.ssd = Some(SsdConfig::nvme(capacity));
        self
    }

    /// A smaller machine (capacities in GiB) for fast tests; all ratios
    /// preserved.
    pub fn small(dram_gib: u64, nvm_gib: u64) -> MachineConfig {
        let mut c = MachineConfig::paper_testbed();
        c.dram = DeviceConfig::ddr4_dram(dram_gib * GIB);
        c.nvm = DeviceConfig::optane_dc(nvm_gib * GIB);
        c
    }
}

/// Machine-level cumulative counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct MachineStats {
    /// Pages demoted onto the SSD tier by direct reclaim.
    pub swap_outs: u64,
    /// SSD-resident pages promoted back by a major fault.
    pub swap_ins: u64,
    /// Application accesses completed.
    pub ops: u64,
    /// Writes that stalled on a write-protected (migrating) page.
    pub wp_stalls: u64,
    /// Page migrations started.
    pub migrations_started: u64,
    /// Page migrations completed.
    pub migrations_done: u64,
    /// Bytes moved by completed migrations.
    pub migrated_bytes: u64,
    /// Migrations aborted (no free page on the destination tier).
    pub migrations_aborted: u64,
    /// Migrations started but lost to an injected failure (e.g. a media
    /// error on the destination page); the source mapping stays intact.
    pub migrations_failed: u64,
    /// DMA submissions retried after an injected failure.
    pub dma_retries: u64,
    /// DMA batches that exhausted their retries and fell back to copy
    /// threads.
    pub dma_fallbacks: u64,
    /// NVM pages retired to the poisoned list after media errors.
    pub pages_retired: u64,
}

/// Crash/recovery and supervision counters.
///
/// Kept separate from [`MachineStats`] so clean runs (no kills, no
/// watchdog, no auditing) print byte-identical stats to builds that
/// predate the recovery layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryStats {
    /// Injected manager kills taken.
    pub manager_kills: u64,
    /// Journal entries replayed during recovery (rollbacks plus
    /// roll-forwards of already-committed transactions).
    pub journal_replays: u64,
    /// Prepared migrations rolled back during recovery.
    pub journal_rollbacks: u64,
    /// Always 0: the unmap-to-slot swap path that counted here is gone;
    /// kept so fingerprints and telemetry CSVs stay byte-identical.
    pub swap_rollbacks: u64,
    /// Components restarted by the watchdog (manager restarts plus
    /// fault-thread resets).
    pub watchdog_restarts: u64,
    /// Invariant-audit violations observed (each violation instance
    /// counts once per audit that sees it).
    pub audit_violations: u64,
    /// Injected tenant kills taken.
    pub tenant_kills: u64,
    /// Tenants fully drained and retired after a kill or departure.
    pub tenant_drains: u64,
}

/// Non-exclusive tiering (shadow page) counters.
///
/// Kept separate from [`MachineStats`] so shadow-free runs (the knob
/// off, or simply no shadows created yet) print byte-identical stats to
/// builds that predate the feature.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShadowStats {
    /// NVM frames retained as clean shadows at promotion commit.
    pub retained: u64,
    /// Retain intents dirtied by a write inside the protection window
    /// (the promotion committed exclusively).
    pub dirtied_wp: u64,
    /// Clean shadows invalidated by a sampled store to the promoted
    /// page after commit.
    pub invalidated_store: u64,
    /// Zero-copy demotions: pages flipped back onto their clean shadow
    /// frame with no copy, no DMA job, and no journal transaction.
    pub remap_demotions: u64,
    /// Bytes those remap demotions did *not* move (the bandwidth the
    /// exclusive path would have spent).
    pub remap_demoted_bytes: u64,
    /// Shadow frames reclaimed back to the free list under NVM
    /// allocation pressure or the NVM watermark.
    pub reclaimed: u64,
    /// Shadow frames dropped for any other reason (page unmapped,
    /// poisoned, tenant drained, tier offline).
    pub dropped: u64,
    /// Stale shadows freed by watchdog recovery's reconcile walk.
    pub reconciled: u64,
}

/// Health lifecycle of one memory device: `Healthy -> Degraded ->
/// Offline -> (readmit) Healthy`. Driven by the seeded
/// `tier_degrade_at` / `tier_fail_at` / `tier_readmit_at` schedules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TierHealth {
    /// Full bandwidth, full capacity.
    #[default]
    Healthy,
    /// Wear-retirement accelerating: bandwidth throttled, part of the
    /// free capacity retired. Still serves resident pages.
    Degraded,
    /// Device dropped off the bus: no allocations, resident pages must
    /// be evacuated or are lost (poisoned).
    Offline,
}

/// Per-device health-lifecycle state and data-loss accounting.
///
/// Kept out of [`MachineStats`] / [`RecoveryStats`] so runs without a
/// tier schedule print byte-identical stats to builds that predate the
/// failure-domain layer. Indexed by [`Tier::rank`].
#[derive(Debug, Clone, Default)]
pub struct HealthState {
    /// Current health of each tier.
    pub health: [TierHealth; 3],
    /// Pages shed from each tier's free list while degraded (mirrors
    /// `PhysPool::health_retired_pages`; audited for conservation).
    pub health_retired: [u64; 3],
    /// Whether an offline tier's evacuation has fully drained it.
    pub evac_done: [bool; 3],
    /// Degrade transitions taken.
    pub degrades: u64,
    /// Offline transitions taken.
    pub offlines: u64,
    /// Readmit transitions taken.
    pub readmits: u64,
    /// Pages moved off a failing tier by the evacuation engine.
    pub evacuated_pages: u64,
    /// Pages lost on a dead device (typed data loss, never silent).
    pub poisoned_pages: u64,
    /// Faults that hit a poisoned page and surfaced the loss to the
    /// owning tenant before remapping a fresh zero page.
    pub poison_faults: u64,
    /// Poisoned-page count per owning tenant slot.
    pub tenant_poisoned: std::collections::BTreeMap<u32, u64>,
}

/// All hardware and OS state of the simulated machine.
pub struct MachineCore {
    /// Static configuration.
    pub cfg: MachineConfig,
    /// DRAM device.
    pub dram: Device,
    /// NVM device.
    pub nvm: Device,
    /// Shared last-level cache.
    pub llc: Llc,
    /// TLB and shootdown model.
    pub tlb: Tlb,
    /// I/OAT DMA engine.
    pub dma: DmaEngine,
    /// Physical page pools (managed-page granularity), indexed by
    /// [`Tier::rank`]. The SSD pool is always present so tier dispatch
    /// never branches on configuration; it has zero pages when no SSD is
    /// configured.
    pools: [PhysPool; 3],
    /// The process address space under management.
    pub space: AddressSpace,
    /// PEBS unit.
    pub pebs: Pebs,
    /// Core occupancy model.
    pub cores: CoreModel,
    /// Deterministic random stream.
    pub rng: Rng,
    /// Fault counters.
    pub fault_stats: FaultStats,
    /// The single userfaultfd handler thread (faults queue behind it).
    pub fault_thread: FaultThread,
    /// Machine counters.
    pub stats: MachineStats,
    /// Crash/recovery and supervision counters.
    pub recovery: RecoveryStats,
    /// Write-ahead migration journal: every in-flight migration is a
    /// prepared transaction here until its mapping flip commits.
    pub journal: MigrationJournal,
    /// Optional tier-3 SSD swap device (queue-depth-limited block model).
    pub ssd: Option<SsdDevice>,
    /// Fault-injection plan (deterministic; its streams are independent
    /// of `rng`, so enabling faults never perturbs the workload draws).
    pub chaos: FaultPlan,
    /// Structured tracing: span/instant events (when enabled), latency
    /// histograms, and policy decision attribution (always).
    pub trace: Tracer,
    /// Per-tenant major-fault service-time histograms (tier-3 swap-ins),
    /// keyed by (tenant slot, slot generation). The global `trace`
    /// histogram mixes every tenant together; fault-isolation gates need
    /// the survivor's tail separated from a storm-afflicted neighbor's,
    /// and fleet gates need a recycled slot's new occupant separated
    /// from its predecessors. BTreeMap keeps iteration order
    /// deterministic.
    pub tenant_major_faults: std::collections::BTreeMap<(u32, u32), Histogram>,
    /// Per-device health lifecycle and data-loss accounting.
    pub health: HealthState,
    /// Non-exclusive tiering (shadow page) counters.
    pub shadow: ShadowStats,
}

impl MachineCore {
    /// Builds an idle machine from `cfg`.
    pub fn new(cfg: MachineConfig) -> MachineCore {
        let mut rng = Rng::new(cfg.seed);
        MachineCore {
            dram: Device::new(cfg.dram.clone()),
            nvm: Device::new(cfg.nvm.clone()),
            llc: Llc::new(LLC_BYTES, Ns::nanos(20)),
            tlb: Tlb::default(),
            dma: DmaEngine::new(cfg.dma.clone()),
            pools: Tier::ALL.map(|tier| {
                let capacity = match tier {
                    Tier::Dram => cfg.dram.capacity,
                    Tier::Nvm => cfg.nvm.capacity,
                    Tier::Ssd => cfg.ssd.as_ref().map_or(0, |s| s.capacity),
                };
                PhysPool::new(tier, capacity, MANAGED_PAGE)
            }),
            space: AddressSpace::new(),
            pebs: Pebs::new(cfg.pebs.clone()),
            cores: CoreModel::new(cfg.cores),
            rng: rng.fork(1),
            fault_stats: FaultStats::default(),
            fault_thread: FaultThread::new(),
            stats: MachineStats::default(),
            recovery: RecoveryStats::default(),
            journal: MigrationJournal::new(),
            ssd: cfg.ssd.clone().map(SsdDevice::new),
            chaos: FaultPlan::new(cfg.chaos.clone()),
            trace: Tracer::new(cfg.trace),
            tenant_major_faults: std::collections::BTreeMap::new(),
            health: HealthState::default(),
            shadow: ShadowStats::default(),
            cfg,
        }
    }

    /// Whether the third capacity tier is configured.
    pub fn has_ssd(&self) -> bool {
        self.ssd.is_some()
    }

    /// The ordered tier vector of this machine, fastest first. Placement
    /// and audit code iterates this instead of naming tiers, so a
    /// two-tier box never even sees `Tier::Ssd`.
    pub fn tiers(&self) -> &'static [Tier] {
        let n = if self.has_ssd() { 3 } else { 2 };
        &Tier::ALL[..n]
    }

    /// Byte-addressable device for a tier. The SSD is block-style and
    /// has no fluid-server model; route its traffic through
    /// [`MachineCore::reserve_tier_bulk`].
    pub fn device(&self, tier: Tier) -> &Device {
        match tier {
            Tier::Dram => &self.dram,
            Tier::Nvm => &self.nvm,
            Tier::Ssd => panic!("SSD is not byte-addressable; use reserve_tier_bulk"),
        }
    }

    /// Mutable byte-addressable device for a tier (see
    /// [`MachineCore::device`] for the SSD caveat).
    pub fn device_mut(&mut self, tier: Tier) -> &mut Device {
        match tier {
            Tier::Dram => &mut self.dram,
            Tier::Nvm => &mut self.nvm,
            Tier::Ssd => panic!("SSD is not byte-addressable; use reserve_tier_bulk"),
        }
    }

    /// Pool for a tier.
    pub fn pool(&self, tier: Tier) -> &PhysPool {
        &self.pools[tier.rank()]
    }

    /// Mutable pool for a tier.
    pub fn pool_mut(&mut self, tier: Tier) -> &mut PhysPool {
        &mut self.pools[tier.rank()]
    }

    /// Draws whether a write to frame `phys` of `tier` hits an injected
    /// media error, from that tier's fault stream; the likelihood grows
    /// with the frame's recorded wear. DRAM draws nothing.
    pub fn media_error(&mut self, tier: Tier, phys: PhysPage) -> bool {
        let draw = match tier {
            Tier::Dram => return false,
            Tier::Nvm => FaultPlan::nvm_media_error,
            Tier::Ssd => FaultPlan::ssd_media_error,
        };
        let wear = self.pool(tier).wear(phys);
        draw(&mut self.chaos, wear)
    }

    /// Returns a shadow frame to the NVM free list.
    pub fn free_shadow_frame(&mut self, phys: PhysPage) {
        let nvm = self.pool_mut(Tier::Nvm);
        nvm.free(phys);
        nvm.note_unshadow();
    }

    /// Reserves a bulk (page-sized) transfer on any tier's device: the
    /// fluid bulk servers for DRAM/NVM, the queue-slot model for the SSD.
    /// `rate_cap` applies only to the byte-addressable tiers.
    pub fn reserve_tier_bulk(
        &mut self,
        now: Ns,
        tier: Tier,
        op: MemOp,
        bytes: u64,
        rate_cap: Option<f64>,
    ) -> Reservation {
        match tier {
            Tier::Dram | Tier::Nvm => self.device_mut(tier).reserve_bulk(now, op, bytes, rate_cap),
            Tier::Ssd => self
                .ssd
                .as_mut()
                .expect("tier-3 transfer without an SSD configured")
                .transfer(now, op, bytes),
        }
    }

    /// Queueing delay a bulk transfer would currently see on a tier.
    pub fn tier_bulk_queue_delay(&self, now: Ns, tier: Tier, op: MemOp) -> Ns {
        match tier {
            Tier::Dram | Tier::Nvm => self.device(tier).bulk_queue_delay(now, op),
            Tier::Ssd => self.ssd.as_ref().map_or(Ns::ZERO, |s| s.queue_delay(now)),
        }
    }

    /// Reserves device service for one traffic class; returns the
    /// reservation (zero-length when the rounded count is zero).
    pub fn reserve_traffic(&mut self, now: Ns, t: &Traffic) -> Reservation {
        let count = self.rng.round_stochastic(t.count);
        self.device_mut(t.tier)
            .reserve(now, t.op, t.pattern, t.size as u64, count)
    }

    /// Current health of a tier.
    pub fn tier_health(&self, tier: Tier) -> TierHealth {
        self.health.health[tier.rank()]
    }

    /// Whether a tier accepts allocations and migrations (not offline).
    pub fn tier_online(&self, tier: Tier) -> bool {
        self.tier_health(tier) != TierHealth::Offline
    }

    /// Sets the health-lifecycle bandwidth multiplier on a tier's device.
    pub fn set_tier_throttle(&mut self, tier: Tier, throttle: f64) {
        match tier {
            Tier::Dram | Tier::Nvm => self.device_mut(tier).set_throttle(throttle),
            Tier::Ssd => {
                if let Some(ssd) = self.ssd.as_mut() {
                    ssd.set_throttle(throttle);
                }
            }
        }
    }

    /// NVM media-level write counter (the wear metric of Figure 16).
    pub fn nvm_wear_bytes(&self) -> u64 {
        self.nvm.stats().media_bytes_written
    }

    /// Bytes free in the DRAM pool.
    pub fn dram_free_bytes(&self) -> u64 {
        self.pool(Tier::Dram).free_bytes()
    }

    /// Zero-copy demotion (non-exclusive tiering): if `page` is
    /// DRAM-resident, not write-protected, and still has a clean NVM
    /// shadow, flip the mapping back onto the shadow frame and free the
    /// DRAM frame — no copy, no DMA job, no journal transaction. The
    /// `wp: false` guard means no journaled migration can be in flight
    /// on the page (prepare write-protects for the whole window).
    /// Returns whether the remap happened.
    pub fn shadow_remap_demote(&mut self, page: PageId) -> bool {
        if !self.tier_online(Tier::Nvm) {
            return false;
        }
        let region = self.space.region_mut(page.region);
        match region.state(page.index) {
            PageState::Mapped {
                tier: Tier::Dram,
                wp: false,
                ..
            } => {}
            _ => return false,
        }
        let Some(shadow) = region.take_shadow(page.index) else {
            return false;
        };
        let bytes = region.page_size().bytes();
        let (old_tier, old_phys) = region.remap_page(page.index, Tier::Nvm, shadow);
        debug_assert_eq!(old_tier, Tier::Dram, "shadowed page not DRAM-resident");
        self.pool_mut(old_tier).free(old_phys);
        self.pool_mut(Tier::Nvm).note_unshadow();
        // No NVM wear: the frame already holds the bytes. Only the TLB
        // pays, exactly like a journaled remap would.
        let cores = self.cores.cores();
        self.tlb.shootdown(cores);
        self.shadow.remap_demotions += 1;
        self.shadow.remap_demoted_bytes += bytes;
        true
    }

    /// Frees `page`'s clean shadow frame, if any (the page was written,
    /// poisoned, or copy-demoted, so the stale NVM copy
    /// must not survive as a demotion target). Callers bump the
    /// [`ShadowStats`] counter matching their reason. Returns whether a
    /// shadow was dropped.
    pub fn drop_shadow_of(&mut self, page: PageId) -> bool {
        let Some(phys) = self.space.region_mut(page.region).take_shadow(page.index) else {
            return false;
        };
        self.free_shadow_frame(phys);
        true
    }

    /// Reclaims up to `want` shadow frames back to the NVM free list,
    /// lowest region id then lowest page index first (deterministic).
    /// Shadow frames are free capacity in disguise: allocation pressure
    /// and the NVM watermark call this before spilling, swapping, or
    /// demoting anything real. Returns how many frames came back.
    pub fn reclaim_shadow_frames(&mut self, want: u64) -> u64 {
        if want == 0 || self.pool(Tier::Nvm).shadow_held_pages() == 0 {
            return 0;
        }
        let ids: Vec<hemem_vmm::RegionId> = self.space.regions().map(|r| r.id()).collect();
        let mut got = 0;
        'regions: for id in ids {
            while got < want {
                let Some((_, phys)) = self.space.region_mut(id).take_first_shadow() else {
                    break;
                };
                self.free_shadow_frame(phys);
                got += 1;
            }
            if got >= want {
                break 'regions;
            }
        }
        self.shadow.reclaimed += got;
        got
    }

    /// Drops every shadow frame in the machine (the NVM tier went
    /// offline, or a full teardown). Returns how many were freed.
    pub fn drop_all_shadows(&mut self) -> u64 {
        if self.pool(Tier::Nvm).shadow_held_pages() == 0 {
            return 0;
        }
        let ids: Vec<hemem_vmm::RegionId> = self.space.regions().map(|r| r.id()).collect();
        let mut n = 0;
        for id in ids {
            while let Some((_, phys)) = self.space.region_mut(id).take_first_shadow() {
                self.free_shadow_frame(phys);
                n += 1;
            }
        }
        self.shadow.dropped += n;
        n
    }

    /// PEBS `Store` samples are the only per-page write observations the
    /// host gets, so they drive shadow invalidation: a store to a page
    /// with a committed shadow drops it (DRAM copy diverged), and a store
    /// to a page whose promotion is still in flight dirties the journaled
    /// retain intent before it can become a shadow.
    pub fn invalidate_shadows_on_stores(&mut self, samples: &[SampleRecord]) {
        // Fast path: nothing retained anywhere — the common case with
        // shadows disabled, and the reason this hook costs nothing there.
        if self.pool(Tier::Nvm).shadow_held_pages() == 0 && self.journal.retained_intents() == 0 {
            return;
        }
        for s in samples {
            if s.kind != SampleType::Store {
                continue;
            }
            let Some(page) = self.space.page_at(hemem_vmm::VirtAddr(s.vaddr)) else {
                continue;
            };
            if self.drop_shadow_of(page) {
                self.shadow.invalidated_store += 1;
                continue;
            }
            let in_flight = self
                .journal
                .entry_for_page(page)
                .filter(|(_, e)| e.shadow == crate::journal::ShadowIntent::Retain)
                .map(|(id, _)| id);
            if let Some(id) = in_flight {
                if self.journal.dirty_shadow(id) {
                    self.shadow.dirtied_wp += 1;
                }
            }
        }
    }
}

/// Charge helper: zero-fill cost when a fresh page is mapped.
pub fn zero_fill(m: &mut MachineCore, now: Ns, tier: Tier, page_bytes: u64) -> Reservation {
    m.reserve_tier_bulk(now, tier, MemOp::Write, page_bytes, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_memdev::Pattern;

    #[test]
    fn paper_testbed_matches_evaluation_platform() {
        let c = MachineConfig::paper_testbed();
        assert_eq!(c.cores, 24);
        assert_eq!(c.dram.capacity, 192 * GIB);
        assert_eq!(c.nvm.capacity, 768 * GIB);
    }

    #[test]
    fn machine_construction_sizes_pools() {
        let m = MachineCore::new(MachineConfig::small(4, 16));
        assert_eq!(
            m.pool(Tier::Dram).total_pages(),
            4 * 512,
            "4 GiB of 2 MiB pages"
        );
        assert_eq!(m.pool(Tier::Nvm).total_pages(), 16 * 512);
        assert_eq!(m.dram_free_bytes(), 4 * GIB);
    }

    #[test]
    fn reserve_traffic_rounds_and_charges() {
        let mut m = MachineCore::new(MachineConfig::small(1, 4));
        let t = Traffic {
            tier: Tier::Nvm,
            op: MemOp::Write,
            pattern: Pattern::Random,
            size: 64,
            count: 1000.0,
        };
        let r = m.reserve_traffic(Ns::ZERO, &t);
        assert!(r.finish > Ns::ZERO);
        assert_eq!(m.nvm.stats().writes, 1000);
        assert_eq!(
            m.nvm_wear_bytes(),
            256_000,
            "amplified to media granularity"
        );
    }

    #[test]
    fn reserve_traffic_queues_on_its_tier() {
        let mut m = MachineCore::new(MachineConfig::small(1, 4));
        let t = Traffic {
            tier: Tier::Nvm,
            op: MemOp::Read,
            pattern: Pattern::Random,
            size: 4096,
            count: 100_000.0,
        };
        let queued = |m: &MachineCore, tier| m.device(tier).queue_delay(Ns::ZERO, MemOp::Read);
        assert_eq!(queued(&m, Tier::Nvm), Ns::ZERO);
        m.reserve_traffic(Ns::ZERO, &t);
        assert!(queued(&m, Tier::Nvm) > Ns::ZERO);
        assert_eq!(queued(&m, Tier::Dram), Ns::ZERO, "other tiers stay idle");
        assert_eq!(m.device(Tier::Nvm).latency(MemOp::Read), Ns::nanos(175));
    }

    #[test]
    fn zero_fill_charges_destination_device() {
        let mut m = MachineCore::new(MachineConfig::small(1, 4));
        zero_fill(&mut m, Ns::ZERO, Tier::Dram, 2 << 20);
        assert_eq!(m.dram.stats().bytes_written, 2 << 20);
    }

    #[test]
    fn two_tier_machine_hides_the_third_tier() {
        let m = MachineCore::new(MachineConfig::small(1, 4));
        assert!(!m.has_ssd());
        assert_eq!(m.tiers(), &[Tier::Dram, Tier::Nvm]);
        assert_eq!(m.pool(Tier::Ssd).total_pages(), 0, "empty placeholder");
        assert_eq!(
            m.tier_bulk_queue_delay(Ns::ZERO, Tier::Ssd, MemOp::Read),
            Ns::ZERO
        );
    }

    #[test]
    fn tier3_machine_exposes_ordered_tier_vector() {
        let mut m = MachineCore::new(MachineConfig::small(1, 4).with_tier3(8 * GIB));
        assert!(m.has_ssd());
        assert_eq!(m.tiers(), Tier::ALL);
        assert_eq!(m.pool(Tier::Ssd).total_pages(), 8 * 512);
        for &t in m.tiers() {
            let capacity = match t {
                Tier::Dram => m.cfg.dram.capacity,
                Tier::Nvm => m.cfg.nvm.capacity,
                Tier::Ssd => m.cfg.ssd.as_ref().expect("tier-3 config").capacity,
            };
            assert_eq!(m.pool(t).tier(), t);
            assert_eq!(m.pool(t).total_pages(), capacity / MANAGED_PAGE.bytes());
        }
        let r = m.reserve_tier_bulk(Ns::ZERO, Tier::Ssd, MemOp::Write, 2 << 20, None);
        assert!(r.finish > Ns::ZERO);
        assert_eq!(m.ssd.as_ref().unwrap().stats().writes, 1);
    }

    #[test]
    fn media_error_draws_from_the_frames_tier_stream() {
        let mut cfg = MachineConfig::small(1, 4).with_tier3(8 * GIB);
        cfg.chaos.nvm_media_error = 0.3;
        cfg.chaos.nvm_media_wear_scale = 0.1;
        cfg.chaos.ssd_media_error = 0.3;
        cfg.chaos.ssd_media_wear_scale = 0.1;
        let mut m = MachineCore::new(cfg.clone());
        let [dram, nvm, ssd] = Tier::ALL.map(|t| m.pool_mut(t).alloc().expect("frame"));
        m.pool_mut(Tier::Nvm).note_write(nvm, 3);
        m.pool_mut(Tier::Ssd).note_write(ssd, 5);
        let before = m.chaos.stats();
        for _ in 0..64 {
            assert!(!m.media_error(Tier::Dram, dram), "DRAM never errors");
        }
        assert_eq!(m.chaos.stats(), before, "DRAM draws nothing");
        // Interleaved draws on the machine match a fresh plan drawing each
        // tier's stream alone, at each frame's own wear: the tiers never
        // share a stream, and the wear comes from the frame's pool.
        let (nvm_hits, ssd_hits): (Vec<bool>, Vec<bool>) = (0..64)
            .map(|_| (m.media_error(Tier::Nvm, nvm), m.media_error(Tier::Ssd, ssd)))
            .unzip();
        let mut plan = FaultPlan::new(cfg.chaos);
        let nvm_alone: Vec<bool> = (0..64).map(|_| plan.nvm_media_error(3)).collect();
        let ssd_alone: Vec<bool> = (0..64).map(|_| plan.ssd_media_error(5)).collect();
        assert_eq!(nvm_hits, nvm_alone);
        assert_eq!(ssd_hits, ssd_alone);
        assert!(nvm_hits.contains(&true) && nvm_hits.contains(&false));
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = MachineCore::new(MachineConfig::small(1, 1));
        let mut b = MachineCore::new(MachineConfig::small(1, 1));
        for _ in 0..10 {
            assert_eq!(a.rng.next_u64(), b.rng.next_u64());
        }
    }
}
