//! The HeMem tiered-memory manager (§3) — the paper's contribution.
//!
//! HeMem is a user-level library: it intercepts `mmap`, forwards small
//! allocations to the kernel (so ephemeral structures stay in DRAM),
//! manages large heap ranges itself on huge pages, tracks hotness with
//! PEBS samples processed by a dedicated thread, and migrates pages
//! asynchronously under the 10 ms policy thread using DMA offload.

use hemem_pebs::{SampleRecord, TenantDemux};
use hemem_sim::Ns;
use hemem_vmm::{PageId, RegionId, TenantId, Tier, VirtAddr};

use crate::arbiter::{ArbiterPolicy, DramArbiter, TenantSignal};
use crate::backend::{TickOutput, TieredBackend};
use crate::fleet::{BalloonDrain, FleetStats, Lifecycle, SlotPool};
use crate::hemem::policy::{run_policy, run_policy_scoped, PolicyConfig, PolicyScope};
use crate::hemem::tracker::{PageTracker, Queue, TrackerConfig};
use crate::machine::MachineCore;

/// Full HeMem configuration.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct HeMemConfig {
    /// Classification thresholds.
    pub tracker: TrackerConfig,
    /// Migration policy parameters.
    pub policy: PolicyConfig,
    /// Allocations at or above this size are managed; smaller ones are
    /// forwarded to the kernel (§3.3; 1 GB default).
    pub manage_threshold: u64,
    /// Disables migration entirely (tracking-only configurations in the
    /// Figure 8 overhead breakdown). `false` only in ablations.
    pub enable_migration: bool,
    /// Demote cold NVM pages to the SSD capacity tier (§3.4's third
    /// tier) once NVM free space falls below this watermark, keeping the
    /// demotion cascade DRAM→NVM→SSD flowing under pressure; 0 disables
    /// it. Only effective on machines configured with a tier-3 device
    /// (`MachineConfig::with_tier3`). Demoted pages stay mapped on
    /// `Tier::Ssd` and fault back through the device queue on access.
    #[serde(default)]
    pub nvm_watermark: u64,
    /// Consecutive migration aborts that trip a tenant's circuit breaker
    /// on multi-tenant machines; the tripped tenant sits out
    /// `BREAKER_BACKOFF_TICKS` policy passes and then probes half-open.
    /// Lower values make the breaker more aggressive under injected
    /// fault storms; the default of 8 tolerates sporadic aborts.
    #[serde(default = "default_breaker_threshold")]
    pub breaker_threshold: u32,
}

fn default_breaker_threshold() -> u32 {
    BREAKER_THRESHOLD
}

impl Default for HeMemConfig {
    fn default() -> Self {
        HeMemConfig::paper()
    }
}

impl HeMemConfig {
    /// Paper defaults.
    pub fn paper() -> HeMemConfig {
        HeMemConfig {
            tracker: TrackerConfig::default(),
            policy: PolicyConfig::default(),
            manage_threshold: 1 << 30,
            enable_migration: true,
            nvm_watermark: 0,
            breaker_threshold: default_breaker_threshold(),
        }
    }

    /// Paper defaults with the DRAM watermark and manage threshold scaled
    /// down proportionally for machines smaller than the 192 GB testbed
    /// (the paper's 1 GB watermark is ~0.5% of DRAM).
    pub fn scaled_for(m: &crate::machine::MachineConfig) -> HeMemConfig {
        let mut cfg = HeMemConfig::paper();
        let dram = m.dram.capacity;
        cfg.policy.dram_watermark = cfg.policy.dram_watermark.min(dram / 128).max(4 << 20);
        cfg.manage_threshold = cfg.manage_threshold.min(dram / 32).max(16 << 20);
        cfg
    }
}

/// HeMem manager statistics.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct HeMemStats {
    /// PEBS samples applied to tracked pages.
    pub samples_applied: u64,
    /// Policy passes executed.
    pub policy_runs: u64,
    /// Regions under management.
    pub managed_regions: u64,
    /// Small allocations forwarded to the kernel.
    pub forwarded_allocs: u64,
    /// Per-tenant circuit-breaker trips (consecutive migration aborts
    /// that put a tenant into scheduling backoff).
    #[serde(default)]
    pub breaker_trips: u64,
    /// Ticks on which a slipped balloon deadline forced demotions.
    #[serde(default)]
    pub balloon_escalations: u64,
}

/// Default for [`HeMemConfig::breaker_threshold`]: consecutive migration
/// aborts that trip a tenant's circuit breaker.
const BREAKER_THRESHOLD: u32 = 8;
/// Policy ticks a tripped breaker holds the tenant out of scheduling.
const BREAKER_BACKOFF_TICKS: u32 = 16;
/// Forced demotions per tick once a balloon deadline has slipped.
const BALLOON_ESCALATION_BATCH: usize = 64;

/// The HeMem backend.
///
/// One instance manages one or more tenants: each tenant has its own
/// tracker and policy scope, while the pools, DMA engine, and PEBS unit
/// stay shared. Multi-tenant instances carry a [`DramArbiter`] that
/// owns the DRAM capacity split; single-tenant instances (the default)
/// run the exact pre-colocation code path.
pub struct HeMem {
    cfg: HeMemConfig,
    /// The fleet slot pool: backing store for every tenant instance
    /// (solo included). Spawn claims and resets a slot; teardown
    /// scrubs and recycles it — never a from-scratch rebuild or a
    /// `Vec` regrowth in the hot path.
    pool: SlotPool,
    /// Global DRAM arbiter; created lazily on the first callback that
    /// sees the machine (quotas need the pool's capacity).
    arbiter: Option<DramArbiter>,
    /// The arbiter's starting state, fixed at construction.
    start: ArbiterStart,
    /// Arbiter knob overrides applied at creation.
    realloc_period_ns: Option<u64>,
    realloc_step_pages: Option<u64>,
    /// Per-tenant PEBS stream budgets; multi-tenant only.
    demux: Option<TenantDemux>,
    stats: HeMemStats,
    /// Cumulative bytes of forwarded small allocations: once a growing
    /// region family crosses the manage threshold, HeMem starts managing
    /// further growth (§3.3).
    small_growth: u64,
    /// While set, newly created regions are pinned to DRAM and excluded
    /// from tiering (the per-application priority policy of §5.2.2: a
    /// high-priority instance keeps all its data in fast memory).
    pin_new_regions: bool,
    pinned: std::collections::HashSet<RegionId>,
}

/// How the DRAM arbiter starts once the machine is known.
#[derive(Debug, Clone, Copy)]
enum ArbiterStart {
    /// Single tenant: no arbiter, the solo policy scope.
    None,
    /// Every slot live with an equal split of the fast tier.
    Equal(ArbiterPolicy),
    /// Every slot parked with the whole tier in the host reserve;
    /// tenants join through [`HeMem::admit_tenant`].
    Parked(ArbiterPolicy),
}

impl HeMem {
    /// Creates a single-tenant HeMem instance with the given
    /// configuration.
    pub fn new(cfg: HeMemConfig) -> HeMem {
        HeMem::build(cfg, 1, ArbiterStart::None)
    }

    /// Creates a multi-tenant HeMem instance: `tenants` per-tenant
    /// trackers and policy scopes over the shared machine, with the
    /// global DRAM arbiter splitting the fast tier under `policy`. A
    /// 1-tenant instance built this way behaves byte-identically to
    /// [`HeMem::new`].
    pub fn multi_tenant(cfg: HeMemConfig, tenants: usize, policy: ArbiterPolicy) -> HeMem {
        HeMem::build(cfg, tenants, ArbiterStart::Equal(policy))
    }

    /// Creates a churn-capable instance: `capacity` tenant slots, none
    /// of them admitted. The arbiter starts with the whole tier in the
    /// host reserve and tenants join on an arrival schedule through
    /// [`HeMem::admit_tenant`] (and leave through seeded kills or
    /// retirement). This is the entry point for open-loop
    /// arrival/kill/balloon experiments.
    pub fn churn(cfg: HeMemConfig, capacity: usize, policy: ArbiterPolicy) -> HeMem {
        HeMem::build(cfg, capacity, ArbiterStart::Parked(policy))
    }

    /// The one constructor: `slots` pool slots, live unless the arbiter
    /// starts parked.
    fn build(cfg: HeMemConfig, slots: usize, start: ArbiterStart) -> HeMem {
        let live = !matches!(start, ArbiterStart::Parked(_));
        HeMem {
            pool: SlotPool::new(cfg.tracker, slots, live),
            cfg,
            arbiter: None,
            start,
            realloc_period_ns: None,
            realloc_step_pages: None,
            demux: None,
            stats: HeMemStats::default(),
            small_growth: 0,
            pin_new_regions: false,
            pinned: std::collections::HashSet::new(),
        }
    }

    /// Overrides the arbiter's reallocation period and greedy step
    /// (applied when the arbiter is created).
    pub fn set_arbiter_realloc(&mut self, period: Ns, step_pages: u64) {
        self.realloc_period_ns = Some(period.0);
        self.realloc_step_pages = Some(step_pages);
        if let Some(arb) = &mut self.arbiter {
            arb.set_realloc_period_ns(period.0);
            arb.set_realloc_step_pages(step_pages);
        }
    }

    /// Creates the arbiter once the machine (and so the DRAM capacity)
    /// is known. No-op for a solo instance.
    fn ensure_arbiter(&mut self, m: &MachineCore) {
        if self.arbiter.is_some() {
            return;
        }
        let (total, slots) = (m.pool(Tier::Dram).total_pages(), self.pool.slots.len());
        let mut arb = match self.start {
            ArbiterStart::None => return,
            ArbiterStart::Equal(policy) => DramArbiter::new(policy, total, slots),
            ArbiterStart::Parked(policy) => DramArbiter::deferred(policy, total, slots),
        };
        if let Some(ns) = self.realloc_period_ns {
            arb.set_realloc_period_ns(ns);
        }
        if let Some(step) = self.realloc_step_pages {
            arb.set_realloc_step_pages(step);
        }
        self.arbiter = Some(arb);
    }

    /// Index of the tenant owning `region`.
    fn tenant_index(&self, m: &MachineCore, region: RegionId) -> usize {
        let t = m.space.region(region).tenant();
        let idx = t.0 as usize;
        debug_assert!(idx < self.pool.slots.len(), "region owned by unknown {t}");
        idx.min(self.pool.slots.len() - 1)
    }

    /// Tenant `i`'s policy scope: its unclaimed quota and its shares of
    /// the global watermark, migration budget, and in-flight cap.
    fn scope_for(&self, i: usize, m: &MachineCore) -> PolicyScope {
        let arb = self
            .arbiter
            .as_ref()
            .expect("multi-tenant scope needs the arbiter");
        let t = self.pool.slots[i].id;
        let page_bytes = m.cfg.managed_page.bytes();
        let quota_bytes = arb.quota_pages(t) * page_bytes;
        let claim_bytes = (m.space.tenant_frames(t).dram_pages
            + m.journal.prepared_into_for(t, Tier::Dram))
            * page_bytes;
        // When a reallocation pulls the quota below the tenant's current
        // claim, `free` saturates at zero and would hide the size of the
        // deficit; fold the overshoot into the watermark so demotion
        // pressure scales with how far over quota the tenant is. The
        // budget is floored at one page so a small-quota tenant can
        // always make migration progress toward its (shrinking) quota.
        let overshoot = claim_bytes.saturating_sub(quota_bytes);
        PolicyScope {
            tenant: t,
            free_dram_bytes: quota_bytes.saturating_sub(claim_bytes),
            dram_watermark: arb.share_of(t, self.cfg.policy.dram_watermark) + overshoot,
            budget: arb
                .share_of(t, self.cfg.policy.budget_per_period())
                .max(page_bytes),
            max_inflight_pages: arb.share_of(t, self.cfg.policy.max_inflight_pages).max(1),
            tag_tenant: true,
        }
    }

    /// Toggles priority mode: regions mapped while enabled are pinned to
    /// DRAM and never demoted (per-application policy flexibility, §5.2.2
    /// / Table 4).
    pub fn set_priority(&mut self, enabled: bool) {
        self.pin_new_regions = enabled;
    }

    /// Admits tenant `t` (dynamic join): asks the arbiter for a quota
    /// grant, resets the slot's tracker and breaker state, and marks it
    /// live. Rejected when the slot is out of range, already live, or
    /// the grown live set could not all sit at the quota floor. Emits a
    /// `tenant_admit` lifecycle instant on success.
    pub fn admit_tenant(
        &mut self,
        m: &mut MachineCore,
        t: TenantId,
        now: Ns,
    ) -> Result<u64, crate::arbiter::AdmitError> {
        self.ensure_arbiter(m);
        let arb = self
            .arbiter
            .as_mut()
            .expect("admission needs a multi-tenant instance");
        let granted = arb.admit(t)?;
        let generation = m.space.bump_tenant_generation(t);
        self.pool.claim(t, generation);
        m.trace.instant(
            now,
            "tenant_admit",
            "lifecycle",
            &[("tenant", t.0 as u64), ("granted_pages", granted)],
        );
        Ok(granted)
    }

    /// Balloons live tenant `t` down (or up) to `target_pages` with a
    /// bounded drain deadline: the quota moves immediately and the
    /// arbiter pins it there, so the scoped policy pass sees the
    /// overshoot and demotes toward the watermark. A tick past
    /// `deadline` with the DRAM claim still above target escalates to
    /// forced demotion toward the slowest tier. Returns the quota in
    /// effect (zero when the tenant is not live).
    pub fn balloon_tenant(
        &mut self,
        m: &mut MachineCore,
        t: TenantId,
        target_pages: u64,
        deadline: Ns,
        now: Ns,
    ) -> u64 {
        self.ensure_arbiter(m);
        let Some(arb) = self.arbiter.as_mut() else {
            return 0;
        };
        if !arb.is_live(t) {
            return 0;
        }
        let effective = arb.balloon(t, target_pages);
        self.pool.slots[t.0 as usize].counters.balloon = Some(BalloonDrain {
            target_pages: effective,
            deadline,
        });
        m.trace.instant(
            now,
            "tenant_balloon",
            "lifecycle",
            &[
                ("tenant", t.0 as u64),
                ("target_pages", effective),
                ("deadline_ns", deadline.as_nanos()),
            ],
        );
        effective
    }

    /// True while tenant `t` is live (admitted, not quarantined or
    /// retired).
    pub fn tenant_is_live(&self, t: TenantId) -> bool {
        self.pool
            .slots
            .get(t.0 as usize)
            .map(|ts| ts.lifecycle == Lifecycle::Live)
            .unwrap_or(false)
    }

    /// True once tenant `t` has fully drained (or was never admitted).
    pub fn tenant_is_retired(&self, t: TenantId) -> bool {
        self.pool
            .slots
            .get(t.0 as usize)
            .map(|ts| ts.lifecycle == Lifecycle::Retired)
            .unwrap_or(false)
    }

    /// Manager statistics.
    pub fn stats(&self) -> &HeMemStats {
        &self.stats
    }

    /// The hotness tracker (for experiment introspection). On a
    /// multi-tenant instance this is tenant 0's tracker.
    pub fn tracker(&self) -> &PageTracker {
        &self.pool.slots[0].tracker
    }

    /// Sets how many pages each pooled slot pre-warms tracker capacity
    /// for at claim time.
    pub fn set_slot_pages(&mut self, pages: u64) {
        self.pool.set_slot_pages(pages);
    }

    /// The slot pool (for experiment introspection).
    pub fn slot_pool(&self) -> &SlotPool {
        &self.pool
    }

    /// Number of tenants this instance manages.
    pub fn tenant_count(&self) -> usize {
        self.pool.slots.len()
    }

    /// The DRAM arbiter, once created (multi-tenant instances only).
    pub fn arbiter(&self) -> Option<&DramArbiter> {
        self.arbiter.as_ref()
    }

    /// Tenant `t`'s cumulative `(dram_loads, nvm_loads)` sample counts —
    /// the raw material of its miss ratio.
    pub fn tenant_loads(&self, t: TenantId) -> (u64, u64) {
        let ts = &self.pool.slots[t.0 as usize];
        (ts.counters.total_dram_loads, ts.counters.total_nvm_loads)
    }

    /// Samples applied to tenant `t`'s tracker.
    pub fn tenant_samples(&self, t: TenantId) -> u64 {
        self.pool.slots[t.0 as usize].counters.samples_applied
    }

    /// Configuration in effect.
    pub fn config(&self) -> &HeMemConfig {
        &self.cfg
    }

    /// Aggregated region-layer counters across every tenant tracker, or
    /// `None` when region tracking is off. `periods` takes the max (the
    /// trackers tick in lockstep), the work counters sum.
    pub fn region_stats(&self) -> Option<crate::hemem::regions::RegionStats> {
        let mut agg: Option<crate::hemem::regions::RegionStats> = None;
        for ts in &self.pool.slots {
            if let Some(s) = ts.tracker.region_stats() {
                agg.get_or_insert_with(Default::default).merge(&s);
            }
        }
        agg
    }
}

/// The tier a first-touch spills to when DRAM is unavailable. A healthy
/// machine always answers NVM (byte-identical to the pre-failure-domain
/// cascade — allocation-time fallback handles a merely-full NVM); with
/// NVM offline the cascade skips to the next online tier (N-1 operation).
fn spill_tier(m: &MachineCore) -> Tier {
    if m.tier_online(Tier::Nvm) {
        return Tier::Nvm;
    }
    m.tiers()
        .iter()
        .copied()
        .find(|&t| t != Tier::Dram && m.tier_online(t))
        .unwrap_or(Tier::Nvm)
}

impl TieredBackend for HeMem {
    fn name(&self) -> &'static str {
        if self.cfg.policy.use_dma {
            "HeMem"
        } else {
            "HeMem-threads"
        }
    }

    fn wants_to_manage(&self, len: u64) -> bool {
        // Manage big allocations, and keep managing once cumulative small
        // growth has crossed the threshold (a region growing via small
        // mmaps is adopted after 1 GB).
        len >= self.cfg.manage_threshold || self.small_growth >= self.cfg.manage_threshold
    }

    fn on_mmap(&mut self, m: &mut MachineCore, region: RegionId) {
        self.ensure_arbiter(m);
        let r = m.space.region(region);
        if r.kind() == hemem_vmm::RegionKind::ManagedHeap {
            if self.pin_new_regions {
                // Pinned regions are invisible to the tracker: never
                // sampled into the queues, never demoted.
                self.pinned.insert(region);
                self.stats.managed_regions += 1;
                return;
            }
            let pages = r.page_count();
            let idx = self.tenant_index(m, region);
            self.pool.slots[idx].tracker.add_region(region, pages);
            self.stats.managed_regions += 1;
        } else {
            self.small_growth += r.range().len;
            self.stats.forwarded_allocs += 1;
        }
    }

    fn on_munmap(&mut self, _m: &mut MachineCore, region: RegionId) {
        self.pinned.remove(&region);
        // The owning tenant's tracker drops the region; for the others
        // this is a no-op.
        for ts in &mut self.pool.slots {
            ts.tracker.remove_region(region);
        }
    }

    fn place(&mut self, m: &mut MachineCore, page: PageId, is_write: bool) -> Tier {
        if self.pinned.contains(&page.region) {
            return Tier::Dram;
        }
        // A major fault on an SSD-resident page asks where the page
        // should come back to. PEBS-hot pages (their counters survived
        // demotion) jump straight to DRAM when there is room; pages that
        // re-fault within a cooling window promote one hop, to NVM; a
        // one-off fault leaves the page on the SSD (second chance).
        // Without that last rule a cold uniform tail would promote on
        // every touch and the resulting demotion writes would saturate
        // the swap device's queue, stalling every subsequent fault.
        if m.has_ssd() {
            if let hemem_vmm::PageState::Mapped {
                tier: Tier::Ssd, ..
            } = m.space.region(page.region).state(page.index)
            {
                let idx = self.tenant_index(m, page.region);
                let tracker = &mut self.pool.slots[idx].tracker;
                let seen = tracker.note_fault(page, is_write);
                // An offline SSD cannot keep its second-chance pages:
                // anything faulting off it promotes at least one hop.
                return if tracker.is_hot_page(page) && m.pool(Tier::Dram).free_pages() > 0 {
                    Tier::Dram
                } else if seen >= 2 || !m.tier_online(Tier::Ssd) {
                    // N-1 cascade: with the NVM tier offline the one-hop
                    // promotion target is DRAM (direct reclaim makes
                    // room); an offline middle tier must not strand
                    // re-faulting pages on the SSD forever.
                    if m.tier_online(Tier::Nvm) {
                        Tier::Nvm
                    } else {
                        Tier::Dram
                    }
                } else {
                    Tier::Ssd
                };
            }
        }
        // Allocate DRAM while any is free; the policy thread keeps a
        // watermark free asynchronously. Otherwise spill to NVM and rely
        // on sampling to promote hot pages later (§3.3). Under the
        // arbiter, a tenant whose DRAM claim has reached its quota spills
        // to NVM even while the pool has free pages — that headroom
        // belongs to the other tenants.
        if m.pool(Tier::Dram).free_pages() == 0 {
            return spill_tier(m);
        }
        if self.pool.slots.len() > 1 {
            self.ensure_arbiter(m);
            let arb = self.arbiter.as_ref().expect("arbiter for multi-tenant");
            let t = self.pool.slots[self.tenant_index(m, page.region)].id;
            let claim =
                m.space.tenant_frames(t).dram_pages + m.journal.prepared_into_for(t, Tier::Dram);
            if claim >= arb.quota_pages(t) {
                return spill_tier(m);
            }
        }
        Tier::Dram
    }

    fn placed(&mut self, m: &mut MachineCore, page: PageId, tier: Tier) {
        let idx = self.tenant_index(m, page.region);
        self.pool.slots[idx].tracker.placed(page, tier);
    }

    fn uses_pebs(&self) -> bool {
        true
    }

    fn on_samples(&mut self, m: &mut MachineCore, samples: &[SampleRecord], now: Ns) {
        if self.pool.slots.len() == 1 {
            // Solo fast path: no demux, no budget split — byte-identical
            // to a single-process machine.
            let ts = &mut self.pool.slots[0];
            for s in samples {
                if let Some(page) = m.space.page_at(VirtAddr(s.vaddr)) {
                    if ts.tracker.record(page, s.kind.is_store(), now) {
                        ts.note_sample(s.kind);
                        self.stats.samples_applied += 1;
                    }
                }
            }
            return;
        }
        // Multi-tenant: the shared drain budget is split evenly, so one
        // tenant's sample flood cannot starve the others' classifiers.
        let per_tenant = (m.pebs.drain_budget() as u64 / self.pool.slots.len() as u64).max(1);
        let mut demux = self
            .demux
            .take()
            .unwrap_or_else(|| TenantDemux::new(self.pool.slots.len(), per_tenant));
        demux.set_per_pass_budget(per_tenant);
        demux.begin_pass();
        for s in samples {
            if let Some(page) = m.space.page_at(VirtAddr(s.vaddr)) {
                let idx = self.tenant_index(m, page.region);
                let ts = &mut self.pool.slots[idx];
                // Quarantined tenants consume no stream budget: a dying
                // tenant mid-PEBS-storm cannot crowd out the survivors'
                // classifiers.
                if ts.lifecycle != Lifecycle::Live {
                    continue;
                }
                if let Some(slot) = ts.tracker.slot(page) {
                    if demux.admit(idx) {
                        ts.tracker.record_at(slot, page, s.kind.is_store(), now);
                        ts.note_sample(s.kind);
                        self.stats.samples_applied += 1;
                    }
                }
            }
        }
        self.demux = Some(demux);
    }

    fn tick(&mut self, m: &mut MachineCore, now: Ns) -> TickOutput {
        self.stats.policy_runs += 1;
        self.ensure_arbiter(m);
        let multi = self.pool.slots.len() > 1;
        // Reallocate DRAM quotas from the tenants' demand signals.
        if let Some(arb) = &mut self.arbiter {
            let page_bytes = m.cfg.managed_page.bytes();
            let signals: Vec<TenantSignal> = self
                .pool
                .slots
                .iter()
                .map(|ts| TenantSignal {
                    hot_bytes: (ts.tracker.queue_len(Queue::DramHot)
                        + ts.tracker.queue_len(Queue::NvmHot))
                        as u64
                        * page_bytes,
                    dram_loads: ts.counters.window.dram_loads,
                    nvm_loads: ts.counters.window.nvm_loads,
                })
                .collect();
            if arb.maybe_realloc(now.0, &signals) {
                for ts in &mut self.pool.slots {
                    ts.counters.window = TenantSignal::default();
                }
                if multi {
                    m.trace.instant(
                        now,
                        "arbiter_realloc",
                        "arbiter",
                        &[
                            ("reallocations", arb.reallocations()),
                            ("quota_t0", arb.quota_pages(self.pool.slots[0].id)),
                        ],
                    );
                }
            }
        }
        let mut migrations = if !self.cfg.enable_migration {
            Vec::new()
        } else if !multi {
            run_policy(&self.cfg.policy, &mut self.pool.slots[0].tracker, m, now)
        } else {
            // One scoped policy pass per tenant, in tenant order. Each
            // pass sees its own quota headroom and budget share, so a
            // thrashing tenant exhausts only its own migration budget.
            // Quarantined and retired slots schedule nothing, and a
            // tenant whose circuit breaker tripped sits out its backoff
            // so its failing migrations cannot camp on the fault
            // machinery and starve the neighbors.
            let mut jobs = Vec::new();
            for i in 0..self.pool.slots.len() {
                if self.pool.slots[i].lifecycle != Lifecycle::Live {
                    continue;
                }
                if self.pool.slots[i].counters.breaker_skip_ticks > 0 {
                    self.pool.slots[i].counters.breaker_skip_ticks -= 1;
                    continue;
                }
                let mut scope = self.scope_for(i, m);
                if self.pool.slots[i].counters.breaker_fails >= self.cfg.breaker_threshold {
                    // Half-open probe: a one-page rate budget until a
                    // success closes the breaker.
                    scope.max_inflight_pages = 1;
                    scope.budget = m.cfg.managed_page.bytes();
                }
                let ts = &mut self.pool.slots[i];
                jobs.extend(run_policy_scoped(
                    &self.cfg.policy,
                    &mut ts.tracker,
                    m,
                    now,
                    &scope,
                ));
            }
            jobs
        };
        // SSD capacity tier: when NVM itself runs low, demote the coldest
        // NVM pages down the cascade as ordinary journaled migrations —
        // the pages stay mapped, so a later access major-faults them back
        // up instead of swapping in. Tenants are victimized round-robin.
        if self.cfg.nvm_watermark > 0
            && m.has_ssd()
            && m.tier_online(Tier::Ssd)
            && self.cfg.enable_migration
        {
            let page_bytes = m.cfg.managed_page.bytes();
            let mechanism = self.cfg.policy.mechanism_for(m);
            // In-flight NVM→SSD demotions free their NVM frames on
            // commit; count them as already on the way to free so
            // back-to-back ticks do not demote the same deficit twice.
            // Summed per tenant: the journal indexes entries by owner,
            // and a multi-tenant machine demotes under every tenant's
            // id, not just the solo one.
            let pending = self
                .pool
                .slots
                .iter()
                .map(|ts| m.journal.prepared_freeing_for(ts.id, Tier::Nvm))
                .sum::<u64>()
                * page_bytes;
            let mut need = self
                .cfg
                .nvm_watermark
                .saturating_sub(m.pool(Tier::Nvm).free_bytes().saturating_add(pending));
            // Shadow frames are free NVM capacity in disguise: reclaim
            // them to cover the deficit before paying for even one
            // NVM→SSD copy. The primaries stay mapped in DRAM, so this
            // costs nothing but a future re-copy on demotion.
            if need > 0 {
                let reclaimed = m.reclaim_shadow_frames(need.div_ceil(page_bytes));
                need = need.saturating_sub(reclaimed * page_bytes);
            }
            let mut pushed = 0usize;
            while need > 0 && pushed < 64 {
                let mut popped = false;
                for ts in &mut self.pool.slots {
                    if need == 0 || pushed >= 64 {
                        break;
                    }
                    if ts.lifecycle != Lifecycle::Live {
                        continue;
                    }
                    if let Some(victim) = ts.tracker.pop_swap_victim() {
                        migrations.push(crate::backend::MigrationJob {
                            page: victim,
                            dst: Tier::Ssd,
                            mechanism,
                        });
                        need = need.saturating_sub(page_bytes);
                        pushed += 1;
                        popped = true;
                    }
                }
                if !popped {
                    break;
                }
            }
        }
        // Balloon deadline enforcement: while a shrink drains, the
        // scoped watermark pass above does the work. Once the claim
        // reaches the target the cap lifts; past the deadline the
        // manager escalates and forces the coldest pages toward the
        // slowest tier itself.
        if multi && self.cfg.enable_migration {
            let mechanism = self.cfg.policy.mechanism_for(m);
            // Slowest *online* tier: balloon escalation must not force
            // pages onto a failed device (N-1 operation).
            let slowest = m
                .tiers()
                .iter()
                .copied()
                .rev()
                .find(|&t| t != Tier::Dram && m.tier_online(t))
                .unwrap_or(Tier::Nvm);
            for i in 0..self.pool.slots.len() {
                let Some(b) = self.pool.slots[i].counters.balloon else {
                    continue;
                };
                if self.pool.slots[i].lifecycle != Lifecycle::Live {
                    self.pool.slots[i].counters.balloon = None;
                    continue;
                }
                let t = self.pool.slots[i].id;
                let claim = m.space.tenant_frames(t).dram_pages
                    + m.journal.prepared_into_for(t, Tier::Dram);
                if claim <= b.target_pages {
                    self.pool.slots[i].counters.balloon = None;
                    if let Some(arb) = &mut self.arbiter {
                        arb.unballoon(t);
                    }
                    m.trace.instant(
                        now,
                        "tenant_balloon_done",
                        "lifecycle",
                        &[("tenant", t.0 as u64), ("claim_pages", claim)],
                    );
                    continue;
                }
                if now <= b.deadline {
                    continue;
                }
                let mut need = (claim - b.target_pages) as usize;
                let mut forced = 0usize;
                while need > 0 && forced < BALLOON_ESCALATION_BATCH {
                    let Some(victim) = self.pool.slots[i].tracker.pop_demotion(true) else {
                        break;
                    };
                    migrations.push(crate::backend::MigrationJob {
                        page: victim,
                        dst: slowest,
                        mechanism,
                    });
                    need -= 1;
                    forced += 1;
                }
                if forced > 0 {
                    self.stats.balloon_escalations += 1;
                    m.trace.instant(
                        now,
                        "tenant_balloon_escalate",
                        "lifecycle",
                        &[("tenant", t.0 as u64), ("forced_pages", forced as u64)],
                    );
                }
            }
        }
        TickOutput {
            next_wake: Some(now + self.cfg.policy.period),
            migrations,
            cpu_time: Ns::micros(20),
        }
    }

    fn swapped_out(&mut self, m: &mut MachineCore, page: PageId) {
        let idx = self.tenant_index(m, page.region);
        self.pool.slots[idx].tracker.evicted(page);
    }

    fn reclaim_victim(&mut self, m: &mut MachineCore) -> Option<PageId> {
        // Victims can go somewhere only when the SSD tier exists.
        if !m.has_ssd() {
            return None;
        }
        // Coldest NVM page first; fall back to cold DRAM under extreme
        // pressure (kernel direct reclaim walks the inactive lists).
        // Tenants are scanned in order; with one tenant this is the
        // plain two-step lookup.
        for ts in &mut self.pool.slots {
            if ts.lifecycle != Lifecycle::Live {
                continue;
            }
            if let Some(victim) = ts.tracker.pop_swap_victim() {
                return Some(victim);
            }
        }
        for ts in &mut self.pool.slots {
            if ts.lifecycle != Lifecycle::Live {
                continue;
            }
            if let Some(victim) = ts.tracker.pop_demotion(false) {
                return Some(victim);
            }
        }
        None
    }

    fn migration_done(&mut self, m: &mut MachineCore, page: PageId, dst: Tier) {
        let idx = self.tenant_index(m, page.region);
        let ts = &mut self.pool.slots[idx];
        ts.tracker.placed(page, dst);
        // A success closes the tenant's circuit breaker.
        ts.counters.breaker_fails = 0;
    }

    fn migration_aborted(&mut self, m: &mut MachineCore, page: PageId, current: Tier) {
        // The page never left `current`; put it back on the right queue.
        let idx = self.tenant_index(m, page.region);
        let ts = &mut self.pool.slots[idx];
        ts.tracker.placed(page, current);
        // Per-tenant circuit breaker (multi-tenant only): consecutive
        // failures — a tenant camped on 100%-failing media — trip the
        // slot into a scheduling backoff instead of letting it retry
        // the same doomed pages through the shared fault threads.
        if self.pool.slots.len() > 1 {
            let ts = &mut self.pool.slots[idx];
            ts.counters.breaker_fails += 1;
            if ts.counters.breaker_fails >= self.cfg.breaker_threshold
                && ts.counters.breaker_skip_ticks == 0
            {
                ts.counters.breaker_skip_ticks = BREAKER_BACKOFF_TICKS;
                self.stats.breaker_trips += 1;
            }
        }
    }

    fn background_threads(&self) -> u32 {
        // Page-fault thread + PEBS thread + policy thread; the fault
        // thread is idle at steady state so we count the two busy ones.
        // Without DMA the copy threads are also busy.
        2 + if self.cfg.policy.use_dma {
            0
        } else {
            self.cfg.policy.copy_threads as u32
        }
    }

    fn recover(&mut self, m: &mut MachineCore, _now: Ns) {
        // The restarted manager re-derives its hot/cold lists from what
        // survives the crash: per-page sample counters (tracker metadata)
        // and the authoritative address-space residency. Each tenant's
        // tracker rebuilds only the regions it registered. Pinned regions
        // carry no queues, so nothing to rebuild there.
        for ts in &mut self.pool.slots {
            ts.tracker.rebuild_from(&m.space);
        }
    }

    fn tenant_killed(&mut self, _m: &mut MachineCore, tenant: TenantId, _now: Ns) {
        let Some(ts) = self.pool.slots.get_mut(tenant.0 as usize) else {
            return;
        };
        if ts.lifecycle != Lifecycle::Live {
            return;
        }
        // Quarantine: stop scheduling the tenant. The runtime rolls its
        // in-flight work back and calls `tenant_drained` once the DMA
        // engine has quiesced and its frames are reclaimed.
        ts.lifecycle = Lifecycle::Quarantined;
        ts.counters.window = TenantSignal::default();
        ts.counters.balloon = None;
        ts.counters.breaker_fails = 0;
        ts.counters.breaker_skip_ticks = 0;
    }

    fn fleet_stats(&self) -> Option<FleetStats> {
        // Only surface the segment once the pool has actually spawned:
        // static constructions (solo, colocated) never claim a slot and
        // must keep their committed fingerprints byte-identical.
        let s = self.pool.stats();
        (s.spawns > 0).then_some(s)
    }

    fn evacuation_dst(&mut self, m: &mut MachineCore, page: PageId, from: Tier) -> Option<Tier> {
        let multi = self.pool.slots.len() > 1;
        let tenant = if multi {
            self.ensure_arbiter(m);
            Some(self.pool.slots[self.tenant_index(m, page.region)].id)
        } else {
            None
        };
        for &t in m.tiers() {
            if t == from || !m.tier_online(t) || m.pool(t).free_pages() == 0 {
                continue;
            }
            // DRAM headroom belongs to the arbiter's grants: a tenant
            // evacuating at its quota spills down the cascade instead of
            // eating its neighbors' fast-tier share.
            if t == Tier::Dram {
                if let Some(tn) = tenant {
                    let arb = self.arbiter.as_ref().expect("arbiter for multi-tenant");
                    let claim = m.space.tenant_frames(tn).dram_pages
                        + m.journal.prepared_into_for(tn, Tier::Dram);
                    if claim >= arb.quota_pages(tn) {
                        continue;
                    }
                }
            }
            return Some(t);
        }
        None
    }

    fn tenant_drained(&mut self, _m: &mut MachineCore, tenant: TenantId, _now: Ns) {
        let Some(ts) = self.pool.slots.get_mut(tenant.0 as usize) else {
            return;
        };
        if ts.lifecycle == Lifecycle::Retired {
            return;
        }
        ts.lifecycle = Lifecycle::Retired;
        // Quarantined → Retired: the quota goes back to the arbiter,
        // which redistributes it across the survivors.
        if let Some(arb) = &mut self.arbiter {
            arb.retire(tenant);
        }
        // Scrub the slot and park it on the free list so the next
        // arrival claims it without rebuilding, and zero the tenant's
        // PEBS demux lane so no stream history (FNV hashes, round-robin
        // credit) leaks into the slot's next generation.
        self.pool.recycle(tenant);
        if let Some(d) = &mut self.demux {
            d.reset_lane(tenant.0 as usize);
        }
    }

    fn audit(&self, m: &MachineCore) -> Vec<crate::audit::AuditViolation> {
        let mut v: Vec<crate::audit::AuditViolation> = Vec::new();
        // Parked slots must be scrubbed: no tracker pages, counters,
        // balloon, or PEBS stream history from a previous occupant may
        // survive onto the free list.
        for &i in self.pool.free_list() {
            let ts = &self.pool.slots[i as usize];
            let lane_dirty = self.demux.as_ref().is_some_and(|d| {
                let s = d.stream_stats(i as usize);
                s.delivered != 0 || s.throttled != 0
            });
            if !self.pool.is_scrubbed(ts.id) || lane_dirty {
                v.push(crate::audit::AuditViolation::SlotGenerationLeak {
                    tenant: ts.id,
                    generation: ts.generation,
                });
            }
        }
        for ts in &self.pool.slots {
            v.extend(ts.tracker.residency_mismatches(&m.space).into_iter().map(
                |(page, tracked, mapped)| crate::audit::AuditViolation::TrackerMismatch {
                    page,
                    tracked,
                    mapped,
                },
            ));
            // Region/page agreement: span tiling, cached residency, and
            // split/merge accounting. Pins must be justified by the
            // tenant's in-flight journal entries.
            v.extend(
                ts.tracker
                    .region_violations(m.journal.prepared_len_for(ts.id)),
            );
        }
        // Tenant-scoped invariants, multi-tenant only: every tenant's
        // DRAM claim stays within its quota (plus a grace window for
        // in-flight work after a quota cut), and the per-tenant frame
        // books balance between the address space, the tracker queues,
        // and the journal's in-flight entries.
        let Some(arb) = self.arbiter.as_ref().filter(|_| self.pool.slots.len() > 1) else {
            return v;
        };
        for ts in &self.pool.slots {
            let t = ts.id;
            // Retirement must be complete: a retired slot may hold no
            // quota (and must read dead to the arbiter) and no frames on
            // any tier, mapped or in flight. Never-admitted deferred
            // slots pass both vacuously.
            if ts.lifecycle == Lifecycle::Retired {
                if arb.is_live(t) || arb.quota_pages(t) != 0 {
                    v.push(crate::audit::AuditViolation::ZombieTenantQuota {
                        tenant: t,
                        quota_pages: arb.quota_pages(t),
                    });
                }
                let tf = m.space.tenant_frames(t);
                for &tier in m.tiers() {
                    let leaked = tf.pages_of(tier)
                        + m.journal.prepared_into_for(t, tier)
                        + m.journal.prepared_freeing_for(t, tier);
                    if leaked != 0 {
                        v.push(crate::audit::AuditViolation::FrameLeakAfterRetire {
                            tenant: t,
                            tier,
                            leaked_pages: leaked,
                        });
                    }
                }
                continue;
            }
            let tf = m.space.tenant_frames(t);
            let resident = tf.dram_pages + m.journal.prepared_into_for(t, Tier::Dram);
            let quota = arb.quota_pages(t);
            // Two realloc steps of grace: the step the last reallocation
            // just moved, plus at most one period of demotion backlog
            // still draining from the step before it; in-flight
            // promotions on top. A draining balloon is exempt — the
            // quota just moved arbitrarily far below the claim, and the
            // deadline machinery (not this check) polices the drain.
            let grace = 2 * arb.realloc_step_pages()
                + arb.share_of(t, self.cfg.policy.max_inflight_pages).max(1);
            if resident > quota + grace && ts.counters.balloon.is_none() {
                v.push(crate::audit::AuditViolation::QuotaExceeded {
                    tenant: t,
                    resident_pages: resident,
                    quota_pages: quota,
                    grace_pages: grace,
                });
            }
            // Frame conservation per tier: a resident page is either in
            // one of the tenant's queues or in flight (its journal entry
            // names the tier it is still mapped on). Pinned regions sit
            // outside the queues, so the check only runs without them.
            if self.pinned.is_empty() {
                let queued =
                    |a: Queue, b: Queue| (ts.tracker.queue_len(a) + ts.tracker.queue_len(b)) as u64;
                for &tier in m.tiers() {
                    // SSD-resident pages are off-queue by design; there
                    // is no queue total to balance against.
                    if tier == Tier::Ssd {
                        continue;
                    }
                    let space_pages = tf.pages_of(tier);
                    let tracked_pages = queued(Queue::of(tier, true), Queue::of(tier, false))
                        + m.journal.prepared_freeing_for(t, tier);
                    if space_pages != tracked_pages {
                        v.push(crate::audit::AuditViolation::TenantFrameMismatch {
                            tenant: t,
                            tier,
                            space_pages,
                            tracked_pages,
                        });
                    }
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AccessBatch;
    use crate::machine::MachineConfig;
    use crate::runtime::Sim;
    use hemem_memdev::GIB;

    fn sim(dram_gib: u64, nvm_gib: u64) -> Sim<HeMem> {
        let mc = MachineConfig::small(dram_gib, nvm_gib);
        let hc = HeMemConfig::scaled_for(&mc);
        Sim::new(mc, HeMem::new(hc))
    }

    #[test]
    fn small_allocations_forwarded_to_kernel() {
        let mut s = sim(2, 8);
        let id = s.mmap(4 << 20);
        assert_eq!(
            s.m.space.region(id).kind(),
            hemem_vmm::RegionKind::SmallAnon
        );
        assert_eq!(s.backend.stats().forwarded_allocs, 1);
        assert_eq!(s.backend.stats().managed_regions, 0);
    }

    #[test]
    fn large_allocations_managed_on_huge_pages() {
        let mut s = sim(2, 8);
        let id = s.mmap(GIB);
        let r = s.m.space.region(id);
        assert_eq!(r.kind(), hemem_vmm::RegionKind::ManagedHeap);
        assert_eq!(r.page_size(), hemem_vmm::PageSize::Huge2M);
        assert_eq!(s.backend.stats().managed_regions, 1);
    }

    #[test]
    fn growth_adoption_after_threshold() {
        let mut s = sim(2, 8);
        // 1 GiB of small allocations crosses the growth threshold...
        for _ in 0..256 {
            s.mmap(4 << 20);
        }
        // ...so the next small allocation is adopted as managed.
        let id = s.mmap(4 << 20);
        assert_eq!(
            s.m.space.region(id).kind(),
            hemem_vmm::RegionKind::ManagedHeap
        );
    }

    #[test]
    fn first_touch_fills_dram_then_spills_to_nvm() {
        let mut s = sim(1, 8);
        let id = s.mmap(2 * GIB); // 2x DRAM capacity
        s.populate(id, true);
        let r = s.m.space.region(id);
        assert_eq!(r.mapped_pages(), 1024);
        assert_eq!(r.dram_pages(), 512, "DRAM filled first");
        assert_eq!(s.m.pool(Tier::Dram).free_pages(), 0);
    }

    #[test]
    fn pebs_samples_promote_hot_pages_and_policy_migrates() {
        let mut s = sim(1, 8);
        s.set_app_threads(1);
        let id = s.mmap(4 * GIB);
        s.populate(id, true);
        // Hammer a small NVM-resident slice: pages 1536..1544 (well past
        // the DRAM-resident first 512 pages).
        let dram0 = s.m.space.region(id).dram_pages();
        assert!(
            dram0 >= 450,
            "DRAM filled first (minus mid-fill demotions): {dram0}"
        );
        let batch = AccessBatch::uniform(id, 1536, 1544, 2_000_000, 8, 0.0, 4 * GIB);
        for _ in 0..40 {
            let tid = 0;
            s.submit_batch(tid, &batch);
            // Pump until the thread is ready again.
            while let Some((_, ev)) = s.step() {
                if matches!(ev, crate::runtime::Event::ThreadReady(_)) {
                    break;
                }
            }
        }
        // Let the policy thread catch up.
        s.advance(Ns::millis(100));
        assert!(s.backend.stats().samples_applied > 0, "samples flowed");
        assert!(s.m.stats.migrations_done > 0, "hot pages migrated");
        let r = s.m.space.region(id);
        let hot_in_dram = r.dram_pages_in(1536, 1544);
        assert!(
            hot_in_dram >= 6,
            "hot slice promoted: {hot_in_dram}/8 in DRAM"
        );
    }

    #[test]
    fn watermark_keeps_dram_free() {
        let mut s = sim(1, 8);
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        assert_eq!(s.m.dram_free_bytes(), 0);
        // Policy period is 10 ms; give it time to demote ~1 GiB at the
        // 100 MB-per-period cap.
        s.advance(Ns::secs(2));
        assert!(
            s.m.dram_free_bytes() >= s.backend.config().policy.dram_watermark,
            "watermark restored: {} free",
            s.m.dram_free_bytes()
        );
    }

    #[test]
    fn migration_preserves_page_population() {
        let mut s = sim(1, 8);
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        s.advance(Ns::secs(2));
        let r = s.m.space.region(id);
        assert_eq!(r.mapped_pages(), 1024, "no page lost in migration");
        let dram = r.dram_pages();
        let alloc_d = s.m.pool(Tier::Dram).allocated_pages();
        assert_eq!(dram, alloc_d, "pool accounting consistent");
    }

    #[test]
    fn manager_kill_during_demotion_recovers_and_audits_clean() {
        // Overfill DRAM so the policy thread is mid-demotion when a
        // seeded kill lands; the default watchdog restarts it and the
        // rebuilt tracker keeps demoting to the watermark.
        let mut mc = MachineConfig::small(1, 8);
        mc.chaos.manager_kill_at = vec![Ns::millis(25), Ns::millis(250)];
        let hc = HeMemConfig::scaled_for(&mc);
        let mut s = Sim::new(mc, HeMem::new(hc));
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        s.advance(Ns::secs(3));
        assert_eq!(s.m.recovery.manager_kills, 2);
        assert!(
            s.m.recovery.watchdog_restarts >= 2,
            "restarted after each kill"
        );
        assert!(!s.manager_down());
        let r = s.m.space.region(id);
        assert_eq!(r.mapped_pages(), 1024, "no page lost across kills");
        assert!(
            s.m.dram_free_bytes() >= s.backend.config().policy.dram_watermark,
            "policy work resumed after recovery: {} free",
            s.m.dram_free_bytes()
        );
        assert_eq!(s.run_audit(true), Vec::new(), "audits clean after recovery");
    }

    #[test]
    fn background_threads_counted() {
        let h = HeMem::new(HeMemConfig::paper());
        assert_eq!(h.background_threads(), 2);
        let mut cfg = HeMemConfig::paper();
        cfg.policy.use_dma = false;
        let h = HeMem::new(cfg);
        assert_eq!(h.background_threads(), 6);
    }
}

#[cfg(test)]
mod tier3_tests {
    use super::*;
    use crate::backend::AccessBatch;
    use crate::error::MemError;
    use crate::machine::MachineConfig;
    use crate::runtime::{Event, Sim};
    use hemem_memdev::GIB;
    use hemem_vmm::PageId;

    /// 1 GiB DRAM + 2 GiB NVM + an SSD tier of `ssd` bytes, with the
    /// NVM watermark at `watermark` bytes.
    fn tier3_sim(ssd: u64, watermark: u64) -> Sim<HeMem> {
        let mc = MachineConfig::small(1, 2).with_tier3(ssd);
        let mut hc = HeMemConfig::scaled_for(&mc);
        hc.nvm_watermark = watermark;
        Sim::new(mc, HeMem::new(hc))
    }

    #[test]
    fn cold_nvm_pages_demote_to_ssd_under_pressure() {
        // Keep 128 NVM pages free. 3 GiB over 1 GiB DRAM + 2 GiB NVM:
        // NVM fills completely.
        let mut s = tier3_sim(16 * GIB, 256 << 20);
        let id = s.mmap(3 * GIB);
        s.populate(id, true);
        s.advance(Ns::secs(5));
        let r = s.m.space.region(id);
        assert!(r.ssd_pages() > 0, "cold NVM pages demoted to the SSD");
        assert_eq!(r.mapped_pages(), 1536, "demoted pages stay mapped");
        assert_eq!(s.m.pool(Tier::Ssd).allocated_pages(), r.ssd_pages());
        assert!(
            s.m.pool(Tier::Nvm).free_bytes() > 0,
            "demotion restored NVM headroom: {} free",
            s.m.pool(Tier::Nvm).free_bytes()
        );
        assert_eq!(s.run_audit(true), Vec::new());
    }

    #[test]
    fn ssd_resident_pages_major_fault_back_on_access() {
        let mut s = tier3_sim(16 * GIB, 256 << 20);
        let id = s.mmap(3 * GIB);
        s.populate(id, true);
        s.advance(Ns::secs(5));
        assert!(s.m.space.region(id).ssd_pages() > 0);
        let read_before = s.m.ssd.as_ref().expect("SSD tier").stats().bytes_read;
        // Touch the whole region: SSD-resident pages must come back up.
        let pages = s.m.space.region(id).page_count();
        let batch = AccessBatch::uniform(id, 0, pages, 5_000_000, 8, 0.2, 3 * GIB);
        for _ in 0..5 {
            s.submit_batch(0, &batch);
            loop {
                match s.step() {
                    Some((_, Event::ThreadReady(_))) | None => break,
                    Some(_) => {}
                }
            }
        }
        assert!(s.m.stats.swap_ins > 0, "accesses promoted SSD pages");
        assert!(s.m.trace.hist(hemem_sim::LatencyClass::MajorFault).count() > 0);
        let ssd = s.m.ssd.as_ref().expect("SSD tier");
        assert!(
            ssd.stats().bytes_read > read_before,
            "major faults read the SSD"
        );
        assert_eq!(s.m.space.region(id).mapped_pages(), 1536);
    }

    #[test]
    fn nvm_watermark_without_tier3_demotes_nothing() {
        let mc = MachineConfig::small(1, 2);
        let mut hc = HeMemConfig::scaled_for(&mc);
        hc.nvm_watermark = 256 << 20;
        let mut s = Sim::new(mc, HeMem::new(hc));
        let id = s.mmap(3 * GIB);
        s.populate(id, true);
        s.advance(Ns::secs(2));
        assert_eq!(s.m.stats.swap_outs, 0, "no SSD tier, no demotion");
        assert_eq!(s.m.space.region(id).ssd_pages(), 0);
        assert_eq!(s.m.pool(Tier::Ssd).allocated_pages(), 0);
    }

    #[test]
    fn ssd_capacity_bounds_demotions() {
        // 64 MiB of SSD is 32 frames; the watermark wants far more.
        let mut s = tier3_sim(64 << 20, GIB);
        let id = s.mmap(3 * GIB);
        s.populate(id, true);
        s.advance(Ns::secs(5));
        let on_ssd = s.m.space.region(id).ssd_pages();
        assert!(on_ssd > 0, "the SSD took what it could");
        assert!(on_ssd <= 32, "bounded by the SSD tier: {on_ssd}");
        assert_eq!(s.m.pool(Tier::Ssd).free_pages(), 32 - on_ssd);
        assert_eq!(s.m.space.region(id).mapped_pages(), 1536);
    }

    #[test]
    fn region_larger_than_memory_populates_through_tier3_reclaim() {
        // 4 GiB over 1 GiB DRAM + 2 GiB NVM: direct reclaim onto the SSD
        // and the NVM watermark must carry the fill (§3.4's third tier).
        let mut s = tier3_sim(16 * GIB, 128 << 20);
        let id = s.mmap(4 * GIB);
        s.populate(id, true);
        let r = s.m.space.region(id);
        assert_eq!(r.mapped_pages(), 2048, "every page mapped");
        assert!(r.ssd_pages() >= 512, "at least 1 GiB had to go to the SSD");
        assert!(s.m.stats.swap_outs > 0, "direct reclaim demoted pages");
        // The machine survives further background churn.
        s.advance(Ns::secs(2));
        assert_eq!(s.m.space.region(id).mapped_pages(), 2048);
        assert_eq!(s.run_audit(true), Vec::new());
    }

    #[test]
    fn offline_ssd_reclaim_fails_typed_and_keeps_the_books() {
        // Both memory tiers full, the SSD offline: a fault that needs a
        // frame gets the typed error, and the victim direct reclaim popped
        // goes back on its queue. Two tenants, so the audit balances each
        // tenant's frames against its tracker queues.
        let mc = MachineConfig::small(1, 2).with_tier3(16 * GIB);
        let hc = HeMemConfig::scaled_for(&mc);
        let mut s = Sim::new(
            mc,
            HeMem::multi_tenant(hc, 2, crate::arbiter::ArbiterPolicy::GreedyMissRatio),
        );
        for t in 0..2 {
            s.set_active_tenant(TenantId(t));
            let id = s.mmap(3 * GIB / 2);
            s.populate(id, true);
        }
        s.inject_tier_fail(Tier::Ssd);
        s.advance(Ns::millis(100));
        assert_eq!(s.m.pool(Tier::Dram).free_pages(), 0);
        assert_eq!(s.m.pool(Tier::Nvm).free_pages(), 0);
        let allocated = (
            s.m.pool(Tier::Dram).allocated_pages(),
            s.m.pool(Tier::Nvm).allocated_pages(),
        );
        let extra = s.mmap(64 << 20);
        let page = PageId {
            region: extra,
            index: 0,
        };
        let now = s.now();
        assert_eq!(
            s.try_fault_page(page, true, now),
            Err(MemError::NoSwapDevice)
        );
        assert_eq!(s.m.space.region(extra).mapped_pages(), 0);
        assert_eq!(
            (
                s.m.pool(Tier::Dram).allocated_pages(),
                s.m.pool(Tier::Nvm).allocated_pages()
            ),
            allocated,
            "no frame leaked"
        );
        assert_eq!(s.run_audit(false), Vec::new());
    }
}

#[cfg(test)]
mod lifecycle_tests {
    use super::*;
    use crate::arbiter::ArbiterPolicy;
    use crate::machine::MachineConfig;
    use crate::runtime::Sim;
    use hemem_memdev::GIB;
    use hemem_sim::TenantKill;

    /// Two tenants, 1 GiB region each, populated in tenant order.
    fn duo(mc: MachineConfig) -> Sim<HeMem> {
        let hc = HeMemConfig::scaled_for(&mc);
        let mut s = Sim::new(
            mc,
            HeMem::multi_tenant(hc, 2, ArbiterPolicy::GreedyMissRatio),
        );
        s.set_active_tenant(TenantId(0));
        let a = s.mmap(GIB);
        s.populate(a, true);
        s.set_active_tenant(TenantId(1));
        let b = s.mmap(GIB);
        s.populate(b, true);
        s
    }

    #[test]
    fn seeded_kill_quarantines_drains_and_reclaims_every_tier() {
        let mut mc = MachineConfig::small(1, 8).with_tier3(16 * GIB);
        mc.chaos.tenant_kill_at = vec![TenantKill {
            tenant: 1,
            at: Ns::secs(2),
        }];
        let mut s = duo(mc);
        s.advance(Ns::secs(3));
        assert_eq!(s.m.recovery.tenant_kills, 1);
        assert_eq!(s.m.recovery.tenant_drains, 1);
        assert!(s.backend.tenant_is_retired(TenantId(1)));
        let tf = s.m.space.tenant_frames(TenantId(1));
        assert_eq!(
            tf.dram_pages + tf.nvm_pages + tf.ssd_pages,
            0,
            "every tier reclaimed"
        );
        let arb = s.backend.arbiter().expect("multi-tenant arbiter");
        assert!(!arb.is_live(TenantId(1)));
        assert_eq!(arb.quota_pages(TenantId(1)), 0);
        assert!(arb.conserved());
        // The survivor keeps its memory and the books stay clean —
        // FrameLeakAfterRetire and ZombieTenantQuota both have teeth
        // here because tenant 1 is Retired.
        let sf = s.m.space.tenant_frames(TenantId(0));
        assert!(sf.dram_pages + sf.nvm_pages > 0, "survivor untouched");
        assert_eq!(s.run_audit(false), Vec::new());
    }

    #[test]
    fn kill_mid_flight_rolls_back_the_tenants_journal_entries() {
        // 2 GiB over 1 GiB DRAM: the watermark keeps demotions in
        // flight, so an injected kill almost always catches tenant 1
        // with prepared journal entries.
        let mc = MachineConfig::small(1, 8);
        let mut s = duo(mc);
        let in_flight = s.m.journal.prepared_freeing_for(TenantId(1), Tier::Dram)
            + s.m.journal.prepared_into_for(TenantId(1), Tier::Dram);
        s.inject_tenant_kill(TenantId(1));
        s.advance(Ns::millis(500));
        assert!(s.backend.tenant_is_retired(TenantId(1)));
        if in_flight > 0 {
            assert!(
                s.m.recovery.journal_rollbacks > 0,
                "prepared entries were rolled back, not leaked"
            );
        }
        assert_eq!(
            s.m.journal.prepared_freeing_for(TenantId(1), Tier::Dram)
                + s.m.journal.prepared_into_for(TenantId(1), Tier::Dram),
            0
        );
        assert_eq!(s.run_audit(false), Vec::new());
        // The machine keeps working for the survivor.
        s.advance(Ns::secs(1));
        assert!(!s.manager_down());
    }

    #[test]
    fn dynamic_admission_balloon_and_floor_rejection() {
        let mc = MachineConfig::small(1, 8);
        let hc = HeMemConfig::scaled_for(&mc);
        let mut s = Sim::new(mc, HeMem::churn(hc, 3, ArbiterPolicy::ProportionalShares));
        let now = s.now();
        s.backend
            .admit_tenant(&mut s.m, TenantId(0), now)
            .expect("first join");
        assert!(s.backend.tenant_is_live(TenantId(0)));
        s.set_active_tenant(TenantId(0));
        let a = s.mmap(GIB);
        s.populate(a, true);
        let now = s.now();
        s.backend
            .admit_tenant(&mut s.m, TenantId(1), now)
            .expect("second join");
        let now = s.now();
        assert_eq!(
            s.backend.admit_tenant(&mut s.m, TenantId(1), now),
            Err(crate::arbiter::AdmitError::AlreadyLive)
        );
        // Balloon tenant 0 down to an eighth of the tier with a 100 ms
        // drain deadline; watermark demotion plus post-deadline forced
        // demotion must bring the claim under target.
        let target = s.m.pool(Tier::Dram).total_pages() / 8;
        let now = s.now();
        let deadline = now + Ns::millis(100);
        let q = s
            .backend
            .balloon_tenant(&mut s.m, TenantId(0), target, deadline, now);
        assert_eq!(q, target);
        s.advance(Ns::secs(3));
        let tf = s.m.space.tenant_frames(TenantId(0));
        assert!(
            tf.dram_pages <= target,
            "balloon drained: {} pages > {target}",
            tf.dram_pages
        );
        assert_eq!(s.run_audit(false), Vec::new());
    }

    #[test]
    fn media_storm_trips_the_per_tenant_breaker_without_wedging() {
        // Near-total media failure: every aborted demotion also retires
        // its destination frame, so an unbreakered manager would grind
        // the NVM pool away retrying doomed pages. The breaker throttles
        // each tenant to a one-page probe per backoff window.
        let mut mc = MachineConfig::small(1, 32);
        mc.chaos.seed = 7;
        mc.chaos.nvm_media_error = 0.9;
        mc.chaos.pebs_storm = 0.5;
        let mut s = duo(mc);
        let retired_early = s.m.stats.pages_retired;
        s.advance(Ns::secs(2));
        assert!(
            s.backend.stats().breaker_trips > 0,
            "persistent media errors trip the breaker"
        );
        assert!(!s.manager_down(), "fault threads never wedge");
        assert!(s.m.stats.migrations_failed > 0);
        // The probe budget bounds the post-populate burn rate: 2 s is
        // 200 policy ticks; unthrottled retries would retire frames at
        // the full per-tick migration budget (dozens per tick).
        let burned = s.m.stats.pages_retired - retired_early;
        assert!(
            burned < 800,
            "breaker bounded the retry burn: {burned} frames retired"
        );
    }

    #[test]
    fn parked_slot_with_dirty_region_view_is_a_generation_leak() {
        let mc = MachineConfig::small(1, 1);
        let mut hc = HeMemConfig::scaled_for(&mc);
        hc.tracker.regions = crate::hemem::RegionConfig::multi_grain();
        let mut s = Sim::new(mc, HeMem::churn(hc, 2, ArbiterPolicy::GreedyMissRatio));
        assert_eq!(s.run_audit(false), Vec::new());
        // A region-period pass on an empty tracker changes nothing but
        // its region view's period counter: the page-level state still
        // reads empty, yet the slot is no longer a fresh one.
        s.backend.pool.slots[1].tracker.begin_region_period();
        assert_eq!(
            s.run_audit(false),
            vec![crate::audit::AuditViolation::SlotGenerationLeak {
                tenant: TenantId(1),
                generation: 0,
            }]
        );
    }
}
