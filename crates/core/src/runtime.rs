//! Deterministic event-loop runtime driving a [`TieredBackend`] under a
//! workload.
//!
//! Workloads own the outer loop: they create regions with [`Sim::mmap`],
//! warm them with [`Sim::populate`], submit [`AccessBatch`]es per
//! simulated thread, and pump [`Sim::step`] — which returns
//! [`Event::ThreadReady`] / [`Event::Custom`] to the workload while
//! handling backend ticks, PEBS drains, and migration completions
//! internally.

use std::collections::HashMap;

use hemem_memdev::{MemOp, Pattern};
use hemem_pebs::{SampleRecord, SampleType};
use hemem_sim::{EventQueue, LatencyClass, Ns};
use hemem_vmm::{
    FaultKind, FaultThread, PageClass, PageId, PageSize, PhysPage, Region, RegionId, RegionKind,
    Tier,
};

use crate::audit::{audit_machine, AuditViolation};
use crate::backend::{AccessBatch, CopyMechanism, MigrationJob, TieredBackend};
use crate::error::MemError;
use crate::journal::{JournalEntry, ShadowIntent, TxnState};
use crate::machine::{zero_fill, MachineConfig, MachineCore, TierHealth, WatchdogConfig};

/// Events visible to (or scheduled by) workload drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A workload thread finished its batch and can submit the next one.
    ThreadReady(u32),
    /// Backend background wake-up (policy thread, scanner).
    BackendTick,
    /// PEBS-thread buffer drain.
    PebsDrain,
    /// A page migration completed.
    MigrationDone(u64),
    /// Injected kill of the manager process (its threads stop; the
    /// application and its memory survive).
    ManagerKill,
    /// Watchdog liveness check over the policy cadence and the fault
    /// thread.
    WatchdogCheck,
    /// Manager restart: replay the journal and resynchronize, after the
    /// DMA engine has quiesced.
    ManagerRecover,
    /// Periodic invariant audit.
    AuditTick,
    /// Injected kill of one tenant (by slot index): the tenant is
    /// quarantined — no further policy work is scheduled for it — and a
    /// [`Event::TenantDrain`] is scheduled for after DMA quiescence.
    TenantKill(u32),
    /// The killed tenant's in-flight work has quiesced: roll back its
    /// prepared journal entries, reclaim its frames across every tier,
    /// and return its quota to the arbiter.
    TenantDrain(u32),
    /// Seeded device degradation of the tier at this rank: bandwidth
    /// throttles and wear retirement sheds part of the free capacity.
    TierDegrade(u32),
    /// Seeded device failure of the tier at this rank: the tier is
    /// quarantined against allocations and its resident pages are
    /// evacuated (or poisoned, without an evacuation engine).
    TierOffline(u32),
    /// Seeded re-admission of the tier at this rank: the device returns
    /// empty at full bandwidth and capacity.
    TierReadmit(u32),
    /// Workload-defined timer.
    Custom(u64),
}

/// Bandwidth multiplier applied to a tier's device while Degraded.
pub const DEGRADED_THROTTLE: f64 = 0.25;

/// State of an in-progress evacuation of a failed tier.
struct EvacState {
    /// The offline tier being drained.
    tier: Tier,
    /// Pages still awaiting an evacuation migration, interleaved
    /// round-robin across tenants for fairness.
    queue: std::collections::VecDeque<PageId>,
}

/// Outcome of submitting a batch, for latency accounting.
#[derive(Debug, Clone, Copy)]
pub struct BatchReceipt {
    /// When the thread resumes.
    pub complete_at: Ns,
    /// Mean per-access latency (device + translation + stalls), before
    /// MLP overlap.
    pub mean_access_latency: Ns,
}

/// One segment's sampleable pages, read once per [`Sim::fire_pebs`]: the
/// DRAM and NVM pages in `[lo, hi)`, and each class's rank below `lo`, so
/// a record's page is one select, or no select at all when the class
/// fills the segment.
#[derive(Debug, Clone, Copy)]
struct Residency {
    lo: u64,
    /// The segment's pages inside the region (`hi` may run past its end).
    pages: u64,
    dram: u64,
    nvm: u64,
    dram_below: u64,
    nvm_below: u64,
}

impl Residency {
    /// Reads segment `[lo, hi)` of `region`.
    fn of(region: &Region, lo: u64, hi: u64) -> Residency {
        let dram_below = region.rank(PageClass::Dram, lo);
        let nvm_below = region.rank(PageClass::Nvm, lo);
        Residency {
            lo,
            pages: hi.min(region.page_count()).saturating_sub(lo),
            dram: region.rank(PageClass::Dram, hi) - dram_below,
            nvm: region.rank(PageClass::Nvm, hi) - nvm_below,
            dram_below,
            nvm_below,
        }
    }

    /// The `k`-th (0-based) page of `class` (DRAM or NVM) in the
    /// segment, `k` below the class's count. A class that fills the
    /// segment holds every page, so its `k`-th page is `lo + k`; a mixed
    /// segment selects the class's `(rank below lo + k)`-th page.
    ///
    /// # Panics
    ///
    /// Panics if the region's index has no such page, which means the
    /// index disagrees with the counts read in [`Residency::of`].
    fn kth(&self, region: &Region, class: PageClass, k: u64) -> u64 {
        let (count, below) = match class {
            PageClass::Dram => (self.dram, self.dram_below),
            PageClass::Nvm => (self.nvm, self.nvm_below),
            PageClass::Ssd | PageClass::Unmapped => unreachable!("{class:?} pages are not sampled"),
        };
        if count == self.pages {
            return self.lo + k;
        }
        region.select(class, below + k).unwrap_or_else(|| {
            panic!(
                "{:?} has no {class:?} page of rank {}: the segment at page {} counts {count}",
                region.id(),
                below + k,
                self.lo,
            )
        })
    }
}

/// The simulation: machine + backend + event queue.
pub struct Sim<B: TieredBackend> {
    /// Machine state (public: workloads and experiments read counters).
    pub m: MachineCore,
    /// The tiered memory manager under test.
    pub backend: B,
    queue: EventQueue<Event>,
    next_mig: u64,
    app_threads: u32,
    /// Per-thread TLB shootdown stall already charged (shootdowns stall
    /// every core, so each thread pays each shootdown once).
    shootdown_charged: HashMap<u32, Ns>,
    /// The manager process is down (killed); its threads stop running
    /// until [`Event::ManagerRecover`] restarts them.
    manager_down: bool,
    /// Watchdog configuration, resolved at construction: explicit config,
    /// or the default whenever kills are scheduled. `None` = no watchdog
    /// events at all (the clean-run fast path).
    watchdog: Option<WatchdogConfig>,
    /// When the policy thread promised to tick next (`None`: the backend
    /// declared no cadence). The watchdog treats a deadline far in the
    /// past as a missed-deadline.
    tick_deadline: Option<Ns>,
    /// Consecutive watchdog checks that found the policy deadline blown.
    watchdog_missed: u32,
    /// A [`Event::ManagerRecover`] is already scheduled.
    recover_pending: bool,
    /// Tenant that owns regions created by [`Sim::mmap`] from here on.
    /// [`TenantId::SOLO`] (the default) reproduces the single-process
    /// machine; a colocation driver switches this before each tenant's
    /// setup phase so unmodified workload code tags its regions.
    active_tenant: hemem_vmm::TenantId,
    /// Active evacuation of a failed tier, if any. While set, the
    /// journaled migration path is reserved for jobs off that tier.
    evac: Option<EvacState>,
    /// Pages whose data died with an offline device: the next fault on
    /// one surfaces a typed poisoned-page error to the owning tenant
    /// before a fresh zero page is mapped — never a silent wrong read.
    poisoned: std::collections::BTreeSet<PageId>,
    /// PEBS records handed straight to the backend, reused across
    /// batches (empty between [`Sim::fire_pebs`] calls).
    direct: Vec<SampleRecord>,
}

impl<B: TieredBackend> Sim<B> {
    /// Creates a simulation and schedules the backend's first tick (and
    /// PEBS drains if the backend samples). Manager-kill instants from the
    /// fault plan, the watchdog, and the periodic auditor are scheduled
    /// here too — none of which exist in a clean default run, keeping the
    /// event stream (and therefore all downstream draws) bit-identical to
    /// a build without them.
    pub fn new(cfg: MachineConfig, backend: B) -> Sim<B> {
        let mut sim = Sim {
            m: MachineCore::new(cfg),
            backend,
            queue: EventQueue::new(),
            next_mig: 0,
            app_threads: 0,
            shootdown_charged: HashMap::new(),
            manager_down: false,
            watchdog: None,
            tick_deadline: None,
            watchdog_missed: 0,
            recover_pending: false,
            active_tenant: hemem_vmm::TenantId::SOLO,
            evac: None,
            poisoned: std::collections::BTreeSet::new(),
            direct: Vec::new(),
        };
        sim.queue.push_at(Ns::ZERO, Event::BackendTick);
        if sim.backend.uses_pebs() {
            let iv = sim.m.pebs.config().drain_interval;
            sim.queue.push_at(iv, Event::PebsDrain);
        }
        let kills = sim.m.chaos.kill_times().to_vec();
        sim.watchdog = match (sim.m.cfg.watchdog.clone(), kills.is_empty()) {
            (Some(w), _) => Some(w),
            // Kills without an explicit watchdog get the default one:
            // nothing else in the sim could ever restart the manager.
            (None, false) => Some(WatchdogConfig::default()),
            (None, true) => None,
        };
        for t in kills {
            sim.queue.push_at(t, Event::ManagerKill);
        }
        // Tenant kills are explicit (tenant, instant) pairs; an empty
        // schedule pushes nothing, keeping churn-free runs bit-identical.
        for k in sim.m.chaos.tenant_kills().to_vec() {
            sim.queue.push_at(k.at, Event::TenantKill(k.tenant));
        }
        // Tier health schedules: explicit (tier rank, instant) pairs,
        // validated against this machine's tier vector. Empty schedules
        // push nothing, keeping health-free runs bit-identical.
        let n_tiers = sim.m.tiers().len() as u32;
        for f in sim.m.chaos.tier_degrades().to_vec() {
            assert!(
                f.tier < n_tiers,
                "tier_degrade_at rank {} out of range",
                f.tier
            );
            sim.queue.push_at(f.at, Event::TierDegrade(f.tier));
        }
        for f in sim.m.chaos.tier_fails().to_vec() {
            assert!(
                f.tier < n_tiers,
                "tier_fail_at rank {} out of range",
                f.tier
            );
            assert!(
                f.tier != 0,
                "DRAM (rank 0) is the anchor tier and cannot go offline"
            );
            sim.queue.push_at(f.at, Event::TierOffline(f.tier));
        }
        for f in sim.m.chaos.tier_readmits().to_vec() {
            assert!(
                f.tier < n_tiers,
                "tier_readmit_at rank {} out of range",
                f.tier
            );
            sim.queue.push_at(f.at, Event::TierReadmit(f.tier));
        }
        if let Some(w) = &sim.watchdog {
            sim.queue.push_at(w.period, Event::WatchdogCheck);
        }
        if let Some(p) = sim.m.cfg.audit_period {
            sim.queue.push_at(p, Event::AuditTick);
        }
        sim
    }

    /// Current virtual time.
    pub fn now(&self) -> Ns {
        self.queue.now()
    }

    /// Whether the manager process is currently down (killed and not yet
    /// restarted by the watchdog).
    pub fn manager_down(&self) -> bool {
        self.manager_down
    }

    /// Kills the manager immediately (test/bench hook; scheduled kills
    /// come from [`hemem_sim::FaultPlanConfig::manager_kill_at`]). The
    /// watchdog — if configured — detects the dead policy cadence and
    /// restarts the manager; without one the manager stays down.
    pub fn inject_manager_kill(&mut self) {
        let now = self.now();
        self.kill_manager(now);
    }

    /// Declares `n` application threads (for core-contention accounting).
    pub fn set_app_threads(&mut self, n: u32) {
        self.app_threads = n;
    }

    /// Switches the tenant that owns subsequently created regions (see
    /// the field docs; colocation drivers call this around each tenant's
    /// setup).
    pub fn set_active_tenant(&mut self, tenant: hemem_vmm::TenantId) {
        self.active_tenant = tenant;
    }

    /// The tenant new regions are currently attributed to.
    pub fn active_tenant(&self) -> hemem_vmm::TenantId {
        self.active_tenant
    }

    /// Time-dilation factor from core oversubscription: application plus
    /// backend helper threads versus physical cores.
    pub fn dilation(&self) -> f64 {
        let runnable = self.app_threads + self.backend.background_threads();
        if runnable <= self.m.cores.cores() {
            1.0
        } else {
            runnable as f64 / self.m.cores.cores() as f64
        }
    }

    /// Creates a region of `len` bytes. The backend chooses whether to
    /// manage it (huge pages, tiered) or forward it to the kernel (base
    /// pages, plain DRAM).
    pub fn mmap(&mut self, len: u64) -> RegionId {
        let managed = self.backend.wants_to_manage(len);
        let (ps, kind) = if managed {
            (self.m.cfg.managed_page, RegionKind::ManagedHeap)
        } else {
            (PageSize::Base4K, RegionKind::SmallAnon)
        };
        let id = self.m.space.mmap_tagged(len, ps, kind, self.active_tenant);
        self.backend.on_mmap(&mut self.m, id);
        id
    }

    /// Destroys a region, returning its physical pages to the pools.
    pub fn munmap(&mut self, id: RegionId) {
        self.backend.on_munmap(&mut self.m, id);
        let region = self.m.space.munmap(id);
        if region.kind() == RegionKind::ManagedHeap {
            for i in 0..region.page_count() {
                if let hemem_vmm::PageState::Mapped { tier, phys, .. } = region.state(i) {
                    self.m.pool_mut(tier).free(phys);
                }
            }
            for (_, phys) in region.shadows() {
                self.m.free_shadow_frame(phys);
                self.m.shadow.dropped += 1;
            }
        }
    }

    /// First-touches every unmapped page of `region` sequentially (the
    /// warm-up fill from disk in the paper's workloads), then advances
    /// virtual time past the fill: the zero-fill device traffic of a
    /// multi-hundred-gigabyte region takes real (virtual) minutes, and
    /// leaving it as backlog would stall every later bulk transfer.
    /// Returns the total warm-up cost.
    pub fn populate(&mut self, region: RegionId, is_write: bool) -> Ns {
        let pages = self.m.space.region(region).page_count();
        self.fill(region, is_write, 0..pages)
    }

    /// Like [`Sim::populate`], but first-touches pages in random order —
    /// the placement a parallel multi-threaded load phase produces, where
    /// no address range monopolizes the DRAM that fills up first.
    pub fn populate_shuffled(&mut self, region: RegionId, is_write: bool) -> Ns {
        let pages = self.m.space.region(region).page_count();
        let mut order: Vec<u64> = (0..pages).collect();
        let mut rng = self.m.rng.fork(0x504f50); // "POP"
        rng.shuffle(&mut order);
        self.fill(region, is_write, order)
    }

    /// The warm-up fill behind both populate orders: first-touches each
    /// unmapped page of `order`, pacing the clock every 2048 pages, and
    /// ends past the zero-fill backlog. Returns the total warm-up cost.
    fn fill(
        &mut self,
        region: RegionId,
        is_write: bool,
        order: impl IntoIterator<Item = u64>,
    ) -> Ns {
        let now = self.now();
        let mut total = Ns::ZERO;
        for (n, i) in order.into_iter().enumerate() {
            if matches!(
                self.m.space.region(region).state(i),
                hemem_vmm::PageState::Unmapped
            ) {
                total += self.fault_page(PageId { region, index: i }, is_write, now + total);
            }
            if n % 2048 == 2047 {
                // Yield to background work mid-fill (policy and demotion
                // keep up with the fill instead of facing it all at once).
                total = self.pace_fill(now, total);
            }
        }
        self.pace_fill(now, total)
    }

    /// Advances the clock to the current fill frontier (faults plus bulk
    /// backlog) so background events interleave with a long fill, and
    /// returns the elapsed warm-up time.
    fn pace_fill(&mut self, start: Ns, fault_cost: Ns) -> Ns {
        let at = Ns(start.as_nanos() + fault_cost.as_nanos());
        let mut drain = Ns::ZERO;
        for &tier in self.m.tiers() {
            drain = drain.max(self.m.tier_bulk_queue_delay(at, tier, MemOp::Write));
        }
        let total = fault_cost + drain;
        self.run_until(Ns(start.as_nanos() + total.as_nanos()));
        total
    }

    /// Advances virtual time by `delay`, processing any internal events
    /// that fall inside the window.
    pub fn advance(&mut self, delay: Ns) {
        let target = Ns(self.now().as_nanos() + delay.as_nanos());
        self.run_until(target);
    }

    /// Processes internal events until `target`; the clock lands on
    /// `target` exactly. Workload events (`ThreadReady` / `Custom`)
    /// encountered in the window are dropped — use [`Sim::step`] when
    /// workload threads are live.
    pub fn run_until(&mut self, target: Ns) {
        loop {
            match self.queue.peek_time() {
                Some(t) if t <= target => {
                    if let Some((now, ev)) = self.queue.pop() {
                        self.dispatch_internal(now, ev);
                    }
                }
                _ => break,
            }
        }
        self.queue.push_at(target, Event::Custom(u64::MAX));
        self.queue.pop();
    }

    /// Schedules a workload timer.
    pub fn schedule_custom(&mut self, at: Ns, tag: u64) {
        self.queue.push_at(at, Event::Custom(tag));
    }

    /// Schedules a thread to become ready at `at` (initial kick-off).
    pub fn schedule_thread(&mut self, at: Ns, tid: u32) {
        self.queue.push_at(at, Event::ThreadReady(tid));
    }

    /// Pops events, handling internal ones, until a workload-visible event
    /// (or queue exhaustion).
    pub fn step(&mut self) -> Option<(Ns, Event)> {
        loop {
            let (now, ev) = self.queue.pop()?;
            match ev {
                Event::ThreadReady(_) | Event::Custom(_) => return Some((now, ev)),
                other => self.dispatch_internal(now, other),
            }
        }
    }

    fn dispatch_internal(&mut self, now: Ns, ev: Event) {
        // A killed manager takes its threads with it: policy ticks, PEBS
        // drains, and completion callbacks stop firing (their journal
        // entries stay Prepared for recovery to roll back). Application
        // faults keep working — the kernel resolves them, not the manager.
        if self.manager_down
            && matches!(
                ev,
                Event::BackendTick | Event::PebsDrain | Event::MigrationDone(_)
            )
        {
            return;
        }
        match ev {
            Event::BackendTick => {
                let out = self.backend.tick(&mut self.m, now);
                self.m
                    .trace
                    .observe_ns(LatencyClass::PolicyPass, out.cpu_time);
                self.start_migrations(now, &out.migrations);
                if let Some(next) = out.next_wake {
                    let next = next.max(Ns(now.as_nanos() + 1));
                    self.tick_deadline = Some(next);
                    self.queue.push_at(next, Event::BackendTick);
                } else {
                    self.tick_deadline = None;
                }
            }
            Event::PebsDrain => {
                // Injected overflow storm: the hardware wrapped the buffer
                // before this drain; the backlog is lost but the tracker
                // keeps classifying on later samples.
                if self.m.chaos.pebs_storm() {
                    self.m.pebs.drop_pending();
                }
                let pending = self.m.pebs.pending() as u64;
                self.m.trace.observe(LatencyClass::PebsBacklog, pending);
                let budget = self.m.pebs.drain_budget();
                let samples = self.m.pebs.drain(budget);
                self.m.trace.instant(
                    now,
                    "pebs_drain",
                    "pebs",
                    &[("pending", pending), ("drained", samples.len() as u64)],
                );
                if !samples.is_empty() {
                    self.m.invalidate_shadows_on_stores(&samples);
                    self.backend.on_samples(&mut self.m, &samples, now);
                }
                // Self-tuning sample period: after each drain the
                // adaptive controller inspects the drop fraction and
                // backlog of the window just drained and may move the
                // period. A decision emits a trace instant so the
                // trajectory is visible alongside the drains.
                if self.m.pebs.is_adaptive() {
                    if let Some(period) = self.m.pebs.adapt_after_drain() {
                        self.m.trace.instant(
                            now,
                            "pebs_adapt",
                            "pebs",
                            &[("sample_period", period)],
                        );
                    }
                }
                let iv = self.m.pebs.config().drain_interval;
                self.queue.push_after(iv, Event::PebsDrain);
            }
            Event::MigrationDone(id) => self.finish_migration(now, id),
            Event::ManagerKill => self.kill_manager(now),
            Event::WatchdogCheck => self.watchdog_check(now),
            Event::ManagerRecover => self.recover_manager(now),
            Event::AuditTick => {
                self.run_audit(false);
                if let Some(p) = self.m.cfg.audit_period {
                    self.queue.push_after(p, Event::AuditTick);
                }
            }
            Event::TenantKill(t) => self.kill_tenant(now, hemem_vmm::TenantId(t)),
            Event::TenantDrain(t) => self.drain_tenant(now, hemem_vmm::TenantId(t)),
            // Device health transitions are machine-level (the device
            // does not care whether the manager process is up); the
            // evacuation pump alone waits for a live manager.
            Event::TierDegrade(r) => self.degrade_tier(now, Tier::ALL[r as usize]),
            Event::TierOffline(r) => self.fail_tier(now, Tier::ALL[r as usize]),
            Event::TierReadmit(r) => self.readmit_tier(now, Tier::ALL[r as usize]),
            Event::ThreadReady(_) | Event::Custom(_) => {
                // Dropped: run_until discards workload events in its window.
            }
        }
    }

    /// Kills the manager process: its policy, PEBS, and completion
    /// handling stop until the watchdog restarts it. The application (and
    /// kernel-side fault handling) keeps running.
    fn kill_manager(&mut self, _now: Ns) {
        if !self.manager_down {
            self.manager_down = true;
            self.m.recovery.manager_kills += 1;
        }
    }

    /// Kills one tenant immediately (test/bench hook; scheduled kills
    /// come from [`hemem_sim::FaultPlanConfig::tenant_kill_at`]).
    pub fn inject_tenant_kill(&mut self, tenant: hemem_vmm::TenantId) {
        let now = self.now();
        self.kill_tenant(now, tenant);
    }

    /// A tenant died: quarantine it (the backend stops scheduling its
    /// policy work, placements, and samples) and schedule the drain for
    /// after the DMA engine has quiesced — its prepared migrations must not have frames
    /// reclaimed under a copy still in flight, mirroring the manager
    /// recovery path.
    fn kill_tenant(&mut self, now: Ns, tenant: hemem_vmm::TenantId) {
        self.m.recovery.tenant_kills += 1;
        self.m.trace.instant(
            now,
            "tenant_kill",
            "lifecycle",
            &[("tenant", tenant.0 as u64)],
        );
        self.backend.tenant_killed(&mut self.m, tenant, now);
        let at = now.max(self.m.dma.quiesce_at());
        self.queue.push_at(at, Event::TenantDrain(tenant.0));
    }

    /// Completes a killed tenant's teardown once its DMA traffic has
    /// quiesced: rolls back its prepared journal entries, unmaps its
    /// regions and reclaims their frames across every tier, and hands
    /// the backend the final `tenant_drained` notification (which
    /// returns the quota to the arbiter). After this, the
    /// `FrameLeakAfterRetire` / `ZombieTenantQuota` audits must find
    /// nothing attributed to the tenant.
    fn drain_tenant(&mut self, now: Ns, tenant: hemem_vmm::TenantId) {
        // Journal rollback: prepared entries lost their owner. Entries
        // whose copy already committed flipped the mapping earlier —
        // their frames fall out with the region walk below.
        self.roll_back_prepared(now, |e| e.tenant == tenant);
        // Reclaim the tenant's memory across every tier: unmap each of
        // its regions and return ManagedHeap frames to their pools
        // (SmallAnon pages are kernel-backed and free with the region).
        let regions: Vec<RegionId> = self
            .m
            .space
            .regions()
            .filter(|r| r.tenant() == tenant)
            .map(|r| r.id())
            .collect();
        let mut reclaimed = 0u64;
        for &id in &regions {
            self.backend.on_munmap(&mut self.m, id);
            let region = self.m.space.munmap(id);
            if region.kind() == RegionKind::ManagedHeap {
                for i in 0..region.page_count() {
                    if let hemem_vmm::PageState::Mapped { tier, phys, .. } = region.state(i) {
                        self.m.pool_mut(tier).free(phys);
                        reclaimed += 1;
                    }
                }
                for (_, phys) in region.shadows() {
                    self.m.free_shadow_frame(phys);
                    self.m.shadow.dropped += 1;
                }
            }
        }
        self.backend.tenant_drained(&mut self.m, tenant, now);
        self.m.recovery.tenant_drains += 1;
        self.m.trace.instant(
            now,
            "tenant_drained",
            "lifecycle",
            &[("tenant", tenant.0 as u64), ("reclaimed_pages", reclaimed)],
        );
        // The drain just invalidated every PageId in the dropped regions:
        // purge them from the evacuation queue and the poisoned set, then
        // give the evacuation (if any) a chance to finish — the drain may
        // have freed the last frames it was waiting on.
        if let Some(evac) = self.evac.as_mut() {
            evac.queue.retain(|p| !regions.contains(&p.region));
        }
        self.poisoned.retain(|p| !regions.contains(&p.region));
        if self.evac.is_some() {
            self.pump_evacuation(now);
        }
    }

    /// Current health of each tier, driven by the seeded schedules or the
    /// manual injection hooks below.
    pub fn evacuating(&self) -> Option<Tier> {
        self.evac.as_ref().map(|e| e.tier)
    }

    /// Degrades a tier immediately (test/bench hook; scheduled
    /// degradations come from [`hemem_sim::FaultPlanConfig::tier_degrade_at`]).
    pub fn inject_tier_degrade(&mut self, tier: Tier) {
        let now = self.now();
        self.degrade_tier(now, tier);
    }

    /// Fails a tier immediately (test/bench hook; scheduled failures come
    /// from [`hemem_sim::FaultPlanConfig::tier_fail_at`]).
    pub fn inject_tier_fail(&mut self, tier: Tier) {
        assert!(tier != Tier::Dram, "DRAM is the anchor tier");
        let now = self.now();
        self.fail_tier(now, tier);
    }

    /// Readmits a failed or degraded tier immediately (test/bench hook).
    pub fn inject_tier_readmit(&mut self, tier: Tier) {
        let now = self.now();
        self.readmit_tier(now, tier);
    }

    /// `Healthy -> Degraded`: the device throttles to a quarter of its
    /// bandwidth and wear retirement sheds an eighth of the currently
    /// free capacity (DRAM degrades to the throttle only — DIMMs do not
    /// retire rows in this model).
    fn degrade_tier(&mut self, now: Ns, tier: Tier) {
        if self.m.tier_health(tier) != TierHealth::Healthy {
            return;
        }
        self.m.health.health[tier.rank()] = TierHealth::Degraded;
        self.m.health.degrades += 1;
        self.m.set_tier_throttle(tier, DEGRADED_THROTTLE);
        let shed = if tier == Tier::Dram {
            0
        } else {
            self.m.pool(tier).free_pages() / 8
        };
        let taken = if shed > 0 {
            self.m.pool_mut(tier).retire_free(shed)
        } else {
            0
        };
        self.m.health.health_retired[tier.rank()] += taken;
        self.m.trace.instant(
            now,
            "tier_degrade",
            "health",
            &[("tier", tier.rank() as u64), ("retired_pages", taken)],
        );
    }

    /// `-> Offline`: quarantines the tier against allocations, rolls back
    /// prepared migrations *into* it (their destination frames died with
    /// the device), and either starts the evacuation engine or — without
    /// one — poisons every resident page. Copies already reading *off*
    /// the tier complete: the model is a failed-in-place device that
    /// stays readable (read-only mode) while it drains.
    fn fail_tier(&mut self, now: Ns, tier: Tier) {
        if self.m.tier_health(tier) == TierHealth::Offline {
            return;
        }
        self.m.health.health[tier.rank()] = TierHealth::Offline;
        self.m.health.offlines += 1;
        self.m.trace.instant(
            now,
            "tier_offline",
            "health",
            &[("tier", tier.rank() as u64)],
        );
        // Shadow frames live on NVM; a dead NVM device takes its clean
        // copies with it. They hold no authoritative data, so dropping
        // them loses nothing — the primaries stay mapped in DRAM.
        if tier == Tier::Nvm {
            self.m.drop_all_shadows();
        }
        for e in self.roll_back_prepared(now, |e| e.dst_tier == tier) {
            self.backend
                .migration_aborted(&mut self.m, e.page, e.src_tier);
        }
        if self.m.cfg.evacuate_on_failure {
            let queue = self.collect_evacuation_queue(tier);
            self.m.trace.instant(
                now,
                "evacuation_begin",
                "health",
                &[("tier", tier.rank() as u64), ("pages", queue.len() as u64)],
            );
            self.evac = Some(EvacState { tier, queue });
            self.pump_evacuation(now);
        } else {
            self.poison_tier(now, tier);
            self.m.health.evac_done[tier.rank()] = true;
        }
    }

    /// `-> Healthy` again: cancels any evacuation still draining the
    /// tier, restores full bandwidth, and returns health-retired frames
    /// to the free list. The device comes back *empty* — whatever was
    /// evacuated stays where it landed.
    fn readmit_tier(&mut self, now: Ns, tier: Tier) {
        if self.m.tier_health(tier) == TierHealth::Healthy {
            return;
        }
        if self.evac.as_ref().is_some_and(|e| e.tier == tier) {
            self.evac = None;
        }
        self.m.set_tier_throttle(tier, 1.0);
        let restored = self.m.pool_mut(tier).unretire_health();
        self.m.health.health_retired[tier.rank()] = 0;
        self.m.health.health[tier.rank()] = TierHealth::Healthy;
        self.m.health.evac_done[tier.rank()] = false;
        self.m.health.readmits += 1;
        self.m.trace.instant(
            now,
            "tier_readmit",
            "health",
            &[("tier", tier.rank() as u64), ("restored_pages", restored)],
        );
    }

    /// Scans the address space for pages resident on `tier`, interleaved
    /// round-robin across tenants so one large tenant cannot starve the
    /// others' evacuations. Write-protected (mid-migration) pages are
    /// skipped; the drain-time rescan picks up whatever they resolve to.
    fn collect_evacuation_queue(&self, tier: Tier) -> std::collections::VecDeque<PageId> {
        let mut per_tenant: std::collections::BTreeMap<u32, Vec<PageId>> = Default::default();
        for r in self.m.space.regions() {
            if r.kind() != RegionKind::ManagedHeap {
                continue;
            }
            for i in 0..r.page_count() {
                if let hemem_vmm::PageState::Mapped {
                    tier: t, wp: false, ..
                } = r.state(i)
                {
                    if t == tier {
                        per_tenant.entry(r.tenant().0).or_default().push(PageId {
                            region: r.id(),
                            index: i,
                        });
                    }
                }
            }
        }
        let mut lists: Vec<_> = per_tenant.into_values().map(|v| v.into_iter()).collect();
        let mut queue = std::collections::VecDeque::new();
        let mut live = true;
        while live {
            live = false;
            for it in &mut lists {
                if let Some(p) = it.next() {
                    queue.push_back(p);
                    live = true;
                }
            }
        }
        queue
    }

    /// Drives the evacuation forward: starts journaled migrations off the
    /// failed tier up to a bounded in-flight budget, poisons pages with
    /// nowhere to go, and declares the evacuation done once a full rescan
    /// finds the tier empty. Idle while the manager is down — migrations
    /// need its threads — and re-entered from every completion hook.
    fn pump_evacuation(&mut self, now: Ns) {
        const EVAC_MAX_INFLIGHT: usize = 8;
        if self.manager_down {
            return;
        }
        let Some(tier) = self.evac.as_ref().map(|e| e.tier) else {
            return;
        };
        // `progress` guards the rescan: without it, a rescan that finds
        // only locked pages would make rescan-pop-skip spin forever.
        let mut progress = true;
        loop {
            let inflight = self.m.journal.prepared_freeing(tier) as usize;
            if inflight >= EVAC_MAX_INFLIGHT {
                return;
            }
            let Some(page) = self.evac.as_mut().and_then(|e| e.queue.pop_front()) else {
                if inflight > 0 || !progress {
                    return; // completions or unlocks will re-pump
                }
                progress = false;
                let queue = self.collect_evacuation_queue(tier);
                if queue.is_empty() {
                    self.m.health.evac_done[tier.rank()] = true;
                    self.m.trace.instant(
                        now,
                        "evacuation_done",
                        "health",
                        &[
                            ("tier", tier.rank() as u64),
                            ("evacuated", self.m.health.evacuated_pages),
                            ("poisoned", self.m.health.poisoned_pages),
                        ],
                    );
                    self.evac = None;
                    return;
                }
                self.evac.as_mut().expect("checked above").queue = queue;
                continue;
            };
            // Pages can move or lock between the scan and this pop.
            match self.m.space.region(page.region).state(page.index) {
                hemem_vmm::PageState::Mapped {
                    tier: t, wp: false, ..
                } if t == tier => {}
                _ => continue,
            }
            match self.backend.evacuation_dst(&mut self.m, page, tier) {
                Some(dst) => {
                    let before = self.m.stats.migrations_started;
                    self.start_migrations(
                        now,
                        &[MigrationJob {
                            page,
                            dst,
                            mechanism: CopyMechanism::Threads(4),
                        }],
                    );
                    if self.m.stats.migrations_started > before {
                        progress = true;
                    }
                }
                None => {
                    // Nowhere to put it: typed data loss to the owner.
                    self.poison_page(now, page);
                    progress = true;
                }
            }
        }
    }

    /// Poisons one resident page: its frame is freed, the data is gone,
    /// and the owning tenant's next fault on it gets a typed
    /// poisoned-page notification instead of a silent wrong read.
    fn poison_page(&mut self, now: Ns, page: PageId) {
        let tenant = self.m.space.region(page.region).tenant();
        // A stale clean copy of lost data must not survive as a
        // demotion target.
        if self.m.drop_shadow_of(page) {
            self.m.shadow.dropped += 1;
        }
        let (tier, phys) = self.m.space.region_mut(page.region).unmap_page(page.index);
        self.m.pool_mut(tier).free(phys);
        self.m.health.poisoned_pages += 1;
        *self.m.health.tenant_poisoned.entry(tenant.0).or_insert(0) += 1;
        self.poisoned.insert(page);
        self.backend.swapped_out(&mut self.m, page);
        self.m.trace.instant(
            now,
            "page_poisoned",
            "health",
            &[("tenant", tenant.0 as u64)],
        );
    }

    /// The no-evacuation baseline: the device died outright. Copies
    /// still reading off it are abandoned (rolled back in transaction
    /// order), then every resident page is poisoned.
    fn poison_tier(&mut self, now: Ns, tier: Tier) {
        self.roll_back_prepared(now, |e| e.src_tier == tier);
        let mut pages = Vec::new();
        for r in self.m.space.regions() {
            if r.kind() != RegionKind::ManagedHeap {
                continue;
            }
            for i in 0..r.page_count() {
                if let hemem_vmm::PageState::Mapped { tier: t, .. } = r.state(i) {
                    if t == tier {
                        pages.push(PageId {
                            region: r.id(),
                            index: i,
                        });
                    }
                }
            }
        }
        for page in pages {
            self.poison_page(now, page);
        }
    }

    /// One watchdog period: checks the policy-tick deadline and the fault
    /// thread, escalating a missed-deadline streak to a manager restart.
    fn watchdog_check(&mut self, now: Ns) {
        let Some(cfg) = self.watchdog.clone() else {
            return;
        };
        // Policy deadline monitor: the backend promised a tick at
        // `tick_deadline`; a full extra period of slack past that counts
        // as one missed deadline (`None` = no cadence, nothing to miss).
        let blown = match self.tick_deadline {
            Some(d) => now.as_nanos() > d.as_nanos() + cfg.period.as_nanos(),
            None => self.manager_down,
        };
        if blown {
            self.watchdog_missed += 1;
        } else {
            self.watchdog_missed = 0;
        }
        if self.watchdog_missed >= cfg.miss_streak && !self.recover_pending {
            // Declare the manager dead (it may already be, after a kill)
            // and schedule the restart — but not before every in-flight
            // DMA descriptor has landed: recovery frees destination
            // frames, and a late DMA write into a recycled frame would
            // corrupt whatever was reallocated there.
            self.manager_down = true;
            self.recover_pending = true;
            let at = now.max(self.m.dma.quiesce_at());
            self.queue.push_at(at, Event::ManagerRecover);
        }
        // Fault-thread supervision: a wedged handler (injected stall) with
        // a backlog past the limit is restarted in place; queued faults
        // re-admit against the fresh thread.
        if self.m.fault_thread.backlog(now) > cfg.fault_backlog_limit {
            self.m.fault_thread = FaultThread::new();
            self.m.recovery.watchdog_restarts += 1;
        }
        self.queue.push_after(cfg.period, Event::WatchdogCheck);
    }

    /// Restarts the manager: rolls uncommitted migrations back from the
    /// journal, resynchronizes the backend from live machine state, and
    /// reschedules the management threads.
    fn recover_manager(&mut self, now: Ns) {
        self.recover_pending = false;
        if !self.manager_down {
            return;
        }
        // Journal replay, in transaction order. Prepared entries lost
        // their copy and roll back; committed entries already flipped the
        // mapping, so replaying them only retires the entry.
        self.m.recovery.journal_replays += self.m.journal.entries().count() as u64;
        self.roll_back_prepared(now, |_| true);
        self.m.journal.drain();
        // Shadow/primary reconcile: every shadow step is atomic within
        // one event, so a kill (which lands between events) should never
        // leave a shadow whose primary is not DRAM-mapped — but recovery
        // verifies rather than trusts. Any stale shadow found here is
        // freed; the audit's `StaleShadowMapped` would flag one we
        // missed.
        if self.m.pool(Tier::Nvm).shadow_held_pages() > 0 {
            let mut stale: Vec<PageId> = Vec::new();
            for r in self.m.space.regions() {
                for (i, _) in r.shadows() {
                    let ok = matches!(
                        r.state(i),
                        hemem_vmm::PageState::Mapped {
                            tier: Tier::Dram,
                            ..
                        }
                    );
                    if !ok {
                        stale.push(PageId {
                            region: r.id(),
                            index: i,
                        });
                    }
                }
            }
            for page in stale {
                if self.m.drop_shadow_of(page) {
                    self.m.shadow.reconciled += 1;
                }
            }
        }
        // Fresh manager process: rebuild backend state from what survives
        // (per-page counters, the address space), restart its threads.
        self.backend.recover(&mut self.m, now);
        self.manager_down = false;
        self.watchdog_missed = 0;
        self.m.recovery.watchdog_restarts += 1;
        let next = Ns(now.as_nanos() + 1);
        self.tick_deadline = Some(next);
        self.queue.push_at(next, Event::BackendTick);
        if self.backend.uses_pebs() {
            let iv = self.m.pebs.config().drain_interval;
            self.queue.push_after(iv, Event::PebsDrain);
        }
        // An evacuation stalled by the dead manager (its completions were
        // dropped, its prepared entries just rolled back) resumes here.
        if self.evac.is_some() {
            self.pump_evacuation(now);
        }
    }

    /// Rolls back every prepared migration `pick` selects, in transaction
    /// order: aborts the journal entry, unlocks the source page (which
    /// never stopped being the authoritative mapping), frees the
    /// destination frame, and closes the migration span without latency
    /// accounting (the copy never completed). Returns the aborted entries.
    fn roll_back_prepared(
        &mut self,
        now: Ns,
        pick: impl Fn(&JournalEntry) -> bool,
    ) -> Vec<JournalEntry> {
        let ids: Vec<u64> = self
            .m
            .journal
            .entries()
            .filter(|(_, e)| e.state == TxnState::Prepared && pick(e))
            .map(|(id, _)| id)
            .collect();
        let mut aborted = Vec::with_capacity(ids.len());
        for id in ids {
            let e = self.m.journal.abort(id).expect("entry just listed");
            let _ = self
                .m
                .space
                .region_mut(e.page.region)
                .try_set_wp(e.page.index, false);
            self.m.pool_mut(e.dst_tier).free(e.dst_phys);
            self.m.recovery.journal_rollbacks += 1;
            self.m
                .trace
                .span_drop(now, "migration", "migration", id, &[("rollback", 1)]);
            aborted.push(e);
        }
        aborted
    }

    /// Runs the invariant auditor (machine-level checks plus the
    /// backend's own), counting violations into recovery telemetry.
    /// `expect_quiescent` additionally requires an empty journal.
    pub fn run_audit(&mut self, expect_quiescent: bool) -> Vec<AuditViolation> {
        let mut v = audit_machine(&self.m, expect_quiescent);
        v.extend(self.backend.audit(&self.m));
        self.m.recovery.audit_violations += v.len() as u64;
        v
    }

    /// Starts migration jobs; batches DMA jobs into ioctl groups.
    pub fn start_migrations(&mut self, now: Ns, jobs: &[MigrationJob]) {
        // Group DMA jobs per (channels) for batched ioctls of up to the
        // paper's best batch size of 4.
        const DMA_BATCH: usize = 4;
        let mut dma_group: Vec<(u64, u64, usize)> = Vec::new(); // (mig id, bytes, channels)
        for job in jobs {
            let Some(prep) = self.prepare_migration(now, job) else {
                continue;
            };
            let (id, bytes) = prep;
            match job.mechanism {
                CopyMechanism::Dma { channels } => {
                    dma_group.push((id, bytes, channels));
                    if dma_group.len() == DMA_BATCH {
                        self.flush_dma_group(now, &mut dma_group);
                    }
                }
                CopyMechanism::Threads(n) => {
                    let rate = 3.0e9 * n.max(1) as f64;
                    let service = Ns::from_secs_f64(bytes as f64 / rate);
                    let e = *self.m.journal.entry(id).expect("prepared job is journaled");
                    let cap = Some(10.0e9);
                    let r1 = self
                        .m
                        .reserve_tier_bulk(now, e.src_tier, MemOp::Read, bytes, cap);
                    let r2 = self
                        .m
                        .reserve_tier_bulk(now, e.dst_tier, MemOp::Write, bytes, cap);
                    let done = (now + service).max(r1.finish).max(r2.finish);
                    self.queue.push_at(done, Event::MigrationDone(id));
                }
            }
        }
        if !dma_group.is_empty() {
            self.flush_dma_group(now, &mut dma_group);
        }
    }

    fn flush_dma_group(&mut self, now: Ns, group: &mut Vec<(u64, u64, usize)>) {
        let sizes: Vec<u64> = group.iter().map(|&(_, b, _)| b).collect();
        let mut channels = group.iter().map(|&(_, _, c)| c).max().unwrap_or(1).max(1);
        // Injected channel loss: the batch limps along on one surviving
        // channel instead of the requested stripe width.
        if self.m.chaos.dma_channel_lost() {
            channels = 1;
        }
        let dma_done = match self.submit_dma_with_retry(now, &sizes, channels) {
            Some(done) => {
                self.m
                    .trace
                    .observe_ns(LatencyClass::DmaBatch, done.saturating_sub(now));
                self.m.trace.instant(
                    now,
                    "dma_batch",
                    "dma",
                    &[
                        ("jobs", group.len() as u64),
                        ("bytes", sizes.iter().sum()),
                        ("channels", channels as u64),
                    ],
                );
                done
            }
            None => {
                // Engine gave up: copy the whole group with HeMem's
                // 4-thread fallback (§3.2, used when I/OAT is absent).
                let total: u64 = sizes.iter().sum();
                now + Ns::from_secs_f64(total as f64 / (3.0e9 * 4.0))
            }
        };
        let cap = Some(10.0e9);
        let mut done = dma_done;
        for &(id, bytes, _) in group.iter() {
            let e = *self.m.journal.entry(id).expect("prepared job is journaled");
            let r1 = self
                .m
                .reserve_tier_bulk(now, e.src_tier, MemOp::Read, bytes, cap);
            let r2 = self
                .m
                .reserve_tier_bulk(now, e.dst_tier, MemOp::Write, bytes, cap);
            done = done.max(r1.finish).max(r2.finish);
        }
        for &(id, _, _) in group.iter() {
            self.queue.push_at(done, Event::MigrationDone(id));
        }
        group.clear();
    }

    /// Submits one DMA batch, retrying with exponential ioctl backoff when
    /// fault injection fails the submission. Returns the completion time,
    /// or `None` once retries are exhausted (or the engine is already
    /// degraded) — the caller then falls back to copy threads. The
    /// migration itself is never lost either way.
    fn submit_dma_with_retry(&mut self, now: Ns, sizes: &[u64], channels: usize) -> Option<Ns> {
        const MAX_ATTEMPTS: u32 = 3;
        // A degraded engine short-circuits to the thread fallback — except
        // when the probe knob elects this submission to test whether the
        // engine came back (a success below closes the breaker).
        if self.m.dma.degraded() && !self.m.dma.should_probe() {
            self.m.stats.dma_fallbacks += 1;
            return None;
        }
        let overhead = self.m.dma.config().ioctl_overhead;
        let channels = channels.min(self.m.dma.config().channels as usize).max(1);
        let mut at = now;
        for attempt in 0..MAX_ATTEMPTS {
            if self.m.chaos.dma_submit_fails() {
                self.m.dma.note_submit_failure();
                if self.m.dma.degraded() || attempt + 1 == MAX_ATTEMPTS {
                    break;
                }
                self.m.stats.dma_retries += 1;
                at = Ns(at.as_nanos() + (overhead.as_nanos() << attempt));
                continue;
            }
            match self.m.dma.submit(at, sizes, channels) {
                Ok(done) => return Some(done),
                Err(_) => break, // invalid batch: retrying cannot help
            }
        }
        self.m.stats.dma_fallbacks += 1;
        None
    }

    /// Validates a job, allocates the destination page, write-protects the
    /// source, and journals the transaction (phase one: *prepare* — the
    /// intent and destination frame are recorded before any copy starts,
    /// so an interruption at any later point rolls back from the journal
    /// alone). Returns `(migration id, bytes)`.
    fn prepare_migration(&mut self, now: Ns, job: &MigrationJob) -> Option<(u64, u64)> {
        let region = self.m.space.region(job.page.region);
        let bytes = region.page_size().bytes();
        let tenant = region.tenant();
        let (src_tier, src_phys) = match region.state(job.page.index) {
            hemem_vmm::PageState::Mapped { tier, phys, wp } => {
                if tier == job.dst || wp {
                    return None; // already there / already migrating
                }
                (tier, phys)
            }
            _ => return None, // unmapped: nothing to migrate
        };
        // An offline tier takes no new frames; and while an evacuation is
        // draining a failed tier it owns the journaled migration path —
        // policy jobs off other tiers abort (and re-enqueue) instead of
        // competing for the bounded in-flight budget.
        let evac_owns = self.evac.as_ref().is_some_and(|e| e.tier != src_tier);
        if !self.m.tier_online(job.dst) || evac_owns {
            self.m.stats.migrations_aborted += 1;
            self.backend
                .migration_aborted(&mut self.m, job.page, src_tier);
            return None;
        }
        // Shadows are free NVM capacity: a demotion that finds the NVM
        // pool exhausted reclaims one shadow frame rather than aborting
        // (and re-aborting forever while shadows park the whole tier).
        let mut dst_phys = self.m.pool_mut(job.dst).alloc();
        if dst_phys.is_none() && job.dst == Tier::Nvm && self.m.reclaim_shadow_frames(1) > 0 {
            dst_phys = self.m.pool_mut(job.dst).alloc();
        }
        let Some(dst_phys) = dst_phys else {
            self.m.stats.migrations_aborted += 1;
            self.backend
                .migration_aborted(&mut self.m, job.page, src_tier);
            return None;
        };
        self.m
            .space
            .region_mut(job.page.region)
            .set_wp(job.page.index, true);
        let id = self.next_mig;
        self.next_mig += 1;
        // Non-exclusive mode: an NVM→DRAM promotion journals the intent to
        // retain the source frame as a clean shadow. Writes that land during
        // the WP window dirty the intent before it ever becomes a shadow.
        let shadow = if self.m.cfg.nvm_shadows && src_tier == Tier::Nvm && job.dst == Tier::Dram {
            ShadowIntent::Retain
        } else {
            ShadowIntent::Drop
        };
        self.m.journal.prepare_shadowed(
            id, job.page, tenant, src_tier, src_phys, job.dst, dst_phys, shadow,
        );
        self.m.stats.migrations_started += 1;
        // The migration span opens at prepare: end-to-end latency is
        // policy issue to mapping flip, not just the copy.
        self.m.trace.span_begin(now, "migration", "migration", id);
        Some((id, bytes))
    }

    fn finish_migration(&mut self, now: Ns, id: u64) {
        let Some(&e) = self.m.journal.entry(id) else {
            return; // rolled back by recovery before the copy landed
        };
        // Injected media error on the destination write (NVM or SSD; its
        // likelihood grows with the frame's wear). The transaction aborts:
        // the destination frame is poisoned and retired, the journal entry
        // is dropped, and the source mapping — never touched — stays
        // authoritative. The page is restored to the backend intact.
        if self.m.media_error(e.dst_tier, e.dst_phys) {
            self.m.journal.abort(id);
            self.m.pool_mut(e.dst_tier).retire(e.dst_phys);
            self.m.stats.pages_retired += 1;
            self.m.stats.migrations_failed += 1;
            let region = self.m.space.region_mut(e.page.region);
            region.set_wp(e.page.index, false);
            let src_tier = match region.state(e.page.index) {
                hemem_vmm::PageState::Mapped { tier, .. } => tier,
                other => panic!("migrating page {:?} in state {other:?}", e.page),
            };
            self.backend
                .migration_aborted(&mut self.m, e.page, src_tier);
            self.m
                .trace
                .span_drop(now, "migration", "migration", id, &[("aborted", 1)]);
            if self.evac.is_some() {
                self.pump_evacuation(now);
            }
            return;
        }
        // Phase two: *commit* — mark the entry committed, flip the
        // mapping, release the source frame, retire the entry. The whole
        // sequence runs atomically within this event, so a kill (which
        // lands between events) only ever observes Prepared entries.
        // Re-read the entry from the commit: the WP window may have
        // downgraded its shadow intent (Retain → Dirtied) since prepare.
        let e = self
            .m
            .journal
            .mark_committed(id)
            .expect("entry present: looked up above");
        // Any shadow the page held before this migration is stale the
        // moment its mapping flips (e.g. a copy-demotion of a DRAM page
        // whose clean shadow was passed over for remap).
        let stale = self
            .m
            .space
            .region_mut(e.page.region)
            .take_shadow(e.page.index);
        if let Some(stale) = stale {
            self.m.free_shadow_frame(stale);
            self.m.shadow.dropped += 1;
        }
        let region = self.m.space.region_mut(e.page.region);
        let bytes = region.page_size().bytes();
        let (old_tier, old_phys) = region.remap_page(e.page.index, e.dst_tier, e.dst_phys);
        region.set_wp(e.page.index, false);
        // Non-exclusive commit: a promotion that stayed clean through the
        // WP window keeps its NVM source frame as a shadow; everything
        // else releases the source as before.
        if e.shadow == ShadowIntent::Retain
            && old_tier == Tier::Nvm
            && self.m.tier_online(Tier::Nvm)
        {
            self.m
                .space
                .region_mut(e.page.region)
                .set_shadow(e.page.index, old_phys);
            self.m.pool_mut(Tier::Nvm).note_shadow();
            self.m.shadow.retained += 1;
        } else {
            self.m.pool_mut(old_tier).free(old_phys);
        }
        // A migration writes the whole destination frame once; a
        // demotion onto the SSD also wears every erase block the frame
        // covers.
        self.m.pool_mut(e.dst_tier).note_write(e.dst_phys, 1);
        if e.dst_tier == Tier::Ssd {
            self.note_ssd_block_write(e.dst_phys, bytes);
        }
        let cores = self.m.cores.cores();
        self.m.tlb.shootdown(cores);
        self.m.stats.migrations_done += 1;
        self.m.stats.migrated_bytes += bytes;
        self.m.journal.retire(id);
        self.m.trace.span_end(
            now,
            LatencyClass::Migration,
            "migration",
            "migration",
            id,
            &[("to_dram", (e.dst_tier == Tier::Dram) as u64)],
        );
        self.backend.migration_done(&mut self.m, e.page, e.dst_tier);
        // Evacuation bookkeeping: a commit off the failing tier is one
        // page saved; either way a completion frees an in-flight slot.
        if let Some(evac_tier) = self.evac.as_ref().map(|ev| ev.tier) {
            if e.src_tier == evac_tier {
                self.m.health.evacuated_pages += 1;
                self.m.trace.instant(
                    now,
                    "evacuation_page",
                    "health",
                    &[("tenant", e.tenant.0 as u64)],
                );
            }
            self.pump_evacuation(now);
        }
    }

    /// Allocates a frame from `tier`, retiring NVM and SSD frames whose
    /// first write hits an injected media error (the zero-fill or
    /// promotion write lands on a poisoned frame; the allocator tries the
    /// next one).
    /// Returns `None` when the tier is exhausted, including by
    /// retirements.
    fn alloc_frame(&mut self, tier: Tier) -> Option<PhysPage> {
        if !self.m.tier_online(tier) {
            return None; // offline devices take no allocations
        }
        loop {
            let phys = match self.m.pool_mut(tier).alloc() {
                Some(p) => p,
                // Shadows are free capacity: NVM exhaustion reclaims one
                // (the shadow's primary stays mapped in DRAM) rather than
                // spilling or failing the allocation.
                None if tier == Tier::Nvm && self.m.reclaim_shadow_frames(1) > 0 => {
                    self.m.pool_mut(tier).alloc()?
                }
                None => return None,
            };
            if self.m.media_error(tier, phys) {
                self.m.pool_mut(tier).retire(phys);
                self.m.stats.pages_retired += 1;
                continue;
            }
            self.m.pool_mut(tier).note_write(phys, 1);
            return Some(phys);
        }
    }

    /// Allocates a frame for an incoming page, direct-reclaiming under
    /// pressure. Tries the desired tier, then the other memory tier, and
    /// only then pays for synchronous reclaim. Reclaim is retried a
    /// bounded number of times: an injected media error can retire the
    /// very frame a reclaim just freed (and a victim popped mid-migration
    /// is skipped as busy), and a single attempt would turn that
    /// recoverable pressure into a machine OOM kill. Genuine exhaustion —
    /// nothing left to reclaim — still surfaces as `OutOfMemory`.
    fn alloc_with_reclaim(
        &mut self,
        desired: Tier,
        now: Ns,
    ) -> Result<(Tier, PhysPage, Ns), MemError> {
        const RECLAIM_RETRIES: u32 = 64;
        if let Some(p) = self.alloc_frame(desired) {
            return Ok((desired, p, Ns::ZERO));
        }
        let other = desired.other();
        if let Some(p) = self.alloc_frame(other) {
            return Ok((other, p, Ns::ZERO));
        }
        let mut extra = Ns::ZERO;
        for _ in 0..RECLAIM_RETRIES {
            match self.direct_reclaim(now) {
                Ok(ns) => extra += ns,
                // The popped victim was already under migration; the next
                // pop yields a different page.
                Err(MemError::ReclaimVictimBusy(_)) => continue,
                Err(e) => return Err(e),
            }
            if let Some(p) = self.alloc_frame(desired) {
                return Ok((desired, p, extra));
            }
            if let Some(p) = self.alloc_frame(other) {
                return Ok((other, p, extra));
            }
        }
        Err(MemError::OutOfMemory)
    }

    /// Records erase-block wear on the SSD device for one page-frame
    /// write (frames are laid out contiguously by index).
    fn note_ssd_block_write(&mut self, phys: PhysPage, page_bytes: u64) {
        if let Some(ssd) = self.m.ssd.as_mut() {
            ssd.note_block_write(phys.0 * page_bytes, page_bytes);
        }
    }

    /// Handles a first-touch fault; returns the faulting thread's stall.
    ///
    /// # Panics
    ///
    /// An unsatisfiable fault — memory exhausted with nothing to reclaim,
    /// or no SSD tier to reclaim into — is the machine's OOM kill:
    /// this wrapper panics with the typed cause from
    /// [`Sim::try_fault_page`]. Use that method to observe the error
    /// instead.
    pub fn fault_page(&mut self, page: PageId, is_write: bool, now: Ns) -> Ns {
        self.try_fault_page(page, is_write, now)
            .unwrap_or_else(|e| panic!("fatal fault on {page:?}: {e}"))
    }

    /// Fallible core of [`Sim::fault_page`].
    pub fn try_fault_page(
        &mut self,
        page: PageId,
        is_write: bool,
        now: Ns,
    ) -> Result<Ns, MemError> {
        let region = self.m.space.region(page.region);
        let kind = region.kind();
        let page_bytes = region.page_size().bytes();
        // Managed-region faults funnel through HeMem's single fault
        // thread; storms queue behind it. An injected stall wedges the
        // handler first, so this fault (and any behind it) queues longer.
        let queue = if kind == RegionKind::ManagedHeap {
            let cfg = self.m.fault_cfg.clone();
            if let Some(stall_for) = self.m.chaos.fault_thread_stall() {
                self.m.fault_thread.stall(now, stall_for);
            }
            self.m.fault_thread.admit(now, &cfg)
        } else {
            Ns::ZERO
        };
        let mut stall = self.m.fault_cfg.round_trip() + queue;
        // A fault on a poisoned page surfaces the data loss to its owner
        // as a typed notification — never a silent wrong read — and then
        // falls through to map a fresh zero page. The owner still has to
        // re-materialize the lost contents (re-fetch or recompute), which
        // is the critical-path bill evacuation exists to avoid.
        if self.poisoned.remove(&page) {
            let tenant = self.m.space.region(page.region).tenant();
            self.m.health.poison_faults += 1;
            stall += self.m.cfg.poison_recovery;
            self.m.trace.instant(
                now,
                "poison_fault",
                "health",
                &[("tenant", tenant.0 as u64)],
            );
        }
        if kind == RegionKind::SmallAnon {
            // Kernel-managed anonymous memory: always DRAM, outside the
            // tiered pools (the kernel keeps its own reserve).
            self.m.space.region_mut(page.region).map_page(
                page.index,
                Tier::Dram,
                PhysPage(page.index),
            );
            self.m.fault_stats.record(FaultKind::Missing, stall);
            self.observe_fault(now, stall);
            return Ok(stall);
        }
        let desired = self.backend.place(&mut self.m, page, is_write);
        let (tier, phys, extra) = self.alloc_with_reclaim(desired, now)?;
        self.m
            .space
            .region_mut(page.region)
            .map_page(page.index, tier, phys);
        zero_fill(&mut self.m, now, tier, page_bytes);
        if tier == Tier::Ssd {
            self.note_ssd_block_write(phys, page_bytes);
        }
        self.backend.placed(&mut self.m, page, tier);
        self.m.fault_stats.record(FaultKind::Missing, stall);
        let total = stall + extra;
        self.observe_fault(now, total);
        Ok(total)
    }

    /// Records one serviced page fault into the tracer: service latency
    /// into the fault histogram plus (when tracing) an instant event.
    fn observe_fault(&mut self, now: Ns, service: Ns) {
        self.m.trace.observe_ns(LatencyClass::Fault, service);
        // `swap_in` is pinned 0 (no fault pages in from swap any more);
        // it stays so committed Chrome traces remain byte-identical.
        self.m.trace.instant(
            now,
            "fault",
            "fault",
            &[("service_ns", service.as_nanos()), ("swap_in", 0)],
        );
    }

    /// Synchronously frees one frame under memory pressure by demoting a
    /// victim page onto the SSD tier; returns the stall the faulting
    /// thread pays. The page stays mapped on `Tier::Ssd`, and a later
    /// access takes a major fault through the device queue.
    fn direct_reclaim(&mut self, now: Ns) -> Result<Ns, MemError> {
        let victim = self
            .backend
            .reclaim_victim(&mut self.m)
            .ok_or(MemError::OutOfMemory)?;
        let region = self.m.space.region(victim.region);
        let bytes = region.page_size().bytes();
        let src_tier = match region.state(victim.index) {
            hemem_vmm::PageState::Mapped {
                tier, wp: false, ..
            } if tier != Tier::Ssd => tier,
            _ => return Err(MemError::ReclaimVictimBusy(victim)),
        };
        // Clean-shadow fast path: a DRAM victim whose bytes already sit in
        // its NVM shadow demotes by remap alone — no SSD program, no stall.
        if src_tier == Tier::Dram && self.m.shadow_remap_demote(victim) {
            self.backend.placed(&mut self.m, victim, Tier::Nvm);
            return Ok(Ns::ZERO);
        }
        if !self.m.has_ssd() || !self.m.tier_online(Tier::Ssd) {
            // Nowhere to demote to: the victim stays put, back on its queue.
            self.backend.placed(&mut self.m, victim, src_tier);
            return Err(MemError::NoSwapDevice);
        }
        let ssd_phys = self.alloc_frame(Tier::Ssd).ok_or(MemError::SwapExhausted)?;
        self.m
            .reserve_tier_bulk(now, src_tier, MemOp::Read, bytes, None);
        let r = self
            .m
            .reserve_tier_bulk(now, Tier::Ssd, MemOp::Write, bytes, None);
        self.note_ssd_block_write(ssd_phys, bytes);
        let (old_tier, old_phys) =
            self.m
                .space
                .region_mut(victim.region)
                .remap_page(victim.index, Tier::Ssd, ssd_phys);
        debug_assert_eq!(old_tier, src_tier);
        self.m.pool_mut(old_tier).free(old_phys);
        self.m.stats.swap_outs += 1;
        // `placed`: the page keeps its identity (and its hotness
        // counters) on the SSD tier.
        self.backend.placed(&mut self.m, victim, Tier::Ssd);
        Ok(r.service)
    }

    /// Submits one access batch on behalf of thread `tid`; schedules its
    /// [`Event::ThreadReady`] and returns timing details.
    pub fn submit_batch(&mut self, tid: u32, batch: &AccessBatch) -> BatchReceipt {
        let now = self.now();
        let mut device_finish = now;
        let mut stall = Ns::ZERO;
        // Accumulated (latency * accesses) for the mean-latency estimate.
        let mut lat_weighted: f64 = 0.0;
        let mut pages_touched: u64 = 0;
        let page_size = batch
            .segments
            .first()
            .map(|s| self.m.space.region(s.region).page_size())
            .unwrap_or(PageSize::Huge2M);

        for seg in &batch.segments {
            let count = batch.count as f64 * seg.weight;
            if count <= 0.0 || seg.hi_page <= seg.lo_page {
                continue;
            }
            pages_touched += seg.pages();
            let wf = seg.write_fraction.unwrap_or(batch.write_fraction);
            let writes = count * wf;
            let reads = count - writes;

            stall += self.fault_unmapped(seg, count, now);
            stall += self.fault_ssd_resident(seg, count, now);

            // LLC filtering.
            let hit = match batch.pattern {
                Pattern::Random => self.m.llc.hit_fraction(seg.llc_footprint),
                Pattern::Sequential => self.m.llc.streaming_hit_fraction(),
            };
            let mem_reads = reads * (1.0 - hit);
            let mem_writes = writes * (1.0 - hit);
            lat_weighted += (reads + writes) * hit * self.m.llc.hit_latency().as_nanos() as f64;

            // Deposit accessed/dirty-bit evidence for scanning backends.
            // Random accesses each land on an independent page; a
            // sequential stream touches consecutive addresses, so its
            // page-touch count is bytes/page_size — depositing raw access
            // counts would make a slow scan over a huge array set every
            // accessed bit, when in reality only the pages the stream
            // passed since the last scan are referenced.
            let single_touch = batch.sweep || batch.pattern == Pattern::Sequential;
            let (led_r, led_w) = if single_touch {
                let per_page = page_size.bytes() as f64 / batch.object_size.max(1) as f64;
                (
                    mem_reads / per_page.max(1.0),
                    mem_writes / per_page.max(1.0),
                )
            } else {
                (mem_reads, mem_writes)
            };
            self.m
                .space
                .region_mut(seg.region)
                .ledger
                .add(seg.lo_page, seg.hi_page, led_r, led_w);

            // Tier split and device reservations.
            let split = self.backend.split(
                &mut self.m,
                seg,
                batch.object_size,
                batch.pattern,
                mem_reads,
                mem_writes,
            );
            for t in &split.traffic {
                // Base device latency only: bandwidth queueing is captured
                // by `device_finish` (accesses pipeline through the
                // backlog; charging it per access would double-count).
                let lat = self.m.device(t.tier).latency(t.op);
                lat_weighted += t.count * (lat + split.extra_latency).as_nanos() as f64;
                let res = self.m.reserve_traffic(now, t);
                device_finish = device_finish.max(res.finish);
            }

            // Write-protection stalls: writes landing on migrating pages.
            stall += self.wp_stall(now, seg, mem_writes);

            // PEBS sampling. The batch's samples are generated over its
            // whole service window; estimate that window for burst-drop
            // accounting. PEBS counts *retired instructions*: an access of
            // `object_size` bytes executes one load/store per cache line,
            // so large objects fire proportionally more events.
            if self.backend.uses_pebs() {
                let window = device_finish.saturating_sub(now).max(Ns::micros(10));
                let lines = (batch.object_size as f64 / 64.0).max(1.0);
                self.fire_pebs(
                    seg,
                    mem_reads * lines,
                    split.nvm_load_fraction,
                    writes * lines,
                    window,
                );
            }
        }

        // Translation overhead per access over the touched page set.
        let trans = self.m.tlb.translation_overhead(pages_touched, page_size);
        lat_weighted += batch.count as f64 * trans.as_nanos() as f64;

        // TLB shootdowns since this thread's last batch stalled its core.
        let total_sd = self.m.tlb.stats().shootdown_stall;
        let charged = self.shootdown_charged.entry(tid).or_insert(Ns::ZERO);
        stall += total_sd.saturating_sub(*charged);
        *charged = total_sd;

        let cpu_ns = batch.count as f64 * batch.cpu_ns_per_access;
        let mem_ns = lat_weighted / batch.mlp.max(1.0);
        let thread_time = Ns::from_nanos_f64((cpu_ns + mem_ns) * self.dilation()) + stall;
        let complete_at = (now + thread_time).max(device_finish);
        self.queue.push_at(complete_at, Event::ThreadReady(tid));
        self.m.stats.ops += batch.count;
        let mean = if batch.count > 0 {
            Ns::from_nanos_f64(lat_weighted / batch.count as f64)
        } else {
            Ns::ZERO
        };
        BatchReceipt {
            complete_at,
            mean_access_latency: mean,
        }
    }

    /// Faults the expected number of distinct unmapped pages a batch
    /// touches in `seg`.
    fn fault_unmapped(&mut self, seg: &crate::backend::SegmentAccess, count: f64, now: Ns) -> Ns {
        let region = self.m.space.region(seg.region);
        let pages = seg.pages();
        let unmapped = pages - region.mapped_pages_in(seg.lo_page, seg.hi_page);
        if unmapped == 0 {
            return Ns::ZERO;
        }
        // Expected distinct unmapped pages touched by `count` uniform
        // accesses over `pages` pages.
        let lam = count / pages as f64;
        let expect = unmapped as f64 * (1.0 - (-lam).exp());
        let n = self.m.rng.round_stochastic(expect).min(unmapped);
        let mut stall = Ns::ZERO;
        for _ in 0..n {
            let region = self.m.space.region(seg.region);
            let remaining = seg.pages() - region.mapped_pages_in(seg.lo_page, seg.hi_page);
            if remaining == 0 {
                break;
            }
            let k = self.m.rng.gen_range(remaining);
            let Some(idx) = region.kth_page_in(PageClass::Unmapped, seg.lo_page, seg.hi_page, k)
            else {
                break;
            };
            stall += self.fault_page(
                PageId {
                    region: seg.region,
                    index: idx,
                },
                true,
                now,
            );
        }
        stall
    }

    /// Faults the expected number of distinct SSD-resident pages a batch
    /// touches in `seg` back through the swap device (major faults).
    /// Without an SSD tier no page is ever SSD-resident, so this draws
    /// nothing from the RNG and two-tier runs are unperturbed.
    fn fault_ssd_resident(
        &mut self,
        seg: &crate::backend::SegmentAccess,
        count: f64,
        now: Ns,
    ) -> Ns {
        let region = self.m.space.region(seg.region);
        let ssd = region.ssd_pages_in(seg.lo_page, seg.hi_page);
        if ssd == 0 {
            return Ns::ZERO;
        }
        let pages = seg.pages();
        // Expected distinct SSD-resident pages touched by `count` uniform
        // accesses over `pages` pages (same model as `fault_unmapped`).
        let lam = count / pages as f64;
        let expect = ssd as f64 * (1.0 - (-lam).exp());
        let n = self.m.rng.round_stochastic(expect).min(ssd);
        let mut stall = Ns::ZERO;
        for _ in 0..n {
            let region = self.m.space.region(seg.region);
            let remaining = region.ssd_pages_in(seg.lo_page, seg.hi_page);
            if remaining == 0 {
                break;
            }
            let k = self.m.rng.gen_range(remaining);
            let Some(idx) = region.kth_page_in(PageClass::Ssd, seg.lo_page, seg.hi_page, k) else {
                break;
            };
            stall += self.major_fault_page(
                PageId {
                    region: seg.region,
                    index: idx,
                },
                true,
                now,
            );
        }
        stall
    }

    /// Services a major fault on an SSD-resident page: the thread stalls
    /// synchronously behind the swap device's queue for the page read,
    /// and the page is promoted to whichever byte-addressable tier the
    /// policy picks (or stays put when the policy answers `Ssd`, as the
    /// spill baseline does).
    fn major_fault_page(&mut self, page: PageId, is_write: bool, now: Ns) -> Ns {
        let region = self.m.space.region(page.region);
        let tenant = region.tenant();
        let page_bytes = region.page_size().bytes();
        let ssd_phys = match region.state(page.index) {
            hemem_vmm::PageState::Mapped {
                tier: Tier::Ssd,
                phys,
                wp: false,
            } => phys,
            // Write-protected means a migration already has the page in
            // hand; anything else means we raced a remap. Either way the
            // access is someone else's problem now.
            _ => return Ns::ZERO,
        };
        // Major faults funnel through the same single fault thread as
        // first-touch faults on managed memory.
        let cfg = self.m.fault_cfg.clone();
        if let Some(stall_for) = self.m.chaos.fault_thread_stall() {
            self.m.fault_thread.stall(now, stall_for);
        }
        let queue = self.m.fault_thread.admit(now, &cfg);
        let read = self
            .m
            .reserve_tier_bulk(now, Tier::Ssd, MemOp::Read, page_bytes, None);
        // Queue wait plus the transfer itself: the thread blocks for both.
        let device = read.finish.saturating_sub(now);
        let mut total = self.m.fault_cfg.round_trip() + queue + device;
        let desired = self.backend.place(&mut self.m, page, is_write);
        if desired != Tier::Ssd {
            let frame = match self.alloc_frame(desired) {
                Some(p) => Some((desired, p)),
                None => {
                    let other = desired.other();
                    match self.alloc_frame(other) {
                        Some(p) => Some((other, p)),
                        None => match self.direct_reclaim(now) {
                            Ok(extra) => {
                                total += extra;
                                // N-1 safety net: when the desired tier is
                                // offline (a backend that does not cascade
                                // can still name one), fall through to the
                                // frame the reclaim just freed on the other
                                // tier instead of stranding the page on the
                                // SSD forever. Gated on offline so healthy
                                // runs keep their exact placement sequence.
                                self.alloc_frame(desired).map(|p| (desired, p)).or_else(|| {
                                    if !self.m.tier_online(desired) {
                                        self.alloc_frame(other).map(|p| (other, p))
                                    } else {
                                        None
                                    }
                                })
                            }
                            Err(_) => None,
                        },
                    }
                }
            };
            if let Some((tier, phys)) = frame {
                let w = self
                    .m
                    .reserve_tier_bulk(now, tier, MemOp::Write, page_bytes, None);
                total += w.service;
                let (old_tier, old_phys) = self
                    .m
                    .space
                    .region_mut(page.region)
                    .remap_page(page.index, tier, phys);
                debug_assert_eq!(old_tier, Tier::Ssd);
                debug_assert_eq!(old_phys, ssd_phys);
                self.m.pool_mut(Tier::Ssd).free(old_phys);
                self.m.stats.swap_ins += 1;
                self.backend.placed(&mut self.m, page, tier);
            }
            // No frame even after reclaim: the page stays on the SSD —
            // the access was still served by the device read above.
        }
        self.m.fault_stats.record(FaultKind::Missing, total);
        self.m.trace.observe_ns(LatencyClass::MajorFault, total);
        let generation = self.m.space.tenant_generation(tenant);
        self.m
            .tenant_major_faults
            .entry((tenant.0, generation))
            .or_default()
            .record_ns(total);
        self.m.trace.instant(
            now,
            "major_fault",
            "fault",
            &[
                ("tenant", tenant.0 as u64),
                ("service_ns", total.as_nanos()),
            ],
        );
        total
    }

    fn wp_stall(&mut self, now: Ns, seg: &crate::backend::SegmentAccess, writes: f64) -> Ns {
        let region = self.m.space.region(seg.region);
        if region.wp_pages() == 0 || writes <= 0.0 {
            return Ns::ZERO;
        }
        // Only WP pages inside this segment's span stall this segment's
        // writes (a demoting cold page does not slow hot-segment stores).
        let wp_in = region.wp_pages_in(seg.lo_page, seg.hi_page);
        if wp_in == 0 {
            return Ns::ZERO;
        }
        let frac = wp_in as f64 / seg.pages().max(1) as f64;
        let hits = self.m.rng.round_stochastic(writes * frac);
        if hits == 0 {
            return Ns::ZERO;
        }
        self.m.stats.wp_stalls += hits;
        // A write landing in the WP window of an in-flight promotion means
        // the DRAM copy will diverge from its would-be shadow: downgrade
        // every Retain intent in the stalled span. Conservative (the whole
        // span dirties), but a stale shadow would be a correctness bug
        // while an over-dropped one only costs a future copy.
        let dirtied = self
            .m
            .journal
            .dirty_shadows_in(seg.region, seg.lo_page, seg.hi_page);
        self.m.shadow.dirtied_wp += dirtied;
        // Each stalled write waits a fault round trip plus (on average)
        // half a page-copy time at the migration rate cap.
        let half_copy = Ns::from_secs_f64(region.page_size().bytes() as f64 / 10.0e9 / 2.0);
        let per = self.m.fault_cfg.round_trip() + half_copy;
        // One histogram observation per batch that stalled (the per-stall
        // duration; `hits` rides along in the event args — recording `per`
        // `hits` times would only replicate one value).
        self.m.trace.observe_ns(LatencyClass::WpStall, per);
        self.m.trace.instant(
            now,
            "wp_stall",
            "fault",
            &[("stalls", hits), ("per_ns", per.as_nanos())],
        );
        self.m
            .fault_stats
            .record(FaultKind::WriteProtect, per.scale(hits as f64));
        per.scale(hits as f64)
    }

    /// Generates PEBS records for one segment's traffic.
    fn fire_pebs(
        &mut self,
        seg: &crate::backend::SegmentAccess,
        mem_reads: f64,
        nvm_load_fraction: f64,
        all_stores: f64,
        window: Ns,
    ) {
        // CPU-cost bound on simulated record construction per batch; a
        // batch producing more is thinned (its residual drops are counted,
        // matching a PEBS thread that cannot keep up with the burst).
        const MAX_RECORDS: u64 = 32_768;
        let nvm_loads = mem_reads * nvm_load_fraction;
        let dram_loads = mem_reads - nvm_loads;
        let plan = [
            (SampleType::NvmLoad, nvm_loads),
            (SampleType::DramLoad, dram_loads),
            (SampleType::Store, all_stores),
        ];
        // Residency cannot change until `on_samples` below, so the
        // segment's counts are read once, before its first record.
        let mut counts = None;
        let mut direct = std::mem::take(&mut self.direct);
        for (ty, expect) in plan {
            let events = self.m.rng.round_stochastic(expect);
            let fired = self.m.pebs.events(ty, events);
            let room = self.m.pebs.burst_room(window);
            let kept = fired.min(room).min(MAX_RECORDS);
            self.m.pebs.drop_n(fired - kept);
            if kept == 0 {
                continue;
            }
            let counts = *counts.get_or_insert_with(|| {
                Residency::of(self.m.space.region(seg.region), seg.lo_page, seg.hi_page)
            });
            // The records are produced across the batch's whole service
            // window. What fits in the buffer right now is queued for the
            // PEBS thread; the remainder — justified by the drain rate
            // over the window — is handed to it directly, as it would be
            // consumed while the batch is still running.
            let buffered = kept.min(self.m.pebs.free_space());
            for _ in 0..buffered {
                if let Some(vaddr) = self.draw_sample_addr(seg, counts, ty) {
                    self.m.pebs.push(SampleRecord { vaddr, kind: ty });
                }
            }
            for _ in 0..kept - buffered {
                if let Some(vaddr) = self.draw_sample_addr(seg, counts, ty) {
                    direct.push(SampleRecord { vaddr, kind: ty });
                }
            }
        }
        if !direct.is_empty() {
            self.m.pebs.record_direct(direct.len() as u64);
            let now = self.now();
            self.m.invalidate_shadows_on_stores(&direct);
            self.backend.on_samples(&mut self.m, &direct, now);
            direct.clear();
        }
        self.direct = direct;
    }

    /// Picks a concrete virtual address within `seg` whose page residency
    /// matches the sample type: the segment's `k`-th page of the class
    /// ([`Residency::kth`]), then a byte offset within it.
    fn draw_sample_addr(
        &mut self,
        seg: &crate::backend::SegmentAccess,
        r: Residency,
        ty: SampleType,
    ) -> Option<u64> {
        // SSD-resident pages never appear in PEBS records: their accesses
        // trap as major faults before any load/store can retire.
        let (class, k) = match ty {
            SampleType::NvmLoad => {
                if r.nvm == 0 {
                    return None;
                }
                (PageClass::Nvm, self.m.rng.gen_range(r.nvm))
            }
            SampleType::DramLoad => {
                if r.dram == 0 {
                    return None;
                }
                (PageClass::Dram, self.m.rng.gen_range(r.dram))
            }
            SampleType::Store => {
                let sampleable = r.dram + r.nvm;
                if sampleable == 0 {
                    return None;
                }
                // Any byte-addressable mapped page, picked proportionally.
                let k = self.m.rng.gen_range(sampleable);
                if k < r.dram {
                    (PageClass::Dram, k)
                } else {
                    (PageClass::Nvm, k - r.dram)
                }
            }
        };
        let region = self.m.space.region(seg.region);
        let idx = r.kth(region, class, k);
        debug_assert!((seg.lo_page..seg.hi_page).contains(&idx));
        let base = region.page_addr(idx).0;
        let off = self.m.rng.gen_range(region.page_size().bytes());
        Some(base + off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{TickOutput, TieredBackend};
    use crate::machine::MachineConfig;
    use hemem_memdev::GIB;

    /// [`Residency::kth`] picks the page `kth_page_in` picks, both where a
    /// class fills the segment (the shortcut) and where it does not, on
    /// segments that run past the region's end.
    #[test]
    fn residency_kth_matches_kth_page_in() {
        let mut space = hemem_vmm::AddressSpace::new();
        let id = space.mmap(96 << 12, PageSize::Base4K, RegionKind::ManagedHeap);
        let r = space.region_mut(id);
        // DRAM below 30, NVM across the word boundary at 64, all four
        // states interleaved in [70, 90), NVM to the end.
        for i in 0..96 {
            let tier = match (i, i % 4) {
                (0..30, _) => Some(Tier::Dram),
                (30..70, _) | (90.., _) | (_, 1) => Some(Tier::Nvm),
                (_, 0) => Some(Tier::Dram),
                (_, 2) => Some(Tier::Ssd),
                _ => None,
            };
            if let Some(tier) = tier {
                r.map_page(i, tier, PhysPage(i));
            }
        }
        let r = space.region(id);
        let cases = [
            (0, 30, Some(PageClass::Dram)),
            (5, 20, Some(PageClass::Dram)),
            (30, 70, Some(PageClass::Nvm)),
            (40, 66, Some(PageClass::Nvm)),
            (90, 200, Some(PageClass::Nvm)),
            (20, 40, None),
            (29, 35, None),
            (70, 90, None),
            (85, 300, None),
            (100, 120, None),
        ];
        for (lo, hi, fills) in cases {
            let res = Residency::of(r, lo, hi);
            for (class, count) in [(PageClass::Dram, res.dram), (PageClass::Nvm, res.nvm)] {
                assert_eq!(
                    count == res.pages && count > 0,
                    fills == Some(class),
                    "[{lo}, {hi}) {class:?}"
                );
                for k in 0..count {
                    assert_eq!(
                        Some(res.kth(r, class, k)),
                        r.kth_page_in(class, lo, hi, k),
                        "[{lo}, {hi}) {class:?} k={k}"
                    );
                }
                assert_eq!(r.kth_page_in(class, lo, hi, count), None);
            }
        }
    }

    /// Minimal backend: everything managed, placed DRAM-first, no
    /// background work, optional scripted migrations and reclaim victims.
    struct TestBackend {
        jobs: Vec<MigrationJob>,
        ticks: u32,
        done: Vec<(PageId, Tier)>,
        victims: Vec<PageId>,
        placed: Vec<(PageId, Tier)>,
    }

    impl TestBackend {
        fn new() -> TestBackend {
            TestBackend {
                jobs: Vec::new(),
                ticks: 0,
                done: Vec::new(),
                victims: Vec::new(),
                placed: Vec::new(),
            }
        }
    }

    impl TieredBackend for TestBackend {
        fn name(&self) -> &'static str {
            "test"
        }
        fn wants_to_manage(&self, _len: u64) -> bool {
            true
        }
        fn on_mmap(&mut self, _m: &mut MachineCore, _r: RegionId) {}
        fn on_munmap(&mut self, _m: &mut MachineCore, _r: RegionId) {}
        fn place(&mut self, m: &mut MachineCore, _p: PageId, _w: bool) -> Tier {
            if m.pool(Tier::Dram).free_pages() > 0 {
                Tier::Dram
            } else {
                Tier::Nvm
            }
        }
        fn placed(&mut self, _m: &mut MachineCore, p: PageId, t: Tier) {
            self.placed.push((p, t));
        }
        fn reclaim_victim(&mut self, _m: &mut MachineCore) -> Option<PageId> {
            self.victims.pop()
        }
        fn tick(&mut self, _m: &mut MachineCore, now: Ns) -> TickOutput {
            self.ticks += 1;
            TickOutput {
                next_wake: Some(now + Ns::millis(10)),
                migrations: std::mem::take(&mut self.jobs),
                cpu_time: Ns::ZERO,
            }
        }
        fn migration_done(&mut self, _m: &mut MachineCore, page: PageId, dst: Tier) {
            self.done.push((page, dst));
        }
    }

    fn sim() -> Sim<TestBackend> {
        Sim::new(MachineConfig::small(1, 4), TestBackend::new())
    }

    #[test]
    fn mmap_populate_maps_every_page() {
        let mut s = sim();
        let id = s.mmap(GIB / 2);
        let cost = s.populate(id, true);
        assert!(cost > Ns::ZERO);
        let r = s.m.space.region(id);
        assert_eq!(r.mapped_pages(), 256);
        assert_eq!(r.dram_pages(), 256, "fits in DRAM");
    }

    #[test]
    fn populate_spills_to_nvm_when_dram_full() {
        let mut s = sim();
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        let r = s.m.space.region(id);
        assert_eq!(r.dram_pages(), 512);
        assert_eq!(r.mapped_pages(), 1024);
        assert_eq!(s.m.pool(Tier::Nvm).allocated_pages(), 512);
    }

    #[test]
    fn batch_schedules_thread_ready_and_counts_ops() {
        let mut s = sim();
        let id = s.mmap(GIB / 2);
        s.populate(id, true);
        let b = AccessBatch::uniform(id, 0, 256, 10_000, 8, 0.5, GIB / 2);
        let receipt = s.submit_batch(3, &b);
        assert!(receipt.complete_at > s.now());
        let (t, ev) = s.step().expect("event");
        assert_eq!(ev, Event::ThreadReady(3));
        assert_eq!(t, receipt.complete_at);
        assert_eq!(s.m.stats.ops, 10_000);
    }

    #[test]
    fn batches_on_unmapped_pages_fault_them_in() {
        let mut s = sim();
        let id = s.mmap(GIB / 2);
        // No populate: the batch itself must fault pages.
        let b = AccessBatch::uniform(id, 0, 256, 500_000, 8, 0.5, GIB / 2);
        s.submit_batch(0, &b);
        while let Some((_, ev)) = s.step() {
            if matches!(ev, Event::ThreadReady(_)) {
                break;
            }
        }
        let r = s.m.space.region(id);
        assert!(
            r.mapped_pages() > 200,
            "most pages faulted: {}",
            r.mapped_pages()
        );
        assert!(s.m.fault_stats.missing > 0);
    }

    #[test]
    fn migration_moves_page_and_notifies_backend() {
        let mut s = sim();
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        // Page 600 is NVM-resident; migrate it to DRAM (free a frame first).
        let (t0, p0) = s.m.space.region_mut(id).unmap_page(0);
        s.m.pool_mut(t0).free(p0);
        let page = PageId {
            region: id,
            index: 600,
        };
        s.backend.jobs.push(MigrationJob {
            page,
            dst: Tier::Dram,
            mechanism: crate::backend::CopyMechanism::Dma { channels: 2 },
        });
        s.advance(Ns::millis(50));
        assert_eq!(s.m.stats.migrations_done, 1);
        assert_eq!(s.backend.done, vec![(page, Tier::Dram)]);
        match s.m.space.region(id).state(600) {
            hemem_vmm::PageState::Mapped { tier, wp, .. } => {
                assert_eq!(tier, Tier::Dram);
                assert!(!wp, "write protection cleared");
            }
            other => panic!("page lost: {other:?}"),
        }
        assert_eq!(s.m.tlb.stats().shootdowns, 1, "remap shoots down the TLB");
    }

    #[test]
    fn migration_to_full_tier_aborts_cleanly() {
        let mut s = sim();
        let id = s.mmap(2 * GIB);
        s.populate(id, true); // DRAM completely full
        let page = PageId {
            region: id,
            index: 600,
        };
        s.backend.jobs.push(MigrationJob {
            page,
            dst: Tier::Dram,
            mechanism: crate::backend::CopyMechanism::Threads(4),
        });
        s.advance(Ns::millis(50));
        assert_eq!(s.m.stats.migrations_aborted, 1);
        assert_eq!(s.m.stats.migrations_started, 0);
        match s.m.space.region(id).state(600) {
            hemem_vmm::PageState::Mapped { tier, .. } => assert_eq!(tier, Tier::Nvm),
            other => panic!("page lost: {other:?}"),
        }
    }

    #[test]
    fn duplicate_migration_of_same_page_is_ignored() {
        let mut s = sim();
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        let (t0, p0) = s.m.space.region_mut(id).unmap_page(0);
        s.m.pool_mut(t0).free(p0);
        let (t1, p1) = s.m.space.region_mut(id).unmap_page(1);
        s.m.pool_mut(t1).free(p1);
        let page = PageId {
            region: id,
            index: 700,
        };
        let job = MigrationJob {
            page,
            dst: Tier::Dram,
            mechanism: crate::backend::CopyMechanism::Dma { channels: 1 },
        };
        s.backend.jobs.push(job);
        s.backend.jobs.push(job); // duplicate in the same tick
        s.advance(Ns::millis(50));
        assert_eq!(
            s.m.stats.migrations_done, 1,
            "second job skipped (page was WP)"
        );
    }

    #[test]
    fn backend_ticks_fire_on_schedule() {
        let mut s = sim();
        s.advance(Ns::millis(105));
        // Tick at t=0 plus one every 10 ms.
        assert_eq!(s.backend.ticks, 11);
    }

    #[test]
    fn dilation_counts_app_and_backend_threads() {
        let mut s = sim();
        assert_eq!(s.dilation(), 1.0);
        s.set_app_threads(30);
        assert!((s.dilation() - 30.0 / 24.0).abs() < 1e-9);
    }

    #[test]
    fn small_region_batches_stay_in_dram_without_pool() {
        // SmallAnon regions are kernel-managed: mapped on fault without
        // touching the tiered pools.
        struct NoManage;
        impl TieredBackend for NoManage {
            fn name(&self) -> &'static str {
                "nomanage"
            }
            fn wants_to_manage(&self, _len: u64) -> bool {
                false
            }
            fn on_mmap(&mut self, _m: &mut MachineCore, _r: RegionId) {}
            fn on_munmap(&mut self, _m: &mut MachineCore, _r: RegionId) {}
            fn place(&mut self, _m: &mut MachineCore, _p: PageId, _w: bool) -> Tier {
                Tier::Dram
            }
            fn placed(&mut self, _m: &mut MachineCore, _p: PageId, _t: Tier) {}
            fn tick(&mut self, _m: &mut MachineCore, _now: Ns) -> TickOutput {
                TickOutput::default()
            }
            fn migration_done(&mut self, _m: &mut MachineCore, _p: PageId, _d: Tier) {}
        }
        let mut s = Sim::new(MachineConfig::small(1, 4), NoManage);
        let id = s.mmap(16 << 20);
        s.populate(id, true);
        let r = s.m.space.region(id);
        assert_eq!(r.kind(), RegionKind::SmallAnon);
        assert_eq!(r.dram_pages(), r.mapped_pages());
        assert_eq!(
            s.m.pool(Tier::Dram).allocated_pages(),
            0,
            "kernel memory, not pool"
        );
    }

    #[test]
    fn wp_writes_stall_and_are_counted() {
        let mut s = sim();
        let id = s.mmap(GIB);
        s.populate(id, true);
        // Write-protect a slice of pages manually (migration in flight).
        for i in 0..64 {
            s.m.space.region_mut(id).set_wp(i, true);
        }
        let b = AccessBatch::uniform(id, 0, 64, 100_000, 8, 1.0, GIB);
        s.submit_batch(0, &b);
        while let Some((_, ev)) = s.step() {
            if matches!(ev, Event::ThreadReady(_)) {
                break;
            }
        }
        assert!(s.m.stats.wp_stalls > 0);
        assert!(s.m.fault_stats.wp > 0);
    }

    #[test]
    fn killed_manager_rolls_back_inflight_migration_and_recovers() {
        let mut cfg = MachineConfig::small(1, 4);
        cfg.watchdog = Some(crate::machine::WatchdogConfig::default());
        let mut s = Sim::new(cfg, TestBackend::new());
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        let (t0, p0) = s.m.space.region_mut(id).unmap_page(0);
        s.m.pool_mut(t0).free(p0);
        let page = PageId {
            region: id,
            index: 600,
        };
        s.backend.jobs.push(MigrationJob {
            page,
            dst: Tier::Dram,
            mechanism: crate::backend::CopyMechanism::Dma { channels: 2 },
        });
        // Advance in small steps until the tick journals the migration,
        // then kill the manager before its completion event lands.
        let mut guard = 0;
        while s.m.journal.prepared_len() == 0 {
            s.advance(Ns::micros(10));
            guard += 1;
            assert!(guard < 10_000, "migration never prepared");
        }
        let dram_allocated = s.m.pool(Tier::Dram).allocated_pages();
        s.inject_manager_kill();
        assert!(s.manager_down());
        s.advance(Ns::millis(100));
        // The watchdog detected the dead policy cadence and recovered.
        assert!(!s.manager_down());
        assert_eq!(s.m.recovery.manager_kills, 1);
        assert_eq!(s.m.recovery.journal_rollbacks, 1);
        assert!(s.m.recovery.watchdog_restarts >= 1);
        assert!(s.m.journal.is_empty());
        assert_eq!(s.m.stats.migrations_done, 0, "completion died with it");
        // Rollback: the page never left NVM, its lock is gone, and the
        // reserved DRAM frame was released.
        match s.m.space.region(id).state(600) {
            hemem_vmm::PageState::Mapped { tier, wp, .. } => {
                assert_eq!(tier, Tier::Nvm);
                assert!(!wp, "write protection rolled back");
            }
            other => panic!("page lost: {other:?}"),
        }
        assert_eq!(s.m.pool(Tier::Dram).allocated_pages(), dram_allocated - 1);
        assert_eq!(s.run_audit(true), Vec::new(), "machine audits clean");
        // The restarted manager's threads are live again.
        let ticks = s.backend.ticks;
        s.advance(Ns::millis(50));
        assert!(s.backend.ticks > ticks, "policy cadence resumed");
    }

    #[test]
    fn kill_without_explicit_watchdog_gets_the_default_one() {
        // Seeded kill in the fault plan, no watchdog in the machine
        // config: Sim::new arms the default watchdog so the run can
        // finish.
        let mut cfg = MachineConfig::small(1, 4);
        cfg.chaos.manager_kill_at = vec![Ns::millis(31)];
        let mut s = Sim::new(cfg, TestBackend::new());
        s.advance(Ns::millis(200));
        assert_eq!(s.m.recovery.manager_kills, 1);
        assert!(s.m.recovery.watchdog_restarts >= 1, "recovered");
        assert!(!s.manager_down());
        assert_eq!(s.run_audit(true), Vec::new());
    }

    #[test]
    fn clean_config_leaves_recovery_stats_untouched() {
        let mut s = sim();
        let id = s.mmap(GIB / 2);
        s.populate(id, true);
        s.advance(Ns::millis(105));
        assert_eq!(
            format!("{:?}", s.m.recovery),
            format!("{:?}", crate::machine::RecoveryStats::default())
        );
    }

    #[test]
    fn periodic_audit_counts_violations() {
        let mut cfg = MachineConfig::small(1, 4);
        cfg.audit_period = Some(Ns::millis(10));
        let mut s = Sim::new(cfg, TestBackend::new());
        let id = s.mmap(GIB / 2);
        s.populate(id, true);
        s.advance(Ns::millis(20));
        assert_eq!(s.m.recovery.audit_violations, 0, "clean machine");
        // Leak a frame: every subsequent audit tick flags the mismatch.
        let _leak = s.m.pool_mut(Tier::Dram).alloc().expect("frame");
        let before = s.m.recovery.audit_violations;
        s.advance(Ns::millis(25));
        assert!(s.m.recovery.audit_violations > before);
    }

    #[test]
    fn watchdog_restarts_wedged_fault_thread() {
        let mut cfg = MachineConfig::small(1, 4);
        cfg.watchdog = Some(crate::machine::WatchdogConfig::default());
        let mut s = Sim::new(cfg, TestBackend::new());
        s.advance(Ns::millis(5));
        let now = s.now();
        // Wedge the handler far past the 100 ms backlog limit.
        s.m.fault_thread.stall(now, Ns::secs(1));
        s.advance(Ns::millis(30));
        assert!(s.m.recovery.watchdog_restarts >= 1, "thread restarted");
        assert_eq!(s.m.fault_thread.backlog(s.now()), Ns::ZERO);
    }

    #[test]
    fn dma_breaker_reopens_after_probe_success() {
        use hemem_sim::{FaultPlan, FaultPlanConfig};
        let mut cfg = MachineConfig::small(1, 4);
        cfg.dma.probe_after = 2;
        cfg.chaos = FaultPlanConfig {
            dma_submit_fail: 1.0, // every submission fails
            ..FaultPlanConfig::none()
        };
        let mut s = Sim::new(cfg, TestBackend::new());
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        let mut next_page = 0;
        let round = |s: &mut Sim<TestBackend>, next_page: &mut u64| {
            for _ in 0..4 {
                s.backend.jobs.push(MigrationJob {
                    page: PageId {
                        region: id,
                        index: *next_page,
                    },
                    dst: Tier::Nvm,
                    mechanism: crate::backend::CopyMechanism::Dma { channels: 2 },
                });
                *next_page += 1;
            }
            s.advance(Ns::millis(10));
        };
        // Keep submitting until the breaker opens; every migration still
        // completes via the thread fallback (pinning is policy-level).
        let mut guard = 0;
        while !s.m.dma.degraded() {
            round(&mut s, &mut next_page);
            guard += 1;
            assert!(guard < 20, "breaker never opened");
        }
        // A probe while the injection is still active fails and keeps the
        // breaker open (probe_after = 2: every second fallback probes).
        round(&mut s, &mut next_page);
        round(&mut s, &mut next_page);
        assert!(s.m.dma.degraded(), "failed probe leaves it open");
        // The engine comes back: the first successful probe submission
        // closes the breaker and DMA offload resumes.
        s.m.chaos = FaultPlan::none();
        let ioctls_before = s.m.dma.stats().ioctls;
        let mut guard = 0;
        while s.m.dma.degraded() {
            round(&mut s, &mut next_page);
            guard += 1;
            assert!(guard < 10, "breaker never reopened");
        }
        round(&mut s, &mut next_page);
        assert!(
            s.m.dma.stats().ioctls > ioctls_before,
            "offload resumed after the breaker closed"
        );
        assert_eq!(s.run_audit(true), Vec::new());
    }

    #[test]
    fn run_until_lands_exactly_on_target() {
        let mut s = sim();
        s.run_until(Ns::millis(37));
        assert_eq!(s.now(), Ns::millis(37));
        s.advance(Ns::millis(3));
        assert_eq!(s.now(), Ns::millis(40));
    }

    #[test]
    fn munmap_after_population_frees_frames() {
        let mut s = sim();
        let free0 = (
            s.m.pool(Tier::Dram).free_pages(),
            s.m.pool(Tier::Nvm).free_pages(),
        );
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        s.munmap(id);
        assert_eq!(
            (
                s.m.pool(Tier::Dram).free_pages(),
                s.m.pool(Tier::Nvm).free_pages()
            ),
            free0
        );
    }

    #[test]
    fn degrade_throttles_device_and_sheds_free_capacity() {
        let mut s = sim();
        assert_eq!(s.m.device(Tier::Nvm).throttle(), 1.0);
        s.inject_tier_degrade(Tier::Nvm);
        assert_eq!(
            s.m.tier_health(Tier::Nvm),
            crate::machine::TierHealth::Degraded
        );
        assert_eq!(s.m.device(Tier::Nvm).throttle(), DEGRADED_THROTTLE);
        let total = s.m.pool(Tier::Nvm).total_pages();
        assert_eq!(s.m.health.health_retired[1], total / 8);
        assert_eq!(s.m.pool(Tier::Nvm).health_retired_pages(), total / 8);
        assert!(s.m.pool(Tier::Nvm).conserved());
        assert_eq!(s.m.health.degrades, 1);
        // Degrading again is a no-op: the tier is already degraded.
        s.inject_tier_degrade(Tier::Nvm);
        assert_eq!(s.m.health.degrades, 1);
        assert!(crate::audit::audit_machine(&s.m, true).is_empty());
    }

    #[test]
    fn offline_tier_evacuates_survivors_and_poisons_overflow() {
        let mut s = sim();
        let id = s.mmap(2 * GIB);
        s.populate(id, true); // 512 DRAM + 512 NVM, DRAM full
                              // Free 300 DRAM frames so evacuation has partial headroom.
        for i in 0..300 {
            let (t, p) = s.m.space.region_mut(id).unmap_page(i);
            assert_eq!(t, Tier::Dram);
            s.m.pool_mut(t).free(p);
        }
        s.inject_tier_fail(Tier::Nvm);
        assert_eq!(s.evacuating(), Some(Tier::Nvm));
        s.advance(Ns::secs(2));
        assert_eq!(s.evacuating(), None, "evacuation drained");
        assert_eq!(s.m.health.evacuated_pages, 300);
        assert_eq!(s.m.health.poisoned_pages, 212);
        assert_eq!(
            s.m.pool(Tier::Nvm).allocated_pages(),
            0,
            "tier fully drained"
        );
        assert!(s.m.health.evac_done[1]);
        assert!(crate::audit::audit_machine(&s.m, true).is_empty());
        // Touching a poisoned page faults it back in as a fresh zero page
        // (free DRAM headroom first: N-1 operation has nowhere to spill).
        for i in 300..512 {
            let (t, p) = s.m.space.region_mut(id).unmap_page(i);
            assert_eq!(t, Tier::Dram);
            s.m.pool_mut(t).free(p);
        }
        let b = AccessBatch::uniform(id, 512, 1024, 200_000, 8, 0.5, 2 * GIB);
        s.submit_batch(0, &b);
        s.advance(Ns::secs(1));
        assert!(s.m.health.poison_faults > 0);
        assert_eq!(
            s.m.pool(Tier::Nvm).allocated_pages(),
            0,
            "refaults avoid the dead tier"
        );
    }

    #[test]
    fn offline_without_evacuation_poisons_the_whole_tier() {
        let mut cfg = MachineConfig::small(1, 4);
        cfg.evacuate_on_failure = false;
        let mut s = Sim::new(cfg, TestBackend::new());
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        s.inject_tier_fail(Tier::Nvm);
        assert_eq!(s.evacuating(), None, "baseline never evacuates");
        assert_eq!(s.m.health.poisoned_pages, 512);
        assert_eq!(s.m.health.evacuated_pages, 0);
        assert_eq!(s.m.pool(Tier::Nvm).allocated_pages(), 0);
        assert!(crate::audit::audit_machine(&s.m, true).is_empty());
    }

    #[test]
    fn readmit_restores_an_empty_healthy_tier() {
        let mut s = sim();
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        s.inject_tier_degrade(Tier::Nvm);
        s.inject_tier_fail(Tier::Nvm);
        s.advance(Ns::secs(2));
        let total = s.m.pool(Tier::Nvm).total_pages();
        s.inject_tier_readmit(Tier::Nvm);
        assert_eq!(
            s.m.tier_health(Tier::Nvm),
            crate::machine::TierHealth::Healthy
        );
        assert_eq!(s.m.device(Tier::Nvm).throttle(), 1.0);
        assert_eq!(s.m.health.health_retired[1], 0);
        assert_eq!(
            s.m.pool(Tier::Nvm).free_pages(),
            total,
            "tier comes back empty"
        );
        assert!(!s.m.health.evac_done[1]);
        assert_eq!(s.m.health.readmits, 1);
        assert!(crate::audit::audit_machine(&s.m, true).is_empty());
        // The readmitted tier accepts allocations again.
        let id2 = s.mmap(2 * GIB);
        s.populate(id2, true);
        assert!(s.m.pool(Tier::Nvm).allocated_pages() > 0);
    }

    #[test]
    fn fail_tier_rolls_back_inflight_migrations_into_it() {
        let mut s = sim();
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        let page = PageId {
            region: id,
            index: 2, // DRAM-resident
        };
        // Prepare the migration but do not let its completion fire, then
        // pull the destination tier out from under it.
        let now = s.now();
        s.start_migrations(
            now,
            &[MigrationJob {
                page,
                dst: Tier::Nvm,
                mechanism: crate::backend::CopyMechanism::Threads(2),
            }],
        );
        assert_eq!(s.m.stats.migrations_started, 1);
        s.inject_tier_fail(Tier::Nvm);
        assert_eq!(s.m.recovery.journal_rollbacks, 1);
        s.advance(Ns::secs(2));
        assert_eq!(s.m.stats.migrations_done, 0);
        match s.m.space.region(id).state(2) {
            hemem_vmm::PageState::Mapped { tier, wp, .. } => {
                assert_eq!(tier, Tier::Dram, "page stays on its source");
                assert!(!wp);
            }
            other => panic!("page lost: {other:?}"),
        }
        assert!(crate::audit::audit_machine(&s.m, true).is_empty());
    }

    #[test]
    fn direct_reclaim_with_ssd_offline_remaps_shadows_or_fails_typed() {
        // 1 GiB DRAM + 1 GiB NVM, both filled; the SSD tier goes offline.
        let mc = MachineConfig::small(1, 1)
            .with_tier3(4 * GIB)
            .with_shadows();
        let mut s = Sim::new(mc, TestBackend::new());
        let id = s.mmap(2 * GIB);
        s.populate(id, true); // pages 0..512 on DRAM, 512..1024 on NVM
        s.inject_tier_fail(Tier::Ssd);
        // Turn NVM page 600's frame into a clean shadow of DRAM page 0:
        // NVM stays full, and page 600 is the one a fault will want back.
        let (tier, frame) = s.m.space.region_mut(id).unmap_page(600);
        assert_eq!(tier, Tier::Nvm);
        s.m.space.region_mut(id).set_shadow(0, frame);
        s.m.pool_mut(Tier::Nvm).note_shadow();
        assert_eq!(
            s.m.pool(Tier::Dram).free_pages() + s.m.pool(Tier::Nvm).free_pages(),
            0
        );
        let page = |index| PageId { region: id, index };
        let now = s.now();

        // A DRAM victim with a clean shadow demotes by remap: no SSD
        // needed, and its DRAM frame is free.
        s.backend.victims.push(page(0));
        assert_eq!(s.direct_reclaim(now), Ok(Ns::ZERO));
        match s.m.space.region(id).state(0) {
            hemem_vmm::PageState::Mapped { tier, phys, .. } => {
                assert_eq!((tier, phys), (Tier::Nvm, frame));
            }
            other => panic!("victim lost: {other:?}"),
        }
        assert_eq!(s.m.shadow.remap_demotions, 1);
        assert_eq!(s.m.pool(Tier::Dram).free_pages(), 1);
        assert_eq!(s.backend.placed.last(), Some(&(page(0), Tier::Nvm)));
        // Refill that frame so both memory tiers are full again.
        s.fault_page(page(600), true, now);
        assert_eq!(s.m.pool(Tier::Dram).free_pages(), 0);

        // Without a shadow the victim has nowhere to go: the fault gets
        // the typed error, no frame leaks, and the victim is re-placed.
        s.backend.victims.push(page(700));
        let allocated =
            s.m.pool(Tier::Dram).allocated_pages() + s.m.pool(Tier::Nvm).allocated_pages();
        let extra = s.mmap(64 << 20);
        let now = s.now();
        assert_eq!(
            s.try_fault_page(
                PageId {
                    region: extra,
                    index: 0
                },
                true,
                now
            ),
            Err(MemError::NoSwapDevice)
        );
        assert_eq!(s.m.space.region(extra).mapped_pages(), 0);
        assert_eq!(
            s.m.pool(Tier::Dram).allocated_pages() + s.m.pool(Tier::Nvm).allocated_pages(),
            allocated,
            "no frame leaked"
        );
        assert_eq!(s.backend.placed.last(), Some(&(page(700), Tier::Nvm)));
        assert!(crate::audit::audit_machine(&s.m, true).is_empty());
    }
}
