//! HeMem's migration policy (§3.3).
//!
//! The policy thread runs every 10 ms. It (1) keeps a watermark of DRAM
//! free so allocations can always be served from fast memory — demoting
//! cold (or, failing that, arbitrary) DRAM pages to NVM; and (2) promotes
//! hot NVM pages to DRAM, swapping against cold DRAM pages, write-heavy
//! pages first. If nothing in DRAM is cold (the hot set exceeds DRAM),
//! promotion stops rather than thrash. Total migration traffic per period
//! is capped so the application is not disturbed (10 GB/s).

use hemem_sim::Ns;
use hemem_vmm::{TenantId, Tier};

use crate::backend::{CopyMechanism, MigrationJob};
use crate::hemem::tracker::PageTracker;
use crate::machine::{MachineCore, MANAGED_PAGE};

/// Policy parameters (§3.2-3.3 defaults).
#[derive(Debug, Clone)]
pub struct PolicyConfig {
    /// Policy thread period.
    pub period: Ns,
    /// DRAM kept free for new allocations.
    pub dram_watermark: u64,
    /// Migration bandwidth cap, bytes/second.
    pub migration_rate: f64,
    /// Offload copies to the DMA engine (`false` = 4 copy threads).
    pub use_dma: bool,
    /// DMA channels used concurrently.
    pub dma_channels: usize,
    /// Copy threads when DMA is unavailable.
    pub copy_threads: usize,
    /// Maximum pages concurrently in flight (write-protected). HeMem's
    /// policy thread issues DMA ioctl batches of 4 and waits, so very few
    /// pages are ever protected at once — this is what keeps write-
    /// protection stalls "exceedingly rare" (§3.2). Kernel-style managers
    /// (Nimble) migrate whole lists synchronously and set this high.
    pub max_inflight_pages: u64,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            period: Ns::millis(10),
            dram_watermark: 1 << 30,
            migration_rate: 10.0e9,
            use_dma: true,
            dma_channels: 2,
            copy_threads: 4,
            max_inflight_pages: 24,
        }
    }
}

impl PolicyConfig {
    /// Migration byte budget for one policy period
    /// ([`hemem_sim::rate_budget`] rounding, shared with the PEBS drain
    /// budgets).
    pub fn budget_per_period(&self) -> u64 {
        hemem_sim::rate_budget(self.migration_rate, self.period)
    }

    /// The copy mechanism jobs should use.
    pub fn mechanism(&self) -> CopyMechanism {
        if self.use_dma {
            CopyMechanism::Dma {
                channels: self.dma_channels,
            }
        } else {
            CopyMechanism::Threads(self.copy_threads)
        }
    }

    /// Like [`PolicyConfig::mechanism`], but falls back to copy threads
    /// while the DMA engine reports itself degraded (its circuit breaker
    /// tripped on consecutive submission failures). HeMem runs the same
    /// 4-thread path when the I/OAT driver is absent (§3.2).
    pub fn mechanism_for(&self, m: &MachineCore) -> CopyMechanism {
        if self.use_dma && m.dma.degraded() {
            CopyMechanism::Threads(self.copy_threads)
        } else {
            self.mechanism()
        }
    }
}

/// The slice of the machine one policy pass operates over: on a
/// single-process machine this is the whole machine (see
/// [`PolicyScope::solo`]); under the DRAM arbiter each tenant's pass gets
/// its quota-derived free-DRAM view, its share of the migration-rate
/// budget, and its slice of the in-flight cap, so one thrashing tenant
/// cannot starve another's policy passes.
#[derive(Debug, Clone, Copy)]
pub struct PolicyScope {
    /// Tenant the pass runs for (journal in-flight accounting keys off
    /// this).
    pub tenant: TenantId,
    /// DRAM bytes the tenant may still claim: quota minus resident and
    /// in-flight-inbound pages. The solo scope uses the machine's free
    /// pool, which is the same quantity at quota = total.
    pub free_dram_bytes: u64,
    /// Free-DRAM watermark for this tenant (the config watermark scaled
    /// by quota share).
    pub dram_watermark: u64,
    /// Migration byte budget for this pass (the per-period budget scaled
    /// by quota share).
    pub budget: u64,
    /// In-flight page cap for this tenant.
    pub max_inflight_pages: u64,
    /// Tag trace events with the tenant id. Off for the solo scope: a
    /// single-process run has one tenant, so the tag would carry no
    /// information.
    pub tag_tenant: bool,
}

impl PolicyScope {
    /// The whole-machine scope of a single-process run.
    pub fn solo(cfg: &PolicyConfig, m: &MachineCore) -> PolicyScope {
        PolicyScope {
            tenant: TenantId::SOLO,
            free_dram_bytes: m.dram_free_bytes(),
            dram_watermark: cfg.dram_watermark,
            budget: cfg.budget_per_period(),
            max_inflight_pages: cfg.max_inflight_pages,
            tag_tenant: false,
        }
    }
}

/// Runs one policy pass over the whole machine, returning the migrations
/// to start.
pub fn run_policy(
    cfg: &PolicyConfig,
    tracker: &mut PageTracker,
    m: &mut MachineCore,
    now: Ns,
) -> Vec<MigrationJob> {
    let scope = PolicyScope::solo(cfg, m);
    run_policy_scoped(cfg, tracker, m, now, &scope)
}

/// Runs one policy pass over `scope`'s slice of the machine.
///
/// With the solo scope the pass covers the whole machine:
/// `free_dram_bytes` equals the DRAM pool's free bytes, the
/// watermark, budget, and in-flight cap are the config values, and every
/// journal entry belongs to [`TenantId::SOLO`], so the per-tenant journal
/// counts equal the global ones.
///
/// Candidates come from the flat queues or, when
/// [`PageTracker::regions_enabled`], from the span indexes after the
/// period's span maintenance, which runs even on throttled passes:
/// temperatures decay in wall-clock periods, not migration opportunities.
pub fn run_policy_scoped(
    cfg: &PolicyConfig,
    tracker: &mut PageTracker,
    m: &mut MachineCore,
    now: Ns,
    scope: &PolicyScope,
) -> Vec<MigrationJob> {
    let page_bytes = MANAGED_PAGE.bytes();
    let mechanism = cfg.mechanism_for(m);
    let mut budget = scope.budget;
    let mut jobs = Vec::new();

    let regions = tracker.regions_enabled();
    if regions {
        tracker.begin_region_period();
    }
    let pop_promotion = |t: &mut PageTracker| {
        if regions {
            t.pop_region_promotion()
        } else {
            t.pop_promotion()
        }
    };
    let pop_demotion = |t: &mut PageTracker, allow_hot| {
        if regions {
            t.pop_region_demotion(allow_hot)
        } else {
            t.pop_demotion(allow_hot)
        }
    };

    // Backpressure: NVM write bandwidth is far below the migration rate
    // cap; if several periods' worth of migrations are still in flight,
    // issuing more would grow the device backlog without bound and starve
    // application stores. Real HeMem self-throttles because the policy
    // thread waits for its DMA batches.
    // The journal's Prepared entries *are* the in-flight set: identical to
    // counting started-minus-finished in a clean run, but self-correcting
    // after a crash (rolled-back transactions leave the journal, while a
    // stats-based count would overestimate in-flight forever).
    m.trace.policy.passes += 1;
    let in_flight = m.journal.prepared_len_for(scope.tenant);
    if in_flight >= scope.max_inflight_pages {
        m.trace.policy.throttled += 1;
        trace_pass(m, now, scope, &[("throttled", 1), ("in_flight", in_flight)]);
        return jobs;
    }
    budget = budget.min((scope.max_inflight_pages - in_flight) * page_bytes);

    // Phase 1: replenish the DRAM free watermark by demoting pages.
    // In-flight demotions (journaled Prepared entries whose source frame
    // is DRAM) will free their frames when they commit; count that memory
    // as already on its way to free, so back-to-back passes do not demote
    // the same deficit twice while the first pass's copies are in flight.
    let pending_free = m.journal.prepared_freeing_for(scope.tenant, Tier::Dram) * page_bytes;
    let free = scope.free_dram_bytes.saturating_add(pending_free);
    let mut demoted_wm = 0u64;
    if free < scope.dram_watermark {
        let mut need = scope.dram_watermark - free;
        while need > 0 && budget >= page_bytes {
            // Prefer cold pages; fall back to arbitrary (oldest hot) DRAM
            // pages, as the paper demotes random data when nothing is cold.
            let Some(victim) = pop_demotion(tracker, true) else {
                break;
            };
            // Zero-copy path: a victim whose clean NVM shadow survived
            // demotes by remap alone — the frame frees *now*, no DMA job,
            // no journal transaction, no byte of bandwidth. Only dirty (or
            // never-shadowed) pages fall through to the exclusive copy.
            if m.shadow_remap_demote(victim) {
                tracker.placed(victim, Tier::Nvm);
                need = need.saturating_sub(page_bytes);
                continue;
            }
            jobs.push(MigrationJob {
                page: victim,
                dst: Tier::Nvm,
                mechanism,
            });
            need = need.saturating_sub(page_bytes);
            budget -= page_bytes;
            demoted_wm += 1;
        }
    }

    // Phase 2: promote hot NVM pages. A promotion allocates a free DRAM
    // page immediately, so it may only start while free DRAM (beyond what
    // this pass already claimed) remains; when DRAM is exhausted we demote
    // a *cold* victim instead and retry the promotion next period, once
    // the demotion has completed and freed its frame. If nothing in DRAM
    // is cold, the hot set exceeds DRAM and migration stops (§3.3).
    let mut claimed = 0u64;
    let mut promoted = 0u64;
    let mut deferred = 0u64;
    // Demote at most one victim frame per waiting hot page.
    let mut deferrals_left = tracker.queue_len(crate::hemem::tracker::Queue::NvmHot) as u64;
    while budget >= page_bytes {
        let Some(hot) = pop_promotion(tracker) else {
            break;
        };
        // A promotion needs a free frame in the global pool *and* room
        // under the tenant's quota; solo scopes see the same number twice.
        let have_free = scope.free_dram_bytes.min(m.dram_free_bytes()) >= page_bytes + claimed;
        if have_free {
            jobs.push(MigrationJob {
                page: hot,
                dst: Tier::Dram,
                mechanism,
            });
            claimed += page_bytes;
            budget -= page_bytes;
            promoted += 1;
        } else if deferrals_left > 0 {
            let Some(victim) = pop_demotion(tracker, false) else {
                // Hot set exceeds DRAM: stop migrating (§3.3).
                tracker.restore(hot);
                break;
            };
            // A clean-shadowed victim frees its frame immediately by
            // remap; the waiting hot page still defers to the next pass
            // (the scope's free-DRAM snapshot predates the remap).
            if m.shadow_remap_demote(victim) {
                tracker.placed(victim, Tier::Nvm);
            } else {
                jobs.push(MigrationJob {
                    page: victim,
                    dst: Tier::Nvm,
                    mechanism,
                });
                budget -= page_bytes;
            }
            deferrals_left -= 1;
            deferred += 1;
            // The hot page returns to the *front* of its queue so it is
            // first in line once the victim's frame is free.
            tracker.restore_front(hot);
        } else {
            tracker.restore_front(hot);
            break;
        }
    }
    m.trace.policy.demote_watermark += demoted_wm;
    m.trace.policy.promote += promoted;
    m.trace.policy.swap_deferrals += deferred;
    trace_pass(
        m,
        now,
        scope,
        &[
            ("demote_watermark", demoted_wm),
            ("promote", promoted),
            ("swap_deferral", deferred),
            ("in_flight", in_flight),
        ],
    );
    jobs
}

/// Emits a pass's `policy_pass` instant: `args`, then the tenant id when
/// the scope is tagged. The args are assembled on the stack; only an
/// enabled tracer copies them.
fn trace_pass(m: &mut MachineCore, now: Ns, scope: &PolicyScope, args: &[(&'static str, u64)]) {
    let mut buf = [("", 0u64); 5];
    buf[..args.len()].copy_from_slice(args);
    let mut n = args.len();
    if scope.tag_tenant {
        buf[n] = ("tenant", scope.tenant.0 as u64);
        n += 1;
    }
    m.trace.instant(now, "policy_pass", "policy", &buf[..n]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hemem::tracker::{Queue, TrackerConfig};
    use crate::hemem::RegionConfig;
    use crate::machine::MachineConfig;
    use hemem_vmm::{PageId, RegionId, RegionKind};

    /// Tracker configs for the two candidate sources: the flat queues,
    /// then multi-grained region spans.
    fn sources() -> [TrackerConfig; 2] {
        let flat = TrackerConfig {
            cooling_min_interval: Ns::ZERO,
            ..TrackerConfig::default()
        };
        let regions = TrackerConfig {
            regions: RegionConfig::multi_grain(),
            ..flat
        };
        [flat, regions]
    }

    /// Builds a machine with one managed region of `pages` pages, the
    /// first `dram` of them resident in DRAM, the rest in NVM, tracked
    /// under `tcfg`.
    fn setup(
        tcfg: TrackerConfig,
        dram_cap_gib: u64,
        pages: u64,
        dram: u64,
    ) -> (MachineCore, PageTracker, RegionId) {
        let mut m = MachineCore::new(MachineConfig::small(dram_cap_gib, 32));
        let ps = MANAGED_PAGE;
        let id = m
            .space
            .mmap(pages * ps.bytes(), ps, RegionKind::ManagedHeap);
        let mut t = PageTracker::new(tcfg);
        t.add_region(id, pages);
        for i in 0..pages {
            let tier = if i < dram { Tier::Dram } else { Tier::Nvm };
            let phys = m.pool_mut(tier).alloc().expect("capacity");
            m.space.region_mut(id).map_page(i, tier, phys);
            t.placed(
                PageId {
                    region: id,
                    index: i,
                },
                tier,
            );
        }
        (m, t, id)
    }

    #[test]
    fn watermark_triggers_demotions() {
        for tcfg in sources() {
            // 1 GiB DRAM = 512 pages, all allocated -> free = 0 < watermark.
            let (mut m, mut t, _) = setup(tcfg, 1, 600, 512);
            let cfg = PolicyConfig::default();
            let jobs = run_policy(&cfg, &mut t, &mut m, Ns::ZERO);
            assert!(!jobs.is_empty());
            assert!(jobs.iter().all(|j| j.dst == Tier::Nvm), "only demotions");
            // Budget cap: 10 GB/s * 10 ms = 100 MB = 50 pages.
            assert!(jobs.len() <= 50, "rate-capped: {} jobs", jobs.len());
        }
    }

    #[test]
    fn in_flight_demotions_count_toward_the_watermark() {
        // Regression: two back-to-back passes with the first pass's
        // demotions still in flight (journaled Prepared, uncommitted).
        // The second pass must not demote the same deficit again.
        for tcfg in sources() {
            let (mut m, mut t, _) = setup(tcfg, 1, 600, 512);
            let cfg = PolicyConfig {
                // 8-page deficit, comfortably under the in-flight limit.
                dram_watermark: 8 * MANAGED_PAGE.bytes(),
                ..PolicyConfig::default()
            };
            let first = run_policy(&cfg, &mut t, &mut m, Ns::ZERO);
            assert_eq!(first.len(), 8, "pass 1 demotes the full deficit");
            assert!(first.iter().all(|j| j.dst == Tier::Nvm));
            // Journal the jobs as the runtime's prepare phase would: source
            // frame in DRAM, destination reserved in NVM, copy in flight.
            for (id, job) in first.iter().enumerate() {
                let phys = match m.space.region(job.page.region).state(job.page.index) {
                    hemem_vmm::PageState::Mapped { phys, .. } => phys,
                    other => panic!("victim not mapped: {other:?}"),
                };
                let dst = m.pool_mut(Tier::Nvm).alloc().expect("nvm space");
                m.journal.prepare(
                    id as u64,
                    job.page,
                    TenantId::SOLO,
                    Tier::Dram,
                    phys,
                    Tier::Nvm,
                    dst,
                );
            }
            // DRAM free is still 0, but 8 pages are already on their way out.
            let second = run_policy(&cfg, &mut t, &mut m, Ns::millis(10));
            assert_eq!(
                second.iter().filter(|j| j.dst == Tier::Nvm).count(),
                0,
                "pass 2 must not re-demote for in-flight frees: {second:?}"
            );
            assert_eq!(m.trace.policy.demote_watermark, 8, "attributed once");
        }
    }

    #[test]
    fn hot_nvm_pages_promoted_when_dram_free() {
        // Flat only: region promotion also takes the cold pages of a hot span.
        let (mut m, mut t, id) = setup(sources()[0], 4, 100, 10);
        // Make 5 NVM pages hot.
        for i in 10..15 {
            for _ in 0..8 {
                t.record(
                    PageId {
                        region: id,
                        index: i,
                    },
                    false,
                    Ns::ZERO,
                );
            }
        }
        let cfg = PolicyConfig::default();
        let jobs = run_policy(&cfg, &mut t, &mut m, Ns::ZERO);
        let promos: Vec<_> = jobs.iter().filter(|j| j.dst == Tier::Dram).collect();
        assert_eq!(promos.len(), 5);
    }

    #[test]
    fn promotion_swaps_against_cold_dram_across_periods() {
        // Flat only: with regions on, the pass's span decay cools 8 samples below promotion.
        // DRAM pool: 1 GiB = 512 pages, all taken by the region. With no
        // free DRAM the first pass demotes one cold victim per waiting hot
        // page; the promotion itself runs the next period, once the
        // victim's frame is actually free.
        let (mut m, mut t, id) = setup(sources()[0], 1, 1024, 512);
        for _ in 0..8 {
            t.record(
                PageId {
                    region: id,
                    index: 600,
                },
                false,
                Ns::ZERO,
            );
        }
        let cfg = PolicyConfig {
            dram_watermark: 0,
            ..PolicyConfig::default()
        };
        let jobs = run_policy(&cfg, &mut t, &mut m, Ns::ZERO);
        let demos: Vec<_> = jobs.iter().filter(|j| j.dst == Tier::Nvm).collect();
        assert_eq!(jobs.iter().filter(|j| j.dst == Tier::Dram).count(), 0);
        assert_eq!(demos.len(), 1, "one victim per waiting hot page");
        // Simulate the demotion completing: remap victim to NVM, free the
        // DRAM frame.
        let victim = demos[0].page;
        let nphys = m.pool_mut(Tier::Nvm).alloc().expect("nvm space");
        let (ot, op) = m
            .space
            .region_mut(id)
            .remap_page(victim.index, Tier::Nvm, nphys);
        m.pool_mut(ot).free(op);
        t.placed(victim, Tier::Nvm);
        let jobs = run_policy(&cfg, &mut t, &mut m, Ns::ZERO);
        let promos: Vec<_> = jobs.iter().filter(|j| j.dst == Tier::Dram).collect();
        assert_eq!(
            promos.len(),
            1,
            "deferred promotion runs once a frame is free"
        );
        assert_eq!(promos[0].page.index, 600);
    }

    #[test]
    fn no_migration_when_hot_set_exceeds_dram() {
        // Everything in DRAM is hot; a hot NVM page must NOT displace it.
        for tcfg in sources() {
            let (mut m, mut t, id) = setup(tcfg, 1, 1024, 512);
            for i in (0..512).chain([700]) {
                for _ in 0..8 {
                    t.record(
                        PageId {
                            region: id,
                            index: i,
                        },
                        false,
                        Ns::ZERO,
                    );
                }
            }
            let cfg = PolicyConfig {
                dram_watermark: 0,
                ..PolicyConfig::default()
            };
            let jobs = run_policy(&cfg, &mut t, &mut m, Ns::ZERO);
            assert!(
                jobs.is_empty(),
                "hot set exceeds DRAM: no migration, got {jobs:?}"
            );
            // The popped hot page must have been restored.
            assert_eq!(t.queue_len(Queue::NvmHot), 1);
        }
    }

    #[test]
    fn budget_is_respected_across_phases() {
        for tcfg in sources() {
            let (mut m, mut t, id) = setup(tcfg, 1, 2048, 512);
            for i in 512..1024 {
                for _ in 0..8 {
                    t.record(
                        PageId {
                            region: id,
                            index: i,
                        },
                        false,
                        Ns::ZERO,
                    );
                }
            }
            let cfg = PolicyConfig::default();
            let jobs = run_policy(&cfg, &mut t, &mut m, Ns::ZERO);
            let bytes: u64 = jobs.len() as u64 * MANAGED_PAGE.bytes();
            assert!(bytes <= cfg.budget_per_period(), "{bytes} over budget");
        }
    }

    #[test]
    fn throttled_region_pass_still_runs_span_maintenance() {
        // No in-flight headroom: the pass throttles before selecting, but
        // span temperatures still decay once for the period.
        let (mut m, mut t, _) = setup(sources()[1], 1, 600, 512);
        let cfg = PolicyConfig {
            max_inflight_pages: 0,
            ..PolicyConfig::default()
        };
        let periods = t.region_stats().expect("regions on").periods;
        let jobs = run_policy(&cfg, &mut t, &mut m, Ns::ZERO);
        assert!(jobs.is_empty(), "throttled pass starts nothing: {jobs:?}");
        assert_eq!(m.trace.policy.throttled, 1);
        assert_eq!(t.region_stats().expect("regions on").periods, periods + 1);
    }

    #[test]
    fn tagged_scope_appends_the_tenant_to_each_pass_event() {
        let (mut m, mut t, _) = setup(sources()[0], 1, 600, 512);
        m.trace = hemem_sim::trace::Tracer::new(true);
        let cfg = PolicyConfig::default();
        let scope = PolicyScope {
            tenant: TenantId(3),
            tag_tenant: true,
            ..PolicyScope::solo(&cfg, &m)
        };
        run_policy_scoped(&cfg, &mut t, &mut m, Ns::ZERO, &scope);
        let throttled = PolicyScope {
            max_inflight_pages: 0,
            ..scope
        };
        run_policy_scoped(&cfg, &mut t, &mut m, Ns::millis(10), &throttled);
        let args: Vec<_> = m.trace.events().iter().map(|e| e.args.clone()).collect();
        assert_eq!(
            args,
            [
                vec![
                    ("demote_watermark", 24),
                    ("promote", 0),
                    ("swap_deferral", 0),
                    ("in_flight", 0),
                    ("tenant", 3),
                ],
                vec![("throttled", 1), ("in_flight", 0), ("tenant", 3)],
            ]
        );
    }

    #[test]
    fn mechanism_follows_config() {
        let dma = PolicyConfig::default();
        assert_eq!(dma.mechanism(), CopyMechanism::Dma { channels: 2 });
        let threads = PolicyConfig {
            use_dma: false,
            ..PolicyConfig::default()
        };
        assert_eq!(threads.mechanism(), CopyMechanism::Threads(4));
    }

    #[test]
    fn degraded_engine_switches_jobs_to_copy_threads() {
        for tcfg in sources() {
            let (mut m, mut t, _) = setup(tcfg, 1, 600, 512);
            let cfg = PolicyConfig::default();
            for _ in 0..hemem_memdev::dma::DEGRADE_AFTER {
                m.dma.note_submit_failure();
            }
            assert!(m.dma.degraded());
            assert_eq!(cfg.mechanism_for(&m), CopyMechanism::Threads(4));
            let jobs = run_policy(&cfg, &mut t, &mut m, Ns::ZERO);
            assert!(!jobs.is_empty());
            assert!(
                jobs.iter()
                    .all(|j| j.mechanism == CopyMechanism::Threads(4)),
                "degraded engine must not receive DMA jobs"
            );
        }
    }
}
