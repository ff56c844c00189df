//! Seeded, deterministic fault-injection plans.
//!
//! The paper's mechanisms are all reactions to hardware misbehaving:
//! PEBS buffers overflow and drop samples (§3.1), DMA may be busy or
//! absent so migration falls back to copy threads (§3.2), and the
//! userfaultfd handler saturates under fault storms (§5). A [`FaultPlan`]
//! makes those failures injectable: each decision point in the machine
//! model consults the plan, which draws from an independent, seeded
//! random stream per injection site. The same seed and rates therefore
//! reproduce the exact same fault sequence — a chaos run is as
//! deterministic as a clean one.
//!
//! The plan only *decides* that a fault fires and counts it; the layer
//! that consulted it owns the reaction (retry, fallback, retirement).

use crate::rng::Rng;
use crate::time::Ns;

/// How long a stalled fault handler is unavailable.
const FAULT_THREAD_STALL_FOR: Ns = Ns::millis(1);

/// Per-site fault rates. All rates are probabilities in `[0, 1]` drawn
/// once per decision point; zero disables the site entirely.
#[derive(Debug, Clone)]
pub struct FaultPlanConfig {
    /// Seed of the plan's random streams (independent of the machine
    /// seed, so fault schedules can vary while the workload holds still).
    pub seed: u64,
    /// P(one DMA copy `ioctl` submission fails).
    pub dma_submit_fail: f64,
    /// P(a DMA submission finds its channels busy/lost and must run on a
    /// single surviving channel).
    pub dma_channel_loss: f64,
    /// Base P(an NVM page write hits a media error) at zero wear.
    pub nvm_media_error: f64,
    /// Additional media-error probability per recorded write of wear on
    /// the target page (media errors grow more likely as cells wear).
    pub nvm_media_wear_scale: f64,
    /// Base P(an SSD swap-device transfer hits a media error) at zero
    /// erase-block wear.
    pub ssd_media_error: f64,
    /// Additional SSD media-error probability per program cycle of wear
    /// on the target erase block.
    pub ssd_media_wear_scale: f64,
    /// P(one PEBS drain pass finds the buffer clobbered by an overflow
    /// storm and loses everything buffered).
    pub pebs_storm: f64,
    /// P(one managed-region fault finds the handler thread stalled for
    /// `FAULT_THREAD_STALL_FOR`, 1 ms).
    pub fault_thread_stall: f64,
    /// Explicit sim instants at which the memory manager is killed (each
    /// fires once; the application and its memory survive, see the
    /// runtime's recovery path).
    pub manager_kill_at: Vec<Ns>,
    /// Number of additional seeded kill points, drawn uniformly over
    /// [`FaultPlanConfig::manager_kill_window`] from the plan's own
    /// stream.
    pub manager_kills: u32,
    /// Window over which drawn kill points are spread.
    pub manager_kill_window: Ns,
    /// Explicit sim instants at which individual *tenants* are killed
    /// (each fires once). Unlike a manager kill, the machine survives:
    /// the victim tenant is quarantined, drained, and its resources
    /// reclaimed. An explicit schedule needs no random stream, so
    /// configuring tenant kills never perturbs any other site's draws.
    pub tenant_kill_at: Vec<TenantKill>,
    /// Explicit sim instants at which a memory device *degrades*: its
    /// bandwidth throttles and accelerated wear retirement sheds a slice
    /// of its free capacity. Like the kill schedules this is purely
    /// explicit — no random stream is forked, so configuring tier faults
    /// never perturbs any other site's draws.
    pub tier_degrade_at: Vec<TierFault>,
    /// Explicit sim instants at which a memory device drops *offline*:
    /// the tier is quarantined against new allocations and its resident
    /// pages are evacuated (or poisoned, when evacuation is disabled).
    pub tier_fail_at: Vec<TierFault>,
    /// Explicit sim instants at which a degraded/offline device is
    /// *readmitted*: throttle lifted, shed capacity restored, the tier
    /// rejoins the placement cascade empty.
    pub tier_readmit_at: Vec<TierFault>,
}

/// One scheduled tenant kill: which tenant dies, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantKill {
    /// Tenant slot index to kill (the vmm `TenantId` payload).
    pub tenant: u32,
    /// Sim instant the kill fires.
    pub at: Ns,
}

/// One scheduled tier-health transition: which device, and when. The
/// tier is a rank into the machine's ordered tier vector (0 = DRAM,
/// 1 = NVM, 2 = SSD) — this crate cannot name the vmm tier enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierFault {
    /// Tier rank the transition applies to.
    pub tier: u32,
    /// Sim instant the transition fires.
    pub at: Ns,
}

impl FaultPlanConfig {
    /// A plan that never fires: the default for every machine.
    pub fn none() -> FaultPlanConfig {
        FaultPlanConfig {
            seed: 0xC4A05,
            dma_submit_fail: 0.0,
            dma_channel_loss: 0.0,
            nvm_media_error: 0.0,
            nvm_media_wear_scale: 0.0,
            ssd_media_error: 0.0,
            ssd_media_wear_scale: 0.0,
            pebs_storm: 0.0,
            fault_thread_stall: 0.0,
            manager_kill_at: Vec::new(),
            manager_kills: 0,
            manager_kill_window: Ns::ZERO,
            tenant_kill_at: Vec::new(),
            tier_degrade_at: Vec::new(),
            tier_fail_at: Vec::new(),
            tier_readmit_at: Vec::new(),
        }
    }

    /// Whether every site is disabled.
    pub fn is_none(&self) -> bool {
        self.dma_submit_fail == 0.0
            && self.dma_channel_loss == 0.0
            && self.nvm_media_error == 0.0
            && self.nvm_media_wear_scale == 0.0
            && self.ssd_media_error == 0.0
            && self.ssd_media_wear_scale == 0.0
            && self.pebs_storm == 0.0
            && self.fault_thread_stall == 0.0
            && self.manager_kill_at.is_empty()
            && self.manager_kills == 0
            && self.tenant_kill_at.is_empty()
            && !self.has_tier_schedule()
    }

    /// Whether any tier-health transition is scheduled. Benches append
    /// their health fingerprint segment only when this holds, so
    /// schedule-free runs keep printing byte-identical fingerprints.
    pub fn has_tier_schedule(&self) -> bool {
        !self.tier_degrade_at.is_empty()
            || !self.tier_fail_at.is_empty()
            || !self.tier_readmit_at.is_empty()
    }
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig::none()
    }
}

/// Cumulative injected-fault counters, one per site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlanStats {
    /// DMA `ioctl` submissions failed.
    pub dma_submit_failures: u64,
    /// DMA submissions degraded to a single channel.
    pub dma_channel_losses: u64,
    /// NVM media errors fired.
    pub nvm_media_errors: u64,
    /// PEBS overflow storms fired.
    pub pebs_storms: u64,
    /// Fault-handler stalls fired.
    pub fault_thread_stalls: u64,
}

impl FaultPlanStats {
    /// Total faults injected across all sites.
    pub fn total(&self) -> u64 {
        self.dma_submit_failures
            + self.dma_channel_losses
            + self.nvm_media_errors
            + self.pebs_storms
            + self.fault_thread_stalls
    }
}

/// A live fault plan: per-site independent random streams plus counters.
///
/// Each site forks its own stream from the plan seed, so enabling one
/// site never perturbs the draw sequence of another — rate sweeps stay
/// comparable point to point.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultPlanConfig,
    dma: Rng,
    chan: Rng,
    media: Rng,
    pebs: Rng,
    fault: Rng,
    media_ssd: Rng,
    stats: FaultPlanStats,
    /// Sorted manager-kill instants (explicit plus seeded draws),
    /// materialized at construction so the schedule is fixed up front.
    kill_times: Vec<Ns>,
    /// Tenant-kill schedule sorted by instant (ties by tenant index),
    /// materialized at construction. Purely explicit: no random stream
    /// is forked for it, so existing seeded sites are untouched.
    tenant_kills: Vec<TenantKill>,
    /// Tier-degrade schedule sorted by instant (ties by rank). Like the
    /// tenant-kill schedule these are purely explicit — no stream.
    tier_degrades: Vec<TierFault>,
    /// Tier-offline schedule, sorted the same way.
    tier_fails: Vec<TierFault>,
    /// Tier-readmit schedule, sorted the same way.
    tier_readmits: Vec<TierFault>,
}

impl FaultPlan {
    /// Builds a plan from its configuration.
    pub fn new(cfg: FaultPlanConfig) -> FaultPlan {
        let mut root = Rng::new(cfg.seed);
        let dma = root.fork(0xD3A);
        let chan = root.fork(0xC7A);
        let media = root.fork(0x3ED1A);
        let pebs = root.fork(0x9EB5);
        let fault = root.fork(0xFA17);
        let mut kill_times = cfg.manager_kill_at.clone();
        if cfg.manager_kills > 0 {
            // Forked after every existing site so adding kills never
            // perturbs their streams.
            let mut kill = root.fork(0x4B177);
            let window = cfg.manager_kill_window.as_nanos().max(1);
            for _ in 0..cfg.manager_kills {
                kill_times.push(Ns(kill.gen_range(window)));
            }
        }
        kill_times.sort();
        // Forked after every pre-existing site (including the kill
        // stream) so adding the SSD tier never perturbs their draws.
        let media_ssd = root.fork(0x55D);
        let mut tenant_kills = cfg.tenant_kill_at.clone();
        tenant_kills.sort_by_key(|k| (k.at, k.tenant));
        let sorted = |v: &[TierFault]| {
            let mut v = v.to_vec();
            v.sort_by_key(|f| (f.at, f.tier));
            v
        };
        let tier_degrades = sorted(&cfg.tier_degrade_at);
        let tier_fails = sorted(&cfg.tier_fail_at);
        let tier_readmits = sorted(&cfg.tier_readmit_at);
        FaultPlan {
            dma,
            chan,
            media,
            pebs,
            fault,
            media_ssd,
            cfg,
            stats: FaultPlanStats::default(),
            kill_times,
            tenant_kills,
            tier_degrades,
            tier_fails,
            tier_readmits,
        }
    }

    /// A plan that never fires.
    pub fn none() -> FaultPlan {
        FaultPlan::new(FaultPlanConfig::none())
    }

    /// The configuration in effect.
    pub fn config(&self) -> &FaultPlanConfig {
        &self.cfg
    }

    /// Whether any site can fire.
    pub fn enabled(&self) -> bool {
        !self.cfg.is_none()
    }

    /// Injected-fault counters.
    pub fn stats(&self) -> FaultPlanStats {
        self.stats
    }

    /// Draws whether this DMA `ioctl` submission fails.
    pub fn dma_submit_fails(&mut self) -> bool {
        let hit = self.dma.bernoulli(self.cfg.dma_submit_fail);
        if hit {
            self.stats.dma_submit_failures += 1;
        }
        hit
    }

    /// Draws whether this DMA submission lost its channels and must run
    /// on a single surviving one.
    pub fn dma_channel_lost(&mut self) -> bool {
        let hit = self.chan.bernoulli(self.cfg.dma_channel_loss);
        if hit {
            self.stats.dma_channel_losses += 1;
        }
        hit
    }

    /// Draws whether an NVM page write with `wear` prior writes hits a
    /// media error. Probability scales linearly with wear and saturates
    /// at 1.
    pub fn nvm_media_error(&mut self, wear: u64) -> bool {
        let p = self.cfg.nvm_media_error + self.cfg.nvm_media_wear_scale * wear as f64;
        let hit = self.media.bernoulli(p.clamp(0.0, 1.0));
        if hit {
            self.stats.nvm_media_errors += 1;
        }
        hit
    }

    /// Draws whether an SSD swap transfer touching an erase block with
    /// `wear` program cycles hits a media error. Counts into the shared
    /// media-error tally alongside NVM (one counter per media class
    /// would change the frozen stats layout; consumers that need the
    /// split read the SSD device's own counters).
    pub fn ssd_media_error(&mut self, wear: u64) -> bool {
        let p = self.cfg.ssd_media_error + self.cfg.ssd_media_wear_scale * wear as f64;
        let hit = self.media_ssd.bernoulli(p.clamp(0.0, 1.0));
        if hit {
            self.stats.nvm_media_errors += 1;
        }
        hit
    }

    /// Draws whether this PEBS drain pass hits an overflow storm.
    pub fn pebs_storm(&mut self) -> bool {
        let hit = self.pebs.bernoulli(self.cfg.pebs_storm);
        if hit {
            self.stats.pebs_storms += 1;
        }
        hit
    }

    /// Draws whether the fault handler stalls for this fault; returns the
    /// stall duration when it does.
    pub fn fault_thread_stall(&mut self) -> Option<Ns> {
        if self.fault.bernoulli(self.cfg.fault_thread_stall) {
            self.stats.fault_thread_stalls += 1;
            Some(FAULT_THREAD_STALL_FOR)
        } else {
            None
        }
    }

    /// The manager-kill schedule, sorted by instant. Empty when no kills
    /// are configured; the runtime never schedules anything for an empty
    /// list, so a kill-free plan stays zero-cost.
    pub fn kill_times(&self) -> &[Ns] {
        &self.kill_times
    }

    /// The tenant-kill schedule, sorted by instant (ties by tenant
    /// index). Empty when no tenant kills are configured, so churn-free
    /// plans stay zero-cost.
    pub fn tenant_kills(&self) -> &[TenantKill] {
        &self.tenant_kills
    }

    /// The tier-degrade schedule, sorted by instant (ties by rank).
    /// Empty schedules stay zero-cost: the runtime pushes no events.
    pub fn tier_degrades(&self) -> &[TierFault] {
        &self.tier_degrades
    }

    /// The tier-offline schedule, sorted by instant (ties by rank).
    pub fn tier_fails(&self) -> &[TierFault] {
        &self.tier_fails
    }

    /// The tier-readmit schedule, sorted by instant (ties by rank).
    pub fn tier_readmits(&self) -> &[TierFault] {
        &self.tier_readmits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(f: impl FnOnce(&mut FaultPlanConfig)) -> FaultPlan {
        let mut cfg = FaultPlanConfig::none();
        f(&mut cfg);
        FaultPlan::new(cfg)
    }

    #[test]
    fn disabled_plan_never_fires() {
        let mut p = FaultPlan::none();
        assert!(!p.enabled());
        for _ in 0..1000 {
            assert!(!p.dma_submit_fails());
            assert!(!p.dma_channel_lost());
            assert!(!p.nvm_media_error(u64::MAX / 2));
            assert!(!p.ssd_media_error(u64::MAX / 2));
            assert!(!p.pebs_storm());
            assert!(p.fault_thread_stall().is_none());
        }
        assert_eq!(p.stats().total(), 0);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let mut p = plan(|c| c.dma_submit_fail = 0.25);
        let hits = (0..10_000).filter(|_| p.dma_submit_fails()).count();
        assert!((2_000..3_000).contains(&hits), "{hits} hits at p=0.25");
        assert_eq!(p.stats().dma_submit_failures, hits as u64);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let mk = || {
            plan(|c| {
                c.seed = 77;
                c.dma_submit_fail = 0.1;
                c.pebs_storm = 0.3;
            })
        };
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..500 {
            assert_eq!(a.dma_submit_fails(), b.dma_submit_fails());
            assert_eq!(a.pebs_storm(), b.pebs_storm());
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn sites_draw_from_independent_streams() {
        // Enabling an unrelated site must not change another site's draws.
        let mut only_dma = plan(|c| c.dma_submit_fail = 0.5);
        let mut both = plan(|c| {
            c.dma_submit_fail = 0.5;
            c.pebs_storm = 0.9;
        });
        for _ in 0..200 {
            let a = only_dma.dma_submit_fails();
            both.pebs_storm(); // interleaved draws on the other site
            let b = both.dma_submit_fails();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn media_error_probability_scales_with_wear() {
        let count = |wear: u64| {
            let mut p = plan(|c| {
                c.nvm_media_error = 0.001;
                c.nvm_media_wear_scale = 0.001;
            });
            (0..20_000).filter(|_| p.nvm_media_error(wear)).count()
        };
        let fresh = count(0);
        let worn = count(100);
        assert!(
            worn > fresh * 10,
            "wear must raise the error rate: fresh={fresh} worn={worn}"
        );
    }

    #[test]
    fn ssd_site_never_perturbs_existing_streams() {
        // Enabling the SSD media site must leave every pre-existing
        // site's draw sequence unchanged — this is what keeps seeded
        // 2-tier chaos runs byte-identical after the tier-3 addition.
        let mut old = plan(|c| {
            c.nvm_media_error = 0.4;
            c.pebs_storm = 0.2;
        });
        let mut new = plan(|c| {
            c.nvm_media_error = 0.4;
            c.pebs_storm = 0.2;
            c.ssd_media_error = 0.9;
        });
        for _ in 0..300 {
            new.ssd_media_error(0); // interleaved SSD draws
            assert_eq!(old.nvm_media_error(3), new.nvm_media_error(3));
            assert_eq!(old.pebs_storm(), new.pebs_storm());
        }
    }

    #[test]
    fn ssd_media_error_scales_with_erase_wear() {
        let count = |wear: u64| {
            let mut p = plan(|c| {
                c.ssd_media_error = 0.001;
                c.ssd_media_wear_scale = 0.001;
            });
            (0..20_000).filter(|_| p.ssd_media_error(wear)).count()
        };
        let fresh = count(0);
        let worn = count(100);
        assert!(
            worn > fresh * 10,
            "erase wear must raise the rate: fresh={fresh} worn={worn}"
        );
        // And the shared tally records the hits.
        let mut p = plan(|c| c.ssd_media_error = 1.0);
        assert!(p.enabled());
        assert!(p.ssd_media_error(0));
        assert_eq!(p.stats().nvm_media_errors, 1);
    }

    #[test]
    fn kill_schedule_merges_explicit_and_seeded_points() {
        let p = plan(|c| {
            c.seed = 11;
            c.manager_kill_at = vec![Ns::secs(9), Ns::secs(1)];
            c.manager_kills = 3;
            c.manager_kill_window = Ns::secs(8);
        });
        let times = p.kill_times();
        assert_eq!(times.len(), 5);
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(times.contains(&Ns::secs(1)) && times.contains(&Ns::secs(9)));
        // Deterministic: the same config reproduces the same schedule.
        let q = plan(|c| {
            c.seed = 11;
            c.manager_kill_at = vec![Ns::secs(9), Ns::secs(1)];
            c.manager_kills = 3;
            c.manager_kill_window = Ns::secs(8);
        });
        assert_eq!(p.kill_times(), q.kill_times());
    }

    #[test]
    fn kill_config_enables_plan_but_other_sites_stay_silent() {
        let mut p = plan(|c| c.manager_kill_at = vec![Ns::secs(1)]);
        assert!(p.enabled());
        for _ in 0..200 {
            assert!(!p.dma_submit_fails());
            assert!(!p.pebs_storm());
        }
        // And the seeded-kill stream never perturbs existing sites.
        let a = plan(|c| {
            c.dma_submit_fail = 0.5;
        });
        let b = plan(|c| {
            c.dma_submit_fail = 0.5;
            c.manager_kills = 4;
            c.manager_kill_window = Ns::secs(1);
        });
        let (mut a, mut b) = (a, b);
        for _ in 0..200 {
            assert_eq!(a.dma_submit_fails(), b.dma_submit_fails());
        }
    }

    #[test]
    fn tenant_kill_schedule_sorts_and_enables_the_plan() {
        let p = plan(|c| {
            c.tenant_kill_at = vec![
                TenantKill {
                    tenant: 2,
                    at: Ns::secs(3),
                },
                TenantKill {
                    tenant: 0,
                    at: Ns::secs(1),
                },
                TenantKill {
                    tenant: 1,
                    at: Ns::secs(1),
                },
            ];
        });
        assert!(p.enabled());
        let kills = p.tenant_kills();
        assert_eq!(kills.len(), 3);
        assert_eq!((kills[0].tenant, kills[0].at), (0, Ns::secs(1)));
        assert_eq!((kills[1].tenant, kills[1].at), (1, Ns::secs(1)));
        assert_eq!((kills[2].tenant, kills[2].at), (2, Ns::secs(3)));
        // Manager kills are unaffected.
        assert!(p.kill_times().is_empty());
    }

    #[test]
    fn tenant_kill_config_never_perturbs_other_streams() {
        // tenant_kill_at is an explicit schedule with no stream of its
        // own, so every other site's draw sequence must be bit-equal
        // with and without it — the property that keeps seeded chaos
        // runs comparable across churny and churn-free configs.
        let mut a = plan(|c| {
            c.dma_submit_fail = 0.5;
            c.nvm_media_error = 0.3;
            c.pebs_storm = 0.2;
        });
        let mut b = plan(|c| {
            c.dma_submit_fail = 0.5;
            c.nvm_media_error = 0.3;
            c.pebs_storm = 0.2;
            c.tenant_kill_at = vec![TenantKill {
                tenant: 1,
                at: Ns::secs(2),
            }];
        });
        for _ in 0..300 {
            assert_eq!(a.dma_submit_fails(), b.dma_submit_fails());
            assert_eq!(a.nvm_media_error(5), b.nvm_media_error(5));
            assert_eq!(a.pebs_storm(), b.pebs_storm());
        }
        // Other sites stay silent under a kill-only plan.
        let mut p = plan(|c| {
            c.tenant_kill_at = vec![TenantKill {
                tenant: 0,
                at: Ns::secs(1),
            }];
        });
        for _ in 0..200 {
            assert!(!p.dma_submit_fails());
            assert!(!p.pebs_storm());
        }
    }

    #[test]
    fn tier_schedules_sort_and_enable_the_plan() {
        let p = plan(|c| {
            c.tier_degrade_at = vec![TierFault {
                tier: 1,
                at: Ns::secs(2),
            }];
            c.tier_fail_at = vec![
                TierFault {
                    tier: 2,
                    at: Ns::secs(3),
                },
                TierFault {
                    tier: 1,
                    at: Ns::secs(3),
                },
            ];
            c.tier_readmit_at = vec![TierFault {
                tier: 1,
                at: Ns::secs(5),
            }];
        });
        assert!(p.enabled());
        assert!(p.config().has_tier_schedule());
        assert_eq!(p.tier_degrades().len(), 1);
        let fails = p.tier_fails();
        assert_eq!(
            (fails[0].tier, fails[1].tier),
            (1, 2),
            "ties at the same instant order by rank"
        );
        assert_eq!(p.tier_readmits()[0].at, Ns::secs(5));
        // And the kill schedules are unaffected.
        assert!(p.kill_times().is_empty());
        assert!(p.tenant_kills().is_empty());
    }

    #[test]
    fn tier_schedule_never_perturbs_other_streams() {
        // Tier schedules are explicit with no stream of their own, so
        // every seeded site's draw sequence must be bit-equal with and
        // without them — the property that keeps every pre-existing
        // chaos bench byte-identical after this PR.
        let mut a = plan(|c| {
            c.dma_submit_fail = 0.5;
            c.nvm_media_error = 0.3;
            c.ssd_media_error = 0.2;
            c.pebs_storm = 0.2;
        });
        let mut b = plan(|c| {
            c.dma_submit_fail = 0.5;
            c.nvm_media_error = 0.3;
            c.ssd_media_error = 0.2;
            c.pebs_storm = 0.2;
            c.tier_degrade_at = vec![TierFault {
                tier: 1,
                at: Ns::secs(1),
            }];
            c.tier_fail_at = vec![TierFault {
                tier: 1,
                at: Ns::secs(2),
            }];
            c.tier_readmit_at = vec![TierFault {
                tier: 1,
                at: Ns::secs(4),
            }];
        });
        for _ in 0..300 {
            assert_eq!(a.dma_submit_fails(), b.dma_submit_fails());
            assert_eq!(a.nvm_media_error(5), b.nvm_media_error(5));
            assert_eq!(a.ssd_media_error(5), b.ssd_media_error(5));
            assert_eq!(a.pebs_storm(), b.pebs_storm());
        }
        // Other sites stay silent under a schedule-only plan.
        let mut p = plan(|c| {
            c.tier_fail_at = vec![TierFault {
                tier: 1,
                at: Ns::secs(1),
            }];
        });
        for _ in 0..200 {
            assert!(!p.dma_submit_fails());
            assert!(!p.pebs_storm());
        }
    }

    #[test]
    fn stall_site_returns_the_stall_duration() {
        let mut p = plan(|c| c.fault_thread_stall = 1.0);
        assert_eq!(p.fault_thread_stall(), Some(FAULT_THREAD_STALL_FOR));
        assert_eq!(FAULT_THREAD_STALL_FOR, Ns::millis(1));
        assert_eq!(p.stats().fault_thread_stalls, 1);
    }
}
