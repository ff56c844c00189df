//! HeMem variants that replace PEBS with page-table scanning (§5.1,
//! Figures 8, 9, 15, 16: "PT Scan + M. Sync" / "PT Scan + M. Async" /
//! "HeMem-PT-Async").
//!
//! Policy, queues, cooling, DMA migration — everything matches HeMem; only
//! the hotness *source* differs: accessed/dirty bits harvested by
//! scanning, either on the same thread as migration (`Sync` — long
//! migrations delay the next scan, exactly Figure 4b's pathology) or on a
//! dedicated scanning thread (`Async` — scans are timely but still
//! overestimate the hot set because a single accessed bit carries far
//! less information than a stream of samples).

use hemem_core::backend::{TickOutput, TieredBackend};
use hemem_core::hemem::{run_policy, HeMemConfig, PageTracker};
use hemem_core::machine::{MachineCore, MANAGED_PAGE};
use hemem_sim::Ns;
use hemem_vmm::{PageId, RegionId, Tier};

use crate::scan::scan_and_classify;

/// Threading of the scanner relative to migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtMode {
    /// One thread scans and migrates sequentially.
    Sync,
    /// A dedicated scan thread; policy/migration runs on its own 10 ms
    /// cadence.
    Async,
}

/// Statistics for the PT variants.
#[derive(Debug, Clone, Copy, Default)]
pub struct PtStats {
    /// Scan passes.
    pub scans: u64,
    /// Pages marked hot over all scans.
    pub marked_hot: u64,
    /// Policy passes.
    pub policy_runs: u64,
}

/// HeMem with page-table scanning instead of PEBS. Migration follows
/// [`HeMemConfig::enable_migration`] (Figure 8's "PT Scan" bar turns it
/// off).
pub struct HeMemPt {
    cfg: HeMemConfig,
    mode: PtMode,
    tracker: PageTracker,
    stats: PtStats,
    /// When the scanner thread is next free (Async) / pass end (Sync).
    scanner_free: Ns,
}

impl HeMemPt {
    /// Creates a PT variant of HeMem.
    pub fn new(cfg: HeMemConfig, mode: PtMode) -> HeMemPt {
        HeMemPt {
            tracker: PageTracker::new(cfg.tracker),
            cfg,
            mode,
            stats: PtStats::default(),
            scanner_free: Ns::ZERO,
        }
    }

    /// Paper-default PT variant.
    pub fn paper(mode: PtMode) -> HeMemPt {
        HeMemPt::new(HeMemConfig::paper(), mode)
    }

    /// Statistics.
    pub fn stats(&self) -> &PtStats {
        &self.stats
    }

    /// The tracker, for experiment introspection.
    pub fn tracker(&self) -> &PageTracker {
        &self.tracker
    }

    /// The scanning mode.
    pub fn mode(&self) -> PtMode {
        self.mode
    }
}

impl TieredBackend for HeMemPt {
    fn name(&self) -> &'static str {
        match self.mode {
            PtMode::Sync => "HeMem-PT-Sync",
            PtMode::Async => "HeMem-PT-Async",
        }
    }

    fn wants_to_manage(&self, len: u64) -> bool {
        len >= self.cfg.manage_threshold
    }

    fn on_mmap(&mut self, m: &mut MachineCore, region: RegionId) {
        let r = m.space.region(region);
        if r.kind() == hemem_vmm::RegionKind::ManagedHeap {
            self.tracker.add_region(region, r.page_count());
        }
    }

    fn on_munmap(&mut self, _m: &mut MachineCore, region: RegionId) {
        self.tracker.remove_region(region);
    }

    fn place(&mut self, m: &mut MachineCore, _page: PageId, _is_write: bool) -> Tier {
        if m.pool(Tier::Dram).free_pages() > 0 {
            Tier::Dram
        } else {
            Tier::Nvm
        }
    }

    fn placed(&mut self, _m: &mut MachineCore, page: PageId, tier: Tier) {
        self.tracker.placed(page, tier);
    }

    fn tick(&mut self, m: &mut MachineCore, now: Ns) -> TickOutput {
        match self.mode {
            PtMode::Sync => {
                // Scan, then migrate, all on one thread: the next pass
                // waits for both.
                let scan = scan_and_classify(m, &mut self.tracker, now, true);
                self.stats.scans += 1;
                self.stats.marked_hot += scan.marked_hot;
                let migrations = if self.cfg.enable_migration {
                    self.stats.policy_runs += 1;
                    run_policy(&self.cfg.policy, &mut self.tracker, m, now)
                } else {
                    Vec::new()
                };
                let bytes = migrations.len() as u64 * MANAGED_PAGE.bytes();
                let migrate_wall = Ns::from_secs_f64(bytes as f64 / self.cfg.policy.migration_rate);
                let busy = scan.scan_time + migrate_wall;
                TickOutput {
                    next_wake: Some(now + busy.max(self.cfg.policy.period)),
                    migrations,
                    cpu_time: busy,
                }
            }
            PtMode::Async => {
                // Policy cadence is fixed; the scanner runs back-to-back on
                // its own thread, so a new scan starts whenever the
                // previous one has finished.
                if now >= self.scanner_free {
                    let scan = scan_and_classify(m, &mut self.tracker, now, true);
                    self.stats.scans += 1;
                    self.stats.marked_hot += scan.marked_hot;
                    self.scanner_free = now + scan.scan_time;
                }
                let migrations = if self.cfg.enable_migration {
                    self.stats.policy_runs += 1;
                    run_policy(&self.cfg.policy, &mut self.tracker, m, now)
                } else {
                    Vec::new()
                };
                TickOutput {
                    next_wake: Some(now + self.cfg.policy.period),
                    migrations,
                    cpu_time: Ns::micros(50),
                }
            }
        }
    }

    fn migration_done(&mut self, _m: &mut MachineCore, page: PageId, dst: Tier) {
        self.tracker.placed(page, dst);
    }

    fn migration_aborted(&mut self, _m: &mut MachineCore, page: PageId, current: Tier) {
        self.tracker.placed(page, current);
    }

    fn background_threads(&self) -> u32 {
        match self.mode {
            PtMode::Sync => 1,
            PtMode::Async => 2, // scanner + policy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_core::machine::MachineConfig;
    use hemem_core::runtime::Sim;
    use hemem_memdev::GIB;

    fn sim(mode: PtMode) -> Sim<HeMemPt> {
        let mc = MachineConfig::small(1, 8);
        let cfg = HeMemConfig::scaled_for(&mc);
        Sim::new(mc, HeMemPt::new(cfg, mode))
    }

    #[test]
    fn async_scans_more_often_than_sync_under_migration_load() {
        for (mode, _name) in [(PtMode::Sync, "sync"), (PtMode::Async, "async")] {
            let mut s = sim(mode);
            let id = s.mmap(4 * GIB);
            s.populate(id, true);
            // Keep the whole working set looking hot.
            for _ in 0..20 {
                s.m.space.region_mut(id).ledger.add(0, 2048, 1e8, 1e6);
                s.advance(Ns::millis(50));
            }
            assert!(s.backend.stats().scans >= 1);
            assert!(s.m.stats.migrations_started > 0);
        }
    }

    #[test]
    fn overestimates_hot_set_with_uniform_traffic() {
        let mut s = sim(PtMode::Async);
        let id = s.mmap(4 * GIB);
        s.populate(id, true);
        // Uniform traffic: PEBS would find no stable hot set, but accessed
        // bits saturate (lambda >> 1 per page per scan interval).
        s.m.space.region_mut(id).ledger.add(0, 2048, 2e7, 0.0);
        s.advance(Ns::millis(30));
        let hot = s.backend.stats().marked_hot;
        assert!(hot > 1500, "most of memory misclassified hot: {hot}/2048");
    }

    #[test]
    fn without_migration_never_migrates() {
        let mc = MachineConfig::small(1, 8);
        let mut cfg = HeMemConfig::scaled_for(&mc);
        cfg.enable_migration = false;
        let mut s = Sim::new(mc, HeMemPt::new(cfg, PtMode::Async));
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        s.m.space.region_mut(id).ledger.add(0, 1024, 1e8, 1e8);
        s.advance(Ns::millis(200));
        assert!(s.backend.stats().scans > 0);
        assert_eq!(s.m.stats.migrations_started, 0);
    }

    #[test]
    fn names_and_threads() {
        assert_eq!(HeMemPt::paper(PtMode::Sync).name(), "HeMem-PT-Sync");
        assert_eq!(HeMemPt::paper(PtMode::Async).name(), "HeMem-PT-Async");
        assert_eq!(HeMemPt::paper(PtMode::Sync).background_threads(), 1);
        assert_eq!(HeMemPt::paper(PtMode::Async).background_threads(), 2);
    }
}
