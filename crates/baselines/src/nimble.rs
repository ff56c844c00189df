//! Linux Nimble tiered memory management (Yan et al., ASPLOS'19) as the
//! paper deploys it (§2.4, Figure 4b).
//!
//! NVM is a distant NUMA node; a single kernel thread periodically scans
//! page tables for accessed bits, then migrates pages — *sequentially, on
//! the same thread*, with 4 parallel copy threads for the data movement.
//! Long-running migrations therefore delay the next scan, statistics go
//! stale, the hot set is overestimated, and at large working sets Nimble
//! spends its time churning (§5.1). Nimble is also blind to read/write
//! asymmetry: accessed bits only, no dirty-bit priority (Table 2).

use hemem_core::backend::{TickOutput, TieredBackend};
use hemem_core::hemem::{run_policy, PageTracker, PolicyConfig, TrackerConfig};
use hemem_core::machine::MachineCore;
use hemem_sim::Ns;
use hemem_vmm::{PageId, RegionId, Tier};

use crate::scan::{scan_and_classify_with, ScanStreaks};

/// Nimble configuration.
#[derive(Debug, Clone)]
pub struct NimbleConfig {
    /// Pause between the end of one scan+migrate pass and the next.
    pub idle_gap: Ns,
    /// Copy threads for page movement (4 is most efficient per §5).
    pub copy_threads: usize,
    /// Migration byte budget per pass (kernel migration batching limit).
    pub max_migrate_per_pass: u64,
}

impl Default for NimbleConfig {
    fn default() -> Self {
        NimbleConfig {
            idle_gap: Ns::millis(100),
            copy_threads: 4,
            max_migrate_per_pass: 2 << 30,
        }
    }
}

/// Nimble statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct NimbleStats {
    /// Scan passes completed.
    pub scans: u64,
    /// Total pages marked hot across scans.
    pub marked_hot: u64,
    /// Total busy time of the kernel thread.
    pub busy: Ns,
}

/// The Nimble backend.
pub struct Nimble {
    cfg: NimbleConfig,
    tracker: PageTracker,
    stats: NimbleStats,
    streaks: ScanStreaks,
}

impl Nimble {
    /// Creates Nimble with the given configuration.
    pub fn new(cfg: NimbleConfig) -> Nimble {
        Nimble {
            tracker: PageTracker::new(TrackerConfig::default()),
            cfg,
            stats: NimbleStats::default(),
            streaks: ScanStreaks::new(),
        }
    }

    /// Default-configured Nimble.
    pub fn paper() -> Nimble {
        Nimble::new(NimbleConfig::default())
    }

    /// Statistics.
    pub fn stats(&self) -> &NimbleStats {
        &self.stats
    }

    fn policy_config(&self) -> PolicyConfig {
        PolicyConfig {
            period: self.cfg.idle_gap,
            // Kernel NUMA management keeps no allocation watermark.
            dram_watermark: 0,
            // Effective budget: Nimble is not rate-capped; bound by the
            // per-pass batching limit instead.
            migration_rate: self.cfg.max_migrate_per_pass as f64 / self.cfg.idle_gap.as_secs_f64(),
            use_dma: false,
            dma_channels: 1,
            copy_threads: self.cfg.copy_threads,
            // The kernel migrates its whole candidate list synchronously.
            max_inflight_pages: self.cfg.max_migrate_per_pass / (2 << 20),
        }
    }
}

impl TieredBackend for Nimble {
    fn name(&self) -> &'static str {
        "Nimble"
    }

    fn wants_to_manage(&self, len: u64) -> bool {
        // The kernel manages all anonymous memory; tiny allocations stay
        // in DRAM slab/base pages, big ranges get huge pages.
        len >= 2 << 20
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
        // First-touch NUMA policy: local (DRAM) node until full.
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
        // One sequential pass: scan, classify, then migrate. The next pass
        // cannot start until scan + migration wall time has elapsed on
        // this single kernel thread.
        // Two referenced scans promote (Linux active-list second chance);
        // accessed bits alone would mark everything the workload streams
        // over as hot.
        let scan =
            scan_and_classify_with(m, &mut self.tracker, now, false, Some(&mut self.streaks), 2);
        self.stats.scans += 1;
        self.stats.marked_hot += scan.marked_hot;
        let migrations = run_policy(&self.policy_config(), &mut self.tracker, m, now);
        let bytes: u64 = migrations.len() as u64 * m.cfg.managed_page.bytes();
        let copy_rate = 3.0e9 * self.cfg.copy_threads as f64;
        let migrate_wall = Ns::from_secs_f64(bytes as f64 / copy_rate);
        let busy = scan.scan_time + migrate_wall;
        self.stats.busy += busy;
        m.trace.instant(
            now,
            "nimble_scan",
            "policy",
            &[
                ("marked_hot", scan.marked_hot),
                ("migrations", migrations.len() as u64),
                ("busy_ns", busy.as_nanos()),
            ],
        );
        TickOutput {
            next_wake: Some(now + busy + self.cfg.idle_gap),
            migrations,
            cpu_time: busy,
        }
    }

    fn migration_done(&mut self, _m: &mut MachineCore, page: PageId, dst: Tier) {
        self.tracker.placed(page, dst);
    }

    fn migration_aborted(&mut self, _m: &mut MachineCore, page: PageId, current: Tier) {
        self.tracker.placed(page, current);
    }

    fn background_threads(&self) -> u32 {
        // The kernel thread plus its copy threads.
        1 + self.cfg.copy_threads as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_core::backend::AccessBatch;
    use hemem_core::machine::MachineConfig;
    use hemem_core::runtime::{Event, Sim};
    use hemem_memdev::GIB;

    fn sim(dram_gib: u64, nvm_gib: u64) -> Sim<Nimble> {
        Sim::new(MachineConfig::small(dram_gib, nvm_gib), Nimble::paper())
    }

    #[test]
    fn first_touch_prefers_dram() {
        let mut s = sim(1, 8);
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        assert_eq!(s.m.space.region(id).dram_pages(), 512);
    }

    #[test]
    fn scan_migrate_cycle_promotes_hot_nvm_pages() {
        let mut s = sim(1, 8);
        s.set_app_threads(1);
        let id = s.mmap(4 * GIB);
        s.populate(id, true);
        // Hammer an NVM-resident slice; scans see accessed bits via the
        // ledger and migrate.
        let batch = AccessBatch::uniform(id, 1600, 1608, 2_000_000, 8, 0.0, 4 * GIB);
        for _ in 0..30 {
            s.submit_batch(0, &batch);
            while let Some((_, ev)) = s.step() {
                if matches!(ev, Event::ThreadReady(_)) {
                    break;
                }
            }
        }
        s.advance(Ns::secs(1));
        assert!(s.backend.stats().scans > 1, "kernel thread scanned");
        assert!(s.m.stats.migrations_done > 0, "pages migrated");
        let in_dram = s.m.space.region(id).dram_pages_in(1600, 1608);
        assert!(in_dram >= 6, "hot slice promoted: {in_dram}/8");
    }

    #[test]
    fn sequential_thread_delays_next_scan_by_migration_time() {
        // Short idle gap: an idle Nimble scans ~tens of times in the
        // window; migration work on the same thread must eat most passes.
        // Both sims receive fresh accessed-bit evidence before every scan
        // (the referenced-twice rule needs consecutive hits); the busy sim's
        // evidence points at NVM pages (migration work), the idle sim's at
        // already-DRAM pages (nothing to do).
        let cfg = NimbleConfig {
            idle_gap: Ns::millis(10),
            ..NimbleConfig::default()
        };
        let mut busy = Sim::new(MachineConfig::small(1, 8), Nimble::new(cfg.clone()));
        let mut idle = Sim::new(MachineConfig::small(1, 8), Nimble::new(cfg));
        for sim in [&mut busy, &mut idle] {
            let id = sim.mmap(2 * GIB);
            sim.populate(id, true);
            sim.advance(Ns::millis(400));
        }
        let busy_id = busy.m.space.regions().next().expect("region").id();
        let idle_id = idle.m.space.regions().next().expect("region").id();
        let s0 = busy.backend.stats().scans;
        let i0 = idle.backend.stats().scans;
        for _ in 0..100 {
            busy.m
                .space
                .region_mut(busy_id)
                .ledger
                .add(512, 1024, 1e9, 0.0);
            idle.m
                .space
                .region_mut(idle_id)
                .ledger
                .add(0, 512, 1e9, 0.0);
            busy.advance(Ns::millis(10));
            idle.advance(Ns::millis(10));
        }
        let busy_scans = busy.backend.stats().scans - s0;
        let idle_scans = idle.backend.stats().scans - i0;
        assert!(busy.m.stats.migrations_started > 0, "busy sim migrated");
        assert!(
            busy_scans + 3 <= idle_scans,
            "migration starves scanning: busy {busy_scans} vs idle {idle_scans}"
        );
    }

    #[test]
    fn blind_to_write_skew() {
        let mut s = sim(1, 8);
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        s.m.space.region_mut(id).ledger.add(600, 610, 0.0, 1e6);
        s.advance(Ns::millis(300));
        // Pages were marked hot, but never write-heavy.
        assert!(!s.backend.tracker.is_write_heavy(PageId {
            region: id,
            index: 605
        }));
    }

    #[test]
    fn background_thread_count() {
        assert_eq!(Nimble::paper().background_threads(), 5);
    }
}
