//! Thermostat (Agarwal & Wenisch, ASPLOS'17) — application-transparent
//! two-tier page placement by page-table *sampling*, discussed in the
//! paper's related work (§6).
//!
//! Each epoch Thermostat samples a small random fraction of pages and
//! estimates their access rate by poisoning their PTEs: every access to a
//! poisoned page faults, so the kernel can count accesses precisely for
//! the sampled subset — at the cost of slowing exactly the pages it
//! measures. Pages estimated colder than a threshold are demoted to slow
//! memory; sampled slow-memory pages that turn out hot are promoted.
//! Compared to HeMem: sampling-by-poisoning has per-access overhead on
//! the sampled set and converges one random subset per epoch, while PEBS
//! observes *all* pages continuously for almost nothing.

use std::collections::HashMap;

use hemem_core::backend::{CopyMechanism, MigrationJob, TickOutput, TieredBackend};
use hemem_core::machine::MachineCore;
use hemem_sim::Ns;
use hemem_vmm::{PageId, PageState, RegionId, Tier};

/// Thermostat configuration.
#[derive(Debug, Clone)]
pub struct ThermostatConfig {
    /// Epoch length between sampling decisions (the paper uses 10 s on
    /// real hardware; scaled runs use shorter epochs).
    pub epoch: Ns,
    /// Fraction of pages poisoned for measurement each epoch.
    pub sample_fraction: f64,
    /// Accesses per epoch below which a sampled page is "cold".
    pub cold_threshold: f64,
    /// Per-fault cost charged to the application for each access to a
    /// poisoned page (TLB fault + kernel accounting).
    pub poison_fault_cost: Ns,
    /// Migration byte budget per epoch.
    pub budget_per_epoch: u64,
}

impl Default for ThermostatConfig {
    fn default() -> Self {
        ThermostatConfig {
            epoch: Ns::secs(1),
            sample_fraction: 0.05,
            cold_threshold: 8.0,
            poison_fault_cost: Ns::micros(2),
            budget_per_epoch: 1 << 30,
        }
    }
}

/// Thermostat statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThermostatStats {
    /// Sampling epochs completed.
    pub epochs: u64,
    /// Pages poisoned for measurement.
    pub sampled: u64,
    /// Pages classified cold and demoted.
    pub demoted: u64,
    /// Pages classified hot and promoted.
    pub promoted: u64,
}

/// The Thermostat backend.
pub struct Thermostat {
    cfg: ThermostatConfig,
    regions: HashMap<RegionId, u64>,
    stats: ThermostatStats,
}

impl Thermostat {
    /// Creates a Thermostat instance.
    pub fn new(cfg: ThermostatConfig) -> Thermostat {
        Thermostat {
            cfg,
            regions: HashMap::new(),
            stats: ThermostatStats::default(),
        }
    }

    /// Default-configured Thermostat.
    pub fn paper() -> Thermostat {
        Thermostat::new(ThermostatConfig::default())
    }

    /// Statistics.
    pub fn stats(&self) -> &ThermostatStats {
        &self.stats
    }
}

impl TieredBackend for Thermostat {
    fn name(&self) -> &'static str {
        "Thermostat"
    }

    fn wants_to_manage(&self, len: u64) -> bool {
        // Kernel-transparent: manages all huge-page-backed memory.
        len >= 2 << 20
    }

    fn on_mmap(&mut self, m: &mut MachineCore, region: RegionId) {
        let r = m.space.region(region);
        if r.kind() == hemem_vmm::RegionKind::ManagedHeap {
            self.regions.insert(region, r.page_count());
        }
    }

    fn on_munmap(&mut self, _m: &mut MachineCore, region: RegionId) {
        self.regions.remove(&region);
    }

    fn place(&mut self, m: &mut MachineCore, _page: PageId, _is_write: bool) -> Tier {
        if m.dram_pool.free_pages() > 0 {
            Tier::Dram
        } else {
            Tier::Nvm
        }
    }

    fn placed(&mut self, _m: &mut MachineCore, _page: PageId, _tier: Tier) {}

    fn tick(&mut self, m: &mut MachineCore, now: Ns) -> TickOutput {
        self.stats.epochs += 1;
        let mechanism = CopyMechanism::Threads(4);
        let page_bytes = m.cfg.managed_page.bytes();
        let mut budget = self.cfg.budget_per_epoch;
        let mut jobs = Vec::new();
        let ids: Vec<(RegionId, u64)> = self.regions.iter().map(|(&k, &v)| (k, v)).collect();
        for (id, pages) in ids {
            // Skip regions whose evidence has not arrived yet (mid-batch).
            if m.space.region(id).ledger.is_empty() {
                continue;
            }
            let sample_n = ((pages as f64 * self.cfg.sample_fraction) as u64).max(1);
            let mut demote = Vec::new();
            let mut promote = Vec::new();
            for _ in 0..sample_n {
                let idx = m.rng.gen_range(pages);
                self.stats.sampled += 1;
                let region = m.space.region(id);
                let (r, w) = region.ledger.probe(idx);
                let rate = r + w;
                match region.state(idx) {
                    PageState::Mapped {
                        tier: Tier::Dram,
                        wp: false,
                        ..
                    } if rate < self.cfg.cold_threshold => demote.push(idx),
                    PageState::Mapped {
                        tier: Tier::Nvm,
                        wp: false,
                        ..
                    } if rate >= self.cfg.cold_threshold => promote.push(idx),
                    _ => {}
                }
            }
            m.space.region_mut(id).ledger.clear();
            for idx in demote {
                if budget < page_bytes {
                    break;
                }
                jobs.push(MigrationJob {
                    page: PageId {
                        region: id,
                        index: idx,
                    },
                    dst: Tier::Nvm,
                    mechanism,
                });
                budget -= page_bytes;
                self.stats.demoted += 1;
            }
            for idx in promote {
                if budget < page_bytes || m.dram_free_bytes() < page_bytes {
                    break;
                }
                jobs.push(MigrationJob {
                    page: PageId {
                        region: id,
                        index: idx,
                    },
                    dst: Tier::Dram,
                    mechanism,
                });
                budget -= page_bytes;
                self.stats.promoted += 1;
            }
            // Poisoning and unpoisoning PTEs each epoch requires TLB
            // shootdowns, and accesses to poisoned pages fault into the
            // kernel; both stall the application threads. The shootdown is
            // charged through the TLB model (threads pay it as stall debt
            // on their next batch).
            let cores = m.cores.cores();
            m.tlb.shootdown(cores);
        }
        TickOutput {
            next_wake: Some(now + self.cfg.epoch),
            migrations: jobs,
            cpu_time: Ns::micros(100),
        }
    }

    fn migration_done(&mut self, _m: &mut MachineCore, _page: PageId, _dst: Tier) {}

    fn background_threads(&self) -> u32 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_core::machine::MachineConfig;
    use hemem_core::runtime::Sim;
    use hemem_memdev::GIB;

    fn sim() -> Sim<Thermostat> {
        let cfg = ThermostatConfig {
            epoch: Ns::millis(100),
            sample_fraction: 0.25,
            ..ThermostatConfig::default()
        };
        Sim::new(MachineConfig::small(1, 8), Thermostat::new(cfg))
    }

    #[test]
    fn samples_and_demotes_cold_dram_pages() {
        let mut s = sim();
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        // Only pages 512..520 are accessed; the rest of DRAM is cold.
        for _ in 0..40 {
            s.m.space.region_mut(id).ledger.add(512, 520, 1e5, 1e4);
            s.advance(Ns::millis(100));
        }
        assert!(s.backend.stats().epochs > 10);
        assert!(s.backend.stats().sampled > 0);
        assert!(s.backend.stats().demoted > 0, "cold DRAM pages demoted");
        let r = s.m.space.region(id);
        assert!(
            r.dram_pages() < 512,
            "some DRAM pages vacated: {}",
            r.dram_pages()
        );
    }

    #[test]
    fn promotes_hot_nvm_pages_once_dram_has_room() {
        let mut s = sim();
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        // Hot slice lives in NVM (pages 512.. were populated second).
        for _ in 0..80 {
            s.m.space.region_mut(id).ledger.add(600, 640, 1e5, 1e4);
            s.advance(Ns::millis(100));
        }
        assert!(s.backend.stats().promoted > 0, "hot NVM pages promoted");
        let r = s.m.space.region(id);
        assert!(
            r.dram_pages_in(600, 640) > 5,
            "hot slice partially promoted: {}",
            r.dram_pages_in(600, 640)
        );
    }

    #[test]
    fn converges_slower_than_exhaustive_observation_would() {
        // One epoch samples only a fraction of pages: after a single
        // epoch, at most sample_fraction of the cold pages can have moved.
        let mut s = sim();
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        s.m.space.region_mut(id).ledger.add(512, 520, 1e5, 1e4);
        s.advance(Ns::millis(100));
        let demoted = s.backend.stats().demoted;
        assert!(
            demoted <= 256 + 8,
            "single epoch bounded by sample: {demoted}"
        );
    }

    #[test]
    fn no_migrations_without_evidence() {
        let mut s = sim();
        let id = s.mmap(GIB);
        s.populate(id, true);
        s.advance(Ns::secs(1));
        assert_eq!(s.m.stats.migrations_started, 0, "empty ledger => no action");
    }
}
