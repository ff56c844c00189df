//! Intel Optane DC "Memory Mode" — hardware tiered memory (§2.4).
//!
//! All data lives physically in NVM; DRAM acts as a direct-mapped, 64 B
//! line cache managed entirely by the memory controller. Software sees a
//! single flat pool the size of NVM. Hits are served at DRAM speed; misses
//! fetch the line from NVM and fill it into DRAM, possibly evicting a
//! conflicting line — and if that victim is dirty, writing it back to NVM
//! (random 64 B writes: the worst case for Optane bandwidth and wear).

use hemem_memdev::{CacheOutcome, DramCache, DramCacheConfig, MemOp, Pattern};
use hemem_sim::Ns;
use hemem_vmm::{PageId, RegionId, Tier};

use hemem_core::backend::{SegmentAccess, TickOutput, TierSplit, TieredBackend, Traffic};
use hemem_core::machine::MachineCore;

/// Memory-mode statistics (scaled to real access counts).
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct MemoryModeStats {
    /// Estimated cache hits.
    pub hits: u64,
    /// Estimated cache misses.
    pub misses: u64,
    /// Estimated dirty write-backs to NVM.
    pub writebacks: u64,
}

/// The Memory Mode backend.
pub struct MemoryMode {
    cache: DramCache,
    stats: MemoryModeStats,
    /// Long-run hit-ratio fallback for batches too small to sample.
    ewma_hit: f64,
    ewma_dirty: f64,
}

impl MemoryMode {
    /// Builds memory mode over the machine's DRAM capacity.
    pub fn new(dram_bytes: u64) -> MemoryMode {
        MemoryMode {
            cache: DramCache::new(DramCacheConfig::memory_mode(dram_bytes)),
            stats: MemoryModeStats::default(),
            ewma_hit: 1.0,
            ewma_dirty: 0.0,
        }
    }

    /// Builds memory mode with an explicit cache configuration (tests use
    /// exact, unsampled caches).
    pub fn with_cache(config: DramCacheConfig) -> MemoryMode {
        MemoryMode {
            cache: DramCache::new(config),
            stats: MemoryModeStats::default(),
            ewma_hit: 1.0,
            ewma_dirty: 0.0,
        }
    }

    /// Scaled statistics.
    pub fn stats(&self) -> &MemoryModeStats {
        &self.stats
    }

    /// Current estimated hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        self.ewma_hit
    }
}

impl TieredBackend for MemoryMode {
    fn name(&self) -> &'static str {
        "MM"
    }

    fn wants_to_manage(&self, _len: u64) -> bool {
        // Hardware sees one flat pool: every mapping is "managed" (placed
        // in NVM behind the cache). Page size is irrelevant to the cache.
        true
    }

    fn on_mmap(&mut self, _m: &mut MachineCore, _region: RegionId) {}

    fn on_munmap(&mut self, _m: &mut MachineCore, _region: RegionId) {}

    fn place(&mut self, _m: &mut MachineCore, _page: PageId, _is_write: bool) -> Tier {
        // Physical home of every line is NVM; DRAM is a cache in front.
        Tier::Nvm
    }

    fn placed(&mut self, m: &mut MachineCore, page: PageId, _tier: Tier) {
        // First touch streams the page through the cache (the zero-fill /
        // warm-up write); prime the sampled tag store so the simulated
        // cache reflects the populated state instead of starting cold.
        let region = m.space.region(page.region);
        let base = region.page_addr(page.index).0;
        let bytes = region.page_size().bytes();
        let stride = self.cache.line_size() << self.cache.config_shift();
        let mut addr = base;
        while addr < base + bytes {
            self.cache.access(addr, true);
            addr += stride;
        }
    }

    fn split(
        &mut self,
        m: &mut MachineCore,
        seg: &SegmentAccess,
        object_size: u32,
        pattern: Pattern,
        reads: f64,
        writes: f64,
    ) -> TierSplit {
        let total = reads + writes;
        if total <= 0.0 {
            return TierSplit::default();
        }
        let region = m.space.region(seg.region);
        let base = region.page_addr(seg.lo_page).0;
        let span = (seg.hi_page - seg.lo_page) * region.page_size().bytes();
        let write_frac = writes / total;

        // Sample the direct-mapped cache: each simulated access stands for
        // `scale` real ones. Bound per-batch work; fall back to the EWMA
        // ratios when the batch is too small to sample.
        let scale = self.cache.scale() as f64;
        let want = (total / scale).min(16384.0);
        let n = m.rng.round_stochastic(want);
        let (hit_ratio, dirty_ratio) = if n == 0 {
            (self.ewma_hit, self.ewma_dirty)
        } else {
            let mut hits = 0u64;
            let mut dirty = 0u64;
            for _ in 0..n {
                let addr = base + m.rng.gen_range(span);
                let is_write = m.rng.bernoulli(write_frac);
                match self.cache.access(addr, is_write) {
                    CacheOutcome::Hit => hits += 1,
                    CacheOutcome::Miss { dirty_evict } => {
                        if dirty_evict {
                            dirty += 1;
                        }
                    }
                }
            }
            let h = hits as f64 / n as f64;
            let d = dirty as f64 / n as f64;
            self.ewma_hit = 0.9 * self.ewma_hit + 0.1 * h;
            self.ewma_dirty = 0.9 * self.ewma_dirty + 0.1 * d;
            (h, d)
        };

        let hits = total * hit_ratio;
        let misses = total * (1.0 - hit_ratio);
        let writebacks = total * dirty_ratio;
        self.stats.hits += hits as u64;
        self.stats.misses += misses as u64;
        self.stats.writebacks += writebacks as u64;

        let line = self.cache.line_size() as u32;
        let mut traffic = Vec::with_capacity(4);
        // Hits (and the DRAM side of every miss fill) run at DRAM speed.
        if hits > 0.0 {
            traffic.push(Traffic {
                tier: Tier::Dram,
                op: MemOp::Read,
                pattern,
                size: object_size,
                count: hits * (1.0 - write_frac),
            });
            traffic.push(Traffic {
                tier: Tier::Dram,
                op: MemOp::Write,
                pattern,
                size: object_size,
                count: hits * write_frac,
            });
        }
        if misses > 0.0 {
            // Line fetch from NVM (random 64 B -> amplified to the 256 B
            // media granularity by the device model) plus the DRAM fill.
            traffic.push(Traffic {
                tier: Tier::Nvm,
                op: MemOp::Read,
                pattern: Pattern::Random,
                size: line,
                count: misses,
            });
            traffic.push(Traffic {
                tier: Tier::Dram,
                op: MemOp::Write,
                pattern: Pattern::Random,
                size: line,
                count: misses,
            });
        }
        if writebacks > 0.0 {
            traffic.push(Traffic {
                tier: Tier::Nvm,
                op: MemOp::Write,
                pattern: Pattern::Random,
                size: line,
                count: writebacks,
            });
        }
        TierSplit {
            traffic,
            nvm_load_fraction: 1.0 - hit_ratio,
            // Tag check adds a small constant on every access.
            extra_latency: Ns::nanos(5),
        }
    }

    fn tick(&mut self, m: &mut MachineCore, now: Ns) -> TickOutput {
        // Pure hardware: no background threads, no further wake-ups. The
        // single tick still marks the trace so baseline traces share a
        // comparable policy lane.
        m.trace
            .instant(now, "memory_mode_tick", "policy", &[("direct_mapped", 1)]);
        TickOutput {
            next_wake: None,
            migrations: Vec::new(),
            cpu_time: Ns::ZERO,
        }
    }

    fn migration_done(&mut self, _m: &mut MachineCore, _page: PageId, _dst: Tier) {
        unreachable!("memory mode never issues page migrations");
    }

    fn background_threads(&self) -> u32 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_core::backend::AccessBatch;
    use hemem_core::machine::MachineConfig;
    use hemem_core::runtime::Sim;
    use hemem_memdev::GIB;

    fn mm_sim(dram_gib: u64, nvm_gib: u64, shift: u32) -> Sim<MemoryMode> {
        let mc = MachineConfig::small(dram_gib, nvm_gib);
        let mm = MemoryMode::with_cache(DramCacheConfig {
            dram_bytes: dram_gib * GIB,
            line_size: 64,
            sample_shift: shift,
        });
        Sim::new(mc, mm)
    }

    fn pump(s: &mut Sim<MemoryMode>, batch: &AccessBatch, times: usize) {
        for _ in 0..times {
            s.submit_batch(0, batch);
            while let Some((_, ev)) = s.step() {
                if matches!(ev, hemem_core::runtime::Event::ThreadReady(_)) {
                    break;
                }
            }
        }
    }

    #[test]
    fn all_pages_physically_in_nvm() {
        let mut s = mm_sim(1, 8, 8);
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        let r = s.m.space.region(id);
        assert_eq!(r.dram_pages(), 0);
        assert_eq!(r.mapped_pages(), 1024);
    }

    #[test]
    fn small_working_set_hits_in_cache() {
        let mut s = mm_sim(1, 8, 4);
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        // Hammer 64 MiB (way below the 1 GiB cache).
        let batch = AccessBatch::uniform(id, 0, 32, 500_000, 8, 0.1, 64 << 20);
        pump(&mut s, &batch, 40);
        assert!(
            s.backend.hit_ratio() > 0.9,
            "hit ratio {}",
            s.backend.hit_ratio()
        );
    }

    #[test]
    fn oversized_working_set_mostly_misses_and_wears_nvm() {
        let mut s = mm_sim(1, 8, 4);
        let id = s.mmap(4 * GIB);
        s.populate(id, true);
        let wear0 = s.m.nvm_wear_bytes();
        let batch = AccessBatch::uniform(id, 0, 2048, 500_000, 8, 0.5, 4 * GIB);
        pump(&mut s, &batch, 20);
        assert!(
            s.backend.hit_ratio() < 0.5,
            "hit ratio {}",
            s.backend.hit_ratio()
        );
        assert!(s.m.nvm_wear_bytes() > wear0, "dirty evictions wrote NVM");
        assert!(s.backend.stats().writebacks > 0);
    }

    #[test]
    fn conflict_misses_appear_below_capacity() {
        // Working set = half the cache: a direct-mapped cache still
        // conflicts (the Figure 5 MM degradation before DRAM is full).
        let mut s = mm_sim(1, 8, 4);
        let id = s.mmap(GIB / 2);
        s.populate(id, true);
        let batch = AccessBatch::uniform(id, 0, 256, 500_000, 8, 0.0, GIB / 2);
        pump(&mut s, &batch, 60);
        let h = s.backend.hit_ratio();
        assert!(h < 0.999, "some conflict misses must occur: {h}");
        assert!(h > 0.5, "but most accesses hit: {h}");
    }

    #[test]
    fn no_background_threads_or_migrations() {
        let mm = MemoryMode::new(GIB);
        assert_eq!(mm.background_threads(), 0);
        assert_eq!(mm.name(), "MM");
        assert!(mm.wants_to_manage(1));
    }
}
