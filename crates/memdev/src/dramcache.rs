//! Direct-mapped DRAM cache — the hardware behind Intel Optane "Memory
//! Mode" (§2.4).
//!
//! In memory mode the processor treats all of DRAM as a direct-mapped,
//! 64 B-line cache in front of NVM. Simulating a tag per 64 B line of a
//! 192 GB cache would need gigabytes of tag state, so we use *set
//! sampling*: with a sampling factor `F = 2^shift` we coarsen lines by `F`
//! (equivalently: simulate a direct-mapped cache with the same capacity
//! but `F`-times larger blocks). Under the random-dominated access
//! patterns of the evaluation this preserves the set-occupancy ratio
//! (working-set lines per set), and therefore the hit/conflict-miss
//! behaviour, while shrinking tag state by `F`. Each simulated access
//! represents `F` real accesses; callers scale traffic accordingly via
//! [`DramCache::scale`].

/// Configuration of the DRAM cache.
#[derive(Debug, Clone)]
pub struct DramCacheConfig {
    /// DRAM capacity acting as the cache, bytes.
    pub dram_bytes: u64,
    /// Cache line size, bytes (64 for memory mode).
    pub line_size: u64,
    /// Set-sampling factor exponent: simulate `1 / 2^shift` of the sets.
    /// Zero simulates the cache exactly.
    pub sample_shift: u32,
}

impl DramCacheConfig {
    /// Memory-mode cache over `dram_bytes` of DRAM with a default sampling
    /// factor suitable for terabyte-scale experiments.
    pub fn memory_mode(dram_bytes: u64) -> DramCacheConfig {
        DramCacheConfig {
            dram_bytes,
            line_size: 64,
            sample_shift: 12,
        }
    }
}

/// Outcome of one (sampled) cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line present in DRAM.
    Hit,
    /// Line absent; served from NVM and filled into DRAM.
    Miss {
        /// Whether the victim line was dirty and must be written back.
        dirty_evict: bool,
    },
}

/// Cumulative (sampled) counters; multiply by [`DramCache::scale`] to
/// estimate real traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Sampled hits.
    pub hits: u64,
    /// Sampled misses.
    pub misses: u64,
    /// Sampled dirty evictions (each is an NVM line write-back).
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Hit ratio over all sampled accesses, or 1.0 if none.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const VALID: u64 = 1;
const DIRTY: u64 = 2;
const TAG_SHIFT: u64 = 2;

/// Set-sampled direct-mapped cache.
#[derive(Debug, Clone)]
pub struct DramCache {
    config: DramCacheConfig,
    /// Packed entries: `tag << 2 | dirty << 1 | valid`.
    sets: Vec<u64>,
    stats: CacheStats,
    line_shift: u32,
}

impl DramCache {
    /// Builds the cache; tag state is `dram_bytes / line_size / 2^shift`
    /// entries.
    pub fn new(config: DramCacheConfig) -> DramCache {
        assert!(
            config.line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            config.dram_bytes >= config.line_size << config.sample_shift,
            "cache smaller than one sampled set"
        );
        let n_sets = (config.dram_bytes / config.line_size) >> config.sample_shift;
        let line_shift = config.line_size.trailing_zeros();
        DramCache {
            sets: vec![0; n_sets as usize],
            stats: CacheStats::default(),
            line_shift,
            config,
        }
    }

    /// The number of real accesses each sampled access represents.
    pub fn scale(&self) -> u64 {
        1 << self.config.sample_shift
    }

    /// The sampling-shift exponent.
    pub fn config_shift(&self) -> u32 {
        self.config.sample_shift
    }

    /// Number of simulated sets.
    pub fn n_sets(&self) -> usize {
        self.sets.len()
    }

    /// Sampled counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Cache line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.config.line_size
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        // Coarsened line number: F physical lines collapse into one
        // sampled line, preserving lines-per-set occupancy.
        let line = addr >> (self.line_shift + self.config.sample_shift);
        // Fibonacci hash spreads structured (per-thread-partition) address
        // patterns over sets, approximating the scatter that page-granular
        // physical allocation over the whole NVM range produces. The *high*
        // multiplier bits must be used: an odd multiplier is bijective
        // modulo a power of two, which would make the mapping conflict-free.
        let h = line.wrapping_mul(0x9E3779B97F4A7C15) >> 24;
        let set = (h % self.sets.len() as u64) as usize;
        (set, line)
    }

    /// Performs one sampled access at byte address `addr`.
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        let (set, tag) = self.index(addr);
        let entry = &mut self.sets[set];
        let valid = *entry & VALID != 0;
        let cur_tag = *entry >> TAG_SHIFT;
        if valid && cur_tag == tag {
            self.stats.hits += 1;
            if is_write {
                *entry |= DIRTY;
            }
            return CacheOutcome::Hit;
        }
        let dirty_evict = valid && (*entry & DIRTY != 0);
        if dirty_evict {
            self.stats.dirty_evictions += 1;
        }
        self.stats.misses += 1;
        *entry = (tag << TAG_SHIFT) | VALID | if is_write { DIRTY } else { 0 };
        CacheOutcome::Miss { dirty_evict }
    }

    /// Clears all cached lines and counters.
    pub fn reset(&mut self) {
        self.sets.fill(0);
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_sim::Rng;

    fn exact_cache(lines: u64) -> DramCache {
        DramCache::new(DramCacheConfig {
            dram_bytes: lines * 64,
            line_size: 64,
            sample_shift: 0,
        })
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = exact_cache(1024);
        assert!(matches!(c.access(0x1000, false), CacheOutcome::Miss { .. }));
        assert_eq!(c.access(0x1000, false), CacheOutcome::Hit);
        assert_eq!(c.access(0x1008, false), CacheOutcome::Hit, "same line");
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = exact_cache(4);
        // Find two addresses mapping to the same set.
        let (set0, _) = c.index(0);
        let conflict = (1..10_000u64)
            .map(|i| i * 64)
            .find(|&a| c.index(a).0 == set0)
            .expect("conflicting address exists");
        c.access(0, true); // miss, fill dirty
        match c.access(conflict, false) {
            CacheOutcome::Miss { dirty_evict } => assert!(dirty_evict),
            CacheOutcome::Hit => panic!("expected conflict miss"),
        }
        // Victim was clean this time.
        match c.access(0, false) {
            CacheOutcome::Miss { dirty_evict } => assert!(!dirty_evict),
            CacheOutcome::Hit => panic!("expected conflict miss"),
        }
    }

    #[test]
    fn hit_ratio_tracks_working_set_ratio() {
        // Direct-mapped cache of C lines under uniform random access over W
        // lines: steady-state hit ratio ~ sum over occupancy; empirically
        // close to C/W for W >> C.
        let mut c = exact_cache(1 << 10);
        let mut rng = Rng::new(1);
        let w_lines = 1u64 << 13; // 8x capacity
        for _ in 0..400_000 {
            let line = rng.gen_range(w_lines);
            c.access(line * 64, false);
        }
        let hr = c.stats().hit_ratio();
        let expect = (1u64 << 10) as f64 / w_lines as f64;
        assert!(
            (hr - expect).abs() < 0.02,
            "hit ratio {hr}, expected ~{expect}"
        );
    }

    #[test]
    fn small_working_set_mostly_hits_with_some_conflicts() {
        let mut c = exact_cache(1 << 12);
        let mut rng = Rng::new(2);
        let w_lines = 1u64 << 10; // quarter of capacity
        for _ in 0..200_000 {
            let line = rng.gen_range(w_lines);
            c.access(line * 64, false);
        }
        let hr = c.stats().hit_ratio();
        // Poisson conflict estimate: some misses even though W < C.
        assert!(hr > 0.85 && hr < 1.0, "hit ratio {hr}");
    }

    #[test]
    fn sampled_cache_matches_exact_hit_ratio() {
        // The sampled cache (shift=4) must reproduce the exact cache's hit
        // ratio for uniform random traffic over the same footprint.
        let mut exact = exact_cache(1 << 12);
        let mut sampled = DramCache::new(DramCacheConfig {
            dram_bytes: (1 << 12) * 64,
            line_size: 64,
            sample_shift: 4,
        });
        assert_eq!(sampled.n_sets(), 1 << 8);
        let mut rng = Rng::new(3);
        let w_bytes = (1u64 << 14) * 64;
        for _ in 0..400_000 {
            let addr = rng.gen_range(w_bytes) & !63;
            exact.access(addr, false);
            sampled.access(addr, false);
        }
        let he = exact.stats().hit_ratio();
        let hs = sampled.stats().hit_ratio();
        assert!((he - hs).abs() < 0.03, "exact {he} vs sampled {hs}");
    }

    #[test]
    fn scale_reflects_shift() {
        let c = DramCache::new(DramCacheConfig {
            dram_bytes: 1 << 20,
            line_size: 64,
            sample_shift: 6,
        });
        assert_eq!(c.scale(), 64);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = exact_cache(16);
        c.access(0, true);
        c.reset();
        assert_eq!(c.stats().hits + c.stats().misses, 0);
        assert!(matches!(c.access(0, false), CacheOutcome::Miss { .. }));
    }
}
