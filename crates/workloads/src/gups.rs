//! GUPS (giga-updates per second) microbenchmark, §5.1.
//!
//! Parallel read-modify-write operations on 8-byte objects over a large
//! working set. Each thread owns an exclusive partition. Variants match
//! the paper's experiments:
//!
//! - **uniform** random over the whole working set (system-overhead test,
//!   Figure 5);
//! - **hot set**: 90% of each thread's operations hit a configurable hot
//!   slice of its partition (Figure 6);
//! - **dynamic hot set**: the hot slice shifts mid-run (Figure 9);
//! - **write-skew**: part of the hot set is write-only, the rest of the
//!   working set read-only (Table 2).

use hemem_core::backend::{AccessBatch, SegmentAccess, TieredBackend};
use hemem_core::runtime::{Event, Sim};
use hemem_memdev::Pattern;
use hemem_sim::{Ns, RateSeries};
use hemem_vmm::RegionId;

/// GUPS configuration.
#[derive(Debug, Clone)]
pub struct GupsConfig {
    /// Worker threads (paper default 16).
    pub threads: u32,
    /// Aggregate working-set size in bytes.
    pub working_set: u64,
    /// Aggregate hot-set size in bytes; `0` = uniform access.
    pub hot_set: u64,
    /// Fraction of operations that hit the hot set (paper: 0.9).
    pub hot_fraction: f64,
    /// Bytes per object (paper: 8).
    pub object_size: u32,
    /// Virtual run time of the measurement phase.
    pub duration: Ns,
    /// Virtual warm-up time before measurement starts.
    pub warmup: Ns,
    /// Updates per submitted batch per thread.
    pub batch_ops: u64,
    /// Write-skew mode (Table 2): this many bytes of the hot set are
    /// write-only while everything else is read-only. `0` disables.
    pub write_only_bytes: u64,
    /// Instantaneous-rate window for the time series (Figure 9).
    pub rate_window: Ns,
    /// Populate hot pages first so they land in DRAM ("Opt" manual
    /// placement in the Figure 8 overhead breakdown). Default: shuffled
    /// first-touch order (parallel load phase).
    pub hot_first_populate: bool,
    /// Zipf skew exponent over pages instead of the two-level hot/cold
    /// split; `None` uses the paper's hot-set model. With `Some(theta)`,
    /// page popularity follows a power law (page ranks laid out
    /// hottest-first within each partition).
    pub zipf_theta: Option<f64>,
}

impl GupsConfig {
    /// Paper-default GUPS: 16 threads, 8-byte objects, 90/10 hot split.
    pub fn paper(working_set: u64, hot_set: u64) -> GupsConfig {
        GupsConfig {
            threads: 16,
            working_set,
            hot_set,
            hot_fraction: 0.9,
            object_size: 8,
            duration: Ns::secs(10),
            warmup: Ns::secs(5),
            batch_ops: 200_000,
            write_only_bytes: 0,
            rate_window: Ns::secs(1),
            hot_first_populate: false,
            zipf_theta: None,
        }
    }
}

/// GUPS results.
#[derive(Debug, Clone)]
pub struct GupsResult {
    /// Updates per second during the measurement phase, in giga-updates
    /// (the GUPS metric).
    pub gups: f64,
    /// Instantaneous updates/second over time (measurement phase),
    /// `(window end, updates per second)`.
    pub timeseries: Vec<(Ns, f64)>,
    /// Total updates completed during measurement.
    pub updates: u64,
    /// NVM media writes during measurement (wear).
    pub nvm_writes: u64,
}

/// Internal driver state: per-thread hot slice bounds, in pages.
struct Partition {
    lo: u64,
    hi: u64,
    hot_lo: u64,
    hot_hi: u64,
}

/// A running GUPS instance over a simulation.
pub struct Gups {
    cfg: GupsConfig,
    region: RegionId,
    parts: Vec<Partition>,
    page_bytes: u64,
}

impl Gups {
    /// Maps and populates the working set; computes per-thread partitions.
    pub fn setup<B: TieredBackend>(sim: &mut Sim<B>, cfg: GupsConfig) -> Gups {
        assert!(cfg.threads > 0, "need at least one thread");
        let region = sim.mmap(cfg.working_set);
        let (page_bytes, total_pages) = {
            let r = sim.m.space.region(region);
            (r.page_size().bytes(), r.page_count())
        };
        let per = total_pages / cfg.threads as u64;
        // Parallel initialization: all threads fill their partitions
        // concurrently and the paper's hot set is a *random* subset of
        // objects, so first-touch order — and therefore which pages ended
        // up in DRAM before it filled — is effectively random with respect
        // to any given slice. Faulting in shuffled order gives every page
        // range a proportional share of DRAM residency, matching that.
        let now = sim.now();
        let threads = cfg.threads as u64;
        let hot_pages_per = (cfg.hot_set / threads).div_ceil(page_bytes).min(per);
        let mut order: Vec<u64> = (0..total_pages).collect();
        let mut rng = sim.m.rng.fork(0x47555053); // "GUPS"
        rng.shuffle(&mut order);
        if cfg.hot_first_populate && cfg.hot_set > 0 {
            // Hot slices first: they are touched first and fill DRAM.
            order.sort_by_key(|&idx| {
                let t = (idx / per).min(threads - 1);
                let lo = t * per + (per.saturating_sub(hot_pages_per)) / 3;
                let hi = lo + hot_pages_per;
                u64::from(!(idx >= lo && idx < hi))
            });
        }
        let mut fill_cost = Ns::ZERO;
        for idx in order {
            fill_cost += sim.fault_page(
                hemem_vmm::PageId { region, index: idx },
                true,
                now + fill_cost,
            );
        }
        // Advance past the zero-fill device traffic (the load-from-disk
        // warm-up in the paper); otherwise its bulk backlog stalls every
        // later migration.
        let mut drain = Ns::ZERO;
        for &tier in sim.m.tiers() {
            drain = drain.max(sim.m.tier_bulk_queue_delay(
                now + fill_cost,
                tier,
                hemem_memdev::MemOp::Write,
            ));
        }
        sim.run_until(Ns(now.as_nanos() + fill_cost.as_nanos() + drain.as_nanos()));
        let parts = (0..threads)
            .map(|t| {
                let lo = t * per;
                let hi = if t == threads - 1 {
                    total_pages
                } else {
                    lo + per
                };
                // The paper makes a *random* subset of objects hot; at page
                // granularity we model it as a slice at an arbitrary offset
                // within the partition (contiguity does not matter to any
                // backend: MM scatters by hash, HeMem tracks per page).
                let hot_lo = lo + (per.saturating_sub(hot_pages_per)) / 3;
                let hot_hi = hot_lo + hot_pages_per;
                Partition {
                    lo,
                    hi,
                    hot_lo,
                    hot_hi,
                }
            })
            .collect();
        sim.set_app_threads(cfg.threads);
        Gups {
            cfg,
            region,
            parts,
            page_bytes,
        }
    }

    /// The backing region.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Shifts every thread's hot slice by `shift_bytes` (the Figure 9 /
    /// Figure 12 dynamic hot-set experiment: part of the hot set goes
    /// cold, an equal amount of previously-cold data becomes hot).
    pub fn shift_hot_set(&mut self, shift_bytes: u64) {
        let shift_pages = shift_bytes / self.cfg.threads as u64 / self.page_bytes;
        for p in &mut self.parts {
            let width = p.hot_hi - p.hot_lo;
            p.hot_lo = (p.hot_lo + shift_pages).min(p.hi.saturating_sub(width));
            p.hot_hi = p.hot_lo + width;
        }
    }

    /// Builds power-law segments over one partition: geometric rank bands,
    /// each carrying its integrated Zipf mass (hottest band first).
    fn zipf_segments(&self, lo: u64, hi: u64, theta: f64, all_foot: u64) -> Vec<SegmentAccess> {
        let pages = hi - lo;
        debug_assert!(pages > 0);
        // Integral of r^-theta over a rank band [a, b).
        let mass = |a: f64, b: f64| -> f64 {
            if (theta - 1.0).abs() < 1e-9 {
                (b / a).ln()
            } else {
                (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
            }
        };
        let total = mass(1.0, pages as f64 + 1.0);
        let mut segments = Vec::new();
        let mut band_lo = 0u64;
        let mut width = 1u64;
        while band_lo < pages {
            let band_hi = (band_lo + width).min(pages);
            let w = mass(band_lo as f64 + 1.0, band_hi as f64 + 1.0) / total;
            segments.push(SegmentAccess {
                region: self.region,
                lo_page: lo + band_lo,
                hi_page: lo + band_hi,
                weight: w,
                llc_footprint: all_foot,
                write_fraction: None,
            });
            band_lo = band_hi;
            width *= 4;
        }
        segments
    }

    pub(crate) fn batch_for(&self, tid: u32) -> AccessBatch {
        let p = &self.parts[tid as usize];
        let cfg = &self.cfg;
        // Each update is a read plus a write to the same object.
        let accesses = cfg.batch_ops * 2;
        let mut segments = Vec::with_capacity(3);
        let hot_foot = cfg.hot_set.max(1);
        let all_foot = cfg.working_set;
        if let Some(theta) = cfg.zipf_theta {
            return AccessBatch {
                segments: self.zipf_segments(p.lo, p.hi, theta, all_foot),
                count: accesses,
                object_size: cfg.object_size,
                write_fraction: 0.5,
                pattern: Pattern::Random,
                cpu_ns_per_access: 2.0,
                mlp: 4.0,
                sweep: false,
            };
        }
        if cfg.write_only_bytes > 0 && p.hot_hi > p.hot_lo {
            // Table 2 skew: the hot set splits into a write-only span and a
            // read-hot span (hot traffic divides evenly between them); the
            // remaining 10% of accesses read uniformly over the partition.
            let wo_pages = (cfg.write_only_bytes / cfg.threads as u64 / self.page_bytes)
                .min(p.hot_hi - p.hot_lo)
                .max(1);
            let wo_hi = (p.hot_lo + wo_pages).min(p.hot_hi);
            let segments = vec![
                SegmentAccess {
                    region: self.region,
                    lo_page: p.hot_lo,
                    hi_page: wo_hi,
                    weight: cfg.hot_fraction / 2.0,
                    llc_footprint: cfg.write_only_bytes,
                    write_fraction: Some(1.0),
                },
                SegmentAccess {
                    region: self.region,
                    lo_page: wo_hi,
                    hi_page: p.hot_hi.max(wo_hi + 1).min(p.hi),
                    weight: cfg.hot_fraction / 2.0,
                    llc_footprint: cfg.hot_set,
                    write_fraction: Some(0.0),
                },
                SegmentAccess {
                    region: self.region,
                    lo_page: p.lo,
                    hi_page: p.hi,
                    weight: 1.0 - cfg.hot_fraction,
                    llc_footprint: all_foot,
                    write_fraction: Some(0.0),
                },
            ];
            return AccessBatch {
                segments,
                count: accesses,
                object_size: cfg.object_size,
                write_fraction: cfg.hot_fraction / 2.0,
                pattern: Pattern::Random,
                cpu_ns_per_access: 2.0,
                mlp: 4.0,
                sweep: false,
            };
        }
        if cfg.hot_set > 0 && p.hot_hi > p.hot_lo {
            segments.push(SegmentAccess {
                region: self.region,
                lo_page: p.hot_lo,
                hi_page: p.hot_hi,
                weight: cfg.hot_fraction,
                llc_footprint: hot_foot,
                write_fraction: None,
            });
            segments.push(SegmentAccess {
                region: self.region,
                lo_page: p.lo,
                hi_page: p.hi,
                weight: 1.0 - cfg.hot_fraction,
                llc_footprint: all_foot,
                write_fraction: None,
            });
        } else {
            segments.push(SegmentAccess {
                region: self.region,
                lo_page: p.lo,
                hi_page: p.hi,
                weight: 1.0,
                llc_footprint: all_foot,
                write_fraction: None,
            });
        }
        AccessBatch {
            segments,
            count: accesses,
            object_size: cfg.object_size,
            write_fraction: 0.5,
            pattern: Pattern::Random,
            cpu_ns_per_access: 2.0,
            mlp: 4.0,
            sweep: false,
        }
    }

    /// Runs warm-up then measurement; returns the GUPS metric.
    pub fn run<B: TieredBackend>(&mut self, sim: &mut Sim<B>) -> GupsResult {
        self.run_with_events(sim, &[], |_, _| {})
    }

    /// Runs with scheduled custom events (tag, at); `on_event` fires for
    /// each (e.g. to shift the hot set mid-run). Event times are relative
    /// to the start of the *measurement* phase.
    pub fn run_with_events<B: TieredBackend>(
        &mut self,
        sim: &mut Sim<B>,
        events: &[(u64, Ns)],
        mut on_event: impl FnMut(&mut Gups, u64),
    ) -> GupsResult {
        let cfg = self.cfg.clone();
        // One token per thread flows through warm-up and measurement; a
        // thread whose batch completes after `t_end` retires its token.
        for tid in 0..cfg.threads {
            sim.schedule_thread(sim.now(), tid);
        }
        let warm_end = sim.now() + cfg.warmup;
        let t_end = warm_end + cfg.duration;
        for (tag, at) in events {
            sim.schedule_custom(warm_end + *at, *tag);
        }
        let mut pending = vec![0u64; cfg.threads as usize];
        let mut live = cfg.threads;
        let mut updates = 0u64;
        let mut wear0: Option<u64> = None;
        let mut series = RateSeries::new(cfg.rate_window);
        while live > 0 {
            let Some((now, ev)) = sim.step() else { break };
            match ev {
                Event::ThreadReady(tid) => {
                    let t = tid as usize;
                    if now > warm_end {
                        if wear0.is_none() {
                            wear0 = Some(sim.m.nvm_wear_bytes());
                        }
                        if pending[t] > 0 {
                            updates += pending[t];
                            series.add(now.saturating_sub(warm_end), pending[t] as f64);
                        }
                    }
                    pending[t] = 0;
                    if now >= t_end {
                        live -= 1;
                        continue;
                    }
                    let b = self.batch_for(tid);
                    sim.submit_batch(tid, &b);
                    pending[t] = cfg.batch_ops;
                }
                Event::Custom(tag) => on_event(self, tag),
                _ => unreachable!("step only returns workload events"),
            }
        }
        let elapsed = sim.now().saturating_sub(warm_end);
        let secs = elapsed.as_secs_f64().max(1e-9);
        GupsResult {
            gups: updates as f64 / secs / 1e9,
            timeseries: series.finish(elapsed),
            updates,
            nvm_writes: sim.m.nvm_wear_bytes() - wear0.unwrap_or_else(|| sim.m.nvm_wear_bytes()),
        }
    }
}

/// Convenience: set up and run GUPS on a fresh simulation.
pub fn run_gups<B: TieredBackend>(sim: &mut Sim<B>, cfg: GupsConfig) -> GupsResult {
    let mut g = Gups::setup(sim, cfg);
    g.run(sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_core::hemem::{HeMem, HeMemConfig};
    use hemem_core::machine::MachineConfig;
    use hemem_memdev::GIB;

    fn hemem_sim(dram_gib: u64, nvm_gib: u64) -> Sim<HeMem> {
        let mut mc = MachineConfig::small(dram_gib, nvm_gib);
        // Keep per-page sampling dynamics equivalent to the paper's
        // 192 GB testbed (fewer pages at the same access rates would
        // otherwise make every page look proportionally hotter).
        mc.pebs.sample_period *= 192 / dram_gib;
        let hc = HeMemConfig::scaled_for(&mc);
        Sim::new(mc, HeMem::new(hc))
    }

    fn quick(working_set: u64, hot: u64) -> GupsConfig {
        let mut c = GupsConfig::paper(working_set, hot);
        c.threads = 4;
        c.warmup = Ns::secs(2);
        c.duration = Ns::secs(3);
        c
    }

    #[test]
    fn fits_in_dram_runs_at_dram_speed() {
        // Working set below DRAM: no NVM access at all after placement.
        let mut sim = hemem_sim(4, 16);
        let r = run_gups(&mut sim, quick(2 * GIB, 0));
        assert!(r.gups > 0.0);
        let nvm_reads = sim.m.nvm.stats().bytes_read;
        assert_eq!(nvm_reads, 0, "no NVM reads for DRAM-resident set");
    }

    #[test]
    fn hot_set_migrates_into_dram_and_beats_unmanaged() {
        // Working set 4x DRAM, hot set fits in DRAM: HeMem must converge
        // to serving most accesses from DRAM.
        let mut sim = hemem_sim(1, 8);
        let mut cfg = quick(4 * GIB, 512 << 20);
        // At paper-equivalent sampling rates classification takes tens of
        // virtual seconds (the paper warms up for minutes).
        cfg.warmup = Ns::secs(120);
        let mut g = Gups::setup(&mut sim, cfg.clone());
        let res = g.run(&mut sim);
        // After convergence the hot slices must be DRAM-resident.
        let region = sim.m.space.region(g.region());
        let mut hot_dram = 0u64;
        let mut hot_total = 0u64;
        for p in &g.parts {
            hot_dram += region.dram_pages_in(p.hot_lo, p.hot_hi);
            hot_total += p.hot_hi - p.hot_lo;
        }
        let frac = hot_dram as f64 / hot_total as f64;
        assert!(
            frac > 0.8,
            "hot set in DRAM: {frac:.2} ({hot_dram}/{hot_total})"
        );
        assert!(res.gups > 0.0);
    }

    #[test]
    fn uniform_beyond_dram_is_slower_than_in_dram() {
        let mut sim_small = hemem_sim(8, 32);
        let in_dram = run_gups(&mut sim_small, quick(2 * GIB, 0)).gups;
        let mut sim_big = hemem_sim(1, 32);
        let beyond = run_gups(&mut sim_big, quick(8 * GIB, 0)).gups;
        assert!(
            in_dram > 1.5 * beyond,
            "in-DRAM {in_dram} vs beyond-DRAM {beyond}"
        );
    }

    #[test]
    fn dynamic_shift_recovers() {
        let mut sim = hemem_sim(1, 8);
        let mut cfg = quick(4 * GIB, 256 << 20);
        cfg.warmup = Ns::secs(60);
        // Recovery needs several cooling epochs (8 s each) to demote the
        // stale hot set and classify the new one.
        cfg.duration = Ns::secs(60);
        cfg.rate_window = Ns::secs(1);
        let mut g = Gups::setup(&mut sim, cfg);
        let res = g.run_with_events(&mut sim, &[(1, Ns::secs(10))], |g, _| {
            g.shift_hot_set(128 << 20);
        });
        assert!(res.timeseries.len() >= 40);
        // Steady rate at the end must be within 40% of the pre-shift rate.
        let pre = res.timeseries[2].1;
        let post = res.timeseries.last().expect("points").1;
        assert!(post > 0.6 * pre, "pre {pre} post {post}");
    }

    #[test]
    fn timeseries_sums_to_updates() {
        let mut sim = hemem_sim(2, 8);
        let cfg = quick(GIB, 0);
        let mut g = Gups::setup(&mut sim, cfg);
        let res = g.run(&mut sim);
        // Integrate rate over each window's actual span (the final window
        // may be partial).
        let mut prev = Ns::ZERO;
        let mut from_series = 0.0;
        for &(t, rate) in &res.timeseries {
            from_series += rate * (t.saturating_sub(prev)).as_secs_f64();
            prev = t;
        }
        let err = (from_series - res.updates as f64).abs() / res.updates as f64;
        assert!(
            err < 0.05,
            "series {} vs {} updates",
            from_series,
            res.updates
        );
    }
}

#[cfg(test)]
mod zipf_tests {
    use super::*;
    use hemem_core::hemem::{HeMem, HeMemConfig};
    use hemem_core::machine::MachineConfig;
    use hemem_memdev::GIB;

    #[test]
    fn zipf_segments_cover_partition_and_sum_to_one() {
        let mc = MachineConfig::small(2, 8);
        let mut sim = Sim::new(mc.clone(), HeMem::new(HeMemConfig::scaled_for(&mc)));
        let mut cfg = GupsConfig::paper(2 * GIB, 0);
        cfg.threads = 2;
        cfg.zipf_theta = Some(0.99);
        let g = Gups::setup(&mut sim, cfg);
        let b = g.batch_for(0);
        assert!(b.segments.len() > 3, "several rank bands");
        let total: f64 = b.segments.iter().map(|s| s.weight).sum();
        assert!((total - 1.0).abs() < 1e-6, "weights sum to {total}");
        // Coverage: contiguous, starting at the partition start.
        for w in b.segments.windows(2) {
            assert_eq!(w[0].hi_page, w[1].lo_page);
        }
        assert_eq!(b.segments[0].lo_page, g.parts[0].lo);
        assert_eq!(b.segments.last().expect("bands").hi_page, g.parts[0].hi);
        // Skew: the first band (1 page) carries far more than uniform share.
        let first = &b.segments[0];
        let uniform =
            (first.hi_page - first.lo_page) as f64 / (g.parts[0].hi - g.parts[0].lo) as f64;
        assert!(
            first.weight > 20.0 * uniform,
            "head weight {}",
            first.weight
        );
    }

    #[test]
    fn zipf_gups_converges_head_pages_to_dram() {
        let mc = MachineConfig::small(1, 8);
        let mut sim = Sim::new(mc.clone(), HeMem::new(HeMemConfig::scaled_for(&mc)));
        let mut cfg = GupsConfig::paper(4 * GIB, 0);
        cfg.threads = 4;
        cfg.zipf_theta = Some(0.99);
        cfg.warmup = Ns::secs(15);
        cfg.duration = Ns::secs(5);
        let mut g = Gups::setup(&mut sim, cfg);
        let res = g.run(&mut sim);
        assert!(res.gups > 0.0);
        // The head band of each partition must be DRAM-resident.
        let region = sim.m.space.region(g.region());
        let mut head_dram = 0;
        let mut head_total = 0;
        for p in &g.parts {
            head_dram += region.dram_pages_in(p.lo, p.lo + 16);
            head_total += 16;
        }
        assert!(
            head_dram * 10 >= head_total * 7,
            "hot head in DRAM: {head_dram}/{head_total}"
        );
    }
}
