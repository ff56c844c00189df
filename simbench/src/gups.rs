//! `gups_shift` and `gups_regions`: the paper's Figure 9 GUPS on the
//! full socket, run by the library driver or by its instrumented twin.

use std::time::Instant;

use hemem_core::backend::{AccessBatch, SegmentAccess};
use hemem_core::hemem::{HeMem, HeMemConfig, RegionConfig};
use hemem_core::machine::MachineConfig;
use hemem_core::runtime::{Event, Sim};
use hemem_memdev::{MemOp, Pattern, GIB};
use hemem_sim::{Ns, RateSeries};
use hemem_vmm::{PageId, RegionId};
use hemem_workloads::{Gups, GupsConfig, GupsResult};

use crate::outcome::{setup, Mark, Outcome};
use crate::prof::{timed, Layer, Profile, Timed};

/// A GUPS workload: machine, driver config, and the hot-set shifts.
pub struct Shape {
    mc: MachineConfig,
    cfg: GupsConfig,
    /// `(tag, at)` shift events, relative to the end of warm-up.
    shifts: Vec<(u64, Ns)>,
    shift_bytes: u64,
    regions: bool,
}

impl Shape {
    /// 512 GiB working set with a 64 GiB hot set on the full socket,
    /// shifted wholesale at +100 s and +200 s of a 300 s window; `smoke`
    /// shrinks it to a 1 + 4 GiB machine. `regions` turns on
    /// multi-grained region tracking.
    pub fn new(smoke: bool, regions: bool, seed: u64) -> Shape {
        let (mut mc, mut cfg) = if smoke {
            let mut mc = MachineConfig::small(1, 4);
            mc.pebs.sample_period *= 192;
            let mut cfg = GupsConfig::paper(2 * GIB, 256 << 20);
            cfg.threads = 4;
            (mc, cfg)
        } else {
            (
                MachineConfig::paper_testbed(),
                GupsConfig::paper(512 * GIB, 64 * GIB),
            )
        };
        mc.seed = seed;
        let secs = |s: u64| {
            if smoke {
                Ns::millis(10 * s)
            } else {
                Ns::secs(s)
            }
        };
        cfg.warmup = secs(30);
        cfg.duration = secs(300);
        Shape {
            mc,
            shift_bytes: cfg.hot_set,
            cfg,
            shifts: vec![(1, secs(100)), (2, secs(200))],
            regions,
        }
    }

    fn backend(&self) -> HeMem {
        let mut hc = HeMemConfig::scaled_for(&self.mc);
        if self.regions {
            hc.tracker.regions = RegionConfig::multi_grain();
        }
        HeMem::new(hc)
    }

    /// One round of the library driver: `Gups::setup` + `run_with_events`.
    pub fn run(&self) -> Outcome {
        let ((mut sim, mut g), setup_s) = setup(|| {
            let mut sim = Sim::new(self.mc.clone(), self.backend());
            let g = Gups::setup(&mut sim, self.cfg.clone());
            (sim, g)
        });
        let mark = Mark::after_setup(setup_s, &sim);
        let shift = self.shift_bytes;
        let res = g.run_with_events(&mut sim, &self.shifts, |g, _| g.shift_hot_set(shift));
        let run_s = mark.run_s();
        let violations = sim.run_audit(false);
        mark.finish(&sim, run_s, res.gups * 1e3, &res, violations)
    }

    /// One round of the twin over [`Timed`], recording into `prof`.
    pub fn traced(&self, mut prof: Profile) -> (Outcome, Profile) {
        prof.enter(Layer::Driver);
        let t0 = Instant::now();
        let mut sim = Sim::new(self.mc.clone(), Timed::new(self.backend(), prof));
        let mut g = Twin::setup(&mut sim, &self.cfg);
        let mark = Mark::after_setup(t0.elapsed().as_secs_f64(), &sim);
        let res = g.run(&mut sim, &self.shifts, self.shift_bytes);
        let run_s = mark.run_s();
        let violations = timed(&mut sim, Layer::Audit, |s| s.run_audit(false));
        let out = mark.finish(&sim, run_s, res.gups * 1e3, &res, violations);
        sim.backend.prof.exit();
        (out, std::mem::take(&mut sim.backend.prof))
    }
}

/// One thread's partition and current hot slice, in pages.
struct Part {
    lo: u64,
    hi: u64,
    hot_lo: u64,
    hot_hi: u64,
}

/// The twin of [`Gups`]: the same setup, batches and event loop, with
/// each runtime call inside a span. It mirrors the shuffled-fill,
/// hot-set path only (no Zipf, write-skew or hot-first fill).
struct Twin {
    cfg: GupsConfig,
    region: RegionId,
    parts: Vec<Part>,
    page_bytes: u64,
}

type TSim = Sim<Timed<HeMem>>;

impl Twin {
    /// Mirrors [`Gups::setup`].
    fn setup(sim: &mut TSim, cfg: &GupsConfig) -> Twin {
        assert!(
            cfg.zipf_theta.is_none() && cfg.write_only_bytes == 0 && !cfg.hot_first_populate,
            "the GUPS twin mirrors the plain hot-set driver only"
        );
        let region = sim.mmap(cfg.working_set);
        let (page_bytes, total_pages) = {
            let r = sim.m.space.region(region);
            (r.page_size().bytes(), r.page_count())
        };
        let threads = cfg.threads as u64;
        let per = total_pages / threads;
        let now = sim.now();
        let mut order: Vec<u64> = (0..total_pages).collect();
        let mut rng = sim.m.rng.fork(0x47555053); // "GUPS"
        rng.shuffle(&mut order);
        let mut fill_cost = Ns::ZERO;
        for index in order {
            let at = now + fill_cost;
            fill_cost += timed(sim, Layer::FaultPage, |s| {
                s.fault_page(PageId { region, index }, true, at)
            });
        }
        let mut drain = Ns::ZERO;
        for &tier in sim.m.tiers() {
            drain = drain.max(
                sim.m
                    .tier_bulk_queue_delay(now + fill_cost, tier, MemOp::Write),
            );
        }
        let until = Ns(now.as_nanos() + fill_cost.as_nanos() + drain.as_nanos());
        timed(sim, Layer::Step, |s| s.run_until(until));
        let hot_pages_per = (cfg.hot_set / threads).div_ceil(page_bytes).min(per);
        let parts = (0..threads)
            .map(|t| {
                let lo = t * per;
                let hi = if t == threads - 1 {
                    total_pages
                } else {
                    lo + per
                };
                let hot_lo = lo + (per.saturating_sub(hot_pages_per)) / 3;
                Part {
                    lo,
                    hi,
                    hot_lo,
                    hot_hi: hot_lo + hot_pages_per,
                }
            })
            .collect();
        sim.set_app_threads(cfg.threads);
        Twin {
            cfg: cfg.clone(),
            region,
            parts,
            page_bytes,
        }
    }

    /// Mirrors `Gups::shift_hot_set`.
    fn shift_hot_set(&mut self, shift_bytes: u64) {
        let shift_pages = shift_bytes / self.cfg.threads as u64 / self.page_bytes;
        for p in &mut self.parts {
            let width = p.hot_hi - p.hot_lo;
            p.hot_lo = (p.hot_lo + shift_pages).min(p.hi.saturating_sub(width));
            p.hot_hi = p.hot_lo + width;
        }
    }

    /// Mirrors `Gups::batch_for` on the hot-set path.
    fn batch_for(&self, tid: u32) -> AccessBatch {
        let p = &self.parts[tid as usize];
        let cfg = &self.cfg;
        let all = |weight| SegmentAccess {
            region: self.region,
            lo_page: p.lo,
            hi_page: p.hi,
            weight,
            llc_footprint: cfg.working_set,
            write_fraction: None,
        };
        let segments = if cfg.hot_set > 0 && p.hot_hi > p.hot_lo {
            vec![
                SegmentAccess {
                    region: self.region,
                    lo_page: p.hot_lo,
                    hi_page: p.hot_hi,
                    weight: cfg.hot_fraction,
                    llc_footprint: cfg.hot_set.max(1),
                    write_fraction: None,
                },
                all(1.0 - cfg.hot_fraction),
            ]
        } else {
            vec![all(1.0)]
        };
        AccessBatch {
            segments,
            count: cfg.batch_ops * 2,
            object_size: cfg.object_size,
            write_fraction: 0.5,
            pattern: Pattern::Random,
            cpu_ns_per_access: 2.0,
            mlp: 4.0,
            sweep: false,
        }
    }

    /// Mirrors `Gups::run_with_events`, shifting the hot set on every
    /// event.
    fn run(&mut self, sim: &mut TSim, events: &[(u64, Ns)], shift_bytes: u64) -> GupsResult {
        let cfg = self.cfg.clone();
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
            let Some((now, ev)) = timed(sim, Layer::Step, |s| s.step()) else {
                break;
            };
            sim.backend.prof.events += 1;
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
                    timed(sim, Layer::SubmitBatch, |s| s.submit_batch(tid, &b));
                    pending[t] = cfg.batch_ops;
                }
                Event::Custom(_) => self.shift_hot_set(shift_bytes),
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
