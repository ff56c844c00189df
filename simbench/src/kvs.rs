//! `kvs_700g`: FlexKVS at the paper's largest store, run by the library
//! driver or by its instrumented twin.

use std::time::Instant;

use hemem_core::backend::{AccessBatch, SegmentAccess};
use hemem_core::hemem::{HeMem, HeMemConfig};
use hemem_core::machine::MachineConfig;
use hemem_core::runtime::{Event, Sim};
use hemem_memdev::{MemOp, Pattern, GIB};
use hemem_sim::{Histogram, Ns};
use hemem_vmm::{PageId, PageState, RegionId, Tier};
use hemem_workloads::{Kvs, KvsConfig, KvsResult, TierRho};

use crate::outcome::{setup, Mark, Outcome};
use crate::prof::{timed, Layer, Profile, Timed};

/// The KVS workload: machine and driver config.
pub struct Shape {
    mc: MachineConfig,
    cfg: KvsConfig,
}

impl Shape {
    /// A 700 GiB store of 4 KB values, 90/10 GET/SET, 8 threads, 30 s
    /// warm-up and 120 s measured on the full socket; `smoke` shrinks it
    /// to a 4 GiB store on a 1 + 8 GiB machine.
    pub fn new(smoke: bool, seed: u64) -> Shape {
        let (mut mc, mut cfg) = if smoke {
            let mut cfg = KvsConfig::paper(4 * GIB);
            cfg.threads = 4;
            (MachineConfig::small(1, 8), cfg)
        } else {
            (MachineConfig::paper_testbed(), KvsConfig::paper(700 * GIB))
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
        cfg.duration = secs(120);
        Shape { mc, cfg }
    }

    fn backend(&self) -> HeMem {
        HeMem::new(HeMemConfig::scaled_for(&self.mc))
    }

    /// One round of the library driver: `Kvs::setup` + `Kvs::run`.
    pub fn run(&self) -> Outcome {
        let ((mut sim, kvs), setup_s) = setup(|| {
            let mut sim = Sim::new(self.mc.clone(), self.backend());
            let kvs = Kvs::setup(&mut sim, self.cfg.clone());
            (sim, kvs)
        });
        let mark = Mark::after_setup(setup_s, &sim);
        let res = kvs.run(&mut sim);
        let run_s = mark.run_s();
        let violations = sim.run_audit(false);
        with_latency(
            mark.finish(&sim, run_s, res.ops_per_sec / 1e6, &res, violations),
            &res,
        )
    }

    /// One round of the twin over [`Timed`], recording into `prof`.
    pub fn traced(&self, mut prof: Profile) -> (Outcome, Profile) {
        prof.enter(Layer::Driver);
        let t0 = Instant::now();
        let mut sim = Sim::new(self.mc.clone(), Timed::new(self.backend(), prof));
        let kvs = Twin::setup(&mut sim, &self.cfg);
        let mark = Mark::after_setup(t0.elapsed().as_secs_f64(), &sim);
        let res = kvs.run(&mut sim);
        let run_s = mark.run_s();
        let violations = timed(&mut sim, Layer::Audit, |s| s.run_audit(false));
        let out = mark.finish(&sim, run_s, res.ops_per_sec / 1e6, &res, violations);
        sim.backend.prof.exit();
        (
            with_latency(out, &res),
            std::mem::take(&mut sim.backend.prof),
        )
    }
}

/// Adds the probes' per-op latency tail to the round's results.
fn with_latency(mut out: Outcome, res: &KvsResult) -> Outcome {
    out.info.extend([
        ("sim_op_p50_us", res.latency_us(0.5), "sim_us"),
        ("sim_op_p99_us", res.latency_us(0.99), "sim_us"),
        ("sim_op_probes", res.latency.count() as f64, "count"),
    ]);
    out
}

type TSim = Sim<Timed<HeMem>>;

/// Mirrors `Sim::populate` (`shuffled = false`) and
/// `Sim::populate_shuffled`: first-touch every unmapped page, yielding
/// to background work every 2048 pages, then drain the fill backlog.
fn populate(sim: &mut TSim, region: RegionId, shuffled: bool) {
    let now = sim.now();
    let pages = sim.m.space.region(region).page_count();
    let mut order: Vec<u64> = (0..pages).collect();
    if shuffled {
        let mut rng = sim.m.rng.fork(0x504f50); // "POP"
        rng.shuffle(&mut order);
    }
    let mut total = Ns::ZERO;
    for (n, index) in order.into_iter().enumerate() {
        if matches!(sim.m.space.region(region).state(index), PageState::Unmapped) {
            let at = now + total;
            total += timed(sim, Layer::FaultPage, |s| {
                s.fault_page(PageId { region, index }, true, at)
            });
        }
        if n % 2048 == 2047 {
            total = catch_up(sim, now, total);
        }
    }
    catch_up(sim, now, total);
}

/// Mirrors the runtime's fill pacing: advance to the fill frontier plus
/// the bulk zero-fill backlog; returns the elapsed fill time.
fn catch_up(sim: &mut TSim, start: Ns, fault_cost: Ns) -> Ns {
    let at = Ns(start.as_nanos() + fault_cost.as_nanos());
    let mut drain = Ns::ZERO;
    for &tier in sim.m.tiers() {
        drain = drain.max(sim.m.tier_bulk_queue_delay(at, tier, MemOp::Write));
    }
    let total = fault_cost + drain;
    timed(sim, Layer::Step, |s| {
        s.run_until(Ns(start.as_nanos() + total.as_nanos()))
    });
    total
}

/// The twin of [`Kvs`]: the same setup, batches, probes and event loop,
/// with each runtime call inside a span.
struct Twin {
    cfg: KvsConfig,
    log: RegionId,
    table: RegionId,
    hot_pages: u64,
    log_pages: u64,
    table_pages: u64,
}

impl Twin {
    /// Mirrors [`Kvs::setup`].
    fn setup(sim: &mut TSim, cfg: &KvsConfig) -> Twin {
        let log = sim.mmap(cfg.working_set);
        let table_bytes = (cfg.working_set / cfg.value_size as u64) * 16;
        let table = sim.mmap(table_bytes.max(1 << 20));
        populate(sim, log, true);
        populate(sim, table, false);
        let log_pages = sim.m.space.region(log).page_count();
        let table_pages = sim.m.space.region(table).page_count();
        let hot_pages = ((log_pages as f64 * cfg.hot_keys) as u64).clamp(1, log_pages);
        Twin {
            cfg: cfg.clone(),
            log,
            table,
            hot_pages,
            log_pages,
            table_pages,
        }
    }

    /// Mirrors `Kvs::value_batch`.
    fn value_batch(&self) -> AccessBatch {
        let cfg = &self.cfg;
        let hot_w = if cfg.hot_keys > 0.0 {
            cfg.hot_traffic
        } else {
            0.0
        };
        let mut segments = Vec::with_capacity(2);
        if hot_w > 0.0 {
            segments.push(SegmentAccess {
                region: self.log,
                lo_page: 0,
                hi_page: self.hot_pages,
                weight: hot_w,
                llc_footprint: (cfg.working_set as f64 * cfg.hot_keys) as u64,
                write_fraction: None,
            });
        }
        segments.push(SegmentAccess {
            region: self.log,
            lo_page: if hot_w > 0.0 { self.hot_pages } else { 0 },
            hi_page: self.log_pages,
            weight: 1.0 - hot_w,
            llc_footprint: cfg.working_set,
            write_fraction: None,
        });
        AccessBatch {
            segments,
            count: cfg.batch_ops,
            object_size: cfg.value_size,
            write_fraction: 1.0 - cfg.get_ratio,
            pattern: Pattern::Random,
            cpu_ns_per_access: 146.0 * cfg.threads as f64 / cfg.load.max(0.05),
            mlp: 2.0,
            sweep: false,
        }
    }

    /// Mirrors `Kvs::table_batch`.
    fn table_batch(&self) -> AccessBatch {
        let cfg = &self.cfg;
        AccessBatch {
            segments: vec![SegmentAccess {
                region: self.table,
                lo_page: 0,
                hi_page: self.table_pages,
                weight: 1.0,
                llc_footprint: self.table_pages * (2 << 20),
                write_fraction: None,
            }],
            count: cfg.batch_ops * 3 / 2,
            object_size: 16,
            write_fraction: 1.0 - cfg.get_ratio,
            pattern: Pattern::Random,
            cpu_ns_per_access: 5.0,
            mlp: 2.0,
            sweep: false,
        }
    }

    /// Mirrors `Kvs::probe_latency`.
    fn probe_latency(&self, sim: &mut TSim, is_get: bool, rho: &TierRho) -> Ns {
        let mut total = Ns::nanos(1_500);
        let table_bytes = self.table_pages * (2 << 20);
        let table_hit = sim.m.llc.hit_fraction(table_bytes);
        total += if sim.m.rng.bernoulli(table_hit) {
            sim.m.llc.hit_latency()
        } else {
            self.tier_latency(sim, self.table, 0, self.table_pages, MemOp::Read, rho)
        };
        let hot = self.cfg.hot_keys > 0.0 && sim.m.rng.bernoulli(self.cfg.hot_traffic);
        let (lo, hi) = if hot {
            (0, self.hot_pages)
        } else {
            (self.hot_pages, self.log_pages)
        };
        let op = if is_get { MemOp::Read } else { MemOp::Write };
        let first = self.tier_latency(sim, self.log, lo, hi, op, rho);
        total += first + Ns::nanos(self.cfg.value_size as u64 / 16);
        total
    }

    /// Mirrors `Kvs::tier_latency`.
    fn tier_latency(
        &self,
        sim: &mut TSim,
        region: RegionId,
        lo: u64,
        hi: u64,
        op: MemOp,
        rho: &TierRho,
    ) -> Ns {
        let r = sim.m.space.region(region);
        let mapped = r.mapped_pages_in(lo, hi).max(1);
        let dram = r.dram_pages_in(lo, hi);
        let (tier, u) = if sim.m.rng.bernoulli(dram as f64 / mapped as f64) {
            (Tier::Dram, rho.dram)
        } else {
            (Tier::Nvm, rho.nvm)
        };
        let service = sim.m.device(tier).latency(op);
        let u = u.min(0.98);
        let jitter = Ns::from_nanos_f64(sim.m.rng.exponential(service.as_nanos() as f64 * 0.3));
        let wait =
            Ns::from_nanos_f64(service.as_nanos() as f64 * u / (1.0 - u)).min(Ns::micros(60));
        service + jitter + wait
    }

    /// Mirrors [`Kvs::run`].
    fn run(&self, sim: &mut TSim) -> KvsResult {
        let cfg = &self.cfg;
        sim.set_app_threads(cfg.threads);
        for tid in 0..cfg.threads {
            sim.schedule_thread(sim.now(), tid);
        }
        let warm_end = sim.now() + cfg.warmup;
        let t_end = warm_end + cfg.duration;
        let mut remaining = vec![1u32; cfg.threads as usize];
        let mut in_round = vec![false; cfg.threads as usize];
        let mut live = cfg.threads;
        let mut ops = 0u64;
        let mut latency = Histogram::new();
        let mut rho = TierRho::default();
        let mut last_busy = (sim.m.dram.stats().busy, sim.m.nvm.stats().busy, sim.now());
        while live > 0 {
            let Some((now, ev)) = timed(sim, Layer::Step, |s| s.step()) else {
                break;
            };
            sim.backend.prof.events += 1;
            let Event::ThreadReady(tid) = ev else {
                continue;
            };
            let t = tid as usize;
            remaining[t] = remaining[t].saturating_sub(1);
            if remaining[t] > 0 {
                continue;
            }
            if in_round[t] && now > warm_end {
                ops += cfg.batch_ops;
            }
            in_round[t] = false;
            rho.refresh(sim, &mut last_busy);
            if now >= t_end {
                live -= 1;
                continue;
            }
            if now > warm_end {
                for _ in 0..cfg.probes_per_batch {
                    let is_get = sim.m.rng.bernoulli(cfg.get_ratio);
                    let l = self.probe_latency(sim, is_get, &rho);
                    latency.record_ns(l);
                }
            }
            let v = self.value_batch();
            let h = self.table_batch();
            timed(sim, Layer::SubmitBatch, |s| s.submit_batch(tid, &v));
            timed(sim, Layer::SubmitBatch, |s| s.submit_batch(tid, &h));
            remaining[t] = 2;
            in_round[t] = true;
        }
        let secs = sim.now().saturating_sub(warm_end).as_secs_f64().max(1e-9);
        KvsResult {
            ops_per_sec: ops as f64 / secs,
            ops,
            latency,
        }
    }
}
