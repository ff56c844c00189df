//! `fleet_churn`: fleetbench's pooled open-loop scenario scaled to 8,192
//! offered arrivals, run by the library driver or by its instrumented
//! twin.

use std::time::Instant;

use hemem_core::arbiter::ArbiterPolicy;
use hemem_core::backend::{AccessBatch, SegmentAccess};
use hemem_core::hemem::{HeMem, HeMemConfig};
use hemem_core::machine::{MachineConfig, MachineCore};
use hemem_core::runtime::{Event, Sim};
use hemem_core::spawn_cost_ns;
use hemem_memdev::{Pattern, GIB};
use hemem_sim::{Histogram, LatencyClass, Ns, Rng};
use hemem_vmm::{RegionId, TenantId};
use hemem_workloads::{run_fleet, FleetConfig, FleetResult, LifetimeOutcome};

use crate::outcome::{fnv1a, setup, Mark, Outcome, FNV_OFFSET};
use crate::prof::{timed, Layer, Profile, Timed};

/// The fleet workload: machine, slot pool and arrival process.
pub struct Shape {
    mc: MachineConfig,
    cfg: FleetConfig,
    slots: usize,
    slot_pages: u64,
}

impl Shape {
    /// 32 slots on a 1 + 1 GiB socket with a 32 GiB SSD tier; 8,192
    /// Poisson arrivals at 400/s with Pareto(1.3) lifetimes, each a
    /// 64 MiB instance with a 16 MiB hot set. `smoke` runs 48 arrivals
    /// over 8 slots.
    pub fn new(smoke: bool, seed: u64) -> Shape {
        let mut mc = MachineConfig::small(1, 1).with_tier3(32 * GIB);
        mc.pebs.sample_period *= 96;
        mc.seed = seed;
        let (arrivals, slots, slot_pages) = if smoke { (48, 8, 64) } else { (8192, 32, 4096) };
        let mut cfg = FleetConfig::gate(arrivals);
        cfg.seed = seed;
        cfg.working_set = 64 << 20;
        cfg.hot_set = 16 << 20;
        cfg.batch_ops = 5_000;
        cfg.slot_pages = slot_pages;
        Shape {
            mc,
            cfg,
            slots,
            slot_pages,
        }
    }

    fn backend(&self) -> HeMem {
        let hc = HeMemConfig::scaled_for(&self.mc);
        let mut h = HeMem::churn(hc, self.slots, ArbiterPolicy::GreedyMissRatio);
        h.set_slot_pages(self.slot_pages);
        h
    }

    /// One round of the library driver, `run_fleet`.
    pub fn run(&self) -> Outcome {
        let (mut sim, setup_s) = setup(|| Sim::new(self.mc.clone(), self.backend()));
        let mark = Mark::after_setup(setup_s, &sim);
        let res = run_fleet(&mut sim, &self.cfg);
        let run_s = mark.run_s();
        let violations = sim.run_audit(false);
        let out = mark.finish(&sim, run_s, res.ops_per_sec() / 1e6, &res, violations);
        self.checked(out, &res, &sim.m, &sim.backend)
    }

    /// One round of the twin over [`Timed`], recording into `prof`.
    pub fn traced(&self, mut prof: Profile) -> (Outcome, Profile) {
        prof.enter(Layer::Driver);
        let t0 = Instant::now();
        let mut sim = Sim::new(self.mc.clone(), Timed::new(self.backend(), prof));
        let mark = Mark::after_setup(t0.elapsed().as_secs_f64(), &sim);
        let res = twin(&mut sim, &self.cfg);
        let run_s = mark.run_s();
        let violations = timed(&mut sim, Layer::Audit, |s| s.run_audit(false));
        let out = mark.finish(&sim, run_s, res.ops_per_sec() / 1e6, &res, violations);
        let out = self.checked(out, &res, &sim.m, &sim.backend.inner);
        sim.backend.prof.exit();
        (out, std::mem::take(&mut sim.backend.prof))
    }

    /// Adds the fleet's own checks and results: every arrival admitted
    /// or shed, and every retired slot drained.
    fn checked(&self, mut out: Outcome, res: &FleetResult, m: &MachineCore, h: &HeMem) -> Outcome {
        if res.admitted + res.shed != res.offered {
            out.failures.push(format!(
                "{} admitted + {} shed != {} offered",
                res.admitted, res.shed, res.offered
            ));
        }
        for t in (0..self.slots as u32).map(TenantId) {
            if h.tenant_is_retired(t) {
                out.failures.extend(drain_failure(m, h, t));
            }
        }
        let major = m.trace.hist(LatencyClass::MajorFault);
        out.info.extend([
            (
                "sim_major_fault_p99_us",
                major.quantile(0.99) as f64 / 1e3,
                "sim_us",
            ),
            ("sim_major_fault_samples", major.count() as f64, "count"),
            ("fleet_offered", res.offered as f64, "count"),
            ("fleet_admitted", res.admitted as f64, "count"),
            (
                "fleet_shed_frac",
                res.shed as f64 / res.offered as f64,
                "ratio",
            ),
        ]);
        out
    }
}

/// The checks `hemem_bench::assert_tenant_drained` makes of a retired
/// tenant, reported instead of asserted: `t` holds no frame on any tier
/// and is dead to the arbiter with zero quota.
fn drain_failure(m: &MachineCore, h: &HeMem, t: TenantId) -> Option<String> {
    let tf = m.space.tenant_frames(t);
    let frames = tf.dram_pages + tf.nvm_pages + tf.ssd_pages;
    let quota = h.arbiter().map(|a| (a.is_live(t), a.quota_pages(t)));
    if frames == 0 && quota == Some((false, 0)) {
        None
    } else {
        Some(format!(
            "{t} retired with {frames} frames, arbiter (live, quota) {quota:?}"
        ))
    }
}

/// One pre-generated arrival.
struct Planned {
    at: Ns,
    lifetime: Ns,
}

/// Per-admitted-instance twin state.
struct Instance {
    slot: TenantId,
    generation: u32,
    arrival: Ns,
    region: Option<RegionId>,
    total_pages: u64,
    hot_pages: u64,
    first_touch: Option<Ns>,
    ops: u64,
}

/// Mirrors the fleet driver's arrival schedule.
fn schedule(cfg: &FleetConfig) -> Vec<Planned> {
    let mut rng = Rng::new(cfg.seed);
    let mut at = 0u64;
    (0..cfg.arrivals)
        .map(|_| {
            let gap = rng.exponential(1e9 / cfg.arrivals_per_sec).round() as u64;
            at += gap.max(1);
            let u = rng.gen_f64().max(1e-12);
            let life = cfg.lifetime_scale.as_nanos() as f64 * u.powf(-1.0 / cfg.lifetime_alpha);
            let life = (life.round() as u64).min(cfg.lifetime_cap.as_nanos());
            Planned {
                at: Ns(at),
                lifetime: Ns(life.max(1)),
            }
        })
        .collect()
}

/// Mirrors the fleet driver's per-instance batch.
fn batch_for(inst: &Instance, cfg: &FleetConfig) -> AccessBatch {
    let region = inst.region.expect("batch after start");
    let all = |weight| SegmentAccess {
        region,
        lo_page: 0,
        hi_page: inst.total_pages,
        weight,
        llc_footprint: cfg.working_set,
        write_fraction: None,
    };
    let segments = if cfg.hot_set > 0 && inst.hot_pages > 0 {
        let hot_lo = (inst.total_pages - inst.hot_pages) / 3;
        vec![
            SegmentAccess {
                region,
                lo_page: hot_lo,
                hi_page: hot_lo + inst.hot_pages,
                weight: 0.9,
                llc_footprint: cfg.hot_set.max(1),
                write_fraction: None,
            },
            all(0.1),
        ]
    } else {
        vec![all(1.0)]
    };
    AccessBatch {
        segments,
        count: cfg.batch_ops * 2,
        object_size: 8,
        write_fraction: cfg.write_fraction,
        pattern: Pattern::Random,
        cpu_ns_per_access: 2.0,
        mlp: 4.0,
        sweep: false,
    }
}

const KIND_ARRIVAL: u64 = 0;
const KIND_START: u64 = 1;
const KIND_DEPART: u64 = 2;

/// The twin of `run_fleet`: the same schedule, admissions, stream hash
/// and event loop, with each runtime and admission call inside a span.
fn twin(sim: &mut Sim<Timed<HeMem>>, cfg: &FleetConfig) -> FleetResult {
    assert!(cfg.arrivals > 0, "need at least one arrival");
    let plan = schedule(cfg);
    let mut fingerprint = FNV_OFFSET;
    let mut op_count = 0usize;
    for (k, p) in plan.iter().enumerate() {
        sim.schedule_custom(p.at, ((k as u64) << 2) | KIND_ARRIVAL);
        op_count += 1;
    }
    let mut instances: Vec<Instance> = Vec::new();
    let mut occupant: Vec<Option<usize>> = vec![None; sim.backend.inner.slot_pool().len()];
    let mut shed = 0u64;
    let mut live_threads = 0u32;
    let mut end = Ns::ZERO;

    while live_threads > 0 || op_count > 0 {
        let Some((now, ev)) = timed(sim, Layer::Step, |s| s.step()) else {
            break;
        };
        sim.backend.prof.events += 1;
        end = end.max(now);
        match ev {
            Event::Custom(tag) => {
                op_count -= 1;
                let idx = (tag >> 2) as usize;
                match tag & 3 {
                    KIND_ARRIVAL => {
                        let Some(t) = sim.backend.inner.slot_pool().next_free() else {
                            shed += 1;
                            fnv1a(&mut fingerprint, format!("shed|{idx}").as_bytes());
                            continue;
                        };
                        sim.backend.prof.enter(Layer::AdmitTenant);
                        let admitted = sim.backend.inner.admit_tenant(&mut sim.m, t, now);
                        sim.backend.prof.exit();
                        if admitted.is_err() {
                            shed += 1;
                            fnv1a(&mut fingerprint, format!("shed|{idx}").as_bytes());
                            continue;
                        }
                        let a = instances.len();
                        let generation = sim.m.space.tenant_generation(t);
                        instances.push(Instance {
                            slot: t,
                            generation,
                            arrival: now,
                            region: None,
                            total_pages: 0,
                            hot_pages: 0,
                            first_touch: None,
                            ops: 0,
                        });
                        occupant[t.0 as usize] = Some(a);
                        fnv1a(
                            &mut fingerprint,
                            format!("admit|{idx}|{a}|{}|{generation}", t.0).as_bytes(),
                        );
                        let cost = spawn_cost_ns(cfg.charge_pooled_cost, cfg.slot_pages);
                        sim.schedule_custom(
                            Ns(now.as_nanos() + cost),
                            ((a as u64) << 2) | KIND_START,
                        );
                        sim.schedule_custom(
                            Ns(now.as_nanos() + cost + plan[idx].lifetime.as_nanos()),
                            ((a as u64) << 2) | KIND_DEPART,
                        );
                        op_count += 2;
                    }
                    KIND_START => {
                        let inst = &mut instances[idx];
                        sim.set_active_tenant(inst.slot);
                        let region = sim.mmap(cfg.working_set);
                        let (page_bytes, total_pages) = {
                            let r = sim.m.space.region(region);
                            (r.page_size().bytes(), r.page_count())
                        };
                        inst.region = Some(region);
                        inst.total_pages = total_pages;
                        inst.hot_pages = cfg.hot_set.div_ceil(page_bytes).min(total_pages);
                        sim.schedule_thread(now, idx as u32);
                        live_threads += 1;
                        sim.set_app_threads(live_threads);
                    }
                    KIND_DEPART => {
                        let inst = &instances[idx];
                        if occupant[inst.slot.0 as usize] == Some(idx)
                            && sim.backend.inner.tenant_is_live(inst.slot)
                        {
                            sim.inject_tenant_kill(inst.slot);
                        }
                    }
                    _ => unreachable!("two-bit kind"),
                }
            }
            Event::ThreadReady(tid) => {
                let idx = tid as usize;
                let inst = &mut instances[idx];
                if inst.first_touch.is_none() {
                    inst.first_touch = Some(Ns(now.as_nanos() - inst.arrival.as_nanos()));
                }
                if occupant[inst.slot.0 as usize] != Some(idx)
                    || !sim.backend.inner.tenant_is_live(inst.slot)
                {
                    live_threads -= 1;
                    sim.set_app_threads(live_threads.max(1));
                    continue;
                }
                let b = batch_for(inst, cfg);
                fnv1a(&mut fingerprint, format!("{idx}|{b:?}").as_bytes());
                timed(sim, Layer::SubmitBatch, |s| s.submit_batch(tid, &b));
                instances[idx].ops += cfg.batch_ops;
            }
            _ => unreachable!("step only returns workload events"),
        }
    }
    timed(sim, Layer::Step, |s| {
        s.run_until(Ns(end.as_nanos() + Ns::millis(100).as_nanos()))
    });

    let mut spawn_hist = Histogram::new();
    let lifetimes: Vec<LifetimeOutcome> = instances
        .iter()
        .map(|inst| {
            let first = inst.first_touch.unwrap_or(Ns::ZERO);
            if inst.first_touch.is_some() {
                spawn_hist.record_ns(first);
            }
            let hist = sim
                .m
                .tenant_major_faults
                .get(&(inst.slot.0, inst.generation));
            LifetimeOutcome {
                slot: inst.slot,
                generation: inst.generation,
                arrival: inst.arrival,
                spawn_to_first_touch: first,
                ops: inst.ops,
                major_faults: hist.map_or(0, |h| h.count()),
                major_p99_ns: hist.map_or(0, |h| h.quantile(0.99)),
            }
        })
        .collect();
    let admitted = lifetimes.len() as u64;
    let total_ops = lifetimes.iter().map(|l| l.ops).sum();
    FleetResult {
        offered: cfg.arrivals,
        admitted,
        shed,
        total_ops,
        end,
        fingerprint,
        spawn_hist,
        lifetimes,
    }
}
