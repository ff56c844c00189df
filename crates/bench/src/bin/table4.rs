//! Table 4: FlexKVS latency with priority — a pinned high-priority
//! instance (16 GB) beside a regular instance (500 GB, uniform access),
//! under HeMem and Memory Mode.
//!
//! Paper shape: HeMem gives the priority instance up to 47% better median
//! and 16% better p99 than MM, with no tangible impact on the regular
//! instance; MM cannot prioritize.

use hemem_baselines::{AnyBackend, BackendKind};
use hemem_bench::{ExpArgs, Report};
use hemem_core::runtime::Event;
use hemem_sim::{Histogram, Ns};
use hemem_workloads::{Kvs, KvsConfig, TierRho};

struct Instance {
    kvs: Kvs,
    latency: Histogram,
    tid_base: u32,
    threads: u32,
}

fn run_pair(args: &ExpArgs, kind: BackendKind) -> (Histogram, Histogram) {
    let mut sim = args.sim(kind);
    // Priority instance: 16 GB hot-skewed store, pinned under HeMem.
    if let AnyBackend::HeMem(h) = &mut sim.backend {
        h.set_priority(true);
    }
    let mut pcfg = KvsConfig::paper(args.gib(16));
    pcfg.threads = 4;
    pcfg.load = 0.5;
    let prio = Kvs::setup(&mut sim, pcfg);
    if let AnyBackend::HeMem(h) = &mut sim.backend {
        h.set_priority(false);
    }
    // Regular instance: 500 GB uniform-access store.
    let mut rcfg = KvsConfig::paper(args.gib(500));
    rcfg.threads = 8;
    rcfg.hot_keys = 0.0; // uniform
    let regular = Kvs::setup(&mut sim, rcfg);

    let warm = Ns::secs(args.seconds.unwrap_or(5));
    let dur = Ns::secs(args.seconds.unwrap_or(5));
    let mut instances = [
        Instance {
            kvs: prio,
            latency: Histogram::new(),
            tid_base: 0,
            threads: 4,
        },
        Instance {
            kvs: regular,
            latency: Histogram::new(),
            tid_base: 4,
            threads: 8,
        },
    ];
    let total_threads: u32 = instances.iter().map(|i| i.threads).sum();
    sim.set_app_threads(total_threads);
    for tid in 0..total_threads {
        sim.schedule_thread(sim.now(), tid);
    }
    let warm_end = sim.now() + warm;
    let t_end = warm_end + dur;
    let mut remaining = vec![1u32; total_threads as usize];
    let mut live = total_threads;
    let mut rho = TierRho::default();
    let mut last = (Ns::ZERO, Ns::ZERO, Ns::ZERO);
    while live > 0 {
        let Some((now, ev)) = sim.step() else { break };
        let Event::ThreadReady(tid) = ev else {
            continue;
        };
        let t = tid as usize;
        remaining[t] = remaining[t].saturating_sub(1);
        if remaining[t] > 0 {
            continue;
        }
        rho.refresh(&sim, &mut last);
        if now >= t_end {
            live -= 1;
            continue;
        }
        let inst = if tid < instances[1].tid_base { 0 } else { 1 };
        if now > warm_end {
            for _ in 0..8 {
                let is_get = sim.m.rng.bernoulli(instances[inst].kvs.config().get_ratio);
                let l = instances[inst].kvs.probe_latency(&mut sim, is_get, &rho);
                instances[inst].latency.record_ns(l);
            }
        }
        let (v, h) = instances[inst].kvs.batches();
        sim.submit_batch(tid, &v);
        sim.submit_batch(tid, &h);
        remaining[t] = 2;
    }
    let [p, r] = instances;
    (p.latency, r.latency)
}

fn main() {
    let args = ExpArgs::parse();
    let mut rep = Report::new(
        "table4",
        "Table 4: FlexKVS latency with priority (us)",
        &[
            "system",
            "prio 50p",
            "prio 99p",
            "prio 99.9p",
            "reg 50p",
            "reg 99p",
            "reg 99.9p",
        ],
    );
    for kind in args.backends_or(&[BackendKind::HeMem, BackendKind::MemoryMode]) {
        let (p, r) = run_pair(&args, kind);
        let q = |h: &Histogram, q: f64| format!("{:.1}", h.quantile(q) as f64 / 1e3);
        rep.row(&[
            kind.label().to_string(),
            q(&p, 0.5),
            q(&p, 0.99),
            q(&p, 0.999),
            q(&r, 0.5),
            q(&r, 0.99),
            q(&r, 0.999),
        ]);
    }
    rep.emit();
}
