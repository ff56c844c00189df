//! `workbench` — run any workload on any tiered-memory backend with one
//! command, outside the fixed paper-experiment sweeps.
//!
//! ```text
//! workbench gups  --backend hemem --ws-gib 64 --hot-gib 8 --threads 16
//! workbench gups  --backend mm --zipf 0.99 --ws-gib 32
//! workbench silo  --backend nimble --warehouses 400
//! workbench kvs   --backend hemem --ws-gib 48 --load 0.3
//! workbench bc    --backend hemem --graph-scale 25
//! workbench stream --op write --pattern random --threads 4 --device nvm
//! ```
//!
//! Global flags: `--full | --scale N` select the machine size (default
//! 1/8 of the paper's 192 GB + 768 GB socket), `--seed S`, `--seconds T`.

use hemem_baselines::BackendKind;
use hemem_bench::{f3, ExpArgs, Report};
use hemem_memdev::{DeviceConfig, MemOp, Pattern, GIB};
use hemem_sim::Ns;
use hemem_workloads::{
    run_kvs, run_silo, run_stream, Bc, GraphConfig, Gups, GupsConfig, KvsConfig, SiloConfig,
    StreamConfig,
};

fn usage() -> ! {
    eprintln!(
        "usage: workbench <gups|silo|kvs|bc|stream> [options]\n\
         common: --backend <hemem|mm|nimble|xmem|dram|nvm|ptsync|ptasync>\n\
         \x20        --full | --scale N   --seed S   --seconds T   --threads N\n\
         gups:   --ws-gib G --hot-gib G [--zipf THETA] [--write-only-gib G]\n\
         silo:   --warehouses N\n\
         kvs:    --ws-gib G [--load F]\n\
         bc:     --graph-scale S [--iterations N]\n\
         stream: --device <dram|nvm> --op <read|write> --pattern <seq|random> --size B"
    );
    std::process::exit(2)
}

struct Opts {
    backend: BackendKind,
    threads: u32,
    ws_gib: u64,
    hot_gib: u64,
    zipf: Option<f64>,
    write_only_gib: u64,
    warehouses: u32,
    load: f64,
    graph_scale: u32,
    iterations: u32,
    device: String,
    op: MemOp,
    pattern: Pattern,
    size: u64,
    exp: ExpArgs,
}

fn parse(mut raw: Vec<String>) -> (String, Opts) {
    if raw.is_empty() {
        usage();
    }
    let cmd = raw.remove(0);
    let mut o = Opts {
        backend: BackendKind::HeMem,
        threads: 16,
        ws_gib: 32,
        hot_gib: 0,
        zipf: None,
        write_only_gib: 0,
        warehouses: 64,
        load: 1.0,
        graph_scale: 24,
        iterations: 8,
        device: "nvm".into(),
        op: MemOp::Read,
        pattern: Pattern::Random,
        size: 256,
        exp: ExpArgs::default(),
    };
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--backend" => {
                o.backend = BackendKind::parse(&val()).unwrap_or_else(|| usage());
            }
            "--threads" => o.threads = val().parse().unwrap_or_else(|_| usage()),
            "--ws-gib" => o.ws_gib = val().parse().unwrap_or_else(|_| usage()),
            "--hot-gib" => o.hot_gib = val().parse().unwrap_or_else(|_| usage()),
            "--zipf" => o.zipf = Some(val().parse().unwrap_or_else(|_| usage())),
            "--write-only-gib" => o.write_only_gib = val().parse().unwrap_or_else(|_| usage()),
            "--warehouses" => o.warehouses = val().parse().unwrap_or_else(|_| usage()),
            "--load" => o.load = val().parse().unwrap_or_else(|_| usage()),
            "--graph-scale" => o.graph_scale = val().parse().unwrap_or_else(|_| usage()),
            "--iterations" => o.iterations = val().parse().unwrap_or_else(|_| usage()),
            "--device" => o.device = val(),
            "--op" => {
                o.op = match val().as_str() {
                    "read" => MemOp::Read,
                    "write" => MemOp::Write,
                    _ => usage(),
                }
            }
            "--pattern" => {
                o.pattern = match val().as_str() {
                    "seq" | "sequential" => Pattern::Sequential,
                    "random" | "rand" => Pattern::Random,
                    _ => usage(),
                }
            }
            "--size" => o.size = val().parse().unwrap_or_else(|_| usage()),
            "--full" => o.exp.scale = 1,
            "--scale" => o.exp.scale = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => o.exp.seed = val().parse().ok(),
            "--seconds" => o.exp.seconds = val().parse().ok(),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    (cmd, o)
}

fn main() {
    let (cmd, o) = parse(std::env::args().skip(1).collect());
    let secs = o.exp.seconds.unwrap_or(6);
    match cmd.as_str() {
        "gups" => {
            let mut sim = o.exp.sim(o.backend);
            let mut cfg = GupsConfig::paper(o.ws_gib * GIB, o.hot_gib * GIB);
            cfg.threads = o.threads;
            cfg.zipf_theta = o.zipf;
            cfg.write_only_bytes = o.write_only_gib * GIB;
            cfg.warmup = Ns::secs(secs * 3);
            cfg.duration = Ns::secs(secs);
            let mut g = Gups::setup(&mut sim, cfg);
            let r = g.run(&mut sim);
            let mut rep = Report::new(
                "workbench_gups",
                &format!(
                    "GUPS on {} ({} GiB WS, {} GiB hot)",
                    o.backend.label(),
                    o.ws_gib,
                    o.hot_gib
                ),
                &[
                    "GUPS",
                    "updates",
                    "migrations",
                    "NVM written (GiB)",
                    "wp stalls",
                ],
            );
            rep.row(&[
                format!("{:.4}", r.gups),
                r.updates.to_string(),
                sim.m.stats.migrations_done.to_string(),
                f3(r.nvm_writes as f64 / GIB as f64),
                sim.m.stats.wp_stalls.to_string(),
            ]);
            rep.emit();
        }
        "silo" => {
            let mut sim = o.exp.sim(o.backend);
            let mut cfg = SiloConfig::paper(o.warehouses);
            cfg.threads = o.threads;
            cfg.warmup = Ns::secs(secs);
            cfg.duration = Ns::secs(secs);
            let r = run_silo(&mut sim, cfg);
            let mut rep = Report::new(
                "workbench_silo",
                &format!(
                    "Silo TPC-C on {} ({} warehouses)",
                    o.backend.label(),
                    o.warehouses
                ),
                &["txn/s", "txns", "migrations"],
            );
            rep.row(&[
                format!("{:.0}", r.tps),
                r.txns.to_string(),
                sim.m.stats.migrations_done.to_string(),
            ]);
            rep.emit();
        }
        "kvs" => {
            let mut sim = o.exp.sim(o.backend);
            let mut cfg = KvsConfig::paper(o.ws_gib * GIB);
            cfg.threads = o.threads.min(16);
            cfg.load = o.load;
            cfg.warmup = Ns::secs(secs * 2);
            cfg.duration = Ns::secs(secs);
            let r = run_kvs(&mut sim, cfg);
            let mut rep = Report::new(
                "workbench_kvs",
                &format!(
                    "FlexKVS on {} ({} GiB, load {})",
                    o.backend.label(),
                    o.ws_gib,
                    o.load
                ),
                &["Mops/s", "50p (us)", "90p (us)", "99p (us)", "99.9p (us)"],
            );
            rep.row(&[
                format!("{:.3}", r.ops_per_sec / 1e6),
                format!("{:.1}", r.latency_us(0.5)),
                format!("{:.1}", r.latency_us(0.9)),
                format!("{:.1}", r.latency_us(0.99)),
                format!("{:.1}", r.latency_us(0.999)),
            ]);
            rep.emit();
        }
        "bc" => {
            let mut sim = o.exp.sim(o.backend);
            let mut cfg = GraphConfig::paper(o.graph_scale);
            cfg.threads = o.threads;
            cfg.iterations = o.iterations;
            let bc = Bc::setup(&mut sim, cfg);
            sim.advance(Ns::secs(1));
            let r = bc.run(&mut sim);
            let mut rep = Report::new(
                "workbench_bc",
                &format!("BC on {} (2^{} vertices)", o.backend.label(), o.graph_scale),
                &["iteration", "runtime (s)", "NVM written (MiB)"],
            );
            for (i, it) in r.iterations.iter().enumerate() {
                rep.row(&[
                    (i + 1).to_string(),
                    format!("{:.3}", it.runtime.as_secs_f64()),
                    (it.nvm_writes >> 20).to_string(),
                ]);
            }
            rep.emit();
        }
        "stream" => {
            let dev = match o.device.as_str() {
                "dram" => DeviceConfig::ddr4_dram(192 * GIB),
                "nvm" => DeviceConfig::optane_dc(768 * GIB),
                _ => usage(),
            };
            let mut cfg = StreamConfig::paper_default(dev, o.threads, o.op, o.pattern);
            cfg.access_size = o.size;
            let r = run_stream(&cfg);
            let mut rep = Report::new(
                "workbench_stream",
                &format!(
                    "{} {:?} {:?} x{} @ {}B",
                    o.device, o.op, o.pattern, o.threads, o.size
                ),
                &["GB/s", "accesses"],
            );
            rep.row(&[f3(r.gb_per_sec()), r.accesses.to_string()]);
            rep.emit();
        }
        _ => usage(),
    }
}
