//! Chaos sweep: runs GUPS on HeMem under increasing injected-fault rates
//! and reports the graceful-degradation counters.
//!
//! Faults injected (all seeded and deterministic, see
//! `hemem_sim::faultplan`): DMA submission failures and channel loss,
//! NVM media errors scaling with page wear, PEBS buffer-overflow storms,
//! and fault-handler stalls. The interesting output is not throughput but
//! the reaction counters: DMA retries and thread-copy fallbacks, failed
//! migrations restored to their queues, pages retired to the poisoned
//! list, and the PEBS drop fraction. The final check runs one faulty
//! configuration twice and asserts byte-identical stats — a chaos run is
//! exactly as reproducible as a clean one.

use hemem_baselines::AnyBackend;
use hemem_bench::gate::{hemem_gups, Gate};
use hemem_bench::{f3, fingerprint, ExpArgs, Report};
use hemem_core::runtime::Sim;
use hemem_sim::{FaultPlanConfig, Ns};
use hemem_workloads::{GupsConfig, GupsResult};

/// Master fault rates swept; per-site rates are derived from each.
const RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.5];

/// Derives the per-site fault plan from one master rate.
fn chaos(rate: f64) -> FaultPlanConfig {
    let mut c = FaultPlanConfig::none();
    c.dma_submit_fail = rate;
    c.dma_channel_loss = rate / 5.0;
    c.nvm_media_error = rate / 20.0;
    c.nvm_media_wear_scale = rate / 200.0;
    c.pebs_storm = rate;
    c.fault_thread_stall = rate / 10.0;
    c
}

/// Runs one GUPS configuration under one fault rate.
fn run_one(args: &ExpArgs, workload: &str, rate: f64) -> (Sim<AnyBackend>, GupsResult) {
    let mut mc = args.machine();
    mc.chaos = chaos(rate);
    let mut cfg = GupsConfig::paper(args.gib(256), args.gib(16));
    cfg.warmup = Ns::secs(3);
    cfg.duration = Ns::secs(args.seconds.unwrap_or(8));
    if workload == "zipf" {
        cfg.zipf_theta = Some(0.99);
    }
    hemem_gups(mc, cfg)
}

fn main() {
    let args = ExpArgs::parse();
    let mut gate = Gate::new("chaosbench");
    let mut rep = Report::new(
        "chaosbench",
        "Chaos sweep: GUPS under injected faults (HeMem)",
        &[
            "workload",
            "rate",
            "GUPS",
            "migr done",
            "migr failed",
            "dma retries",
            "dma fallbacks",
            "retired",
            "pebs storms",
            "stalls",
            "pebs drop frac",
        ],
    );
    for workload in ["hot90", "zipf"] {
        for &rate in &RATES {
            let (sim, res) = gate.leg(|| run_one(&args, workload, rate));
            let s = &sim.m.stats;
            let c = sim.m.chaos.stats();
            rep.row(&[
                workload.to_string(),
                f3(rate),
                format!("{:.4}", res.gups),
                s.migrations_done.to_string(),
                s.migrations_failed.to_string(),
                s.dma_retries.to_string(),
                s.dma_fallbacks.to_string(),
                s.pages_retired.to_string(),
                c.pebs_storms.to_string(),
                c.fault_thread_stalls.to_string(),
                f3(sim.m.pebs.stats().drop_fraction()),
            ]);
        }
    }
    rep.emit();

    // Reproducibility gate: one faulty configuration, run twice with the
    // same seed and plan, must produce byte-identical stats.
    let (a, _) = gate.replay("determinism at rate 0.05", || run_one(&args, "hot90", 0.05));
    println!("  {}", fingerprint(&a));
    gate.finish();
}
