//! Tier-3 gate: the N-tier generalization must leave the 2-tier machine
//! byte-identical, and the managed 3-tier policy must beat naive
//! spill-at-allocation under NVM oversubscription.
//!
//! Gates:
//!
//! (a) **2-tier byte-identity** — the frozen 2-tier identity leg
//!     ([`hemem_bench::gate::two_tier_identity`]): with every default-off
//!     feature off, a fixed 2-tier GUPS run's stats fingerprint and a
//!     telemetry CSV must match the committed
//!     `results/tierbench_2tier_baseline.txt` /
//!     `results/tierbench_2tier_telemetry.csv`. Any drift in RNG draw
//!     order, event ordering, or counter layout fails the gate.
//! (b) **Managed beats spill** — GUPS at 1.5x (DRAM+NVM)
//!     oversubscription on a 3-tier machine: HeMem with the SSD tier
//!     enabled must deliver strictly more aggregate throughput than the
//!     spill-at-allocation baseline that never migrates.
//! (c) **3-tier determinism** — the managed 3-tier run, repeated with
//!     the same seed, reproduces a byte-identical fingerprint.
//!
//! The gate configurations are fixed (scale, seeds, durations) so the
//! committed baselines stay comparable; CLI flags are accepted for
//! uniformity with the other benches but do not affect the gates.

use hemem_baselines::{AnyBackend, BackendKind};
use hemem_bench::gate::{frozen_args, run_batch, two_tier_identity, Gate};
use hemem_bench::{f3, write_results, ExpArgs, Report};
use hemem_core::backend::AccessBatch;
use hemem_core::hemem::{HeMem, HeMemConfig};
use hemem_core::machine::MachineConfig;
use hemem_core::runtime::Sim;
use hemem_core::telemetry::{Telemetry, TierRows};
use hemem_memdev::GIB;
use hemem_sim::{LatencyClass, Ns};
use hemem_workloads::{run_gups, GupsConfig, GupsResult};

/// The 3-tier gate machine: the gate (a) socket plus a 16 GiB swap
/// device. `seeded_faults` arms the SSD media-error hooks for the
/// replay half of gate (c).
fn three_tier_machine(seeded_faults: bool) -> MachineConfig {
    let mut mc = frozen_args().machine().with_tier3(16 * GIB);
    if seeded_faults {
        mc.chaos.ssd_media_error = 2e-4;
        mc.chaos.ssd_media_wear_scale = 1e-9;
    }
    mc
}

/// The managed 3-tier backend: scaled HeMem with the NVM watermark
/// armed so background demotion cascades NVM -> SSD under pressure.
fn managed_backend(mc: &MachineConfig) -> AnyBackend {
    let mut hc = HeMemConfig::scaled_for(mc);
    hc.nvm_watermark = mc.nvm.capacity / 32;
    AnyBackend::HeMem(HeMem::new(hc))
}

/// GUPS at 1.5x (DRAM+NVM) oversubscription: the managed capacity is
/// 10 GiB, the working set 15 GiB. Access popularity is a steep power
/// law (zipf, theta 2): shuffled first-touch strands about a third of
/// the popular head on the SSD at populate time, which the managed
/// policy must rescue while leaving the cold tail on the device; the
/// spill baseline keeps paying device reads on the head forever. Small
/// batches keep the per-batch footprint below the partition size so the
/// tail really is idle between touches.
fn oversubscribed_gups(mc: &MachineConfig) -> GupsConfig {
    let managed = mc.dram.capacity + mc.nvm.capacity;
    let mut cfg = GupsConfig::paper(managed + managed / 2, mc.dram.capacity / 2);
    cfg.warmup = Ns::secs(2);
    cfg.duration = Ns::secs(2);
    cfg.zipf_theta = Some(2.0);
    cfg.batch_ops = 20_000;
    cfg
}

/// Runs oversubscribed GUPS on the 3-tier machine with the backend
/// `build` makes for it, returning the finished sim plus the workload
/// result.
fn three_tier_run(
    build: fn(&MachineConfig) -> AnyBackend,
    seeded_faults: bool,
) -> (Sim<AnyBackend>, GupsResult) {
    let mc = three_tier_machine(seeded_faults);
    let cfg = oversubscribed_gups(&mc);
    let backend = build(&mc);
    let mut sim = Sim::new(mc, backend);
    let res = run_gups(&mut sim, cfg);
    (sim, res)
}

/// The 3-tier telemetry time series: an oversubscribed region under
/// uniform churn, sampled every 50 ms, recording per-tier residency and
/// the major-fault tail.
fn three_tier_telemetry() -> (Sim<AnyBackend>, String) {
    let mc = three_tier_machine(false);
    let backend = managed_backend(&mc);
    let bytes = (mc.dram.capacity + mc.nvm.capacity) * 3 / 2;
    let mut sim = Sim::new(mc, backend);
    let id = sim.mmap(bytes);
    sim.populate(id, true);
    let pages = sim.m.space.region(id).page_count();
    let mut t = Telemetry::new(TierRows(id), Ns::millis(50));
    for _ in 0..30 {
        t.maybe_sample(&sim);
        let batch = AccessBatch::uniform(id, 0, pages, 20_000, 8, 0.5, bytes);
        run_batch(&mut sim, &batch);
        sim.advance(Ns::millis(50));
    }
    t.maybe_sample(&sim);
    (sim, t.csv())
}

fn main() {
    let _args = ExpArgs::parse(); // accepted for CLI uniformity; gates are fixed
    let mut gate = Gate::new("tierbench");

    // Gate (a): the 2-tier machine is byte-identical to the committed run.
    let (sim2, res2) = two_tier_identity(&mut gate);

    // Gate (c): the managed 3-tier run replays byte-identically, with
    // and without the seeded SSD fault plan.
    let (sim3, res3) = gate.replay("gate (c) managed 3-tier", || {
        three_tier_run(managed_backend, false)
    });
    let (simf, _) = gate.replay("gate (c) seeded-fault 3-tier", || {
        three_tier_run(managed_backend, true)
    });
    println!(
        "gate (c): {} injected media errors in the seeded-fault replay",
        simf.m.chaos.stats().nvm_media_errors
    );

    // Gate (b): the managed 3-tier policy beats spill-at-allocation.
    let (sims, ress) = gate.leg(|| three_tier_run(|mc| BackendKind::Spill3.build(mc), false));
    assert!(
        res3.gups > ress.gups,
        "gate (b) failed: managed 3-tier GUPS {} <= spill-at-allocation {}",
        res3.gups,
        ress.gups
    );
    println!(
        "gate (b): managed 3-tier GUPS {} beats spill-at-allocation {}",
        f3(res3.gups),
        f3(ress.gups)
    );

    let mut rep = Report::new(
        "tierbench",
        "Tier-3: managed N-tier policy vs spill-at-allocation (GUPS)",
        &[
            "config",
            "backend",
            "GUPS",
            "major faults",
            "swap ins",
            "swap outs",
            "migr done",
        ],
    );
    let major = |s: &Sim<AnyBackend>| s.m.trace.hist(LatencyClass::MajorFault).count().to_string();
    for (config, label, s, r) in [
        ("2-tier", "HeMem", &sim2, &res2),
        ("3-tier 1.5x", "HeMem", &sim3, &res3),
        ("3-tier 1.5x", "Spill3", &sims, &ress),
    ] {
        rep.row(&[
            config.to_string(),
            label.to_string(),
            f3(r.gups),
            major(s),
            s.m.stats.swap_ins.to_string(),
            s.m.stats.swap_outs.to_string(),
            s.m.stats.migrations_done.to_string(),
        ]);
    }
    rep.emit();

    let (_, csv3) = gate.leg(three_tier_telemetry);
    write_results("tierbench_telemetry.csv", &csv3, "3-tier telemetry");
    gate.finish();
}
