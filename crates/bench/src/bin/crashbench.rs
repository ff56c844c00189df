//! Crash sweep: kills the HeMem manager process at seeded instants
//! during a GUPS run and verifies crash recovery end to end.
//!
//! Each row kills the manager at a different point in the run (early,
//! mid-warmup, steady state, and a repeated-kill row). Between the kill
//! and the watchdog's restart the policy cadence is dead: no migrations
//! start or complete, in-flight journal entries go stale, and app
//! faults keep landing kernel-side. Recovery must roll every prepared
//! migration back, rebuild the hot/cold queues from surviving per-page
//! counters, and resume the workload. Every run must (a) recover —
//! the watchdog restarted the manager and it is up at the end, (b)
//! audit clean — page conservation, ledger↔mapping agreement, no
//! double-mapped frames, journal quiescence, and (c) complete — GUPS
//! finished its measurement phase. The final gate reruns one kill
//! configuration and asserts byte-identical stats: a crashed-and-
//! recovered run is exactly as reproducible as a clean one.

use hemem_baselines::{AnyBackend, BackendKind};
use hemem_bench::gate::{hemem_gups, Gate};
use hemem_bench::{f3, fingerprint, write_results, ExpArgs, Report};
use hemem_core::runtime::Sim;
use hemem_core::telemetry::{RegionRows, Telemetry};
use hemem_memdev::GIB;
use hemem_sim::Ns;
use hemem_workloads::{GupsConfig, GupsResult};

/// Kill schedules swept: named fractions of the total run at which the
/// manager dies. The watchdog restarts it each time.
const SCHEDULES: [(&str, &[f64]); 4] = [
    ("early", &[0.05]),
    ("warmup", &[0.2]),
    ("steady", &[0.7]),
    ("repeated", &[0.15, 0.45, 0.75]),
];

/// Runs one GUPS configuration with kills at the given run fractions.
fn run_one(args: &ExpArgs, fractions: &[f64]) -> (Sim<AnyBackend>, GupsResult) {
    let mut cfg = GupsConfig::paper(args.gib(256), args.gib(16));
    cfg.warmup = Ns::secs(2);
    cfg.duration = Ns::secs(args.seconds.unwrap_or(6));
    let total = cfg.warmup.as_nanos() + cfg.duration.as_nanos();
    let mut mc = args.machine();
    mc.chaos.manager_kill_at = fractions
        .iter()
        .map(|f| Ns::from_nanos_f64(total as f64 * f))
        .collect();
    hemem_gups(mc, cfg)
}

fn main() {
    let args = ExpArgs::parse();
    let mut gate = Gate::new("crashbench");
    let mut rep = Report::new(
        "crashbench",
        "Crash sweep: GUPS with seeded manager kills (HeMem)",
        &[
            "schedule",
            "kills",
            "GUPS",
            "journal replays",
            "rollbacks",
            "swap rollbacks",
            "watchdog restarts",
            "audit violations",
            "migr done",
        ],
    );
    for (name, fractions) in SCHEDULES {
        let (mut sim, res) = gate.leg(|| run_one(&args, fractions));
        let violations = sim.run_audit(true);
        let rec = sim.m.recovery;
        // Gate (a): every kill was detected and the manager restarted.
        assert_eq!(
            rec.manager_kills,
            fractions.len() as u64,
            "{name}: every scheduled kill fired"
        );
        assert!(
            rec.watchdog_restarts >= rec.manager_kills,
            "{name}: watchdog restarted the manager after each kill"
        );
        assert!(!sim.manager_down(), "{name}: manager up at end of run");
        // Gate (b): the recovered machine satisfies every invariant.
        assert!(
            violations.is_empty(),
            "{name}: post-run audit clean, got {violations:?}"
        );
        // Gate (c): the workload completed its measurement phase.
        assert!(res.updates > 0, "{name}: GUPS completed");
        rep.row(&[
            name.to_string(),
            rec.manager_kills.to_string(),
            f3(res.gups),
            rec.journal_replays.to_string(),
            rec.journal_rollbacks.to_string(),
            rec.swap_rollbacks.to_string(),
            rec.watchdog_restarts.to_string(),
            rec.audit_violations.to_string(),
            sim.m.stats.migrations_done.to_string(),
        ]);
    }
    rep.emit();

    // Reproducibility gate: the repeated-kill schedule, run twice with
    // the same seed, must produce byte-identical stats.
    let (a, _) = gate.replay("determinism of the repeated-kill schedule", || {
        run_one(&args, SCHEDULES[3].1)
    });
    println!("  {}", fingerprint(&a));

    let (mut sim, csv) = gate.leg(|| telemetry_sample(&args));
    assert!(!sim.manager_down(), "telemetry run recovered");
    assert!(sim.run_audit(true).is_empty(), "telemetry run audits clean");
    write_results("crashbench_telemetry.csv", &csv, "telemetry csv");
    gate.finish();
}

/// The telemetry leg behind `results/crashbench_telemetry.csv`: a
/// DRAM-overcommitted region demoting toward the watermark, with a
/// manager kill landing mid-demotion, sampled every 50 ms. The recovery
/// columns show the kill, the journal rollbacks, and the watchdog
/// restart as step functions in the time series.
fn telemetry_sample(args: &ExpArgs) -> (Sim<AnyBackend>, String) {
    let mut mc = args.machine();
    mc.watchdog = true;
    let backend = BackendKind::HeMem.build(&mc);
    let mut sim = Sim::new(mc, backend);
    let id = sim.mmap(2 * sim.m.cfg.dram.capacity.max(GIB));
    sim.populate(id, true);
    let mut t = Telemetry::new(RegionRows(id), Ns::millis(50));
    for i in 0..60 {
        t.maybe_sample(&sim);
        if i == 20 {
            sim.inject_manager_kill();
        }
        sim.advance(Ns::millis(50));
    }
    t.maybe_sample(&sim);
    (sim, t.csv())
}
