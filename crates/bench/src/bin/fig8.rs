//! Figure 8: HeMem overhead breakdown on GUPS (512 GB working set, 16 GB
//! hot set):
//!
//! - **Opt**: hot set manually placed in DRAM; no scanning, no migration.
//! - **PEBS**: sampling enabled, migration disabled.
//! - **PT Scan**: page-table scanning (with A/D-bit clears and
//!   shootdowns) instead of PEBS, migration disabled.
//! - **PEBS + Migrate**: full HeMem.
//! - **PT Scan + M. Sync**: scan and migrate sequentially on one thread.
//! - **PT Scan + M. Async**: separate scanning thread.
//!
//! Paper shape: PEBS ~= Opt; PT Scan loses ~18%; full HeMem within ~6% of
//! Opt; M. Sync collapses to ~18% of Opt; M. Async ~43% of Opt.

use hemem_baselines::pt_hemem::{HeMemPt, PtMode};
use hemem_baselines::{AnyBackend, StaticTier};
use hemem_bench::{ExpArgs, Report};
use hemem_core::hemem::{HeMem, HeMemConfig};
use hemem_core::runtime::Sim;
use hemem_sim::Ns;
use hemem_workloads::{Gups, GupsConfig};

fn gups_cfg(args: &ExpArgs) -> GupsConfig {
    let mut cfg = GupsConfig::paper(args.gib(512), args.gib(16));
    cfg.warmup = Ns::secs(25);
    cfg.duration = Ns::secs(args.seconds.unwrap_or(5));
    cfg
}

fn run_config(args: &ExpArgs, name: &str) -> f64 {
    let mc = args.machine();
    let hc = HeMemConfig::scaled_for(&mc);
    let mut no_migration = hc.clone();
    no_migration.enable_migration = false;
    let backend = match name {
        "Opt" => AnyBackend::Static(StaticTier::dram_only()),
        "PEBS" => AnyBackend::HeMem(HeMem::new(no_migration)),
        "PT Scan" => AnyBackend::Pt(HeMemPt::new(no_migration, PtMode::Async)),
        "PEBS + Migrate" => AnyBackend::HeMem(HeMem::new(hc.clone())),
        "PT Scan + M. Sync" => AnyBackend::Pt(HeMemPt::new(hc.clone(), PtMode::Sync)),
        "PT Scan + M. Async" => AnyBackend::Pt(HeMemPt::new(hc.clone(), PtMode::Async)),
        _ => unreachable!(),
    };
    let mut sim = Sim::new(mc, backend);
    let mut cfg = gups_cfg(args);
    // Tracking-only configurations start from the ideal placement, as in
    // the paper (they measure tracking overhead, not convergence).
    if matches!(name, "Opt" | "PEBS" | "PT Scan") {
        cfg.hot_first_populate = true;
    }
    let mut g = Gups::setup(&mut sim, cfg);
    g.run(&mut sim).gups
}

fn main() {
    let args = ExpArgs::parse();
    let mut rep = Report::new(
        "fig8",
        "Figure 8: HeMem overhead breakdown (GUPS; 512 GB WSS, 16 GB hot)",
        &["configuration", "GUPS", "vs Opt"],
    );
    let names = [
        "Opt",
        "PEBS",
        "PT Scan",
        "PEBS + Migrate",
        "PT Scan + M. Sync",
        "PT Scan + M. Async",
    ];
    let mut opt = None;
    for name in names {
        let gups = run_config(&args, name);
        let base = *opt.get_or_insert(gups);
        rep.row(&[
            name.to_string(),
            format!("{gups:.4}"),
            format!("{:.2}", gups / base),
        ]);
    }
    rep.emit();
}
