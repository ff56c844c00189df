//! Extension experiment (§3.4 "Swapping"): an NVMe SSD as a third tier.
//!
//! A working set larger than DRAM + NVM combined is impossible for the
//! two-tier configurations; with the SSD tier HeMem demotes the coldest
//! NVM pages onto it (they stay mapped and major-fault back on access)
//! and keeps running. The sweep shows throughput degrading gracefully as
//! the working set outgrows each tier. `swap-outs` counts direct-reclaim
//! demotions onto the SSD and `swap-ins` promotions back off it.

use hemem_bench::{ExpArgs, Report};
use hemem_core::hemem::{HeMem, HeMemConfig};
use hemem_core::runtime::Sim;
use hemem_memdev::GIB;
use hemem_sim::Ns;
use hemem_workloads::{run_gups, GupsConfig};

fn main() {
    let args = ExpArgs::parse();
    let mc_probe = args.machine();
    let dram = mc_probe.dram.capacity / GIB;
    let nvm = mc_probe.nvm.capacity / GIB;
    let mut rep = Report::new(
        "ablate_swap",
        &format!("Three-tier swap (DRAM {dram} GiB + NVM {nvm} GiB + NVMe SSD tier)"),
        &["WSS (GiB)", "GUPS", "swap-outs", "swap-ins", "pages on SSD"],
    );
    // Sweep across both capacity cliffs: DRAM and DRAM+NVM.
    let sweep = [
        dram / 2,
        dram,
        dram + nvm / 2,
        dram + nvm,
        (dram + nvm) * 5 / 4,
    ];
    for ws in sweep {
        let mc = args.machine().with_tier3(4 * (dram + nvm) * GIB);
        let mut hc = HeMemConfig::scaled_for(&mc);
        hc.nvm_watermark = (nvm * GIB / 64).max(64 << 20);
        let mut sim = Sim::new(mc, HeMem::new(hc));
        let mut cfg = GupsConfig::paper(ws * GIB, (dram * GIB) / 4);
        cfg.warmup = Ns::secs(30);
        cfg.duration = Ns::secs(args.seconds.unwrap_or(8));
        let r = run_gups(&mut sim, cfg);
        let on_ssd: u64 = sim.m.space.regions().map(|reg| reg.ssd_pages()).sum();
        rep.row(&[
            ws.to_string(),
            format!("{:.4}", r.gups),
            sim.m.stats.swap_outs.to_string(),
            sim.m.stats.swap_ins.to_string(),
            on_ssd.to_string(),
        ]);
    }
    rep.emit();
}
