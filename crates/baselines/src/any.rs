//! Type-erased backend selection for the experiment harness.
//!
//! Experiment binaries run the same workload over many backends; this
//! enum avoids monomorphizing every experiment per backend while keeping
//! `Sim<AnyBackend>` a single concrete type.

use hemem_core::backend::{SegmentAccess, TickOutput, TierSplit, TieredBackend};
use hemem_core::fleet::FleetStats;
use hemem_core::hemem::{HeMem, HeMemConfig};
use hemem_core::machine::{MachineConfig, MachineCore};
use hemem_memdev::Pattern;
use hemem_pebs::SampleRecord;
use hemem_sim::Ns;
use hemem_vmm::{PageId, RegionId, TenantId, Tier};

use crate::memory_mode::MemoryMode;
use crate::nimble::Nimble;
use crate::pt_hemem::{HeMemPt, PtMode};
use crate::spill3::SpillTier3;
use crate::static_tier::StaticTier;

/// Any of the tiered memory managers under evaluation.
pub enum AnyBackend {
    /// HeMem (the paper's system).
    HeMem(HeMem),
    /// Intel Memory Mode.
    Mm(MemoryMode),
    /// Linux Nimble.
    Nimble(Nimble),
    /// HeMem with page-table scanning.
    Pt(HeMemPt),
    /// Static placement (X-Mem / DRAM / NVM).
    Static(StaticTier),
    /// Naive three-tier spill-at-allocation.
    Spill3(SpillTier3),
}

/// Backend selector for experiment configuration files / CLI flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// HeMem with PEBS and DMA (paper configuration).
    HeMem,
    /// HeMem copying with threads instead of DMA (Figure 7's "HeMem-threads").
    HeMemThreads,
    /// Intel Optane Memory Mode.
    MemoryMode,
    /// Linux Nimble.
    Nimble,
    /// X-Mem emulation (large structures statically in NVM).
    XMem,
    /// Everything in DRAM.
    DramOnly,
    /// Everything in NVM.
    NvmOnly,
    /// HeMem with synchronous page-table scanning.
    PtSync,
    /// HeMem with asynchronous page-table scanning.
    PtAsync,
    /// Naive three-tier spill-at-allocation baseline (tierbench).
    Spill3,
}

impl BackendKind {
    /// All kinds, for sweeps.
    pub const ALL: [BackendKind; 10] = [
        BackendKind::HeMem,
        BackendKind::HeMemThreads,
        BackendKind::MemoryMode,
        BackendKind::Nimble,
        BackendKind::XMem,
        BackendKind::DramOnly,
        BackendKind::NvmOnly,
        BackendKind::PtSync,
        BackendKind::PtAsync,
        BackendKind::Spill3,
    ];

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::HeMem => "HeMem",
            BackendKind::HeMemThreads => "HeMem-threads",
            BackendKind::MemoryMode => "MM",
            BackendKind::Nimble => "Nimble",
            BackendKind::XMem => "X-Mem",
            BackendKind::DramOnly => "DRAM",
            BackendKind::NvmOnly => "NVM",
            BackendKind::PtSync => "HeMem-PT-Sync",
            BackendKind::PtAsync => "HeMem-PT-Async",
            BackendKind::Spill3 => "Spill3",
        }
    }

    /// Parses a label (case-insensitive; accepts the forms used on the
    /// experiment CLIs).
    pub fn parse(s: &str) -> Option<BackendKind> {
        let k = s.to_ascii_lowercase();
        Some(match k.as_str() {
            "hemem" => BackendKind::HeMem,
            "hemem-threads" | "hememthreads" => BackendKind::HeMemThreads,
            "mm" | "memorymode" | "memory-mode" => BackendKind::MemoryMode,
            "nimble" => BackendKind::Nimble,
            "xmem" | "x-mem" => BackendKind::XMem,
            "dram" | "dramonly" => BackendKind::DramOnly,
            "nvm" | "nvmonly" => BackendKind::NvmOnly,
            "ptsync" | "hemem-pt-sync" | "pt-sync" => BackendKind::PtSync,
            "ptasync" | "hemem-pt-async" | "pt-async" => BackendKind::PtAsync,
            "spill3" | "spill-3" | "spill" => BackendKind::Spill3,
            _ => return None,
        })
    }

    /// Instantiates the backend, scaled to the machine.
    pub fn build(self, mc: &MachineConfig) -> AnyBackend {
        let cfg = HeMemConfig::scaled_for(mc);
        match self {
            BackendKind::HeMem => AnyBackend::HeMem(HeMem::new(cfg)),
            BackendKind::HeMemThreads => {
                let mut cfg = cfg;
                cfg.policy.use_dma = false;
                AnyBackend::HeMem(HeMem::new(cfg))
            }
            BackendKind::MemoryMode => AnyBackend::Mm(MemoryMode::new(mc.dram.capacity)),
            BackendKind::Nimble => AnyBackend::Nimble(Nimble::paper()),
            BackendKind::XMem => {
                AnyBackend::Static(StaticTier::xmem_with_threshold(cfg.manage_threshold))
            }
            BackendKind::DramOnly => AnyBackend::Static(StaticTier::dram_only()),
            BackendKind::NvmOnly => AnyBackend::Static(StaticTier::nvm_only()),
            BackendKind::PtSync => AnyBackend::Pt(HeMemPt::new(cfg, PtMode::Sync)),
            BackendKind::PtAsync => AnyBackend::Pt(HeMemPt::new(cfg, PtMode::Async)),
            BackendKind::Spill3 => {
                AnyBackend::Spill3(SpillTier3::with_threshold(cfg.manage_threshold))
            }
        }
    }
}

macro_rules! delegate {
    ($self:ident, $b:ident => $e:expr) => {
        match $self {
            AnyBackend::HeMem($b) => $e,
            AnyBackend::Mm($b) => $e,
            AnyBackend::Nimble($b) => $e,
            AnyBackend::Pt($b) => $e,
            AnyBackend::Static($b) => $e,
            AnyBackend::Spill3($b) => $e,
        }
    };
}

impl TieredBackend for AnyBackend {
    fn name(&self) -> &'static str {
        delegate!(self, b => b.name())
    }

    fn wants_to_manage(&self, len: u64) -> bool {
        delegate!(self, b => b.wants_to_manage(len))
    }

    fn on_mmap(&mut self, m: &mut MachineCore, region: RegionId) {
        delegate!(self, b => b.on_mmap(m, region))
    }

    fn on_munmap(&mut self, m: &mut MachineCore, region: RegionId) {
        delegate!(self, b => b.on_munmap(m, region))
    }

    fn place(&mut self, m: &mut MachineCore, page: PageId, is_write: bool) -> Tier {
        delegate!(self, b => b.place(m, page, is_write))
    }

    fn placed(&mut self, m: &mut MachineCore, page: PageId, tier: Tier) {
        delegate!(self, b => b.placed(m, page, tier))
    }

    fn split(
        &mut self,
        m: &mut MachineCore,
        seg: &SegmentAccess,
        object_size: u32,
        pattern: Pattern,
        reads: f64,
        writes: f64,
    ) -> TierSplit {
        delegate!(self, b => b.split(m, seg, object_size, pattern, reads, writes))
    }

    fn uses_pebs(&self) -> bool {
        delegate!(self, b => b.uses_pebs())
    }

    fn on_samples(&mut self, m: &mut MachineCore, samples: &[SampleRecord], now: Ns) {
        delegate!(self, b => b.on_samples(m, samples, now))
    }

    fn tick(&mut self, m: &mut MachineCore, now: Ns) -> TickOutput {
        delegate!(self, b => b.tick(m, now))
    }

    fn migration_done(&mut self, m: &mut MachineCore, page: PageId, dst: Tier) {
        delegate!(self, b => b.migration_done(m, page, dst))
    }

    fn migration_aborted(&mut self, m: &mut MachineCore, page: PageId, current: Tier) {
        delegate!(self, b => b.migration_aborted(m, page, current))
    }

    fn swapped_out(&mut self, m: &mut MachineCore, page: PageId) {
        delegate!(self, b => b.swapped_out(m, page))
    }

    fn background_threads(&self) -> u32 {
        delegate!(self, b => b.background_threads())
    }

    fn reclaim_victim(&mut self, m: &mut MachineCore) -> Option<PageId> {
        delegate!(self, b => b.reclaim_victim(m))
    }

    fn recover(&mut self, m: &mut MachineCore, now: Ns) {
        delegate!(self, b => b.recover(m, now))
    }

    fn audit(&self, m: &MachineCore) -> Vec<hemem_core::audit::AuditViolation> {
        delegate!(self, b => b.audit(m))
    }

    fn tenant_killed(&mut self, m: &mut MachineCore, tenant: TenantId, now: Ns) {
        delegate!(self, b => b.tenant_killed(m, tenant, now))
    }

    fn tenant_drained(&mut self, m: &mut MachineCore, tenant: TenantId, now: Ns) {
        delegate!(self, b => b.tenant_drained(m, tenant, now))
    }

    fn fleet_stats(&self) -> Option<FleetStats> {
        delegate!(self, b => b.fleet_stats())
    }

    fn evacuation_dst(&mut self, m: &mut MachineCore, page: PageId, from: Tier) -> Option<Tier> {
        delegate!(self, b => b.evacuation_dst(m, page, from))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_through_parse() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.label()), Some(kind), "{kind:?}");
        }
        assert_eq!(BackendKind::parse("bogus"), None);
    }

    #[test]
    fn build_produces_matching_backend() {
        let mc = MachineConfig::small(1, 4);
        for kind in BackendKind::ALL {
            let b = kind.build(&mc);
            assert_eq!(b.name(), kind.label(), "{kind:?}");
        }
    }

    #[test]
    fn hemem_threads_variant_uses_copy_threads() {
        let mc = MachineConfig::small(1, 4);
        let b = BackendKind::HeMemThreads.build(&mc);
        assert!(b.background_threads() > BackendKind::HeMem.build(&mc).background_threads());
    }

    /// A seeded tenant kill must reach HeMem through the wrapper: the slot
    /// quarantines and retires exactly as it does under a bare `Sim<HeMem>`.
    #[test]
    fn wrapped_hemem_retires_a_killed_tenant_like_bare_hemem() {
        use hemem_core::runtime::Sim;
        use hemem_sim::TenantKill;

        fn run<B: TieredBackend>(build: impl FnOnce(&MachineConfig) -> B) -> (Sim<B>, String) {
            let mut mc = MachineConfig::small(1, 2);
            mc.chaos.tenant_kill_at = vec![TenantKill {
                tenant: 0,
                at: Ns::millis(600),
            }];
            let backend = build(&mc);
            let mut sim = Sim::new(mc, backend);
            let region = sim.mmap(3 << 30);
            sim.populate(region, true);
            sim.run_until(Ns::secs(2));
            let out = format!("{:?}|{:?}|{:?}", sim.m.stats, sim.m.recovery, sim.now());
            (sim, out)
        }
        let (any, any_out) = run(|mc| BackendKind::HeMem.build(mc));
        let (bare, bare_out) = run(|mc| HeMem::new(HeMemConfig::scaled_for(mc)));
        assert_eq!(bare.m.recovery.tenant_drains, 1);
        assert!(bare.backend.tenant_is_retired(TenantId(0)));
        let AnyBackend::HeMem(hemem) = &any.backend else {
            panic!("BackendKind::HeMem builds HeMem");
        };
        assert!(
            hemem.tenant_is_retired(TenantId(0)),
            "kill never reached HeMem"
        );
        assert_eq!(any_out, bare_out);
    }
}
