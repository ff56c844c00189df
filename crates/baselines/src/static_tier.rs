//! Static-placement baselines: X-Mem emulation, DRAM-only, NVM-only.
//!
//! X-Mem (Dulloor et al., EuroSys'16) profiles applications offline and
//! statically places large, randomly-accessed heap structures in NVM and
//! small/hot ones in DRAM. The paper emulates it by directing large
//! allocations to the NVM DAX file (§5.1: "To run GUPS in NVM, we modify
//! mmap to map memory from the NVM DAX file. This configuration emulates
//! X-Mem"). `DramOnly`/`NvmOnly` pin *all* placements to one tier and are
//! used for the "DRAM"/"NVM" reference curves.

use hemem_core::backend::{TickOutput, TieredBackend};
use hemem_core::machine::MachineCore;
use hemem_sim::Ns;
use hemem_vmm::{PageId, RegionId, Tier};

/// Where a static backend sends large allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticPolicy {
    /// Large heap structures to NVM, small allocations to DRAM (X-Mem).
    XMem,
    /// Everything in DRAM (reference upper bound).
    DramOnly,
    /// Everything in NVM (reference lower bound).
    NvmOnly,
}

/// A backend with fixed placement and no migration.
pub struct StaticTier {
    policy: StaticPolicy,
    /// Size under which X-Mem keeps allocations in DRAM.
    small_threshold: u64,
}

impl StaticTier {
    /// X-Mem emulation: allocations >= 1 GB to NVM.
    pub fn xmem() -> StaticTier {
        StaticTier {
            policy: StaticPolicy::XMem,
            small_threshold: 1 << 30,
        }
    }

    /// X-Mem with a custom large-allocation threshold.
    pub fn xmem_with_threshold(small_threshold: u64) -> StaticTier {
        StaticTier {
            policy: StaticPolicy::XMem,
            small_threshold,
        }
    }

    /// All-DRAM reference.
    pub fn dram_only() -> StaticTier {
        StaticTier {
            policy: StaticPolicy::DramOnly,
            small_threshold: 0,
        }
    }

    /// All-NVM reference.
    pub fn nvm_only() -> StaticTier {
        StaticTier {
            policy: StaticPolicy::NvmOnly,
            small_threshold: 0,
        }
    }

    /// The placement policy.
    pub fn policy(&self) -> StaticPolicy {
        self.policy
    }
}

impl TieredBackend for StaticTier {
    fn name(&self) -> &'static str {
        match self.policy {
            StaticPolicy::XMem => "X-Mem",
            StaticPolicy::DramOnly => "DRAM",
            StaticPolicy::NvmOnly => "NVM",
        }
    }

    fn wants_to_manage(&self, len: u64) -> bool {
        match self.policy {
            StaticPolicy::XMem => len >= self.small_threshold,
            // Reference configurations place everything explicitly.
            StaticPolicy::DramOnly | StaticPolicy::NvmOnly => true,
        }
    }

    fn on_mmap(&mut self, _m: &mut MachineCore, _region: RegionId) {}

    fn on_munmap(&mut self, _m: &mut MachineCore, _region: RegionId) {}

    fn place(&mut self, _m: &mut MachineCore, _page: PageId, _is_write: bool) -> Tier {
        match self.policy {
            StaticPolicy::XMem => Tier::Nvm,
            StaticPolicy::DramOnly => Tier::Dram,
            StaticPolicy::NvmOnly => Tier::Nvm,
        }
    }

    fn placed(&mut self, _m: &mut MachineCore, _page: PageId, _tier: Tier) {}

    fn tick(&mut self, _m: &mut MachineCore, _now: Ns) -> TickOutput {
        TickOutput {
            next_wake: None,
            migrations: Vec::new(),
            cpu_time: Ns::ZERO,
        }
    }

    fn migration_done(&mut self, _m: &mut MachineCore, _page: PageId, _dst: Tier) {
        unreachable!("static backends never migrate");
    }

    fn background_threads(&self) -> u32 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_core::machine::MachineConfig;
    use hemem_core::runtime::Sim;
    use hemem_memdev::GIB;

    #[test]
    fn xmem_places_large_in_nvm_small_in_dram() {
        let mut s = Sim::new(MachineConfig::small(4, 16), StaticTier::xmem());
        let big = s.mmap(2 * GIB);
        s.populate(big, true);
        let r = s.m.space.region(big);
        assert_eq!(r.dram_pages(), 0, "large allocation entirely in NVM");
        assert_eq!(r.mapped_pages(), 1024);
        let small = s.mmap(1 << 20);
        s.populate(small, true);
        let r = s.m.space.region(small);
        assert_eq!(r.kind(), hemem_vmm::RegionKind::SmallAnon);
        assert_eq!(r.dram_pages(), r.mapped_pages(), "small allocation in DRAM");
    }

    #[test]
    fn dram_only_ignores_nvm() {
        let mut s = Sim::new(MachineConfig::small(8, 16), StaticTier::dram_only());
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        assert_eq!(s.m.space.region(id).dram_pages(), 1024);
        assert_eq!(s.m.pool(Tier::Nvm).allocated_pages(), 0);
    }

    #[test]
    fn nvm_only_ignores_dram() {
        let mut s = Sim::new(MachineConfig::small(8, 16), StaticTier::nvm_only());
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        assert_eq!(s.m.space.region(id).dram_pages(), 0);
        assert_eq!(s.m.pool(Tier::Nvm).allocated_pages(), 1024);
    }

    #[test]
    fn no_background_activity() {
        let b = StaticTier::xmem();
        assert_eq!(b.background_threads(), 0);
        assert_eq!(b.name(), "X-Mem");
        assert_eq!(StaticTier::dram_only().name(), "DRAM");
        assert_eq!(StaticTier::nvm_only().name(), "NVM");
    }
}
