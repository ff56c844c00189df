//! Naive three-tier spill-at-allocation baseline.
//!
//! The dumbest possible use of an SSD capacity tier: fill DRAM, then
//! NVM, then spill everything else onto the SSD at allocation time and
//! never move a page again. SSD-resident pages major-fault on every
//! touch and are put straight back (no promotion), so a hot page that
//! happened to arrive late is stuck behind the swap queue forever. The
//! managed N-tier policy must beat this to justify its machinery.

use hemem_core::backend::{TickOutput, TieredBackend};
use hemem_core::machine::MachineCore;
use hemem_sim::Ns;
use hemem_vmm::{PageId, PageState, RegionId, Tier};

/// The spill-at-allocation backend.
pub struct SpillTier3 {
    /// Size under which allocations are forwarded to the kernel (same
    /// threshold HeMem uses, so workloads see identical region kinds).
    small_threshold: u64,
}

impl SpillTier3 {
    /// Spill baseline with HeMem's default 1 GB manage threshold.
    pub fn new() -> SpillTier3 {
        SpillTier3 {
            small_threshold: 1 << 30,
        }
    }

    /// Spill baseline with a custom manage threshold.
    pub fn with_threshold(small_threshold: u64) -> SpillTier3 {
        SpillTier3 { small_threshold }
    }
}

impl Default for SpillTier3 {
    fn default() -> Self {
        SpillTier3::new()
    }
}

impl TieredBackend for SpillTier3 {
    fn name(&self) -> &'static str {
        "Spill3"
    }

    fn wants_to_manage(&self, len: u64) -> bool {
        len >= self.small_threshold
    }

    fn on_mmap(&mut self, _m: &mut MachineCore, _region: RegionId) {}

    fn on_munmap(&mut self, _m: &mut MachineCore, _region: RegionId) {}

    fn place(&mut self, m: &mut MachineCore, page: PageId, _is_write: bool) -> Tier {
        // A page already spilled to the SSD stays there: this baseline
        // never promotes, so every repeat touch pays the major fault.
        if let PageState::Mapped {
            tier: Tier::Ssd, ..
        } = m.space.region(page.region).state(page.index)
        {
            return Tier::Ssd;
        }
        if m.dram_pool.free_pages() > 0 {
            Tier::Dram
        } else if m.nvm_pool.free_pages() > 0 {
            Tier::Nvm
        } else if m.has_ssd() && m.ssd_pool.free_pages() > 0 {
            Tier::Ssd
        } else {
            // Everything full (or no tier-3 device): let the fault path's
            // fallback and direct reclaim sort it out.
            Tier::Nvm
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
        unreachable!("the spill baseline never migrates");
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
    fn fills_dram_then_nvm_then_spills_to_ssd() {
        let mc = MachineConfig::small(1, 2).with_tier3(16 * GIB);
        let mut s = Sim::new(mc, SpillTier3::new());
        let id = s.mmap(4 * GIB); // 1 GiB over DRAM+NVM
        s.populate(id, true);
        let r = s.m.space.region(id);
        assert_eq!(r.mapped_pages(), 2048, "every page mapped somewhere");
        assert_eq!(r.dram_pages(), 512, "DRAM filled first");
        assert_eq!(s.m.nvm_pool.free_pages(), 0, "NVM filled second");
        assert_eq!(r.ssd_pages(), 512, "overflow spilled to the SSD");
    }

    #[test]
    fn ssd_pages_never_promote() {
        let mc = MachineConfig::small(1, 2).with_tier3(16 * GIB);
        let mut s = Sim::new(mc, SpillTier3::new());
        let id = s.mmap(4 * GIB);
        s.populate(id, true);
        let spilled = s.m.space.region(id).ssd_pages();
        assert!(spilled > 0);
        // Touch the whole region repeatedly; the spilled set must not
        // shrink (no promotion path in this baseline).
        let batch =
            hemem_core::backend::AccessBatch::uniform(id, 0, 2048, 500_000, 8, 0.2, 4 * GIB);
        for _ in 0..3 {
            s.submit_batch(0, &batch);
            loop {
                match s.step() {
                    Some((_, hemem_core::runtime::Event::ThreadReady(_))) | None => break,
                    Some(_) => {}
                }
            }
        }
        assert_eq!(s.m.space.region(id).ssd_pages(), spilled);
        assert!(s.m.stats.swap_ins == 0, "no page ever promoted back");
    }

    #[test]
    fn without_tier3_behaves_like_dram_then_nvm() {
        let mut s = Sim::new(MachineConfig::small(1, 4), SpillTier3::new());
        let id = s.mmap(2 * GIB);
        s.populate(id, true);
        let r = s.m.space.region(id);
        assert_eq!(r.dram_pages(), 512);
        assert_eq!(r.mapped_pages(), 1024);
        assert_eq!(r.ssd_pages(), 0);
    }
}
