//! TLB and page-table-walk cost model.
//!
//! Two costs matter to tiered memory management (§2.3): the page-table
//! walk on a TLB miss (deeper for smaller pages), and the TLB shootdown
//! required whenever mappings change or accessed/dirty bits are cleared —
//! an inter-processor interrupt to every core running the address space,
//! stalling them all.

use hemem_sim::Ns;

use crate::addr::PageSize;

/// Cost of one page-table level reference during a walk.
const WALK_LEVEL_COST: Ns = Ns::nanos(25);
/// Fixed cost of initiating a shootdown (IPI send + local flush).
const SHOOTDOWN_BASE: Ns = Ns::micros(4);
/// Additional shootdown cost per remote core interrupted.
const SHOOTDOWN_PER_CORE: Ns = Ns::micros(1);
/// TLB reach in entries; misses beyond this working set pay walks.
const ENTRIES: u64 = 1536;

/// Cumulative TLB event counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct TlbStats {
    /// Shootdowns issued.
    pub shootdowns: u64,
    /// Total stall time charged for shootdowns.
    pub shootdown_stall: Ns,
}

/// The TLB model.
#[derive(Debug, Clone, Default)]
pub struct Tlb {
    stats: TlbStats,
}

impl Tlb {
    /// Counters.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Cost of a full page-table walk for the given page size.
    pub fn walk_cost(&self, ps: PageSize) -> Ns {
        WALK_LEVEL_COST.scale(ps.walk_levels() as f64)
    }

    /// Fraction of accesses that miss the TLB when randomly touching
    /// `pages` distinct pages.
    pub fn miss_fraction(&self, pages: u64) -> f64 {
        if pages == 0 {
            return 0.0;
        }
        let covered = (ENTRIES as f64 / pages as f64).min(1.0);
        1.0 - covered
    }

    /// Expected translation overhead per access over a working set of
    /// `pages` pages of size `ps`.
    pub fn translation_overhead(&self, pages: u64, ps: PageSize) -> Ns {
        self.walk_cost(ps).scale(self.miss_fraction(pages))
    }

    /// Charges one TLB shootdown covering `cores` cores; returns the stall
    /// each affected core experiences.
    pub fn shootdown(&mut self, cores: u32) -> Ns {
        let stall = SHOOTDOWN_BASE + SHOOTDOWN_PER_CORE.scale(cores.saturating_sub(1) as f64);
        self.stats.shootdowns += 1;
        self.stats.shootdown_stall += stall;
        stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_cost_scales_with_depth() {
        let t = Tlb::default();
        assert!(t.walk_cost(PageSize::Base4K) > t.walk_cost(PageSize::Huge2M));
        assert_eq!(t.walk_cost(PageSize::Base4K), Ns(100));
        assert_eq!(t.walk_cost(PageSize::Giga1G), Ns(50));
    }

    #[test]
    fn miss_fraction_bounds() {
        let t = Tlb::default();
        assert_eq!(t.miss_fraction(0), 0.0);
        assert_eq!(t.miss_fraction(100), 0.0, "working set fits in TLB");
        let f = t.miss_fraction(1536 * 4);
        assert!((f - 0.75).abs() < 1e-12);
    }

    #[test]
    fn huge_pages_reduce_translation_overhead() {
        let t = Tlb::default();
        // 512 GB working set: 134M base pages vs 262K huge pages.
        let base = t.translation_overhead((512u64 << 30) / 4096, PageSize::Base4K);
        let huge = t.translation_overhead((512u64 << 30) >> 21, PageSize::Huge2M);
        assert!(base > huge);
    }

    #[test]
    fn shootdown_accounting() {
        let mut t = Tlb::default();
        let stall = t.shootdown(24);
        assert_eq!(stall, Ns::micros(4) + Ns::micros(23));
        assert_eq!(t.stats().shootdowns, 1);
        let single = t.shootdown(1);
        assert_eq!(single, Ns::micros(4));
        assert_eq!(t.stats().shootdowns, 2);
    }
}
