//! Page-table scan cost model (Figure 3).
//!
//! Traditional tiered-memory policy scans page tables for accessed/dirty
//! bits. The cost grows linearly in the number of leaf entries — which
//! explodes with base pages — and each entry reference on a deeper table
//! costs a bit more because more interior nodes stream through the cache.
//! Clearing bits additionally forces a TLB shootdown. With terabytes of
//! base-page-mapped memory a single scan takes seconds, which is the
//! scalability wall HeMem's sampling avoids (§2.3).

use hemem_sim::Ns;

use crate::addr::PageSize;

// Leaf costs are fitted so that scanning 1 TB of base pages takes
// ~1.6 s and huge pages ~2.6 ms, matching Figure 3's orders of magnitude.
/// Cost to check one leaf entry on a 4-level table (base pages).
const LEAF_COST_4K: Ns = Ns::nanos(6);
/// Cost per leaf entry at huge-page depth.
const LEAF_COST_2M: Ns = Ns::nanos(5);
/// Cost per leaf entry at giant-page depth.
const LEAF_COST_1G: Ns = Ns::nanos(4);

/// Pure scan time over `capacity_bytes` mapped with pages of `ps`.
pub fn scan_time(capacity_bytes: u64, ps: PageSize) -> Ns {
    let leaf_cost = match ps {
        PageSize::Base4K => LEAF_COST_4K,
        PageSize::Huge2M => LEAF_COST_2M,
        PageSize::Giga1G => LEAF_COST_1G,
    };
    let entries = ps.pages_for(capacity_bytes);
    Ns(leaf_cost.as_nanos().saturating_mul(entries))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TB: u64 = 1 << 40;

    #[test]
    fn terabyte_base_scan_takes_seconds() {
        let t = scan_time(2 * TB, PageSize::Base4K);
        assert!(t >= Ns::secs(3), "2 TB base scan {t}");
        assert!(t < Ns::secs(5));
    }

    #[test]
    fn huge_pages_are_orders_faster() {
        let base = scan_time(TB, PageSize::Base4K);
        let huge = scan_time(TB, PageSize::Huge2M);
        let giga = scan_time(TB, PageSize::Giga1G);
        assert!(base.as_nanos() / huge.as_nanos() > 400, "4K/2M ratio");
        assert!(huge.as_nanos() / giga.as_nanos() > 400, "2M/1G ratio");
    }

    #[test]
    fn small_memory_scans_quickly_at_any_page_size() {
        // Figure 3: below a few tens of GB every page size scans fast.
        for ps in [PageSize::Base4K, PageSize::Huge2M, PageSize::Giga1G] {
            let t = scan_time(16 << 30, ps);
            assert!(t < Ns::millis(30), "{ps:?}: {t}");
        }
    }

    #[test]
    fn scan_scales_linearly() {
        let one = scan_time(TB, PageSize::Base4K);
        let two = scan_time(2 * TB, PageSize::Base4K);
        assert_eq!(two.as_nanos(), 2 * one.as_nanos());
    }
}
