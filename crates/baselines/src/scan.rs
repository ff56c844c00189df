//! Page-table scan-and-classify pass shared by the scanning baselines
//! (Nimble and the HeMem-PT variants).
//!
//! The scanner walks every leaf entry of the managed regions, reads the
//! accessed/dirty bits (sampled lazily from each region's
//! [`hemem_vmm::AccessLedger`]), classifies pages hot or cold in the
//! shared [`PageTracker`], clears the bits, and issues the TLB shootdown
//! the clearing requires. Scan *time* is charged at base-page granularity
//! (the kernel walks PTEs), while classification happens at the tracking
//! granularity (huge pages) — this is the §2.3 cost the paper measures in
//! Figure 3.

use std::collections::HashMap;

use hemem_core::hemem::PageTracker;
use hemem_core::machine::MachineCore;
use hemem_memdev::MemOp;
use hemem_sim::Ns;
use hemem_vmm::{scan_time, touched_probability, PageId, PageSize, RegionId, RegionKind};

/// Per-page accessed-bit streaks across scans (Linux-style second-chance:
/// a page joins the active set only after being referenced in `needed`
/// consecutive scans).
pub type ScanStreaks = HashMap<PageId, u8>;

/// Result of one full scan pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanOutcome {
    /// Huge pages classified.
    pub pages_scanned: u64,
    /// Pages marked hot (accessed bit set).
    pub marked_hot: u64,
    /// Pages marked cold.
    pub marked_cold: u64,
    /// Wall-clock cost of the scan (entry walks + shootdown).
    pub scan_time: Ns,
}

/// Scans all managed regions, classifying pages into `tracker`.
///
/// `dirty_priority`: whether dirty bits mark pages write-heavy (HeMem-PT
/// uses them; Nimble's NUMA balancing is blind to write skew — Table 2).
pub fn scan_and_classify(
    m: &mut MachineCore,
    tracker: &mut PageTracker,
    now: Ns,
    dirty_priority: bool,
) -> ScanOutcome {
    scan_and_classify_with(m, tracker, now, dirty_priority, None, 1)
}

/// Like [`scan_and_classify`], with a referenced-streak requirement: a
/// page is marked hot only after its accessed bit was set in `needed`
/// consecutive scans (state kept in `streaks`). `needed = 1` marks on the
/// first set bit (the HeMem-PT variants); Linux NUMA balancing uses 2.
pub fn scan_and_classify_with(
    m: &mut MachineCore,
    tracker: &mut PageTracker,
    now: Ns,
    dirty_priority: bool,
    mut streaks: Option<&mut ScanStreaks>,
    needed: u8,
) -> ScanOutcome {
    let mut out = ScanOutcome::default();
    let ids: Vec<RegionId> = m
        .space
        .regions()
        .filter(|r| r.kind() == RegionKind::ManagedHeap && tracker.tracks(r.id()))
        .map(|r| r.id())
        .collect();
    let mut total_bytes = 0u64;
    for id in ids {
        let region = m.space.region(id);
        let pages = region.page_count();
        let page_bytes = region.page_size().bytes();
        total_bytes += pages * page_bytes;
        // The simulator deposits a batch's access evidence at submission,
        // so a scan may land between deposits and see nothing at all for a
        // region that is actually mid-batch. No evidence is not evidence
        // of idleness: skip classification (and leave streaks intact)
        // until the next deposit arrives. Scan *cost* is still charged.
        if region.ledger.is_empty() {
            continue;
        }
        let segments = region.ledger.segments();
        out.pages_scanned += pages;
        // Pages outside any recorded segment were untouched: cold.
        let classify = |m: &mut MachineCore,
                        tracker: &mut PageTracker,
                        streaks: &mut Option<&mut ScanStreaks>,
                        lo: u64,
                        hi: u64,
                        r_per_page: f64,
                        w_per_page: f64,
                        out: &mut ScanOutcome| {
            for p in lo..hi {
                let page = PageId {
                    region: id,
                    index: p,
                };
                let accessed = m
                    .rng
                    .bernoulli(touched_probability(r_per_page + w_per_page));
                let qualifies = if accessed {
                    match streaks.as_deref_mut() {
                        Some(map) => {
                            let e = map.entry(page).or_insert(0);
                            *e = e.saturating_add(1);
                            *e >= needed
                        }
                        None => true,
                    }
                } else {
                    if let Some(map) = streaks.as_deref_mut() {
                        map.remove(&page);
                    }
                    false
                };
                if qualifies {
                    let dirty = m.rng.bernoulli(touched_probability(w_per_page));
                    tracker.mark_hot(page, dirty_priority && dirty);
                    out.marked_hot += 1;
                } else {
                    tracker.mark_cold(page);
                    out.marked_cold += 1;
                }
            }
        };
        let mut cursor = 0u64;
        for (lo, hi, r, w) in segments {
            let lo = lo.min(pages);
            let hi = hi.min(pages);
            if cursor < lo {
                classify(m, tracker, &mut streaks, cursor, lo, 0.0, 0.0, &mut out);
            }
            classify(m, tracker, &mut streaks, lo, hi, r, w, &mut out);
            cursor = hi.max(cursor);
        }
        if cursor < pages {
            classify(m, tracker, &mut streaks, cursor, pages, 0.0, 0.0, &mut out);
        }
        m.space.region_mut(id).ledger.clear();
    }
    // Cost: walk every base-page PTE of the scanned span, stream the page
    // tables through DRAM, then shoot down the TLB for the bit clears.
    let scan = scan_time(total_bytes, PageSize::Base4K);
    let pte_bytes = PageSize::Base4K.pages_for(total_bytes) * 8;
    m.dram.reserve_bulk(now, MemOp::Read, pte_bytes, None);
    let cores = m.cores.cores();
    let shootdown = m.tlb.shootdown(cores);
    out.scan_time = scan + shootdown;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_core::hemem::TrackerConfig;
    use hemem_core::machine::{MachineConfig, MANAGED_PAGE};
    use hemem_memdev::GIB;
    use hemem_vmm::Tier;

    fn setup(pages: u64) -> (MachineCore, PageTracker, RegionId) {
        let mut m = MachineCore::new(MachineConfig::small(4, 16));
        let ps = MANAGED_PAGE;
        let id = m
            .space
            .mmap(pages * ps.bytes(), ps, RegionKind::ManagedHeap);
        let mut t = PageTracker::new(TrackerConfig::default());
        t.add_region(id, pages);
        for i in 0..pages {
            let phys = m.pool_mut(Tier::Nvm).alloc().expect("space");
            m.space.region_mut(id).map_page(i, Tier::Nvm, phys);
            t.placed(
                PageId {
                    region: id,
                    index: i,
                },
                Tier::Nvm,
            );
        }
        (m, t, id)
    }

    #[test]
    fn hot_segment_marked_hot_cold_rest_cold() {
        let (mut m, mut t, id) = setup(100);
        // Heavy traffic on pages 10..20, nothing elsewhere.
        m.space.region_mut(id).ledger.add(10, 20, 1000.0, 0.0);
        let out = scan_and_classify(&mut m, &mut t, Ns::ZERO, true);
        assert_eq!(out.pages_scanned, 100);
        assert_eq!(out.marked_hot, 10, "lambda=100 per page: all touched");
        assert_eq!(out.marked_cold, 90);
        assert_eq!(t.queue_len(hemem_core::hemem::Queue::NvmHot), 10);
    }

    #[test]
    fn scan_clears_ledger() {
        let (mut m, mut t, id) = setup(10);
        m.space.region_mut(id).ledger.add(0, 10, 100.0, 0.0);
        scan_and_classify(&mut m, &mut t, Ns::ZERO, false);
        assert!(m.space.region(id).ledger.is_empty());
    }

    #[test]
    fn low_rate_interval_marks_probabilistically() {
        let (mut m, mut t, id) = setup(1000);
        // lambda = 0.5 per page: ~39% touched.
        m.space.region_mut(id).ledger.add(0, 1000, 500.0, 0.0);
        let out = scan_and_classify(&mut m, &mut t, Ns::ZERO, false);
        let frac = out.marked_hot as f64 / 1000.0;
        assert!((frac - 0.39).abs() < 0.07, "touched fraction {frac}");
    }

    #[test]
    fn longer_interval_overestimates_hot_set() {
        // The §2.3 pathology end to end: same per-second rate, 10x the
        // interval, far more of memory looks hot.
        let (mut m1, mut t1, id1) = setup(1000);
        m1.space.region_mut(id1).ledger.add(0, 1000, 500.0, 0.0);
        let short = scan_and_classify(&mut m1, &mut t1, Ns::ZERO, false);
        let (mut m2, mut t2, id2) = setup(1000);
        m2.space.region_mut(id2).ledger.add(0, 1000, 5000.0, 0.0);
        let long = scan_and_classify(&mut m2, &mut t2, Ns::ZERO, false);
        assert!(
            long.marked_hot > 2 * short.marked_hot,
            "short {} vs long {}",
            short.marked_hot,
            long.marked_hot
        );
    }

    #[test]
    fn dirty_bits_drive_write_priority_only_when_enabled() {
        let (mut m, mut t, id) = setup(10);
        m.space.region_mut(id).ledger.add(0, 10, 0.0, 1000.0);
        scan_and_classify(&mut m, &mut t, Ns::ZERO, true);
        assert!(t.is_write_heavy(PageId {
            region: id,
            index: 3
        }));
        let (mut m2, mut t2, id2) = setup(10);
        m2.space.region_mut(id2).ledger.add(0, 10, 0.0, 1000.0);
        scan_and_classify(&mut m2, &mut t2, Ns::ZERO, false);
        assert!(!t2.is_write_heavy(PageId {
            region: id2,
            index: 3
        }));
    }

    #[test]
    fn scan_time_scales_with_span_and_includes_shootdown() {
        let (mut m, mut t, _) = setup(512); // 1 GiB
        let out = scan_and_classify(&mut m, &mut t, Ns::ZERO, false);
        // 1 GiB of base pages = 262144 entries * 6 ns ~ 1.6 ms + shootdown.
        let expect = scan_time(512 * (2 << 20), PageSize::Base4K);
        assert!(out.scan_time > expect);
        assert!(out.scan_time < expect + Ns::millis(1));
        assert_eq!(m.tlb.stats().shootdowns, 1);
        let _ = GIB;
    }
}
