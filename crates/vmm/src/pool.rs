//! Physical page pools backed by per-tier DAX files.
//!
//! HeMem allocates both DRAM and NVM through DAX (direct-access) files
//! mapped at process startup (§3.2); the pool hands out fixed-size
//! physical pages from a file and takes them back on free. Allocation is
//! LIFO over a free list, which matches the prototype's FIFO free queues
//! closely enough for placement behaviour (what matters is *whether* a
//! DRAM page is free, not which one).
//!
//! The pool also tracks per-page write wear and supports *retiring* a
//! page: an NVM frame that takes a media error is pulled out of
//! circulation (the poisoned-page list real NVM drivers keep) and never
//! handed out again. `total = free + allocated + retired` always holds.

use crate::addr::{PageSize, Tier};

/// Index of a physical page within its tier's DAX file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysPage(pub u64);

/// A fixed-capacity physical page allocator for one tier.
///
/// The pool is plain durable data (no derived indices), so it is
/// serializable as-is: [`PhysPool::snapshot`] captures a deep copy and
/// [`PhysPool::restore`] adopts one, which is what crash recovery uses.
#[derive(Debug, Clone)]
pub struct PhysPool {
    tier: Tier,
    page_size: PageSize,
    total: u64,
    free: Vec<PhysPage>,
    allocated: u64,
    retired: Vec<PhysPage>,
    wear: Vec<u64>,
    /// Optional wear ceiling: [`PhysPool::note_write`] reports when a
    /// page's cumulative wear reaches it so the caller can retire the
    /// page at the boundary. `None` disables the check.
    retire_threshold: Option<u64>,
    /// Pages shed by a *device-health* retirement (a degraded device's
    /// accelerated wear retiring whole erase blocks), kept separate from
    /// the media-error `retired` list because these come back when the
    /// device is readmitted — media-poisoned pages never do.
    health_retired: Vec<PhysPage>,
    /// Of the `allocated` pages, how many are held as clean shadows
    /// (non-exclusive tiering) rather than by live mappings or journal
    /// entries. Shadows are reclaimable on demand, so this count is
    /// effectively free capacity; it never changes the conservation
    /// identity `total = free + allocated + retired + health_retired`.
    shadow_held: u64,
}

impl PhysPool {
    /// Creates a pool over `capacity_bytes` of tier memory, split into
    /// pages of `page_size`.
    pub fn new(tier: Tier, capacity_bytes: u64, page_size: PageSize) -> PhysPool {
        let total = capacity_bytes / page_size.bytes();
        // Free list initially in address order; pop from the back so the
        // first allocations get the lowest pages (deterministic layout).
        let free = (0..total).rev().map(PhysPage).collect();
        PhysPool {
            tier,
            page_size,
            total,
            free,
            allocated: 0,
            retired: Vec::new(),
            wear: vec![0; total as usize],
            retire_threshold: None,
            health_retired: Vec::new(),
            shadow_held: 0,
        }
    }

    /// The tier this pool allocates from.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Page size of this pool.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Total pages in the pool.
    pub fn total_pages(&self) -> u64 {
        self.total
    }

    /// Currently free pages.
    pub fn free_pages(&self) -> u64 {
        self.free.len() as u64
    }

    /// Currently allocated pages.
    pub fn allocated_pages(&self) -> u64 {
        self.allocated
    }

    /// Free bytes remaining.
    pub fn free_bytes(&self) -> u64 {
        self.free_pages() * self.page_size.bytes()
    }

    /// Allocated pages currently held as clean shadows.
    pub fn shadow_held_pages(&self) -> u64 {
        self.shadow_held
    }

    /// Marks one allocated page as shadow-held (its mapping was just
    /// promoted away and the frame retained as a clean copy).
    pub fn note_shadow(&mut self) {
        debug_assert!(
            self.shadow_held < self.allocated,
            "more shadows than allocated pages"
        );
        self.shadow_held += 1;
    }

    /// Marks one shadow-held page as no longer a shadow (it was freed,
    /// remapped onto, or dirtied away).
    pub fn note_unshadow(&mut self) {
        assert!(self.shadow_held > 0, "unshadow with no shadows held");
        self.shadow_held -= 1;
    }

    /// Allocates one page, or `None` when the tier is exhausted.
    pub fn alloc(&mut self) -> Option<PhysPage> {
        let p = self.free.pop()?;
        self.allocated += 1;
        Some(p)
    }

    /// Returns a page to the pool.
    ///
    /// # Panics
    ///
    /// Panics if the page is out of range or the pool would exceed its
    /// capacity (double free).
    pub fn free(&mut self, page: PhysPage) {
        assert!(page.0 < self.total, "page {page:?} out of range");
        assert!(self.allocated > 0, "free with nothing allocated");
        debug_assert!(!self.free.contains(&page), "double free of {page:?}");
        self.allocated -= 1;
        self.free.push(page);
    }

    /// Records `writes` page-granularity writes of wear on an allocated
    /// page. Returns `true` when a retire threshold is set and the
    /// page's cumulative wear has reached it — true exactly at the
    /// boundary-crossing write, never one write late — so the caller
    /// retires the page at the threshold.
    ///
    /// # Panics
    ///
    /// Panics if the page is out of range.
    pub fn note_write(&mut self, page: PhysPage, writes: u64) -> bool {
        assert!(page.0 < self.total, "page {page:?} out of range");
        let worn = self.wear[page.0 as usize].saturating_add(writes);
        self.wear[page.0 as usize] = worn;
        self.retire_threshold.is_some_and(|t| worn >= t)
    }

    /// Sets or clears the wear ceiling [`PhysPool::note_write`] checks.
    pub fn set_retire_threshold(&mut self, threshold: Option<u64>) {
        self.retire_threshold = threshold;
    }

    /// The configured wear ceiling, if any.
    pub fn retire_threshold(&self) -> Option<u64> {
        self.retire_threshold
    }

    /// Write wear recorded on a page.
    pub fn wear(&self, page: PhysPage) -> u64 {
        assert!(page.0 < self.total, "page {page:?} out of range");
        self.wear[page.0 as usize]
    }

    /// Permanently retires an allocated page after a media error. The
    /// page moves to the poisoned list and is never allocated again.
    ///
    /// # Panics
    ///
    /// Panics if the page is out of range or nothing is allocated.
    pub fn retire(&mut self, page: PhysPage) {
        assert!(page.0 < self.total, "page {page:?} out of range");
        assert!(self.allocated > 0, "retire with nothing allocated");
        debug_assert!(!self.free.contains(&page), "retiring free page {page:?}");
        debug_assert!(!self.retired.contains(&page), "retiring {page:?} twice");
        self.allocated -= 1;
        self.retired.push(page);
    }

    /// Pages retired to the poisoned list.
    pub fn retired_pages(&self) -> u64 {
        self.retired.len() as u64
    }

    /// Sheds up to `n` *free* pages to the health-retired list (a
    /// degraded device's accelerated wear retirement shrinking usable
    /// capacity). Returns how many were actually shed — never more than
    /// the free list holds, so allocated pages are untouched.
    pub fn retire_free(&mut self, n: u64) -> u64 {
        let take = n.min(self.free_pages());
        for _ in 0..take {
            let p = self.free.pop().expect("bounded by free_pages");
            self.health_retired.push(p);
        }
        take
    }

    /// Returns every health-retired page to the free list (the device
    /// was readmitted) and reports how many came back. Media-retired
    /// pages stay poisoned.
    pub fn unretire_health(&mut self) -> u64 {
        let n = self.health_retired.len() as u64;
        // LIFO restore mirrors the LIFO shed: the free list returns to
        // its pre-degrade order.
        while let Some(p) = self.health_retired.pop() {
            self.free.push(p);
        }
        n
    }

    /// Pages currently shed by device-health retirement.
    pub fn health_retired_pages(&self) -> u64 {
        self.health_retired.len() as u64
    }

    /// Captures a serializable snapshot of the pool.
    pub fn snapshot(&self) -> PhysPool {
        self.clone()
    }

    /// Replaces this pool's state with a snapshot's.
    pub fn restore(&mut self, snap: PhysPool) {
        *self = snap;
    }

    /// Page-conservation invariant:
    /// `total = free + allocated + retired + health_retired`.
    pub fn conserved(&self) -> bool {
        self.total
            == self.free_pages()
                + self.allocated
                + self.retired_pages()
                + self.health_retired_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(pages: u64) -> PhysPool {
        PhysPool::new(
            Tier::Dram,
            pages * PageSize::Huge2M.bytes(),
            PageSize::Huge2M,
        )
    }

    #[test]
    fn alloc_until_exhausted() {
        let mut p = pool(3);
        assert_eq!(p.total_pages(), 3);
        let a = p.alloc().expect("page");
        let b = p.alloc().expect("page");
        let c = p.alloc().expect("page");
        assert_eq!(p.alloc(), None);
        assert_eq!(p.free_pages(), 0);
        assert_eq!(p.allocated_pages(), 3);
        assert_eq!(
            (a, b, c),
            (PhysPage(0), PhysPage(1), PhysPage(2)),
            "lowest pages first"
        );
    }

    #[test]
    fn free_makes_page_reusable() {
        let mut p = pool(1);
        let a = p.alloc().expect("page");
        assert_eq!(p.alloc(), None);
        p.free(a);
        assert_eq!(p.alloc(), Some(a));
    }

    #[test]
    fn free_bytes_tracks_page_size() {
        let mut p = pool(4);
        p.alloc();
        assert_eq!(p.free_bytes(), 3 * PageSize::Huge2M.bytes());
    }

    #[test]
    fn retired_pages_never_come_back() {
        let mut p = pool(2);
        let a = p.alloc().expect("page");
        p.retire(a);
        assert_eq!(p.retired_pages(), 1);
        assert_eq!(p.allocated_pages(), 0);
        let b = p.alloc().expect("page");
        assert_ne!(a, b, "retired page must not be reallocated");
        assert_eq!(p.alloc(), None, "capacity shrinks by the retired page");
        // total = free + allocated + retired.
        assert_eq!(
            p.total_pages(),
            p.free_pages() + p.allocated_pages() + p.retired_pages()
        );
    }

    #[test]
    fn wear_accumulates_per_page() {
        let mut p = pool(2);
        let a = p.alloc().expect("page");
        let b = p.alloc().expect("page");
        p.note_write(a, 3);
        p.note_write(a, 2);
        assert_eq!(p.wear(a), 5);
        assert_eq!(p.wear(b), 0, "wear is per page");
        // Wear survives free/realloc: it belongs to the physical cells.
        p.free(a);
        let a2 = p.alloc().expect("page");
        assert_eq!(a2, a);
        assert_eq!(p.wear(a2), 5);
    }

    #[test]
    fn snapshot_restore_round_trips_and_conserves() {
        let mut p = pool(4);
        let a = p.alloc().expect("page");
        let _b = p.alloc().expect("page");
        p.note_write(a, 7);
        p.retire(a);
        assert!(p.conserved());
        let snap = p.snapshot();
        p.alloc();
        p.alloc();
        assert_eq!(p.free_pages(), 0);
        p.restore(snap);
        assert_eq!(p.free_pages(), 2);
        assert_eq!(p.allocated_pages(), 1);
        assert_eq!(p.retired_pages(), 1);
        assert_eq!(p.wear(a), 7);
        assert!(p.conserved());
    }

    #[test]
    fn retire_signal_fires_exactly_at_threshold() {
        let mut p = pool(2);
        p.set_retire_threshold(Some(5));
        assert_eq!(p.retire_threshold(), Some(5));
        let a = p.alloc().expect("page");
        assert!(!p.note_write(a, 4), "below threshold: page stays");
        assert!(
            p.note_write(a, 1),
            "the write that reaches the threshold signals, not the next one"
        );
        assert_eq!(p.wear(a), 5, "signalled at the boundary, not past it");
        p.retire(a);
        assert!(p.conserved());
    }

    #[test]
    fn retire_signal_reports_overshoot_too() {
        let mut p = pool(1);
        p.set_retire_threshold(Some(3));
        let a = p.alloc().expect("page");
        assert!(p.note_write(a, 10), "a burst past the threshold signals");
    }

    #[test]
    fn no_threshold_never_signals() {
        let mut p = pool(1);
        let a = p.alloc().expect("page");
        assert!(!p.note_write(a, u64::MAX));
        assert_eq!(p.retire_threshold(), None);
    }

    #[test]
    fn health_retirement_sheds_and_restores_free_capacity() {
        let mut p = pool(8);
        let a = p.alloc().expect("page");
        // Shed half of the remaining free capacity.
        assert_eq!(p.retire_free(100), 7, "bounded by the free list");
        assert_eq!(p.health_retired_pages(), 7);
        assert_eq!(p.free_pages(), 0);
        assert_eq!(p.alloc(), None, "shed capacity is unallocatable");
        assert!(p.conserved());
        // A media error on the allocated page retires it for good.
        p.retire(a);
        // Readmit: health-shed pages come back, the poisoned one stays.
        assert_eq!(p.unretire_health(), 7);
        assert_eq!(p.free_pages(), 7);
        assert_eq!(p.health_retired_pages(), 0);
        assert_eq!(p.retired_pages(), 1);
        assert!(p.conserved());
        let b = p.alloc().expect("restored capacity allocates");
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn freeing_foreign_page_panics() {
        let mut p = pool(2);
        p.alloc();
        p.free(PhysPage(99));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_panics_in_debug() {
        let mut p = pool(2);
        let a = p.alloc().expect("page");
        let _b = p.alloc().expect("page");
        p.free(a);
        p.free(a);
    }
}
