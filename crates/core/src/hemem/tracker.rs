//! Per-page hotness tracking: access counters, hot/cold FIFO queues, and
//! the cooling clock (§3.1, "Data classification").
//!
//! Every managed page is on exactly one of four lists (hot/cold × tier)
//! or temporarily off-list while migrating. A page becomes hot after a
//! threshold of sampled loads (8) or stores (4); pages crossing the store
//! threshold are *write-heavy* and jump to the front of their hot list so
//! the migration policy promotes them to DRAM first (NVM write bandwidth
//! is the scarcest resource). When any page accumulates the cooling
//! threshold (18) of samples, a global clock advances; each page is
//! lazily cooled (counters halved) the next time it is touched, avoiding
//! a full traversal of the queues.

use std::collections::BTreeMap;

use hemem_sim::list::{FifoArena, FifoList, Slot};
use hemem_sim::Ns;
use hemem_vmm::{AddressSpace, PageId, PageState, RegionId, Tier};

use super::regions::{RegionConfig, RegionStats, RegionTracker, SplitHalf};
use crate::audit::AuditViolation;

/// Classification thresholds (paper defaults in §3.1, swept in Figures
/// 11-12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackerConfig {
    /// Sampled loads before a page is hot.
    pub hot_read_threshold: u32,
    /// Sampled stores before a page is hot (and write-heavy).
    pub hot_write_threshold: u32,
    /// Accumulated samples on any page that advance the cooling clock.
    pub cooling_threshold: u32,
    /// Whether write-heavy pages jump to the front of their hot queue
    /// (§3.3); disabled only by the write-priority ablation.
    pub write_priority: bool,
    /// Minimum virtual time between global cooling-clock advances. The
    /// paper's trigger alone ("any page accumulates 18 samples") races at
    /// high aggregate sample rates — the *first* of N climbing pages
    /// trips it long before the average page has gained anything, and
    /// counts equilibrate below the hot thresholds. A floor on the
    /// cooling cadence restores the intended behaviour (hot pages sustain
    /// counts; a shifted-away hot set cools within a few intervals).
    pub cooling_min_interval: Ns,
    /// Multi-grained region tracking (off by default: the flat queue
    /// paths below stay byte-identical to the pre-region tracker).
    pub regions: RegionConfig,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            hot_read_threshold: 8,
            hot_write_threshold: 4,
            cooling_threshold: 18,
            write_priority: true,
            cooling_min_interval: Ns::secs(8),
            regions: RegionConfig::default(),
        }
    }
}

/// The four residency/temperature queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Queue {
    /// Hot pages in DRAM.
    DramHot,
    /// Cold pages in DRAM (demotion candidates).
    DramCold,
    /// Hot pages in NVM (promotion candidates).
    NvmHot,
    /// Cold pages in NVM.
    NvmCold,
}

impl Queue {
    fn index(self) -> usize {
        match self {
            Queue::DramHot => 0,
            Queue::DramCold => 1,
            Queue::NvmHot => 2,
            Queue::NvmCold => 3,
        }
    }

    /// The queue for `tier` at the given temperature. SSD-resident pages
    /// are off-queue by design (they re-enter via a major fault, not a
    /// policy pick), so asking for their queue is a logic error.
    pub fn of(tier: Tier, hot: bool) -> Queue {
        match (tier, hot) {
            (Tier::Dram, true) => Queue::DramHot,
            (Tier::Dram, false) => Queue::DramCold,
            (Tier::Nvm, true) => Queue::NvmHot,
            (Tier::Nvm, false) => Queue::NvmCold,
            (Tier::Ssd, _) => panic!("SSD pages have no hot/cold queue"),
        }
    }
}

/// Per-page tracking state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PageMeta {
    reads: u32,
    writes: u32,
    cooled_at: u64,
    write_heavy: bool,
    tier: Option<Tier>,
    /// The page was popped by region-granularity selection and its span
    /// is pinned until the migration settles (or the pick is restored).
    region_pinned: bool,
}

/// Tracker statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrackerStats {
    /// Access records processed.
    pub records: u64,
    /// Pages promoted to a hot queue.
    pub promotions: u64,
    /// Pages demoted to a cold queue by cooling.
    pub demotions: u64,
    /// Cooling clock advances.
    pub cool_events: u64,
}

/// Hotness tracker shared by HeMem (PEBS-fed) and its page-table-scan
/// variants (ledger-fed). Equality compares logical state (contents,
/// not allocated capacity), so a reset tracker equals a new one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageTracker {
    cfg: TrackerConfig,
    arena: FifoArena,
    queues: [FifoList; 4],
    meta: Vec<PageMeta>,
    slot_page: Vec<PageId>,
    regions: BTreeMap<RegionId, (u32, u64)>, // base slot, page count
    region_view: Option<RegionTracker>,
    /// Per-period selection cursors (promotion; demotion cold pass,
    /// demotion any-DRAM pass): a span scanned dry this period is not
    /// rescanned until the next `begin_region_period` resets these, so
    /// selection cost stays proportional to spans visited, not pops
    /// taken.
    promo_cursor: Option<(RegionId, u64)>,
    demo_cursors: [Option<(RegionId, u64)>; 2],
    cool_clock: u64,
    last_advance: Ns,
    stats: TrackerStats,
}

impl PageTracker {
    /// Creates an empty tracker.
    pub fn new(cfg: TrackerConfig) -> PageTracker {
        let region_view = cfg.regions.enabled.then(|| RegionTracker::new(cfg.regions));
        // Only the region pops scan slot ranges for queue members: one
        // membership bitmap per queue.
        let arena = if cfg.regions.enabled {
            FifoArena::with_membership(0, 4)
        } else {
            FifoArena::new(0)
        };
        PageTracker {
            cfg,
            region_view,
            arena,
            queues: [
                FifoList::new(Queue::DramHot.index() as u8),
                FifoList::new(Queue::DramCold.index() as u8),
                FifoList::new(Queue::NvmHot.index() as u8),
                FifoList::new(Queue::NvmCold.index() as u8),
            ],
            meta: Vec::new(),
            slot_page: Vec::new(),
            regions: BTreeMap::new(),
            promo_cursor: None,
            demo_cursors: [None, None],
            cool_clock: 0,
            last_advance: Ns::ZERO,
            stats: TrackerStats::default(),
        }
    }

    /// Configuration in effect.
    pub fn config(&self) -> &TrackerConfig {
        &self.cfg
    }

    /// Resets the tracker to its just-constructed state — no regions,
    /// empty queues, zeroed counters and cursors — while keeping the
    /// per-page containers' allocated capacity. This is the slot-pool scrub: a
    /// recycled tenant slot must behave byte-identically to a fresh
    /// `PageTracker::new(cfg)` without rebuilding heap state per spawn.
    pub fn reset(&mut self) {
        self.arena.reset();
        self.queues = [
            FifoList::new(Queue::DramHot.index() as u8),
            FifoList::new(Queue::DramCold.index() as u8),
            FifoList::new(Queue::NvmHot.index() as u8),
            FifoList::new(Queue::NvmCold.index() as u8),
        ];
        self.meta.clear();
        self.slot_page.clear();
        self.regions.clear();
        if let Some(rv) = self.region_view.as_mut() {
            rv.reset();
        }
        self.promo_cursor = None;
        self.demo_cursors = [None, None];
        self.cool_clock = 0;
        self.last_advance = Ns::ZERO;
        self.stats = TrackerStats::default();
    }

    /// Pre-allocates container capacity for `pages` tracked pages so
    /// the slot's first `add_region` calls never reallocate in the
    /// spawn hot path.
    pub fn prewarm(&mut self, pages: u64) {
        let n = pages as usize;
        self.arena.reserve(n);
        if n > self.meta.len() {
            self.meta.reserve(n - self.meta.len());
        }
        if n > self.slot_page.len() {
            self.slot_page.reserve(n - self.slot_page.len());
        }
    }

    /// Pages currently tracked across all registered regions.
    pub fn tracked_pages(&self) -> u64 {
        self.regions.values().map(|&(_, pages)| pages).sum()
    }

    /// Metadata slots the tracker's containers currently span,
    /// including slots left behind by removed regions — the footprint a
    /// slot-pool scrub reclaims.
    pub fn footprint_pages(&self) -> u64 {
        self.meta.len() as u64
    }

    /// Statistics.
    pub fn stats(&self) -> &TrackerStats {
        &self.stats
    }

    /// Current cooling clock value.
    pub fn cool_clock(&self) -> u64 {
        self.cool_clock
    }

    /// Registers a managed region of `pages` pages.
    pub fn add_region(&mut self, region: RegionId, pages: u64) {
        let base = self.meta.len() as u32;
        self.regions.insert(region, (base, pages));
        self.meta
            .extend(std::iter::repeat_n(PageMeta::default(), pages as usize));
        self.slot_page
            .extend((0..pages).map(|i| PageId { region, index: i }));
        self.arena.grow_to(self.meta.len());
        if let Some(rv) = self.region_view.as_mut() {
            rv.add_region(region, pages);
        }
    }

    /// Whether `region` is tracked.
    pub fn tracks(&self, region: RegionId) -> bool {
        self.regions.contains_key(&region)
    }

    /// Forgets a region's pages (unlinking them from any queue).
    pub fn remove_region(&mut self, region: RegionId) {
        if let Some((base, pages)) = self.regions.remove(&region) {
            for slot in base..base + pages as u32 {
                self.unlink(slot);
                self.meta[slot as usize] = PageMeta::default();
            }
            if let Some(rv) = self.region_view.as_mut() {
                rv.remove_region(region);
            }
        }
    }

    /// Slot for a page, if its region is tracked.
    pub fn slot(&self, page: PageId) -> Option<Slot> {
        let &(base, pages) = self.regions.get(&page.region)?;
        (page.index < pages).then(|| base + page.index as u32)
    }

    /// Page for a slot.
    pub fn page(&self, slot: Slot) -> PageId {
        self.slot_page[slot as usize]
    }

    /// Queue length.
    pub fn queue_len(&self, q: Queue) -> usize {
        self.queues[q.index()].len()
    }

    fn unlink(&mut self, slot: Slot) {
        let id = self.arena.list_of(slot);
        if id != hemem_sim::list::NO_LIST {
            self.queues[id as usize].remove(&mut self.arena, slot);
        }
    }

    fn push(&mut self, slot: Slot, q: Queue, front: bool) {
        if front {
            self.queues[q.index()].push_front(&mut self.arena, slot);
        } else {
            self.queues[q.index()].push_back(&mut self.arena, slot);
        }
    }

    /// Whether a page's counters classify it hot.
    fn is_hot(&self, m: &PageMeta) -> bool {
        m.reads >= self.cfg.hot_read_threshold || m.writes >= self.cfg.hot_write_threshold
    }

    /// A page was placed on `tier` (first touch or migration done); it
    /// (re-)enters the appropriate queue. Pages placed on the SSD tier
    /// go off-queue: their counters survive (so a page promoted back
    /// keeps its history) but nothing polls them — the next access
    /// surfaces as a major fault instead of a queue pick.
    pub fn placed(&mut self, page: PageId, tier: Tier) {
        let Some(slot) = self.slot(page) else { return };
        self.unlink(slot);
        let meta = &mut self.meta[slot as usize];
        let old = meta.tier;
        let pinned = meta.region_pinned;
        meta.tier = Some(tier);
        meta.region_pinned = false;
        if let Some(rv) = self.region_view.as_mut() {
            if pinned {
                rv.unpin(page.region, page.index);
            }
            rv.residency_changed(page.region, page.index, old, Some(tier));
        }
        if tier == Tier::Ssd {
            return;
        }
        let hot = self.is_hot(&self.meta[slot as usize]);
        let wh = self.meta[slot as usize].write_heavy;
        self.push(slot, Queue::of(tier, hot), hot && wh);
    }

    /// Lazily cools a page if the clock advanced since its last cooling.
    /// Returns `true` if the page was demoted from hot to cold.
    fn maybe_cool(&mut self, slot: Slot) -> bool {
        let clock = self.cool_clock;
        let cfg_wt = self.cfg.hot_write_threshold;
        let meta = &mut self.meta[slot as usize];
        if meta.cooled_at == clock {
            return false;
        }
        // Halve once per clock step missed (several steps may have passed;
        // one halving per touch keeps the O(1) lazy behaviour of §3.1).
        meta.reads /= 2;
        meta.writes /= 2;
        meta.cooled_at = clock;
        let mut second_chance = false;
        if meta.write_heavy && meta.writes < cfg_wt {
            // No longer write-heavy: second chance on the hot list (§3.3).
            meta.write_heavy = false;
            second_chance = true;
        }
        // Demotion hysteresis: a page leaves the hot list only when its
        // cooled counts fall below *half* the hot thresholds. Without it,
        // pages whose steady-state sampled rate hovers just under the
        // threshold (large hot sets spread samples thin) flicker between
        // hot and cold and are never migrated.
        let m2 = &self.meta[slot as usize];
        let hot = m2.reads >= self.cfg.hot_read_threshold.div_ceil(2)
            || m2.writes >= self.cfg.hot_write_threshold.div_ceil(2);
        let tier = self.meta[slot as usize].tier;
        let Some(tier) = tier else { return false };
        if tier == Tier::Ssd {
            return false;
        }
        let on = self.arena.list_of(slot);
        let hot_q = Queue::of(tier, true);
        let cold_q = Queue::of(tier, false);
        if !hot && on == hot_q.index() as u8 && !second_chance {
            self.unlink(slot);
            self.push(slot, cold_q, false);
            self.stats.demotions += 1;
            return true;
        }
        if second_chance && on == hot_q.index() as u8 {
            // Move from the prioritized front back into FIFO order.
            self.unlink(slot);
            self.push(slot, hot_q, false);
        }
        false
    }

    /// Records one sampled access (from PEBS or a page-table scan) at
    /// virtual time `now`; returns whether `page` is tracked (an
    /// untracked page's sample is ignored).
    pub fn record(&mut self, page: PageId, is_write: bool, now: Ns) -> bool {
        let Some(slot) = self.slot(page) else {
            return false;
        };
        self.record_at(slot, page, is_write, now);
        true
    }

    /// [`PageTracker::record`] for a page whose `slot` the caller already
    /// looked up.
    pub fn record_at(&mut self, slot: Slot, page: PageId, is_write: bool, now: Ns) {
        self.stats.records += 1;
        if let Some(rv) = self.region_view.as_mut() {
            rv.note_sample(page.region, page.index, is_write);
        }
        self.maybe_cool(slot);
        let cfg = self.cfg;
        let meta = &mut self.meta[slot as usize];
        if is_write {
            meta.writes = meta.writes.saturating_add(1);
        } else {
            meta.reads = meta.reads.saturating_add(1);
        }
        let total = meta.reads + meta.writes;
        let newly_write_heavy =
            is_write && !meta.write_heavy && meta.writes >= cfg.hot_write_threshold;
        if newly_write_heavy {
            meta.write_heavy = true;
        }
        let hot = meta.reads >= cfg.hot_read_threshold || meta.writes >= cfg.hot_write_threshold;
        let tier = meta.tier;
        if total as u64 >= cfg.cooling_threshold as u64
            && now.saturating_sub(self.last_advance) >= cfg.cooling_min_interval
        {
            self.cool_clock += 1;
            self.last_advance = now;
            self.stats.cool_events += 1;
            self.meta[slot as usize].cooled_at = self.cool_clock;
            let m = &mut self.meta[slot as usize];
            m.reads /= 2;
            m.writes /= 2;
        }
        let Some(tier) = tier else { return };
        if tier == Tier::Ssd {
            return;
        }
        let on = self.arena.list_of(slot);
        let hot_q = Queue::of(tier, true);
        if hot && on != hot_q.index() as u8 && on != hemem_sim::list::NO_LIST {
            self.unlink(slot);
            let front = cfg.write_priority && self.meta[slot as usize].write_heavy;
            self.push(slot, hot_q, front);
            self.stats.promotions += 1;
        } else if newly_write_heavy && cfg.write_priority && on == hot_q.index() as u8 {
            // Already hot: jump to the front for priority migration.
            self.queues[hot_q.index()].move_to_front(&mut self.arena, slot);
        }
    }

    /// Pops the next promotion candidate (front of the NVM hot queue).
    pub fn pop_promotion(&mut self) -> Option<PageId> {
        let slot = self.queues[Queue::NvmHot.index()].pop_front(&mut self.arena)?;
        Some(self.page(slot))
    }

    /// Pops the next demotion candidate: front of the DRAM cold queue, or
    /// — when nothing in DRAM is cold — the front of the DRAM hot queue
    /// ("random data" in the paper; the FIFO front is the page hot for
    /// longest).
    pub fn pop_demotion(&mut self, allow_hot: bool) -> Option<PageId> {
        if let Some(slot) = self.queues[Queue::DramCold.index()].pop_front(&mut self.arena) {
            return Some(self.page(slot));
        }
        if allow_hot {
            let slot = self.queues[Queue::DramHot.index()].pop_front(&mut self.arena)?;
            return Some(self.page(slot));
        }
        None
    }

    /// Returns a popped candidate to the back of its queue (migration
    /// could not start).
    pub fn restore(&mut self, page: PageId) {
        self.restore_at(page, false);
    }

    /// Returns a popped candidate to the *front* of its queue (it stays
    /// first in line for the next policy pass).
    pub fn restore_front(&mut self, page: PageId) {
        self.restore_at(page, true);
    }

    fn restore_at(&mut self, page: PageId, front: bool) {
        if let Some(slot) = self.slot(page) {
            if self.meta[slot as usize].region_pinned {
                self.meta[slot as usize].region_pinned = false;
                if let Some(rv) = self.region_view.as_mut() {
                    rv.unpin(page.region, page.index);
                }
            }
            if let Some(tier) = self.meta[slot as usize].tier {
                if tier == Tier::Ssd {
                    return;
                }
                let hot = self.is_hot(&self.meta[slot as usize]);
                self.unlink(slot);
                self.push(slot, Queue::of(tier, hot), front);
            }
        }
    }

    /// Forces a page hot (used by the page-table-scanning variants, where
    /// a set accessed bit *is* the hotness signal). Saturates the relevant
    /// counter at its threshold so cooling behaves consistently.
    pub fn mark_hot(&mut self, page: PageId, write_heavy: bool) {
        let Some(slot) = self.slot(page) else { return };
        self.stats.records += 1;
        let cfg = self.cfg;
        let write_heavy = write_heavy && cfg.write_priority;
        let meta = &mut self.meta[slot as usize];
        meta.reads = meta.reads.max(cfg.hot_read_threshold);
        if write_heavy {
            meta.writes = meta.writes.max(cfg.hot_write_threshold);
            meta.write_heavy = true;
        }
        let Some(tier) = meta.tier else { return };
        if tier == Tier::Ssd {
            return;
        }
        let wh = meta.write_heavy;
        let on = self.arena.list_of(slot);
        let hot_q = Queue::of(tier, true);
        if on != hot_q.index() as u8 && on != hemem_sim::list::NO_LIST {
            self.unlink(slot);
            self.push(slot, hot_q, wh);
            self.stats.promotions += 1;
        }
    }

    /// Forces a page cold (accessed bit was clear at scan time).
    pub fn mark_cold(&mut self, page: PageId) {
        let Some(slot) = self.slot(page) else { return };
        let meta = &mut self.meta[slot as usize];
        meta.reads = 0;
        meta.writes = 0;
        meta.write_heavy = false;
        let Some(tier) = meta.tier else { return };
        if tier == Tier::Ssd {
            return;
        }
        let on = self.arena.list_of(slot);
        let cold_q = Queue::of(tier, false);
        if on != cold_q.index() as u8 && on != hemem_sim::list::NO_LIST {
            self.unlink(slot);
            self.push(slot, cold_q, false);
            self.stats.demotions += 1;
        }
    }

    /// Pops the coldest NVM page as a swap-out victim (front of the NVM
    /// cold queue), or `None` if nothing in NVM is cold.
    pub fn pop_swap_victim(&mut self) -> Option<PageId> {
        let slot = self.queues[Queue::NvmCold.index()].pop_front(&mut self.arena)?;
        Some(self.page(slot))
    }

    /// Forgets a page entirely (its frame was poisoned); it re-enters the
    /// queues via [`PageTracker::placed`] when faulted back in.
    pub fn evicted(&mut self, page: PageId) {
        if let Some(slot) = self.slot(page) {
            self.unlink(slot);
            let old = self.meta[slot as usize].tier;
            let pinned = self.meta[slot as usize].region_pinned;
            self.meta[slot as usize] = PageMeta::default();
            if let Some(rv) = self.region_view.as_mut() {
                if pinned {
                    rv.unpin(page.region, page.index);
                }
                rv.residency_changed(page.region, page.index, old, None);
            }
        }
    }

    /// Records a major fault on an off-queue (SSD-resident) page: bumps
    /// its access counters with the usual lazy cooling and returns the
    /// cooled total. The caller uses the total to decide promotion — a
    /// page re-faulting within a cooling window (total >= 2) is warm
    /// enough to pull back to NVM, a one-off fault is not. No queue
    /// linkage changes: SSD pages stay off-queue, and the global cooling
    /// clock is not advanced (faults carry no sampling timestamp).
    pub fn note_fault(&mut self, page: PageId, is_write: bool) -> u32 {
        let Some(slot) = self.slot(page) else {
            return 0;
        };
        self.maybe_cool(slot);
        let meta = &mut self.meta[slot as usize];
        if is_write {
            meta.writes = meta.writes.saturating_add(1);
        } else {
            meta.reads = meta.reads.saturating_add(1);
        }
        meta.reads + meta.writes
    }

    /// Whether a page is currently classified write-heavy.
    pub fn is_write_heavy(&self, page: PageId) -> bool {
        self.slot(page)
            .is_some_and(|s| self.meta[s as usize].write_heavy)
    }

    /// Whether a page's surviving counters classify it hot. Used on the
    /// major-fault path: an SSD page whose pre-demotion history was hot
    /// promotes straight to DRAM rather than stopping in NVM.
    pub fn is_hot_page(&self, page: PageId) -> bool {
        self.slot(page)
            .is_some_and(|s| self.is_hot(&self.meta[s as usize]))
    }

    /// Raw (reads, writes) counters of a page.
    pub fn counters(&self, page: PageId) -> (u32, u32) {
        match self.slot(page) {
            Some(s) => (self.meta[s as usize].reads, self.meta[s as usize].writes),
            None => (0, 0),
        }
    }

    /// Tracked regions in a deterministic (id) order, with their base slot
    /// and page count.
    fn regions_sorted(&self) -> Vec<(RegionId, u32, u64)> {
        self.regions
            .iter()
            .map(|(&r, &(base, pages))| (r, base, pages))
            .collect()
    }

    /// Rebuilds every queue from the authoritative address space after a
    /// manager restart. Per-page counters (and the cooling clock) live in
    /// this tracker's metadata and survive the crash; what is lost is the
    /// queue linkage, which is reconstructed here: each resident page
    /// re-enters the queue its surviving counters classify it into
    /// (write-heavy hot pages at the front, as on placement), and pages no
    /// longer resident are forgotten.
    pub fn rebuild_from(&mut self, space: &AddressSpace) {
        for (rid, base, pages) in self.regions_sorted() {
            let region = space.region(rid);
            for i in 0..pages {
                let slot = base + i as u32;
                self.unlink(slot);
                self.meta[slot as usize].region_pinned = false;
                match region.state(i) {
                    PageState::Mapped { tier, .. } => {
                        self.meta[slot as usize].tier = Some(tier);
                        if tier == Tier::Ssd {
                            continue; // off-queue, counters kept
                        }
                        let m = self.meta[slot as usize];
                        let hot = self.is_hot(&m);
                        self.push(slot, Queue::of(tier, hot), hot && m.write_heavy);
                    }
                    _ => self.meta[slot as usize] = PageMeta::default(),
                }
            }
        }
        self.rebuild_region_view();
    }

    /// Re-derives every span's residency summary from the (surviving)
    /// per-page metadata and drops all pins: after a crash the journal
    /// was rolled back or completed, so no migration is in flight and
    /// every span must agree with the pages inside it.
    fn rebuild_region_view(&mut self) {
        let Some(mut rv) = self.region_view.take() else {
            return;
        };
        self.promo_cursor = None;
        self.demo_cursors = [None, None];
        for (rid, base, pages) in self.regions_sorted() {
            rv.clear_pins(rid);
            for (head, s) in rv.spans(rid) {
                let (mut dram, mut nvm) = (0u64, 0u64);
                for i in head..(head + s.len).min(pages) {
                    match self.meta[(base + i as u32) as usize].tier {
                        Some(Tier::Dram) => dram += 1,
                        Some(Tier::Nvm) => nvm += 1,
                        _ => {}
                    }
                }
                rv.reset_span(rid, head, dram, nvm);
            }
        }
        self.region_view = Some(rv);
    }

    /// Whether region-granularity tracking is active: the policy pass
    /// then runs [`PageTracker::begin_region_period`] and takes its
    /// candidates from the span-index pops instead of the flat queues.
    pub fn regions_enabled(&self) -> bool {
        self.region_view.is_some()
    }

    /// Region-layer counters, when region tracking is active.
    pub fn region_stats(&self) -> Option<RegionStats> {
        self.region_view.as_ref().map(|rv| rv.stats())
    }

    /// Per-period region maintenance: one walk decays every span's
    /// temperature and collects the hot ones, which split (temperature
    /// distributed by the per-page counter weight of each half, so the
    /// heat follows the pages that earned it), then adjacent cold buddies
    /// merge. No-op when regions are off.
    pub fn begin_region_period(&mut self) {
        let Some(mut rv) = self.region_view.take() else {
            return;
        };
        self.promo_cursor = None;
        self.demo_cursors = [None, None];
        for (rid, head, len) in rv.decay() {
            let Some(&(base, _)) = self.regions.get(&rid) else {
                continue;
            };
            let half = len / 2;
            let mut halves = [SplitHalf::default(), SplitHalf::default()];
            for (h, lo) in [(0usize, head), (1usize, head + half)] {
                for i in lo..lo + half {
                    let m = &self.meta[(base + i as u32) as usize];
                    halves[h].weight += (m.reads + m.writes) as u64;
                    match m.tier {
                        Some(Tier::Dram) => halves[h].dram += 1,
                        Some(Tier::Nvm) => halves[h].nvm += 1,
                        _ => {}
                    }
                }
            }
            rv.note_pages_touched(len);
            rv.apply_split(rid, head, halves[0], halves[1]);
        }
        rv.merge_pass();
        self.region_view = Some(rv);
    }

    /// Scans the span `[head, head + len)` of the region whose slots
    /// start at `base` for a pick: the first member of `want`, else the
    /// first member of `fallback`. Two membership-bitmap word scans
    /// replace a page-by-page read of the span; the second number
    /// returned is the pages that read would have touched (up to and
    /// including a `want` hit, the whole span otherwise), which
    /// `select_pages_touched` counts.
    fn scan_span(
        &self,
        base: Slot,
        head: u64,
        len: u64,
        want: Queue,
        fallback: Option<Queue>,
    ) -> (Option<Slot>, u64) {
        let (lo, hi) = (base + head as u32, base + (head + len) as u32);
        match self.arena.first_on(want.index() as u8, lo, hi) {
            Some(slot) => (Some(slot), (slot - lo) as u64 + 1),
            None => {
                let slot = fallback.and_then(|q| self.arena.first_on(q.index() as u8, lo, hi));
                (slot, len)
            }
        }
    }

    /// Takes a region pick off its queue and pins its span until the
    /// migration settles (or the pick is restored).
    fn pin_pick(
        &mut self,
        rv: &mut RegionTracker,
        region: RegionId,
        base: Slot,
        slot: Slot,
    ) -> PageId {
        self.unlink(slot);
        self.meta[slot as usize].region_pinned = true;
        let index = (slot - base) as u64;
        rv.pin(region, index);
        PageId { region, index }
    }

    /// Pops the next promotion candidate at region granularity: walks the
    /// Fenwick promo index to the first hot span holding NVM pages, then
    /// scans only that span for a queue member — an NVM-hot page first,
    /// else any NVM-cold page riding its hot span (the region-granularity
    /// bet: cold pages inside a hot span are coming). The chosen page
    /// leaves its queue and pins its span until the migration settles.
    pub fn pop_region_promotion(&mut self) -> Option<PageId> {
        let mut rv = self.region_view.take()?;
        let mut cursor = self.promo_cursor;
        let mut found = None;
        while let Some((rid, head, len)) = rv.first_promo_span_after(cursor) {
            let Some(&(base, _)) = self.regions.get(&rid) else {
                break;
            };
            let (pick, touched) =
                self.scan_span(base, head, len, Queue::NvmHot, Some(Queue::NvmCold));
            rv.note_pages_touched(touched);
            if let Some(slot) = pick {
                found = Some(self.pin_pick(&mut rv, rid, base, slot));
                break;
            }
            cursor = Some((rid, head + len));
        }
        self.promo_cursor = cursor;
        self.region_view = Some(rv);
        found
    }

    /// Pops the next demotion candidate at region granularity: first the
    /// cold-span index (DRAM pages in not-hot spans; cold queue members
    /// preferred, hot members only with `allow_hot`), then — with
    /// `allow_hot` — any span holding DRAM pages, mirroring the flat
    /// tracker's "demote random data when nothing is cold" fallback.
    pub fn pop_region_demotion(&mut self, allow_hot: bool) -> Option<PageId> {
        let mut rv = self.region_view.take()?;
        let mut found = None;
        for pass in 0..2 {
            if pass == 1 && !allow_hot {
                break;
            }
            let mut cursor = self.demo_cursors[pass];
            loop {
                let next = if pass == 0 {
                    rv.first_demo_span_after(cursor)
                } else {
                    rv.first_dram_span_after(cursor)
                };
                let Some((rid, head, len)) = next else { break };
                let Some(&(base, _)) = self.regions.get(&rid) else {
                    break;
                };
                let hot = allow_hot.then_some(Queue::DramHot);
                let (pick, touched) = self.scan_span(base, head, len, Queue::DramCold, hot);
                rv.note_pages_touched(touched);
                if let Some(slot) = pick {
                    found = Some(self.pin_pick(&mut rv, rid, base, slot));
                    break;
                }
                cursor = Some((rid, head + len));
            }
            self.demo_cursors[pass] = cursor;
            if found.is_some() {
                break;
            }
        }
        self.region_view = Some(rv);
        found
    }

    /// Region/page agreement checks for the auditor: span tiling covers
    /// each region exactly (with every page's span lookup naming the span
    /// that covers it), every span's cached residency matches a
    /// recount of the pages inside it, the incremental span/coverage
    /// accounting matches the span walk, no span stays pinned without a
    /// journal entry in flight (`journal_prepared` = outstanding entries
    /// for this tracker's tenant), and every candidate index flags exactly
    /// the span heads whose state implies it. Empty when regions are off
    /// or clean.
    pub fn region_violations(&self, journal_prepared: u64) -> Vec<AuditViolation> {
        let mut out = Vec::new();
        let Some(rv) = self.region_view.as_ref() else {
            return out;
        };
        for (rid, base, pages) in self.regions_sorted() {
            let spans = rv.spans(rid);
            // 1. Exact, aligned, power-of-two coverage.
            let mut at = 0u64;
            let mut broken = None;
            for (head, s) in &spans {
                if *head != at || !s.len.is_power_of_two() || head % s.len != 0 {
                    broken = Some(at);
                    break;
                }
                at += s.len;
            }
            if broken.is_none() && at != pages {
                broken = Some(at);
            }
            // ...and every page's owner entry names the span covering it.
            broken = broken.or_else(|| rv.stray_owner(rid));
            if let Some(at) = broken {
                out.push(AuditViolation::RegionCoverageGap { region: rid, at });
                continue; // residency recounts are meaningless off a broken tiling
            }
            // 2. Cached residency vs per-page recount.
            for (head, s) in &spans {
                let (mut dram, mut nvm) = (0u64, 0u64);
                for i in *head..head + s.len {
                    match self.meta[(base + i as u32) as usize].tier {
                        Some(Tier::Dram) => dram += 1,
                        Some(Tier::Nvm) => nvm += 1,
                        _ => {}
                    }
                }
                if dram != s.dram || nvm != s.nvm {
                    out.push(AuditViolation::RegionTemperatureMismatch {
                        region: rid,
                        start: *head,
                        cached_dram: s.dram,
                        actual_dram: dram,
                        cached_nvm: s.nvm,
                        actual_nvm: nvm,
                    });
                }
            }
            // 3. Incremental accounting vs the span walk, and orphan pins.
            if let Some((live, covered, view_pages, pinned)) = rv.accounting(rid) {
                let orphan_pins = if journal_prepared == 0 { pinned } else { 0 };
                if live != spans.len() as u64
                    || covered != pages
                    || view_pages != pages
                    || orphan_pins > 0
                {
                    out.push(AuditViolation::SplitMergeLeak {
                        region: rid,
                        live_spans: live,
                        actual_spans: spans.len() as u64,
                        covered,
                        pages,
                        orphan_pins,
                    });
                }
            }
            // 4. Candidate indexes vs the span state they derive from.
            out.extend(rv.index_mismatches(rid).into_iter().map(|(head, index)| {
                AuditViolation::RegionIndexMismatch {
                    region: rid,
                    head,
                    index,
                }
            }));
        }
        out
    }

    /// Residency disagreements between tracker metadata and the address
    /// space: `(page, tracked tier, mapped tier)` for every tracked page
    /// where the two differ. Empty on a consistent tracker.
    pub fn residency_mismatches(
        &self,
        space: &AddressSpace,
    ) -> Vec<(PageId, Option<Tier>, Option<Tier>)> {
        let mut out = Vec::new();
        for (rid, base, pages) in self.regions_sorted() {
            let region = space.region(rid);
            for i in 0..pages {
                let tracked = self.meta[(base + i as u32) as usize].tier;
                let mapped = match region.state(i) {
                    PageState::Mapped { tier, .. } => Some(tier),
                    _ => None,
                };
                if tracked != mapped {
                    out.push((
                        PageId {
                            region: rid,
                            index: i,
                        },
                        tracked,
                        mapped,
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(i: u64) -> PageId {
        PageId {
            region: RegionId(0),
            index: i,
        }
    }

    fn tracker() -> PageTracker {
        // Zero cooling interval: unit tests exercise the pure threshold
        // semantics; the time gate has its own test.
        let cfg = TrackerConfig {
            cooling_min_interval: Ns::ZERO,
            ..TrackerConfig::default()
        };
        let mut t = PageTracker::new(cfg);
        t.add_region(RegionId(0), 16);
        for i in 0..16 {
            t.placed(page(i), Tier::Nvm);
        }
        t
    }

    #[test]
    fn pages_start_cold() {
        let t = tracker();
        assert_eq!(t.queue_len(Queue::NvmCold), 16);
        assert_eq!(t.queue_len(Queue::NvmHot), 0);
    }

    #[test]
    fn note_fault_counts_without_queueing() {
        let mut t = tracker();
        t.placed(page(0), Tier::Ssd);
        let before = t.queue_len(Queue::NvmCold) + t.queue_len(Queue::NvmHot);
        assert_eq!(t.note_fault(page(0), false), 1, "first fault: one-off");
        assert_eq!(t.note_fault(page(0), true), 2, "re-fault: warm");
        assert_eq!(t.counters(page(0)), (1, 1));
        assert_eq!(
            t.queue_len(Queue::NvmCold) + t.queue_len(Queue::NvmHot),
            before,
            "SSD pages stay off-queue"
        );
        // Untracked pages report zero (and are never promoted on fault).
        let foreign = PageId {
            region: RegionId(9),
            index: 0,
        };
        assert_eq!(t.note_fault(foreign, false), 0);
    }

    #[test]
    fn note_fault_cools_lazily() {
        let mut t = tracker();
        t.placed(page(0), Tier::Ssd);
        assert_eq!(t.note_fault(page(0), false), 1);
        // A cooling step between faults halves the stale count: the page
        // reads as a one-off again rather than accumulating forever.
        t.cool_clock += 1;
        assert_eq!(t.note_fault(page(0), false), 1, "cooled 1/2 + 1");
    }

    #[test]
    fn read_threshold_promotes() {
        let mut t = tracker();
        for _ in 0..7 {
            t.record(page(0), false, Ns::ZERO);
        }
        assert_eq!(t.queue_len(Queue::NvmHot), 0, "below threshold");
        t.record(page(0), false, Ns::ZERO);
        assert_eq!(t.queue_len(Queue::NvmHot), 1, "8 loads -> hot");
        assert_eq!(t.stats().promotions, 1);
    }

    #[test]
    fn write_threshold_promotes_faster_and_prioritizes() {
        let mut t = tracker();
        // Page 1 becomes read-hot first (goes to back of hot queue).
        for _ in 0..8 {
            t.record(page(1), false, Ns::ZERO);
        }
        // Page 2 becomes write-heavy: must enter at the *front*.
        for _ in 0..4 {
            t.record(page(2), true, Ns::ZERO);
        }
        assert!(t.is_write_heavy(page(2)));
        assert_eq!(t.pop_promotion(), Some(page(2)), "write-heavy first");
        assert_eq!(t.pop_promotion(), Some(page(1)));
        assert_eq!(t.pop_promotion(), None);
    }

    #[test]
    fn cooling_clock_advances_and_halves() {
        let mut t = tracker();
        // 18 samples on one page advance the clock and halve it in place.
        for _ in 0..18 {
            t.record(page(3), false, Ns::ZERO);
        }
        assert_eq!(t.cool_clock(), 1);
        let (r, _) = t.counters(page(3));
        assert_eq!(r, 9, "halved at the cooling event");
        // Another page that was hot with exactly threshold counts is
        // lazily cooled on next touch; hysteresis keeps it hot after one
        // halving (4 >= 8/2) and demotes it after the second (2 < 4).
        for _ in 0..8 {
            t.record(page(4), false, Ns::ZERO);
        }
        assert_eq!(t.queue_len(Queue::NvmHot), 2); // pages 3 and 4
                                                   // Advance clock again via page 3.
        for _ in 0..18 {
            t.record(page(3), false, Ns::ZERO);
        }
        // Touch page 4: cools from 8 to 4 reads -> stays hot (hysteresis).
        t.record(page(4), false, Ns::ZERO);
        let (r4, _) = t.counters(page(4));
        assert_eq!(r4, 5, "halved to 4 then incremented");
        assert_eq!(t.stats().demotions, 0, "hysteresis holds at half threshold");
        // Advance the clock once more; cooling 5 -> 2 < 4 demotes.
        for _ in 0..18 {
            t.record(page(3), false, Ns::ZERO);
        }
        t.record(page(4), false, Ns::ZERO);
        assert!(t.stats().demotions >= 1, "second cooling demotes");
    }

    #[test]
    fn write_heavy_second_chance() {
        let mut t = tracker();
        for _ in 0..4 {
            t.record(page(5), true, Ns::ZERO);
        }
        assert!(t.is_write_heavy(page(5)));
        // Force clock ahead.
        for _ in 0..18 {
            t.record(page(6), false, Ns::ZERO);
        }
        // Cooling drops writes to 2 (< 4): loses write-heavy but stays on
        // the hot list (second chance) because reads+writes still counted.
        t.record(page(5), false, Ns::ZERO);
        assert!(!t.is_write_heavy(page(5)));
        // Page 5 must still be somewhere on a hot or cold NVM queue.
        let on_hot = t.queue_len(Queue::NvmHot);
        assert!(on_hot >= 1, "second chance keeps page around");
    }

    #[test]
    fn placed_moves_between_tiers() {
        let mut t = tracker();
        for _ in 0..8 {
            t.record(page(7), false, Ns::ZERO);
        }
        let p = t.pop_promotion().expect("hot page");
        assert_eq!(p, page(7));
        t.placed(p, Tier::Dram);
        assert_eq!(t.queue_len(Queue::DramHot), 1);
    }

    #[test]
    fn pop_demotion_prefers_cold() {
        let mut t = tracker();
        // Move two pages to DRAM, one hot one cold.
        t.placed(page(0), Tier::Dram);
        for _ in 0..8 {
            t.record(page(1), false, Ns::ZERO);
        }
        let hot = t.pop_promotion().expect("hot");
        t.placed(hot, Tier::Dram);
        assert_eq!(t.pop_demotion(false), Some(page(0)));
        assert_eq!(t.pop_demotion(false), None, "no cold left, not allowed hot");
        assert_eq!(t.pop_demotion(true), Some(page(1)));
    }

    #[test]
    fn restore_requeues() {
        let mut t = tracker();
        t.placed(page(0), Tier::Dram);
        let p = t.pop_demotion(false).expect("cold dram page");
        t.restore(p);
        assert_eq!(t.queue_len(Queue::DramCold), 1);
    }

    #[test]
    fn untracked_regions_ignored() {
        let mut t = tracker();
        t.record(
            PageId {
                region: RegionId(9),
                index: 0,
            },
            false,
            Ns::ZERO,
        );
        assert_eq!(t.stats().records, 0);
        assert!(!t.tracks(RegionId(9)));
    }

    #[test]
    fn cooling_clock_is_time_gated() {
        let cfg = TrackerConfig {
            cooling_min_interval: Ns::secs(1),
            ..TrackerConfig::default()
        };
        let mut t = PageTracker::new(cfg);
        t.add_region(RegionId(0), 4);
        t.placed(page(0), Tier::Nvm);
        // 100 samples at t=2s: only one clock advance despite crossing the
        // threshold several times.
        for _ in 0..100 {
            t.record(page(0), false, Ns::secs(2));
        }
        assert_eq!(t.cool_clock(), 1);
        // Another burst after the interval: one more advance.
        for _ in 0..100 {
            t.record(page(0), false, Ns::secs(4));
        }
        assert_eq!(t.cool_clock(), 2);
    }

    #[test]
    fn rebuild_restores_queues_from_space_residency() {
        use hemem_vmm::{PageSize, PhysPage, RegionKind};
        let mut space = AddressSpace::new();
        let rid = space.mmap(4 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        let r = space.region_mut(rid);
        r.map_page(0, Tier::Dram, PhysPage(0));
        r.map_page(1, Tier::Nvm, PhysPage(0));
        r.map_page(2, Tier::Nvm, PhysPage(1));
        // Page 3 stays unmapped.
        let cfg = TrackerConfig {
            cooling_min_interval: Ns::ZERO,
            ..TrackerConfig::default()
        };
        let mut t = PageTracker::new(cfg);
        t.add_region(rid, 4);
        for i in 0..3 {
            t.placed(
                PageId {
                    region: rid,
                    index: i,
                },
                Tier::Nvm,
            ); // 0: stale tier
        }
        // Page 1 earns hot counters that must survive the crash.
        for _ in 0..8 {
            t.record(
                PageId {
                    region: rid,
                    index: 1,
                },
                false,
                Ns::ZERO,
            );
        }
        assert_eq!(
            t.residency_mismatches(&space),
            vec![(
                PageId {
                    region: rid,
                    index: 0
                },
                Some(Tier::Nvm),
                Some(Tier::Dram)
            )]
        );
        t.rebuild_from(&space);
        assert_eq!(t.residency_mismatches(&space), Vec::new());
        assert_eq!(t.queue_len(Queue::DramCold), 1, "page 0 follows the space");
        assert_eq!(t.queue_len(Queue::NvmHot), 1, "page 1 keeps its counters");
        assert_eq!(t.queue_len(Queue::NvmCold), 1, "page 2");
        assert_eq!(
            t.counters(PageId {
                region: rid,
                index: 1
            })
            .0,
            8
        );
        assert_eq!(
            t.counters(PageId {
                region: rid,
                index: 3
            }),
            (0, 0),
            "unmapped page forgotten"
        );
    }

    #[test]
    fn ssd_pages_go_off_queue_but_keep_counters() {
        let mut t = tracker();
        // Page earns hot counters, then is placed on the SSD tier.
        for _ in 0..8 {
            t.record(page(0), false, Ns::ZERO);
        }
        assert!(t.is_hot_page(page(0)));
        t.placed(page(0), Tier::Ssd);
        let total: usize = [
            Queue::DramHot,
            Queue::DramCold,
            Queue::NvmHot,
            Queue::NvmCold,
        ]
        .iter()
        .map(|&q| t.queue_len(q))
        .sum();
        assert_eq!(total, 15, "SSD page left every queue");
        // Samples and restores on an SSD-resident page are inert.
        t.record(page(0), true, Ns::ZERO);
        t.restore(page(0));
        t.mark_hot(page(0), true);
        assert_eq!(t.queue_len(Queue::NvmHot), 0);
        // Counters survive: promotion back to NVM re-enters hot.
        assert!(t.is_hot_page(page(0)));
        t.placed(page(0), Tier::Nvm);
        assert_eq!(t.queue_len(Queue::NvmHot), 1);
    }

    #[test]
    fn rebuild_keeps_ssd_pages_off_queue() {
        use hemem_vmm::{PageSize, PhysPage, RegionKind};
        let mut space = AddressSpace::new();
        let rid = space.mmap(2 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        let r = space.region_mut(rid);
        r.map_page(0, Tier::Ssd, PhysPage(0));
        r.map_page(1, Tier::Nvm, PhysPage(0));
        let cfg = TrackerConfig {
            cooling_min_interval: Ns::ZERO,
            ..TrackerConfig::default()
        };
        let mut t = PageTracker::new(cfg);
        t.add_region(rid, 2);
        t.rebuild_from(&space);
        assert_eq!(t.residency_mismatches(&space), Vec::new());
        assert_eq!(t.queue_len(Queue::NvmCold), 1, "only the NVM page queues");
        assert_eq!(t.queue_len(Queue::DramCold), 0);
    }

    #[test]
    fn remove_region_unlinks_everything() {
        let mut t = tracker();
        for _ in 0..8 {
            t.record(page(0), false, Ns::ZERO);
        }
        t.remove_region(RegionId(0));
        assert_eq!(t.queue_len(Queue::NvmHot), 0);
        assert_eq!(t.queue_len(Queue::NvmCold), 0);
        assert!(!t.tracks(RegionId(0)));
    }

    /// 64 NVM pages under multi-grain region tracking (8-page max span).
    fn region_tracker() -> PageTracker {
        let mut rcfg = super::RegionConfig::multi_grain();
        rcfg.max_span = 8;
        let cfg = TrackerConfig {
            cooling_min_interval: Ns::ZERO,
            regions: rcfg,
            ..TrackerConfig::default()
        };
        let mut t = PageTracker::new(cfg);
        t.add_region(RegionId(0), 64);
        for i in 0..64 {
            t.placed(page(i), Tier::Nvm);
        }
        t
    }

    #[test]
    fn region_selection_finds_hot_span_and_pins_it() {
        let mut t = region_tracker();
        assert!(t.regions_enabled());
        // Hammer page 20 until hot; its span heats with it.
        for _ in 0..8 {
            t.record(page(20), false, Ns::ZERO);
        }
        let picked = t.pop_region_promotion().expect("hot span yields a page");
        assert_eq!(picked, page(20), "the NvmHot member wins inside the span");
        // The pick is off-queue and pins its span: audit flags the pin as
        // an orphan when no journal entry justifies it...
        let orphans = t.region_violations(0);
        assert_eq!(orphans.len(), 1);
        assert!(matches!(
            orphans[0],
            AuditViolation::SplitMergeLeak { orphan_pins: 1, .. }
        ));
        // ...and is silent while one is in flight.
        assert_eq!(t.region_violations(1), Vec::new());
        // Migration completes: the page re-enters DRAM and unpins.
        t.placed(picked, Tier::Dram);
        assert_eq!(t.region_violations(0), Vec::new());
        assert_eq!(t.queue_len(Queue::DramHot), 1);
    }

    #[test]
    fn region_promotion_pulls_cold_neighbors_of_a_hot_span() {
        let mut t = region_tracker();
        for _ in 0..8 {
            t.record(page(20), false, Ns::ZERO);
        }
        let first = t.pop_region_promotion().expect("hot page");
        t.placed(first, Tier::Dram);
        // The span is still hot and still holds NVM pages: the next pick
        // is a *cold* page riding the hot span — the region-granularity
        // bet the flat tracker cannot make.
        let second = t.pop_region_promotion().expect("cold neighbor");
        assert_ne!(second, first);
        let (head, s) = {
            let stats = t.region_stats().unwrap();
            assert!(stats.select_index_ops > 0, "selection used the index");
            // The picked neighbor shares page 20's span.
            (16, stats.spans.min(64)) // head of the 8-page span holding 20
        };
        assert!(second.index >= head && second.index < head + 8, "{s}");
        t.restore(second);
        assert_eq!(t.region_violations(0), Vec::new(), "restore unpins");
    }

    #[test]
    fn region_demotion_prefers_cold_spans_then_any_dram() {
        let mut t = region_tracker();
        // Pages 0 and 20 move to DRAM; 20 is hot, 0 is cold.
        t.placed(page(0), Tier::Dram);
        for _ in 0..8 {
            t.record(page(20), false, Ns::ZERO);
        }
        let hot = t.pop_region_promotion().expect("hot");
        t.placed(hot, Tier::Dram);
        let victim = t.pop_region_demotion(false).expect("cold span victim");
        assert_eq!(victim, page(0), "cold DRAM page in a cold span first");
        t.placed(victim, Tier::Nvm);
        assert_eq!(t.pop_region_demotion(false), None, "only a hot page left");
        let fallback = t.pop_region_demotion(true).expect("allow_hot fallback");
        assert_eq!(fallback, page(20));
        t.restore(fallback);
    }

    #[test]
    fn region_audit_checks_the_candidate_indexes_through_split_and_merge() {
        let mut t = region_tracker();
        for _ in 0..24 {
            t.record(page(20), false, Ns::ZERO);
        }
        t.begin_region_period();
        assert_eq!(t.region_stats().unwrap().splits, 1, "span [16,24) split");
        // A DRAM page in the upper half flags its head in `demo` and
        // `dram_any` once the half cools; the merge must clear that head.
        t.placed(page(20), Tier::Dram);
        for _ in 0..12 {
            t.begin_region_period();
            assert_eq!(t.region_violations(0), Vec::new());
        }
        let stats = t.region_stats().unwrap();
        assert_eq!((stats.merges, stats.spans), (1, 8), "halves reunited");
    }

    #[test]
    fn region_rebuild_recounts_spans_from_surviving_meta() {
        use hemem_vmm::{PageSize, PhysPage, RegionKind};
        let mut space = AddressSpace::new();
        let rid = space.mmap(64 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        let r = space.region_mut(rid);
        for i in 0..64 {
            let tier = if i < 8 { Tier::Dram } else { Tier::Nvm };
            r.map_page(i, tier, PhysPage(i));
        }
        let mut rcfg = super::RegionConfig::multi_grain();
        rcfg.max_span = 8;
        let cfg = TrackerConfig {
            cooling_min_interval: Ns::ZERO,
            regions: rcfg,
            ..TrackerConfig::default()
        };
        let mut t = PageTracker::new(cfg);
        t.add_region(rid, 64);
        // Crash before any placed() call: spans know nothing. A pick in
        // flight would also have left a dangling pin — rebuild clears it.
        t.rebuild_from(&space);
        assert_eq!(t.region_violations(0), Vec::new(), "recount matches meta");
        let stats = t.region_stats().unwrap();
        assert_eq!(stats.spans, 8, "64 pages / 8-page spans");
    }

    #[test]
    fn region_pops_touch_pages_up_to_the_pick() {
        let mut t = region_tracker();
        let touched = |t: &PageTracker| t.region_stats().unwrap().select_pages_touched;
        for _ in 0..8 {
            t.record(page(20), false, Ns::ZERO);
        }
        // A hit mid-span: the NvmHot page 20 is the fifth page of [16, 24).
        assert_eq!(t.pop_region_promotion(), Some(page(20)));
        assert_eq!(touched(&t), 5);
        t.placed(page(20), Tier::Dram);
        // A fallback: no NvmHot member left, so the whole span is read
        // and its first NvmCold page rides the heat.
        assert_eq!(t.pop_region_promotion(), Some(page(16)));
        assert_eq!(touched(&t), 13);
        for i in [17, 18, 19, 21, 22, 23] {
            assert_eq!(t.pop_region_promotion(), Some(page(i)));
        }
        assert_eq!(touched(&t), 61);
        // A dry span: still flagged (its NVM pages are in flight) but no
        // queue member, so it is read in full and the cursor moves on.
        assert_eq!(t.pop_region_promotion(), None);
        assert_eq!(touched(&t), 69);
        // Demotion: page 3 is a cold DRAM page, the fourth of [0, 8).
        t.placed(page(3), Tier::Dram);
        assert_eq!(t.pop_region_demotion(false), Some(page(3)));
        assert_eq!(touched(&t), 73);
        // [0, 8) stays flagged while page 3 is in flight: a dry span.
        assert_eq!(t.pop_region_demotion(false), None);
        assert_eq!(touched(&t), 81);
        // The `allow_hot` pass reads [0, 8) dry again, then falls back to
        // the hot page 20 after reading all of [16, 24).
        assert_eq!(t.pop_region_demotion(true), Some(page(20)));
        assert_eq!(touched(&t), 97);
    }

    #[test]
    fn flat_config_has_no_region_machinery() {
        let t = tracker();
        assert!(!t.regions_enabled());
        assert_eq!(t.region_stats(), None);
        assert_eq!(t.region_violations(0), Vec::new());
    }
}
