//! Multi-grained region hotness tracking (HM-Keeper style).
//!
//! Per-page trackers stop scaling: a TB-class tenant is ~500K huge
//! pages, and any maintenance that walks flat per-page state costs a
//! pass over all of them. The [`RegionTracker`] aggregates page hotness
//! into variable-granularity *spans* — power-of-two page runs between
//! `min_span` and `max_span` (1–512 huge pages by default), buddy-
//! aligned so split and merge stay deterministic — each carrying an
//! exponentially-decaying integer temperature fed by PEBS samples. Every
//! policy period one in-place walk decays the spans and collects the hot
//! ones, which then split (heat localizes), and adjacent cold buddies
//! merge (cold footprint collapses into a few large spans). The walk
//! costs one step per span and writes a candidate index only where a
//! span's flags change; a cold span is one temperature test. Candidate
//! selection walks a Fenwick-backed flag index over span heads instead
//! of per-page queues, and only touches per-page state *inside* chosen
//! spans — policy-pass cost grows with the number of live spans, not the
//! number of pages.
//!
//! Spans are stored in a slab with a page → slab-entry `owner` map, so
//! every per-page event (a sample, a residency move, a pin) finds its
//! span in two loads instead of an ordered-map search, and the period
//! walks (decay, merge) run over the slab in place. Split rewrites the
//! owner entries of its upper half, merge those of its right half; the
//! auditor checks that every page's owner names the span covering it.
//!
//! The tracker is deliberately a pure bookkeeping layer: the
//! [`PageTracker`](super::tracker::PageTracker) owns per-page metadata
//! and queue linkage, drives split weighting from surviving per-page
//! counters, and reconciles the region view after a crash
//! (`rebuild_from`). In-flight migrations pin their span: a pinned span
//! never splits or merges until the journal entry completes or rolls
//! back, so recovery always finds span boundaries consistent with the
//! journal.

use std::collections::BTreeMap;

use hemem_vmm::{FlagTree, RegionId, Tier};

/// Region-tracking configuration, carried inside
/// [`TrackerConfig`](super::tracker::TrackerConfig). Off by default:
/// with `enabled = false` the tracker is not constructed and every flat
/// code path is byte-identical to a build without this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionConfig {
    /// Whether region tracking is active.
    pub enabled: bool,
    /// Smallest span a split may produce, in pages (power of two).
    pub min_span: u64,
    /// Largest span a merge may produce, in pages (power of two).
    pub max_span: u64,
    /// Spans at or above this temperature split each policy period.
    pub split_temperature: u32,
    /// Buddy spans at or below this temperature merge each period.
    pub merge_temperature: u32,
    /// Spans at or above this temperature are promotion candidates.
    pub promote_temperature: u32,
    /// Exponential decay per policy period: `temp -= max(temp >> shift,
    /// 1)` (the floor step lets every span reach zero).
    pub decay_shift: u32,
}

impl Default for RegionConfig {
    fn default() -> Self {
        RegionConfig {
            enabled: false,
            min_span: 1,
            max_span: 512,
            split_temperature: 16,
            merge_temperature: 2,
            promote_temperature: 8,
            decay_shift: 2,
        }
    }
}

impl RegionConfig {
    /// The adaptive multi-grain configuration (1–512-page spans).
    pub fn multi_grain() -> RegionConfig {
        RegionConfig {
            enabled: true,
            ..RegionConfig::default()
        }
    }

    /// The flat per-page baseline: every page is its own permanent
    /// 1-page span, so per-period maintenance walks one span per page —
    /// exactly the linear cost the multi-grain tracker exists to avoid.
    /// Used by `scalebench` as the scaling comparison.
    pub fn flat_baseline() -> RegionConfig {
        RegionConfig {
            enabled: true,
            min_span: 1,
            max_span: 1,
            ..RegionConfig::default()
        }
    }
}

/// Region-layer counters. Backend-side (never part of the machine
/// fingerprint); `scalebench` derives its policy-pass cost metric from
/// the maintenance + selection fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Live spans across all tracked regions.
    pub spans: u64,
    /// Hot-span splits applied.
    pub splits: u64,
    /// Cold buddy merges applied.
    pub merges: u64,
    /// Span temperature decays applied (one per span per period).
    pub decay_ops: u64,
    /// Fenwick index operations during candidate selection.
    pub select_index_ops: u64,
    /// Per-page state touches inside chosen spans during selection and
    /// split weighting.
    pub select_pages_touched: u64,
    /// Sample-driven span updates (temperature bumps, residency moves).
    pub sample_ops: u64,
    /// Policy periods processed (decay/split/merge passes).
    pub periods: u64,
}

impl RegionStats {
    /// Folds another tracker's counters into this one (per-tenant
    /// trackers aggregate into one machine-level view).
    pub fn merge(&mut self, o: &RegionStats) {
        self.spans += o.spans;
        self.splits += o.splits;
        self.merges += o.merges;
        self.decay_ops += o.decay_ops;
        self.select_index_ops += o.select_index_ops;
        self.select_pages_touched += o.select_pages_touched;
        self.sample_ops += o.sample_ops;
        self.periods = self.periods.max(o.periods);
    }

    /// Maintenance + selection work per policy period — the quantity
    /// that must stay sublinear in footprint.
    pub fn policy_cost_per_period(&self) -> f64 {
        let work = self.decay_ops
            + self.splits
            + self.merges
            + self.select_index_ops
            + self.select_pages_touched;
        work as f64 / self.periods.max(1) as f64
    }
}

/// One span's state; the tracker stores these and hands out copies for
/// audits and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanView {
    /// Pages covered.
    pub len: u64,
    /// Decaying temperature.
    pub temp: u32,
    /// DRAM-resident pages inside.
    pub dram: u64,
    /// NVM-resident pages inside.
    pub nvm: u64,
    /// In-flight migrations pinning the span.
    pub pinned: u32,
}

/// Split weighting for one half of a span, computed by the caller from
/// per-page counters so temperature follows the heat, not the midpoint.
#[derive(Debug, Clone, Copy, Default)]
pub struct SplitHalf {
    /// Sum of per-page access counters in this half.
    pub weight: u64,
    /// DRAM-resident pages in this half.
    pub dram: u64,
    /// NVM-resident pages in this half.
    pub nvm: u64,
}

/// The candidate indexes, in `RegionView::flags` order: `promo` flags
/// hot spans holding NVM pages, `demo` flags not-hot spans holding DRAM
/// pages, `dram_any` flags any span holding DRAM pages (the `allow_hot`
/// demotion fallback).
const INDEX_NAMES: [&str; 3] = ["promo", "demo", "dram_any"];
const PROMO: usize = 0;
const DEMO: usize = 1;
const DRAM_ANY: usize = 2;

/// One tracked region's span set plus its candidate indexes: one
/// [`FlagTree`] per [`INDEX_NAMES`] entry, keyed by span-head page index.
/// Every flag equals [`RegionTracker::derive_flags`] at each span head
/// and is clear everywhere else (audited as `RegionIndexMismatch`).
///
/// Spans live in a slab of `(head, span)` entries in no particular
/// order, and `owner` names the slab entry of the span covering each
/// page, so a lookup by page is `slab[owner[i]]` and an address-order
/// walk steps `owner` by span length. A split writes `owner` for its
/// upper half; a merge writes it for its right half and frees that
/// entry (zeroed, so `len == 0`) onto `free` for the next split to
/// reuse. Equality is logical: the ordered spans, flags and counters,
/// not slab positions or free-list order.
#[derive(Debug, Clone)]
struct RegionView {
    pages: u64,
    slab: Vec<(u64, SpanView)>,
    free: Vec<u32>,
    owner: Vec<u32>,
    flags: [FlagTree; 3],
    /// Incremental span accounting, cross-checked against the address-
    /// order walk by the auditor (`SplitMergeLeak`).
    live_spans: u64,
    /// Incremental page coverage, ditto.
    covered: u64,
}

impl PartialEq for RegionView {
    fn eq(&self, o: &RegionView) -> bool {
        self.pages == o.pages
            && self.live_spans == o.live_spans
            && self.covered == o.covered
            && self.flags == o.flags
            && self.ordered().eq(o.ordered())
    }
}

impl Eq for RegionView {}

impl RegionView {
    /// Slab index of the span covering page `index`.
    fn slot_of(&self, index: u64) -> Option<usize> {
        self.owner.get(index as usize).map(|&k| k as usize)
    }

    /// Slab index of the span whose head is exactly `head`.
    fn slot_at(&self, head: u64) -> Option<usize> {
        self.slot_of(head).filter(|&k| self.slab[k].0 == head)
    }

    /// The spans in address order. The walk stops early at a page whose
    /// owner entry is not a live span starting there — a broken tiling,
    /// which the auditor reports as a coverage gap.
    fn ordered(&self) -> impl Iterator<Item = (u64, SpanView)> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let &(head, s) = self.slab.get(self.slot_of(at)?)?;
            (head == at && s.len > 0).then(|| {
                at += s.len;
                (head, s)
            })
        })
    }

    /// Stores a span in a free slab entry (or a new one) and points its
    /// pages' owner entries at it.
    fn insert(&mut self, head: u64, s: SpanView) {
        let k = match self.free.pop() {
            Some(k) => {
                self.slab[k as usize] = (head, s);
                k
            }
            None => {
                self.slab.push((head, s));
                (self.slab.len() - 1) as u32
            }
        };
        self.owner[head as usize..(head + s.len) as usize].fill(k);
    }
}

/// The region layer: per-region span sets with deterministic
/// split/merge and Fenwick-backed candidate indexes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionTracker {
    cfg: RegionConfig,
    views: BTreeMap<RegionId, RegionView>,
    stats: RegionStats,
}

impl RegionTracker {
    /// Creates an empty region tracker.
    pub fn new(cfg: RegionConfig) -> RegionTracker {
        assert!(
            cfg.min_span.is_power_of_two() && cfg.max_span.is_power_of_two(),
            "span bounds must be powers of two"
        );
        assert!(cfg.min_span <= cfg.max_span, "min_span must be <= max_span");
        RegionTracker {
            cfg,
            views: BTreeMap::new(),
            stats: RegionStats::default(),
        }
    }

    /// Empties the tracker back to its just-constructed state (same
    /// config, no views, zero counters) without dropping the container
    /// allocations — the slot-pool scrub path, where a recycled
    /// tenant's region layer must be indistinguishable from a fresh
    /// one.
    pub fn reset(&mut self) {
        self.views.clear();
        self.stats = RegionStats::default();
    }

    /// Counters.
    pub fn stats(&self) -> RegionStats {
        self.stats
    }

    /// Registers a region of `pages` pages, tiled greedily into the
    /// largest aligned power-of-two spans `<= max_span`.
    pub fn add_region(&mut self, region: RegionId, pages: u64) {
        let mut view = RegionView {
            pages,
            slab: Vec::new(),
            free: Vec::new(),
            owner: vec![0; pages as usize],
            flags: std::array::from_fn(|_| FlagTree::new(pages as usize)),
            live_spans: 0,
            covered: 0,
        };
        let mut at = 0u64;
        while at < pages {
            let align = if at == 0 {
                self.cfg.max_span
            } else {
                at & at.wrapping_neg()
            };
            let mut len = align.min(self.cfg.max_span);
            while at + len > pages {
                len /= 2;
            }
            debug_assert!(len >= 1);
            let span = SpanView {
                len,
                ..SpanView::default()
            };
            view.insert(at, span);
            view.live_spans += 1;
            view.covered += len;
            at += len;
        }
        self.stats.spans += view.live_spans;
        self.views.insert(region, view);
    }

    /// Forgets a region.
    pub fn remove_region(&mut self, region: RegionId) {
        if let Some(view) = self.views.remove(&region) {
            self.stats.spans -= view.live_spans;
        }
    }

    /// Whether `region` is tracked.
    pub fn tracks(&self, region: RegionId) -> bool {
        self.views.contains_key(&region)
    }

    /// Span containing `index`: `(head, snapshot)`.
    pub fn span_of(&self, region: RegionId, index: u64) -> Option<(u64, SpanView)> {
        let view = self.views.get(&region)?;
        Some(view.slab[view.slot_of(index)?])
    }

    /// All spans of a region in address order, for audits and tests.
    pub fn spans(&self, region: RegionId) -> Vec<(u64, SpanView)> {
        self.views
            .get(&region)
            .map(|v| v.ordered().collect())
            .unwrap_or_default()
    }

    /// Incremental accounting for the auditor: `(live_spans, covered,
    /// pages, pinned_total)`.
    pub fn accounting(&self, region: RegionId) -> Option<(u64, u64, u64, u64)> {
        let v = self.views.get(&region)?;
        let pinned: u64 = v.slab.iter().map(|(_, s)| s.pinned as u64).sum();
        Some((v.live_spans, v.covered, v.pages, pinned))
    }

    /// Candidate-index disagreements for the auditor, as `(page, index
    /// name)`: every span head whose flag differs from what the span's
    /// state implies, and for an index holding more flags than its
    /// flagged heads, the first stray flag off a head.
    pub(crate) fn index_mismatches(&self, region: RegionId) -> Vec<(u64, &'static str)> {
        let mut out = Vec::new();
        let Some(v) = self.views.get(&region) else {
            return out;
        };
        let mut flagged = [0u64; 3];
        for (head, s) in v.ordered() {
            for (k, want) in Self::derive_flags(&self.cfg, &s).into_iter().enumerate() {
                let got = v.flags[k].get(head as usize);
                flagged[k] += got as u64;
                if got != want {
                    out.push((head, INDEX_NAMES[k]));
                }
            }
        }
        for (k, t) in v.flags.iter().enumerate() {
            if t.count() != flagged[k] {
                let stray = (0..v.pages).find(|&i| t.get(i as usize) && v.slot_at(i).is_none());
                out.push((stray.unwrap_or(v.pages), INDEX_NAMES[k]));
            }
        }
        out
    }

    /// The first page whose `owner` entry does not name the span
    /// covering it (a split or merge that failed to rewrite it), for the
    /// auditor's coverage check.
    pub(crate) fn stray_owner(&self, region: RegionId) -> Option<u64> {
        let v = self.views.get(&region)?;
        v.ordered().find_map(|(head, s)| {
            let k = v.owner[head as usize];
            (head..head + s.len).find(|&i| v.owner[i as usize] != k)
        })
    }

    /// The flag a span's state implies for each index, in
    /// [`INDEX_NAMES`] order.
    fn derive_flags(cfg: &RegionConfig, s: &SpanView) -> [bool; 3] {
        let hot = s.temp >= cfg.promote_temperature;
        [hot && s.nvm > 0, !hot && s.dram > 0, s.dram > 0]
    }

    /// Sets the indexes at `head` to the flags span `s` implies (an
    /// empty default span clears a head that stopped being one).
    fn set_flags(cfg: &RegionConfig, flags: &mut [FlagTree; 3], head: u64, s: &SpanView) {
        for (t, v) in flags.iter_mut().zip(Self::derive_flags(cfg, s)) {
            t.set(head as usize, v);
        }
    }

    /// Feeds one sampled access into the owning span's temperature
    /// (stores weigh double, mirroring write priority).
    pub fn note_sample(&mut self, region: RegionId, index: u64, is_write: bool) {
        let Some(view) = self.views.get_mut(&region) else {
            return;
        };
        let Some(k) = view.slot_of(index) else {
            return;
        };
        let (head, s) = &mut view.slab[k];
        s.temp = s.temp.saturating_add(if is_write { 2 } else { 1 });
        Self::set_flags(&self.cfg, &mut view.flags, *head, s);
        self.stats.sample_ops += 1;
    }

    /// Tracks a page's residency move so span DRAM/NVM counts (and the
    /// candidate indexes) stay consistent with per-page state. SSD and
    /// unmapped placements count as neither.
    pub fn residency_changed(
        &mut self,
        region: RegionId,
        index: u64,
        old: Option<Tier>,
        new: Option<Tier>,
    ) {
        if old == new {
            return;
        }
        let Some(view) = self.views.get_mut(&region) else {
            return;
        };
        let Some(k) = view.slot_of(index) else {
            return;
        };
        let (head, s) = &mut view.slab[k];
        match old {
            Some(Tier::Dram) => s.dram = s.dram.saturating_sub(1),
            Some(Tier::Nvm) => s.nvm = s.nvm.saturating_sub(1),
            _ => {}
        }
        match new {
            Some(Tier::Dram) => s.dram += 1,
            Some(Tier::Nvm) => s.nvm += 1,
            _ => {}
        }
        Self::set_flags(&self.cfg, &mut view.flags, *head, s);
        self.stats.sample_ops += 1;
    }

    /// Pins the span owning `index` (a migration is in flight inside
    /// it); pinned spans neither split nor merge.
    pub fn pin(&mut self, region: RegionId, index: u64) {
        if let Some(view) = self.views.get_mut(&region) {
            if let Some(k) = view.slot_of(index) {
                view.slab[k].1.pinned += 1;
            }
        }
    }

    /// Releases one pin on the span owning `index`.
    pub fn unpin(&mut self, region: RegionId, index: u64) {
        if let Some(view) = self.views.get_mut(&region) {
            if let Some(k) = view.slot_of(index) {
                let s = &mut view.slab[k].1;
                s.pinned = s.pinned.saturating_sub(1);
            }
        }
    }

    /// Clears every pin in a region (journal rolled back on recovery).
    pub fn clear_pins(&mut self, region: RegionId) {
        if let Some(view) = self.views.get_mut(&region) {
            for (_, s) in &mut view.slab {
                s.pinned = 0;
            }
        }
    }

    /// Overwrites one span's residency summary from an authoritative
    /// per-page recount (crash recovery).
    pub fn reset_span(&mut self, region: RegionId, head: u64, dram: u64, nvm: u64) {
        if let Some(view) = self.views.get_mut(&region) {
            if let Some(k) = view.slot_at(head) {
                let s = &mut view.slab[k].1;
                s.dram = dram;
                s.nvm = nvm;
                s.pinned = 0;
                Self::set_flags(&self.cfg, &mut view.flags, head, s);
            }
        }
    }

    /// Counts per-page work done by the caller inside chosen spans.
    pub fn note_pages_touched(&mut self, n: u64) {
        self.stats.select_pages_touched += n;
    }

    /// Applies the per-period exponential decay to every span in one
    /// in-place slab walk and returns the spans due to split this period
    /// (hot, splittable, and unpinned) as `(region, head, len)` in
    /// address order: each region's few candidates are sorted by head.
    /// Each span costs one step, and an index is written only where the
    /// decay changed that span's flag; a span at temperature 0 cannot
    /// change and is one test. The whole point of merging cold spans is
    /// keeping this walk short.
    pub fn decay(&mut self) -> Vec<(RegionId, u64, u64)> {
        let cfg = self.cfg;
        self.stats.periods += 1;
        let mut split = Vec::new();
        for (&region, view) in &mut self.views {
            self.stats.decay_ops += view.live_spans;
            let first = split.len();
            for &mut (head, ref mut s) in &mut view.slab {
                if s.len == 0 {
                    continue; // a free slab entry
                }
                if s.temp > 0 {
                    let before = Self::derive_flags(&cfg, s);
                    s.temp -= (s.temp >> cfg.decay_shift).max(1);
                    let after = Self::derive_flags(&cfg, s);
                    for (k, t) in view.flags.iter_mut().enumerate() {
                        if before[k] != after[k] {
                            t.set(head as usize, after[k]);
                        }
                    }
                }
                if s.temp >= cfg.split_temperature && s.len > cfg.min_span && s.pinned == 0 {
                    split.push((region, head, s.len));
                }
            }
            split[first..].sort_unstable_by_key(|&(_, head, _)| head);
        }
        split
    }

    /// Splits the span at `head` into buddy halves, distributing its
    /// temperature by the caller-supplied per-half counter weights (heat
    /// follows the pages that earned it; an even split when neither half
    /// has history).
    pub fn apply_split(&mut self, region: RegionId, head: u64, left: SplitHalf, right: SplitHalf) {
        let Some(view) = self.views.get_mut(&region) else {
            return;
        };
        let Some(k) = view.slot_at(head) else {
            return;
        };
        let s = &mut view.slab[k].1;
        if s.len <= self.cfg.min_span || s.pinned != 0 {
            return;
        }
        let half = s.len / 2;
        let total_w = left.weight + right.weight;
        let left_temp = (s.temp as u64 * left.weight)
            .checked_div(total_w)
            .map_or(s.temp / 2, |t| t as u32);
        let half_span = |temp, h: SplitHalf| SpanView {
            len: half,
            temp,
            dram: h.dram,
            nvm: h.nvm,
            pinned: 0,
        };
        let upper = half_span(s.temp - left_temp.min(s.temp), right);
        *s = half_span(left_temp, left);
        Self::set_flags(&self.cfg, &mut view.flags, head, s);
        Self::set_flags(&self.cfg, &mut view.flags, head + half, &upper);
        view.insert(head + half, upper);
        view.live_spans += 1;
        self.stats.spans += 1;
        self.stats.splits += 1;
    }

    /// Merges adjacent cold buddy spans (both at or under the merge
    /// temperature, unpinned, buddy-aligned, combined span within
    /// `max_span`). One pass per period; chains collapse across periods.
    ///
    /// Only a left buddy (`head % 2len == 0`) starts a merge, checking
    /// the span at `owner[head + len]`. A right buddy's head is `len`
    /// past a `2len` boundary, so it never starts a merge of its own, and
    /// no two pairs share a span: the pairs found do not depend on the
    /// order the slab is walked in. They are applied in head order.
    pub fn merge_pass(&mut self) {
        let cfg = self.cfg;
        let cold = |s: &SpanView| s.temp <= cfg.merge_temperature && s.pinned == 0;
        for view in self.views.values_mut() {
            let mut merges: Vec<(u64, usize, usize)> = Vec::new();
            for (k, (h, a)) in view.slab.iter().enumerate() {
                if a.len == 0 || 2 * a.len > cfg.max_span || h % (2 * a.len) != 0 || !cold(a) {
                    continue;
                }
                if let Some(j) = view.slot_at(h + a.len) {
                    let b = &view.slab[j].1;
                    if b.len == a.len && cold(b) {
                        merges.push((*h, k, j));
                    }
                }
            }
            merges.sort_unstable();
            for (h1, k, j) in merges {
                let (_, right) = std::mem::take(&mut view.slab[j]);
                view.free.push(j as u32);
                let len = right.len;
                view.owner[(h1 + len) as usize..(h1 + 2 * len) as usize].fill(k as u32);
                Self::set_flags(&cfg, &mut view.flags, h1 + len, &SpanView::default());
                let s = &mut view.slab[k].1;
                s.len += len;
                s.temp = s.temp.saturating_add(right.temp);
                s.dram += right.dram;
                s.nvm += right.nvm;
                Self::set_flags(&cfg, &mut view.flags, h1, s);
                view.live_spans -= 1;
                self.stats.spans -= 1;
                self.stats.merges += 1;
            }
        }
    }

    /// First promotion-candidate span strictly after `cursor`
    /// (`(region, head)` address order): a hot span holding NVM pages.
    /// Returns `(region, head, len)`.
    pub fn first_promo_span_after(
        &mut self,
        cursor: Option<(RegionId, u64)>,
    ) -> Option<(RegionId, u64, u64)> {
        self.first_span_after(cursor, PROMO)
    }

    /// First demotion-candidate span after `cursor`: a not-hot span
    /// holding DRAM pages.
    pub fn first_demo_span_after(
        &mut self,
        cursor: Option<(RegionId, u64)>,
    ) -> Option<(RegionId, u64, u64)> {
        self.first_span_after(cursor, DEMO)
    }

    /// First span holding any DRAM page after `cursor` (the `allow_hot`
    /// demotion fallback).
    pub fn first_dram_span_after(
        &mut self,
        cursor: Option<(RegionId, u64)>,
    ) -> Option<(RegionId, u64, u64)> {
        self.first_span_after(cursor, DRAM_ANY)
    }

    fn first_span_after(
        &mut self,
        cursor: Option<(RegionId, u64)>,
        index: usize,
    ) -> Option<(RegionId, u64, u64)> {
        let (from_region, from_page) = match cursor {
            Some((r, p)) => (r, p),
            None => (*self.views.keys().next()?, 0),
        };
        for (&region, view) in self.views.range(from_region..) {
            let lo = if region == from_region { from_page } else { 0 };
            self.stats.select_index_ops += 1;
            if let Some(head) = view.flags[index].first_set_in(lo as usize) {
                let len = view.slab[view.owner[head] as usize].1.len;
                return Some((region, head as u64, len));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn rid() -> RegionId {
        RegionId(0)
    }

    #[test]
    fn tiling_covers_exactly_with_aligned_powers_of_two() {
        let mut rt = RegionTracker::new(RegionConfig::multi_grain());
        // 1300 pages: 2x512 + 256 + 16 + 4 (greedy buddy tiling).
        rt.add_region(rid(), 1300);
        let spans = rt.spans(rid());
        let mut at = 0;
        for (head, s) in &spans {
            assert_eq!(*head, at, "contiguous");
            assert!(s.len.is_power_of_two());
            assert_eq!(head % s.len, 0, "buddy aligned");
            at += s.len;
        }
        assert_eq!(at, 1300, "full coverage");
        let (live, covered, pages, pinned) = rt.accounting(rid()).unwrap();
        assert_eq!(
            (live, covered, pages, pinned),
            (spans.len() as u64, 1300, 1300, 0)
        );
    }

    #[test]
    fn flat_baseline_is_one_span_per_page() {
        let mut rt = RegionTracker::new(RegionConfig::flat_baseline());
        rt.add_region(rid(), 64);
        assert_eq!(rt.spans(rid()).len(), 64);
        assert!(rt.decay().is_empty(), "1-page spans never split");
        assert_eq!(rt.stats().decay_ops, 64, "per-period cost is linear");
        rt.merge_pass();
        assert_eq!(rt.stats().merges, 0, "max_span 1 never merges");
    }

    #[test]
    fn samples_heat_and_decay_cools() {
        let mut cfg = RegionConfig::multi_grain();
        cfg.decay_shift = 1;
        let mut rt = RegionTracker::new(cfg);
        rt.add_region(rid(), 512);
        rt.residency_changed(rid(), 3, None, Some(Tier::Nvm));
        for _ in 0..4 {
            rt.note_sample(rid(), 3, true); // stores weigh 2
        }
        let (head, s) = rt.span_of(rid(), 3).unwrap();
        assert_eq!((head, s.temp), (0, 8));
        assert!(rt.views[&rid()].flags[PROMO].get(0), "hot + nvm -> promo");
        for _ in 0..4 {
            rt.decay();
        }
        let (_, s) = rt.span_of(rid(), 3).unwrap();
        assert_eq!(s.temp, 0, "decays to zero via the floor step");
        assert!(!rt.views[&rid()].flags[PROMO].get(0));
    }

    #[test]
    fn split_follows_the_heat_and_merge_reunites() {
        let mut cfg = RegionConfig::multi_grain();
        cfg.max_span = 8;
        let mut rt = RegionTracker::new(cfg);
        rt.add_region(rid(), 8);
        rt.residency_changed(rid(), 6, None, Some(Tier::Nvm));
        for _ in 0..21 {
            rt.note_sample(rid(), 6, false);
        }
        // The period walk decays 21 to 16 and reports the span hot.
        let cands = rt.decay();
        assert_eq!(cands, vec![(rid(), 0, 8)]);
        // All the counter weight sits in the right half.
        rt.apply_split(
            rid(),
            0,
            SplitHalf::default(),
            SplitHalf {
                weight: 16,
                dram: 0,
                nvm: 1,
            },
        );
        let spans = rt.spans(rid());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].1.temp, 0, "cold half inherits nothing");
        assert_eq!(spans[1].1.temp, 16, "heat follows the hot half");
        assert_eq!(spans[1].1.nvm, 1);
        // Cool both halves below the merge bar; the buddies reunite.
        for _ in 0..8 {
            rt.decay();
        }
        rt.merge_pass();
        let spans = rt.spans(rid());
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].1.len, 8);
        assert_eq!(rt.stats().splits, 1);
        assert_eq!(rt.stats().merges, 1);
    }

    #[test]
    fn pinned_spans_refuse_split_and_merge() {
        let mut cfg = RegionConfig::multi_grain();
        cfg.max_span = 4;
        let mut rt = RegionTracker::new(cfg);
        rt.add_region(rid(), 4);
        rt.pin(rid(), 1);
        for _ in 0..30 {
            rt.note_sample(rid(), 0, false);
        }
        assert!(rt.decay().is_empty(), "pinned span holds");
        rt.unpin(rid(), 1);
        assert_eq!(rt.decay().len(), 1);
        // Pin again after a manual split; the cold buddies must not merge.
        rt.apply_split(rid(), 0, SplitHalf::default(), SplitHalf::default());
        for _ in 0..8 {
            rt.decay();
        }
        rt.pin(rid(), 0);
        rt.merge_pass();
        assert_eq!(rt.spans(rid()).len(), 2, "pinned buddy refuses merge");
        rt.clear_pins(rid());
        rt.merge_pass();
        assert_eq!(rt.spans(rid()).len(), 1);
    }

    #[test]
    fn candidate_walk_uses_the_index_in_address_order() {
        let mut cfg = RegionConfig::multi_grain();
        cfg.max_span = 4;
        let mut rt = RegionTracker::new(cfg);
        rt.add_region(RegionId(1), 8);
        rt.add_region(RegionId(2), 4);
        // Heat span [4,8) of region 1 and all of region 2.
        for i in [4, 5] {
            rt.residency_changed(RegionId(1), i, None, Some(Tier::Nvm));
        }
        rt.residency_changed(RegionId(2), 0, None, Some(Tier::Nvm));
        for _ in 0..8 {
            rt.note_sample(RegionId(1), 4, false);
            rt.note_sample(RegionId(2), 1, false);
        }
        let first = rt.first_promo_span_after(None).unwrap();
        assert_eq!(first, (RegionId(1), 4, 4));
        let second = rt.first_promo_span_after(Some((RegionId(1), 8))).unwrap();
        assert_eq!(second, (RegionId(2), 0, 4));
        assert!(rt.first_promo_span_after(Some((RegionId(2), 4))).is_none());
        // Demotion index: nothing holds DRAM yet.
        assert!(rt.first_demo_span_after(None).is_none());
        rt.residency_changed(RegionId(1), 0, None, Some(Tier::Dram));
        assert_eq!(rt.first_demo_span_after(None), Some((RegionId(1), 0, 4)));
        assert_eq!(rt.first_dram_span_after(None), Some((RegionId(1), 0, 4)));
    }

    #[test]
    fn index_audit_reports_wrong_head_flags_and_stray_flags() {
        let mut cfg = RegionConfig::multi_grain();
        cfg.max_span = 4;
        let mut rt = RegionTracker::new(cfg);
        rt.add_region(rid(), 8);
        rt.residency_changed(rid(), 5, None, Some(Tier::Dram));
        assert_eq!(rt.index_mismatches(rid()), vec![]);
        let view = rt.views.get_mut(&rid()).unwrap();
        view.flags[DEMO].set(4, false); // a head missing its flag
        view.flags[PROMO].set(6, true); // a flag off every head
        assert_eq!(rt.index_mismatches(rid()), vec![(4, "demo"), (6, "promo")]);
    }

    #[test]
    fn owner_audit_reports_a_page_naming_the_wrong_span() {
        let mut cfg = RegionConfig::multi_grain();
        cfg.max_span = 4;
        let mut rt = RegionTracker::new(cfg);
        rt.add_region(rid(), 8);
        rt.apply_split(rid(), 4, SplitHalf::default(), SplitHalf::default());
        rt.merge_pass();
        assert_eq!(rt.spans(rid()).len(), 2, "the cold halves reunited");
        assert_eq!(rt.stray_owner(rid()), None);
        // A merge that skipped rewriting its right half's owner entries
        // would leave page 6 naming the freed slab entry.
        let view = rt.views.get_mut(&rid()).unwrap();
        view.owner[6] = view.free[0];
        assert_eq!(rt.stray_owner(rid()), Some(6));
    }

    /// The reference the incremental tracker must match: the same span
    /// semantics with nothing incremental. Every span decays each period,
    /// split candidates are a fresh scan after the decay, merges pair up
    /// over a snapshot, and the expected flags are recomputed from the
    /// spans at every check.
    struct Model {
        cfg: RegionConfig,
        views: BTreeMap<RegionId, (u64, BTreeMap<u64, SpanView>)>,
        stats: RegionStats,
    }

    impl Model {
        fn span_mut(&mut self, region: RegionId, index: u64) -> Option<&mut SpanView> {
            let (_, spans) = self.views.get_mut(&region)?;
            spans.range_mut(..=index).next_back().map(|(_, s)| s)
        }

        fn add_region(&mut self, region: RegionId, pages: u64) {
            let mut spans = BTreeMap::new();
            let mut at = 0;
            while at < pages {
                let mut len = self.cfg.max_span;
                while at % len != 0 || at + len > pages {
                    len /= 2;
                }
                let s = SpanView {
                    len,
                    temp: 0,
                    dram: 0,
                    nvm: 0,
                    pinned: 0,
                };
                spans.insert(at, s);
                at += len;
            }
            self.stats.spans += spans.len() as u64;
            self.views.insert(region, (pages, spans));
        }

        fn decay(&mut self) -> Vec<(RegionId, u64, u64)> {
            self.stats.periods += 1;
            for (_, spans) in self.views.values_mut() {
                for s in spans.values_mut() {
                    if s.temp > 0 {
                        s.temp -= (s.temp >> self.cfg.decay_shift).max(1);
                    }
                    self.stats.decay_ops += 1;
                }
            }
            let mut out = Vec::new();
            for (&region, (_, spans)) in &self.views {
                for (&head, s) in spans {
                    if s.temp >= self.cfg.split_temperature
                        && s.len > self.cfg.min_span
                        && s.pinned == 0
                    {
                        out.push((region, head, s.len));
                    }
                }
            }
            out
        }

        fn apply_split(&mut self, region: RegionId, head: u64, l: SplitHalf, r: SplitHalf) {
            let min_span = self.cfg.min_span;
            let Some((_, spans)) = self.views.get_mut(&region) else {
                return;
            };
            let Some(&s) = spans.get(&head) else {
                return;
            };
            if s.len <= min_span || s.pinned != 0 {
                return;
            }
            let half = s.len / 2;
            let lt = (s.temp as u64 * l.weight)
                .checked_div(l.weight + r.weight)
                .map_or(s.temp / 2, |t| t as u32);
            let mk = |temp, h: SplitHalf| SpanView {
                len: half,
                temp,
                dram: h.dram,
                nvm: h.nvm,
                pinned: 0,
            };
            spans.insert(head, mk(lt, l));
            spans.insert(head + half, mk(s.temp - lt.min(s.temp), r));
            self.stats.spans += 1;
            self.stats.splits += 1;
        }

        fn merge_pass(&mut self) {
            let cfg = self.cfg;
            for (_, spans) in self.views.values_mut() {
                let snap: Vec<(u64, SpanView)> = spans.iter().map(|(&h, &s)| (h, s)).collect();
                let mut i = 0;
                while i + 1 < snap.len() {
                    let ((h1, a), (h2, b)) = (snap[i], snap[i + 1]);
                    if h2 == h1 + a.len
                        && a.len == b.len
                        && 2 * a.len <= cfg.max_span
                        && h1 % (2 * a.len) == 0
                        && a.temp <= cfg.merge_temperature
                        && b.temp <= cfg.merge_temperature
                        && a.pinned == 0
                        && b.pinned == 0
                    {
                        spans.remove(&h2);
                        let s = spans.get_mut(&h1).unwrap();
                        s.len += b.len;
                        s.temp = a.temp.saturating_add(b.temp);
                        s.dram += b.dram;
                        s.nvm += b.nvm;
                        self.stats.spans -= 1;
                        self.stats.merges += 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
        }

        /// The flags each index should hold at page `i` of `spans`.
        fn expected_flags(&self, spans: &BTreeMap<u64, SpanView>, i: u64) -> [bool; 3] {
            spans.get(&i).map_or([false; 3], |s| {
                let hot = s.temp >= self.cfg.promote_temperature;
                [hot && s.nvm > 0, !hot && s.dram > 0, s.dram > 0]
            })
        }
    }

    fn model_configs() -> Vec<RegionConfig> {
        let small = |split_temperature, decay_shift, promote_temperature| RegionConfig {
            max_span: 8,
            split_temperature,
            decay_shift,
            promote_temperature,
            ..RegionConfig::multi_grain()
        };
        vec![
            RegionConfig::multi_grain(),
            RegionConfig::flat_baseline(),
            small(0, 2, 8),
            small(1, 0, 2),
            small(4, 3, 3),
            small(16, 1, 1),
        ]
    }

    fn tier_of(bits: u64) -> Option<Tier> {
        [None, Some(Tier::Dram), Some(Tier::Nvm), Some(Tier::Ssd)][(bits % 4) as usize]
    }

    fn half_of(bits: u64) -> SplitHalf {
        SplitHalf {
            weight: bits % 5,
            dram: bits >> 3 & 3,
            nvm: bits >> 5 & 3,
        }
    }

    /// Runs one op on both sides; returns the tracker's and the model's
    /// split-candidate lists when the op ran a period walk.
    type Candidates = Vec<(RegionId, u64, u64)>;
    fn step(
        rt: &mut RegionTracker,
        m: &mut Model,
        op: (u8, u64, u64, u64),
    ) -> Option<(Candidates, Candidates)> {
        let (kind, r, a, b) = op;
        let region = RegionId(r as u32);
        let pages = m.views.get(&region).map_or(1, |v| v.0);
        let index = a % pages;
        match kind {
            0 if !rt.tracks(region) => {
                let pages = 1 + a % 300;
                rt.add_region(region, pages);
                m.add_region(region, pages);
            }
            1 => {
                for _ in 0..=b % 24 {
                    rt.note_sample(region, index, b & 1 == 1);
                    if let Some(s) = m.span_mut(region, index) {
                        s.temp = s.temp.saturating_add(1 + (b & 1) as u32);
                        m.stats.sample_ops += 1;
                    }
                }
            }
            2 => {
                let (old, new) = (tier_of(b), tier_of(b >> 2));
                rt.residency_changed(region, index, old, new);
                if let Some(s) = m.span_mut(region, index).filter(|_| old != new) {
                    match old {
                        Some(Tier::Dram) => s.dram = s.dram.saturating_sub(1),
                        Some(Tier::Nvm) => s.nvm = s.nvm.saturating_sub(1),
                        _ => {}
                    }
                    match new {
                        Some(Tier::Dram) => s.dram += 1,
                        Some(Tier::Nvm) => s.nvm += 1,
                        _ => {}
                    }
                    m.stats.sample_ops += 1;
                }
            }
            3 => {
                rt.pin(region, index);
                if let Some(s) = m.span_mut(region, index) {
                    s.pinned += 1;
                }
            }
            4 => {
                rt.unpin(region, index);
                if let Some(s) = m.span_mut(region, index) {
                    s.pinned = s.pinned.saturating_sub(1);
                }
            }
            5 => return Some((rt.decay(), m.decay())),
            6 => {
                let head = rt.span_of(region, index).map_or(0, |(h, _)| h);
                rt.apply_split(region, head, half_of(b), half_of(b >> 8));
                m.apply_split(region, head, half_of(b), half_of(b >> 8));
            }
            7 => {
                rt.merge_pass();
                m.merge_pass();
            }
            8 => {
                let head = rt.span_of(region, index).map_or(0, |(h, _)| h);
                let (dram, nvm) = (b % 3, b >> 2 & 3);
                rt.reset_span(region, head, dram, nvm);
                if let Some(s) = m.views.get_mut(&region).and_then(|v| v.1.get_mut(&head)) {
                    (s.dram, s.nvm, s.pinned) = (dram, nvm, 0);
                }
            }
            9 => {
                // One whole policy period, as `begin_region_period` runs it.
                let (got, want) = (rt.decay(), m.decay());
                for (i, &(region, head, _)) in want.iter().enumerate() {
                    let b = b.rotate_right(i as u32);
                    let (l, r) = (half_of(b), half_of(b >> 8));
                    rt.apply_split(region, head, l, r);
                    m.apply_split(region, head, l, r);
                }
                rt.merge_pass();
                m.merge_pass();
                return Some((got, want));
            }
            _ => {}
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The one-walk period, the in-hand flag writes and the buddy-
        /// pairing merge scan match the naive model op for op: spans,
        /// counters, split candidates, all three indexes and the span
        /// lookup (`owner`) at every page.
        #[test]
        fn incremental_tracker_matches_the_naive_model(
            cfg in 0usize..6,
            ops in prop::collection::vec((0u8..10, 0u64..3, any::<u64>(), any::<u64>()), 1..160),
        ) {
            let cfg = model_configs()[cfg];
            let mut rt = RegionTracker::new(cfg);
            let mut m = Model {
                cfg,
                views: BTreeMap::new(),
                stats: RegionStats::default(),
            };
            for op in std::iter::once((0, 0, 299, 0)).chain(ops) {
                if let Some((got, want)) = step(&mut rt, &mut m, op) {
                    prop_assert_eq!(got, want, "split candidates after {:?}", op);
                }
                prop_assert_eq!(rt.stats(), m.stats, "stats after {:?}", op);
                for (&region, (pages, spans)) in &m.views {
                    prop_assert_eq!(
                        rt.spans(region),
                        spans.iter().map(|(&h, &s)| (h, s)).collect::<Vec<_>>(),
                        "spans after {:?}", op
                    );
                    let view = &rt.views[&region];
                    for i in 0..*pages {
                        let got = view.flags.each_ref().map(|t| t.get(i as usize));
                        prop_assert_eq!(got, m.expected_flags(spans, i), "flags at {} after {:?}", i, op);
                        let covering = spans.range(..=i).next_back().map(|(&h, &s)| (h, s));
                        prop_assert_eq!(rt.span_of(region, i), covering, "span_of({}) after {:?}", i, op);
                    }
                    prop_assert_eq!(rt.stray_owner(region), None);
                    prop_assert_eq!(rt.index_mismatches(region), vec![]);
                }
            }
        }
    }
}
