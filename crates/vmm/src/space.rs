//! Process address spaces and managed memory regions.
//!
//! A [`Region`] corresponds to one intercepted `mmap`: a virtually
//! contiguous range carved into fixed-size pages, each of which is
//! unmapped or resident on one tier. Regions keep word-bitmap residency
//! indices ([`FlagTree`]) so the machine can split any sub-range's
//! accesses between DRAM, NVM, SSD-resident major faults, and first-touch
//! faults in logarithmic time, plus an [`AccessLedger`] for the
//! page-table-scanning baselines.

use std::collections::BTreeMap;

use crate::addr::{PageId, PageSize, RegionId, TenantId, Tier, VirtAddr, VirtRange};
use crate::fenwick::{lowbit, select_by, FlagTree, WORD};
use crate::ledger::AccessLedger;
use crate::pool::PhysPage;

/// What kind of allocation created a region; drives placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Large, long-lived heap range (HeMem manages these).
    ManagedHeap,
    /// Small allocation forwarded to the kernel (stays in DRAM).
    SmallAnon,
}

/// Typed error for an invalid page-state transition.
///
/// The panicking transition methods ([`Region::map_page`] and friends)
/// delegate to the fallible `try_*` variants and panic with this error's
/// [`Display`](std::fmt::Display) text, so callers that can recover (the
/// crash-recovery rollback path, the invariant auditor) observe the same
/// condition as a value instead of an abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// `map_page` on a page that is already mapped.
    AlreadyMapped {
        /// Page index within the region.
        index: u64,
    },
    /// Any transition applied to a page whose state does not admit it.
    BadTransition {
        /// The attempted operation (`"unmap"`, `"remap"`, ...).
        op: &'static str,
        /// Page index within the region.
        index: u64,
        /// The state the page was actually in.
        state: PageState,
    },
    /// An operation on a region that was already unmapped.
    MissingRegion(RegionId),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::AlreadyMapped { index } => write!(f, "page {index} already mapped"),
            StateError::BadTransition { op, index, state } => {
                write!(f, "{op} of page {index} in state {state:?}")
            }
            StateError::MissingRegion(id) => write!(f, "munmap of missing region {id:?}"),
        }
    }
}

impl std::error::Error for StateError {}

/// Per-page mapping state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Never touched; first access faults.
    Unmapped,
    /// Backed by a physical page on `tier`.
    Mapped {
        /// Tier holding the data.
        tier: Tier,
        /// Physical page within the tier's DAX file.
        phys: PhysPage,
        /// Write-protected (underlying migration in flight).
        wp: bool,
    },
}

/// A residency class pages are counted and selected by
/// ([`Region::rank`], [`Region::select`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageClass {
    /// Mapped on DRAM.
    Dram,
    /// Mapped on NVM.
    Nvm,
    /// Mapped on the SSD swap tier.
    Ssd,
    /// Not mapped on any tier.
    Unmapped,
}

/// One mmapped region.
#[derive(Debug, Clone)]
pub struct Region {
    id: RegionId,
    range: VirtRange,
    page_size: PageSize,
    kind: RegionKind,
    tenant: TenantId,
    /// Slot generation of the owning tenant at mmap time. A fleet
    /// machine bumps the tenant's generation on every (re)admission, so
    /// a region stamped with a stale generation is a leak from a prior
    /// occupant of the slot — the audit flags it as a stale slot frame.
    generation: u32,
    states: Vec<PageState>,
    dram_idx: FlagTree,
    nvm_idx: FlagTree,
    ssd_idx: FlagTree,
    mapped_idx: FlagTree,
    wp_idx: FlagTree,
    wp_pages: u64,
    /// Non-exclusive tiering: DRAM-resident pages whose stale-but-clean
    /// NVM copy was retained at promotion, keyed by page index. A shadow
    /// frame is owned by this map (not by any mapping) until the page is
    /// remap-demoted onto it, dirtied, or reclaimed under NVM pressure.
    shadows: BTreeMap<u64, PhysPage>,
    /// Expected access densities since the last page-table scan.
    pub ledger: AccessLedger,
}

impl Region {
    fn new(
        id: RegionId,
        range: VirtRange,
        page_size: PageSize,
        kind: RegionKind,
        tenant: TenantId,
        generation: u32,
    ) -> Region {
        let pages = range.page_count(page_size) as usize;
        Region {
            id,
            range,
            page_size,
            kind,
            tenant,
            generation,
            states: vec![PageState::Unmapped; pages],
            dram_idx: FlagTree::new(pages),
            nvm_idx: FlagTree::new(pages),
            ssd_idx: FlagTree::new(pages),
            mapped_idx: FlagTree::new(pages),
            wp_idx: FlagTree::new(pages),
            wp_pages: 0,
            shadows: BTreeMap::new(),
            ledger: AccessLedger::new(),
        }
    }

    /// Region identifier.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// Virtual range covered.
    pub fn range(&self) -> VirtRange {
        self.range
    }

    /// Page size backing the region.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Allocation kind.
    pub fn kind(&self) -> RegionKind {
        self.kind
    }

    /// Tenant that mapped the region ([`TenantId::SOLO`] on a
    /// single-process machine).
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Slot generation of the owning tenant at mmap time.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Number of pages.
    pub fn page_count(&self) -> u64 {
        self.states.len() as u64
    }

    /// State of page `index`.
    pub fn state(&self, index: u64) -> PageState {
        self.states[index as usize]
    }

    /// Pages currently resident in DRAM.
    pub fn dram_pages(&self) -> u64 {
        self.dram_idx.count()
    }

    /// Pages currently resident on NVM.
    pub fn nvm_pages(&self) -> u64 {
        self.nvm_idx.count()
    }

    /// Pages currently resident on the SSD swap tier.
    pub fn ssd_pages(&self) -> u64 {
        self.ssd_idx.count()
    }

    /// Pages currently mapped on any tier.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_idx.count()
    }

    /// Records `phys` as the clean NVM shadow of page `index`
    /// (non-exclusive tiering: the page was just promoted off this frame
    /// and the copy is still byte-exact). At most one shadow per page.
    pub fn set_shadow(&mut self, index: u64, phys: PhysPage) {
        let prev = self.shadows.insert(index, phys);
        assert!(prev.is_none(), "page {index} already has a shadow frame");
    }

    /// Removes and returns page `index`'s shadow frame, if any. The
    /// caller owns the frame afterwards (free it or remap onto it).
    pub fn take_shadow(&mut self, index: u64) -> Option<PhysPage> {
        self.shadows.remove(&index)
    }

    /// Page `index`'s shadow frame, if it still has a clean one.
    pub fn shadow(&self, index: u64) -> Option<PhysPage> {
        self.shadows.get(&index).copied()
    }

    /// Number of shadow frames this region holds.
    pub fn shadow_pages(&self) -> u64 {
        self.shadows.len() as u64
    }

    /// All (page index, shadow frame) pairs, in page-index order (the
    /// deterministic reclaim / audit walk order).
    pub fn shadows(&self) -> impl Iterator<Item = (u64, PhysPage)> + '_ {
        self.shadows.iter().map(|(&i, &p)| (i, p))
    }

    /// Removes and returns the lowest-index shadow, if any (deterministic
    /// pressure-reclaim order).
    pub fn take_first_shadow(&mut self) -> Option<(u64, PhysPage)> {
        self.shadows.pop_first()
    }

    /// The residency index of `tier`.
    fn tier_idx(&mut self, tier: Tier) -> &mut FlagTree {
        match tier {
            Tier::Dram => &mut self.dram_idx,
            Tier::Nvm => &mut self.nvm_idx,
            Tier::Ssd => &mut self.ssd_idx,
        }
    }

    /// Moves page `i` between the per-tier residency indices, from `from`
    /// to `to` (`None` = not resident on any tier). A page sits in at
    /// most one index, so a move clears one flag and sets another, and a
    /// first touch writes one index.
    fn set_residency(&mut self, i: usize, from: Option<Tier>, to: Option<Tier>) {
        if from == to {
            return;
        }
        if let Some(t) = from {
            self.tier_idx(t).set(i, false);
        }
        if let Some(t) = to {
            self.tier_idx(t).set(i, true);
        }
    }

    /// Pages currently write-protected.
    pub fn wp_pages(&self) -> u64 {
        self.wp_pages
    }

    /// DRAM-resident pages within `[lo, hi)` page indices.
    pub fn dram_pages_in(&self, lo: u64, hi: u64) -> u64 {
        self.dram_idx.count_range(lo as usize, hi as usize)
    }

    /// SSD-resident pages within `[lo, hi)` page indices.
    pub fn ssd_pages_in(&self, lo: u64, hi: u64) -> u64 {
        self.ssd_idx.count_range(lo as usize, hi as usize)
    }

    /// Mapped pages within `[lo, hi)` page indices.
    pub fn mapped_pages_in(&self, lo: u64, hi: u64) -> u64 {
        self.mapped_idx.count_range(lo as usize, hi as usize)
    }

    /// Write-protected pages within `[lo, hi)` page indices.
    pub fn wp_pages_in(&self, lo: u64, hi: u64) -> u64 {
        self.wp_idx.count_range(lo as usize, hi as usize)
    }

    /// Maps an unmapped page onto `tier`.
    ///
    /// # Panics
    ///
    /// Panics if the page is already mapped.
    pub fn map_page(&mut self, index: u64, tier: Tier, phys: PhysPage) {
        self.try_map_page(index, tier, phys)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Region::map_page`].
    pub fn try_map_page(
        &mut self,
        index: u64,
        tier: Tier,
        phys: PhysPage,
    ) -> Result<(), StateError> {
        let i = index as usize;
        match self.states[i] {
            PageState::Unmapped => {
                self.states[i] = PageState::Mapped {
                    tier,
                    phys,
                    wp: false,
                };
                self.mapped_idx.set(i, true);
                self.set_residency(i, None, Some(tier));
                Ok(())
            }
            PageState::Mapped { .. } => Err(StateError::AlreadyMapped { index }),
        }
    }

    /// Unmaps a page, returning its backing `(tier, phys)`.
    ///
    /// # Panics
    ///
    /// Panics if the page is not mapped.
    pub fn unmap_page(&mut self, index: u64) -> (Tier, PhysPage) {
        self.try_unmap_page(index).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Region::unmap_page`].
    pub fn try_unmap_page(&mut self, index: u64) -> Result<(Tier, PhysPage), StateError> {
        let i = index as usize;
        match self.states[i] {
            PageState::Mapped { tier, phys, wp } => {
                if wp {
                    self.wp_pages -= 1;
                    self.wp_idx.set(i, false);
                }
                self.states[i] = PageState::Unmapped;
                self.mapped_idx.set(i, false);
                self.set_residency(i, Some(tier), None);
                Ok((tier, phys))
            }
            state => Err(StateError::BadTransition {
                op: "unmap",
                index,
                state,
            }),
        }
    }

    /// Re-homes a mapped page onto a new tier/physical page (migration
    /// completion), returning the old backing.
    ///
    /// # Panics
    ///
    /// Panics if the page is not mapped.
    pub fn remap_page(&mut self, index: u64, tier: Tier, phys: PhysPage) -> (Tier, PhysPage) {
        self.try_remap_page(index, tier, phys)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Region::remap_page`].
    pub fn try_remap_page(
        &mut self,
        index: u64,
        tier: Tier,
        phys: PhysPage,
    ) -> Result<(Tier, PhysPage), StateError> {
        let i = index as usize;
        match self.states[i] {
            PageState::Mapped {
                tier: old_tier,
                phys: old_phys,
                wp,
            } => {
                self.states[i] = PageState::Mapped { tier, phys, wp };
                self.set_residency(i, Some(old_tier), Some(tier));
                Ok((old_tier, old_phys))
            }
            state => Err(StateError::BadTransition {
                op: "remap",
                index,
                state,
            }),
        }
    }

    /// Sets or clears write protection on a mapped page; returns whether
    /// the flag changed.
    ///
    /// # Panics
    ///
    /// Panics if the page is not mapped.
    pub fn set_wp(&mut self, index: u64, value: bool) -> bool {
        self.try_set_wp(index, value)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Region::set_wp`].
    pub fn try_set_wp(&mut self, index: u64, value: bool) -> Result<bool, StateError> {
        let i = index as usize;
        match &mut self.states[i] {
            PageState::Mapped { wp, .. } => {
                if *wp == value {
                    return Ok(false);
                }
                *wp = value;
                if value {
                    self.wp_pages += 1;
                } else {
                    self.wp_pages -= 1;
                }
                self.wp_idx.set(i, value);
                Ok(true)
            }
            state => Err(StateError::BadTransition {
                op: "set_wp",
                index,
                state: *state,
            }),
        }
    }

    /// Pages of `class` among `[0, lo)`; `lo` clamps to the page count.
    /// The unmapped rank is the complement of the mapped index's rank.
    pub fn rank(&self, class: PageClass, lo: u64) -> u64 {
        let lo = (lo as usize).min(self.states.len());
        match class {
            PageClass::Dram => self.dram_idx.rank(lo),
            PageClass::Nvm => self.nvm_idx.rank(lo),
            PageClass::Ssd => self.ssd_idx.rank(lo),
            PageClass::Unmapped => lo as u64 - self.mapped_idx.rank(lo),
        }
    }

    /// Index of the `r`-th (0-based) page of `class` in the region, or
    /// `None` if at most `r` exist. One descent over the word index: each
    /// tier reads its own index, unmapped reads !mapped per word and the
    /// node's span − mapped per node.
    pub fn select(&self, class: PageClass, r: u64) -> Option<u64> {
        let mapped = &self.mapped_idx;
        let p = match class {
            PageClass::Dram => self.dram_idx.select(r),
            PageClass::Nvm => self.nvm_idx.select(r),
            PageClass::Ssd => self.ssd_idx.select(r),
            PageClass::Unmapped => select_by(
                self.states.len(),
                r,
                |i| (lowbit(i) * WORD) as u64 - mapped.node(i),
                |w| mapped.clear_word(w),
            ),
        };
        p.map(|p| p as u64)
    }

    /// Index of the `k`-th (0-based) page of `class` within `[lo, hi)`, or
    /// `None` if fewer than `k + 1` exist: the `(rank(lo) + k)`-th page of
    /// the class, kept if it lies below `hi`.
    pub fn kth_page_in(&self, class: PageClass, lo: u64, hi: u64, k: u64) -> Option<u64> {
        let hi = hi.min(self.page_count());
        if hi <= lo {
            return None;
        }
        let p = self.select(class, self.rank(class, lo) + k)?;
        (p < hi).then_some(p)
    }

    /// Virtual address of the start of page `index`.
    pub fn page_addr(&self, index: u64) -> VirtAddr {
        VirtAddr(self.range.base.0 + index * self.page_size.bytes())
    }

    /// Page index containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the region.
    pub fn page_of(&self, addr: VirtAddr) -> u64 {
        assert!(
            self.range.contains(addr),
            "{addr:?} outside region {:?}",
            self.id
        );
        (addr.0 - self.range.base.0) / self.page_size.bytes()
    }

    /// Captures the durable part of the region (identity plus per-page
    /// states). Residency indices and the access ledger are derived /
    /// volatile state and are rebuilt on [`Region::restore`].
    pub fn snapshot(&self) -> RegionSnapshot {
        RegionSnapshot {
            id: self.id,
            range: self.range,
            page_size: self.page_size,
            kind: self.kind,
            tenant: self.tenant,
            generation: self.generation,
            states: self.states.clone(),
            shadows: self.shadows.clone(),
        }
    }

    /// Rebuilds a region from a snapshot: Fenwick residency indices and
    /// flag counts are reconstructed from the page states; the access
    /// ledger restarts empty (scan evidence does not survive a restart).
    pub fn restore(snap: RegionSnapshot) -> Region {
        let mut r = Region::new(
            snap.id,
            snap.range,
            snap.page_size,
            snap.kind,
            snap.tenant,
            snap.generation,
        );
        for (i, &state) in snap.states.iter().enumerate() {
            match state {
                PageState::Unmapped => {}
                PageState::Mapped { tier, wp, .. } => {
                    r.mapped_idx.set(i, true);
                    r.set_residency(i, None, Some(tier));
                    if wp {
                        r.wp_idx.set(i, true);
                        r.wp_pages += 1;
                    }
                }
            }
        }
        r.states = snap.states;
        r.shadows = snap.shadows;
        r
    }
}

/// Serializable snapshot of one [`Region`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSnapshot {
    /// Region identifier.
    pub id: RegionId,
    /// Virtual range covered.
    pub range: VirtRange,
    /// Page size backing the region.
    pub page_size: PageSize,
    /// Allocation kind.
    pub kind: RegionKind,
    /// Tenant that mapped the region.
    pub tenant: TenantId,
    /// Slot generation of the owning tenant at mmap time.
    pub generation: u32,
    /// Per-page mapping states.
    pub states: Vec<PageState>,
    /// Clean NVM shadow frames by page index (non-exclusive tiering).
    pub shadows: BTreeMap<u64, PhysPage>,
}

/// Serializable snapshot of a whole [`AddressSpace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceSnapshot {
    /// Region snapshots, positional (unmapped slots preserved so region
    /// ids stay stable across restore).
    pub regions: Vec<Option<RegionSnapshot>>,
    /// Next mmap base address.
    pub next_base: u64,
    /// Per-tenant slot generations (fleet machines only; empty
    /// otherwise so old snapshots keep deserializing).
    pub tenant_generations: BTreeMap<TenantId, u32>,
}

/// Frame counts for one tenant's managed regions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantFrames {
    /// Pages resident in DRAM (including write-protected ones).
    pub dram_pages: u64,
    /// Pages resident in NVM (including write-protected ones).
    pub nvm_pages: u64,
    /// Pages resident on the SSD swap tier.
    pub ssd_pages: u64,
    /// Pages currently write-protected (migration in flight).
    pub wp_pages: u64,
}

impl TenantFrames {
    /// Pages resident on any tier.
    pub fn resident_pages(&self) -> u64 {
        self.dram_pages + self.nvm_pages + self.ssd_pages
    }

    /// Pages resident on `tier`; the accessor audit code uses when
    /// iterating the machine's tier vector.
    pub fn pages_of(&self, tier: Tier) -> u64 {
        match tier {
            Tier::Dram => self.dram_pages,
            Tier::Nvm => self.nvm_pages,
            Tier::Ssd => self.ssd_pages,
        }
    }
}

/// A process's virtual address space: a set of non-overlapping regions.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    regions: Vec<Option<Region>>,
    /// Ids of the mapped regions, ascending. Every scan walks this list,
    /// so its cost follows the live regions, not every region ever
    /// mapped.
    live: Vec<u32>,
    next_base: u64,
    /// Slot generation per tenant; bumped on every (re)admission so
    /// regions can prove which occupancy of a recycled slot mapped them.
    tenant_generations: BTreeMap<TenantId, u32>,
}

/// Gap left between consecutively allocated regions.
const GUARD: u64 = 1 << 30;

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> AddressSpace {
        AddressSpace {
            regions: Vec::new(),
            live: Vec::new(),
            next_base: 1 << 40,
            tenant_generations: BTreeMap::new(),
        }
    }

    /// Creates a region of `len` bytes (rounded up to the page size) for
    /// the solo tenant.
    pub fn mmap(&mut self, len: u64, page_size: PageSize, kind: RegionKind) -> RegionId {
        self.mmap_tagged(len, page_size, kind, TenantId::SOLO)
    }

    /// Creates a region of `len` bytes owned by `tenant`. On a colocated
    /// machine each tenant's regions carry its id so frame accounting,
    /// tracking, and migration budgets can be scoped per tenant;
    /// [`AddressSpace::mmap`] delegates here with [`TenantId::SOLO`].
    pub fn mmap_tagged(
        &mut self,
        len: u64,
        page_size: PageSize,
        kind: RegionKind,
        tenant: TenantId,
    ) -> RegionId {
        let pages = page_size.pages_for(len);
        let len = pages * page_size.bytes();
        let id = RegionId(self.regions.len() as u32);
        let range = VirtRange::new(self.next_base, len);
        self.next_base = range.end() + GUARD;
        self.next_base = self.next_base.next_multiple_of(PageSize::Giga1G.bytes());
        let generation = self.tenant_generation(tenant);
        self.regions.push(Some(Region::new(
            id, range, page_size, kind, tenant, generation,
        )));
        self.live.push(id.0);
        id
    }

    /// Current slot generation for `tenant` (0 until the first bump).
    pub fn tenant_generation(&self, tenant: TenantId) -> u32 {
        self.tenant_generations.get(&tenant).copied().unwrap_or(0)
    }

    /// Bumps and returns `tenant`'s slot generation. Called once per
    /// admission so regions mapped by the new occupant of a recycled
    /// slot carry a generation no prior occupant's regions can share.
    pub fn bump_tenant_generation(&mut self, tenant: TenantId) -> u32 {
        let g = self.tenant_generations.entry(tenant).or_insert(0);
        *g += 1;
        *g
    }

    /// Removes a region, returning it so the caller can free its physical
    /// pages.
    ///
    /// # Panics
    ///
    /// Panics if the region does not exist (double unmap).
    pub fn munmap(&mut self, id: RegionId) -> Region {
        self.try_munmap(id).expect("munmap of missing region")
    }

    /// Fallible form of [`AddressSpace::munmap`].
    pub fn try_munmap(&mut self, id: RegionId) -> Result<Region, StateError> {
        let region = self
            .regions
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .ok_or(StateError::MissingRegion(id))?;
        let at = self
            .live
            .binary_search(&id.0)
            .expect("mapped region is on the live list");
        self.live.remove(at);
        Ok(region)
    }

    /// Borrows a live region.
    pub fn region(&self, id: RegionId) -> &Region {
        self.regions[id.0 as usize]
            .as_ref()
            .expect("region was unmapped")
    }

    /// Mutably borrows a live region.
    pub fn region_mut(&mut self, id: RegionId) -> &mut Region {
        self.regions[id.0 as usize]
            .as_mut()
            .expect("region was unmapped")
    }

    /// Iterates live regions in ascending id order, in O(live regions).
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.live.iter().map(|&i| {
            self.regions[i as usize]
                .as_ref()
                .expect("live list names a mapped region")
        })
    }

    /// Finds the region containing `addr`.
    pub fn find(&self, addr: VirtAddr) -> Option<&Region> {
        self.regions().find(|r| r.range().contains(addr))
    }

    /// The page containing `addr`, if it belongs to a region.
    pub fn page_at(&self, addr: VirtAddr) -> Option<PageId> {
        let r = self.find(addr)?;
        Some(PageId {
            region: r.id(),
            index: r.page_of(addr),
        })
    }

    /// Distinct tenants owning at least one live region, ascending.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut t: Vec<TenantId> = self.regions().map(Region::tenant).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Per-tenant frame accounting over the tenant's managed regions
    /// (kernel-backed [`RegionKind::SmallAnon`] regions live outside the
    /// tiered pools and are excluded).
    pub fn tenant_frames(&self, tenant: TenantId) -> TenantFrames {
        let mut f = TenantFrames::default();
        for r in self.regions() {
            if r.tenant() != tenant || r.kind() != RegionKind::ManagedHeap {
                continue;
            }
            f.dram_pages += r.dram_pages();
            f.nvm_pages += r.nvm_pages();
            f.ssd_pages += r.ssd_pages();
            f.wp_pages += r.wp_pages();
        }
        f
    }

    /// Captures a serializable snapshot of the whole address space.
    pub fn snapshot(&self) -> SpaceSnapshot {
        SpaceSnapshot {
            regions: self
                .regions
                .iter()
                .map(|r| r.as_ref().map(Region::snapshot))
                .collect(),
            next_base: self.next_base,
            tenant_generations: self.tenant_generations.clone(),
        }
    }

    /// Rebuilds an address space from a snapshot, reconstructing every
    /// region's residency indices from its page states.
    pub fn restore(snap: SpaceSnapshot) -> AddressSpace {
        let regions: Vec<Option<Region>> = snap
            .regions
            .into_iter()
            .map(|r| r.map(Region::restore))
            .collect();
        let live = (0..regions.len() as u32)
            .filter(|&i| regions[i as usize].is_some())
            .collect();
        AddressSpace {
            regions,
            live,
            next_base: snap.next_base,
            tenant_generations: snap.tenant_generations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmap_assigns_disjoint_ranges() {
        let mut s = AddressSpace::new();
        let a = s.mmap(10 << 20, PageSize::Huge2M, RegionKind::ManagedHeap);
        let b = s.mmap(10 << 20, PageSize::Huge2M, RegionKind::ManagedHeap);
        let ra = s.region(a).range();
        let rb = s.region(b).range();
        assert!(!ra.overlaps(&rb));
        assert_eq!(s.region(a).page_count(), 5);
    }

    #[test]
    fn size_rounds_up_to_page() {
        let mut s = AddressSpace::new();
        let a = s.mmap(1, PageSize::Huge2M, RegionKind::SmallAnon);
        assert_eq!(s.region(a).page_count(), 1);
        assert_eq!(s.region(a).range().len, PageSize::Huge2M.bytes());
    }

    #[test]
    fn map_unmap_round_trip() {
        let mut s = AddressSpace::new();
        let id = s.mmap(4 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        let r = s.region_mut(id);
        r.map_page(0, Tier::Dram, PhysPage(7));
        r.map_page(1, Tier::Nvm, PhysPage(3));
        assert_eq!(r.dram_pages(), 1);
        assert_eq!(r.mapped_pages(), 2);
        assert_eq!(r.dram_pages_in(0, 1), 1);
        assert_eq!(r.dram_pages_in(1, 4), 0);
        assert_eq!(r.unmap_page(0), (Tier::Dram, PhysPage(7)));
        assert_eq!(r.mapped_pages(), 1);
        assert_eq!(r.dram_pages(), 0);
    }

    #[test]
    fn remap_moves_residency() {
        let mut s = AddressSpace::new();
        let id = s.mmap(2 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        let r = s.region_mut(id);
        r.map_page(0, Tier::Nvm, PhysPage(0));
        let old = r.remap_page(0, Tier::Dram, PhysPage(5));
        assert_eq!(old, (Tier::Nvm, PhysPage(0)));
        assert_eq!(r.dram_pages(), 1);
        match r.state(0) {
            PageState::Mapped { tier, phys, wp } => {
                assert_eq!(tier, Tier::Dram);
                assert_eq!(phys, PhysPage(5));
                assert!(!wp);
            }
            other => panic!("should stay mapped, got {other:?}"),
        }
    }

    #[test]
    fn wp_flag_counted() {
        let mut s = AddressSpace::new();
        let id = s.mmap(1 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        let r = s.region_mut(id);
        r.map_page(0, Tier::Nvm, PhysPage(0));
        assert!(r.set_wp(0, true));
        assert!(!r.set_wp(0, true), "no change");
        assert_eq!(r.wp_pages(), 1);
        assert!(r.set_wp(0, false));
        assert_eq!(r.wp_pages(), 0);
    }

    #[test]
    fn wp_survives_remap_and_clears_on_unmap() {
        let mut s = AddressSpace::new();
        let id = s.mmap(1 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        let r = s.region_mut(id);
        r.map_page(0, Tier::Nvm, PhysPage(0));
        r.set_wp(0, true);
        r.remap_page(0, Tier::Dram, PhysPage(1));
        assert_eq!(r.wp_pages(), 1, "wp preserved across remap");
        r.unmap_page(0);
        assert_eq!(r.wp_pages(), 0);
    }

    #[test]
    fn find_and_page_at() {
        let mut s = AddressSpace::new();
        let id = s.mmap(4 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        let base = s.region(id).range().base;
        let inside = VirtAddr(base.0 + 3 * PageSize::Huge2M.bytes() + 17);
        let page = s.page_at(inside).expect("inside region");
        assert_eq!(
            page,
            PageId {
                region: id,
                index: 3
            }
        );
        assert!(s.page_at(VirtAddr(0)).is_none());
    }

    #[test]
    fn kth_selection_matches_layout() {
        let mut s = AddressSpace::new();
        let id = s.mmap(8 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        let r = s.region_mut(id);
        // Layout: 0=D, 1=N, 2=unmapped, 3=D, 4=N, 5=N, 6=unmapped, 7=D.
        r.map_page(0, Tier::Dram, PhysPage(0));
        r.map_page(1, Tier::Nvm, PhysPage(0));
        r.map_page(3, Tier::Dram, PhysPage(1));
        r.map_page(4, Tier::Nvm, PhysPage(1));
        r.map_page(5, Tier::Nvm, PhysPage(2));
        r.map_page(7, Tier::Dram, PhysPage(3));
        assert_eq!(r.kth_page_in(PageClass::Dram, 0, 8, 0), Some(0));
        assert_eq!(r.kth_page_in(PageClass::Dram, 0, 8, 1), Some(3));
        assert_eq!(r.kth_page_in(PageClass::Dram, 0, 8, 2), Some(7));
        assert_eq!(r.kth_page_in(PageClass::Dram, 0, 8, 3), None);
        assert_eq!(r.kth_page_in(PageClass::Dram, 1, 7, 0), Some(3));
        assert_eq!(r.kth_page_in(PageClass::Nvm, 0, 8, 0), Some(1));
        assert_eq!(r.kth_page_in(PageClass::Nvm, 0, 8, 2), Some(5));
        assert_eq!(r.kth_page_in(PageClass::Nvm, 2, 5, 0), Some(4));
        assert_eq!(r.kth_page_in(PageClass::Unmapped, 0, 8, 0), Some(2));
        assert_eq!(r.kth_page_in(PageClass::Unmapped, 0, 8, 1), Some(6));
        assert_eq!(r.kth_page_in(PageClass::Unmapped, 0, 8, 2), None);
        assert_eq!(r.kth_page_in(PageClass::Dram, 4, 4, 0), None, "empty range");
    }

    #[test]
    fn unmapped_select_stops_at_len_in_the_last_word() {
        // An unmapped node counts its whole 64-page span, past `len` in
        // the last word; the word itself must not, or select would name
        // a page the region does not have.
        for len in [65u64, 130] {
            let mut s = AddressSpace::new();
            let id = s.mmap(len << 12, PageSize::Base4K, RegionKind::ManagedHeap);
            let r = s.region_mut(id);
            assert_eq!(r.select(PageClass::Unmapped, len - 1), Some(len - 1));
            assert_eq!(r.select(PageClass::Unmapped, len), None);
            assert_eq!(r.rank(PageClass::Unmapped, len + 5), len, "lo clamps");
            r.map_page(len - 1, Tier::Dram, PhysPage(0));
            assert_eq!(r.select(PageClass::Unmapped, len - 2), Some(len - 2));
            assert_eq!(r.select(PageClass::Unmapped, len - 1), None);
            assert_eq!(r.kth_page_in(PageClass::Unmapped, len - 2, len, 1), None);
            // Only the last page unmapped: every rank past it runs off.
            for i in 0..len - 1 {
                r.map_page(i, Tier::Nvm, PhysPage(i + 1));
            }
            r.unmap_page(len - 1);
            assert_eq!(r.select(PageClass::Unmapped, 0), Some(len - 1));
            for extra in 1..64 {
                assert_eq!(r.select(PageClass::Unmapped, extra), None);
            }
        }
    }

    #[test]
    fn kth_selection_random_cross_check() {
        use hemem_sim::Rng;
        let mut s = AddressSpace::new();
        let id = s.mmap(200 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        let r = s.region_mut(id);
        let mut rng = Rng::new(7);
        let mut layout = [0u8; 200]; // 0=unmapped 1=dram 2=nvm
        for i in 0..200u64 {
            match rng.gen_range(3) {
                1 => {
                    r.map_page(i, Tier::Dram, PhysPage(i));
                    layout[i as usize] = 1;
                }
                2 => {
                    r.map_page(i, Tier::Nvm, PhysPage(i));
                    layout[i as usize] = 2;
                }
                _ => {}
            }
        }
        for _ in 0..200 {
            let lo = rng.gen_range(200);
            let hi = lo + rng.gen_range(200 - lo + 1);
            let dram: Vec<u64> = (lo..hi).filter(|&i| layout[i as usize] == 1).collect();
            if !dram.is_empty() {
                let k = rng.gen_range(dram.len() as u64);
                assert_eq!(
                    r.kth_page_in(PageClass::Dram, lo, hi, k),
                    Some(dram[k as usize])
                );
            }
            let nvm: Vec<u64> = (lo..hi).filter(|&i| layout[i as usize] == 2).collect();
            if !nvm.is_empty() {
                let k = rng.gen_range(nvm.len() as u64);
                assert_eq!(
                    r.kth_page_in(PageClass::Nvm, lo, hi, k),
                    Some(nvm[k as usize])
                );
            }
        }
    }

    #[test]
    fn ssd_residency_tracked_across_transitions() {
        let mut s = AddressSpace::new();
        let id = s.mmap(6 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        let r = s.region_mut(id);
        r.map_page(0, Tier::Dram, PhysPage(0));
        r.map_page(1, Tier::Nvm, PhysPage(0));
        r.map_page(2, Tier::Ssd, PhysPage(0));
        r.map_page(3, Tier::Ssd, PhysPage(1));
        assert_eq!(r.ssd_pages(), 2);
        assert_eq!(r.kth_page_in(PageClass::Ssd, 0, 6, 0), Some(2));
        assert_eq!(r.kth_page_in(PageClass::Ssd, 0, 6, 1), Some(3));
        assert_eq!(
            r.kth_page_in(PageClass::Nvm, 0, 6, 0),
            Some(1),
            "SSD pages are not NVM"
        );
        assert_eq!(r.kth_page_in(PageClass::Nvm, 0, 6, 1), None);
        // Promotion SSD -> DRAM clears the SSD bit; demotion sets it.
        r.remap_page(2, Tier::Dram, PhysPage(1));
        assert_eq!((r.ssd_pages(), r.dram_pages()), (1, 2));
        r.remap_page(1, Tier::Ssd, PhysPage(2));
        assert_eq!(r.ssd_pages(), 2);
        r.unmap_page(3);
        assert_eq!(r.ssd_pages(), 1);
        assert_eq!(r.ssd_pages_in(0, 2), 1);
    }

    #[test]
    fn tenant_frames_split_three_tiers() {
        let mut s = AddressSpace::new();
        let id = s.mmap(6 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        let r = s.region_mut(id);
        r.map_page(0, Tier::Dram, PhysPage(0));
        r.map_page(1, Tier::Nvm, PhysPage(0));
        r.map_page(2, Tier::Nvm, PhysPage(1));
        r.map_page(3, Tier::Ssd, PhysPage(0));
        let tf = s.tenant_frames(TenantId::SOLO);
        assert_eq!(tf.dram_pages, 1);
        assert_eq!(tf.nvm_pages, 2);
        assert_eq!(tf.ssd_pages, 1);
        assert_eq!(tf.resident_pages(), 4);
        assert_eq!(tf.pages_of(Tier::Dram), 1);
        assert_eq!(tf.pages_of(Tier::Nvm), 2);
        assert_eq!(tf.pages_of(Tier::Ssd), 1);
        // Snapshot/restore rebuilds the SSD index from page states.
        let back = AddressSpace::restore(s.snapshot());
        assert_eq!(back.region(id).ssd_pages(), 1);
        assert_eq!(
            back.region(id).kth_page_in(PageClass::Ssd, 0, 6, 0),
            Some(3)
        );
    }

    #[test]
    fn munmap_removes_region() {
        let mut s = AddressSpace::new();
        let id = s.mmap(1 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        let r = s.munmap(id);
        assert_eq!(r.id(), id);
        assert_eq!(s.regions().count(), 0);
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_map_panics() {
        let mut s = AddressSpace::new();
        let id = s.mmap(1 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        let r = s.region_mut(id);
        r.map_page(0, Tier::Dram, PhysPage(0));
        r.map_page(0, Tier::Dram, PhysPage(1));
    }
}

#[cfg(test)]
mod typed_error_tests {
    use super::*;

    fn region() -> (AddressSpace, RegionId) {
        let mut s = AddressSpace::new();
        let id = s.mmap(4 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        (s, id)
    }

    #[test]
    fn try_variants_return_typed_errors_without_panicking() {
        let (mut s, id) = region();
        let r = s.region_mut(id);
        r.map_page(0, Tier::Nvm, PhysPage(0));
        assert_eq!(
            r.try_map_page(0, Tier::Dram, PhysPage(1)),
            Err(StateError::AlreadyMapped { index: 0 })
        );
        assert_eq!(
            r.try_unmap_page(1),
            Err(StateError::BadTransition {
                op: "unmap",
                index: 1,
                state: PageState::Unmapped
            })
        );
        assert!(r.try_remap_page(1, Tier::Dram, PhysPage(1)).is_err());
        assert!(r.try_set_wp(1, true).is_err());
        r.set_wp(0, true);
        // The region is untouched by the failed transitions.
        assert_eq!(r.mapped_pages(), 1);
        assert_eq!(r.wp_pages(), 1);
    }

    #[test]
    fn error_display_matches_legacy_panic_messages() {
        assert_eq!(
            StateError::AlreadyMapped { index: 3 }.to_string(),
            "page 3 already mapped"
        );
        assert_eq!(
            StateError::BadTransition {
                op: "remap",
                index: 2,
                state: PageState::Unmapped
            }
            .to_string(),
            "remap of page 2 in state Unmapped"
        );
    }

    #[test]
    fn try_munmap_of_missing_region_is_typed() {
        let (mut s, id) = region();
        s.munmap(id);
        assert_eq!(
            s.try_munmap(id).map(|_| ()).unwrap_err(),
            StateError::MissingRegion(id)
        );
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;

    #[test]
    fn space_snapshot_restore_preserves_states_and_indices() {
        let mut s = AddressSpace::new();
        let a = s.mmap(8 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        let gone = s.mmap(1 << 21, PageSize::Huge2M, RegionKind::SmallAnon);
        let b = s.mmap(4 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        s.munmap(gone);
        {
            let r = s.region_mut(a);
            r.map_page(0, Tier::Dram, PhysPage(0));
            r.map_page(1, Tier::Nvm, PhysPage(1));
            r.map_page(2, Tier::Nvm, PhysPage(2));
            r.set_wp(1, true);
        }
        s.region_mut(b).map_page(0, Tier::Dram, PhysPage(4));

        let snap = s.snapshot();
        let mut back = AddressSpace::restore(snap.clone());
        assert_eq!(back.snapshot(), snap, "snapshot round-trips");
        let r = back.region(a);
        assert_eq!(r.mapped_pages(), 3);
        assert_eq!(r.dram_pages(), 1);
        assert_eq!(r.wp_pages(), 1);
        assert_eq!(r.wp_pages_in(0, 8), 1);
        assert_eq!(r.kth_page_in(PageClass::Nvm, 0, 8, 1), Some(2));
        assert_eq!(back.region(b).dram_pages(), 1);
        assert!(back.try_munmap(gone).is_err(), "unmapped slot preserved");
        // New mmaps continue from the same base as the original.
        let mut s2 = back;
        let c = s2.mmap(1 << 21, PageSize::Huge2M, RegionKind::ManagedHeap);
        assert!(s2.region(c).range().base.0 > s2.region(b).range().end());
    }
}

#[cfg(test)]
mod live_list_tests {
    use super::*;
    use hemem_sim::Rng;

    /// The reference the live list must match: every id whose slot
    /// still holds a region, ascending.
    fn reference_ids(s: &AddressSpace) -> Vec<RegionId> {
        s.regions.iter().flatten().map(Region::id).collect()
    }

    fn reference_frames(s: &AddressSpace, tenant: TenantId) -> TenantFrames {
        let mut f = TenantFrames::default();
        for r in s.regions.iter().flatten() {
            if r.tenant() == tenant && r.kind() == RegionKind::ManagedHeap {
                let dram = r.dram_pages();
                let ssd = r.ssd_pages();
                f.dram_pages += dram;
                f.nvm_pages += r.mapped_pages() - dram - ssd;
                f.ssd_pages += ssd;
                f.wp_pages += r.wp_pages();
            }
        }
        f
    }

    /// Checks the live list against the reference scans, and `page_at`
    /// against every range ever mapped.
    fn check(s: &AddressSpace, ever: &[VirtRange]) {
        let ids: Vec<RegionId> = s.regions().map(Region::id).collect();
        assert_eq!(ids, reference_ids(s), "live list vs reference filter");
        for t in 0..4 {
            assert_eq!(
                s.tenant_frames(TenantId(t)),
                reference_frames(s, TenantId(t)),
                "tenant {t} frames"
            );
        }
        for (i, range) in ever.iter().enumerate() {
            let id = RegionId(i as u32);
            let live = ids.contains(&id);
            for addr in [range.base.0, range.base.0 + range.len / 2, range.end() - 1] {
                let hit = s.page_at(VirtAddr(addr)).map(|p| p.region);
                assert_eq!(hit, live.then_some(id), "page_at({addr:#x})");
            }
            // The guard gap past each range belongs to no region.
            assert_eq!(s.page_at(VirtAddr(range.end())), None);
        }
    }

    #[test]
    fn live_list_tracks_interleaved_mmap_munmap_and_restore() {
        let mut rng = Rng::new(0x11FE);
        let mut s = AddressSpace::new();
        let mut ever: Vec<VirtRange> = Vec::new();
        for step in 0..400u64 {
            let ids = reference_ids(&s);
            if ids.is_empty() || rng.gen_range(5) < 3 {
                let tenant = TenantId(rng.gen_range(4) as u32);
                let kind = if rng.gen_range(4) == 0 {
                    RegionKind::SmallAnon
                } else {
                    RegionKind::ManagedHeap
                };
                let pages = 1 + rng.gen_range(6);
                let id = s.mmap_tagged(pages << 21, PageSize::Huge2M, kind, tenant);
                let r = s.region_mut(id);
                r.map_page(0, Tier::Dram, PhysPage(step));
                if pages > 2 {
                    r.map_page(1, Tier::Nvm, PhysPage(step));
                    r.map_page(2, Tier::Ssd, PhysPage(step));
                    r.set_wp(1, true);
                }
                ever.push(s.region(id).range());
            } else {
                let id = ids[rng.gen_range(ids.len() as u64) as usize];
                assert_eq!(s.munmap(id).id(), id);
                // Unmapping it again fails and leaves the list alone.
                let before = s.live.clone();
                assert_eq!(
                    s.try_munmap(id).map(|_| ()),
                    Err(StateError::MissingRegion(id))
                );
                assert_eq!(s.live, before, "failed try_munmap moved the list");
            }
            if step % 50 == 49 {
                let restored = AddressSpace::restore(s.snapshot());
                assert_eq!(restored.live, s.live, "restore rebuilds the list");
                s = restored;
            }
            check(&s, &ever);
        }
        // An id never handed out fails the same way.
        let before = s.live.clone();
        let unborn = RegionId(ever.len() as u32);
        assert!(s.try_munmap(unborn).is_err());
        assert_eq!(s.live, before);
        assert!(s.regions().count() > 0 && s.regions().count() < ever.len());
    }
}
