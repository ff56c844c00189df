//! The tiered-memory backend interface.
//!
//! A [`TieredBackend`] is a memory manager plugged under the simulated
//! machine: HeMem itself, Intel Memory Mode, Linux Nimble, X-Mem static
//! placement, and the page-table-scanning HeMem variants all implement
//! this trait. The machine calls into the backend on `mmap`, on first-touch
//! faults, to split each access batch's traffic across tiers, and on its
//! periodic background wake-ups; the backend returns migration jobs that
//! the machine executes asynchronously over the DMA engine or copy
//! threads.

use hemem_memdev::{MemOp, Pattern};
use hemem_sim::Ns;
use hemem_vmm::{PageId, RegionId, Tier};

use crate::machine::MachineCore;

/// One contiguous, uniformly-accessed span of a batch.
#[derive(Debug, Clone)]
pub struct SegmentAccess {
    /// Region the span lives in.
    pub region: RegionId,
    /// First page index (inclusive).
    pub lo_page: u64,
    /// Last page index (exclusive).
    pub hi_page: u64,
    /// Fraction of the batch's accesses landing in this span.
    pub weight: f64,
    /// Bytes of cache-relevant footprint this span competes with in the
    /// LLC (usually the aggregate size of the structure across threads).
    pub llc_footprint: u64,
    /// Per-segment store fraction override (the Table 2 write-skew
    /// workload has write-only and read-only spans in one batch); `None`
    /// uses the batch-level [`AccessBatch::write_fraction`].
    pub write_fraction: Option<f64>,
}

impl SegmentAccess {
    /// Number of pages in the span.
    pub fn pages(&self) -> u64 {
        self.hi_page - self.lo_page
    }
}

/// A batch of memory accesses issued by one simulated thread.
#[derive(Debug, Clone)]
pub struct AccessBatch {
    /// Where the accesses land.
    pub segments: Vec<SegmentAccess>,
    /// Total accesses in the batch.
    pub count: u64,
    /// Bytes touched per access.
    pub object_size: u32,
    /// Fraction of accesses that are stores.
    pub write_fraction: f64,
    /// Spatial pattern.
    pub pattern: Pattern,
    /// Non-memory CPU work per access, nanoseconds.
    pub cpu_ns_per_access: f64,
    /// Memory-level parallelism: how many accesses a thread keeps in
    /// flight, hiding latency.
    pub mlp: f64,
    /// This batch is a single pass over its span (each page touched once
    /// per traversal, e.g. a graph scan in frontier order). Affects only
    /// the accessed/dirty-bit evidence scanning backends see: a sweep sets
    /// each page's bit once, not `count / pages` times.
    pub sweep: bool,
}

impl AccessBatch {
    /// Convenience constructor for a uniform batch over one span.
    pub fn uniform(
        region: RegionId,
        lo_page: u64,
        hi_page: u64,
        count: u64,
        object_size: u32,
        write_fraction: f64,
        llc_footprint: u64,
    ) -> AccessBatch {
        AccessBatch {
            segments: vec![SegmentAccess {
                region,
                lo_page,
                hi_page,
                weight: 1.0,
                llc_footprint,
                write_fraction: None,
            }],
            count,
            object_size,
            write_fraction,
            pattern: Pattern::Random,
            cpu_ns_per_access: 2.0,
            mlp: 4.0,
            sweep: false,
        }
    }
}

/// One class of device traffic produced by splitting a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Traffic {
    /// Destination device.
    pub tier: Tier,
    /// Read or write.
    pub op: MemOp,
    /// Spatial pattern at the device.
    pub pattern: Pattern,
    /// Bytes per access.
    pub size: u32,
    /// Number of accesses (fractional; the machine rounds
    /// expectation-preservingly).
    pub count: f64,
}

/// Result of splitting one segment's memory-reaching accesses.
#[derive(Debug, Clone, Default)]
pub struct TierSplit {
    /// Device traffic to reserve.
    pub traffic: Vec<Traffic>,
    /// Fraction of the segment's *loads* served from NVM (drives PEBS
    /// `NvmLoad` vs `DramLoad` classification).
    pub nvm_load_fraction: f64,
    /// Additional latency each access pays beyond device latency (e.g.
    /// memory-mode tag checks).
    pub extra_latency: Ns,
}

/// How a migration moves bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyMechanism {
    /// Offloaded to the I/OAT DMA engine (no CPU cost).
    Dma {
        /// Concurrent channels to stripe over.
        channels: usize,
    },
    /// Copied by `n` parallel migration threads (consumes cores).
    Threads(usize),
}

/// A request to move one page to another tier.
#[derive(Debug, Clone, Copy)]
pub struct MigrationJob {
    /// Page to move.
    pub page: PageId,
    /// Destination tier.
    pub dst: Tier,
    /// Copy mechanism.
    pub mechanism: CopyMechanism,
}

/// What a background tick produced.
#[derive(Debug, Clone, Default)]
pub struct TickOutput {
    /// When to wake the backend next; `None` stops background work.
    pub next_wake: Option<Ns>,
    /// Migrations to start now.
    pub migrations: Vec<MigrationJob>,
    /// CPU time the background thread(s) burned this tick (informational;
    /// steady background threads are modelled via
    /// [`TieredBackend::background_threads`]).
    pub cpu_time: Ns,
}

/// A tiered memory manager under test.
pub trait TieredBackend {
    /// Short name used in experiment reports ("HeMem", "MM", "Nimble"…).
    fn name(&self) -> &'static str;

    /// Whether the backend manages a new mapping of `len` bytes itself
    /// (managed heap) or forwards it to the kernel (small anonymous
    /// memory that stays in DRAM).
    fn wants_to_manage(&self, len: u64) -> bool;

    /// Notification that `region` was created (already inserted into the
    /// machine's address space).
    fn on_mmap(&mut self, m: &mut MachineCore, region: RegionId);

    /// Notification that `region` is being destroyed. Physical pages are
    /// freed by the machine after this returns.
    fn on_munmap(&mut self, m: &mut MachineCore, region: RegionId);

    /// First touch of `page`: choose the tier to place it on. The machine
    /// allocates from that tier's pool, falling back to the other tier if
    /// exhausted, then reports the final placement via
    /// [`TieredBackend::placed`].
    fn place(&mut self, m: &mut MachineCore, page: PageId, is_write: bool) -> Tier;

    /// The machine mapped `page` on `tier` (first touch completed).
    fn placed(&mut self, m: &mut MachineCore, page: PageId, tier: Tier);

    /// Splits one segment's memory-reaching accesses into device traffic.
    ///
    /// `reads`/`writes` count accesses that missed the LLC. The default
    /// implementation splits by actual page residency — correct for every
    /// page-placement backend; Memory Mode overrides it to consult its
    /// cache model.
    fn split(
        &mut self,
        m: &mut MachineCore,
        seg: &SegmentAccess,
        object_size: u32,
        pattern: Pattern,
        reads: f64,
        writes: f64,
    ) -> TierSplit {
        residency_split(m, seg, object_size, pattern, reads, writes)
    }

    /// Whether the machine should generate PEBS samples for this backend.
    fn uses_pebs(&self) -> bool {
        false
    }

    /// Consumes drained PEBS samples (called from the backend's PEBS
    /// thread context during ticks) at virtual time `now`.
    fn on_samples(
        &mut self,
        _m: &mut MachineCore,
        _samples: &[hemem_pebs::SampleRecord],
        _now: Ns,
    ) {
    }

    /// Periodic background work. `now` is the current virtual time.
    fn tick(&mut self, m: &mut MachineCore, now: Ns) -> TickOutput;

    /// A migration finished; internal metadata (lists) should be updated.
    /// The machine has already remapped the page to `dst`.
    fn migration_done(&mut self, m: &mut MachineCore, page: PageId, dst: Tier);

    /// A migration could not start (destination tier exhausted); the page
    /// remains on `current` and should be re-enqueued.
    fn migration_aborted(&mut self, _m: &mut MachineCore, _page: PageId, _current: Tier) {}

    /// A page lost its frame without moving anywhere: the runtime
    /// poisoned it after its tier went offline. The backend should drop
    /// it from its queues (it re-enters via [`TieredBackend::placed`]
    /// when faulted back in). simbench's `Timed` wrapper forwards it too.
    fn swapped_out(&mut self, _m: &mut MachineCore, _page: PageId) {}

    /// Direct reclaim: both memory tiers are exhausted and a fault needs a
    /// frame *now*. Return a victim page to demote onto the SSD tier
    /// synchronously, or `None` if the backend cannot reclaim (the
    /// machine then panics, matching an OOM kill).
    fn reclaim_victim(&mut self, _m: &mut MachineCore) -> Option<PageId> {
        None
    }

    /// Number of always-runnable helper threads (PEBS reader, policy,
    /// scanner, copy threads); they contend for cores with the
    /// application.
    fn background_threads(&self) -> u32 {
        0
    }

    /// The manager process was restarted after a crash: the machine has
    /// already rolled the journal back, and the backend must rebuild its
    /// internal metadata (hot/cold lists, trackers) from what survives —
    /// the address space and any per-page counters it kept. The default
    /// suits stateless backends.
    fn recover(&mut self, _m: &mut MachineCore, _now: Ns) {}

    /// Backend-specific invariant checks for the online auditor: report
    /// any disagreement between the backend's tracking structures and the
    /// machine's authoritative state. The default (no checks) suits
    /// backends without per-page metadata.
    fn audit(&self, _m: &MachineCore) -> Vec<crate::audit::AuditViolation> {
        Vec::new()
    }

    /// A seeded tenant kill fired: the backend must *quarantine* the
    /// tenant — stop scheduling policy work, placements, and sample
    /// processing for it — so the machine can drain and reclaim its
    /// resources. The machine rolls back the tenant's prepared journal
    /// entries after this returns. The default suits single-tenant
    /// backends, where tenant kills are never scheduled.
    fn tenant_killed(&mut self, _m: &mut MachineCore, _tenant: hemem_vmm::TenantId, _now: Ns) {}

    /// The killed tenant's DMA traffic has quiesced and the machine has
    /// reclaimed its frames across every tier: the backend should drop
    /// remaining per-tenant metadata and return the tenant's quota to
    /// its arbiter, completing the Quarantined → Retired transition.
    fn tenant_drained(&mut self, _m: &mut MachineCore, _tenant: hemem_vmm::TenantId, _now: Ns) {}

    /// Slot-pool lifecycle counters, when the backend runs its tenants
    /// out of a [`crate::fleet::SlotPool`]. `None` (the default) means
    /// the backend has no fleet control plane; the bench fingerprint
    /// omits its segment entirely so non-fleet runs stay byte-identical.
    fn fleet_stats(&self) -> Option<crate::fleet::FleetStats> {
        None
    }

    /// Picks the destination tier for evacuating `page` off the failing
    /// tier `from`: the fastest *online* tier with a free frame. Backends
    /// with admission control (the multi-tenant arbiter) override this to
    /// keep evacuations inside per-tenant fast-tier quotas. `None` means
    /// nowhere to put the page — the evacuation engine stalls and the
    /// page is poisoned if the device dies first.
    fn evacuation_dst(&mut self, m: &mut MachineCore, _page: PageId, from: Tier) -> Option<Tier> {
        m.tiers()
            .iter()
            .copied()
            .find(|&t| t != from && m.tier_online(t) && m.pool(t).free_pages() > 0)
    }
}

/// Residency-proportional split: accesses go to whatever tier their page
/// is on. Shared by every page-placement backend.
pub fn residency_split(
    m: &MachineCore,
    seg: &SegmentAccess,
    object_size: u32,
    pattern: Pattern,
    reads: f64,
    writes: f64,
) -> TierSplit {
    let region = m.space.region(seg.region);
    let pages = seg.pages().max(1);
    let mapped = region.mapped_pages_in(seg.lo_page, seg.hi_page);
    let dram = region.dram_pages_in(seg.lo_page, seg.hi_page);
    // SSD-resident pages produce no byte traffic here: their accesses
    // trap as major faults and are charged on the swap device's queue.
    let ssd = region.ssd_pages_in(seg.lo_page, seg.hi_page);
    let byte_addressable = mapped - ssd;
    // Unmapped pages fault before being accessed; traffic splits over the
    // mapped portion (or all-DRAM if nothing is mapped yet: the fault path
    // will have placed pages by the time accesses land).
    let dram_frac = if byte_addressable == 0 {
        1.0
    } else {
        dram as f64 / byte_addressable as f64
    };
    let _ = pages;
    let mut traffic = Vec::with_capacity(4);
    let mut push = |tier: Tier, op: MemOp, count: f64| {
        if count > 0.0 {
            traffic.push(Traffic {
                tier,
                op,
                pattern,
                size: object_size,
                count,
            });
        }
    };
    push(Tier::Dram, MemOp::Read, reads * dram_frac);
    push(Tier::Nvm, MemOp::Read, reads * (1.0 - dram_frac));
    push(Tier::Dram, MemOp::Write, writes * dram_frac);
    push(Tier::Nvm, MemOp::Write, writes * (1.0 - dram_frac));
    TierSplit {
        traffic,
        nvm_load_fraction: 1.0 - dram_frac,
        extra_latency: Ns::ZERO,
    }
}
