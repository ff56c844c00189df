//! Write-ahead metadata journal making page migration transactional.
//!
//! Every migration is a two-phase transaction against this journal:
//!
//! 1. **Prepare** — before any copy starts, the intent (page, source
//!    frame, destination frame) is recorded and the source mapping is
//!    write-protected. The destination frame is owned by the journal
//!    entry, not by any mapping.
//! 2. **Commit** — when the copy completes, the entry is marked
//!    committed, the mapping in `vmm::space` is flipped to the
//!    destination frame, and the entry is retired.
//!
//! Because the mapping flip is the *last* step, an interruption at any
//! instant leaves a recoverable state: entries still `Prepared` name
//! exactly the frames that hold no authoritative data (roll back: free
//! the destination frame, clear the write protection), and `Committed`
//! entries name migrations whose mapping flip is already durable (roll
//! forward: just retire the entry). There is no interruption point with
//! a torn mapping, which is what lets [`crate::runtime::Sim`] kill and
//! restart the manager mid-migration.
//!
//! Non-exclusive tiering rides on the same protocol: a promotion
//! prepared with [`ShadowIntent::Retain`] asks commit to keep the NVM
//! source frame as a clean shadow instead of freeing it. A write
//! observed during the protection window flips the intent to
//! [`ShadowIntent::Dirtied`], and commit falls back to the exclusive
//! free. Because the intent lives in the entry, a kill at any instant
//! leaves shadow and primary reconcilable from the journal alone.

use core::fmt;
use std::collections::BTreeMap;

use hemem_vmm::{PageId, PhysPage, RegionId, TenantId, Tier};

/// Lifecycle state of one journaled migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Intent recorded, destination frame reserved, copy in flight. The
    /// source mapping is still authoritative.
    Prepared,
    /// The mapping flip is durable; only the journal entry remains to be
    /// retired.
    Committed,
}

/// What commit should do with the transaction's *source* frame
/// (non-exclusive tiering, Nomad-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShadowIntent {
    /// Exclusive tiering: free the source frame on commit.
    #[default]
    Drop,
    /// Retain the source frame as a clean shadow of the promoted page
    /// (only ever requested for NVM → DRAM promotions).
    Retain,
    /// A write landed inside the protection window, so the would-be
    /// shadow no longer matches the page: free the source frame on
    /// commit exactly like [`ShadowIntent::Drop`].
    Dirtied,
}

/// One migration transaction: everything recovery needs to either roll
/// the migration back or roll it forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    /// The page being migrated.
    pub page: PageId,
    /// Tenant owning the page's region (per-tenant in-flight accounting
    /// and migration budgets key off this).
    pub tenant: TenantId,
    /// Tier the page was mapped in when the transaction prepared.
    pub src_tier: Tier,
    /// Frame the page was mapped to when the transaction prepared.
    pub src_phys: PhysPage,
    /// Destination tier.
    pub dst_tier: Tier,
    /// Destination frame, owned by this entry until commit or abort.
    pub dst_phys: PhysPage,
    /// Where in the two-phase protocol this transaction is.
    pub state: TxnState,
    /// Shadow-validity state: what commit does with the source frame.
    pub shadow: ShadowIntent,
}

/// A journal protocol violation. In release builds these used to be
/// silent (`debug_assert!` only): a duplicate prepare id overwrote the
/// prior entry — leaking its reserved destination frame — and a retire
/// of a non-committed entry dropped an in-flight transaction. Both are
/// now typed errors; the panicking [`MigrationJournal::prepare`] /
/// [`MigrationJournal::retire`] wrappers fail loudly in every build, and
/// the `try_` forms leave the journal untouched while counting the
/// violation for the auditor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalError {
    /// `prepare` was called with an id that already has an entry.
    DuplicatePrepare {
        /// The already-journaled migration id.
        id: u64,
    },
    /// `retire` was called for an id that is missing or still Prepared.
    RetireNotCommitted {
        /// The offending migration id.
        id: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::DuplicatePrepare { id } => {
                write!(f, "migration id {id} journaled twice")
            }
            JournalError::RetireNotCommitted { id } => {
                write!(f, "retire of non-committed journal entry {id}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Incrementally-maintained prepared-transaction counts: the policy
/// reads these on every pass, major fault, and arbiter reallocation, so
/// they must not be O(journal) scans. `freeing`/`into` are indexed by
/// [`Tier::rank`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PreparedCounts {
    len: u64,
    freeing: [u64; 3],
    into: [u64; 3],
    /// Prepared entries whose shadow intent is still `Retain` (fast path
    /// for the write-protection dirtying scan).
    retain: u64,
}

impl PreparedCounts {
    fn add(&mut self, e: &JournalEntry, sign: i64) {
        let d = |v: &mut u64| *v = v.wrapping_add_signed(sign);
        d(&mut self.len);
        d(&mut self.freeing[e.src_tier.rank()]);
        d(&mut self.into[e.dst_tier.rank()]);
        if e.shadow == ShadowIntent::Retain {
            d(&mut self.retain);
        }
    }
}

/// The write-ahead migration journal.
///
/// Entries are keyed by migration id and iterated in id order, so a
/// recovery replay is deterministic. The journal is serializable as part
/// of a machine snapshot.
#[derive(Debug, Clone, Default)]
pub struct MigrationJournal {
    entries: BTreeMap<u64, JournalEntry>,
    /// Machine-wide prepared counts, kept in lockstep with `entries`.
    counts: PreparedCounts,
    /// Per-tenant prepared counts, kept in lockstep with `entries`.
    tenant_counts: BTreeMap<TenantId, PreparedCounts>,
    /// Protocol violations observed (and refused) by the `try_` entry
    /// points; the auditor surfaces a non-zero count as a violation.
    protocol_errors: u64,
}

impl MigrationJournal {
    /// Creates an empty journal.
    pub fn new() -> MigrationJournal {
        MigrationJournal::default()
    }

    fn count(&mut self, e: &JournalEntry, sign: i64) {
        self.counts.add(e, sign);
        self.tenant_counts.entry(e.tenant).or_default().add(e, sign);
    }

    /// Records the prepare phase of migration `id` on behalf of `tenant`.
    /// A duplicate id is a protocol violation: the journal is left
    /// untouched and the violation is counted for the auditor.
    #[allow(clippy::too_many_arguments)]
    pub fn try_prepare(
        &mut self,
        id: u64,
        page: PageId,
        tenant: TenantId,
        src_tier: Tier,
        src_phys: PhysPage,
        dst_tier: Tier,
        dst_phys: PhysPage,
        shadow: ShadowIntent,
    ) -> Result<(), JournalError> {
        if self.entries.contains_key(&id) {
            self.protocol_errors += 1;
            return Err(JournalError::DuplicatePrepare { id });
        }
        let e = JournalEntry {
            page,
            tenant,
            src_tier,
            src_phys,
            dst_tier,
            dst_phys,
            state: TxnState::Prepared,
            shadow,
        };
        self.count(&e, 1);
        self.entries.insert(id, e);
        Ok(())
    }

    /// [`MigrationJournal::try_prepare`] with the exclusive (no-shadow)
    /// intent, panicking on a duplicate id.
    #[allow(clippy::too_many_arguments)]
    pub fn prepare(
        &mut self,
        id: u64,
        page: PageId,
        tenant: TenantId,
        src_tier: Tier,
        src_phys: PhysPage,
        dst_tier: Tier,
        dst_phys: PhysPage,
    ) {
        self.prepare_shadowed(
            id,
            page,
            tenant,
            src_tier,
            src_phys,
            dst_tier,
            dst_phys,
            ShadowIntent::Drop,
        );
    }

    /// [`MigrationJournal::try_prepare`] with an explicit shadow intent,
    /// panicking on a duplicate id.
    #[allow(clippy::too_many_arguments)]
    pub fn prepare_shadowed(
        &mut self,
        id: u64,
        page: PageId,
        tenant: TenantId,
        src_tier: Tier,
        src_phys: PhysPage,
        dst_tier: Tier,
        dst_phys: PhysPage,
        shadow: ShadowIntent,
    ) {
        self.try_prepare(
            id, page, tenant, src_tier, src_phys, dst_tier, dst_phys, shadow,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Looks up the entry for migration `id`.
    pub fn entry(&self, id: u64) -> Option<&JournalEntry> {
        self.entries.get(&id)
    }

    /// The outstanding entry for `page`, if any. The two-phase protocol
    /// admits at most one per page (the source mapping is
    /// write-protected for the whole window); the auditor's
    /// `DoubleJournaledPage` check enforces it.
    pub fn entry_for_page(&self, page: PageId) -> Option<(u64, &JournalEntry)> {
        self.entries
            .iter()
            .find(|(_, e)| e.page == page)
            .map(|(&id, e)| (id, e))
    }

    /// Marks migration `id` committed (the mapping flip is about to be /
    /// has been made durable). Returns the entry, or `None` for an
    /// unknown id (e.g. a completion event for a rolled-back migration).
    pub fn mark_committed(&mut self, id: u64) -> Option<JournalEntry> {
        let e = self.entries.get_mut(&id)?;
        let snap = *e;
        e.state = TxnState::Committed;
        if snap.state == TxnState::Prepared {
            self.count(&snap, -1);
        }
        self.entries.get(&id).copied()
    }

    /// Retires a committed entry once the mapping flip is done. Retiring
    /// a missing or still-Prepared entry is a protocol violation: the
    /// journal is left untouched and the violation is counted.
    pub fn try_retire(&mut self, id: u64) -> Result<JournalEntry, JournalError> {
        match self.entries.get(&id) {
            Some(e) if e.state == TxnState::Committed => {
                Ok(self.entries.remove(&id).expect("entry just looked up"))
            }
            _ => {
                self.protocol_errors += 1;
                Err(JournalError::RetireNotCommitted { id })
            }
        }
    }

    /// [`MigrationJournal::try_retire`], panicking on a violation.
    pub fn retire(&mut self, id: u64) {
        self.try_retire(id).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Aborts migration `id`, removing its entry. Returns the entry so
    /// the caller can release the destination frame (the single abort
    /// path). `None` for unknown ids.
    pub fn abort(&mut self, id: u64) -> Option<JournalEntry> {
        let e = self.entries.remove(&id)?;
        if e.state == TxnState::Prepared {
            self.count(&e, -1);
        }
        Some(e)
    }

    /// Downgrades a Prepared entry's shadow intent from `Retain` to
    /// `Dirtied` (a write was observed inside the protection window).
    /// Returns true when an intent was actually dirtied.
    pub fn dirty_shadow(&mut self, id: u64) -> bool {
        let Some(e) = self.entries.get_mut(&id) else {
            return false;
        };
        if e.state != TxnState::Prepared || e.shadow != ShadowIntent::Retain {
            return false;
        }
        let snap = *e;
        e.shadow = ShadowIntent::Dirtied;
        self.count(&snap, -1);
        let snap = *self.entries.get(&id).expect("entry just updated");
        self.count(&snap, 1);
        true
    }

    /// Dirties every Prepared `Retain` intent whose page falls in
    /// `region[lo, hi)` — the write-protection stall path knows writes
    /// hit the protected window of this segment but not which page, so
    /// every candidate shadow in the segment is conservatively
    /// invalidated. Returns how many intents were dirtied.
    pub fn dirty_shadows_in(&mut self, region: RegionId, lo: u64, hi: u64) -> u64 {
        if self.counts.retain == 0 {
            return 0;
        }
        let ids: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| {
                e.state == TxnState::Prepared
                    && e.shadow == ShadowIntent::Retain
                    && e.page.region == region
                    && (lo..hi).contains(&e.page.index)
            })
            .map(|(&id, _)| id)
            .collect();
        let n = ids.len() as u64;
        for id in ids {
            self.dirty_shadow(id);
        }
        n
    }

    /// Prepared entries whose shadow intent is still `Retain` (fast-path
    /// guard for the dirtying scans).
    pub fn retained_intents(&self) -> u64 {
        self.counts.retain
    }

    /// Protocol violations observed and refused by the `try_` entry
    /// points since construction.
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors
    }

    /// Number of transactions still in the prepare phase (in-flight
    /// migrations).
    pub fn prepared_len(&self) -> u64 {
        debug_assert_eq!(
            self.counts.len,
            self.scan(|_| true),
            "incremental prepared_len diverged from scan"
        );
        self.counts.len
    }

    /// Number of in-flight (Prepared) transactions whose completion will
    /// free a `tier` frame — their source mapping lives in `tier` and is
    /// released on commit. The policy's watermark phase counts
    /// `prepared_freeing(Tier::Dram)` as DRAM that is already on its way
    /// to being free, so consecutive passes do not re-demote for the same
    /// deficit.
    pub fn prepared_freeing(&self, tier: Tier) -> u64 {
        debug_assert_eq!(
            self.counts.freeing[tier.rank()],
            self.scan(|e| e.src_tier == tier),
            "incremental prepared_freeing diverged from scan"
        );
        self.counts.freeing[tier.rank()]
    }

    /// Per-tenant form of [`MigrationJournal::prepared_len`]: in-flight
    /// transactions belonging to `tenant`. On a single-tenant machine
    /// every entry carries [`TenantId::SOLO`], so this equals the global
    /// count.
    pub fn prepared_len_for(&self, tenant: TenantId) -> u64 {
        let n = self.tenant_counts.get(&tenant).map_or(0, |c| c.len);
        debug_assert_eq!(
            n,
            self.scan(|e| e.tenant == tenant),
            "incremental prepared_len_for diverged from scan"
        );
        n
    }

    /// Per-tenant form of [`MigrationJournal::prepared_freeing`].
    pub fn prepared_freeing_for(&self, tenant: TenantId, tier: Tier) -> u64 {
        let n = self
            .tenant_counts
            .get(&tenant)
            .map_or(0, |c| c.freeing[tier.rank()]);
        debug_assert_eq!(
            n,
            self.scan(|e| e.tenant == tenant && e.src_tier == tier),
            "incremental prepared_freeing_for diverged from scan"
        );
        n
    }

    /// Per-tenant in-flight transactions *into* `tier`: their destination
    /// frame is already allocated from `tier`'s pool but not yet mapped.
    /// The arbiter counts `prepared_into_for(t, Tier::Dram)` toward
    /// tenant `t`'s DRAM claim.
    pub fn prepared_into_for(&self, tenant: TenantId, tier: Tier) -> u64 {
        let n = self
            .tenant_counts
            .get(&tenant)
            .map_or(0, |c| c.into[tier.rank()]);
        debug_assert_eq!(
            n,
            self.scan(|e| e.tenant == tenant && e.dst_tier == tier),
            "incremental prepared_into_for diverged from scan"
        );
        n
    }

    /// Reference implementation for the incremental counters: the linear
    /// scan the debug-mode equivalence asserts compare against.
    fn scan(&self, pred: impl Fn(&JournalEntry) -> bool) -> u64 {
        self.entries
            .values()
            .filter(|e| e.state == TxnState::Prepared && pred(e))
            .count() as u64
    }

    /// True when no transaction is outstanding — the quiescent state the
    /// auditor expects when the machine is idle.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All outstanding entries in id order (recovery replay order).
    pub fn entries(&self) -> impl Iterator<Item = (u64, &JournalEntry)> {
        self.entries.iter().map(|(&id, e)| (id, e))
    }

    /// Drains every outstanding entry in id order, for a recovery replay.
    pub fn drain(&mut self) -> Vec<(u64, JournalEntry)> {
        self.counts = PreparedCounts::default();
        self.tenant_counts.clear();
        std::mem::take(&mut self.entries).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_vmm::{RegionId, TenantId};

    fn page(i: u64) -> PageId {
        PageId {
            region: RegionId(0),
            index: i,
        }
    }

    fn prepare(j: &mut MigrationJournal, id: u64) {
        j.prepare(
            id,
            page(id),
            TenantId::SOLO,
            Tier::Nvm,
            PhysPage(id),
            Tier::Dram,
            PhysPage(100 + id),
        );
    }

    #[test]
    fn prepare_commit_retire_cycle_empties_journal() {
        let mut j = MigrationJournal::new();
        prepare(&mut j, 0);
        assert_eq!(j.prepared_len(), 1);
        assert!(!j.is_empty());
        let e = j.mark_committed(0).expect("entry");
        assert_eq!(e.state, TxnState::Committed);
        assert_eq!(j.prepared_len(), 0, "committed entries are not in-flight");
        j.retire(0);
        assert!(j.is_empty());
    }

    #[test]
    fn prepared_freeing_counts_by_source_tier_and_state() {
        let mut j = MigrationJournal::new();
        // Two demotions (Dram -> Nvm) and one promotion (Nvm -> Dram),
        // across two tenants.
        let (t0, t1) = (TenantId(0), TenantId(1));
        j.prepare(
            0,
            page(0),
            t0,
            Tier::Dram,
            PhysPage(0),
            Tier::Nvm,
            PhysPage(100),
        );
        j.prepare(
            1,
            page(1),
            t1,
            Tier::Dram,
            PhysPage(1),
            Tier::Nvm,
            PhysPage(101),
        );
        j.prepare(
            2,
            page(2),
            t0,
            Tier::Nvm,
            PhysPage(2),
            Tier::Dram,
            PhysPage(102),
        );
        assert_eq!(j.prepared_freeing(Tier::Dram), 2);
        assert_eq!(j.prepared_freeing(Tier::Nvm), 1);
        // Per-tenant views partition the global counts.
        assert_eq!(j.prepared_len_for(t0), 2);
        assert_eq!(j.prepared_len_for(t1), 1);
        assert_eq!(j.prepared_freeing_for(t0, Tier::Dram), 1);
        assert_eq!(j.prepared_freeing_for(t1, Tier::Dram), 1);
        assert_eq!(j.prepared_into_for(t0, Tier::Dram), 1);
        assert_eq!(j.prepared_into_for(t1, Tier::Dram), 0);
        // A committed demotion has already freed its frame: not counted.
        j.mark_committed(0);
        assert_eq!(j.prepared_freeing(Tier::Dram), 1);
        assert_eq!(j.prepared_freeing_for(t0, Tier::Dram), 0);
    }

    #[test]
    fn abort_returns_entry_for_frame_release() {
        let mut j = MigrationJournal::new();
        prepare(&mut j, 3);
        let e = j.abort(3).expect("entry");
        assert_eq!(e.dst_phys, PhysPage(103));
        assert!(j.is_empty());
        assert!(j.abort(3).is_none(), "second abort is a no-op");
    }

    #[test]
    fn drain_yields_entries_in_id_order() {
        let mut j = MigrationJournal::new();
        for id in [5, 1, 9] {
            prepare(&mut j, id);
        }
        let ids: Vec<u64> = j.drain().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 5, 9]);
        assert!(j.is_empty());
        assert_eq!(j.prepared_len(), 0, "drain resets the counters");
        assert_eq!(j.prepared_len_for(TenantId::SOLO), 0);
    }

    #[test]
    fn journal_clones_into_snapshots() {
        let mut j = MigrationJournal::new();
        prepare(&mut j, 7);
        j.mark_committed(7);
        prepare(&mut j, 8);
        let snap = j.clone();
        j.abort(8);
        j.retire(7);
        assert!(j.is_empty());
        assert_eq!(snap.prepared_len(), 1, "snapshot unaffected by later ops");
        assert_eq!(snap.entry(7).map(|e| e.state), Some(TxnState::Committed));
        assert_eq!(snap.entry(8).map(|e| e.dst_phys), Some(PhysPage(108)));
    }

    #[test]
    fn duplicate_prepare_is_refused_without_clobbering() {
        let mut j = MigrationJournal::new();
        prepare(&mut j, 4);
        let err = j.try_prepare(
            4,
            page(99),
            TenantId::SOLO,
            Tier::Dram,
            PhysPage(99),
            Tier::Nvm,
            PhysPage(199),
            ShadowIntent::Drop,
        );
        assert_eq!(err, Err(JournalError::DuplicatePrepare { id: 4 }));
        // The original entry survives untouched: no leaked dst frame.
        assert_eq!(j.entry(4).map(|e| e.dst_phys), Some(PhysPage(104)));
        assert_eq!(j.prepared_len(), 1);
        assert_eq!(j.protocol_errors(), 1, "violation is counted");
    }

    #[test]
    fn retire_of_non_committed_entry_is_refused() {
        let mut j = MigrationJournal::new();
        prepare(&mut j, 5);
        // Still Prepared: refused, transaction stays in flight.
        assert_eq!(
            j.try_retire(5),
            Err(JournalError::RetireNotCommitted { id: 5 })
        );
        assert_eq!(j.prepared_len(), 1, "in-flight transaction not dropped");
        // Unknown id: refused too.
        assert_eq!(
            j.try_retire(42),
            Err(JournalError::RetireNotCommitted { id: 42 })
        );
        assert_eq!(j.protocol_errors(), 2);
        j.mark_committed(5);
        assert!(j.try_retire(5).is_ok());
        assert!(j.is_empty());
    }

    #[test]
    #[should_panic(expected = "journaled twice")]
    fn duplicate_prepare_panics_in_release_too() {
        let mut j = MigrationJournal::new();
        prepare(&mut j, 6);
        prepare(&mut j, 6);
    }

    #[test]
    #[should_panic(expected = "retire of non-committed")]
    fn retire_of_prepared_entry_panics() {
        let mut j = MigrationJournal::new();
        prepare(&mut j, 6);
        j.retire(6);
    }

    #[test]
    fn shadow_intent_dirties_inside_the_wp_window() {
        let mut j = MigrationJournal::new();
        j.prepare_shadowed(
            0,
            page(10),
            TenantId::SOLO,
            Tier::Nvm,
            PhysPage(10),
            Tier::Dram,
            PhysPage(110),
            ShadowIntent::Retain,
        );
        assert_eq!(j.retained_intents(), 1);
        // A write in a disjoint span leaves the intent alone.
        assert_eq!(j.dirty_shadows_in(RegionId(0), 20, 30), 0);
        assert_eq!(j.retained_intents(), 1);
        // A write over the page's span dirties it.
        assert_eq!(j.dirty_shadows_in(RegionId(0), 0, 16), 1);
        assert_eq!(j.retained_intents(), 0);
        assert_eq!(j.entry(0).map(|e| e.shadow), Some(ShadowIntent::Dirtied));
        // Dirtying is idempotent, and commit preserves the intent.
        assert!(!j.dirty_shadow(0));
        let e = j.mark_committed(0).expect("entry");
        assert_eq!(e.shadow, ShadowIntent::Dirtied);
        j.retire(0);
    }

    #[test]
    fn entry_for_page_finds_the_outstanding_transaction() {
        let mut j = MigrationJournal::new();
        prepare(&mut j, 3);
        assert_eq!(j.entry_for_page(page(3)).map(|(id, _)| id), Some(3));
        assert!(j.entry_for_page(page(4)).is_none());
    }

    #[test]
    fn incremental_counts_survive_a_full_lifecycle_mix() {
        let mut j = MigrationJournal::new();
        let t = TenantId(2);
        j.prepare_shadowed(
            0,
            page(0),
            t,
            Tier::Nvm,
            PhysPage(0),
            Tier::Dram,
            PhysPage(100),
            ShadowIntent::Retain,
        );
        j.prepare(
            1,
            page(1),
            t,
            Tier::Dram,
            PhysPage(1),
            Tier::Nvm,
            PhysPage(101),
        );
        j.prepare(
            2,
            page(2),
            t,
            Tier::Nvm,
            PhysPage(2),
            Tier::Ssd,
            PhysPage(102),
        );
        assert_eq!(j.prepared_len_for(t), 3);
        assert_eq!(j.prepared_freeing_for(t, Tier::Nvm), 2);
        assert_eq!(j.prepared_into_for(t, Tier::Dram), 1);
        j.abort(2);
        assert_eq!(j.prepared_freeing_for(t, Tier::Nvm), 1);
        j.mark_committed(0);
        assert_eq!(j.prepared_len_for(t), 1);
        assert_eq!(j.retained_intents(), 0, "commit consumed the intent");
        j.retire(0);
        j.abort(1);
        assert_eq!(j.prepared_len_for(t), 0);
        assert!(j.is_empty());
    }
}
