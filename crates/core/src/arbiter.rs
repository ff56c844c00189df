//! Global DRAM arbiter for multi-tenant colocation.
//!
//! When several tenants share one machine, the fast tier is the
//! contended resource: each tenant's HeMem instance would happily grow
//! its DRAM-resident set to the watermark, and whichever tenant faults
//! first wins the pool. The arbiter owns the DRAM tier's capacity and
//! hands each tenant a *quota* — an upper bound on the DRAM pages the
//! tenant may have resident (mapped plus in-flight promotions). Each
//! tenant's policy pass then runs against its quota instead of the raw
//! pool, so placement and demotion decisions stay per-tenant while the
//! capacity split is global.
//!
//! Quotas are reallocated periodically from two per-tenant demand
//! signals, in the style of MaxMem's miss-ratio arbitration:
//!
//! * the **hot-set size** the tenant's tracker currently observes, and
//! * the **DRAM miss rate** — the fraction of the tenant's loads served
//!   from NVM since the last reallocation.
//!
//! Three policies are selectable per run ([`ArbiterPolicy`]): fixed
//! equal shares, shares proportional to hot-set size, and a greedy
//! stepper that moves one quota step per period from the tenant with the
//! lowest miss rate to the tenant with the highest. All arithmetic is
//! integer (miss rates compare cross-multiplied), reallocation order is
//! index-deterministic, and the quota sum is preserved exactly, so a
//! multi-tenant run replays byte-identically. A single-tenant arbiter
//! always assigns the whole tier to the tenant, under every policy —
//! that degenerate case is what keeps the arbitrated path byte-identical
//! to the solo path.
//!
//! Tenants are a *lifecycle*, not a constant: slots can be admitted and
//! retired mid-run ([`DramArbiter::admit`] / [`DramArbiter::retire`]),
//! and a live tenant can be ballooned down to release pages back to a
//! host reserve ([`DramArbiter::balloon`]). The quota floor is always
//! recomputed from the live tenant set, admission is rejected when the
//! floor would be unsatisfiable, and the conservation invariant extends
//! to `sum(quotas) + unassigned == total` with every retired slot at
//! zero — which is what the `ZombieTenantQuota` audit checks.
//!
//! Retirement banks the reclaimed quota in a `releasable` sub-account
//! of the host reserve instead of equal-splitting it eagerly; the next
//! periodic reallocation distributes it in one batch, so quota moves on
//! the reallocation period and not per lifecycle event. Retire itself
//! runs one scan over the slots that lifts any survivor a balloon held
//! below the raised floor (and its cap) back to the floor.

use hemem_vmm::TenantId;

/// Why an [`DramArbiter::admit`] call was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The slot index is outside the arbiter's capacity.
    NoSuchSlot,
    /// The slot is already live.
    AlreadyLive,
    /// Admitting one more tenant would make the per-tenant quota floor
    /// unsatisfiable (`floor * live > total_pages`).
    FloorUnsatisfiable,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::NoSuchSlot => write!(f, "tenant slot out of range"),
            AdmitError::AlreadyLive => write!(f, "tenant already live"),
            AdmitError::FloorUnsatisfiable => {
                write!(f, "quota floor unsatisfiable for the grown live set")
            }
        }
    }
}

/// How the arbiter divides the DRAM tier among tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterPolicy {
    /// Fixed equal shares, set at startup and never moved.
    StaticShares,
    /// Shares proportional to each tenant's observed hot-set size,
    /// recomputed every reallocation period.
    ProportionalShares,
    /// MaxMem-style greedy stepper: each period, move one quota step
    /// from the tenant with the lowest DRAM miss rate to the tenant
    /// with the highest.
    GreedyMissRatio,
}

impl ArbiterPolicy {
    /// Every policy, in sweep order.
    pub const ALL: [ArbiterPolicy; 3] = [
        ArbiterPolicy::StaticShares,
        ArbiterPolicy::ProportionalShares,
        ArbiterPolicy::GreedyMissRatio,
    ];

    /// Short stable label for CSV columns and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            ArbiterPolicy::StaticShares => "static",
            ArbiterPolicy::ProportionalShares => "proportional",
            ArbiterPolicy::GreedyMissRatio => "greedy",
        }
    }

    /// Parses a CLI label; the inverse of [`ArbiterPolicy::label`].
    pub fn parse(s: &str) -> Option<ArbiterPolicy> {
        ArbiterPolicy::ALL.into_iter().find(|p| p.label() == s)
    }
}

/// Per-tenant demand signals a reallocation reads. The manager
/// accumulates the load counters between reallocations and resets them
/// after each one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantSignal {
    /// Bytes the tenant's tracker currently considers hot.
    pub hot_bytes: u64,
    /// Loads served from DRAM since the last reallocation.
    pub dram_loads: u64,
    /// Loads served from NVM since the last reallocation — the tenant's
    /// DRAM misses.
    pub nvm_loads: u64,
}

impl TenantSignal {
    /// Miss rate as an exact rational `(numerator, denominator)`;
    /// `(0, 1)` when the tenant issued no loads. Comparing
    /// cross-multiplied keeps the arbiter free of floating point.
    fn miss_ratio(&self) -> (u128, u128) {
        let total = self.dram_loads as u128 + self.nvm_loads as u128;
        if total == 0 {
            (0, 1)
        } else {
            (self.nvm_loads as u128, total)
        }
    }
}

/// Compares two miss ratios without floats: `a > b`?
fn ratio_gt(a: (u128, u128), b: (u128, u128)) -> bool {
    a.0 * b.1 > b.0 * a.1
}

/// The global DRAM arbiter: owns the fast tier's page capacity and the
/// per-tenant quota vector. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct DramArbiter {
    policy: ArbiterPolicy,
    total_pages: u64,
    quotas: Vec<u64>,
    /// Liveness per slot: retired (or not-yet-admitted) slots hold zero
    /// quota and are skipped by reallocation.
    live: Vec<bool>,
    /// Pages held by the host reserve rather than any tenant — the
    /// destination of ballooned-out quota and the first source for
    /// admission grants.
    unassigned: u64,
    /// Per-slot quota ceiling (`u64::MAX` = uncapped). A balloon pins
    /// the cap at its target so periodic reallocation cannot regrow the
    /// tenant past it; admit/retire reset the slot's cap.
    caps: Vec<u64>,
    /// Pages of `unassigned` banked by retirements and owed back to the
    /// survivors: the next periodic reallocation splits them equally
    /// (cap-respecting) instead of retire doing an O(n) split per event.
    releasable: u64,
    /// Quota moved per greedy reallocation, in pages.
    realloc_step_pages: u64,
    /// Reallocation period in simulated nanoseconds.
    realloc_period_ns: u64,
    next_realloc_ns: u64,
    reallocations: u64,
}

impl DramArbiter {
    /// Default reallocation period: 100 ms, ten policy ticks.
    pub const DEFAULT_REALLOC_PERIOD_NS: u64 = 100_000_000;

    /// Creates an arbiter over `total_pages` of DRAM split among
    /// `tenants` tenants, starting from equal shares (the first
    /// `total_pages % tenants` tenants absorb the remainder). A
    /// single-tenant arbiter holds the whole tier under every policy.
    pub fn new(policy: ArbiterPolicy, total_pages: u64, tenants: usize) -> DramArbiter {
        assert!(tenants > 0, "arbiter needs at least one tenant");
        let n = tenants as u64;
        let base = total_pages / n;
        let rem = total_pages % n;
        let quotas = (0..n).map(|i| base + u64::from(i < rem)).collect();
        DramArbiter {
            policy,
            total_pages,
            quotas,
            live: vec![true; tenants],
            unassigned: 0,
            caps: vec![u64::MAX; tenants],
            releasable: 0,
            realloc_step_pages: (total_pages / 64).max(1),
            realloc_period_ns: DramArbiter::DEFAULT_REALLOC_PERIOD_NS,
            next_realloc_ns: DramArbiter::DEFAULT_REALLOC_PERIOD_NS,
            reallocations: 0,
        }
    }

    /// Creates an arbiter with `capacity` tenant slots, none of them
    /// live: every page sits in the host reserve until slots are
    /// admitted one by one. This is the entry point for churny runs
    /// where tenants arrive on a schedule rather than at construction.
    pub fn deferred(policy: ArbiterPolicy, total_pages: u64, capacity: usize) -> DramArbiter {
        assert!(capacity > 0, "arbiter needs at least one tenant slot");
        DramArbiter {
            policy,
            total_pages,
            quotas: vec![0; capacity],
            live: vec![false; capacity],
            unassigned: total_pages,
            caps: vec![u64::MAX; capacity],
            releasable: 0,
            realloc_step_pages: (total_pages / 64).max(1),
            realloc_period_ns: DramArbiter::DEFAULT_REALLOC_PERIOD_NS,
            next_realloc_ns: DramArbiter::DEFAULT_REALLOC_PERIOD_NS,
            reallocations: 0,
        }
    }

    /// The policy this arbiter reallocates with.
    pub fn policy(&self) -> ArbiterPolicy {
        self.policy
    }

    /// Total DRAM pages under arbitration.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Number of tenant slots (live or retired) the arbiter tracks.
    pub fn tenants(&self) -> usize {
        self.quotas.len()
    }

    /// Number of currently live tenants.
    pub fn live_tenants(&self) -> usize {
        self.live.iter().filter(|l| **l).count()
    }

    /// Pages of the host reserve banked by retirements and pending
    /// redistribution at the next reallocation period.
    pub fn releasable_pages(&self) -> u64 {
        self.releasable
    }

    /// True while tenant `t` is live (admitted and not retired).
    pub fn is_live(&self, t: TenantId) -> bool {
        self.live.get(t.0 as usize).copied().unwrap_or(false)
    }

    /// Pages currently held by the host reserve.
    pub fn unassigned_pages(&self) -> u64 {
        self.unassigned
    }

    /// The per-tenant quota floor, recomputed from the *live* tenant
    /// set: an eighth of an equal share, never below one page.
    pub fn floor_pages(&self) -> u64 {
        let n = (self.live_tenants() as u64).max(1);
        (self.total_pages / (8 * n)).max(1)
    }

    /// Tenant `t`'s current DRAM quota, in pages.
    pub fn quota_pages(&self, t: TenantId) -> u64 {
        self.quotas[t.0 as usize]
    }

    /// The full quota vector, indexed by tenant.
    pub fn quotas(&self) -> &[u64] {
        &self.quotas
    }

    /// Pages moved per greedy reallocation step.
    pub fn realloc_step_pages(&self) -> u64 {
        self.realloc_step_pages
    }

    /// Overrides the greedy reallocation step.
    pub fn set_realloc_step_pages(&mut self, pages: u64) {
        self.realloc_step_pages = pages.max(1);
    }

    /// Overrides the reallocation period (simulated nanoseconds).
    pub fn set_realloc_period_ns(&mut self, ns: u64) {
        self.realloc_period_ns = ns.max(1);
        self.next_realloc_ns = self.realloc_period_ns;
    }

    /// Reallocations performed so far.
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// True while the quota vector plus the host reserve still sums to
    /// the tier's capacity and every retired slot holds zero quota —
    /// the arbiter's conservation invariant, checked by the audit. Also
    /// checks that the releasable sub-account never exceeds the reserve.
    pub fn conserved(&self) -> bool {
        self.quotas.iter().sum::<u64>() + self.unassigned == self.total_pages
            && self
                .quotas
                .iter()
                .zip(&self.live)
                .all(|(q, l)| *l || *q == 0)
            && self.releasable <= self.unassigned
    }

    /// Re-clamps the releasable sub-account after something else drew
    /// from the host reserve (admission grants, floor repairs, balloon
    /// grows spend reserve pages releasable may have been backing).
    fn clamp_releasable(&mut self) {
        self.releasable = self.releasable.min(self.unassigned);
    }

    /// Admits tenant slot `t` into the live set, returning its granted
    /// quota. The grant targets an equal share of the tier, drawn from
    /// the host reserve first and then by shaving live tenants toward
    /// the recomputed floor in index order. Admission is rejected when
    /// the grown live set could not all sit at the floor.
    pub fn admit(&mut self, t: TenantId) -> Result<u64, AdmitError> {
        let i = t.0 as usize;
        if i >= self.quotas.len() {
            return Err(AdmitError::NoSuchSlot);
        }
        if self.live[i] {
            return Err(AdmitError::AlreadyLive);
        }
        let n_new = self.live_tenants() as u64 + 1;
        let floor = (self.total_pages / (8 * n_new)).max(1);
        match floor.checked_mul(n_new) {
            Some(need) if need <= self.total_pages => {}
            _ => return Err(AdmitError::FloorUnsatisfiable),
        }
        debug_assert_eq!(self.quotas[i], 0, "retired slot held quota");
        let want = self.total_pages / n_new;
        let mut grant = self.unassigned.min(want.max(floor));
        self.unassigned -= grant;
        self.clamp_releasable();
        // The reserve alone may not reach the floor; shave live tenants
        // down toward the floor, lowest index first, stopping as soon as
        // the grant is covered. The admission check above guarantees the
        // loop reaches the floor; in the common fleet case the reserve
        // covers the grant and the loop never runs.
        if grant < floor {
            let mut need = floor - grant;
            for (q, l) in self.quotas.iter_mut().zip(&self.live) {
                if need == 0 {
                    break;
                }
                if !*l {
                    continue;
                }
                let cut = q.saturating_sub(floor).min(need);
                *q -= cut;
                grant += cut;
                need -= cut;
            }
            assert_eq!(need, 0, "admission check let an unsatisfiable join in");
        }
        self.quotas[i] = grant;
        self.live[i] = true;
        self.caps[i] = u64::MAX;
        debug_assert!(self.conserved(), "admit broke conservation");
        Ok(grant)
    }

    /// Retires tenant `t`: the reclaimed quota is banked in the host
    /// reserve's releasable sub-account and handed back to the
    /// survivors in one equal (cap-respecting) batch at the next
    /// reallocation period, rather than equal-split eagerly per event.
    /// The live-set shrink raises the floor, so one scan lifts every
    /// survivor a balloon pinned below it (and its cap) to the floor,
    /// drawing from the reclaimed pool and then the reserve; what the
    /// scan leaves is banked. Returns the reclaimed quota. Idempotent on
    /// already-retired slots.
    pub fn retire(&mut self, t: TenantId) -> u64 {
        let i = t.0 as usize;
        if i >= self.quotas.len() || !self.live[i] {
            return 0;
        }
        let reclaimed = std::mem::take(&mut self.quotas[i]);
        self.live[i] = false;
        self.caps[i] = u64::MAX;
        if !self.live.contains(&true) {
            // No survivors: everything returns to the plain reserve.
            self.unassigned += reclaimed;
            debug_assert!(self.conserved(), "retire broke conservation");
            return reclaimed;
        }
        let floor = self.floor_pages();
        let mut pool = reclaimed;
        for j in 0..self.quotas.len() {
            if !self.live[j] {
                continue;
            }
            // The floor is the tenant's guarantee; a balloon cap below
            // it no longer binds.
            self.caps[j] = self.caps[j].max(floor);
            if self.quotas[j] < floor {
                let need = floor - self.quotas[j];
                let take = need.min(pool);
                pool -= take;
                let pull = (need - take).min(self.unassigned);
                self.unassigned -= pull;
                self.quotas[j] += take + pull;
            }
        }
        self.unassigned += pool;
        self.releasable += pool;
        self.clamp_releasable();
        debug_assert!(self.conserved(), "retire broke conservation");
        reclaimed
    }

    /// Splits the releasable reserve equally among the live tenants
    /// (remainder to the lowest indices), respecting balloon caps;
    /// whatever no one can absorb stays in the plain reserve. Runs at
    /// most once per reallocation period. Returns `true` when any quota
    /// moved.
    fn distribute_releasable(&mut self) -> bool {
        let n = self.live_tenants() as u64;
        if self.releasable == 0 || n == 0 {
            return false;
        }
        let pool = std::mem::take(&mut self.releasable);
        let base = pool / n;
        let rem = pool % n;
        let mut given = 0u64;
        let mut k = 0u64;
        for j in 0..self.quotas.len() {
            if !self.live[j] {
                continue;
            }
            let give = (base + u64::from(k < rem)).min(self.caps[j].saturating_sub(self.quotas[j]));
            self.quotas[j] += give;
            given += give;
            k += 1;
        }
        // Cap-pinned survivors cannot absorb their share; the remainder
        // stays in the plain host reserve.
        self.unassigned -= given;
        debug_assert!(self.conserved(), "releasable split broke conservation");
        given > 0
    }

    /// Balloons live tenant `t` toward `target_pages`: a shrink releases
    /// the difference to the host reserve, a grow draws from whatever
    /// the reserve holds. The target is clamped to the live-set floor so
    /// ballooning can never starve the tenant below its guarantee, and
    /// it pins the slot's quota cap so periodic reallocation cannot
    /// quietly regrow the tenant past it ([`DramArbiter::unballoon`]
    /// lifts the cap). Returns the quota actually in effect afterwards.
    pub fn balloon(&mut self, t: TenantId, target_pages: u64) -> u64 {
        let i = t.0 as usize;
        if i >= self.quotas.len() || !self.live[i] {
            return 0;
        }
        let target = target_pages.max(self.floor_pages());
        let q = self.quotas[i];
        if target < q {
            self.unassigned += q - target;
            self.quotas[i] = target;
        } else if target > q {
            let take = (target - q).min(self.unassigned);
            self.unassigned -= take;
            self.clamp_releasable();
            self.quotas[i] += take;
        }
        self.caps[i] = if target_pages == u64::MAX {
            u64::MAX
        } else {
            target
        };
        debug_assert!(self.conserved(), "balloon broke conservation");
        self.quotas[i]
    }

    /// Lifts tenant `t`'s balloon cap without touching its quota; the
    /// next reallocation may grow it again.
    pub fn unballoon(&mut self, t: TenantId) {
        if let Some(cap) = self.caps.get_mut(t.0 as usize) {
            *cap = u64::MAX;
        }
    }

    /// Tenant `t`'s quota ceiling (`u64::MAX` when uncapped).
    pub fn quota_cap(&self, t: TenantId) -> u64 {
        self.caps[t.0 as usize]
    }

    /// Tenant `t`'s share of a global per-period quantity (migration
    /// byte budget, in-flight page cap, watermark), proportional to its
    /// quota. A single-tenant arbiter returns `global` exactly, which
    /// keeps the solo arbitrated path byte-identical to the unarbitrated
    /// one.
    pub fn share_of(&self, t: TenantId, global: u64) -> u64 {
        if self.quotas.len() == 1 {
            return global;
        }
        (global as u128 * self.quota_pages(t) as u128 / self.total_pages.max(1) as u128) as u64
    }

    /// Runs a reallocation if the period elapsed. Returns `true` when
    /// quotas may have moved. `signals` is indexed by tenant and must
    /// cover every tenant. Quota banked by retirements since the last
    /// period is redistributed here first, under every policy, then the
    /// demand-driven policy runs.
    pub fn maybe_realloc(&mut self, now_ns: u64, signals: &[TenantSignal]) -> bool {
        if now_ns < self.next_realloc_ns {
            return false;
        }
        while self.next_realloc_ns <= now_ns {
            self.next_realloc_ns += self.realloc_period_ns;
        }
        let released = self.distribute_releasable();
        if self.live_tenants() < 2 || self.policy == ArbiterPolicy::StaticShares {
            return released;
        }
        assert_eq!(signals.len(), self.quotas.len(), "one signal per slot");
        match self.policy {
            ArbiterPolicy::StaticShares => unreachable!(),
            ArbiterPolicy::ProportionalShares => self.realloc_proportional(signals),
            ArbiterPolicy::GreedyMissRatio => self.realloc_greedy(signals),
        }
        self.reallocations += 1;
        debug_assert!(self.conserved(), "reallocation changed the quota sum");
        true
    }

    /// Quota proportional to hot-set size, above a common floor. Integer
    /// division remainders go to the lowest-indexed live tenants, so the
    /// sum is preserved exactly and the split is deterministic. Only the
    /// live set participates; the host reserve is never spent here. The
    /// floor is recomputed from the live count and subtracted with
    /// saturating arithmetic, so a live set churned down to one tenant
    /// cannot underflow `spendable`.
    fn realloc_proportional(&mut self, signals: &[TenantSignal]) {
        let live: Vec<usize> = (0..self.quotas.len()).filter(|&i| self.live[i]).collect();
        let n = live.len() as u64;
        let assignable = self.total_pages - self.unassigned;
        let floor = self.floor_pages().min(assignable / n.max(1));
        let spendable = assignable.saturating_sub(floor * n);
        // +1 keeps the weights non-degenerate when every tenant is cold.
        let weights: Vec<u128> = live
            .iter()
            .map(|&i| signals[i].hot_bytes as u128 + 1)
            .collect();
        let sum: u128 = weights.iter().sum();
        let mut acc = 0u64;
        for (&i, w) in live.iter().zip(&weights) {
            self.quotas[i] = floor + (spendable as u128 * w / sum) as u64;
            acc += self.quotas[i];
        }
        let mut left = assignable - acc;
        let mut i = 0usize;
        let n = live.len();
        while left > 0 {
            self.quotas[live[i % n]] += 1;
            left -= 1;
            i += 1;
        }
        self.apply_caps(&live);
    }

    /// Clamps every live quota to its balloon cap, redistributing the
    /// excess round-robin to live tenants with cap headroom; whatever no
    /// one can absorb goes to the host reserve. A no-op while every cap
    /// is `u64::MAX`, which keeps cap-free runs byte-identical.
    fn apply_caps(&mut self, live: &[usize]) {
        let mut excess = 0u64;
        for &i in live {
            if self.quotas[i] > self.caps[i] {
                excess += self.quotas[i] - self.caps[i];
                self.quotas[i] = self.caps[i];
            }
        }
        while excess > 0 {
            let mut moved = false;
            for &i in live {
                if excess == 0 {
                    break;
                }
                if self.quotas[i] < self.caps[i] {
                    self.quotas[i] += 1;
                    excess -= 1;
                    moved = true;
                }
            }
            if !moved {
                self.unassigned += excess;
                break;
            }
        }
    }

    /// Moves one quota step from the lowest-miss-rate live tenant to the
    /// highest, if the gap is material (≥ 1/64). Ties break toward the
    /// lowest index, so the step is deterministic. The floor protecting
    /// the donor is recomputed from the live set.
    fn realloc_greedy(&mut self, signals: &[TenantSignal]) {
        let live: Vec<usize> = (0..self.quotas.len()).filter(|&i| self.live[i]).collect();
        let ratios: Vec<(u128, u128)> = live.iter().map(|&i| signals[i].miss_ratio()).collect();
        let mut hi = 0usize;
        let mut lo = 0usize;
        for i in 1..ratios.len() {
            if ratio_gt(ratios[i], ratios[hi]) {
                hi = i;
            }
            if ratio_gt(ratios[lo], ratios[i]) {
                lo = i;
            }
        }
        if hi == lo {
            return;
        }
        // Material gap: miss(hi) - miss(lo) >= 1/64, cross-multiplied.
        let (hn, hd) = ratios[hi];
        let (ln, ld) = ratios[lo];
        if 64 * (hn * ld).saturating_sub(ln * hd) < hd * ld {
            return;
        }
        let floor = self.floor_pages();
        let step = self
            .realloc_step_pages
            .min(self.quotas[live[lo]].saturating_sub(floor))
            // A ballooned winner cannot grow past its cap.
            .min(self.caps[live[hi]].saturating_sub(self.quotas[live[hi]]));
        self.quotas[live[lo]] -= step;
        self.quotas[live[hi]] += step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot(hot_bytes: u64) -> TenantSignal {
        TenantSignal {
            hot_bytes,
            ..TenantSignal::default()
        }
    }

    fn misses(dram: u64, nvm: u64) -> TenantSignal {
        TenantSignal {
            hot_bytes: 0,
            dram_loads: dram,
            nvm_loads: nvm,
        }
    }

    #[test]
    fn single_tenant_owns_the_whole_tier_under_every_policy() {
        for policy in ArbiterPolicy::ALL {
            let mut a = DramArbiter::new(policy, 512, 1);
            assert_eq!(a.quota_pages(TenantId::SOLO), 512);
            assert_eq!(a.share_of(TenantId::SOLO, 123_457), 123_457);
            // Reallocation never moves a solo tenant's quota.
            for tick in 1..=20u64 {
                a.maybe_realloc(tick * 100_000_000, &[misses(1, 1_000)]);
            }
            assert_eq!(a.quota_pages(TenantId::SOLO), 512);
            assert!(a.conserved());
        }
    }

    #[test]
    fn equal_split_distributes_the_remainder_deterministically() {
        let a = DramArbiter::new(ArbiterPolicy::StaticShares, 10, 3);
        assert_eq!(a.quotas(), &[4, 3, 3]);
        assert!(a.conserved());
    }

    #[test]
    fn static_shares_never_move() {
        let mut a = DramArbiter::new(ArbiterPolicy::StaticShares, 512, 2);
        let before = a.quotas().to_vec();
        let moved = a.maybe_realloc(1_000_000_000, &[misses(0, 1_000), misses(1_000, 0)]);
        assert!(!moved);
        assert_eq!(a.quotas(), &before[..]);
    }

    #[test]
    fn proportional_shares_follow_hot_set_size() {
        let mut a = DramArbiter::new(ArbiterPolicy::ProportionalShares, 512, 2);
        a.maybe_realloc(100_000_000, &[hot(3 << 30), hot(1 << 30)]);
        assert!(a.conserved());
        assert!(
            a.quota_pages(TenantId(0)) > a.quota_pages(TenantId(1)),
            "hotter tenant gets the larger share: {:?}",
            a.quotas()
        );
        // Neither tenant falls below the floor.
        assert!(a.quota_pages(TenantId(1)) >= 512 / 16);
    }

    #[test]
    fn greedy_moves_quota_toward_the_missing_tenant() {
        let mut a = DramArbiter::new(ArbiterPolicy::GreedyMissRatio, 512, 2);
        let before = a.quota_pages(TenantId(0));
        // Tenant 0 misses half its loads; tenant 1 misses none.
        a.maybe_realloc(100_000_000, &[misses(500, 500), misses(1_000, 0)]);
        assert!(a.conserved());
        assert_eq!(a.quota_pages(TenantId(0)), before + a.realloc_step_pages());
        // A negligible gap does not move quota.
        let held = a.quotas().to_vec();
        a.maybe_realloc(200_000_000, &[misses(10_000, 1), misses(10_000, 0)]);
        assert_eq!(a.quotas(), &held[..]);
    }

    #[test]
    fn greedy_respects_the_quota_floor() {
        let mut a = DramArbiter::new(ArbiterPolicy::GreedyMissRatio, 512, 2);
        a.set_realloc_step_pages(1 << 20); // absurdly large step
        a.maybe_realloc(100_000_000, &[misses(0, 1_000), misses(1_000, 0)]);
        assert!(a.conserved());
        assert!(a.quota_pages(TenantId(1)) >= 512 / 16);
    }

    #[test]
    fn realloc_fires_once_per_period() {
        let mut a = DramArbiter::new(ArbiterPolicy::GreedyMissRatio, 512, 2);
        let s = [misses(0, 1_000), misses(1_000, 0)];
        assert!(!a.maybe_realloc(50_000_000, &s), "period not elapsed");
        assert!(a.maybe_realloc(100_000_000, &s));
        assert!(!a.maybe_realloc(150_000_000, &s), "already fired");
        assert!(a.maybe_realloc(1_000_000_000, &s), "late tick catches up");
        assert_eq!(a.reallocations(), 2);
    }

    #[test]
    fn share_of_is_quota_proportional_for_multi_tenant() {
        let a = DramArbiter::new(ArbiterPolicy::StaticShares, 512, 2);
        assert_eq!(a.share_of(TenantId(0), 10_000_000_000), 5_000_000_000);
        assert_eq!(a.share_of(TenantId(1), 10_000_000_000), 5_000_000_000);
    }

    #[test]
    fn retire_to_one_tenant_does_not_underflow_proportional() {
        // Regression: the floor used to be frozen at construction, so
        // shrinking the live set to 1 made `total - floor * n`
        // computations fragile. Retire now banks the reclaim in the
        // releasable reserve (O(1) fast path — every survivor already
        // clears the raised floor) and the next reallocation period
        // hands the survivor everything in one batch.
        let mut a = DramArbiter::new(ArbiterPolicy::ProportionalShares, 512, 4);
        for t in 1..4 {
            a.retire(TenantId(t));
        }
        assert_eq!(a.live_tenants(), 1);
        assert_eq!(a.quota_pages(TenantId(0)), 128, "split is deferred");
        assert_eq!(a.releasable_pages(), 384);
        assert!(a.conserved());
        // The periodic reallocation performs the deferred split even
        // though live < 2 short-circuits the demand policy.
        assert!(a.maybe_realloc(100_000_000, &[hot(1); 4]));
        assert_eq!(a.quota_pages(TenantId(0)), 512);
        assert_eq!(a.releasable_pages(), 0);
        assert!(a.conserved());
    }

    #[test]
    fn deferred_split_respects_balloon_caps() {
        // Three live tenants, one capped: the capped slot's share of a
        // retiree's quota cannot regrow it past the cap, and whatever
        // it cannot absorb stays in the host reserve.
        let mut a = DramArbiter::new(ArbiterPolicy::StaticShares, 512, 4);
        a.balloon(TenantId(0), 100);
        assert_eq!(a.quota_pages(TenantId(0)), 100);
        let reclaimed = a.retire(TenantId(3));
        assert_eq!(reclaimed, 128);
        assert!(a.conserved());
        a.maybe_realloc(100_000_000, &[TenantSignal::default(); 4]);
        assert_eq!(a.quota_pages(TenantId(0)), 100, "cap holds");
        assert!(a.conserved());
        // The uncapped survivors absorbed their shares.
        assert!(a.quota_pages(TenantId(1)) > 128);
        assert!(a.quota_pages(TenantId(2)) > 128);
    }

    #[test]
    fn retire_repairs_a_balloon_pinned_survivor_below_the_raised_floor() {
        // Tenant 1 balloons to the 4-live floor (16 pages); retiring
        // two tenants raises the floor to 32, so the repair scan must
        // lift both the quota and the pinned cap to the new floor.
        let mut a = DramArbiter::new(ArbiterPolicy::GreedyMissRatio, 512, 4);
        let floor4 = a.floor_pages();
        assert_eq!(floor4, 16);
        a.balloon(TenantId(1), 0); // clamps at the floor, pins the cap
        assert_eq!(a.quota_pages(TenantId(1)), 16);
        a.retire(TenantId(2));
        a.retire(TenantId(3));
        let floor2 = a.floor_pages();
        assert_eq!(floor2, 32);
        assert!(a.quota_pages(TenantId(1)) >= floor2, "floor repaired");
        assert!(a.quota_cap(TenantId(1)) >= floor2, "cap lifted");
        assert!(a.conserved());
    }

    #[test]
    fn admit_retire_at_max_capacity_stays_conserved() {
        // Regression (satellite 1), n = max: fill every slot of a tiny
        // tier where floors bind, then churn it.
        let mut a = DramArbiter::deferred(ArbiterPolicy::ProportionalShares, 64, 8);
        for t in 0..8 {
            a.admit(TenantId(t)).expect("floor is satisfiable");
        }
        assert_eq!(a.live_tenants(), 8);
        assert!(a.conserved());
        assert!(a.maybe_realloc(100_000_000, &[hot(1 << 20); 8]));
        assert!(a.conserved());
        let floor = a.floor_pages();
        for t in 0..8 {
            assert!(a.quota_pages(TenantId(t)) >= floor);
        }
        for t in 0..8 {
            a.retire(TenantId(t));
            assert!(a.conserved());
            assert_eq!(a.quota_pages(TenantId(t)), 0);
        }
        assert_eq!(a.unassigned_pages(), 64);
    }

    #[test]
    fn admission_control_rejects_unsatisfiable_floor() {
        // 4 pages cannot give 5 tenants a one-page floor each.
        let mut a = DramArbiter::deferred(ArbiterPolicy::StaticShares, 4, 6);
        for t in 0..4 {
            assert!(a.admit(TenantId(t)).is_ok());
        }
        assert_eq!(a.admit(TenantId(4)), Err(AdmitError::FloorUnsatisfiable));
        assert_eq!(a.admit(TenantId(2)), Err(AdmitError::AlreadyLive));
        assert_eq!(a.admit(TenantId(9)), Err(AdmitError::NoSuchSlot));
        assert!(a.conserved());
    }

    #[test]
    fn admit_shaves_live_tenants_when_the_reserve_is_empty() {
        let a = DramArbiter::new(ArbiterPolicy::GreedyMissRatio, 512, 2);
        assert_eq!(a.unassigned_pages(), 0);
        // Grow the slot table by retiring nobody: build a deferred one.
        let mut b = DramArbiter::deferred(ArbiterPolicy::GreedyMissRatio, 512, 3);
        b.admit(TenantId(0)).unwrap();
        b.admit(TenantId(1)).unwrap();
        // Balloon tenant 0 up to soak the whole reserve.
        b.balloon(TenantId(0), u64::MAX);
        assert_eq!(b.unassigned_pages(), 0);
        let granted = b.admit(TenantId(2)).unwrap();
        assert!(granted >= b.floor_pages(), "grant sits at or above floor");
        assert!(b.conserved());
        drop(a);
    }

    #[test]
    fn balloon_clamps_at_the_floor_and_returns_pages_to_the_reserve() {
        let mut a = DramArbiter::new(ArbiterPolicy::StaticShares, 512, 2);
        let floor = a.floor_pages();
        let after = a.balloon(TenantId(1), 0);
        assert_eq!(after, floor, "shrink clamps at the live-set floor");
        assert_eq!(a.unassigned_pages(), 256 - floor);
        assert!(a.conserved());
        // Growing back draws from the reserve.
        let regrown = a.balloon(TenantId(1), 256);
        assert_eq!(regrown, 256);
        assert_eq!(a.unassigned_pages(), 0);
        assert!(a.conserved());
    }

    #[test]
    fn realloc_cannot_regrow_a_ballooned_tenant_past_its_cap() {
        let mut a = DramArbiter::new(ArbiterPolicy::ProportionalShares, 512, 2);
        let capped = a.balloon(TenantId(0), 100);
        assert_eq!(capped, 100);
        assert_eq!(a.quota_cap(TenantId(0)), 100);
        // Tenant 0 looks far hotter, but the cap holds.
        a.maybe_realloc(100_000_000, &[hot(8 << 30), hot(1 << 20)]);
        assert!(a.quota_pages(TenantId(0)) <= 100, "{:?}", a.quotas());
        assert!(a.conserved());
        // Greedy, too: a capped winner takes no step beyond the cap.
        let mut g = DramArbiter::new(ArbiterPolicy::GreedyMissRatio, 512, 2);
        g.balloon(TenantId(0), 200);
        g.maybe_realloc(100_000_000, &[misses(0, 1_000), misses(1_000, 0)]);
        assert!(g.quota_pages(TenantId(0)) <= 200);
        assert!(g.conserved());
        // Lifting the cap restores mobility.
        a.unballoon(TenantId(0));
        a.maybe_realloc(200_000_000, &[hot(8 << 30), hot(1 << 20)]);
        assert!(a.quota_pages(TenantId(0)) > 100);
        assert!(a.conserved());
    }

    #[test]
    fn retired_tenants_hold_zero_quota_and_zero_share() {
        let mut a = DramArbiter::new(ArbiterPolicy::GreedyMissRatio, 512, 3);
        a.retire(TenantId(1));
        assert!(!a.is_live(TenantId(1)));
        assert_eq!(a.quota_pages(TenantId(1)), 0);
        assert_eq!(a.share_of(TenantId(1), 1_000_000), 0);
        // Greedy realloc over the survivors never resurrects the slot.
        a.maybe_realloc(
            100_000_000,
            &[misses(0, 1_000), misses(0, 0), misses(1_000, 0)],
        );
        assert_eq!(a.quota_pages(TenantId(1)), 0);
        assert!(a.conserved());
    }

    #[test]
    fn policy_labels_round_trip() {
        for p in ArbiterPolicy::ALL {
            assert_eq!(ArbiterPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(ArbiterPolicy::parse("bogus"), None);
    }
}
