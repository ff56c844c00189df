//! Fleet-scale tenant churn: a seeded open-loop arrival process over
//! the slot-pooled control plane.
//!
//! Where [`crate::churn`] drives a handful of hand-written tenant specs
//! through one join/kill/balloon schedule, fleet runs model a *host in
//! a fleet*: hundreds to thousands of short-lived tenant instances
//! arriving on a Poisson process with heavy-tailed (Pareto) lifetimes —
//! the canonical serverless/μ-service shape, where most instances die
//! young but a fat tail lives orders of magnitude longer. Every arrival
//! claims a slot from the manager's [`hemem_core::SlotPool`]
//! (admission = claim + deterministic reset), runs demand-paged batches
//! until its sampled lifetime expires, is killed, drained, and its slot
//! scrubbed and recycled for a later arrival.
//!
//! Determinism: the whole arrival/lifetime schedule is pre-generated
//! from one seeded [`hemem_sim::Rng`] *before* the event loop starts,
//! so the machine's own RNG streams are untouched and a same-seed
//! replay is byte-identical. Arrivals that find no free slot (or no
//! admittable quota) are shed open-loop — counted, never queued — so
//! occupancy feedback cannot leak timing into the schedule.
//!
//! The replay fingerprint folds every submitted batch as the record
//! `"{idx}|{batch:?}"`, about 400 bytes, and a round submits over a
//! million of them. An instance's batch text is fixed once it starts,
//! and it differs from every other instance's only in the region id.
//! So at start the driver cuts the `"|{batch:?}"` tail at the region's
//! `Debug` text (`RegionId(n)`) and looks each piece up in a per-run
//! table of `FnvJump`s. Each submit then folds the index digits and
//! the region text byte by byte and each piece in O(1). The result is
//! exactly the byte-by-byte hash of the record (see `crate::fnv`).
//!
//! The driver charges each spawn a simulated setup latency from
//! [`hemem_core::spawn_cost_ns`] between admission and first touch.
//! The charged cost is a modeled input: the backend always spawns by
//! claim and reset, and `charge_pooled_cost = false` charges what a
//! from-scratch rebuild would cost (`fleetbench`'s speedup gate).

use std::collections::HashMap;
use std::fmt::Write as _;

use hemem_core::backend::{AccessBatch, SegmentAccess};
use hemem_core::hemem::HeMem;
use hemem_core::runtime::{Event, Sim};
use hemem_core::spawn_cost_ns;
use hemem_memdev::Pattern;
use hemem_sim::{Histogram, Ns, Rng};
use hemem_vmm::{RegionId, TenantId};

use crate::fnv::{fnv1a, FnvJump, FnvWriter, FNV_OFFSET};

/// A fleet scenario: the arrival process, the lifetime distribution,
/// and the per-instance workload shape.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Seed for the schedule generator (independent of the machine's
    /// seed; two runs with equal seeds get byte-identical schedules).
    pub seed: u64,
    /// Tenant instance arrivals to generate (offered load; admitted can
    /// be lower under shedding).
    pub arrivals: u64,
    /// Poisson arrival rate, instances per simulated second.
    pub arrivals_per_sec: f64,
    /// Pareto lifetime scale `x_m` — the minimum lifetime.
    pub lifetime_scale: Ns,
    /// Pareto tail index α (1 < α < 2 gives the heavy tail where a few
    /// instances live orders of magnitude past the median).
    pub lifetime_alpha: f64,
    /// Lifetime clamp so one tail sample cannot dominate the run.
    pub lifetime_cap: Ns,
    /// Per-instance working set, bytes (demand paged on first touch).
    pub working_set: u64,
    /// Per-instance hot set, bytes (`0` = uniform).
    pub hot_set: u64,
    /// Updates per batch.
    pub batch_ops: u64,
    /// Store fraction of the access mix.
    pub write_fraction: f64,
    /// Which modeled spawn cost to charge between admission and first
    /// touch: a pooled claim, or a from-scratch rebuild (see module
    /// docs).
    pub charge_pooled_cost: bool,
    /// Slot working-set pages used by the scratch-spawn cost model.
    pub slot_pages: u64,
}

impl FleetConfig {
    /// The default fleetbench scenario at a given offered-arrival count.
    pub fn gate(arrivals: u64) -> FleetConfig {
        FleetConfig {
            seed: 0xF1EE7,
            arrivals,
            arrivals_per_sec: 400.0,
            lifetime_scale: Ns::millis(20),
            lifetime_alpha: 1.3,
            lifetime_cap: Ns::secs(2),
            working_set: 128 << 20,
            hot_set: 32 << 20,
            batch_ops: 20_000,
            write_fraction: 0.3,
            charge_pooled_cost: true,
            slot_pages: 4096,
        }
    }
}

/// One tenant instance's outcome.
#[derive(Debug, Clone, Copy)]
pub struct LifetimeOutcome {
    /// The slot the instance occupied.
    pub slot: TenantId,
    /// The slot generation it ran as.
    pub generation: u32,
    /// Arrival (admission) time.
    pub arrival: Ns,
    /// Admission → first demand-paging touch of the working set
    /// (includes the charged spawn cost).
    pub spawn_to_first_touch: Ns,
    /// Operations completed over the lifetime.
    pub ops: u64,
    /// Major faults (tier-3 swap-ins) served for this generation.
    pub major_faults: u64,
    /// p99 major-fault service time, ns (`0` when none occurred).
    pub major_p99_ns: u64,
}

/// Outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Arrivals generated (offered load).
    pub offered: u64,
    /// Arrivals admitted (slot claimed, quota granted).
    pub admitted: u64,
    /// Arrivals shed (no free slot / quota floor unsatisfiable).
    pub shed: u64,
    /// Operations completed across every instance.
    pub total_ops: u64,
    /// End of the last lifetime (run length for throughput math).
    pub end: Ns,
    /// Order-sensitive FNV-1a hash over admissions, sheds, and every
    /// submitted batch — the run's replay identity.
    pub fingerprint: u64,
    /// Admission → first touch latency distribution over admitted
    /// instances.
    pub spawn_hist: Histogram,
    /// Per-instance outcomes, in admission order.
    pub lifetimes: Vec<LifetimeOutcome>,
}

impl FleetResult {
    /// Aggregate throughput in operations per simulated second.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.end.as_nanos() as f64 / 1e9;
        if secs <= 0.0 {
            0.0
        } else {
            self.total_ops as f64 / secs
        }
    }

    /// Worst per-instance major-fault p99 across the fleet, ns.
    pub fn worst_major_p99_ns(&self) -> u64 {
        self.lifetimes
            .iter()
            .map(|l| l.major_p99_ns)
            .max()
            .unwrap_or(0)
    }
}

/// One pre-generated arrival.
#[derive(Debug, Clone, Copy)]
struct Planned {
    at: Ns,
    lifetime: Ns,
}

/// Per-admitted-instance driver state.
struct Instance {
    slot: TenantId,
    generation: u32,
    arrival: Ns,
    /// The instance's batch, built once at start (it depends only on
    /// the region and its page counts) and freed when the thread
    /// retires so finished instances hold no heap.
    batch: Option<Box<CachedBatch>>,
    first_touch: Option<Ns>,
    ops: u64,
}

/// A batch with the `"|{batch:?}"` tail of its stream-hash record, cut
/// into pieces at each occurrence of the region's `Debug` text. Every
/// instance of a run has the same batch shape up to its region id, so
/// the pieces repeat across instances, and each piece is folded by one
/// [`FnvJump`] from the run's [`PieceTable`]. Rejoining the pieces with
/// the region text gives the tail back unchanged, so the fold is exact
/// whether or not a piece repeats.
struct CachedBatch {
    batch: AccessBatch,
    /// The tail's pieces in order, as indexes into the [`PieceTable`].
    pieces: Vec<u32>,
    /// The region's `Debug` text (`RegionId(n)`), folded between
    /// consecutive pieces.
    region: String,
}

impl CachedBatch {
    fn new(region: RegionId, batch: AccessBatch, table: &mut PieceTable) -> CachedBatch {
        let region = format!("{region:?}");
        let pieces = format!("|{batch:?}")
            .split(region.as_str())
            .map(|piece| table.intern(piece))
            .collect();
        CachedBatch {
            batch,
            pieces,
            region,
        }
    }

    /// Folds the record `format!("{idx}|{batch:?}")` into `hash`: the
    /// index digits byte by byte, then each piece in O(1) with the
    /// region text between pieces.
    fn fold(&self, idx: usize, hash: &mut u64, table: &PieceTable) {
        write!(FnvWriter(hash), "{idx}").expect("hashing cannot fail");
        for (k, &piece) in self.pieces.iter().enumerate() {
            if k > 0 {
                fnv1a(hash, self.region.as_bytes());
            }
            *hash = table.jumps[piece as usize].apply(*hash);
        }
    }
}

/// The distinct piece texts of one run's batch records, each with the
/// [`FnvJump`] that folds it. A jump is built only for a piece not seen
/// before, so a run builds a handful however many instances it admits.
#[derive(Default)]
struct PieceTable {
    index: HashMap<String, u32>,
    jumps: Vec<FnvJump>,
}

impl PieceTable {
    /// The handle of `piece`'s jump, built on first sight.
    fn intern(&mut self, piece: &str) -> u32 {
        if let Some(&handle) = self.index.get(piece) {
            return handle;
        }
        let handle = self.jumps.len() as u32;
        self.jumps.push(FnvJump::new(piece.as_bytes()));
        self.index.insert(piece.to_owned(), handle);
        handle
    }
}

/// Generates the arrival schedule: exponential interarrivals at
/// `arrivals_per_sec`, Pareto(α, x_m) lifetimes clamped to the cap.
fn schedule(cfg: &FleetConfig) -> Vec<Planned> {
    let mut rng = Rng::new(cfg.seed);
    let mut at = 0u64;
    (0..cfg.arrivals)
        .map(|_| {
            let gap = rng.exponential(1e9 / cfg.arrivals_per_sec).round() as u64;
            at += gap.max(1);
            // Inverse-CDF Pareto: x_m * U^(-1/α).
            let u = rng.gen_f64().max(1e-12);
            let life = cfg.lifetime_scale.as_nanos() as f64 * u.powf(-1.0 / cfg.lifetime_alpha);
            let life = (life.round() as u64).min(cfg.lifetime_cap.as_nanos());
            Planned {
                at: Ns(at),
                lifetime: Ns(life.max(1)),
            }
        })
        .collect()
}

fn batch_for(region: RegionId, total_pages: u64, hot_pages: u64, cfg: &FleetConfig) -> AccessBatch {
    let mut segments = Vec::with_capacity(2);
    if cfg.hot_set > 0 && hot_pages > 0 {
        let hot_lo = (total_pages - hot_pages) / 3;
        segments.push(SegmentAccess {
            region,
            lo_page: hot_lo,
            hi_page: hot_lo + hot_pages,
            weight: 0.9,
            llc_footprint: cfg.hot_set.max(1),
            write_fraction: None,
        });
        segments.push(SegmentAccess {
            region,
            lo_page: 0,
            hi_page: total_pages,
            weight: 0.1,
            llc_footprint: cfg.working_set,
            write_fraction: None,
        });
    } else {
        segments.push(SegmentAccess {
            region,
            lo_page: 0,
            hi_page: total_pages,
            weight: 1.0,
            llc_footprint: cfg.working_set,
            write_fraction: None,
        });
    }
    AccessBatch {
        segments,
        count: cfg.batch_ops * 2, // each update = read + write
        object_size: 8,
        write_fraction: cfg.write_fraction,
        pattern: Pattern::Random,
        cpu_ns_per_access: 2.0,
        mlp: 4.0,
        sweep: false,
    }
}

// Custom-event tags: (instance index << 2) | kind.
const KIND_ARRIVAL: u64 = 0;
const KIND_START: u64 = 1;
const KIND_DEPART: u64 = 2;

/// Runs the fleet scenario over `sim`. The backend must have been built
/// with deferred slots ([`HeMem::churn`]) — every arrival goes through
/// admission control and the slot pool. Each admitted instance runs one
/// driver thread whose id is its admission index, so a recycled slot's
/// next occupant never aliases its predecessor's in-flight rounds.
pub fn run_fleet(sim: &mut Sim<HeMem>, cfg: &FleetConfig) -> FleetResult {
    run_fleet_with(sim, cfg, |_| {})
}

/// [`run_fleet`] with an observer called after every simulation event —
/// the hook for periodic samplers ([`hemem_core::telemetry`]) that need
/// to watch a fleet run without perturbing it.
pub fn run_fleet_with(
    sim: &mut Sim<HeMem>,
    cfg: &FleetConfig,
    mut observe: impl FnMut(&Sim<HeMem>),
) -> FleetResult {
    assert!(cfg.arrivals > 0, "need at least one arrival");
    let plan = schedule(cfg);
    let mut fingerprint = FNV_OFFSET;

    // Arrival events carry the *plan* index; start/depart events carry
    // the *admission* index (an instance only exists once admitted).
    let mut op_count = 0usize;
    for (k, p) in plan.iter().enumerate() {
        sim.schedule_custom(p.at, ((k as u64) << 2) | KIND_ARRIVAL);
        op_count += 1;
    }

    let mut instances: Vec<Instance> = Vec::new();
    let mut piece_table = PieceTable::default();
    // Admission index currently running on each slot (drives thread
    // retirement: a round whose instance lost its slot retires).
    let mut occupant: Vec<Option<usize>> = vec![None; sim.backend.slot_pool().len()];
    let mut shed = 0u64;
    let mut live_threads = 0u32;
    let mut end = Ns::ZERO;

    while live_threads > 0 || op_count > 0 {
        let Some((now, ev)) = sim.step() else {
            break;
        };
        end = end.max(now);
        match ev {
            Event::Custom(tag) => {
                op_count -= 1;
                let idx = (tag >> 2) as usize;
                match tag & 3 {
                    KIND_ARRIVAL => {
                        let Some(t) = sim.backend.slot_pool().next_free() else {
                            shed += 1;
                            write!(FnvWriter(&mut fingerprint), "shed|{idx}")
                                .expect("hashing cannot fail");
                            continue;
                        };
                        if sim.backend.admit_tenant(&mut sim.m, t, now).is_err() {
                            shed += 1;
                            write!(FnvWriter(&mut fingerprint), "shed|{idx}")
                                .expect("hashing cannot fail");
                            continue;
                        }
                        let a = instances.len();
                        let generation = sim.m.space.tenant_generation(t);
                        instances.push(Instance {
                            slot: t,
                            generation,
                            arrival: now,
                            batch: None,
                            first_touch: None,
                            ops: 0,
                        });
                        occupant[t.0 as usize] = Some(a);
                        write!(
                            FnvWriter(&mut fingerprint),
                            "admit|{idx}|{a}|{}|{generation}",
                            t.0
                        )
                        .expect("hashing cannot fail");
                        // The spawn cost separates admission from first
                        // touch: slot claim vs from-scratch rebuild.
                        let cost = spawn_cost_ns(cfg.charge_pooled_cost, cfg.slot_pages);
                        sim.schedule_custom(
                            Ns(now.as_nanos() + cost),
                            ((a as u64) << 2) | KIND_START,
                        );
                        // The lifetime clock starts at admission.
                        sim.schedule_custom(
                            Ns(now.as_nanos() + cost + plan[idx].lifetime.as_nanos()),
                            ((a as u64) << 2) | KIND_DEPART,
                        );
                        op_count += 2;
                    }
                    KIND_START => {
                        let inst = &mut instances[idx];
                        sim.set_active_tenant(inst.slot);
                        let region = sim.mmap(cfg.working_set);
                        let (page_bytes, total_pages) = {
                            let r = sim.m.space.region(region);
                            (r.page_size().bytes(), r.page_count())
                        };
                        let hot_pages = cfg.hot_set.div_ceil(page_bytes).min(total_pages);
                        let batch = batch_for(region, total_pages, hot_pages, cfg);
                        inst.batch =
                            Some(Box::new(CachedBatch::new(region, batch, &mut piece_table)));
                        sim.schedule_thread(now, idx as u32);
                        live_threads += 1;
                        sim.set_app_threads(live_threads);
                    }
                    KIND_DEPART => {
                        let inst = &instances[idx];
                        if occupant[inst.slot.0 as usize] == Some(idx)
                            && sim.backend.tenant_is_live(inst.slot)
                        {
                            sim.inject_tenant_kill(inst.slot);
                        }
                    }
                    _ => unreachable!("two-bit kind"),
                }
            }
            Event::ThreadReady(tid) => {
                let idx = tid as usize;
                let inst = &mut instances[idx];
                if inst.first_touch.is_none() {
                    inst.first_touch = Some(Ns(now.as_nanos() - inst.arrival.as_nanos()));
                }
                // Retire the thread once the instance lost its slot
                // (killed and possibly already recycled to a successor).
                if occupant[inst.slot.0 as usize] != Some(idx)
                    || !sim.backend.tenant_is_live(inst.slot)
                {
                    inst.batch = None;
                    live_threads -= 1;
                    sim.set_app_threads(live_threads.max(1));
                    continue;
                }
                // Exactly the hash of `format!("{idx}|{batch:?}")`.
                let cached = inst.batch.as_deref().expect("thread runs after start");
                cached.fold(idx, &mut fingerprint, &piece_table);
                sim.submit_batch(tid, &cached.batch);
                inst.ops += cfg.batch_ops;
            }
            _ => unreachable!("step only returns workload events"),
        }
        observe(sim);
    }
    // Let the tail of kills finish their DMA-quiescence drains so the
    // final audit sees a fully recycled pool.
    sim.run_until(Ns(end.as_nanos() + Ns::millis(100).as_nanos()));

    let mut spawn_hist = Histogram::new();
    let lifetimes: Vec<LifetimeOutcome> = instances
        .iter()
        .map(|inst| {
            let first = inst.first_touch.unwrap_or(Ns::ZERO);
            if inst.first_touch.is_some() {
                spawn_hist.record_ns(first);
            }
            let hist = sim
                .m
                .tenant_major_faults
                .get(&(inst.slot.0, inst.generation));
            LifetimeOutcome {
                slot: inst.slot,
                generation: inst.generation,
                arrival: inst.arrival,
                spawn_to_first_touch: first,
                ops: inst.ops,
                major_faults: hist.map_or(0, |h| h.count()),
                major_p99_ns: hist.map_or(0, |h| h.quantile(0.99)),
            }
        })
        .collect();
    let admitted = lifetimes.len() as u64;
    let total_ops = lifetimes.iter().map(|l| l.ops).sum();
    FleetResult {
        offered: cfg.arrivals,
        admitted,
        shed,
        total_ops,
        end,
        fingerprint,
        spawn_hist,
        lifetimes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_core::arbiter::ArbiterPolicy;
    use hemem_core::hemem::HeMemConfig;
    use hemem_core::machine::MachineConfig;
    use hemem_memdev::GIB;

    fn fleet_sim(slots: usize) -> Sim<HeMem> {
        let mut mc = MachineConfig::small(2, 8).with_tier3(32 * GIB);
        mc.pebs.sample_period *= 96;
        let hc = HeMemConfig::scaled_for(&mc);
        let mut backend = HeMem::churn(hc, slots, ArbiterPolicy::GreedyMissRatio);
        backend.set_slot_pages(64);
        Sim::new(mc, backend)
    }

    fn small_cfg() -> FleetConfig {
        let mut cfg = FleetConfig::gate(48);
        cfg.working_set = 64 << 20;
        cfg.hot_set = 16 << 20;
        cfg.batch_ops = 5_000;
        cfg
    }

    #[test]
    fn fleet_run_recycles_slots_and_replays_byte_identically() {
        let mut a_sim = fleet_sim(8);
        let a = run_fleet(&mut a_sim, &small_cfg());
        let mut b_sim = fleet_sim(8);
        let b = run_fleet(&mut b_sim, &small_cfg());
        assert_eq!(a.fingerprint, b.fingerprint, "replay fingerprint");
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.total_ops, b.total_ops);
        // More admissions than slots proves slots were recycled.
        assert!(
            a.admitted > 8,
            "only {} admissions over 8 slots: no recycling",
            a.admitted
        );
        let stats = a_sim.backend.slot_pool().stats();
        assert!(stats.recycles > 0, "no slot was recycled");
        assert_eq!(stats.spawns, a.admitted);
        assert_eq!(a_sim.run_audit(false), Vec::new(), "fleet audit silent");
    }

    /// The stream hash of the `small_cfg` run, recorded when every
    /// batch record was hashed through `format!("{idx}|{batch:?}")`:
    /// caching the batch per instance must not move a byte of it.
    const SMALL_CFG_FINGERPRINT: u64 = 0x4144a8cea50f9695;

    #[test]
    fn stream_hash_is_pinned() {
        let mut sim = fleet_sim(8);
        let r = run_fleet(&mut sim, &small_cfg());
        assert_eq!(
            r.fingerprint, SMALL_CFG_FINGERPRINT,
            "{:#018x}",
            r.fingerprint
        );
        assert_eq!((r.admitted, r.total_ops), (23, 55_455_000));
    }

    /// Folding a cached batch's pieces equals hashing its record text,
    /// for one-digit and five-digit region ids, for the two-segment
    /// (hot set) and one-segment (`hot_set = 0`) shapes, and from
    /// arbitrary prior states. Pieces repeat across region ids.
    #[test]
    fn piece_fold_equals_hashing_the_record_text() {
        let hot = small_cfg();
        let mut uniform = small_cfg();
        uniform.hot_set = 0;
        let mut table = PieceTable::default();
        for (cfg, hot_pages, want_pieces) in [(&hot, 4096, 3), (&uniform, 0, 2)] {
            let mut built = None;
            for (k, region) in [RegionId(1), RegionId(7), RegionId(12345), RegionId(987654)]
                .into_iter()
                .enumerate()
            {
                let cached =
                    CachedBatch::new(region, batch_for(region, 16384, hot_pages, cfg), &mut table);
                assert_eq!(cached.pieces.len(), want_pieces, "{region:?}");
                let built = *built.get_or_insert(table.jumps.len());
                assert_eq!(table.jumps.len(), built, "{region:?} built a new piece");
                for (idx, prior) in [
                    (0, FNV_OFFSET),
                    (9, 0),
                    (4711 + k, u64::MAX),
                    (1 << 40, 0x1234_5678_9abc_def0),
                ] {
                    let mut want = prior;
                    fnv1a(&mut want, format!("{idx}|{:?}", cached.batch).as_bytes());
                    let mut got = prior;
                    cached.fold(idx, &mut got, &table);
                    assert_eq!(got, want, "{region:?} idx {idx}");
                }
            }
        }
    }

    #[test]
    fn charged_spawn_cost_separates_pooled_from_scratch_first_touch() {
        let mut cfg = small_cfg();
        cfg.arrivals = 12;
        let mut pooled_sim = fleet_sim(8);
        let pooled = run_fleet(&mut pooled_sim, &cfg);
        cfg.charge_pooled_cost = false;
        let mut scratch_sim = fleet_sim(8);
        let scratch = run_fleet(&mut scratch_sim, &cfg);
        let (p, s) = (
            pooled.spawn_hist.quantile(0.99),
            scratch.spawn_hist.quantile(0.99),
        );
        assert!(s >= 5 * p, "scratch first-touch p99 {s} not ≥5x pooled {p}");
    }
}
