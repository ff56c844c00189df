//! Tier-failure gate: seeded device degradation and offline events hit
//! a loaded three-tier machine mid-run, and four gates hold:
//!
//! (a) **Replay.** The NVM degrade-then-fail schedule and the SSD
//!     fail-then-readmit schedule, each run twice with the same seed,
//!     reproduce byte-identical machine fingerprints (health lifecycle
//!     counters included).
//! (b) **Clean evacuation.** The online evacuation drains the failed
//!     tier to zero allocated frames, the failure-domain audit
//!     (`FramesOnOfflineTier`, `EvacuationLeak`, degraded-capacity
//!     conservation) stays silent, and the survivor's major-fault p99
//!     stays within 4x of the failure-free run — N-1 operation, not a
//!     collapse.
//! (c) **Evacuation pays.** The same NVM failure with evacuation
//!     disabled (`evacuate_on_failure = false`) poisons every resident
//!     page; the evacuating run strictly beats the poison-everything
//!     baseline on completed operations, and the baseline's losses
//!     surface as typed poison faults, never silent wrong reads.
//! (d) **Trace transparency.** Enabling tracing (which adds the
//!     `tier_degrade` / `tier_offline` / `evacuation_{begin,page,done}`
//!     / `tier_readmit` health instants) leaves the simulation
//!     byte-identical, and the expected instants are present.
//!
//! The gate configuration is fixed (scale, seed, schedules); CLI flags
//! are accepted for uniformity with the other benches but do not move
//! the gates. Results land in `results/failbench.csv`, with the
//! per-tier health time series in `results/failbench_health.csv`.

use hemem_bench::gate::{assert_identical, frozen_args, Gate};
use hemem_bench::{assert_silent_audit, write_results, ExpArgs, Report};
use hemem_core::backend::{AccessBatch, SegmentAccess};
use hemem_core::hemem::{HeMem, HeMemConfig};
use hemem_core::machine::{MachineConfig, TierHealth};
use hemem_core::runtime::{Event, Sim};
use hemem_core::telemetry::{HealthRows, Telemetry};
use hemem_memdev::{Pattern, GIB};
use hemem_sim::{Ns, TierFault};
use hemem_vmm::Tier;

/// SSD capacity behind the NVM tier.
const SSD_GIB: u64 = 16;
/// Absolute sim instant the measured window opens. Populate paces the
/// 9 GiB fill through virtual time (~4 s of zero-fill backlog), so the
/// window — and every scheduled health event — sits safely after it:
/// each leg warms up on an identical, healthy machine.
const WARM_SECS: u64 = 10;
/// Measured window length; the run ends at `WARM_SECS + END_SECS`.
const END_SECS: u64 = 6;
/// Worker threads driving the closed loop.
const THREADS: u32 = 4;

/// Which seeded failure schedule a leg carries.
#[derive(Clone, Copy, PartialEq)]
enum Schedule {
    /// No health events: the failure-free control.
    Clean,
    /// NVM degrades at 1.5 s and goes offline at 3 s.
    NvmFail,
    /// SSD goes offline at 2 s and is readmitted at 4 s.
    SsdFailReadmit,
}

/// Working set of every leg: it fits DRAM+NVM, and the armed NVM
/// watermark demotes the cold tail to the SSD over time — so the
/// control run takes measurable major faults without saturating the
/// SSD queue at populate time.
const WORKING_SET: u64 = 9 * GIB;

/// One leg's machine: the seeded `schedule`, evacuation on or off, and
/// tracing on or off.
fn gate_machine(schedule: Schedule, evacuate: bool, trace: bool) -> MachineConfig {
    let mut mc = frozen_args().machine().with_tier3(SSD_GIB * GIB);
    match schedule {
        Schedule::Clean => {}
        Schedule::NvmFail => {
            mc.chaos.tier_degrade_at = vec![TierFault {
                tier: 1,
                at: Ns::millis(WARM_SECS * 1000 + 1500),
            }];
            mc.chaos.tier_fail_at = vec![TierFault {
                tier: 1,
                at: Ns::secs(WARM_SECS + 3),
            }];
        }
        Schedule::SsdFailReadmit => {
            mc.chaos.tier_fail_at = vec![TierFault {
                tier: 2,
                at: Ns::secs(WARM_SECS + 2),
            }];
            mc.chaos.tier_readmit_at = vec![TierFault {
                tier: 2,
                at: Ns::secs(WARM_SECS + 4),
            }];
        }
    }
    mc.evacuate_on_failure = evacuate;
    mc.trace = trace;
    mc
}

fn gate_backend(mc: &MachineConfig) -> HeMem {
    let mut hc = HeMemConfig::scaled_for(mc);
    // Keep a quarter of NVM free: the demotion cascade populates the
    // SSD tier, so both the control and the SSD-failure leg have pages
    // there before anything breaks.
    hc.nvm_watermark = mc.nvm.capacity / 4;
    HeMem::new(hc)
}

/// A GUPS-style hot/cold split per thread partition: 95 % of accesses
/// hit a hot eighth, 5 % sweep the whole partition — the sweep keeps
/// re-touching whatever the failure displaced. The aggregate hot set
/// (1.125 GiB) fits DRAM even after the NVM tier dies, so the N-1
/// machine stays viable instead of thrashing every access through the
/// SSD. Batches are small enough that each thread turns over many
/// rounds inside the window, so completed operations resolve
/// throughput differences between legs.
fn batch_for(region: hemem_vmm::RegionId, total_pages: u64, tid: u32) -> AccessBatch {
    let per = total_pages / THREADS as u64;
    let lo = tid as u64 * per;
    let hi = if tid == THREADS - 1 {
        total_pages
    } else {
        lo + per
    };
    let hot_hi = lo + (hi - lo) / 8;
    AccessBatch {
        segments: vec![
            SegmentAccess {
                region,
                lo_page: lo,
                hi_page: hot_hi,
                weight: 0.95,
                llc_footprint: WORKING_SET / 8,
                write_fraction: None,
            },
            SegmentAccess {
                region,
                lo_page: lo,
                hi_page: hi,
                weight: 0.05,
                llc_footprint: WORKING_SET,
                write_fraction: None,
            },
        ],
        count: 500,
        object_size: 8,
        write_fraction: 0.5,
        pattern: Pattern::Random,
        cpu_ns_per_access: 2.0,
        mlp: 4.0,
        sweep: false,
    }
}

/// Runs one leg: populate, then a closed loop of fixed batches on
/// `THREADS` threads until the window closes. The health schedule fires
/// from the machine's fault plan. Returns the finished sim and its
/// per-tier health time series CSV.
fn run_leg(schedule: Schedule, evacuate: bool, trace: bool) -> (Sim<HeMem>, String) {
    let mc = gate_machine(schedule, evacuate, trace);
    let backend = gate_backend(&mc);
    let mut sim = Sim::new(mc, backend);
    let id = sim.mmap(WORKING_SET);
    sim.populate(id, true);
    let total_pages = sim.m.space.region(id).page_count();
    let warm = Ns::secs(WARM_SECS);
    assert!(
        sim.now() < warm,
        "populate overran the warm-up window: {:?}",
        sim.now()
    );
    sim.run_until(warm);
    let mut health = Telemetry::new(HealthRows, Ns::millis(250));
    health.maybe_sample(&sim);
    let end = Ns::secs(WARM_SECS + END_SECS);
    let mut live = THREADS;
    sim.set_app_threads(THREADS);
    for tid in 0..THREADS {
        sim.schedule_thread(warm, tid);
    }
    while live > 0 {
        let Some((now, ev)) = sim.step() else {
            break;
        };
        if let Event::ThreadReady(tid) = ev {
            health.maybe_sample(&sim);
            if now >= end {
                live -= 1;
                sim.set_app_threads(live.max(1));
                continue;
            }
            let b = batch_for(id, total_pages, tid);
            sim.submit_batch(tid, &b);
        }
    }
    health.maybe_sample(&sim);
    (sim, health.csv())
}

fn main() {
    let _args = ExpArgs::parse(); // accepted for CLI uniformity; gates are fixed
    let mut gate = Gate::new("failbench");

    // Gate (a): both failure schedules replay byte-identically, health
    // time series included.
    let mut nvm = gate.replay("gate (a) NVM degrade+fail", || {
        run_leg(Schedule::NvmFail, true, false)
    });
    let mut ssd = gate.replay("gate (a) SSD fail+readmit", || {
        run_leg(Schedule::SsdFailReadmit, true, false)
    });

    // The failure-free control for gate (b).
    let (clean, _) = gate.leg(|| run_leg(Schedule::Clean, true, false));

    // Gate (b): the failed tier drained to zero, the audit silent, and
    // the survivor's major-fault tail bounded.
    let ra = &mut nvm.0;
    assert_eq!(
        ra.m.tier_health(Tier::Nvm),
        TierHealth::Offline,
        "gate (b): the seeded failure must have fired"
    );
    assert_eq!(ra.evacuating(), None, "gate (b): evacuation finished");
    assert!(ra.m.health.evac_done[Tier::Nvm.rank()]);
    assert_eq!(
        ra.m.pool(Tier::Nvm).allocated_pages(),
        0,
        "gate (b) failed: frames left on the offline NVM tier"
    );
    assert!(
        ra.m.health.evacuated_pages > 0,
        "gate (b): the evacuation must have moved pages, not just poisoned"
    );
    assert_silent_audit(ra, "gate (b) after evacuation");
    // The SSD leg drains too, and the readmitted tier is healthy, empty,
    // and accepting pages again by the end of the run.
    let sa = &mut ssd.0;
    assert!(
        sa.m.health.evacuated_pages > 0,
        "gate (b): SSD evacuation must have moved pages"
    );
    assert_eq!(
        sa.m.tier_health(Tier::Ssd),
        TierHealth::Healthy,
        "gate (b): the SSD readmit must have fired"
    );
    assert_eq!(sa.m.health.readmits, 1);
    assert_silent_audit(sa, "gate (b) after readmit");
    let p99 = |s: &Sim<HeMem>| {
        s.m.trace
            .hist(hemem_sim::LatencyClass::MajorFault)
            .quantile(0.99)
    };
    let (clean_p99, evac_p99) = (p99(&clean), p99(&nvm.0));
    assert!(
        clean_p99 > 0,
        "gate (b) needs the control on the SSD (no major faults seen)"
    );
    assert!(
        evac_p99 <= 4 * clean_p99,
        "gate (b) failed: survivor major-fault p99 {evac_p99} ns vs \
         {clean_p99} ns failure-free (over 4x)"
    );
    println!(
        "gate (b): NVM drained ({} evacuated, {} poisoned), audit silent, \
         major-fault p99 {evac_p99} ns vs {clean_p99} ns clean",
        nvm.0.m.health.evacuated_pages, nvm.0.m.health.poisoned_pages,
    );

    // Gate (c): evacuation strictly beats the poison-everything baseline.
    let (poison, _) = gate.leg(|| run_leg(Schedule::NvmFail, false, false));
    let ra = &nvm.0;
    assert!(
        poison.m.health.poisoned_pages > 0,
        "gate (c): the baseline must actually lose the resident pages"
    );
    assert!(
        poison.m.health.poison_faults > 0,
        "gate (c): baseline losses must surface as typed poison faults"
    );
    assert_eq!(
        ra.m.health.poison_faults, 0,
        "gate (c): the evacuating run must not hit poisoned pages"
    );
    assert!(
        ra.m.stats.ops > poison.m.stats.ops,
        "gate (c) failed: evacuation ({} ops) did not beat the \
         poison-everything baseline ({} ops)",
        ra.m.stats.ops,
        poison.m.stats.ops
    );
    println!(
        "gate (c): evacuation {} ops > poison baseline {} ops \
         ({} pages poisoned, {} poison faults)",
        ra.m.stats.ops,
        poison.m.stats.ops,
        poison.m.health.poisoned_pages,
        poison.m.health.poison_faults,
    );

    // Gate (d): tracing is transparent and the health instants exist.
    let nvm_traced = gate.leg(|| run_leg(Schedule::NvmFail, true, true));
    assert_identical("gate (d) traced vs untraced NVM leg", &nvm, &nvm_traced);
    let ssd_traced = gate.leg(|| run_leg(Schedule::SsdFailReadmit, true, true));
    assert_identical("gate (d) traced vs untraced SSD leg", &ssd, &ssd_traced);
    let (rt, st) = (&nvm_traced.0, &ssd_traced.0);
    let count =
        |s: &Sim<HeMem>, name: &str| s.m.trace.events().iter().filter(|e| e.name == name).count();
    assert_eq!(count(rt, "tier_degrade"), 1, "the degrade traced");
    assert_eq!(count(rt, "tier_offline"), 1, "the failure traced");
    assert_eq!(count(rt, "evacuation_begin"), 1);
    assert_eq!(count(rt, "evacuation_done"), 1);
    assert!(count(rt, "evacuation_page") > 0, "page moves traced");
    assert_eq!(count(st, "tier_readmit"), 1, "the readmit traced");
    println!(
        "gate (d): tracing transparent; health instants degrade={} offline={} \
         evac_pages={} readmit={}",
        count(rt, "tier_degrade"),
        count(rt, "tier_offline"),
        count(rt, "evacuation_page"),
        count(st, "tier_readmit"),
    );

    // The report: one row per leg.
    let mut rep = Report::new(
        "failbench",
        "Tier failure domains: evacuation vs poison baseline vs failure-free",
        &[
            "leg",
            "ops",
            "evacuated",
            "poisoned",
            "poison_faults",
            "major_p99_ns",
            "nvm_frames_end",
            "ssd_frames_end",
        ],
    );
    for (name, r) in [
        ("clean", &clean),
        ("nvm_evacuate", &nvm.0),
        ("nvm_poison", &poison),
        ("ssd_readmit", &ssd.0),
    ] {
        rep.row(&[
            name.to_string(),
            r.m.stats.ops.to_string(),
            r.m.health.evacuated_pages.to_string(),
            r.m.health.poisoned_pages.to_string(),
            r.m.health.poison_faults.to_string(),
            p99(r).to_string(),
            r.m.pool(Tier::Nvm).allocated_pages().to_string(),
            r.m.pool(Tier::Ssd).allocated_pages().to_string(),
        ]);
    }
    rep.emit();
    write_results("failbench_health.csv", &nvm.1, "health csv");
    gate.finish();
}
