//! Tenant-lifecycle gate: a seeded open-loop arrival / kill / balloon
//! schedule churns the tenant set mid-run, and four gates hold:
//!
//! (a) **Replay.** The schedule, run twice with the same seed (kills
//!     and a fault storm included), reproduces a byte-identical machine
//!     fingerprint and identical per-tenant operation streams.
//! (b) **Clean retirement.** After every kill the victim's frames are
//!     reclaimed from *all* tiers, its quota returns to the arbiter,
//!     and the tenant-scoped audit (including `FrameLeakAfterRetire`
//!     and `ZombieTenantQuota`) reports nothing.
//! (c) **Fault isolation.** With a neighbor afflicted by an NVM
//!     media-error + PEBS-overflow storm, the surviving anchor tenant's
//!     major-fault p99 stays within 2x of the storm-free run — the
//!     per-tenant circuit breaker keeps the storm from wedging the
//!     fault path or starving neighbors.
//! (d) **Trace transparency.** Enabling tracing (which adds the
//!     `tenant_admit` / `tenant_kill` / `tenant_drained` /
//!     `tenant_balloon` lifecycle instants) leaves the simulation
//!     byte-identical, and the expected lifecycle instants are present.
//!
//! The gate configuration is fixed (scale, seed, schedule); CLI flags
//! are accepted for uniformity with the other benches but do not move
//! the gates. Results land in `results/churnbench.csv`.

use hemem_bench::gate::{assert_identical, frozen_args, Gate};
use hemem_bench::{assert_silent_audit, assert_tenant_drained, f3, ExpArgs, Report};
use hemem_core::arbiter::ArbiterPolicy;
use hemem_core::hemem::{HeMem, HeMemConfig};
use hemem_core::machine::MachineConfig;
use hemem_core::runtime::Sim;
use hemem_memdev::GIB;
use hemem_sim::{Ns, TenantKill};
use hemem_vmm::TenantId;
use hemem_workloads::churn::{run_churn, BalloonOp, ChurnConfig, ChurnResult, ChurnTenantSpec};

/// Tenant slots the manager is built with.
const SLOTS: usize = 4;
/// Simulated length of one schedule run.
const END_SECS: u64 = 6;
/// The kill time for the victim slot.
const KILL_AT_SECS: u64 = 3;

/// The churn gate machine: the tierbench socket plus a 16 GiB swap
/// device, a seeded kill for slot 1, and optionally the media-error +
/// PEBS storm for gate (c).
fn gate_machine(storm: bool, trace: bool) -> MachineConfig {
    let mut mc = frozen_args().machine().with_tier3(16 * GIB);
    mc.chaos.tenant_kill_at = vec![TenantKill {
        tenant: 1,
        at: Ns::secs(KILL_AT_SECS),
    }];
    if storm {
        // A wear-coupled media storm: the base rate stays low (a flat
        // high rate would retire the whole NVM pool during demand paging
        // and push every placement into DRAM, breaking quota accounting
        // for reasons unrelated to the storm under test), but the
        // wear-scaled term makes recycled frames fail ever harder — the
        // *consecutive* commit aborts that trip a tenant's circuit
        // breaker, with each failure retiring the worn frame so the
        // damage self-limits.
        mc.chaos.nvm_media_error = 0.02;
        mc.chaos.nvm_media_wear_scale = 0.1;
        mc.chaos.pebs_storm = 0.5;
    }
    mc.trace = trace;
    mc
}

/// The churn backend: slot capacity for the whole schedule, greedy
/// arbitration, and the NVM watermark armed so demotion cascades to the
/// SSD under pressure (that is what produces the anchor's major faults).
fn churn_backend(mc: &MachineConfig) -> HeMem {
    let mut hc = HeMemConfig::scaled_for(mc);
    hc.nvm_watermark = mc.nvm.capacity / 32;
    // An aggressive breaker for the short gate run: the wear-coupled
    // storm produces abort pairs/triples rather than the long streaks a
    // production threshold of 8 waits for.
    hc.breaker_threshold = 3;
    HeMem::churn(hc, SLOTS, ArbiterPolicy::GreedyMissRatio)
}

fn tenant(label: &str, arrive: Ns, ws: u64, hot: u64, threads: u32) -> ChurnTenantSpec {
    ChurnTenantSpec {
        label: label.to_string(),
        arrive,
        balloon: None,
        working_set: ws,
        hot_set: hot,
        threads,
        batch_ops: 50_000,
        write_fraction: 0.5,
    }
}

/// The fixed schedule. Aggregate working sets oversubscribe the managed
/// DRAM+NVM capacity, so the anchor's cold tail lives on the SSD and
/// its uniform segment takes measurable major faults; slot 1 dies at
/// 3 s on the fault plan's schedule; slot 2 balloons down at 2 s; slot
/// 3 joins late into the churned live set.
fn schedule(mc: &MachineConfig) -> ChurnConfig {
    let dram = mc.dram.capacity;
    let mut balloon = tenant("balloon", Ns::millis(400), dram, dram / 4, 2);
    balloon.balloon = Some(BalloonOp {
        at: Ns::secs(2),
        target_pages: 96,
        grace: Ns::millis(300),
    });
    ChurnConfig {
        tenants: vec![
            tenant("anchor", Ns::ZERO, 3 * dram, dram / 2, 4),
            tenant("victim", Ns::millis(200), 2 * dram, dram / 2, 4),
            balloon,
            tenant("late", Ns::secs(4), dram, dram / 4, 2),
        ],
        end: Ns::secs(END_SECS),
    }
}

/// Runs the schedule on a fresh machine; gate (b) assertions run on
/// every invocation so *every* configuration retires cleanly.
fn run_schedule(storm: bool, trace: bool) -> (Sim<HeMem>, ChurnResult) {
    let mc = gate_machine(storm, trace);
    let cfg = schedule(&mc);
    let mut sim = Sim::new(mc, churn_backend(&gate_machine(storm, trace)));
    let res = run_churn(&mut sim, &cfg);

    // Gate (b): clean retirement — no frames on any tier, no zombie
    // quota, audit silent.
    assert_eq!(sim.m.recovery.tenant_kills, 1, "seeded kill fired");
    assert_eq!(sim.m.recovery.tenant_drains, 1, "kill fully drained");
    assert_tenant_drained(&sim, TenantId(1));
    assert_silent_audit(&mut sim, "churn retire");
    (sim, res)
}

fn main() {
    let _args = ExpArgs::parse(); // accepted for CLI uniformity; gates are fixed
    let mut gate = Gate::new("churnbench");

    // Gate (a): the storm schedule replays byte-identically: machine
    // fingerprint, submission stream, and every per-tenant stream.
    let storm_run = gate.replay("gate (a) churn schedule under the storm", || {
        run_schedule(true, false)
    });
    let (sa, ra) = (&storm_run.0, &storm_run.1);

    // The storm-free baseline for gate (c).
    let (s0, r0) = gate.leg(|| run_schedule(false, false));

    // Gate (c): the anchor's major-fault tail under the neighbor storm
    // stays within 2x of the storm-free run.
    let base = &r0.per_tenant[0];
    let storm = &ra.per_tenant[0];
    assert!(
        base.major_faults > 0 && storm.major_faults > 0,
        "gate (c) needs the anchor on the SSD in both runs \
         (baseline {} faults, storm {})",
        base.major_faults,
        storm.major_faults
    );
    assert!(
        storm.major_p99_ns <= 2 * base.major_p99_ns,
        "gate (c) failed: anchor major-fault p99 {} ns under the storm \
         vs {} ns storm-free (over 2x)",
        storm.major_p99_ns,
        base.major_p99_ns
    );
    assert!(
        sa.backend.stats().breaker_trips > 0,
        "gate (c): the storm must actually trip the per-tenant breaker"
    );
    println!(
        "gate (c): anchor major-fault p99 {} ns under storm vs {} ns clean \
         ({} breaker trips, {} media errors)",
        storm.major_p99_ns,
        base.major_p99_ns,
        sa.backend.stats().breaker_trips,
        sa.m.chaos.stats().nvm_media_errors
    );

    // Gate (d): tracing is transparent and the lifecycle instants exist.
    let traced = gate.leg(|| run_schedule(true, true));
    assert_identical("gate (d) traced vs untraced churn", &storm_run, &traced);
    let st = &traced.0;
    let count = |name: &str| {
        st.m.trace
            .events()
            .iter()
            .filter(|e| e.name == name)
            .count()
    };
    assert_eq!(count("tenant_admit"), SLOTS, "one admit per slot");
    assert_eq!(count("tenant_kill"), 1, "the seeded kill traced");
    assert_eq!(count("tenant_drained"), 1, "the drain traced");
    assert!(count("tenant_balloon") >= 1, "the balloon traced");
    println!(
        "gate (d): tracing transparent; lifecycle instants admit={} kill={} drained={} balloon={}",
        count("tenant_admit"),
        count("tenant_kill"),
        count("tenant_drained"),
        count("tenant_balloon"),
    );

    // The report: per tenant, storm-free vs storm.
    let mut rep = Report::new(
        "churnbench",
        "Tenant churn: arrival/kill/balloon schedule, storm-free vs media+PEBS storm",
        &[
            "run",
            "tenant",
            "label",
            "admitted",
            "survived",
            "ops",
            "major_faults",
            "major_p99_ns",
        ],
    );
    for (mode, sim, res) in [("clean", &s0, &r0), ("storm", sa, ra)] {
        for t in &res.per_tenant {
            rep.row(&[
                mode.to_string(),
                t.tenant.to_string(),
                t.label.clone(),
                t.admitted.to_string(),
                t.survived.to_string(),
                t.ops.to_string(),
                t.major_faults.to_string(),
                t.major_p99_ns.to_string(),
            ]);
        }
        rep.row(&[
            mode.to_string(),
            "all".to_string(),
            "aggregate".to_string(),
            "-".to_string(),
            "-".to_string(),
            res.per_tenant
                .iter()
                .map(|t| t.ops)
                .sum::<u64>()
                .to_string(),
            sim.m
                .trace
                .hist(hemem_sim::LatencyClass::MajorFault)
                .count()
                .to_string(),
            f3(sim.backend.stats().balloon_escalations as f64),
        ]);
    }
    rep.emit();

    gate.finish();
}
