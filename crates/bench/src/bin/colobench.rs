//! Multi-tenant colocation sweep: a hot + cold GUPS tenant pair runs
//! under each DRAM-arbiter policy, with per-tenant and aggregate
//! throughput in the report (`results/colobench.csv`) and a per-tenant
//! quota/residency time series (`results/colobench_telemetry.csv`).
//!
//! The mix is chosen so arbitration matters: the *hot* tenant (8
//! threads) has a hot set of two-thirds of DRAM — it misses badly on a
//! static half-tier share — while the *cold* tenant (2 threads) fits
//! its whole working set inside the arbiter's quota floor (a sixteenth
//! of the tier for two tenants), so every page of quota above the
//! floor is wasted on it and no reallocation can squeeze it below
//! residency. The greedy-miss-ratio arbiter moves the idle headroom to
//! the hot tenant; static equal shares cannot.
//!
//! Three gates run on every invocation:
//!
//! 1. **Solo byte-identity.** A one-tenant GUPS run under the arbiter
//!    (`HeMem::multi_tenant(cfg, 1, ..)`) must be byte-identical — state
//!    fingerprint, operation stream, and telemetry CSV — to the same run
//!    on the single-process manager (`HeMem::new`). The arbiter must be
//!    a strict no-op for one tenant.
//! 2. **Replay.** The two-tenant mix, run twice with the same seed,
//!    must reproduce identical fingerprints and per-tenant streams.
//! 3. **Colocation pays.** Aggregate hot+cold throughput under
//!    greedy-miss-ratio must be strictly higher than under static equal
//!    shares, and every run must pass the tenant-scoped audit.

use hemem_bench::gate::{assert_identical, Gate};
use hemem_bench::{assert_silent_audit, f3, fingerprint, write_results, ExpArgs, Report};
use hemem_core::arbiter::ArbiterPolicy;
use hemem_core::hemem::{HeMem, HeMemConfig};
use hemem_core::runtime::Sim;
use hemem_core::telemetry::{RegionRows, Telemetry, TenantRows};
use hemem_sim::Ns;
use hemem_vmm::{RegionKind, Tier};
use hemem_workloads::{run_colo_with, ColoConfig, ColoResult, GupsConfig, TenantKind, TenantSpec};

/// One GUPS tenant; `hot_set = 0` means uniform access. The colo loop
/// owns the run window, so the per-driver warmup/duration are unused.
fn gups_tenant(label: &str, working_set: u64, hot_set: u64, threads: u32) -> TenantSpec {
    let mut c = GupsConfig::paper(working_set, hot_set);
    c.threads = threads;
    TenantSpec {
        label: label.to_string(),
        kind: TenantKind::Gups(c),
    }
}

/// The hot + cold pair, sized off the machine's DRAM capacity.
fn hot_cold_mix(dram: u64) -> Vec<TenantSpec> {
    vec![
        gups_tenant("gups_hot", 2 * dram, 2 * dram / 3, 8),
        // Sized below the floor *minus* the cold tenant's watermark
        // share: at exactly the floor, the watermark would demote the
        // tail of its working set and thrash it against the quota cap.
        gups_tenant("gups_cold", dram / 20, 0, 2),
    ]
}

/// The colocation machine. `ExpArgs::machine` multiplies the PEBS
/// sample period by the scale to keep the *per-page* sample rate at the
/// paper's value, but the reallocation experiment needs the classifier
/// to rank a scaled-down hot set within a couple of seconds — divide
/// the period back out so the *absolute* sample rate matches the paper.
fn colo_machine(args: &ExpArgs) -> hemem_core::machine::MachineConfig {
    let mut mc = args.machine();
    mc.pebs.sample_period /= args.scale;
    mc
}

/// Runs `specs` under `policy` for `warmup + seconds`, sampling the
/// per-tenant telemetry CSV, and audits the end state.
fn run_mix(
    args: &ExpArgs,
    policy: ArbiterPolicy,
    specs: Vec<TenantSpec>,
    seconds: u64,
) -> (Sim<HeMem>, (ColoResult, String)) {
    let mc = colo_machine(args);
    let hc = HeMemConfig::scaled_for(&mc);
    let n = specs.len();
    let mut sim = Sim::new(mc, HeMem::multi_tenant(hc, n, policy));
    // A colocation run is a few seconds; step quota fast enough that the
    // arbiter reaches its equilibrium well inside the measured window.
    let step = (sim.m.pool(Tier::Dram).total_pages() / 32).max(1);
    sim.backend.set_arbiter_realloc(Ns::millis(50), step);
    let cfg = ColoConfig {
        tenants: specs,
        warmup: Ns::secs(2),
        duration: Ns::secs(seconds),
    };
    let mut tel = Telemetry::new(TenantRows, Ns::millis(100));
    let res = run_colo_with(&mut sim, &cfg, |s| {
        tel.maybe_sample(s);
    });
    assert_silent_audit(&mut sim, &format!("{} run", policy.label()));
    (sim, (res, tel.csv()))
}

/// Gate 1: the arbiter is a no-op for a single tenant.
fn solo_identity_gate(gate: &mut Gate, args: &ExpArgs, seconds: u64) {
    let dram = args.machine().dram.capacity;
    let spec = || vec![gups_tenant("gups_solo", 2 * dram, dram / 3, 8)];
    let run = |multi: bool| -> (Sim<HeMem>, (ColoResult, String)) {
        let mc = colo_machine(args);
        let hc = HeMemConfig::scaled_for(&mc);
        let backend = if multi {
            HeMem::multi_tenant(hc, 1, ArbiterPolicy::GreedyMissRatio)
        } else {
            HeMem::new(hc)
        };
        let mut sim = Sim::new(mc, backend);
        let cfg = ColoConfig {
            tenants: spec(),
            warmup: Ns::secs(1),
            duration: Ns::secs(seconds),
        };
        let mut tel: Option<Telemetry<RegionRows>> = None;
        let res = run_colo_with(&mut sim, &cfg, |s| {
            let t = tel.get_or_insert_with(|| {
                let id =
                    s.m.space
                        .regions()
                        .find(|r| r.kind() == RegionKind::ManagedHeap)
                        .expect("gups region mapped")
                        .id();
                Telemetry::new(RegionRows(id), Ns::millis(100))
            });
            t.maybe_sample(s);
        });
        let tel_csv = tel.map(|t| t.csv()).unwrap_or_default();
        (sim, (res, tel_csv))
    };
    let solo = gate.leg(|| run(false));
    let arb = gate.leg(|| run(true));
    // Fingerprint, operation stream, and telemetry CSV all match.
    assert_identical(
        "one tenant under the arbiter vs the single-process manager",
        &solo,
        &arb,
    );
    println!("solo-identity: OK — 1-tenant arbiter run matches the single-process path");
    println!("  {}", fingerprint(&solo.0));
}

fn main() {
    let args = ExpArgs::parse();
    let seconds = args.seconds.unwrap_or(8);
    let dram = args.machine().dram.capacity;
    let mut gate = Gate::new("colobench");

    solo_identity_gate(&mut gate, &args, seconds.min(3));

    // Gate 2: two-tenant replay determinism (short static-share run).
    gate.replay("two colocated static-share runs", || {
        run_mix(
            &args,
            ArbiterPolicy::StaticShares,
            hot_cold_mix(dram),
            seconds.min(3),
        )
    });

    // The sweep: hot + cold under every arbiter policy.
    let mut rep = Report::new(
        "colobench",
        "Hot + cold GUPS colocation under each DRAM-arbiter policy",
        &[
            "policy",
            "tenant",
            "workload",
            "ops",
            "ops_per_sec",
            "dram_pages",
            "quota_pages",
            "reallocations",
        ],
    );
    let mut aggregate = Vec::new();
    for policy in ArbiterPolicy::ALL {
        let (sim, (res, tel_csv)) =
            gate.leg(|| run_mix(&args, policy, hot_cold_mix(dram), seconds));
        let arb = sim
            .backend
            .arbiter()
            .expect("multi-tenant run has an arbiter");
        for t in &res.per_tenant {
            let tf = sim.m.space.tenant_frames(t.tenant);
            rep.row(&[
                policy.label().to_string(),
                t.tenant.to_string(),
                t.label.clone(),
                t.ops.to_string(),
                f3(t.ops_per_sec),
                tf.dram_pages.to_string(),
                arb.quota_pages(t.tenant).to_string(),
                arb.reallocations().to_string(),
            ]);
        }
        let total_ops = res.aggregate_ops();
        rep.row(&[
            policy.label().to_string(),
            "all".to_string(),
            "aggregate".to_string(),
            total_ops.to_string(),
            f3(res.per_tenant.iter().map(|t| t.ops_per_sec).sum()),
            sim.m.pool(Tier::Dram).allocated_pages().to_string(),
            arb.total_pages().to_string(),
            arb.reallocations().to_string(),
        ]);
        aggregate.push((policy, total_ops));
        if policy == ArbiterPolicy::GreedyMissRatio {
            write_results(
                "colobench_telemetry.csv",
                &tel_csv,
                "per-tenant telemetry csv",
            );
        }
    }
    rep.emit();

    // Gate 3: greedy arbitration beats static equal shares on this mix.
    let static_ops = aggregate
        .iter()
        .find(|(p, _)| *p == ArbiterPolicy::StaticShares)
        .map(|(_, o)| *o)
        .expect("static swept");
    let greedy_ops = aggregate
        .iter()
        .find(|(p, _)| *p == ArbiterPolicy::GreedyMissRatio)
        .map(|(_, o)| *o)
        .expect("greedy swept");
    assert!(
        greedy_ops > static_ops,
        "greedy-miss-ratio ({greedy_ops} ops) must beat static equal shares ({static_ops} ops)"
    );
    println!(
        "colocation: OK — greedy {greedy_ops} ops vs static {static_ops} ops (+{:.1}%)",
        (greedy_ops as f64 / static_ops as f64 - 1.0) * 100.0
    );

    gate.finish();
}
