//! Observability smoke + artifact: runs GUPS with structured tracing on,
//! exports a Chrome-trace-event JSON (`results/obsbench_trace.json`)
//! loadable in Perfetto / `chrome://tracing`, and prints the per-class
//! latency percentiles the tracer's histograms accumulated.
//!
//! Three gates run on every invocation:
//!
//! 1. **Zero observable cost.** The same GUPS configuration runs twice,
//!    traced and untraced; machine stats, recovery counters, DMA/PEBS
//!    stats, pool occupancy, and every latency percentile must be
//!    byte-identical. Tracing must not perturb the simulation.
//! 2. **Valid trace.** The exported JSON parses, is wrapped in the
//!    `traceEvents` envelope, has nondecreasing timestamps, and every
//!    async span begin has a matching end.
//! 3. **Coverage.** The trace contains migration spans, fault instants,
//!    policy-pass attribution instants, and PEBS drain instants; the
//!    Nimble and Memory-Mode baselines emit their own policy-lane events.

use hemem_baselines::{AnyBackend, BackendKind};
use hemem_bench::gate::{assert_identical, hemem_gups, Gate};
use hemem_bench::{fingerprint, write_results, ExpArgs, Report};
use hemem_core::runtime::Sim;
use hemem_core::telemetry::{RegionRows, Telemetry};
use hemem_sim::{trace::validate_chrome, LatencyClass, Ns};
use hemem_workloads::{GupsConfig, GupsResult};

/// One GUPS run; `trace` toggles event capture and nothing else.
fn run_one(args: &ExpArgs, trace: bool) -> (Sim<AnyBackend>, GupsResult) {
    let mut cfg = GupsConfig::paper(args.gib(256), args.gib(16));
    cfg.warmup = Ns::secs(1);
    cfg.duration = Ns::secs(args.seconds.unwrap_or(2));
    let mut mc = args.machine();
    mc.trace = trace;
    let (mut sim, res) = hemem_gups(mc, cfg);
    // Quiesce in-flight migrations so every span closes before export.
    for _ in 0..200 {
        if sim.m.journal.is_empty() {
            break;
        }
        sim.advance(Ns::millis(10));
    }
    (sim, res)
}

/// A short traced run of a baseline backend: fill past DRAM, let its
/// policy lane run, and return the sim for trace inspection.
fn baseline_run(args: &ExpArgs, kind: BackendKind) -> Sim<AnyBackend> {
    let mut mc = args.machine();
    mc.trace = true;
    let backend = kind.build(&mc);
    let mut sim = Sim::new(mc, backend);
    let id = sim.mmap(2 * sim.m.cfg.dram.capacity);
    sim.populate(id, true);
    sim.advance(Ns::millis(500));
    sim
}

fn hist_rows(rep: &mut Report, backend: &str, sim: &Sim<AnyBackend>) {
    for class in LatencyClass::ALL {
        let h = sim.m.trace.hist(class);
        rep.row(&[
            backend.to_string(),
            class.name().to_string(),
            h.count().to_string(),
            h.quantile(0.5).to_string(),
            h.quantile(0.99).to_string(),
            h.quantile(0.999).to_string(),
            h.max().to_string(),
        ]);
    }
}

fn main() {
    let args = ExpArgs::parse();
    let mut gate = Gate::new("obsbench");

    // Gate 1: tracing has zero observable cost: machine fingerprint and
    // workload progress (the GUPS digest) match an untraced run.
    let traced_run = gate.leg(|| run_one(&args, true));
    let untraced_run = gate.leg(|| run_one(&args, false));
    assert_identical("traced vs untraced GUPS", &traced_run, &untraced_run);
    let (traced, untraced) = (traced_run.0, untraced_run.0);
    assert!(
        untraced.m.trace.events().is_empty(),
        "disabled tracer captures no events"
    );
    println!("zero-cost: OK — traced and untraced GUPS runs are byte-identical");
    println!("  {}", fingerprint(&traced));

    // Gate 2: the exported trace is valid Chrome trace-event JSON.
    traced
        .m
        .trace
        .validate(false)
        .expect("span accounting consistent after quiesce");
    let json = traced.m.trace.export_chrome();
    validate_chrome(&json).expect("exported trace validates");
    write_results(
        "obsbench_trace.json",
        &json,
        "trace (load in Perfetto or chrome://tracing)",
    );
    println!(
        "trace: OK — {} events, {} bytes of valid Chrome-trace JSON",
        traced.m.trace.events().len(),
        json.len()
    );

    // Gate 3: coverage — the classes the issue names all appear.
    for needle in [
        "\"migration\"",
        "\"fault\"",
        "\"policy_pass\"",
        "\"pebs_drain\"",
    ] {
        assert!(json.contains(needle), "trace covers {needle}");
    }
    let pol = traced.m.trace.policy;
    assert!(pol.passes > 0, "policy passes attributed");
    println!(
        "attribution: {} passes, {} watermark demotions, {} promotions, \
         {} swap deferrals, {} throttled",
        pol.passes, pol.demote_watermark, pol.promote, pol.swap_deferrals, pol.throttled
    );

    let mut rep = Report::new(
        "obsbench",
        "Latency histograms from a traced GUPS run (ns)",
        &["backend", "class", "count", "p50", "p99", "p999", "max"],
    );
    hist_rows(&mut rep, "hemem", &traced);

    // Baseline traces: each emits its own policy-lane events.
    let nimble = gate.leg(|| baseline_run(&args, BackendKind::Nimble));
    assert!(
        nimble.m.trace.export_chrome().contains("\"nimble_scan\""),
        "nimble trace has scan instants"
    );
    hist_rows(&mut rep, "nimble", &nimble);
    let mm = gate.leg(|| baseline_run(&args, BackendKind::MemoryMode));
    assert!(
        mm.m.trace.export_chrome().contains("\"memory_mode_tick\""),
        "memory-mode trace marks its (single) tick"
    );
    hist_rows(&mut rep, "memory-mode", &mm);
    rep.emit();

    // Telemetry percentile columns ride on the same histograms; sample
    // the traced run once and show the new columns end-to-end.
    let mut tel = Telemetry::new(RegionRows(hemem_vmm::RegionId(0)), Ns::millis(1));
    tel.maybe_sample(&traced);
    let csv = tel.csv();
    let header = csv.lines().next().unwrap_or_default();
    assert!(
        header.contains("wp_p50_ns,wp_p99_ns,wp_p999_ns,wp_max_ns")
            && header.ends_with("pebs_sample_period,pebs_drop_frac_milli"),
        "telemetry CSV carries percentile and PEBS-controller columns"
    );
    println!("telemetry: OK — percentile columns present ({header})");
    gate.finish();
}
