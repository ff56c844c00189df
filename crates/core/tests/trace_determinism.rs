//! Property tests: structured tracing is observation-only. A run with
//! event capture enabled must be byte-identical — machine stats, policy
//! attribution, latency histograms, and the telemetry CSV — to the same
//! run with capture disabled, for any seed and workload mix. This is the
//! contract that lets `--trace` ship on by default in debugging sessions
//! without invalidating results.

use proptest::prelude::*;

use hemem_core::hemem::{HeMem, HeMemConfig};
use hemem_core::machine::MachineConfig;
use hemem_core::runtime::{Event, Sim};
use hemem_core::telemetry::{RegionRows, Telemetry};
use hemem_core::AccessBatch;
use hemem_sim::{LatencyClass, Ns};

const GIB: u64 = 1 << 30;

/// One deterministic workload: overcommitted fill, then a few access
/// batches, sampled by telemetry throughout.
fn run(seed: u64, offsets: &[(u64, f64)], trace: bool) -> (String, String) {
    let mut mc = MachineConfig::small(1, 4);
    mc.seed = seed;
    mc.trace = trace;
    let hc = HeMemConfig::scaled_for(&mc);
    let mut sim = Sim::new(mc, HeMem::new(hc));
    let region = sim.mmap(2 * GIB);
    sim.populate(region, true);
    let mut tel = Telemetry::new(RegionRows(region), Ns::millis(10));
    tel.maybe_sample(&sim);
    for &(lo, write_frac) in offsets {
        let hi = (lo + 256).min(1024);
        let batch = AccessBatch::uniform(region, lo, hi, 150_000, 8, write_frac, GIB);
        sim.submit_batch(0, &batch);
        loop {
            match sim.step() {
                Some((_, Event::ThreadReady(_))) | None => break,
                Some(_) => {}
            }
        }
        sim.advance(Ns::millis(50));
        tel.maybe_sample(&sim);
    }
    let mut fp = format!("{:?}|{:?}", sim.m.stats, sim.m.trace.policy);
    for class in LatencyClass::ALL {
        let h = sim.m.trace.hist(class);
        fp.push_str(&format!(
            "|{}:{}/{}/{}/{}",
            class.name(),
            h.count(),
            h.quantile(0.5),
            h.quantile(0.999),
            h.max()
        ));
    }
    (fp, tel.csv())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn traced_run_equals_untraced_run(
        seed in 0u64..1_000_000,
        offsets in prop::collection::vec((0u64..768, 0.0f64..1.0), 2..5),
    ) {
        let (stats_t, csv_t) = run(seed, &offsets, true);
        let (stats_u, csv_u) = run(seed, &offsets, false);
        prop_assert_eq!(stats_t, stats_u, "tracing changed machine stats");
        prop_assert_eq!(csv_t, csv_u, "tracing changed the telemetry CSV");
    }
}

/// The disabled tracer really is silent: no events, while histograms and
/// attribution still accumulate (the telemetry columns depend on them).
#[test]
fn disabled_tracer_accumulates_histograms_without_events() {
    let (_, _) = run(7, &[(0, 0.5)], false);
    let mc = MachineConfig::small(1, 4);
    let hc = HeMemConfig::scaled_for(&mc);
    let mut sim = Sim::new(mc, HeMem::new(hc));
    let region = sim.mmap(2 * GIB);
    sim.populate(region, true);
    sim.advance(Ns::millis(100));
    assert!(sim.m.trace.events().is_empty(), "no events while disabled");
    assert!(
        sim.m.trace.hist(LatencyClass::Fault).count() > 0,
        "fault histogram accumulates regardless"
    );
    assert!(sim.m.trace.policy.passes > 0, "attribution accumulates");
}
