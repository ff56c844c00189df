//! `simbench`: the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! simbench --workload <name> [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//! ```
//!
//! A run is single-threaded. A pass is one round of the workload per
//! machine seed derived from `--seed`. `--trace 0` runs one pass of the
//! library drivers, then keeps cycling through the seeds for about
//! `--seconds` host seconds, and reports the end-to-end metrics: host
//! times as medians over every round, simulated results as means over
//! the pass. `--trace 1` runs one untraced reference round, then one
//! pass of the drivers' instrumented twins over [`prof::Timed`], and
//! reports per-layer host time. Every round audits the machine (and the
//! fleet's admission and drain invariants), a repeated seed must
//! reproduce its digest, and the twin must reproduce the reference
//! round's. The last line of stdout is one JSON object with the verdict
//! and the metrics. Exit status: 0 when every check passed, 1 when one
//! failed, 2 on bad arguments.

mod alloc;
mod fleet;
mod gups;
mod kvs;
mod outcome;
mod prof;

use std::fmt::Write as _;
use std::time::Instant;

use hemem_memdev::GIB;

use outcome::{median, Outcome};
use prof::{Layer, Profile};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// The `--seed` used when none is given.
const DEFAULT_SEED: u64 = 1;

/// A seed no measurement that set the benchmark's constants used; its
/// digests are recorded too.
const HOLDOUT_SEED: u64 = 1000;

/// Pass digests of the full-size workloads at the default and holdout
/// seeds, as `(workload, seed, digest)`. A change that only
/// speeds the simulator up must keep reproducing them (`sim_identical 1`).
const RECORDED_DIGESTS: [(&str, u64, u64); 8] = [
    ("gups_shift", DEFAULT_SEED, 0xf2d15929965960f4),
    ("gups_regions", DEFAULT_SEED, 0xf3691296042e16bf),
    ("fleet_churn", DEFAULT_SEED, 0xa33c5dc958c8e078),
    ("kvs_700g", DEFAULT_SEED, 0x631a33c576dcb464),
    ("gups_shift", HOLDOUT_SEED, 0x9c58c2aa48d7df5d),
    ("gups_regions", HOLDOUT_SEED, 0xb63f6b742a2f8187),
    ("fleet_churn", HOLDOUT_SEED, 0xf95a2f34d1282dd5),
    ("kvs_700g", HOLDOUT_SEED, 0x8f244865d1ba30f7),
];

/// Rounds per pass, one per machine seed. Simulated results move by a
/// few percent from seed to seed (HeMem's classification is
/// path-dependent), so a pass averages several seeds to keep each run's
/// numbers steady across `--seed` values.
const SUBSEEDS: u64 = 3;

/// The smallest share of traced wall time the spans must account for.
const MIN_COVERAGE: f64 = 0.95;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    GupsShift,
    GupsRegions,
    FleetChurn,
    Kvs700g,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::GupsShift,
        Workload::GupsRegions,
        Workload::FleetChurn,
        Workload::Kvs700g,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::GupsShift => "gups_shift",
            Workload::GupsRegions => "gups_regions",
            Workload::FleetChurn => "fleet_churn",
            Workload::Kvs700g => "kvs_700g",
        }
    }

    /// One round of the library driver.
    fn run(self, smoke: bool, seed: u64) -> Outcome {
        match self {
            Workload::GupsShift => gups::Shape::new(smoke, false, seed).run(),
            Workload::GupsRegions => gups::Shape::new(smoke, true, seed).run(),
            Workload::FleetChurn => fleet::Shape::new(smoke, seed).run(),
            Workload::Kvs700g => kvs::Shape::new(smoke, seed).run(),
        }
    }

    /// One round of the instrumented twin, recording into `prof`.
    fn traced(self, smoke: bool, seed: u64, prof: Profile) -> (Outcome, Profile) {
        match self {
            Workload::GupsShift => gups::Shape::new(smoke, false, seed).traced(prof),
            Workload::GupsRegions => gups::Shape::new(smoke, true, seed).traced(prof),
            Workload::FleetChurn => fleet::Shape::new(smoke, seed).traced(prof),
            Workload::Kvs700g => kvs::Shape::new(smoke, seed).traced(prof),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 0.0;
        let mut trace = false;
        let mut smoke = false;
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("missing value for {flag}"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    let w = Workload::ALL.into_iter().find(|w| w.name() == v);
                    workload = Some(w.ok_or(format!("unknown workload {v:?}"))?);
                }
                "--seed" => {
                    let v = value()?;
                    seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or(format!("bad --seconds {v:?}"))?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("bad --trace {v:?} (want 0 or 1)")),
                    };
                }
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed,
            seconds,
            trace,
            smoke,
        })
    }
}

/// A run's verdict and printed report.
struct Report {
    correct: bool,
    text: String,
}

/// Mean of `f` over `rounds`.
fn mean(rounds: &[Outcome], f: impl Fn(&Outcome) -> f64) -> f64 {
    rounds.iter().map(f).sum::<f64>() / rounds.len() as f64
}

/// The machine seeds of one pass of `seed`, one round each:
/// `seed * SUBSEEDS + k`, so no two seeds share a round.
fn subseeds(seed: u64) -> Vec<u64> {
    (0..SUBSEEDS)
        .map(|k| seed.wrapping_mul(SUBSEEDS).wrapping_add(k))
        .collect()
}

/// FNV-1a over the round digests of one pass.
fn pass_digest(pass: &[Outcome]) -> u64 {
    let mut h = outcome::FNV_OFFSET;
    for o in pass {
        outcome::fnv1a(&mut h, &o.digest.to_le_bytes());
    }
    h
}

/// Runs `round` over `seeds` once, then keeps cycling through them while
/// another round at the median round time fits in `budget_s` seconds.
fn rounds(seeds: &[u64], budget_s: f64, mut round: impl FnMut(u64) -> Outcome) -> Vec<Outcome> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        out.push(round(seeds[out.len() % seeds.len()]));
        times.push(t.elapsed().as_secs_f64());
        if out.len() >= seeds.len() && start.elapsed().as_secs_f64() + median(&times) > budget_s {
            return out;
        }
    }
}

/// Peak resident set size of this process, from `VmHWM`.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

type Metric = (String, f64, &'static str);

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// The end-to-end metrics of untraced rounds: host times as medians over
/// every round, simulated results and heap peaks as means over the first
/// pass.
fn e2e_metrics(rounds: &[Outcome]) -> Vec<Metric> {
    let rates: Vec<f64> = rounds.iter().map(|o| o.sim_s / o.run_s).collect();
    let setups: Vec<f64> = rounds.iter().map(|o| o.setup_s).collect();
    let pass = &rounds[..SUBSEEDS as usize];
    vec![
        metric("sim_rate", median(&rates), "sim_s/host_s"),
        metric("setup_s", median(&setups), "s"),
        metric(
            "peak_heap_mib",
            mean(pass, |o| o.peak_heap_bytes as f64) / (1 << 20) as f64,
            "MiB",
        ),
        metric("sim_mops", mean(pass, |o| o.mops), "Mop/sim_s"),
        metric(
            "sim_nvm_write_gib",
            mean(pass, |o| o.nvm_write_bytes as f64) / GIB as f64,
            "GiB",
        ),
    ]
}

/// The per-layer metrics of one traced pass whose spans are merged in
/// `prof` and whose round wall times sum to `wall_ns`. Counts and times
/// are means per round.
fn layer_metrics(prof: &Profile, wall_ns: f64, pass: &[Outcome]) -> Vec<Metric> {
    let n = pass.len() as f64;
    let mut out = Vec::new();
    for layer in Layer::ALL {
        let s = prof.layer(layer);
        let name = layer.name();
        out.extend([
            metric(&format!("{name}.calls"), s.calls as f64 / n, "count"),
            metric(&format!("{name}.self_s"), s.self_ns as f64 / n / 1e9, "s"),
            metric(
                &format!("{name}.share"),
                s.self_ns as f64 / wall_ns,
                "ratio",
            ),
            metric(&format!("{name}.p50_ns"), s.hist.quantile(0.5) as f64, "ns"),
            metric(
                &format!("{name}.p99_ns"),
                s.hist.quantile(0.99) as f64,
                "ns",
            ),
        ]);
    }
    let c = |f: fn(&outcome::Counters) -> u64| mean(pass, |o| f(&o.counters) as f64);
    let started = c(|c| c.migrations_started);
    let success = if started == 0.0 {
        0.0
    } else {
        c(|c| c.migrations_done) / started
    };
    out.extend([
        metric("pebs.samples", c(|c| c.pebs_samples), "count"),
        metric(
            "pebs.drop_frac",
            mean(pass, |o| o.counters.pebs_drop_frac),
            "ratio",
        ),
        metric("runtime.events", prof.events as f64 / n, "count"),
        metric(
            "runtime.batches",
            prof.layer(Layer::SubmitBatch).calls as f64 / n,
            "count",
        ),
        metric("runtime.migrations_started", started, "count"),
        metric("runtime.migration_success_frac", success, "ratio"),
        metric(
            "runtime.migrated_gib",
            c(|c| c.migrated_bytes) / GIB as f64,
            "GiB",
        ),
        metric("runtime.wp_stalls", c(|c| c.wp_stalls), "count"),
        metric("runtime.major_faults", c(|c| c.major_faults), "count"),
        metric("trace.coverage", prof.self_ns() as f64 / wall_ns, "ratio"),
    ]);
    out
}

/// Formats a metric value as a JSON number (Display never uses an
/// exponent, and keeps every digit).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Failed checks, and the rounds they failed in.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
    rounds: u64,
    failed_rounds: u64,
}

impl Checks {
    /// Counts `rounds` and records their failed checks.
    fn rounds(&mut self, rounds: &[Outcome]) {
        for o in rounds {
            self.rounds += 1;
            if !o.failures.is_empty() {
                self.failed_rounds += 1;
                self.failures.extend(o.failures.iter().cloned());
            }
        }
    }
}

/// Runs the benchmark described by `args`.
fn run(args: &Args) -> Report {
    let (w, smoke) = (args.workload, args.smoke);
    let seeds = subseeds(args.seed);
    let k = seeds.len();
    let mut text = String::new();
    let mut checks = Checks::default();
    let (info, pass, metrics) = if args.trace {
        let reference = w.run(smoke, seeds[0]);
        log_rounds(
            &mut text,
            "untraced",
            &seeds,
            std::slice::from_ref(&reference),
        );
        checks.rounds(std::slice::from_ref(&reference));
        let mut merged = Profile::default();
        let mut wall_ns = 0.0;
        let mut traced: Vec<Outcome> = seeds
            .iter()
            .map(|&s| {
                let t = Instant::now();
                let (o, p) = w.traced(smoke, s, Profile::default());
                wall_ns += t.elapsed().as_nanos() as f64;
                merged.merge(&p);
                o
            })
            .collect();
        if traced[0].digest != reference.digest {
            let f = format!(
                "twin digest {:016x} != library driver digest {:016x}",
                traced[0].digest, reference.digest
            );
            traced[0].failures.push(f);
        }
        log_rounds(&mut text, "traced", &seeds, &traced);
        checks.rounds(&traced);
        let coverage = merged.self_ns() as f64 / wall_ns;
        if coverage < MIN_COVERAGE {
            checks
                .failures
                .push(format!("trace.coverage {coverage} below {MIN_COVERAGE}"));
        }
        let _ = writeln!(
            text,
            "unattributed {} s\ntrace.overhead {} ratio",
            (wall_ns - merged.self_ns() as f64) / k as f64 / 1e9,
            traced[0].run_s / reference.run_s - 1.0
        );
        let metrics = layer_metrics(&merged, wall_ns, &traced);
        (info(&traced), traced, metrics)
    } else {
        let mut all = rounds(&seeds, args.seconds, |s| w.run(smoke, s));
        for i in k..all.len() {
            let (was, now) = (all[i - k].digest, all[i].digest);
            if now != was {
                let f = format!(
                    "round {i} digest {now:016x} != round {} digest {was:016x}",
                    i - k
                );
                all[i].failures.push(f);
            }
        }
        log_rounds(&mut text, "untraced", &seeds, &all);
        checks.rounds(&all);
        let mut info = info(&all[..k]);
        info.push(metric("peak_rss_mib", peak_rss_mib(), "MiB"));
        let metrics = e2e_metrics(&all);
        (info, all[..k].to_vec(), metrics)
    };
    let digest = pass_digest(&pass);

    let _ = writeln!(
        text,
        "workload {} seed {} smoke {smoke}",
        w.name(),
        args.seed
    );
    let _ = writeln!(text, "rounds {}", checks.rounds);
    let _ = writeln!(text, "digest {digest:016x}");
    let recorded = RECORDED_DIGESTS
        .iter()
        .find(|(name, s, _)| *name == w.name() && *s == args.seed && !smoke);
    match recorded {
        Some((_, _, want)) => {
            let _ = writeln!(text, "sim_identical {}", u8::from(*want == digest));
        }
        None => {
            let _ = writeln!(text, "sim_identical - (no recorded digest for this seed)");
        }
    }
    for (name, value, unit) in info.iter().chain(&metrics) {
        let _ = writeln!(text, "{name} {value} {unit}");
    }
    for f in &checks.failures {
        let _ = writeln!(text, "check failed: {f}");
    }
    let json: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let correct = checks.failures.is_empty();
    let _ = writeln!(
        text,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.rounds,
        checks.failed_rounds,
        json.join(", ")
    );
    Report { correct, text }
}

/// Prints the host times and digest of each of `rounds`, which ran on
/// `seeds` in turn.
fn log_rounds(text: &mut String, kind: &str, seeds: &[u64], rounds: &[Outcome]) {
    for (s, o) in seeds.iter().cycle().zip(rounds) {
        let _ = writeln!(
            text,
            "{kind} round: seed {s} setup_s {} run_s {} sim_s {} digest {:016x}",
            o.setup_s, o.run_s, o.sim_s, o.digest
        );
    }
}

/// Workload-specific simulated results, as means over a pass.
fn info(pass: &[Outcome]) -> Vec<Metric> {
    pass[0]
        .info
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| metric(name, mean(pass, |o| o.info[i].1), unit))
        .collect()
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: simbench --workload <{}> [--seed S] [--seconds T] [--trace 0|1] [--smoke]",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let report = run(&args);
    print!("{}", report.text);
    std::process::exit(if report.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twins_reproduce_their_library_drivers() {
        for w in Workload::ALL {
            let lib = w.run(true, DEFAULT_SEED);
            let (twin, prof) = w.traced(true, DEFAULT_SEED, Profile::default());
            assert!(lib.failures.is_empty(), "{}: {:?}", w.name(), lib.failures);
            assert!(
                twin.failures.is_empty(),
                "{}: {:?}",
                w.name(),
                twin.failures
            );
            assert_eq!(
                format!("{:016x}", twin.digest),
                format!("{:016x}", lib.digest),
                "{}: the twin's fingerprint or result diverged from the library driver",
                w.name()
            );
            assert_eq!(twin.info, lib.info, "{}", w.name());
            assert!(prof.layer(Layer::SubmitBatch).calls > 0, "{}", w.name());
        }
    }

    #[test]
    fn seed_changes_the_simulation() {
        let a = Workload::FleetChurn.run(true, DEFAULT_SEED);
        let b = Workload::FleetChurn.run(true, HOLDOUT_SEED);
        assert_ne!(a.digest, b.digest);
    }

    /// `(name, unit)` of each metric `BENCHMARK.json` lists under `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let list = text
            .split(&format!("\"{section}\""))
            .nth(1)
            .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
        let list = &list[..list.find(']').expect("end of the metric list")];
        let field = |entry: &str, key: &str| -> String {
            let rest = entry
                .split(&format!("\"{key}\""))
                .nth(1)
                .unwrap_or_else(|| panic!("{key} missing in {entry}"));
            rest.split('"').nth(1).expect("quoted value").to_string()
        };
        list.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    /// `(name, unit)` of each metric in a report's final JSON line.
    fn printed(report: &Report) -> Vec<(String, String)> {
        let line = report.text.lines().last().expect("a result line");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": ")
                && line.contains("\"failed\": 0"),
            "{line}"
        );
        let metrics = line.split("\"metrics\": {").nth(1).expect("metrics object");
        metrics
            .split("}, ")
            .map(|e| {
                let name = e.split('"').nth(1).expect("metric name");
                let unit = e.split("\"unit\": \"").nth(1).expect("unit");
                (
                    name.to_string(),
                    unit.split('"').next().expect("unit").into(),
                )
            })
            .collect()
    }

    #[test]
    fn every_declared_metric_is_printed_with_its_unit() {
        let e2e = declared("end_to_end");
        let layers = declared("per_layer");
        let valid = |n: &str| {
            !n.is_empty()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(e2e.iter().chain(&layers).all(|(n, _)| valid(n)));
        for w in Workload::ALL {
            for (trace, want) in [(false, &e2e), (true, &layers)] {
                let args = Args {
                    workload: w,
                    seed: DEFAULT_SEED,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                };
                let report = run(&args);
                assert!(report.correct, "{}:\n{}", w.name(), report.text);
                assert_eq!(&printed(&report), want, "{} trace {trace}", w.name());
            }
        }
    }

    #[test]
    fn parses_the_command_line() {
        let parse = |a: &[&str]| Args::parse(a.iter().map(|s| s.to_string()));
        assert_eq!(
            parse(&[
                "--workload",
                "kvs_700g",
                "--seed",
                "9",
                "--seconds",
                "12",
                "--trace",
                "1"
            ]),
            Ok(Args {
                workload: Workload::Kvs700g,
                seed: 9,
                seconds: 12.0,
                trace: true,
                smoke: false,
            })
        );
        for bad in [
            &[][..],
            &["--workload", "gups"],
            &["--workload", "gups_shift", "--layers"],
            &["--workload", "gups_shift", "--trace", "2"],
            &["--workload", "gups_shift", "--seconds", "-1"],
            &["--workload", "gups_shift", "--seed"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
