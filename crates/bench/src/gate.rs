//! The harness behind the ten gate benches (chaos, crash, obs, colo,
//! tier, churn, fail, nomad, scale, fleet).
//!
//! A gate is a named list of legs plus the predicates it asserts. A leg
//! is one simulation run: [`Gate::leg`] runs it and counts the simulated
//! time it covered, [`Gate::replay`] runs it twice and asserts the two
//! runs are byte-identical, and [`committed`] checks an output against
//! the repository's `results/`. [`Gate::finish`] writes the bench's row
//! of `BENCH_sim_wallclock.json` from the counted seconds.

use std::fmt::{Debug, Write as _};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hemem_baselines::{AnyBackend, BackendKind};
use hemem_core::backend::{AccessBatch, TieredBackend};
use hemem_core::hemem::HeMemConfig;
use hemem_core::machine::MachineConfig;
use hemem_core::runtime::{Event, Sim};
use hemem_core::telemetry::{RegionRows, Telemetry};
use hemem_sim::Ns;
use hemem_workloads::{run_gups, GupsConfig, GupsResult};

use crate::{fingerprint, write_results, ExpArgs};

/// What a leg's run closure returns: the finished simulation, alone or
/// beside what the gate reads off it (a workload result, a telemetry
/// CSV, a counter digest).
pub trait Outcome {
    /// The simulated backend.
    type Backend: TieredBackend;
    /// The finished simulation.
    fn sim(&self) -> &Sim<Self::Backend>;
    /// Replay identity beyond [`fingerprint`]: the `Debug` rendering of
    /// the by-product, empty for a bare simulation.
    fn digest(&self) -> String {
        String::new()
    }
}

impl<B: TieredBackend> Outcome for Sim<B> {
    type Backend = B;
    fn sim(&self) -> &Sim<B> {
        self
    }
}

impl<B: TieredBackend, T: Debug> Outcome for (Sim<B>, T) {
    type Backend = B;
    fn sim(&self) -> &Sim<B> {
        &self.0
    }
    fn digest(&self) -> String {
        format!("{:?}", self.1)
    }
}

/// Asserts two runs are byte-identical: equal [`fingerprint`]s and equal
/// digests. `what` names the comparison in the failure message.
pub fn assert_identical<O: Outcome>(what: &str, a: &O, b: &O) {
    assert_eq!(
        fingerprint(a.sim()),
        fingerprint(b.sim()),
        "{what}: machine fingerprints diverged"
    );
    assert_eq!(a.digest(), b.digest(), "{what}: digests diverged");
}

/// The repository's committed `results/` directory.
fn repo_results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Asserts `contents` equals the committed `results/<file>` of the
/// repository this binary was built from, wherever it runs. Panics,
/// naming the file, when the file is missing or differs.
pub fn committed(file: &str, contents: &str) {
    let path = repo_results().join(file);
    let want = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed {} is missing: {e}", path.display()));
    assert_eq!(want, contents, "drift against committed {}", path.display());
    println!("{file}: byte-identical to the committed copy");
}

/// Checks `contents` against the committed `results/<file>`, then writes
/// it to `./results`. From the repository root that is the committed
/// copy, so writing first would compare the new output with itself.
fn committed_then_write(file: &str, contents: &str) {
    committed(file, contents);
    write_results(file, contents, "2-tier identity output");
}

/// One gate bench: its legs' counted simulated time and its wall clock.
pub struct Gate {
    name: &'static str,
    wall: Instant,
    sim: Ns,
}

impl Gate {
    /// Starts the wall clock for the gate bench `name`.
    pub fn new(name: &'static str) -> Gate {
        Gate {
            name,
            wall: Instant::now(),
            sim: Ns::ZERO,
        }
    }

    /// Runs one leg and counts its simulated time, `sim.now()` at the
    /// end of the run.
    pub fn leg<O: Outcome>(&mut self, run: impl FnOnce() -> O) -> O {
        let out = run();
        self.sim += out.sim().now();
        out
    }

    /// Runs a leg twice, counts both runs, and asserts they are
    /// byte-identical (see [`assert_identical`]). Returns the first run.
    pub fn replay<O: Outcome>(&mut self, what: &str, run: impl Fn() -> O) -> O {
        let a = self.leg(&run);
        let b = self.leg(&run);
        assert_identical(&format!("{what} replay"), &a, &b);
        println!("{what}: replay byte-identical");
        a
    }

    /// Writes this bench's row of `BENCH_sim_wallclock.json` in the
    /// working directory: wall seconds, counted simulated seconds, and
    /// their ratio. Rows of the other benches already in the file are
    /// kept. Wall-clock numbers vary by host and are not part of any
    /// determinism gate.
    pub fn finish(self) {
        let wall = self.wall.elapsed().as_secs_f64();
        let sim = self.sim.as_secs_f64();
        let path = Path::new("BENCH_sim_wallclock.json");
        let row = format!(
            "{{\"wall_seconds\": {wall:.3}, \"sim_seconds\": {sim:.3}, \
             \"sim_seconds_per_wall_second\": {:.2}}}",
            sim / wall.max(1e-9)
        );
        let old = fs::read_to_string(path).unwrap_or_default();
        if let Err(e) = fs::write(path, wallclock_rows(&old, self.name, &row)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// Replaces (or adds) `bench`'s row in the wall-clock JSON `old`, one
/// `"name": {...}` row per line, sorted by name.
fn wallclock_rows(old: &str, bench: &str, row: &str) -> String {
    let mut rows: Vec<(&str, &str)> = old
        .lines()
        .filter_map(|l| l.trim().trim_end_matches(',').strip_prefix('"'))
        .filter_map(|l| l.split_once("\": "))
        .filter(|(name, _)| *name != bench)
        .collect();
    rows.push((bench, row));
    rows.sort();
    let mut out = String::from("{\n");
    for (i, (name, body)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(out, "  \"{name}\": {body}{comma}");
    }
    out.push_str("}\n");
    out
}

/// Submits `batch` on thread 0 and steps the simulation until a thread
/// is ready again, or nothing is left to run.
pub fn run_batch<B: TieredBackend>(sim: &mut Sim<B>, batch: &AccessBatch) {
    sim.submit_batch(0, batch);
    while !matches!(sim.step(), Some((_, Event::ThreadReady(_))) | None) {}
}

/// One GUPS leg on HeMem over the machine `mc`.
pub fn hemem_gups(mc: MachineConfig, cfg: GupsConfig) -> (Sim<AnyBackend>, GupsResult) {
    let backend = BackendKind::HeMem.build(&mc);
    let mut sim = Sim::new(mc, backend);
    let res = run_gups(&mut sim, cfg);
    (sim, res)
}

/// The frozen args every fixed-config gate builds its machine from:
/// the paper socket at 1/96 scale (2 GiB DRAM + 8 GiB NVM). CLI flags
/// never reach them, so committed baselines stay comparable.
pub fn frozen_args() -> ExpArgs {
    ExpArgs {
        scale: 96,
        ..ExpArgs::default()
    }
}

/// The frozen 2-tier identity leg: every default-off feature stays off,
/// and a fixed 2-tier GUPS run plus a DRAM-overcommitted telemetry
/// series (sampled every 50 ms) reproduce the committed
/// `results/tierbench_2tier_baseline.txt` and
/// `results/tierbench_2tier_telemetry.csv` byte for byte. Drift means
/// RNG draw order, event order, counter layout, or a default-off
/// feature moved. Both files are also written to `results/` under the
/// working directory. Returns the GUPS run for the caller's report.
pub fn two_tier_identity(gate: &mut Gate) -> (Sim<AnyBackend>, GupsResult) {
    let args = frozen_args();
    let mc = args.machine();
    assert!(!mc.nvm_shadows, "shadows must default off");
    assert!(mc.pebs.adaptive.is_none(), "adaptation must default off");
    assert!(
        !HeMemConfig::scaled_for(&mc).tracker.regions.enabled,
        "regions must default off"
    );
    let mut cfg = GupsConfig::paper(args.gib(256), args.gib(16));
    cfg.warmup = Ns::secs(2);
    cfg.duration = Ns::secs(2);
    let gups = gate.leg(|| hemem_gups(mc, cfg));
    let fp = format!("{}\n", fingerprint(&gups.0));
    assert!(
        !fp.contains("|fleet:"),
        "solo run grew a fleet fingerprint segment"
    );
    let (_, csv) = gate.leg(|| {
        let mut sim = args.sim(BackendKind::HeMem);
        let id = sim.mmap(2 * sim.m.cfg.dram.capacity);
        sim.populate(id, true);
        let mut t = Telemetry::new(RegionRows(id), Ns::millis(50));
        for _ in 0..30 {
            t.maybe_sample(&sim);
            sim.advance(Ns::millis(50));
        }
        t.maybe_sample(&sim);
        (sim, t.csv())
    });
    committed_then_write("tierbench_2tier_baseline.txt", &fp);
    committed_then_write("tierbench_2tier_telemetry.csv", &csv);
    gups
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A short GUPS run on HeMem on a tiny machine, measuring for `ms`
    /// of simulated time.
    fn tiny_run(seed: u64, ms: u64) -> Sim<AnyBackend> {
        let args = ExpArgs {
            scale: 192,
            seed: Some(seed),
            ..ExpArgs::default()
        };
        let mut cfg = GupsConfig::paper(2 << 30, 256 << 20);
        cfg.threads = 2;
        cfg.batch_ops = 2_000;
        cfg.warmup = Ns::ZERO;
        cfg.duration = Ns::millis(ms);
        hemem_gups(args.machine(), cfg).0
    }

    #[test]
    fn committed_passes_on_an_exact_match() {
        let file = "tierbench_2tier_baseline.txt";
        let want = fs::read_to_string(repo_results().join(file)).expect("committed baseline");
        committed(file, &want);
    }

    #[test]
    #[should_panic(expected = "no_such_gate_output.txt is missing")]
    fn committed_panics_on_a_missing_file() {
        committed("no_such_gate_output.txt", "");
    }

    #[test]
    #[should_panic(expected = "drift against committed")]
    fn committed_panics_on_a_one_byte_difference() {
        let file = "tierbench_2tier_baseline.txt";
        let mut got = fs::read_to_string(repo_results().join(file)).expect("committed baseline");
        got.pop();
        got.push(' ');
        committed(file, &got);
    }

    #[test]
    fn drift_fails_from_the_repo_root_and_keeps_the_baseline() {
        let file = "tierbench_2tier_baseline.txt";
        let path = repo_results().join(file);
        let want = fs::read_to_string(&path).expect("committed baseline");
        // From the repository root, `./results` is the committed copy.
        // No other test in this crate reads or writes the working
        // directory.
        std::env::set_current_dir(repo_results().join("..")).expect("cd to the repo root");
        let drifted = format!("{want} ");
        let res = std::panic::catch_unwind(|| committed_then_write(file, &drifted));
        let after = fs::read_to_string(&path).expect("committed baseline");
        if after != want {
            fs::write(&path, &want).expect("restore the committed baseline");
        }
        assert!(res.is_err(), "a drifted output passed against itself");
        assert_eq!(after, want, "a drifted output overwrote the baseline");
    }

    #[test]
    #[should_panic(expected = "machine fingerprints diverged")]
    fn replay_panics_when_the_runs_differ() {
        let seed = Cell::new(1);
        Gate::new("test").replay("reseeded", || {
            seed.set(seed.get() + 1);
            tiny_run(seed.get(), 100)
        });
    }

    #[test]
    #[should_panic(expected = "digests diverged")]
    fn replay_compares_the_digest() {
        let n = Cell::new(0u32);
        Gate::new("test").replay("drifting digest", || {
            n.set(n.get() + 1);
            (tiny_run(1, 10), n.get().to_string())
        });
    }

    #[test]
    fn counted_seconds_sum_every_leg() {
        let mut gate = Gate::new("test");
        let a = gate.leg(|| tiny_run(1, 30)).now();
        let b = gate.replay("tiny", || tiny_run(1, 50)).now();
        assert_eq!(gate.sim, a + b + b);
    }

    #[test]
    fn wallclock_rows_replace_only_their_own_bench() {
        let old = "{\n  \"a\": {\"x\": 1},\n  \"c\": {\"x\": 3}\n}\n";
        let new = wallclock_rows(old, "b", "{\"x\": 2}");
        assert_eq!(
            new,
            "{\n  \"a\": {\"x\": 1},\n  \"b\": {\"x\": 2},\n  \"c\": {\"x\": 3}\n}\n"
        );
        let again = wallclock_rows(&new, "b", "{\"x\": 9}");
        assert!(again.contains("\"b\": {\"x\": 9},") && !again.contains("\"x\": 2"));
    }
}
