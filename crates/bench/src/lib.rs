//! # hemem-bench
//!
//! Experiment harness regenerating every table and figure in the HeMem
//! paper's evaluation (§5). Each binary (`fig1` … `fig16`, `table1` …
//! `table4`, `ablate_*`) sweeps the same parameters as the corresponding
//! paper result, prints a markdown table, and writes a CSV under
//! `results/`.
//!
//! Experiments default to a 1/8-scale machine (24 GB DRAM + 96 GB NVM,
//! all ratios preserved) so a full sweep completes in seconds; pass
//! `--full` for the paper's 192 GB + 768 GB socket or `--scale N` for any
//! other divisor. EXPERIMENTS.md records measured-vs-paper shapes.

#![warn(missing_docs)]

pub mod bc;
pub mod gate;

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use hemem_baselines::{AnyBackend, BackendKind};
use hemem_core::backend::TieredBackend;
use hemem_core::machine::MachineConfig;
use hemem_core::runtime::Sim;
use hemem_memdev::GIB;
use hemem_sim::LatencyClass;
use hemem_vmm::Tier;

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Machine scale divisor: 1 = the paper's socket.
    pub scale: u64,
    /// Restrict to these backends (empty = the experiment's default set).
    pub backends: Vec<BackendKind>,
    /// Random seed override.
    pub seed: Option<u64>,
    /// Virtual measurement seconds override.
    pub seconds: Option<u64>,
    /// Capture structured trace events (Chrome-trace export); off by
    /// default. Tracing never changes simulation results — see
    /// [`hemem_sim::Tracer`].
    pub trace: bool,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            scale: 8,
            backends: Vec::new(),
            seed: None,
            seconds: None,
            trace: false,
        }
    }
}

impl ExpArgs {
    /// Parses `std::env::args()`; exits with usage text on error.
    pub fn parse() -> ExpArgs {
        let mut out = ExpArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => out.scale = 1,
                "--scale" => {
                    out.scale = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("missing value for --scale"));
                }
                "--backend" | "--backends" => {
                    let v = args.next().unwrap_or_else(|| usage("missing backend list"));
                    for name in v.split(',') {
                        match BackendKind::parse(name) {
                            Some(k) => out.backends.push(k),
                            None => usage(&format!("unknown backend {name:?}")),
                        }
                    }
                }
                "--seed" => {
                    out.seed = args.next().and_then(|v| v.parse().ok());
                }
                "--seconds" => {
                    out.seconds = args.next().and_then(|v| v.parse().ok());
                }
                "--trace" => out.trace = true,
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown argument {other:?}")),
            }
        }
        if out.scale == 0 {
            usage("--scale must be >= 1");
        }
        out
    }

    /// The machine for this scale: the paper testbed divided by `scale`.
    ///
    /// The PEBS sample period is multiplied by the scale so the *per-page*
    /// sampling rate matches the paper's: a 1/N machine has N-times fewer
    /// pages under the same access rates, and an unscaled period would
    /// make every page look N-times hotter than on the real testbed.
    pub fn machine(&self) -> MachineConfig {
        let mut mc = MachineConfig::paper_testbed();
        if self.scale > 1 {
            mc = MachineConfig::small((192 / self.scale).max(1), (768 / self.scale).max(1));
            mc.pebs.sample_period *= self.scale;
        }
        if let Some(seed) = self.seed {
            mc.seed = seed;
        }
        mc.trace = self.trace;
        mc
    }

    /// Scales a paper-quoted byte size down by the machine scale.
    pub fn bytes(&self, paper_bytes: u64) -> u64 {
        (paper_bytes / self.scale).max(64 << 20)
    }

    /// Scales a paper-quoted GiB figure.
    pub fn gib(&self, paper_gib: u64) -> u64 {
        self.bytes(paper_gib * GIB)
    }

    /// Backends to run: the given default set unless `--backend` narrowed
    /// it.
    pub fn backends_or(&self, default: &[BackendKind]) -> Vec<BackendKind> {
        if self.backends.is_empty() {
            default.to_vec()
        } else {
            self.backends.clone()
        }
    }

    /// Builds a simulation with the chosen backend on this machine.
    pub fn sim(&self, kind: BackendKind) -> Sim<AnyBackend> {
        let mc = self.machine();
        let backend = kind.build(&mc);
        Sim::new(mc, backend)
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: <experiment> [--full | --scale N] [--backends a,b,..] [--seed S] [--seconds T] [--trace]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Canonical state fingerprint for determinism gates: everything a
/// byte-identical replay must reproduce — machine counters, injected
/// faults, recovery counters, policy attribution, DMA and PEBS stats,
/// pool occupancy, and the always-on latency histograms. Two runs with
/// the same seed and configuration must produce equal strings.
pub fn fingerprint<B: TieredBackend>(sim: &Sim<B>) -> String {
    let mut s = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}/{}|{}/{}/{}",
        sim.m.stats,
        sim.m.chaos.stats(),
        sim.m.recovery,
        sim.m.trace.policy,
        sim.m.dma.stats(),
        sim.m.pebs.stats(),
        sim.m.pool(Tier::Dram).free_pages(),
        sim.m.pool(Tier::Dram).allocated_pages(),
        sim.m.pool(Tier::Nvm).free_pages(),
        sim.m.pool(Tier::Nvm).allocated_pages(),
        sim.m.pool(Tier::Nvm).retired_pages(),
    );
    // The tier-3 pool segment only appears on tier-3 machines, keeping
    // two-tier fingerprints byte-identical to their pre-SSD baselines.
    if sim.m.has_ssd() {
        s.push_str(&format!(
            "|ssd:{}/{}/{}",
            sim.m.pool(Tier::Ssd).free_pages(),
            sim.m.pool(Tier::Ssd).allocated_pages(),
            sim.m.pool(Tier::Ssd).retired_pages(),
        ));
    }
    // The failure-domain segment only appears when the config seeds tier
    // health events, keeping fault-free fingerprints byte-identical to
    // their pre-failure-domain baselines.
    if sim.m.cfg.chaos.has_tier_schedule() {
        let h = &sim.m.health;
        s.push_str(&format!(
            "|health:{:?}/{:?}/{}/{}/{}/{}/{}/{}/{:?}",
            h.health,
            h.health_retired,
            h.degrades,
            h.offlines,
            h.readmits,
            h.evacuated_pages,
            h.poisoned_pages,
            h.poison_faults,
            h.tenant_poisoned,
        ));
    }
    // The fleet segment only appears once the backend's slot pool has
    // actually spawned a tenant, keeping solo and statically-colocated
    // fingerprints byte-identical to their pre-fleet baselines. Only the
    // mechanism-independent counters are hashed: the pooled/scratch
    // spawn split is *supposed* to differ between fleetbench's
    // recycled-slot and fresh-slot runs, whose full fingerprints must
    // still compare byte-identical.
    if let Some(fs) = sim.backend.fleet_stats() {
        s.push_str(&format!(
            "|fleet:{}/{}/{}/{}",
            fs.spawns, fs.recycles, fs.scrubbed_pages, fs.generation_sum,
        ));
    }
    // The adaptive-PEBS segment only appears when the controller is
    // configured, keeping fixed-period fingerprints byte-identical to
    // their pre-adaptation baselines.
    if sim.m.cfg.pebs.adaptive.is_some() {
        let a = sim.m.pebs.adapt_stats();
        s.push_str(&format!(
            "|adapt:{}/{}/{}/{}/{}",
            sim.m.pebs.sample_period(),
            a.decisions,
            a.raises,
            a.lowers,
            a.last_window_drop_milli,
        ));
    }
    for class in LatencyClass::ALL {
        let h = sim.m.trace.hist(class);
        // Same reasoning: the major-fault histogram can only fill on a
        // tier-3 machine, so an empty one is omitted rather than printed
        // as a new all-zero segment.
        if class == LatencyClass::MajorFault && h.count() == 0 {
            continue;
        }
        s.push_str(&format!(
            "|{}:{}/{}/{}/{}/{}",
            class.name(),
            h.count(),
            h.quantile(0.5),
            h.quantile(0.99),
            h.quantile(0.999),
            h.max(),
        ));
    }
    s
}

/// Runs the structural audit (non-quiescent) and asserts it is silent;
/// `ctx` names the gate in the failure message. Hoisted from the
/// lifecycle benches (churn/fail/nomad/fleet) so "audit silent" means
/// the same check everywhere.
pub fn assert_silent_audit<B: TieredBackend>(sim: &mut Sim<B>, ctx: &str) {
    let violations = sim.run_audit(false);
    assert!(
        violations.is_empty(),
        "{ctx}: audit violations: {violations:?}"
    );
}

/// Asserts tenant `t` retired cleanly after a drain: lifecycle retired,
/// zero frames on every tier, dead to the arbiter with zero quota.
/// Shared by the churn/fleet gates so "drained" means the same thing
/// everywhere a tenant leaves.
pub fn assert_tenant_drained(sim: &Sim<hemem_core::HeMem>, t: hemem_vmm::TenantId) {
    assert!(
        sim.backend.tenant_is_retired(t),
        "{t} not retired after drain"
    );
    let tf = sim.m.space.tenant_frames(t);
    assert_eq!(
        tf.dram_pages + tf.nvm_pages + tf.ssd_pages,
        0,
        "{t} frames leaked past the drain"
    );
    let arb = sim.backend.arbiter().expect("drain gate needs an arbiter");
    assert!(
        !arb.is_live(t) && arb.quota_pages(t) == 0,
        "{t} quota survived retirement"
    );
}

/// Writes `results/<filename>`, logging the path (or a warning) to
/// stderr; `note` names the artifact in the log line. Shared by
/// [`Report::emit`] and binaries exporting extra artifacts (telemetry
/// time series, Chrome traces).
pub fn write_results(filename: &str, contents: &str, note: &str) {
    let dir = Path::new("results");
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!(
            "warning: could not write {}: {e}",
            dir.join(filename).display()
        );
        return;
    }
    let path = dir.join(filename);
    match fs::write(&path, contents) {
        Ok(()) => eprintln!("({note} written to {})", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// A result table that renders as markdown and CSV.
#[derive(Debug, Clone)]
pub struct Report {
    name: String,
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Creates a report; `name` becomes the CSV filename.
    pub fn new(name: &str, title: &str, headers: &[&str]) -> Report {
        Report {
            name: name.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders a markdown table.
    pub fn markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "## {}", self.title);
        let _ = writeln!(s, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            s,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for r in &self.rows {
            let _ = writeln!(s, "| {} |", r.join(" | "));
        }
        s
    }

    /// Renders CSV.
    pub fn csv(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.headers.join(","));
        for r in &self.rows {
            let _ = writeln!(s, "{}", r.join(","));
        }
        s
    }

    /// Prints markdown to stdout and writes `results/<name>.csv`.
    pub fn emit(&self) {
        println!("{}", self.markdown());
        write_results(&format!("{}.csv", self.name), &self.csv(), "csv");
    }
}

/// Formats a float compactly for table cells.
pub fn f3(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_scales_capacities() {
        let a = ExpArgs {
            scale: 8,
            ..ExpArgs::default()
        };
        let mc = a.machine();
        assert_eq!(mc.dram.capacity, 24 * GIB);
        assert_eq!(mc.nvm.capacity, 96 * GIB);
        let full = ExpArgs {
            scale: 1,
            ..ExpArgs::default()
        };
        assert_eq!(full.machine().dram.capacity, 192 * GIB);
    }

    #[test]
    fn bytes_scaling_has_floor() {
        let a = ExpArgs {
            scale: 8,
            ..ExpArgs::default()
        };
        assert_eq!(a.gib(512), 64 * GIB);
        assert_eq!(a.bytes(1 << 20), 64 << 20, "floor applies");
    }

    #[test]
    fn report_renders_markdown_and_csv() {
        let mut r = Report::new("t", "Title", &["a", "b"]);
        r.row(&["1".into(), "2".into()]);
        let md = r.markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        let csv = r.csv();
        assert!(csv.starts_with("a,b\n1,2"));
    }

    #[test]
    fn backends_default_and_override() {
        let a = ExpArgs::default();
        let d = a.backends_or(&[BackendKind::HeMem, BackendKind::MemoryMode]);
        assert_eq!(d.len(), 2);
        let b = ExpArgs {
            backends: vec![BackendKind::Nimble],
            ..ExpArgs::default()
        };
        assert_eq!(b.backends_or(&d), vec![BackendKind::Nimble]);
    }

    #[test]
    fn f3_formats() {
        assert_eq!(f3(0.0), "0");
        assert_eq!(f3(0.1234), "0.1234");
        assert_eq!(f3(3.25159), "3.25");
        assert_eq!(f3(123.4), "123");
    }

    #[test]
    fn sim_builds_each_backend() {
        let a = ExpArgs {
            scale: 96,
            ..ExpArgs::default()
        };
        for kind in [
            BackendKind::HeMem,
            BackendKind::MemoryMode,
            BackendKind::Nimble,
        ] {
            let s = a.sim(kind);
            assert!(s.m.cfg.dram.capacity >= GIB);
        }
    }
}
