//! What one round of a workload produces, and the end-of-run checks and
//! digest shared by the library drivers and their twins.

use std::fmt::Debug;
use std::time::Instant;

use hemem_core::audit::AuditViolation;
use hemem_core::backend::TieredBackend;
use hemem_core::machine::MachineCore;
use hemem_core::runtime::Sim;
use hemem_sim::{LatencyClass, Ns};

use crate::alloc;

/// Host seconds a round's setup is repeated for, at least. One setup
/// takes from 15 µs (`fleet_churn`) to a third of a second
/// (`gups_regions`), and the host's page-fault cost drifts, so the
/// shorter ones are timed several times.
const MIN_SETUP_S: f64 = 0.2;

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Folds `bytes` into an FNV-1a hash.
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs `setup` once, and again until [`MIN_SETUP_S`] host seconds have
/// passed; returns the last result and the median time of one setup.
/// Earlier results are dropped outside the timing, and the heap peak
/// restarts before each setup.
pub fn setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    loop {
        alloc::reset_peak();
        let t = Instant::now();
        let out = setup();
        times.push(t.elapsed().as_secs_f64());
        if times.iter().sum::<f64>() >= MIN_SETUP_S {
            return (out, median(&times));
        }
    }
}

/// Counters read from the machine at the end of a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counters {
    /// PEBS records the sampling thread consumed.
    pub pebs_samples: u64,
    /// Fraction of generated PEBS records lost to buffer overflow.
    pub pebs_drop_frac: f64,
    /// Migrations started.
    pub migrations_started: u64,
    /// Migrations that committed.
    pub migrations_done: u64,
    /// Bytes moved by committed migrations.
    pub migrated_bytes: u64,
    /// Writes that stalled on a page under migration.
    pub wp_stalls: u64,
    /// Accesses that trapped on an SSD-resident page.
    pub major_faults: u64,
}

impl Counters {
    fn read(m: &MachineCore) -> Counters {
        let pebs = m.pebs.stats();
        Counters {
            pebs_samples: pebs.drained,
            pebs_drop_frac: pebs.drop_fraction(),
            migrations_started: m.stats.migrations_started,
            migrations_done: m.stats.migrations_done,
            migrated_bytes: m.stats.migrated_bytes,
            wp_stalls: m.stats.wp_stalls,
            major_faults: m.trace.hist(LatencyClass::MajorFault).count(),
        }
    }
}

/// One round's numbers.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Host seconds from backend construction through the workload's
    /// setup.
    pub setup_s: f64,
    /// Peak live heap bytes from the start of setup to the end of the
    /// run.
    pub peak_heap_bytes: usize,
    /// Host seconds from the end of setup to the end of the run.
    pub run_s: f64,
    /// Simulated seconds advanced over the same interval.
    pub sim_s: f64,
    /// Application operations per simulated second in the measured
    /// window, in millions.
    pub mops: f64,
    /// NVM media bytes written from the end of setup to the end of the
    /// run.
    pub nvm_write_bytes: u64,
    /// FNV-1a over the stats fingerprint and the driver's result.
    pub digest: u64,
    /// Failed end-of-run checks; empty when the round is correct.
    pub failures: Vec<String>,
    /// Workload-specific simulated results: (name, value, unit).
    pub info: Vec<(&'static str, f64, &'static str)>,
    /// Machine counters at the end of the round.
    pub counters: Counters,
}

/// Host and simulated clocks at the end of a round's setup.
pub struct Mark {
    setup_s: f64,
    host: Instant,
    sim: Ns,
    wear: u64,
}

impl Mark {
    /// Ends a setup phase that took `setup_s` host seconds.
    pub fn after_setup<B: TieredBackend>(setup_s: f64, sim: &Sim<B>) -> Mark {
        Mark {
            setup_s,
            host: Instant::now(),
            sim: sim.now(),
            wear: sim.m.nvm_wear_bytes(),
        }
    }

    /// Ends the run: call right after the driver returns, before any
    /// check. `result` is the driver's result, hashed into the digest;
    /// `violations` is the end-of-run audit.
    pub fn finish<B: TieredBackend>(
        self,
        sim: &Sim<B>,
        run_s: f64,
        mops: f64,
        result: &impl Debug,
        violations: Vec<AuditViolation>,
    ) -> Outcome {
        let mut digest = FNV_OFFSET;
        fnv1a(&mut digest, hemem_bench::fingerprint(sim).as_bytes());
        fnv1a(&mut digest, format!("|{result:?}").as_bytes());
        let mut failures = Vec::new();
        if !violations.is_empty() {
            failures.push(format!("audit: {violations:?}"));
        }
        if mops.is_nan() || mops <= 0.0 {
            failures.push(format!("no application ops completed ({mops} Mop/sim_s)"));
        }
        Outcome {
            setup_s: self.setup_s,
            peak_heap_bytes: alloc::peak_bytes(),
            run_s,
            sim_s: sim.now().saturating_sub(self.sim).as_secs_f64(),
            mops,
            nvm_write_bytes: sim.m.nvm_wear_bytes() - self.wear,
            digest,
            failures,
            info: Vec::new(),
            counters: Counters::read(&sim.m),
        }
    }

    /// Host seconds since the end of setup.
    pub fn run_s(&self) -> f64 {
        self.host.elapsed().as_secs_f64()
    }
}
