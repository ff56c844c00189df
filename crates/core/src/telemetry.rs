//! Time-series telemetry over a running simulation.
//!
//! Experiments like Figure 9 (instantaneous throughput) and Figure 16
//! (per-iteration wear) need the machine's state sampled over virtual
//! time. [`Telemetry`] snapshots counters on a fixed period driven by the
//! workload loop (call [`Telemetry::maybe_sample`] whenever convenient —
//! it only records when a full period has elapsed) and computes
//! per-interval deltas for the cumulative counters.

use hemem_sim::{LatencyClass, Ns};
use hemem_vmm::RegionId;

use crate::backend::TieredBackend;
use crate::runtime::Sim;

/// One snapshot of machine state.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    /// Virtual time of the sample.
    pub at: Ns,
    /// DRAM-resident pages of the tracked region.
    pub dram_pages: u64,
    /// Mapped pages of the tracked region.
    pub mapped_pages: u64,
    /// Always 0 (no page leaves the tiers unmapped any more); the column
    /// stays so committed telemetry CSVs remain byte-identical.
    pub swapped_pages: u64,
    /// Cumulative completed migrations.
    pub migrations: u64,
    /// Cumulative NVM media bytes written (wear).
    pub nvm_wear: u64,
    /// Cumulative application accesses.
    pub ops: u64,
    /// Cumulative write-protection stalls.
    pub wp_stalls: u64,
    /// Cumulative injected faults across every site (zero without a
    /// fault plan).
    pub faults_injected: u64,
    /// Cumulative DMA batches that fell back to copy threads.
    pub dma_fallbacks: u64,
    /// Cumulative migrations lost to injected failures.
    pub migrations_failed: u64,
    /// Cumulative NVM pages retired after media errors.
    pub pages_retired: u64,
    /// Cumulative manager kills taken (zero without kill injection).
    pub manager_kills: u64,
    /// Cumulative journal entries replayed during crash recovery.
    pub journal_replays: u64,
    /// Cumulative prepared migrations rolled back during recovery.
    pub journal_rollbacks: u64,
    /// Always 0, pinned like [`crate::machine::RecoveryStats::swap_rollbacks`].
    pub swap_rollbacks: u64,
    /// Cumulative components restarted by the watchdog.
    pub watchdog_restarts: u64,
    /// Cumulative invariant violations flagged by the online auditor.
    pub audit_violations: u64,
    /// End-to-end migration latency percentiles so far (prepare to
    /// mapping flip), in nanoseconds: p50, p99, p99.9, max. Computed from
    /// the machine's always-on latency histograms
    /// ([`hemem_sim::Tracer`]); zero until the first completed migration.
    pub mig_p50_ns: u64,
    /// Migration latency p99 (ns).
    pub mig_p99_ns: u64,
    /// Migration latency p99.9 (ns).
    pub mig_p999_ns: u64,
    /// Migration latency maximum (ns).
    pub mig_max_ns: u64,
    /// Page-fault service latency p50 (ns).
    pub fault_p50_ns: u64,
    /// Page-fault service latency p99 (ns).
    pub fault_p99_ns: u64,
    /// Page-fault service latency p99.9 (ns).
    pub fault_p999_ns: u64,
    /// Page-fault service latency maximum (ns).
    pub fault_max_ns: u64,
    /// Write-protection stall duration p50 (ns).
    pub wp_p50_ns: u64,
    /// Write-protection stall duration p99 (ns).
    pub wp_p99_ns: u64,
    /// Write-protection stall duration p99.9 (ns).
    pub wp_p999_ns: u64,
    /// Write-protection stall duration maximum (ns).
    pub wp_max_ns: u64,
    /// PEBS sample period in effect at the sample (constant unless the
    /// adaptive controller is enabled).
    pub pebs_sample_period: u64,
    /// Cumulative PEBS drop fraction in thousandths
    /// (`dropped * 1000 / generated`; zero before the first record).
    pub pebs_drop_frac_milli: u64,
}

/// Per-interval rates derived from consecutive snapshots.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct IntervalRates {
    /// Interval end time.
    pub at: Ns,
    /// Accesses per second in the interval.
    pub ops_per_sec: f64,
    /// Migrations per second.
    pub migrations_per_sec: f64,
    /// NVM wear bytes per second.
    pub wear_per_sec: f64,
    /// DRAM residency fraction at interval end.
    pub dram_fraction: f64,
}

/// Periodic sampler of one region's tiering state.
#[derive(Debug, Clone)]
pub struct Telemetry {
    region: RegionId,
    period: Ns,
    next_at: Ns,
    samples: Vec<Snapshot>,
}

impl Telemetry {
    /// Creates a sampler for `region` with the given period.
    pub fn new(region: RegionId, period: Ns) -> Telemetry {
        assert!(period > Ns::ZERO, "period must be positive");
        Telemetry {
            region,
            period,
            next_at: Ns::ZERO,
            samples: Vec::new(),
        }
    }

    /// Records a snapshot if at least one period elapsed since the last.
    /// Returns `true` if a sample was taken.
    pub fn maybe_sample<B: TieredBackend>(&mut self, sim: &Sim<B>) -> bool {
        let now = sim.now();
        if now < self.next_at {
            return false;
        }
        self.next_at = now + self.period;
        let r = sim.m.space.region(self.region);
        let mig = sim.m.trace.hist(LatencyClass::Migration);
        let fault = sim.m.trace.hist(LatencyClass::Fault);
        let wp = sim.m.trace.hist(LatencyClass::WpStall);
        self.samples.push(Snapshot {
            at: now,
            dram_pages: r.dram_pages(),
            mapped_pages: r.mapped_pages(),
            // Pinned 0: keeps the CSV column until the baselines re-seed.
            swapped_pages: 0,
            migrations: sim.m.stats.migrations_done,
            nvm_wear: sim.m.nvm_wear_bytes(),
            ops: sim.m.stats.ops,
            wp_stalls: sim.m.stats.wp_stalls,
            faults_injected: sim.m.chaos.stats().total(),
            dma_fallbacks: sim.m.stats.dma_fallbacks,
            migrations_failed: sim.m.stats.migrations_failed,
            pages_retired: sim.m.stats.pages_retired,
            manager_kills: sim.m.recovery.manager_kills,
            journal_replays: sim.m.recovery.journal_replays,
            journal_rollbacks: sim.m.recovery.journal_rollbacks,
            swap_rollbacks: sim.m.recovery.swap_rollbacks,
            watchdog_restarts: sim.m.recovery.watchdog_restarts,
            audit_violations: sim.m.recovery.audit_violations,
            mig_p50_ns: mig.quantile(0.5),
            mig_p99_ns: mig.quantile(0.99),
            mig_p999_ns: mig.quantile(0.999),
            mig_max_ns: mig.max(),
            fault_p50_ns: fault.quantile(0.5),
            fault_p99_ns: fault.quantile(0.99),
            fault_p999_ns: fault.quantile(0.999),
            fault_max_ns: fault.max(),
            wp_p50_ns: wp.quantile(0.5),
            wp_p99_ns: wp.quantile(0.99),
            wp_p999_ns: wp.quantile(0.999),
            wp_max_ns: wp.max(),
            pebs_sample_period: sim.m.pebs.sample_period(),
            pebs_drop_frac_milli: {
                let p = sim.m.pebs.stats();
                (p.dropped * 1_000).checked_div(p.generated).unwrap_or(0)
            },
        });
        true
    }

    /// All snapshots taken so far.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.samples
    }

    /// Per-interval rates between consecutive snapshots.
    pub fn rates(&self) -> Vec<IntervalRates> {
        self.samples
            .windows(2)
            .map(|w| {
                let (a, b) = (w[0], w[1]);
                let dt = b.at.saturating_sub(a.at).as_secs_f64().max(1e-12);
                IntervalRates {
                    at: b.at,
                    ops_per_sec: (b.ops - a.ops) as f64 / dt,
                    migrations_per_sec: (b.migrations - a.migrations) as f64 / dt,
                    wear_per_sec: (b.nvm_wear - a.nvm_wear) as f64 / dt,
                    dram_fraction: if b.mapped_pages == 0 {
                        0.0
                    } else {
                        b.dram_pages as f64 / b.mapped_pages as f64
                    },
                }
            })
            .collect()
    }

    /// Renders snapshots as CSV (`time_s,dram_pages,mapped,swapped,
    /// migrations,wear_bytes,ops,wp_stalls`, then the fault-injection
    /// columns `faults_injected,dma_fallbacks,migrations_failed,
    /// pages_retired`, then the crash-recovery columns `manager_kills,
    /// journal_replays,journal_rollbacks,swap_rollbacks,
    /// watchdog_restarts,audit_violations`, then cumulative latency
    /// percentiles in nanoseconds for migrations, page faults, and
    /// write-protection stalls: `{mig,fault,wp}_{p50,p99,p999,max}_ns`,
    /// then the PEBS controller columns `pebs_sample_period,
    /// pebs_drop_frac_milli`).
    pub fn csv(&self) -> String {
        let mut out = String::from(
            "time_s,dram_pages,mapped_pages,swapped_pages,migrations,nvm_wear,ops,wp_stalls,\
             faults_injected,dma_fallbacks,migrations_failed,pages_retired,\
             manager_kills,journal_replays,journal_rollbacks,swap_rollbacks,\
             watchdog_restarts,audit_violations,\
             mig_p50_ns,mig_p99_ns,mig_p999_ns,mig_max_ns,\
             fault_p50_ns,fault_p99_ns,fault_p999_ns,fault_max_ns,\
             wp_p50_ns,wp_p99_ns,wp_p999_ns,wp_max_ns,\
             pebs_sample_period,pebs_drop_frac_milli\n",
        );
        for s in &self.samples {
            out.push_str(&format!(
                "{:.3},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},\
                 {},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                s.at.as_secs_f64(),
                s.dram_pages,
                s.mapped_pages,
                s.swapped_pages,
                s.migrations,
                s.nvm_wear,
                s.ops,
                s.wp_stalls,
                s.faults_injected,
                s.dma_fallbacks,
                s.migrations_failed,
                s.pages_retired,
                s.manager_kills,
                s.journal_replays,
                s.journal_rollbacks,
                s.swap_rollbacks,
                s.watchdog_restarts,
                s.audit_violations,
                s.mig_p50_ns,
                s.mig_p99_ns,
                s.mig_p999_ns,
                s.mig_max_ns,
                s.fault_p50_ns,
                s.fault_p99_ns,
                s.fault_p999_ns,
                s.fault_max_ns,
                s.wp_p50_ns,
                s.wp_p99_ns,
                s.wp_p999_ns,
                s.wp_max_ns,
                s.pebs_sample_period,
                s.pebs_drop_frac_milli
            ));
        }
        out
    }
}

/// One sample of a run's per-tier residency and major-fault latency.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct TierSnapshot {
    /// Virtual time of the sample.
    pub at: Ns,
    /// DRAM-resident pages of the tracked region.
    pub dram_pages: u64,
    /// NVM-resident pages of the tracked region.
    pub nvm_pages: u64,
    /// SSD-resident pages of the tracked region (tier-3 machines only;
    /// zero otherwise).
    pub ssd_pages: u64,
    /// Always 0, pinned like [`Snapshot::swapped_pages`].
    pub swapped_pages: u64,
    /// Cumulative major faults serviced (accesses that stalled behind
    /// the SSD queue).
    pub major_faults: u64,
    /// Major-fault service latency p50 (ns); zero until the first one.
    pub major_p50_ns: u64,
    /// Major-fault service latency p99 (ns).
    pub major_p99_ns: u64,
    /// Major-fault service latency p99.9 (ns).
    pub major_p999_ns: u64,
    /// Cumulative synchronous demotions onto the SSD tier by direct
    /// reclaim.
    pub swap_outs: u64,
    /// Cumulative promotions back from the slowest tier.
    pub swap_ins: u64,
}

/// Periodic sampler of one region's N-tier residency and major-fault
/// latency, for tier-3 experiments. Deliberately a separate type from
/// [`Telemetry`] so the two-tier CSV schema stays byte-stable.
#[derive(Debug, Clone)]
pub struct TierTelemetry {
    region: RegionId,
    period: Ns,
    next_at: Ns,
    samples: Vec<TierSnapshot>,
}

impl TierTelemetry {
    /// Creates a sampler for `region` with the given period.
    pub fn new(region: RegionId, period: Ns) -> TierTelemetry {
        assert!(period > Ns::ZERO, "period must be positive");
        TierTelemetry {
            region,
            period,
            next_at: Ns::ZERO,
            samples: Vec::new(),
        }
    }

    /// Records a snapshot if at least one period elapsed since the last.
    /// Returns `true` if a sample was taken.
    pub fn maybe_sample<B: TieredBackend>(&mut self, sim: &Sim<B>) -> bool {
        let now = sim.now();
        if now < self.next_at {
            return false;
        }
        self.next_at = now + self.period;
        let r = sim.m.space.region(self.region);
        let (dram, mapped, ssd) = (r.dram_pages(), r.mapped_pages(), r.ssd_pages());
        let major = sim.m.trace.hist(LatencyClass::MajorFault);
        self.samples.push(TierSnapshot {
            at: now,
            dram_pages: dram,
            nvm_pages: mapped - dram - ssd,
            ssd_pages: ssd,
            // Pinned 0: keeps the CSV column until the baselines re-seed.
            swapped_pages: 0,
            major_faults: major.count(),
            major_p50_ns: major.quantile(0.5),
            major_p99_ns: major.quantile(0.99),
            major_p999_ns: major.quantile(0.999),
            swap_outs: sim.m.stats.swap_outs,
            swap_ins: sim.m.stats.swap_ins,
        });
        true
    }

    /// All snapshots taken so far.
    pub fn snapshots(&self) -> &[TierSnapshot] {
        &self.samples
    }

    /// Renders snapshots as CSV (`time_s,dram_pages,nvm_pages,ssd_pages,
    /// swapped_pages,major_faults,major_p50_ns,major_p99_ns,
    /// major_p999_ns,swap_outs,swap_ins`).
    pub fn csv(&self) -> String {
        let mut out = String::from(
            "time_s,dram_pages,nvm_pages,ssd_pages,swapped_pages,\
             major_faults,major_p50_ns,major_p99_ns,major_p999_ns,\
             swap_outs,swap_ins\n",
        );
        for s in &self.samples {
            out.push_str(&format!(
                "{:.3},{},{},{},{},{},{},{},{},{},{}\n",
                s.at.as_secs_f64(),
                s.dram_pages,
                s.nvm_pages,
                s.ssd_pages,
                s.swapped_pages,
                s.major_faults,
                s.major_p50_ns,
                s.major_p99_ns,
                s.major_p999_ns,
                s.swap_outs,
                s.swap_ins
            ));
        }
        out
    }
}

/// One per-tenant sample of a multi-tenant run.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct TenantSnapshot {
    /// Virtual time of the sample.
    pub at: Ns,
    /// The tenant this row describes.
    pub tenant: hemem_vmm::TenantId,
    /// DRAM-resident pages across the tenant's managed regions.
    pub dram_pages: u64,
    /// NVM-resident pages across the tenant's managed regions.
    pub nvm_pages: u64,
    /// The tenant's DRAM quota in pages (whole tier when no arbiter).
    pub quota_pages: u64,
    /// Cumulative PEBS DRAM-load samples attributed to the tenant.
    pub dram_loads: u64,
    /// Cumulative PEBS NVM-load samples attributed to the tenant.
    pub nvm_loads: u64,
    /// Cumulative samples applied to the tenant's tracker.
    pub pebs_samples: u64,
}

/// Per-tenant time-series sampler for multi-tenant runs: one row per
/// tenant per period, long format. Deliberately a separate type from
/// [`Telemetry`] so the single-process CSV schema stays byte-stable.
#[derive(Debug, Clone)]
pub struct TenantTelemetry {
    period: Ns,
    next_at: Ns,
    samples: Vec<TenantSnapshot>,
}

impl TenantTelemetry {
    /// Creates a sampler with the given period.
    pub fn new(period: Ns) -> TenantTelemetry {
        assert!(period > Ns::ZERO, "period must be positive");
        TenantTelemetry {
            period,
            next_at: Ns::ZERO,
            samples: Vec::new(),
        }
    }

    /// Records one row per tenant if at least one period elapsed since
    /// the last sample. Returns `true` if rows were taken.
    pub fn maybe_sample(&mut self, sim: &Sim<crate::hemem::HeMem>) -> bool {
        let now = sim.now();
        if now < self.next_at {
            return false;
        }
        self.next_at = now + self.period;
        let hemem = &sim.backend;
        for i in 0..hemem.tenant_count() {
            let t = hemem_vmm::TenantId(i as u32);
            let tf = sim.m.space.tenant_frames(t);
            let quota = hemem
                .arbiter()
                .map(|a| a.quota_pages(t))
                .unwrap_or_else(|| sim.m.dram_pool.total_pages());
            let (dram_loads, nvm_loads) = hemem.tenant_loads(t);
            self.samples.push(TenantSnapshot {
                at: now,
                tenant: t,
                dram_pages: tf.dram_pages,
                nvm_pages: tf.nvm_pages,
                quota_pages: quota,
                dram_loads,
                nvm_loads,
                pebs_samples: hemem.tenant_samples(t),
            });
        }
        true
    }

    /// All rows taken so far.
    pub fn snapshots(&self) -> &[TenantSnapshot] {
        &self.samples
    }

    /// Renders rows as CSV (`time_s,tenant,dram_pages,nvm_pages,
    /// quota_pages,dram_loads,nvm_loads,pebs_samples`).
    pub fn csv(&self) -> String {
        let mut out = String::from(
            "time_s,tenant,dram_pages,nvm_pages,quota_pages,dram_loads,nvm_loads,pebs_samples\n",
        );
        for s in &self.samples {
            out.push_str(&format!(
                "{:.3},{},{},{},{},{},{},{}\n",
                s.at.as_secs_f64(),
                s.tenant.0,
                s.dram_pages,
                s.nvm_pages,
                s.quota_pages,
                s.dram_loads,
                s.nvm_loads,
                s.pebs_samples
            ));
        }
        out
    }
}

/// One per-tier sample of device health and capacity under the failure
/// lifecycle.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct HealthSnapshot {
    /// Virtual time of the sample.
    pub at: Ns,
    /// The tier this row describes.
    pub tier: hemem_vmm::Tier,
    /// Current health state (`Healthy`, `Degraded`, `Offline`).
    pub health: crate::machine::TierHealth,
    /// Bandwidth multiplier currently applied to the device (1.0 when
    /// healthy).
    pub throttle: f64,
    /// Free pages in the tier's pool.
    pub free_pages: u64,
    /// Allocated pages in the tier's pool.
    pub allocated_pages: u64,
    /// Pages retired for media errors.
    pub retired_pages: u64,
    /// Pages retired by degradation wear-shedding.
    pub health_retired_pages: u64,
    /// Cumulative media wear in bytes (NVM only; zero elsewhere).
    pub wear_bytes: u64,
}

/// Per-tier health time-series sampler for failure-domain runs: one row
/// per tier per period, long format. Deliberately a separate type from
/// [`Telemetry`] so the established CSV schemas stay byte-stable.
#[derive(Debug, Clone)]
pub struct HealthTelemetry {
    period: Ns,
    next_at: Ns,
    samples: Vec<HealthSnapshot>,
}

impl HealthTelemetry {
    /// Creates a sampler with the given period.
    pub fn new(period: Ns) -> HealthTelemetry {
        assert!(period > Ns::ZERO, "period must be positive");
        HealthTelemetry {
            period,
            next_at: Ns::ZERO,
            samples: Vec::new(),
        }
    }

    /// Records one row per tier if at least one period elapsed since the
    /// last sample. Returns `true` if rows were taken.
    pub fn maybe_sample<B: TieredBackend>(&mut self, sim: &Sim<B>) -> bool {
        let now = sim.now();
        if now < self.next_at {
            return false;
        }
        self.next_at = now + self.period;
        for &tier in sim.m.tiers() {
            let p = sim.m.pool(tier);
            let throttle = match tier {
                hemem_vmm::Tier::Ssd => sim.m.ssd.as_ref().map(|s| s.throttle()).unwrap_or(1.0),
                _ => sim.m.device(tier).throttle(),
            };
            let wear = if tier == hemem_vmm::Tier::Nvm {
                sim.m.nvm_wear_bytes()
            } else {
                0
            };
            self.samples.push(HealthSnapshot {
                at: now,
                tier,
                health: sim.m.tier_health(tier),
                throttle,
                free_pages: p.free_pages(),
                allocated_pages: p.allocated_pages(),
                retired_pages: p.retired_pages(),
                health_retired_pages: p.health_retired_pages(),
                wear_bytes: wear,
            });
        }
        true
    }

    /// All rows taken so far.
    pub fn snapshots(&self) -> &[HealthSnapshot] {
        &self.samples
    }

    /// Renders rows as CSV (`time_s,tier,health,throttle,free_pages,
    /// allocated_pages,retired_pages,health_retired_pages,wear_bytes`).
    pub fn csv(&self) -> String {
        let mut out = String::from(
            "time_s,tier,health,throttle,free_pages,allocated_pages,\
             retired_pages,health_retired_pages,wear_bytes\n",
        );
        for s in &self.samples {
            out.push_str(&format!(
                "{:.3},{:?},{:?},{:.2},{},{},{},{},{}\n",
                s.at.as_secs_f64(),
                s.tier,
                s.health,
                s.throttle,
                s.free_pages,
                s.allocated_pages,
                s.retired_pages,
                s.health_retired_pages,
                s.wear_bytes
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AccessBatch;
    use crate::hemem::{HeMem, HeMemConfig};
    use crate::machine::MachineConfig;
    use crate::runtime::Event;

    const GIB: u64 = 1 << 30;

    fn setup() -> (Sim<HeMem>, RegionId) {
        let mc = MachineConfig::small(1, 8);
        let hc = HeMemConfig::scaled_for(&mc);
        let mut sim = Sim::new(mc, HeMem::new(hc));
        let id = sim.mmap(2 * GIB);
        sim.populate(id, true);
        (sim, id)
    }

    #[test]
    fn samples_on_period_boundaries_only() {
        let (mut sim, id) = setup();
        let mut t = Telemetry::new(id, Ns::millis(100));
        assert!(t.maybe_sample(&sim), "first call samples");
        assert!(!t.maybe_sample(&sim), "no time passed");
        sim.advance(Ns::millis(150));
        assert!(t.maybe_sample(&sim));
        assert_eq!(t.snapshots().len(), 2);
    }

    #[test]
    fn rates_reflect_workload_progress() {
        let (mut sim, id) = setup();
        let mut t = Telemetry::new(id, Ns::millis(10));
        t.maybe_sample(&sim);
        let batch = AccessBatch::uniform(id, 0, 1024, 200_000, 8, 0.5, 2 * GIB);
        for _ in 0..10 {
            sim.submit_batch(0, &batch);
            loop {
                match sim.step() {
                    Some((_, Event::ThreadReady(_))) | None => break,
                    Some(_) => {}
                }
            }
            t.maybe_sample(&sim);
        }
        let rates = t.rates();
        assert!(!rates.is_empty());
        assert!(rates.iter().any(|r| r.ops_per_sec > 0.0));
        let last = rates.last().expect("rates");
        assert!(last.dram_fraction > 0.0 && last.dram_fraction <= 1.0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let (mut sim, id) = setup();
        let mut t = Telemetry::new(id, Ns::millis(50));
        t.maybe_sample(&sim);
        sim.advance(Ns::millis(60));
        t.maybe_sample(&sim);
        let csv = t.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("time_s,dram_pages"));
        assert!(lines[0].ends_with("wp_max_ns,pebs_sample_period,pebs_drop_frac_milli"));
        assert_eq!(lines.len(), 3);
        let cols = lines[0].split(',').count();
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols, "ragged row: {row}");
        }
    }

    #[test]
    fn latency_percentile_columns_populate_after_faults() {
        // setup() populates the region, so the fault histogram has data by
        // the first sample; percentiles must be ordered and nonzero.
        let (sim, id) = setup();
        let mut t = Telemetry::new(id, Ns::millis(1));
        t.maybe_sample(&sim);
        let s = t.snapshots()[0];
        assert!(s.fault_p50_ns > 0, "populate faulted pages in");
        assert!(s.fault_p50_ns <= s.fault_p99_ns);
        assert!(s.fault_p99_ns <= s.fault_p999_ns);
        assert!(s.fault_p999_ns <= s.fault_max_ns);
    }

    #[test]
    fn recovery_columns_record_kills() {
        let (mut sim, id) = setup();
        let mut t = Telemetry::new(id, Ns::millis(10));
        t.maybe_sample(&sim);
        sim.inject_manager_kill();
        // Default watchdog is absent on a clean config, so arm recovery
        // by hand: the manager stays down until then.
        sim.advance(Ns::millis(15));
        t.maybe_sample(&sim);
        let snaps = t.snapshots();
        assert_eq!(snaps[0].manager_kills, 0);
        assert_eq!(snaps[1].manager_kills, 1);
        let csv = t.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].contains(
            "manager_kills,journal_replays,journal_rollbacks,\
             swap_rollbacks,watchdog_restarts,audit_violations"
        ));
        // manager_kills..audit_violations occupy columns 12..=17.
        let fields: Vec<&str> = lines[2].split(',').collect();
        assert_eq!(&fields[12..18], &["1", "0", "0", "0", "0", "0"]);
    }

    #[test]
    fn tenant_rows_cover_every_tenant_and_quotas_conserve() {
        use crate::arbiter::ArbiterPolicy;
        let mc = MachineConfig::small(1, 8);
        let hc = HeMemConfig::scaled_for(&mc);
        let mut sim = Sim::new(mc, HeMem::multi_tenant(hc, 2, ArbiterPolicy::StaticShares));
        sim.set_active_tenant(hemem_vmm::TenantId(0));
        let a = sim.mmap(GIB);
        sim.populate(a, true);
        sim.set_active_tenant(hemem_vmm::TenantId(1));
        let b = sim.mmap(GIB);
        sim.populate(b, true);
        let mut t = TenantTelemetry::new(Ns::millis(10));
        assert!(t.maybe_sample(&sim));
        sim.advance(Ns::millis(15));
        assert!(t.maybe_sample(&sim));
        let snaps = t.snapshots();
        assert_eq!(snaps.len(), 4, "two tenants, two periods");
        let total = sim.m.dram_pool.total_pages();
        assert_eq!(snaps[0].quota_pages + snaps[1].quota_pages, total);
        assert!(snaps.iter().all(|s| s.dram_pages + s.nvm_pages > 0));
        let csv = t.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "time_s,tenant,dram_pages,nvm_pages,quota_pages,dram_loads,nvm_loads,pebs_samples"
        );
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn tier_telemetry_reports_three_tier_residency() {
        let mc = MachineConfig::small(1, 2).with_tier3(16 * GIB);
        let hc = HeMemConfig::scaled_for(&mc);
        let mut sim = Sim::new(mc, HeMem::new(hc));
        let id = sim.mmap(4 * GIB); // 1 GiB over DRAM+NVM: spills via reclaim
        sim.populate(id, true);
        let mut t = TierTelemetry::new(id, Ns::millis(10));
        assert!(t.maybe_sample(&sim));
        let s = t.snapshots()[0];
        assert_eq!(s.dram_pages + s.nvm_pages + s.ssd_pages, 2048);
        assert!(s.ssd_pages > 0, "overflow demoted to the SSD tier");
        assert_eq!(s.swapped_pages, 0, "tier-3 pages stay mapped");
        let csv = t.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("time_s,dram_pages,nvm_pages,ssd_pages"));
        assert!(lines[0].ends_with("swap_outs,swap_ins"));
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1].split(',').count(),
            lines[0].split(',').count(),
            "ragged row"
        );
    }

    #[test]
    fn health_rows_cover_every_tier_and_track_lifecycle() {
        use hemem_vmm::Tier;
        let mc = MachineConfig::small(1, 2).with_tier3(16 * GIB);
        let hc = HeMemConfig::scaled_for(&mc);
        let mut sim = Sim::new(mc, HeMem::new(hc));
        let id = sim.mmap(GIB);
        sim.populate(id, true);
        let mut t = HealthTelemetry::new(Ns::millis(10));
        assert!(t.maybe_sample(&sim));
        sim.inject_tier_degrade(Tier::Nvm);
        sim.advance(Ns::millis(15));
        assert!(t.maybe_sample(&sim));
        let snaps = t.snapshots();
        assert_eq!(snaps.len(), 6, "three tiers, two periods");
        let nvm0 = snaps[1];
        let nvm1 = snaps[4];
        assert_eq!(nvm0.tier, Tier::Nvm);
        assert_eq!(nvm0.health, crate::machine::TierHealth::Healthy);
        assert_eq!(nvm0.throttle, 1.0);
        assert_eq!(nvm1.health, crate::machine::TierHealth::Degraded);
        assert!(nvm1.throttle < 1.0);
        assert!(nvm1.health_retired_pages > 0, "degradation shed capacity");
        let csv = t.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "time_s,tier,health,throttle,free_pages,allocated_pages,\
             retired_pages,health_retired_pages,wear_bytes"
        );
        assert_eq!(lines.len(), 7);
        assert!(lines[5].contains("Degraded"));
    }

    #[test]
    fn wear_and_migration_counters_are_monotone() {
        let (mut sim, id) = setup();
        let mut t = Telemetry::new(id, Ns::millis(20));
        for _ in 0..20 {
            sim.advance(Ns::millis(25));
            t.maybe_sample(&sim);
        }
        let snaps = t.snapshots();
        for w in snaps.windows(2) {
            assert!(w[1].migrations >= w[0].migrations);
            assert!(w[1].nvm_wear >= w[0].nvm_wear);
            assert!(w[1].at > w[0].at);
        }
    }
}
