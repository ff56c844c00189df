//! Time-series telemetry over a running simulation.
//!
//! Experiments like Figure 9 (instantaneous throughput) and Figure 16
//! (per-iteration wear) need the machine's state sampled over virtual
//! time. One sampler, [`Telemetry`], does that for every telemetry CSV:
//! call [`Telemetry::maybe_sample`] whenever convenient — the first call
//! samples, then it records once per elapsed period. What a sample holds
//! is set by its row kind: [`RegionRows`], [`TierRows`], [`TenantRows`]
//! or [`HealthRows`]. Each kind declares one column list, and each
//! [`Column`] names its header and reads its cell, so a CSV's header and
//! its rows come from the same list.

use hemem_sim::{LatencyClass, Ns};
use hemem_vmm::{RegionId, TenantId, Tier};

use crate::backend::TieredBackend;
use crate::hemem::HeMem;
use crate::machine::MachineCore;
use crate::runtime::Sim;

/// One CSV column: its header name and how to render its cell for the row
/// keyed `K`, read from `S`.
pub type Column<S, K> = (&'static str, fn(&S, K) -> String);

/// What a [`Telemetry`] sampler records each period.
pub trait RowKind {
    /// What the cells read: the machine, or the whole simulation when a
    /// column needs the backend.
    type Source: 'static;
    /// What one row of an instant describes (a region, tenant or tier).
    type Key: Copy + 'static;
    /// The columns after `time_s`, in CSV order.
    const COLUMNS: &'static [Column<Self::Source, Self::Key>];
    /// The keys of one instant's rows, in CSV order.
    fn keys(&self, src: &Self::Source) -> Vec<Self::Key>;
}

/// A row kind's [`RowKind::Source`], taken out of a `Sim<B>`.
pub trait SourceIn<B: TieredBackend> {
    /// The source inside `sim`.
    fn of(sim: &Sim<B>) -> &Self;
}

impl<B: TieredBackend> SourceIn<B> for MachineCore {
    fn of(sim: &Sim<B>) -> &MachineCore {
        &sim.m
    }
}

impl SourceIn<HeMem> for Sim<HeMem> {
    fn of(sim: &Sim<HeMem>) -> &Sim<HeMem> {
        sim
    }
}

/// Periodic sampler of one row kind.
#[derive(Debug, Clone)]
pub struct Telemetry<K> {
    kind: K,
    period: Ns,
    next_at: Ns,
    rows: Vec<String>,
}

impl<K: RowKind> Telemetry<K> {
    /// Creates a sampler of `kind` rows with the given period.
    pub fn new(kind: K, period: Ns) -> Telemetry<K> {
        assert!(period > Ns::ZERO, "period must be positive");
        Telemetry {
            kind,
            period,
            next_at: Ns::ZERO,
            rows: Vec::new(),
        }
    }

    /// Records one row per key if at least one period elapsed since the
    /// last sample. Returns `true` if rows were taken.
    pub fn maybe_sample<B: TieredBackend>(&mut self, sim: &Sim<B>) -> bool
    where
        K::Source: SourceIn<B>,
    {
        let now = sim.now();
        if now < self.next_at {
            return false;
        }
        self.next_at = now + self.period;
        let src = K::Source::of(sim);
        for key in self.kind.keys(src) {
            let mut row = format!("{:.3}", now.as_secs_f64());
            for (_, cell) in K::COLUMNS {
                row.push(',');
                row.push_str(&cell(src, key));
            }
            self.rows.push(row);
        }
        true
    }

    /// Renders the header and every row taken so far as CSV.
    pub fn csv(&self) -> String {
        let mut out = String::from("time_s");
        for (name, _) in K::COLUMNS {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(row);
            out.push('\n');
        }
        out
    }
}

/// A column list: each `"name" => |source, key| cell` renders its cell
/// with `Display`.
macro_rules! columns {
    ($($name:literal => |$s:pat_param, $k:pat_param| $cell:expr),* $(,)?) => {
        &[$(($name, |$s, $k| $cell.to_string())),*]
    };
}

/// One row per sample for one region: its residency, the machine's
/// migration, wear and op counters, the fault-injection and
/// crash-recovery counters, cumulative latency percentiles (ns, zero
/// until the first event) for migrations (prepare to mapping flip), page
/// faults and write-protection stalls, and the PEBS controller's state.
#[derive(Debug, Clone, Copy)]
pub struct RegionRows(pub RegionId);

impl RowKind for RegionRows {
    type Source = MachineCore;
    type Key = RegionId;
    const COLUMNS: &'static [Column<MachineCore, RegionId>] = columns![
        "dram_pages" => |m, r| m.space.region(r).dram_pages(),
        "mapped_pages" => |m, r| m.space.region(r).mapped_pages(),
        // Pinned 0: no page leaves the tiers unmapped any more; the column
        // stays so committed CSVs remain byte-identical.
        "swapped_pages" => |_, _| 0,
        "migrations" => |m, _| m.stats.migrations_done,
        "nvm_wear" => |m, _| m.nvm_wear_bytes(),
        "ops" => |m, _| m.stats.ops,
        "wp_stalls" => |m, _| m.stats.wp_stalls,
        "faults_injected" => |m, _| m.chaos.stats().total(),
        "dma_fallbacks" => |m, _| m.stats.dma_fallbacks,
        "migrations_failed" => |m, _| m.stats.migrations_failed,
        "pages_retired" => |m, _| m.stats.pages_retired,
        "manager_kills" => |m, _| m.recovery.manager_kills,
        "journal_replays" => |m, _| m.recovery.journal_replays,
        "journal_rollbacks" => |m, _| m.recovery.journal_rollbacks,
        // Pinned 0 like `RecoveryStats::swap_rollbacks`.
        "swap_rollbacks" => |_, _| 0,
        "watchdog_restarts" => |m, _| m.recovery.watchdog_restarts,
        "audit_violations" => |m, _| m.recovery.audit_violations,
        "mig_p50_ns" => |m, _| m.trace.hist(LatencyClass::Migration).quantile(0.5),
        "mig_p99_ns" => |m, _| m.trace.hist(LatencyClass::Migration).quantile(0.99),
        "mig_p999_ns" => |m, _| m.trace.hist(LatencyClass::Migration).quantile(0.999),
        "mig_max_ns" => |m, _| m.trace.hist(LatencyClass::Migration).max(),
        "fault_p50_ns" => |m, _| m.trace.hist(LatencyClass::Fault).quantile(0.5),
        "fault_p99_ns" => |m, _| m.trace.hist(LatencyClass::Fault).quantile(0.99),
        "fault_p999_ns" => |m, _| m.trace.hist(LatencyClass::Fault).quantile(0.999),
        "fault_max_ns" => |m, _| m.trace.hist(LatencyClass::Fault).max(),
        "wp_p50_ns" => |m, _| m.trace.hist(LatencyClass::WpStall).quantile(0.5),
        "wp_p99_ns" => |m, _| m.trace.hist(LatencyClass::WpStall).quantile(0.99),
        "wp_p999_ns" => |m, _| m.trace.hist(LatencyClass::WpStall).quantile(0.999),
        "wp_max_ns" => |m, _| m.trace.hist(LatencyClass::WpStall).max(),
        "pebs_sample_period" => |m, _| m.pebs.sample_period(),
        // Thousandths of generated records dropped; 0 before the first.
        "pebs_drop_frac_milli" => |m, _| {
            let p = m.pebs.stats();
            (p.dropped * 1_000).checked_div(p.generated).unwrap_or(0)
        },
    ];

    fn keys(&self, _: &MachineCore) -> Vec<RegionId> {
        vec![self.0]
    }
}

/// One row per sample for one region on an N-tier machine: per-tier
/// residency (SSD zero on two tiers), major faults (accesses that stalled
/// behind the SSD queue) with their latency percentiles, and the
/// machine's synchronous demotions onto and promotions off the slowest
/// tier.
#[derive(Debug, Clone, Copy)]
pub struct TierRows(pub RegionId);

impl RowKind for TierRows {
    type Source = MachineCore;
    type Key = RegionId;
    const COLUMNS: &'static [Column<MachineCore, RegionId>] = columns![
        "dram_pages" => |m, r| m.space.region(r).dram_pages(),
        "nvm_pages" => |m, r| m.space.region(r).nvm_pages(),
        "ssd_pages" => |m, r| m.space.region(r).ssd_pages(),
        // Pinned 0 like `RegionRows`' column of the same name.
        "swapped_pages" => |_, _| 0,
        "major_faults" => |m, _| m.trace.hist(LatencyClass::MajorFault).count(),
        "major_p50_ns" => |m, _| m.trace.hist(LatencyClass::MajorFault).quantile(0.5),
        "major_p99_ns" => |m, _| m.trace.hist(LatencyClass::MajorFault).quantile(0.99),
        "major_p999_ns" => |m, _| m.trace.hist(LatencyClass::MajorFault).quantile(0.999),
        "swap_outs" => |m, _| m.stats.swap_outs,
        "swap_ins" => |m, _| m.stats.swap_ins,
    ];

    fn keys(&self, _: &MachineCore) -> Vec<RegionId> {
        vec![self.0]
    }
}

/// One row per tenant per sample (long format, tenants ascending): the
/// tenant's residency across its managed regions, its DRAM quota (the
/// whole tier without an arbiter), and its cumulative PEBS load samples
/// and samples applied to its tracker.
#[derive(Debug, Clone, Copy)]
pub struct TenantRows;

impl RowKind for TenantRows {
    type Source = Sim<HeMem>;
    type Key = TenantId;
    const COLUMNS: &'static [Column<Sim<HeMem>, TenantId>] = columns![
        "tenant" => |_, t| t.0,
        "dram_pages" => |s, t| s.m.space.tenant_frames(t).dram_pages,
        "nvm_pages" => |s, t| s.m.space.tenant_frames(t).nvm_pages,
        "quota_pages" => |s, t| {
            let quota = s.backend.arbiter().map(|a| a.quota_pages(t));
            quota.unwrap_or_else(|| s.m.pool(Tier::Dram).total_pages())
        },
        "dram_loads" => |s, t| s.backend.tenant_loads(t).0,
        "nvm_loads" => |s, t| s.backend.tenant_loads(t).1,
        "pebs_samples" => |s, t| s.backend.tenant_samples(t),
    ];

    fn keys(&self, sim: &Sim<HeMem>) -> Vec<TenantId> {
        (0..sim.backend.tenant_count() as u32)
            .map(TenantId)
            .collect()
    }
}

/// One row per tier per sample (long format, fastest tier first) under
/// the failure lifecycle: health state, the bandwidth multiplier applied
/// to the device (1.00 when healthy), the pool's free, allocated,
/// media-retired and degradation-retired pages, and cumulative media wear
/// (NVM only; zero elsewhere).
#[derive(Debug, Clone, Copy)]
pub struct HealthRows;

impl RowKind for HealthRows {
    type Source = MachineCore;
    type Key = Tier;
    const COLUMNS: &'static [Column<MachineCore, Tier>] = columns![
        "tier" => |_, t| format!("{t:?}"),
        "health" => |m, t| format!("{:?}", m.tier_health(t)),
        "throttle" => |m, t| {
            let throttle = match t {
                Tier::Ssd => m.ssd.as_ref().map(|s| s.throttle()).unwrap_or(1.0),
                _ => m.device(t).throttle(),
            };
            format!("{throttle:.2}")
        },
        "free_pages" => |m, t| m.pool(t).free_pages(),
        "allocated_pages" => |m, t| m.pool(t).allocated_pages(),
        "retired_pages" => |m, t| m.pool(t).retired_pages(),
        "health_retired_pages" => |m, t| m.pool(t).health_retired_pages(),
        "wear_bytes" => |m, t| if t == Tier::Nvm { m.nvm_wear_bytes() } else { 0 },
    ];

    fn keys(&self, m: &MachineCore) -> Vec<Tier> {
        m.tiers().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AccessBatch;
    use crate::hemem::HeMemConfig;
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

    /// Column `name` of a rendered CSV, one cell per row.
    fn column(csv: &str, name: &str) -> Vec<String> {
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().expect("header").split(',').collect();
        let i = header.iter().position(|&h| h == name).expect("column");
        lines
            .map(|l| l.split(',').nth(i).expect("cell").to_string())
            .collect()
    }

    /// Column `name` parsed as integers.
    fn ints(csv: &str, name: &str) -> Vec<u64> {
        column(csv, name)
            .iter()
            .map(|c| c.parse().expect("integer cell"))
            .collect()
    }

    #[test]
    fn samples_on_period_boundaries_only() {
        let (mut sim, id) = setup();
        let mut t = Telemetry::new(RegionRows(id), Ns::millis(100));
        assert!(t.maybe_sample(&sim), "first call samples");
        assert!(!t.maybe_sample(&sim), "no time passed");
        sim.advance(Ns::millis(150));
        assert!(t.maybe_sample(&sim));
        assert_eq!(column(&t.csv(), "time_s").len(), 2);
    }

    #[test]
    fn ops_column_reflects_workload_progress() {
        let (mut sim, id) = setup();
        let mut t = Telemetry::new(RegionRows(id), Ns::millis(10));
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
        let csv = t.csv();
        let ops = ints(&csv, "ops");
        assert!(ops.len() > 1 && ops.last() > ops.first());
        let dram = *ints(&csv, "dram_pages").last().expect("rows");
        assert!(dram > 0 && dram <= *ints(&csv, "mapped_pages").last().expect("rows"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let (mut sim, id) = setup();
        let mut t = Telemetry::new(RegionRows(id), Ns::millis(50));
        t.maybe_sample(&sim);
        sim.advance(Ns::millis(60));
        t.maybe_sample(&sim);
        let csv = t.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("time_s,dram_pages"));
        assert!(lines[0].ends_with("wp_max_ns,pebs_sample_period,pebs_drop_frac_milli"));
        assert_eq!(lines.len(), 3);
        let cols = lines[0].split(',').count();
        assert_eq!(cols, 32);
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols, "ragged row: {row}");
        }
    }

    #[test]
    fn latency_percentile_columns_populate_after_faults() {
        // setup() populates the region, so the fault histogram has data by
        // the first sample; percentiles must be ordered and nonzero.
        let (sim, id) = setup();
        let mut t = Telemetry::new(RegionRows(id), Ns::millis(1));
        t.maybe_sample(&sim);
        let csv = t.csv();
        let p = [
            "fault_p50_ns",
            "fault_p99_ns",
            "fault_p999_ns",
            "fault_max_ns",
        ]
        .map(|c| ints(&csv, c)[0]);
        assert!(p[0] > 0, "populate faulted pages in");
        assert!(p.windows(2).all(|w| w[0] <= w[1]), "{p:?}");
    }

    #[test]
    fn recovery_columns_record_kills() {
        let (mut sim, id) = setup();
        let mut t = Telemetry::new(RegionRows(id), Ns::millis(10));
        t.maybe_sample(&sim);
        sim.inject_manager_kill();
        // Default watchdog is absent on a clean config, so arm recovery
        // by hand: the manager stays down until then.
        sim.advance(Ns::millis(15));
        t.maybe_sample(&sim);
        let csv = t.csv();
        assert_eq!(ints(&csv, "manager_kills"), [0, 1]);
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
        sim.set_active_tenant(TenantId(0));
        let a = sim.mmap(GIB);
        sim.populate(a, true);
        sim.set_active_tenant(TenantId(1));
        let b = sim.mmap(GIB);
        sim.populate(b, true);
        let mut t = Telemetry::new(TenantRows, Ns::millis(10));
        assert!(t.maybe_sample(&sim));
        sim.advance(Ns::millis(15));
        assert!(t.maybe_sample(&sim));
        let csv = t.csv();
        assert_eq!(
            ints(&csv, "tenant"),
            [0, 1, 0, 1],
            "two tenants, two periods"
        );
        let quota = ints(&csv, "quota_pages");
        assert_eq!(quota[0] + quota[1], sim.m.pool(Tier::Dram).total_pages());
        let (dram, nvm) = (ints(&csv, "dram_pages"), ints(&csv, "nvm_pages"));
        assert!(dram.iter().zip(&nvm).all(|(d, n)| d + n > 0));
        assert_eq!(
            csv.lines().next(),
            Some(
                "time_s,tenant,dram_pages,nvm_pages,quota_pages,dram_loads,nvm_loads,pebs_samples"
            )
        );
    }

    #[test]
    fn tier_rows_report_three_tier_residency() {
        let mc = MachineConfig::small(1, 2).with_tier3(16 * GIB);
        let hc = HeMemConfig::scaled_for(&mc);
        let mut sim = Sim::new(mc, HeMem::new(hc));
        let id = sim.mmap(4 * GIB); // 1 GiB over DRAM+NVM: spills via reclaim
        sim.populate(id, true);
        let mut t = Telemetry::new(TierRows(id), Ns::millis(10));
        assert!(t.maybe_sample(&sim));
        let csv = t.csv();
        let [dram, nvm, ssd] = ["dram_pages", "nvm_pages", "ssd_pages"].map(|c| ints(&csv, c)[0]);
        assert_eq!(dram + nvm + ssd, 2048);
        assert!(ssd > 0, "overflow demoted to the SSD tier");
        assert_eq!(ints(&csv, "swapped_pages"), [0], "tier-3 pages stay mapped");
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("time_s,dram_pages,nvm_pages,ssd_pages"));
        assert!(lines[0].ends_with("swap_outs,swap_ins"));
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn health_rows_cover_every_tier_and_track_lifecycle() {
        let mc = MachineConfig::small(1, 2).with_tier3(16 * GIB);
        let hc = HeMemConfig::scaled_for(&mc);
        let mut sim = Sim::new(mc, HeMem::new(hc));
        let id = sim.mmap(GIB);
        sim.populate(id, true);
        let mut t = Telemetry::new(HealthRows, Ns::millis(10));
        assert!(t.maybe_sample(&sim));
        sim.inject_tier_degrade(Tier::Nvm);
        sim.advance(Ns::millis(15));
        assert!(t.maybe_sample(&sim));
        let csv = t.csv();
        assert_eq!(
            column(&csv, "tier"),
            ["Dram", "Nvm", "Ssd", "Dram", "Nvm", "Ssd"],
            "three tiers, two periods"
        );
        let (health, throttle) = (column(&csv, "health"), column(&csv, "throttle"));
        assert_eq!(
            (health[1].as_str(), throttle[1].as_str()),
            ("Healthy", "1.00")
        );
        assert_eq!(health[4], "Degraded");
        assert!(throttle[4].parse::<f64>().expect("throttle") < 1.0);
        assert!(
            ints(&csv, "health_retired_pages")[4] > 0,
            "degradation shed capacity"
        );
        assert_eq!(
            csv.lines().next(),
            Some(
                "time_s,tier,health,throttle,free_pages,allocated_pages,\
                 retired_pages,health_retired_pages,wear_bytes"
            )
        );
    }

    #[test]
    fn wear_and_migration_counters_are_monotone() {
        let (mut sim, id) = setup();
        let mut t = Telemetry::new(RegionRows(id), Ns::millis(20));
        for _ in 0..20 {
            sim.advance(Ns::millis(25));
            t.maybe_sample(&sim);
        }
        let csv = t.csv();
        for c in ["migrations", "nvm_wear"] {
            assert!(ints(&csv, c).windows(2).all(|w| w[1] >= w[0]), "{c}");
        }
        let at: Vec<f64> = column(&csv, "time_s")
            .iter()
            .map(|c| c.parse().expect("time"))
            .collect();
        assert!(at.windows(2).all(|w| w[1] > w[0]));
    }
}
