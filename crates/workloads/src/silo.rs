//! Silo-style in-memory transactional database running TPC-C (§5.2.1,
//! Figure 13).
//!
//! Silo (Tu et al., SOSP'13) keeps all tables and indexes in memory and
//! executes serializable transactions with an OCC protocol over a
//! Masstree-like ordered index. TPC-C models a retail operation: most
//! transactions touch a home warehouse, ~1% of new-order items and ~15%
//! of payments go remote. The paper scales the working set by the
//! warehouse count (864 warehouses fill the 192 GB DRAM) and notes the
//! resulting access pattern is "random with little read and write reuse"
//! — there is no stable page-level hot set in the row data, only the
//! index upper levels are hot.
//!
//! The driver replays that trace: index-node walks (hot, cache-friendly
//! upper levels; cold leaf levels), row reads/writes uniform over the
//! home warehouse's rows, remote accesses uniform over all warehouses,
//! and a sequential redo-log append per transaction.

use hemem_core::backend::{AccessBatch, SegmentAccess, TieredBackend};
use hemem_core::runtime::{Event, Sim};
use hemem_memdev::Pattern;
use hemem_sim::Ns;
use hemem_vmm::RegionId;

/// Bytes of row + index data per TPC-C warehouse (sized so the paper's
/// 864-warehouse maximum fills 192 GB of DRAM).
pub const BYTES_PER_WAREHOUSE: u64 = 222 << 20;

/// Fraction of the footprint that is ordered-index nodes.
const INDEX_FRACTION: f64 = 0.12;

/// Silo/TPC-C configuration.
#[derive(Debug, Clone)]
pub struct SiloConfig {
    /// Warehouse count (paper sweeps 16-1728).
    pub warehouses: u32,
    /// Worker threads (paper: 16).
    pub threads: u32,
    /// Measurement duration.
    pub duration: Ns,
    /// Warm-up before measurement.
    pub warmup: Ns,
    /// Transactions per submitted batch per thread.
    pub batch_txns: u64,
}

impl SiloConfig {
    /// Paper setup at a warehouse count.
    pub fn paper(warehouses: u32) -> SiloConfig {
        SiloConfig {
            warehouses,
            threads: 16,
            duration: Ns::secs(10),
            warmup: Ns::secs(5),
            batch_txns: 20_000,
        }
    }

    /// Total working set in bytes.
    pub fn working_set(&self) -> u64 {
        self.warehouses as u64 * BYTES_PER_WAREHOUSE
    }
}

/// Result of a Silo run.
#[derive(Debug, Clone, Copy)]
pub struct SiloResult {
    /// Transactions per second.
    pub tps: f64,
    /// Transactions completed in the measurement phase.
    pub txns: u64,
}

/// The Silo/TPC-C driver.
pub struct Silo {
    cfg: SiloConfig,
    data: RegionId,
    log: RegionId,
    index_pages: u64,
    total_pages: u64,
    page_bytes: u64,
}

impl Silo {
    /// Maps and loads the database.
    pub fn setup<B: TieredBackend>(sim: &mut Sim<B>, cfg: SiloConfig) -> Silo {
        let data = sim.mmap(cfg.working_set());
        // Redo log buffer: small, recycled, write-hot; stays in DRAM under
        // every size-aware policy.
        let log = sim.mmap(256 << 20);
        sim.populate_shuffled(data, true);
        sim.populate(log, true);
        sim.set_app_threads(cfg.threads);
        let r = sim.m.space.region(data);
        let total_pages = r.page_count();
        let page_bytes = r.page_size().bytes();
        let index_pages = ((total_pages as f64 * INDEX_FRACTION) as u64).max(1);
        Silo {
            cfg,
            data,
            log,
            index_pages,
            total_pages,
            page_bytes,
        }
    }

    /// The redo-log region.
    pub fn log_region(&self) -> RegionId {
        self.log
    }

    /// One thread's transaction batch.
    pub(crate) fn batch_for(&self, tid: u32, log_pages: u64) -> (AccessBatch, AccessBatch) {
        let cfg = &self.cfg;
        let txns = cfg.batch_txns;
        // Home-warehouse page span for this thread.
        let rows_lo = self.index_pages;
        let row_pages = self.total_pages - self.index_pages;
        let per = (row_pages / cfg.threads as u64).max(1);
        let home_lo = rows_lo + tid as u64 * per;
        let home_hi = (home_lo + per).min(self.total_pages);
        // Per TPC-C transaction (weighted new-order/payment mix):
        //   ~12 index-node touches, ~14 home-row reads, ~9 home-row
        //   writes, ~0.3 remote-row touches.
        let idx_acc = txns * 12;
        let home_reads = txns * 14;
        let home_writes = txns * 9;
        let remote = txns * 3 / 10;
        let total = idx_acc + home_reads + home_writes + remote;
        let write_frac = home_writes as f64 / total as f64;
        let index_bytes = self.index_pages * self.page_bytes;
        let segments = vec![
            // Index: upper levels are tiny and LLC-resident; the effective
            // footprint competing for cache is the index itself.
            SegmentAccess {
                region: self.data,
                lo_page: 0,
                hi_page: self.index_pages,
                weight: idx_acc as f64 / total as f64,
                llc_footprint: index_bytes,
                write_fraction: None,
            },
            // Home rows: uniform, no reuse.
            SegmentAccess {
                region: self.data,
                lo_page: home_lo,
                hi_page: home_hi,
                weight: (home_reads + home_writes) as f64 / total as f64,
                llc_footprint: cfg.working_set(),
                write_fraction: None,
            },
            // Remote rows: uniform over everything.
            SegmentAccess {
                region: self.data,
                lo_page: rows_lo,
                hi_page: self.total_pages,
                weight: remote as f64 / total as f64,
                llc_footprint: cfg.working_set(),
                write_fraction: None,
            },
        ];
        let data_batch = AccessBatch {
            segments,
            count: total,
            object_size: 64,
            write_fraction: write_frac,
            pattern: Pattern::Random,
            cpu_ns_per_access: 6.0,
            mlp: 3.0,
            sweep: false,
        };
        // Redo log: one ~600 B sequential append per transaction.
        let log_batch = AccessBatch {
            segments: vec![SegmentAccess {
                region: self.log,
                lo_page: 0,
                hi_page: log_pages,
                weight: 1.0,
                llc_footprint: 256 << 20,
                write_fraction: None,
            }],
            count: txns,
            object_size: 600,
            write_fraction: 1.0,
            pattern: Pattern::Sequential,
            cpu_ns_per_access: 1.0,
            mlp: 8.0,
            sweep: false,
        };
        (data_batch, log_batch)
    }

    /// Runs warm-up and measurement; returns throughput.
    pub fn run<B: TieredBackend>(&self, sim: &mut Sim<B>) -> SiloResult {
        let cfg = &self.cfg;
        let log_pages = sim.m.space.region(self.log).page_count();
        // Each thread's round = one data batch + one log batch; the round
        // completes when both ready events have fired.
        for tid in 0..cfg.threads {
            sim.schedule_thread(sim.now(), tid);
        }
        let warm_end = sim.now() + cfg.warmup;
        let t_end = warm_end + cfg.duration;
        // completions[t]: outstanding batch completions before the round
        // ends. Initial kick counts as a completed round of zero txns.
        let mut remaining = vec![1u32; cfg.threads as usize];
        let mut in_round = vec![false; cfg.threads as usize];
        let mut live = cfg.threads;
        let mut txns = 0u64;
        while live > 0 {
            let Some((now, ev)) = sim.step() else { break };
            let Event::ThreadReady(tid) = ev else {
                continue;
            };
            let t = tid as usize;
            remaining[t] = remaining[t].saturating_sub(1);
            if remaining[t] > 0 {
                continue;
            }
            // Round complete.
            if in_round[t] && now > warm_end {
                txns += cfg.batch_txns;
            }
            in_round[t] = false;
            if now >= t_end {
                live -= 1;
                continue;
            }
            let (d, l) = self.batch_for(tid, log_pages);
            sim.submit_batch(tid, &d);
            sim.submit_batch(tid, &l);
            remaining[t] = 2;
            in_round[t] = true;
        }
        let secs = sim.now().saturating_sub(warm_end).as_secs_f64().max(1e-9);
        SiloResult {
            tps: txns as f64 / secs,
            txns,
        }
    }
}

/// Convenience: set up and run Silo/TPC-C on a fresh simulation.
pub fn run_silo<B: TieredBackend>(sim: &mut Sim<B>, cfg: SiloConfig) -> SiloResult {
    let s = Silo::setup(sim, cfg);
    s.run(sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_core::hemem::{HeMem, HeMemConfig};
    use hemem_core::machine::MachineConfig;

    fn quick(warehouses: u32, threads: u32) -> SiloConfig {
        SiloConfig {
            warehouses,
            threads,
            duration: Ns::secs(3),
            warmup: Ns::secs(1),
            batch_txns: 5_000,
        }
    }

    fn hemem_sim(dram_gib: u64, nvm_gib: u64) -> Sim<HeMem> {
        let mc = MachineConfig::small(dram_gib, nvm_gib);
        let hc = HeMemConfig::scaled_for(&mc);
        Sim::new(mc, HeMem::new(hc))
    }

    #[test]
    fn working_set_scales_with_warehouses() {
        assert_eq!(SiloConfig::paper(2).working_set(), 2 * BYTES_PER_WAREHOUSE);
        // The paper's DRAM-capacity knee: 864 warehouses ~ 187 GiB.
        let knee = SiloConfig::paper(864).working_set() >> 30;
        assert!((180..=195).contains(&knee), "864 WH = {knee} GiB");
    }

    #[test]
    fn throughput_positive_and_deterministic() {
        let r1 = run_silo(&mut hemem_sim(2, 8), quick(4, 4));
        let r2 = run_silo(&mut hemem_sim(2, 8), quick(4, 4));
        assert!(r1.tps > 0.0);
        assert_eq!(r1.txns, r2.txns, "same seed, same result");
    }

    #[test]
    fn in_dram_beats_spilled() {
        // 4 warehouses (~0.9 GiB) in a 2 GiB machine vs 12 warehouses
        // (~2.7 GiB) in the same machine: per-transaction cost rises once
        // rows spill to NVM.
        let fit = run_silo(&mut hemem_sim(2, 16), quick(4, 4));
        let spill = run_silo(&mut hemem_sim(2, 16), quick(12, 4));
        assert!(
            fit.tps > 1.2 * spill.tps,
            "fit {} vs spill {}",
            fit.tps,
            spill.tps
        );
    }

    #[test]
    fn log_stays_in_dram() {
        let mut sim = hemem_sim(2, 8);
        let s = Silo::setup(&mut sim, quick(4, 4));
        s.run(&mut sim);
        let log = sim.m.space.region(s.log_region());
        assert_eq!(log.dram_pages(), log.mapped_pages(), "log region in DRAM");
    }
}

#[cfg(test)]
mod growth_tests {
    use super::*;
    use hemem_core::hemem::{HeMem, HeMemConfig};
    use hemem_core::machine::MachineConfig;

    /// §3.3: HeMem tracks the growth of memory regions — a database that
    /// keeps allocating moderately-sized segments is adopted into managed
    /// memory once cumulative growth crosses the threshold.
    #[test]
    fn growing_database_gets_adopted_into_managed_memory() {
        let mc = MachineConfig::small(2, 8);
        let hc = HeMemConfig::scaled_for(&mc);
        let threshold = hc.manage_threshold;
        let mut sim = Sim::new(mc, HeMem::new(hc));
        // Simulate a database growing via 8 MiB segment allocations.
        let seg = 8 << 20;
        let mut adopted_at = None;
        for i in 0..64u64 {
            let id = sim.mmap(seg);
            let kind = sim.m.space.region(id).kind();
            if kind == hemem_vmm::RegionKind::ManagedHeap && adopted_at.is_none() {
                adopted_at = Some(i);
            }
        }
        let adopted = adopted_at.expect("growth crossed the manage threshold");
        assert!(
            adopted * seg >= threshold.saturating_sub(seg),
            "adoption near the threshold: segment {adopted}"
        );
        assert!(adopted > 0, "first small allocation must be forwarded");
    }
}
