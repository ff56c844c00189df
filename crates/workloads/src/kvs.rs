//! FlexKVS-style key-value store (§5.2.2, Tables 3 and 4).
//!
//! FlexKVS is Memcached-compatible but uses a segmented log for items
//! (reducing synchronization: SETs append sequentially) and a block-chain
//! hash table (minimizing cache-coherence traffic on lookup). The paper's
//! client mix: 4 KB values, 90% GET / 10% SET, 20% of keys hot and
//! receiving 90% of the traffic.
//!
//! The driver replays that trace over two regions — the item log (large,
//! skewed) and the hash table (small, uniformly hot) — and samples per-
//! operation latency from the live machine state (tier residency, device
//! queue depths) into an HDR histogram for the percentile columns of
//! Tables 3-4. The priority experiment runs two instances; under HeMem
//! the high-priority instance's regions are pinned to DRAM.

use hemem_core::backend::{AccessBatch, SegmentAccess, TieredBackend};
use hemem_core::runtime::{Event, Sim};
use hemem_memdev::{MemOp, Pattern};
use hemem_sim::{Histogram, Ns};
use hemem_vmm::{RegionId, Tier};

/// KVS configuration.
#[derive(Debug, Clone)]
pub struct KvsConfig {
    /// Aggregate value bytes (the paper sweeps 16 GB / 128 GB / 700 GB).
    pub working_set: u64,
    /// Value size (paper: 4 KB).
    pub value_size: u32,
    /// Server worker threads (paper: 8).
    pub threads: u32,
    /// GET fraction (paper: 0.9).
    pub get_ratio: f64,
    /// Fraction of keys that are hot (paper: 0.2); 0 disables skew.
    pub hot_keys: f64,
    /// Fraction of traffic the hot keys receive (paper: 0.9).
    pub hot_traffic: f64,
    /// Offered load as a fraction of saturation; <1 models the paper's
    /// 30%-load latency measurement.
    pub load: f64,
    /// Measurement duration.
    pub duration: Ns,
    /// Warm-up.
    pub warmup: Ns,
    /// Operations per batch per thread.
    pub batch_ops: u64,
    /// Latency probes sampled per batch.
    pub probes_per_batch: u32,
}

impl KvsConfig {
    /// Paper setup at a working-set size.
    pub fn paper(working_set: u64) -> KvsConfig {
        KvsConfig {
            working_set,
            value_size: 4096,
            threads: 8,
            get_ratio: 0.9,
            hot_keys: 0.2,
            hot_traffic: 0.9,
            load: 1.0,
            duration: Ns::secs(10),
            warmup: Ns::secs(5),
            batch_ops: 50_000,
            probes_per_batch: 32,
        }
    }
}

/// KVS run result.
#[derive(Debug, Clone)]
pub struct KvsResult {
    /// Operations per second (Mops in Table 3 = this / 1e6).
    pub ops_per_sec: f64,
    /// Operations completed during measurement.
    pub ops: u64,
    /// Per-operation latency histogram (nanoseconds).
    pub latency: Histogram,
}

impl KvsResult {
    /// Latency percentile in microseconds (Table 3/4 rows).
    pub fn latency_us(&self, quantile: f64) -> f64 {
        self.latency.quantile(quantile) as f64 / 1_000.0
    }
}

/// The FlexKVS driver (one server instance).
pub struct Kvs {
    cfg: KvsConfig,
    log: RegionId,
    table: RegionId,
    hot_pages: u64,
    log_pages: u64,
    table_pages: u64,
}

impl Kvs {
    /// Maps and loads the store.
    pub fn setup<B: TieredBackend>(sim: &mut Sim<B>, cfg: KvsConfig) -> Kvs {
        let log = sim.mmap(cfg.working_set);
        // Hash table: one 16 B bucket head + chain entry per value.
        let table_bytes = (cfg.working_set / cfg.value_size as u64) * 16;
        let table = sim.mmap(table_bytes.max(1 << 20));
        sim.populate_shuffled(log, true);
        sim.populate(table, true);
        let log_pages = sim.m.space.region(log).page_count();
        let table_pages = sim.m.space.region(table).page_count();
        let hot_pages = ((log_pages as f64 * cfg.hot_keys) as u64).clamp(1, log_pages);
        Kvs {
            cfg,
            log,
            table,
            hot_pages,
            log_pages,
            table_pages,
        }
    }

    /// The item-log region.
    pub fn log_region(&self) -> RegionId {
        self.log
    }

    /// The configuration in effect.
    pub fn config(&self) -> &KvsConfig {
        &self.cfg
    }

    /// Both batches of one server round (value traffic, hash traffic) —
    /// public so multi-instance experiments (Table 4) can drive several
    /// stores from one loop.
    pub fn batches(&self) -> (AccessBatch, AccessBatch) {
        (self.value_batch(), self.table_batch())
    }

    /// Value traffic batch: GETs read values (hot-skewed); SETs append
    /// (sequential writes into the hot portion — freshly written keys are
    /// the hot ones in a segmented log).
    fn value_batch(&self) -> AccessBatch {
        let cfg = &self.cfg;
        let hot_w = if cfg.hot_keys > 0.0 {
            cfg.hot_traffic
        } else {
            0.0
        };
        let mut segments = Vec::with_capacity(2);
        if hot_w > 0.0 {
            segments.push(SegmentAccess {
                region: self.log,
                lo_page: 0,
                hi_page: self.hot_pages,
                weight: hot_w,
                llc_footprint: (cfg.working_set as f64 * cfg.hot_keys) as u64,
                write_fraction: None,
            });
        }
        segments.push(SegmentAccess {
            region: self.log,
            lo_page: if hot_w > 0.0 { self.hot_pages } else { 0 },
            hi_page: self.log_pages,
            weight: 1.0 - hot_w,
            llc_footprint: cfg.working_set,
            write_fraction: None,
        });
        AccessBatch {
            segments,
            count: cfg.batch_ops,
            object_size: cfg.value_size,
            write_fraction: 1.0 - cfg.get_ratio,
            pattern: Pattern::Random,
            // Pace each server thread so that aggregate offered value
            // traffic is `load` x the DRAM random-read service rate
            // (~146 ns per 4 KB value): at load=1 the store saturates
            // whichever device holds the values; at 0.3 queues stay short.
            cpu_ns_per_access: 146.0 * cfg.threads as f64 / cfg.load.max(0.05),
            mlp: 2.0,
            sweep: false,
        }
    }

    /// Hash-table traffic: ~1.5 bucket probes per op, uniformly hot.
    fn table_batch(&self) -> AccessBatch {
        let cfg = &self.cfg;
        AccessBatch {
            segments: vec![SegmentAccess {
                region: self.table,
                lo_page: 0,
                hi_page: self.table_pages,
                weight: 1.0,
                llc_footprint: self.table_pages * (2 << 20),
                write_fraction: None,
            }],
            count: cfg.batch_ops * 3 / 2,
            object_size: 16,
            write_fraction: 1.0 - cfg.get_ratio,
            pattern: Pattern::Random,
            cpu_ns_per_access: 5.0,
            mlp: 2.0,
            sweep: false,
        }
    }

    /// Samples one operation's latency from live machine state: hash
    /// probe plus value access, each resolved through LLC / DRAM / NVM.
    /// Queueing is modelled from recent device utilization (M/M/1 waiting
    /// on top of the base service latency) rather than raw batch backlog,
    /// which would charge an op the entire in-flight bulk window. Public
    /// so multi-instance experiments (Table 4) can probe each store.
    pub fn probe_latency<B: TieredBackend>(
        &self,
        sim: &mut Sim<B>,
        is_get: bool,
        rho: &TierRho,
    ) -> Ns {
        let mut total = Ns::nanos(1_500); // request parsing/NIC handoff
                                          // Hash probe: the table is small; mostly LLC.
        let table_bytes = self.table_pages * (2 << 20);
        let table_hit = sim.m.llc.hit_fraction(table_bytes);
        total += if sim.m.rng.bernoulli(table_hit) {
            sim.m.llc.hit_latency()
        } else {
            self.tier_latency(sim, self.table, 0, self.table_pages, MemOp::Read, rho)
        };
        // Value access: pick hot/cold segment per the traffic skew.
        let hot = self.cfg.hot_keys > 0.0 && sim.m.rng.bernoulli(self.cfg.hot_traffic);
        let (lo, hi) = if hot {
            (0, self.hot_pages)
        } else {
            (self.hot_pages, self.log_pages)
        };
        let op = if is_get { MemOp::Read } else { MemOp::Write };
        // A 4 KB value crosses several cache lines: charge the device
        // latency once plus a transfer-time tail per extra line batch.
        let first = self.tier_latency(sim, self.log, lo, hi, op, rho);
        total += first + Ns::nanos(self.cfg.value_size as u64 / 16);
        total
    }

    fn tier_latency<B: TieredBackend>(
        &self,
        sim: &mut Sim<B>,
        region: RegionId,
        lo: u64,
        hi: u64,
        op: MemOp,
        rho: &TierRho,
    ) -> Ns {
        let r = sim.m.space.region(region);
        let mapped = r.mapped_pages_in(lo, hi).max(1);
        let dram = r.dram_pages_in(lo, hi);
        let tier = if sim.m.rng.bernoulli(dram as f64 / mapped as f64) {
            Tier::Dram
        } else {
            Tier::Nvm
        };
        let service = sim.m.device(tier).latency(op);
        let u = rho.get(tier).min(0.98);
        // Exponential service-time jitter plus M/M/1 queueing.
        let jitter = Ns::from_nanos_f64(sim.m.rng.exponential(service.as_nanos() as f64 * 0.3));
        let wait =
            Ns::from_nanos_f64(service.as_nanos() as f64 * u / (1.0 - u)).min(Ns::micros(60));
        service + jitter + wait
    }

    /// Runs the instance; returns throughput and latency.
    pub fn run<B: TieredBackend>(&self, sim: &mut Sim<B>) -> KvsResult {
        let cfg = &self.cfg;
        sim.set_app_threads(cfg.threads);
        for tid in 0..cfg.threads {
            sim.schedule_thread(sim.now(), tid);
        }
        let warm_end = sim.now() + cfg.warmup;
        let t_end = warm_end + cfg.duration;
        let mut remaining = vec![1u32; cfg.threads as usize];
        let mut in_round = vec![false; cfg.threads as usize];
        let mut live = cfg.threads;
        let mut ops = 0u64;
        let mut latency = Histogram::new();
        let mut rho = TierRho::default();
        let mut last_busy = (sim.m.dram.stats().busy, sim.m.nvm.stats().busy, sim.now());
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
            if in_round[t] && now > warm_end {
                ops += cfg.batch_ops;
            }
            in_round[t] = false;
            // Refresh the utilization window every few milliseconds.
            rho.refresh(sim, &mut last_busy);
            if now >= t_end {
                live -= 1;
                continue;
            }
            // Latency probes against current machine state.
            if now > warm_end {
                for _ in 0..cfg.probes_per_batch {
                    let is_get = sim.m.rng.bernoulli(cfg.get_ratio);
                    let l = self.probe_latency(sim, is_get, &rho);
                    latency.record_ns(l);
                }
            }
            let v = self.value_batch();
            let h = self.table_batch();
            sim.submit_batch(tid, &v);
            sim.submit_batch(tid, &h);
            remaining[t] = 2;
            in_round[t] = true;
        }
        let secs = sim.now().saturating_sub(warm_end).as_secs_f64().max(1e-9);
        KvsResult {
            ops_per_sec: ops as f64 / secs,
            ops,
            latency,
        }
    }
}

/// Recent utilization of each tier's device (queueing estimate input).
#[derive(Debug, Clone, Copy, Default)]
pub struct TierRho {
    /// DRAM utilization in [0, 1].
    pub dram: f64,
    /// NVM utilization in [0, 1].
    pub nvm: f64,
}

impl TierRho {
    fn get(&self, tier: Tier) -> f64 {
        match tier {
            Tier::Dram => self.dram,
            Tier::Nvm => self.nvm,
            // KVS values never live on the block tier; an SSD-resident
            // page contributes a major fault, not device utilization.
            Tier::Ssd => 0.0,
        }
    }

    /// Measures utilization over the window since `last` and updates it.
    /// `last` is `(dram busy, nvm busy, time)` from the previous call.
    pub fn refresh<B: TieredBackend>(&mut self, sim: &Sim<B>, last: &mut (Ns, Ns, Ns)) {
        let now = sim.now();
        let dt = now.saturating_sub(last.2);
        if dt <= Ns::millis(5) {
            return;
        }
        let d = sim.m.dram.stats().busy.saturating_sub(last.0);
        let n = sim.m.nvm.stats().busy.saturating_sub(last.1);
        let span = dt.as_nanos() as f64;
        self.dram = (d.as_nanos() as f64 / span).min(1.0);
        self.nvm = (n.as_nanos() as f64 / span).min(1.0);
        *last = (sim.m.dram.stats().busy, sim.m.nvm.stats().busy, now);
    }
}

/// Convenience: set up and run one KVS instance.
pub fn run_kvs<B: TieredBackend>(sim: &mut Sim<B>, cfg: KvsConfig) -> KvsResult {
    let k = Kvs::setup(sim, cfg);
    k.run(sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_core::hemem::{HeMem, HeMemConfig};
    use hemem_core::machine::MachineConfig;
    use hemem_memdev::GIB;

    fn quick(ws: u64) -> KvsConfig {
        let mut c = KvsConfig::paper(ws);
        c.threads = 4;
        c.warmup = Ns::secs(2);
        c.duration = Ns::secs(3);
        c
    }

    fn hemem_sim(dram_gib: u64, nvm_gib: u64) -> Sim<HeMem> {
        let mc = MachineConfig::small(dram_gib, nvm_gib);
        let hc = HeMemConfig::scaled_for(&mc);
        Sim::new(mc, HeMem::new(hc))
    }

    #[test]
    fn fits_in_dram_all_dram_latency() {
        // Latency is measured at 30% load, like the paper's Table 3 runs.
        let mut sim = hemem_sim(4, 16);
        let mut cfg = quick(GIB);
        cfg.load = 0.3;
        let res = run_kvs(&mut sim, cfg);
        assert!(res.ops_per_sec > 0.0);
        // Median latency must be DRAM-class (well under NVM read latency
        // plus queueing).
        let p50 = res.latency_us(0.5);
        assert!(p50 < 8.0, "median {p50}us");
    }

    #[test]
    fn oversized_store_converges_hot_values_to_dram() {
        let mut sim = hemem_sim(1, 16);
        let cfg = quick(4 * GIB);
        let k = Kvs::setup(&mut sim, cfg);
        let res = k.run(&mut sim);
        let r = sim.m.space.region(k.log_region());
        let hot_dram = r.dram_pages_in(0, k.hot_pages);
        let frac = hot_dram as f64 / k.hot_pages as f64;
        assert!(frac > 0.5, "hot value pages in DRAM: {frac:.2}");
        assert!(res.ops > 0);
    }

    #[test]
    fn tail_latency_orders_percentiles() {
        let mut sim = hemem_sim(1, 16);
        let mut cfg = quick(4 * GIB);
        cfg.load = 0.3;
        let res = run_kvs(&mut sim, cfg);
        let p50 = res.latency_us(0.5);
        let p90 = res.latency_us(0.9);
        let p999 = res.latency_us(0.999);
        assert!(p50 <= p90 && p90 <= p999, "{p50} {p90} {p999}");
        assert!(res.latency.count() > 1_000);
    }

    #[test]
    fn pinned_priority_instance_stays_in_dram() {
        // Table 4: the priority instance's regions are pinned; a larger
        // regular instance shares the remaining tiered memory.
        let mc = MachineConfig::small(2, 16);
        let hc = HeMemConfig::scaled_for(&mc);
        let mut sim = Sim::new(mc, HeMem::new(hc));
        sim.backend.set_priority(true);
        let prio = Kvs::setup(&mut sim, quick(GIB / 2));
        sim.backend.set_priority(false);
        let regular = Kvs::setup(&mut sim, quick(6 * GIB));
        let _ = regular.run(&mut sim);
        let pr = sim.m.space.region(prio.log_region());
        assert_eq!(
            pr.dram_pages(),
            pr.mapped_pages(),
            "priority log pinned to DRAM"
        );
        let rr = sim.m.space.region(regular.log_region());
        assert!(
            rr.dram_pages() < rr.mapped_pages(),
            "regular instance is tiered"
        );
    }
}
