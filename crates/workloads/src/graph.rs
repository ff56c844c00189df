//! GAP betweenness centrality on Kronecker power-law graphs (§5.2.3,
//! Figures 14-16).
//!
//! The GAP benchmark generates a Kronecker (RMAT) graph with average
//! degree 16 and runs 15 iterations of Brandes-style betweenness
//! centrality from random sources. Two properties drive tiered-memory
//! behaviour:
//!
//! - **Power-law locality**: vertex traversal frequency grows with
//!   degree, and neighbours of a vertex share pages, so the per-vertex
//!   auxiliary arrays (depth / path counts / dependency scores) have a
//!   strongly skewed, *write-intensive* hot set. We derive the per-page
//!   access weights analytically from the RMAT bit probabilities: a page
//!   of the score arrays whose index has `k` one-bits out of `n` carries
//!   weight `p^k (1-p)^(n-k)` (vertices sampled bit-by-bit).
//! - **Small accesses**: neighbour lists average 16 entries (128 B), below
//!   Optane's 256 B media granularity, so streaming the CSR from NVM pays
//!   amplification (§5.2.3: "BC accesses the graph using small accesses").
//!
//! The driver replays the per-iteration access trace of BC: CSR neighbour
//! scans, offset lookups, skewed read/write traffic on the auxiliary
//! arrays, and successor-list appends/reads for the backward pass.

use hemem_core::backend::{AccessBatch, SegmentAccess, TieredBackend};
use hemem_core::runtime::{Event, Sim};
use hemem_memdev::Pattern;
use hemem_sim::Ns;
use hemem_vmm::RegionId;

/// Chunks per BC iteration: each thread's share of an iteration is
/// issued in this many rounds, so migration decisions landing
/// mid-iteration affect later chunks.
const CHUNKS: u64 = 8;

/// Graph/BC configuration.
#[derive(Debug, Clone)]
pub struct GraphConfig {
    /// log2 of the vertex count (paper: 28 and 29).
    pub scale: u32,
    /// Worker threads.
    pub threads: u32,
    /// BC iterations (paper: 15).
    pub iterations: u32,
}

/// Average out-degree (paper: 16).
const EDGE_FACTOR: u64 = 16;

/// RMAT per-bit probability of the "1" half (GAP params give ~0.24 per
/// endpoint bit; 0.25 is the standard approximation).
const RMAT_P: f64 = 0.25;

impl GraphConfig {
    /// Paper configuration at a given scale.
    pub fn paper(scale: u32) -> GraphConfig {
        GraphConfig {
            scale,
            threads: 16,
            iterations: 15,
        }
    }

    /// Vertices.
    pub fn vertices(&self) -> u64 {
        1u64 << self.scale
    }

    /// Directed edge entries stored (both directions).
    pub fn edge_entries(&self) -> u64 {
        2 * EDGE_FACTOR * self.vertices()
    }

    /// Bytes of the CSR structure (neighbour arrays + offsets + successor
    /// lists for the backward pass).
    pub fn csr_bytes(&self) -> u64 {
        let neighbors = self.edge_entries() * 8;
        let offsets = 2 * (self.vertices() + 1) * 8;
        let successors = EDGE_FACTOR * self.vertices() * 8;
        neighbors + offsets + successors
    }

    /// Bytes of the per-vertex auxiliary arrays (depth, sigma, delta, bc).
    pub fn aux_bytes(&self) -> u64 {
        4 * self.vertices() * 8
    }

    /// Total working set.
    pub fn total_bytes(&self) -> u64 {
        self.csr_bytes() + self.aux_bytes()
    }
}

/// Per-iteration measurements.
#[derive(Debug, Clone, Copy)]
pub struct IterationResult {
    /// Iteration wall time.
    pub runtime: Ns,
    /// NVM media bytes written during the iteration (Figure 16's wear
    /// metric).
    pub nvm_writes: u64,
}

/// Whole-run result.
#[derive(Debug, Clone)]
pub struct BcResult {
    /// Per-iteration runtimes and wear.
    pub iterations: Vec<IterationResult>,
}

/// The BC driver.
pub struct Bc {
    cfg: GraphConfig,
    csr: RegionId,
    aux: RegionId,
    /// Skew segments over the aux region: `(lo_page, hi_page, weight)`.
    aux_segments: Vec<(u64, u64, f64)>,
}

fn binomial_coeff(n: u32, k: u32) -> f64 {
    let mut c = 1.0;
    for i in 0..k {
        c = c * (n - i) as f64 / (i + 1) as f64;
    }
    c
}

impl Bc {
    /// Maps the graph and populates it (the from-disk load phase).
    pub fn setup<B: TieredBackend>(sim: &mut Sim<B>, cfg: GraphConfig) -> Bc {
        let csr = sim.mmap(cfg.csr_bytes());
        let aux = sim.mmap(cfg.aux_bytes());
        sim.populate(csr, true);
        sim.populate(aux, true);
        sim.set_app_threads(cfg.threads);

        // Degree-skew segments over the aux region. Pages sorted by
        // popularity class: the page index's high bits are RMAT endpoint
        // bits; GAP's degree-aware relabeling clusters hot vertices, which
        // we model by laying classes out hottest-first.
        let aux_pages = sim.m.space.region(aux).page_count();
        let n_bits = (aux_pages.max(2) as f64).log2().ceil() as u32;
        let p = RMAT_P;
        let mut classes: Vec<(f64, f64)> = (0..=n_bits)
            .map(|k| {
                let pages = binomial_coeff(n_bits, k);
                let w = p.powi(k as i32) * (1.0 - p).powi((n_bits - k) as i32);
                (pages, w * pages)
            })
            .collect();
        // Hottest class first = highest per-page weight first (k = 0 has
        // the highest (1-p)^n... no: weight per page for k ones is
        // p^k (1-p)^(n-k); with p < 0.5 smaller k is hotter).
        let total_w: f64 = classes.iter().map(|c| c.1).sum();
        for c in &mut classes {
            c.1 /= total_w;
        }
        let mut aux_segments = Vec::new();
        let mut cursor = 0u64;
        let scale = aux_pages as f64 / classes.iter().map(|c| c.0).sum::<f64>();
        for (pages, w) in classes {
            let count = ((pages * scale).round() as u64).max(1);
            let hi = (cursor + count).min(aux_pages);
            if hi > cursor {
                aux_segments.push((cursor, hi, w));
            }
            cursor = hi;
            if cursor >= aux_pages {
                break;
            }
        }
        // Any rounding remainder joins the last (coldest) segment.
        if cursor < aux_pages {
            if let Some(last) = aux_segments.last_mut() {
                last.1 = aux_pages;
            }
        }
        Bc {
            cfg,
            csr,
            aux,
            aux_segments,
        }
    }

    /// The CSR region.
    pub fn csr_region(&self) -> RegionId {
        self.csr
    }

    /// The auxiliary-array region.
    pub fn aux_region(&self) -> RegionId {
        self.aux
    }

    /// Aux-region skew segments (for tests/inspection).
    pub fn aux_segments(&self) -> &[(u64, u64, f64)] {
        &self.aux_segments
    }

    fn aux_batch(&self, accesses: u64, write_fraction: f64, footprint: u64) -> AccessBatch {
        let segments = self
            .aux_segments
            .iter()
            .map(|&(lo, hi, w)| SegmentAccess {
                region: self.aux,
                lo_page: lo,
                hi_page: hi,
                weight: w,
                llc_footprint: footprint,
                write_fraction: None,
            })
            .collect();
        AccessBatch {
            segments,
            count: accesses,
            object_size: 8,
            write_fraction,
            pattern: Pattern::Random,
            cpu_ns_per_access: 3.0,
            mlp: 4.0,
            sweep: false,
        }
    }

    fn csr_batch(
        &self,
        pages: (u64, u64),
        accesses: u64,
        size: u32,
        wf: f64,
        pat: Pattern,
    ) -> AccessBatch {
        AccessBatch {
            segments: vec![SegmentAccess {
                region: self.csr,
                lo_page: pages.0,
                hi_page: pages.1,
                weight: 1.0,
                llc_footprint: self.cfg.csr_bytes(),
                write_fraction: None,
            }],
            count: accesses,
            object_size: size,
            write_fraction: wf,
            pattern: pat,
            cpu_ns_per_access: 2.0,
            mlp: 6.0,
            // CSR traversals visit each edge/vertex once per iteration.
            sweep: true,
        }
    }

    /// One thread's share of a BC iteration chunk: the four batches
    /// [`Bc::run_iteration`] submits per thread per chunk, and what the
    /// colocation driver runs as free-running rounds instead of
    /// barriered levels. Pure: depends only on the configuration and the
    /// region geometry captured at setup.
    pub(crate) fn round_batches(&self, csr_pages: u64) -> Vec<AccessBatch> {
        let cfg = &self.cfg;
        let v = cfg.vertices();
        let e = cfg.edge_entries();
        let threads = cfg.threads as u64;
        let csr = |accesses, size, wf, pat| self.csr_batch((0, csr_pages), accesses, size, wf, pat);
        vec![
            // Forward pass: neighbour-list scans. Average run length is
            // 16 entries * 8 B = 128 B, below NVM media granularity.
            csr(e / 16 / threads / CHUNKS, 128, 0.0, Pattern::Random),
            // Offset lookups: one 8 B random read per vertex visited.
            csr(v / threads / CHUNKS, 8, 0.0, Pattern::Random),
            // Successor-list appends (forward) and reads (backward):
            // sequential halves of the CSR region tail.
            csr(e / 2 / threads / CHUNKS, 8, 0.5, Pattern::Sequential),
            // Aux arrays: 2 endpoint updates per edge, write-heavy
            // (sigma increments, delta accumulation, depth stores).
            self.aux_batch(2 * e / threads / CHUNKS, 0.55, cfg.aux_bytes()),
        ]
    }

    /// Runs one BC iteration (forward BFS + backward accumulation),
    /// returning its wall time.
    pub fn run_iteration<B: TieredBackend>(&self, sim: &mut Sim<B>) -> IterationResult {
        let t0 = sim.now();
        let wear0 = sim.m.nvm_wear_bytes();
        let threads = self.cfg.threads;
        let batches = self.round_batches(sim.m.space.region(self.csr).page_count());
        for _ in 0..CHUNKS {
            let mut outstanding = 0u32;
            for tid in 0..threads {
                for b in &batches {
                    sim.submit_batch(tid, b);
                    outstanding += 1;
                }
            }
            // Barrier: BFS levels synchronize threads.
            while outstanding > 0 {
                match sim.step() {
                    Some((_, Event::ThreadReady(_))) => outstanding -= 1,
                    Some(_) => {}
                    None => break,
                }
            }
        }
        IterationResult {
            runtime: sim.now().saturating_sub(t0),
            nvm_writes: sim.m.nvm_wear_bytes() - wear0,
        }
    }

    /// Runs the full benchmark: `iterations` BC iterations.
    pub fn run<B: TieredBackend>(&self, sim: &mut Sim<B>) -> BcResult {
        let iterations = (0..self.cfg.iterations)
            .map(|_| self.run_iteration(sim))
            .collect();
        BcResult { iterations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_core::hemem::{HeMem, HeMemConfig};
    use hemem_core::machine::MachineConfig;

    #[test]
    fn paper_sizes_bracket_dram() {
        // Figure 14 vs 15: scale 28 fits in 192 GB, scale 29 exceeds it.
        let small = GraphConfig::paper(28);
        let big = GraphConfig::paper(29);
        let dram = 192u64 << 30;
        assert!(
            small.total_bytes() < dram,
            "2^28: {} GiB",
            small.total_bytes() >> 30
        );
        assert!(
            big.total_bytes() > dram,
            "2^29: {} GiB",
            big.total_bytes() >> 30
        );
    }

    #[test]
    fn aux_segments_cover_region_and_sum_to_one() {
        let mc = MachineConfig::small(2, 16);
        let mut sim = Sim::new(mc.clone(), HeMem::new(HeMemConfig::scaled_for(&mc)));
        let mut cfg = GraphConfig::paper(21); // tiny: 2M vertices
        cfg.threads = 2;
        let bc = Bc::setup(&mut sim, cfg);
        let aux_pages = sim.m.space.region(bc.aux_region()).page_count();
        let segs = bc.aux_segments();
        assert_eq!(segs.first().expect("segments").0, 0);
        assert_eq!(segs.last().expect("segments").1, aux_pages);
        for w in segs.windows(2) {
            assert_eq!(w[0].1, w[1].0, "contiguous coverage");
            assert!(
                w[0].2 / ((w[0].1 - w[0].0) as f64) >= w[1].2 / ((w[1].1 - w[1].0) as f64) * 0.99,
                "hottest-first layout"
            );
        }
        let total: f64 = segs.iter().map(|s| s.2).sum();
        assert!((total - 1.0).abs() < 1e-6, "weights sum to 1: {total}");
    }

    #[test]
    fn skew_concentrates_traffic() {
        let mc = MachineConfig::small(2, 16);
        let mut sim = Sim::new(mc.clone(), HeMem::new(HeMemConfig::scaled_for(&mc)));
        let mut cfg = GraphConfig::paper(21);
        cfg.threads = 2;
        let bc = Bc::setup(&mut sim, cfg);
        // The hottest 20% of pages must carry well over half the weight.
        let aux_pages = sim.m.space.region(bc.aux_region()).page_count();
        let cutoff = aux_pages / 5;
        let hot_w: f64 = bc
            .aux_segments()
            .iter()
            .map(|&(lo, hi, w)| {
                let covered = hi.min(cutoff).saturating_sub(lo);
                if hi > lo {
                    w * covered as f64 / (hi - lo) as f64
                } else {
                    0.0
                }
            })
            .sum();
        assert!(hot_w > 0.55, "top 20% of pages carry {hot_w:.2} of traffic");
    }

    #[test]
    fn iterations_speed_up_as_hemem_converges() {
        // Small machine, graph exceeding DRAM: later iterations must be
        // faster than the first as the hot aux pages reach DRAM (Fig. 15).
        let mc = MachineConfig::small(1, 16);
        let mut sim = Sim::new(mc.clone(), HeMem::new(HeMemConfig::scaled_for(&mc)));
        let mut cfg = GraphConfig::paper(22); // ~5.6 GiB total
        cfg.threads = 4;
        cfg.iterations = 6;
        let bc = Bc::setup(&mut sim, cfg);
        let res = bc.run(&mut sim);
        let first = res.iterations[0].runtime;
        let last = res.iterations.last().expect("iterations").runtime;
        assert!(last < first, "convergence: first {first} vs last {last}");
        assert!(sim.m.stats.migrations_done > 0);
    }

    #[test]
    fn wear_decreases_once_write_hot_pages_reach_dram() {
        let mc = MachineConfig::small(1, 16);
        let mut sim = Sim::new(mc.clone(), HeMem::new(HeMemConfig::scaled_for(&mc)));
        let mut cfg = GraphConfig::paper(22);
        cfg.threads = 4;
        cfg.iterations = 6;
        let bc = Bc::setup(&mut sim, cfg);
        let res = bc.run(&mut sim);
        let first = res.iterations[0].nvm_writes;
        let last = res.iterations.last().expect("iterations").nvm_writes;
        assert!(
            (last as f64) < 0.8 * first as f64,
            "wear drops: first {first} vs last {last}"
        );
    }
}
