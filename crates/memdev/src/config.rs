//! Device parameter sets.
//!
//! The presets encode Table 1 of the paper plus the microbenchmark-derived
//! effective bandwidths of §2.2 (Figures 1 and 2): DRAM scales with thread
//! count in every mode, while Optane's write bandwidth saturates at a few
//! threads and random reads below the 256 B media granularity pay
//! amplification.

use hemem_sim::Ns;

/// A load or a store, as seen by the memory device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum MemOp {
    /// A read (load miss reaching the device).
    Read,
    /// A write (store / writeback reaching the device).
    Write,
}

/// Spatial access pattern of a request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Pattern {
    /// Consecutive addresses; prefetch and write-combining friendly.
    Sequential,
    /// Uniformly scattered addresses.
    Random,
}

/// Static description of one memory device (a DRAM or NVM pool).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DeviceConfig {
    /// Human-readable name used in reports.
    pub name: String,
    /// Usable capacity in bytes.
    pub capacity: u64,
    /// Idle read latency.
    pub read_latency: Ns,
    /// Idle write latency (to the write buffer, not media persistence).
    pub write_latency: Ns,
    /// Peak sequential read bandwidth, bytes/second.
    pub seq_read_bw: f64,
    /// Peak random read bandwidth at media granularity, bytes/second.
    pub rand_read_bw: f64,
    /// Peak sequential write bandwidth, bytes/second.
    pub seq_write_bw: f64,
    /// Peak random write bandwidth at media granularity, bytes/second.
    pub rand_write_bw: f64,
    /// Internal media access granularity in bytes: accesses smaller than
    /// this are amplified to it (Optane: 256 B).
    pub media_granularity: u64,
    /// Single-thread sequential-read bandwidth (bytes/s): how fast one
    /// core can pull a stream from this device. Aggregate device
    /// bandwidth divided by this gives the thread count at which the
    /// device saturates (Figure 1's curve knees).
    pub thread_seq_read_bw: f64,
    /// Single-thread random-read bandwidth.
    pub thread_rand_read_bw: f64,
    /// Single-thread sequential-write bandwidth.
    pub thread_seq_write_bw: f64,
    /// Single-thread random-write bandwidth.
    pub thread_rand_write_bw: f64,
}

const GB: f64 = 1_000_000_000.0;
/// Binary gigabyte.
pub const GIB: u64 = 1 << 30;

impl DeviceConfig {
    /// DDR4 DRAM pool matching the evaluation socket (192 GB, 6 channels).
    ///
    /// Latency/bandwidth from Table 1; random-access bandwidths fitted to
    /// the Figure 1 microbenchmark (256 B blocks): random read tops out
    /// ~14% under Optane's sequential read × 1.14, random write well under
    /// sequential due to row-buffer misses.
    pub fn ddr4_dram(capacity: u64) -> DeviceConfig {
        DeviceConfig {
            name: "DDR4-DRAM".to_string(),
            capacity,
            read_latency: Ns::nanos(82),
            write_latency: Ns::nanos(62),
            seq_read_bw: 107.0 * GB,
            rand_read_bw: 28.0 * GB,
            seq_write_bw: 80.0 * GB,
            rand_write_bw: 40.0 * GB,
            media_granularity: 64,
            // DRAM keeps scaling to high thread counts: one thread drives
            // only a modest share of the channel bandwidth.
            thread_seq_read_bw: 7.0 * GB,
            thread_rand_read_bw: 1.9 * GB,
            thread_seq_write_bw: 5.2 * GB,
            thread_rand_write_bw: 2.6 * GB,
        }
    }

    /// Intel Optane DC NVM pool (App Direct; 768 GB per socket).
    ///
    /// Asymmetric bandwidth from Table 1 and §2.2: sequential read 32 GB/s,
    /// write ~4.8 GB/s effective with cached 256 B stores (DRAM sequential
    /// write is 16.5× higher), random read ~10.5 GB/s (DRAM is 2.7×
    /// higher), random write ~3.7 GB/s (DRAM is 10.7× higher). 256 B media
    /// granularity amplifies smaller accesses.
    pub fn optane_dc(capacity: u64) -> DeviceConfig {
        DeviceConfig {
            name: "Optane-DC".to_string(),
            capacity,
            read_latency: Ns::nanos(175),
            write_latency: Ns::nanos(94),
            seq_read_bw: 32.0 * GB,
            rand_read_bw: 10.5 * GB,
            seq_write_bw: 4.85 * GB,
            rand_write_bw: 3.74 * GB,
            media_granularity: 256,
            // Optane saturates with very few threads (Figure 1): writes by
            // ~4 threads regardless of pattern; sequential reads also
            // saturate early, while random reads keep scaling longer.
            thread_seq_read_bw: 8.0 * GB,
            thread_rand_read_bw: 0.9 * GB,
            thread_seq_write_bw: 1.25 * GB,
            thread_rand_write_bw: 0.95 * GB,
        }
    }

    /// Peak bandwidth for an op/pattern combination, bytes/second.
    pub fn bandwidth(&self, op: MemOp, pattern: Pattern) -> f64 {
        match (op, pattern) {
            (MemOp::Read, Pattern::Sequential) => self.seq_read_bw,
            (MemOp::Read, Pattern::Random) => self.rand_read_bw,
            (MemOp::Write, Pattern::Sequential) => self.seq_write_bw,
            (MemOp::Write, Pattern::Random) => self.rand_write_bw,
        }
    }

    /// Single-thread bandwidth for an op/pattern combination, bytes/s.
    pub fn thread_bandwidth(&self, op: MemOp, pattern: Pattern) -> f64 {
        match (op, pattern) {
            (MemOp::Read, Pattern::Sequential) => self.thread_seq_read_bw,
            (MemOp::Read, Pattern::Random) => self.thread_rand_read_bw,
            (MemOp::Write, Pattern::Sequential) => self.thread_seq_write_bw,
            (MemOp::Write, Pattern::Random) => self.thread_rand_write_bw,
        }
    }

    /// Idle latency for an op.
    pub fn latency(&self, op: MemOp) -> Ns {
        match op {
            MemOp::Read => self.read_latency,
            MemOp::Write => self.write_latency,
        }
    }

    /// Bytes the media actually moves for one access of `size` bytes.
    ///
    /// Random accesses below the media granularity are amplified to a full
    /// media block; sequential streams aggregate into full blocks so they
    /// pay no amplification.
    pub fn media_bytes(&self, size: u64, pattern: Pattern) -> u64 {
        match pattern {
            Pattern::Sequential => size,
            Pattern::Random => size.max(self.media_granularity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_ratios_hold() {
        let dram = DeviceConfig::ddr4_dram(192 * GIB);
        let nvm = DeviceConfig::optane_dc(768 * GIB);
        // Capacity: 4x more NVM than DRAM on the socket (8x per module).
        assert_eq!(nvm.capacity / dram.capacity, 4);
        // Sequential write gap ~16.5x (Figure 1).
        let w_gap = dram.seq_write_bw / nvm.seq_write_bw;
        assert!((16.0..17.0).contains(&w_gap), "write gap {w_gap}");
        // Random read gap ~2.7x.
        let r_gap = dram.rand_read_bw / nvm.rand_read_bw;
        assert!((2.5..2.9).contains(&r_gap), "read gap {r_gap}");
        // Random write gap ~10.7x.
        let rw_gap = dram.rand_write_bw / nvm.rand_write_bw;
        assert!((10.3..11.1).contains(&rw_gap), "rand write gap {rw_gap}");
        // Optane sequential read ~14% above DRAM random read.
        let seq_vs_rand = nvm.seq_read_bw / dram.rand_read_bw;
        assert!(
            (1.1..1.2).contains(&seq_vs_rand),
            "seq-vs-rand {seq_vs_rand}"
        );
        // Latency inflation ~2.1x for reads.
        assert_eq!(nvm.read_latency, Ns::nanos(175));
        assert_eq!(dram.read_latency, Ns::nanos(82));
    }

    #[test]
    fn media_amplification_only_for_small_random() {
        let nvm = DeviceConfig::optane_dc(GIB);
        assert_eq!(nvm.media_bytes(64, Pattern::Random), 256);
        assert_eq!(nvm.media_bytes(256, Pattern::Random), 256);
        assert_eq!(nvm.media_bytes(4096, Pattern::Random), 4096);
        assert_eq!(nvm.media_bytes(64, Pattern::Sequential), 64);
    }

    #[test]
    fn bandwidth_lookup_matches_fields() {
        let d = DeviceConfig::ddr4_dram(GIB);
        assert_eq!(d.bandwidth(MemOp::Read, Pattern::Sequential), d.seq_read_bw);
        assert_eq!(d.bandwidth(MemOp::Write, Pattern::Random), d.rand_write_bw);
        assert_eq!(d.latency(MemOp::Read), d.read_latency);
        assert_eq!(d.latency(MemOp::Write), d.write_latency);
    }
}
