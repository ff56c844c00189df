//! Block-style SSD swap device: the third capacity tier (§3.4: "swapping
//! to a block device can provide an additional, slowest, memory tier").
//!
//! Unlike the byte-addressable [`crate::Device`] fluid servers, an NVMe
//! swap device is queue-depth-limited: the controller serves at most
//! `queue_depth` commands concurrently and every transfer moves whole
//! 4 KB sectors. Bandwidth and latency are asymmetric between reads and
//! writes (reads pay the full flash-array access, writes land in the
//! device write buffer), and wear is tracked per erase block rather than
//! per byte, because flash rewrites whole erase blocks.
//!
//! The model keeps one free-time per queue slot. A transfer picks the
//! earliest-free slot, starts when both the caller and the slot are
//! ready, and occupies the slot for `latency + sectors / bandwidth`.
//! With all slots busy a major fault therefore stalls behind the queue —
//! exactly the cost model `tierbench` measures.

use hemem_sim::Ns;

use crate::config::MemOp;
use crate::device::Reservation;

const GB: f64 = 1_000_000_000.0;

/// Transfer granularity: every request is rounded up to whole sectors
/// (NVMe logical block size, 4 KB).
const SECTOR: u64 = 4096;
/// Idle read latency (flash array access).
const READ_LATENCY: Ns = Ns::micros(80);
/// Idle write latency (device write buffer).
const WRITE_LATENCY: Ns = Ns::micros(20);
/// Peak read bandwidth, bytes/second.
const READ_BW: f64 = 3.2 * GB;
/// Peak write bandwidth, bytes/second (asymmetric, below read).
const WRITE_BW: f64 = 1.4 * GB;
/// Erase-block size in bytes: wear is counted per erase block.
const ERASE_BLOCK: u64 = 8 << 20;

/// Static description of the SSD swap device.
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Usable swap capacity in bytes.
    pub capacity: u64,
    /// Maximum commands the controller serves concurrently.
    pub queue_depth: usize,
}

impl SsdConfig {
    /// Datacenter NVMe drive used as the tier-3 swap device.
    pub fn nvme(capacity: u64) -> SsdConfig {
        SsdConfig {
            capacity,
            queue_depth: 32,
        }
    }
}

/// Bandwidth for an op, bytes/second.
fn bandwidth(op: MemOp) -> f64 {
    match op {
        MemOp::Read => READ_BW,
        MemOp::Write => WRITE_BW,
    }
}

/// Cumulative traffic and wear counters for the SSD.
#[derive(Debug, Clone, Copy, Default)]
pub struct SsdStats {
    /// Read commands served.
    pub reads: u64,
    /// Write commands served.
    pub writes: u64,
    /// Bytes moved by reads (sector-rounded).
    pub bytes_read: u64,
    /// Bytes moved by writes (sector-rounded).
    pub bytes_written: u64,
    /// Integrated command service time across all queue slots.
    pub busy: Ns,
    /// Total erase-block program cycles (sum over all blocks).
    pub erase_cycles: u64,
}

/// Runtime state of the SSD swap device.
#[derive(Debug, Clone)]
pub struct SsdDevice {
    config: SsdConfig,
    /// Free time of each controller queue slot.
    slots: Vec<Ns>,
    /// Program-cycle count per erase block.
    erase_wear: Vec<u64>,
    /// Health-lifecycle bandwidth multiplier; 1.0 when healthy, lowered
    /// while the device is in the `Degraded` state.
    throttle: f64,
    stats: SsdStats,
}

impl SsdDevice {
    /// Creates an idle device.
    pub fn new(config: SsdConfig) -> SsdDevice {
        let blocks = config.capacity.div_ceil(ERASE_BLOCK).max(1) as usize;
        SsdDevice {
            slots: vec![Ns::ZERO; config.queue_depth.max(1)],
            erase_wear: vec![0; blocks],
            config,
            throttle: 1.0,
            stats: SsdStats::default(),
        }
    }

    /// The device's static configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Health-lifecycle bandwidth multiplier in `(0, 1]`; `1.0` is exact
    /// identity with the healthy path.
    pub fn throttle(&self) -> f64 {
        self.throttle
    }

    /// Sets the health-lifecycle bandwidth multiplier.
    pub fn set_throttle(&mut self, throttle: f64) {
        assert!(throttle > 0.0 && throttle <= 1.0, "throttle out of range");
        self.throttle = throttle;
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &SsdStats {
        &self.stats
    }

    /// Idle latency of one command.
    pub fn latency(&self, op: MemOp) -> Ns {
        match op {
            MemOp::Read => READ_LATENCY,
            MemOp::Write => WRITE_LATENCY,
        }
    }

    /// Delay until the earliest queue slot frees up: the stall a new
    /// command would see before the controller even starts it.
    pub fn queue_delay(&self, now: Ns) -> Ns {
        self.earliest_slot_free().saturating_sub(now)
    }

    fn earliest_slot_free(&self) -> Ns {
        *self.slots.iter().min().expect("queue_depth >= 1")
    }

    /// Reserves one transfer of `bytes` (rounded up to whole sectors) on
    /// the earliest-free queue slot. Returns when the command starts and
    /// finishes; `service` excludes the queue wait.
    pub fn transfer(&mut self, now: Ns, op: MemOp, bytes: u64) -> Reservation {
        let moved = bytes.div_ceil(SECTOR) * SECTOR;
        let service =
            self.latency(op) + Ns::from_secs_f64(moved as f64 / (bandwidth(op) * self.throttle));
        let slot = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, free)| **free)
            .map(|(i, _)| i)
            .expect("queue_depth >= 1");
        let start = self.slots[slot].max(now);
        let finish = start + service;
        self.slots[slot] = finish;
        match op {
            MemOp::Read => {
                self.stats.reads += 1;
                self.stats.bytes_read += moved;
            }
            MemOp::Write => {
                self.stats.writes += 1;
                self.stats.bytes_written += moved;
            }
        }
        self.stats.busy += service;
        Reservation {
            start,
            finish,
            service,
        }
    }

    /// Records one program cycle on every erase block covering
    /// `[offset, offset + len)`. Called by the tier manager when a page
    /// frame is written to the swap device; kept separate from
    /// [`SsdDevice::transfer`] because the queue model is offset-blind.
    pub fn note_block_write(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = (offset / ERASE_BLOCK) as usize;
        let last = ((offset + len - 1) / ERASE_BLOCK) as usize;
        for b in first..=last.min(self.erase_wear.len().saturating_sub(1)) {
            self.erase_wear[b] = self.erase_wear[b].saturating_add(1);
            self.stats.erase_cycles += 1;
        }
    }

    /// Program cycles recorded on erase block `block`.
    pub fn erase_wear(&self, block: usize) -> u64 {
        self.erase_wear.get(block).copied().unwrap_or(0)
    }

    /// Number of erase blocks the device tracks.
    pub fn erase_blocks(&self) -> usize {
        self.erase_wear.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> SsdDevice {
        SsdDevice::new(SsdConfig::nvme(1 << 30))
    }

    #[test]
    fn transfers_round_to_sectors() {
        let mut d = dev();
        let r = d.transfer(Ns::ZERO, MemOp::Write, 1);
        assert_eq!(d.stats().bytes_written, 4096, "1 byte moves a sector");
        assert!(r.service > d.latency(MemOp::Write));
        let r2 = d.transfer(Ns::ZERO, MemOp::Read, 4097);
        assert_eq!(d.stats().bytes_read, 8192);
        assert!(r2.service > r.service, "reads pay the flash-array latency");
    }

    #[test]
    fn read_write_asymmetry() {
        let mut d = dev();
        let size = 2 << 20;
        let w = d.transfer(Ns::ZERO, MemOp::Write, size);
        let r = d.transfer(Ns::ZERO, MemOp::Read, size);
        // Writes: lower latency but less bandwidth; at 2 MiB the
        // bandwidth term dominates, so the write takes longer.
        assert!(w.service > r.service, "write {:?} vs read {:?}", w, r);
    }

    #[test]
    fn queue_depth_limits_concurrency() {
        let mut d = SsdDevice::new(SsdConfig {
            queue_depth: 2,
            ..SsdConfig::nvme(1 << 30)
        });
        let a = d.transfer(Ns::ZERO, MemOp::Read, 4096);
        let b = d.transfer(Ns::ZERO, MemOp::Read, 4096);
        assert_eq!(a.start, Ns::ZERO);
        assert_eq!(b.start, Ns::ZERO, "two slots serve two commands at once");
        let c = d.transfer(Ns::ZERO, MemOp::Read, 4096);
        assert_eq!(c.start, a.finish, "third command waits for a slot");
        assert_eq!(d.queue_delay(Ns::ZERO), b.finish.saturating_sub(Ns::ZERO));
    }

    #[test]
    fn erase_block_wear_counts_blocks() {
        let mut d = dev();
        let eb = ERASE_BLOCK;
        d.note_block_write(0, 2 << 20);
        assert_eq!(d.erase_wear(0), 1);
        assert_eq!(d.erase_wear(1), 0);
        // A write spanning a block boundary wears both blocks.
        d.note_block_write(eb - 4096, 8192);
        assert_eq!(d.erase_wear(0), 2);
        assert_eq!(d.erase_wear(1), 1);
        assert_eq!(d.stats().erase_cycles, 3);
    }

    #[test]
    fn throttle_slows_transfers() {
        let mut healthy = dev();
        let mut degraded = dev();
        degraded.set_throttle(0.25);
        let size = 2 << 20;
        let h = healthy.transfer(Ns::ZERO, MemOp::Read, size);
        let d = degraded.transfer(Ns::ZERO, MemOp::Read, size);
        assert!(
            d.service > h.service,
            "degraded serves at reduced bandwidth"
        );
        // Latency term is untouched, so the slowdown is bandwidth-only.
        let lat = healthy.latency(MemOp::Read);
        let h_bw = h.service.saturating_sub(lat);
        let d_bw = d.service.saturating_sub(lat);
        assert!(d_bw >= h_bw + h_bw + h_bw, "bandwidth term scales ~4x");
    }

    #[test]
    fn wear_is_clamped_to_tracked_blocks() {
        let mut d = dev();
        let cap = d.config().capacity;
        d.note_block_write(cap + (8 << 20), 4096);
        assert_eq!(d.erase_wear(d.erase_blocks()), 0, "out of range reads 0");
    }
}
