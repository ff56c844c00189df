//! Queueing model of one memory device.
//!
//! Each device runs two work-conserving fluid servers, one per op class
//! (reads and writes largely use separate queues/buffers in both DDR4 and
//! Optane controllers). A reservation of `n` accesses occupies its server
//! for `media_bytes / bandwidth` of virtual time; when offered load
//! exceeds bandwidth the server backlog grows and completion times slide,
//! which is exactly the saturation behaviour of Figures 1 and 2.

use hemem_sim::Ns;

use crate::config::{DeviceConfig, MemOp, Pattern};

/// Result of reserving device time for a batch of accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the device begins serving this batch.
    pub start: Ns,
    /// When the last byte of the batch has been served.
    pub finish: Ns,
    /// Pure service time (backlog excluded).
    pub service: Ns,
}

/// Cumulative traffic counters for a device.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceStats {
    /// Application-visible bytes read.
    pub bytes_read: u64,
    /// Application-visible bytes written.
    pub bytes_written: u64,
    /// Bytes the media moved for reads (amplification included).
    pub media_bytes_read: u64,
    /// Bytes the media moved for writes (amplification included); this is
    /// the wear metric for NVM (Figure 16).
    pub media_bytes_written: u64,
    /// Number of read accesses.
    pub reads: u64,
    /// Number of write accesses.
    pub writes: u64,
    /// Integrated busy time across both servers.
    pub busy: Ns,
}

/// Runtime state of one memory device.
#[derive(Debug, Clone)]
pub struct Device {
    config: DeviceConfig,
    read_free: Ns,
    write_free: Ns,
    /// Separate servers for bulk transfers (migrations, page fills): the
    /// controller interleaves them with demand traffic, so they use spare
    /// bandwidth instead of queueing demand accesses behind multi-
    /// megabyte copies (§2.2: spare bandwidth migrates data without
    /// affecting application performance).
    bulk_read_free: Ns,
    bulk_write_free: Ns,
    /// Health-lifecycle bandwidth multiplier; 1.0 when healthy, lowered
    /// while the device is in the `Degraded` state.
    throttle: f64,
    stats: DeviceStats,
}

impl Device {
    /// Creates an idle device.
    pub fn new(config: DeviceConfig) -> Device {
        Device {
            config,
            read_free: Ns::ZERO,
            write_free: Ns::ZERO,
            bulk_read_free: Ns::ZERO,
            bulk_write_free: Ns::ZERO,
            throttle: 1.0,
            stats: DeviceStats::default(),
        }
    }

    /// The device's static configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Health-lifecycle bandwidth multiplier in `(0, 1]`. A degraded device
    /// serves every access at `throttle * bandwidth`; `1.0` is exact
    /// identity with the healthy path.
    pub fn throttle(&self) -> f64 {
        self.throttle
    }

    /// Sets the health-lifecycle bandwidth multiplier.
    pub fn set_throttle(&mut self, throttle: f64) {
        assert!(throttle > 0.0 && throttle <= 1.0, "throttle out of range");
        self.throttle = throttle;
    }

    /// Cumulative traffic counters.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Idle latency of one access.
    pub fn latency(&self, op: MemOp) -> Ns {
        self.config.latency(op)
    }

    /// Current backlog delay an access of class `op` would see.
    pub fn queue_delay(&self, now: Ns, op: MemOp) -> Ns {
        let free = match op {
            MemOp::Read => self.read_free,
            MemOp::Write => self.write_free,
        };
        free.saturating_sub(now)
    }

    /// Current backlog of the bulk-transfer server for `op`.
    pub fn bulk_queue_delay(&self, now: Ns, op: MemOp) -> Ns {
        let free = match op {
            MemOp::Read => self.bulk_read_free,
            MemOp::Write => self.bulk_write_free,
        };
        free.saturating_sub(now)
    }

    /// Reserves service for `count` accesses of `size` bytes each.
    ///
    /// Returns when the batch starts and finishes on the device. Counters
    /// are updated including media-level amplification.
    pub fn reserve(
        &mut self,
        now: Ns,
        op: MemOp,
        pattern: Pattern,
        size: u64,
        count: u64,
    ) -> Reservation {
        if count == 0 {
            return Reservation {
                start: now,
                finish: now,
                service: Ns::ZERO,
            };
        }
        let app_bytes = size * count;
        let media_bytes = self.config.media_bytes(size, pattern) * count;
        let bw = self.config.bandwidth(op, pattern) * self.throttle;
        let service = Ns::from_secs_f64(media_bytes as f64 / bw);
        let free = match op {
            MemOp::Read => &mut self.read_free,
            MemOp::Write => &mut self.write_free,
        };
        let start = now.max(*free);
        let finish = start + service;
        *free = finish;
        self.stats.busy += service;
        match op {
            MemOp::Read => {
                self.stats.bytes_read += app_bytes;
                self.stats.media_bytes_read += media_bytes;
                self.stats.reads += count;
            }
            MemOp::Write => {
                self.stats.bytes_written += app_bytes;
                self.stats.media_bytes_written += media_bytes;
                self.stats.writes += count;
            }
        }
        Reservation {
            start,
            finish,
            service,
        }
    }

    /// Reserves a bulk sequential transfer (page migration / cache fill),
    /// optionally capped at `rate_cap` bytes/second (the paper caps
    /// migration at 10 GB/s so applications are not disturbed).
    pub fn reserve_bulk(
        &mut self,
        now: Ns,
        op: MemOp,
        bytes: u64,
        rate_cap: Option<f64>,
    ) -> Reservation {
        if bytes == 0 {
            return Reservation {
                start: now,
                finish: now,
                service: Ns::ZERO,
            };
        }
        // Bulk transfers are limited to roughly half the device's peak so
        // demand traffic keeps making progress; the external rate cap
        // (HeMem's 10 GB/s migration limit) applies on top.
        let bw = self.config.bandwidth(op, Pattern::Sequential) * 0.5 * self.throttle;
        let rate = rate_cap.map_or(bw, |cap| cap.min(bw));
        let service = Ns::from_secs_f64(bytes as f64 / rate);
        let free = match op {
            MemOp::Read => &mut self.bulk_read_free,
            MemOp::Write => &mut self.bulk_write_free,
        };
        let start = now.max(*free);
        let finish = start + service;
        *free = finish;
        self.stats.busy += service;
        match op {
            MemOp::Read => {
                self.stats.bytes_read += bytes;
                self.stats.media_bytes_read += bytes;
                self.stats.reads += 1;
            }
            MemOp::Write => {
                self.stats.bytes_written += bytes;
                self.stats.media_bytes_written += bytes;
                self.stats.writes += 1;
            }
        }
        Reservation {
            start,
            finish,
            service,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GIB;

    fn dram() -> Device {
        Device::new(DeviceConfig::ddr4_dram(192 * GIB))
    }

    fn nvm() -> Device {
        Device::new(DeviceConfig::optane_dc(768 * GIB))
    }

    #[test]
    fn throttle_scales_service_time() {
        let mut healthy = nvm();
        let mut degraded = nvm();
        degraded.set_throttle(0.25);
        let h = healthy.reserve(Ns::ZERO, MemOp::Read, Pattern::Random, 4096, 64);
        let d = degraded.reserve(Ns::ZERO, MemOp::Read, Pattern::Random, 4096, 64);
        let ratio = d.service.as_secs_f64() / h.service.as_secs_f64();
        assert!((ratio - 4.0).abs() < 1e-6, "quarter bandwidth = 4x time");
        let hb = healthy.reserve_bulk(Ns::ZERO, MemOp::Write, 2 << 20, None);
        let db = degraded.reserve_bulk(Ns::ZERO, MemOp::Write, 2 << 20, None);
        let bulk = db.service.as_secs_f64() / hb.service.as_secs_f64();
        // Integer-nanosecond quantization leaves a few ppm of slack.
        assert!(
            (bulk - 4.0).abs() < 1e-4,
            "bulk server throttles too: ratio {bulk}"
        );
    }

    #[test]
    fn empty_reservation_is_free() {
        let mut d = dram();
        let r = d.reserve(Ns(100), MemOp::Read, Pattern::Random, 64, 0);
        assert_eq!(r.start, Ns(100));
        assert_eq!(r.finish, Ns(100));
        assert_eq!(d.stats().reads, 0);
    }

    #[test]
    fn service_time_matches_bandwidth() {
        let mut d = dram();
        // 107 GB/s sequential read: 107 bytes take ~1 ns.
        let r = d.reserve(Ns::ZERO, MemOp::Read, Pattern::Sequential, 107_000, 1_000);
        let secs = r.service.as_secs_f64();
        let expect = 107_000_000.0 / (107.0 * 1e9);
        assert!(
            (secs - expect).abs() / expect < 1e-6,
            "service {secs} vs {expect}"
        );
    }

    #[test]
    fn backlog_accumulates_fifo() {
        let mut d = nvm();
        let r1 = d.reserve(Ns::ZERO, MemOp::Write, Pattern::Random, 256, 1_000_000);
        let r2 = d.reserve(Ns::ZERO, MemOp::Write, Pattern::Random, 256, 1_000_000);
        assert_eq!(r2.start, r1.finish);
        assert!(r2.finish > r1.finish);
        // Reads use a separate server: no backlog from the writes.
        let r3 = d.reserve(Ns::ZERO, MemOp::Read, Pattern::Random, 256, 1);
        assert_eq!(r3.start, Ns::ZERO);
    }

    #[test]
    fn media_amplification_charged_on_nvm_random() {
        let mut d = nvm();
        d.reserve(Ns::ZERO, MemOp::Write, Pattern::Random, 8, 1_000);
        assert_eq!(d.stats().bytes_written, 8_000);
        assert_eq!(d.stats().media_bytes_written, 256_000);
    }

    #[test]
    fn sequential_not_amplified() {
        let mut d = nvm();
        d.reserve(Ns::ZERO, MemOp::Read, Pattern::Sequential, 8, 1_000);
        assert_eq!(d.stats().media_bytes_read, 8_000);
    }

    #[test]
    fn bulk_does_not_delay_demand_traffic() {
        let mut d = nvm();
        d.reserve_bulk(Ns::ZERO, MemOp::Write, GIB, None);
        let r = d.reserve(Ns::ZERO, MemOp::Write, Pattern::Random, 256, 1);
        assert_eq!(r.start, Ns::ZERO, "demand write not queued behind bulk");
    }

    #[test]
    fn queue_delay_reflects_backlog() {
        let mut d = nvm();
        assert_eq!(d.queue_delay(Ns::ZERO, MemOp::Write), Ns::ZERO);
        let r = d.reserve(Ns::ZERO, MemOp::Write, Pattern::Random, 4096, 10_000);
        assert_eq!(d.queue_delay(Ns::ZERO, MemOp::Write), r.finish);
        assert_eq!(d.queue_delay(r.finish, MemOp::Write), Ns::ZERO);
    }

    #[test]
    fn bulk_respects_rate_cap() {
        let mut d = dram();
        // 10 GB/s cap over a 1 GiB copy: ~0.107 s at full rate, ~0.107 s... at
        // cap it is 1 GiB / 10 GB/s = 0.1074 s.
        let r = d.reserve_bulk(Ns::ZERO, MemOp::Write, GIB, Some(10.0 * 1e9));
        let expect = GIB as f64 / 10e9;
        assert!((r.service.as_secs_f64() - expect).abs() / expect < 1e-6);
        // Without a cap, half the device's own bandwidth applies (bulk
        // transfers leave headroom for demand traffic).
        let r2 = d.reserve_bulk(r.finish, MemOp::Write, GIB, None);
        let expect2 = GIB as f64 / (40.0 * 1e9);
        assert!((r2.service.as_secs_f64() - expect2).abs() / expect2 < 1e-6);
    }

    #[test]
    fn nvm_write_bandwidth_saturates_under_parallel_offers() {
        // Emulate 16 "threads" each offering 1 GB of random 256 B writes at
        // time zero; aggregate throughput must stay pinned at the device's
        // random write bandwidth.
        let mut d = nvm();
        let mut last = Ns::ZERO;
        for _ in 0..16 {
            let r = d.reserve(Ns::ZERO, MemOp::Write, Pattern::Random, 256, 4_000_000);
            last = last.max(r.finish);
        }
        let total_bytes = 16.0 * 4_000_000.0 * 256.0;
        let tput = total_bytes / last.as_secs_f64();
        let cap = d.config().rand_write_bw;
        assert!(
            (tput - cap).abs() / cap < 0.01,
            "throughput {tput} vs cap {cap}"
        );
    }
}
