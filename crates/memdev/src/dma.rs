//! I/OAT-style DMA copy engine model.
//!
//! HeMem offloads page migration to the platform's I/OAT DMA engine via a
//! batched `ioctl` API (§3.2): up to 32 copy requests per call, spread
//! over a configurable set of channels. The paper finds batches of 4 on 2
//! concurrent channels fastest on their system; those are the defaults.
//! Channel time modelled here covers the engine's descriptor processing;
//! the actual byte movement must additionally be reserved on the source
//! and destination [`crate::Device`]s by the caller.
//!
//! The engine tracks submission failures so callers can detect a dead
//! engine and fall back to copy threads, as HeMem does when the I/OAT
//! driver is unavailable.

use hemem_sim::Ns;

/// Hardware channels on the evaluation platform's I/OAT engine.
pub const CHANNELS: usize = 8;
/// Per-channel copy bandwidth, bytes/second.
const PER_CHANNEL_BW: f64 = 6.0e9;
/// Kernel-crossing cost of one batched copy `ioctl`.
pub const IOCTL_OVERHEAD: Ns = Ns::micros(2);
/// Maximum copy requests the driver accepts per `ioctl`.
pub const MAX_BATCH: usize = 32;
/// Consecutive submission failures after which the engine reports
/// itself [`DmaEngine::degraded`] and callers should stop offloading.
pub const DEGRADE_AFTER: u32 = 8;

/// Static DMA engine parameters.
#[derive(Debug, Clone)]
pub struct DmaConfig {
    /// While degraded, probe the engine with a real submission once every
    /// this many would-be offloads (a successful probe closes the breaker
    /// and resumes offloading). `0` disables probing: once degraded, the
    /// engine stays degraded — the historical behaviour and the default.
    pub probe_after: u32,
}

impl DmaConfig {
    /// The evaluation platform's I/OAT engine.
    pub fn ioat() -> DmaConfig {
        DmaConfig { probe_after: 0 }
    }
}

/// Errors surfaced by the DMA engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaError {
    /// A submission asked for an impossible channel count.
    BadChannelCount {
        /// Channels requested.
        got: usize,
        /// Channels the engine has.
        have: usize,
    },
    /// More requests than the driver's batch limit.
    BatchTooLarge {
        /// Requests submitted.
        got: usize,
        /// Driver maximum per ioctl.
        max: usize,
    },
    /// A request had zero length (rejected, matching the driver).
    EmptyCopy,
    /// The engine failed the submission (injected hardware/driver fault).
    DeviceFailure,
}

impl core::fmt::Display for DmaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DmaError::BadChannelCount { got, have } => {
                write!(f, "requested {got} channels, engine has {have}")
            }
            DmaError::BatchTooLarge { got, max } => {
                write!(f, "batch of {got} exceeds driver limit of {max}")
            }
            DmaError::EmptyCopy => write!(f, "zero-length copy request"),
            DmaError::DeviceFailure => write!(f, "DMA engine failed the submission"),
        }
    }
}

impl std::error::Error for DmaError {}

/// Cumulative DMA statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct DmaStats {
    /// Bytes copied.
    pub bytes_copied: u64,
    /// Copy requests completed.
    pub copies: u64,
    /// Batched ioctl calls issued successfully.
    pub ioctls: u64,
    /// Submissions that failed (injected engine faults).
    pub failed_ioctls: u64,
}

/// Runtime DMA engine state.
#[derive(Debug, Clone)]
pub struct DmaEngine {
    config: DmaConfig,
    chan_free: [Ns; CHANNELS],
    consecutive_failures: u32,
    fallbacks_since_probe: u32,
    stats: DmaStats,
}

impl DmaEngine {
    /// Creates an idle engine.
    pub fn new(config: DmaConfig) -> DmaEngine {
        DmaEngine {
            config,
            chan_free: [Ns::ZERO; CHANNELS],
            consecutive_failures: 0,
            fallbacks_since_probe: 0,
            stats: DmaStats::default(),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &DmaStats {
        &self.stats
    }

    /// Validates a batch before submission: the single checkpoint for
    /// batch size, channel count, and copy lengths.
    fn validate(&self, copy_sizes: &[u64], n_channels: usize) -> Result<(), DmaError> {
        if copy_sizes.len() > MAX_BATCH {
            return Err(DmaError::BatchTooLarge {
                got: copy_sizes.len(),
                max: MAX_BATCH,
            });
        }
        if n_channels == 0 || n_channels > CHANNELS {
            return Err(DmaError::BadChannelCount {
                got: n_channels,
                have: CHANNELS,
            });
        }
        if copy_sizes.contains(&0) {
            return Err(DmaError::EmptyCopy);
        }
        Ok(())
    }

    /// Submits one batched copy `ioctl` using `n_channels` channels.
    ///
    /// Returns the completion time of the whole batch, or an error if the
    /// batch exceeds [`MAX_BATCH`], requests an impossible
    /// channel count, or contains a zero-length copy. Copies are assigned
    /// round-robin to the selected channels, matching the driver's
    /// striping. A successful submission clears the consecutive-failure
    /// counter feeding [`DmaEngine::degraded`].
    pub fn submit(
        &mut self,
        now: Ns,
        copy_sizes: &[u64],
        n_channels: usize,
    ) -> Result<Ns, DmaError> {
        self.validate(copy_sizes, n_channels)?;
        let start = now + IOCTL_OVERHEAD;
        self.stats.ioctls += 1;
        self.consecutive_failures = 0;
        let mut completion = start;
        for (i, &bytes) in copy_sizes.iter().enumerate() {
            let chan = i % n_channels;
            let service = Ns::from_secs_f64(bytes as f64 / PER_CHANNEL_BW);
            let begin = start.max(self.chan_free[chan]);
            let done = begin + service;
            self.chan_free[chan] = done;
            completion = completion.max(done);
            self.stats.bytes_copied += bytes;
            self.stats.copies += 1;
        }
        Ok(completion)
    }

    /// Records a failed submission (fault injection reports failures from
    /// outside the engine). Feeds the [`DmaEngine::degraded`] breaker.
    pub fn note_submit_failure(&mut self) {
        self.stats.failed_ioctls += 1;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
    }

    /// Whether the engine has failed [`DEGRADE_AFTER`]
    /// submissions in a row and callers should stop offloading to it.
    pub fn degraded(&self) -> bool {
        self.consecutive_failures >= DEGRADE_AFTER
    }

    /// Called by a degraded-path caller about to fall back: returns `true`
    /// once every [`DmaConfig::probe_after`] fallbacks, telling the caller
    /// to attempt a real submission instead (a success closes the
    /// breaker). Always `false` when probing is disabled (`probe_after ==
    /// 0`) or the engine is healthy.
    pub fn should_probe(&mut self) -> bool {
        if !self.degraded() || self.config.probe_after == 0 {
            return false;
        }
        self.fallbacks_since_probe += 1;
        if self.fallbacks_since_probe >= self.config.probe_after {
            self.fallbacks_since_probe = 0;
            true
        } else {
            false
        }
    }

    /// The instant every accepted descriptor has landed: no channel does
    /// work past this point. Recovery waits for it before recycling
    /// destination frames, so a late DMA write cannot corrupt a frame
    /// that was rolled back and reallocated.
    pub fn quiesce_at(&self) -> Ns {
        self.chan_free.iter().copied().max().unwrap_or(Ns::ZERO)
    }

    /// Aggregate copy bandwidth when using `n_channels` channels.
    pub fn bandwidth(&self, n_channels: usize) -> f64 {
        PER_CHANNEL_BW * n_channels.min(CHANNELS) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn single_copy_timing() {
        let mut dma = DmaEngine::new(DmaConfig::ioat());
        let done = dma
            .submit(Ns::ZERO, &[6 * 1_000_000_000 / 1000], 1)
            .expect("submit");
        // 6 MB-ish at 6 GB/s = 1 ms, plus 2 us ioctl.
        let expect = Ns::millis(1) + Ns::micros(2);
        let diff = done.as_nanos().abs_diff(expect.as_nanos());
        assert!(diff < 1_000, "done {done} expect {expect}");
    }

    #[test]
    fn two_channels_halve_batch_time() {
        let mut one = DmaEngine::new(DmaConfig::ioat());
        let mut two = DmaEngine::new(DmaConfig::ioat());
        let batch = [2 * MB, 2 * MB, 2 * MB, 2 * MB];
        let t1 = one.submit(Ns::ZERO, &batch, 1).expect("submit");
        let t2 = two.submit(Ns::ZERO, &batch, 2).expect("submit");
        let r = t1.as_nanos() as f64 / t2.as_nanos() as f64;
        assert!((r - 2.0).abs() < 0.05, "speedup {r}");
    }

    #[test]
    fn backlog_carries_across_batches() {
        let mut dma = DmaEngine::new(DmaConfig::ioat());
        let t1 = dma.submit(Ns::ZERO, &[64 * MB], 1).expect("submit");
        let t2 = dma.submit(Ns::ZERO, &[64 * MB], 1).expect("submit");
        assert!(t2 > t1, "second batch must queue behind the first");
        assert!(t2.as_nanos() >= 2 * (t1.as_nanos() - 4_000));
    }

    #[test]
    fn stats_accumulate() {
        let mut dma = DmaEngine::new(DmaConfig::ioat());
        dma.submit(Ns::ZERO, &[MB, MB], 2).expect("submit");
        dma.submit(Ns::ZERO, &[MB], 1).expect("submit");
        assert_eq!(dma.stats().copies, 3);
        assert_eq!(dma.stats().ioctls, 2);
        assert_eq!(dma.stats().bytes_copied, 3 * MB);
    }

    #[test]
    fn oversized_batch_rejected() {
        let mut dma = DmaEngine::new(DmaConfig::ioat());
        let batch = vec![1u64; 33];
        assert_eq!(
            dma.submit(Ns::ZERO, &batch, 1),
            Err(DmaError::BatchTooLarge { got: 33, max: 32 })
        );
        assert_eq!(dma.stats().ioctls, 0, "rejected batch issues no ioctl");
    }

    #[test]
    fn bad_channel_counts_rejected() {
        let mut dma = DmaEngine::new(DmaConfig::ioat());
        assert_eq!(
            dma.submit(Ns::ZERO, &[MB], 0),
            Err(DmaError::BadChannelCount { got: 0, have: 8 })
        );
        assert_eq!(
            dma.submit(Ns::ZERO, &[MB], 9),
            Err(DmaError::BadChannelCount { got: 9, have: 8 })
        );
    }

    #[test]
    fn zero_length_copy_rejected() {
        let mut dma = DmaEngine::new(DmaConfig::ioat());
        assert_eq!(dma.submit(Ns::ZERO, &[MB, 0], 1), Err(DmaError::EmptyCopy));
        assert_eq!(dma.stats().ioctls, 0, "rejected batch issues no ioctl");
    }

    #[test]
    fn error_messages_render() {
        assert!(DmaError::BatchTooLarge { got: 40, max: 32 }
            .to_string()
            .contains("40"));
        assert!(DmaError::BadChannelCount { got: 9, have: 8 }
            .to_string()
            .contains("9"));
    }

    #[test]
    fn degrades_after_consecutive_failures_and_recovers() {
        let mut dma = DmaEngine::new(DmaConfig::ioat());
        let after = DEGRADE_AFTER;
        for _ in 0..after {
            assert!(!dma.degraded());
            dma.note_submit_failure();
        }
        assert!(dma.degraded());
        assert_eq!(dma.stats().failed_ioctls, after as u64);
        // One successful submission resets the breaker.
        dma.submit(Ns::ZERO, &[MB], 1).expect("submit");
        assert!(!dma.degraded());
    }

    #[test]
    fn quiesce_tracks_the_last_descriptor() {
        let mut dma = DmaEngine::new(DmaConfig::ioat());
        assert_eq!(dma.quiesce_at(), Ns::ZERO, "idle engine is quiescent");
        let done = dma.submit(Ns::ZERO, &[64 * MB, MB], 2).expect("submit");
        assert_eq!(dma.quiesce_at(), done);
    }

    #[test]
    fn probe_reopens_the_breaker_on_success() {
        let mut cfg = DmaConfig::ioat();
        cfg.probe_after = 2;
        let mut dma = DmaEngine::new(cfg);
        assert!(!dma.should_probe(), "healthy engine never probes");
        for _ in 0..DEGRADE_AFTER {
            dma.note_submit_failure();
        }
        assert!(dma.degraded());
        // Every second fallback becomes a probe.
        assert!(!dma.should_probe());
        assert!(dma.should_probe());
        assert!(!dma.should_probe());
        assert!(dma.should_probe());
        // The probe's successful submission closes the breaker.
        dma.submit(Ns::ZERO, &[MB], 1).expect("submit");
        assert!(!dma.degraded());
        assert!(!dma.should_probe(), "closed breaker stops probing");
    }

    #[test]
    fn probing_disabled_by_default() {
        let mut dma = DmaEngine::new(DmaConfig::ioat());
        for _ in 0..DEGRADE_AFTER {
            dma.note_submit_failure();
        }
        assert!(dma.degraded());
        for _ in 0..100 {
            assert!(!dma.should_probe(), "probe_after = 0 never probes");
        }
    }

    #[test]
    fn bandwidth_scales_with_channels() {
        let dma = DmaEngine::new(DmaConfig::ioat());
        assert_eq!(dma.bandwidth(2), 12.0e9);
        assert_eq!(dma.bandwidth(100), 48.0e9, "clamped to available channels");
    }
}
