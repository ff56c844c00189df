//! # hemem-pebs
//!
//! Model of processor event-based sampling as HeMem uses it (§3.1). Three
//! precise events are programmed:
//!
//! - `MEM_LOAD_RETIRED.LOCAL_PMM` — loads served from NVM,
//! - `MEM_LOAD_L3_MISS_RETIRED.LOCAL_DRAM` — loads served from DRAM,
//! - `MEM_INST_RETIRED.ALL_STORES` — all stores,
//!
//! each with a sample period (one record per `period` events). When a
//! counter overflows the CPU appends a record carrying the instruction's
//! virtual data address to a pre-allocated buffer; records arriving at a
//! full buffer are lost. HeMem's PEBS thread drains the buffer at a
//! bounded rate — the fidelity/overhead trade-off Figure 10 sweeps.

#![warn(missing_docs)]

use std::collections::VecDeque;

use hemem_sim::{rate_budget, Ns};

/// Which programmed event produced a sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SampleType {
    /// `MEM_LOAD_RETIRED.LOCAL_PMM` — load served from NVM.
    NvmLoad,
    /// `MEM_LOAD_L3_MISS_RETIRED.LOCAL_DRAM` — load served from DRAM.
    DramLoad,
    /// `MEM_INST_RETIRED.ALL_STORES` — any store.
    Store,
}

impl SampleType {
    /// All sample types, indexable by [`SampleType::index`].
    pub const ALL: [SampleType; 3] = [SampleType::NvmLoad, SampleType::DramLoad, SampleType::Store];

    /// Dense index of this type.
    pub fn index(self) -> usize {
        match self {
            SampleType::NvmLoad => 0,
            SampleType::DramLoad => 1,
            SampleType::Store => 2,
        }
    }

    /// Whether this sample came from a store.
    pub fn is_store(self) -> bool {
        self == SampleType::Store
    }
}

/// One PEBS record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleRecord {
    /// Virtual address targeted by the sampled instruction.
    pub vaddr: u64,
    /// Event that fired.
    pub kind: SampleType,
}

/// PEBS configuration.
#[derive(Debug, Clone)]
pub struct PebsConfig {
    /// Events per sample (the paper's default is ~5,000). With
    /// [`PebsConfig::adaptive`] this is only the *starting* period; the
    /// controller moves it between the configured bounds.
    pub sample_period: u64,
    /// Buffer capacity in records; overflow drops samples.
    pub buffer_capacity: usize,
    /// Records the PEBS thread can process per second of CPU time.
    pub drain_rate: f64,
    /// How often the PEBS thread wakes to read the buffer.
    pub drain_interval: Ns,
    /// Self-tuning sample period (off by default). When set, each drain
    /// pass runs a deterministic integer feedback loop over the window
    /// since the last decision: the period doubles while the windowed
    /// drop fraction or the buffer backlog exceeds its bound, and decays
    /// by a quarter when both are comfortably below, holding profiling
    /// loss inside the configured envelope at any access rate.
    pub adaptive: Option<AdaptiveConfig>,
}

impl Default for PebsConfig {
    fn default() -> Self {
        PebsConfig {
            sample_period: 5_000,
            buffer_capacity: 16_384,
            drain_rate: 0.5e6,
            drain_interval: Ns::millis(1),
            adaptive: None,
        }
    }
}

impl PebsConfig {
    /// The default configuration with the self-tuning controller armed.
    pub fn adaptive() -> PebsConfig {
        PebsConfig {
            adaptive: Some(AdaptiveConfig::default()),
            ..PebsConfig::default()
        }
    }
}

/// Bounds for the self-tuning sample period. All integer: the control
/// law must replay byte-identically from a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Lowest period the controller may choose (highest sampling rate).
    pub min_period: u64,
    /// Highest period the controller may choose.
    pub max_period: u64,
}

/// The self-tuning controller raises the period when the windowed drop
/// fraction exceeds this bound (per-mille: 100 = 10%).
pub const TARGET_DROP_MILLI: u64 = 100;
/// The controller lowers the period when the windowed drop fraction is
/// under this floor (per-mille) *and* the backlog is under half a drain
/// budget.
const RELAX_DROP_MILLI: u64 = 20;
/// Minimum generated records in a window before the controller decides;
/// starved windows carry over so idle phases do not thrash the period.
const MIN_WINDOW_SAMPLES: u64 = 64;

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            min_period: 500,
            max_period: 1_000_000,
        }
    }
}

/// Typed rejection of an invalid [`PebsConfig`], following the
/// `StateError` convention: callers that build
/// configurations from untrusted input get an error value, and
/// [`Pebs::new`] keeps the panicking convenience path for the shipped
/// defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PebsConfigError {
    /// `sample_period` is zero: the counter would fire on every event.
    ZeroSamplePeriod,
    /// `buffer_capacity` is zero: no record could ever be delivered.
    ZeroBufferCapacity,
    /// The adaptive bounds are unusable (`min_period` zero or above
    /// `max_period`).
    AdaptiveBounds {
        /// Configured lower period bound.
        min: u64,
        /// Configured upper period bound.
        max: u64,
    },
}

impl std::fmt::Display for PebsConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PebsConfigError::ZeroSamplePeriod => write!(f, "sample period must be positive"),
            PebsConfigError::ZeroBufferCapacity => {
                write!(f, "buffer must hold at least one record")
            }
            PebsConfigError::AdaptiveBounds { min, max } => write!(
                f,
                "adaptive period bounds unusable: min {min} must be in 1..=max {max}"
            ),
        }
    }
}

impl std::error::Error for PebsConfigError {}

/// Cumulative sampling counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PebsStats {
    /// Records the hardware generated.
    pub generated: u64,
    /// Records lost to buffer overflow.
    pub dropped: u64,
    /// Records consumed by the PEBS thread.
    pub drained: u64,
}

impl PebsStats {
    /// Fraction of generated samples that were lost.
    pub fn drop_fraction(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.dropped as f64 / self.generated as f64
        }
    }
}

/// Counters for the self-tuning controller, kept apart from
/// [`PebsStats`] so the frozen stats layout (and every fingerprint
/// embedding it) is untouched when adaptation is off.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptStats {
    /// Windows evaluated by the controller.
    pub decisions: u64,
    /// Decisions that raised the period.
    pub raises: u64,
    /// Decisions that lowered the period.
    pub lowers: u64,
    /// Drop fraction (per-mille) of the last evaluated window.
    pub last_window_drop_milli: u64,
}

/// The PEBS unit: per-event residual counters plus the shared buffer.
#[derive(Debug, Clone)]
pub struct Pebs {
    config: PebsConfig,
    residual: [u64; 3],
    buffer: VecDeque<SampleRecord>,
    stats: PebsStats,
    /// Stats snapshot at the adaptive controller's last decision.
    window_base: PebsStats,
    adapt: AdaptStats,
}

impl Pebs {
    /// Creates an idle PEBS unit.
    ///
    /// # Panics
    ///
    /// Panics on a configuration [`Pebs::try_new`] rejects.
    pub fn new(config: PebsConfig) -> Pebs {
        Pebs::try_new(config).expect("valid PEBS configuration")
    }

    /// Fallible constructor: rejects configurations that could never
    /// deliver a sample (zero period or capacity) or whose adaptive
    /// bounds are inverted.
    pub fn try_new(config: PebsConfig) -> Result<Pebs, PebsConfigError> {
        if config.sample_period == 0 {
            return Err(PebsConfigError::ZeroSamplePeriod);
        }
        if config.buffer_capacity == 0 {
            return Err(PebsConfigError::ZeroBufferCapacity);
        }
        if let Some(a) = config.adaptive {
            if a.min_period == 0 || a.min_period > a.max_period {
                return Err(PebsConfigError::AdaptiveBounds {
                    min: a.min_period,
                    max: a.max_period,
                });
            }
        }
        Ok(Pebs {
            config,
            residual: [0; 3],
            buffer: VecDeque::new(),
            stats: PebsStats::default(),
            window_base: PebsStats::default(),
            adapt: AdaptStats::default(),
        })
    }

    /// Configuration in effect.
    pub fn config(&self) -> &PebsConfig {
        &self.config
    }

    /// The sample period currently programmed (moves under adaptation).
    pub fn sample_period(&self) -> u64 {
        self.config.sample_period
    }

    /// Whether the self-tuning controller is armed.
    pub fn is_adaptive(&self) -> bool {
        self.config.adaptive.is_some()
    }

    /// The self-tuning controller's counters.
    pub fn adapt_stats(&self) -> AdaptStats {
        self.adapt
    }

    /// One feedback step, run by the drain loop after each pass. Looks at
    /// the window of records generated since the last decision: if the
    /// windowed drop fraction exceeds [`TARGET_DROP_MILLI`] or the backlog
    /// left after draining exceeds one drain budget, the period doubles
    /// (clamped to `max_period`); if the drop fraction is under
    /// `RELAX_DROP_MILLI` and the backlog under half a budget, the period
    /// decays to 3/4 (clamped to `min_period`). Pure integer arithmetic —
    /// replays are byte-identical. Returns the new period when it
    /// changed. No-op (and `None`) when adaptation is off or the window
    /// is still starved.
    pub fn adapt_after_drain(&mut self) -> Option<u64> {
        let a = self.config.adaptive?;
        let generated = self.stats.generated - self.window_base.generated;
        if generated < MIN_WINDOW_SAMPLES {
            return None;
        }
        let dropped = self.stats.dropped - self.window_base.dropped;
        let drop_milli = dropped * 1_000 / generated;
        self.window_base = self.stats;
        self.adapt.decisions += 1;
        self.adapt.last_window_drop_milli = drop_milli;
        let period = self.config.sample_period;
        let backlog = self.pending();
        let budget = self.drain_budget().max(1);
        let new = if drop_milli > TARGET_DROP_MILLI || backlog > budget {
            period.saturating_mul(2).min(a.max_period)
        } else if drop_milli < RELAX_DROP_MILLI && backlog * 2 < budget {
            (period * 3 / 4).max(a.min_period)
        } else {
            period
        };
        if new == period {
            return None;
        }
        if new > period {
            self.adapt.raises += 1;
        } else {
            self.adapt.lowers += 1;
        }
        self.config.sample_period = new;
        Some(new)
    }

    /// Counters.
    pub fn stats(&self) -> &PebsStats {
        &self.stats
    }

    /// Records currently waiting in the buffer.
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }

    /// Advances the event counter for `kind` by `count` events and returns
    /// how many samples fire. Deterministic: residual events carry over, so
    /// exactly one sample fires per `sample_period` events of each type.
    pub fn events(&mut self, kind: SampleType, count: u64) -> u64 {
        let r = &mut self.residual[kind.index()];
        *r += count;
        let fired = *r / self.config.sample_period;
        *r %= self.config.sample_period;
        fired
    }

    /// Appends one record; returns `false` (and counts a drop) if the
    /// buffer is full.
    pub fn push(&mut self, rec: SampleRecord) -> bool {
        self.stats.generated += 1;
        if self.buffer.len() >= self.config.buffer_capacity {
            self.stats.dropped += 1;
            return false;
        }
        self.buffer.push_back(rec);
        true
    }

    /// Counts `n` records as generated-and-dropped without touching the
    /// buffer (burst overflow beyond what the PEBS thread can drain while
    /// the burst is produced).
    pub fn drop_n(&mut self, n: u64) {
        self.stats.generated += n;
        self.stats.dropped += n;
    }

    /// Counts `n` records as generated and immediately consumed (records
    /// produced during a long batch window that the PEBS thread drains
    /// concurrently, without ever accumulating in the buffer).
    pub fn record_direct(&mut self, n: u64) {
        self.stats.generated += n;
        self.stats.drained += n;
    }

    /// Discards everything waiting in the buffer, counting each record as
    /// dropped, and returns how many were lost. An overflow storm: the
    /// hardware wrapped the buffer before the PEBS thread got to it, so
    /// the whole backlog is gone. The tracker keeps classifying on
    /// whatever samples survive; only [`PebsStats::dropped`] records the
    /// loss. Used by fault injection.
    pub fn drop_pending(&mut self) -> u64 {
        let n = self.buffer.len() as u64;
        self.buffer.clear();
        self.stats.dropped += n;
        n
    }

    /// Free buffer slots right now.
    pub fn free_space(&self) -> u64 {
        self.config
            .buffer_capacity
            .saturating_sub(self.buffer.len()) as u64
    }

    /// How many records a burst produced over `duration` can deliver
    /// without loss: free buffer space plus what the PEBS thread drains
    /// concurrently ([`hemem_sim::rate_budget`] rounding).
    pub fn burst_room(&self, duration: Ns) -> u64 {
        self.free_space() + rate_budget(self.config.drain_rate, duration)
    }

    /// Removes up to `max` records in arrival order (the PEBS thread's
    /// read).
    pub fn drain(&mut self, max: usize) -> Vec<SampleRecord> {
        let n = max.min(self.buffer.len());
        let out: Vec<SampleRecord> = self.buffer.drain(..n).collect();
        self.stats.drained += out.len() as u64;
        out
    }

    /// How many records one drain pass may consume, given the PEBS
    /// thread's processing rate and wake interval. Shares
    /// [`hemem_sim::rate_budget`]'s truncating rounding with every other
    /// rate-derived budget (this used to `ceil()`; the values are
    /// identical for all shipped configurations, whose rate × interval
    /// products are exact integers).
    pub fn drain_budget(&self) -> usize {
        rate_budget(self.config.drain_rate, self.config.drain_interval) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(addr: u64) -> SampleRecord {
        SampleRecord {
            vaddr: addr,
            kind: SampleType::Store,
        }
    }

    #[test]
    fn sampling_rate_is_exact_with_residual() {
        let mut p = Pebs::new(PebsConfig {
            sample_period: 5_000,
            ..PebsConfig::default()
        });
        let mut fired = 0;
        for _ in 0..100 {
            fired += p.events(SampleType::NvmLoad, 1_234);
        }
        assert_eq!(fired, 100 * 1_234 / 5_000);
    }

    #[test]
    fn per_type_counters_independent() {
        let mut p = Pebs::new(PebsConfig {
            sample_period: 10,
            ..PebsConfig::default()
        });
        assert_eq!(p.events(SampleType::NvmLoad, 9), 0);
        assert_eq!(p.events(SampleType::Store, 9), 0);
        assert_eq!(p.events(SampleType::NvmLoad, 1), 1);
        assert_eq!(p.events(SampleType::Store, 11), 2);
    }

    #[test]
    fn buffer_overflow_drops() {
        let mut p = Pebs::new(PebsConfig {
            buffer_capacity: 2,
            ..PebsConfig::default()
        });
        assert!(p.push(rec(1)));
        assert!(p.push(rec(2)));
        assert!(!p.push(rec(3)));
        assert_eq!(p.stats().generated, 3);
        assert_eq!(p.stats().dropped, 1);
        assert!((p.stats().drop_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn drain_is_fifo_and_bounded() {
        let mut p = Pebs::new(PebsConfig::default());
        for i in 0..10 {
            p.push(rec(i));
        }
        let got = p.drain(4);
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].vaddr, 0);
        assert_eq!(got[3].vaddr, 3);
        assert_eq!(p.pending(), 6);
        assert_eq!(p.stats().drained, 4);
        let rest = p.drain(100);
        assert_eq!(rest.len(), 6);
    }

    #[test]
    fn overflow_storm_loses_backlog_but_not_the_unit() {
        let mut p = Pebs::new(PebsConfig::default());
        for i in 0..10 {
            p.push(rec(i));
        }
        assert_eq!(p.drop_pending(), 10);
        assert_eq!(p.pending(), 0);
        assert_eq!(p.stats().dropped, 10);
        assert_eq!(p.stats().generated, 10, "drops are not new generation");
        // The unit keeps sampling after the storm.
        assert!(p.push(rec(99)));
        assert_eq!(p.drain(10).len(), 1);
    }

    #[test]
    fn drain_budget_matches_rate() {
        let p = Pebs::new(PebsConfig {
            drain_rate: 1.0e6,
            drain_interval: Ns::millis(2),
            ..PebsConfig::default()
        });
        assert_eq!(p.drain_budget(), 2_000);
    }

    #[test]
    fn low_period_overflows_high_period_does_not() {
        // Figure 10's mechanism: at small sample periods the hardware
        // outpaces the drain budget and samples drop.
        let mk = |period| {
            Pebs::new(PebsConfig {
                sample_period: period,
                buffer_capacity: 1_000,
                ..PebsConfig::default()
            })
        };
        let mut fast = mk(10);
        let mut slow = mk(10_000);
        // 100k accesses between drains.
        for p in [&mut fast, &mut slow] {
            let fired = p.events(SampleType::Store, 100_000);
            for i in 0..fired {
                p.push(rec(i));
            }
            p.drain(p.drain_budget());
        }
        assert!(fast.stats().dropped > 0, "period 10 must overflow");
        assert_eq!(slow.stats().dropped, 0, "period 10k must not overflow");
    }

    #[test]
    fn try_new_rejects_degenerate_configs() {
        assert_eq!(
            Pebs::try_new(PebsConfig {
                sample_period: 0,
                ..PebsConfig::default()
            })
            .map(|_| ()),
            Err(PebsConfigError::ZeroSamplePeriod)
        );
        assert_eq!(
            Pebs::try_new(PebsConfig {
                buffer_capacity: 0,
                ..PebsConfig::default()
            })
            .map(|_| ()),
            Err(PebsConfigError::ZeroBufferCapacity)
        );
        let mut cfg = PebsConfig::adaptive();
        cfg.adaptive.as_mut().unwrap().min_period = 0;
        assert_eq!(
            Pebs::try_new(cfg).map(|_| ()),
            Err(PebsConfigError::AdaptiveBounds {
                min: 0,
                max: 1_000_000
            })
        );
        assert!(Pebs::try_new(PebsConfig::default()).is_ok());
    }

    #[test]
    fn adaptive_raises_period_under_drop_pressure() {
        let mut p = Pebs::new(PebsConfig {
            sample_period: 10,
            buffer_capacity: 100,
            adaptive: Some(AdaptiveConfig {
                min_period: 10,
                max_period: 10_000,
            }),
            ..PebsConfig::default()
        });
        // Flood: 10k events -> 1k records into a 100-slot buffer.
        let fired = p.events(SampleType::Store, 10_000);
        for i in 0..fired {
            p.push(rec(i));
        }
        p.drain(p.drain_budget());
        assert!(p.stats().drop_fraction() > 0.5);
        assert_eq!(p.adapt_after_drain(), Some(20), "period doubles");
        assert_eq!(p.adapt_stats().raises, 1);
        assert!(p.adapt_stats().last_window_drop_milli > 500);
    }

    #[test]
    fn adaptive_relaxes_period_when_quiet() {
        let mut p = Pebs::new(PebsConfig {
            sample_period: 1_000,
            adaptive: Some(AdaptiveConfig {
                min_period: 100,
                max_period: 10_000,
            }),
            ..PebsConfig::default()
        });
        // 64 records, none dropped, all drained: well under every bound.
        let fired = p.events(SampleType::Store, 64_000);
        for i in 0..fired {
            p.push(rec(i));
        }
        p.drain(p.drain_budget());
        assert_eq!(p.adapt_after_drain(), Some(750), "period decays by 1/4");
        assert_eq!(p.adapt_stats().lowers, 1);
        // A starved window makes no decision.
        assert_eq!(p.adapt_after_drain(), None);
        assert_eq!(p.adapt_stats().decisions, 1);
    }

    #[test]
    fn adaptive_respects_bounds() {
        let mut p = Pebs::new(PebsConfig {
            sample_period: 6_000,
            adaptive: Some(AdaptiveConfig {
                min_period: 6_000,
                max_period: 6_000,
            }),
            ..PebsConfig::default()
        });
        let fired = p.events(SampleType::Store, 6_000 * 100);
        for i in 0..fired {
            p.push(rec(i));
        }
        assert_eq!(p.adapt_after_drain(), None, "pinned bounds never move");
        assert_eq!(p.sample_period(), 6_000);
    }

    #[test]
    fn non_adaptive_unit_never_adapts() {
        let mut p = Pebs::new(PebsConfig::default());
        let fired = p.events(SampleType::Store, 5_000 * 1_000);
        for i in 0..fired {
            p.push(rec(i));
        }
        assert!(!p.is_adaptive());
        assert_eq!(p.adapt_after_drain(), None);
        assert_eq!(p.adapt_stats().decisions, 0);
    }

    #[test]
    fn sample_type_helpers() {
        assert!(SampleType::Store.is_store());
        assert!(!SampleType::NvmLoad.is_store());
        for (i, t) in SampleType::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
        }
    }
}
