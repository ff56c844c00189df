//! Virtual time.
//!
//! All simulation time is expressed in integer nanoseconds wrapped in the
//! [`Ns`] newtype. Using an integer keeps event ordering exact and the
//! simulation deterministic; helper constructors keep call sites readable.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in (or span of) virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ns(pub u64);

impl Ns {
    /// The zero instant.
    pub const ZERO: Ns = Ns(0);
    /// The largest representable instant; used as "never".
    pub const MAX: Ns = Ns(u64::MAX);

    /// Creates a time span of `n` nanoseconds.
    pub const fn nanos(n: u64) -> Ns {
        Ns(n)
    }

    /// Creates a time span of `n` microseconds.
    pub const fn micros(n: u64) -> Ns {
        Ns(n * 1_000)
    }

    /// Creates a time span of `n` milliseconds.
    pub const fn millis(n: u64) -> Ns {
        Ns(n * 1_000_000)
    }

    /// Creates a time span of `n` seconds.
    pub const fn secs(n: u64) -> Ns {
        Ns(n * 1_000_000_000)
    }

    /// Creates a time span from a fractional second count, rounding down.
    pub fn from_secs_f64(s: f64) -> Ns {
        debug_assert!(s >= 0.0, "negative time span");
        Ns((s * 1e9) as u64)
    }

    /// Creates a time span from fractional nanoseconds, rounding to nearest.
    pub fn from_nanos_f64(n: f64) -> Ns {
        debug_assert!(n >= 0.0, "negative time span");
        Ns((n + 0.5) as u64)
    }

    /// This instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This instant as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Saturating subtraction; returns [`Ns::ZERO`] on underflow.
    pub fn saturating_sub(self, other: Ns) -> Ns {
        Ns(self.0.saturating_sub(other.0))
    }

    /// Saturating addition; returns [`Ns::MAX`] on overflow.
    pub fn saturating_add(self, other: Ns) -> Ns {
        Ns(self.0.saturating_add(other.0))
    }

    /// Scales this span by a non-negative factor, saturating on overflow.
    pub fn scale(self, factor: f64) -> Ns {
        debug_assert!(factor >= 0.0, "negative scale factor");
        let v = self.0 as f64 * factor;
        if v >= u64::MAX as f64 {
            Ns::MAX
        } else {
            Ns(v as u64)
        }
    }
}

impl Add for Ns {
    type Output = Ns;

    fn add(self, rhs: Ns) -> Ns {
        Ns(self.0 + rhs.0)
    }
}

impl AddAssign for Ns {
    fn add_assign(&mut self, rhs: Ns) {
        self.0 += rhs.0;
    }
}

impl Sub for Ns {
    type Output = Ns;

    fn sub(self, rhs: Ns) -> Ns {
        Ns(self.0 - rhs.0)
    }
}

/// Whole units a process running at `rate_per_sec` completes in `window`.
///
/// This is the single rounding rule for every rate-derived budget in the
/// simulator — migration bytes per policy period, PEBS records per drain
/// pass, PEBS burst headroom. The product is truncated toward zero
/// (floor for the non-negative inputs allowed here): a budget never
/// exceeds what the rate actually delivers in the window, so repeated
/// periods cannot creep ahead of the configured rate by a unit per
/// period. Callers that used to `ceil()` (the PEBS drain budget) see the
/// same values for every shipped configuration, where the products are
/// exact integers in `f64`.
pub fn rate_budget(rate_per_sec: f64, window: Ns) -> u64 {
    debug_assert!(rate_per_sec >= 0.0, "negative rate");
    (rate_per_sec * window.as_secs_f64()) as u64
}

impl fmt::Display for Ns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Ns::micros(1), Ns(1_000));
        assert_eq!(Ns::millis(1), Ns(1_000_000));
        assert_eq!(Ns::secs(1), Ns(1_000_000_000));
        assert_eq!(Ns::secs(2) + Ns::millis(500), Ns(2_500_000_000));
    }

    #[test]
    fn float_round_trips() {
        assert_eq!(Ns::from_secs_f64(1.5), Ns(1_500_000_000));
        assert!((Ns::secs(3).as_secs_f64() - 3.0).abs() < 1e-12);
        assert_eq!(Ns::from_nanos_f64(10.6), Ns(11));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Ns(5).saturating_sub(Ns(10)), Ns::ZERO);
        assert_eq!(Ns::MAX.saturating_add(Ns(1)), Ns::MAX);
        assert_eq!(Ns::MAX.scale(2.0), Ns::MAX);
        assert_eq!(Ns(100).scale(0.5), Ns(50));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Ns(12)), "12ns");
        assert_eq!(format!("{}", Ns::micros(3)), "3.000us");
        assert_eq!(format!("{}", Ns::millis(3)), "3.000ms");
        assert_eq!(format!("{}", Ns::secs(3)), "3.000s");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Ns(1) < Ns(2));
        assert!(Ns::ZERO < Ns::MAX);
    }

    #[test]
    fn rate_budget_floors_exact_products() {
        // The three shipped budget computations, all exact in f64:
        // migration 10 GB/s over 10 ms, PEBS drain 0.5M/s over 1 ms,
        // and the drain-budget test config 1M/s over 2 ms.
        assert_eq!(rate_budget(10.0e9, Ns::millis(10)), 100_000_000);
        assert_eq!(rate_budget(0.5e6, Ns::millis(1)), 500);
        assert_eq!(rate_budget(1.0e6, Ns::millis(2)), 2_000);
    }

    #[test]
    fn rate_budget_truncates_fractional_products() {
        assert_eq!(rate_budget(1.0, Ns::millis(500)), 0, "half a unit is zero");
        assert_eq!(rate_budget(1500.0, Ns::millis(1)), 1);
        assert_eq!(rate_budget(0.0, Ns::secs(10)), 0);
    }
}
