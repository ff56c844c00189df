//! Proportional-share CPU core model.
//!
//! The evaluation socket has 24 cores. Application threads, the HeMem
//! background threads (page-fault handler, PEBS reader, policy thread) and
//! baseline kernel threads all compete for them. When the number of
//! runnable simulated threads exceeds the core count, CPU-bound work
//! dilates proportionally — this is what makes HeMem lose ~10% GUPS to
//! Memory Mode at 21+ threads in Figure 7 while a pure hardware approach
//! consumes no cores.

/// Shared view of core occupancy.
#[derive(Debug, Clone)]
pub struct CoreModel {
    cores: u32,
    runnable: u32,
}

impl CoreModel {
    /// Creates a model of a socket with `cores` cores.
    pub fn new(cores: u32) -> CoreModel {
        assert!(cores > 0, "need at least one core");
        CoreModel { cores, runnable: 0 }
    }

    /// Number of physical cores.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Number of currently runnable simulated threads.
    pub fn runnable(&self) -> u32 {
        self.runnable
    }

    /// Marks one thread runnable for the duration of a work item.
    pub fn acquire(&mut self) {
        self.runnable += 1;
    }

    /// Marks one thread no longer runnable.
    pub fn release(&mut self) {
        debug_assert!(self.runnable > 0, "release without acquire");
        self.runnable = self.runnable.saturating_sub(1);
    }

    /// Current time-dilation factor for CPU-bound work: 1.0 while the
    /// machine is under-subscribed, `runnable / cores` once oversubscribed.
    pub fn dilation(&self) -> f64 {
        if self.runnable <= self.cores {
            1.0
        } else {
            self.runnable as f64 / self.cores as f64
        }
    }
}

/// RAII-free scoped helper: acquire on `begin`, pass the token back to
/// `end`. (The machine stores `CoreModel` inside a larger state struct, so
/// borrow-based RAII guards are impractical.)
#[derive(Debug)]
#[must_use = "a CoreToken must be returned via CoreModel-aware release"]
pub struct CoreToken(());

impl CoreModel {
    /// Acquires a core slot and returns a token the caller must pass to
    /// [`CoreModel::end`] when the work completes.
    pub fn begin(&mut self) -> CoreToken {
        self.acquire();
        CoreToken(())
    }

    /// Releases the slot associated with `token`.
    pub fn end(&mut self, token: CoreToken) {
        let CoreToken(()) = token;
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_dilation_until_oversubscribed() {
        let mut m = CoreModel::new(4);
        for _ in 0..4 {
            m.acquire();
        }
        assert_eq!(m.dilation(), 1.0);
        m.acquire();
        assert!((m.dilation() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn release_lowers_dilation() {
        let mut m = CoreModel::new(2);
        for _ in 0..4 {
            m.acquire();
        }
        assert_eq!(m.dilation(), 2.0);
        m.release();
        m.release();
        assert_eq!(m.dilation(), 1.0);
    }

    #[test]
    fn token_round_trip() {
        let mut m = CoreModel::new(1);
        let t = m.begin();
        assert_eq!(m.runnable(), 1);
        m.end(t);
        assert_eq!(m.runnable(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "release without acquire")]
    fn unbalanced_release_panics_in_debug() {
        let mut m = CoreModel::new(1);
        m.release();
    }
}
