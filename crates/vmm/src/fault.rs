//! Userfaultfd-style fault channel model.
//!
//! HeMem registers managed ranges with `userfaultfd`; the kernel forwards
//! page-missing and write-protection faults to a dedicated user-level
//! fault-handling thread (§3.2). We model the costs of that round trip:
//! the faulting thread stalls for kernel entry + event delivery + handler
//! service + wakeup. Write-protection faults during migration additionally
//! wait for the in-flight copy to finish.

use hemem_sim::Ns;

use crate::addr::PageId;

/// Why a fault was raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// First touch of an unmapped page.
    Missing,
    /// Store hit a write-protected (migrating) page.
    WriteProtect,
}

/// A fault event delivered to the manager's fault thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Faulting page.
    pub page: PageId,
    /// Fault class.
    pub kind: FaultKind,
    /// Whether the faulting access was a store.
    pub is_write: bool,
}

// A userfaultfd round trip costs several microseconds; the paper notes
// this is irrelevant at steady state because big-memory applications
// fault only during warm-up (§5, "Overhead of userfaultfd").
/// Kernel fault entry + userfaultfd event delivery to the handler.
const DELIVER: Ns = Ns::micros(3);
/// Handler-side service (ioctl to map a zero page / adjust protection).
const SERVICE: Ns = Ns::micros(4);
/// Wakeup of the faulting thread.
const WAKE: Ns = Ns::micros(2);

/// Total stall of a faulting thread, excluding any queueing at the
/// handler and any wait for migration: delivery + service + wakeup.
pub const ROUND_TRIP: Ns = Ns(DELIVER.as_nanos() + SERVICE.as_nanos() + WAKE.as_nanos());

/// Faults per second HeMem's single fault-handling thread sustains; a
/// fault storm queues behind it (§5: "userfaultfd can slow down
/// applications with frequent page faults").
const THREAD_RATE: f64 = 250_000.0;

/// The single fault-handling thread: a FIFO server with a fixed service
/// rate. Faults arriving faster than `THREAD_RATE` (250 k/s) queue,
/// and every queued fault stalls its application thread for the backlog.
#[derive(Debug, Clone, Default)]
pub struct FaultThread {
    free_at: Ns,
}

impl FaultThread {
    /// Creates an idle fault thread.
    pub fn new() -> FaultThread {
        FaultThread::default()
    }

    /// Admits one fault at `now`; returns the extra stall beyond the base
    /// round trip (queueing behind earlier faults).
    pub fn admit(&mut self, now: Ns) -> Ns {
        let service = Ns::from_secs_f64(1.0 / THREAD_RATE);
        let start = now.max(self.free_at);
        self.free_at = start + service;
        start.saturating_sub(now)
    }

    /// Stalls the handler until at least `now + dur`: it accepts no fault
    /// before then, and every fault arriving meanwhile queues behind the
    /// stall. Models the handler thread being descheduled or wedged in a
    /// slow kernel path; used by fault injection.
    pub fn stall(&mut self, now: Ns, dur: Ns) {
        self.free_at = self.free_at.max(now + dur);
    }

    /// Current backlog at the handler.
    pub fn backlog(&self, now: Ns) -> Ns {
        self.free_at.saturating_sub(now)
    }
}

/// Cumulative fault counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultStats {
    /// Page-missing faults handled.
    pub missing: u64,
    /// Write-protection faults handled.
    pub wp: u64,
    /// Total stall time inflicted on faulting threads.
    pub stall: Ns,
}

impl FaultStats {
    /// Records a handled fault.
    pub fn record(&mut self, kind: FaultKind, stall: Ns) {
        match kind {
            FaultKind::Missing => self.missing += 1,
            FaultKind::WriteProtect => self.wp += 1,
        }
        self.stall += stall;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::RegionId;

    #[test]
    fn round_trip_sums_components() {
        assert_eq!(ROUND_TRIP, Ns::micros(9));
    }

    #[test]
    fn stats_record_by_kind() {
        let mut s = FaultStats::default();
        s.record(FaultKind::Missing, Ns::micros(9));
        s.record(FaultKind::Missing, Ns::micros(9));
        s.record(FaultKind::WriteProtect, Ns::micros(50));
        assert_eq!(s.missing, 2);
        assert_eq!(s.wp, 1);
        assert_eq!(s.stall, Ns::micros(68));
    }

    #[test]
    fn fault_thread_queues_storms() {
        let mut t = FaultThread::new();
        // First fault: no queueing.
        assert_eq!(t.admit(Ns::ZERO), Ns::ZERO);
        // A burst of 1000 faults at the same instant queues linearly.
        let mut last = Ns::ZERO;
        for _ in 0..1000 {
            last = t.admit(Ns::ZERO);
        }
        assert!(last >= Ns::micros(4_000), "1000 faults at 250k/s: {last}");
        // After the backlog drains, admission is free again.
        let after = Ns(t.backlog(Ns::ZERO).as_nanos() + 1);
        assert_eq!(t.admit(after), Ns::ZERO);
    }

    #[test]
    fn fault_thread_keeps_up_with_slow_arrivals() {
        let mut t = FaultThread::new();
        for i in 0..100u64 {
            // One fault per 100 us: far below 250 k/s.
            let stall = t.admit(Ns::micros(100 * i));
            assert_eq!(stall, Ns::ZERO, "fault {i} queued unexpectedly");
        }
    }

    #[test]
    fn stalled_thread_queues_arrivals_behind_the_stall() {
        let mut t = FaultThread::new();
        t.stall(Ns::ZERO, Ns::millis(1));
        assert_eq!(t.backlog(Ns::ZERO), Ns::millis(1));
        // A fault during the stall waits out the remainder.
        let stall = t.admit(Ns::micros(200));
        assert_eq!(stall, Ns::micros(800));
        // A stall never shortens an existing backlog.
        t.stall(Ns::ZERO, Ns::micros(1));
        assert!(t.backlog(Ns::micros(200)) > Ns::micros(800));
    }

    #[test]
    fn fault_event_is_plain_data() {
        let f = Fault {
            page: PageId {
                region: RegionId(0),
                index: 3,
            },
            kind: FaultKind::WriteProtect,
            is_write: true,
        };
        assert_eq!(f.kind, FaultKind::WriteProtect);
        assert!(f.is_write);
    }
}
