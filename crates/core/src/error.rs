//! Typed errors for the fallible memory-management paths.
//!
//! The runtime's fault and reclaim paths used to `panic!` on exhaustion;
//! under fault injection these conditions become reachable, so they are
//! typed here and surfaced through `Sim::try_fault_page`. The infallible `Sim::fault_page` keeps the
//! original semantics — a fault that cannot be satisfied is the machine's
//! OOM kill — by panicking centrally with the typed cause.

use hemem_vmm::PageId;

/// Fatal memory-management failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Both memory tiers are exhausted and the backend has nothing left
    /// to reclaim.
    OutOfMemory,
    /// Direct reclaim needs somewhere to demote to: no online tier below
    /// the memory tiers.
    NoSwapDevice,
    /// The SSD tier has no free frames left.
    SwapExhausted,
    /// The backend handed a reclaim victim that is not a plain mapped
    /// page (already migrating, on the SSD, or unmapped).
    ReclaimVictimBusy(PageId),
}

impl core::fmt::Display for MemError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MemError::OutOfMemory => {
                write!(f, "both memory tiers exhausted and backend cannot reclaim")
            }
            MemError::NoSwapDevice => {
                write!(f, "no online tier below the memory tiers to reclaim into")
            }
            MemError::SwapExhausted => write!(f, "SSD tier exhausted"),
            MemError::ReclaimVictimBusy(p) => {
                write!(f, "reclaim victim {p:?} is not a plain mapped page")
            }
        }
    }
}

impl std::error::Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;
    use hemem_vmm::RegionId;

    #[test]
    fn errors_render() {
        assert!(MemError::OutOfMemory.to_string().contains("exhausted"));
        assert!(MemError::NoSwapDevice
            .to_string()
            .contains("no online tier"));
        assert!(MemError::SwapExhausted.to_string().contains("SSD tier"));
        let p = PageId {
            region: RegionId(1),
            index: 7,
        };
        assert!(MemError::ReclaimVictimBusy(p)
            .to_string()
            .contains("victim"));
    }
}
