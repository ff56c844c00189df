//! # hemem-vmm
//!
//! Virtual-memory substrate for the HeMem reproduction: address spaces and
//! managed regions with per-page tier residency ([`space`]), physical page
//! pools over DAX files ([`pool`]), the page-table scan cost model of
//! Figure 3 ([`ptscan`]), TLB/shootdown costs ([`tlb`]), lazily-sampled
//! accessed/dirty bits ([`ledger`]), and the userfaultfd-style fault
//! channel ([`fault`]).

#![warn(missing_docs)]

pub mod addr;
pub mod fault;
pub mod fenwick;
pub mod ledger;
pub mod pool;
pub mod ptscan;
pub mod space;
pub mod tlb;

pub use addr::{PageId, PageSize, RegionId, TenantId, Tier, VirtAddr, VirtRange};
pub use fault::{Fault, FaultConfig, FaultKind, FaultStats, FaultThread};
pub use fenwick::FlagTree;
pub use ledger::{touched_probability, AccessLedger};
pub use pool::{PhysPage, PhysPool};
pub use ptscan::ScanConfig;
pub use space::{
    AddressSpace, PageClass, PageState, Region, RegionKind, RegionSnapshot, SpaceSnapshot,
    StateError, TenantFrames,
};
pub use tlb::{Tlb, TlbConfig, TlbStats};
