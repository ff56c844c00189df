//! # hemem-baselines
//!
//! Every tiered-memory manager the paper compares HeMem against, built on
//! the same machine model: Intel Optane Memory Mode hardware caching
//! ([`memory_mode`]), Linux Nimble kernel scanning/migration ([`nimble`]),
//! X-Mem static placement and the DRAM/NVM reference configurations
//! ([`static_tier`]), and HeMem's own page-table-scanning ablation
//! variants ([`pt_hemem`]).

#![warn(missing_docs)]

pub mod any;
pub mod memory_mode;
pub mod nimble;
pub mod pt_hemem;
pub mod scan;
pub mod spill3;
pub mod static_tier;

pub use any::{AnyBackend, BackendKind};
pub use memory_mode::{MemoryMode, MemoryModeStats};
pub use nimble::{Nimble, NimbleConfig, NimbleStats};
pub use pt_hemem::{HeMemPt, PtMode, PtStats};
pub use scan::{scan_and_classify, ScanOutcome};
pub use spill3::SpillTier3;
pub use static_tier::{StaticPolicy, StaticTier};
