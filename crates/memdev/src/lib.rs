//! # hemem-memdev
//!
//! Memory-device models for the HeMem reproduction: DDR4 DRAM and Intel
//! Optane DC NVM queueing models with asymmetric bandwidth and media-
//! granularity amplification ([`device`]), a shared last-level cache
//! filter ([`llc`]), the direct-mapped DRAM cache behind Optane Memory
//! Mode ([`dramcache`]), and an I/OAT-style DMA copy engine ([`dma`]).
//!
//! These models substitute for the paper's physical testbed; DESIGN.md §1
//! records each substitution and why it preserves the relevant behaviour.

#![warn(missing_docs)]

pub mod config;
pub mod device;
pub mod dma;
pub mod dramcache;
pub mod llc;
pub mod ssd;

pub use config::{DeviceConfig, MemOp, Pattern, GIB};
pub use device::{Device, DeviceStats, Reservation};
pub use dma::{DmaConfig, DmaEngine, DmaError, DmaStats};
pub use dramcache::{CacheOutcome, CacheStats, DramCache, DramCacheConfig};
pub use llc::Llc;
pub use ssd::{SsdConfig, SsdDevice, SsdStats};
