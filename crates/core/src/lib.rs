//! # hemem-core
//!
//! The HeMem reproduction's core: the simulated machine
//! ([`machine::MachineCore`]), the deterministic event-loop runtime
//! ([`runtime::Sim`]), the backend interface every tiered memory manager
//! implements ([`backend::TieredBackend`]), and HeMem itself ([`hemem`]).
//!
//! # Examples
//!
//! ```
//! use hemem_core::hemem::{HeMem, HeMemConfig};
//! use hemem_core::{machine::MachineConfig, runtime::Sim};
//!
//! let mut sim = Sim::new(MachineConfig::small(1, 4), HeMem::new(HeMemConfig::paper()));
//! let region = sim.mmap(2 << 30); // 2 GiB managed heap
//! sim.populate(region, true);
//! assert_eq!(sim.m.space.region(region).mapped_pages(), 1024);
//! ```

#![warn(missing_docs)]

pub mod arbiter;
pub mod audit;
pub mod backend;
pub mod error;
pub mod fleet;
pub mod hemem;
pub mod journal;
pub mod machine;
pub mod runtime;
pub mod telemetry;

pub use arbiter::{ArbiterPolicy, DramArbiter, TenantSignal};
pub use audit::{audit_machine, AuditViolation};
pub use backend::{
    AccessBatch, CopyMechanism, MigrationJob, SegmentAccess, TickOutput, TieredBackend, Traffic,
};
pub use error::MemError;
pub use fleet::{spawn_cost_ns, FleetStats, SlotPool};
pub use hemem::{HeMem, HeMemConfig};
pub use journal::{JournalEntry, MigrationJournal, TxnState};
pub use machine::{MachineConfig, MachineCore, MachineStats, RecoveryStats};
pub use runtime::{BatchReceipt, Event, Sim};
