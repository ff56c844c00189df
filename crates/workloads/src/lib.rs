//! # hemem-workloads
//!
//! The paper's workloads, implemented as access-trace drivers over the
//! simulated machine: raw device streams ([`stream`], Figures 1-2), the
//! GUPS microbenchmark in all its §5.1 variants ([`gups`]), GAP
//! betweenness centrality on Kronecker graphs ([`graph`], Figures 14-16),
//! Silo running TPC-C ([`silo`], Figure 13), and the FlexKVS key-value
//! store ([`kvs`], Tables 3-4).

#![warn(missing_docs)]

pub mod churn;
pub mod colo;
pub mod fleet;
mod fnv;
pub mod graph;
pub mod gups;
pub mod kvs;
pub mod silo;
pub mod stream;

pub use colo::{
    run_colo, run_colo_with, ColoConfig, ColoResult, TenantKind, TenantOutcome, TenantSpec,
};
pub use fleet::{run_fleet, run_fleet_with, FleetConfig, FleetResult, LifetimeOutcome};
pub use graph::{Bc, BcResult, GraphConfig};
pub use gups::{run_gups, Gups, GupsConfig, GupsResult};
pub use kvs::{run_kvs, Kvs, KvsConfig, KvsResult, TierRho};
pub use silo::{run_silo, Silo, SiloConfig, SiloResult};
pub use stream::{run_stream, StreamConfig, StreamResult};
