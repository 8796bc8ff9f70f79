//! StorM: tenant-defined cloud storage middle-box services.
//!
//! Umbrella crate re-exporting the whole workspace. See the individual
//! crates for details; [`storm_core`] holds the paper's contribution.
//! Two things are defined here: [`scenario`], the paper's single-tenant
//! testbed as a value, which `tests/` and `examples/` build on, and
//! [`faults`], deterministic fault injection over a whole cloud.

#![warn(missing_docs)]

pub mod faults;
pub mod scenario;

pub use storm_block as block;
pub use storm_cloud as cloud;
pub use storm_cloud::qos;
pub use storm_core as core;
pub use storm_crypto as crypto;
pub use storm_extfs as extfs;
pub use storm_iscsi as iscsi;
pub use storm_net as net;
pub use storm_nvmeq as nvmeq;
pub use storm_services as services;
pub use storm_sim as sim;
pub use storm_telemetry as telemetry;
pub use storm_workloads as workloads;
