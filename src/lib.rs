//! StorM: tenant-defined cloud storage middle-box services.
//!
//! Umbrella crate re-exporting the whole workspace. See the individual
//! crates for details; [`storm_core`] holds the paper's contribution.
//! [`scenario`] is the one thing defined here: the paper's single-tenant
//! testbed as a value, which `tests/` and `examples/` build on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenario;

pub use storm_block as block;
pub use storm_cloud as cloud;
pub use storm_core as core;
pub use storm_crypto as crypto;
pub use storm_extfs as extfs;
pub use storm_faults as faults;
pub use storm_iscsi as iscsi;
pub use storm_net as net;
pub use storm_nvmeq as nvmeq;
pub use storm_qos as qos;
pub use storm_services as services;
pub use storm_sim as sim;
pub use storm_telemetry as telemetry;
pub use storm_workloads as workloads;
