//! The OpenStack-like cloud under StorM.
//!
//! Builds the paper's Figure-1 testbed in the simulator: compute hosts and
//! storage hosts, each with NICs on two isolated networks (the *storage
//! network* and the *instance network*), per-host OVS switches for VM
//! vifs, a Cinder-like volume service exporting iSCSI targets, and a
//! Nova-like facility for spawning middle-box VMs and gateway namespaces.
//!
//! Key pieces:
//!
//! * [`Cloud`] / [`CloudConfig`] — topology assembly.
//! * [`TargetHostApp`] — the storage host: iSCSI target + disk model
//!   ([`DiskSpec`]) with seek/transfer costs and an LRU cache.
//! * [`VolumeClient`] + [`Workload`] — a tenant VM's virtio-blk path: the
//!   host-side iSCSI initiator driven by a pluggable workload, with
//!   per-VM CPU labels feeding the Figure-10 utilization breakdown.
//! * [`qos`] + [`ProvisioningEngine`] — per-tenant rate limits, weighted
//!   fair dispatch and SLO-driven tier placement on the storage hosts.
//! * [`sdn`] — the SDN controller primitives that install Figure-3 chain
//!   rules.
//! * [`Attribution`] — connection attribution: which VM owns which iSCSI
//!   4-tuple (paper §III-A).

#![warn(missing_docs)]

mod attribution;
mod client;
mod disk;
mod provision;
pub mod qos;
pub mod sdn;
mod target;
mod topology;

pub use attribution::Attribution;
pub use client::{
    ClientStats, IoCtx, IoKind, IoResult, ReqId, VolumeClient, VolumeClientConfig, Workload,
};
pub use disk::{DiskModel, DiskSpec};
pub use provision::ProvisioningEngine;
pub use target::{TargetHostApp, TargetHostConfig};
pub use topology::{Cloud, CloudConfig, ComputeHost, GuestVm, StorageHost, VolumeHandle};
