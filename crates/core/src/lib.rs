//! StorM: the tenant-defined storage middle-box platform (the paper's
//! contribution).
//!
//! StorM lets each tenant run its own storage security/reliability
//! services in virtualized middle-boxes between its VMs and the cloud's
//! block storage. This crate implements the platform's three pillars:
//!
//! * **Network splicing** ([`splice`], [`platform`]) — storage-gateway
//!   pairs bridge the isolated storage and instance networks; NAT
//!   masquerading keeps storage addresses invisible; steering rules with
//!   per-flow pinning implement the paper's *atomic attachment* so only
//!   the intended volume's flows divert; the SDN controller
//!   ([`storm_cloud::sdn`]) threads flows through middle-box chains.
//! * **An efficient interception API** ([`relay`]) — the *passive relay*
//!   hooks forwarded packets (one kernel→user copy per packet) while the
//!   *active relay* terminates TCP at the middle-box (split connections,
//!   immediate acknowledgement, bounded persistence buffer with
//!   backpressure) so service processing leaves the ack path.
//! * **Semantics reconstruction** ([`semantics`]) — rebuilds file-level
//!   operations (Tables I–III) from raw block traffic using the
//!   dumpe2fs-style [`storm_extfs::FsView`] plus live parsing of inode
//!   table, directory and indirect-block writes.
//!
//! Tenant intent enters through [`policy`] documents; [`service`] defines
//! the `StorageService` API tenant middle-box logic implements
//! (monitoring, encryption and replication live in `storm-services`).

#![warn(missing_docs)]

pub mod platform;
pub mod policy;
pub mod relay;
pub mod semantics;
pub mod service;
pub mod splice;

pub use platform::{ChainDeployment, MbSpec, RelayMode, StormPlatform};
pub use policy::{ServiceSpec, TenantPolicy, VolumePolicy};
pub use relay::{ActiveRelayConfig, ActiveRelayMb, MbControl, PassiveTap, RelayCopyStats};
pub use semantics::{FsAccess, FsOp, FsTargetKind, Reconstructor};
pub use service::{Dir, Op, ReplicaIo, StorageService, SvcAction, SvcCtx};
pub use splice::GatewayPair;
