//! The three tenant-defined middle-box services of the paper's case
//! studies (§V-B).
//!
//! * [`MonitorService`] — the storage access monitor: classification /
//!   update / analysis over reconstructed file operations, watch lists and
//!   alerts (Case 1; Tables I–III).
//! * [`EncryptionService`] — on-the-fly data encryption: AES-256-XTS per
//!   sector in the active relay (the dm-crypt equivalent) or a seekable
//!   ChaCha20 stream cipher usable even on the passive path (Case 2;
//!   Figures 5, 8, 10, 11).
//! * [`ReplicationService`] — tenant-defined replica dispatch: ordered
//!   write fan-out to backup volumes, striped reads across replicas,
//!   failure detection and removal (Case 3; Figure 13).
//!
//! Beyond the paper's three case studies, the data-reduction & caching
//! suite extends the catalogue:
//!
//! * [`WriteBackCacheService`] — journal-backed write-back block cache:
//!   absorbs write bursts at journal latency, flushes lazily, recovers
//!   crash-consistently ([`recover_journal`]).
//! * [`DedupService`] — content-defined-chunk dedup: Gear rolling-hash
//!   chunking plus a fingerprint index; inspection-only, so the verbatim
//!   zero-copy path survives even when armed.
//! * [`CompressService`] — inline per-extent compression with
//!   skip-if-incompressible and self-validating frames.
//! * [`SnapshotService`] — instant block-level snapshots with
//!   copy-on-first-write, materializable into clones.

#![warn(missing_docs)]

mod cache;
pub mod catalog;
mod compress;
mod dedup;
mod encryption;
mod lz;
mod monitor;
mod replication;
mod snapshot;

pub use cache::{recover_journal, CacheConfig, CacheStats, RecoveryReport, WriteBackCacheService};
pub use catalog::{build_chain, CatalogError};
pub use compress::{CompressService, CompressStats};
pub use dedup::{DedupService, DedupStats};
pub use encryption::{CipherKind, EncryptionService};
pub use monitor::{MonitorConfig, MonitorService, NumberedAccess};
pub use replication::{ReplicationService, ReplicationStats};
pub use snapshot::{SnapStats, SnapshotService};
