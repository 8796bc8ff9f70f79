//! iSCSI for StorM: wire-format codec and sans-io endpoint state machines.
//!
//! The paper's storage network speaks iSCSI between compute-host initiators
//! (Open-iSCSI) and Cinder targets (LIO); StorM's middle-box API
//! "provides iSCSI parsing logic ... to decapsulate and encapsulate iSCSI
//! packets". No maintained Rust iSCSI crate exists, so this crate
//! implements the needed subset of RFC 7143 from scratch:
//!
//! * [`Pdu`] — typed PDUs (Login, SCSI Command/Response, Data-In/Out, R2T)
//!   with exact 48-byte BHS encode/decode; any other opcode is refused.
//! * [`Cdb`] — SCSI CDBs (READ/WRITE 10/16, SYNCHRONIZE CACHE).
//! * [`PduStream`] / [`push_pdu`] — incremental framing over a TCP byte
//!   stream, and the PDU encoder every sender shares.
//! * [`exchange`] — how an iSCSI command conversation maps to block I/O:
//!   the checked command decoder, the PDU builders, the
//!   [`exchange::Exchange`] table.
//! * [`Initiator`] / [`TargetConn`] — sans-io session state machines:
//!   bytes in, events + bytes out; no I/O or clock dependencies, so they
//!   run both inside the simulator and in threaded pipelines. They
//!   implement the traits of [`storm_block::transport`], and speak its
//!   block vocabulary.
//! * Session parameters are fixed, not negotiated: every login declares
//!   InitialR2T=No, ImmediateData=Yes and the limits
//!   [`MAX_RECV_DATA_SEGMENT_LENGTH`], [`FIRST_BURST_LENGTH`] and
//!   [`MAX_BURST_LENGTH`], and neither end reads the other's keys beyond
//!   the names ([`storm_block::transport::scan_text`]).
//!
//! # Example: login and a 4 KiB write, initiator against target
//!
//! ```
//! use storm_block::transport::{ScsiStatus, TargetEvent, TransportEvent};
//! use storm_iscsi::{Initiator, InitiatorConfig, TargetConn, TargetConfig};
//!
//! let mut ini = Initiator::new(InitiatorConfig::example());
//! let mut tgt = TargetConn::new(TargetConfig::example(2048));
//!
//! ini.start_login();
//! // Shuttle wire chunks until the session reaches full-feature phase.
//! let mut logged_in = false;
//! for _ in 0..8 {
//!     for chunk in ini.take_wire() { let _ = tgt.feed_bytes(chunk); }
//!     for chunk in tgt.take_wire() {
//!         logged_in |= ini.feed_bytes(chunk).contains(&TransportEvent::Ready);
//!     }
//! }
//! assert!(logged_in);
//!
//! let tag = ini.write(0, bytes::Bytes::from(vec![0xAA; 4096]));
//! let mut done = false;
//! for _ in 0..8 {
//!     let wire = ini.take_wire();
//!     for ev in wire.into_iter().flat_map(|c| tgt.feed_bytes(c)).collect::<Vec<_>>() {
//!         if let TargetEvent::WriteReady { itt, lba, data } = ev {
//!             assert_eq!(lba, 0);
//!             assert_eq!(data.len(), 4096);
//!             tgt.complete_write(itt, ScsiStatus::Good);
//!         }
//!     }
//!     for ev in tgt.take_wire().into_iter().flat_map(|c| ini.feed_bytes(c)) {
//!         if let TransportEvent::WriteDone { tag: t, status } = ev {
//!             assert_eq!(t, tag);
//!             assert_eq!(status, ScsiStatus::Good);
//!             done = true;
//!         }
//!     }
//! }
//! assert!(done);
//! ```

#![warn(missing_docs)]

mod cdb;
pub mod exchange;
mod initiator;
mod params;
mod pdu;
mod stream;
mod target;

pub use cdb::Cdb;
pub use initiator::{Initiator, InitiatorConfig};
pub use params::{FIRST_BURST_LENGTH, MAX_BURST_LENGTH, MAX_RECV_DATA_SEGMENT_LENGTH};
pub use pdu::{
    data_segment_length, DataIn, DataOut, LoginRequest, LoginResponse, Pdu, PduError, R2t,
    ScsiCommand, ScsiResponse, WireChunks, BHS_LEN,
};
pub use stream::{push_pdu, PduStream, PduWire};
pub use target::{TargetConfig, TargetConn};

// These live in `storm_block::transport`; the frozen benchmark imports
// them from here. Delete this line with the next benchmark PR.
pub use storm_block::transport::{ScsiStatus, TargetEvent, Transport, TransportKind};

/// The IANA-assigned iSCSI target port. A storage host serves nvmeq on it
/// too: it tells the protocols apart by a connection's first byte.
pub const ISCSI_PORT: u16 = 3260;
