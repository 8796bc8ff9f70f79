//! iSCSI for StorM: wire-format codec and sans-io endpoint state machines.
//!
//! The paper's storage network speaks iSCSI between compute-host initiators
//! (Open-iSCSI) and Cinder targets (LIO); StorM's middle-box API
//! "provides iSCSI parsing logic ... to decapsulate and encapsulate iSCSI
//! packets". No maintained Rust iSCSI crate exists, so this crate
//! implements the needed subset of RFC 7143 from scratch:
//!
//! * [`Pdu`] — typed PDUs (Login, SCSI Command/Response, Data-In/Out, R2T,
//!   NOP, Text, Logout) with exact 48-byte BHS encode/decode.
//! * [`Cdb`] — SCSI CDBs (READ/WRITE 10/16, READ CAPACITY, INQUIRY, TEST
//!   UNIT READY, SYNCHRONIZE CACHE).
//! * [`PduStream`] — incremental framing over a TCP byte stream.
//! * [`exchange`] — the one model of a command conversation every
//!   consumer shares: checked [`exchange::BlockCmd`]s, the
//!   [`exchange::Transfer`] assembler, the [`exchange::Exchange`] table.
//! * [`Initiator`] / [`TargetConn`] — sans-io session state machines:
//!   bytes in, events + bytes out; no I/O or clock dependencies, so they
//!   run both inside the simulator and in threaded pipelines.
//!
//! # Example: login and a 4 KiB write, initiator against target
//!
//! ```
//! use storm_iscsi::{Initiator, InitiatorConfig, TargetConn, TargetConfig, TargetEvent,
//!                   TransportEvent, ScsiStatus};
//!
//! let mut ini = Initiator::new(InitiatorConfig::example());
//! let mut tgt = TargetConn::new(TargetConfig::example(2048));
//!
//! ini.start_login();
//! // Shuttle bytes until the session reaches full-feature phase.
//! let mut logged_in = false;
//! for _ in 0..8 {
//!     for ev in tgt.feed(&ini.take_output()) { let _ = ev; }
//!     for ev in ini.feed(&tgt.take_output()) {
//!         if matches!(ev, TransportEvent::Ready) { logged_in = true; }
//!     }
//! }
//! assert!(logged_in);
//!
//! let tag = ini.write(0, bytes::Bytes::from(vec![0xAA; 4096]));
//! let mut done = false;
//! for _ in 0..8 {
//!     for ev in tgt.feed(&ini.take_output()) {
//!         if let TargetEvent::WriteReady { itt, lba, data } = ev {
//!             assert_eq!(lba, 0);
//!             assert_eq!(data.len(), 4096);
//!             tgt.complete_write(itt, ScsiStatus::Good);
//!         }
//!     }
//!     for ev in ini.feed(&tgt.take_output()) {
//!         if let TransportEvent::WriteDone { tag: t, status } = ev {
//!             assert_eq!(t, tag);
//!             assert_eq!(status, ScsiStatus::Good);
//!             done = true;
//!         }
//!     }
//! }
//! assert!(done);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdb;
pub mod exchange;
mod initiator;
mod iqn;
mod params;
mod pdu;
mod stream;
mod target;
mod transport;

pub use cdb::{Cdb, ScsiStatus};
pub use initiator::{Initiator, InitiatorConfig, IoTag};
pub use iqn::Iqn;
pub use params::SessionParams;
pub use pdu::{
    data_segment_length, DataIn, DataOut, LoginRequest, LoginResponse, LogoutRequest,
    LogoutResponse, NopIn, NopOut, Pdu, PduError, R2t, ScsiCommand, ScsiResponse, TextRequest,
    TextResponse, WireChunks, BHS_LEN,
};
pub use stream::{ChunkDeque, PduStream, PduWire, WireBuf, SHARE_THRESHOLD};
pub use target::{TargetConfig, TargetConn, TargetEvent};
pub use transport::{TargetTransport, Transport, TransportEvent, TransportKind};

/// The IANA-assigned iSCSI target port.
pub const ISCSI_PORT: u16 = 3260;
