//! NVMe-oF-style multi-queue block transport for StorM.
//!
//! The paper's deployment speaks iSCSI, whose command model is one
//! in-order conversation per connection: at 64 KiB and queue depth 1 the
//! relay tax dominates (Figure 5). FlexBSO-style offload stacks instead
//! expose paired submission/completion rings that keep many tagged
//! commands in flight at once. This crate models that protocol over the
//! simulator's TCP fabric, behind the same [`Transport`]/[`TargetTransport`]
//! traits the iSCSI stack implements, proving StorM's interception API is
//! wire-protocol agnostic and opening offload-vs-relay benchmarks. Queue
//! depth is the whole difference: like NVMe/TCP, which carries one
//! command capsule per PDU, each command rides its own doorbell frame
//! and each completion its own completion frame, so a relay sees one
//! command per message on both protocols. Those traits and the block
//! vocabulary live in [`storm_block::transport`], so this crate does not
//! depend on the protocol it is the alternative to.
//!
//! Wire format (all integers big-endian, like iSCSI):
//!
//! * every frame starts with a 16-byte header: magic `0xB5`, frame type,
//!   entry count, payload length, then reserved zero bytes;
//! * a `DOORBELL` frame carries one 64-byte SQE (`count` = 1) followed by
//!   its in-capsule write data; the host rings it when the command enters
//!   the submission ring;
//! * a `COMPLETION` frame carries one 16-byte CQE (`count` = 1) followed
//!   by its read payload; the target sends it the moment the command
//!   completes;
//! * `CONNECT`/`CONNECT_ACK` (`count` = 0) bind the connection to a
//!   volume by IQN, in the handshake text iSCSI's login carries
//!   ([`storm_block::transport::encode_text`]), so one scanner reads the
//!   volume name for both protocols; they negotiate nothing (the host's
//!   ring depth is its own);
//! * any other `count` is a protocol error ([`NvmeqError::BadCount`]),
//!   refused as soon as the header arrives.
//!
//! Everything is sans-io and allocation-shy: payloads ride as refcounted
//! [`bytes::Bytes`] views end to end (the [`FrameStream`] reassembler
//! re-joins TCP segments of one allocation for free, exactly like the
//! iSCSI `PduStream`), so the relay's zero-copy invariant holds on this
//! transport too.
//!
//! [`Transport`]: storm_block::transport::Transport
//! [`TargetTransport`]: storm_block::transport::TargetTransport

#![warn(missing_docs)]

mod codec;
mod initiator;
mod stream;
mod target;

pub use codec::{
    Cqe, FrameHeader, FrameKind, NvmeqError, Sqe, SqeOp, CQE_LEN, FRAME_HDR_LEN, MAGIC,
    MAX_PAYLOAD, SQE_LEN,
};
pub use initiator::{NvmeqConfig, NvmeqInitiator};
pub use stream::{push_unit, FrameStream, FrameWire, UnitEntry, UnitWire};
pub use target::{NvmeqTargetConfig, NvmeqTargetConn};
