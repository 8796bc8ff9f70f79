//! Telemetry for the StorM stack: sim-time tracing and a
//! latency-attribution analyzer.
//!
//! The simulator layers (`storm-net`, `storm-cloud`, `storm-core`) report
//! span events through the [`storm_sim::trace::TraceHook`] they were armed
//! with; this crate supplies the other half:
//!
//! * [`Recorder`] — a [`TraceSink`](storm_sim::trace::TraceSink) that
//!   collects events in arrival order and exports them as JSONL. The
//!   simulator is single-threaded and free of wall-clock time, so equal
//!   seeds produce **byte-identical** trace files.
//! * [`analyze`] — parses a trace back and computes the per-hop latency
//!   attribution of Figure 10: what fraction of end-to-end request time
//!   was spent in virtio, forwarding, the relay framework, each tenant
//!   service, the target and the disk, with the unexplained remainder
//!   attributed to the network.
//!
//! The `storm-trace` binary wraps [`analyze`] for trace files on disk.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use storm_sim::trace::{req_token, Hop, TraceEvent};
//! use storm_sim::{SimDuration, SimTime};
//! use storm_telemetry::Recorder;
//!
//! let rec = Arc::new(Recorder::new());
//! let hook = Recorder::hook(&rec);
//! let req = req_token(40_000, 1);
//! hook.emit(SimTime::ZERO, TraceEvent::Issue { req, kind: 0, bytes: 4096 });
//! hook.emit(
//!     SimTime::from_nanos(10),
//!     TraceEvent::Stage { req, hop: Hop::Disk, id: 0, dur: SimDuration::from_nanos(7) },
//! );
//! hook.emit(SimTime::from_nanos(10), TraceEvent::Complete { req, ok: true });
//! let jsonl = rec.to_jsonl();
//! let report = storm_telemetry::analyze::attribute(&rec.events());
//! assert_eq!(report.requests, 1);
//! assert_eq!(jsonl.lines().count(), 3);
//! ```

#![warn(missing_docs)]

pub mod analyze;
mod jsonl;
mod recorder;

pub use jsonl::{parse_jsonl, parse_line};
pub use recorder::Recorder;
