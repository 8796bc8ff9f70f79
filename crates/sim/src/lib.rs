//! Discrete-event simulation toolkit underpinning the StorM reproduction.
//!
//! The paper evaluates StorM on a 10-machine OpenStack testbed. This crate
//! replaces that hardware with a deterministic discrete-event engine: virtual
//! time ([`SimTime`]), a radix-heap event queue ([`EventQueue`]), contended
//! resources ([`CpuModel`], [`SerialResource`]), fixed-hasher lookup
//! tables ([`IdMap`]) and measurement primitives ([`metrics`]). Higher
//! layers (`storm-net`, `storm-cloud`, `storm-core`) build the network
//! fabric, hosts and middle-boxes on top of these primitives.
//!
//! There is no executor beyond the queue: every simulation, from one
//! initiator to `storm-bench`'s thousand-tenant fleet, runs its events on
//! a single [`EventQueue`] on the calling thread. The fleet adds its own
//! conservative-lookahead rounds on top, to fix the order in which
//! cross-rack messages enter the queue.
//!
//! # Example
//!
//! ```
//! use storm_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_millis(5), "second");
//! q.push(SimTime::ZERO + SimDuration::from_millis(1), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t.as_micros(), 1_000);
//! ```

#![warn(missing_docs)]

mod cpu;
mod event;
pub mod fault;
pub mod hist;
mod idmap;
pub mod metrics;
mod rng;
mod time;
pub mod trace;

pub use cpu::{CpuModel, SerialResource};
pub use event::{CancelToken, EventQueue};
pub use fault::{FaultAction, FaultHook, FaultPoint, FaultSite};
pub use hist::Histogram;
pub use idmap::{IdHasher, IdMap};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{flow_token, req_token, Hop, ReqToken, TraceEvent, TraceHook, TraceSink};
