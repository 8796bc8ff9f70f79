//! Deterministic fault injection for the StorM stack.
//!
//! The paper's reliability story (Case 3 replication, Figure 13) hinges on
//! failure behavior — "once a replica is not responsive ... it will be
//! eliminated from future operations" — so this crate provides the means
//! to *cause* failures, reproducibly:
//!
//! - [`FaultPlan`]: a small DSL describing what fails, when (at an instant
//!   or over a window), and for how long. Four faults: a disk latency
//!   spike ([`Fault::DiskDelay`]), a mute storage target
//!   ([`Fault::MuteTarget`]), a middle-box crash ([`Fault::MbCrash`]) and
//!   a middle-box slowdown ([`Fault::MbDelay`]).
//! - [`FaultState`]: the armed plan. It implements
//!   [`storm_sim::FaultPoint`] and is consulted from injection sites in
//!   the storage targets (disk service, responses) and the active relay
//!   (PDU processing). All randomness comes from one seeded
//!   [`storm_sim::SimRng`], so a plan replays identically.
//! - [`FaultRunner`]: drives a [`storm_cloud::Cloud`] through a plan,
//!   interleaving `run_until` with discrete actions (middle-box
//!   crash/restart over the hypervisor bus) and condition windows.
//!
//! A cut link and a dead volume need no plan: tests call
//! `Fabric::set_link_up` and `SharedVolume::fail` directly.
//!
//! Every decision and command is appended to an event trace
//! ([`FaultState::trace`]); two runs of the same seed produce
//! byte-identical traces, which the chaos soak test asserts.
//!
//! ```
//! use storm_cloud::{Cloud, CloudConfig};
//! use storm_faults::{Fault, FaultPlan, FaultRunner};
//! use storm_sim::{SimDuration, SimTime};
//!
//! let plan = FaultPlan::new(42)
//!     // Mute storage host 0 at t=1s: its target stops responding, the
//!     // relay watchdog times the requests out and evicts the replica.
//!     .at(SimTime::from_secs(1), Fault::MuteTarget { host: 0 })
//!     // 5 ms disk latency spikes on a fifth of host 0's accesses
//!     // between t=0.5s and t=1.5s.
//!     .window(
//!         SimTime::from_millis(500),
//!         SimDuration::from_secs(1),
//!         Fault::DiskDelay {
//!             host: 0,
//!             extra: SimDuration::from_millis(5),
//!             prob: 0.2,
//!         },
//!     );
//! let mut cloud = Cloud::build(CloudConfig::default());
//! let mut runner = FaultRunner::new(plan);
//! runner.arm_cloud(&mut cloud);
//! runner.run(&mut cloud, SimTime::from_secs(2));
//! let trace = runner.trace();
//! assert_eq!(trace.len(), 3, "{trace:?}");
//! assert!(trace[2].ends_with("disarm #1"));
//! ```

#![warn(missing_docs)]

mod plan;
mod runner;
mod state;

pub use plan::{Fault, FaultPlan};
pub use runner::FaultRunner;
pub use state::FaultState;
