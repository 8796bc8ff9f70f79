//! Deterministic fault injection for the StorM stack.
//!
//! The paper's reliability story (Case 3 replication, Figure 13) hinges on
//! failure behavior — "once a replica is not responsive ... it will be
//! eliminated from future operations" — so this crate provides the means
//! to *cause* failures, reproducibly:
//!
//! - [`FaultPlan`] / [`FaultSchedule`]: a small DSL describing what fails,
//!   when (at an instant or over a window), and for how long.
//! - [`FaultState`]: the armed plan. It implements
//!   [`storm_sim::FaultPoint`] and is consulted from injection sites in
//!   the net fabric (frame loss), the storage targets (disk latency
//!   spikes, muted responses), logical volumes (medium errors) and the
//!   active relay (PDU drop/slowdown). All randomness comes from one
//!   seeded [`storm_sim::SimRng`], so a schedule replays identically.
//! - [`FaultRunner`]: drives a [`storm_cloud::Cloud`] through a schedule,
//!   interleaving `run_until` with discrete actions (link down/up, host
//!   partition, middle-box crash/restart over the hypervisor bus).
//!
//! Every decision and command is appended to an event trace
//! ([`FaultState::trace`]); two runs of the same seed produce
//! byte-identical traces, which the chaos soak test asserts.
//!
//! ```
//! use storm_faults::{Fault, FaultPlan};
//! use storm_sim::{SimDuration, SimTime};
//!
//! let plan = FaultPlan::new(42)
//!     // Mute storage host 1 at t=10s: its target stops responding, the
//!     // relay watchdog times the requests out and evicts the replica.
//!     .at(SimTime::from_secs(10), Fault::MuteTarget { host: 1 })
//!     // 2% frame loss on link 3 between t=20s and t=25s.
//!     .window(
//!         SimTime::from_secs(20),
//!         SimDuration::from_secs(5),
//!         Fault::LinkLoss { link: 3, prob: 0.02 },
//!     );
//! let schedule = plan.schedule();
//! assert_eq!(schedule.timed_len(), 2);
//! ```

#![warn(missing_docs)]

mod plan;
mod runner;
mod state;

pub use plan::{Fault, FaultPlan, FaultSchedule};
pub use runner::FaultRunner;
pub use state::FaultState;
