//! Per-tenant quality of service for the StorM fleet.
//!
//! StorM's datapath treats every tenant identically; at fleet scale that
//! means noisy neighbors. This crate supplies the four mechanisms that
//! turn the shared platform into an isolated one, in the style of
//! IOArbiter's SLO-tagged provisioning:
//!
//! - [`TokenBucket`] / [`RateLimiter`] — deterministic, sim-clock-driven
//!   IOPS + bandwidth shaping with burst credit. A tenant under its
//!   limit stays on the zero-delay fast path and its datapath behavior
//!   is byte-identical to an unlimited run.
//! - [`WeightedFairQueue`] — virtual-finish-time WFQ for the target
//!   dispatch queue: under contention, service shares converge to the
//!   configured weight ratio.
//! - [`VolumeSlo`] / [`AdmissionController`] — SLO-tagged volume create
//!   with overbooking guards: accept, degrade, or reject.
//! - [`PlacementEngine`] — watches per-volume p99 against the SLO
//!   ceiling and plans copy-then-cutover tier migrations for persistent
//!   violators.
//!
//! Everything here is pure mechanism over the virtual clock: no wall
//! time, no ambient randomness, `BTreeMap` iteration only — the same
//! determinism contract the workspace lints enforce on the rest of the
//! stack.

#![warn(missing_docs)]

mod admission;
mod bucket;
mod placement;
mod slo;
mod wfq;

pub use admission::{AdmissionController, AdmissionDecision};
pub use bucket::{RateLimitSpec, RateLimiter, TokenBucket};
pub use placement::{MigrationPlan, PlacementEngine};
pub use slo::{DiskTier, VolumeSlo};
pub use wfq::WeightedFairQueue;
