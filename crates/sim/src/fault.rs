//! The fault-injection hook shared by every layer of the stack.
//!
//! The umbrella crate's `storm::faults` arms a [`FaultPoint`]
//! implementation; the storage targets (`storm-cloud`) and the active
//! relay (`storm-core`) consult it through a [`FaultHook`] at their
//! injection sites. An unarmed hook is a `None` — the hot path pays one
//! branch and nothing else.

use std::sync::Arc;

use crate::{SimDuration, SimTime};

/// An injection site: where in the stack an operation is about to happen.
///
/// The payload carries just enough context for a fault plan to decide —
/// identifiers are plain integers so no layer above `storm-sim` leaks its
/// types downward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A storage host's disk model is about to serve an access.
    DiskServe {
        /// Storage host index.
        host: u32,
    },
    /// A storage host's target is about to send an I/O response.
    TargetRespond {
        /// Storage host index.
        host: u32,
    },
    /// A middle-box is about to process a PDU. Only a
    /// [`FaultAction::Delay`] applies here; a middle-box that stops
    /// answering is crashed over the hypervisor bus instead.
    MbProcess {
        /// Middle-box identifier assigned at arm time.
        mb: u32,
    },
}

/// The verdict an armed plan returns for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: the operation proceeds normally.
    Proceed,
    /// The operation vanishes silently (a swallowed request or response).
    Drop,
    /// The operation fails with an error visible to the caller.
    Fail,
    /// The operation proceeds after an extra delay.
    Delay(SimDuration),
}

/// A decision point consulted by instrumented layers.
///
/// Implementations must be deterministic given the simulation time and the
/// site — `storm::faults` derives all randomness from a seeded RNG so that
/// identical schedules replay identically.
pub trait FaultPoint: Send + Sync {
    /// Decides the fate of the operation at `site` at time `now`.
    fn decide(&self, now: SimTime, site: FaultSite) -> FaultAction;
}

/// A cheap, cloneable, optional handle to an armed [`FaultPoint`].
///
/// The default (unarmed) hook always proceeds; instrumented hot paths
/// check a single `Option` discriminant.
#[derive(Clone, Default)]
pub struct FaultHook {
    point: Option<Arc<dyn FaultPoint>>,
}

impl FaultHook {
    /// The unarmed hook: every decision is [`FaultAction::Proceed`].
    pub const fn none() -> Self {
        FaultHook { point: None }
    }

    /// Arms the hook with a fault plan.
    pub fn armed(point: Arc<dyn FaultPoint>) -> Self {
        FaultHook { point: Some(point) }
    }

    /// Consults the armed plan, or proceeds when unarmed.
    #[inline]
    pub fn decide(&self, now: SimTime, site: FaultSite) -> FaultAction {
        match &self.point {
            None => FaultAction::Proceed,
            Some(p) => p.decide(now, site),
        }
    }
}

impl std::fmt::Debug for FaultHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultHook")
            .field("armed", &self.point.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct DropEverything;
    impl FaultPoint for DropEverything {
        fn decide(&self, _now: SimTime, _site: FaultSite) -> FaultAction {
            FaultAction::Drop
        }
    }

    #[test]
    fn unarmed_hook_proceeds() {
        let hook = FaultHook::none();
        assert_eq!(
            hook.decide(SimTime::ZERO, FaultSite::TargetRespond { host: 0 }),
            FaultAction::Proceed
        );
    }

    #[test]
    fn armed_hook_consults_the_point() {
        let hook = FaultHook::armed(Arc::new(DropEverything));
        assert_eq!(
            hook.decide(SimTime::ZERO, FaultSite::DiskServe { host: 1 }),
            FaultAction::Drop
        );
    }
}
