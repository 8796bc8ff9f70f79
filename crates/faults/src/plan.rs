//! The fault schedule DSL: what fails, when, and for how long.

use storm_sim::{SimDuration, SimTime};

/// One injectable fault.
///
/// Identifiers are the raw integers the injection sites report
/// ([`storm_sim::FaultSite`]): storage host indexes and middle-box
/// indexes assigned at arm time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Extra service latency on a storage host's disk while armed (a
    /// latency spike, e.g. a background scrub or a failing spindle).
    DiskDelay {
        /// Storage host index.
        host: u32,
        /// Extra latency added to each affected access.
        extra: SimDuration,
        /// Per-access probability of the spike in `[0, 1]`.
        prob: f64,
    },
    /// A storage host's target goes mute while armed: requests are served
    /// but responses never leave the host. Detectable only by timeout —
    /// the paper's "not responsive" replica.
    MuteTarget {
        /// Storage host index.
        host: u32,
    },
    /// Crashes a middle-box VM (applied by the runner over the
    /// hypervisor bus); a durationed event restarts it afterwards.
    ///
    /// The crash aborts every guest session through the relay. Restart
    /// re-establishes the relay's replica connections, but the platform
    /// has no guest-side reconnect: a crashed middle-box's guests stall
    /// until re-attached.
    MbCrash {
        /// Middle-box index registered with the runner.
        mb: u32,
    },
    /// The middle-box processes PDUs slower while armed.
    MbDelay {
        /// Middle-box index assigned at arm time.
        mb: u32,
        /// Extra processing time per PDU.
        delay: SimDuration,
        /// Per-PDU probability of the slowdown in `[0, 1]`.
        prob: f64,
    },
}

impl Fault {
    /// Whether this fault is a discrete command the runner applies to the
    /// cloud (as opposed to a condition armed in the [`FaultState`]
    /// decision state).
    ///
    /// [`FaultState`]: crate::FaultState
    pub fn is_command(&self) -> bool {
        matches!(self, Fault::MbCrash { .. })
    }
}

pub(crate) struct TimedEvent {
    pub at: SimTime,
    pub fault: Fault,
    pub duration: Option<SimDuration>,
}

/// A fault schedule, run by a [`FaultRunner`](crate::FaultRunner).
///
/// `at`/`window` inject at an instant. The seed drives every
/// probabilistic decision the armed plan makes.
pub struct FaultPlan {
    seed: u64,
    timed: Vec<TimedEvent>,
}

impl FaultPlan {
    /// Creates an empty plan whose randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            timed: Vec::new(),
        }
    }

    /// Injects `fault` at instant `at`, permanently.
    pub fn at(mut self, at: SimTime, fault: Fault) -> Self {
        self.timed.push(TimedEvent {
            at,
            fault,
            duration: None,
        });
        self
    }

    /// Injects `fault` at instant `at` and heals it `duration` later
    /// (middle-box restarts, condition disarms).
    pub fn window(mut self, at: SimTime, duration: SimDuration, fault: Fault) -> Self {
        self.timed.push(TimedEvent {
            at,
            fault,
            duration: Some(duration),
        });
        self
    }

    /// The seed and the events in time order; events at the same instant
    /// keep insertion order.
    pub(crate) fn into_timed(self) -> (u64, Vec<TimedEvent>) {
        let mut timed = self.timed;
        timed.sort_by_key(|e| e.at);
        (self.seed, timed)
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("timed", &self.timed.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_order_events_by_time() {
        let delay = Fault::MbDelay {
            mb: 0,
            delay: SimDuration::from_micros(5),
            prob: 0.5,
        };
        let plan = FaultPlan::new(1)
            .at(SimTime::from_secs(30), Fault::MbCrash { mb: 0 })
            .at(SimTime::from_secs(10), Fault::MuteTarget { host: 1 })
            .window(SimTime::from_secs(10), SimDuration::from_secs(2), delay);
        let (seed, timed) = plan.into_timed();
        assert_eq!((seed, timed.len()), (1, 3));
        assert_eq!(timed[0].at, SimTime::from_secs(10));
        assert!(matches!(timed[0].fault, Fault::MuteTarget { host: 1 }));
        assert!(matches!(timed[1].fault, Fault::MbDelay { .. }));
        assert_eq!(timed[2].at, SimTime::from_secs(30));
    }

    #[test]
    fn command_vs_condition_classes() {
        assert!(Fault::MbCrash { mb: 0 }.is_command());
        assert!(!Fault::MuteTarget { host: 0 }.is_command());
        assert!(!Fault::DiskDelay {
            host: 0,
            extra: SimDuration::from_micros(1),
            prob: 0.1
        }
        .is_command());
    }
}
