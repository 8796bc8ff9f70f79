//! The fault schedule DSL: what fails, when, and for how long.

use storm_sim::{SimDuration, SimTime};

/// One injectable fault.
///
/// Identifiers are the raw integers the injection sites report
/// ([`storm_sim::FaultSite`]): link ids (`LinkId.0`), storage host
/// indexes, volume ids (`VolumeId.0`) and middle-box indexes assigned at
/// arm time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Takes a fabric link administratively down (applied by the runner).
    LinkDown {
        /// Raw link identifier.
        link: u32,
    },
    /// Random frame loss on a link while armed.
    LinkLoss {
        /// Raw link identifier.
        link: u32,
        /// Per-frame loss probability in `[0, 1]`.
        prob: f64,
    },
    /// Partitions a host off the fabric: every link on its interfaces
    /// goes down (applied by the runner).
    Partition {
        /// Raw host identifier (`HostId.0`).
        host: u32,
    },
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
    /// A grown defect: accesses touching the sector range fail with a
    /// medium error while armed; the rest of the volume stays readable.
    MediumError {
        /// Raw volume identifier.
        volume: u32,
        /// First bad sector.
        lba: u64,
        /// Length of the bad range in sectors.
        sectors: u64,
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
    /// The middle-box drops PDUs while armed (overload shedding, a wedged
    /// worker thread).
    MbDrop {
        /// Middle-box index assigned at arm time.
        mb: u32,
        /// Per-PDU drop probability in `[0, 1]`.
        prob: f64,
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
        matches!(
            self,
            Fault::LinkDown { .. } | Fault::Partition { .. } | Fault::MbCrash { .. }
        )
    }
}

pub(crate) struct TimedEvent {
    pub at: SimTime,
    pub fault: Fault,
    pub duration: Option<SimDuration>,
}

/// Builder for a fault schedule.
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
    /// (link comes back up, partition heals, middle-box restarts,
    /// condition disarms).
    pub fn window(mut self, at: SimTime, duration: SimDuration, fault: Fault) -> Self {
        self.timed.push(TimedEvent {
            at,
            fault,
            duration: Some(duration),
        });
        self
    }

    /// Compiles the plan into a time-ordered schedule.
    pub fn schedule(self) -> FaultSchedule {
        let mut timed = self.timed;
        // Stable: events at the same instant keep insertion order.
        timed.sort_by_key(|e| e.at);
        FaultSchedule {
            seed: self.seed,
            timed,
        }
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

/// A compiled, time-ordered fault schedule, ready for a
/// [`FaultRunner`](crate::FaultRunner).
pub struct FaultSchedule {
    pub(crate) seed: u64,
    pub(crate) timed: Vec<TimedEvent>,
}

impl FaultSchedule {
    /// The seed the plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of time-triggered events.
    pub fn timed_len(&self) -> usize {
        self.timed.len()
    }
}

impl std::fmt::Debug for FaultSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultSchedule")
            .field("seed", &self.seed)
            .field("timed", &self.timed.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_orders_events_by_time() {
        let plan = FaultPlan::new(1)
            .at(SimTime::from_secs(30), Fault::LinkDown { link: 0 })
            .at(SimTime::from_secs(10), Fault::MuteTarget { host: 1 })
            .window(
                SimTime::from_secs(10),
                SimDuration::from_secs(2),
                Fault::LinkLoss { link: 2, prob: 0.5 },
            );
        let s = plan.schedule();
        assert_eq!(s.timed_len(), 3);
        assert_eq!(s.timed[0].at, SimTime::from_secs(10));
        assert!(matches!(s.timed[0].fault, Fault::MuteTarget { host: 1 }));
        assert!(matches!(s.timed[1].fault, Fault::LinkLoss { .. }));
        assert_eq!(s.timed[2].at, SimTime::from_secs(30));
    }

    #[test]
    fn command_vs_condition_classes() {
        assert!(Fault::LinkDown { link: 0 }.is_command());
        assert!(Fault::Partition { host: 0 }.is_command());
        assert!(Fault::MbCrash { mb: 0 }.is_command());
        assert!(!Fault::LinkLoss { link: 0, prob: 0.1 }.is_command());
        assert!(!Fault::MuteTarget { host: 0 }.is_command());
        assert!(!Fault::MediumError {
            volume: 1,
            lba: 0,
            sectors: 8
        }
        .is_command());
    }
}
