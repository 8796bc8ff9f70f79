//! The armed fault plan: condition matching, seeded randomness, and the
//! event trace.

use std::sync::{Arc, Mutex};

use storm_sim::{FaultAction, FaultHook, FaultPoint, FaultSite, SimRng, SimTime};

use crate::plan::Fault;

struct Condition {
    id: u64,
    fault: Fault,
}

struct Inner {
    rng: SimRng,
    conditions: Vec<Condition>,
    trace: Vec<String>,
    next_id: u64,
}

/// The live decision state behind every injection hook.
///
/// Condition faults (loss probabilities, latency spikes, medium errors,
/// muted targets) are armed here — by a [`FaultRunner`](crate::FaultRunner)
/// at their scheduled instants, or directly by tests — and consulted from
/// the instrumented layers through [`FaultPoint::decide`]. Probabilistic
/// decisions draw from one seeded [`SimRng`]; since the simulator calls
/// `decide` in a deterministic order, the entire fault history is a pure
/// function of the seed and the schedule. The trace records every
/// non-proceed decision and every arm/disarm, so two runs can be compared
/// byte for byte.
pub struct FaultState {
    inner: Mutex<Inner>,
}

impl FaultState {
    /// Creates an armed-but-empty state seeded with `seed`.
    pub fn new(seed: u64) -> Arc<Self> {
        Arc::new(FaultState {
            inner: Mutex::new(Inner {
                rng: SimRng::seed_from_u64(seed),
                conditions: Vec::new(),
                trace: Vec::new(),
                next_id: 1,
            }),
        })
    }

    /// Mints a hook for an injection site.
    pub fn hook(self: &Arc<Self>) -> FaultHook {
        FaultHook::armed(Arc::clone(self) as Arc<dyn FaultPoint>)
    }

    /// Arms a condition fault; returns its id for [`disarm`](Self::disarm).
    ///
    /// Command faults ([`Fault::is_command`]) have no data-path effect and
    /// are rejected with a trace note.
    pub fn arm(&self, now: SimTime, fault: Fault) -> u64 {
        let mut inner = self.inner.lock().expect("poisoned");
        if fault.is_command() {
            inner
                .trace
                .push(format!("t={} reject-arm {fault:?}", now.as_nanos()));
            return 0;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.conditions.push(Condition { id, fault });
        inner
            .trace
            .push(format!("t={} arm #{id} {fault:?}", now.as_nanos()));
        id
    }

    /// Disarms a previously armed condition. Unknown ids are ignored.
    pub fn disarm(&self, now: SimTime, id: u64) {
        let mut inner = self.inner.lock().expect("poisoned");
        let before = inner.conditions.len();
        inner.conditions.retain(|c| c.id != id);
        if inner.conditions.len() != before {
            inner
                .trace
                .push(format!("t={} disarm #{id}", now.as_nanos()));
        }
    }

    /// Appends a free-form entry to the trace (the runner logs its
    /// commands through this).
    pub fn note(&self, now: SimTime, msg: &str) {
        self.inner
            .lock()
            .expect("poisoned")
            .trace
            .push(format!("t={} {msg}", now.as_nanos()));
    }

    /// Number of currently armed conditions.
    pub fn armed_len(&self) -> usize {
        self.inner.lock().expect("poisoned").conditions.len()
    }

    /// A copy of the event trace so far.
    pub fn trace(&self) -> Vec<String> {
        self.inner.lock().expect("poisoned").trace.clone()
    }
}

/// Matches `site` against `fault`; `Some(action)` if the condition
/// applies (before any probability draw).
fn matches(fault: &Fault, site: &FaultSite) -> bool {
    match (fault, site) {
        (Fault::LinkLoss { link, .. }, FaultSite::LinkTransmit { link: l }) => link == l,
        (Fault::DiskDelay { host, .. }, FaultSite::DiskServe { host: h, .. }) => host == h,
        (Fault::MuteTarget { host }, FaultSite::TargetRespond { host: h }) => host == h,
        (
            Fault::MediumError {
                volume,
                lba,
                sectors,
            },
            FaultSite::VolumeIo {
                volume: v, lba: l, ..
            },
        ) => volume == v && *l >= *lba && *l < lba + sectors,
        (Fault::MbDrop { mb, .. }, FaultSite::MbProcess { mb: m }) => mb == m,
        (Fault::MbDelay { mb, .. }, FaultSite::MbProcess { mb: m }) => mb == m,
        _ => false,
    }
}

impl FaultPoint for FaultState {
    fn decide(&self, now: SimTime, site: FaultSite) -> FaultAction {
        let mut inner = self.inner.lock().expect("poisoned");
        // First matching condition wins, in arm order. The RNG is only
        // consumed when a probabilistic condition matches the site, so
        // unaffected traffic does not perturb the stream.
        let mut verdict = FaultAction::Proceed;
        for i in 0..inner.conditions.len() {
            let fault = inner.conditions[i].fault;
            if !matches(&fault, &site) {
                continue;
            }
            verdict = match fault {
                Fault::LinkLoss { prob, .. } => {
                    if inner.rng.chance(prob) {
                        FaultAction::Drop
                    } else {
                        FaultAction::Proceed
                    }
                }
                Fault::DiskDelay { extra, prob, .. } => {
                    if inner.rng.chance(prob) {
                        FaultAction::Delay(extra)
                    } else {
                        FaultAction::Proceed
                    }
                }
                Fault::MuteTarget { .. } => FaultAction::Drop,
                Fault::MediumError { .. } => FaultAction::Fail,
                Fault::MbDrop { prob, .. } => {
                    if inner.rng.chance(prob) {
                        FaultAction::Drop
                    } else {
                        FaultAction::Proceed
                    }
                }
                Fault::MbDelay { delay, prob, .. } => {
                    if inner.rng.chance(prob) {
                        FaultAction::Delay(delay)
                    } else {
                        FaultAction::Proceed
                    }
                }
                // Commands never reach the condition list.
                Fault::LinkDown { .. } | Fault::Partition { .. } | Fault::MbCrash { .. } => {
                    FaultAction::Proceed
                }
            };
            if verdict != FaultAction::Proceed {
                break;
            }
        }
        if verdict != FaultAction::Proceed {
            inner
                .trace
                .push(format!("t={} {site:?} -> {verdict:?}", now.as_nanos()));
        }
        verdict
    }
}

impl std::fmt::Debug for FaultState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("poisoned");
        f.debug_struct("FaultState")
            .field("conditions", &inner.conditions.len())
            .field("trace_len", &inner.trace.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_sim::SimDuration;

    #[test]
    fn unmatched_sites_proceed_without_consuming_rng() {
        let s = FaultState::new(7);
        s.arm(SimTime::ZERO, Fault::LinkLoss { link: 3, prob: 1.0 });
        // A different link is untouched...
        assert_eq!(
            s.decide(SimTime::ZERO, FaultSite::LinkTransmit { link: 4 }),
            FaultAction::Proceed
        );
        // ...while the armed link always drops at prob=1.
        assert_eq!(
            s.decide(SimTime::ZERO, FaultSite::LinkTransmit { link: 3 }),
            FaultAction::Drop
        );
    }

    #[test]
    fn medium_error_covers_only_its_range() {
        let s = FaultState::new(1);
        s.arm(
            SimTime::ZERO,
            Fault::MediumError {
                volume: 2,
                lba: 100,
                sectors: 8,
            },
        );
        let hit = FaultSite::VolumeIo {
            volume: 2,
            lba: 104,
            write: false,
        };
        let miss_lba = FaultSite::VolumeIo {
            volume: 2,
            lba: 108,
            write: false,
        };
        let miss_vol = FaultSite::VolumeIo {
            volume: 3,
            lba: 104,
            write: false,
        };
        assert_eq!(s.decide(SimTime::ZERO, hit), FaultAction::Fail);
        assert_eq!(s.decide(SimTime::ZERO, miss_lba), FaultAction::Proceed);
        assert_eq!(s.decide(SimTime::ZERO, miss_vol), FaultAction::Proceed);
    }

    #[test]
    fn disarm_restores_normal_service() {
        let s = FaultState::new(1);
        let id = s.arm(SimTime::ZERO, Fault::MuteTarget { host: 0 });
        let site = FaultSite::TargetRespond { host: 0 };
        assert_eq!(s.decide(SimTime::ZERO, site), FaultAction::Drop);
        s.disarm(SimTime::from_secs(1), id);
        assert_eq!(s.decide(SimTime::from_secs(1), site), FaultAction::Proceed);
        assert_eq!(s.armed_len(), 0);
    }

    #[test]
    fn commands_are_rejected_as_conditions() {
        let s = FaultState::new(1);
        assert_eq!(s.arm(SimTime::ZERO, Fault::MbCrash { mb: 0 }), 0);
        assert_eq!(s.armed_len(), 0);
    }

    #[test]
    fn trace_records_decisions_and_arming() {
        let s = FaultState::new(9);
        let id = s.arm(
            SimTime::ZERO,
            Fault::DiskDelay {
                host: 1,
                extra: SimDuration::from_millis(5),
                prob: 1.0,
            },
        );
        let site = FaultSite::DiskServe {
            host: 1,
            write: true,
        };
        assert!(matches!(
            s.decide(SimTime::from_nanos(10), site),
            FaultAction::Delay(_)
        ));
        s.disarm(SimTime::from_nanos(20), id);
        let t = s.trace();
        assert_eq!(t.len(), 3, "{t:?}");
        assert!(t[0].contains("arm #1"));
        assert!(t[1].contains("DiskServe"));
        assert!(t[2].contains("disarm #1"));
    }
}
