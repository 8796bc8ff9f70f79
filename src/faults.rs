//! Deterministic fault injection for the StorM stack.
//!
//! The paper's reliability story (Case 3 replication, Figure 13) hinges on
//! failure behavior — "once a replica is not responsive ... it will be
//! eliminated from future operations" — so this module provides the means
//! to *cause* failures, reproducibly:
//!
//! - [`FaultPlan`]: a small DSL describing what fails, when (at an instant
//!   or over a window), and for how long. Four faults: a disk latency
//!   spike ([`Fault::DiskDelay`]), a mute storage target
//!   ([`Fault::MuteTarget`]), a middle-box crash ([`Fault::MbCrash`]) and
//!   a middle-box slowdown ([`Fault::MbDelay`]).
//! - [`FaultRunner`]: drives a [`Cloud`] through a plan, interleaving
//!   `run_until` with discrete actions (middle-box crash/restart over the
//!   hypervisor bus) and condition windows. The conditions it arms are
//!   consulted, as a [`FaultPoint`], from injection sites in the storage
//!   targets (disk service, responses) and the active relay (PDU
//!   processing). All randomness comes from one seeded [`SimRng`], so a
//!   plan replays identically.
//!
//! A cut link and a dead volume need no plan: tests call
//! `Fabric::set_link_up` and `SharedVolume::fail` directly.
//!
//! Every decision and command is appended to an event trace
//! ([`FaultRunner::trace`]); two runs of the same seed produce
//! byte-identical traces, which the chaos soak test asserts. README's
//! fault section shows a plan end to end.

use std::collections::VecDeque;
use std::hash::RandomState;
use std::sync::{Arc, Mutex};

use storm_cloud::Cloud;
use storm_core::relay::{ActiveRelayMb, MbControl};
use storm_net::{AppId, BusMsg, HostId};
use storm_sim::{
    FaultAction, FaultHook, FaultPoint, FaultSite, IdMap, SimDuration, SimRng, SimTime,
};

/// One injectable fault.
///
/// Identifiers are the raw integers the injection sites report
/// ([`FaultSite`]): storage host indexes and middle-box indexes assigned
/// at arm time.
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

#[derive(Debug)]
struct TimedEvent {
    at: SimTime,
    fault: Fault,
    duration: Option<SimDuration>,
}

/// A fault schedule, run by a [`FaultRunner`].
///
/// `at`/`window` inject at an instant. The seed drives every
/// probabilistic decision the armed plan makes.
#[derive(Debug)]
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
    pub fn at(self, at: SimTime, fault: Fault) -> Self {
        self.push(at, None, fault)
    }

    /// Injects `fault` at instant `at` and heals it `duration` later
    /// (middle-box restarts, condition disarms).
    pub fn window(self, at: SimTime, duration: SimDuration, fault: Fault) -> Self {
        self.push(at, Some(duration), fault)
    }

    fn push(mut self, at: SimTime, duration: Option<SimDuration>, fault: Fault) -> Self {
        let event = TimedEvent {
            at,
            fault,
            duration,
        };
        self.timed.push(event);
        self
    }
}

#[derive(Debug)]
struct Inner {
    rng: SimRng,
    /// Armed conditions by id, in arm order.
    conditions: Vec<(u64, Fault)>,
    trace: Vec<String>,
    next_id: u64,
}

impl Inner {
    fn log(&mut self, now: SimTime, entry: std::fmt::Arguments<'_>) {
        self.trace.push(format!("t={} {entry}", now.as_nanos()));
    }
}

/// The live decision state behind every injection hook: the armed
/// conditions, the seeded RNG they draw from and the trace. The simulator
/// calls `decide` in a deterministic order, so the whole fault history is
/// a pure function of the seed and the schedule.
#[derive(Debug)]
struct FaultState {
    inner: Mutex<Inner>,
}

impl FaultState {
    /// An empty state seeded with `seed`.
    fn new(seed: u64) -> Arc<Self> {
        Arc::new(FaultState {
            inner: Mutex::new(Inner {
                rng: SimRng::seed_from_u64(seed),
                conditions: Vec::new(),
                trace: Vec::new(),
                next_id: 1,
            }),
        })
    }

    /// Arms a condition fault; returns its id for [`disarm`](Self::disarm).
    fn arm(&self, now: SimTime, fault: Fault) -> u64 {
        let mut inner = self.inner.lock().expect("poisoned");
        let id = inner.next_id;
        inner.next_id += 1;
        inner.conditions.push((id, fault));
        inner.log(now, format_args!("arm #{id} {fault:?}"));
        id
    }

    /// Disarms a previously armed condition. Unknown ids are ignored.
    fn disarm(&self, now: SimTime, id: u64) {
        let mut inner = self.inner.lock().expect("poisoned");
        let before = inner.conditions.len();
        inner.conditions.retain(|&(c, _)| c != id);
        if inner.conditions.len() != before {
            inner.log(now, format_args!("disarm #{id}"));
        }
    }

    /// Appends a free-form entry to the trace (the runner logs its
    /// commands through this).
    fn note(&self, now: SimTime, entry: std::fmt::Arguments<'_>) {
        self.inner.lock().expect("poisoned").log(now, entry);
    }

    /// A copy of the event trace so far.
    fn trace(&self) -> Vec<String> {
        self.inner.lock().expect("poisoned").trace.clone()
    }
}

impl FaultPoint for FaultState {
    fn decide(&self, now: SimTime, site: FaultSite) -> FaultAction {
        let inner = &mut *self.inner.lock().expect("poisoned");
        // The first condition matching the site with a verdict other than
        // proceed wins, in arm order. The RNG is only drawn from when a
        // probabilistic condition matches the site, so unaffected traffic
        // does not perturb the stream.
        let (rng, conditions) = (&mut inner.rng, &inner.conditions);
        let verdict = conditions
            .iter()
            .find_map(|&(_, fault)| match (fault, site) {
                (Fault::DiskDelay { host, extra, prob }, FaultSite::DiskServe { host: h })
                    if host == h =>
                {
                    rng.chance(prob).then_some(FaultAction::Delay(extra))
                }
                (Fault::MbDelay { mb, delay, prob }, FaultSite::MbProcess { mb: m }) if mb == m => {
                    rng.chance(prob).then_some(FaultAction::Delay(delay))
                }
                (Fault::MuteTarget { host }, FaultSite::TargetRespond { host: h }) if host == h => {
                    Some(FaultAction::Drop)
                }
                _ => None,
            });
        if let Some(verdict) = verdict {
            inner.log(now, format_args!("{site:?} -> {verdict:?}"));
        }
        verdict.unwrap_or(FaultAction::Proceed)
    }
}

#[derive(Debug)]
enum Heal {
    MbRestart(u32),
    Disarm(u64),
}

/// Executes a [`FaultPlan`] against a [`Cloud`].
///
/// The runner owns the armed decision state; wire its hooks into the
/// layers under test with [`arm_cloud`](Self::arm_cloud) /
/// [`arm_mb`](Self::arm_mb), then call [`run`](Self::run) instead of
/// `cloud.net.run_until`. The simulation advances to each event instant
/// exactly, so a plan replays identically run after run.
#[derive(Debug)]
pub struct FaultRunner {
    state: Arc<FaultState>,
    timed: VecDeque<TimedEvent>,
    /// Pending heals; those due at one instant stay in scheduling order.
    heals: Vec<(SimTime, Heal)>,
    mbs: IdMap<u32, (HostId, AppId), RandomState>,
}

impl FaultRunner {
    /// Creates a runner for `plan`, seeding the decision state from the
    /// plan's seed.
    pub fn new(plan: FaultPlan) -> Self {
        let mut timed = plan.timed;
        // Stable: events due at one instant keep insertion order.
        timed.sort_by_key(|e| e.at);
        FaultRunner {
            state: FaultState::new(plan.seed),
            timed: timed.into(),
            heals: Vec::new(),
            mbs: IdMap::default(),
        }
    }

    /// A copy of the event trace so far.
    pub fn trace(&self) -> Vec<String> {
        self.state.trace()
    }

    /// Arms every storage target (disk latency, muted responses) in
    /// `cloud`.
    pub fn arm_cloud(&self, cloud: &mut Cloud) {
        for i in 0..cloud.storages.len() {
            let hook = FaultHook::armed(self.state.clone());
            cloud.target_mut(i).set_fault_hook(hook, i as u32);
        }
    }

    /// Arms the active-relay middle-box app at `(node, app)` and registers
    /// it as middle-box `mb` for [`Fault::MbCrash`] delivery and
    /// [`FaultSite::MbProcess`] sites.
    ///
    /// Returns false (and registers nothing) if the app is not an
    /// [`ActiveRelayMb`].
    pub fn arm_mb(&mut self, cloud: &mut Cloud, mb: u32, node: HostId, app: AppId) -> bool {
        let hook = FaultHook::armed(self.state.clone());
        let Some(relay) = cloud
            .net
            .app_mut(node, app)
            .and_then(|a| a.downcast_mut::<ActiveRelayMb>())
        else {
            return false;
        };
        relay.set_fault_hook(hook, mb);
        self.mbs.insert(mb, (node, app));
        true
    }

    /// Runs the cloud to `until`, injecting scheduled faults at their
    /// instants.
    pub fn run(&mut self, cloud: &mut Cloud, until: SimTime) {
        loop {
            let heals = self.heals.iter().map(|&(t, _)| t);
            let due = self.timed.front().map(|e| e.at).into_iter().chain(heals);
            let next = due.fold(until, SimTime::min).max(cloud.net.now());
            cloud.net.run_until(next);
            self.fire_due(cloud, next);
            if next >= until {
                break;
            }
        }
    }

    /// Applies everything due at `now`: heals first (a window ending as
    /// another begins sees clean state), then timed events.
    fn fire_due(&mut self, cloud: &mut Cloud, now: SimTime) {
        let mut heals = std::mem::take(&mut self.heals);
        // Stable: heals due at the same instant apply in scheduling order.
        heals.sort_by_key(|&(t, _)| t);
        let due = heals.partition_point(|&(t, _)| t <= now);
        for (_, heal) in heals.drain(..due) {
            self.apply_heal(cloud, now, heal);
        }
        self.heals = heals;
        while self.timed.front().is_some_and(|e| e.at <= now) {
            let e = self.timed.pop_front().expect("peeked");
            self.apply(cloud, now, e);
        }
    }

    fn apply(&mut self, cloud: &mut Cloud, now: SimTime, e: TimedEvent) {
        match e.fault {
            Fault::MbCrash { mb } => {
                let sent = self.control(cloud, mb, MbControl::Crash);
                let unregistered = if sent { "" } else { ": unregistered" };
                self.state
                    .note(now, format_args!("cmd crash mb {mb}{unregistered}"));
                if let (true, Some(d)) = (sent, e.duration) {
                    self.heals.push((now + d, Heal::MbRestart(mb)));
                }
            }
            condition => {
                let id = self.state.arm(now, condition);
                if let Some(d) = e.duration {
                    self.heals.push((now + d, Heal::Disarm(id)));
                }
            }
        }
    }

    fn apply_heal(&mut self, cloud: &mut Cloud, now: SimTime, heal: Heal) {
        match heal {
            Heal::MbRestart(mb) => {
                if self.control(cloud, mb, MbControl::Restart) {
                    self.state.note(now, format_args!("cmd restart mb {mb}"));
                }
            }
            Heal::Disarm(id) => self.state.disarm(now, id),
        }
    }

    /// Sends `msg` to middle-box `mb` over the hypervisor bus; false when
    /// nothing registered `mb`.
    fn control(&self, cloud: &mut Cloud, mb: u32, msg: MbControl) -> bool {
        let Some(&(node, app)) = self.mbs.get(&mb) else {
            return false;
        };
        let msg = BusMsg::new(msg);
        cloud.net.bus_send(node, node, app, SimDuration::ZERO, msg);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use storm_cloud::CloudConfig;

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
        let timed = FaultRunner::new(plan).timed;
        assert_eq!(timed.len(), 3);
        assert_eq!(timed[0].at, SimTime::from_secs(10));
        assert!(matches!(timed[0].fault, Fault::MuteTarget { host: 1 }));
        assert!(matches!(timed[1].fault, Fault::MbDelay { .. }));
        assert_eq!(timed[2].at, SimTime::from_secs(30));
    }

    #[test]
    fn unmatched_sites_proceed_without_consuming_rng() {
        let s = FaultState::new(7);
        let delay = Fault::MbDelay {
            mb: 3,
            delay: SimDuration::from_micros(9),
            prob: 0.5,
        };
        s.arm(SimTime::ZERO, delay);
        let other = FaultState::new(7);
        other.arm(SimTime::ZERO, delay);
        // Another middle-box is untouched and draws nothing...
        assert_eq!(
            s.decide(SimTime::ZERO, FaultSite::MbProcess { mb: 4 }),
            FaultAction::Proceed
        );
        // ...so the armed one sees the same draws as on a fresh state.
        for _ in 0..32 {
            let site = FaultSite::MbProcess { mb: 3 };
            assert_eq!(
                s.decide(SimTime::ZERO, site),
                other.decide(SimTime::ZERO, site)
            );
        }
    }

    #[test]
    fn disarm_restores_normal_service() {
        let s = FaultState::new(1);
        let id = s.arm(SimTime::ZERO, Fault::MuteTarget { host: 0 });
        let site = FaultSite::TargetRespond { host: 0 };
        assert_eq!(s.decide(SimTime::ZERO, site), FaultAction::Drop);
        s.disarm(SimTime::from_secs(1), id);
        assert_eq!(s.decide(SimTime::from_secs(1), site), FaultAction::Proceed);
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
        let site = FaultSite::DiskServe { host: 1 };
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

    // Chaos soak: any schedule drawn from a seed yields identical event
    // traces across two runs. The driver below is a synthetic stand-in
    // for the simulator: it arms, disarms and consults the fault state in
    // an order derived purely from the seed. Since the real simulator is
    // itself deterministic, trace equality here plus engine determinism
    // gives whole-run reproducibility.

    /// Draws a random condition fault from `rng`.
    fn random_fault(rng: &mut SimRng) -> Fault {
        match rng.below(3) {
            0 => Fault::DiskDelay {
                host: rng.below(3) as u32,
                extra: SimDuration::from_micros(rng.range(1, 500)),
                prob: rng.unit(),
            },
            1 => Fault::MuteTarget {
                host: rng.below(3) as u32,
            },
            _ => Fault::MbDelay {
                mb: rng.below(2) as u32,
                delay: SimDuration::from_micros(rng.range(1, 100)),
                prob: rng.unit(),
            },
        }
    }

    /// Draws a random injection site from `rng`.
    fn random_site(rng: &mut SimRng) -> FaultSite {
        match rng.below(3) {
            0 => FaultSite::DiskServe {
                host: rng.below(3) as u32,
            },
            1 => FaultSite::TargetRespond {
                host: rng.below(3) as u32,
            },
            _ => FaultSite::MbProcess {
                mb: rng.below(2) as u32,
            },
        }
    }

    /// One full soak: a fresh state seeded with `seed`, driven through a
    /// schedule of arms/disarms/decisions derived from the same seed.
    fn soak(seed: u64) -> Vec<String> {
        let state = FaultState::new(seed);
        // The driver RNG is decorrelated from the decision RNG but equally
        // seed-determined.
        let mut driver = SimRng::seed_from_u64(seed ^ 0xD1CE_CAFE_F00D_BEEF);
        let mut armed: Vec<u64> = Vec::new();
        for tick in 0..300u64 {
            let now = SimTime::from_nanos(tick * 1_000);
            if driver.chance(0.15) {
                let fault = random_fault(&mut driver);
                armed.push(state.arm(now, fault));
            }
            if !armed.is_empty() && driver.chance(0.08) {
                let idx = driver.below(armed.len() as u64) as usize;
                state.disarm(now, armed.swap_remove(idx));
            }
            for _ in 0..driver.below(4) {
                let site = random_site(&mut driver);
                let _ = state.decide(now, site);
            }
        }
        state.trace()
    }

    proptest! {
        /// Same seed, same schedule, same decisions — byte-identical traces.
        #[test]
        fn same_seed_schedules_replay_identically(seed in 0u64..u64::MAX) {
            let a = soak(seed);
            let b = soak(seed);
            prop_assert_eq!(&a, &b);
            // The soak must actually exercise the machinery, not trivially
            // compare empty traces.
            prop_assert!(!a.is_empty());
        }

        /// Different seeds almost surely diverge — the seed is load-bearing.
        #[test]
        fn different_seeds_diverge(seed in 0u64..(u64::MAX - 1)) {
            let a = soak(seed);
            let b = soak(seed + 1);
            prop_assert!(a != b);
        }
    }

    // Runner mechanics against a real cloud: condition windows with
    // auto-heal, heals before events at the same instant, commands on
    // unregistered middle-boxes, and run-to-run trace determinism.

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn plan() -> FaultPlan {
        FaultPlan::new(2024)
            // Storage host 0 goes mute at t=4s, after the window below.
            .at(secs(4), Fault::MuteTarget { host: 0 })
            // A 2-second disk latency window on storage host 0 from t=1s.
            .window(
                secs(1),
                SimDuration::from_secs(2),
                Fault::DiskDelay {
                    host: 0,
                    extra: SimDuration::from_millis(3),
                    prob: 0.5,
                },
            )
            // A middle-box slowdown armed as the window heals.
            .at(
                secs(3),
                Fault::MbDelay {
                    mb: 0,
                    delay: SimDuration::from_micros(40),
                    prob: 1.0,
                },
            )
            // Nothing registered middle-box 7.
            .at(secs(5), Fault::MbCrash { mb: 7 })
    }

    fn run_once() -> Vec<String> {
        let mut cloud = Cloud::build(CloudConfig::default());
        let mut runner = FaultRunner::new(plan());
        runner.arm_cloud(&mut cloud);
        runner.run(&mut cloud, secs(2));
        runner.run(&mut cloud, secs(6));
        runner.trace()
    }

    #[test]
    fn windows_heal_before_events_at_the_same_instant() {
        let trace = run_once();
        let expected = [
            "t=1000000000 arm #1 DiskDelay",
            // The window's heal at t=3s comes before the event due then.
            "t=3000000000 disarm #1",
            "t=3000000000 arm #2 MbDelay",
            "t=4000000000 arm #3 MuteTarget",
            "t=5000000000 cmd crash mb 7: unregistered",
        ];
        assert_eq!(trace.len(), expected.len(), "{trace:?}");
        for (line, want) in trace.iter().zip(expected) {
            assert!(line.starts_with(want), "{trace:?}");
        }
    }

    #[test]
    fn whole_cloud_runs_replay_identically() {
        assert_eq!(
            run_once(),
            run_once(),
            "same plan over the same cloud must trace identically"
        );
    }
}
