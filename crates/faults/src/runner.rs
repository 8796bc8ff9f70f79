//! Drives a cloud through a fault schedule.

use std::collections::VecDeque;
use std::hash::RandomState;
use std::sync::Arc;

use storm_cloud::Cloud;
use storm_core::relay::{ActiveRelayMb, MbControl};
use storm_net::{AppId, BusMsg, HostId};
use storm_sim::{IdMap, SimDuration, SimTime};

use crate::plan::{Fault, FaultPlan, TimedEvent};
use crate::state::FaultState;

enum Heal {
    MbRestart(u32),
    Disarm(u64),
}

/// Executes a [`FaultPlan`] against a [`Cloud`].
///
/// The runner owns the armed [`FaultState`]; wire its hooks into the
/// layers under test with [`arm_cloud`](Self::arm_cloud) /
/// [`arm_mb`](Self::arm_mb), then call [`run`](Self::run) instead of
/// `cloud.net.run_until`. The simulation advances to each event instant
/// exactly, so a plan replays identically run after run.
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
        let (seed, timed) = plan.into_timed();
        FaultRunner {
            state: FaultState::new(seed),
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
            let hook = self.state.hook();
            cloud.target_mut(i).set_fault_hook(hook, i as u32);
        }
    }

    /// Arms the active-relay middle-box app at `(node, app)` and registers
    /// it as middle-box `mb` for [`Fault::MbCrash`] delivery and
    /// [`storm_sim::FaultSite::MbProcess`] sites.
    ///
    /// Returns false (and registers nothing) if the app is not an
    /// [`ActiveRelayMb`].
    pub fn arm_mb(&mut self, cloud: &mut Cloud, mb: u32, node: HostId, app: AppId) -> bool {
        let hook = self.state.hook();
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
            let now = cloud.net.now();
            let mut next = until;
            if let Some(e) = self.timed.front() {
                next = next.min(e.at);
            }
            if let Some(t) = self.heals.iter().map(|&(t, _)| t).min() {
                next = next.min(t);
            }
            let next = next.max(now);
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
            self.apply(cloud, now, e.fault, e.duration);
        }
    }

    fn apply(
        &mut self,
        cloud: &mut Cloud,
        now: SimTime,
        fault: Fault,
        duration: Option<SimDuration>,
    ) {
        match fault {
            Fault::MbCrash { mb } => {
                if let Some(&(node, app)) = self.mbs.get(&mb) {
                    cloud.net.bus_send(
                        node,
                        node,
                        app,
                        SimDuration::ZERO,
                        BusMsg::new(MbControl::Crash),
                    );
                    self.state.note(now, &format!("cmd crash mb {mb}"));
                    if let Some(d) = duration {
                        self.heals.push((now + d, Heal::MbRestart(mb)));
                    }
                } else {
                    self.state
                        .note(now, &format!("cmd crash mb {mb}: unregistered"));
                }
            }
            condition => {
                let id = self.state.arm(now, condition);
                if let (Some(d), true) = (duration, id != 0) {
                    self.heals.push((now + d, Heal::Disarm(id)));
                }
            }
        }
    }

    fn apply_heal(&mut self, cloud: &mut Cloud, now: SimTime, heal: Heal) {
        match heal {
            Heal::MbRestart(mb) => {
                if let Some(&(node, app)) = self.mbs.get(&mb) {
                    cloud.net.bus_send(
                        node,
                        node,
                        app,
                        SimDuration::ZERO,
                        BusMsg::new(MbControl::Restart),
                    );
                    self.state.note(now, &format!("cmd restart mb {mb}"));
                }
            }
            Heal::Disarm(id) => self.state.disarm(now, id),
        }
    }
}

impl std::fmt::Debug for FaultRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultRunner")
            .field("timed_remaining", &self.timed.len())
            .field("heals_pending", &self.heals.len())
            .finish()
    }
}
