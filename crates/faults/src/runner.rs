//! Drives a cloud through a fault schedule.

use std::collections::VecDeque;
use std::hash::RandomState;
use std::sync::Arc;

use storm_cloud::{Cloud, VolumeHandle};
use storm_core::relay::{ActiveRelayMb, MbControl};
use storm_net::{AppId, BusMsg, HostId, LinkId};
use storm_sim::{IdMap, SimDuration, SimTime};

use crate::plan::{Fault, FaultSchedule, TimedEvent};
use crate::state::FaultState;

enum Heal {
    LinkUp(u32),
    Rejoin(Vec<u32>),
    MbRestart(u32),
    Disarm(u64),
}

/// Executes a [`FaultSchedule`] against a [`Cloud`].
///
/// The runner owns the armed [`FaultState`]; wire its hooks into the
/// layers under test with [`arm_cloud`](Self::arm_cloud) /
/// [`arm_volume`](Self::arm_volume) / [`arm_mb`](Self::arm_mb), then call
/// [`run`](Self::run) instead of `cloud.net.run_until`. The simulation
/// advances to each event instant exactly, so a schedule replays
/// identically run after run.
pub struct FaultRunner {
    state: Arc<FaultState>,
    timed: VecDeque<TimedEvent>,
    heals: Vec<(SimTime, u64, Heal)>,
    next_heal_seq: u64,
    mbs: IdMap<u32, (HostId, AppId), RandomState>,
}

impl FaultRunner {
    /// Creates a runner for `schedule`, seeding the decision state from
    /// the schedule's seed.
    pub fn new(schedule: FaultSchedule) -> Self {
        FaultRunner {
            state: FaultState::new(schedule.seed),
            timed: schedule.timed.into(),
            heals: Vec::new(),
            next_heal_seq: 0,
            mbs: IdMap::default(),
        }
    }

    /// The armed decision state (for minting extra hooks or reading the
    /// trace).
    pub fn state(&self) -> &Arc<FaultState> {
        &self.state
    }

    /// A copy of the event trace so far.
    pub fn trace(&self) -> Vec<String> {
        self.state.trace()
    }

    /// Arms the fabric (frame loss, link transmit) and every storage
    /// target (disk latency, muted responses) in `cloud`.
    pub fn arm_cloud(&self, cloud: &mut Cloud) {
        cloud.net.fabric.set_fault_hook(self.state.hook());
        for i in 0..cloud.storages.len() {
            let hook = self.state.hook();
            cloud.target_mut(i).set_fault_hook(hook, i as u32);
        }
    }

    /// Arms a volume for [`Fault::MediumError`] injection.
    pub fn arm_volume(&self, vol: &VolumeHandle) {
        vol.shared.set_fault_hook(self.state.hook());
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
            if let Some(t) = self.heals.iter().map(|(t, _, _)| *t).min() {
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
        let mut due: Vec<(SimTime, u64, Heal)> = Vec::new();
        self.heals.retain_mut(|entry| {
            if entry.0 <= now {
                due.push((
                    entry.0,
                    entry.1,
                    std::mem::replace(&mut entry.2, Heal::Disarm(0)),
                ));
                false
            } else {
                true
            }
        });
        due.sort_by_key(|(t, seq, _)| (*t, *seq));
        for (_, _, heal) in due {
            self.apply_heal(cloud, now, heal);
        }
        while self.timed.front().is_some_and(|e| e.at <= now) {
            let e = self.timed.pop_front().expect("peeked");
            self.apply(cloud, now, e.fault, e.duration);
        }
    }

    fn schedule_heal(&mut self, at: SimTime, heal: Heal) {
        let seq = self.next_heal_seq;
        self.next_heal_seq += 1;
        self.heals.push((at, seq, heal));
    }

    fn apply(
        &mut self,
        cloud: &mut Cloud,
        now: SimTime,
        fault: Fault,
        duration: Option<SimDuration>,
    ) {
        match fault {
            Fault::LinkDown { link } => {
                assert!(
                    (link as usize) < cloud.net.fabric.link_count(),
                    "fault plan names unknown link {link} (fabric has {})",
                    cloud.net.fabric.link_count()
                );
                cloud.net.fabric.set_link_up(LinkId(link), false);
                self.state.note(now, &format!("cmd link-down {link}"));
                if let Some(d) = duration {
                    self.schedule_heal(now + d, Heal::LinkUp(link));
                }
            }
            Fault::Partition { host } => {
                assert!(
                    (host as usize) < cloud.net.host_count(),
                    "fault plan names unknown host {host} (network has {})",
                    cloud.net.host_count()
                );
                let links: Vec<u32> = cloud
                    .net
                    .host(HostId(host))
                    .ifaces
                    .iter()
                    .filter_map(|i| i.link)
                    .map(|l| l.0)
                    .collect();
                for &l in &links {
                    cloud.net.fabric.set_link_up(LinkId(l), false);
                }
                self.state
                    .note(now, &format!("cmd partition host {host} (links {links:?})"));
                if let Some(d) = duration {
                    self.schedule_heal(now + d, Heal::Rejoin(links));
                }
            }
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
                        self.schedule_heal(now + d, Heal::MbRestart(mb));
                    }
                } else {
                    self.state
                        .note(now, &format!("cmd crash mb {mb}: unregistered"));
                }
            }
            condition => {
                let id = self.state.arm(now, condition);
                if let (Some(d), true) = (duration, id != 0) {
                    self.schedule_heal(now + d, Heal::Disarm(id));
                }
            }
        }
    }

    fn apply_heal(&mut self, cloud: &mut Cloud, now: SimTime, heal: Heal) {
        match heal {
            Heal::LinkUp(link) => {
                cloud.net.fabric.set_link_up(LinkId(link), true);
                self.state.note(now, &format!("cmd link-up {link}"));
            }
            Heal::Rejoin(links) => {
                for &l in &links {
                    cloud.net.fabric.set_link_up(LinkId(l), true);
                }
                self.state
                    .note(now, &format!("cmd heal partition (links {links:?})"));
            }
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
            Heal::Disarm(0) => {}
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
