//! Runner mechanics against a real cloud: condition windows with
//! auto-heal, heals before events at the same instant, commands on
//! unregistered middle-boxes, and run-to-run trace determinism.

use storm_cloud::{Cloud, CloudConfig};
use storm_faults::{Fault, FaultPlan, FaultRunner};
use storm_sim::{SimDuration, SimTime};

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
