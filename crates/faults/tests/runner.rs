//! Runner mechanics against a real cloud: timed commands, windows with
//! auto-heal, and run-to-run trace determinism.

use storm_cloud::{Cloud, CloudConfig};
use storm_faults::{Fault, FaultPlan, FaultRunner};
use storm_sim::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn plan(storage_host: u32) -> FaultPlan {
    FaultPlan::new(2024)
        // A 2-second partition of the first storage host starting at t=1s.
        .window(
            secs(1),
            SimDuration::from_secs(2),
            Fault::Partition { host: storage_host },
        )
        // Permanent medium error armed at t=2s.
        .at(
            secs(2),
            Fault::MediumError {
                volume: 1,
                lba: 0,
                sectors: 8,
            },
        )
        // Link 0 goes down for good at t=4s.
        .at(secs(4), Fault::LinkDown { link: 0 })
}

fn run_once() -> (Vec<String>, bool, bool) {
    let mut cloud = Cloud::build(CloudConfig::default());
    let storage_host = cloud.storages[0].host;
    let mut runner = FaultRunner::new(plan(storage_host.0).schedule());
    runner.arm_cloud(&mut cloud);

    runner.run(&mut cloud, secs(2));
    // Mid-partition: every link on the storage host is down.
    let partitioned = cloud
        .net
        .host(storage_host)
        .ifaces
        .iter()
        .filter_map(|i| i.link)
        .all(|l| !cloud.net.fabric.link(l).is_up());

    runner.run(&mut cloud, secs(6));
    // Partition healed at t=3s; link 0 then went down for good at t=4s.
    let healed_then_cut = {
        let back_up = cloud
            .net
            .host(storage_host)
            .ifaces
            .iter()
            .filter_map(|i| i.link)
            .filter(|l| l.0 != 0)
            .all(|l| cloud.net.fabric.link(l).is_up());
        let cut = !cloud.net.fabric.link(storm_net::LinkId(0)).is_up();
        back_up && cut
    };
    (runner.trace(), partitioned, healed_then_cut)
}

#[test]
fn scheduled_commands_apply_heal_and_trigger() {
    let (trace, partitioned, healed_then_cut) = run_once();
    assert!(partitioned, "storage host must be partitioned at t=2s");
    assert!(
        healed_then_cut,
        "partition must heal and link 0 must go down"
    );
    let joined = trace.join("\n");
    assert!(joined.contains("partition host"), "{joined}");
    assert!(joined.contains("heal partition"), "{joined}");
    assert!(joined.contains("arm #1 MediumError"), "{joined}");
    // Ordering: partition precedes its heal precedes the link cut.
    let p = joined.find("partition host").unwrap();
    let h = joined.find("heal partition").unwrap();
    let f = joined.find("cmd link-down 0").unwrap();
    assert!(p < h && h < f, "{joined}");
}

#[test]
fn whole_cloud_runs_replay_identically() {
    let (a, _, _) = run_once();
    let (b, _, _) = run_once();
    assert_eq!(
        a, b,
        "same schedule over the same cloud must trace identically"
    );
}

#[test]
fn crash_on_unregistered_mb_is_noted_not_fatal() {
    let mut cloud = Cloud::build(CloudConfig::default());
    let mut runner = FaultRunner::new(
        FaultPlan::new(1)
            .at(secs(1), Fault::MbCrash { mb: 7 })
            .schedule(),
    );
    runner.run(&mut cloud, secs(2));
    let joined = runner.trace().join("\n");
    assert!(joined.contains("crash mb 7: unregistered"), "{joined}");
}
