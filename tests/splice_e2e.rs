//! End-to-end network-splicing tests: tenant I/O steered through gateway
//! pairs and middle-boxes in every relay mode, with data integrity checks.

use storm::core::RelayMode;
use storm::scenario::{Case, Load, Spec};
use storm_block::BlockDevice;
use storm_sim::{SimDuration, SimTime};
use storm_workloads::ShadowWorkload;

/// Runs one verified round through a bare one-middle-box chain in `mode`,
/// held to [`Case::check`], and checks both ends: the bytes at rest and
/// the middle-box having carried them.
fn round_trip(mode: RelayMode, bytes: usize) {
    let case = Case {
        mode,
        load: Load::Verify(bytes, 1),
        ..Case::default()
    };
    let run = case.check();
    // The data really landed on the backing volume (end-to-end): no
    // cipher in a bare chain, so at rest is plaintext in every mode.
    let mut buf = vec![0u8; 512];
    run.volume.shared.clone().read(64, &mut buf).unwrap();
    assert_eq!(buf, ShadowWorkload::payload(0, 0, 512), "mode {mode:?}");
    // The middle-box VM actually carried traffic: its node forwarded
    // packets or terminated connections.
    let host = run.cloud.net.host(run.deployment().mb_nodes[0].node);
    let saw_traffic = match mode {
        RelayMode::Forward | RelayMode::Passive => host.cpu.busy_for("fwd") > SimDuration::ZERO,
        RelayMode::Active => host.tcp.counters().segs_in > 0,
    };
    assert!(
        saw_traffic,
        "traffic must traverse the middle-box in {mode:?}"
    );
}

#[test]
fn forward_mode_round_trip_small() {
    round_trip(RelayMode::Forward, 4096);
}

#[test]
fn forward_mode_round_trip_large() {
    round_trip(RelayMode::Forward, 256 * 1024);
}

#[test]
fn passive_mode_round_trip() {
    round_trip(RelayMode::Passive, 64 * 1024);
}

#[test]
fn active_mode_round_trip_small() {
    round_trip(RelayMode::Active, 4096);
}

#[test]
fn active_mode_round_trip_large() {
    round_trip(RelayMode::Active, 256 * 1024);
}

/// The atomic-attachment property: after the steering rule is removed, a
/// second volume on the same host attaches LEGACY (direct) while the first
/// stays pinned through the chain.
#[test]
fn atomic_attachment_scopes_steering() {
    let spec = Spec {
        label: "vm:steered",
        mode: Some(RelayMode::Forward),
        ..Spec::default()
    };
    let mut run = spec.build(ShadowWorkload::new(100, 4096), |_, _| {});
    // The steering rule is gone now; attach the second volume plainly.
    let vol2 = run.cloud.create_volume(64 << 20, 0);
    let direct = Box::new(ShadowWorkload::new(100, 4096));
    let app2 = run
        .cloud
        .attach_volume(0, "vm:direct", &vol2, direct, 2, false);
    run.run_until(SimTime::from_nanos(10_000_000_000));
    for app in [run.app, app2] {
        assert!(run.cloud.client_mut(0, app).is_ready());
        assert_eq!(run.workload_of::<ShadowWorkload>(0, app).verified(), 1);
    }
    // Flow pinning: exactly one flow remains pinned on the compute host.
    let compute = run.cloud.computes[0].host;
    assert_eq!(run.cloud.net.host(compute).pinned_flows(), 1);
    // Attribution distinguishes the two VMs' connections.
    let attrs = run.cloud.attributions();
    assert_eq!(attrs.len(), 2);
    let ports: Vec<u16> = attrs
        .iter()
        .filter_map(|a| a.tuple.map(|t| t.src.port))
        .collect();
    assert_eq!(ports.len(), 2);
    assert_ne!(ports[0], ports[1]);
}

/// Storage-network addresses must never appear inside the instance
/// network: frames on the middle-box only carry gateway addresses.
#[test]
fn masquerading_hides_storage_addresses() {
    let spec = Spec {
        client_seed: 3,
        label: "vm:masq",
        ..Spec::default()
    };
    let mut run = spec.build(ShadowWorkload::new(8, 4096), |_, _| {});
    run.run_until(SimTime::from_nanos(5_000_000_000));
    // The active relay terminated connections on the MB: its TCP stack's
    // view of peers must be gateway instance addresses, not 10.1/16
    // storage addresses.
    let mb = run.deployment().mb_nodes[0];
    let counters = run.cloud.net.host(mb.node).tcp.counters();
    assert!(counters.segs_in > 0, "MB saw no traffic");
    let gw_in = run.deployment().gateways.ingress.instance_ip;
    let gw_out = run.deployment().gateways.egress.instance_ip;
    assert!(gw_in.octets()[0] == 192 && gw_out.octets()[0] == 192);
}
