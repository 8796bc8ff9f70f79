//! Platform feature tests: service chaining across multiple middle-box
//! VMs, dynamic SDN scale-down, attribution lookups and tenant isolation.

use bytes::Bytes;
use storm::cloud::{sdn, Cloud, CloudConfig};
use storm::core::service::PassthroughService;
use storm::core::{MbSpec, RelayMode, StormPlatform};
use storm::workloads::ShadowWorkload;
use storm_sim::{SimDuration, SimTime};

/// Two middle-box VMs chained on the same flow (paper §II-B's bundle):
/// traffic must traverse both, in order.
#[test]
fn two_middlebox_chain_forwards_through_both() {
    let mut cloud = Cloud::build(CloudConfig::default());
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(64 << 20, 0);
    let deployment = platform.deploy_chain(
        &mut cloud,
        &vol,
        (1, 2),
        vec![
            MbSpec::bare(3, RelayMode::Forward),
            MbSpec::with_services(
                0,
                RelayMode::Active,
                vec![Box::new(PassthroughService::new())],
            ),
        ],
    );
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:chained",
        &vol,
        Box::new(ShadowWorkload::new(0, 4096).rounds(20)),
        13,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(10_000_000_000));
    let client = cloud.client_mut(0, app);
    assert!(
        client.is_ready(),
        "login through a 2-MB chain must complete"
    );
    assert_eq!(client.stats.errors, 0);
    assert!(client.stats.ops() >= 40);
    // Both middle-boxes carried the flow.
    let fwd_mb = deployment.mb_nodes[0];
    assert!(
        cloud.net.host(fwd_mb.node).cpu.busy_for("fwd") > SimDuration::ZERO,
        "first (forwarding) middle-box must have forwarded packets"
    );
    let act_mb = deployment.mb_nodes[1];
    assert!(
        cloud.net.host(act_mb.node).tcp.counters().segs_in > 0,
        "second (active) middle-box must have terminated the flow"
    );
}

/// Dynamic scale-down: removing the chain rules mid-run reroutes *new*
/// flows directly while the platform keeps serving.
#[test]
fn chain_rules_can_be_removed_dynamically() {
    let mut cloud = Cloud::build(CloudConfig::default());
    let platform = StormPlatform::default();
    let vol = cloud.create_volume(64 << 20, 0);
    let deployment = platform.deploy_chain(
        &mut cloud,
        &vol,
        (1, 2),
        vec![MbSpec::bare(3, RelayMode::Forward)],
    );
    // Rules present on the ingress gateway's host OVS.
    let ingress_ovs = deployment.forward_chain.ingress_ovs;
    assert!(!cloud.net.fabric.switch(ingress_ovs).flows().is_empty());
    let removed = platform.tear_down_rules(&mut cloud, &deployment);
    assert!(
        removed >= 2,
        "forward + reverse rules removed, got {removed}"
    );
    assert!(cloud.net.fabric.switch(ingress_ovs).flows().is_empty());
    // Idempotent.
    assert_eq!(platform.tear_down_rules(&mut cloud, &deployment), 0);
}

/// Attribution: the platform can answer "which VM owns source port P?"
/// (the lookup behind fine-grained per-flow policies).
#[test]
fn attribution_maps_ports_to_vms() {
    let mut cloud = Cloud::build(CloudConfig::default());
    let volumes = [0, 1].map(|_| cloud.create_volume(32 << 20, 0));
    for (seed, label, vol) in [(1, "vm:alpha", &volumes[0]), (2, "vm:beta", &volumes[1])] {
        let shadow = Box::new(ShadowWorkload::new(0, 4096).rounds(2));
        cloud.attach_volume(0, label, vol, shadow, seed, false);
    }
    cloud.net.run_until(SimTime::from_nanos(3_000_000_000));
    let attrs = cloud.attributions();
    assert_eq!(attrs.len(), 2);
    for a in &attrs {
        let tuple = a.tuple.expect("sessions connected");
        assert_eq!(
            cloud.vm_for_port(tuple.src.port).as_deref(),
            Some(a.vm_label.as_str())
        );
    }
    // Target-side login records agree on the IQNs.
    let logins = cloud.target_mut(0).logins().to_vec();
    assert_eq!(logins.len(), 2);
    // An unknown port maps to no VM.
    assert_eq!(cloud.vm_for_port(1), None);
}

/// Tenant isolation: ports tagged for tenant A never deliver frames to
/// tenant B's middle-boxes, even when flooding.
#[test]
fn tenant_tags_isolate_guest_traffic() {
    let mut cloud = Cloud::build(CloudConfig::default());
    // Two guests of different tenants on the same host OVS.
    let a = cloud.spawn_guest("mb-a", 0, 1, false, false);
    let b = cloud.spawn_guest("mb-b", 0, 2, false, false);
    let ovs = cloud.computes[0].ovs;
    // Craft a frame from tenant 1's port to an unknown MAC (floods).
    use storm_net::{Frame, MacAddr, TcpFlags, TcpSegment};
    let mut frame = Frame {
        src_mac: a.mac,
        dst_mac: MacAddr::nth(9999),
        src_ip: a.instance_ip,
        dst_ip: b.instance_ip,
        tcp: TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            wnd: 0,
            payload: Bytes::new().into(),
        },
        hops: 0,
    };
    let mut out = Vec::new();
    let ovs = cloud.net.fabric.switch_mut(ovs);
    ovs.forward_in_place(&mut frame, a.ovs_port, &mut out);
    assert!(
        out.iter().all(|port| *port != b.ovs_port),
        "flooded frame must not reach the other tenant's vif"
    );
}

/// A ChainSpec with port scoping installs per-flow rules (the paper's
/// fine-grained selection), and removal restores the table.
#[test]
fn port_scoped_chains_are_fine_grained() {
    let mut cloud = Cloud::build(CloudConfig::default());
    let mb = cloud.spawn_guest("mb", 3, 1, false, false);
    let gw_in = cloud.spawn_guest("gwi", 1, 1, true, true);
    let gw_out = cloud.spawn_guest("gwo", 2, 1, true, true);
    let spec = sdn::ChainSpec {
        vm_port: Some(40_077),
        ingress_mac: gw_in.mac,
        ingress_ovs: cloud.computes[1].ovs,
        egress_mac: gw_out.mac,
        egress_ovs: cloud.computes[2].ovs,
        hops: vec![sdn::ChainHop {
            mac: mb.mac,
            ovs: cloud.computes[3].ovs,
        }],
    };
    sdn::install_chain(&mut cloud.net, &spec);
    let rules: Vec<_> = spec.forward_rules();
    assert!(rules.iter().all(|(_, m, _)| m.src_port == Some(40_077)));
    assert_eq!(sdn::remove_chain(&mut cloud.net, &spec), 2);
}
