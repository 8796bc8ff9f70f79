//! Fault injection: link failures, volume failures and connection aborts
//! must degrade gracefully, never corrupt data, and be visible to the
//! right party.

use bytes::Bytes;
use storm::cloud::{IoCtx, IoKind, IoResult, ReqId, Workload};
use storm::scenario::{Run, Spec};
use storm_block::BlockDevice;
use storm_sim::{SimDuration, SimTime};

/// Issues writes forever; counts completions and failures.
struct Forever {
    ok: u64,
    failed: u64,
}

impl Workload for Forever {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        io.write(0, Bytes::from(vec![1u8; 4096]));
    }
    fn completed(&mut self, io: &mut IoCtx<'_>, _r: ReqId, _k: IoKind, result: IoResult) {
        if result.ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
        // lba 0 keeps its initial pattern; churn happens above it.
        let lba = 8 + (self.ok % 63) * 8;
        io.write(lba, Bytes::from(vec![(self.ok % 251) as u8; 4096]));
    }
}

/// A guest on compute0 writing forever to a 32 MiB volume it attached
/// directly, with no middle-box in between.
fn direct_forever() -> Run {
    let spec = Spec {
        client_seed: 4,
        label: "vm:f",
        volume_bytes: 32 << 20,
        mode: None,
        ..Spec::default()
    };
    spec.build(Forever { ok: 0, failed: 0 }, |_, _| {})
}

/// Cutting the storage link mid-run stalls I/O without corrupting
/// anything; the backing volume holds only fully-acknowledged writes.
#[test]
fn storage_link_failure_stalls_but_does_not_corrupt() {
    let mut run = direct_forever();
    run.run_until(SimTime::from_nanos(1_000_000_000));
    let ok_before = {
        let c = run.cloud.client_mut(0, run.app);
        assert!(c.is_ready());
        c.stats.writes.count()
    };
    assert!(ok_before > 100);
    // Cut the storage host's link.
    let storage_host = run.cloud.storages[0].host;
    let link = run.cloud.net.host(storage_host).ifaces[0].link.unwrap();
    run.cloud.net.fabric.set_link_up(link, false);
    run.run_until(SimTime::from_nanos(2_000_000_000));
    let ok_during = run.cloud.client_mut(0, run.app).stats.writes.count();
    // Progress stops (at most a few in-flight completions drain).
    assert!(
        ok_during - ok_before < 20,
        "I/O must stall: {ok_before} -> {ok_during}"
    );
    // Restore: (no retransmission is modelled, so the stalled session does
    // not resume — but the fabric and volume stay consistent.)
    run.cloud.net.fabric.set_link_up(link, true);
    let mut buf = vec![0u8; 4096];
    run.volume.shared.clone().read(0, &mut buf).unwrap();
    assert!(
        buf.iter().all(|&b| b == 1),
        "acknowledged data must persist"
    );
}

/// A failed backing volume surfaces as SCSI errors to the client — the
/// client sees CHECK CONDITION, not silent corruption.
#[test]
fn volume_failure_surfaces_scsi_errors() {
    let mut run = direct_forever();
    run.run_until(SimTime::from_nanos(500_000_000));
    run.volume.shared.fail();
    run.run_until(SimTime::from_nanos(1_500_000_000));
    let client = run.cloud.client_mut(0, run.app);
    assert!(
        client.stats.errors > 0,
        "device failure must surface as I/O errors"
    );
    let w = run.workload::<Forever>();
    assert!(w.failed > 0);
    // Recovery: I/O flows again.
    run.volume.shared.recover();
    let ok_now = run.workload::<Forever>().ok;
    run.run_until(SimTime::from_nanos(2_500_000_000));
    let after = run.workload::<Forever>().ok;
    assert!(after > ok_now, "I/O must resume after recovery");
}

/// Frames never loop forever even with a broken forwarding setup: the hop
/// guard drops them.
#[test]
fn forwarding_loops_are_bounded() {
    use storm_net::{LinkSpec, Network, SockAddr};
    let mut net = Network::new(3);
    // Two forwarding hosts routing each other's traffic back and forth.
    let a = net.add_host("a", 1);
    let b = net.add_host("b", 1);
    let ia = net.add_iface(a, [10, 0, 0, 1].into());
    let ib = net.add_iface(b, [10, 0, 0, 2].into());
    let sw = net.add_switch("sw", 4);
    net.link_host_switch(a, ia, sw, LinkSpec::instant());
    net.link_host_switch(b, ib, sw, LinkSpec::instant());
    net.enable_forwarding(a, SimDuration::ZERO);
    net.enable_forwarding(b, SimDuration::ZERO);
    // Each host routes the phantom destination via the other: a loop.
    net.add_route(a, [10, 9, 9, 9].into(), 32, Some([10, 0, 0, 2].into()), ia);
    net.add_route(b, [10, 9, 9, 9].into(), 32, Some([10, 0, 0, 1].into()), ib);

    /// App that fires one SYN at the phantom address.
    struct OneSyn;
    impl storm_net::App for OneSyn {
        fn on_start(&mut self, cx: &mut storm_net::Cx<'_>) {
            let _ = cx.connect(SockAddr::new([10, 9, 9, 9].into(), 80));
        }
    }
    net.add_app(a, Box::new(OneSyn));
    // If the hop guard failed this would loop forever; bounded termination
    // is the assertion.
    net.run_until(SimTime::from_nanos(100_000_000));
    assert!(
        net.events_delivered() < 10_000,
        "loop must be cut by the hop guard"
    );
}
