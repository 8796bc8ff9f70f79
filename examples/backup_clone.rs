//! Snapshot-backed backup & clone (the suite's snapshot/CoW case study):
//! a tenant snapshots a live volume **instantly** at the middle-box,
//! keeps writing, then cuts a full clone of the snapshot image while the
//! live volume diverges — the paper's tenant-defined service story
//! applied to backup/clone workflows.
//!
//! The snapshot service parks first writes to unpreserved extents,
//! fetches the pre-image over its replica session, and lets the write
//! through only after the copy-on-first-write completes — so the clone
//! below is byte-exact even though the guest never paused.
//!
//! ```text
//! cargo run --release --example backup_clone
//! ```

use bytes::Bytes;
use storm::cloud::{IoCtx, IoKind, IoResult, ReqId, Workload};
use storm::net::AppId;
use storm::scenario::{Replica, Run, Spec};
use storm::services::SnapshotService;
use storm::telemetry::names::{self, tenant_scoped};
use storm::telemetry::MetricsRegistry;
use storm_block::{BlockDevice, MemDisk};
use storm_sim::SimDuration;

const BLOCKS: u64 = 8;
/// One CoW extent (128 sectors = 64 KiB) per written block.
const EXTENT_SECTORS: u64 = 128;
const BLOCK_BYTES: usize = 4096;

/// Writes each `(lba, payload)` pair once, in order, then stops.
struct WriteSet {
    ops: Vec<(u64, Bytes)>,
    next: usize,
    done: bool,
}

impl WriteSet {
    fn new(ops: Vec<(u64, Bytes)>) -> Self {
        WriteSet {
            ops,
            next: 0,
            done: false,
        }
    }
}

impl Workload for WriteSet {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        let (lba, data) = self.ops[0].clone();
        self.next = 1;
        io.write(lba, data);
    }

    fn completed(&mut self, io: &mut IoCtx<'_>, _req: ReqId, _kind: IoKind, result: IoResult) {
        assert!(result.ok, "write failed");
        if self.next < self.ops.len() {
            let (lba, data) = self.ops[self.next].clone();
            self.next += 1;
            io.write(lba, data);
        } else {
            self.done = true;
            io.stop();
        }
    }
}

/// Runs ten more seconds and checks the phase's writer finished cleanly.
fn finish_phase(run: &mut Run, app: AppId) {
    let deadline = run.cloud.net.now() + SimDuration::from_secs(10);
    run.run_until(deadline);
    let errors = run.cloud.client_mut(0, app).stats.errors;
    assert_eq!(errors, 0, "phase saw I/O errors");
    assert!(
        run.workload_of::<WriteSet>(0, app).done,
        "phase did not finish"
    );
}

fn main() {
    // One middle-box running the snapshot service; its replica session
    // points at the primary volume for pre-image fetches.
    let spec = Spec {
        client_seed: 31,
        label: "vm:db-v1",
        services: vec![Box::new(SnapshotService::new(EXTENT_SECTORS))],
        replicas: vec![Replica::Primary],
        ..Spec::default()
    };

    // Phase 1: the "database" lays down version-1 content, one block per
    // CoW extent. Epoch 0: the service forwards verbatim, zero overhead.
    let v1: Vec<(u64, Bytes)> = (0..BLOCKS)
        .map(|i| {
            (
                i * EXTENT_SECTORS,
                Bytes::from(vec![0x10 + i as u8; BLOCK_BYTES]),
            )
        })
        .collect();
    let mut run = spec.build(WriteSet::new(v1.clone()), |_, _| {});
    let app = run.app;
    finish_phase(&mut run, app);

    // Instant snapshot: one O(1) epoch bump at the middle-box. No I/O,
    // no quiesce, no copy yet.
    let snap_id = run.service::<SnapshotService>(0).take_snapshot();
    println!("snapshot {snap_id} taken at the middle-box (O(1), no copy)");

    // Phase 2: the live volume diverges — every even block is
    // overwritten, triggering copy-on-first-write per extent.
    let v2: Vec<(u64, Bytes)> = (0..BLOCKS)
        .step_by(2)
        .map(|i| {
            (
                i * EXTENT_SECTORS,
                Bytes::from(vec![0x60 + i as u8; BLOCK_BYTES]),
            )
        })
        .collect();
    let app = run.attach(0, "vm:db-v2", WriteSet::new(v2), 32);
    finish_phase(&mut run, app);

    // Clone: materialize the snapshot image onto a fresh device — live
    // data except where a preserved pre-image supersedes it.
    let mut clone = MemDisk::with_capacity_bytes(64 << 20);
    let mut live = run.volume.shared.clone();
    let snap = run.service::<SnapshotService>(0);
    snap.cow()
        .materialize(snap_id, &mut live, &mut clone)
        .expect("materialize clone");
    let (cow_copies, preserved_bytes) = (snap.stats.cow_copies, snap.stats.preserved_bytes);
    println!(
        "clone cut: {cow_copies} extents were copy-on-first-write ({preserved_bytes} bytes preserved)"
    );
    assert_eq!(
        cow_copies,
        BLOCKS.div_ceil(2),
        "one CoW per diverged extent"
    );

    // The clone is the exact v1 image — including the blocks the live
    // volume has since overwritten.
    let mut buf = vec![0u8; BLOCK_BYTES];
    for (i, (lba, data)) in v1.iter().enumerate() {
        clone.read(*lba, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[..], "clone block {i} diverged from v1");
    }
    // ...while the live volume carries the v2 overwrites.
    for i in (0..BLOCKS).step_by(2) {
        live.read(i * EXTENT_SECTORS, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == 0x60 + i as u8),
            "live block {i} must hold v2"
        );
    }
    println!("clone holds v1 everywhere; live volume holds v2 on diverged blocks ✓");

    // The clone is independent: scribbling on it leaves both the live
    // volume and the preserved snapshot untouched.
    clone.write(0, &vec![0xEE; BLOCK_BYTES]).unwrap();
    live.read(0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 0x60), "live volume must not move");
    println!("clone diverged independently of the live volume ✓");

    // Suite counters land in the per-tenant namespace.
    let mut registry = MetricsRegistry::new();
    registry.inc(&tenant_scoped(names::SVC_SNAP_COW_COPIES, 0), cow_copies);
    registry.set_gauge(
        &tenant_scoped(names::SVC_SNAP_PRESERVED_BYTES, 0),
        preserved_bytes as i64,
    );
    print!("\n[metrics]\n{}", registry.report());
}
