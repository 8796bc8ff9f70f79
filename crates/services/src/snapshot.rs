//! Instant block-level snapshots with copy-on-first-write.
//!
//! [`SnapshotService::take_snapshot`] is O(1): it opens a new epoch in a
//! [`CowExtentMap`]. The cost is paid lazily — the first write that
//! touches an extent after a snapshot is *parked*, the extent's
//! pre-image is fetched from the primary volume over the service's
//! replica session, preserved in the map, and only then is the write
//! released toward the target. Later writes to a copied extent pass
//! straight through. Preserved images plus the live volume reconstruct
//! any retained snapshot ([`CowExtentMap::materialize`]) — the
//! backup/clone path exercised by `examples/backup_clone.rs`.
//!
//! While a pre-image fetch is in flight, every subsequent write-path PDU
//! queues behind it so writes reach the target in arrival order; reads
//! may overtake parked writes (legal — those writes are unacknowledged).
//!
//! Deployment: the service must be the *last* in the chain (released
//! PDUs travel straight on to the target) and its middle-box needs one
//! replica target — index 0, pointing at the primary volume itself.
//!
//! With no snapshot taken the service forwards the received PDU value
//! untouched and charges nothing: the zero-copy fast path survives.

use std::collections::BTreeSet;

use bytes::Bytes;

use storm_block::CowExtentMap;
use storm_core::{Dir, StorageService, SvcCtx};
use storm_iscsi::exchange::{BlockCmd, BlockOp};
use storm_iscsi::{Pdu, ScsiCommand};
use storm_sim::SimDuration;

/// Replica session index of the primary volume (pre-image reads).
const PRIMARY: usize = 0;

/// Counters for the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapStats {
    /// Snapshots taken.
    pub snapshots: u64,
    /// Copy-on-first-write pre-image fetches completed.
    pub cow_copies: u64,
    /// Pre-image bytes preserved.
    pub preserved_bytes: u64,
    /// Write-path PDUs parked behind a pre-image fetch.
    pub parked_pdus: u64,
    /// Pre-image fetches that failed (extent left unprotected).
    pub failed_copies: u64,
}

/// The snapshot / copy-on-write service.
pub struct SnapshotService {
    cow: CowExtentMap,
    /// Extents whose pre-image fetch is in flight.
    fetching: BTreeSet<u64>,
    /// Extents we gave up protecting after a failed fetch.
    broken: BTreeSet<u64>,
    /// Write-path PDUs queued behind in-flight fetches, arrival order.
    parked: Vec<Pdu>,
    per_byte: SimDuration,
    /// Measurements.
    pub stats: SnapStats,
}

impl SnapshotService {
    /// Creates the service with `extent_sectors`-sector CoW granularity.
    pub fn new(extent_sectors: u64) -> Self {
        SnapshotService {
            cow: CowExtentMap::new(extent_sectors),
            fetching: BTreeSet::new(),
            broken: BTreeSet::new(),
            parked: Vec::new(),
            // Extent-map lookup per sector.
            per_byte: SimDuration::from_nanos(1),
            stats: SnapStats::default(),
        }
    }

    /// Takes an instant snapshot; returns its id. Extents already copied
    /// for an earlier epoch are protected again (first write after this
    /// snapshot re-preserves them).
    pub fn take_snapshot(&mut self) -> u64 {
        self.stats.snapshots += 1;
        self.broken.clear();
        self.cow.take_snapshot()
    }

    /// The copy-on-write extent map (for materializing clones).
    pub fn cow(&self) -> &CowExtentMap {
        &self.cow
    }

    /// Sets the per-byte CPU cost charged while a snapshot is active.
    pub fn set_per_byte_cost(&mut self, cost: SimDuration) {
        self.per_byte = cost;
    }

    /// Whether a snapshot is active (writes may need copying).
    fn active(&self) -> bool {
        self.cow.epoch() > 0
    }

    /// Starts pre-image fetches for every unprotected extent under the
    /// write; returns true when the write must wait for at least one. A
    /// command that fails the exchange checks touches no extent.
    fn fetch_preimages(&mut self, cx: &mut SvcCtx, c: &ScsiCommand) -> bool {
        let cmd = match BlockCmd::parse(c, u64::MAX) {
            Ok(cmd) if cmd.op == BlockOp::Write => cmd,
            _ => return false,
        };
        let mut must_wait = false;
        for extent in self.cow.extents_of(cmd.lba, cmd.sectors as u64) {
            if self.broken.contains(&extent) {
                continue;
            }
            if self.fetching.contains(&extent) {
                must_wait = true;
                continue;
            }
            if self.cow.needs_preserve(extent) {
                must_wait = true;
                self.fetching.insert(extent);
                let es = self.cow.extent_sectors();
                cx.replica_read(PRIMARY, extent * es, es as u32, extent);
            }
        }
        must_wait
    }

    /// Releases parked PDUs in order until one needs a fetch again (or
    /// the queue drains).
    fn drain_parked(&mut self, cx: &mut SvcCtx) {
        while !self.parked.is_empty() {
            let pdu = self.parked.remove(0);
            if let Pdu::ScsiCommand(c) = &pdu {
                if c.write && self.fetch_preimages(cx, c) {
                    self.parked.insert(0, pdu);
                    return;
                }
            }
            cx.forward(pdu);
        }
    }
}

impl StorageService for SnapshotService {
    fn name(&self) -> &str {
        "snapshot"
    }

    fn on_pdu(&mut self, cx: &mut SvcCtx, dir: Dir, pdu: Pdu) {
        if dir == Dir::ToInitiator || !self.active() {
            cx.forward(pdu);
            return;
        }
        match pdu {
            Pdu::ScsiCommand(c) if c.write => {
                cx.charge(self.per_byte * c.edtl as u64);
                if !self.parked.is_empty() {
                    // Keep write order behind in-flight fetches.
                    self.stats.parked_pdus += 1;
                    self.parked.push(Pdu::ScsiCommand(c));
                    return;
                }
                if self.fetch_preimages(cx, &c) {
                    self.stats.parked_pdus += 1;
                    self.parked.push(Pdu::ScsiCommand(c));
                    return;
                }
                cx.forward(Pdu::ScsiCommand(c));
            }
            Pdu::DataOut(d) => {
                // A Data-Out belongs to the most recent write with its
                // ITT: if that write is parked, its data rides behind it
                // (the command's full extent range is already fetching).
                if self
                    .parked
                    .iter()
                    .any(|p| matches!(p, Pdu::ScsiCommand(c) if c.itt == d.itt))
                {
                    self.stats.parked_pdus += 1;
                    self.parked.push(Pdu::DataOut(d));
                } else {
                    cx.forward(Pdu::DataOut(d));
                }
            }
            other => cx.forward(other),
        }
    }

    fn on_replica_done(
        &mut self,
        cx: &mut SvcCtx,
        _replica: usize,
        ctx: u64,
        ok: bool,
        data: Bytes,
    ) {
        let extent = ctx;
        if !self.fetching.remove(&extent) {
            return;
        }
        if ok {
            self.stats.cow_copies += 1;
            self.stats.preserved_bytes += data.len() as u64;
            // storm-lint: allow(no-hot-path-copy): copy-on-first-write
            // pre-image retention; only runs with a snapshot active.
            self.cow.preserve(extent, data.to_vec());
        } else {
            self.stats.failed_copies += 1;
            self.broken.insert(extent);
            cx.alert(format!(
                "snapshot: pre-image read of extent {extent} failed; extent left unprotected"
            ));
        }
        if self.fetching.is_empty() {
            self.drain_parked(cx);
        }
    }

    fn on_replica_failed(&mut self, cx: &mut SvcCtx, _replica: usize) {
        // Primary session gone: stop blocking the datapath. Every extent
        // still fetching is abandoned and its writes released.
        let stranded: Vec<u64> = self.fetching.iter().copied().collect();
        for extent in stranded {
            self.fetching.remove(&extent);
            self.broken.insert(extent);
            self.stats.failed_copies += 1;
        }
        cx.alert("snapshot: primary replica session failed; suspending copy-on-write");
        self.drain_parked(cx);
    }

    fn per_byte_cost(&self) -> SimDuration {
        if self.active() {
            self.per_byte
        } else {
            SimDuration::ZERO
        }
    }
}

impl std::fmt::Debug for SnapshotService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotService")
            .field("epoch", &self.cow.epoch())
            .field("preserved_extents", &self.cow.preserved_extents())
            .field("parked", &self.parked.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_block::{BlockDevice, MemDisk, SECTOR_SIZE};
    use storm_core::service::{ReplicaIo, SvcAction};
    use storm_sim::SimTime;

    fn write_cmd(itt: u32, lba: u64, data: Vec<u8>) -> Pdu {
        let sectors = (data.len() / 512) as u32;
        let op = BlockOp::Write;
        BlockCmd { op, lba, sectors }.command(itt, 1, 1, Bytes::from(data))
    }

    fn read_cmd(itt: u32, lba: u64, sectors: u32) -> Pdu {
        let op = BlockOp::Read;
        BlockCmd { op, lba, sectors }.command(itt, 1, 1, Bytes::new())
    }

    fn actions(svc: &mut SnapshotService, dir: Dir, pdu: Pdu) -> Vec<SvcAction> {
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_pdu(&mut cx, dir, pdu);
        cx.take_actions()
    }

    /// Runs the service against a MemDisk-backed "primary", serving its
    /// replica reads and applying released writes to the disk.
    fn pump(svc: &mut SnapshotService, disk: &mut MemDisk, acts: Vec<SvcAction>) {
        let mut queue = acts;
        while !queue.is_empty() {
            let mut next = SvcCtx::new(SimTime::ZERO);
            for act in queue {
                match act {
                    SvcAction::Replica {
                        io: ReplicaIo::Read { lba, sectors },
                        ctx,
                        ..
                    } => {
                        let mut buf = vec![0u8; sectors as usize * 512];
                        disk.read(lba, &mut buf).unwrap();
                        svc.on_replica_done(&mut next, 0, ctx, true, Bytes::from(buf));
                    }
                    SvcAction::Forward(Pdu::ScsiCommand(c)) if c.write => {
                        if let Ok(cmd) = BlockCmd::parse(&c, u64::MAX) {
                            disk.write(cmd.lba, &c.data).unwrap();
                        }
                    }
                    _ => {}
                }
            }
            queue = next.take_actions();
        }
    }

    #[test]
    fn without_snapshot_everything_forwards_verbatim() {
        let mut svc = SnapshotService::new(8);
        let pdu = write_cmd(1, 0, vec![1u8; 4096]);
        let acts = actions(&mut svc, Dir::ToTarget, pdu.clone());
        assert!(matches!(&acts[..], [SvcAction::Forward(p)] if *p == pdu));
        assert_eq!(svc.per_byte_cost(), SimDuration::ZERO);
        assert_eq!(svc.stats, SnapStats::default());
    }

    #[test]
    fn first_write_after_snapshot_parks_and_preserves() {
        let mut svc = SnapshotService::new(8);
        let snap = svc.take_snapshot();
        let pdu = write_cmd(1, 0, vec![0xEE; 4096]);
        let acts = actions(&mut svc, Dir::ToTarget, pdu.clone());
        // The write is held; a pre-image read goes to the primary.
        assert!(!acts.iter().any(|a| matches!(a, SvcAction::Forward(_))));
        let ctx = acts
            .iter()
            .find_map(|a| match a {
                SvcAction::Replica {
                    io: ReplicaIo::Read { lba: 0, .. },
                    ctx,
                    ..
                } => Some(*ctx),
                _ => None,
            })
            .expect("pre-image fetch issued");
        // Completion preserves the old bytes and releases the write.
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_replica_done(&mut cx, 0, ctx, true, Bytes::from(vec![0xAA; 8 * 512]));
        let acts = cx.take_actions();
        assert!(
            acts.iter()
                .any(|a| matches!(a, SvcAction::Forward(p) if *p == pdu)),
            "parked write released: {acts:?}"
        );
        assert_eq!(svc.cow().image_at(snap, 0).unwrap()[0], 0xAA);
        assert_eq!(svc.stats.cow_copies, 1);
    }

    #[test]
    fn second_write_to_copied_extent_passes_through() {
        let mut svc = SnapshotService::new(8);
        svc.take_snapshot();
        let mut disk = MemDisk::with_capacity_bytes(1 << 20);
        let acts = actions(&mut svc, Dir::ToTarget, write_cmd(1, 0, vec![1u8; 4096]));
        pump(&mut svc, &mut disk, acts);
        // Same extent again: released immediately, no fetch.
        let acts = actions(&mut svc, Dir::ToTarget, write_cmd(2, 0, vec![2u8; 4096]));
        assert!(matches!(
            &acts[..],
            [SvcAction::Charge(_), SvcAction::Forward(_)]
        ));
    }

    #[test]
    fn writes_stay_ordered_behind_a_fetch_and_reads_overtake() {
        let mut svc = SnapshotService::new(8);
        svc.take_snapshot();
        let w1 = write_cmd(1, 0, vec![1u8; 512]);
        let w2 = write_cmd(2, 64, vec![2u8; 512]);
        let acts1 = actions(&mut svc, Dir::ToTarget, w1.clone());
        let ctx1 = acts1
            .iter()
            .find_map(|a| match a {
                SvcAction::Replica { ctx, .. } => Some(*ctx),
                _ => None,
            })
            .expect("fetch for w1");
        // w2 targets a different extent but must still queue behind w1.
        let acts2 = actions(&mut svc, Dir::ToTarget, w2.clone());
        assert!(!acts2.iter().any(|a| matches!(a, SvcAction::Forward(_))));
        // A read overtakes the parked writes.
        let r = read_cmd(3, 0, 1);
        let acts3 = actions(&mut svc, Dir::ToTarget, r.clone());
        assert!(matches!(&acts3[..], [SvcAction::Forward(p)] if *p == r));
        // w1's fetch completes: w1 released, then w2 needs its own fetch.
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_replica_done(&mut cx, 0, ctx1, true, Bytes::from(vec![0u8; 8 * 512]));
        let acts = cx.take_actions();
        assert!(acts
            .iter()
            .any(|a| matches!(a, SvcAction::Forward(p) if *p == w1)));
        let ctx2 = acts
            .iter()
            .find_map(|a| match a {
                SvcAction::Replica { ctx, .. } => Some(*ctx),
                _ => None,
            })
            .expect("fetch for w2's extent");
        assert!(!acts
            .iter()
            .any(|a| matches!(a, SvcAction::Forward(p) if *p == w2)));
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_replica_done(&mut cx, 0, ctx2, true, Bytes::from(vec![0u8; 8 * 512]));
        let acts = cx.take_actions();
        assert!(acts
            .iter()
            .any(|a| matches!(a, SvcAction::Forward(p) if *p == w2)));
    }

    #[test]
    fn snapshot_materializes_pre_divergence_image() {
        let mut svc = SnapshotService::new(8);
        let mut disk = MemDisk::with_capacity_bytes(32 * SECTOR_SIZE as u64);
        disk.write(0, &vec![0xAB; 8 * SECTOR_SIZE]).unwrap();
        disk.write(8, &vec![0xCD; 8 * SECTOR_SIZE]).unwrap();
        let snap = svc.take_snapshot();
        // Diverge: overwrite the first extent through the service.
        let acts = actions(&mut svc, Dir::ToTarget, write_cmd(1, 0, vec![0x11; 4096]));
        pump(&mut svc, &mut disk, acts);
        let mut buf = [0u8; SECTOR_SIZE];
        disk.read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0x11, "live volume diverged");
        // The clone sees the snapshot-time bytes.
        let mut clone = MemDisk::with_capacity_bytes(32 * SECTOR_SIZE as u64);
        svc.cow().materialize(snap, &mut disk, &mut clone).unwrap();
        clone.read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0xAB);
        clone.read(8, &mut buf).unwrap();
        assert_eq!(buf[0], 0xCD);
    }

    #[test]
    fn failed_fetch_releases_writes_and_alerts() {
        let mut svc = SnapshotService::new(8);
        svc.take_snapshot();
        let w = write_cmd(1, 0, vec![1u8; 512]);
        let acts = actions(&mut svc, Dir::ToTarget, w.clone());
        let ctx = acts
            .iter()
            .find_map(|a| match a {
                SvcAction::Replica { ctx, .. } => Some(*ctx),
                _ => None,
            })
            .expect("fetch issued");
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_replica_done(&mut cx, 0, ctx, false, Bytes::new());
        let acts = cx.take_actions();
        assert!(acts.iter().any(|a| matches!(a, SvcAction::Alert(_))));
        assert!(acts
            .iter()
            .any(|a| matches!(a, SvcAction::Forward(p) if *p == w)));
        assert_eq!(svc.stats.failed_copies, 1);
        // The broken extent no longer blocks writes.
        let acts = actions(&mut svc, Dir::ToTarget, write_cmd(2, 0, vec![2u8; 512]));
        assert!(acts.iter().any(|a| matches!(a, SvcAction::Forward(_))));
    }
}
