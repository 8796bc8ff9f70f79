//! Case 3: tenant-defined replica dispatch.
//!
//! "For write I/O operations, in addition to forwarding the data to the
//! original volume, our replication service copies exactly the same I/O
//! data in advance to other backup volumes ... for read I/O operations,
//! the replication service alternatively chooses one of the available
//! replicas ... Once a replica is not responsive ... it will be eliminated
//! from future operations. The unfinished reads of that failed replica are
//! served from one of the other active replicas."

use std::collections::BTreeMap;

use bytes::Bytes;

use storm_core::{Dir, StorageService, SvcCtx};
use storm_iscsi::exchange::{data_in_train, BlockCmd, BlockOp, Exchange, Staged};
use storm_iscsi::{Pdu, ScsiCommand};
use storm_sim::SimDuration;

/// Counters for the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Writes fanned out to replicas.
    pub replica_writes: u64,
    /// Reads served from a replica instead of the primary.
    pub striped_reads: u64,
    /// Reads forwarded to the primary volume.
    pub primary_reads: u64,
    /// Reads retried after a replica failure.
    pub retried_reads: u64,
    /// Replica write failures observed.
    pub write_failures: u64,
}

#[derive(Debug, Clone)]
struct PendingRead {
    /// The command PDU as received (forwarded if the primary must serve).
    pdu: ScsiCommand,
    cmd: BlockCmd,
    replica: usize,
}

/// The replica-dispatch middle-box service.
///
/// The middle-box it runs in must be deployed with the matching
/// [`storm_core::relay::ReplicaTarget`] list; `replica_count` here is the
/// number of *backup* volumes (the primary is the normal forward path).
pub struct ReplicationService {
    replica_count: usize,
    alive: Vec<bool>,
    stripe_reads: bool,
    rr: usize,
    next_ctx: u64,
    // BTreeMaps: `pending_reads` is iterated on replica failure and the
    // re-dispatch order must be deterministic across equal-seed runs.
    pending_reads: BTreeMap<u64, PendingRead>,
    /// Measurements.
    pub stats: ReplicationStats,
    per_byte: SimDuration,
    /// Writes whose payload is still arriving as Data-Out.
    staging: Exchange,
    /// Consecutive I/O failures per replica; at `fail_threshold` the
    /// replica is declared unresponsive and removed (the paper's
    /// "eliminated from future operations").
    consecutive_failures: Vec<usize>,
    fail_threshold: usize,
}

impl ReplicationService {
    /// Creates a dispatcher over `replica_count` backup volumes.
    pub fn new(replica_count: usize, stripe_reads: bool) -> Self {
        ReplicationService {
            replica_count,
            alive: vec![true; replica_count],
            stripe_reads,
            rr: 0,
            next_ctx: 1,
            pending_reads: BTreeMap::new(),
            stats: ReplicationStats::default(),
            per_byte: SimDuration::from_nanos(0),
            staging: Exchange::default(),
            consecutive_failures: vec![0; replica_count],
            fail_threshold: 3,
        }
    }

    /// Live replicas.
    pub fn alive_replicas(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    fn ctx(&mut self) -> u64 {
        let c = self.next_ctx;
        self.next_ctx += 1;
        c
    }

    /// Picks the next read source: `None` = primary, `Some(i)` = replica i.
    fn pick_read_source(&mut self) -> Option<usize> {
        if !self.stripe_reads {
            return None;
        }
        let lanes = 1 + self.alive_replicas();
        let lane = self.rr % lanes;
        self.rr += 1;
        if lane == 0 {
            return None;
        }
        // The lane-th alive replica.
        let mut seen = 0;
        for (i, alive) in self.alive.iter().enumerate() {
            if *alive {
                seen += 1;
                if seen == lane {
                    return Some(i);
                }
            }
        }
        None
    }

    fn mirror_write(&mut self, cx: &mut SvcCtx, lba: u64, data: &Bytes) {
        for i in 0..self.replica_count {
            if self.alive[i] {
                let c = self.ctx();
                cx.replica_write(i, lba, data.clone(), c);
                self.stats.replica_writes += 1;
            }
        }
    }

    /// Sends a read to the next source in the stripe: a replica (the
    /// completion comes back through `on_replica_done`) or, when the
    /// rotation lands on it or no replica is left, the primary. Returns
    /// whether a replica took it.
    fn dispatch_read(&mut self, cx: &mut SvcCtx, pdu: ScsiCommand, cmd: BlockCmd) -> bool {
        let source = self.pick_read_source();
        match source {
            None => {
                self.stats.primary_reads += 1;
                cx.forward(Pdu::ScsiCommand(pdu));
            }
            Some(replica) => {
                let ctx_id = self.ctx();
                self.pending_reads
                    .insert(ctx_id, PendingRead { pdu, cmd, replica });
                cx.replica_read(replica, cmd.lba, cmd.sectors, ctx_id);
            }
        }
        source.is_some()
    }
}

impl StorageService for ReplicationService {
    fn name(&self) -> &str {
        "replication"
    }

    fn on_pdu(&mut self, cx: &mut SvcCtx, dir: Dir, pdu: Pdu) {
        if dir == Dir::ToInitiator {
            cx.forward(pdu);
            return;
        }
        match pdu {
            Pdu::ScsiCommand(c) => match BlockCmd::parse(&c, u64::MAX) {
                Ok(cmd) if cmd.op == BlockOp::Write => {
                    // Mirror immediate data now; stage the rest.
                    if let Staged::Complete(_, data) = self.staging.stage(c.itt, cmd, &c.data) {
                        self.mirror_write(cx, cmd.lba, &data);
                    }
                    cx.forward(Pdu::ScsiCommand(c));
                }
                Ok(cmd) if cmd.op == BlockOp::Read => {
                    if self.dispatch_read(cx, c, cmd) {
                        self.stats.striped_reads += 1;
                    }
                }
                _ => cx.forward(Pdu::ScsiCommand(c)),
            },
            Pdu::DataOut(d) => {
                let staged = self.staging.absorb(d.itt, d.buffer_offset, &d.data);
                if let Staged::Complete(cmd, data) = staged {
                    self.mirror_write(cx, cmd.lba, &data);
                }
                cx.forward(Pdu::DataOut(d));
            }
            other => cx.forward(other),
        }
    }

    fn on_replica_done(
        &mut self,
        cx: &mut SvcCtx,
        replica: usize,
        ctx: u64,
        ok: bool,
        data: Bytes,
    ) {
        // Claim the completion BEFORE the unresponsiveness bookkeeping: a
        // threshold-crossing failure below runs `on_replica_failed`, which
        // re-dispatches every read still in `pending_reads`. If this ctx
        // were still there it would be retried twice and the miss afterward
        // would be miscounted as a write failure.
        let pending = self.pending_reads.remove(&ctx);
        // Unresponsiveness detection: repeated failures remove the replica.
        if replica < self.consecutive_failures.len() {
            if ok {
                self.consecutive_failures[replica] = 0;
            } else {
                self.consecutive_failures[replica] += 1;
                if self.consecutive_failures[replica] >= self.fail_threshold {
                    self.on_replica_failed(cx, replica);
                }
            }
        }
        if let Some(pending) = pending {
            if ok {
                // The primary would answer in its negotiated segment size;
                // the middle-box uses the 64 KiB default.
                for pdu in data_in_train(pending.pdu.itt, data, 64 * 1024) {
                    cx.reply(pdu);
                }
            } else {
                // Retry: another replica, else fall back to the primary.
                // `pick_read_source` only ever returns alive replicas.
                self.stats.retried_reads += 1;
                self.dispatch_read(cx, pending.pdu, pending.cmd);
            }
        } else if !ok {
            self.stats.write_failures += 1;
        }
    }

    fn on_replica_failed(&mut self, cx: &mut SvcCtx, replica: usize) {
        if replica < self.alive.len() && self.alive[replica] {
            self.alive[replica] = false;
            cx.alert(format!(
                "replica {replica} failed; {} of {} remain in service",
                self.alive_replicas(),
                self.replica_count
            ));
            // Unfinished reads on that replica are re-dispatched.
            let stranded: Vec<u64> = self
                .pending_reads
                .iter()
                .filter(|(_, p)| p.replica == replica)
                .map(|(c, _)| *c)
                .collect();
            for ctx_id in stranded {
                if let Some(pending) = self.pending_reads.remove(&ctx_id) {
                    self.stats.retried_reads += 1;
                    self.dispatch_read(cx, pending.pdu, pending.cmd);
                }
            }
        }
    }

    fn per_byte_cost(&self) -> SimDuration {
        self.per_byte
    }
}

impl std::fmt::Debug for ReplicationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicationService")
            .field("replicas", &self.replica_count)
            .field("alive", &self.alive_replicas())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_core::service::{ReplicaIo, SvcAction};
    use storm_iscsi::exchange::{data_out_train, status_response};
    use storm_iscsi::ScsiStatus;
    use storm_sim::SimTime;

    fn write_cmd(itt: u32, lba: u64, data: Bytes) -> Pdu {
        let sectors = (data.len() / 512) as u32;
        let op = BlockOp::Write;
        BlockCmd { op, lba, sectors }.command(itt, 1, 1, data)
    }

    fn read_cmd(itt: u32, lba: u64, sectors: u32) -> Pdu {
        let op = BlockOp::Read;
        BlockCmd { op, lba, sectors }.command(itt, 1, 1, Bytes::new())
    }

    fn actions(svc: &mut ReplicationService, dir: Dir, pdu: Pdu) -> Vec<SvcAction> {
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_pdu(&mut cx, dir, pdu);
        cx.take_actions()
    }

    #[test]
    fn writes_fan_out_to_all_replicas_and_forward() {
        let mut svc = ReplicationService::new(2, true);
        let data = Bytes::from(vec![9u8; 1024]);
        let acts = actions(&mut svc, Dir::ToTarget, write_cmd(1, 10, data));
        let writes: Vec<_> = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    SvcAction::Replica {
                        io: ReplicaIo::Write { .. },
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(writes.len(), 2);
        assert!(acts.iter().any(|a| matches!(a, SvcAction::Forward(_))));
        assert_eq!(svc.stats.replica_writes, 2);
    }

    #[test]
    fn staged_writes_mirror_after_data_out() {
        let mut svc = ReplicationService::new(1, false);
        // Command with half the data immediate.
        let mut full = vec![0u8; 2048];
        full[0] = 0xAA;
        let full = Bytes::from(full);
        let cmd = BlockCmd {
            op: BlockOp::Write,
            lba: 0,
            sectors: 4,
        };
        let acts = actions(
            &mut svc,
            Dir::ToTarget,
            cmd.command(4, 1, 1, full.slice(..1024)),
        );
        assert!(!acts.iter().any(|a| matches!(a, SvcAction::Replica { .. })));
        // The trailing Data-Out completes the buffer and triggers mirror.
        let dout = data_out_train(4, 1, 1, &full, 1024..2048, 1024)
            .next()
            .unwrap();
        let acts = actions(&mut svc, Dir::ToTarget, dout);
        let mirrored = acts.iter().any(
            |a| matches!(a, SvcAction::Replica { io: ReplicaIo::Write { lba: 0, data }, .. } if data.len() == 2048),
        );
        assert!(mirrored, "actions: {acts:?}");
    }

    #[test]
    fn reads_stripe_round_robin_across_primary_and_replicas() {
        let mut svc = ReplicationService::new(2, true);
        let mut forwarded = 0;
        let mut striped = 0;
        for i in 0..6 {
            let acts = actions(&mut svc, Dir::ToTarget, read_cmd(i, 0, 8));
            if acts.iter().any(|a| matches!(a, SvcAction::Forward(_))) {
                forwarded += 1;
            }
            if acts.iter().any(|a| {
                matches!(
                    a,
                    SvcAction::Replica {
                        io: ReplicaIo::Read { .. },
                        ..
                    }
                )
            }) {
                striped += 1;
            }
        }
        // 3 lanes (primary + 2 replicas), 6 reads: 2 each.
        assert_eq!(forwarded, 2);
        assert_eq!(striped, 4);
        assert_eq!(svc.stats.primary_reads, 2);
        assert_eq!(svc.stats.striped_reads, 4);
    }

    #[test]
    fn replica_read_completion_synthesizes_data_in() {
        let mut svc = ReplicationService::new(1, true);
        // Force the read onto the replica (lane 1 of 2).
        svc.rr = 1;
        let acts = actions(&mut svc, Dir::ToTarget, read_cmd(9, 100, 8));
        let ctx = acts
            .iter()
            .find_map(|a| match a {
                SvcAction::Replica { ctx, .. } => Some(*ctx),
                _ => None,
            })
            .expect("read dispatched to replica");
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_replica_done(&mut cx, 0, ctx, true, Bytes::from(vec![5u8; 4096]));
        let replies: Vec<SvcAction> = cx.take_actions();
        match &replies[..] {
            [SvcAction::Reply(Pdu::DataIn(d))] => {
                assert_eq!(d.itt, 9);
                assert!(d.final_pdu && d.status_present);
                assert_eq!(d.data.len(), 4096);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn failed_replica_is_removed_and_reads_redirect() {
        let mut svc = ReplicationService::new(2, true);
        svc.rr = 1; // next read goes to replica 0
        let acts = actions(&mut svc, Dir::ToTarget, read_cmd(1, 0, 8));
        assert!(acts
            .iter()
            .any(|a| matches!(a, SvcAction::Replica { replica: 0, .. })));
        // Replica 0 dies with the read outstanding.
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_replica_failed(&mut cx, 0);
        let acts = cx.take_actions();
        assert!(acts.iter().any(|a| matches!(a, SvcAction::Alert(_))));
        // The stranded read is re-dispatched (to replica 1 or the primary).
        assert!(
            acts.iter().any(|a| matches!(
                a,
                SvcAction::Replica {
                    replica: 1,
                    io: ReplicaIo::Read { .. },
                    ..
                }
            ) || matches!(a, SvcAction::Forward(_))),
            "actions: {acts:?}"
        );
        assert_eq!(svc.alive_replicas(), 1);
        assert_eq!(svc.stats.retried_reads, 1);
        // Future writes only mirror to the survivor.
        let acts = actions(
            &mut svc,
            Dir::ToTarget,
            write_cmd(2, 0, Bytes::from(vec![0u8; 512])),
        );
        let mirrors = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    SvcAction::Replica {
                        io: ReplicaIo::Write { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(mirrors, 1);
    }

    #[test]
    fn failed_replica_write_counts_write_failure() {
        let mut svc = ReplicationService::new(2, true);
        let acts = actions(
            &mut svc,
            Dir::ToTarget,
            write_cmd(1, 0, Bytes::from(vec![0u8; 512])),
        );
        let ctxs: Vec<u64> = acts
            .iter()
            .filter_map(|a| match a {
                SvcAction::Replica {
                    io: ReplicaIo::Write { .. },
                    ctx,
                    ..
                } => Some(*ctx),
                _ => None,
            })
            .collect();
        assert_eq!(ctxs.len(), 2);
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_replica_done(&mut cx, 0, ctxs[0], false, Bytes::new());
        assert_eq!(svc.stats.write_failures, 1);
        assert_eq!(svc.stats.retried_reads, 0);
        // A successful completion must not bump the counter.
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_replica_done(&mut cx, 1, ctxs[1], true, Bytes::new());
        assert_eq!(svc.stats.write_failures, 1);
    }

    #[test]
    fn failed_replica_read_retries_on_another_source() {
        let mut svc = ReplicationService::new(2, true);
        svc.rr = 1; // next read goes to replica 0
        let acts = actions(&mut svc, Dir::ToTarget, read_cmd(7, 64, 8));
        let ctx = acts
            .iter()
            .find_map(|a| match a {
                SvcAction::Replica {
                    replica: 0, ctx, ..
                } => Some(*ctx),
                _ => None,
            })
            .expect("read dispatched to replica 0");
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_replica_done(&mut cx, 0, ctx, false, Bytes::new());
        let acts = cx.take_actions();
        // Re-dispatched exactly once: to another replica or the primary,
        // and the miss must NOT be miscounted as a write failure.
        let retried = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    SvcAction::Replica {
                        io: ReplicaIo::Read { .. },
                        ..
                    }
                ) || matches!(a, SvcAction::Forward(_))
            })
            .count();
        assert_eq!(retried, 1, "actions: {acts:?}");
        assert_eq!(svc.stats.retried_reads, 1);
        assert_eq!(svc.stats.write_failures, 0);
    }

    #[test]
    fn threshold_crossing_read_failure_is_not_double_dispatched() {
        // Three consecutive failed reads on replica 0 cross fail_threshold
        // inside on_replica_done. The third completion's own pending read
        // must be claimed before the eviction re-dispatches stranded reads,
        // otherwise it is retried twice and write_failures is bumped.
        let mut svc = ReplicationService::new(2, true);
        let fail_read = |svc: &mut ReplicationService, itt: u32| {
            svc.rr = 1; // force replica 0
            let acts = actions(svc, Dir::ToTarget, read_cmd(itt, 0, 8));
            let ctx = acts
                .iter()
                .find_map(|a| match a {
                    SvcAction::Replica {
                        replica: 0, ctx, ..
                    } => Some(*ctx),
                    _ => None,
                })
                .expect("read on replica 0");
            let mut cx = SvcCtx::new(SimTime::ZERO);
            svc.on_replica_done(&mut cx, 0, ctx, false, Bytes::new());
            cx.take_actions()
        };
        fail_read(&mut svc, 1);
        fail_read(&mut svc, 2);
        let acts = fail_read(&mut svc, 3); // crosses fail_threshold = 3
        assert_eq!(svc.alive_replicas(), 1);
        let dispatches = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    SvcAction::Replica {
                        io: ReplicaIo::Read { .. },
                        ..
                    }
                ) || matches!(a, SvcAction::Forward(_))
            })
            .count();
        assert_eq!(dispatches, 1, "actions: {acts:?}");
        assert_eq!(svc.stats.write_failures, 0);
        assert_eq!(svc.stats.retried_reads, 3);
    }

    #[test]
    fn responses_pass_through_untouched() {
        let mut svc = ReplicationService::new(2, true);
        let resp = status_response(3, ScsiStatus::Good);
        let acts = actions(&mut svc, Dir::ToInitiator, resp.clone());
        assert!(matches!(&acts[..], [SvcAction::Forward(p)] if *p == resp));
    }

    /// A bare tenant `edtl` used to size the staging buffer.
    #[test]
    fn write_whose_length_disagrees_with_its_cdb_is_forwarded_unstaged() {
        let mut svc = ReplicationService::new(1, false);
        let Pdu::ScsiCommand(mut c) = write_cmd(1, 0, Bytes::from(vec![1u8; 512])) else {
            unreachable!()
        };
        c.edtl = 0xFFFF_FE00;
        let acts = actions(&mut svc, Dir::ToTarget, Pdu::ScsiCommand(c.clone()));
        assert!(matches!(&acts[..], [SvcAction::Forward(Pdu::ScsiCommand(f))] if *f == c));
        assert!(svc.staging.is_empty());
    }
}
