//! The tenant-facing storage service API.
//!
//! A [`StorageService`] is the tenant's middle-box logic. Services are
//! block-level: the active relay hands each one [`Op`]s — a command, write
//! or read data at an offset, a status — whatever wire protocol the flow
//! speaks, and executes the actions it emits: forwarding, replying,
//! issuing side I/O to replica volumes, raising alerts. The passive path
//! hands a service in-flight data-segment bytes instead. Services are pure
//! state machines — all timing flows through the relay — so the same
//! implementation runs in the simulator and in a threaded pipeline.

use std::cell::RefCell;

use bytes::Bytes;

use storm_block::transport::{BlockCmd, ScsiStatus, Step, Transfer};
use storm_iscsi::exchange::{r2t, Exchange};
use storm_iscsi::{Pdu, FIRST_BURST_LENGTH, MAX_BURST_LENGTH};
use storm_sim::{IdMap, SimDuration, SimTime};

use crate::relay::{lift_pdu, lower_pdus, Wire};

/// Direction of travel through the middle-box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// From the tenant VM towards the storage server.
    ToTarget,
    /// From the storage server back to the tenant VM.
    ToInitiator,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::ToTarget => Dir::ToInitiator,
            Dir::ToInitiator => Dir::ToTarget,
        }
    }
}

/// Side I/O issued by a service against a replica volume attached to the
/// middle-box.
#[derive(Debug, Clone)]
pub enum ReplicaIo {
    /// Write `data` at sector `lba`.
    Write {
        /// First sector.
        lba: u64,
        /// Payload (whole sectors).
        data: Bytes,
    },
    /// Read `sectors` sectors at `lba`.
    Read {
        /// First sector.
        lba: u64,
        /// Sector count.
        sectors: u32,
    },
}

/// One block operation travelling through the chain. Only its `data` can
/// change: one the relay received leaves with the header it came with,
/// around whatever data a service left in it. One a service makes
/// ([`Op::new`]) has no wire form until the relay lowers it; read data a
/// service makes is the read's whole answer, status good.
///
/// Its tag names the command across every flow the relay carries: the
/// flow in the high 32 bits, the command's wire tag (iSCSI initiator
/// task tag, nvmeq command id) in the low 32. A service keys per-command
/// state by it and gives an op it makes the tag of the op it answers; the
/// relay sends every op on the flow its tag names.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub(crate) step: Step,
    pub(crate) cmd: Option<BlockCmd>,
    pub(crate) tag: u64,
    /// The op's data: write data, read data or a command's immediate data.
    pub data: Bytes,
    pub(crate) wire: Option<Wire>,
}

impl Op {
    /// An op made by a service.
    pub fn new(step: Step, cmd: Option<BlockCmd>, tag: u64, data: Bytes) -> Op {
        Op {
            step,
            cmd,
            tag,
            data,
            wire: None,
        }
    }

    /// A command issued by a service, `data` riding with it.
    pub fn command(tag: u64, cmd: BlockCmd, data: Bytes) -> Op {
        Op::new(Step::Command, Some(cmd), tag, data)
    }

    /// A status a service answers with.
    pub fn status(tag: u64, status: ScsiStatus) -> Op {
        Op::new(Step::Status(status), None, tag, Bytes::new())
    }

    /// A service's request for `len` more bytes of write `tag`'s data at
    /// `offset`, the write's `seq`-th. Only iSCSI has one, so it is made as
    /// it goes out there: an R2T whose transfer tag is `seq + 1` (nvmeq
    /// writes carry all their data, and its edge drops the request).
    pub fn want_data(tag: u64, offset: u32, len: u32, seq: u32) -> Op {
        let r2t = Pdu::R2t(r2t(tag as u32, seq, seq.wrapping_add(1), offset, len));
        Op {
            wire: Some(Wire::Pdu(r2t, 0)),
            ..Op::new(Step::Other, None, tag, Bytes::new())
        }
    }

    /// The next [`want_data`](Op::want_data) for write `tag`, whose data
    /// `stage` assembles, if one is due within the burst limits every
    /// session declares; a service numbers its requests from 1.
    pub fn want_next(tag: u64, stage: &mut Transfer) -> Option<Op> {
        let (sn, offset, len) = stage.next_burst(FIRST_BURST_LENGTH, MAX_BURST_LENGTH)?;
        Some(Op::want_data(tag, offset, len, sn + 1))
    }

    /// What the op is.
    pub fn step(&self) -> Step {
        self.step
    }

    /// The open command it belongs to, when the relay knows it.
    pub fn cmd(&self) -> Option<BlockCmd> {
        self.cmd
    }

    /// The command's tag: its flow and its wire tag (see [`Op`]).
    pub fn tag(&self) -> u64 {
        self.tag
    }
}

/// An action emitted by a service, about units `U` (block ops on the
/// relay; PDUs through [`StorageService::on_pdu`]). On the relay a unit
/// travels on the flow its tag names ([`Op`]), whichever flow's op, replica
/// completion or timer the service was handling when it emitted it.
#[derive(Debug)]
pub enum SvcAction<U = Pdu> {
    /// Pass a unit onward in its direction of travel.
    Forward(U),
    /// Send a unit back towards where the triggering one came from
    /// (towards the guest from a replica completion or a timer).
    Reply(U),
    /// Issue I/O on replica session `replica`; completion arrives via
    /// [`StorageService::on_replica_done`] carrying `ctx`.
    Replica {
        /// Index of the replica session (deployment order).
        replica: usize,
        /// The operation.
        io: ReplicaIo,
        /// Opaque completion context.
        ctx: u64,
    },
    /// Raise a tenant-visible alert.
    Alert(String),
    /// Charge middle-box CPU time (service processing cost).
    Charge(SimDuration),
    /// Request a timer callback.
    Timer {
        /// Delay until the callback.
        delay: SimDuration,
        /// Token passed back.
        token: u64,
    },
}

/// Action collector handed to service callbacks.
#[derive(Debug)]
pub struct SvcCtx<U = Pdu> {
    /// Current simulation time.
    pub now: SimTime,
    actions: Vec<SvcAction<U>>,
}

impl<U> SvcCtx<U> {
    /// Creates a collector at `now`.
    pub fn new(now: SimTime) -> Self {
        SvcCtx {
            now,
            actions: Vec::new(),
        }
    }

    /// Takes the accumulated actions.
    pub fn take_actions(&mut self) -> Vec<SvcAction<U>> {
        std::mem::take(&mut self.actions)
    }

    /// Forwards a unit onward.
    pub fn forward(&mut self, unit: U) {
        self.actions.push(SvcAction::Forward(unit));
    }

    /// Replies back towards the source.
    pub fn reply(&mut self, unit: U) {
        self.actions.push(SvcAction::Reply(unit));
    }

    /// Issues a replica write.
    pub fn replica_write(&mut self, replica: usize, lba: u64, data: Bytes, ctx: u64) {
        self.actions.push(SvcAction::Replica {
            replica,
            io: ReplicaIo::Write { lba, data },
            ctx,
        });
    }

    /// Issues a replica read.
    pub fn replica_read(&mut self, replica: usize, lba: u64, sectors: u32, ctx: u64) {
        self.actions.push(SvcAction::Replica {
            replica,
            io: ReplicaIo::Read { lba, sectors },
            ctx,
        });
    }

    /// Raises an alert.
    pub fn alert(&mut self, msg: impl Into<String>) {
        self.actions.push(SvcAction::Alert(msg.into()));
    }

    /// Charges processing CPU time.
    pub fn charge(&mut self, cost: SimDuration) {
        self.actions.push(SvcAction::Charge(cost));
    }

    /// Requests a timer.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.actions.push(SvcAction::Timer { delay, token });
    }
}

thread_local! {
    /// [`StorageService::on_pdu`]'s command tables of the services with
    /// commands open, by service address: the shim sees bare PDUs, and
    /// only a table places their data. A table leaves the map once it is
    /// empty, so a service made where a dropped one lived starts with none.
    static SHIM_TABLES: RefCell<IdMap<usize, Exchange>> = RefCell::default();
}

/// A tenant-defined storage middle-box service.
///
/// Implementations must forward ops they do not consume — a service that
/// swallows ops breaks the session (intentionally possible: that is what
/// an IPS-style service would do).
///
/// `StorageService: Any` so harnesses can downcast deployed services (via
/// [`downcast_ref`]) to read logs and counters after a run.
///
/// [`downcast_ref`]: trait@StorageService#method.downcast_ref
#[allow(unused_variables)]
pub trait StorageService: std::any::Any {
    /// Service name (logging, policy matching).
    fn name(&self) -> &str;

    /// Active path: one block op travelling in `dir`.
    fn on_op(&mut self, cx: &mut SvcCtx<Op>, dir: Dir, op: Op);

    /// [`StorageService::on_op`] for a caller holding iSCSI PDUs: raises
    /// `pdu` to an op through a command table kept per service, and
    /// lowers the ops the service emits to PDUs exactly as the relay's
    /// iSCSI edge does. Kept for callers that predate block ops.
    fn on_pdu(&mut self, cx: &mut SvcCtx, dir: Dir, pdu: Pdu) {
        let key = (self as *const Self).cast::<()>() as usize;
        let op = SHIM_TABLES.with_borrow_mut(|t| lift_pdu(t.entry(key).or_default(), pdu, 0));
        let mut ops = SvcCtx::new(cx.now);
        self.on_op(&mut ops, dir, op);
        SHIM_TABLES.with_borrow_mut(|t| {
            let open = t.entry(key).or_default();
            for action in ops.take_actions() {
                match action {
                    SvcAction::Forward(op) => lower_pdus(open, op, |p| cx.forward(p)),
                    SvcAction::Reply(op) => lower_pdus(open, op, |p| cx.reply(p)),
                    SvcAction::Replica { replica, io, ctx } => {
                        cx.actions.push(SvcAction::Replica { replica, io, ctx })
                    }
                    SvcAction::Alert(msg) => cx.alert(msg),
                    SvcAction::Charge(cost) => cx.charge(cost),
                    SvcAction::Timer { delay, token } => cx.set_timer(delay, token),
                }
            }
            if open.is_empty() {
                t.remove(&key);
            }
        });
    }

    /// Completion of a [`SvcCtx::replica_write`] / [`SvcCtx::replica_read`].
    fn on_replica_done(
        &mut self,
        cx: &mut SvcCtx<Op>,
        replica: usize,
        ctx: u64,
        ok: bool,
        data: Bytes,
    ) {
    }

    /// A replica session failed (connection reset/refused).
    fn on_replica_failed(&mut self, cx: &mut SvcCtx<Op>, replica: usize) {}

    /// A timer requested via [`SvcCtx::set_timer`] fired.
    fn on_timer(&mut self, cx: &mut SvcCtx<Op>, token: u64) {}

    /// Passive path: the per-byte processing cost this service adds to
    /// forwarded packets.
    fn per_byte_cost(&self) -> SimDuration {
        SimDuration::ZERO
    }

    /// Passive path: transform in-flight data-segment bytes in place.
    /// `vol_offset` is the absolute byte offset on the volume, so
    /// position-keyed stream ciphers work across arbitrary packetization.
    fn transform(&mut self, dir: Dir, vol_offset: u64, data: &mut [u8]) {}
}

impl dyn StorageService {
    /// Downcasts to a concrete service type.
    pub fn downcast_ref<T: StorageService>(&self) -> Option<&T> {
        let any: &dyn std::any::Any = self;
        any.downcast_ref()
    }

    /// Downcasts to a concrete service type (mutable).
    pub fn downcast_mut<T: StorageService>(&mut self) -> Option<&mut T> {
        let any: &mut dyn std::any::Any = self;
        any.downcast_mut()
    }
}

/// A service that forwards everything untouched; useful as a chain
/// placeholder and in tests.
#[derive(Debug, Default)]
pub struct PassthroughService {
    ops: u64,
}

impl PassthroughService {
    /// Creates the service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ops seen.
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

impl StorageService for PassthroughService {
    fn name(&self) -> &str {
        "passthrough"
    }

    fn on_op(&mut self, cx: &mut SvcCtx<Op>, _dir: Dir, op: Op) {
        self.ops += 1;
        cx.forward(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_block::transport::BlockOp;
    use storm_iscsi::exchange::{data_in_train, scsi_command};

    /// A PDU with no data segment.
    fn flush() -> Pdu {
        let cmd = BlockCmd {
            op: BlockOp::Flush,
            lba: 0,
            sectors: 0,
        };
        scsi_command(cmd, 1, 1, 1, Bytes::new())
    }

    #[test]
    fn dir_flips() {
        assert_eq!(Dir::ToTarget.flip(), Dir::ToInitiator);
        assert_eq!(Dir::ToInitiator.flip(), Dir::ToTarget);
    }

    #[test]
    fn ctx_collects_actions_in_order() {
        let mut cx = SvcCtx::new(SimTime::ZERO);
        cx.charge(SimDuration::from_micros(5));
        cx.forward(flush());
        cx.alert("suspicious");
        cx.replica_write(1, 100, Bytes::from_static(&[0u8; 512]), 7);
        cx.set_timer(SimDuration::from_millis(1), 9);
        let actions = cx.take_actions();
        assert_eq!(actions.len(), 5);
        assert!(matches!(actions[0], SvcAction::Charge(_)));
        assert!(matches!(actions[1], SvcAction::Forward(_)));
        assert!(matches!(actions[2], SvcAction::Alert(ref m) if m == "suspicious"));
        assert!(matches!(
            actions[3],
            SvcAction::Replica {
                replica: 1,
                ctx: 7,
                io: ReplicaIo::Write { lba: 100, .. }
            }
        ));
        assert!(matches!(actions[4], SvcAction::Timer { token: 9, .. }));
        assert!(cx.take_actions().is_empty());
    }

    #[test]
    fn passthrough_forwards() {
        let mut svc = PassthroughService::new();
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_op(&mut cx, Dir::ToTarget, Op::status(1, ScsiStatus::Good));
        assert_eq!(svc.ops(), 1);
        let actions = cx.take_actions();
        assert!(matches!(&actions[..], [SvcAction::Forward(_)]));
        assert_eq!(svc.per_byte_cost(), SimDuration::ZERO);
        assert_eq!(svc.name(), "passthrough");
    }

    /// Flips every byte of the block data it can place and answers each
    /// read itself with 96 KiB of `0x5A`.
    struct Flip;

    impl StorageService for Flip {
        fn name(&self) -> &str {
            "flip"
        }

        fn on_op(&mut self, cx: &mut SvcCtx<Op>, _dir: Dir, mut op: Op) {
            if op.step() == Step::Command && op.cmd().is_some_and(|c| c.op == BlockOp::Read) {
                let data = vec![0x5A; 96 << 10].into();
                return cx.reply(Op::new(Step::ReadData(0), op.cmd(), op.tag(), data));
            }
            if op.step().volume_offset(op.cmd()).is_some() {
                op.data = op.data.iter().map(|b| !b).collect::<Vec<u8>>().into();
            }
            cx.forward(op);
        }
    }

    /// The PDU shim places data through its own table, re-emits a received
    /// PDU's header around the data the service left in it, lowers a
    /// service's own read answer to a Data-In train of 8 KiB segments, and
    /// drops the table once no command is open.
    #[test]
    fn on_pdu_lifts_and_lowers_like_the_iscsi_edge() {
        use storm_iscsi::exchange::{data_out_train, status_response};
        let (mut svc, mut cx) = (Flip, SvcCtx::new(SimTime::ZERO));
        let (op, lba, sectors) = (BlockOp::Write, 8, 2);
        let write = BlockCmd { op, lba, sectors };
        let payload = Bytes::from(vec![0x0F; 1024]);
        let dout = data_out_train(3, 0xFFFF_FFFF, 1, &payload, 512..1024, 512).next();
        let cmd = scsi_command(write, 3, 1, 1, payload.slice(..512));
        for pdu in [cmd, dout.unwrap()] {
            svc.on_pdu(&mut cx, Dir::ToTarget, pdu.clone());
            let Some(SvcAction::Forward(out)) = cx.take_actions().pop() else {
                panic!("forwarded");
            };
            assert_eq!(out.encode_bhs(), pdu.encode_bhs());
            assert_eq!(&out.data()[..], &[0xF0; 512][..]);
        }
        let read = BlockCmd {
            op: BlockOp::Read,
            ..write
        };
        let cmd = scsi_command(read, 4, 2, 1, Bytes::new());
        svc.on_pdu(&mut cx, Dir::ToTarget, cmd);
        let replies = cx.take_actions().into_iter().map(|a| match a {
            SvcAction::Reply(pdu) => pdu,
            other => panic!("expected replies only, got {other:?}"),
        });
        let answer = data_in_train(4, vec![0x5A; 96 << 10].into());
        assert!(replies.eq(answer));
        // The write's status retires the last open command, and the
        // service's table with it.
        assert_eq!(SHIM_TABLES.with_borrow(|t| t.len()), 1);
        svc.on_pdu(
            &mut cx,
            Dir::ToInitiator,
            status_response(3, ScsiStatus::Good),
        );
        assert_eq!(SHIM_TABLES.with_borrow(|t| t.len()), 0);
    }
}
