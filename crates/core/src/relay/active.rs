//! The active relay: split-TCP store-and-forward middle-box engine.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::collections::BTreeMap;

use bytes::Bytes;

use storm_block::transport::{IoTag, Iqn, ScsiStatus, Transport, TransportEvent, WireBuf};
use storm_cloud::qos::{RateLimitSpec, RateLimiter};
use storm_iscsi::{Initiator, InitiatorConfig};
use storm_net::{App, BusMsg, CloseReason, Cx, HostId, SockAddr, SockId};
use storm_sim::trace::{flow_token, req_token, Hop, ReqToken, TraceEvent, TraceHook};
use storm_sim::{FaultAction, FaultHook, FaultSite, IdMap, SerialResource, SimDuration, SimTime};

use super::edge::{Batch, Edge};
use crate::service::{Dir, Op, ReplicaIo, StorageService, SvcAction, SvcCtx};

/// A replica volume the middle-box attaches for side I/O (the replication
/// service's backup volumes).
#[derive(Debug, Clone)]
pub struct ReplicaTarget {
    /// The replica's iSCSI portal.
    pub portal: SockAddr,
    /// The replica volume's IQN.
    pub iqn: Iqn,
}

/// The replica I/O watchdog: a request that produces no response within
/// `REPLICA_TIMEOUT` is retried with bounded exponential backoff; a replica
/// that times out `FAIL_THRESHOLD` times in a row is declared unresponsive
/// and failed over (the paper's "once a replica is not responsive ... it
/// will be eliminated from future operations").
const REPLICA_TIMEOUT: SimDuration = SimDuration::from_millis(500);
/// Re-issues per request before the request is failed to its service.
const MAX_RETRIES: u32 = 2;
/// Delay before the first retry; doubles per attempt.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(10);
/// Upper bound on the backoff delay.
const BACKOFF_CAP: SimDuration = SimDuration::from_millis(200);
/// Consecutive timeouts after which the whole replica is failed.
const FAIL_THRESHOLD: u32 = 3;

/// Backoff before retry number `attempt` (1-based), capped.
fn backoff(attempt: u32) -> SimDuration {
    let exp = attempt.saturating_sub(1).min(16);
    (BACKOFF_BASE * (1u64 << exp)).min(BACKOFF_CAP)
}

/// The port the pseudo-server listens on; the platform DNAT-redirects
/// steered flows here.
pub(crate) const LISTEN_PORT: u16 = 13260;
/// Per-PDU API cost of every relay unless configured otherwise: the
/// platform deploys relays at it and [`ActiveRelayConfig::new`] starts
/// from it, so a relay built directly runs the cost a deployed one does.
pub(crate) const PER_PDU_COST: SimDuration = SimDuration::from_micros(2);
/// Persistence buffer capacity, likewise shared.
pub(crate) const BUFFER_CAP: usize = 8 << 20;
/// The CPU accounting label every relay charges (Figure 10's middle-box
/// row sums it).
pub const CPU_LABEL: &str = "mb";

/// Control messages a fault driver delivers over the hypervisor bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MbControl {
    /// Crash the middle-box VM: every flow and replica session is cut.
    Crash,
    /// Boot the middle-box back up; replica sessions reconnect.
    Restart,
}

/// Active relay configuration.
#[derive(Debug, Clone)]
pub struct ActiveRelayConfig {
    /// Where the pseudo-client connects onward (the egress gateway).
    pub upstream: SockAddr,
    /// Persistence buffer capacity in bytes; beyond it the pseudo-server
    /// stops reading and the source stalls (paper §III-B consistency
    /// copy).
    pub buffer_cap: usize,
    /// Per-PDU API overhead (decapsulation/encapsulation).
    pub per_pdu_cost: SimDuration,
    /// Replica volumes to attach.
    pub replicas: Vec<ReplicaTarget>,
    /// Initiator identity for replica sessions.
    pub initiator_iqn: Iqn,
    /// The tenant's rate limit, enforced here because the relay is the
    /// tenant's entry into the platform: request-direction batches that
    /// exceed it have their processing start pushed back by the shaping
    /// delay. The delay is *queueing*, not CPU — the relay core stays
    /// free for other flows — and a tenant under its limit sees a zero
    /// delay and a byte-identical datapath. `None` (default) admits
    /// everything.
    pub qos: Option<RateLimitSpec>,
}

impl ActiveRelayConfig {
    /// Defaults: the platform's 8 MiB buffer and 2 µs per PDU.
    pub fn new(upstream: SockAddr) -> Self {
        ActiveRelayConfig {
            upstream,
            buffer_cap: BUFFER_CAP,
            per_pdu_cost: PER_PDU_COST,
            replicas: Vec::new(),
            initiator_iqn: Iqn::for_host("middlebox"),
            qos: None,
        }
    }
}

/// One relayed flow: the pseudo-server leg facing the tenant VM, the
/// pseudo-client leg facing the storage network, and the edge codec that
/// speaks the flow's wire protocol on both.
struct FlowPair {
    server: SockId,
    client: SockId,
    /// The flow's original (initiator-side) source port — the request-token
    /// prefix shared with the guest and the target.
    src_port: u16,
    edge: Edge,
    s_out: WireBuf,
    c_out: WireBuf,
    /// Bytes received from the server side, not yet released upstream.
    buffered_in: usize,
    paused: bool,
    proc: SerialResource,
    closed: bool,
}

impl FlowPair {
    /// The edge codec plus the outbound queue and socket of the leg
    /// carrying bytes in `dir`.
    fn leg(&mut self, dir: Dir) -> (&mut Edge, &mut WireBuf, SockId) {
        match dir {
            Dir::ToTarget => (&mut self.edge, &mut self.c_out, self.client),
            Dir::ToInitiator => (&mut self.edge, &mut self.s_out, self.server),
        }
    }

    /// Lowers `ops` onto the leg travelling `dir` through the flow's edge
    /// codec; returns how many wire units were queued.
    fn queue(
        &mut self,
        dir: Dir,
        ops: impl IntoIterator<Item = Op>,
        copy: &mut RelayCopyStats,
    ) -> u64 {
        let (edge, q, _) = self.leg(dir);
        edge.queue(dir, ops, q, copy)
    }

    fn pump(&mut self, cx: &mut Cx<'_>, dir: Dir) {
        let (_, q, sock) = self.leg(dir);
        q.send(|c| cx.send_chunks(sock, c));
    }

    /// Persistence-buffer bytes held by whole messages awaiting release
    /// (everything buffered except a partial message still reassembling).
    fn in_flight(&self) -> usize {
        self.buffered_in.saturating_sub(self.edge.pending_bytes())
    }
}

/// One in-flight replica request: the owning service, its completion
/// context, the request itself (kept for retries) and the attempt count.
struct PendingIo {
    svc: usize,
    ctx: u64,
    io: ReplicaIo,
    attempts: u32,
}

struct ReplicaSession {
    ini: Initiator,
    sock: Option<SockId>,
    // BTreeMap: on replica failure every outstanding request is failed
    // back to its service, and that sweep must run in tag order — with a
    // HashMap the eviction trace depended on hasher state.
    pending: BTreeMap<IoTag, PendingIo>,
    /// Requests issued before the session logged in.
    parked: Vec<PendingIo>,
    up: bool,
    failed: bool,
    /// Consecutive request timeouts (reset by any completion).
    timeouts: u32,
}

/// A batch's forwards, headed onward in its direction of travel.
enum Forwards {
    /// The unit passed the chain untouched (or the batch bypassed it):
    /// the received wire image re-emitted as is — nothing is re-encoded
    /// or copied. Counts as one forwarded PDU.
    Verbatim(Vec<Bytes>),
    /// Rebuilt from chain outputs, lowered by the edge codec on release.
    Rebuilt(Vec<Op>),
}

/// What one batch's trip through the service chain produced. It waits
/// out its processing time in the persistence buffer;
/// [`ActiveRelayMb::release`] puts it on the wire.
struct ChainOut {
    /// The flow pair the batch came in on.
    pair: usize,
    /// The batch's direction of travel.
    dir: Dir,
    /// Persistence-buffer bytes the batch holds (tenant side only).
    input_bytes: usize,
    forwards: Forwards,
    /// Ops on the batch's flow a reply's walk sent out in `dir`; they join
    /// the unit's forwards.
    ahead: Vec<Op>,
    /// Ops on the batch's flow headed back where the batch came from.
    replies: Vec<Op>,
    /// Side I/O the chain asked for: the replica and the request.
    replica_ops: Vec<(usize, PendingIo)>,
    /// CPU the batch cost: `per_pdu_cost` plus service charges.
    cost: SimDuration,
}

/// Where a chain walk's output goes: into a batch on the data path, whose
/// release waits for the charges (one [`Hop::Service`] stage per stage,
/// under the unit's token) and carries its replica I/O; or, from a replica
/// completion or a timer, out at once in emission order. Either way an op
/// leaves on the flow its tag names: a batch keeps only its own flow's.
enum Sink<'a> {
    Batch(ReqToken, &'a mut ChainOut),
    Side,
}

/// Everything the relay has a timer armed for, by timer token.
enum Timer {
    /// A processed batch finished its processing time: release it.
    Release(ChainOut),
    /// A chain service's own timer and the token it chose.
    Service { svc: usize, token: u64 },
    /// The watchdog of one replica request.
    Watchdog { replica: usize, tag: IoTag },
    /// Backoff elapsed: re-issue the request.
    Retry { replica: usize, req: PendingIo },
}

/// Memcpy accounting for the relay datapath (see
/// [`ActiveRelayMb::copy_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelayCopyStats {
    /// Data-segment bytes copied anywhere on the relay path: stream
    /// reassembly plus small-segment batching on encode. Zero for a
    /// passthrough chain.
    pub data_bytes_copied: u64,
    /// Fixed-size protocol-metadata copies — the allowed ones: 48-byte
    /// BHS / 16-byte frame-header decode scratch, fresh nvmeq frame
    /// headers and re-encoded entries.
    pub header_bytes_copied: u64,
    /// PDUs that took the verbatim fast path (original wire bytes
    /// forwarded, no re-encode).
    pub verbatim_forwards: u64,
}

/// The active-relay middle-box application.
pub struct ActiveRelayMb {
    cfg: ActiveRelayConfig,
    services: Vec<Box<dyn StorageService>>,
    pairs: Vec<FlowPair>,
    /// Flow socket -> its pair and the direction its received bytes travel.
    by_sock: IdMap<SockId, (usize, Dir)>,
    replicas: Vec<ReplicaSession>,
    replica_socks: IdMap<SockId, usize>,
    timers: IdMap<u64, Timer>,
    limiter: Option<RateLimiter>,
    next_token: u64,
    alerts: Vec<(SimTime, String)>,
    pdus_forwarded: u64,
    /// Verbatim forwards, fresh nvmeq frame headers and re-encoded
    /// entries (the multi-queue analogue of BHS decode scratch) and the
    /// reassembly copies of flows whose edges a crash dropped.
    copy: RelayCopyStats,
    crashed: bool,
    fault: FaultHook,
    fault_mb: u32,
    trace: TraceHook,
    trace_mb: u32,
}

impl ActiveRelayMb {
    /// Creates the relay with a service chain (may be empty = pure
    /// store-and-forward, the paper's MB-ACTIVE-RELAY baseline).
    pub fn new(cfg: ActiveRelayConfig, services: Vec<Box<dyn StorageService>>) -> Self {
        let limiter = cfg.qos.map(RateLimiter::new);
        ActiveRelayMb {
            cfg,
            limiter,
            services,
            pairs: Vec::new(),
            by_sock: IdMap::default(),
            replicas: Vec::new(),
            replica_socks: IdMap::default(),
            timers: IdMap::default(),
            next_token: 1,
            alerts: Vec::new(),
            pdus_forwarded: 0,
            copy: RelayCopyStats::default(),
            crashed: false,
            fault: FaultHook::none(),
            fault_mb: 0,
            trace: TraceHook::none(),
            trace_mb: 0,
        }
    }

    /// Arms this middle-box's fault hook; `mb` identifies it in
    /// [`FaultSite::MbProcess`] sites.
    pub fn set_fault_hook(&mut self, hook: FaultHook, mb: u32) {
        self.fault = hook;
        self.fault_mb = mb;
    }

    /// Arms this middle-box's trace hook; `mb` identifies it in
    /// [`Hop::Relay`] stage events. Emits one [`TraceEvent::Meta`] per
    /// chained service so the analyzer can label service stages by name.
    pub fn set_trace_hook(&mut self, hook: TraceHook, mb: u32) {
        self.trace = hook;
        self.trace_mb = mb;
        if self.trace.is_armed() {
            self.trace.emit(
                SimTime::ZERO,
                TraceEvent::Meta {
                    hop: Hop::Relay,
                    id: mb,
                    name: "active-relay".to_string(),
                },
            );
            for (idx, svc) in self.services.iter().enumerate() {
                self.trace.emit(
                    SimTime::ZERO,
                    TraceEvent::Meta {
                        hop: Hop::Service,
                        id: idx as u32,
                        name: svc.name().to_string(),
                    },
                );
            }
        }
    }

    /// Whether the middle-box is currently crashed (fault injection).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Alerts raised by services, with timestamps.
    pub fn alerts(&self) -> &[(SimTime, String)] {
        &self.alerts
    }

    /// PDUs forwarded through the chain.
    pub fn pdus_forwarded(&self) -> u64 {
        self.pdus_forwarded
    }

    /// Memcpy accounting across the relay's datapath: reassembly copies
    /// on both flow streams plus small-segment batching on encode (each
    /// leg's queue counts its own). Feeds the zero-copy bench rows and
    /// acceptance test.
    pub fn copy_stats(&self) -> RelayCopyStats {
        let mut s = self.copy;
        for p in &self.pairs {
            p.edge.add_stream_copies(&mut s);
            s.data_bytes_copied += p.s_out.bytes_copied() + p.c_out.bytes_copied();
        }
        s
    }

    /// Commands open across the relay's flows: each flow's edge table
    /// holds a command from its arrival until its status (or a service's
    /// answer) leaves. Zero once the flows are quiescent.
    pub fn open_commands(&self) -> usize {
        self.pairs.iter().map(|p| p.edge.open_commands()).sum()
    }

    /// Access a service by index (use
    /// [`StorageService::downcast_ref`](crate::service::StorageService)
    /// to read concrete state).
    pub fn service(&self, idx: usize) -> Option<&dyn StorageService> {
        self.services.get(idx).map(|s| s.as_ref())
    }

    /// Mutable access to a service by index.
    pub fn service_mut(&mut self, idx: usize) -> Option<&mut (dyn StorageService + 'static)> {
        self.services.get_mut(idx).map(|s| s.as_mut())
    }

    /// Arms `timer` to fire after `delay` under a fresh token.
    fn arm(&mut self, cx: &mut Cx<'_>, delay: SimDuration, timer: Timer) {
        let token = self.next_token;
        self.next_token += 1;
        self.timers.insert(token, timer);
        cx.set_timer(delay, token);
    }

    fn stage(&self, now: SimTime, req: ReqToken, hop: Hop, id: u32, dur: SimDuration) {
        self.trace
            .emit_with(now, || TraceEvent::Stage { req, hop, id, dur });
    }

    /// Runs a batch's unit through the service chain as one op, its tag
    /// naming the pair, and rebuilds the batch from what the chain
    /// emitted. If the chain passed the unit untouched, or the batch
    /// bypasses the chain, the received batch forwards verbatim — an iSCSI
    /// PDU or an nvmeq frame alike.
    fn run_chain(
        &mut self,
        cx: &mut Cx<'_>,
        now: SimTime,
        dir: Dir,
        pair_idx: usize,
        batch: Batch,
    ) -> ChainOut {
        let per_pdu_cost = self.cfg.per_pdu_cost;
        let mut out = ChainOut {
            pair: pair_idx,
            dir,
            input_bytes: usize::from(dir == Dir::ToTarget) * batch.wire_len,
            forwards: Forwards::Verbatim(batch.wire),
            ahead: Vec::new(),
            replies: Vec::new(),
            replica_ops: Vec::new(),
            // One decapsulation, whether or not the batch meets the chain.
            cost: per_pdu_cost,
        };
        if let Some(unit) = batch.unit {
            let mut op = self.pairs[pair_idx].edge.lift(unit);
            let req = req_token(self.pairs[pair_idx].src_port, op.tag as u32);
            op.tag |= (pair_idx as u64) << 32;
            self.stage(now, req, Hop::Relay, self.trace_mb, per_pdu_cost);
            let mut forwards = self.walk(cx, &mut Sink::Batch(req, &mut out), dir, 0, vec![op]);
            forwards.append(&mut out.ahead);
            if !self.pairs[pair_idx].edge.untouched(&forwards) {
                out.forwards = Forwards::Rebuilt(forwards);
            }
        }
        if let Forwards::Verbatim(_) = out.forwards {
            self.copy.verbatim_forwards += 1;
        }
        out
    }

    /// Calls service `svc` outside the data path (replica completions,
    /// timers) and executes what it emits.
    fn run_side(
        &mut self,
        cx: &mut Cx<'_>,
        svc: usize,
        call: impl FnOnce(&mut dyn StorageService, &mut SvcCtx<Op>),
    ) {
        let mut scx = SvcCtx::new(cx.now());
        call(self.services[svc].as_mut(), &mut scx);
        self.emit(cx, &mut Sink::Side, Dir::ToTarget, svc, scx, None);
    }

    /// The chain index of the `pos`-th stage an op travelling `dir` meets.
    fn stage_at(&self, dir: Dir, pos: usize) -> usize {
        match dir {
            Dir::ToTarget => pos,
            Dir::ToInitiator => self.services.len() - 1 - pos,
        }
    }

    /// The one chain walk: `ops` travel `dir` through the stages from
    /// position `from` on; the survivors are returned.
    fn walk(
        &mut self,
        cx: &mut Cx<'_>,
        sink: &mut Sink,
        dir: Dir,
        from: usize,
        mut ops: Vec<Op>,
    ) -> Vec<Op> {
        let now = cx.now();
        for pos in from..self.services.len() {
            let idx = self.stage_at(dir, pos);
            // A stage takes the previous stage's forwards in one round, so
            // its charges make one trace stage.
            let (mut next, mut charged) = (Vec::new(), SimDuration::ZERO);
            for op in ops {
                let mut scx = SvcCtx::new(now);
                self.services[idx].on_op(&mut scx, dir, op);
                charged += self.emit(cx, sink, dir, pos, scx, Some(&mut next));
            }
            if let (Sink::Batch(req, out), true) = (&mut *sink, charged > SimDuration::ZERO) {
                out.cost += charged;
                self.stage(now, *req, Hop::Service, idx as u32, charged);
            }
            ops = next;
        }
        ops
    }

    /// Carries out what the service at position `pos` emitted travelling
    /// `dir` (a side context's forwards travel `ToTarget`): a forward goes
    /// on, into `next` if a walk's next stage takes it, and a reply turns
    /// back, each through every stage between the service and the wire.
    /// Returns what the service charged a batch.
    fn emit(
        &mut self,
        cx: &mut Cx<'_>,
        sink: &mut Sink,
        dir: Dir,
        pos: usize,
        mut scx: SvcCtx<Op>,
        mut next: Option<&mut Vec<Op>>,
    ) -> SimDuration {
        let (idx, back) = (self.stage_at(dir, pos), self.services.len() - pos);
        let mut charged = SimDuration::ZERO;
        for action in scx.take_actions() {
            match (action, &mut *sink) {
                (SvcAction::Forward(p), _) => match next.as_deref_mut() {
                    Some(next) => next.push(p),
                    None => self.send(cx, sink, dir, pos + 1, p),
                },
                (SvcAction::Reply(p), _) => self.send(cx, sink, dir.flip(), back, p),
                (SvcAction::Replica { replica, io, ctx }, sink) => {
                    let req = PendingIo {
                        svc: idx,
                        ctx,
                        io,
                        attempts: 0,
                    };
                    match sink {
                        Sink::Batch(_, out) => out.replica_ops.push((replica, req)),
                        Sink::Side => self.issue_replica(cx, replica, req),
                    }
                }
                (SvcAction::Alert(msg), _) => self.alerts.push((cx.now(), msg)),
                (SvcAction::Charge(c), Sink::Batch(..)) => charged += c,
                (SvcAction::Charge(c), Sink::Side) => _ = cx.charge(c, CPU_LABEL),
                (SvcAction::Timer { delay, token }, _) => {
                    self.arm(cx, delay, Timer::Service { svc: idx, token })
                }
            }
        }
        charged
    }

    /// Sends `op` on in `dir` through the stages from position `from`,
    /// then out.
    fn send(&mut self, cx: &mut Cx<'_>, sink: &mut Sink, dir: Dir, from: usize, op: Op) {
        if from == self.services.len() {
            return self.leave(cx, sink, dir, op);
        }
        for op in self.walk(cx, sink, dir, from, vec![op]) {
            self.leave(cx, sink, dir, op);
        }
    }

    /// An op leaves the chain travelling `dir` on the flow its tag names:
    /// into the batch when that is the batch's flow, else onto the flow at
    /// once in its wire protocol (dropped if the flow has closed).
    fn leave(&mut self, cx: &mut Cx<'_>, sink: &mut Sink, dir: Dir, op: Op) {
        let pair = (op.tag >> 32) as usize;
        match sink {
            Sink::Batch(_, out) if pair == out.pair && dir == out.dir => out.ahead.push(op),
            Sink::Batch(_, out) if pair == out.pair => out.replies.push(op),
            _ => {
                if let Some(p) = self.pairs.get_mut(pair).filter(|p| !p.closed) {
                    self.pdus_forwarded += p.queue(dir, [op], &mut self.copy);
                    p.pump(cx, dir);
                }
            }
        }
    }

    /// Sends `req` on its replica session (parked until the session logs
    /// in, failed back at once if the replica has failed) under a watchdog.
    fn issue_replica(&mut self, cx: &mut Cx<'_>, replica: usize, req: PendingIo) {
        let Some(sess) = self.replicas.get_mut(replica) else {
            return;
        };
        if sess.failed {
            return self.fail_io(cx, replica, &req);
        }
        if !sess.up {
            sess.parked.push(req);
            return;
        }
        let tag = match &req.io {
            ReplicaIo::Write { lba, data } => sess.ini.write(*lba, data.clone()),
            ReplicaIo::Read { lba, sectors } => sess.ini.read(*lba, *sectors),
        };
        sess.pending.insert(tag, req);
        self.flush_replica(cx, replica);
        self.arm(cx, REPLICA_TIMEOUT, Timer::Watchdog { replica, tag });
    }

    /// Fails one replica request back to the service that issued it.
    fn fail_io(&mut self, cx: &mut Cx<'_>, replica: usize, req: &PendingIo) {
        self.run_side(cx, req.svc, |s, scx| {
            s.on_replica_done(scx, replica, req.ctx, false, Bytes::new())
        });
    }

    /// A replica request produced no response within the timeout window:
    /// retry with bounded exponential backoff, and once the session has
    /// timed out `FAIL_THRESHOLD` requests in a row, fail the replica.
    fn handle_replica_timeout(&mut self, cx: &mut Cx<'_>, replica: usize, tag: IoTag) {
        let Some(sess) = self.replicas.get_mut(replica) else {
            return;
        };
        // The response arrived (or the session already failed over).
        let Some(mut req) = sess.pending.remove(&tag) else {
            return;
        };
        sess.timeouts += 1;
        if sess.timeouts >= FAIL_THRESHOLD {
            // Drains the remaining pending requests; this one was removed
            // above, so it is failed separately below.
            self.fail_replica(cx, replica);
        } else if req.attempts < MAX_RETRIES {
            req.attempts += 1;
            return self.arm(cx, backoff(req.attempts), Timer::Retry { replica, req });
        }
        // Replica gone or out of retries: this request is failed to its
        // service.
        self.fail_io(cx, replica, &req);
    }

    fn flush_replica(&mut self, cx: &mut Cx<'_>, idx: usize) {
        if let Some(sess) = self.replicas.get_mut(idx) {
            if let Some(sock) = sess.sock {
                sess.ini.wire().send(|c| cx.send_chunks(sock, c));
            }
        }
    }

    /// The one relay datapath: bytes received on a flow leg are reassembled
    /// into batches by the flow's edge codec, and every batch takes one
    /// fault verdict, one QoS admission, one trip through the chain and
    /// one store-and-forward deferral — so up to `queue_depth` commands
    /// stay in flight across the relay on a multi-queue flow while the
    /// chain still sees one PDU at a time.
    fn handle_pair_data(&mut self, cx: &mut Cx<'_>, pair_idx: usize, dir: Dir, data: Bytes) {
        let now = cx.now();
        // Tenant-side bytes occupy the persistence buffer until released.
        let inbound = dir == Dir::ToTarget;
        let pair = &mut self.pairs[pair_idx];
        if inbound {
            pair.buffered_in += data.len();
        }
        let Ok(batches) = pair.edge.feed(dir, data) else {
            let (s, c) = (pair.server, pair.client);
            pair.closed = true;
            cx.abort(s);
            cx.abort(c);
            return;
        };
        // Backpressure: the persistence buffer is full. A partial message
        // alone never pauses the source — nothing would await release, so
        // nothing would ever resume it; the codec's own message-size cap
        // bounds that memory.
        if inbound && !pair.paused && pair.buffered_in > self.cfg.buffer_cap && pair.in_flight() > 0
        {
            pair.paused = true;
            let (s, src_port) = (pair.server, pair.src_port);
            cx.pause(s);
            self.trace.emit_with(now, || TraceEvent::Mark {
                req: flow_token(src_port),
                hop: Hop::Buffer,
                id: self.trace_mb,
            });
        }
        for batch in batches {
            // Fault injection: an armed plan may slow batch processing
            // inside the middle-box.
            let fault_delay = match self
                .fault
                .decide(now, FaultSite::MbProcess { mb: self.fault_mb })
            {
                FaultAction::Delay(d) => d,
                _ => SimDuration::ZERO,
            };
            // Tenant rate limiting: request-direction batches draw from
            // the token bucket, one admit per batch (a PDU or a doorbell
            // frame, each one network transfer); the shaping delay is
            // queueing (a later serve start), not CPU, so an under-limit
            // tenant's datapath is byte-identical to the unlimited one.
            let qos_delay = match &mut self.limiter {
                Some(l) if inbound => l.admit(now),
                _ => SimDuration::ZERO,
            };
            if qos_delay > SimDuration::ZERO {
                let req = req_token(self.pairs[pair_idx].src_port, batch.tag);
                self.stage(now, req, Hop::Qos, self.trace_mb, qos_delay);
            }
            let mut out = self.run_chain(cx, now, dir, pair_idx, batch);
            out.cost += fault_delay;
            // Account CPU and serialize processing per flow.
            let _ = cx.charge(out.cost, CPU_LABEL);
            let done = self.pairs[pair_idx].proc.serve(now + qos_delay, out.cost);
            self.arm(cx, done - now, Timer::Release(out));
        }
    }

    fn release(&mut self, cx: &mut Cx<'_>, out: ChainOut) {
        let (pair, dir) = (out.pair, out.dir);
        if pair >= self.pairs.len() || self.pairs[pair].closed {
            return;
        }
        for (replica, req) in out.replica_ops {
            self.issue_replica(cx, replica, req);
        }
        let p = &mut self.pairs[pair];
        let forwarded = match out.forwards {
            Forwards::Verbatim(wire) => {
                p.leg(dir).1.push_all(wire);
                1
            }
            Forwards::Rebuilt(units) => p.queue(dir, units, &mut self.copy),
        };
        // Chain replies head back where the triggering batch came from.
        let replied = p.queue(dir.flip(), out.replies, &mut self.copy);
        self.pdus_forwarded += forwarded + replied;
        p.buffered_in = p.buffered_in.saturating_sub(out.input_bytes);
        let resume = p.paused && (p.buffered_in < self.cfg.buffer_cap / 2 || p.in_flight() == 0);
        if resume {
            p.paused = false;
        }
        p.pump(cx, Dir::ToTarget);
        p.pump(cx, Dir::ToInitiator);
        if resume {
            cx.resume(p.server);
        }
    }

    fn handle_replica_events(&mut self, cx: &mut Cx<'_>, idx: usize, events: Vec<TransportEvent>) {
        for ev in events {
            let (tag, status, data) = match ev {
                TransportEvent::Ready => {
                    let parked = {
                        let sess = &mut self.replicas[idx];
                        sess.up = true;
                        std::mem::take(&mut sess.parked)
                    };
                    for req in parked {
                        self.issue_replica(cx, idx, req);
                    }
                    continue;
                }
                TransportEvent::ConnectFailed { .. } | TransportEvent::ProtocolError(_) => {
                    self.fail_replica(cx, idx);
                    continue;
                }
                TransportEvent::WriteDone { tag, status }
                | TransportEvent::FlushDone { tag, status } => (tag, status, Bytes::new()),
                TransportEvent::ReadDone { tag, status, data } => (tag, status, data),
            };
            if let Some(req) = self.replicas[idx].pending.remove(&tag) {
                self.replicas[idx].timeouts = 0;
                let ok = status == ScsiStatus::Good;
                self.run_side(cx, req.svc, |s, scx| {
                    s.on_replica_done(scx, idx, req.ctx, ok, data)
                });
            }
        }
        self.flush_replica(cx, idx);
    }

    /// Opens (or re-opens) every configured replica session.
    fn connect_replicas(&mut self, cx: &mut Cx<'_>) {
        self.replicas.clear();
        self.replica_socks.clear();
        for i in 0..self.cfg.replicas.len() {
            let portal = self.cfg.replicas[i].portal;
            let sock = cx.connect(portal);
            let ini = Initiator::new(InitiatorConfig {
                initiator_iqn: self.cfg.initiator_iqn.clone(),
                target_iqn: self.cfg.replicas[i].iqn.clone(),
                isid: [0x80, 0, 0, 0x10, 0, self.replicas.len() as u8],
            });
            let idx = self.replicas.len();
            self.replicas.push(ReplicaSession {
                ini,
                sock: Some(sock),
                pending: BTreeMap::new(),
                parked: Vec::new(),
                up: false,
                failed: false,
                timeouts: 0,
            });
            self.replica_socks.insert(sock, idx);
        }
    }

    /// Crashes the middle-box VM: every flow and replica session is cut
    /// and all in-flight state is lost, like a power failure.
    fn crash(&mut self, cx: &mut Cx<'_>) {
        if self.crashed {
            return;
        }
        self.crashed = true;
        // A cut flow keeps its index, so ops a service still holds for it
        // are dropped rather than sent on a flow opened after the restart.
        for pair in &mut self.pairs {
            if !pair.closed {
                pair.closed = true;
                cx.abort(pair.server);
                cx.abort(pair.client);
            }
            std::mem::take(&mut pair.edge).add_stream_copies(&mut self.copy);
        }
        self.by_sock.clear();
        for sess in &mut self.replicas {
            if let Some(sock) = sess.sock.take() {
                cx.abort(sock);
            }
        }
        self.replicas.clear();
        self.replica_socks.clear();
        self.timers.clear();
    }

    /// Boots the middle-box back up. Replica sessions reconnect from
    /// scratch; service state (e.g. replicas a service already evicted)
    /// survives, as it would on a warm restart from a persistence buffer.
    fn restart(&mut self, cx: &mut Cx<'_>) {
        if !self.crashed {
            return;
        }
        self.crashed = false;
        self.connect_replicas(cx);
    }

    fn fail_replica(&mut self, cx: &mut Cx<'_>, idx: usize) {
        let sess = &mut self.replicas[idx];
        if sess.failed {
            return;
        }
        sess.failed = true;
        sess.up = false;
        let outstanding = std::mem::take(&mut sess.pending);
        self.trace.emit_with(cx.now(), || TraceEvent::ReplicaEvict {
            mb: self.trace_mb,
            replica: idx as u32,
        });
        // Fail outstanding I/O back to the owning services, then tell
        // every service the replica is gone.
        for req in outstanding.into_values() {
            self.fail_io(cx, idx, &req);
        }
        for svc in 0..self.services.len() {
            self.run_side(cx, svc, |s, scx| s.on_replica_failed(scx, idx));
        }
    }
}

impl App for ActiveRelayMb {
    fn on_start(&mut self, cx: &mut Cx<'_>) {
        cx.listen(LISTEN_PORT);
        self.connect_replicas(cx);
    }

    fn on_bus(&mut self, cx: &mut Cx<'_>, _from: HostId, msg: BusMsg) {
        if let Ok(ctl) = msg.downcast::<MbControl>() {
            match ctl {
                MbControl::Crash => self.crash(cx),
                MbControl::Restart => self.restart(cx),
            }
        }
    }

    fn on_connected(&mut self, cx: &mut Cx<'_>, sock: SockId) {
        if let Some(&idx) = self.replica_socks.get(&sock) {
            self.replicas[idx].ini.start_login();
            self.flush_replica(cx, idx);
        }
        // Pseudo-client connections need no handshake hook: queued bytes
        // flush automatically.
    }

    fn on_connect_failed(&mut self, cx: &mut Cx<'_>, sock: SockId) {
        if let Some(&idx) = self.replica_socks.get(&sock) {
            self.fail_replica(cx, idx);
        } else if let Some(&(pair, _)) = self.by_sock.get(&sock) {
            let server = self.pairs[pair].server;
            self.pairs[pair].closed = true;
            cx.abort(server);
        }
    }

    fn on_accepted(&mut self, cx: &mut Cx<'_>, _port: u16, sock: SockId) {
        if self.crashed {
            cx.abort(sock);
            return;
        }
        // New steered flow: open the upstream leg, binding the flow's
        // original source port so port-matched chain rules keep working.
        let src_port = cx.tuple_of(sock).map(|t| t.dst.port);
        let client = cx.connect_from(self.cfg.upstream, src_port);
        let pair_idx = self.pairs.len();
        self.pairs.push(FlowPair {
            server: sock,
            client,
            src_port: src_port.unwrap_or(0),
            edge: Edge::default(),
            s_out: WireBuf::new(),
            c_out: WireBuf::new(),
            buffered_in: 0,
            paused: false,
            proc: SerialResource::new(),
            closed: false,
        });
        self.by_sock.insert(sock, (pair_idx, Dir::ToTarget));
        self.by_sock.insert(client, (pair_idx, Dir::ToInitiator));
    }

    fn on_data(&mut self, cx: &mut Cx<'_>, sock: SockId, data: Bytes) {
        if let Some(&idx) = self.replica_socks.get(&sock) {
            let events = self.replicas[idx].ini.feed_bytes(data);
            self.handle_replica_events(cx, idx, events);
            return;
        }
        if let Some(&(pair, dir)) = self.by_sock.get(&sock) {
            self.handle_pair_data(cx, pair, dir, data);
        }
    }

    fn on_writable(&mut self, cx: &mut Cx<'_>, sock: SockId) {
        if let Some(&idx) = self.replica_socks.get(&sock) {
            self.flush_replica(cx, idx);
            return;
        }
        if let Some(&(pair, dir)) = self.by_sock.get(&sock) {
            // The socket receiving `dir` bytes sends the opposite leg's.
            self.pairs[pair].pump(cx, dir.flip());
        }
    }

    fn on_timer(&mut self, cx: &mut Cx<'_>, token: u64) {
        match self.timers.remove(&token) {
            Some(Timer::Release(out)) => self.release(cx, out),
            Some(Timer::Service { svc, token }) => {
                self.run_side(cx, svc, |s, scx| s.on_timer(scx, token))
            }
            Some(Timer::Watchdog { replica, tag }) => self.handle_replica_timeout(cx, replica, tag),
            Some(Timer::Retry { replica, req }) => {
                self.issue_replica(cx, replica, req);
                self.flush_replica(cx, replica);
            }
            None => {}
        }
    }

    fn on_closed(&mut self, cx: &mut Cx<'_>, sock: SockId, _reason: CloseReason) {
        if let Some(&idx) = self.replica_socks.get(&sock) {
            self.fail_replica(cx, idx);
            return;
        }
        if let Some(&(pair, dir)) = self.by_sock.get(&sock) {
            let p = &mut self.pairs[pair];
            if !p.closed {
                p.closed = true;
                // Propagate the close to the other leg.
                cx.close(p.leg(dir).2);
            }
        }
    }
}

impl std::fmt::Debug for ActiveRelayMb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveRelayMb")
            .field("pairs", &self.pairs.len())
            .field("services", &self.services.len())
            .field("replicas", &self.replicas.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;
    use storm_iscsi::BHS_LEN;
    use storm_net::{LinkSpec, Network};
    use storm_nvmeq::{FrameHeader, FrameKind, Sqe, SqeOp, SQE_LEN};
    use storm_sim::trace::TraceSink;

    /// Streams a prepared wire image at the relay.
    struct Source {
        to: SockAddr,
        q: WireBuf,
    }

    impl App for Source {
        fn on_start(&mut self, cx: &mut Cx<'_>) {
            cx.connect(self.to);
        }
        fn on_connected(&mut self, cx: &mut Cx<'_>, sock: SockId) {
            self.q.send(|c| cx.send_chunks(sock, c));
        }
        fn on_writable(&mut self, cx: &mut Cx<'_>, sock: SockId) {
            self.q.send(|c| cx.send_chunks(sock, c));
        }
    }

    /// Stands in for the storage side: counts what the relay delivers.
    #[derive(Default)]
    struct Sink {
        got: usize,
    }

    impl App for Sink {
        fn on_start(&mut self, cx: &mut Cx<'_>) {
            cx.listen(3260);
        }
        fn on_data(&mut self, _cx: &mut Cx<'_>, _sock: SockId, data: Bytes) {
            self.got += data.len();
        }
    }

    /// Counts the relay's marks — it emits one per persistence-buffer
    /// pause and no other.
    #[derive(Default)]
    struct PauseCount(AtomicUsize);

    impl TraceSink for PauseCount {
        fn record(&self, _now: SimTime, ev: &TraceEvent) {
            if matches!(ev, TraceEvent::Mark { .. }) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Charges a fixed CPU cost per op and forwards it.
    struct Slow(SimDuration);

    impl StorageService for Slow {
        fn name(&self) -> &str {
            "slow"
        }
        fn on_op(&mut self, cx: &mut SvcCtx<Op>, _dir: Dir, op: Op) {
            cx.charge(self.0);
            cx.forward(op);
        }
    }

    /// Sends `wire` through a relay in front of a sink; returns (bytes the
    /// sink received, PDUs the relay forwarded, times the relay paused).
    fn relay_run(
        wire: Vec<Bytes>,
        buffer_cap: usize,
        services: Vec<Box<dyn StorageService>>,
    ) -> (usize, u64, usize) {
        let mut net = Network::new(7);
        let sw = net.add_switch("sw", 8);
        let hosts: Vec<HostId> = (1..=3u8)
            .map(|i| {
                let h = net.add_host(format!("h{i}"), 4);
                let iface = net.add_iface(h, [10, 0, 0, i].into());
                net.link_host_switch(h, iface, sw, LinkSpec::gigabit());
                h
            })
            .collect();
        let mut cfg = ActiveRelayConfig::new(SockAddr::new([10, 0, 0, 3].into(), 3260));
        cfg.buffer_cap = buffer_cap;
        let mut relay = ActiveRelayMb::new(cfg, services);
        let pauses = Arc::new(PauseCount::default());
        relay.set_trace_hook(TraceHook::armed(pauses.clone()), 0);
        let sink = net.add_app(hosts[2], Box::new(Sink::default()));
        let mb = net.add_app(hosts[1], Box::new(relay));
        let mut q = WireBuf::new();
        q.push_all(wire);
        let to = SockAddr::new([10, 0, 0, 2].into(), 13260);
        net.add_app(hosts[0], Box::new(Source { to, q }));
        net.run_until(SimTime::from_nanos(2_000_000_000));
        let got = net.app_mut(hosts[2], sink).unwrap();
        let got = got.downcast_mut::<Sink>().unwrap().got;
        let relay = net.app_mut(hosts[1], mb).unwrap();
        let forwarded = relay
            .downcast_mut::<ActiveRelayMb>()
            .unwrap()
            .pdus_forwarded;
        (got, forwarded, pauses.0.load(Ordering::Relaxed))
    }

    /// A Login Request header announcing `dsl` data bytes, then the bytes.
    fn iscsi_message(dsl: usize) -> Vec<Bytes> {
        let mut bhs = [0u8; BHS_LEN];
        (bhs[0], bhs[1]) = (0x43, 0x80);
        bhs[5..8].copy_from_slice(&(dsl as u32).to_be_bytes()[1..]);
        vec![Bytes::copy_from_slice(&bhs), Bytes::from(vec![0x5A; dsl])]
    }

    /// A one-write doorbell frame carrying `len` in-capsule bytes.
    fn nvmeq_message(len: usize) -> Vec<Bytes> {
        let header = FrameHeader {
            kind: FrameKind::Doorbell,
            count: 1,
            payload_len: (SQE_LEN + len) as u32,
        };
        let sqe = Sqe {
            op: SqeOp::Write,
            cid: 1,
            lba: 0,
            sectors: (len / 512) as u32,
            data_len: len as u32,
        };
        vec![
            Bytes::copy_from_slice(&header.encode()),
            Bytes::copy_from_slice(&sqe.encode()),
            Bytes::from(vec![0xA5; len]),
        ]
    }

    const OVERSIZE: usize = 9 << 20;

    /// One message larger than the whole persistence buffer must not
    /// pause the source while it is still reassembling: nothing awaits
    /// release then, so nothing would ever resume it.
    #[test]
    fn oversize_iscsi_message_does_not_stall() {
        let (got, forwarded, _) = relay_run(iscsi_message(OVERSIZE), 8 << 20, Vec::new());
        assert_eq!((got, forwarded), (BHS_LEN + OVERSIZE, 1));
    }

    #[test]
    fn oversize_nvmeq_message_does_not_stall() {
        let wire = nvmeq_message(OVERSIZE);
        let total = wire.iter().map(Bytes::len).sum::<usize>();
        let (got, forwarded, _) = relay_run(wire, 8 << 20, Vec::new());
        assert_eq!((got, forwarded), (total, 1));
    }

    /// A source paused behind an in-flight PDU resumes when that PDU is
    /// released even if the partial message buffered behind it is itself
    /// larger than the resume threshold — again nothing else would.
    #[test]
    fn oversize_partial_behind_a_release_resumes() {
        let mut wire = iscsi_message(512);
        wire.extend(iscsi_message(64 << 10));
        let total = wire.iter().map(Bytes::len).sum::<usize>();
        let slow: Vec<Box<dyn StorageService>> = vec![Box::new(Slow(SimDuration::from_millis(1)))];
        let (got, forwarded, pauses) = relay_run(wire, 16 << 10, slow);
        assert_eq!((got, forwarded), (total, 2));
        assert!(
            pauses > 0,
            "the partial message arrived behind a PDU in flight"
        );
    }

    /// With whole PDUs in flight the buffer still pauses the source, and
    /// releases still resume it.
    #[test]
    fn full_buffer_with_pdus_in_flight_still_pauses() {
        let wire: Vec<Bytes> = (0..64).flat_map(|_| iscsi_message(4096)).collect();
        let total = wire.iter().map(Bytes::len).sum::<usize>();
        let slow: Vec<Box<dyn StorageService>> = vec![Box::new(Slow(SimDuration::from_millis(1)))];
        let (got, forwarded, pauses) = relay_run(wire, 16 << 10, slow);
        assert_eq!((got, forwarded), (total, 64));
        assert!(
            pauses > 0,
            "a full persistence buffer must stall the source"
        );
    }
}
