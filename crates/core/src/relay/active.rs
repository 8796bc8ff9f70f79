//! The active relay: split-TCP store-and-forward middle-box engine.

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;

use storm_iscsi::{
    Initiator, InitiatorConfig, IoTag, Iqn, Pdu, ScsiStatus, SessionParams, TransportEvent,
};
use storm_net::{App, BusMsg, CloseReason, Cx, HostId, SendQueue, SockAddr, SockId};
use storm_qos::{RateLimitSpec, RateLimiter};
use storm_sim::trace::{flow_token, req_token, Hop, ReqToken, TraceEvent, TraceHook};
use storm_sim::{FaultAction, FaultHook, FaultSite, SerialResource, SimDuration, SimTime};

use super::edge::{Batch, Edge, Unit, UnitOut};
use crate::service::{Dir, ReplicaIo, StorageService, SvcAction, SvcCtx};

/// A replica volume the middle-box attaches for side I/O (the replication
/// service's backup volumes).
#[derive(Debug, Clone)]
pub struct ReplicaTarget {
    /// The replica's iSCSI portal.
    pub portal: SockAddr,
    /// The replica volume's IQN.
    pub iqn: Iqn,
}

/// Watchdog policy for replica I/O: a request that produces no response
/// within `timeout` is retried with bounded exponential backoff; a replica
/// that times out `fail_threshold` times in a row is declared unresponsive
/// and failed over (the paper's "once a replica is not responsive ... it
/// will be eliminated from future operations").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Time allowed for one replica request to complete.
    pub timeout: SimDuration,
    /// Re-issues per request before the request is failed to its service.
    pub max_retries: u32,
    /// Delay before the first retry; doubles per attempt.
    pub backoff_base: SimDuration,
    /// Upper bound on the backoff delay.
    pub backoff_cap: SimDuration,
    /// Consecutive timeouts after which the whole replica is failed.
    pub fail_threshold: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: SimDuration::from_millis(500),
            max_retries: 2,
            backoff_base: SimDuration::from_millis(10),
            backoff_cap: SimDuration::from_millis(200),
            fail_threshold: 3,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based), capped.
    fn backoff(&self, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(16);
        let d = self.backoff_base * (1u64 << exp);
        d.min(self.backoff_cap)
    }
}

/// Control messages a fault driver delivers over the hypervisor bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MbControl {
    /// Crash the middle-box VM: every flow and replica session is cut.
    Crash,
    /// Boot the middle-box back up; replica sessions reconnect.
    Restart,
}

/// Tenant QoS shaping at the relay admission point.
///
/// The relay is the tenant's entry into the platform, so per-tenant rate
/// limits are enforced here: request-direction PDUs that exceed the
/// tenant's token buckets have their processing start pushed back by the
/// shaping delay. The delay is *queueing*, not CPU — the relay core stays
/// free for other flows — and a tenant under its limit sees a zero delay
/// and a byte-identical datapath.
#[derive(Debug, Clone)]
pub struct RelayQosConfig {
    /// Tenant this relay serves (trace/metric attribution).
    pub tenant: u32,
    /// IOPS + bandwidth buckets applied to request-direction PDUs.
    pub limit: RateLimitSpec,
}

/// Active relay configuration.
#[derive(Debug, Clone)]
pub struct ActiveRelayConfig {
    /// Local port the pseudo-server listens on (flows are DNAT-redirected
    /// here).
    pub listen_port: u16,
    /// Where the pseudo-client connects onward (the egress gateway).
    pub upstream: SockAddr,
    /// Persistence buffer capacity in bytes; beyond it the pseudo-server
    /// stops reading and the source stalls (paper §III-B consistency
    /// copy).
    pub buffer_cap: usize,
    /// Per-PDU API overhead (decapsulation/encapsulation).
    pub per_pdu_cost: SimDuration,
    /// CPU accounting label (e.g. `"mb"`).
    pub label: String,
    /// Replica volumes to attach.
    pub replicas: Vec<ReplicaTarget>,
    /// Initiator identity for replica sessions.
    pub initiator_iqn: Iqn,
    /// Replica I/O watchdog; `None` disables timeouts entirely.
    pub retry: Option<RetryPolicy>,
    /// Per-tenant rate shaping; `None` (default) admits everything.
    pub qos: Option<RelayQosConfig>,
}

impl ActiveRelayConfig {
    /// Defaults: listen on 13260, 8 MiB buffer, 4 µs per PDU.
    pub fn new(upstream: SockAddr) -> Self {
        ActiveRelayConfig {
            listen_port: 13260,
            upstream,
            buffer_cap: 8 << 20,
            per_pdu_cost: SimDuration::from_micros(4),
            label: "mb".into(),
            replicas: Vec::new(),
            initiator_iqn: Iqn::for_host("middlebox"),
            retry: Some(RetryPolicy::default()),
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
    s_out: SendQueue,
    c_out: SendQueue,
    /// Bytes received from the server side, not yet released upstream.
    buffered_in: usize,
    paused: bool,
    proc: SerialResource,
    closed: bool,
}

impl FlowPair {
    /// The edge codec plus the send queue and socket of the leg carrying
    /// bytes in `dir`.
    fn leg(&mut self, dir: Dir) -> (&mut Edge, &mut SendQueue, SockId) {
        match dir {
            Dir::ToTarget => (&mut self.edge, &mut self.c_out, self.client),
            Dir::ToInitiator => (&mut self.edge, &mut self.s_out, self.server),
        }
    }

    /// Encodes `units` onto the leg travelling `dir` through the flow's
    /// edge codec; returns how many were queued.
    fn queue(
        &mut self,
        dir: Dir,
        units: impl IntoIterator<Item = UnitOut>,
        copy: &mut RelayCopyStats,
    ) -> u64 {
        let (edge, q, _) = self.leg(dir);
        edge.queue(dir, units, q, copy)
    }

    fn pump(&mut self, cx: &mut Cx<'_>, dir: Dir) {
        let (_, q, sock) = self.leg(dir);
        q.pump(cx, sock);
    }

    /// Persistence-buffer bytes held by whole messages awaiting release
    /// (everything buffered except a partial message still reassembling).
    fn in_flight(&self) -> usize {
        self.buffered_in.saturating_sub(self.edge.pending_bytes())
    }
}

/// One in-flight replica request: the owning service, its completion
/// context, the request itself (kept for retries), the attempt count, and
/// the flow pair whose PDU triggered it (side actions the completion
/// produces route back to that pair, not to an arbitrary open flow).
struct PendingIo {
    svc: usize,
    ctx: u64,
    io: ReplicaIo,
    attempts: u32,
    origin: Option<usize>,
}

struct ReplicaSession {
    ini: Initiator,
    sock: Option<SockId>,
    sendq: SendQueue,
    // BTreeMap: on replica failure every outstanding request is failed
    // back to its service, and that sweep must run in tag order — with a
    // HashMap the eviction trace depended on hasher state.
    pending: BTreeMap<IoTag, PendingIo>,
    parked: Vec<(usize, ReplicaIo, u64, Option<usize>)>,
    up: bool,
    failed: bool,
    /// Consecutive request timeouts (reset by any completion).
    timeouts: u32,
}

/// A side I/O a chain service asked for: `(service, replica, io, ctx)`.
type ReplicaOp = (usize, usize, ReplicaIo, u64);

/// A batch's forwards, headed onward in its direction of travel.
enum Forwards {
    /// Every unit passed the chain untouched (or bypassed it): the
    /// received wire image re-emitted as is — nothing is re-encoded or
    /// copied. Counts as `units` forwarded PDUs.
    Verbatim { wire: Vec<Bytes>, units: u64 },
    /// Rebuilt from chain outputs, encoded by the edge codec on release.
    Rebuilt(Vec<UnitOut>),
}

/// What one batch's trip through the service chain produced.
struct ChainOut {
    forwards: Forwards,
    /// PDUs headed back where the batch came from.
    replies: Vec<Pdu>,
    replica_ops: Vec<ReplicaOp>,
    /// CPU the batch cost: `per_pdu_cost` plus service charges per unit.
    cost: SimDuration,
}

/// A processed batch waiting out its processing time in the persistence
/// buffer; [`ActiveRelayMb::release`] puts it on the wire.
struct Deferred {
    pair: usize,
    dir: Dir,
    out: ChainOut,
    /// Persistence-buffer bytes the batch holds (tenant side only).
    input_bytes: usize,
}

/// Everything the relay has a timer armed for, by timer token.
enum Timer {
    /// A processed batch finished its processing time: release it.
    Release(Deferred),
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
    by_sock: HashMap<SockId, (usize, Dir)>,
    replicas: Vec<ReplicaSession>,
    replica_socks: HashMap<SockId, usize>,
    timers: HashMap<u64, Timer>,
    limiter: Option<RateLimiter>,
    next_token: u64,
    alerts: Vec<(SimTime, String)>,
    pdus_forwarded: u64,
    /// Verbatim forwards, encode-side copies (small-segment batching,
    /// fresh nvmeq frame headers and re-encoded entries — the multi-queue
    /// analogue of BHS decode scratch) and the reassembly copies of
    /// streams whose pairs a crash dropped.
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
        let limiter = cfg.qos.as_ref().map(|q| RateLimiter::new(q.limit));
        ActiveRelayMb {
            cfg,
            limiter,
            services,
            pairs: Vec::new(),
            by_sock: HashMap::new(),
            replicas: Vec::new(),
            replica_socks: HashMap::new(),
            timers: HashMap::new(),
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

    /// `(throttled_ops, total_shaping_delay)` of the tenant rate limiter;
    /// zeros when QoS is not configured.
    pub fn qos_throttle_stats(&self) -> (u64, SimDuration) {
        self.limiter
            .as_ref()
            .map_or((0, SimDuration::ZERO), |l| l.throttle_stats())
    }

    /// Memcpy accounting across the relay's datapath: reassembly copies
    /// on both flow streams plus small-segment batching on encode. Feeds
    /// the `relay.bytes_copied` metric and the zero-copy acceptance test.
    pub fn copy_stats(&self) -> RelayCopyStats {
        let mut s = self.copy;
        for p in &self.pairs {
            p.edge.add_stream_copies(&mut s);
        }
        s
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

    /// Runs every unit of a batch through the service chain, one PDU at a
    /// time, and rebuilds the batch from what the chain emitted. Units the
    /// chain passes untouched stay wire views; if *all* of them do, the
    /// whole received batch forwards verbatim — one iSCSI PDU or a whole
    /// doorbell frame alike. CPU charges are attributed to the service
    /// that emitted them as [`Hop::Service`] stages for latency
    /// attribution.
    fn run_chain(
        &mut self,
        cx: &mut Cx<'_>,
        now: SimTime,
        dir: Dir,
        pair_idx: usize,
        batch: Batch,
    ) -> ChainOut {
        let src_port = self.pairs[pair_idx].src_port;
        let per_pdu_cost = self.cfg.per_pdu_cost;
        let n_units = batch.units.len();
        let mut out = ChainOut {
            forwards: Forwards::Verbatim {
                wire: batch.wire,
                units: (n_units as u64).max(1),
            },
            replies: Vec::new(),
            replica_ops: Vec::new(),
            // A chain-bypass batch still costs one decapsulation.
            cost: if n_units == 0 {
                per_pdu_cost
            } else {
                SimDuration::ZERO
            },
        };
        let mut rebuilt = Vec::new();
        let mut untouched = true;
        for Unit { pdu, src } in batch.units {
            let req = req_token(src_port, pdu.itt());
            out.cost += per_pdu_cost;
            self.stage(now, req, Hop::Relay, self.trace_mb, per_pdu_cost);
            let mut frontier = vec![pdu];
            let n = self.services.len();
            for step in 0..n {
                let idx = match dir {
                    Dir::ToTarget => step,
                    Dir::ToInitiator => n - 1 - step,
                };
                let mut next = Vec::new();
                let mut charged = SimDuration::ZERO;
                for p in frontier {
                    let mut scx = SvcCtx::new(now);
                    self.services[idx].on_pdu(&mut scx, dir, p);
                    for action in scx.take_actions() {
                        match action {
                            SvcAction::Forward(p) => next.push(p),
                            SvcAction::Reply(p) => out.replies.push(p),
                            SvcAction::Replica { replica, io, ctx } => {
                                out.replica_ops.push((idx, replica, io, ctx))
                            }
                            SvcAction::Alert(msg) => self.alerts.push((now, msg)),
                            SvcAction::Charge(c) => charged += c,
                            SvcAction::Timer { delay, token } => {
                                self.arm(cx, delay, Timer::Service { svc: idx, token })
                            }
                        }
                    }
                }
                if charged > SimDuration::ZERO {
                    out.cost += charged;
                    self.stage(now, req, Hop::Service, idx as u32, charged);
                }
                frontier = next;
            }
            if self.pairs[pair_idx]
                .edge
                .rebuild(src, frontier, &mut rebuilt)
            {
                self.copy.verbatim_forwards += 1;
            } else {
                untouched = false;
            }
        }
        if !untouched {
            out.forwards = Forwards::Rebuilt(rebuilt);
        }
        out
    }

    /// The flow pair side actions should route to: the originating pair
    /// when known and still open, otherwise the first open pair (timers
    /// and other flow-less contexts).
    fn route_pair(&self, origin: Option<usize>) -> Option<usize> {
        match origin {
            Some(i) if i < self.pairs.len() && !self.pairs[i].closed => Some(i),
            _ => self.pairs.iter().position(|p| !p.closed),
        }
    }

    /// Executes the actions a service emitted outside the data path
    /// (replica completions, timers). `origin` is the flow pair whose PDU
    /// led here, when there is one.
    fn run_side_actions(
        &mut self,
        cx: &mut Cx<'_>,
        svc: usize,
        mut scx: SvcCtx,
        origin: Option<usize>,
    ) {
        let actions = scx.take_actions();
        let now = cx.now();
        for action in actions {
            match action {
                // Side-context replies flow back towards the initiator
                // (e.g. replication serving a read from a replica, the
                // write-back cache acknowledging a journalled write),
                // side-context forwards continue upstream (e.g. a failed
                // replica read re-dispatched to the primary) — on the flow
                // the request came in on, in that flow's wire protocol.
                SvcAction::Reply(p) => self.queue_side(cx, origin, Dir::ToInitiator, p),
                SvcAction::Forward(p) => self.queue_side(cx, origin, Dir::ToTarget, p),
                SvcAction::Replica { replica, io, ctx } => {
                    self.issue_replica(cx, svc, replica, io, ctx, origin);
                }
                SvcAction::Alert(msg) => self.alerts.push((now, msg)),
                SvcAction::Charge(c) => {
                    let _ = cx.charge(c, &self.cfg.label);
                }
                SvcAction::Timer { delay, token } => {
                    self.arm(cx, delay, Timer::Service { svc, token })
                }
            }
        }
    }

    fn queue_side(&mut self, cx: &mut Cx<'_>, origin: Option<usize>, dir: Dir, pdu: Pdu) {
        if let Some(i) = self.route_pair(origin) {
            let p = &mut self.pairs[i];
            self.pdus_forwarded += p.queue(dir, [UnitOut::Pdu(pdu)], &mut self.copy);
            p.pump(cx, dir);
        }
    }

    fn issue_replica(
        &mut self,
        cx: &mut Cx<'_>,
        svc_idx: usize,
        replica: usize,
        io: ReplicaIo,
        ctx: u64,
        origin: Option<usize>,
    ) {
        self.issue_replica_attempt(
            cx,
            replica,
            PendingIo {
                svc: svc_idx,
                ctx,
                io,
                attempts: 0,
                origin,
            },
        );
    }

    fn issue_replica_attempt(&mut self, cx: &mut Cx<'_>, replica: usize, req: PendingIo) {
        let Some(sess) = self.replicas.get_mut(replica) else {
            return;
        };
        if sess.failed {
            return self.fail_io(cx, replica, &req);
        }
        if !sess.up {
            sess.parked.push((req.svc, req.io, req.ctx, req.origin));
            return;
        }
        let tag = match &req.io {
            ReplicaIo::Write { lba, data } => sess.ini.write(*lba, data.clone()),
            ReplicaIo::Read { lba, sectors } => sess.ini.read(*lba, *sectors),
        };
        sess.pending.insert(tag, req);
        if let Some(sock) = sess.sock {
            for c in sess.ini.take_wire() {
                sess.sendq.push_bytes(c);
            }
            sess.sendq.pump(cx, sock);
        }
        // Arm the request watchdog.
        if let Some(policy) = self.cfg.retry {
            self.arm(cx, policy.timeout, Timer::Watchdog { replica, tag });
        }
    }

    /// Fails one replica request back to the service that issued it.
    fn fail_io(&mut self, cx: &mut Cx<'_>, replica: usize, req: &PendingIo) {
        let mut scx = SvcCtx::new(cx.now());
        self.services[req.svc].on_replica_done(&mut scx, replica, req.ctx, false, Bytes::new());
        self.run_side_actions(cx, req.svc, scx, req.origin);
    }

    /// A replica request produced no response within the timeout window:
    /// retry with bounded exponential backoff, and once the session has
    /// timed out `fail_threshold` requests in a row, fail the replica.
    fn handle_replica_timeout(&mut self, cx: &mut Cx<'_>, replica: usize, tag: IoTag) {
        let Some(policy) = self.cfg.retry else {
            return;
        };
        let Some(sess) = self.replicas.get_mut(replica) else {
            return;
        };
        // The response arrived (or the session already failed over).
        let Some(mut req) = sess.pending.remove(&tag) else {
            return;
        };
        sess.timeouts += 1;
        if sess.timeouts >= policy.fail_threshold {
            // Drains the remaining pending requests; this one was removed
            // above, so it is failed separately below.
            self.fail_replica(cx, replica);
        } else if req.attempts < policy.max_retries {
            req.attempts += 1;
            let backoff = policy.backoff(req.attempts);
            return self.arm(cx, backoff, Timer::Retry { replica, req });
        }
        // Replica gone or out of retries: this request is failed to its
        // service.
        self.fail_io(cx, replica, &req);
    }

    fn flush_replica(&mut self, cx: &mut Cx<'_>, idx: usize) {
        if let Some(sess) = self.replicas.get_mut(idx) {
            if let Some(sock) = sess.sock {
                for c in sess.ini.take_wire() {
                    sess.sendq.push_bytes(c);
                }
                sess.sendq.pump(cx, sock);
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
            let input_bytes = if inbound { batch.wire_len } else { 0 };
            // Fault injection: an armed plan may drop or slow batch
            // processing inside the middle-box.
            let mut fault_delay = SimDuration::ZERO;
            match self
                .fault
                .decide(now, FaultSite::MbProcess { mb: self.fault_mb })
            {
                FaultAction::Proceed => {}
                FaultAction::Drop | FaultAction::Fail => {
                    // Keep the persistence-buffer accounting draining.
                    let p = &mut self.pairs[pair_idx];
                    p.buffered_in = p.buffered_in.saturating_sub(input_bytes);
                    continue;
                }
                FaultAction::Delay(d) => fault_delay = d,
            }
            // Tenant rate limiting: request-direction batches draw from
            // the token bucket, one admit per batch (a doorbell is one
            // shaping decision, matching its one network transfer); the
            // shaping delay is queueing (a later serve start), not CPU, so
            // an under-limit tenant's datapath is byte-identical to the
            // unlimited one.
            let qos_delay = match &mut self.limiter {
                Some(l) if inbound => l.admit(now, batch.wire_len as u64),
                _ => SimDuration::ZERO,
            };
            if qos_delay > SimDuration::ZERO {
                let req = req_token(self.pairs[pair_idx].src_port, batch.tag);
                self.stage(now, req, Hop::Qos, self.trace_mb, qos_delay);
            }
            let mut out = self.run_chain(cx, now, dir, pair_idx, batch);
            out.cost += fault_delay;
            // Account CPU and serialize processing per flow.
            let _ = cx.charge(out.cost, &self.cfg.label);
            let done = self.pairs[pair_idx].proc.serve(now + qos_delay, out.cost);
            let deferred = Deferred {
                pair: pair_idx,
                dir,
                out,
                input_bytes,
            };
            self.arm(cx, done - now, Timer::Release(deferred));
        }
    }

    fn release(&mut self, cx: &mut Cx<'_>, d: Deferred) {
        let Deferred {
            pair,
            dir,
            out,
            input_bytes,
        } = d;
        if pair >= self.pairs.len() || self.pairs[pair].closed {
            return;
        }
        for (svc_idx, replica, io, ctx) in out.replica_ops {
            self.issue_replica(cx, svc_idx, replica, io, ctx, Some(pair));
        }
        let p = &mut self.pairs[pair];
        let forwarded = match out.forwards {
            Forwards::Verbatim { wire, units } => {
                p.leg(dir).1.push_all(wire);
                units
            }
            Forwards::Rebuilt(units) => p.queue(dir, units, &mut self.copy),
        };
        // Chain replies head back where the triggering batch came from
        // (coalesced into one frame on a multi-queue flow).
        let replies = out.replies.into_iter().map(UnitOut::Pdu);
        let replied = p.queue(dir.flip(), replies, &mut self.copy);
        self.pdus_forwarded += forwarded + replied;
        p.buffered_in = p.buffered_in.saturating_sub(input_bytes);
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
            match ev {
                TransportEvent::Ready => {
                    let parked = {
                        let sess = &mut self.replicas[idx];
                        sess.up = true;
                        std::mem::take(&mut sess.parked)
                    };
                    for (svc_idx, io, ctx, origin) in parked {
                        self.issue_replica(cx, svc_idx, idx, io, ctx, origin);
                    }
                }
                TransportEvent::ConnectFailed { .. } => self.fail_replica(cx, idx),
                TransportEvent::WriteDone { tag, status }
                | TransportEvent::FlushDone { tag, status } => {
                    if let Some(req) = self.replicas[idx].pending.remove(&tag) {
                        self.replicas[idx].timeouts = 0;
                        let ok = status == ScsiStatus::Good;
                        let mut scx = SvcCtx::new(cx.now());
                        self.services[req.svc].on_replica_done(
                            &mut scx,
                            idx,
                            req.ctx,
                            ok,
                            Bytes::new(),
                        );
                        self.run_side_actions(cx, req.svc, scx, req.origin);
                    }
                }
                TransportEvent::ReadDone { tag, status, data } => {
                    if let Some(req) = self.replicas[idx].pending.remove(&tag) {
                        self.replicas[idx].timeouts = 0;
                        let ok = status == ScsiStatus::Good;
                        let mut scx = SvcCtx::new(cx.now());
                        self.services[req.svc].on_replica_done(&mut scx, idx, req.ctx, ok, data);
                        self.run_side_actions(cx, req.svc, scx, req.origin);
                    }
                }
                TransportEvent::Closed => self.fail_replica(cx, idx),
                TransportEvent::ProtocolError(_) => self.fail_replica(cx, idx),
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
                params: SessionParams::default(),
                isid: [0x80, 0, 0, 0x10, 0, self.replicas.len() as u8],
            });
            let idx = self.replicas.len();
            self.replicas.push(ReplicaSession {
                ini,
                sock: Some(sock),
                sendq: SendQueue::new(),
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
        for pair in &mut self.pairs {
            if !pair.closed {
                pair.closed = true;
                cx.abort(pair.server);
                cx.abort(pair.client);
            }
            pair.edge.add_stream_copies(&mut self.copy);
        }
        self.pairs.clear();
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
        for svc_idx in 0..self.services.len() {
            let mut scx = SvcCtx::new(cx.now());
            self.services[svc_idx].on_replica_failed(&mut scx, idx);
            self.run_side_actions(cx, svc_idx, scx, None);
        }
    }
}

impl App for ActiveRelayMb {
    fn on_start(&mut self, cx: &mut Cx<'_>) {
        cx.listen(self.cfg.listen_port);
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
            edge: Edge::Undecided,
            s_out: SendQueue::new(),
            c_out: SendQueue::new(),
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
            Some(Timer::Release(d)) => self.release(cx, d),
            Some(Timer::Service { svc, token }) => {
                let mut scx = SvcCtx::new(cx.now());
                self.services[svc].on_timer(&mut scx, token);
                self.run_side_actions(cx, svc, scx, None);
            }
            Some(Timer::Watchdog { replica, tag }) => self.handle_replica_timeout(cx, replica, tag),
            Some(Timer::Retry { replica, req }) => {
                self.issue_replica_attempt(cx, replica, req);
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
        q: SendQueue,
    }

    impl App for Source {
        fn on_start(&mut self, cx: &mut Cx<'_>) {
            cx.connect(self.to);
        }
        fn on_connected(&mut self, cx: &mut Cx<'_>, sock: SockId) {
            self.q.pump(cx, sock);
        }
        fn on_writable(&mut self, cx: &mut Cx<'_>, sock: SockId) {
            self.q.pump(cx, sock);
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

    /// Charges a fixed CPU cost per PDU and forwards it.
    struct Slow(SimDuration);

    impl StorageService for Slow {
        fn name(&self) -> &str {
            "slow"
        }
        fn on_pdu(&mut self, cx: &mut SvcCtx, _dir: Dir, pdu: Pdu) {
            cx.charge(self.0);
            cx.forward(pdu);
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
        let mut q = SendQueue::new();
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

    /// A NOP-Out header announcing `dsl` data bytes, then the bytes.
    fn iscsi_message(dsl: usize) -> Vec<Bytes> {
        let mut bhs = [0u8; BHS_LEN];
        bhs[1] = 0x80;
        bhs[5..8].copy_from_slice(&(dsl as u32).to_be_bytes()[1..]);
        vec![Bytes::copy_from_slice(&bhs), Bytes::from(vec![0x5A; dsl])]
    }

    /// A one-write doorbell frame carrying `len` in-capsule bytes.
    fn nvmeq_message(len: usize) -> Vec<Bytes> {
        let header = FrameHeader {
            kind: FrameKind::Doorbell,
            count: 1,
            payload_len: (SQE_LEN + len) as u32,
            queue_depth: 0,
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
