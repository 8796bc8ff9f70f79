//! The tenant VM's block I/O path: virtio-blk → host initiator → wire.
//!
//! A [`VolumeClient`] is the compute-host application that owns one block
//! session for one attached volume and drives it with a pluggable
//! [`Workload`] (Fio-like generators, PostMark, OLTP clients — see
//! `storm-workloads`). The wire protocol is pluggable too: the client
//! holds a `Box<dyn Transport>` and [`TransportKind`] in the config picks
//! iSCSI (the paper's deployment) or the nvmeq multi-queue protocol,
//! whose submission ring keeps up to `queue_depth` tagged commands in
//! flight, each rung as its own doorbell frame. CPU spent
//! issuing and completing I/O is charged to the VM's label, which is how
//! the Figure-10 utilization breakdown gets its per-VM numbers.

use bytes::Bytes;

use storm_block::transport::{IoTag, ScsiStatus, Transport, TransportEvent, TransportKind};
use storm_iscsi::{Initiator, InitiatorConfig};
use storm_net::{App, CloseReason, Cx, SockAddr, SockId};
use storm_nvmeq::{NvmeqConfig, NvmeqInitiator};
use storm_sim::hist::Histogram;
use storm_sim::metrics::{Meter, Timeline};
use storm_sim::trace::{req_token, Hop, TraceEvent, TraceHook};
use storm_sim::{IdMap, SimDuration, SimRng, SimTime};

/// A workload-chosen request identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

/// Request direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Data from the volume.
    Read,
    /// Data to the volume.
    Write,
    /// Cache flush.
    Flush,
}

/// Completion of an I/O request.
#[derive(Debug, Clone)]
pub struct IoResult {
    /// Whether the SCSI status was GOOD.
    pub ok: bool,
    /// Read payload (empty for writes/flushes/errors).
    pub data: Bytes,
    /// Issue-to-completion latency.
    pub latency: SimDuration,
}

/// The interface a [`Workload`] uses to drive I/O.
///
/// Commands are queued during the callback and executed when it returns,
/// so workloads are plain state machines with no borrow gymnastics.
#[derive(Debug)]
pub struct IoCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Number of requests currently in flight (before this callback's
    /// commands).
    pub in_flight: usize,
    rng: &'a mut SimRng,
    next_req: &'a mut u64,
    cmds: Vec<IoCmd>,
}

#[derive(Debug)]
enum IoCmd {
    Read { req: ReqId, lba: u64, sectors: u32 },
    Write { req: ReqId, lba: u64, data: Bytes },
    Flush { req: ReqId },
    Timer { delay: SimDuration, token: u64 },
    Charge { cost: SimDuration },
    Stop,
}

impl<'a> IoCtx<'a> {
    /// The workload's deterministic random source.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    fn req(&mut self) -> ReqId {
        let r = ReqId(*self.next_req);
        *self.next_req += 1;
        r
    }

    /// Queues a read of `sectors` sectors at `lba`.
    pub fn read(&mut self, lba: u64, sectors: u32) -> ReqId {
        let req = self.req();
        self.cmds.push(IoCmd::Read { req, lba, sectors });
        req
    }

    /// Queues a write of `data` at `lba`.
    pub fn write(&mut self, lba: u64, data: Bytes) -> ReqId {
        let req = self.req();
        self.cmds.push(IoCmd::Write { req, lba, data });
        req
    }

    /// Queues a flush.
    pub fn flush(&mut self) -> ReqId {
        let req = self.req();
        self.cmds.push(IoCmd::Flush { req });
        req
    }

    /// Schedules a workload timer.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.cmds.push(IoCmd::Timer { delay, token });
    }

    /// Charges guest CPU time (e.g. in-VM encryption) to the VM's label.
    pub fn charge_vm_cpu(&mut self, cost: SimDuration) {
        self.cmds.push(IoCmd::Charge { cost });
    }

    /// Declares the workload finished; no further I/O is issued.
    pub fn stop(&mut self) {
        self.cmds.push(IoCmd::Stop);
    }
}

/// A block workload run inside a tenant VM.
///
/// `Workload: Any` so harnesses can downcast a client's workload (via
/// [`VolumeClient::workload_ref`]) to read results after a run.
#[allow(unused_variables)]
pub trait Workload: std::any::Any {
    /// Called once when the volume becomes ready (login complete).
    fn start(&mut self, io: &mut IoCtx<'_>);
    /// Called when a request completes.
    fn completed(&mut self, io: &mut IoCtx<'_>, req: ReqId, kind: IoKind, result: IoResult);
    /// Called for timers set via [`IoCtx::set_timer`].
    fn timer(&mut self, io: &mut IoCtx<'_>, token: u64) {}
    /// Called if the session drops.
    fn disconnected(&mut self, io: &mut IoCtx<'_>) {}
}

impl dyn Workload {
    /// Downcasts to a concrete workload type.
    pub fn downcast_ref<T: Workload>(&self) -> Option<&T> {
        let any: &dyn std::any::Any = self;
        any.downcast_ref()
    }

    /// Downcasts to a concrete workload type (mutable).
    pub fn downcast_mut<T: Workload>(&mut self) -> Option<&mut T> {
        let any: &mut dyn std::any::Any = self;
        any.downcast_mut()
    }
}

/// Per-client measurement results.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Completed reads.
    pub reads: Meter,
    /// Completed writes.
    pub writes: Meter,
    /// Read latencies.
    pub read_latency: Histogram,
    /// Write latencies.
    pub write_latency: Histogram,
    /// All-request latencies.
    pub latency: Histogram,
    /// Completions per second (Figure-13 style timeline).
    pub timeline: Option<Timeline>,
    /// I/O errors observed.
    pub errors: u64,
}

impl ClientStats {
    /// Total completed operations.
    pub fn ops(&self) -> u64 {
        self.reads.count() + self.writes.count()
    }

    /// Operations per second over `window`.
    pub fn iops(&self, window: SimDuration) -> f64 {
        if window.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.ops() as f64 / window.as_secs_f64()
    }
}

/// Configuration for a [`VolumeClient`].
#[derive(Debug, Clone)]
pub struct VolumeClientConfig {
    /// The target portal (always the *real* storage address — StorM's
    /// splicing redirects transparently underneath).
    pub target: SockAddr,
    /// iSCSI initiator identity and parameters. The IQNs double as the
    /// nvmeq connect identities, so one config covers both protocols.
    pub initiator: InitiatorConfig,
    /// Wire protocol for the session.
    pub transport: TransportKind,
    /// Submission-ring depth for [`TransportKind::Nvmeq`]: commands
    /// beyond this park in the host's software queue. Ignored by iSCSI.
    pub queue_depth: u16,
    /// CPU label for this VM (e.g. `"vm:mysql"`).
    pub vm_label: String,
    /// Per-request virtio-blk + guest block-layer CPU cost.
    pub per_io_cpu: SimDuration,
    /// Workload RNG seed.
    pub seed: u64,
    /// Record a per-second completion timeline.
    pub timeline: bool,
    /// Telemetry hook; the guest initiator mints each request's
    /// [`storm_sim::trace::ReqToken`] here (source port + ITT).
    pub trace: TraceHook,
}

impl VolumeClientConfig {
    /// Sensible defaults for `target` and a label.
    pub fn new(target: SockAddr, initiator: InitiatorConfig, vm_label: impl Into<String>) -> Self {
        VolumeClientConfig {
            target,
            initiator,
            transport: TransportKind::Iscsi,
            queue_depth: 32,
            vm_label: vm_label.into(),
            per_io_cpu: SimDuration::from_micros(40),
            seed: 1,
            timeline: false,
            trace: TraceHook::none(),
        }
    }
}

/// The compute-host app owning one volume session + workload.
pub struct VolumeClient {
    cfg: VolumeClientConfig,
    ini: Box<dyn Transport>,
    sock: Option<SockId>,
    workload: Option<Box<dyn Workload>>,
    pending: IdMap<IoTag, (ReqId, IoKind, SimTime, usize)>,
    next_req: u64,
    rng: SimRng,
    /// Measurements (public for harnesses to read after a run).
    pub stats: ClientStats,
    stopped: bool,
    ready: bool,
    tuple: Option<storm_net::FourTuple>,
}

impl VolumeClient {
    /// Creates a client that will run `workload` once attached.
    pub fn new(cfg: VolumeClientConfig, workload: Box<dyn Workload>) -> Self {
        let rng = SimRng::seed_from_u64(cfg.seed);
        let ini: Box<dyn Transport> = match cfg.transport {
            TransportKind::Iscsi => Box::new(Initiator::new(cfg.initiator.clone())),
            TransportKind::Nvmeq => Box::new(NvmeqInitiator::new(NvmeqConfig {
                initiator_iqn: cfg.initiator.initiator_iqn.clone(),
                target_iqn: cfg.initiator.target_iqn.clone(),
                queue_depth: cfg.queue_depth,
            })),
        };
        let timeline = cfg
            .timeline
            .then(|| Timeline::new(SimDuration::from_secs(1)));
        VolumeClient {
            cfg,
            ini,
            sock: None,
            workload: Some(workload),
            pending: IdMap::default(),
            next_req: 0,
            rng,
            stats: ClientStats {
                timeline,
                ..ClientStats::default()
            },
            stopped: false,
            ready: false,
            tuple: None,
        }
    }

    /// Whether the session reached full-feature phase.
    pub fn is_ready(&self) -> bool {
        self.ready
    }

    /// The session's 4-tuple once connected — the initiator half of
    /// connection attribution (IQN ↔ source port, paper §III-A).
    pub fn tuple(&self) -> Option<storm_net::FourTuple> {
        self.tuple
    }

    /// Downcast-friendly access to the workload.
    pub fn workload_ref(&self) -> Option<&dyn Workload> {
        self.workload.as_deref()
    }

    /// The session's transport (ring and frame counters).
    pub fn transport(&self) -> &dyn Transport {
        self.ini.as_ref()
    }

    /// Drains the session's queued wire bytes into the socket; what TCP
    /// does not accept stays queued for `on_writable`.
    fn flush_out(&mut self, cx: &mut Cx<'_>) {
        if let Some(sock) = self.sock {
            self.ini.wire().send(|c| cx.send_chunks(sock, c));
        }
    }

    fn drive<F>(&mut self, cx: &mut Cx<'_>, f: F)
    where
        F: FnOnce(&mut dyn Workload, &mut IoCtx<'_>),
    {
        let Some(mut w) = self.workload.take() else {
            return;
        };
        let mut io = IoCtx {
            now: cx.now(),
            in_flight: self.pending.len(),
            rng: &mut self.rng,
            next_req: &mut self.next_req,
            cmds: Vec::new(),
        };
        f(w.as_mut(), &mut io);
        let cmds = io.cmds;
        self.workload = Some(w);
        for cmd in cmds {
            self.exec(cx, cmd);
        }
        self.flush_out(cx);
    }

    /// Mints the request's path-wide token: the session's source port
    /// (stable across NAT and the relay's port-preserving reconnect) plus
    /// the command's ITT.
    fn req_token_of(&self, tag: IoTag) -> Option<storm_sim::trace::ReqToken> {
        self.tuple.map(|t| req_token(t.src.port, tag.0))
    }

    /// Emits the issue-side trace events: the request's birth and the
    /// guest's virtio/initiator CPU stage.
    fn trace_issue(&self, now: SimTime, tag: IoTag, kind: u8, bytes: u32) {
        if !self.cfg.trace.is_armed() {
            return;
        }
        let Some(req) = self.req_token_of(tag) else {
            return;
        };
        self.cfg
            .trace
            .emit(now, TraceEvent::Issue { req, kind, bytes });
        self.cfg.trace.emit(
            now,
            TraceEvent::Stage {
                req,
                hop: Hop::Virtio,
                id: 0,
                dur: self.cfg.per_io_cpu,
            },
        );
    }

    fn exec(&mut self, cx: &mut Cx<'_>, cmd: IoCmd) {
        if self.stopped {
            return;
        }
        match cmd {
            IoCmd::Read { req, lba, sectors } => {
                if !self.ready {
                    return;
                }
                let _ = cx.charge(self.cfg.per_io_cpu, &self.cfg.vm_label);
                let tag = self.ini.read(lba, sectors);
                self.trace_issue(cx.now(), tag, 0, sectors * 512);
                self.pending
                    .insert(tag, (req, IoKind::Read, cx.now(), sectors as usize * 512));
            }
            IoCmd::Write { req, lba, data } => {
                if !self.ready {
                    return;
                }
                let _ = cx.charge(self.cfg.per_io_cpu, &self.cfg.vm_label);
                let bytes = data.len();
                let tag = self.ini.write(lba, data);
                self.trace_issue(cx.now(), tag, 1, bytes as u32);
                self.pending
                    .insert(tag, (req, IoKind::Write, cx.now(), bytes));
            }
            IoCmd::Flush { req } => {
                if !self.ready {
                    return;
                }
                let tag = self.ini.flush();
                self.trace_issue(cx.now(), tag, 2, 0);
                self.pending.insert(tag, (req, IoKind::Flush, cx.now(), 0));
            }
            IoCmd::Timer { delay, token } => cx.set_timer(delay, token),
            IoCmd::Charge { cost } => {
                let _ = cx.charge(cost, &self.cfg.vm_label);
            }
            IoCmd::Stop => self.stopped = true,
        }
    }

    /// Emits the completion-side trace events: the guest's completion CPU
    /// stage and the request's end-of-life marker.
    fn trace_complete(&self, now: SimTime, tag: IoTag, ok: bool) {
        if !self.cfg.trace.is_armed() {
            return;
        }
        let Some(req) = self.req_token_of(tag) else {
            return;
        };
        self.cfg.trace.emit(
            now,
            TraceEvent::Stage {
                req,
                hop: Hop::Virtio,
                id: 0,
                dur: self.cfg.per_io_cpu / 2,
            },
        );
        self.cfg.trace.emit(now, TraceEvent::Complete { req, ok });
    }

    fn record(&mut self, cx: &Cx<'_>, kind: IoKind, bytes: usize, issued: SimTime, ok: bool) {
        let lat = cx.now().since(issued);
        if !ok {
            self.stats.errors += 1;
        }
        match kind {
            IoKind::Read => {
                self.stats.reads.record(bytes as u64);
                self.stats.read_latency.record(lat);
            }
            IoKind::Write => {
                self.stats.writes.record(bytes as u64);
                self.stats.write_latency.record(lat);
            }
            IoKind::Flush => {}
        }
        if kind != IoKind::Flush {
            self.stats.latency.record(lat);
            if let Some(t) = &mut self.stats.timeline {
                t.record(cx.now());
            }
        }
    }
}

impl App for VolumeClient {
    fn on_start(&mut self, cx: &mut Cx<'_>) {
        self.sock = Some(cx.connect(self.cfg.target));
    }

    fn on_connected(&mut self, cx: &mut Cx<'_>, sock: SockId) {
        self.tuple = cx.tuple_of(sock);
        self.ini.start();
        self.flush_out(cx);
    }

    fn on_connect_failed(&mut self, cx: &mut Cx<'_>, _sock: SockId) {
        self.drive(cx, |w, io| w.disconnected(io));
    }

    fn on_data(&mut self, cx: &mut Cx<'_>, _sock: SockId, data: Bytes) {
        let events = self.ini.feed_bytes(data);
        for ev in events {
            match ev {
                TransportEvent::Ready => {
                    self.ready = true;
                    self.drive(cx, |w, io| w.start(io));
                }
                TransportEvent::ConnectFailed { .. } => {
                    self.drive(cx, |w, io| w.disconnected(io));
                }
                TransportEvent::ReadDone { tag, status, data } => {
                    if let Some((req, kind, issued, bytes)) = self.pending.remove(&tag) {
                        let _ = cx.charge(self.cfg.per_io_cpu / 2, &self.cfg.vm_label);
                        let ok = status == ScsiStatus::Good;
                        self.trace_complete(cx.now(), tag, ok);
                        self.record(cx, kind, bytes, issued, ok);
                        let latency = cx.now().since(issued);
                        self.drive(cx, move |w, io| {
                            w.completed(io, req, kind, IoResult { ok, data, latency })
                        });
                    }
                }
                TransportEvent::WriteDone { tag, status }
                | TransportEvent::FlushDone { tag, status } => {
                    if let Some((req, kind, issued, bytes)) = self.pending.remove(&tag) {
                        let _ = cx.charge(self.cfg.per_io_cpu / 2, &self.cfg.vm_label);
                        let ok = status == ScsiStatus::Good;
                        self.trace_complete(cx.now(), tag, ok);
                        self.record(cx, kind, bytes, issued, ok);
                        let latency = cx.now().since(issued);
                        self.drive(cx, move |w, io| {
                            w.completed(
                                io,
                                req,
                                kind,
                                IoResult {
                                    ok,
                                    data: Bytes::new(),
                                    latency,
                                },
                            )
                        });
                    }
                }
                TransportEvent::ProtocolError(_) => {
                    if let Some(sock) = self.sock {
                        cx.abort(sock);
                    }
                }
            }
        }
        self.flush_out(cx);
    }

    fn on_writable(&mut self, cx: &mut Cx<'_>, sock: SockId) {
        self.ini.wire().send(|c| cx.send_chunks(sock, c));
    }

    fn on_timer(&mut self, cx: &mut Cx<'_>, token: u64) {
        self.drive(cx, |w, io| w.timer(io, token));
    }

    fn on_closed(&mut self, cx: &mut Cx<'_>, _sock: SockId, _reason: CloseReason) {
        self.ready = false;
        self.drive(cx, |w, io| w.disconnected(io));
    }
}

impl std::fmt::Debug for VolumeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VolumeClient")
            .field("vm", &self.cfg.vm_label)
            .field("ready", &self.ready)
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}
