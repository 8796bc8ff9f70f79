//! The storage host application: block targets over the disk model.
//!
//! One `TargetHostApp` per storage host listens on the iSCSI (3260) and
//! nvmeq (4420) portals and serves every volume exported from that host
//! (sessions select their volume by `TargetName` at login/connect). The
//! wire protocol is sniffed per connection from the first byte — nvmeq
//! frames open with magic `0xB5`, iSCSI logins with opcode `0x43` — so
//! steering rules written for one portal cover both.
//!
//! Every Read/Write/Flush either transport surfaces becomes one `DiskJob`
//! and walks one pipeline — admit → shape → schedule → serve → respond —
//! whose stages are the methods of those names below. Jobs share the
//! host's [`DiskModel`], so concurrent sessions contend for the spindle
//! as on the paper's Cinder node; per-tenant QoS
//! ([`TargetHostApp::enable_qos`]) is two stages of that pipeline (token
//! bucket, per-tier WFQ gate) that only registered volumes enter, not a
//! path beside it.
//!
//! An nvmeq doorbell delivers a whole batch of submissions in one frame;
//! `handle_events` admits them in one dispatch tick (every command
//! reaches the disk model before the first completes), and held
//! completions go out when the connection's interrupt-moderation timer
//! fires ([`storm_iscsi::TargetTransport::cq_deadline_ns`]).

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use bytes::Bytes;

use storm_block::{BlockDevice, SharedVolume};
use storm_iscsi::{
    Iqn, ScsiStatus, SessionParams, TargetConfig, TargetConn, TargetEvent, TargetTransport,
    ISCSI_PORT,
};
use storm_net::{App, CloseReason, Cx, FourTuple, SendQueue, SockId};
use storm_nvmeq::{scan_connect_payload, NvmeqTargetConfig, NvmeqTargetConn, MAGIC, NVMEQ_PORT};
use storm_qos::{DiskTier, RateLimitSpec, RateLimiter, WeightedFairQueue};
use storm_sim::trace::{req_token, Hop, TraceEvent, TraceHook};
use storm_sim::{FaultAction, FaultHook, FaultSite, Histogram, SimDuration, SimTime};

use crate::disk::{DiskModel, DiskSpec};

/// Configuration of a storage host's target service.
#[derive(Debug, Clone)]
pub struct TargetHostConfig {
    /// Disk performance parameters.
    pub disk: DiskSpec,
    /// Session parameters offered to initiators.
    pub params: SessionParams,
    /// Per-I/O target CPU cost (request parsing, SCSI dispatch).
    pub per_io_cpu: SimDuration,
    /// Per-byte target CPU cost (TCP + page-cache copies).
    pub per_byte_cpu: SimDuration,
    /// Ring size offered to nvmeq hosts in the connect ack.
    pub queue_depth: u16,
    /// nvmeq completion coalescing: flush once this many CQEs are held.
    pub cq_max_batch: usize,
    /// nvmeq interrupt-moderation window in nanoseconds.
    pub cq_window_ns: u64,
}

impl Default for TargetHostConfig {
    fn default() -> Self {
        TargetHostConfig {
            disk: DiskSpec::default(),
            params: SessionParams::default(),
            per_io_cpu: SimDuration::from_micros(20),
            per_byte_cpu: SimDuration::from_nanos(4),
            queue_depth: 32,
            cq_max_batch: 8,
            cq_window_ns: 20_000,
        }
    }
}

#[derive(Debug)]
struct Session {
    conn: Box<dyn TargetTransport>,
    volume: Option<SharedVolume>,
    /// IQN the session bound to (QoS tenant/tier lookups); shared with
    /// the session's jobs, so admitting a command never copies it.
    iqn: Option<Rc<str>>,
    sendq: SendQueue,
    /// The initiator name seen at login (connection attribution).
    initiator: Option<Iqn>,
    tuple: Option<FourTuple>,
    /// The coalescing deadline a timer is currently armed for, so one
    /// deadline never arms two timers.
    armed_cq: Option<u64>,
}

impl Session {
    /// Moves the connection's queued wire bytes to the socket.
    fn flush_wire(&mut self, cx: &mut Cx<'_>, sock: SockId) {
        self.sendq.push_all(self.conn.take_wire());
        self.sendq.pump(cx, sock);
    }
}

/// What a command asks of the disk.
#[derive(Debug, Clone, Copy)]
enum DiskOp {
    Read { lba: u64, sectors: u32 },
    Write { lba: u64, bytes: usize },
    Flush,
}

impl DiskOp {
    /// Payload size: CPU charge, token-bucket draw and WFQ cost (a flush
    /// counts as one sector).
    fn bytes(self) -> u64 {
        match self {
            DiskOp::Read { sectors, .. } => sectors as u64 * 512,
            DiskOp::Write { bytes, .. } => bytes as u64,
            DiskOp::Flush => 512,
        }
    }
}

/// One Read/Write/Flush on its way through the host's pipeline:
///
/// ```text
/// admit ──► shape ──► schedule ──► serve ──► respond
///  CPU      token     per-tier     disk      complete_* on the
///  write    bucket    WFQ gate     model     connection, flush
///  verdict  (QoS volumes only)     timer     wire, arm CQ timer
/// ```
#[derive(Debug)]
struct DiskJob {
    sock: SockId,
    itt: u32,
    op: DiskOp,
    /// Arrival instant (latency accounting starts here).
    arrived: SimTime,
    /// Earliest allowed start: arrival plus token-bucket shaping delay.
    earliest: SimTime,
    /// Fault-injected extra completion delay.
    extra: SimDuration,
    /// Target CPU already charged for this job (trace attribution).
    cpu: SimDuration,
    /// `(tenant, volume)` when the volume is registered for QoS: the job
    /// then passes the shape and schedule stages and is served by its
    /// tier's disk; otherwise it goes straight to the shared disk.
    qos: Option<(u32, Rc<str>)>,
}

/// How the host answers a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    /// Failed at admission: no disk access happened, so a read carries
    /// no buffer.
    Rejected,
    /// The disk served it; the volume's own result is the status.
    Served,
    /// Served, but the response path was told to fail it.
    Failed,
}

/// What a timer token stands for.
#[derive(Debug)]
enum Timer {
    /// Interrupt moderation: flush the session's held completions.
    CqFlush(SockId),
    /// A shaping delay elapsed: the job becomes scheduler-eligible. The
    /// shaper runs *before* the scheduler: a throttled job must not hold
    /// the dispatch gate or a WFQ tag while its token debt drains, or it
    /// head-of-line blocks every other tenant for its whole delay.
    Admit(DiskJob),
    /// The disk finished `job`; `slot` is the tier dispatch slot it held.
    Done {
        job: DiskJob,
        slot: Option<DiskTier>,
    },
}

fn tier_idx(tier: DiskTier) -> usize {
    match tier {
        DiskTier::Fast => 0,
        DiskTier::Slow => 1,
    }
}

fn status(ok: bool) -> ScsiStatus {
    if ok {
        ScsiStatus::Good
    } else {
        ScsiStatus::CheckCondition
    }
}

/// Per-host QoS enforcement: tenant rate limiters, one WFQ dispatch gate
/// per disk tier, tiered disk models and the volume → tier map.
struct QosState {
    limiters: BTreeMap<u32, RateLimiter>,
    wfq: [WeightedFairQueue<DiskJob>; 2],
    /// One job in service per tier; the next is popped at completion —
    /// the "dispatch queue" the WFQ actually orders.
    busy: [bool; 2],
    /// Tier disks indexed by [`tier_idx`]: fast then slow.
    disks: [DiskModel; 2],
    tier_of: BTreeMap<String, DiskTier>,
    tenant_of: BTreeMap<String, u32>,
    /// In-flight copy-then-cutover migrations: the tier flip commits
    /// lazily once the copy's cutover instant has passed.
    pending_cutover: BTreeMap<String, (DiskTier, SimTime)>,
    /// Per-volume service latency (arrival → completion) histograms.
    latency: BTreeMap<Rc<str>, Histogram>,
    /// Committed tier migrations.
    migrations_done: u64,
}

impl QosState {
    /// Current tier of `iqn`, committing any cutover whose instant has
    /// passed. Unregistered volumes default to the slow tier.
    fn tier_of(&mut self, iqn: &str, now: SimTime) -> DiskTier {
        if let Some(&(to, at)) = self.pending_cutover.get(iqn) {
            if at <= now {
                self.pending_cutover.remove(iqn);
                self.tier_of.insert(iqn.to_string(), to);
                self.migrations_done += 1;
            }
        }
        self.tier_of.get(iqn).copied().unwrap_or(DiskTier::Slow)
    }
}

/// The target application; add one per storage host with
/// [`storm_net::Network::add_app`] and register volumes via
/// [`TargetHostApp::register_volume`].
pub struct TargetHostApp {
    cfg: TargetHostConfig,
    volumes: HashMap<String, SharedVolume>,
    sessions: HashMap<SockId, Session>,
    /// The shared disk every volume not registered for QoS is served by.
    disk: DiskModel,
    qos: Option<QosState>,
    /// Every armed timer, by token.
    timers: HashMap<u64, Timer>,
    /// Submission-batch dispatch stats: `(ticks, commands, max batch)` —
    /// one tick per `handle_events` call that admitted commands.
    dispatch: (u64, u64, usize),
    next_token: u64,
    /// Completed (initiator IQN, 4-tuple) pairs for attribution queries.
    logins: Vec<(Iqn, FourTuple)>,
    fault: FaultHook,
    fault_host: u32,
    trace: TraceHook,
    trace_host: u32,
}

impl TargetHostApp {
    /// Creates the app.
    pub fn new(cfg: TargetHostConfig) -> Self {
        let disk = DiskModel::new(cfg.disk);
        TargetHostApp {
            cfg,
            volumes: HashMap::new(),
            sessions: HashMap::new(),
            disk,
            qos: None,
            timers: HashMap::new(),
            dispatch: (0, 0, 0),
            next_token: 1,
            logins: Vec::new(),
            fault: FaultHook::none(),
            fault_host: 0,
            trace: TraceHook::none(),
            trace_host: 0,
        }
    }

    /// Arms this target's fault hook; `host` identifies this storage host
    /// in [`FaultSite::DiskServe`] / [`FaultSite::TargetRespond`] sites.
    pub fn set_fault_hook(&mut self, hook: FaultHook, host: u32) {
        self.fault = hook;
        self.fault_host = host;
    }

    /// Arms this target's trace hook; `host` identifies this storage host
    /// in [`Hop::TargetCpu`] / [`Hop::Disk`] stage events.
    pub fn set_trace_hook(&mut self, hook: TraceHook, host: u32) {
        self.trace = hook;
        self.trace_host = host;
    }

    /// Emits the target-side stages of a job going into service: shaping
    /// plus WFQ wait (its own cost center, only when there was any),
    /// request parsing/copy CPU and the disk model's service time.
    fn trace_serve(&self, now: SimTime, job: &DiskJob, wait: SimDuration, disk: SimDuration) {
        if !self.trace.is_armed() {
            return;
        }
        // The request token is the connection's remote (initiator-side)
        // source port plus the wire ITT — the same token the guest
        // minted, because splicing preserves source ports.
        let Some(tuple) = self.sessions.get(&job.sock).and_then(|s| s.tuple) else {
            return;
        };
        let req = req_token(tuple.dst.port, job.itt);
        for (hop, dur) in [
            (Hop::Qos, wait),
            (Hop::TargetCpu, job.cpu),
            (Hop::Disk, disk),
        ] {
            if hop != Hop::Qos || dur > SimDuration::ZERO {
                let id = self.trace_host;
                self.trace
                    .emit(now, TraceEvent::Stage { req, hop, id, dur });
            }
        }
    }

    /// Exports `volume` under `iqn`.
    pub fn register_volume(&mut self, iqn: Iqn, volume: SharedVolume) {
        self.volumes.insert(iqn.to_string(), volume);
    }

    /// Stops exporting `iqn`; established sessions keep their handle.
    pub fn unregister_volume(&mut self, iqn: &Iqn) {
        self.volumes.remove(iqn.as_str());
    }

    /// Login records observed so far: `(initiator IQN, on-wire tuple)` —
    /// the target half of connection attribution.
    pub fn logins(&self) -> &[(Iqn, FourTuple)] {
        &self.logins
    }

    /// The disk model (for utilization queries after a run).
    pub fn disk(&self) -> &DiskModel {
        &self.disk
    }

    /// Turns on QoS enforcement with the given tier disks. Jobs of
    /// volumes then registered via [`Self::register_qos_volume`] pass two
    /// more pipeline stages — their tenant's token bucket and a per-tier
    /// WFQ dispatch gate — and are served by their tier's disk;
    /// unregistered volumes skip both and stay on the shared disk.
    pub fn enable_qos(&mut self, fast: DiskSpec, slow: DiskSpec) {
        self.qos = Some(QosState {
            limiters: BTreeMap::new(),
            wfq: [WeightedFairQueue::new(), WeightedFairQueue::new()],
            busy: [false; 2],
            disks: [DiskModel::new(fast), DiskModel::new(slow)],
            tier_of: BTreeMap::new(),
            tenant_of: BTreeMap::new(),
            pending_cutover: BTreeMap::new(),
            latency: BTreeMap::new(),
            migrations_done: 0,
        });
    }

    /// Whether QoS enforcement is enabled.
    pub fn qos_enabled(&self) -> bool {
        self.qos.is_some()
    }

    /// Sets `tenant`'s rate limits (requires [`Self::enable_qos`] first).
    pub fn set_tenant_limit(&mut self, tenant: u32, spec: RateLimitSpec) {
        if let Some(qos) = &mut self.qos {
            qos.limiters.insert(tenant, RateLimiter::new(spec));
        }
    }

    /// Sets `tenant`'s WFQ weight on both tier queues.
    pub fn set_tenant_weight(&mut self, tenant: u32, weight: u64) {
        if let Some(qos) = &mut self.qos {
            for q in &mut qos.wfq {
                q.set_weight(tenant, weight);
            }
        }
    }

    /// Places `iqn` under QoS scheduling for `tenant` on `tier`.
    pub fn register_qos_volume(&mut self, iqn: &Iqn, tenant: u32, tier: DiskTier) {
        if let Some(qos) = &mut self.qos {
            qos.tier_of.insert(iqn.to_string(), tier);
            qos.tenant_of.insert(iqn.to_string(), tenant);
        }
    }

    /// Starts a copy-then-cutover migration of `iqn` to `to`: both tier
    /// disks are occupied streaming the volume's bytes, and the tier map
    /// flips once the copy finishes (in-flight jobs drain on the old
    /// tier). Returns the cutover instant, or `None` when QoS is off,
    /// the volume is unknown, or it is already on `to`.
    pub fn migrate_volume(&mut self, now: SimTime, iqn: &Iqn, to: DiskTier) -> Option<SimTime> {
        let bytes = self.volumes.get(iqn.as_str())?.clone().num_sectors() * 512;
        let qos = self.qos.as_mut()?;
        let from = qos.tier_of(iqn.as_str(), now);
        if from == to || qos.pending_cutover.contains_key(iqn.as_str()) {
            return None;
        }
        let src_work = qos.disks[tier_idx(from)].bulk_copy_time(bytes);
        let dst_work = qos.disks[tier_idx(to)].bulk_copy_time(bytes);
        let src_done = qos.disks[tier_idx(from)].busy_for(now, src_work);
        let dst_done = qos.disks[tier_idx(to)].busy_for(now, dst_work);
        let cutover = src_done.max(dst_done);
        qos.pending_cutover.insert(iqn.to_string(), (to, cutover));
        self.trace.emit_with(now, || TraceEvent::Meta {
            hop: Hop::Qos,
            id: self.trace_host,
            name: format!("migrate:{}:{}->{}", iqn, from.label(), to.label()),
        });
        Some(cutover)
    }

    /// Committed tier migrations so far.
    pub fn completed_migrations(&self) -> u64 {
        self.qos.as_ref().map_or(0, |q| q.migrations_done)
    }

    /// Forces any due cutover for `iqn` to commit at `now` (the control
    /// loop calls this so migration counts are visible without waiting
    /// for the volume's next I/O).
    pub fn poll_migration(&mut self, now: SimTime, iqn: &Iqn) -> DiskTier {
        match &mut self.qos {
            Some(qos) => qos.tier_of(iqn.as_str(), now),
            None => DiskTier::Slow,
        }
    }

    /// Per-volume service-latency histogram (arrival to completion at
    /// this target, including shaping and WFQ queueing).
    pub fn volume_latency(&self, iqn: &Iqn) -> Option<&Histogram> {
        self.qos.as_ref()?.latency.get(iqn.as_str())
    }

    /// `(throttled ops, total shaping delay)` summed over all tenants.
    pub fn qos_throttle_stats(&self) -> (u64, SimDuration) {
        let mut ops = 0;
        let mut total = SimDuration::ZERO;
        if let Some(qos) = &self.qos {
            for l in qos.limiters.values() {
                let (n, d) = l.throttle_stats();
                ops += n;
                total += d;
            }
        }
        (ops, total)
    }

    /// Active session count.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Submission-batch dispatch stats: `(dispatch ticks, commands
    /// admitted, largest single-tick batch)`. Commands/ticks is the
    /// realized batch size the disk model sees per drain.
    pub fn dispatch_stats(&self) -> (u64, u64, usize) {
        self.dispatch
    }

    /// Arms `timer` to fire `after` from now.
    fn arm(&mut self, cx: &mut Cx<'_>, after: SimDuration, timer: Timer) {
        let token = self.next_token;
        self.next_token += 1;
        self.timers.insert(token, timer);
        cx.set_timer(after, token);
    }

    /// Arms the interrupt-moderation timer for `sock`'s held
    /// completions, at most one timer per deadline. Stale timers no-op
    /// (a batch-full flush clears the deadline before they fire).
    fn arm_cq(&mut self, cx: &mut Cx<'_>, sock: SockId) {
        let Some(sess) = self.sessions.get_mut(&sock) else {
            return;
        };
        let deadline = sess.conn.cq_deadline_ns();
        if deadline == sess.armed_cq {
            return;
        }
        sess.armed_cq = deadline;
        if let Some(d) = deadline {
            let wait = SimDuration::from_nanos(d.saturating_sub(cx.now().as_nanos()));
            self.arm(cx, wait, Timer::CqFlush(sock));
        }
    }

    /// Admit stage, entered by every Read/Write/Flush a transport
    /// surfaces: charges target CPU, takes the [`FaultSite::DiskServe`]
    /// verdict and hands the job on. `ok` is false when the functional
    /// write already failed; such a job, like one the verdict fails, is
    /// answered on the spot and never reaches the disk.
    fn admit(&mut self, cx: &mut Cx<'_>, sock: SockId, itt: u32, op: DiskOp, ok: bool) {
        let now = cx.now();
        let cpu = match op {
            DiskOp::Flush => SimDuration::ZERO,
            _ => {
                let cpu = self.cfg.per_io_cpu + self.cfg.per_byte_cpu * op.bytes();
                let _ = cx.charge(cpu, "target");
                cpu
            }
        };
        let mut job = DiskJob {
            sock,
            itt,
            op,
            arrived: now,
            earliest: now,
            extra: SimDuration::ZERO,
            cpu,
            qos: self.qos_binding(sock),
        };
        let site = FaultSite::DiskServe {
            host: self.fault_host,
            write: !matches!(op, DiskOp::Read { .. }),
        };
        match self.fault.decide(now, site) {
            FaultAction::Proceed if ok => {}
            FaultAction::Delay(d) if ok => job.extra = d,
            // The request vanishes: an unresponsive target.
            FaultAction::Drop => return,
            _ => return self.respond(cx, &job, Answer::Rejected),
        }
        // Shape stage: a QoS volume's tenant pays from its token bucket.
        let delay = match (&mut self.qos, &job.qos) {
            (Some(qos), Some((tenant, _))) => qos
                .limiters
                .get_mut(tenant)
                .map_or(SimDuration::ZERO, |l| l.admit(now, op.bytes())),
            _ => SimDuration::ZERO,
        };
        if delay > SimDuration::ZERO {
            job.earliest = now + delay;
            self.arm(cx, delay, Timer::Admit(job));
        } else {
            self.schedule(cx, job);
        }
    }

    /// `(tenant, volume)` if `sock`'s volume is registered for QoS. With
    /// QoS off this is one `None` check: no lookup, no allocation.
    fn qos_binding(&self, sock: SockId) -> Option<(u32, Rc<str>)> {
        let qos = self.qos.as_ref()?;
        let iqn = self.sessions.get(&sock)?.iqn.as_ref()?;
        Some((*qos.tenant_of.get(&**iqn)?, Rc::clone(iqn)))
    }

    /// Schedule stage: a QoS job goes into service if its tier's dispatch
    /// gate is open and waits on the tier's WFQ otherwise; any other job
    /// goes straight to the shared disk.
    fn schedule(&mut self, cx: &mut Cx<'_>, job: DiskJob) {
        let (Some(qos), Some((tenant, iqn))) = (&mut self.qos, &job.qos) else {
            return self.serve(cx, None, job);
        };
        let tier = qos.tier_of(iqn, cx.now());
        if qos.busy[tier_idx(tier)] {
            // Fairness is byte-weighted: large ops cost more credit.
            let (tenant, cost) = (*tenant, job.op.bytes().max(512));
            qos.wfq[tier_idx(tier)].push(tenant, cost, job);
        } else {
            self.serve(cx, Some(tier), job);
        }
    }

    /// Serve stage: puts `job` on its disk — `slot`'s tier disk, whose
    /// dispatch slot it then holds until the completion timer fires, or
    /// the shared disk — and arms that timer.
    fn serve(&mut self, cx: &mut Cx<'_>, slot: Option<DiskTier>, job: DiskJob) {
        let now = cx.now();
        let start = job.earliest.max(now);
        let disk = match (&mut self.qos, slot) {
            (Some(qos), Some(tier)) => {
                qos.busy[tier_idx(tier)] = true;
                &mut qos.disks[tier_idx(tier)]
            }
            _ => &mut self.disk,
        };
        let done = match job.op {
            DiskOp::Read { lba, sectors } => disk.serve_read(start, lba, sectors as usize * 512),
            DiskOp::Write { lba, bytes } => disk.serve_write(start, lba, bytes),
            DiskOp::Flush => disk.serve_flush(start),
        } + job.extra;
        if let (Some(qos), Some((_, iqn))) = (&mut self.qos, &job.qos) {
            let latency = qos.latency.entry(Rc::clone(iqn)).or_default();
            latency.record(done - job.arrived);
        }
        self.trace_serve(now, &job, start - job.arrived, done - start);
        self.arm(cx, done - now, Timer::Done { job, slot });
    }

    /// Respond stage: answers `job` on its connection and puts the answer
    /// on the wire.
    fn respond(&mut self, cx: &mut Cx<'_>, job: &DiskJob, answer: Answer) {
        let now_ns = cx.now().as_nanos();
        let Some(sess) = self.sessions.get_mut(&job.sock) else {
            return;
        };
        let ok = answer == Answer::Served;
        let volume = sess.volume.as_mut().filter(|_| ok);
        match job.op {
            DiskOp::Read { lba, sectors } => {
                let len = match answer {
                    Answer::Rejected => 0,
                    _ => sectors as usize * 512,
                };
                let mut buf = vec![0u8; len];
                let ok = volume.is_some_and(|v| v.read(lba, &mut buf).is_ok());
                sess.conn
                    .complete_read(now_ns, job.itt, Bytes::from(buf), status(ok));
            }
            DiskOp::Write { .. } => sess.conn.complete_write(now_ns, job.itt, status(ok)),
            DiskOp::Flush => {
                let ok = volume.is_some_and(|v| v.flush().is_ok());
                sess.conn.complete_flush(now_ns, job.itt, status(ok));
            }
        }
        sess.flush_wire(cx, job.sock);
        self.arm_cq(cx, job.sock);
    }

    fn handle_events(&mut self, cx: &mut Cx<'_>, sock: SockId, events: Vec<TargetEvent>) {
        // One call = one dispatch tick: a doorbell's whole submission
        // batch is admitted to the disk model before anything completes.
        let mut admitted = 0usize;
        for ev in events {
            let (itt, op, ok) = match ev {
                TargetEvent::LoggedIn { initiator_name } => {
                    // The volume was bound when the login bytes arrived;
                    // what is left is connection attribution.
                    let Some(sess) = self.sessions.get_mut(&sock) else {
                        break;
                    };
                    sess.tuple = cx.tuple_of(sock);
                    if let Ok(iqn) = Iqn::parse(initiator_name) {
                        sess.initiator = Some(iqn.clone());
                        if let Some(t) = sess.tuple {
                            // Record in initiator -> target orientation.
                            self.logins.push((iqn, t.reversed()));
                        }
                    }
                    continue;
                }
                // Keep the session until the TCP close arrives.
                TargetEvent::LoggedOut => continue,
                TargetEvent::ProtocolError(_) => {
                    // Real targets drop offending connections, and
                    // whatever followed the offence in this batch.
                    cx.abort(sock);
                    self.sessions.remove(&sock);
                    break;
                }
                TargetEvent::ReadReady { itt, lba, sectors } => {
                    (itt, DiskOp::Read { lba, sectors }, true)
                }
                TargetEvent::WriteReady { itt, lba, data } => {
                    // Functional write happens immediately; the response
                    // waits for the disk model.
                    let volume = self.sessions.get_mut(&sock).and_then(|s| s.volume.as_mut());
                    let ok = volume.is_some_and(|v| v.write(lba, &data).is_ok());
                    let bytes = data.len();
                    (itt, DiskOp::Write { lba, bytes }, ok)
                }
                TargetEvent::FlushReady { itt } => (itt, DiskOp::Flush, true),
            };
            admitted += 1;
            self.admit(cx, sock, itt, op, ok);
        }
        if admitted > 0 {
            self.dispatch.0 += 1;
            self.dispatch.1 += admitted as u64;
            self.dispatch.2 = self.dispatch.2.max(admitted);
        }
        if let Some(sess) = self.sessions.get_mut(&sock) {
            sess.flush_wire(cx, sock);
        }
        self.arm_cq(cx, sock);
    }
}

impl App for TargetHostApp {
    fn on_start(&mut self, cx: &mut Cx<'_>) {
        cx.listen(ISCSI_PORT);
        cx.listen(NVMEQ_PORT);
    }

    fn on_accepted(&mut self, _cx: &mut Cx<'_>, _port: u16, sock: SockId) {
        // The volume is bound after login (TargetName key); per-session
        // capacity is fixed at bind time. The protocol is unknown until
        // the first bytes arrive: start with an iSCSI placeholder and
        // swap in an nvmeq connection if the first byte is the nvmeq
        // magic.
        let conn = Box::new(TargetConn::new(TargetConfig {
            target_iqn: Iqn::for_volume(0),
            params: self.cfg.params.clone(),
            num_sectors: 0,
            tsih: 1,
        }));
        self.sessions.insert(
            sock,
            Session {
                conn,
                volume: None,
                iqn: None,
                sendq: SendQueue::new(),
                initiator: None,
                tuple: None,
                armed_cq: None,
            },
        );
    }

    fn on_data(&mut self, cx: &mut Cx<'_>, sock: SockId, data: Bytes) {
        let Some(sess) = self.sessions.get_mut(&sock) else {
            return;
        };
        // Bind the volume on the first bytes if not yet bound: sniff the
        // protocol by magic byte, then peek the login/connect TargetName.
        // The state machines handle real parsing; we pre-scan for the key
        // (cheap linear scan over the handshake text).
        if sess.volume.is_none() {
            let nvmeq = data.first() == Some(&MAGIC);
            let name = if nvmeq {
                scan_connect_payload(&data, "TargetName")
            } else {
                scan_target_name(&data)
            };
            let bound = name.and_then(|n| Some((self.volumes.get(&n)?.clone(), n)));
            let num_sectors = bound.as_ref().map_or(0, |(v, _)| v.clone().num_sectors());
            let target_iqn = match &bound {
                Some((_, n)) => Iqn::parse(n.clone()).unwrap_or_else(|_| Iqn::for_volume(0)),
                // An unknown TargetName gets a deliberately unbound
                // connection, which refuses the connect itself.
                None => Iqn::for_volume(u32::MAX),
            };
            if nvmeq {
                sess.conn = Box::new(NvmeqTargetConn::new(NvmeqTargetConfig {
                    target_iqn,
                    num_sectors,
                    queue_depth: self.cfg.queue_depth,
                    cq_max_batch: self.cfg.cq_max_batch,
                    cq_window_ns: self.cfg.cq_window_ns,
                }));
            } else if bound.is_some() {
                sess.conn = Box::new(TargetConn::new(TargetConfig {
                    target_iqn,
                    params: self.cfg.params.clone(),
                    num_sectors,
                    tsih: 1,
                }));
            }
            if let Some((volume, name)) = bound {
                sess.volume = Some(volume);
                sess.iqn = Some(Rc::from(name));
            }
        }
        let events = sess.conn.feed_bytes(data);
        self.handle_events(cx, sock, events);
    }

    fn on_writable(&mut self, cx: &mut Cx<'_>, sock: SockId) {
        if let Some(sess) = self.sessions.get_mut(&sock) {
            sess.sendq.pump(cx, sock);
        }
    }

    fn on_timer(&mut self, cx: &mut Cx<'_>, token: u64) {
        match self.timers.remove(&token) {
            // Flush the session's held completions — unless a batch-full
            // flush already drained them, or the deadline moved: then
            // re-arm for the new instant.
            Some(Timer::CqFlush(sock)) => {
                let now_ns = cx.now().as_nanos();
                if let Some(sess) = self.sessions.get_mut(&sock) {
                    sess.armed_cq = None;
                    if sess.conn.cq_deadline_ns().is_some_and(|d| d <= now_ns) {
                        sess.conn.flush_cq(now_ns);
                        sess.flush_wire(cx, sock);
                    }
                }
                self.arm_cq(cx, sock);
            }
            Some(Timer::Admit(job)) => self.schedule(cx, job),
            Some(Timer::Done { job, slot }) => {
                // A finished job frees its tier's dispatch slot whatever
                // happens to the response below — the disk really is
                // done: the next WFQ job goes into service, or the gate
                // opens if the queue is dry.
                if let (Some(qos), Some(tier)) = (&mut self.qos, slot) {
                    match qos.wfq[tier_idx(tier)].pop() {
                        Some((_tenant, next)) => self.serve(cx, slot, next),
                        None => qos.busy[tier_idx(tier)] = false,
                    }
                }
                // Fault injection on the response path: a muted target
                // swallows the completion (the initiator sees an
                // unresponsive replica).
                let site = FaultSite::TargetRespond {
                    host: self.fault_host,
                };
                match self.fault.decide(cx.now(), site) {
                    FaultAction::Proceed => self.respond(cx, &job, Answer::Served),
                    FaultAction::Fail => self.respond(cx, &job, Answer::Failed),
                    FaultAction::Drop => {}
                    FaultAction::Delay(d) => self.arm(cx, d, Timer::Done { job, slot: None }),
                }
            }
            None => {}
        }
    }

    fn on_closed(&mut self, _cx: &mut Cx<'_>, sock: SockId, _reason: CloseReason) {
        self.sessions.remove(&sock);
    }
}

impl std::fmt::Debug for TargetHostApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TargetHostApp")
            .field("volumes", &self.volumes.len())
            .field("sessions", &self.sessions.len())
            .finish_non_exhaustive()
    }
}

/// Scans raw login bytes for `TargetName=...` (NUL-terminated).
fn scan_target_name(data: &[u8]) -> Option<String> {
    let needle = b"TargetName=";
    let pos = data.windows(needle.len()).position(|w| w == needle)?;
    let rest = &data[pos + needle.len()..];
    let end = rest.iter().position(|&b| b == 0).unwrap_or(rest.len());
    Some(String::from_utf8_lossy(&rest[..end]).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migrate_volume_copies_then_cuts_over() {
        use storm_block::{SharedVolume, VolumeGroup};
        let mut app = TargetHostApp::new(TargetHostConfig::default());
        let mut vg = VolumeGroup::new(64 << 20);
        let vol = vg.create_volume(16 << 20).unwrap();
        let iqn = Iqn::for_volume(vol.id().0);
        app.register_volume(iqn.clone(), SharedVolume::new(vol));
        app.enable_qos(DiskSpec::fast_tier(), DiskSpec::slow_tier());
        app.register_qos_volume(&iqn, 1, DiskTier::Slow);
        let now = SimTime::from_millis(10);
        let cutover = app
            .migrate_volume(now, &iqn, DiskTier::Fast)
            .expect("starts");
        assert!(cutover > now, "copy takes time");
        // Before the cutover instant the volume still serves from slow.
        assert_eq!(app.poll_migration(now, &iqn), DiskTier::Slow);
        assert_eq!(app.completed_migrations(), 0);
        // Re-migrating while one is in flight is refused.
        assert!(app.migrate_volume(now, &iqn, DiskTier::Fast).is_none());
        // After the cutover instant the tier flips and the count commits.
        assert_eq!(app.poll_migration(cutover, &iqn), DiskTier::Fast);
        assert_eq!(app.completed_migrations(), 1);
        // Migrating to the tier it is already on is a no-op.
        assert!(app.migrate_volume(cutover, &iqn, DiskTier::Fast).is_none());
    }

    /// Streams one prepared TCP segment at the storage host.
    struct Source {
        to: storm_net::SockAddr,
        q: SendQueue,
    }

    impl App for Source {
        fn on_start(&mut self, cx: &mut Cx<'_>) {
            cx.connect(self.to);
        }
        fn on_connected(&mut self, cx: &mut Cx<'_>, sock: SockId) {
            self.q.pump(cx, sock);
        }
    }

    /// Delivers `segment` to a storage host exporting volume 1 on `port`
    /// and returns how many sessions the host still holds afterwards.
    fn sessions_after(port: u16, segment: Vec<u8>) -> usize {
        use storm_block::VolumeGroup;
        use storm_net::{LinkSpec, Network, SockAddr};
        let mut net = Network::new(7);
        let sw = net.add_switch("sw", 4);
        let hosts: Vec<_> = (1..=2u8)
            .map(|i| {
                let h = net.add_host(format!("h{i}"), 4);
                let iface = net.add_iface(h, [10, 0, 0, i].into());
                net.link_host_switch(h, iface, sw, LinkSpec::gigabit());
                h
            })
            .collect();
        let mut app = TargetHostApp::new(TargetHostConfig::default());
        let vol = VolumeGroup::new(8 << 20).create_volume(4 << 20).unwrap();
        app.register_volume(Iqn::for_volume(1), SharedVolume::new(vol));
        let target = net.add_app(hosts[1], Box::new(app));
        let mut q = SendQueue::new();
        q.push_bytes(Bytes::from(segment));
        let to = SockAddr::new([10, 0, 0, 2].into(), port);
        net.add_app(hosts[0], Box::new(Source { to, q }));
        net.run_until(SimTime::from_millis(50));
        let app = net.app_mut(hosts[1], target).unwrap();
        app.downcast_mut::<TargetHostApp>().unwrap().session_count()
    }

    #[test]
    fn iscsi_pdu_after_protocol_error_aborts_instead_of_panicking() {
        use storm_iscsi::{Initiator, InitiatorConfig, Pdu, ScsiCommand};
        let mut cdb = [0u8; 16];
        cdb[0] = 0xEE;
        let mut segment = Pdu::ScsiCommand(ScsiCommand {
            immediate: false,
            final_pdu: true,
            read: false,
            write: false,
            lun: 0,
            itt: 7,
            edtl: 0,
            cmd_sn: 1,
            exp_stat_sn: 1,
            cdb,
            data: Bytes::new(),
        })
        .encode();
        let mut ini = Initiator::new(InitiatorConfig::example());
        ini.start_login();
        segment.extend(ini.take_wire().iter().flat_map(|c| c.to_vec()));
        assert_eq!(sessions_after(ISCSI_PORT, segment), 0);
    }

    #[test]
    fn nvmeq_frame_after_protocol_error_aborts_instead_of_panicking() {
        use storm_nvmeq::{encode_connect_payload, FrameHeader, FrameKind};
        let frame = |kind, payload: &[u8]| {
            let mut f = FrameHeader {
                kind,
                count: 0,
                payload_len: payload.len() as u32,
                queue_depth: 8,
            }
            .encode()
            .to_vec();
            f.extend_from_slice(payload);
            f
        };
        // An ack-kind frame is refused on the target side; the connect
        // behind it names a registered volume and would log in.
        let mut segment = frame(FrameKind::ConnectAck, &[]);
        let connect = encode_connect_payload("iqn.x:host", Iqn::for_volume(1).as_str());
        segment.extend(frame(FrameKind::Connect, &connect));
        assert_eq!(sessions_after(NVMEQ_PORT, segment), 0);
    }

    #[test]
    fn scan_target_name_finds_key() {
        let mut login = b"InitiatorName=iqn.2016-04.org.storm:host-a\0".to_vec();
        login.extend_from_slice(b"TargetName=iqn.2016-04.org.storm:volume-7\0");
        assert_eq!(
            scan_target_name(&login).as_deref(),
            Some("iqn.2016-04.org.storm:volume-7")
        );
        assert_eq!(scan_target_name(b"NoKeyHere\0"), None);
    }
}
