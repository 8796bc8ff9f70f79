//! The storage host application: block targets over the disk model.
//!
//! One `TargetHostApp` per storage host listens on the iSCSI portal (3260)
//! and serves every volume exported from that host over either transport.
//! A connection is bound on its first bytes: the login/connect names its
//! volume by `TargetName`, and one naming no exported volume is aborted.
//! The wire protocol is sniffed from the first byte — nvmeq frames open
//! with magic `0xB5`, iSCSI logins with opcode `0x43` — so one portal and
//! one steering rule serve both.
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
//! Every command, on either protocol, arrives as its own message and is
//! answered by its own message, sent the moment the job responds.
//! `handle_events` admits everything one delivery of bytes completed in
//! one dispatch tick (every such command reaches the disk model before
//! the first completes).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::collections::BTreeMap;
use std::hash::RandomState;
use std::rc::Rc;

use bytes::Bytes;

use storm_block::transport::{scan_text, Iqn, ScsiStatus, TargetEvent, TargetTransport};
use storm_block::{BlockDevice, SharedVolume};
use storm_iscsi::{TargetConfig, TargetConn, ISCSI_PORT};
use storm_net::{App, CloseReason, Cx, FourTuple, SockId};
use storm_nvmeq::{NvmeqTargetConfig, NvmeqTargetConn, MAGIC};
use storm_sim::trace::{req_token, Hop, TraceEvent, TraceHook};
use storm_sim::{FaultAction, FaultHook, FaultSite, Histogram, IdMap, SimDuration, SimTime};

use crate::disk::{DiskModel, DiskSpec};
use crate::qos::{DiskTier, RateLimitSpec, RateLimiter, WeightedFairQueue};

/// Configuration of a storage host's target service.
#[derive(Debug, Clone)]
pub struct TargetHostConfig {
    /// Disk performance parameters.
    pub disk: DiskSpec,
    /// Per-I/O target CPU cost (request parsing, SCSI dispatch).
    pub per_io_cpu: SimDuration,
    /// Per-byte target CPU cost (TCP + page-cache copies).
    pub per_byte_cpu: SimDuration,
}

impl Default for TargetHostConfig {
    fn default() -> Self {
        TargetHostConfig {
            disk: DiskSpec::default(),
            per_io_cpu: SimDuration::from_micros(20),
            per_byte_cpu: SimDuration::from_nanos(4),
        }
    }
}

#[derive(Debug)]
struct Session {
    conn: Box<dyn TargetTransport>,
    volume: SharedVolume,
    /// IQN the session bound to (QoS tenant/tier lookups); shared with
    /// the session's jobs, so admitting a command never copies it.
    iqn: Rc<str>,
    tuple: Option<FourTuple>,
}

impl Session {
    /// Drains the connection's queued wire bytes into the socket; what
    /// TCP does not accept stays queued for `on_writable`.
    fn flush_wire(&mut self, cx: &mut Cx<'_>, sock: SockId) {
        self.conn.wire().send(|c| cx.send_chunks(sock, c));
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
///  verdict  (QoS volumes only)     timer     wire
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

fn status(ok: bool) -> ScsiStatus {
    if ok {
        ScsiStatus::Good
    } else {
        ScsiStatus::CheckCondition
    }
}

/// Per-host QoS enforcement: tenant rate limiters, one WFQ dispatch gate
/// per disk tier, tiered disk models and the registered volumes.
struct QosState {
    limiters: BTreeMap<u32, RateLimiter>,
    wfq: [WeightedFairQueue<DiskJob>; 2],
    /// One job in service per tier; the next is popped at completion —
    /// the "dispatch queue" the WFQ actually orders.
    busy: [bool; 2],
    /// Tier disks indexed by [`DiskTier::index`]: fast then slow.
    disks: [DiskModel; 2],
    volumes: BTreeMap<Rc<str>, QosVolume>,
}

/// A volume registered for QoS.
struct QosVolume {
    tenant: u32,
    tier: DiskTier,
    /// An in-flight copy-then-cutover migration: the tier flip commits
    /// lazily once the copy's cutover instant has passed.
    cutover: Option<(DiskTier, SimTime)>,
    /// Committed tier migrations.
    migrations: u64,
    /// Service latency (arrival → completion).
    latency: Histogram,
}

impl QosVolume {
    /// The current tier, committing a cutover whose instant has passed.
    fn tier(&mut self, now: SimTime) -> DiskTier {
        if let Some((to, _)) = self.cutover.filter(|&(_, at)| at <= now) {
            self.cutover = None;
            self.tier = to;
            self.migrations += 1;
        }
        self.tier
    }
}

/// The target application; add one per storage host with
/// [`storm_net::Network::add_app`] and register volumes via
/// [`TargetHostApp::register_volume`].
pub struct TargetHostApp {
    cfg: TargetHostConfig,
    volumes: IdMap<String, SharedVolume, RandomState>,
    sessions: IdMap<SockId, Session>,
    /// The shared disk every volume not registered for QoS is served by.
    disk: DiskModel,
    qos: Option<QosState>,
    /// Every armed timer, by token.
    timers: IdMap<u64, Timer>,
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
            volumes: IdMap::default(),
            sessions: IdMap::default(),
            disk,
            qos: None,
            timers: IdMap::default(),
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
            wfq: Default::default(),
            busy: [false; 2],
            disks: [DiskModel::new(fast), DiskModel::new(slow)],
            volumes: BTreeMap::new(),
        });
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
            let vol = QosVolume {
                tenant,
                tier,
                cutover: None,
                migrations: 0,
                latency: Histogram::default(),
            };
            qos.volumes.insert(Rc::from(iqn.as_str()), vol);
        }
    }

    /// Starts a copy-then-cutover migration of `iqn` to `to`: both tier
    /// disks are occupied streaming the volume's bytes, and the tier map
    /// flips once the copy finishes (in-flight jobs drain on the old
    /// tier). Returns the cutover instant, or `None` when QoS is off,
    /// the volume is unknown or not registered for QoS, a migration of
    /// it is in flight, or it is already on `to`.
    pub fn migrate_volume(&mut self, now: SimTime, iqn: &Iqn, to: DiskTier) -> Option<SimTime> {
        let bytes = self.volumes.get(iqn.as_str())?.clone().num_sectors() * 512;
        let qos = self.qos.as_mut()?;
        let vol = qos.volumes.get_mut(iqn.as_str())?;
        let from = vol.tier(now);
        if from == to || vol.cutover.is_some() {
            return None;
        }
        let src_work = qos.disks[from.index()].bulk_copy_time(bytes);
        let dst_work = qos.disks[to.index()].bulk_copy_time(bytes);
        let src_done = qos.disks[from.index()].busy_for(now, src_work);
        let dst_done = qos.disks[to.index()].busy_for(now, dst_work);
        let cutover = src_done.max(dst_done);
        vol.cutover = Some((to, cutover));
        self.trace.emit_with(now, || TraceEvent::Meta {
            hop: Hop::Qos,
            id: self.trace_host,
            name: format!("migrate:{}:{}->{}", iqn, from.label(), to.label()),
        });
        Some(cutover)
    }

    /// Committed tier migrations so far.
    pub fn completed_migrations(&self) -> u64 {
        self.qos
            .as_ref()
            .map_or(0, |q| q.volumes.values().map(|v| v.migrations).sum())
    }

    /// Forces any due cutover for `iqn` to commit at `now` (the control
    /// loop calls this so migration counts are visible without waiting
    /// for the volume's next I/O) and returns the volume's tier, `None`
    /// when it is not registered for QoS.
    pub fn poll_migration(&mut self, now: SimTime, iqn: &Iqn) -> Option<DiskTier> {
        Some(self.qos.as_mut()?.volumes.get_mut(iqn.as_str())?.tier(now))
    }

    /// Per-volume service-latency histogram (arrival to completion at
    /// this target, including shaping and WFQ queueing); `None` until
    /// the volume served a job under QoS.
    pub fn volume_latency(&self, iqn: &Iqn) -> Option<&Histogram> {
        let vol = self.qos.as_ref()?.volumes.get(iqn.as_str())?;
        Some(&vol.latency).filter(|h| h.count() > 0)
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
                .map_or(SimDuration::ZERO, |l| l.admit(now)),
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
        let iqn = &self.sessions.get(&sock)?.iqn;
        Some((qos.volumes.get(&**iqn)?.tenant, Rc::clone(iqn)))
    }

    /// Schedule stage: a QoS job goes into service if its tier's dispatch
    /// gate is open and waits on the tier's WFQ otherwise; any other job
    /// goes straight to the shared disk.
    fn schedule(&mut self, cx: &mut Cx<'_>, job: DiskJob) {
        let (Some(qos), Some((tenant, iqn))) = (&mut self.qos, &job.qos) else {
            return self.serve(cx, None, job);
        };
        let now = cx.now();
        let tier = qos
            .volumes
            .get_mut(iqn)
            .map_or(DiskTier::Slow, |v| v.tier(now));
        if qos.busy[tier.index()] {
            // Fairness is byte-weighted: large ops cost more credit.
            let (tenant, cost) = (*tenant, job.op.bytes().max(512));
            qos.wfq[tier.index()].push(tenant, cost, job);
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
                qos.busy[tier.index()] = true;
                &mut qos.disks[tier.index()]
            }
            _ => &mut self.disk,
        };
        let done = match job.op {
            DiskOp::Read { lba, sectors } => disk.serve_read(start, lba, sectors as usize * 512),
            DiskOp::Write { lba, bytes } => disk.serve_write(start, lba, bytes),
            DiskOp::Flush => disk.serve_flush(start),
        } + job.extra;
        if let (Some(qos), Some((_, iqn))) = (&mut self.qos, &job.qos) {
            if let Some(vol) = qos.volumes.get_mut(iqn) {
                vol.latency.record(done - job.arrived);
            }
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
        let volume = Some(&mut sess.volume).filter(|_| ok);
        match job.op {
            DiskOp::Read { lba, sectors } => {
                let len = match answer {
                    Answer::Rejected => 0,
                    _ => sectors as usize * 512,
                };
                // A served read answers with the volume's own views; a
                // failed one with zeros of the length it asked for.
                let data = volume.and_then(|v| v.read_bytes(lba, len).ok());
                let ok = data.is_some();
                let data = data.unwrap_or_else(|| Bytes::from(vec![0u8; len]));
                sess.conn.complete_read(now_ns, job.itt, data, status(ok));
            }
            DiskOp::Write { .. } => sess.conn.complete_write(now_ns, job.itt, status(ok)),
            DiskOp::Flush => {
                let ok = volume.is_some_and(|v| v.flush().is_ok());
                sess.conn.complete_flush(now_ns, job.itt, status(ok));
            }
        }
        sess.flush_wire(cx, job.sock);
    }

    fn handle_events(&mut self, cx: &mut Cx<'_>, sock: SockId, events: Vec<TargetEvent>) {
        // One call = one dispatch tick: every command the delivered bytes
        // completed is admitted to the disk model before any completes.
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
                    if let (Ok(iqn), Some(t)) = (Iqn::parse(initiator_name), sess.tuple) {
                        // Record in initiator -> target orientation.
                        self.logins.push((iqn, t.reversed()));
                    }
                    continue;
                }
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
                    let sess = self.sessions.get_mut(&sock);
                    let bytes = data.len();
                    let ok = sess.is_some_and(|s| s.volume.write_bytes(lba, data).is_ok());
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
    }
}

impl App for TargetHostApp {
    fn on_start(&mut self, cx: &mut Cx<'_>) {
        cx.listen(ISCSI_PORT);
    }

    fn on_data(&mut self, cx: &mut Cx<'_>, sock: SockId, data: Bytes) {
        if !self.sessions.contains_key(&sock) {
            // Bind on the first bytes: peek the login/connect TargetName
            // (both protocols carry the same handshake text) and sniff the
            // protocol by magic byte; the connection's state machine does
            // the real parsing. A name no volume here is exported under,
            // or none at all, ends the connection.
            let bound = scan_text(&data, "TargetName")
                .and_then(|n| Some((self.volumes.get(&n)?.clone(), Iqn::parse(n).ok()?)));
            let Some((volume, target_iqn)) = bound else {
                return cx.abort(sock);
            };
            let num_sectors = volume.clone().num_sectors();
            let iqn = Rc::from(target_iqn.as_str());
            let conn: Box<dyn TargetTransport> = match data.first() {
                Some(&MAGIC) => Box::new(NvmeqTargetConn::new(NvmeqTargetConfig {
                    target_iqn,
                    num_sectors,
                })),
                _ => Box::new(TargetConn::new(TargetConfig {
                    target_iqn,
                    num_sectors,
                })),
            };
            let sess = Session {
                conn,
                volume,
                iqn,
                tuple: None,
            };
            self.sessions.insert(sock, sess);
        }
        let Some(sess) = self.sessions.get_mut(&sock) else {
            return;
        };
        let events = sess.conn.feed_bytes(data);
        self.handle_events(cx, sock, events);
    }

    fn on_writable(&mut self, cx: &mut Cx<'_>, sock: SockId) {
        if let Some(sess) = self.sessions.get_mut(&sock) {
            sess.flush_wire(cx, sock);
        }
    }

    fn on_timer(&mut self, cx: &mut Cx<'_>, token: u64) {
        match self.timers.remove(&token) {
            Some(Timer::Admit(job)) => self.schedule(cx, job),
            Some(Timer::Done { job, slot }) => {
                // A finished job frees its tier's dispatch slot whatever
                // happens to the response below — the disk really is
                // done: the next WFQ job goes into service, or the gate
                // opens if the queue is dry.
                if let (Some(qos), Some(tier)) = (&mut self.qos, slot) {
                    match qos.wfq[tier.index()].pop() {
                        Some((_tenant, next)) => self.serve(cx, slot, next),
                        None => qos.busy[tier.index()] = false,
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

#[cfg(test)]
mod tests {
    use super::*;
    use storm_block::transport::WireBuf;

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
        assert_eq!(app.poll_migration(now, &iqn), Some(DiskTier::Slow));
        assert_eq!(app.completed_migrations(), 0);
        // Re-migrating while one is in flight is refused.
        assert!(app.migrate_volume(now, &iqn, DiskTier::Fast).is_none());
        // After the cutover instant the tier flips and the count commits.
        assert_eq!(app.poll_migration(cutover, &iqn), Some(DiskTier::Fast));
        assert_eq!(app.completed_migrations(), 1);
        // Migrating to the tier it is already on is a no-op.
        assert!(app.migrate_volume(cutover, &iqn, DiskTier::Fast).is_none());
        // A volume not registered for QoS has no tier to leave.
        let other = vg.create_volume(16 << 20).unwrap();
        let other_iqn = Iqn::for_volume(other.id().0);
        app.register_volume(other_iqn.clone(), SharedVolume::new(other));
        assert!(app
            .migrate_volume(cutover, &other_iqn, DiskTier::Fast)
            .is_none());
        assert_eq!(app.poll_migration(cutover, &other_iqn), None);
    }

    /// Streams one prepared TCP segment at the storage host.
    struct Source {
        to: storm_net::SockAddr,
        q: WireBuf,
    }

    impl App for Source {
        fn on_start(&mut self, cx: &mut Cx<'_>) {
            cx.connect(self.to);
        }
        fn on_connected(&mut self, cx: &mut Cx<'_>, sock: SockId) {
            self.q.send(|c| cx.send_chunks(sock, c));
        }
    }

    /// Delivers `segment` to a storage host exporting volume 1 and returns
    /// how many sessions the host still holds afterwards.
    fn sessions_after(segment: Vec<u8>) -> usize {
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
        let mut q = WireBuf::new();
        q.push_bytes(Bytes::from(segment));
        let to = SockAddr::new([10, 0, 0, 2].into(), ISCSI_PORT);
        net.add_app(hosts[0], Box::new(Source { to, q }));
        net.run_until(SimTime::from_millis(50));
        let app = net.app_mut(hosts[1], target).unwrap();
        app.downcast_mut::<TargetHostApp>().unwrap().session_count()
    }

    /// The handshake both protocols send, pinned to the bytes: a login's
    /// size on the wire sets when each session's first command can go.
    #[test]
    fn handshake_bytes_are_pinned() {
        use storm_block::transport::{Transport, TransportEvent};
        use storm_iscsi::{Initiator, InitiatorConfig, PduStream};
        use storm_nvmeq::{NvmeqConfig, NvmeqInitiator, FRAME_HDR_LEN};
        let data_segment = |wire: Bytes| {
            let pdus = PduStream::new().feed_bytes(wire).unwrap();
            assert_eq!(pdus.len(), 1);
            pdus[0].pdu.data().clone()
        };
        let mut ini = Initiator::new(InitiatorConfig::example());
        let mut tgt = TargetConn::new(TargetConfig::example(2048));
        ini.start_login();
        let request: Bytes = ini.take_wire().concat().into();
        let _ = tgt.feed_bytes(request.clone());
        let response: Bytes = tgt.take_wire().concat().into();
        assert_eq!(
            &data_segment(request)[..],
            b"FirstBurstLength=65536\0ImmediateData=Yes\0InitialR2T=No\0\
              InitiatorName=iqn.2016-04.org.storm:host-example\0MaxBurstLength=262144\0\
              MaxRecvDataSegmentLength=8192\0SessionType=Normal\0\
              TargetName=iqn.2016-04.org.storm:volume-1\0"
        );
        assert_eq!(
            &data_segment(response)[..],
            b"FirstBurstLength=65536\0ImmediateData=Yes\0InitialR2T=No\0\
              MaxBurstLength=262144\0MaxRecvDataSegmentLength=8192\0TargetPortalGroupTag=1\0"
        );

        let mut host = NvmeqInitiator::new(NvmeqConfig::example(32));
        let mut conn = NvmeqTargetConn::new(NvmeqTargetConfig::example(2048));
        host.start();
        let connect: Bytes = host.take_wire().concat().into();
        let _ = conn.feed_bytes(connect.clone());
        let ack: Bytes = conn.take_wire().concat().into();
        assert_eq!(
            (connect.len(), ack.len()),
            (FRAME_HDR_LEN + 91, FRAME_HDR_LEN + 16)
        );
        assert!(host.feed_bytes(ack).contains(&TransportEvent::Ready));
    }

    #[test]
    fn iscsi_pdu_after_protocol_error_aborts_instead_of_panicking() {
        use storm_iscsi::{Initiator, InitiatorConfig, Pdu, ScsiCommand};
        let command = |cdb, edtl| {
            Pdu::ScsiCommand(ScsiCommand {
                immediate: false,
                final_pdu: true,
                read: edtl > 0,
                write: false,
                lun: 0,
                itt: 7,
                edtl,
                cmd_sn: 1,
                exp_stat_sn: 1,
                cdb,
                data: Bytes::new(),
            })
            .encode()
        };
        let opcode = |op| {
            let mut cdb = [0u8; 16];
            cdb[0] = op;
            command(cdb, 0)
        };
        // READ(10) of eight sectors at LBA 0: a valid command, refused
        // because no login precedes it, alone or ahead of one.
        let mut read10 = [0u8; 16];
        (read10[0], read10[8]) = (0x28, 8);
        let read = command(read10, 4096);
        assert_eq!(sessions_after(read.clone()), 0, "read, no login");
        let header = |op| {
            let mut bhs = vec![0u8; 48];
            (bhs[0], bhs[1], bhs[19]) = (op, 0x80, 7);
            bhs
        };
        // An unknown CDB, the CDBs that move no block data (TEST UNIT
        // READY, INQUIRY, READ CAPACITY) and the session-control opcodes
        // (NOP-Out, Text, Logout) are each refused, and so is the read;
        // the login behind them names a registered volume and would
        // succeed.
        let leads = [0xEE, 0x00, 0x12, 0x25].map(opcode);
        let leads = leads.into_iter().chain([0x00, 0x04, 0x06].map(header));
        for lead in leads.chain([read]) {
            let mut ini = Initiator::new(InitiatorConfig::example());
            ini.start_login();
            let mut segment = lead.clone();
            segment.extend(ini.take_wire().iter().flat_map(|c| c.to_vec()));
            assert_eq!(sessions_after(segment), 0, "{:#04x}", lead[0]);
        }
    }

    #[test]
    fn nvmeq_frame_after_protocol_error_aborts_instead_of_panicking() {
        use storm_block::transport::encode_text;
        use storm_nvmeq::{FrameHeader, FrameKind};
        let frame = |kind, payload: &[u8]| {
            let mut f = FrameHeader {
                kind,
                count: 0,
                payload_len: payload.len() as u32,
            }
            .encode()
            .to_vec();
            f.extend_from_slice(payload);
            f
        };
        // An ack-kind frame and frame types 5 and 6 (no kind) are refused
        // on the target side; the connect behind each names a registered
        // volume and would log in.
        let volume = Iqn::for_volume(1);
        let connect = encode_text(&[
            ("InitiatorName", "iqn.x:host"),
            ("TargetName", volume.as_str()),
        ]);
        for kind in [2, 5, 6] {
            let mut segment = frame(FrameKind::ConnectAck, &[]);
            segment[1] = kind;
            segment.extend(frame(FrameKind::Connect, &connect));
            assert_eq!(sessions_after(segment), 0, "frame type {kind}");
        }
    }

    /// A login or connect naming a volume the host does not export ends
    /// the connection, on either protocol; naming the exported one keeps
    /// a session.
    #[test]
    fn a_handshake_naming_an_unexported_volume_is_refused() {
        use storm_block::transport::Transport;
        use storm_iscsi::{Initiator, InitiatorConfig};
        use storm_nvmeq::{NvmeqConfig, NvmeqInitiator};
        for (volume, sessions) in [(1, 1), (2, 0)] {
            let (mut iscsi, mut nvmeq) = (InitiatorConfig::example(), NvmeqConfig::example(8));
            (iscsi.target_iqn, nvmeq.target_iqn) =
                (Iqn::for_volume(volume), Iqn::for_volume(volume));
            let iscsi: Box<dyn Transport> = Box::new(Initiator::new(iscsi));
            for mut ini in [iscsi, Box::new(NvmeqInitiator::new(nvmeq))] {
                ini.start();
                let out = ini.wire();
                let handshake = out.take_wire(out.len()).unwrap().concat();
                assert_eq!(sessions_after(handshake), sessions, "{:?}", ini.kind());
            }
        }
    }
}
