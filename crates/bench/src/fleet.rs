//! The fleet-scale simulation model behind the `fleet.*` bench family.
//!
//! Where every other bench in this crate drives the full cloud stack
//! (iSCSI, TCP, middle-boxes) for ~1 initiator, the fleet model asks the
//! opposite question: how fast is the *simulator itself* when one run
//! holds thousands of tenants and millions of events? It is a
//! purpose-built closed-loop storage fleet:
//!
//! * the topology is `racks` racks, each with one disk (a
//!   [`SerialResource`]) and `tenants / racks` resident tenants;
//! * each tenant loops: think, issue a request, await completion, repeat
//!   for `requests_per_tenant` rounds. A request hits the home rack's
//!   disk or — with probability `remote_permille / 1000` — a remote
//!   rack's disk, crossing an inter-rack link
//!   ([`LinkSpec::inter_rack`]) each way;
//! * every rack's events share one [`EventQueue`], run in
//!   conservative-lookahead rounds whose lookahead is the inter-rack link
//!   latency ([`LinkSpec::lookahead`]).
//!
//! # Rounds
//!
//! Each round runs every queued event strictly before `horizon +
//! lookahead`, where the horizon is the earliest pending event or
//! in-flight message arrival. Cross-rack messages emitted in the round
//! are buffered, not pushed: at the round boundary they are sorted by
//! `(arrival, key, emission index)` — the key is `(source rack,
//! per-rack counter)` — and only then pushed into the queue, where they
//! become events at their arrival instant. Strict `<` matters: an event
//! exactly at the horizon may emit a message arriving exactly at
//! `horizon + lookahead`, which must be queued before that instant runs.
//!
//! The rounds are not an optimisation. Pushing each message straight
//! into the queue is also causal, but it resolves same-instant ties in
//! push order instead of injection order, which moves the digest.
//!
//! # Determinism contract
//!
//! Equal seeds produce byte-identical traces: all tenant randomness comes
//! from per-tenant [`SimRng`]s forked from the master seed in tenant-id
//! order, and same-instant ties resolve by the queue's FIFO order, which
//! the sorted injection above makes a function of simulation state alone.
//!
//! Each rack keeps its own trace (and a running FNV-1a digest of it);
//! [`FleetRun::merged_trace`] concatenates them in rack-id order.

use storm_net::LinkSpec;
use storm_sim::{EventQueue, Histogram, SerialResource, SimDuration, SimRng, SimTime};

/// Parameters of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of racks (fixed topology).
    pub racks: usize,
    /// Ignored: every rack runs on one event queue. The field stays only
    /// because the frozen `benchmark/src/fleet.rs` builds this struct
    /// field by field; ROADMAP queues its removal for the next
    /// `benchmark` PR.
    pub shards: usize,
    /// Ignored, like `shards`: the model is single-threaded.
    pub threads: usize,
    /// Total tenants, spread round-robin across racks.
    pub tenants: usize,
    /// Closed-loop requests each tenant issues.
    pub requests_per_tenant: u64,
    /// Master seed.
    pub seed: u64,
    /// Probability (per mille) that a request targets a remote rack.
    pub remote_permille: u64,
    /// Whether racks keep full trace bytes (the digest is always kept).
    pub keep_trace: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            racks: 4,
            shards: 4,
            threads: 4,
            tenants: 1_000,
            requests_per_tenant: 250,
            seed: 20160628,
            remote_permille: 200,
            keep_trace: false,
        }
    }
}

/// Outcome of one fleet run.
#[derive(Debug)]
pub struct FleetRun {
    /// Requests completed (every tenant must finish its quota).
    pub requests: u64,
    /// Events executed (queue deliveries).
    pub events: u64,
    /// Final simulation time (latest event across racks).
    pub sim_end: SimTime,
    /// Request latency (issue to completion) across all tenants, merged
    /// in rack-id order.
    pub latency: Histogram,
    /// Per-rack FNV-1a digests of the trace stream, in rack-id order.
    pub rack_digests: Vec<u64>,
    /// Per-rack trace bytes (empty unless `keep_trace`), rack-id order.
    rack_traces: Vec<Vec<u8>>,
}

impl FleetRun {
    /// One digest over the per-rack digests, in rack-id order — the
    /// equal-seed byte-identity fingerprint.
    pub fn digest(&self) -> u64 {
        let mut d = Fnv::new();
        for &rd in &self.rack_digests {
            d.write_u64(rd);
        }
        d.finish()
    }

    /// The per-rack traces concatenated in rack-id order (empty unless
    /// the run kept traces).
    pub fn merged_trace(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.rack_traces.iter().map(Vec::len).sum());
        for t in &self.rack_traces {
            out.extend_from_slice(t);
        }
        out
    }
}

/// Streaming FNV-1a (the same hash the telemetry tokens use).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A tenant's closed-loop state (lives on its home rack).
struct Tenant {
    rng: SimRng,
    remaining: u64,
    issued_at: SimTime,
}

/// One rack: a disk, its resident tenants, and a trace.
struct Rack {
    id: usize,
    disk: SerialResource,
    /// Tenants homed here, in id order: tenant `t` is `tenants[t / racks]`.
    tenants: Vec<Tenant>,
    trace: Vec<u8>,
    digest: Fnv,
    lat: Histogram,
    keep_trace: bool,
    /// Outgoing-message counter feeding the injection-order key.
    msg_seq: u64,
    requests_done: u64,
}

impl Rack {
    /// Records one trace event and folds it into the digest.
    fn record(&mut self, at: SimTime, tenant: u32, op: u8) {
        let mut buf = [0u8; RECORD];
        buf[..8].copy_from_slice(&at.as_nanos().to_le_bytes());
        buf[8..12].copy_from_slice(&tenant.to_le_bytes());
        buf[12] = op;
        self.digest.write(&buf);
        if self.keep_trace {
            self.trace.extend_from_slice(&buf);
        }
    }

    /// Tenant `tenant`'s state, given the fleet's rack count (tenants are
    /// homed round-robin).
    fn tenant_mut(&mut self, tenant: u32, racks: usize) -> &mut Tenant {
        &mut self.tenants[tenant as usize / racks]
    }

    /// The next injection-order key for a message this rack sends.
    fn next_key(&mut self) -> u64 {
        let key = ((self.id as u64) << 40) | self.msg_seq;
        self.msg_seq += 1;
        key
    }
}

/// Trace record: `(time ns u64, tenant u32, opcode u8)`, little-endian.
const RECORD: usize = 13;
/// Trace opcodes.
const OP_ISSUE: u8 = b'I';
const OP_DONE: u8 = b'D';

/// Queued events, each tagged with the rack it runs on.
enum Ev {
    /// Tenant wakes up and issues its next request.
    Issue { tenant: u32 },
    /// The rack's disk finished a request for a resident tenant.
    LocalDone { tenant: u32 },
    /// A remote tenant's request arrives at this (target) rack. The
    /// service time was drawn by the tenant, so racks need no RNG.
    RemoteArrive { tenant: u32, svc_ns: u32, home: u32 },
    /// This (target) rack's disk finished a remote tenant's request.
    RemoteServed { tenant: u32, home: u32 },
    /// The reply reached the tenant's home rack: the request is done.
    RemoteDone { tenant: u32 },
}

/// A cross-rack message buffered until the round boundary:
/// `(arrival, injection key, destination rack, event)`.
type InFlight = (SimTime, u64, u16, Ev);

/// Every rack, on one queue.
struct Fleet {
    racks: Vec<Rack>,
    q: EventQueue<(u16, Ev)>,
    /// Messages emitted by the current round, in emission order.
    in_flight: Vec<InFlight>,
    remote_permille: u64,
    link: SimDuration,
    events: u64,
    last_event: SimTime,
}

impl Fleet {
    /// Runs lookahead rounds until no event or message is left.
    fn run(&mut self) {
        // Round zero runs nothing (`bound` 0) and reads the first horizon.
        let mut bound = SimTime::ZERO;
        loop {
            // Stable sort: equal `(arrival, key)` keep emission order.
            self.in_flight.sort_by_key(|&(at, key, _, _)| (at, key));
            for (at, _, rack, ev) in self.in_flight.drain(..) {
                self.q.push(at, (rack, ev));
            }
            while let Some((now, (rack, ev))) = self.q.pop_if(|t| t < bound) {
                self.events += 1;
                self.last_event = now;
                self.dispatch(now, rack, ev);
            }
            debug_assert!(
                self.in_flight.iter().all(|m| m.0 >= bound),
                "cross-rack message undercuts the lookahead bound"
            );
            // The horizon counts in-flight arrivals too: a message can
            // precede every queued event, and what it triggers may send
            // again as early as `arrival + lookahead`.
            let inflight_next = self.in_flight.iter().map(|m| m.0).min();
            let next = [self.q.peek_time(), inflight_next]
                .into_iter()
                .flatten()
                .min();
            let Some(horizon) = next else { return };
            bound = horizon + self.link;
        }
    }

    fn dispatch(&mut self, now: SimTime, rack: u16, ev: Ev) {
        match ev {
            Ev::Issue { tenant } => self.issue(now, rack, tenant),
            Ev::LocalDone { tenant } | Ev::RemoteDone { tenant } => {
                self.complete(now, rack, tenant)
            }
            Ev::RemoteArrive {
                tenant,
                svc_ns,
                home,
            } => {
                let svc = SimDuration::from_nanos(svc_ns as u64);
                let done = self.racks[rack as usize].disk.serve(now, svc);
                self.q.push(done, (rack, Ev::RemoteServed { tenant, home }));
            }
            Ev::RemoteServed { tenant, home } => {
                self.send(rack, home as u16, now, Ev::RemoteDone { tenant });
            }
        }
    }

    /// Buffers `ev` for rack `to`, one link latency after `now`.
    fn send(&mut self, from: u16, to: u16, now: SimTime, ev: Ev) {
        let key = self.racks[from as usize].next_key();
        self.in_flight.push((now + self.link, key, to, ev));
    }

    /// Tenant `tenant` on rack `home` issues its next request at `now`.
    fn issue(&mut self, now: SimTime, home: u16, tenant: u32) {
        let racks = self.racks.len();
        let remote_p = self.remote_permille as f64 / 1000.0;
        let rack = &mut self.racks[home as usize];
        let (svc_ns, target) = {
            let t = rack.tenant_mut(tenant, racks);
            t.issued_at = now;
            // 2-10 µs of disk service.
            let svc_ns = t.rng.range(2_000, 10_000) as u32;
            let remote = t.rng.chance(remote_p);
            let target = if remote && racks > 1 {
                (home as usize + 1 + t.rng.below(racks as u64 - 1) as usize) % racks
            } else {
                home as usize
            };
            (svc_ns, target)
        };
        rack.record(now, tenant, OP_ISSUE);
        if target == home as usize {
            let done = rack.disk.serve(now, SimDuration::from_nanos(svc_ns as u64));
            self.q.push(done, (home, Ev::LocalDone { tenant }));
        } else {
            let ev = Ev::RemoteArrive {
                tenant,
                svc_ns,
                home: home as u32,
            };
            self.send(home, target as u16, now, ev);
        }
    }

    /// Tenant `tenant` finished a request at `now`: think, then go again.
    fn complete(&mut self, now: SimTime, home: u16, tenant: u32) {
        let racks = self.racks.len();
        let rack = &mut self.racks[home as usize];
        rack.record(now, tenant, OP_DONE);
        rack.requests_done += 1;
        let (remaining, think, issued_at) = {
            let t = rack.tenant_mut(tenant, racks);
            t.remaining -= 1;
            // 20-100 µs think time.
            let think = SimDuration::from_nanos(t.rng.range(20_000, 100_000));
            (t.remaining, think, t.issued_at)
        };
        rack.lat.record(now - issued_at);
        if remaining > 0 {
            self.q.push(now + think, (home, Ev::Issue { tenant }));
        }
    }
}

/// Runs the fleet model to completion.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero racks) or if any
/// tenant fails to finish its request quota (a scheduling bug, not a
/// workload outcome).
pub fn run_fleet(cfg: &FleetConfig) -> FleetRun {
    assert!(cfg.racks >= 1 && cfg.racks <= u16::MAX as usize);
    let mut fleet = Fleet {
        racks: (0..cfg.racks)
            .map(|id| Rack {
                id,
                disk: SerialResource::new(),
                tenants: Vec::new(),
                trace: Vec::new(),
                digest: Fnv::new(),
                lat: Histogram::new(),
                keep_trace: cfg.keep_trace,
                msg_seq: 0,
                requests_done: 0,
            })
            .collect(),
        q: EventQueue::new(),
        in_flight: Vec::new(),
        remote_permille: cfg.remote_permille,
        link: LinkSpec::inter_rack().lookahead(),
        events: 0,
        last_event: SimTime::ZERO,
    };
    // Home tenants round-robin; fork each rng from the master in
    // tenant-id order.
    let mut master = SimRng::seed_from_u64(cfg.seed);
    for tenant in 0..cfg.tenants {
        fleet.racks[tenant % cfg.racks].tenants.push(Tenant {
            rng: master.fork(),
            remaining: cfg.requests_per_tenant,
            issued_at: SimTime::ZERO,
        });
    }
    // A kept trace is two records per request; sizing it once keeps the
    // doubling reallocations out of the peak RSS.
    if cfg.keep_trace {
        for rack in &mut fleet.racks {
            let records = rack.tenants.len() * cfg.requests_per_tenant as usize * 2;
            rack.trace.reserve_exact(records * RECORD);
        }
    }
    // First wakeups: jittered so disks don't see a thundering herd.
    for (r, rack) in fleet.racks.iter_mut().enumerate() {
        for (i, t) in rack.tenants.iter_mut().enumerate() {
            let tenant = (i * cfg.racks + r) as u32;
            let jitter = SimTime::from_nanos(t.rng.below(100_000));
            fleet.q.push(jitter, (r as u16, Ev::Issue { tenant }));
        }
    }
    fleet.run();
    let mut latency = Histogram::new();
    for rack in &fleet.racks {
        latency.merge(&rack.lat);
    }
    let requests = fleet.racks.iter().map(|r| r.requests_done).sum();
    let expected = cfg.tenants as u64 * cfg.requests_per_tenant;
    assert_eq!(requests, expected, "every tenant must finish its quota");
    FleetRun {
        requests,
        events: fleet.events,
        sim_end: fleet.last_event,
        latency,
        rack_digests: fleet.racks.iter().map(|r| r.digest.finish()).collect(),
        rack_traces: fleet.racks.into_iter().map(|r| r.trace).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_the_request_quota() {
        let run = run_fleet(&FleetConfig {
            racks: 4,
            shards: 4,
            threads: 1,
            tenants: 40,
            requests_per_tenant: 25,
            seed: 7,
            remote_permille: 300,
            keep_trace: true,
        });
        assert_eq!(run.requests, 40 * 25);
        assert!(run.events > run.requests, "issue + done per request");
        assert!(run.sim_end > SimTime::ZERO);
        assert_eq!(run.merged_trace().len(), 40 * 25 * 2 * RECORD);
    }
}
