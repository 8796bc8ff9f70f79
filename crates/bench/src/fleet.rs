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
//! * racks are grouped into `shards` [`ShardSim`]s run by a
//!   [`ShardedExecutor`] whose lookahead is the inter-rack link latency
//!   ([`LinkSpec::lookahead`]).
//!
//! # Determinism contract
//!
//! Equal-seed runs produce byte-identical merged traces regardless of
//! shard count (1, 2 or 4 shards of the same 4-rack topology). Three
//! design rules buy that:
//!
//! * all tenant randomness comes from per-tenant [`SimRng`]s forked from
//!   the master seed in tenant-id order, never from shared shard state;
//! * every cross-RACK interaction goes through the executor's
//!   [`Outbox`] even when both racks live on the same shard, so message
//!   timing never depends on co-residence;
//! * outbox messages carry a `(source rack, per-rack counter)` ordering
//!   key, so same-instant injection order is a function of simulation
//!   state alone, not of how racks are packed into shards.
//!
//! Incoming messages are turned into *queued events* at their arrival
//! instant (never acted on at delivery time), so each rack's disk serves
//! strictly in event-time order.
//!
//! Each rack keeps its own trace (and a running FNV-1a digest of it);
//! [`FleetRun::merged_trace`] concatenates them in rack-id order.

use storm_net::LinkSpec;
use storm_sim::shard::{Outbox, ShardSim, ShardedExecutor};
use storm_sim::{EventQueue, Histogram, SerialResource, SimDuration, SimRng, SimTime};

/// Parameters of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of racks (fixed topology; must be a multiple of `shards`).
    pub racks: usize,
    /// Number of executor shards the racks are grouped into.
    pub shards: usize,
    /// Ignored: the executor is single-threaded (its threaded path
    /// measured 0.04× the inline one and was deleted). The field stays
    /// only because the frozen `benchmark/src/fleet.rs` builds this struct
    /// field by field; ROADMAP queues its removal for the next
    /// `benchmark` PR.
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
    /// Events executed across all shards (queue deliveries).
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
    /// `(tenant id, state)` for tenants homed here.
    tenants: Vec<(u32, Tenant)>,
    trace: Vec<u8>,
    digest: Fnv,
    lat: Histogram,
    keep_trace: bool,
    /// Outgoing-message counter feeding the layout-invariant order key.
    msg_seq: u64,
    requests_done: u64,
}

impl Rack {
    /// Records one trace event and folds it into the digest.
    fn record(&mut self, at: SimTime, tenant: u32, op: u8) {
        let mut buf = [0u8; 13];
        buf[..8].copy_from_slice(&at.as_nanos().to_le_bytes());
        buf[8..12].copy_from_slice(&tenant.to_le_bytes());
        buf[12] = op;
        self.digest.write(&buf);
        if self.keep_trace {
            self.trace.extend_from_slice(&buf);
        }
    }

    fn tenant_mut(&mut self, tenant: u32) -> &mut Tenant {
        &mut self
            .tenants
            .iter_mut()
            .find(|(id, _)| *id == tenant)
            .expect("tenant homed on this rack")
            .1
    }

    /// The next outbox ordering key for this rack.
    fn next_key(&mut self) -> u64 {
        let key = ((self.id as u64) << 40) | self.msg_seq;
        self.msg_seq += 1;
        key
    }
}

/// Trace opcodes.
const OP_ISSUE: u8 = b'I';
const OP_DONE: u8 = b'D';

/// Local events within one shard's queue: `(local rack index, kind)`.
enum Ev {
    /// Tenant wakes up and issues its next request.
    Issue { tenant: u32 },
    /// The rack's disk finished a request for a resident tenant.
    LocalDone { tenant: u32 },
    /// A remote tenant's request arrives at this (target) rack.
    RemoteArrive { tenant: u32, svc_ns: u32, home: u32 },
    /// This (target) rack's disk finished a remote tenant's request.
    RemoteServed { tenant: u32, home: u32 },
    /// The reply reached the tenant's home rack: the request is done.
    RemoteDone { tenant: u32 },
}

/// Cross-rack messages (used even between co-resident racks).
enum Msg {
    /// Serve `tenant`'s request on rack `target` (service time pre-drawn
    /// by the tenant, so target racks need no RNG of their own).
    Request {
        tenant: u32,
        svc_ns: u32,
        home: u32,
        target: u32,
    },
    /// Rack `target` finished `tenant`'s request; deliver to its home.
    Reply { tenant: u32, home: u32 },
}

/// One executor shard hosting `racks.len()` racks.
struct FleetShard {
    cfg: ShardCfg,
    racks: Vec<Rack>,
    q: EventQueue<(u16, Ev)>,
    events: u64,
    last_event: SimTime,
}

/// The per-shard copy of the run-wide constants.
#[derive(Clone, Copy)]
struct ShardCfg {
    racks_total: usize,
    shards: usize,
    remote_permille: u64,
    link: SimDuration,
}

impl ShardCfg {
    /// Maps a rack id to its shard (round-robin).
    fn shard_of(&self, rack: usize) -> usize {
        rack % self.shards
    }
}

impl FleetShard {
    fn local_idx(&self, rack: usize) -> u16 {
        self.racks
            .iter()
            .position(|r| r.id == rack)
            .expect("rack homed on this shard") as u16
    }

    /// Tenant `tenant` on rack `local` issues its next request at `now`.
    fn issue(&mut self, now: SimTime, local: u16, tenant: u32, outbox: &mut Outbox<Msg>) {
        let cfg = self.cfg;
        let rack = &mut self.racks[local as usize];
        let home = rack.id;
        let (svc_ns, target) = {
            let t = rack.tenant_mut(tenant);
            t.issued_at = now;
            // 2-10 µs of disk service.
            let svc_ns = t.rng.range(2_000, 10_000) as u32;
            let remote = t.rng.chance(cfg.remote_permille as f64 / 1000.0);
            let target = if remote && cfg.racks_total > 1 {
                (home + 1 + t.rng.below(cfg.racks_total as u64 - 1) as usize) % cfg.racks_total
            } else {
                home
            };
            (svc_ns, target)
        };
        rack.record(now, tenant, OP_ISSUE);
        if target == home {
            let done = rack.disk.serve(now, SimDuration::from_nanos(svc_ns as u64));
            self.q.push(done, (local, Ev::LocalDone { tenant }));
        } else {
            let key = rack.next_key();
            outbox.send(
                cfg.shard_of(target),
                now + cfg.link,
                key,
                Msg::Request {
                    tenant,
                    svc_ns,
                    home: home as u32,
                    target: target as u32,
                },
            );
        }
    }

    /// Tenant `tenant` finished a request at `now`: think, then go again.
    fn complete(&mut self, now: SimTime, local: u16, tenant: u32) {
        let rack = &mut self.racks[local as usize];
        rack.record(now, tenant, OP_DONE);
        rack.requests_done += 1;
        let (remaining, think, issued_at) = {
            let t = rack.tenant_mut(tenant);
            t.remaining -= 1;
            // 20-100 µs think time.
            let think = SimDuration::from_nanos(t.rng.range(20_000, 100_000));
            (t.remaining, think, t.issued_at)
        };
        rack.lat.record(now - issued_at);
        if remaining > 0 {
            self.q.push(now + think, (local, Ev::Issue { tenant }));
        }
    }
}

impl ShardSim for FleetShard {
    type Msg = Msg;

    fn next_time(&mut self) -> Option<SimTime> {
        self.q.peek_time()
    }

    fn run_until(&mut self, bound: SimTime, outbox: &mut Outbox<Msg>) {
        while let Some((now, (local, ev))) = self.q.pop_if(|t| t < bound) {
            self.events += 1;
            self.last_event = now;
            match ev {
                Ev::Issue { tenant } => self.issue(now, local, tenant, outbox),
                Ev::LocalDone { tenant } | Ev::RemoteDone { tenant } => {
                    self.complete(now, local, tenant)
                }
                Ev::RemoteArrive {
                    tenant,
                    svc_ns,
                    home,
                } => {
                    let rack = &mut self.racks[local as usize];
                    let done = rack.disk.serve(now, SimDuration::from_nanos(svc_ns as u64));
                    self.q
                        .push(done, (local, Ev::RemoteServed { tenant, home }));
                }
                Ev::RemoteServed { tenant, home } => {
                    let cfg = self.cfg;
                    let rack = &mut self.racks[local as usize];
                    let key = rack.next_key();
                    outbox.send(
                        cfg.shard_of(home as usize),
                        now + cfg.link,
                        key,
                        Msg::Reply { tenant, home },
                    );
                }
            }
        }
    }

    fn deliver(&mut self, at: SimTime, msg: Msg) {
        // Messages become queued events at their arrival instant — never
        // acted on here — so disks serve strictly in event-time order.
        match msg {
            Msg::Request {
                tenant,
                svc_ns,
                home,
                target,
            } => {
                let local = self.local_idx(target as usize);
                self.q.push(
                    at,
                    (
                        local,
                        Ev::RemoteArrive {
                            tenant,
                            svc_ns,
                            home,
                        },
                    ),
                );
            }
            Msg::Reply { tenant, home } => {
                let local = self.local_idx(home as usize);
                self.q.push(at, (local, Ev::RemoteDone { tenant }));
            }
        }
    }
}

/// Runs the fleet model to completion.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero racks/shards, racks
/// not divisible by shards) or if any tenant fails to finish its
/// request quota (a scheduling bug, not a workload outcome).
pub fn run_fleet(cfg: &FleetConfig) -> FleetRun {
    assert!(cfg.racks >= 1 && cfg.shards >= 1);
    assert!(
        cfg.racks.is_multiple_of(cfg.shards),
        "racks must divide evenly into shards"
    );
    let link = LinkSpec::inter_rack();
    let shard_cfg = ShardCfg {
        racks_total: cfg.racks,
        shards: cfg.shards,
        remote_permille: cfg.remote_permille,
        link: link.lookahead(),
    };
    let mut master = SimRng::seed_from_u64(cfg.seed);
    let mut shards: Vec<FleetShard> = (0..cfg.shards)
        .map(|_| FleetShard {
            cfg: shard_cfg,
            racks: Vec::new(),
            q: EventQueue::new(),
            events: 0,
            last_event: SimTime::ZERO,
        })
        .collect();
    for rack in 0..cfg.racks {
        shards[shard_cfg.shard_of(rack)].racks.push(Rack {
            id: rack,
            disk: SerialResource::new(),
            tenants: Vec::new(),
            trace: Vec::new(),
            digest: Fnv::new(),
            lat: Histogram::new(),
            keep_trace: cfg.keep_trace,
            msg_seq: 0,
            requests_done: 0,
        });
    }
    // Home tenants round-robin; fork each rng from the master in
    // tenant-id order so the draw sequence is layout-invariant.
    for tenant in 0..cfg.tenants as u32 {
        let rng = master.fork();
        let home = tenant as usize % cfg.racks;
        let shard = &mut shards[shard_cfg.shard_of(home)];
        let local = shard.local_idx(home) as usize;
        shard.racks[local].tenants.push((
            tenant,
            Tenant {
                rng,
                remaining: cfg.requests_per_tenant,
                issued_at: SimTime::ZERO,
            },
        ));
    }
    // First wakeups: jittered so disks don't see a thundering herd.
    for shard in &mut shards {
        for li in 0..shard.racks.len() {
            for ti in 0..shard.racks[li].tenants.len() {
                let (tenant, jitter) = {
                    let (id, t) = &mut shard.racks[li].tenants[ti];
                    (*id, t.rng.below(100_000))
                };
                shard.q.push(
                    SimTime::from_nanos(jitter),
                    (li as u16, Ev::Issue { tenant }),
                );
            }
        }
    }
    let exec = ShardedExecutor::new(link.lookahead());
    let done = exec.run(shards, SimTime::MAX);
    let mut requests = 0;
    let mut events = 0;
    let mut sim_end = SimTime::ZERO;
    let mut rack_digests = vec![0u64; cfg.racks];
    let mut rack_traces: Vec<Vec<u8>> = vec![Vec::new(); cfg.racks];
    let mut rack_lats: Vec<Histogram> = Vec::new();
    rack_lats.resize_with(cfg.racks, Histogram::new);
    for shard in done {
        events += shard.events;
        sim_end = sim_end.max(shard.last_event);
        for rack in shard.racks {
            requests += rack.requests_done;
            rack_digests[rack.id] = rack.digest.finish();
            rack_traces[rack.id] = rack.trace;
            rack_lats[rack.id] = rack.lat;
        }
    }
    let mut latency = Histogram::new();
    for l in &rack_lats {
        latency.merge(l);
    }
    let expected = cfg.tenants as u64 * cfg.requests_per_tenant;
    assert_eq!(requests, expected, "every tenant must finish its quota");
    FleetRun {
        requests,
        events,
        sim_end,
        latency,
        rack_digests,
        rack_traces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(shards: usize) -> FleetConfig {
        FleetConfig {
            racks: 4,
            shards,
            threads: 1,
            tenants: 40,
            requests_per_tenant: 25,
            seed: 7,
            remote_permille: 300,
            keep_trace: true,
        }
    }

    #[test]
    fn completes_the_request_quota() {
        let run = run_fleet(&small(4));
        assert_eq!(run.requests, 40 * 25);
        assert!(run.events > run.requests, "issue + done per request");
        assert!(run.sim_end > SimTime::ZERO);
        assert!(!run.merged_trace().is_empty());
    }

    #[test]
    fn trace_is_identical_across_shard_counts() {
        let base = run_fleet(&small(4));
        let trace = base.merged_trace();
        for shards in [1, 2] {
            let other = run_fleet(&small(shards));
            assert_eq!(
                other.merged_trace(),
                trace,
                "trace diverged at shards={shards}"
            );
            assert_eq!(other.digest(), base.digest());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_fleet(&small(2));
        let b = run_fleet(&FleetConfig {
            seed: 8,
            ..small(2)
        });
        assert_ne!(a.digest(), b.digest());
    }
}
