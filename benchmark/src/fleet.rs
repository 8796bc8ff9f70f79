//! `fleet_1k`: the sharded-executor workload. The fleet model is the one
//! thing called as-is (`storm_bench::run_fleet`); everything around it —
//! exact latencies from the kept trace, the digest, the thread-count
//! comparison — is the benchmark's own.

use storm_bench::{run_fleet, FleetConfig, FleetRun};

use crate::scenario::{Counters, ServiceCounts, SimOutcome};
use crate::spans::Spans;
use crate::stats::Fnv;

pub const TENANTS: usize = 1000;
const REQUESTS_PER_TENANT: u64 = 60;
/// The fleet model moves no payload; `sim_mbps` books the same nominal
/// 4 KiB per request that `bench_smoke`'s fleet row is labelled with.
const NOMINAL_REQUEST_BYTES: u64 = 4096;

pub fn config(seed: u64, threads: usize, quick: bool) -> FleetConfig {
    FleetConfig {
        racks: 4,
        shards: 4,
        threads,
        tenants: TENANTS,
        requests_per_tenant: if quick {
            REQUESTS_PER_TENANT / 4
        } else {
            REQUESTS_PER_TENANT
        },
        seed,
        remote_permille: 200,
        // The 13-byte issue/done records are where exact latencies come
        // from; the model's own histogram rounds to 1.6 % buckets.
        keep_trace: true,
    }
}

/// `run_fleet` does not separate build from run, so the set-up span times
/// a one-request-per-tenant run: fleet construction, thread spawn and
/// join, and almost no simulation.
pub fn setup(seed: u64, threads: usize, quick: bool, spans: &mut Spans) {
    spans.enter("setup.build_cloud");
    // `run_fleet` itself panics unless every tenant finishes its quota.
    run_fleet(&FleetConfig {
        requests_per_tenant: 1,
        keep_trace: false,
        ..config(seed, threads, quick)
    });
    spans.exit();
}

/// One rep: the set-up stand-in, then the run proper.
pub fn rep(seed: u64, threads: usize, quick: bool, spans: &mut Spans) -> SimOutcome {
    setup(seed, threads, quick, spans);
    let cfg = config(seed, threads, quick);
    spans.enter("run.window");
    let run = run_fleet(&cfg);
    spans.exit();
    outcome(&cfg, &run)
}

/// Issue-to-done latency of every request, from the merged trace:
/// 13-byte records `(time ns u64, tenant u32, op u8)`, time-ordered within
/// each rack, and a tenant never leaves its rack.
fn exact_latencies(trace: &[u8]) -> Vec<u64> {
    let mut issued_at = vec![0u64; TENANTS];
    let mut lat = Vec::with_capacity(trace.len() / 26);
    for rec in trace.chunks_exact(13) {
        let at = u64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
        let tenant = u32::from_le_bytes(rec[8..12].try_into().expect("4 bytes")) as usize;
        match rec[12] {
            b'I' => issued_at[tenant] = at,
            b'D' => lat.push(at - issued_at[tenant]),
            _ => {}
        }
    }
    lat
}

fn outcome(cfg: &FleetConfig, run: &FleetRun) -> SimOutcome {
    let expected = cfg.tenants as u64 * cfg.requests_per_tenant;
    let mut failures = Vec::new();
    if run.requests != expected {
        failures.push(format!("{} of {expected} requests completed", run.requests));
    }
    let mut lat_sorted_ns = exact_latencies(&run.merged_trace());
    lat_sorted_ns.sort_unstable();
    if lat_sorted_ns.len() as u64 != run.requests {
        failures.push(format!(
            "trace holds {} completions for {} requests",
            lat_sorted_ns.len(),
            run.requests
        ));
    }
    let mut d = Fnv::new();
    for v in [
        run.requests,
        run.events,
        run.sim_end.as_nanos(),
        run.digest(),
    ] {
        d.write_u64(v);
    }
    for &ns in &lat_sorted_ns {
        d.write_u64(ns);
    }
    SimOutcome {
        ops: run.requests,
        reads: run.requests,
        writes: 0,
        payload_bytes: run.requests * NOMINAL_REQUEST_BYTES,
        write_bytes: 0,
        errors: 0,
        unfinished: expected - run.requests.min(expected),
        measured_ns: run.sim_end.as_nanos(),
        lat_sorted_ns,
        window: Counters {
            events: run.events,
            ..Counters::default()
        },
        sq_peak: 0,
        services: ServiceCounts::default(),
        check_failures: failures,
        digest: d.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_latencies_pair_issue_and_done_per_tenant() {
        let mut trace = Vec::new();
        for (at, tenant, op) in [
            (100u64, 0u32, b'I'),
            (150, 1, b'I'),
            (400, 0, b'D'),
            (950, 1, b'D'),
            (1000, 0, b'I'),
            (1001, 0, b'D'),
        ] {
            trace.extend_from_slice(&at.to_le_bytes());
            trace.extend_from_slice(&tenant.to_le_bytes());
            trace.push(op);
        }
        assert_eq!(exact_latencies(&trace), vec![300, 800, 1]);
    }
}
