//! The fleet model's output, pinned: `digest()`, `requests`, `events` and
//! `sim_end` for four `(racks, seed, remote_permille)` configurations,
//! from all-local traffic to almost all-remote, with 1 001 tenants so the
//! racks hold unequal counts. The constants were recorded when the model
//! still ran on a sharded executor (equal at one shard and at one shard
//! per rack), so a failure here means the model's behaviour moved, not
//! that the constants are stale. The three configurations with remote
//! traffic each hit a same-instant tie between a cross-rack arrival and a
//! local event: pushing messages straight into the queue instead of
//! injecting them sorted at the round boundary fails them.

use storm_bench::{run_fleet, FleetConfig};

fn cfg(racks: usize, seed: u64, remote_permille: u64) -> FleetConfig {
    FleetConfig {
        racks,
        shards: racks,
        threads: 1,
        tenants: 1_001,
        requests_per_tenant: 30,
        seed,
        remote_permille,
        keep_trace: true,
    }
}

/// `(racks, seed, remote_permille, digest, events, sim_end ns)`.
const PINNED: [(usize, u64, u64, u64, u64, u64); 4] = [
    (4, 7, 0, 0x319b_9f05_24a2_1200, 60_060, 45_580_019),
    (4, 424243, 950, 0xf787_9faa_5fd9_bf2d, 117_210, 45_533_615),
    (3, 2, 500, 0x6305_9e69_9302_87ca, 90_068, 61_207_750),
    (6, 3, 500, 0xe1a6_e72f_273a_e3d3, 89_908, 30_911_144),
];

#[test]
fn pinned_outputs() {
    for (racks, seed, remote, digest, events, sim_end) in PINNED {
        let run = run_fleet(&cfg(racks, seed, remote));
        let at = format!("racks={racks} seed={seed} remote={remote}");
        assert_eq!(run.requests, 1_001 * 30, "{at}");
        assert_eq!(run.events, events, "{at}");
        assert_eq!(run.sim_end.as_nanos(), sim_end, "{at}");
        assert_eq!(run.digest(), digest, "{at}: digest {:#018x}", run.digest());
        assert_eq!(run.merged_trace().len(), 1_001 * 30 * 2 * 13, "{at}");
    }
}

#[test]
fn equal_seeds_equal_traces() {
    let a = run_fleet(&cfg(4, 20160628, 200));
    let b = run_fleet(&cfg(4, 20160628, 200));
    assert!(!a.merged_trace().is_empty());
    assert_eq!(a.merged_trace(), b.merged_trace());
    assert_eq!(a.digest(), b.digest());
}

#[test]
fn different_seeds_diverge() {
    let a = run_fleet(&cfg(4, 20160628, 200));
    let b = run_fleet(&cfg(4, 20160629, 200));
    assert_ne!(a.digest(), b.digest());
}
