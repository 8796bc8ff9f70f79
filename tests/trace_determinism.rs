//! Equal seeds ⇒ byte-identical telemetry traces, on generated cases.
//!
//! The whole stack — event queue, TCP, relays, disk model, fault
//! decisions — draws only on seeded state, and the JSONL writer has a
//! fixed key order, so two runs of one [`Case`] must export the same
//! bytes. Each test holds eight draws to every oracle of [`Case::check`],
//! with the one dimension its name is about pinned.

use storm::scenario::{Case, Load, Svc};
use storm::services::WriteBackCacheService;

/// Draws the case with no dimension pinned.
#[test]
fn equal_seeds_equal_traces() {
    Case::check_draws(1, 8, |_| true);
}

/// Determinism survives a fault schedule, and the schedule fires inside
/// the job's window: the oracle checks that it did.
#[test]
fn equal_seeds_equal_traces_under_faults() {
    Case::check_draws(100, 8, |c| c.fault.is_some());
}

/// Determinism survives QoS shaping at the relay and the target, and the
/// shaping is real: qos stage events appear in the trace.
#[test]
fn equal_seeds_equal_traces_with_qos() {
    for (_, run) in Case::check_draws(200, 8, |c| c.qos) {
        assert!(run.trace().contains("\"hop\":\"qos\""), "QoS never engaged");
    }
}

/// The seed is load-bearing: an unshaped fio case, whose guest draws its
/// mix and offsets from the seed, diverges under another seed.
#[test]
fn different_seeds_diverge() {
    let fio = |c: &Case| !c.qos && matches!(c.load, Load::Fio { .. });
    for (case, run) in Case::check_draws(300, 8, fio) {
        let reseeded = Case {
            seed: !case.seed,
            ..case
        }
        .check();
        assert_ne!(run.trace(), reseeded.trace());
    }
}

/// A verify load deeper than one request checks reads that overlap
/// concurrent writes, partly and wholly, against the shadow model. Among
/// the draws are a cipher (the at-rest check) and a cache holding half
/// the footprint, which both hits and misses.
#[test]
fn concurrent_reads_match_the_shadow_model() {
    let deep = |c: &Case| matches!(c.load, Load::Verify(..)) && c.queue_depth > 1;
    let (mut ciphered, mut missed) = (false, false);
    for (case, mut run) in Case::check_draws(500, 8, deep) {
        ciphered |= case.chain.contains(&Svc::Xts) || case.chain.contains(&Svc::ChaCha);
        if let Some(idx) = case.chain.iter().position(|s| *s == Svc::Cache) {
            let stats = run.service::<WriteBackCacheService>(idx).stats;
            missed |= stats.read_hits > 0 && stats.read_misses > 0;
        }
    }
    assert!(
        ciphered && missed,
        "no cipher, or no cache that hit and missed"
    );
}

mod suite_determinism {
    use super::*;

    /// The data-reduction suite armed: dedup and compress, then a service
    /// issuing replica I/O last — cache journal and flush timers, CDC
    /// index, codec, copy-on-first-write or mirror — every stage seeing
    /// writes.
    #[test]
    fn equal_seeds_equal_traces_with_suite_armed() {
        Case::check_draws(400, 8, |c| {
            let last = matches!(
                c.chain.last(),
                Some(Svc::Cache | Svc::Snapshot | Svc::Replication)
            );
            last && c.chain.contains(&Svc::Dedup) && c.chain.contains(&Svc::Compress)
        });
    }
}
