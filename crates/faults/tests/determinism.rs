//! Chaos soak: any schedule drawn from a seed yields identical event
//! traces across two runs.
//!
//! The driver below is a synthetic stand-in for the simulator: it arms,
//! disarms and consults the fault state in an order derived purely from
//! the seed. Since the real simulator is itself deterministic, trace
//! equality here plus engine determinism gives whole-run reproducibility.

use proptest::prelude::*;

use storm_faults::{Fault, FaultState};
use storm_sim::{FaultPoint, FaultSite, SimDuration, SimRng, SimTime};

/// Draws a random condition fault from `rng`.
fn random_fault(rng: &mut SimRng) -> Fault {
    match rng.below(3) {
        0 => Fault::DiskDelay {
            host: rng.below(3) as u32,
            extra: SimDuration::from_micros(rng.range(1, 500)),
            prob: rng.unit(),
        },
        1 => Fault::MuteTarget {
            host: rng.below(3) as u32,
        },
        _ => Fault::MbDelay {
            mb: rng.below(2) as u32,
            delay: SimDuration::from_micros(rng.range(1, 100)),
            prob: rng.unit(),
        },
    }
}

/// Draws a random injection site from `rng`.
fn random_site(rng: &mut SimRng) -> FaultSite {
    match rng.below(3) {
        0 => FaultSite::DiskServe {
            host: rng.below(3) as u32,
            write: rng.chance(0.5),
        },
        1 => FaultSite::TargetRespond {
            host: rng.below(3) as u32,
        },
        _ => FaultSite::MbProcess {
            mb: rng.below(2) as u32,
        },
    }
}

/// One full soak: a fresh state seeded with `seed`, driven through a
/// schedule of arms/disarms/decisions derived from the same seed.
fn soak(seed: u64) -> Vec<String> {
    let state = FaultState::new(seed);
    // The driver RNG is decorrelated from the decision RNG but equally
    // seed-determined.
    let mut driver = SimRng::seed_from_u64(seed ^ 0xD1CE_CAFE_F00D_BEEF);
    let mut armed: Vec<u64> = Vec::new();
    for tick in 0..300u64 {
        let now = SimTime::from_nanos(tick * 1_000);
        if driver.chance(0.15) {
            let fault = random_fault(&mut driver);
            armed.push(state.arm(now, fault));
        }
        if !armed.is_empty() && driver.chance(0.08) {
            let idx = driver.below(armed.len() as u64) as usize;
            state.disarm(now, armed.swap_remove(idx));
        }
        for _ in 0..driver.below(4) {
            let site = random_site(&mut driver);
            let _ = state.decide(now, site);
        }
    }
    state.trace()
}

proptest! {
    /// Same seed, same schedule, same decisions — byte-identical traces.
    #[test]
    fn same_seed_schedules_replay_identically(seed in 0u64..u64::MAX) {
        let a = soak(seed);
        let b = soak(seed);
        prop_assert_eq!(&a, &b);
        // The soak must actually exercise the machinery, not trivially
        // compare empty traces.
        prop_assert!(!a.is_empty());
    }

    /// Different seeds almost surely diverge — the seed is load-bearing.
    #[test]
    fn different_seeds_diverge(seed in 0u64..(u64::MAX - 1)) {
        let a = soak(seed);
        let b = soak(seed + 1);
        prop_assert!(a != b);
    }
}
