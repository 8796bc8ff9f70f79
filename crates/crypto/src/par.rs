//! One helper core for the cipher kernels, and the [`join`] that uses it.
//!
//! A run of AES-XTS sectors is a pure function of the key, the first
//! sector and the bytes, so half of it can be computed on another core
//! without touching the simulation's state, RNG, trace or counters. One
//! helper thread, started by the first split and only when the process
//! may run on two or more CPUs, serves every caller through a single
//! slot. [`join`] offers the second half there, runs the first on the
//! caller, and then either collects the helper's result or, if the helper
//! has not started the half by then, takes it back to run itself: the
//! caller never waits on a helper the scheduler has not run yet. Once the
//! helper has started, the wait is at most its half's kernel time.
//!
//! The helper spins [`SPINS`] times after each job (≈ 0.2 ms on the
//! reference box), so back-to-back splits find it awake, then parks until
//! an offer unparks it. A half that panics on the helper is caught there
//! and resumed on its caller.

use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};

use crate::xts::Half;

/// How often the helper polls the slot before it parks again.
const SPINS: u32 = 1 << 14;

/// Nothing offered: a caller may claim the slot.
const FREE: u8 = 0;
/// A caller is filling the slot or emptying it.
const CLAIMED: u8 = 1;
/// A half waits for the helper, or for its caller to take it back.
const OFFERED: u8 = 2;
/// The helper runs the half.
const TAKEN: u8 = 3;
/// The helper's result waits for the caller.
const DONE: u8 = 4;

/// The one slot between the callers and the helper. Each move of `state`
/// hands the slot to the other side: a store that gives it away is
/// `Release` (or `SeqCst`), the load or exchange that takes it `Acquire`.
struct Slot {
    state: AtomicU8,
    /// Set by the helper before it parks; an offer then unparks it.
    parked: AtomicBool,
    /// The offered half, then the helper's result. Whoever moved `state`
    /// last owns it, so the lock is never contended.
    cell: Mutex<Option<thread::Result<Half>>>,
}

static SLOT: Slot = Slot {
    state: AtomicU8::new(FREE),
    parked: AtomicBool::new(false),
    cell: Mutex::new(None),
};

/// Set by tests: the helper leaves offers alone, as a descheduled one would.
#[cfg(test)]
static HOLD: AtomicBool = AtomicBool::new(false);

fn held() -> bool {
    #[cfg(test)]
    return HOLD.load(Ordering::Relaxed);
    #[cfg(not(test))]
    false
}

fn cell() -> MutexGuard<'static, Option<thread::Result<Half>>> {
    SLOT.cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The helper thread, started on first use; `None` on one CPU or when the
/// thread cannot be spawned. It is never joined: it lives as long as the
/// process, parked when idle, and catches each half's panic.
fn helper() -> Option<&'static Thread> {
    static HELPER: OnceLock<Option<Thread>> = OnceLock::new();
    HELPER
        .get_or_init(|| {
            let cpus = thread::available_parallelism().map_or(1, NonZeroUsize::get);
            let spawned = (cpus >= 2).then(|| {
                thread::Builder::new()
                    .name("storm-crypto-helper".into())
                    .spawn(serve)
            })?;
            spawned.ok().map(|handle| handle.thread().clone())
        })
        .as_ref()
}

/// The helper's loop: take each offered half, run it, hand back the result.
fn serve() {
    loop {
        let mut spins = 0;
        while SLOT.state.load(Ordering::Relaxed) != OFFERED || held() {
            if spins < SPINS {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            SLOT.parked.store(true, Ordering::SeqCst);
            if SLOT.state.load(Ordering::SeqCst) != OFFERED {
                thread::park();
            }
            SLOT.parked.store(false, Ordering::Relaxed);
            spins = 0;
        }
        let taken =
            SLOT.state
                .compare_exchange(OFFERED, TAKEN, Ordering::Acquire, Ordering::Relaxed);
        if taken.is_err() {
            continue; // its caller took it back
        }
        let Some(Ok(mut half)) = cell().take() else {
            unreachable!("an offered slot holds a half");
        };
        let result = panic::catch_unwind(AssertUnwindSafe(move || {
            half.run();
            half
        }));
        *cell() = Some(result);
        SLOT.state.store(DONE, Ordering::Release);
    }
}

/// Runs `here` on this thread and, when the helper exists and its slot is
/// free, offers it the half `there` builds. Returns that half run (by the
/// helper, or here if the helper had not started it by the time `here`
/// returned), or `None` when nothing was offered and the caller's second
/// half is still to run. A panic in either half resumes on the caller
/// once both are settled.
pub(crate) fn join(here: impl FnOnce(), there: impl FnOnce() -> Half) -> Option<Half> {
    let claimed = helper().filter(|_| {
        SLOT.state
            .compare_exchange(FREE, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    });
    let Some(helper) = claimed else {
        here();
        return None;
    };
    *cell() = Some(Ok(there()));
    SLOT.state.store(OFFERED, Ordering::SeqCst);
    if SLOT.parked.load(Ordering::SeqCst) {
        helper.unpark();
    }
    let ran_here = panic::catch_unwind(AssertUnwindSafe(here));
    let back = collect();
    SLOT.state.store(FREE, Ordering::Release);
    if let Err(payload) = ran_here {
        panic::resume_unwind(payload);
    }
    Some(back.unwrap_or_else(|payload| panic::resume_unwind(payload)))
}

/// Empties the slot a caller offered into: the helper's result, or the
/// half run here when the helper had not taken it yet.
fn collect() -> thread::Result<Half> {
    let stolen =
        SLOT.state
            .compare_exchange(OFFERED, CLAIMED, Ordering::Acquire, Ordering::Relaxed);
    if stolen.is_ok() {
        let Some(Ok(mut half)) = cell().take() else {
            unreachable!("an offered slot holds a half");
        };
        return panic::catch_unwind(AssertUnwindSafe(move || {
            half.run();
            half
        }));
    }
    let mut spins = 0u32;
    while SLOT.state.load(Ordering::Acquire) != DONE {
        if spins < SPINS {
            spins += 1;
            std::hint::spin_loop();
        } else {
            thread::yield_now();
        }
    }
    let Some(result) = cell().take() else {
        unreachable!("a done slot holds the result");
    };
    result
}

/// Tests that split, or watch or hold the helper, run one at a time, so
/// each knows whose half is in the slot.
#[cfg(test)]
pub(crate) fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AesXts;
    use std::sync::Barrier;

    fn xts(seed: u8) -> AesXts {
        AesXts::from_master_key(&[seed; 64])
    }

    fn plain(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ seed)
            .collect()
    }

    /// What a half of `data` from sector `first` reads once run.
    fn expected(xts: &AesXts, first: u64, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        for (i, sector) in out.chunks_exact_mut(512).enumerate() {
            xts.encrypt_sector(first + i as u64, sector);
        }
        out
    }

    /// Joins the half `make` builds, running it here if it was not offered.
    fn finish(here: impl FnOnce(), make: impl Fn() -> Half) -> Vec<u8> {
        let half = join(here, &make).unwrap_or_else(|| {
            let mut half = make();
            half.run();
            half
        });
        half.data
    }

    #[test]
    fn eight_threads_join_at_once() {
        let _serial = serial();
        let start = Barrier::new(8);
        thread::scope(|s| {
            for t in 0..8u8 {
                let start = &start;
                s.spawn(move || {
                    let cipher = xts(t);
                    start.wait();
                    for i in 0..200u64 {
                        let data = plain(4096, t ^ i as u8);
                        let mut mine = plain(4096, !t);
                        let mine_want = expected(&cipher, 1000 + i, &mine);
                        let got = finish(
                            || cipher.encrypt_run(1000 + i, 512, &mut mine),
                            || Half::new(&cipher, i, 512, true, data.clone()),
                        );
                        assert_eq!(got, expected(&cipher, i, &data), "thread {t}, join {i}");
                        assert_eq!(mine, mine_want, "thread {t}, join {i}: caller's half");
                    }
                });
            }
        });
        assert_eq!(SLOT.state.load(Ordering::Acquire), FREE);
    }

    #[test]
    fn a_half_that_panics_on_the_helper_panics_its_caller() {
        let _serial = serial();
        let cipher = xts(3);
        let mut on_helper = false;
        // Waits until the helper has taken the offered half.
        let wait_for_helper = || {
            while SLOT.state.load(Ordering::Acquire) == OFFERED {
                thread::yield_now();
            }
            on_helper = SLOT.state.load(Ordering::Acquire) != FREE;
        };
        // 100-byte sectors are not whole AES blocks: the kernel panics.
        let bad = || Half::new(&cipher, 0, 100, true, vec![0; 100]);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| finish(wait_for_helper, bad)));
        assert!(caught.is_err(), "the panic reached the caller");
        // On one CPU there is no helper, and the caller ran the bad half.
        assert_eq!(on_helper, helper().is_some());
        // The helper survived it and serves the next join.
        let data = plain(4096, 9);
        let got = finish(|| {}, || Half::new(&cipher, 5, 512, true, data.clone()));
        assert_eq!(got, expected(&cipher, 5, &data));
        assert_eq!(SLOT.state.load(Ordering::Acquire), FREE);
    }

    #[test]
    fn the_caller_takes_back_a_half_the_helper_has_not_started() {
        let _serial = serial();
        let cipher = xts(5);
        let data = plain(4096, 1);
        let want = expected(&cipher, 77, &data);
        let half = || Half::new(&cipher, 77, 512, true, data.clone());

        // Held (descheduled, or busy elsewhere): waiting for it would hang.
        HOLD.store(true, Ordering::Relaxed);
        let got = finish(|| {}, half);
        HOLD.store(false, Ordering::Relaxed);
        assert_eq!(got, want);

        // Parked: the offer unparks it, and whichever side runs the half,
        // the bytes come out the same.
        if helper().is_some() {
            for _ in 0..5000 {
                if SLOT.parked.load(Ordering::SeqCst) {
                    break;
                }
                thread::sleep(std::time::Duration::from_millis(1));
            }
            assert!(SLOT.parked.load(Ordering::SeqCst), "an idle helper parks");
        }
        assert_eq!(finish(|| {}, half), want);
    }
}
