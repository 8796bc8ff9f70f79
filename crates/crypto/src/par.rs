//! One helper core for the cipher kernels: [`join`] for AES-XTS runs, and
//! [`Keystream`]s computed ahead for ChaCha20.
//!
//! A run of AES-XTS sectors is a pure function of the key, the first
//! sector and the bytes, and a ChaCha20 keystream one of the key, the
//! nonce and the volume offset, so either can be computed on another core
//! without touching the simulation's state, RNG, trace or counters. One
//! helper thread, started by the first use and only when the process may
//! run on two or more CPUs, serves every caller.
//!
//! [`join`] offers a second half through a single slot, runs the first on
//! the caller, and then either collects the helper's result or, if the
//! helper has not started the half by then, takes it back to run itself:
//! the caller never waits on a helper the scheduler has not run yet. Once
//! the helper has started, the wait is at most its half's kernel time.
//!
//! [`ahead`] queues a range of keystream as 8 KiB pieces of a fixed pool
//! of [`POOL`] buffers, which the helper fills oldest first. The caller
//! never waits for them: [`Keystream::apply`] uses the pieces the data
//! spans only if all of them are done, and otherwise takes back the ones
//! the helper has not started and reports `false`, so the caller computes
//! those bytes itself. The pool's buffers are allocated once, by callers,
//! and reused; the helper allocates nothing.
//!
//! The helper serves the slot before the queue, spins [`SPINS`] times
//! after each job (≈ 0.2 ms on the reference box), so back-to-back work
//! finds it awake, then parks until an offer unparks it. A half that
//! panics on the helper is caught there and resumed on its caller.

use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};

use crate::chacha::{ChaCha20, UNKEYED};
use crate::xts::Half;

/// How often the helper polls for work before it parks again.
const SPINS: u32 = 1 << 14;

// The states of the slot and of each keystream piece.
/// Nothing offered: a caller may claim the slot (a piece: it is in no
/// handle).
const FREE: u8 = 0;
/// A caller is filling the slot or emptying it (a piece: its handle is
/// filling it, or took it back to compute those bytes itself).
const CLAIMED: u8 = 1;
/// A half waits for the helper, or for its caller to take it back.
const OFFERED: u8 = 2;
/// The helper runs the half.
const TAKEN: u8 = 3;
/// The helper's result waits for the caller.
const DONE: u8 = 4;
/// A keystream piece whose handle let go while the helper ran it; the
/// helper frees it.
const DROPPED: u8 = 5;

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
/// Set by tests: the helper stops inside the next piece it takes, as one
/// descheduled mid-job would, until the flag is cleared.
#[cfg(test)]
static STALL: AtomicBool = AtomicBool::new(false);

fn held() -> bool {
    #[cfg(test)]
    return HOLD.load(Ordering::Relaxed);
    #[cfg(not(test))]
    false
}

fn cell() -> MutexGuard<'static, Option<thread::Result<Half>>> {
    lock(&SLOT.cell)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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

/// The helper's loop: run each offered half, else the oldest queued
/// keystream piece.
fn serve() {
    let mut spins = 0;
    loop {
        if !held() {
            if SLOT.state.load(Ordering::Relaxed) == OFFERED {
                run_half();
                spins = 0;
                continue;
            }
            if let Some(i) = oldest_piece() {
                run_piece(i);
                spins = 0;
                continue;
            }
        }
        if spins < SPINS {
            spins += 1;
            std::hint::spin_loop();
            continue;
        }
        SLOT.parked.store(true, Ordering::SeqCst);
        if SLOT.state.load(Ordering::SeqCst) != OFFERED && QUEUED.load(Ordering::SeqCst) == 0 {
            thread::park();
        }
        SLOT.parked.store(false, Ordering::Relaxed);
        spins = 0;
    }
}

/// Runs the offered half, unless its caller took it back first, and hands
/// back the result.
fn run_half() {
    let taken = SLOT
        .state
        .compare_exchange(OFFERED, TAKEN, Ordering::Acquire, Ordering::Relaxed);
    if taken.is_err() {
        return; // its caller took it back
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

/// Bytes of keystream per piece: iSCSI's `MAX_RECV_DATA_SEGMENT_LENGTH`,
/// so one Data-Out or Data-In needs one piece.
const PIECE: u64 = 8 * 1024;
/// Pieces in the pool, one bit each of [`BUSY`] and [`QUEUED`]: 512 KiB
/// of keystream in flight at most.
const POOL: usize = 64;

/// A piece's job: the keystream of `len` bytes from volume byte `at`,
/// written into `ks`, a buffer of [`PIECE`] bytes kept from job to job.
struct Job {
    cipher: ChaCha20,
    at: u64,
    len: usize,
    ks: Vec<u8>,
}

/// One buffer of the pool. Its state moves as the slot's does (`OFFERED`
/// to the helper, `TAKEN` while it runs, `DONE` for its handle), with the
/// same orderings; `CLAIMED` is a piece its handle fills or took back,
/// `DROPPED` one whose handle let go while the helper ran it. Whoever
/// moved `state` last, or claimed the piece in [`BUSY`] (`Acquire`, paired
/// with the `Release` of the clear that freed it), owns `job`.
#[repr(align(64))]
struct Piece {
    state: AtomicU8,
    /// Offer order: the helper takes the oldest queued piece first.
    seq: AtomicU64,
    job: Mutex<Job>,
}

static PIECES: [Piece; POOL] = [const {
    Piece {
        state: AtomicU8::new(FREE),
        seq: AtomicU64::new(0),
        job: Mutex::new(Job {
            cipher: UNKEYED,
            at: 0,
            len: 0,
            ks: Vec::new(),
        }),
    }
}; POOL];
/// The pieces some handle holds.
static BUSY: AtomicU64 = AtomicU64::new(0);
/// The pieces offered to the helper. A bit is set before its piece is
/// `OFFERED` and cleared by whoever moves the piece on from there, before
/// the piece can be freed.
static QUEUED: AtomicU64 = AtomicU64::new(0);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);

/// The indices of the set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> + Clone {
    std::iter::from_fn(move || {
        let i = mask.trailing_zeros() as usize;
        mask &= mask.checked_sub(1)?;
        Some(i)
    })
}

/// Keystream of one range of a volume's byte space, computed ahead on the
/// helper core: [`ChaCha20::ahead`]. Dropping it gives its pieces back.
pub struct Keystream {
    first: u64,
    len: u64,
    /// Its pieces of the pool, in range order: piece `k` covers bytes
    /// `first + k * PIECE` on.
    pieces: u64,
}

/// Queues the keystream of `first..first + len` for the helper.
pub(crate) fn ahead(cipher: &ChaCha20, first: u64, len: u64) -> Option<Keystream> {
    let count = len.div_ceil(PIECE);
    if count == 0 || count > POOL as u64 || first.checked_add(len).is_none() {
        return None;
    }
    let helper = helper()?;
    let pieces = claim(count as u32)?;
    let seq = NEXT_SEQ.fetch_add(count, Ordering::Relaxed);
    for (k, i) in (0..).zip(bits(pieces)) {
        let mut job = lock(&PIECES[i].job);
        job.cipher = cipher.clone();
        job.at = first + k * PIECE;
        job.len = (len - k * PIECE).min(PIECE) as usize;
        if job.ks.is_empty() {
            job.ks = vec![0; PIECE as usize];
        }
        drop(job);
        PIECES[i].seq.store(seq + k, Ordering::Relaxed);
    }
    QUEUED.fetch_or(pieces, Ordering::SeqCst);
    for i in bits(pieces) {
        PIECES[i].state.store(OFFERED, Ordering::Release);
    }
    if SLOT.parked.load(Ordering::SeqCst) {
        helper.unpark();
    }
    Some(Keystream { first, len, pieces })
}

/// Marks the `count` lowest free pieces busy and returns them, or `None`
/// when fewer are free.
fn claim(count: u32) -> Option<u64> {
    let mut busy = BUSY.load(Ordering::Relaxed);
    loop {
        let mut free = !busy;
        if free.count_ones() < count {
            return None;
        }
        let mut want = 0;
        for _ in 0..count {
            let lowest = free & free.wrapping_neg();
            want |= lowest;
            free ^= lowest;
        }
        match BUSY.compare_exchange_weak(busy, busy | want, Ordering::Acquire, Ordering::Relaxed) {
            Ok(_) => return Some(want),
            Err(now) => busy = now,
        }
    }
}

/// Gives piece `i` back to the pool.
fn free(i: usize) {
    PIECES[i].state.store(FREE, Ordering::Relaxed);
    BUSY.fetch_and(!(1 << i), Ordering::Release);
}

/// Takes back piece `i` if the helper has not started it: `CLAIMED`, so
/// the helper leaves it alone.
fn take_back(i: usize) {
    let back =
        PIECES[i]
            .state
            .compare_exchange(OFFERED, CLAIMED, Ordering::Acquire, Ordering::Relaxed);
    if back.is_ok() {
        QUEUED.fetch_and(!(1 << i), Ordering::AcqRel);
    }
}

/// The oldest queued piece, if any.
fn oldest_piece() -> Option<usize> {
    bits(QUEUED.load(Ordering::Acquire)).min_by_key(|&i| PIECES[i].seq.load(Ordering::Relaxed))
}

/// Computes piece `i`'s keystream, unless its handle took it back first.
fn run_piece(i: usize) {
    let piece = &PIECES[i];
    let taken = piece
        .state
        .compare_exchange(OFFERED, TAKEN, Ordering::Acquire, Ordering::Relaxed);
    if taken.is_err() {
        return; // taken back, or not offered yet
    }
    QUEUED.fetch_and(!(1 << i), Ordering::AcqRel);
    #[cfg(test)]
    while STALL.load(Ordering::Relaxed) {
        std::hint::spin_loop();
    }
    {
        let job = &mut *lock(&piece.job);
        let ks = &mut job.ks[..job.len];
        ks.fill(0);
        job.cipher.apply_keystream_at(job.at, ks);
    }
    let done = piece
        .state
        .compare_exchange(TAKEN, DONE, Ordering::Release, Ordering::Relaxed);
    if done.is_err() {
        free(i); // its handle let go while it ran
    }
}

impl Keystream {
    /// XORs `data`, the bytes at volume offset `at`, with the keystream,
    /// if every piece they span is done, and says whether it did. If not,
    /// `data` is untouched, the pieces the helper has not started are
    /// taken back from it, and the caller computes the bytes itself: it
    /// never waits. Also `false` for bytes outside the handle's range.
    #[must_use]
    pub fn apply(&self, at: u64, data: &mut [u8]) -> bool {
        let Some(start) = at.checked_sub(self.first) else {
            return false;
        };
        let end = start.saturating_add(data.len() as u64);
        if end > self.len {
            return false;
        }
        if data.is_empty() {
            return true;
        }
        let (first, last) = (start / PIECE, (end - 1) / PIECE);
        let span = bits(self.pieces)
            .skip(first as usize)
            .take((last - first + 1) as usize);
        let mut ready = true;
        for i in span.clone() {
            if PIECES[i].state.load(Ordering::Acquire) != DONE {
                take_back(i);
                ready = false;
            }
        }
        if !ready {
            return false;
        }
        let mut rest = data;
        let mut pos = start;
        for i in span {
            let job = lock(&PIECES[i].job);
            let within = (pos % PIECE) as usize;
            let n = rest.len().min(PIECE as usize - within);
            let (head, tail) = rest.split_at_mut(n);
            for (d, k) in head.iter_mut().zip(&job.ks[within..]) {
                *d ^= k;
            }
            rest = tail;
            pos += n as u64;
        }
        true
    }
}

impl Drop for Keystream {
    fn drop(&mut self) {
        for i in bits(self.pieces) {
            take_back(i);
            let dropped = PIECES[i].state.compare_exchange(
                TAKEN,
                DROPPED,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            if dropped.is_err() {
                free(i); // done, or taken back
            } // else the helper frees it when it is done
        }
    }
}

impl std::fmt::Debug for Keystream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Keystream")
            .field("first", &self.first)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
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

    /// Waits up to a second for `check`, polling.
    fn eventually(check: impl Fn() -> bool) -> bool {
        (0..10_000).any(|_| {
            let ok = check();
            if !ok {
                thread::sleep(std::time::Duration::from_micros(100));
            }
            ok
        })
    }

    /// Whether every piece of `ks` is done.
    fn all_done(ks: &Keystream) -> bool {
        bits(ks.pieces).all(|i| PIECES[i].state.load(Ordering::Acquire) == DONE)
    }

    /// Keystream-ahead against the inline kernel on 3 x 256 drawn ranges
    /// (keys, unaligned offsets, lengths across several pieces, every
    /// fourth range about the 2^32-block boundary at 256 GiB) cut into
    /// data ops at piece bounds or anywhere: with a live helper (waited
    /// for, or raced), a held one, and none (the caller's path when
    /// `ahead` is `None`, as on one CPU).
    #[test]
    fn keystream_ahead_equals_the_inline_kernel() {
        let _serial = serial();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut hits = 0;
        for case in 0..3 * 256 {
            let (live, held) = (case % 3 == 0, case % 3 == 1);
            let key: [u8; 32] = core::array::from_fn(|_| next() as u8);
            let nonce: [u8; 12] = core::array::from_fn(|_| next() as u8);
            let cipher = ChaCha20::new(&key, &nonce);
            let len = 1 + next() % (9 * PIECE);
            let first = match case % 4 {
                3 => (1 << 38) - next() % (3 * PIECE),
                _ => next() % (1 << 40),
            };
            let plain: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let mut want = plain.clone();
            cipher.apply_keystream_at(first, &mut want);
            // Data ops of one piece each, as Data-Outs arrive, or cut at
            // up to four drawn points.
            let mut cuts: Vec<u64> = if next() % 2 == 0 {
                (0..len).step_by(PIECE as usize).collect()
            } else {
                (0..next() % 5).map(|_| next() % len).collect()
            };
            cuts.extend([0, len]);
            cuts.sort_unstable();
            cuts.dedup();

            HOLD.store(held, Ordering::Relaxed);
            let ks = if live || held {
                cipher.ahead(first, len)
            } else {
                None
            };
            assert_eq!(ks.is_some(), (live || held) && helper().is_some());
            if let (Some(ks), true) = (&ks, live && case % 2 == 0) {
                assert!(eventually(|| all_done(ks)), "case {case}: helper stalled");
            }
            if let Some(ks) = &ks {
                assert!(!ks.apply(first.wrapping_sub(1), &mut [0; 2]));
                assert!(!ks.apply(first + len - 1, &mut [0; 2]));
            }
            let mut got = plain.clone();
            for w in cuts.windows(2) {
                let (at, op) = (first + w[0], &mut got[w[0] as usize..w[1] as usize]);
                if ks.as_ref().is_some_and(|ks| ks.apply(at, op)) {
                    hits += 1;
                } else {
                    cipher.apply_keystream_at(at, op);
                }
            }
            HOLD.store(false, Ordering::Relaxed);
            assert_eq!(
                got, want,
                "case {case}: {len} bytes at {first}, cut at {cuts:?}"
            );
        }
        if helper().is_some() {
            assert!(hits > 0, "no data op found its keystream ready");
        }
        // Every piece went back to the pool, those the helper was running
        // when their handle let go included.
        let quiet = || BUSY.load(Ordering::Acquire) == 0 && QUEUED.load(Ordering::Acquire) == 0;
        assert!(eventually(quiet));
    }

    /// The pool holds `POOL` pieces: a range longer than that, or one more
    /// piece once all are held, is refused; pieces given back are reused
    /// with the buffers they had.
    #[test]
    fn the_pool_is_bounded_and_reuses_its_buffers() {
        let _serial = serial();
        let cipher = ChaCha20::new(&[1; 32], &[2; 12]);
        assert!(cipher.ahead(0, POOL as u64 * PIECE + 1).is_none());
        assert!(cipher.ahead(0, 0).is_none());
        assert!(cipher.ahead(u64::MAX - 10, 100).is_none());
        let Some(whole) = cipher.ahead(5, POOL as u64 * PIECE) else {
            assert!(helper().is_none());
            return;
        };
        assert!(cipher.ahead(0, 1).is_none(), "the pool is full");
        let buffers = |ks: &Keystream| -> Vec<*const u8> {
            bits(ks.pieces)
                .map(|i| lock(&PIECES[i].job).ks.as_ptr())
                .collect()
        };
        assert!(eventually(|| all_done(&whole)));
        let before = buffers(&whole);
        drop(whole);
        let again = cipher
            .ahead(7, POOL as u64 * PIECE)
            .expect("the pool is free again");
        assert!(eventually(|| all_done(&again)));
        assert_eq!(buffers(&again), before);
        let mut data = vec![0u8; 3 * PIECE as usize];
        assert!(again.apply(7 + PIECE - 1, &mut data));
        let mut want = vec![0u8; data.len()];
        cipher.apply_keystream_at(7 + PIECE - 1, &mut want);
        assert_eq!(data, want);
    }

    /// A handle that lets go while the helper runs one of its pieces
    /// leaves that piece to the helper, which frees it when done; no other
    /// handle gets it in between.
    #[test]
    fn a_piece_dropped_while_it_runs_is_freed_by_the_helper() {
        let _serial = serial();
        let cipher = ChaCha20::new(&[3; 32], &[4; 12]);
        STALL.store(true, Ordering::Relaxed);
        let Some(ks) = cipher.ahead(0, PIECE) else {
            STALL.store(false, Ordering::Relaxed);
            assert!(helper().is_none());
            return;
        };
        let i = ks.pieces.trailing_zeros() as usize;
        assert!(eventually(
            || PIECES[i].state.load(Ordering::Acquire) == TAKEN
        ));
        drop(ks);
        assert_eq!(PIECES[i].state.load(Ordering::Acquire), DROPPED);
        let rest = (POOL as u64 - 1) * PIECE;
        let others = cipher.ahead(0, rest).expect("the other pieces are free");
        assert_eq!(
            others.pieces & 1 << i,
            0,
            "a running piece is not handed out"
        );
        assert!(cipher.ahead(0, 1).is_none());
        STALL.store(false, Ordering::Relaxed);
        assert!(eventually(|| BUSY.load(Ordering::Acquire) & 1 << i == 0));
        drop(others);
        assert!(eventually(|| BUSY.load(Ordering::Acquire) == 0));
    }
}
