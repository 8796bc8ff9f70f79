//! The simulation event queue: a radix heap over event instants.
//!
//! A monotone priority queue keyed by nanoseconds. `last` is the instant
//! of the most recently settled head; every pending instant above it sits
//! in one of 64 buckets, bucket `b` holding the instants whose highest bit
//! that differs from `last` is bit `b`. Events at exactly `last` wait in a
//! FIFO, and the rare push behind `last` (possible only after a refused
//! [`EventQueue::pop_if`]) waits in a small ordered map that pops first.
//!
//! When the FIFO runs dry, the lowest occupied bucket's minimum becomes
//! the new `last` and the bucket's keys move into lower buckets (or the
//! FIFO): the keys of every higher bucket agree with both the old and the
//! new `last` above their bucket bit, so they stay where they are, and a
//! key only ever moves down. Push is `O(1)`; a pop is amortised over the
//! at most 64 moves of each key.
//!
//! Events live in a slab with a free list, and buckets hold `(at, slab
//! index)` keys, so steady-state scheduling allocates nothing and a
//! redistribution moves 16-byte keys, not events.
//!
//! # Ordering contract
//!
//! Events pop in non-decreasing `(time, push sequence)` order: equal
//! instants are FIFO, which keeps equal-seed traces byte-identical. No
//! sequence number is compared for it. Equal instants always share a
//! bucket (the bucket is a function of the instant and `last`), pushes
//! append, and a bucket is refilled from a higher one only while it is
//! empty, so every bucket lists each instant's keys in push order, and
//! the FIFO receives them that way. Pushing *before* the last settled
//! instant is delivered as soon as possible (next pop), `(time, push
//! order)`-ordered against other late events — the same observable
//! behaviour the engine's `debug_assert!(t >= now)` permits.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::SimTime;

/// A handle to a scheduled event, returned by
/// [`EventQueue::push_cancelable`].
///
/// Tokens are generation-checked: cancelling after the event was popped
/// (or already cancelled) is a safe no-op returning `None`, even if the
/// slab entry has been reused for a different event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CancelToken {
    at: u64,
    idx: u32,
    gen: u32,
}

/// One slab entry.
struct Slot<E> {
    /// Bumped on every release; stale [`CancelToken`]s fail the check.
    gen: u32,
    event: Option<E>,
}

/// A time-ordered queue of simulation events.
///
/// Events scheduled for the same instant are delivered in insertion order
/// (FIFO), which makes simulations deterministic: replaying the same seed
/// yields the same event interleaving. See the module docs for the layout
/// and the exact ordering contract.
pub struct EventQueue<E> {
    slab: Vec<Slot<E>>,
    /// LIFO free list of slab indices (deterministic reuse order).
    free: Vec<u32>,
    /// `(at, slab index)` keys of the events pending after `last`, by the
    /// highest bit in which `at` differs from `last`.
    buckets: [Vec<(u64, u32)>; 64],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u64,
    /// Slab indices of the events at exactly `last`, in push order.
    now: VecDeque<u32>,
    /// Events pushed behind `last`, keyed by `(at, late push number)`.
    late: BTreeMap<(u64, u64), u32>,
    late_pushes: u64,
    /// The settled head instant in ns; no pending event outside `late` is
    /// earlier.
    last: u64,
    popped: u64,
    len: usize,
}

/// The bucket of a pending instant `at > last`.
fn bucket(at: u64, last: u64) -> usize {
    63 - (at ^ last).leading_zeros() as usize
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: Vec::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            now: VecDeque::new(),
            late: BTreeMap::new(),
            late_pushes: 0,
            last: 0,
            popped: 0,
            len: 0,
        }
    }

    /// Schedules `event` for delivery at instant `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let _ = self.push_cancelable(at, event);
    }

    /// Schedules `event` for delivery at instant `at`, returning a token
    /// that can later [`cancel`](Self::cancel) it.
    pub fn push_cancelable(&mut self, at: SimTime, event: E) -> CancelToken {
        let at = at.as_nanos();
        let idx = self.alloc(event);
        if at > self.last {
            let b = bucket(at, self.last);
            self.buckets[b].push((at, idx));
            self.occupied |= 1 << b;
        } else if at == self.last {
            self.now.push_back(idx);
        } else {
            self.late.insert((at, self.late_pushes), idx);
            self.late_pushes += 1;
        }
        self.len += 1;
        CancelToken {
            at,
            idx,
            gen: self.slab[idx as usize].gen,
        }
    }

    /// Cancels a scheduled event, returning it if it was still pending.
    ///
    /// A token whose event already popped (or was already cancelled)
    /// returns `None`. The key is searched from the back of its one
    /// bucket, so cancelling a recent push is cheap.
    pub fn cancel(&mut self, token: CancelToken) -> Option<E> {
        let CancelToken { at, idx, gen } = token;
        if self.slab.get(idx as usize)?.gen != gen {
            return None;
        }
        if at > self.last {
            let b = bucket(at, self.last);
            let keys = &mut self.buckets[b];
            let pos = keys.iter().rposition(|&key| key == (at, idx));
            keys.remove(pos.expect("a pending key sits in its bucket"));
            if keys.is_empty() {
                self.occupied &= !(1 << b);
            }
        } else if at == self.last {
            let pos = self.now.iter().rposition(|&i| i == idx);
            self.now
                .remove(pos.expect("an event at `last` is in `now`"));
        } else {
            let mut late = self.late.range((at, 0)..=(at, u64::MAX));
            let (&key, _) = late
                .find(|&(_, &i)| i == idx)
                .expect("an early event is late");
            self.late.remove(&key);
        }
        self.len -= 1;
        Some(self.release(idx))
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_if(|_| true)
    }

    /// Removes and returns the earliest event if `due` accepts its
    /// delivery instant; a refused event stays queued.
    ///
    /// One search where [`peek_time`](Self::peek_time) followed by
    /// [`pop`](Self::pop) does two — the shape of every bounded run loop
    /// ("deliver while the head is at or before `end`"). Like `peek_time`,
    /// a refused call may settle the refused head's instant as `last`.
    pub fn pop_if(&mut self, due: impl FnOnce(SimTime) -> bool) -> Option<(SimTime, E)> {
        let at = self.head()?;
        if !due(SimTime::from_nanos(at)) {
            return None;
        }
        let idx = match self.late.pop_first() {
            Some((_, idx)) => idx,
            None => self.now.pop_front().expect("a settled head is in `now`"),
        };
        self.len -= 1;
        self.popped += 1;
        Some((SimTime::from_nanos(at), self.release(idx)))
    }

    /// The delivery instant of the next event, if any.
    ///
    /// Takes `&mut self`: locating the earliest event may settle a bucket,
    /// which is exactly the work a subsequent [`pop`](Self::pop) would
    /// have done anyway.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.head().map(SimTime::from_nanos)
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events delivered so far (monotonic).
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// The earliest pending instant: the first late event's, else `last`
    /// once `now` holds the events there.
    fn head(&mut self) -> Option<u64> {
        if let Some((&(at, _), _)) = self.late.first_key_value() {
            return Some(at);
        }
        if self.now.is_empty() {
            self.settle()?;
        }
        Some(self.last)
    }

    /// Makes the lowest occupied bucket's minimum the new `last`: its
    /// events go to `now` in bucket order, the rest of the bucket's keys
    /// to lower buckets. `None` when no bucket holds a key.
    fn settle(&mut self) -> Option<()> {
        if self.occupied == 0 {
            return None;
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        let mut keys = std::mem::take(&mut self.buckets[b]);
        let last = keys.iter().map(|&(at, _)| at).min()?;
        self.last = last;
        for &(at, idx) in &keys {
            if at == last {
                self.now.push_back(idx);
            } else {
                let lower = bucket(at, last);
                self.buckets[lower].push((at, idx));
                self.occupied |= 1 << lower;
            }
        }
        keys.clear();
        self.buckets[b] = keys;
        Some(())
    }

    fn alloc(&mut self, event: E) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.slab[idx as usize].event = Some(event);
            return idx;
        }
        let idx = u32::try_from(self.slab.len()).expect("event slab exhausted");
        self.slab.push(Slot {
            gen: 0,
            event: Some(event),
        });
        idx
    }

    /// Frees a slot (bumping its generation) and takes its event out.
    fn release(&mut self, idx: u32) -> E {
        let slot = &mut self.slab[idx as usize];
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        slot.event.take().expect("a released slot holds an event")
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("delivered", &self.popped)
            .field("last_ns", &self.last)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(u64, E)> {
        std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.as_nanos(), e))
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::ZERO + SimDuration::from_micros(7), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7_000)));
        q.pop();
        assert_eq!(q.delivered(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_if_refuses_without_removing() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5_000), "late");
        assert_eq!(q.pop_if(|t| t < SimTime::from_nanos(5_000)), None);
        assert_eq!(q.len(), 1);
        // The refused search settled 5000; an earlier push still pops
        // first.
        q.push(SimTime::from_nanos(70), "early");
        let bound = SimTime::from_nanos(5_000);
        assert_eq!(q.pop_if(|t| t <= bound).unwrap().1, "early");
        assert_eq!(q.pop_if(|t| t <= bound).unwrap().1, "late");
        assert_eq!(q.pop_if(|_| true), None);
        assert_eq!(q.delivered(), 2);
    }

    #[test]
    fn spans_many_buckets() {
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for k in 0..=10u32 {
            let t = 3u64 << (6 * k);
            q.push(SimTime::from_nanos(t), k);
            expect.push((t, k));
        }
        expect.sort_unstable();
        assert_eq!(drain(&mut q), expect);
    }

    #[test]
    fn cancel_removes_pending_event() {
        let mut q = EventQueue::new();
        let a = q.push_cancelable(SimTime::from_nanos(10), "a");
        let b = q.push_cancelable(SimTime::from_nanos(20), "b");
        let far = q.push_cancelable(SimTime::from_nanos(1 << 50), "far");
        assert_eq!(q.cancel(a), Some("a"));
        assert_eq!(q.cancel(far), Some("far"));
        assert_eq!(q.len(), 1);
        // Double-cancel and post-pop cancel are no-ops.
        assert_eq!(q.cancel(a), None);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(q.cancel(b), None);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_reaches_now_and_late_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), "first");
        let twin = q.push_cancelable(SimTime::from_nanos(500), "twin");
        q.push(SimTime::from_nanos(500), "head");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop_if(|t| t.as_nanos() < 500), None); // settles 500
        let late = q.push_cancelable(SimTime::from_nanos(300), "late");
        assert_eq!(q.cancel(late), Some("late"));
        assert_eq!(q.cancel(twin), Some("twin"));
        assert_eq!(drain(&mut q), [(500, "head")]);
    }

    #[test]
    fn cancel_token_generation_survives_slab_reuse() {
        let mut q = EventQueue::new();
        let a = q.push_cancelable(SimTime::from_nanos(1), "a");
        q.pop();
        // The slab slot is reused for "b"; the stale token must not hit it.
        let b = q.push_cancelable(SimTime::from_nanos(2), "b");
        assert_eq!(q.cancel(a), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.cancel(b), Some("b"));
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), 0u32);
        assert_eq!(q.pop().unwrap().0, SimTime::from_nanos(100));
        // Same-tick push after a pop at that tick pops immediately.
        q.push(SimTime::from_nanos(100), 1);
        q.push(SimTime::from_nanos(4_000), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        // Past-time push (allowed, delivered next) keeps (at, seq) order.
        q.push(SimTime::from_nanos(50), 3);
        q.push(SimTime::from_nanos(60), 4);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn push_at_a_refused_head_pops_after_it() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5_000), "head");
        q.push(SimTime::from_nanos(9_000), "later");
        // The refusal settles 5000 and moves "head" into `now`; a twin
        // pushed afterwards must queue behind it.
        assert_eq!(q.pop_if(|t| t.as_nanos() < 5_000), None);
        q.push(SimTime::from_nanos(5_000), "twin");
        assert_eq!(
            drain(&mut q),
            [(5_000, "head"), (5_000, "twin"), (9_000, "later")]
        );
    }

    #[test]
    fn push_between_last_pop_and_refused_head_pops_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), "popped");
        q.push(SimTime::from_nanos(5_000), "head");
        assert_eq!(q.pop().unwrap().1, "popped");
        assert_eq!(q.pop_if(|t| t.as_nanos() <= 1_000), None);
        // Behind the settled 5000: through the late map, in (time, push)
        // order, ahead of the head.
        q.push(SimTime::from_nanos(4_000), "late-b");
        q.push(SimTime::from_nanos(3_000), "late-a");
        q.push(SimTime::from_nanos(4_000), "late-c");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3_000)));
        assert_eq!(
            drain(&mut q),
            [
                (3_000, "late-a"),
                (4_000, "late-b"),
                (4_000, "late-c"),
                (5_000, "head")
            ]
        );
    }

    #[test]
    fn instants_across_bit_63_up_to_the_last_nanosecond() {
        let top = 1u64 << 63;
        let mut q = EventQueue::new();
        for (i, t) in [u64::MAX, top, top - 1, 7, u64::MAX - 1, top, u64::MAX]
            .into_iter()
            .enumerate()
        {
            q.push(SimTime::from_nanos(t), i);
        }
        assert_eq!(q.pop(), Some((SimTime::from_nanos(7), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(top - 1), 2)));
        // Past bit 63 now: a push there still orders against the rest.
        q.push(SimTime::from_nanos(top + 1), 7);
        assert_eq!(
            drain(&mut q),
            [
                (top, 1),
                (top, 5),
                (top + 1, 7),
                (u64::MAX - 1, 4),
                (u64::MAX, 0),
                (u64::MAX, 6)
            ]
        );
    }
}
