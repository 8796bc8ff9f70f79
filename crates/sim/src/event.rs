//! The simulation event queue: a hierarchical bucketed timer wheel.
//!
//! Up to PR 7 this was a `BinaryHeap<(SimTime, seq)>`; at fleet scale
//! (millions of queued events across thousands of tenants) the heap's
//! `O(log n)` sift on every push/pop and its per-event allocation churn
//! dominated the simulator's own profile. The wheel replaces it with:
//!
//! * **Hierarchical buckets** — [`LEVELS`] levels of [`SLOTS`] slots each;
//!   level `l` slots are `SLOTS^l` ns wide, so the wheel spans
//!   `SLOTS^LEVELS` ns (≈ 73 minutes) of lookahead. Push is `O(1)`;
//!   pop amortizes cascades over the events that caused them, and reads
//!   a short higher-level slot where it lies instead of cascading it
//!   when its earliest event is provably the queue's. Events
//!   beyond the horizon wait in a `BTreeMap` overflow ("far") list and
//!   re-enter the wheel lazily.
//! * **Slab-allocated nodes** — events live in one grow-only `Vec` with an
//!   embedded free list; slot membership is an intrusive doubly-linked
//!   list of slab indices, so steady-state scheduling allocates nothing.
//! * **Cancel tokens** — [`EventQueue::push_cancelable`] returns a
//!   generation-checked [`CancelToken`]; [`EventQueue::cancel`] unlinks
//!   the node in `O(1)` and returns the event. The heap could only
//!   tombstone.
//!
//! # Ordering contract (unchanged from the heap)
//!
//! Events pop in non-decreasing `(time, push sequence)` order: equal
//! instants are FIFO, which keeps equal-seed traces byte-identical. The
//! wheel may internally advance its cursor while *peeking* (cascading a
//! higher-level slot down), but the cursor never passes the earliest
//! pending event, so an event pushed at or after the last popped time is
//! always delivered in exact order. Pushing *before* the last popped time
//! is delivered as soon as possible (next pop), still `(time, seq)`
//! ordered against any other late events — the same observable behavior
//! the engine's `debug_assert!(t >= now)` permits.

use std::collections::BTreeMap;
use std::fmt;

use crate::SimTime;

/// Slots per wheel level (must be 64: occupancy is a `u64` bitmap).
const SLOTS: usize = 64;
/// log2(SLOTS).
const SLOT_BITS: u32 = 6;
/// Wheel levels. Level `l` covers deltas in `[64^l, 64^(l+1))` ns, so the
/// whole wheel spans `64^7` ns ≈ 4398 s; longer timers go to the far list.
const LEVELS: usize = 7;
/// First delta that no longer fits the wheel.
const SPAN: u64 = 1 << (SLOT_BITS * LEVELS as u32); // 64^LEVELS

/// Sentinel slab index ("null pointer" of the intrusive lists).
const NIL: u32 = u32::MAX;

/// Longest higher-level slot the search reads in place instead of
/// cascading (see [`EventQueue::direct_candidate`]): reading costs one
/// visit per node per pop, cascading one re-placement per node once, so
/// only a short slot is cheaper read where it lies.
const DIRECT_MAX: usize = 8;

/// Where a live node currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// In `levels[level].slots[slot]`'s linked list.
    Wheel { level: u8, slot: u8 },
    /// In the far (beyond-horizon) `BTreeMap`.
    Far,
    /// On the free list (not a live event).
    Free,
}

/// One slab entry: the event plus its intrusive list links.
struct Node<E> {
    at: u64,
    seq: u64,
    /// Bumped on every free; stale [`CancelToken`]s fail the check.
    gen: u32,
    prev: u32,
    next: u32,
    loc: Loc,
    event: Option<E>,
}

/// Head/tail of one slot's doubly-linked node list.
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        head: NIL,
        tail: NIL,
    };
}

/// One wheel level: 64 slots plus an occupancy bitmap.
struct Level {
    occupied: u64,
    slots: [Slot; SLOTS],
}

impl Level {
    fn new() -> Self {
        Level {
            occupied: 0,
            slots: [Slot::EMPTY; SLOTS],
        }
    }
}

/// A handle to a scheduled event, returned by
/// [`EventQueue::push_cancelable`].
///
/// Tokens are generation-checked: cancelling after the event was popped
/// (or already cancelled) is a safe no-op returning `None`, even if the
/// slab entry has been reused for a different event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CancelToken {
    idx: u32,
    gen: u32,
}

/// A time-ordered queue of simulation events.
///
/// Events scheduled for the same instant are delivered in insertion order
/// (FIFO), which makes simulations deterministic: replaying the same seed
/// yields the same event interleaving. See the module docs for the wheel
/// internals and the exact ordering contract.
pub struct EventQueue<E> {
    slab: Vec<Node<E>>,
    /// LIFO free list of slab indices (deterministic reuse order).
    free: Vec<u32>,
    levels: [Level; LEVELS],
    /// Bit `l` is set iff `levels[l]` holds a node: the search visits
    /// only those levels.
    occupied_levels: u8,
    /// Beyond-horizon events keyed by `(at, seq)` — exact global order.
    far: BTreeMap<(u64, u64), u32>,
    /// The wheel cursor in ns. Never passes the earliest pending event.
    cursor: u64,
    seq: u64,
    popped: u64,
    len: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: Vec::new(),
            levels: std::array::from_fn(|_| Level::new()),
            occupied_levels: 0,
            far: BTreeMap::new(),
            cursor: 0,
            seq: 0,
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
        let seq = self.seq;
        self.seq += 1;
        let idx = self.alloc(at.as_nanos(), seq, event);
        self.place(idx);
        self.len += 1;
        CancelToken {
            idx,
            gen: self.slab[idx as usize].gen,
        }
    }

    /// Cancels a scheduled event, returning it if it was still pending.
    ///
    /// Unlinks the slab node in `O(1)`; a token whose event already popped
    /// (or was already cancelled) returns `None`.
    pub fn cancel(&mut self, token: CancelToken) -> Option<E> {
        let node = self.slab.get(token.idx as usize)?;
        if node.gen != token.gen || node.loc == Loc::Free {
            return None;
        }
        self.unlink(token.idx);
        let event = self.release(token.idx);
        self.len -= 1;
        Some(event)
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
    /// a refused call may still cascade and advance the cursor up to (never
    /// past) the refused head.
    pub fn pop_if(&mut self, due: impl FnOnce(SimTime) -> bool) -> Option<(SimTime, E)> {
        let idx = self.find_earliest()?;
        let at = self.slab[idx as usize].at;
        if !due(SimTime::from_nanos(at)) {
            return None;
        }
        self.unlink(idx);
        let event = self.release(idx);
        self.len -= 1;
        self.popped += 1;
        self.cursor = self.cursor.max(at);
        Some((SimTime::from_nanos(at), event))
    }

    /// The delivery instant of the next event, if any.
    ///
    /// Takes `&mut self`: locating the earliest event may cascade
    /// higher-level buckets down (never past that event), which is exactly
    /// the work a subsequent [`pop`](Self::pop) would have done anyway.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let idx = self.find_earliest()?;
        Some(SimTime::from_nanos(self.slab[idx as usize].at))
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

    // ------------------------------------------------------------------
    // Slab management
    // ------------------------------------------------------------------

    fn alloc(&mut self, at: u64, seq: u64, event: E) -> u32 {
        if let Some(idx) = self.free.pop() {
            let node = &mut self.slab[idx as usize];
            node.at = at;
            node.seq = seq;
            node.prev = NIL;
            node.next = NIL;
            node.event = Some(event);
            idx
        } else {
            let idx = self.slab.len() as u32;
            assert!(idx != NIL, "event slab exhausted");
            self.slab.push(Node {
                at,
                seq,
                gen: 0,
                prev: NIL,
                next: NIL,
                loc: Loc::Free,
                event: Some(event),
            });
            idx
        }
    }

    /// Frees a node (bumping its generation) and takes its event out.
    fn release(&mut self, idx: u32) -> E {
        let node = &mut self.slab[idx as usize];
        node.loc = Loc::Free;
        node.gen = node.gen.wrapping_add(1);
        node.prev = NIL;
        node.next = NIL;
        self.free.push(idx);
        node.event.take().expect("released node holds an event")
    }

    // ------------------------------------------------------------------
    // Placement
    // ------------------------------------------------------------------

    /// Inserts node `idx` into the wheel (or far list) according to its
    /// delta from the cursor, appending at the slot tail so same-instant
    /// events keep push order.
    fn place(&mut self, idx: u32) {
        let at = self.slab[idx as usize].at;
        let delta = at.saturating_sub(self.cursor);
        if delta >= SPAN {
            let seq = self.slab[idx as usize].seq;
            self.slab[idx as usize].loc = Loc::Far;
            self.far.insert((at, seq), idx);
            return;
        }
        // Level from the highest set bit of the delta: level l covers
        // deltas in [64^l, 64^(l+1)). A past-time push (delta 0 via
        // saturation) lands in the cursor's own level-0 slot and is
        // delivered on the next pop.
        let level = if delta < SLOTS as u64 {
            0
        } else {
            ((63 - delta.leading_zeros()) / SLOT_BITS) as usize
        };
        let slot = if level == 0 && at < self.cursor {
            (self.cursor >> (SLOT_BITS * level as u32)) as usize & (SLOTS - 1)
        } else {
            (at >> (SLOT_BITS * level as u32)) as usize & (SLOTS - 1)
        };
        self.slab[idx as usize].loc = Loc::Wheel {
            level: level as u8,
            slot: slot as u8,
        };
        let s = &mut self.levels[level].slots[slot];
        if s.tail == NIL {
            s.head = idx;
            s.tail = idx;
        } else {
            self.slab[s.tail as usize].next = idx;
            self.slab[idx as usize].prev = s.tail;
            s.tail = idx;
        }
        self.levels[level].occupied |= 1 << slot;
        self.occupied_levels |= 1 << level;
    }

    /// Marks `levels[level].slots[slot]` (just emptied) unoccupied.
    fn vacate(&mut self, level: usize, slot: usize) {
        self.levels[level].occupied &= !(1 << slot);
        if self.levels[level].occupied == 0 {
            self.occupied_levels &= !(1 << level);
        }
    }

    /// Unlinks a live node from whichever container holds it.
    fn unlink(&mut self, idx: u32) {
        match self.slab[idx as usize].loc {
            Loc::Wheel { level, slot } => {
                let (prev, next) = {
                    let n = &self.slab[idx as usize];
                    (n.prev, n.next)
                };
                if prev != NIL {
                    self.slab[prev as usize].next = next;
                }
                if next != NIL {
                    self.slab[next as usize].prev = prev;
                }
                let s = &mut self.levels[level as usize].slots[slot as usize];
                if s.head == idx {
                    s.head = next;
                }
                if s.tail == idx {
                    s.tail = prev;
                }
                if s.head == NIL {
                    self.vacate(level as usize, slot as usize);
                }
            }
            Loc::Far => {
                let key = {
                    let n = &self.slab[idx as usize];
                    (n.at, n.seq)
                };
                self.far.remove(&key);
            }
            Loc::Free => unreachable!("unlink of a free node"),
        }
    }

    // ------------------------------------------------------------------
    // Search & cascades
    // ------------------------------------------------------------------

    /// Lower-bound arrival time of the first occupied slot of `level`
    /// (which must hold a node), as `(slot, start_time)`, walking forward
    /// from the cursor.
    ///
    /// The start is a lower bound on every event in the slot, exact for
    /// all but two mixed-content cases (late pushes in level 0's current
    /// slot; a higher level's current slot straddling the cursor's block
    /// and the next rotation), which the caller resolves by scanning or
    /// cascading respectively.
    fn level_candidate(&self, level: usize) -> (usize, u64) {
        let lv = &self.levels[level];
        debug_assert!(lv.occupied != 0, "candidate of an empty level");
        let shift = SLOT_BITS * level as u32;
        let block = self.cursor >> shift; // current slot counter
        let cur = (block as usize) & (SLOTS - 1);
        // Rotate so the current slot is bit 0, then take the first set bit.
        let rotated = lv.occupied.rotate_right(cur as u32);
        let dist = rotated.trailing_zeros() as u64; // 0 = the current slot
        if dist == 0 {
            let slot = cur;
            if level == 0 || self.slot_holds_current_block(level, slot, block) {
                // The cursor's own slot with current-tick content: level 0
                // may mix late pushes with the cursor-tick event (exact
                // times read by the caller); a higher level holding a
                // current-block event must cascade now. Either way the
                // cursor does not move.
                return (slot, self.cursor);
            }
            // The cursor's slot holds only next-rotation events (same
            // residue, 64 blocks on) — a full rotation LATER than any
            // other occupied slot at this level, so rotation distance is
            // not monotone in time here: prefer the next occupied slot if
            // there is one.
            let rest = rotated & !1;
            if rest != 0 {
                let dist = rest.trailing_zeros() as u64;
                let slot = (cur + dist as usize) & (SLOTS - 1);
                return (slot, (block + dist) << shift);
            }
            return (slot, (block + SLOTS as u64) << shift);
        }
        // A distance-d slot (d >= 1) holds exactly block `block + d`
        // events: an older rotation would already have been passed (the
        // cursor never passes a pending event) and a newer one would need
        // placement distance d + 64 > 64, more than placement allows.
        let slot = (cur + dist as usize) & (SLOTS - 1);
        (slot, (block + dist) << shift)
    }

    /// Whether any node in `levels[level].slots[slot]` belongs to the
    /// cursor's current block at that level (as opposed to the next
    /// rotation, 64 blocks later — the only other possibility).
    fn slot_holds_current_block(&self, level: usize, slot: usize, block: u64) -> bool {
        let shift = SLOT_BITS * level as u32;
        let mut cur = self.levels[level].slots[slot].head;
        while cur != NIL {
            let n = &self.slab[cur as usize];
            if n.at >> shift == block {
                return true;
            }
            cur = n.next;
        }
        false
    }

    /// The `(at, seq)`-earliest node of a higher-level slot, if the slot
    /// holds at most [`DIRECT_MAX`] nodes and that node's instant is
    /// strictly earlier than `rest`, a lower bound on every event outside
    /// the slot's level.
    ///
    /// Such a node is the queue's earliest where it lies: the slot is its
    /// level's first, so the rest of the level is later, and strictness
    /// leaves no equal-instant twin elsewhere that a lower `seq` would put
    /// ahead of it.
    fn direct_candidate(&self, level: usize, slot: usize, rest: u64) -> Option<u32> {
        let mut cur = self.levels[level].slots[slot].head;
        let mut min = (u64::MAX, u64::MAX, NIL);
        for _ in 0..DIRECT_MAX {
            if cur == NIL {
                break;
            }
            let n = &self.slab[cur as usize];
            min = min.min((n.at, n.seq, cur));
            cur = n.next;
        }
        (cur == NIL && min.0 < rest).then_some(min.2)
    }

    /// Finds the slab index of the earliest `(at, seq)` event, cascading
    /// higher-level buckets down (and pulling far events in) until it sits
    /// in a level-0 slot or is the [`direct_candidate`](Self::direct_candidate)
    /// of a short higher-level one. Advances the cursor, but never past
    /// the earliest pending event. Returns `None` when the queue is empty.
    fn find_earliest(&mut self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Best wheel candidate: the lowest lower-bound start time.
            // Ties prefer the HIGHEST level: a tied higher-level slot must
            // cascade before level 0 is read, or a same-instant event
            // stuck up-wheel would pop after a later-pushed twin (FIFO
            // violation). Cascading on a tie is always safe — it only
            // redistributes nodes — so `<=` keeps the last (highest) tie.
            // `rest` is the lowest bound among the levels that lost.
            let mut best: Option<(usize, usize, u64)> = None; // (level, slot, start)
            let mut rest = u64::MAX;
            let mut levels = self.occupied_levels;
            while levels != 0 {
                let level = levels.trailing_zeros() as usize;
                levels &= levels - 1;
                let (slot, start) = self.level_candidate(level);
                match best {
                    Some((_, _, s)) if s < start => rest = rest.min(start),
                    Some((_, _, s)) => {
                        rest = rest.min(s);
                        best = Some((level, slot, start));
                    }
                    None => best = Some((level, slot, start)),
                }
            }
            let far = self.far.first_key_value().map(|(&key, &idx)| (key, idx));
            match (best, far) {
                (None, None) => return None,
                // Far event at or before every wheel lower bound: advance
                // and pull it in. Ties also pull (`<=`): an equal-time far
                // event may carry a lower seq than its wheel twin, and
                // once in the wheel the level-0 scan orders them exactly.
                (best, Some((key, idx))) if best.is_none_or(|(_, _, s)| key.0 <= s) => {
                    // `key.0 <= min start <= min wheel at`, so the cursor
                    // may jump to it without passing anything. The guard
                    // is vacuously true for an empty wheel, so a far
                    // event always finds a home here.
                    self.cursor = self.cursor.max(key.0);
                    self.far.remove(&key);
                    self.place(idx);
                }
                (None, Some(_)) => unreachable!("far pull guard covers an empty wheel"),
                (Some((0, slot, start)), _) => {
                    // Exact: scan the slot for the minimum (at, seq).
                    // Normally all nodes share one tick (only push order
                    // varies); the cursor's own slot may also hold late
                    // pushes with arbitrary earlier times.
                    self.cursor = self.cursor.max(start);
                    let mut cur = self.levels[0].slots[slot].head;
                    let mut min_idx = cur;
                    let mut min_key = {
                        let n = &self.slab[cur as usize];
                        (n.at, n.seq)
                    };
                    while cur != NIL {
                        let n = &self.slab[cur as usize];
                        if (n.at, n.seq) < min_key {
                            min_key = (n.at, n.seq);
                            min_idx = cur;
                        }
                        cur = n.next;
                    }
                    return Some(min_idx);
                }
                (Some((level, slot, start)), far) => {
                    // No pending event precedes `start`, so the cursor
                    // may advance to it: the slot is then the cursor's
                    // own block at its level, which `level_candidate`
                    // reports as `(slot, cursor)` for as long as a
                    // current-block node stays in it.
                    self.cursor = self.cursor.max(start);
                    let rest = far.map_or(rest, |((at, _), _)| rest.min(at));
                    if let Some(idx) = self.direct_candidate(level, slot, rest) {
                        return Some(idx);
                    }
                    // Cascade. Current-block nodes re-place at least one
                    // level lower (their delta from the cursor is under
                    // this level's slot width); next-rotation nodes
                    // re-place by their own delta and are found again via
                    // their true block start.
                    let mut cur = self.levels[level].slots[slot].head;
                    self.levels[level].slots[slot] = Slot::EMPTY;
                    self.vacate(level, slot);
                    while cur != NIL {
                        let next = self.slab[cur as usize].next;
                        self.slab[cur as usize].prev = NIL;
                        self.slab[cur as usize].next = NIL;
                        self.place(cur);
                        cur = next;
                    }
                }
            }
        }
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
            .field("cursor_ns", &self.cursor)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

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
        // The refused search cascaded towards 5000; an earlier push still
        // pops first.
        q.push(SimTime::from_nanos(70), "early");
        let bound = SimTime::from_nanos(5_000);
        assert_eq!(q.pop_if(|t| t <= bound).unwrap().1, "early");
        assert_eq!(q.pop_if(|t| t <= bound).unwrap().1, "late");
        assert_eq!(q.pop_if(|_| true), None);
        assert_eq!(q.delivered(), 2);
    }

    #[test]
    fn crosses_level_boundaries() {
        // One event per level, including one past the wheel horizon.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for l in 0..=LEVELS as u32 {
            let t = 3u64 << (SLOT_BITS * l);
            q.push(SimTime::from_nanos(t), l);
            expect.push((t, l));
        }
        expect.sort_unstable();
        let got: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.as_nanos(), e))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn far_events_reenter_the_wheel() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(SPAN * 2 + 5), "far");
        q.push(SimTime::from_nanos(1), "near");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(SPAN * 2 + 5)));
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_removes_pending_event() {
        let mut q = EventQueue::new();
        let a = q.push_cancelable(SimTime::from_nanos(10), "a");
        let b = q.push_cancelable(SimTime::from_nanos(20), "b");
        let far = q.push_cancelable(SimTime::from_nanos(SPAN * 3), "far");
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
    fn next_rotation_slot_does_not_mask_nearer_slots() {
        // Regression: with the cursor at 100 (level-1 block 1, residue 1),
        // an event at 4160 lands in level-1 block 65 — the SAME residue,
        // i.e. the cursor's own slot, one rotation ahead. A later event at
        // 200 (block 3) sits two slots "ahead" by rotation distance but
        // 3960 ns earlier in time. The level scan must not let the
        // rotation-distance-0 slot shadow it.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), "setup");
        assert_eq!(q.pop().unwrap().1, "setup"); // cursor -> 100
        q.push(SimTime::from_nanos(4_160), "next-rotation");
        q.push(SimTime::from_nanos(200), "nearer");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(200), "nearer")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(4_160), "next-rotation")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn dense_same_slot_distinct_ticks_stay_sorted() {
        // Distinct nanoseconds mapping to one level-1 slot must still pop
        // in time order after the cascade redistributes them.
        let mut q = EventQueue::new();
        for i in (0..SLOTS as u64).rev() {
            q.push(SimTime::from_nanos(SLOTS as u64 + i), i);
        }
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, (0..SLOTS as u64).collect::<Vec<_>>());
    }

    /// The earliest pending instant, by brute force over the slab.
    fn earliest_pending<E>(q: &EventQueue<E>) -> Option<u64> {
        q.slab
            .iter()
            .filter(|n| n.loc != Loc::Free)
            .map(|n| n.at)
            .min()
    }

    #[test]
    fn short_slots_pop_where_they_lie_and_the_cursor_never_passes_an_event() {
        let mut rng = crate::SimRng::seed_from_u64(22);
        let mut q = EventQueue::new();
        let mut in_place = 0;
        // Every push is at or after the cursor (a push behind it is the
        // late-push case, delivered next whatever the cursor says), so
        // the cursor must never be found past a pending event.
        for step in 0..4_000u64 {
            // A cluster of 1..=9 events some microseconds ahead: one
            // higher-level slot, on either side of the cap.
            let base = q.cursor + rng.range(64, 300_000);
            for i in 0..rng.range(1, 10) {
                q.push(SimTime::from_nanos(base + i * rng.below(4)), step);
            }
            for _ in 0..rng.range(1, 12) {
                let Some(idx) = q.find_earliest() else {
                    break;
                };
                let head = q.slab[idx as usize].at;
                assert_eq!(Some(head), earliest_pending(&q));
                assert!(q.cursor <= head, "the search passed the head");
                if matches!(q.slab[idx as usize].loc, Loc::Wheel { level, .. } if level > 0) {
                    in_place += 1;
                }
                if rng.chance(0.2) {
                    // A refused peek, then a push before the refused head:
                    // into the head's own block, where the cursor now is.
                    assert_eq!(q.pop_if(|t| t.as_nanos() < head), None);
                    assert!(q.cursor <= head);
                    q.push(SimTime::from_nanos(rng.range(q.cursor, head + 1)), step);
                }
                let (at, _) = q.pop().expect("a head was found");
                assert!(at.as_nanos() <= head);
                assert_eq!(q.cursor, at.as_nanos());
                assert!(earliest_pending(&q).is_none_or(|next| q.cursor <= next));
            }
        }
        assert!(
            in_place > 1_000,
            "only {in_place} pops were served in place"
        );
    }
}
