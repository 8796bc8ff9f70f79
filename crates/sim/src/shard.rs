//! Sharded execution: deterministic conservative-lookahead DES rounds.
//!
//! A fleet-scale run partitions the topology by rack and gives every rack
//! its own event loop (a [`ShardSim`]). Racks only interact through
//! inter-rack links, whose latency is a *lookahead bound*: an event
//! executed at time `t` cannot affect another shard before `t + L`. The
//! [`ShardedExecutor`] exploits that with the classic conservative
//! (CMB-style) round protocol:
//!
//! 1. compute `global_next`, the earliest pending event across all
//!    shards;
//! 2. let every shard run its local events *strictly before*
//!    `global_next + L`, buffering cross-shard messages in an [`Outbox`];
//! 3. route the buffered messages in globally sorted order, then repeat.
//!
//! Strict `<` matters: an event exactly at `global_next` may emit a
//! message arriving exactly at `global_next + L`, which must be delivered
//! before any shard reaches that instant.
//!
//! The executor is single-threaded: the shards of a round run one after
//! the other on the calling thread. What partitioning buys is not
//! wall-clock speed but a result that does not depend on the layout.
//!
//! # Determinism
//!
//! Equal seeds stay byte-identical regardless of how racks are packed
//! into shards:
//!
//! * the round bounds depend only on event timestamps;
//! * within a round a shard sees only its own events, so its internal
//!   event order is the sequential order whatever ran before it;
//! * cross-shard messages are injected in sorted
//!   `(arrival, sender key, source shard, emission index)` order — a
//!   total order derived only from simulation state — so every shard's
//!   incoming FIFO sequence numbers are reproducible.
//!
//! Merged outputs (traces, stats) come back as the shard vector in
//! shard-id order for the caller to join.

use crate::{SimDuration, SimTime};

/// A cross-shard message buffered during a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMsg<M> {
    /// Simulation instant at which the message arrives at `dest`.
    pub at: SimTime,
    /// Destination shard id.
    pub dest: usize,
    /// Ordering key chosen by the emitting shard, compared before its id
    /// when same-instant messages are injected. Deriving it from
    /// simulation state (e.g. source *rack* id and a per-rack counter)
    /// makes injection order independent of how racks are packed into
    /// shards; `0` is fine when the shard layout is fixed.
    pub key: u64,
    /// Payload.
    pub msg: M,
}

/// Collects a shard's outgoing cross-shard messages during
/// [`ShardSim::run_until`].
#[derive(Debug)]
pub struct Outbox<M> {
    msgs: Vec<ShardMsg<M>>,
}

impl<M> Outbox<M> {
    fn new() -> Self {
        Outbox { msgs: Vec::new() }
    }

    /// Buffers a message for `dest`, arriving at instant `at`, ordered
    /// among same-instant messages by `key` (see [`ShardMsg::key`]).
    ///
    /// `at` must be at least the emitting event's time plus the
    /// executor's lookahead (the inter-shard link latency) — the protocol
    /// relies on it and the executor asserts it per round.
    pub fn send(&mut self, dest: usize, at: SimTime, key: u64, msg: M) {
        self.msgs.push(ShardMsg { at, dest, key, msg });
    }

    /// Number of buffered messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

/// One partition (rack) of a sharded simulation.
///
/// Implementations wrap their own [`EventQueue`](crate::EventQueue),
/// state, and trace sink; the executor only needs the three scheduling
/// hooks below.
pub trait ShardSim {
    /// Payload carried between shards.
    type Msg;

    /// The instant of the earliest pending local event, if any.
    fn next_time(&mut self) -> Option<SimTime>;

    /// Runs every local event with time **strictly before** `bound`,
    /// buffering cross-shard sends into `outbox`.
    fn run_until(&mut self, bound: SimTime, outbox: &mut Outbox<Self::Msg>);

    /// Injects a message from another shard, arriving at instant `at`.
    ///
    /// Calls arrive in globally sorted `(at, sender key, source shard,
    /// emission index)` order; implementations typically just push an
    /// event.
    fn deliver(&mut self, at: SimTime, msg: Self::Msg);
}

/// Runs a set of [`ShardSim`]s to completion, round by round.
///
/// See the module docs for the protocol and determinism argument.
pub struct ShardedExecutor {
    lookahead: SimDuration,
}

impl ShardedExecutor {
    /// Creates an executor with the given lookahead (the minimum
    /// inter-shard latency).
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is zero (the conservative protocol cannot
    /// make progress without it).
    pub fn new(lookahead: SimDuration) -> Self {
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative sync needs a positive lookahead"
        );
        ShardedExecutor { lookahead }
    }

    /// Runs every shard until all local events at or before `end` (and
    /// every message they trigger) have executed, then returns the shards
    /// in shard-id order.
    pub fn run<S: ShardSim>(&self, mut shards: Vec<S>, end: SimTime) -> Vec<S> {
        let mut outbox = Outbox::new();
        // `(source shard, emission index, msg)` buffered by the last round.
        let mut in_flight: Vec<(usize, usize, ShardMsg<S::Msg>)> = Vec::new();
        // Round zero runs nothing (`bound` 0) and reads the first horizon.
        let mut bound = SimTime::ZERO;
        loop {
            // Total injection order: (arrival, sender key, source shard,
            // emission index) — reproducible from simulation state alone.
            in_flight.sort_by_key(|(src, emit_idx, m)| (m.at, m.key, *src, *emit_idx));
            for (_, _, m) in in_flight.drain(..) {
                assert!(m.dest < shards.len(), "message to unknown shard");
                shards[m.dest].deliver(m.at, m.msg);
            }
            let mut local_next: Option<SimTime> = None;
            for (id, shard) in shards.iter_mut().enumerate() {
                shard.run_until(bound, &mut outbox);
                for (emit_idx, m) in outbox.msgs.drain(..).enumerate() {
                    debug_assert!(
                        m.at >= bound,
                        "cross-shard message undercuts the lookahead bound"
                    );
                    in_flight.push((id, emit_idx, m));
                }
                local_next = [local_next, shard.next_time()].into_iter().flatten().min();
            }

            // The horizon is the earliest thing that can still happen: the
            // minimum over local queues AND in-flight message arrivals. An
            // in-flight message can precede every local event, and its
            // consequences (delivered at round start, above) may emit new
            // messages as early as `arrival + L` — so the bound must not
            // outrun `arrival + L` either.
            let inflight_next = in_flight.iter().map(|(_, _, m)| m.at).min();
            let horizon = match [local_next, inflight_next].into_iter().flatten().min() {
                Some(t) if t <= end => t,
                // Nothing left at or before `end` (later arrivals can only
                // schedule work past `end`).
                _ => return shards,
            };
            bound = SimTime::from_nanos(
                horizon
                    .as_nanos()
                    .saturating_add(self.lookahead.as_nanos())
                    .min(end.as_nanos().saturating_add(1)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventQueue;

    /// A toy shard: a queue of `(time, value)` events; every multiple-of-k
    /// value forwards `value + 1` to the next shard after `LATENCY`.
    struct Toy {
        id: usize,
        shards: usize,
        q: EventQueue<u64>,
        log: Vec<(u64, u64)>, // (time ns, value)
    }

    impl ShardSim for Toy {
        type Msg = u64;

        fn next_time(&mut self) -> Option<SimTime> {
            self.q.peek_time()
        }

        fn run_until(&mut self, bound: SimTime, outbox: &mut Outbox<u64>) {
            while let Some((t, v)) = self.q.pop_if(|t| t < bound) {
                self.log.push((t.as_nanos(), v));
                if v % 3 == 0 {
                    outbox.send((self.id + 1) % self.shards, t + LATENCY, 0, v + 1);
                }
            }
        }

        fn deliver(&mut self, at: SimTime, msg: u64) {
            self.q.push(at, msg);
        }
    }

    const LATENCY: SimDuration = SimDuration::from_micros(5);

    fn toy(id: usize, shards: usize) -> Toy {
        Toy {
            id,
            shards,
            q: EventQueue::new(),
            log: Vec::new(),
        }
    }

    fn toys(shards: usize) -> Vec<Toy> {
        let mut sims: Vec<Toy> = (0..shards).map(|id| toy(id, shards)).collect();
        for (id, sim) in sims.iter_mut().enumerate() {
            for k in 0..20u64 {
                sim.q
                    .push(SimTime::from_nanos(1 + k * 700 + id as u64), k * 3);
            }
        }
        sims
    }

    fn run_toy(shards: usize) -> Vec<Vec<(u64, u64)>> {
        let exec = ShardedExecutor::new(LATENCY);
        let done = exec.run(toys(shards), SimTime::from_millis(10));
        done.into_iter().map(|s| s.log).collect()
    }

    /// The same toy system on one global queue: what the sharded rounds
    /// must reproduce shard by shard.
    fn run_sequential(shards: usize) -> Vec<Vec<(u64, u64)>> {
        let mut q = EventQueue::new();
        for (id, sim) in toys(shards).iter_mut().enumerate() {
            while let Some((t, v)) = sim.q.pop() {
                q.push(t, (id, v));
            }
        }
        let mut logs = vec![Vec::new(); shards];
        while let Some((t, (id, v))) = q.pop() {
            logs[id].push((t.as_nanos(), v));
            if v % 3 == 0 {
                q.push(t + LATENCY, ((id + 1) % shards, v + 1));
            }
        }
        logs
    }

    #[test]
    fn every_shard_count_matches_the_sequential_run() {
        for shards in [1, 2, 4] {
            assert_eq!(run_toy(shards), run_sequential(shards), "{shards} shards");
        }
        // Messages actually crossed shards.
        assert!(run_toy(4).iter().all(|log| log.len() > 20));
    }

    #[test]
    fn events_at_end_instant_run() {
        let mut sims = vec![toy(0, 1)];
        sims[0].q.push(SimTime::from_millis(10), 1);
        let exec = ShardedExecutor::new(SimDuration::from_micros(1));
        let done = exec.run(sims, SimTime::from_millis(10));
        assert_eq!(done[0].log, vec![(10_000_000, 1)]);
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_is_rejected() {
        let _ = ShardedExecutor::new(SimDuration::ZERO);
    }
}
