//! Sharded multi-core execution: conservative-lookahead parallel DES.
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
//!    `global_next + L` in parallel, buffering cross-shard messages in an
//!    [`Outbox`];
//! 3. route the buffered messages in globally sorted order, then repeat.
//!
//! Strict `<` matters: an event exactly at `global_next` may emit a
//! message arriving exactly at `global_next + L`, which must be delivered
//! before any shard reaches that instant.
//!
//! # Determinism
//!
//! Equal seeds stay byte-identical regardless of worker-thread count:
//!
//! * the round bounds depend only on event timestamps, never on thread
//!   scheduling;
//! * each shard is single-threaded within a round, so its internal event
//!   order is the sequential order;
//! * cross-shard messages are injected in sorted
//!   `(arrival, sender key, source shard, emission index)` order — a
//!   total order derived only from simulation state — so every shard's
//!   incoming FIFO sequence numbers are reproducible.
//!
//! Workers merely multiplex shards (shard `i` belongs to worker
//! `i % threads`, worker 0 being the caller); moving a shard to another
//! worker changes wall clock, not results. Merged outputs (traces, stats)
//! come back as the shard vector in shard-id order for the caller to join.

use std::sync::mpsc;

use crate::{SimDuration, SimTime};

/// A cross-shard message buffered during a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMsg<M> {
    /// Simulation instant at which the message arrives at `dest`.
    pub at: SimTime,
    /// Destination shard id.
    pub dest: usize,
    /// Sender-supplied ordering key, compared before the source shard id
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
pub trait ShardSim: Send {
    /// Payload carried between shards.
    type Msg: Send;

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

/// Runs a set of [`ShardSim`]s to completion on a pool of OS threads.
///
/// See the module docs for the protocol and determinism argument.
pub struct ShardedExecutor {
    lookahead: SimDuration,
    threads: usize,
}

/// Messages routed to one worker for a round: `(dest shard, arrival,
/// msg)` in global injection order.
type Inbox<M> = Vec<(usize, SimTime, M)>;

/// A worker's report after a round.
struct Report<M> {
    /// `(shard id, next_time)` for each owned shard.
    next: Vec<(usize, Option<SimTime>)>,
    /// `(source shard, emission index, msg)` for each buffered message.
    sent: Vec<(usize, usize, ShardMsg<M>)>,
}

/// One worker's share of a round: deliver `inbox`, then run every owned
/// shard to `bound`. `owned` holds shards `w, w + threads, ...` in
/// ascending id order, so shard `dest` sits at index `dest / threads`.
fn run_round<S: ShardSim>(
    owned: &mut [(usize, S)],
    threads: usize,
    outbox: &mut Outbox<S::Msg>,
    bound: SimTime,
    inbox: Inbox<S::Msg>,
) -> Report<S::Msg> {
    for (dest, at, msg) in inbox {
        let (id, shard) = &mut owned[dest / threads];
        debug_assert_eq!(*id, dest, "routed to owner");
        shard.deliver(at, msg);
    }
    let mut report = Report {
        next: Vec::with_capacity(owned.len()),
        sent: Vec::new(),
    };
    for (id, shard) in owned.iter_mut() {
        shard.run_until(bound, outbox);
        for (emit_idx, m) in outbox.msgs.drain(..).enumerate() {
            debug_assert!(
                m.at >= bound,
                "cross-shard message undercuts the lookahead bound"
            );
            report.sent.push((*id, emit_idx, m));
        }
        report.next.push((*id, shard.next_time()));
    }
    report
}

impl ShardedExecutor {
    /// Creates an executor with the given lookahead (the minimum
    /// inter-shard latency) and worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is zero (the conservative protocol cannot
    /// make progress without it) or `threads` is zero.
    pub fn new(lookahead: SimDuration, threads: usize) -> Self {
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative sync needs a positive lookahead"
        );
        assert!(threads > 0, "need at least one worker thread");
        ShardedExecutor { lookahead, threads }
    }

    /// Runs every shard until all local events at or before `end` (and
    /// every message they trigger) have executed, then returns the shards
    /// in shard-id order.
    ///
    /// The calling thread is worker 0; only workers `1..threads` are
    /// spawned, each behind one command and one report channel, so a
    /// single-threaded run involves no thread and no channel.
    ///
    /// # Panics
    ///
    /// Panics if a shard panics, on whichever worker it ran.
    pub fn run<S: ShardSim>(&self, shards: Vec<S>, end: SimTime) -> Vec<S> {
        if shards.is_empty() {
            return shards;
        }
        let shard_count = shards.len();
        let threads = self.threads.min(shard_count);
        // Shard i lives on worker i % threads for the whole run.
        let mut owned: Vec<Vec<(usize, S)>> = (0..threads).map(|_| Vec::new()).collect();
        for (id, shard) in shards.into_iter().enumerate() {
            owned[id % threads].push((id, shard));
        }
        let mut mine = owned.remove(0);

        let mut finished = std::thread::scope(|scope| {
            let helpers: Vec<_> = owned
                .into_iter()
                .map(|mut set| {
                    let (cmd_tx, cmd_rx) = mpsc::channel::<(SimTime, Inbox<S::Msg>)>();
                    let (report_tx, report_rx) = mpsc::channel();
                    let handle = scope.spawn(move || {
                        let mut outbox = Outbox::new();
                        // Ends when the caller drops `cmd_tx`: run over, or
                        // the caller is unwinding from a peer's panic.
                        while let Ok((bound, inbox)) = cmd_rx.recv() {
                            let report = run_round(&mut set, threads, &mut outbox, bound, inbox);
                            if report_tx.send(report).is_err() {
                                break;
                            }
                        }
                        set
                    });
                    (cmd_tx, report_rx, handle)
                })
                .collect();

            let mut outbox = Outbox::new();
            let mut next_times: Vec<Option<SimTime>> = vec![None; shard_count];
            let mut in_flight: Vec<(usize, usize, ShardMsg<S::Msg>)> = Vec::new();
            let mut inboxes: Vec<Inbox<S::Msg>> = (0..threads).map(|_| Vec::new()).collect();
            // Round zero runs nothing (`bound` 0) and seeds `next_times`.
            let mut bound = SimTime::ZERO;
            loop {
                // Total injection order: (arrival, sender key, source
                // shard, emission index) — reproducible from simulation
                // state alone, never from thread timing.
                in_flight.sort_by_key(|(src, emit_idx, m)| (m.at, m.key, *src, *emit_idx));
                for (_, _, m) in in_flight.drain(..) {
                    assert!(m.dest < shard_count, "message to unknown shard");
                    inboxes[m.dest % threads].push((m.dest, m.at, m.msg));
                }
                for ((cmd_tx, _, _), inbox) in helpers.iter().zip(&mut inboxes[1..]) {
                    let cmd = (bound, std::mem::take(inbox));
                    cmd_tx.send(cmd).expect("shard worker panicked");
                }
                let mut absorb = |report: Report<S::Msg>| {
                    for (id, t) in report.next {
                        next_times[id] = t;
                    }
                    in_flight.extend(report.sent);
                };
                let my_inbox = std::mem::take(&mut inboxes[0]);
                absorb(run_round(&mut mine, threads, &mut outbox, bound, my_inbox));
                for (_, report_rx, _) in &helpers {
                    absorb(report_rx.recv().expect("shard worker panicked"));
                }

                // The horizon is the earliest thing that can still happen:
                // the minimum over local queues AND in-flight message
                // arrivals. An in-flight message can precede every local
                // event, and its consequences (delivered at round start,
                // above) may emit new messages as early as `arrival + L` —
                // so the bound must not outrun `arrival + L` either.
                let local_next = next_times.iter().flatten().min().copied();
                let inflight_next = in_flight.iter().map(|(_, _, m)| m.at).min();
                let horizon = match [local_next, inflight_next].into_iter().flatten().min() {
                    Some(t) if t <= end => t,
                    // Nothing left at or before `end` (later arrivals can
                    // only schedule work past `end`).
                    _ => break,
                };
                bound = SimTime::from_nanos(
                    horizon
                        .as_nanos()
                        .saturating_add(self.lookahead.as_nanos())
                        .min(end.as_nanos().saturating_add(1)),
                );
            }

            for (cmd_tx, _, handle) in helpers {
                drop(cmd_tx);
                mine.extend(handle.join().expect("shard worker panicked"));
            }
            mine
        });

        // Return in shard-id order regardless of worker ownership.
        finished.sort_by_key(|(id, _)| *id);
        finished.into_iter().map(|(_, shard)| shard).collect()
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
            while let Some(t) = self.q.peek_time() {
                if t >= bound {
                    break;
                }
                let (t, v) = self.q.pop().expect("peeked");
                assert_ne!(v, POISON, "shard hit the poisoned event");
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

    /// An event value whose execution panics the shard running it.
    const POISON: u64 = u64::MAX;
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

    fn run_toy(shards: usize, threads: usize) -> Vec<Vec<(u64, u64)>> {
        let exec = ShardedExecutor::new(LATENCY, threads);
        let done = exec.run(toys(shards), SimTime::from_millis(10));
        done.into_iter().map(|s| s.log).collect()
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let base = run_toy(4, 1);
        assert_eq!(base, run_toy(4, 2));
        assert_eq!(base, run_toy(4, 4));
        // Messages actually crossed shards.
        assert!(base.iter().all(|log| log.len() > 20));
        // More threads than shards: the surplus workers are never spawned.
        assert_eq!(run_toy(2, 1), run_toy(2, 4));
    }

    /// Shard 1 runs on the helper thread; its panic must surface from
    /// `run` through the closed channel, not leave the caller waiting.
    #[test]
    #[should_panic(expected = "shard worker panicked")]
    fn helper_panic_fails_the_run_instead_of_hanging() {
        let mut sims = toys(2);
        sims[1].q.push(SimTime::from_nanos(50_000), POISON);
        ShardedExecutor::new(LATENCY, 2).run(sims, SimTime::from_millis(10));
    }

    #[test]
    fn single_shard_matches_sequential() {
        let logs = run_toy(1, 1);
        let mut sorted = logs[0].clone();
        sorted.sort();
        assert_eq!(logs[0], sorted, "events ran in time order");
    }

    #[test]
    fn events_at_end_instant_run() {
        let mut sims = vec![toy(0, 1)];
        sims[0].q.push(SimTime::from_millis(10), 1);
        let exec = ShardedExecutor::new(SimDuration::from_micros(1), 1);
        let done = exec.run(sims, SimTime::from_millis(10));
        assert_eq!(done[0].log, vec![(10_000_000, 1)]);
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_is_rejected() {
        let _ = ShardedExecutor::new(SimDuration::ZERO, 1);
    }
}
