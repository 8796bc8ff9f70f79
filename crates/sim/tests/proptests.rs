//! Property-based tests for the simulation toolkit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use storm_sim::{CancelToken, CpuModel, EventQueue, SerialResource, SimDuration, SimTime};

/// The event queue's differential reference model: a binary heap
/// ordered by `(time, push sequence)`.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    live: std::collections::BTreeMap<u64, u64>, // seq -> at (for cancels)
    seq: u64,
}

impl HeapModel {
    fn push(&mut self, at: u64) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((at, seq)));
        self.live.insert(seq, at);
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        // Heap entries are tombstoned lazily: pop skips dead seqs.
        self.live.remove(&seq).is_some()
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        while let Some(Reverse((at, seq))) = self.heap.pop() {
            if self.live.remove(&seq).is_some() {
                return Some((at, seq));
            }
        }
        None
    }

    /// `(time, seq)` of the earliest live event (drops tombstones on the
    /// way).
    fn peek(&mut self) -> Option<(u64, u64)> {
        while let Some(&Reverse((at, seq))) = self.heap.peek() {
            if self.live.contains_key(&seq) {
                return Some((at, seq));
            }
            self.heap.pop();
        }
        None
    }
}

/// The queue and its reference, pushed into together.
#[derive(Default)]
struct Pair {
    queue: EventQueue<u64>,
    heap: HeapModel,
    /// seq -> queue token, for cancel targeting (kept sorted by seq).
    tokens: Vec<(u64, CancelToken)>,
}

impl Pair {
    /// The engine never schedules into the past; callers mirror it by
    /// pushing at or after the last popped instant.
    fn push(&mut self, at: u64) {
        let seq = self.heap.push(at);
        let tok = self.queue.push_cancelable(SimTime::from_nanos(at), seq);
        self.tokens.push((seq, tok));
    }
}

/// One step of the differential driver.
#[derive(Debug, Clone)]
enum Op {
    Push {
        at: u64,
    },
    /// Cancel the i-th oldest still-cancelable push (mod live count).
    Cancel {
        nth: usize,
    },
    Pop,
    /// `pop_if` with a bound `delta` ns around the head's time, strict
    /// (`<`) or inclusive (`<=`). When it refuses, an event is pushed
    /// before the refused head, which the refusal settled: `early` ns (mod
    /// the gap) after the last pop, or, when `near`, up to 4 µs before the
    /// head.
    PopIf {
        delta: i64,
        inclusive: bool,
        early: u64,
        near: bool,
    },
    /// `n` pushes `gap` ns apart (0: one instant), close enough to share
    /// a bucket.
    Cluster {
        at: u64,
        n: u64,
        gap: u64,
    },
    /// A push at the exact instant of the nth pending event. The head
    /// has usually moved since that one was placed, so the twin arrives
    /// after its sibling was redistributed, or beside it in `now`.
    Twin {
        nth: usize,
    },
    /// Cancel the earliest pending event, after a `peek_time` that
    /// settled it when `peek` is set.
    CancelHead {
        peek: bool,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Pushes dominate (three arms); deltas span same-tick up to well past
    // an hour, so keys start in buckets from the lowest to bit 42.
    prop_oneof![
        (0u64..20_000_000_000).prop_map(|at| Op::Push { at }),
        (0u64..5_000_000_000_000).prop_map(|at| Op::Push { at }),
        (0u64..3_000).prop_map(|at| Op::Push { at }),
        (0usize..64).prop_map(|nth| Op::Cancel { nth }),
        Just(Op::Pop),
        (-3i64..4, any::<bool>(), any::<u64>(), any::<bool>()).prop_map(
            |(delta, inclusive, early, near)| Op::PopIf {
                delta,
                inclusive,
                early,
                near
            }
        ),
        (
            -70_000i64..70_000,
            any::<bool>(),
            any::<u64>(),
            any::<bool>()
        )
            .prop_map(|(delta, inclusive, early, near)| Op::PopIf {
                delta,
                inclusive,
                early,
                near
            }),
        (64u64..50_000_000, 1u64..10, 0u64..6).prop_map(|(at, n, gap)| Op::Cluster { at, n, gap }),
        (0usize..64).prop_map(|nth| Op::Twin { nth }),
        any::<bool>().prop_map(|peek| Op::CancelHead { peek }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Differential test: the radix heap agrees with a
    /// `BinaryHeap` queue on every interleaving of pushes, cancels, pops
    /// and bounded pops — identical pop order (time AND sequence),
    /// identical cancel outcomes and identical `pop_if` verdicts.
    #[test]
    fn queue_matches_heap_reference(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mut pair = Pair::default();
        let mut floor = 0u64; // pops must not go back in time
        for op in ops {
            match op {
                Op::Push { at } => pair.push(floor + at),
                Op::Cluster { at, n, gap } => {
                    for i in 0..n {
                        pair.push(floor + at + i * gap);
                    }
                }
                Op::Twin { nth } => {
                    let pending = pair.heap.live.len().max(1);
                    if let Some(&at) = pair.heap.live.values().nth(nth % pending) {
                        pair.push(at);
                    }
                }
                Op::CancelHead { peek } => {
                    let Some((at, seq)) = pair.heap.peek() else {
                        continue;
                    };
                    if peek {
                        prop_assert_eq!(pair.queue.peek_time(), Some(SimTime::from_nanos(at)));
                    }
                    let held = pair.tokens.iter().position(|(s, _)| *s == seq);
                    let (_, tok) = pair.tokens.remove(held.expect("pending events keep a token"));
                    prop_assert_eq!(pair.queue.cancel(tok), Some(seq), "head cancel diverged");
                    prop_assert!(pair.heap.cancel(seq));
                }
                Op::Cancel { nth } => {
                    if pair.tokens.is_empty() {
                        continue;
                    }
                    let (seq, tok) = pair.tokens.remove(nth % pair.tokens.len());
                    let queue_hit = pair.queue.cancel(tok).is_some();
                    let heap_hit = pair.heap.cancel(seq);
                    prop_assert_eq!(queue_hit, heap_hit, "cancel outcome diverged");
                }
                Op::Pop => {
                    let expect = pair.heap.pop();
                    let got = pair.queue.pop().map(|(t, seq)| (t.as_nanos(), seq));
                    prop_assert_eq!(got, expect, "pop order diverged");
                    if let Some((at, seq)) = got {
                        floor = at;
                        pair.tokens.retain(|(s, _)| *s != seq);
                    }
                }
                Op::PopIf { delta, inclusive, early, near } => {
                    let Some((head, _)) = pair.heap.peek() else {
                        prop_assert_eq!(pair.queue.pop_if(|_| true), None);
                        continue;
                    };
                    let bound = SimTime::from_nanos(head.saturating_add_signed(delta));
                    let due = |t: SimTime| if inclusive { t <= bound } else { t < bound };
                    let expect = if due(SimTime::from_nanos(head)) { pair.heap.pop() } else { None };
                    let got = pair.queue.pop_if(due).map(|(t, seq)| (t.as_nanos(), seq));
                    prop_assert_eq!(got, expect, "pop_if diverged");
                    match got {
                        Some((at, seq)) => {
                            floor = at;
                            pair.tokens.retain(|(s, _)| *s != seq);
                        }
                        None if head > floor => {
                            let gap = head - floor;
                            pair.push(if near {
                                head - 1 - early % gap.min(4096)
                            } else {
                                floor + early % gap
                            });
                        }
                        None => {}
                    }
                }
            }
        }
        // Drain: the remaining contents must match exactly too.
        loop {
            let expect = pair.heap.pop();
            let got = pair.queue.pop().map(|(t, seq)| (t.as_nanos(), seq));
            prop_assert_eq!(got, expect, "drain diverged");
            if got.is_none() {
                break;
            }
        }
        prop_assert!(pair.queue.is_empty());
    }

    /// The event queue always pops in non-decreasing time order, and ties
    /// preserve insertion order (determinism).
    #[test]
    fn queue_orders_any_schedule(times in prop::collection::vec(0u64..10_000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), (t, i));
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at.as_nanos(), t);
            if let Some((prev_at, prev_i)) = last {
                prop_assert!(at >= prev_at);
                if at == prev_at {
                    prop_assert!(i > prev_i, "FIFO tie-break violated");
                }
            }
            last = Some((at, i));
        }
        prop_assert_eq!(q.delivered(), times.len() as u64);
    }

    /// A serial resource never overlaps jobs and conserves busy time.
    #[test]
    fn serial_resource_conserves_time(jobs in prop::collection::vec((0u64..10_000, 1u64..500), 1..100)) {
        let mut r = SerialResource::new();
        let mut prev_done = SimTime::ZERO;
        let mut total = SimDuration::ZERO;
        for &(arrive, service) in &jobs {
            let arrive = SimTime::from_nanos(arrive);
            let service = SimDuration::from_nanos(service);
            let done = r.serve(arrive, service);
            // Starts no earlier than both the arrival and the previous job.
            prop_assert!(done >= arrive + service);
            prop_assert!(done >= prev_done + service);
            prev_done = done;
            total += service;
        }
        prop_assert_eq!(r.busy_total(), total);
        prop_assert_eq!(r.jobs(), jobs.len() as u64);
    }

    /// An n-core CPU is never busier than n× wall-clock and completion
    /// times respect submission order per label accounting.
    #[test]
    fn cpu_capacity_bound(cores in 1usize..8, jobs in prop::collection::vec(1u64..200, 1..100)) {
        let mut cpu = CpuModel::new(cores);
        let mut latest = SimTime::ZERO;
        for &cost in &jobs {
            let done = cpu.run(SimTime::ZERO, SimDuration::from_micros(cost), "w");
            latest = latest.max(done);
        }
        let total: u64 = jobs.iter().sum::<u64>() * 1000;
        prop_assert_eq!(cpu.total_busy().as_nanos(), total);
        // Makespan is at least total/cores (can't beat perfect packing).
        prop_assert!(latest.as_nanos() * cores as u64 >= total);
        // And utilization never exceeds 1.
        prop_assert!(cpu.utilization(latest) <= 1.0 + 1e-9);
    }

    /// `transmission` divides in `u64` when `bytes × 8·10⁹` fits and in
    /// `u128` otherwise: both agree with the `u128` formula, in particular
    /// on either side of the overflow boundary.
    #[test]
    fn transmission_matches_u128_formula(
        small in 0usize..4_000_000,
        around in -64i64..64,
        large in any::<u64>(),
        bps in 1u64..400_000_000_000,
    ) {
        let boundary = u64::MAX / 8_000_000_000;
        for bytes in [small as u64, boundary.saturating_add_signed(around), large >> 8] {
            let exact = (bytes as u128 * 8 * 1_000_000_000 / bps as u128) as u64;
            prop_assert_eq!(
                SimDuration::transmission(bytes as usize, bps).as_nanos(),
                exact,
                "{} bytes at {} bps", bytes, bps
            );
        }
    }
}
