//! Benchmark-owned `storm_cloud::Workload`s: the exact-latency wrapper put
//! around every generator, and the verified write/read-back generator of
//! `chain_write_16k`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bytes::Bytes;

use storm_cloud::{IoCtx, IoKind, IoResult, ReqId, Workload};
use storm_sim::{SimDuration, SimRng, SimTime};

/// Wraps a generator and keeps every read/write latency as exact
/// nanoseconds, so percentiles do not inherit the 1.6 % bucket width of
/// `storm_sim::Histogram` and two seeds never read the same by rounding.
pub struct Measured {
    pub inner: Box<dyn Workload>,
    /// One latency per tenant operation, in completion order.
    pub lat_ns: Vec<u64>,
    /// Block accesses per tenant operation for a synchronous trace replay
    /// (a PostMark transaction is one operation made of many accesses);
    /// empty when every access is an operation of its own.
    group_sizes: Vec<usize>,
    group_done: usize,
    group_ns: u64,
}

impl Measured {
    pub fn new(inner: Box<dyn Workload>) -> Self {
        Measured {
            inner,
            lat_ns: Vec::new(),
            group_sizes: Vec::new(),
            group_done: 0,
            group_ns: 0,
        }
    }

    /// Measures a synchronous replay per group: an operation's latency is
    /// the sum of its accesses' latencies (one is in flight at a time).
    pub fn grouped(inner: Box<dyn Workload>, group_sizes: Vec<usize>) -> Self {
        Measured {
            group_sizes,
            ..Measured::new(inner)
        }
    }
}

impl Workload for Measured {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.inner.start(io);
    }

    fn completed(&mut self, io: &mut IoCtx<'_>, req: ReqId, kind: IoKind, result: IoResult) {
        if kind != IoKind::Flush {
            let ns = result.latency.as_nanos();
            match self.group_sizes.get(self.lat_ns.len()) {
                None => self.lat_ns.push(ns),
                Some(&size) => {
                    self.group_ns += ns;
                    self.group_done += 1;
                    if self.group_done >= size {
                        self.lat_ns.push(self.group_ns);
                        (self.group_done, self.group_ns) = (0, 0);
                    }
                }
            }
        }
        self.inner.completed(io, req, kind, result);
    }

    fn timer(&mut self, io: &mut IoCtx<'_>, token: u64) {
        self.inner.timer(io, token);
    }

    fn disconnected(&mut self, io: &mut IoCtx<'_>) {
        self.inner.disconnected(io);
    }
}

/// Word-wise multiplicative hash of a payload: the shadow map keeps 8
/// bytes per written block instead of the 16 KiB plaintext.
pub fn content_hash(data: &[u8]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ data.len() as u64;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Shape of the `chain_write_16k` generator.
#[derive(Debug, Clone)]
pub struct ChainWriteJob {
    pub block_bytes: usize,
    /// Outstanding requests (closed loop).
    pub clients: usize,
    /// Share of requests that write, in percent; the rest read back a
    /// block written earlier.
    pub write_pct: u64,
    /// Share of writes that repeat a recently written payload, in percent.
    pub duplicate_pct: u64,
    /// Share of fresh payloads built from the LZ-compressible templates,
    /// in percent; the rest come from the random templates.
    pub compressible_pct: u64,
    /// Blocks of the volume the generator addresses.
    pub area_blocks: u64,
    pub duration: SimDuration,
    pub seed: u64,
}

const TEMPLATES: usize = 8;
/// Recently written payloads a duplicate write draws from.
const RECENT: usize = 64;
/// A fresh payload gets a unique stamp every this many bytes, so every
/// content-defined chunk of it (min chunk 1 KiB) is new to the dedup index.
const STAMP_STRIDE: usize = 512;

/// Closed-loop 70/30 write/read-back generator with seeded payloads and
/// a shadow map: every read is checked against the hash of the plaintext
/// last written to that block, which is the end-to-end correctness check
/// of the dedup → compress → XTS chain.
pub struct ChainWriteWorkload {
    job: ChainWriteJob,
    rng: SimRng,
    compressible: Vec<Vec<u8>>,
    random: Vec<Vec<u8>>,
    recent: VecDeque<(Bytes, u64)>,
    stamp: u64,
    /// block -> hash of the plaintext last acknowledged there.
    shadow: BTreeMap<u64, u64>,
    written: Vec<u64>,
    /// Blocks with a request in flight (never read and written at once).
    busy: BTreeSet<u64>,
    pending: BTreeMap<ReqId, (u64, Option<u64>)>,
    deadline: Option<SimTime>,
    pub writes_issued: u64,
    pub duplicate_writes: u64,
    pub compressible_writes: u64,
    pub reads_verified: u64,
    pub read_mismatches: u64,
}

impl ChainWriteWorkload {
    pub fn new(job: ChainWriteJob) -> Self {
        let mut rng = SimRng::seed_from_u64(job.seed ^ 0xC4A1_57A6);
        let mut random = Vec::with_capacity(TEMPLATES);
        let mut compressible = Vec::with_capacity(TEMPLATES);
        for _ in 0..TEMPLATES {
            let mut r = vec![0u8; job.block_bytes];
            rng.fill(&mut r);
            random.push(r);
            compressible.push(compressible_block(&mut rng, job.block_bytes));
        }
        ChainWriteWorkload {
            job,
            rng,
            compressible,
            random,
            recent: VecDeque::with_capacity(RECENT),
            stamp: 0,
            shadow: BTreeMap::new(),
            written: Vec::new(),
            busy: BTreeSet::new(),
            pending: BTreeMap::new(),
            deadline: None,
            writes_issued: 0,
            duplicate_writes: 0,
            compressible_writes: 0,
            reads_verified: 0,
            read_mismatches: 0,
        }
    }

    fn sectors_per_block(&self) -> u64 {
        (self.job.block_bytes / 512) as u64
    }

    fn fresh_payload(&mut self) -> (Bytes, u64) {
        let compressible = self.rng.below(100) < self.job.compressible_pct;
        let pool = if compressible {
            self.compressible_writes += 1;
            &self.compressible
        } else {
            &self.random
        };
        let mut data = pool[self.rng.below(TEMPLATES as u64) as usize].clone();
        for chunk in data.chunks_mut(STAMP_STRIDE) {
            self.stamp += 1;
            chunk[..8].copy_from_slice(&self.stamp.to_le_bytes());
        }
        let hash = content_hash(&data);
        (Bytes::from(data), hash)
    }

    fn free_block(&mut self) -> u64 {
        loop {
            let b = self.rng.below(self.job.area_blocks);
            if !self.busy.contains(&b) {
                return b;
            }
        }
    }

    fn issue_one(&mut self, io: &mut IoCtx<'_>) {
        let write = self.written.is_empty() || self.rng.below(100) < self.job.write_pct;
        if !write {
            // Read back a written block that has nothing in flight; a few
            // tries, then fall through to a write.
            for _ in 0..8 {
                let b = *self.rng.pick(&self.written);
                if self.busy.insert(b) {
                    let spb = self.sectors_per_block();
                    let req = io.read(b * spb, spb as u32);
                    self.pending.insert(req, (b, None));
                    return;
                }
            }
        }
        let block = self.free_block();
        self.busy.insert(block);
        let duplicate = !self.recent.is_empty() && self.rng.below(100) < self.job.duplicate_pct;
        let (data, hash) = if duplicate {
            self.duplicate_writes += 1;
            let i = self.rng.below(self.recent.len() as u64) as usize;
            self.recent[i].clone()
        } else {
            let fresh = self.fresh_payload();
            if self.recent.len() == RECENT {
                self.recent.pop_front();
            }
            self.recent.push_back(fresh.clone());
            fresh
        };
        self.writes_issued += 1;
        let req = io.write(block * self.sectors_per_block(), data);
        self.pending.insert(req, (block, Some(hash)));
    }
}

/// A block LZ77 shrinks well: short phrases drawn from a small dictionary.
pub fn compressible_block(rng: &mut SimRng, len: usize) -> Vec<u8> {
    const WORDS: [&[u8]; 8] = [
        b"volume ",
        b"tenant ",
        b"middle-box ",
        b"relay ",
        b"storage ",
        b"iscsi ",
        b"block ",
        b"service ",
    ];
    let mut out = Vec::with_capacity(len + 16);
    while out.len() < len {
        out.extend_from_slice(WORDS[rng.below(WORDS.len() as u64) as usize]);
    }
    out.truncate(len);
    out
}

impl Workload for ChainWriteWorkload {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.deadline = Some(io.now + self.job.duration);
        for _ in 0..self.job.clients {
            self.issue_one(io);
        }
    }

    fn completed(&mut self, io: &mut IoCtx<'_>, req: ReqId, _kind: IoKind, result: IoResult) {
        if let Some((block, wrote)) = self.pending.remove(&req) {
            self.busy.remove(&block);
            // A failed request changes nothing here; the client counts it.
            match wrote {
                Some(hash) if result.ok => match self.shadow.insert(block, hash) {
                    None => self.written.push(block),
                    Some(_overwritten) => {}
                },
                None if result.ok => {
                    if self.shadow.get(&block) == Some(&content_hash(&result.data)) {
                        self.reads_verified += 1;
                    } else {
                        self.read_mismatches += 1;
                    }
                }
                _ => {}
            }
        }
        if self.deadline.is_some_and(|d| io.now < d) {
            self.issue_one(io);
        } else if io.in_flight == 0 {
            io.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_sees_every_byte() {
        let a = vec![7u8; 1027];
        let base = content_hash(&a);
        for i in [0, 8, 511, 1023, 1024, 1026] {
            let mut b = a.clone();
            b[i] ^= 1;
            assert_ne!(content_hash(&b), base, "byte {i} ignored");
        }
        assert_ne!(content_hash(&a[..1026]), base, "length ignored");
    }

    #[test]
    fn fresh_payloads_are_unique_and_seeded() {
        let job = ChainWriteJob {
            block_bytes: 16 * 1024,
            clients: 8,
            write_pct: 70,
            duplicate_pct: 50,
            compressible_pct: 50,
            area_blocks: 1024,
            duration: SimDuration::from_secs(1),
            seed: 1,
        };
        let mut a = ChainWriteWorkload::new(job.clone());
        let mut b = ChainWriteWorkload::new(job.clone());
        let (pa, ha) = a.fresh_payload();
        let (pb, hb) = b.fresh_payload();
        assert_eq!(
            (pa.as_ref(), ha),
            (pb.as_ref(), hb),
            "same seed, same payload"
        );
        let (_, ha2) = a.fresh_payload();
        assert_ne!(ha, ha2, "stamps make every fresh payload distinct");
        let mut c = ChainWriteWorkload::new(ChainWriteJob { seed: 2, ..job });
        assert_ne!(c.fresh_payload().1, ha, "the seed reaches the payloads");
    }
}
