//! A shadow model of every write: the integrity workload every
//! end-to-end test sends through a chain.

use std::collections::BTreeMap;

use bytes::Bytes;

use storm_cloud::{IoCtx, IoKind, IoResult, ReqId, Workload};
use storm_sim::SimRng;

/// Writes seeded noise and checks every sector it reads back against a
/// per-sector model of the writes it issued.
///
/// At depth 1 (the default) it writes `bytes` at `lba`, reads them back
/// and moves on one extent, `rounds` times. At depth `d > 1` it writes
/// that `rounds × bytes` footprint first (a cipher decrypts never-written
/// zeros into noise), then keeps `d` requests in flight: a seeded 50/50
/// mix of 4 KiB-aligned reads and writes of 4 KiB up to `bytes` inside
/// the footprint, until it has read `rounds × d` times.
///
/// Sector `i` of write `w` is noise seeded by `(salt, w, i)`, not by its
/// address: a sector served from the wrong place fails, and two clients
/// of equal salt write equal extents at different addresses. Write `k` of
/// the depth-1 schedule is round `k`.
///
/// A read sector passes if it holds what a write to that sector carried
/// that was issued before the read completed and that no other write to
/// the sector superseded (issued after it completed, and completed before
/// the read was issued).
///
/// # Panics
///
/// A failed I/O or a stale sector panics, naming the salt, the write and
/// the sector: a run that returns has verified every read it completed.
#[derive(Debug)]
pub struct ShadowWorkload {
    lba: u64,
    bytes: usize,
    rounds: usize,
    depth: usize,
    salt: u8,
    /// Every write issued, by id: `(lba, issue tick, completion tick)`.
    writes: Vec<(u64, u64, Option<u64>)>,
    /// Per sector, the writes that covered it, oldest first.
    history: BTreeMap<u64, Vec<usize>>,
    in_flight: BTreeMap<ReqId, Op>,
    /// Orders issues and completions: one tick per event.
    clock: u64,
    reads: usize,
    verified: usize,
}

/// A request in flight: write `w`, or a read `(lba, sectors, issued)`.
#[derive(Debug)]
enum Op {
    Write(usize),
    Read(u64, u64, u64),
}

impl ShadowWorkload {
    /// One round of `bytes` (a multiple of 512) at `lba`, salt 0, depth 1.
    pub fn new(lba: u64, bytes: usize) -> Self {
        assert_eq!(bytes % 512, 0, "whole sectors only");
        ShadowWorkload {
            lba,
            bytes,
            rounds: 1,
            depth: 1,
            salt: 0,
            writes: Vec::new(),
            history: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            clock: 0,
            reads: 0,
            verified: 0,
        }
    }

    /// Stops after `rounds × depth` verified reads instead of one.
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Keeps `depth` requests in flight over the footprint.
    pub fn depth(mut self, depth: usize) -> Self {
        let aligned = depth == 1 || self.bytes.is_multiple_of(4096);
        assert!(aligned, "a deeper load mixes 4 KiB extents");
        self.depth = depth;
        self
    }

    /// Distinguishes this client's payloads from another's.
    pub fn salt(mut self, salt: u8) -> Self {
        self.salt = salt;
        self
    }

    /// Reads checked against the model so far.
    pub fn verified(&self) -> usize {
        self.verified
    }

    /// The bytes write `w` of a client salted `salt` carries when it is
    /// `bytes` long — what a test expects at rest behind a chain that
    /// stores data untransformed.
    pub fn payload(salt: u8, w: usize, bytes: usize) -> Vec<u8> {
        let mut buf = vec![0u8; bytes];
        for (i, sector) in (0..).zip(buf.chunks_mut(512)) {
            Self::noise(salt, w, i, sector);
        }
        buf
    }

    /// Sector `i` of write `w`.
    fn noise(salt: u8, w: usize, i: u64, sector: &mut [u8]) {
        SimRng::seed_from_u64(u64::from(salt) << 56 | (w as u64) << 24 | i).fill(sector);
    }

    /// Whether `sector` is what some write issued to `lba` carried.
    pub fn wrote(&self, lba: u64, sector: &[u8]) -> bool {
        let writes = self.history.get(&lba).map_or(&[][..], Vec::as_slice);
        writes.iter().any(|&w| self.carried(w, lba, sector))
    }

    fn carried(&self, w: usize, lba: u64, sector: &[u8]) -> bool {
        let mut carried = [0u8; 512];
        Self::noise(self.salt, w, lba - self.writes[w].0, &mut carried);
        carried == sector
    }

    /// The next request, `(lba, sectors, is a write)`, if one may issue.
    fn next(&self, rng: &mut SimRng) -> Option<(u64, u64, bool)> {
        let extent = (self.bytes / 512) as u64;
        let (written, rounds) = (self.writes.len(), self.rounds);
        if self.reads == rounds * self.depth {
            return None;
        }
        if self.depth == 1 {
            // Write extent k, read it back, move on one extent.
            let k = self.reads;
            return Some((self.lba + k as u64 * extent, extent, written == k));
        }
        if written < rounds {
            return Some((self.lba + written as u64 * extent, extent, true));
        }
        if written == rounds && self.reads == 0 && !self.in_flight.is_empty() {
            return None; // the mix waits for the whole prefill
        }
        let blocks = (rounds * self.bytes / 4096) as u64;
        let len = rng.range(1, (self.bytes / 4096) as u64 + 1);
        let at = self.lba + rng.below(blocks - len + 1) * 8;
        Some((at, len * 8, rng.chance(0.5)))
    }

    fn issue(&mut self, io: &mut IoCtx<'_>) {
        while self.in_flight.len() < self.depth {
            let Some((lba, sectors, write)) = self.next(io.rng()) else {
                break;
            };
            self.clock += 1;
            let (req, op) = if write {
                let w = self.writes.len();
                for s in lba..lba + sectors {
                    self.history.entry(s).or_default().push(w);
                }
                self.writes.push((lba, self.clock, None));
                let data = Self::payload(self.salt, w, sectors as usize * 512);
                (io.write(lba, Bytes::from(data)), Op::Write(w))
            } else {
                self.reads += 1;
                let read = Op::Read(lba, sectors, self.clock);
                (io.read(lba, sectors as u32), read)
            };
            self.in_flight.insert(req, op);
        }
    }

    /// Checks each sector of a read issued at tick `issued`. A write to
    /// the sector is superseded if it completed before `floor`, the newest
    /// issue among the writes that completed before the read was issued.
    fn check(&self, lba: u64, sectors: u64, issued: u64, data: &[u8]) {
        let salt = self.salt;
        let whole = data.len() as u64 == sectors * 512;
        assert!(whole, "short read for salt {salt} at sector {lba}");
        for (s, sector) in (lba..).zip(data.chunks(512)) {
            let writes = &self.history[&s];
            let done = writes.iter().map(|&w| self.writes[w]);
            let done = done.filter(|&(_, _, c)| c.is_some_and(|c| c < issued));
            let floor = done.map(|(_, i, _)| i).max().unwrap_or(0);
            let seen = (writes.iter())
                .filter(|&&w| self.writes[w].2.is_none_or(|c| c > floor))
                .any(|&w| self.carried(w, s, sector));
            let w = writes[writes.len() - 1];
            assert!(
                seen,
                "read-back mismatch for salt {salt} write {w} at sector {s}"
            );
        }
    }
}

impl Workload for ShadowWorkload {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.issue(io);
    }

    fn completed(&mut self, io: &mut IoCtx<'_>, req: ReqId, _kind: IoKind, result: IoResult) {
        self.clock += 1;
        let salt = self.salt;
        match self.in_flight.remove(&req).expect("issued here") {
            Op::Write(w) => {
                let lba = self.writes[w].0;
                assert!(
                    result.ok,
                    "I/O failed for salt {salt} write {w} at sector {lba}"
                );
                self.writes[w].2 = Some(self.clock);
            }
            Op::Read(lba, sectors, issued) => {
                assert!(result.ok, "I/O failed for salt {salt} read at sector {lba}");
                self.check(lba, sectors, issued, &result.data);
                self.verified += 1;
            }
        }
        self.issue(io);
        if self.in_flight.is_empty() {
            io.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_block::BlockDevice;
    use storm_cloud::{Cloud, CloudConfig};
    use storm_sim::SimTime;

    #[test]
    fn distinct_salt_write_pairs_give_distinct_payloads() {
        let mut seen = std::collections::BTreeSet::new();
        for salt in [0u8, 5, 17, 91] {
            for w in 0..24 {
                assert!(
                    seen.insert(ShadowWorkload::payload(salt, w, 512)),
                    "({salt}, {w}) repeats an earlier payload"
                );
            }
        }
    }

    #[test]
    fn stops_after_exactly_the_requested_reads() {
        let workload = ShadowWorkload::new(64, 4096).rounds(3).salt(9);
        crate::solo(workload, 1, 5, |client, w, vol| {
            assert_eq!(client.stats.writes.count(), 3);
            assert_eq!(client.stats.reads.count(), 3);
            assert_eq!(w.verified(), 3);
            // Round 2 landed one extent per round further on, and nothing
            // after it.
            let mut at_rest = vec![0u8; 8192];
            vol.shared.clone().read(64 + 2 * 8, &mut at_rest).unwrap();
            assert_eq!(at_rest[..4096], ShadowWorkload::payload(9, 2, 4096)[..]);
            assert!(at_rest[4096..].iter().all(|&b| b == 0));
        });
    }

    #[test]
    #[should_panic(expected = "read-back mismatch for salt 0 write 0 at sector 64")]
    fn a_byte_flipped_at_rest_fails_the_run() {
        let mut cloud = Cloud::build(CloudConfig::default());
        let vol = cloud.create_volume(16 << 20, 0);
        let workload = Box::new(ShadowWorkload::new(64, 4096));
        cloud.attach_volume(0, "vm:verify", &vol, workload, 1, false);
        let mut disk = vol.shared.clone();
        let mut sector = vec![0u8; 512];
        // Step to the instant the write reaches the volume, corrupt it
        // there, and let the read-back find out.
        while sector.iter().all(|&b| b == 0) {
            let end = SimTime::from_secs(5);
            assert!(cloud.net.step_until(end), "write never landed");
            disk.read(64, &mut sector).unwrap();
        }
        sector[100] ^= 0x40;
        disk.write(64, &sector).unwrap();
        cloud.net.run_until(SimTime::from_secs(5));
    }

    /// Write 1 overwrote write 0 at sectors 8..16 and completed at tick
    /// 4. A read issued at tick 4 may still return write 0's bytes; one
    /// issued at tick 5 may not. A compare against "some write to the
    /// sector" would pass both.
    #[test]
    #[should_panic(expected = "read-back mismatch for salt 3 write 1 at sector 8")]
    fn a_superseded_write_read_back_is_a_violation() {
        let mut shadow = ShadowWorkload::new(8, 4096).depth(8).salt(3);
        shadow.writes = vec![(8, 1, Some(2)), (8, 3, Some(4))];
        shadow.history = (8..16).map(|s| (s, vec![0, 1])).collect();
        let superseded = ShadowWorkload::payload(3, 0, 4096);
        shadow.check(8, 8, 4, &superseded);
        shadow.check(8, 8, 5, &superseded);
    }
}
