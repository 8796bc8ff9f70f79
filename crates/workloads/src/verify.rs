//! Write a pattern, read it back, verify, repeat: the integrity probe
//! every end-to-end test sends through a chain.

use bytes::Bytes;

use storm_cloud::{IoCtx, IoKind, IoResult, ReqId, Workload};
use storm_sim::SimRng;

/// Writes `bytes` of seeded noise at `lba`, reads them back and compares;
/// each further round moves on by one extent and changes the noise. One
/// request is in flight at a time.
///
/// Payloads differ per `(salt, round)`, so a reply misrouted between two
/// clients, or a stale block served for a newer one, cannot pass
/// verification by accident. They are noise rather than a periodic
/// pattern so that a block shifted by a period still fails, and so that
/// content-defined chunking and compression see data with no structure
/// to exploit: two clients of equal salt write duplicate content, and
/// nothing else does.
///
/// # Panics
///
/// Any failed I/O or read-back mismatch panics inside the simulation: a
/// run that returns has verified every round it completed.
#[derive(Debug)]
pub struct VerifyWorkload {
    lba: u64,
    bytes: usize,
    rounds: usize,
    salt: u8,
    verified: usize,
    wrote: Option<ReqId>,
    read: Option<ReqId>,
}

impl VerifyWorkload {
    /// One round of `bytes` (a multiple of 512) at `lba`, salt 0.
    pub fn new(lba: u64, bytes: usize) -> Self {
        assert_eq!(bytes % 512, 0, "whole sectors only");
        VerifyWorkload {
            lba,
            bytes,
            rounds: 1,
            salt: 0,
            verified: 0,
            wrote: None,
            read: None,
        }
    }

    /// Stops after `rounds` verified rounds instead of one.
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Distinguishes this client's patterns from another's.
    pub fn salt(mut self, salt: u8) -> Self {
        self.salt = salt;
        self
    }

    /// Rounds written, read back and found intact so far.
    pub fn verified(&self) -> usize {
        self.verified
    }

    /// The bytes round `round` of a client salted `salt` writes — what a
    /// test expects at rest behind a chain that stores data untransformed.
    pub fn pattern(salt: u8, round: usize, bytes: usize) -> Vec<u8> {
        let mut buf = vec![0u8; bytes];
        SimRng::seed_from_u64(u64::from(salt) << 32 | round as u64).fill(&mut buf);
        buf
    }

    fn lba_of(&self, round: usize) -> u64 {
        self.lba + (round * self.bytes / 512) as u64
    }

    fn write(&mut self, io: &mut IoCtx<'_>) {
        let data = Self::pattern(self.salt, self.verified, self.bytes);
        self.wrote = Some(io.write(self.lba_of(self.verified), Bytes::from(data)));
    }
}

impl Workload for VerifyWorkload {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.write(io);
    }

    fn completed(&mut self, io: &mut IoCtx<'_>, req: ReqId, _kind: IoKind, result: IoResult) {
        let (salt, round) = (self.salt, self.verified);
        assert!(result.ok, "I/O failed for salt {salt} round {round}");
        if self.wrote.take_if(|w| *w == req).is_some() {
            self.read = Some(io.read(self.lba_of(round), (self.bytes / 512) as u32));
        } else if self.read.take_if(|r| *r == req).is_some() {
            assert!(
                result.data[..] == Self::pattern(salt, round, self.bytes)[..],
                "read-back mismatch for salt {salt} round {round}"
            );
            self.verified += 1;
            if self.verified == self.rounds {
                io.stop();
            } else {
                self.write(io);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_block::BlockDevice;
    use storm_cloud::{Cloud, CloudConfig, VolumeHandle};
    use storm_sim::SimTime;

    const END: SimTime = SimTime::from_nanos(5_000_000_000);

    fn one_volume() -> (Cloud, VolumeHandle) {
        let mut cloud = Cloud::build(CloudConfig::default());
        let vol = cloud.create_volume(16 << 20, 0);
        (cloud, vol)
    }

    #[test]
    fn distinct_salt_round_pairs_give_distinct_patterns() {
        let mut seen = std::collections::BTreeSet::new();
        for salt in [0u8, 5, 17, 91] {
            for round in 0..24 {
                assert!(
                    seen.insert(VerifyWorkload::pattern(salt, round, 512)),
                    "({salt}, {round}) repeats an earlier pattern"
                );
            }
        }
    }

    #[test]
    fn stops_after_exactly_the_requested_rounds() {
        let (mut cloud, vol) = one_volume();
        let workload = VerifyWorkload::new(64, 4096).rounds(3).salt(9);
        let app = cloud.attach_volume(0, "vm:verify", &vol, Box::new(workload), 1, false);
        cloud.net.run_until(END);
        let client = cloud.client_mut(0, app);
        assert_eq!(client.stats.writes.count(), 3);
        assert_eq!(client.stats.reads.count(), 3);
        let w = client.workload_ref().unwrap();
        assert_eq!(w.downcast_ref::<VerifyWorkload>().unwrap().verified(), 3);
        // Round 2 landed one extent per round further on, and nothing after it.
        let mut at_rest = vec![0u8; 8192];
        vol.shared.clone().read(64 + 2 * 8, &mut at_rest).unwrap();
        assert_eq!(at_rest[..4096], VerifyWorkload::pattern(9, 2, 4096)[..]);
        assert!(at_rest[4096..].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "read-back mismatch for salt 0 round 0")]
    fn a_byte_flipped_at_rest_fails_the_run() {
        let (mut cloud, vol) = one_volume();
        let workload = Box::new(VerifyWorkload::new(64, 4096));
        cloud.attach_volume(0, "vm:verify", &vol, workload, 1, false);
        let mut disk = vol.shared.clone();
        let mut sector = vec![0u8; 512];
        // Step to the instant the write reaches the volume, corrupt it
        // there, and let the read-back find out.
        while sector.iter().all(|&b| b == 0) {
            assert!(cloud.net.step_until(END), "write never landed");
            disk.read(64, &mut sector).unwrap();
        }
        sector[100] ^= 0x40;
        disk.write(64, &sector).unwrap();
        cloud.net.run_until(END);
    }
}
