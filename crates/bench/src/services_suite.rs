//! Scenarios for the data-reduction & caching service suite.
//!
//! Three acceptance scenarios back the suite's claims:
//!
//! - [`cache_hit`]: a hot-set workload against the write-back cache
//!   middle-box; the interesting output is the read hit rate.
//! - [`dedup_ratio`]: a duplicate-heavy workload against the CDC dedup
//!   stage; the interesting output is the data-reduction ratio.
//! - [`zerocopy_suite_idle`]: all four suite services installed but
//!   idle — the verbatim fast path must still copy zero data bytes.
//!
//! The cache middle-box attaches two replica sessions exactly as the
//! service expects: replica 0 is the journal volume (on its own storage
//! host), replica 1 is the primary volume — the same export the spliced
//! path targets, so flushed data lands where misses read from.

use bytes::Bytes;
use storm::cloud::{IoCtx, IoKind, IoResult, ReqId, Workload};
use storm::core::RelayMode;
use storm::scenario::{Replica, Spec};
use storm::services::{
    CacheConfig, CompressService, DedupService, SnapshotService, WriteBackCacheService,
};
use storm::sim::{SimDuration, SimRng};

use crate::scenarios::zerocopy_row;
use crate::{client_point, testbed, Output, Row, SEED, WINDOW};

/// The cache's journal, on a second storage host.
const JOURNAL_BYTES: u64 = 64 << 20;

/// 4 KiB blocks: writes a hot set once, then reads it repeatedly with a
/// 20% sprinkle of cold (never re-read) blocks — a cache-friendly mix
/// whose hit rate is predictable (~0.8).
struct HotSetWorkload {
    hot_blocks: u64,
    reads: usize,
    wrote: u64,
    read_done: usize,
    cold_block: u64,
}

impl HotSetWorkload {
    const SECTORS_PER_BLOCK: u64 = 8;

    fn new(hot_blocks: u64, reads: usize) -> Self {
        HotSetWorkload {
            hot_blocks,
            reads,
            wrote: 0,
            read_done: 0,
            cold_block: 0,
        }
    }

    fn payload(i: u64) -> Bytes {
        Bytes::from(vec![(i % 251) as u8; 4096])
    }

    fn next(&mut self, io: &mut IoCtx<'_>) {
        if self.wrote < self.hot_blocks {
            let i = self.wrote;
            self.wrote += 1;
            io.write(i * Self::SECTORS_PER_BLOCK, Self::payload(i));
        } else if self.read_done < self.reads {
            let idx = self.read_done;
            self.read_done += 1;
            let lba = if idx % 5 == 4 {
                // Cold read past the hot set: a guaranteed miss.
                self.cold_block += 1;
                (self.hot_blocks + self.cold_block) * Self::SECTORS_PER_BLOCK
            } else {
                (idx as u64 * 7 % self.hot_blocks) * Self::SECTORS_PER_BLOCK
            };
            io.read(lba, Self::SECTORS_PER_BLOCK as u32);
        } else {
            io.stop();
        }
    }
}

impl Workload for HotSetWorkload {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.next(io);
    }

    fn completed(&mut self, io: &mut IoCtx<'_>, _req: ReqId, _kind: IoKind, result: IoResult) {
        assert!(result.ok, "hot-set I/O failed");
        self.next(io);
    }
}

/// `services.cache.hit`: the hot-set workload through an armed write-back
/// cache middle-box. Reads must mostly hit, and the flush must reach the
/// primary volume.
pub(crate) fn cache_hit() -> Output {
    let spec = Spec {
        label: "vm:cache",
        spares: vec![JOURNAL_BYTES],
        services: vec![Box::new(WriteBackCacheService::new(CacheConfig::default()))],
        replicas: vec![Replica::Spare(0), Replica::Primary],
        ..testbed(Some(RelayMode::Active))
    };
    let mut run = spec.build(HotSetWorkload::new(64, 2000), |_, _| {});
    let horizon = WINDOW + SimDuration::from_secs(5);
    run.cloud.net.run_for(horizon);
    let point = client_point(&mut run.cloud, 0, run.app, horizon);
    let stats = run.service::<WriteBackCacheService>(0).stats;
    let hit_rate = stats.hit_rate();
    assert!(
        hit_rate > 0.5,
        "hot-set workload must mostly hit the cache: {hit_rate:.3}"
    );
    assert!(stats.writes_absorbed >= 64, "{stats:?}");
    assert!(
        stats.flushed_bytes > 0,
        "cache flush never reached the volume"
    );
    vec![Row::new(
        "services.cache.hit",
        Some(RelayMode::Active),
        4096,
        1,
        1,
        point,
    )
    .extra("hit_rate", hit_rate)
    .extra("absorbed_writes", stats.writes_absorbed as f64)]
    .into()
}

/// Writes 64 KiB blocks to distinct offsets, cycling a small set of
/// random payloads so most content is a duplicate of an earlier write.
struct DupWorkload {
    payloads: Vec<Bytes>,
    writes: usize,
    issued: usize,
}

impl DupWorkload {
    const SECTORS_PER_BLOCK: u64 = 128;

    /// `distinct` random 64 KiB payloads, written round-robin `writes`
    /// times. Random (not patterned) content: periodic data degenerates
    /// content-defined chunking to fixed max-size cuts.
    fn new(seed: u64, distinct: usize, writes: usize) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xD0D0_D0D0);
        let payloads = (0..distinct)
            .map(|_| {
                let mut buf = vec![0u8; 64 * 1024];
                rng.fill(&mut buf);
                Bytes::from(buf)
            })
            .collect();
        DupWorkload {
            payloads,
            writes,
            issued: 0,
        }
    }

    fn next(&mut self, io: &mut IoCtx<'_>) {
        if self.issued >= self.writes {
            io.stop();
            return;
        }
        let i = self.issued;
        self.issued += 1;
        let payload = self.payloads[i % self.payloads.len()].clone();
        io.write(i as u64 * Self::SECTORS_PER_BLOCK, payload);
    }
}

impl Workload for DupWorkload {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.next(io);
    }

    fn completed(&mut self, io: &mut IoCtx<'_>, _req: ReqId, _kind: IoKind, result: IoResult) {
        assert!(result.ok, "duplicate-heavy I/O failed");
        self.next(io);
    }
}

/// `services.dedup.ratio`: the duplicate-heavy workload through an armed
/// CDC dedup middle-box, which must reduce it at least 1.5x.
pub(crate) fn dedup_ratio() -> Output {
    let spec = Spec {
        label: "vm:dedup",
        services: vec![Box::new(DedupService::new(SEED, 12))],
        ..testbed(Some(RelayMode::Active))
    };
    let mut run = spec.build(DupWorkload::new(SEED, 4, 48), |_, _| {});
    let horizon = WINDOW + SimDuration::from_secs(5);
    run.cloud.net.run_for(horizon);
    let point = client_point(&mut run.cloud, 0, run.app, horizon);
    let stats = run.service::<DedupService>(0).stats;
    let ratio = stats.reduction_ratio();
    assert!(
        ratio >= 1.5 && stats.duplicate_chunks > 0,
        "duplicate-heavy workload must reduce >= 1.5x: {stats:?}"
    );
    let mode = Some(RelayMode::Active);
    vec![Row::new("services.dedup.ratio", mode, 65536, 1, 1, point)
        .extra("dedup_ratio", ratio)
        .extra("duplicate_chunks", stats.duplicate_chunks as f64)]
    .into()
}

/// `zerocopy.suite_idle.64k`: the whole suite installed but idle (disarmed
/// cache, dedup and compression plus a snapshot service with no snapshot
/// taken). Every data PDU must still take the verbatim fast path.
pub(crate) fn zerocopy_suite_idle() -> Output {
    let spec = Spec {
        spares: vec![JOURNAL_BYTES],
        services: vec![
            Box::new(WriteBackCacheService::disarmed(CacheConfig::default())),
            Box::new(DedupService::disarmed(SEED, 12)),
            Box::new(CompressService::disarmed(4096)),
            Box::new(SnapshotService::new(128)),
        ],
        replicas: vec![Replica::Spare(0), Replica::Primary],
        ..testbed(Some(RelayMode::Active))
    };
    zerocopy_row("zerocopy.suite_idle.64k", spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each scenario asserts its own acceptance bar; running it is the test.

    #[test]
    fn hot_set_workload_hits_the_cache() {
        cache_hit();
    }

    #[test]
    fn duplicate_heavy_workload_deduplicates() {
        dedup_ratio();
    }

    #[test]
    fn idle_suite_preserves_zero_copy() {
        zerocopy_suite_idle();
    }
}
