//! The storage host's disk service model.

use std::collections::BTreeMap;

use storm_sim::{SerialResource, SimDuration, SimTime};

/// Performance parameters of a storage host's backing disk (SATA-class by
/// default, like the paper's 1 TB SATA drive).
#[derive(Debug, Clone, Copy)]
pub struct DiskSpec {
    /// Positioning cost of a cache-missing access.
    pub seek: SimDuration,
    /// Media throughput in bytes/second.
    pub bytes_per_sec: u64,
    /// Service time of a cache hit (page-cache copy).
    pub cache_hit: SimDuration,
    /// Page-cache capacity in 4 KiB blocks (0 disables caching).
    pub cache_blocks: usize,
    /// Whether writes complete once cached (write-back page cache).
    pub write_back: bool,
    /// Treat the cache as already warm (repeated-run steady state, as in
    /// the paper's 10-repetition measurements).
    pub prewarmed: bool,
}

impl Default for DiskSpec {
    fn default() -> Self {
        DiskSpec {
            seek: SimDuration::from_micros(800),
            bytes_per_sec: 120_000_000,
            cache_hit: SimDuration::from_micros(400),
            // The paper's Cinder node has 32 GB of RAM: a freshly created
            // 20 GB test volume ends up largely page-cached after warmup.
            cache_blocks: 6_000_000, // ~24 GiB of page cache
            write_back: true,
            prewarmed: false,
        }
    }
}

impl DiskSpec {
    /// The fast provisioning tier: SSD-class service (no seek penalty to
    /// speak of, high media bandwidth). Uncached so tier choice — not
    /// page-cache luck — decides latency, as in IOArbiter's SLO study.
    pub fn fast_tier() -> Self {
        DiskSpec {
            seek: SimDuration::from_micros(60),
            bytes_per_sec: 500_000_000,
            cache_hit: SimDuration::from_micros(60),
            cache_blocks: 0,
            write_back: false,
            prewarmed: false,
        }
    }

    /// The slow provisioning tier: capacity spindle, uncached, long seek.
    pub fn slow_tier() -> Self {
        DiskSpec {
            seek: SimDuration::from_micros(800),
            bytes_per_sec: 120_000_000,
            cache_hit: SimDuration::from_micros(400),
            cache_blocks: 0,
            write_back: false,
            prewarmed: false,
        }
    }
}

/// A single-spindle disk with an LRU page cache and FIFO service queue.
///
/// `serve_*` returns the completion instant of the access; requests queue
/// behind one another like a real non-NCQ SATA disk.
#[derive(Debug)]
pub struct DiskModel {
    spec: DiskSpec,
    queue: SerialResource,
    // LRU cache over 4 KiB-aligned block numbers, indexed both ways:
    // `cache` answers "is this block resident", `by_stamp` (its inverse;
    // stamps are unique) yields the least recently used block in
    // O(log n) instead of a scan of the whole cache per eviction.
    cache: BTreeMap<u64, u64>,    // block -> last-use stamp
    by_stamp: BTreeMap<u64, u64>, // last-use stamp -> block
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl DiskModel {
    /// Creates a disk with the given parameters.
    pub fn new(spec: DiskSpec) -> Self {
        DiskModel {
            spec,
            queue: SerialResource::new(),
            cache: BTreeMap::new(),
            by_stamp: BTreeMap::new(),
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// `(hits, misses)` counters.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Total busy time of the spindle.
    pub fn busy_total(&self) -> SimDuration {
        self.queue.busy_total()
    }

    fn touch(&mut self, block: u64) -> bool {
        if self.spec.cache_blocks == 0 {
            return false;
        }
        if self.spec.prewarmed {
            // Every access hits, so what is resident never matters.
            return true;
        }
        self.stamp += 1;
        let previous = self.cache.insert(block, self.stamp);
        if let Some(stale) = previous {
            self.by_stamp.remove(&stale);
        }
        self.by_stamp.insert(self.stamp, block);
        if self.cache.len() > self.spec.cache_blocks {
            // Evict the least recently used entry.
            if let Some((_, lru)) = self.by_stamp.pop_first() {
                self.cache.remove(&lru);
            }
        }
        previous.is_some()
    }

    fn transfer(&self, bytes: usize) -> SimDuration {
        SimDuration::transmission(bytes, self.spec.bytes_per_sec * 8)
    }

    /// Serves a read of `bytes` at sector `lba`; returns completion time.
    ///
    /// Page-cache hits are memory copies — they do not occupy the spindle
    /// and run in parallel across requests. Misses queue FIFO on the
    /// spindle.
    pub fn serve_read(&mut self, now: SimTime, lba: u64, bytes: usize) -> SimTime {
        let blocks = (lba / 8)..=((lba + (bytes as u64 / 512).max(1) - 1) / 8);
        let mut all_hit = true;
        for b in blocks {
            if !self.touch(b) {
                all_hit = false;
            }
        }
        if all_hit {
            self.hits += 1;
            now + self.spec.cache_hit + self.transfer(bytes) / 4
        } else {
            self.misses += 1;
            self.queue.serve(now, self.spec.seek + self.transfer(bytes))
        }
    }

    /// Serves a write of `bytes` at sector `lba`; returns completion time.
    ///
    /// Write-back writes land in the page cache (parallel memory copies);
    /// write-through queues on the spindle.
    pub fn serve_write(&mut self, now: SimTime, lba: u64, bytes: usize) -> SimTime {
        for b in (lba / 8)..=((lba + (bytes as u64 / 512).max(1) - 1) / 8) {
            self.touch(b);
        }
        if self.spec.write_back {
            now + self.spec.cache_hit + self.transfer(bytes) / 4
        } else {
            self.queue.serve(now, self.spec.seek + self.transfer(bytes))
        }
    }

    /// Serves a flush (drains write-back state as one seek).
    pub fn serve_flush(&mut self, now: SimTime) -> SimTime {
        self.queue.serve(now, self.spec.seek)
    }

    /// Occupies the spindle with `work` of bulk activity (tier-migration
    /// copy traffic); returns when the disk is free again.
    pub fn busy_for(&mut self, now: SimTime, work: SimDuration) -> SimTime {
        self.queue.serve(now, work)
    }

    /// Time to stream `bytes` sequentially off this disk (one seek plus
    /// the media transfer) — the cost model for a migration copy.
    pub fn bulk_copy_time(&self, bytes: u64) -> SimDuration {
        self.spec.seek + self.transfer(bytes as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn at(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    /// The eviction rule `touch` had before `by_stamp`: scan the whole
    /// cache for the smallest stamp. Kept as the oracle for the index.
    struct ScanLru {
        cache: BTreeMap<u64, u64>,
        stamp: u64,
        capacity: usize,
    }

    impl ScanLru {
        fn touch(&mut self, block: u64) -> bool {
            self.stamp += 1;
            let hit = self.cache.insert(block, self.stamp).is_some();
            if self.cache.len() > self.capacity {
                if let Some((&lru, _)) = self.cache.iter().min_by_key(|(_, &s)| s) {
                    self.cache.remove(&lru);
                }
            }
            hit
        }
    }

    proptest! {
        /// The stamp index evicts the block the end-to-end scan would:
        /// equal hit/miss verdicts and equal resident sets after every
        /// touch, from a one-block cache up to one that never fills.
        #[test]
        fn indexed_eviction_matches_scan(
            capacity in 1usize..65,
            blocks in prop::collection::vec(0u64..96, 1..400),
        ) {
            let mut disk = DiskModel::new(DiskSpec { cache_blocks: capacity, ..DiskSpec::default() });
            let mut scan = ScanLru { cache: BTreeMap::new(), stamp: 0, capacity };
            for block in blocks {
                prop_assert_eq!(disk.touch(block), scan.touch(block), "block {}", block);
                prop_assert_eq!(&disk.cache, &scan.cache);
                let inverse: BTreeMap<u64, u64> =
                    disk.by_stamp.iter().map(|(&stamp, &block)| (block, stamp)).collect();
                prop_assert_eq!(&inverse, &disk.cache);
            }
        }
    }

    #[test]
    fn cache_hits_are_fast() {
        let mut d = DiskModel::new(DiskSpec::default());
        let t1 = d.serve_read(at(0), 0, 4096);
        // Second read of the same block hits the cache.
        let t2 = d.serve_read(t1, 0, 4096);
        assert!(
            t2 - t1 < t1 - at(0),
            "hit {:?} vs miss {:?}",
            t2 - t1,
            t1 - at(0)
        );
        let (hits, misses) = d.cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn prewarmed_disk_hits_without_tracking_blocks() {
        let mut d = DiskModel::new(DiskSpec {
            prewarmed: true,
            ..DiskSpec::default()
        });
        let done = d.serve_read(at(0), 0, 65536);
        d.serve_write(done, 1 << 20, 65536);
        assert_eq!(d.cache_stats(), (1, 0));
        assert!(d.cache.is_empty() && d.by_stamp.is_empty());
        assert_eq!(d.busy_total(), SimDuration::ZERO);
    }

    #[test]
    fn requests_queue_fifo() {
        let mut d = DiskModel::new(DiskSpec {
            cache_blocks: 0,
            ..DiskSpec::default()
        });
        let t1 = d.serve_read(at(0), 0, 4096);
        let t2 = d.serve_read(at(0), 1 << 20, 4096);
        assert!(t2 > t1);
        assert_eq!((t2 - t1).as_nanos(), (t1 - at(0)).as_nanos());
    }

    #[test]
    fn write_back_is_cheaper_than_write_through() {
        let mut wb = DiskModel::new(DiskSpec {
            write_back: true,
            ..DiskSpec::default()
        });
        let mut wt = DiskModel::new(DiskSpec {
            write_back: false,
            ..DiskSpec::default()
        });
        let t_wb = wb.serve_write(at(0), 0, 65536);
        let t_wt = wt.serve_write(at(0), 0, 65536);
        assert!(t_wb < t_wt);
    }

    #[test]
    fn cache_evicts_at_capacity() {
        let mut d = DiskModel::new(DiskSpec {
            cache_blocks: 4,
            ..DiskSpec::default()
        });
        for i in 0..8u64 {
            d.serve_read(at(i), i * 8, 4096);
        }
        // Early blocks were evicted: re-reading block 0 misses.
        let (_, misses_before) = d.cache_stats();
        d.serve_read(at(100), 0, 4096);
        let (_, misses_after) = d.cache_stats();
        assert_eq!(misses_after, misses_before + 1);
    }

    #[test]
    fn flush_busies_the_spindle() {
        let mut d = DiskModel::new(DiskSpec::default());
        let t = d.serve_flush(at(0));
        assert!(t > at(0));
        assert!(d.busy_total() > SimDuration::ZERO);
    }
}
