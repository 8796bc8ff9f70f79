//! Write-back block cache on the active relay.
//!
//! The cache absorbs tenant writes entirely: it stages the data transfer
//! itself (emitting its own R2Ts for jumbo writes, mirroring the target's
//! solicitation state machine), journals each completed write to a
//! dedicated journal volume (replica session 0) with a two-phase
//! append — payload first, commit record second — and only acknowledges
//! the initiator once the commit record is durable. Dirty sectors are
//! then flushed lazily to the primary volume (replica session 1) on a
//! configurable timer. Burst absorption comes from acks at journal
//! latency; crash consistency comes from the commit-before-ack rule:
//! [`recover_journal`] replays exactly the committed prefix of the
//! journal, so an acknowledged write is never lost and a torn append is
//! never applied.
//!
//! Reads are served from cache on a full hit; misses forward to the
//! target and the returning Data-In both populates the cache and is
//! patched with any dirty sectors the cache holds (the cache is the
//! point of truth until a flush lands).
//!
//! Deployment: the cache must be the *first* service in the chain (its
//! synthesized replies and acks travel straight back to the initiator)
//! and its middle-box needs two replica targets — index 0 the journal
//! volume, index 1 the primary volume itself for flush traffic.

use std::collections::BTreeMap;

use bytes::{Bytes, BytesMut};

use storm_block::{BlockDevice, BlockError, SECTOR_SIZE};
use storm_core::{Dir, StorageService, SvcCtx};
use storm_iscsi::exchange::{
    data_in_train, status_response, BlockCmd, BlockOp, Exchange, Staged, Step, Transfer,
};
use storm_iscsi::{DataIn, Pdu, ScsiCommand, ScsiStatus};
use storm_sim::SimDuration;

use crate::lz::{fnv32, put_field};

/// Journal entry header magic ("SJH1").
const HDR_MAGIC: u32 = 0x534A_4831;
/// Journal commit record magic ("SJC1").
const COMMIT_MAGIC: u32 = 0x534A_4331;
/// Journal checkpoint magic ("SCK1").
const CKPT_MAGIC: u32 = 0x5343_4B31;

/// Replica session index of the journal volume.
const JOURNAL: usize = 0;
/// Replica session index of the primary volume (flush path).
const PRIMARY: usize = 1;

// Completion-context kinds (high byte of the ctx token).
const CTX_JOURNAL_DATA: u64 = 1 << 56;
const CTX_JOURNAL_COMMIT: u64 = 2 << 56;
const CTX_FLUSH: u64 = 3 << 56;
const CTX_CHECKPOINT: u64 = 4 << 56;
const CTX_KIND: u64 = 0xFF << 56;

/// Tuning knobs for the write-back cache.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Cache capacity in sectors.
    pub capacity_sectors: u64,
    /// Journal volume size in sectors (sector 0 is the checkpoint).
    pub journal_sectors: u64,
    /// Delay between flush rounds while dirty data exists.
    pub flush_delay: SimDuration,
    /// Dirty sectors flushed per round.
    pub flush_batch: usize,
    /// Negotiated unsolicited-data limit (FirstBurstLength).
    pub first_burst: usize,
    /// Per-R2T solicitation limit (MaxBurstLength).
    pub max_burst: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_sectors: 32 * 1024, // 16 MiB
            journal_sectors: 16 * 1024,  // 8 MiB
            flush_delay: SimDuration::from_millis(5),
            flush_batch: 256,
            first_burst: 64 * 1024,
            max_burst: 256 * 1024,
        }
    }
}

/// Counters for the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served entirely from cache.
    pub read_hits: u64,
    /// Reads forwarded to the target.
    pub read_misses: u64,
    /// Forwarded reads that still had dirty sectors patched in.
    pub dirty_patches: u64,
    /// Writes absorbed (acked from the journal, never forwarded).
    pub writes_absorbed: u64,
    /// Bytes absorbed.
    pub bytes_absorbed: u64,
    /// Journal appends committed.
    pub journal_commits: u64,
    /// Writes parked because the journal was full.
    pub journal_parks: u64,
    /// Flush rounds issued to the primary volume.
    pub flushes: u64,
    /// Bytes flushed to the primary volume.
    pub flushed_bytes: u64,
    /// Clean sectors evicted to respect capacity.
    pub evictions: u64,
    /// Writes forwarded in write-through mode (journal failed).
    pub write_through: u64,
}

impl CacheStats {
    /// Read hit rate over all cache-handled reads; 1.0 before any read.
    pub fn hit_rate(&self) -> f64 {
        let total = self.read_hits + self.read_misses;
        if total == 0 {
            return 1.0;
        }
        self.read_hits as f64 / total as f64
    }
}

/// One cached sector.
#[derive(Debug, Clone)]
struct Sector {
    data: Bytes,
    dirty: bool,
    flushing: bool,
    /// Bumped on every overwrite; a flush only cleans the generation it
    /// captured, so a re-dirtied sector stays dirty.
    gen: u64,
    tick: u64,
}

/// A fully received write waiting on (or parked for) the journal.
#[derive(Debug, Clone)]
struct CompletedWrite {
    itt: u32,
    lba: u64,
    data: Bytes,
}

/// The write-back cache service.
pub struct WriteBackCacheService {
    armed: bool,
    cfg: CacheConfig,
    per_byte: SimDuration,
    sectors: BTreeMap<u64, Sector>,
    lru: BTreeMap<u64, u64>,
    dirty_count: u64,
    tick: u64,
    gen: u64,
    /// Open commands: writes being staged (the cache's own R2T machine)
    /// and miss reads awaiting the target's Data-In.
    cmds: Exchange,
    /// Journal cursor: next free sector (sector 0 is the checkpoint).
    tail: u64,
    next_seq: u64,
    /// Oldest seq the current journal generation may contain.
    seq_floor: u64,
    next_io: u64,
    /// io id -> (write, seq, reserved journal base sector).
    journal_waits: BTreeMap<u64, (CompletedWrite, u64, u64)>,
    flush_waits: BTreeMap<u64, Vec<(u64, u64)>>,
    checkpoint_pending: bool,
    parked_writes: Vec<CompletedWrite>,
    parked_syncs: Vec<Pdu>,
    timer_armed: bool,
    /// Journal declared dead: degrade to write-through.
    journal_failed: bool,
    /// Measurements.
    pub stats: CacheStats,
}

impl WriteBackCacheService {
    /// Creates the cache with the given tuning.
    pub fn new(cfg: CacheConfig) -> Self {
        WriteBackCacheService {
            armed: true,
            cfg,
            // Hash-table lookup plus slice bookkeeping per byte.
            per_byte: SimDuration::from_nanos(1),
            sectors: BTreeMap::new(),
            lru: BTreeMap::new(),
            dirty_count: 0,
            tick: 0,
            gen: 0,
            cmds: Exchange::default(),
            tail: 1,
            next_seq: 1,
            seq_floor: 1,
            next_io: 1,
            journal_waits: BTreeMap::new(),
            flush_waits: BTreeMap::new(),
            checkpoint_pending: false,
            parked_writes: Vec::new(),
            parked_syncs: Vec::new(),
            timer_armed: false,
            journal_failed: false,
            stats: CacheStats::default(),
        }
    }

    /// Installs the service disabled: PDUs pass through untouched until
    /// [`WriteBackCacheService::arm`].
    pub fn disarmed(cfg: CacheConfig) -> Self {
        let mut s = Self::new(cfg);
        s.armed = false;
        s
    }

    /// Enables or disables the cache.
    pub fn arm(&mut self, armed: bool) {
        self.armed = armed;
    }

    /// Sets the per-byte CPU cost charged for cache processing.
    pub fn set_per_byte_cost(&mut self, cost: SimDuration) {
        self.per_byte = cost;
    }

    /// Sectors currently cached.
    pub fn cached_sectors(&self) -> u64 {
        self.sectors.len() as u64
    }

    /// Sectors dirty (journaled but not yet flushed).
    pub fn dirty_sectors(&self) -> u64 {
        self.dirty_count
    }

    /// Whether every acknowledged write has reached the primary volume.
    pub fn is_clean(&self) -> bool {
        self.dirty_count == 0 && self.journal_waits.is_empty() && self.parked_writes.is_empty()
    }

    fn next_io_id(&mut self) -> u64 {
        let id = self.next_io;
        self.next_io += 1;
        id
    }

    fn touch(&mut self, lba: u64) {
        self.tick += 1;
        if let Some(s) = self.sectors.get_mut(&lba) {
            self.lru.remove(&s.tick);
            s.tick = self.tick;
            self.lru.insert(self.tick, lba);
        }
    }

    /// Inserts or overwrites one cached sector.
    fn put_sector(&mut self, lba: u64, data: Bytes, dirty: bool) {
        self.tick += 1;
        self.gen += 1;
        match self.sectors.get_mut(&lba) {
            Some(s) => {
                self.lru.remove(&s.tick);
                if dirty && !s.dirty {
                    self.dirty_count += 1;
                }
                // A clean overwrite of a dirty sector must not lose the
                // dirty bit (populate-on-read never downgrades).
                s.dirty = s.dirty || dirty;
                s.data = data;
                s.gen = self.gen;
                s.tick = self.tick;
                self.lru.insert(self.tick, lba);
            }
            None => {
                if dirty {
                    self.dirty_count += 1;
                }
                self.sectors.insert(
                    lba,
                    Sector {
                        data,
                        dirty,
                        flushing: false,
                        gen: self.gen,
                        tick: self.tick,
                    },
                );
                self.lru.insert(self.tick, lba);
            }
        }
    }

    /// Evicts least-recently-used *clean* sectors down to capacity.
    fn enforce_capacity(&mut self) {
        while self.sectors.len() as u64 > self.cfg.capacity_sectors {
            let victim = self.lru.values().copied().find(|lba| {
                self.sectors
                    .get(lba)
                    .is_some_and(|s| !s.dirty && !s.flushing)
            });
            match victim {
                Some(lba) => {
                    if let Some(s) = self.sectors.remove(&lba) {
                        self.lru.remove(&s.tick);
                        self.stats.evictions += 1;
                    }
                }
                // Everything over budget is dirty: wait for the flusher.
                None => break,
            }
        }
    }

    /// All sectors of `[lba, lba+sectors)` cached?
    fn full_hit(&self, lba: u64, sectors: u32) -> bool {
        (lba..lba + sectors as u64).all(|s| self.sectors.contains_key(&s))
    }

    /// Emits the next R2T for a staged write, if one is due. The cache
    /// numbers its R2Ts from 1 and tags each with the following number.
    fn request_data(cx: &mut SvcCtx, cfg: &CacheConfig, itt: u32, stage: &mut Transfer) {
        if let Some(mut r2t) = stage.next_r2t(itt, cfg.first_burst, cfg.max_burst) {
            r2t.r2t_sn += 1;
            r2t.ttt = r2t.r2t_sn + 1;
            cx.reply(Pdu::R2t(r2t));
        }
    }

    /// A write transfer is fully received: journal it (or park / fall
    /// back to write-through).
    fn complete_write(&mut self, cx: &mut SvcCtx, write: CompletedWrite) {
        cx.charge(self.per_byte * write.data.len() as u64);
        if self.journal_failed {
            self.write_through(cx, write);
            return;
        }
        let needed = 2 + (write.data.len() / SECTOR_SIZE) as u64;
        if self.tail + needed > self.cfg.journal_sectors {
            // Journal full: park until the flusher drains the cache and
            // the journal resets. The write is not acked while parked,
            // so a crash here loses nothing acknowledged.
            self.stats.journal_parks += 1;
            self.parked_writes.push(write);
            self.kick_flush(cx);
            return;
        }
        self.journal_append(cx, write, needed);
    }

    fn journal_append(&mut self, cx: &mut SvcCtx, write: CompletedWrite, needed: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let at = self.tail;
        self.tail += needed;
        let sectors = (write.data.len() / SECTOR_SIZE) as u32;
        // Header sector + payload in one append, commit record second.
        let mut rec = BytesMut::with_capacity(SECTOR_SIZE + write.data.len());
        let mut hdr = [0u8; SECTOR_SIZE];
        put_field(&mut hdr, 0, &HDR_MAGIC.to_le_bytes());
        put_field(&mut hdr, 4, &seq.to_le_bytes());
        put_field(&mut hdr, 12, &write.lba.to_le_bytes());
        put_field(&mut hdr, 20, &sectors.to_le_bytes());
        put_field(&mut hdr, 24, &fnv32(&write.data).to_le_bytes());
        // storm-lint: allow(no-hot-path-copy): journal record assembly on
        // the armed write path; idle caches never journal.
        rec.extend_from_slice(&hdr);
        // storm-lint: allow(no-hot-path-copy): journal payload staging on
        // the armed write path (durability copy, counted in the journal).
        rec.extend_from_slice(&write.data);
        let id = self.next_io_id();
        self.journal_waits.insert(id, (write, seq, at));
        cx.replica_write(JOURNAL, at, rec.freeze(), CTX_JOURNAL_DATA | id);
    }

    /// Journal is gone: degrade to write-through. The cached copy is
    /// updated in place (keeping any dirty bit) before forwarding, so a
    /// later flush of an overlapping dirty sector rewrites these same
    /// bytes instead of resurrecting stale data.
    fn write_through(&mut self, cx: &mut SvcCtx, write: CompletedWrite) {
        self.stats.write_through += 1;
        let n = write.data.len() / SECTOR_SIZE;
        for i in 0..n {
            let lba = write.lba + i as u64;
            if self.sectors.contains_key(&lba) {
                self.put_sector(
                    lba,
                    write.data.slice(i * SECTOR_SIZE..(i + 1) * SECTOR_SIZE),
                    false,
                );
            }
        }
        let cmd = BlockCmd {
            op: BlockOp::Write,
            lba: write.lba,
            sectors: n as u32,
        };
        cx.forward(cmd.command(write.itt, 0, 0, write.data));
    }

    /// Installs a committed write into the cache as dirty sectors.
    fn apply_committed(&mut self, cx: &mut SvcCtx, write: &CompletedWrite) {
        self.stats.journal_commits += 1;
        self.stats.writes_absorbed += 1;
        self.stats.bytes_absorbed += write.data.len() as u64;
        let sectors = write.data.len() / SECTOR_SIZE;
        for i in 0..sectors {
            self.put_sector(
                write.lba + i as u64,
                write.data.slice(i * SECTOR_SIZE..(i + 1) * SECTOR_SIZE),
                true,
            );
        }
        self.enforce_capacity();
        if !self.timer_armed {
            self.timer_armed = true;
            cx.set_timer(self.cfg.flush_delay, 0);
        }
    }

    /// Issues one flush round: up to `flush_batch` dirty sectors,
    /// coalesced into contiguous runs.
    fn kick_flush(&mut self, cx: &mut SvcCtx) {
        let mut picked: Vec<u64> = Vec::new();
        for (lba, s) in &self.sectors {
            if s.dirty && !s.flushing {
                picked.push(*lba);
                if picked.len() >= self.cfg.flush_batch {
                    break;
                }
            }
        }
        if picked.is_empty() {
            return;
        }
        self.stats.flushes += 1;
        let mut run_start = 0usize;
        while run_start < picked.len() {
            let mut run_end = run_start + 1;
            while run_end < picked.len() && picked[run_end] == picked[run_end - 1] + 1 {
                run_end += 1;
            }
            let base = picked[run_start];
            let mut buf = BytesMut::with_capacity((run_end - run_start) * SECTOR_SIZE);
            let mut gens = Vec::with_capacity(run_end - run_start);
            for &lba in &picked[run_start..run_end] {
                if let Some(s) = self.sectors.get_mut(&lba) {
                    // storm-lint: allow(no-hot-path-copy): flush-run
                    // assembly on the armed background path.
                    buf.extend_from_slice(&s.data);
                    s.flushing = true;
                    gens.push((lba, s.gen));
                }
            }
            self.stats.flushed_bytes += buf.len() as u64;
            let id = self.next_io_id();
            self.flush_waits.insert(id, gens);
            cx.replica_write(PRIMARY, base, buf.freeze(), CTX_FLUSH | id);
            run_start = run_end;
        }
    }

    /// Everything flushed: checkpoint the journal so the tail can reset.
    fn maybe_checkpoint(&mut self, cx: &mut SvcCtx) {
        if self.checkpoint_pending
            || self.journal_failed
            || self.dirty_count > 0
            || !self.journal_waits.is_empty()
            || !self.flush_waits.is_empty()
            || self.tail == 1
        {
            return;
        }
        self.checkpoint_pending = true;
        let mut ck = [0u8; SECTOR_SIZE];
        put_field(&mut ck, 0, &CKPT_MAGIC.to_le_bytes());
        put_field(&mut ck, 4, &self.next_seq.to_le_bytes());
        let id = self.next_io_id();
        // storm-lint: allow(no-hot-path-copy): one-sector checkpoint
        // record upload (metadata, background path).
        cx.replica_write(JOURNAL, 0, Bytes::copy_from_slice(&ck), CTX_CHECKPOINT | id);
    }

    /// Releases work that was waiting for journal space / cleanliness.
    fn release_parked(&mut self, cx: &mut SvcCtx) {
        let parked = std::mem::take(&mut self.parked_writes);
        for write in parked {
            self.complete_write(cx, write);
        }
        if self.is_clean() {
            for pdu in std::mem::take(&mut self.parked_syncs) {
                cx.forward(pdu);
            }
        }
    }

    fn on_write_cmd(&mut self, cx: &mut SvcCtx, c: ScsiCommand, cmd: BlockCmd) {
        if cmd.sectors == 0 {
            cx.forward(Pdu::ScsiCommand(c));
            return;
        }
        let (itt, lba) = (c.itt, cmd.lba);
        match self.cmds.stage(itt, cmd, &c.data) {
            Staged::Complete(_, data) => self.complete_write(cx, CompletedWrite { itt, lba, data }),
            Staged::Partial(stage) => Self::request_data(cx, &self.cfg, itt, stage),
            Staged::Untracked => {}
        }
    }

    fn on_data_out(&mut self, cx: &mut SvcCtx, d: storm_iscsi::DataOut) {
        let itt = d.itt;
        match self.cmds.absorb(itt, d.buffer_offset, &d.data) {
            Staged::Untracked => cx.forward(Pdu::DataOut(d)),
            Staged::Complete(BlockCmd { lba, .. }, data) => {
                self.complete_write(cx, CompletedWrite { itt, lba, data })
            }
            Staged::Partial(stage) if d.final_pdu => Self::request_data(cx, &self.cfg, itt, stage),
            Staged::Partial(_) => {}
        }
    }

    fn on_read_cmd(&mut self, cx: &mut SvcCtx, c: ScsiCommand, cmd: BlockCmd) {
        let BlockCmd { lba, sectors, .. } = cmd;
        cx.charge(self.per_byte * cmd.bytes());
        if sectors > 0 && self.full_hit(lba, sectors) {
            self.stats.read_hits += 1;
            let mut buf = BytesMut::with_capacity(cmd.bytes() as usize);
            for s in lba..lba + sectors as u64 {
                if let Some(sec) = self.sectors.get(&s) {
                    // storm-lint: allow(no-hot-path-copy): armed cache-hit
                    // assembly; the idle path forwards verbatim.
                    buf.extend_from_slice(&sec.data);
                }
                self.touch(s);
            }
            for pdu in data_in_train(c.itt, buf.freeze(), 64 * 1024) {
                cx.reply(pdu);
            }
            return;
        }
        self.stats.read_misses += 1;
        self.cmds.begin(c.itt, cmd);
        cx.forward(Pdu::ScsiCommand(c));
    }

    /// Target Data-In for a miss read: patch dirty sectors in, populate
    /// clean ones.
    fn on_data_in(&mut self, cx: &mut SvcCtx, mut d: DataIn, lba: u64) {
        let off = d.buffer_offset as usize;
        if d.data.is_empty()
            || !off.is_multiple_of(SECTOR_SIZE)
            || !d.data.len().is_multiple_of(SECTOR_SIZE)
        {
            cx.forward(Pdu::DataIn(d));
            return;
        }
        let start = lba + (off / SECTOR_SIZE) as u64;
        let n = d.data.len() / SECTOR_SIZE;
        let any_dirty = (start..start + n as u64)
            .any(|s| self.sectors.get(&s).is_some_and(|e| e.dirty || e.flushing));
        if any_dirty {
            self.stats.dirty_patches += 1;
            let mut buf = BytesMut::from(&d.data[..]);
            for i in 0..n {
                if let Some(e) = self.sectors.get(&(start + i as u64)) {
                    if e.dirty || e.flushing {
                        // storm-lint: allow(no-hot-path-copy): armed
                        // dirty-sector overlay onto the miss reply.
                        buf[i * SECTOR_SIZE..(i + 1) * SECTOR_SIZE].copy_from_slice(&e.data);
                    }
                }
            }
            d.data = buf.freeze();
        }
        for i in 0..n {
            let s = start + i as u64;
            if !self.sectors.contains_key(&s) {
                // Populate-on-read: zero-copy slices of the payload.
                self.put_sector(
                    s,
                    d.data.slice(i * SECTOR_SIZE..(i + 1) * SECTOR_SIZE),
                    false,
                );
            }
        }
        self.enforce_capacity();
        cx.forward(Pdu::DataIn(d));
    }
}

impl StorageService for WriteBackCacheService {
    fn name(&self) -> &str {
        "cache"
    }

    fn on_pdu(&mut self, cx: &mut SvcCtx, dir: Dir, pdu: Pdu) {
        if !self.armed {
            cx.forward(pdu);
            return;
        }
        match (dir, pdu) {
            (Dir::ToTarget, Pdu::ScsiCommand(c)) => match BlockCmd::parse(&c, u64::MAX) {
                Ok(cmd) if cmd.op == BlockOp::Write && c.write => self.on_write_cmd(cx, c, cmd),
                Ok(cmd) if cmd.op == BlockOp::Read && c.read => self.on_read_cmd(cx, c, cmd),
                Ok(cmd) if cmd.op == BlockOp::Flush && !self.is_clean() => {
                    self.parked_syncs.push(Pdu::ScsiCommand(c));
                    self.kick_flush(cx);
                }
                _ => cx.forward(Pdu::ScsiCommand(c)),
            },
            (Dir::ToTarget, Pdu::DataOut(d)) => self.on_data_out(cx, d),
            // The target's answer to a miss read (status retires it).
            (Dir::ToInitiator, pdu) => match (self.cmds.observe(&pdu), pdu) {
                (Step::ReadData(cmd, _), Pdu::DataIn(d)) => self.on_data_in(cx, d, cmd.lba),
                (_, pdu) => cx.forward(pdu),
            },
            (_, other) => cx.forward(other),
        }
    }

    fn on_replica_done(
        &mut self,
        cx: &mut SvcCtx,
        _replica: usize,
        ctx: u64,
        ok: bool,
        _data: Bytes,
    ) {
        let id = ctx & !CTX_KIND;
        match ctx & CTX_KIND {
            CTX_JOURNAL_DATA => {
                let Some((write, seq, base)) = self.journal_waits.remove(&id) else {
                    return;
                };
                if !ok {
                    self.on_replica_failed(cx, JOURNAL);
                    self.write_through(cx, write);
                    return;
                }
                // Phase 2: the commit record makes the entry durable.
                let sectors = (write.data.len() / SECTOR_SIZE) as u64;
                let mut ck = [0u8; SECTOR_SIZE];
                put_field(&mut ck, 0, &COMMIT_MAGIC.to_le_bytes());
                put_field(&mut ck, 4, &seq.to_le_bytes());
                let at = base + 1 + sectors;
                self.journal_waits.insert(id, (write, seq, base));
                cx.replica_write(
                    JOURNAL,
                    at,
                    // storm-lint: allow(no-hot-path-copy): one-sector
                    // commit record upload (metadata, armed write path).
                    Bytes::copy_from_slice(&ck),
                    CTX_JOURNAL_COMMIT | id,
                );
            }
            CTX_JOURNAL_COMMIT => {
                let Some((write, _, _)) = self.journal_waits.remove(&id) else {
                    return;
                };
                if !ok {
                    self.on_replica_failed(cx, JOURNAL);
                    self.write_through(cx, write);
                    return;
                }
                // Commit durable: acknowledge, then install dirty sectors.
                cx.reply(status_response(write.itt, ScsiStatus::Good));
                self.apply_committed(cx, &write);
            }
            CTX_FLUSH => {
                let Some(gens) = self.flush_waits.remove(&id) else {
                    return;
                };
                if ok {
                    for (lba, gen) in gens {
                        if let Some(s) = self.sectors.get_mut(&lba) {
                            s.flushing = false;
                            if s.gen == gen && s.dirty {
                                s.dirty = false;
                                self.dirty_count -= 1;
                            }
                        }
                    }
                } else {
                    for (lba, _) in gens {
                        if let Some(s) = self.sectors.get_mut(&lba) {
                            s.flushing = false;
                        }
                    }
                    cx.alert("cache: flush to primary failed; will retry");
                }
                if self.dirty_count == 0 {
                    self.maybe_checkpoint(cx);
                } else if !self.timer_armed {
                    self.timer_armed = true;
                    cx.set_timer(self.cfg.flush_delay, 0);
                }
            }
            CTX_CHECKPOINT => {
                self.checkpoint_pending = false;
                if ok {
                    // Journal generation reset: reuse the log area.
                    self.tail = 1;
                    self.seq_floor = self.next_seq;
                    self.release_parked(cx);
                } else {
                    self.on_replica_failed(cx, JOURNAL);
                }
            }
            _ => {}
        }
    }

    fn on_replica_failed(&mut self, cx: &mut SvcCtx, replica: usize) {
        if replica == JOURNAL && !self.journal_failed {
            self.journal_failed = true;
            cx.alert("cache: journal volume failed; degrading to write-through");
            // Parked writes can never be journaled now.
            for write in std::mem::take(&mut self.parked_writes) {
                self.write_through(cx, write);
            }
        }
    }

    fn on_timer(&mut self, cx: &mut SvcCtx, _token: u64) {
        self.timer_armed = false;
        self.kick_flush(cx);
        if self.dirty_count > 0 && !self.timer_armed {
            self.timer_armed = true;
            cx.set_timer(self.cfg.flush_delay, 0);
        } else if self.dirty_count == 0 {
            self.maybe_checkpoint(cx);
        }
    }

    fn per_byte_cost(&self) -> SimDuration {
        if self.armed {
            self.per_byte
        } else {
            SimDuration::ZERO
        }
    }
}

impl std::fmt::Debug for WriteBackCacheService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteBackCacheService")
            .field("armed", &self.armed)
            .field("cached", &self.sectors.len())
            .field("dirty", &self.dirty_count)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// What [`recover_journal`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed entries replayed onto the backing volume.
    pub applied_entries: u64,
    /// Payload bytes replayed.
    pub replayed_bytes: u64,
    /// Whether the scan stopped at a torn (uncommitted) entry.
    pub torn_tail: bool,
    /// Sequence floor read from the checkpoint record.
    pub seq_floor: u64,
}

/// Replays the committed prefix of a write-back-cache journal onto the
/// backing volume after a crash.
///
/// Entries are applied strictly in append order, so when the same sector
/// was journaled twice the later (newer) entry wins. The scan stops at
/// the first entry that is absent, stale (pre-checkpoint), or torn — an
/// append whose commit record never made it is by construction one the
/// initiator was never acked for, so skipping it is safe, and every
/// entry *before* it was acked and is replayed: no acknowledged write is
/// lost and no torn extent survives.
///
/// # Errors
///
/// Propagates device errors from either volume.
pub fn recover_journal(
    journal: &mut dyn BlockDevice,
    backing: &mut dyn BlockDevice,
) -> Result<RecoveryReport, BlockError> {
    let mut report = RecoveryReport::default();
    let total = journal.num_sectors();
    let mut sector = vec![0u8; SECTOR_SIZE];
    let word = |b: &[u8], o: usize| u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]]);
    let quad = |b: &[u8], o: usize| {
        u64::from_le_bytes([
            b[o],
            b[o + 1],
            b[o + 2],
            b[o + 3],
            b[o + 4],
            b[o + 5],
            b[o + 6],
            b[o + 7],
        ])
    };
    if total == 0 {
        return Ok(report);
    }
    journal.read(0, &mut sector)?;
    if word(&sector, 0) == CKPT_MAGIC {
        report.seq_floor = quad(&sector, 4);
    }
    let mut pos = 1u64;
    let mut last_seq = 0u64;
    while pos + 2 <= total {
        journal.read(pos, &mut sector)?;
        if word(&sector, 0) != HDR_MAGIC {
            break;
        }
        let seq = quad(&sector, 4);
        let lba = quad(&sector, 12);
        let sectors = word(&sector, 20) as u64;
        let checksum = word(&sector, 24);
        // Stale (pre-checkpoint), out-of-order (previous generation's
        // leftovers) or oversized entries end the committed prefix.
        if seq < report.seq_floor || seq <= last_seq && last_seq != 0 {
            break;
        }
        if sectors == 0 || pos + 2 + sectors > total {
            break;
        }
        let mut payload = vec![0u8; (sectors as usize) * SECTOR_SIZE];
        journal.read(pos + 1, &mut payload)?;
        journal.read(pos + 1 + sectors, &mut sector)?;
        let committed = word(&sector, 0) == COMMIT_MAGIC && quad(&sector, 4) == seq;
        if !committed || fnv32(&payload) != checksum {
            report.torn_tail = true;
            break;
        }
        backing.write(lba, &payload)?;
        report.applied_entries += 1;
        report.replayed_bytes += payload.len() as u64;
        last_seq = seq;
        pos += 2 + sectors;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_block::MemDisk;
    use storm_core::service::{ReplicaIo, SvcAction};
    use storm_iscsi::exchange::{data_in_final, data_out_train};
    use storm_sim::SimTime;

    /// A write of `edtl` bytes carrying `data` as immediate data.
    fn write_cmd(itt: u32, lba: u64, data: Vec<u8>, edtl: u32) -> Pdu {
        let cmd = BlockCmd {
            op: BlockOp::Write,
            lba,
            sectors: edtl / 512,
        };
        cmd.command(itt, 1, 1, Bytes::from(data))
    }

    fn read_cmd(itt: u32, lba: u64, sectors: u32) -> Pdu {
        let op = BlockOp::Read;
        BlockCmd { op, lba, sectors }.command(itt, 1, 1, Bytes::new())
    }

    /// A tiny relay stand-in: applies replica ops to MemDisks, loops
    /// until quiescent, and collects replies/forwards/timers.
    struct Harness {
        svc: WriteBackCacheService,
        journal: MemDisk,
        primary: MemDisk,
        replies: Vec<Pdu>,
        forwards: Vec<Pdu>,
        timers: u64,
        journal_ok: bool,
    }

    impl Harness {
        fn new(cfg: CacheConfig) -> Self {
            Harness {
                svc: WriteBackCacheService::new(cfg.clone()),
                journal: MemDisk::with_capacity_bytes(cfg.journal_sectors * SECTOR_SIZE as u64),
                primary: MemDisk::with_capacity_bytes(64 << 20),
                replies: Vec::new(),
                forwards: Vec::new(),
                timers: 0,
                journal_ok: true,
            }
        }

        fn drain(&mut self, mut cx: SvcCtx) {
            let mut pending = cx.take_actions();
            while !pending.is_empty() {
                let mut next = SvcCtx::new(SimTime::ZERO);
                for act in pending {
                    match act {
                        SvcAction::Reply(p) => self.replies.push(p),
                        SvcAction::Forward(p) => self.forwards.push(p),
                        SvcAction::Timer { .. } => self.timers += 1,
                        SvcAction::Replica { replica, io, ctx } => {
                            let disk: &mut MemDisk = if replica == JOURNAL {
                                &mut self.journal
                            } else {
                                &mut self.primary
                            };
                            let ok = self.journal_ok || replica != JOURNAL;
                            match io {
                                ReplicaIo::Write { lba, data } => {
                                    if ok {
                                        disk.write(lba, &data).unwrap();
                                    }
                                    self.svc.on_replica_done(
                                        &mut next,
                                        replica,
                                        ctx,
                                        ok,
                                        Bytes::new(),
                                    );
                                }
                                ReplicaIo::Read { lba, sectors } => {
                                    let mut buf = vec![0u8; sectors as usize * 512];
                                    disk.read(lba, &mut buf).unwrap();
                                    self.svc.on_replica_done(
                                        &mut next,
                                        replica,
                                        ctx,
                                        ok,
                                        Bytes::from(buf),
                                    );
                                }
                            }
                        }
                        SvcAction::Alert(_) | SvcAction::Charge(_) => {}
                    }
                }
                pending = next.take_actions();
            }
        }

        fn pdu(&mut self, dir: Dir, pdu: Pdu) {
            let mut cx = SvcCtx::new(SimTime::ZERO);
            self.svc.on_pdu(&mut cx, dir, pdu);
            self.drain(cx);
        }

        fn fire_timer(&mut self) {
            let mut cx = SvcCtx::new(SimTime::ZERO);
            self.svc.on_timer(&mut cx, 0);
            self.drain(cx);
        }

        fn acked(&self, itt: u32) -> bool {
            self.replies
                .iter()
                .any(|p| matches!(p, Pdu::ScsiResponse(r) if r.itt == itt))
        }
    }

    #[test]
    fn small_write_is_absorbed_journaled_and_acked() {
        let mut h = Harness::new(CacheConfig::default());
        h.pdu(Dir::ToTarget, write_cmd(1, 10, vec![0xAB; 4096], 4096));
        assert!(h.acked(1), "write acked from the journal");
        assert!(h.forwards.is_empty(), "write never reaches the target");
        assert_eq!(h.svc.dirty_sectors(), 8);
        assert_eq!(h.svc.stats.journal_commits, 1);
        // The journal holds a committed entry replayable onto a volume.
        let mut backing = MemDisk::with_capacity_bytes(1 << 20);
        let report = recover_journal(&mut h.journal, &mut backing).unwrap();
        assert_eq!(report.applied_entries, 1);
        assert!(!report.torn_tail);
        let mut buf = [0u8; 512];
        backing.read(10, &mut buf).unwrap();
        assert_eq!(buf[0], 0xAB);
    }

    #[test]
    fn jumbo_write_is_solicited_with_r2ts() {
        let mut h = Harness::new(CacheConfig::default());
        let total = 128 * 1024usize;
        // 8 KiB immediate, rest to be solicited past the 64 KiB
        // unsolicited limit.
        h.pdu(
            Dir::ToTarget,
            write_cmd(2, 0, vec![1u8; 8192], total as u32),
        );
        assert!(!h.acked(2));
        // Unsolicited Data-Out up to first_burst.
        let payload = Bytes::from(vec![1u8; total]);
        for pdu in data_out_train(2, 0xFFFF_FFFF, 1, &payload, 8192..64 * 1024, 8192) {
            h.pdu(Dir::ToTarget, pdu);
        }
        let r2t = h
            .replies
            .iter()
            .find_map(|p| match p {
                Pdu::R2t(r) => Some(r.clone()),
                _ => None,
            })
            .expect("cache solicits the tail");
        assert_eq!(r2t.buffer_offset as usize, 64 * 1024);
        assert_eq!(r2t.desired_length as usize, total - 64 * 1024);
        // Solicited Data-Out completes the transfer.
        for pdu in data_out_train(2, r2t.ttt, 1, &payload, 64 * 1024..total, 8192) {
            h.pdu(Dir::ToTarget, pdu);
        }
        assert!(h.acked(2), "write acked after full transfer");
        assert!(h.forwards.is_empty());
        assert_eq!(h.svc.stats.bytes_absorbed, total as u64);
    }

    /// A bare tenant `edtl` used to size the staging buffer.
    #[test]
    fn write_whose_length_disagrees_with_its_cdb_is_forwarded_unstaged() {
        let mut h = Harness::new(CacheConfig::default());
        let Pdu::ScsiCommand(mut c) = write_cmd(1, 0, Vec::new(), 512) else {
            unreachable!()
        };
        c.edtl = 0xFFFF_FE00;
        h.pdu(Dir::ToTarget, Pdu::ScsiCommand(c.clone()));
        assert!(matches!(&h.forwards[..], [Pdu::ScsiCommand(f)] if *f == c));
        assert!(h.svc.cmds.is_empty() && h.replies.is_empty());
    }

    #[test]
    fn read_hits_are_served_from_cache() {
        let mut h = Harness::new(CacheConfig::default());
        h.pdu(Dir::ToTarget, write_cmd(1, 100, vec![0x5A; 4096], 4096));
        h.pdu(Dir::ToTarget, read_cmd(2, 100, 8));
        assert!(h.forwards.is_empty(), "hit must not reach the target");
        let data: Vec<&DataIn> = h
            .replies
            .iter()
            .filter_map(|p| match p {
                Pdu::DataIn(d) if d.itt == 2 => Some(d),
                _ => None,
            })
            .collect();
        assert!(!data.is_empty());
        assert!(data.last().unwrap().status_present);
        assert!(data.iter().all(|d| d.data.iter().all(|b| *b == 0x5A)));
        assert_eq!(h.svc.stats.read_hits, 1);
    }

    #[test]
    fn read_misses_forward_populate_and_patch_dirty() {
        let mut h = Harness::new(CacheConfig::default());
        // Sector 5 is dirty in cache with fresh bytes.
        h.pdu(Dir::ToTarget, write_cmd(1, 5, vec![0xFF; 512], 512));
        // A read spanning 4..8 misses (4, 6, 7 uncached) and forwards.
        h.pdu(Dir::ToTarget, read_cmd(2, 4, 4));
        assert_eq!(h.svc.stats.read_misses, 1);
        assert!(matches!(h.forwards.last(), Some(Pdu::ScsiCommand(c)) if c.itt == 2));
        // The target answers with stale bytes for sector 5.
        h.pdu(
            Dir::ToInitiator,
            data_in_final(2, Bytes::from(vec![0x11; 4 * 512]), ScsiStatus::Good),
        );
        let out = match h.forwards.last() {
            Some(Pdu::DataIn(d)) => d.clone(),
            other => panic!("unexpected {other:?}"),
        };
        // Sector 5 (second sector of the read) carries the dirty bytes.
        assert!(out.data[512..1024].iter().all(|b| *b == 0xFF));
        assert!(out.data[..512].iter().all(|b| *b == 0x11));
        assert_eq!(h.svc.stats.dirty_patches, 1);
        // Sectors 4, 6, 7 were populated: the same read now hits.
        h.pdu(Dir::ToTarget, read_cmd(3, 4, 4));
        assert_eq!(h.svc.stats.read_hits, 1);
    }

    #[test]
    fn timer_flush_cleans_and_checkpoints() {
        let mut h = Harness::new(CacheConfig::default());
        h.pdu(Dir::ToTarget, write_cmd(1, 0, vec![0xCD; 8192], 8192));
        assert_eq!(h.svc.dirty_sectors(), 16);
        assert!(h.timers >= 1, "flush timer armed");
        h.fire_timer();
        assert_eq!(h.svc.dirty_sectors(), 0);
        assert!(h.svc.is_clean());
        assert_eq!(h.svc.stats.flushes, 1);
        // Flush landed on the primary volume.
        let mut buf = [0u8; 512];
        h.primary.read(15, &mut buf).unwrap();
        assert_eq!(buf[0], 0xCD);
        // The checkpoint reset the journal: recovery replays nothing.
        let mut backing = MemDisk::with_capacity_bytes(1 << 20);
        let report = recover_journal(&mut h.journal, &mut backing).unwrap();
        assert_eq!(report.applied_entries, 0);
        assert!(report.seq_floor > 0);
        assert_eq!(h.svc.tail, 1);
    }

    #[test]
    fn full_journal_parks_writes_until_reset() {
        let cfg = CacheConfig {
            journal_sectors: 12, // room for one 8-sector entry (2+8)
            ..CacheConfig::default()
        };
        let mut h = Harness::new(cfg);
        h.pdu(Dir::ToTarget, write_cmd(1, 0, vec![1u8; 4096], 4096));
        assert!(h.acked(1));
        // Second write does not fit: parked (unacked until the kicked
        // flush drains the cache and the journal resets). The harness
        // completes replica I/O synchronously, so the whole
        // park -> flush -> checkpoint -> journal -> ack chain runs here.
        h.pdu(Dir::ToTarget, write_cmd(2, 8, vec![2u8; 4096], 4096));
        assert_eq!(h.svc.stats.journal_parks, 1);
        assert!(h.acked(2), "parked write acked after journal reset");
        assert_eq!(h.svc.stats.journal_commits, 2);
    }

    #[test]
    fn synchronize_cache_waits_for_clean() {
        let mut h = Harness::new(CacheConfig::default());
        h.pdu(Dir::ToTarget, write_cmd(1, 0, vec![7u8; 4096], 4096));
        let sync = BlockCmd {
            op: BlockOp::Flush,
            lba: 0,
            sectors: 0,
        }
        .command(9, 2, 1, Bytes::new());
        h.pdu(Dir::ToTarget, sync);
        // The sync is parked; the kicked flush cleans the cache and the
        // checkpoint releases it to the target.
        assert!(
            h.forwards
                .iter()
                .any(|p| matches!(p, Pdu::ScsiCommand(c) if c.itt == 9)),
            "sync released after flush: {:?}",
            h.forwards
        );
        assert!(h.svc.is_clean());
    }

    #[test]
    fn journal_failure_degrades_to_write_through() {
        let mut h = Harness::new(CacheConfig::default());
        h.journal_ok = false;
        h.pdu(Dir::ToTarget, write_cmd(1, 0, vec![3u8; 4096], 4096));
        // No self-ack: the rebuilt write is forwarded to the target,
        // which will ack it.
        assert!(!h.acked(1));
        assert!(
            matches!(h.forwards.last(), Some(Pdu::ScsiCommand(c)) if c.itt == 1 && c.data.len() == 4096)
        );
        assert_eq!(h.svc.stats.write_through, 1);
        // Subsequent writes keep flowing through.
        h.pdu(Dir::ToTarget, write_cmd(2, 8, vec![4u8; 512], 512));
        assert_eq!(h.svc.stats.write_through, 2);
    }

    #[test]
    fn capacity_evicts_clean_sectors_only() {
        let cfg = CacheConfig {
            capacity_sectors: 8,
            ..CacheConfig::default()
        };
        let mut h = Harness::new(cfg);
        // 8 dirty sectors fill the cache.
        h.pdu(Dir::ToTarget, write_cmd(1, 0, vec![1u8; 4096], 4096));
        // Flush them clean.
        h.fire_timer();
        // 8 more dirty sectors: the clean ones are evicted.
        h.pdu(Dir::ToTarget, write_cmd(2, 100, vec![2u8; 4096], 4096));
        assert_eq!(h.svc.cached_sectors(), 8);
        assert!(h.svc.stats.evictions >= 8);
        assert_eq!(h.svc.dirty_sectors(), 8);
    }

    #[test]
    fn recovery_skips_torn_tail_but_replays_committed_prefix() {
        let mut h = Harness::new(CacheConfig::default());
        h.pdu(Dir::ToTarget, write_cmd(1, 0, vec![0xA1; 512], 512));
        h.pdu(Dir::ToTarget, write_cmd(2, 1, vec![0xB2; 512], 512));
        assert!(h.acked(1) && h.acked(2));
        // Corrupt the second entry's commit record: a torn append.
        // Each entry is header + payload + commit, one sector apiece:
        // entry 1 occupies journal sectors 1..4, entry 2 sectors 4..7,
        // so entry 2's commit record is sector 6.
        h.journal.write(6, &[0u8; 512]).unwrap();
        let mut backing = MemDisk::with_capacity_bytes(1 << 20);
        let report = recover_journal(&mut h.journal, &mut backing).unwrap();
        assert_eq!(report.applied_entries, 1);
        assert!(report.torn_tail);
        let mut buf = [0u8; 512];
        backing.read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0xA1);
        // The torn sector was never applied.
        backing.read(1, &mut buf).unwrap();
        assert_eq!(buf[0], 0);
    }

    #[test]
    fn recovery_applies_overwrites_in_append_order() {
        let mut h = Harness::new(CacheConfig::default());
        h.pdu(Dir::ToTarget, write_cmd(1, 0, vec![0x01; 512], 512));
        h.pdu(Dir::ToTarget, write_cmd(2, 0, vec![0x02; 512], 512));
        let mut backing = MemDisk::with_capacity_bytes(1 << 20);
        let report = recover_journal(&mut h.journal, &mut backing).unwrap();
        assert_eq!(report.applied_entries, 2);
        let mut buf = [0u8; 512];
        backing.read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0x02, "newest journal entry wins");
    }

    #[test]
    fn disarmed_cache_forwards_everything_verbatim() {
        let mut svc = WriteBackCacheService::disarmed(CacheConfig::default());
        let pdu = write_cmd(1, 0, vec![9u8; 4096], 4096);
        let mut cx = SvcCtx::new(SimTime::ZERO);
        svc.on_pdu(&mut cx, Dir::ToTarget, pdu.clone());
        let acts = cx.take_actions();
        assert!(matches!(&acts[..], [SvcAction::Forward(p)] if *p == pdu));
        assert_eq!(svc.stats, CacheStats::default());
        assert_eq!(svc.per_byte_cost(), SimDuration::ZERO);
    }
}
