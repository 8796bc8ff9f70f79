//! A Sysbench-style OLTP client (the Figure 13 database workload).
//!
//! Each client VM runs `threads` request threads in "complex mode": a
//! transaction is a handful of 16 KiB page reads, an 8 KiB redo-log write
//! and a 16 KiB page write against the MySQL server's volume. Completed
//! transactions land in a per-second timeline — the series Figure 13
//! plots before and after a replica failure.

use bytes::Bytes;

use storm_cloud::{IoCtx, IoKind, IoResult, ReqId, Workload};
use storm_sim::metrics::Timeline;
use storm_sim::{SimDuration, SimTime};

/// OLTP client parameters.
#[derive(Debug, Clone)]
pub struct OltpConfig {
    /// Concurrent request threads (the paper uses six per VM).
    pub threads: usize,
    /// Page reads per transaction.
    pub reads_per_txn: usize,
    /// Database area in sectors.
    pub area_sectors: u64,
    /// Stop issuing after this long.
    pub duration: SimDuration,
}

impl Default for OltpConfig {
    fn default() -> Self {
        OltpConfig {
            threads: 6,
            reads_per_txn: 3,
            area_sectors: 40 << 11, // 40 MiB of pages
            duration: SimDuration::from_secs(120),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// A page read is in flight; `remaining` reads follow it.
    ReadInFlight { remaining: usize },
    /// The redo-log write is in flight.
    LogInFlight,
    /// The page write is in flight (transaction completes with it).
    PageInFlight,
    /// Thread retired (deadline reached).
    Idle,
}

/// The OLTP workload.
#[derive(Debug)]
pub struct OltpWorkload {
    cfg: OltpConfig,
    /// Per thread, its phase and the request it waits on.
    threads: Vec<(Phase, Option<ReqId>)>,
    log_pos: u64,
    started: Option<SimTime>,
    /// Completed transactions.
    pub transactions: u64,
    /// Per-second transaction completions (Figure 13's series).
    pub tps: Timeline,
}

impl OltpWorkload {
    /// Creates the workload.
    pub fn new(cfg: OltpConfig) -> Self {
        OltpWorkload {
            threads: vec![(Phase::Idle, None); cfg.threads],
            cfg,
            log_pos: 0,
            started: None,
            transactions: 0,
            tps: Timeline::new(SimDuration::from_secs(1)),
        }
    }

    /// Mean TPS over seconds `[lo, hi)`.
    pub fn mean_tps(&self, lo: usize, hi: usize) -> f64 {
        self.tps.mean_over(lo, hi)
    }

    fn random_page(&self, io: &mut IoCtx<'_>) -> u64 {
        // 16 KiB-aligned page (32 sectors).
        let pages = (self.cfg.area_sectors / 32).max(1);
        io.rng().below(pages) * 32
    }

    fn begin_txn(&mut self, io: &mut IoCtx<'_>, t: usize) {
        let deadline = self.started.map(|s| s + self.cfg.duration);
        if deadline.is_some_and(|d| io.now >= d) {
            self.threads[t] = (Phase::Idle, None);
            if self.threads.iter().all(|th| th.0 == Phase::Idle) {
                io.stop();
            }
            return;
        }
        let page = self.random_page(io);
        let remaining = self.cfg.reads_per_txn - 1;
        self.threads[t] = (Phase::ReadInFlight { remaining }, Some(io.read(page, 32)));
    }

    fn thread_of(&self, req: ReqId) -> Option<usize> {
        self.threads.iter().position(|t| t.1 == Some(req))
    }
}

impl Workload for OltpWorkload {
    fn start(&mut self, io: &mut IoCtx<'_>) {
        self.started = Some(io.now);
        for t in 0..self.threads.len() {
            self.begin_txn(io, t);
        }
    }

    fn completed(&mut self, io: &mut IoCtx<'_>, req: ReqId, _kind: IoKind, _result: IoResult) {
        let Some(t) = self.thread_of(req) else {
            return;
        };
        match self.threads[t].0 {
            Phase::ReadInFlight { remaining } if remaining > 0 => {
                let page = self.random_page(io);
                let remaining = remaining - 1;
                self.threads[t] = (Phase::ReadInFlight { remaining }, Some(io.read(page, 32)));
            }
            Phase::ReadInFlight { .. } => {
                // Sequential 8 KiB redo-log append in a dedicated region.
                let lba = self.cfg.area_sectors + (self.log_pos % 2048) * 16;
                self.log_pos += 1;
                let req = io.write(lba, Bytes::from(vec![0x10u8; 8192]));
                self.threads[t] = (Phase::LogInFlight, Some(req));
            }
            Phase::LogInFlight => {
                let page = self.random_page(io);
                let req = io.write(page, Bytes::from(vec![0x20u8; 16384]));
                self.threads[t] = (Phase::PageInFlight, Some(req));
            }
            Phase::PageInFlight => {
                self.transactions += 1;
                self.tps.record(io.now);
                self.begin_txn(io, t);
            }
            Phase::Idle => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `threads` threads issuing for `secs` seconds, and two more to
    /// drain: the transactions and their per-second series.
    fn oltp(threads: usize, secs: u64, seed: u64) -> (u64, Timeline) {
        let duration = SimDuration::from_secs(secs);
        let cfg = OltpConfig {
            threads,
            duration,
            ..OltpConfig::default()
        };
        let w = OltpWorkload::new(cfg);
        crate::solo(w, seed, secs + 2, |_, w, _| (w.transactions, w.tps.clone()))
    }

    #[test]
    fn transactions_flow_and_timeline_fills() {
        let (transactions, tps) = oltp(6, 5, 21);
        assert!(transactions > 50, "got {transactions} transactions");
        // The per-second series must cover the run and be non-trivial.
        assert!(tps.series().len() >= 4);
        assert!(tps.mean_over(1, 4) > 5.0, "series: {:?}", tps.series());
    }

    #[test]
    fn more_threads_more_tps() {
        let tps_for = |threads| oltp(threads, 4, 22).0;
        let one = tps_for(1);
        let six = tps_for(6);
        assert!(six > one * 2, "{one} vs {six}");
    }
}
