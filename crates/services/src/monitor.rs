//! Case 1: the storage access monitor.
//!
//! "The goal of the storage access monitor is to allow tenants to set an
//! alert on sensitive files and directories, and the middle-box will log
//! all accesses made to these marked resources." The engine runs the three
//! phases of §V-B1: **Classification** (file content vs metadata, via the
//! [`Reconstructor`]'s system view), **Update** (metadata writes refresh
//! the view) and **Analysis** (logging + watch-list alerts).

use storm_core::{Dir, FsAccess, FsOp, FsTargetKind, Reconstructor, StorageService, SvcCtx};
use storm_iscsi::exchange::{BlockOp, Exchange, Staged, Step};
use storm_iscsi::Pdu;
use storm_sim::SimDuration;

/// Monitor configuration.
#[derive(Debug, Clone, Default)]
pub struct MonitorConfig {
    /// Path prefixes to alert on (e.g. `/mnt/box/secrets`).
    pub watch: Vec<String>,
    /// Per-byte classification cost charged to the middle-box.
    pub per_byte_cost: SimDuration,
}

/// A log entry: sequential access id + reconstructed row (a Table I line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumberedAccess {
    /// Sequential access id (Table I column 1).
    pub id: u64,
    /// The reconstructed access.
    pub row: FsAccess,
}

impl std::fmt::Display for NumberedAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:>4}  {}", self.id, self.row)
    }
}

/// The storage access monitor service (active relay).
pub struct MonitorService {
    cfg: MonitorConfig,
    recon: Reconstructor,
    log: Vec<NumberedAccess>,
    next_id: u64,
    /// Open commands; writes assemble their payload here.
    cmds: Exchange,
}

impl MonitorService {
    /// Creates a monitor over a bootstrapped reconstructor.
    pub fn new(cfg: MonitorConfig, recon: Reconstructor) -> Self {
        MonitorService {
            cfg,
            recon,
            log: Vec::new(),
            next_id: 1,
            cmds: Exchange::default(),
        }
    }

    /// The raw access log (classification-time targets).
    pub fn log(&self) -> &[NumberedAccess] {
        &self.log
    }

    /// Analysis phase: the access log with late re-classification applied
    /// (fresh files resolve to their paths once metadata was seen).
    pub fn analysis(&self) -> Vec<NumberedAccess> {
        self.log
            .iter()
            .map(|e| NumberedAccess {
                id: e.id,
                row: self.recon.reclassify(&e.row),
            })
            .collect()
    }

    /// High-level create/unlink events inferred so far.
    pub fn events(&mut self) -> Vec<storm_core::semantics::FsEvent> {
        self.recon.take_events()
    }

    /// The reconstruction engine (e.g. for path queries).
    pub fn reconstructor(&self) -> &Reconstructor {
        &self.recon
    }

    fn watch_hit(&self, row: &FsAccess) -> Option<String> {
        let path = match &row.target {
            FsTargetKind::File { path } | FsTargetKind::Dir { path } => path,
            _ => return None,
        };
        self.cfg
            .watch
            .iter()
            .find(|w| path.starts_with(w.as_str()))
            .map(|_| path.clone())
    }

    fn record(&mut self, cx: &mut SvcCtx, rows: Vec<FsAccess>) {
        for row in rows {
            if let Some(path) = self.watch_hit(&row) {
                cx.alert(format!("watched path accessed: {} ({})", path, row.op));
            }
            self.log.push(NumberedAccess {
                id: self.next_id,
                row,
            });
            self.next_id += 1;
        }
    }

    fn observe_write(&mut self, cx: &mut SvcCtx, lba: u64, data: &[u8]) {
        cx.charge(self.cfg.per_byte_cost * data.len() as u64);
        let rows = self.recon.observe(FsOp::Write, lba, data.len(), Some(data));
        self.record(cx, rows);
    }
}

impl StorageService for MonitorService {
    fn name(&self) -> &str {
        "monitor"
    }

    fn on_pdu(&mut self, cx: &mut SvcCtx, _dir: Dir, pdu: Pdu) {
        let written = match (self.cmds.observe(&pdu), &pdu) {
            (Step::Command(cmd), Pdu::ScsiCommand(c)) => match cmd.op {
                BlockOp::Read => {
                    let len = cmd.bytes() as usize;
                    let rows = self.recon.observe(FsOp::Read, cmd.lba, len, None);
                    self.record(cx, rows);
                    Staged::Untracked
                }
                BlockOp::Write => self.cmds.stage(c.itt, cmd, &c.data),
                BlockOp::Flush => Staged::Untracked,
            },
            (Step::WriteData(_, offset), Pdu::DataOut(d)) => {
                self.cmds.absorb(d.itt, offset, &d.data)
            }
            _ => Staged::Untracked,
        };
        if let Staged::Complete(cmd, data) = written {
            self.observe_write(cx, cmd.lba, &data);
        }
        cx.forward(pdu);
    }

    fn per_byte_cost(&self) -> SimDuration {
        self.cfg.per_byte_cost
    }
}

impl std::fmt::Debug for MonitorService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorService")
            .field("log_len", &self.log.len())
            .field("watch", &self.cfg.watch)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use storm_block::{AccessKind, MemDisk, RecordingDevice};
    use storm_core::service::SvcAction;
    use storm_extfs::ExtFs;
    use storm_iscsi::exchange::BlockCmd;
    use storm_sim::SimTime;

    fn monitored_fs() -> (ExtFs<RecordingDevice<MemDisk>>, MonitorService) {
        let dev = RecordingDevice::new(MemDisk::with_capacity_bytes(64 << 20));
        let mut fs = ExtFs::mkfs(dev).unwrap();
        fs.mkdir("/box").unwrap();
        fs.create("/box/secret.txt").unwrap();
        fs.write_file("/box/secret.txt", 0, b"classified").unwrap();
        fs.sync().unwrap();
        fs.device_mut().take_log();
        let recon = Reconstructor::from_device(fs.device_mut().inner_mut(), "/mnt/box").unwrap();
        let cfg = MonitorConfig {
            watch: vec!["/mnt/box/box/secret.txt".into()],
            per_byte_cost: SimDuration::ZERO,
        };
        (fs, MonitorService::new(cfg, recon))
    }

    /// Feeds the fs's recorded accesses to the monitor as PDUs.
    fn feed_log(mon: &mut MonitorService, log: Vec<storm_block::AccessRecord>) -> Vec<SvcAction> {
        let mut actions = Vec::new();
        for (itt, rec) in (101u32..).zip(log) {
            let mut cx = SvcCtx::new(SimTime::ZERO);
            let (op, data) = match rec.kind {
                AccessKind::Read => (BlockOp::Read, Bytes::new()),
                AccessKind::Write => (BlockOp::Write, Bytes::from(rec.data.clone())),
            };
            let cmd = BlockCmd {
                op,
                lba: rec.lba,
                sectors: rec.sectors as u32,
            };
            let pdu = cmd.command(itt, itt, 1, data);
            mon.on_pdu(&mut cx, Dir::ToTarget, pdu);
            actions.extend(cx.take_actions());
        }
        actions
    }

    #[test]
    fn logs_accesses_with_sequential_ids() {
        let (mut fs, mut mon) = monitored_fs();
        let _ = fs.read_file_to_end("/box/secret.txt").unwrap();
        let actions = feed_log(&mut mon, fs.device_mut().take_log());
        assert!(!mon.log().is_empty());
        let ids: Vec<u64> = mon.log().iter().map(|e| e.id).collect();
        assert!(ids.windows(2).all(|w| w[1] == w[0] + 1));
        assert_eq!(ids[0], 1);
        // Every PDU was forwarded (the monitor is transparent).
        let forwards = actions
            .iter()
            .filter(|a| matches!(a, SvcAction::Forward(_)))
            .count();
        assert!(forwards > 0);
    }

    #[test]
    fn watch_list_raises_alerts() {
        let (mut fs, mut mon) = monitored_fs();
        let _ = fs.read_file_to_end("/box/secret.txt").unwrap();
        let actions = feed_log(&mut mon, fs.device_mut().take_log());
        let alerts: Vec<&SvcAction> = actions
            .iter()
            .filter(|a| matches!(a, SvcAction::Alert(_)))
            .collect();
        assert!(!alerts.is_empty(), "reading a watched file must alert");
    }

    #[test]
    fn unwatched_access_does_not_alert() {
        let (mut fs, mut mon) = monitored_fs();
        fs.create("/box/benign.txt").unwrap();
        fs.write_file("/box/benign.txt", 0, b"nothing to see")
            .unwrap();
        fs.sync().unwrap();
        let actions = feed_log(&mut mon, fs.device_mut().take_log());
        assert!(!actions.iter().any(|a| matches!(a, SvcAction::Alert(_))));
        // But analysis attributes the write to the right path.
        let rows = mon.analysis();
        assert!(rows.iter().any(|e| {
            e.row.op == FsOp::Write
                && matches!(&e.row.target, FsTargetKind::File { path } if path == "/mnt/box/box/benign.txt")
        }), "rows: {rows:?}");
    }

    #[test]
    fn detects_file_creation_events() {
        let (mut fs, mut mon) = monitored_fs();
        fs.mkdir("/etc").unwrap();
        fs.mkdir("/etc/init.d").unwrap();
        fs.create("/etc/init.d/DbSecuritySpt").unwrap();
        fs.sync().unwrap();
        let _ = feed_log(&mut mon, fs.device_mut().take_log());
        let events = mon.events();
        assert!(
            events.iter().any(|e| matches!(
                e,
                storm_core::semantics::FsEvent::Created { path, .. }
                if path == "/mnt/box/etc/init.d/DbSecuritySpt"
            )),
            "events: {events:?}"
        );
    }

    /// A bare tenant `edtl` used to size the staging buffer (here 4 GiB
    /// for a one-sector CDB).
    #[test]
    fn write_whose_length_disagrees_with_its_cdb_is_forwarded_untracked() {
        let (_, mut mon) = monitored_fs();
        let cmd = BlockCmd {
            op: BlockOp::Write,
            lba: 0,
            sectors: 1,
        };
        let Pdu::ScsiCommand(mut c) = cmd.command(1, 1, 1, Bytes::new()) else {
            unreachable!()
        };
        c.edtl = 0xFFFF_FE00;
        let mut cx = SvcCtx::new(SimTime::ZERO);
        mon.on_pdu(&mut cx, Dir::ToTarget, Pdu::ScsiCommand(c.clone()));
        let acts = cx.take_actions();
        assert!(matches!(&acts[..], [SvcAction::Forward(Pdu::ScsiCommand(f))] if *f == c));
        assert!(mon.cmds.is_empty() && mon.log().is_empty());
    }

    /// READ/WRITE with transfer length 0 is legal SCSI and parses
    /// (`edtl == 0 == bytes`): it moves nothing, so it logs nothing.
    #[test]
    fn zero_length_commands_are_forwarded_and_log_nothing() {
        let (_, mut mon) = monitored_fs();
        let cases = [BlockOp::Read, BlockOp::Write]
            .into_iter()
            .flat_map(|op| [0, 8, 1 << 33].map(|lba| (op, lba)));
        for (itt, (op, lba)) in (1u32..).zip(cases) {
            let cmd = BlockCmd {
                op,
                lba,
                sectors: 0,
            };
            let pdu = cmd.command(itt, itt, 1, Bytes::new());
            let mut cx = SvcCtx::new(SimTime::ZERO);
            mon.on_pdu(&mut cx, Dir::ToTarget, pdu.clone());
            let acts = cx.take_actions();
            let forwarded: Vec<_> = acts
                .iter()
                .filter_map(|a| match a {
                    SvcAction::Forward(f) => Some(f),
                    _ => None,
                })
                .collect();
            assert_eq!(forwarded, [&pdu], "{op:?} at {lba}: {acts:?}");
            assert!(mon.log().is_empty(), "{op:?} at {lba}: {:?}", mon.log());
            assert!(mon.events().is_empty());
        }
    }
}
