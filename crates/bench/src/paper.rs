//! Scenario runners for the paper's application-level experiments:
//! Fig 10 (FTP CPU breakdown), Fig 11 (PostMark), Fig 12/13 (replication
//! under a replica failure) and Tables I–III (semantic reconstruction).
//!
//! Each is the `run` of one [`SCENARIOS`](crate::SCENARIOS) entry and
//! returns that entry's rows; the figure's numbers ride as row extras and
//! the claims relating them are the predicates in `figures.rs`. Sizes are
//! reduced here, in the entry, so the whole table stays a smoke run.

use storm_block::{MemDisk, RecordingDevice};
use storm_cloud::{Cloud, CloudConfig, VolumeHandle, Workload};
use storm_core::relay::ReplicaTarget;
use storm_core::semantics::FsEvent;
use storm_core::{FsOp, FsTargetKind, MbSpec, Reconstructor, RelayMode};
use storm_extfs::ExtFs;
use storm_net::{AppId, HostId};
use storm_services::{
    EncryptionService, MonitorConfig, MonitorService, NumberedAccess, ReplicationService,
};
use storm_sim::{SimDuration, SimTime};
use storm_workloads::postmark::{self, install_image};
use storm_workloads::{
    malware, FtpDirection, FtpWorkload, OltpConfig, OltpWorkload, OpClass, OpGroup, TraceWorkload,
};

use crate::{
    attach_over_path, attach_steered, build_cloud, client_point, relay_of, service_of, FioPoint,
    Output, PathMode, Row, Testbed,
};

/// The tenant's workload on compute0, as its concrete type.
fn workload_of<W: Workload>(cloud: &mut Cloud, app: AppId) -> &W {
    cloud
        .client_mut(0, app)
        .workload_ref()
        .and_then(|w| w.downcast_ref::<W>())
        .expect("client runs the requested workload type")
}

/// Attaches `workload` to `vol` either directly (encryption stays in the
/// guest) or through an active-relay middle-box running AES-256-XTS at
/// `mb_cipher_per_byte`; returns the middle-box VM's node in that case.
fn attach_encrypted(
    cloud: &mut Cloud,
    vol: &VolumeHandle,
    mb_cipher_per_byte: Option<SimDuration>,
    workload: Box<dyn Workload>,
    testbed: &Testbed,
) -> (PathMode, Option<HostId>, AppId) {
    let Some(per_byte) = mb_cipher_per_byte else {
        let mode = PathMode::Legacy;
        let app = attach_over_path(cloud, mode, vol, workload, testbed);
        return (mode, None, app);
    };
    let mut enc = EncryptionService::aes_xts(&[0x2F; 64]);
    enc.set_per_byte_cost(per_byte);
    let spec = MbSpec::with_services(3, RelayMode::Active, vec![Box::new(enc)]);
    let (d, app) = attach_steered(cloud, vol, spec, "vm:tenant", workload, testbed.seed);
    (PathMode::MbActiveRelay, Some(d.mb_nodes[0].node), app)
}

/// Upload size of the Fig 10 transfer. CPU shares are rates, so they read
/// the same at 128 MiB as at the multi-GB file of the paper's FTP run.
const FTP_BYTES: u64 = 128 << 20;
/// dm-crypt inside the VM: cycles per byte including its spinlock waste.
const FTP_VM_CIPHER_PER_BYTE: SimDuration = SimDuration::from_nanos(7);
/// The middle-box pipeline encrypts the same data without the in-guest
/// lock contention.
const FTP_MB_CIPHER_PER_BYTE: SimDuration = SimDuration::from_nanos(4);

/// Fig 10: CPU utilization during an FTP upload with AES-XTS performed in
/// the tenant VM (dm-crypt style) vs in a StorM encryption middle-box.
pub(crate) fn fig10(testbed: &Testbed) -> Output {
    let run = |name: &str, middlebox: bool| {
        let mut cloud = build_cloud(testbed.seed);
        let vol = cloud.create_volume(testbed.volume_bytes, 0);
        let mut ftp = FtpWorkload::new(FtpDirection::Upload, FTP_BYTES);
        if !middlebox {
            ftp = ftp.with_vm_cipher(FTP_VM_CIPHER_PER_BYTE);
        }
        let mb_cipher = middlebox.then_some(FTP_MB_CIPHER_PER_BYTE);
        let (mode, mb_node, app) =
            attach_encrypted(&mut cloud, &vol, mb_cipher, Box::new(ftp), testbed);
        cloud.net.run_until(SimTime::from_secs(10));
        let elapsed = workload_of::<FtpWorkload>(&mut cloud, app)
            .elapsed()
            .expect("transfer finished");
        // Utilization against 2 vCPUs, like the paper's VMs.
        let pct = |host, labels: &[&str]| {
            let cpu = &cloud.net.host(host).cpu;
            let busy: f64 = labels.iter().map(|l| cpu.busy_for(l).as_secs_f64()).sum();
            100.0 * busy / (elapsed.as_secs_f64() * 2.0)
        };
        let vm = pct(cloud.computes[0].host, &["vm:tenant"]);
        let mb = mb_node.map_or(0.0, |node| pct(node, &["mb", "fwd"]));
        let target = pct(cloud.storages[0].host, &["target"]);
        // 256 KiB chunks, four in flight (`FtpWorkload::new`).
        let point = client_point(&mut cloud, 0, app, elapsed);
        Row::new(name, mode, 256 * 1024, 4, 1, point)
            .extra("transfer_mib", (FTP_BYTES >> 20) as f64)
            .extra("vm_cpu_pct", vm)
            .extra("mb_cpu_pct", mb)
            .extra("target_cpu_pct", target)
            .extra("total_cpu_pct", vm + mb + target)
    };
    vec![
        run("fig10.in_guest.ftp", false),
        run("fig10.middlebox.ftp", true),
    ]
    .into()
}

/// In-guest dm-crypt on PostMark's small files: per-byte cipher work plus
/// the fixed per-bio overhead that dominates small-file workloads.
const POSTMARK_VM_CIPHER: (SimDuration, SimDuration) =
    (SimDuration::from_nanos(19), SimDuration::from_micros(350));
const POSTMARK_MB_CIPHER_PER_BYTE: SimDuration = SimDuration::from_nanos(6);

/// Fig 11: PostMark component throughput (100-file pool, 400 transactions
/// replayed as real ext-filesystem block traffic), encryption in the
/// tenant VM vs in a middle-box.
pub(crate) fn fig11(testbed: &Testbed) -> Output {
    let run = |name: &str, middlebox: bool| {
        let cfg = postmark::PostmarkConfig::default();
        let (mut image, groups) = postmark::prepare(&cfg);
        let mut cloud = build_cloud(testbed.seed);
        let vol = cloud.create_volume(cfg.volume_bytes, 0);
        install_image(&mut image, &mut vol.shared.clone());
        let mut trace = TraceWorkload::new(groups);
        if !middlebox {
            trace = trace.with_vm_cipher(POSTMARK_VM_CIPHER.0, POSTMARK_VM_CIPHER.1);
        }
        let mb_cipher = middlebox.then_some(POSTMARK_MB_CIPHER_PER_BYTE);
        let (mode, _, app) =
            attach_encrypted(&mut cloud, &vol, mb_cipher, Box::new(trace), testbed);
        cloud.net.run_until(SimTime::from_secs(120));
        let w = workload_of::<TraceWorkload>(&mut cloud, app);
        let elapsed = w.elapsed().expect("postmark finished");
        let classes = [
            (OpClass::Read, "read_ops_s"),
            (OpClass::Append, "append_ops_s"),
            (OpClass::Create, "create_ops_s"),
            (OpClass::Delete, "delete_ops_s"),
        ];
        let per_sec = |n: u64| n as f64 / elapsed.as_secs_f64();
        let mut extras: Vec<_> = classes
            .iter()
            .map(|&(c, key)| (key, per_sec(w.class_stats(c).ops.count())))
            .collect();
        let stats = classes.map(|(c, _)| w.class_stats(c));
        let (read, written) = (
            stats.iter().map(|s| s.bytes_read).sum(),
            stats.iter().map(|s| s.bytes_written).sum(),
        );
        extras.push(("read_mbps", per_sec(read) / 1e6));
        extras.push(("write_mbps", per_sec(written) / 1e6));
        let point = client_point(&mut cloud, 0, app, elapsed);
        let mut row = Row::new(name, mode, 4096, 1, 1, point);
        row.extras = extras;
        row
    };
    vec![
        run("fig11.in_guest.postmark", false),
        run("fig11.middlebox.postmark", true),
    ]
    .into()
}

/// Fig 13 scaled from the paper's 120 s / failure at 60 s to the order of
/// `tests/failover_recovery.rs`: the failure lands mid-run and the TPS
/// means skip the first second and the second around the failure.
const OLTP_SECS: u64 = 10;
const OLTP_FAIL_AT_SECS: u64 = 5;
/// Six Sysbench threads over a 128 MiB hot set, four times the 32 MiB page
/// cache (4 KiB blocks), so reads hit the spindles: the regime where
/// striping reads across three replicas aggregates throughput.
const OLTP_THREADS: usize = 6;
const OLTP_AREA_SECTORS: u64 = 1 << 18;
const OLTP_CACHE_BLOCKS: usize = 8_192;

/// Fig 12/13: OLTP against a volume behind a replication middle-box with
/// two backup replicas on separate storage hosts, one of which fails
/// mid-run; and against the same volume attached directly.
pub(crate) fn fig13(testbed: &Testbed) -> Output {
    let run = |name: &str, replicated: bool| {
        let mut cfg = CloudConfig {
            storage_hosts: 3,
            backing_bytes: 8 << 30,
            seed: testbed.seed,
            ..CloudConfig::default()
        };
        cfg.target.disk.cache_blocks = OLTP_CACHE_BLOCKS;
        let mut cloud = Cloud::build(cfg);
        let vols = [0, 1, 2].map(|host| cloud.create_volume(testbed.volume_bytes, host));
        let oltp = Box::new(OltpWorkload::new(OltpConfig {
            threads: OLTP_THREADS,
            reads_per_txn: 3,
            area_sectors: OLTP_AREA_SECTORS,
            duration: SimDuration::from_secs(OLTP_SECS),
        }));
        let fail_at = SimTime::from_secs(OLTP_FAIL_AT_SECS);
        let (mode, deployment, app) = if replicated {
            let spec = MbSpec {
                host_idx: 3,
                mode: RelayMode::Active,
                services: vec![Box::new(ReplicationService::new(2, true))],
                replicas: vols[1..]
                    .iter()
                    .map(|v| ReplicaTarget {
                        portal: v.portal,
                        iqn: v.iqn.clone(),
                    })
                    .collect(),
            };
            let (d, app) = attach_steered(&mut cloud, &vols[0], spec, "vm:mysql", oltp, 77);
            cloud.net.run_until(fail_at);
            vols[1].shared.fail();
            (PathMode::MbActiveRelay, Some(d), app)
        } else {
            let app = cloud.attach_volume(0, "vm:mysql", &vols[0], oltp, 77, false);
            (PathMode::Legacy, None, app)
        };
        cloud.net.run_until(SimTime::from_secs(OLTP_SECS + 2));
        let errors = cloud.client_mut(0, app).stats.errors;
        let w = workload_of::<OltpWorkload>(&mut cloud, app);
        let fail = OLTP_FAIL_AT_SECS as usize;
        let (before, after) = (
            w.mean_tps(1, fail),
            w.mean_tps(fail + 1, OLTP_SECS as usize),
        );
        let alive = deployment.map_or(0, |d| {
            service_of::<ReplicationService>(&mut cloud, &d).alive_replicas()
        });
        let window = SimDuration::from_secs(OLTP_SECS);
        let point = client_point(&mut cloud, 0, app, window);
        Row::new(name, mode, 16 * 1024, OLTP_THREADS, 1, point)
            .extra("hot_set_mib", (OLTP_AREA_SECTORS >> 11) as f64)
            .extra("cache_mib", (OLTP_CACHE_BLOCKS >> 8) as f64)
            .extra("run_s", OLTP_SECS as f64)
            .extra("fail_at_s", OLTP_FAIL_AT_SECS as f64)
            .extra("client_errors", errors as f64)
            .extra("tps_before", before)
            .extra("tps_after", after)
            .extra("alive_replicas", alive as f64)
    };
    vec![
        run("fig13.replicated.oltp", true),
        run("fig13.single.oltp", false),
    ]
    .into()
}

/// What a monitoring middle-box saw of one replayed trace.
struct Monitored {
    point: FioPoint,
    /// The reconstructed access log (Table I's rows).
    log: Vec<NumberedAccess>,
    /// File creations and unlinks inferred from metadata writes.
    events: Vec<FsEvent>,
    alerts: usize,
}

impl Monitored {
    /// Bytes the log attributes to `op` on the file `path`.
    fn bytes(&self, op: FsOp, path: &str) -> f64 {
        let on_path = |e: &&NumberedAccess| {
            e.row.op == op && matches!(&e.row.target, FsTargetKind::File { path: p } if p == path)
        };
        self.log
            .iter()
            .filter(on_path)
            .map(|e| e.row.bytes as f64)
            .sum()
    }

    /// Whether the monitor saw `path` accessed or created.
    fn recovered(&self, path: &str) -> bool {
        let accessed = self.log.iter().any(|e| match &e.row.target {
            FsTargetKind::File { path: p } | FsTargetKind::Dir { path: p } => p == path,
            _ => false,
        });
        let created = |e: &FsEvent| matches!(e, FsEvent::Created { path: p, .. } if p == path);
        accessed || self.events.iter().any(created)
    }

    fn row(&self, name: &str) -> Row {
        Row::new(name, PathMode::MbActiveRelay, 4096, 1, 1, self.point)
            .extra("log_rows", self.log.len() as f64)
            .extra("alerts", self.alerts as f64)
    }
}

/// Installs `image` on a fresh volume mounted at `mount`, replays `groups`
/// from the tenant VM through a monitoring middle-box alerting on `watch`,
/// and reads the monitor's findings back out of the relay.
fn monitored_replay(
    testbed: &Testbed,
    image: &mut MemDisk,
    groups: Vec<OpGroup>,
    mount: &str,
    watch: &[&str],
) -> Monitored {
    let mut cloud = build_cloud(testbed.seed);
    let vol = cloud.create_volume(256 << 20, 0);
    install_image(image, &mut vol.shared.clone());
    let recon = Reconstructor::from_device(&mut vol.shared.clone(), mount)
        .expect("volume holds an ext filesystem");
    let config = MonitorConfig {
        watch: watch.iter().map(|w| w.to_string()).collect(),
        per_byte_cost: SimDuration::ZERO,
    };
    let monitor = MonitorService::new(config, recon);
    let spec = MbSpec::with_services(3, RelayMode::Active, vec![Box::new(monitor)]);
    let trace = Box::new(TraceWorkload::new(groups));
    let (deployment, app) =
        attach_steered(&mut cloud, &vol, spec, "vm:tenant", trace, testbed.seed);
    cloud.net.run_until(SimTime::from_secs(30));
    let elapsed = workload_of::<TraceWorkload>(&mut cloud, app)
        .elapsed()
        .expect("trace replay finished");
    let point = client_point(&mut cloud, 0, app, elapsed);
    let alerts = relay_of(&mut cloud, &deployment).alerts().len();
    let monitor = service_of::<MonitorService>(&mut cloud, &deployment);
    Monitored {
        point,
        log: monitor.analysis(),
        events: monitor.events(),
        alerts,
    }
}

/// Tables I and II: the paper's synthetic scenario. An ext volume mounted
/// at `/mnt/box` holds `name0..name9` × `1.img..10.img`; the tenant issues
/// Table II's two file operations and the monitor must attribute their
/// bytes to the right files from block accesses alone.
pub(crate) fn table1(testbed: &Testbed) -> Output {
    let dev = RecordingDevice::new(MemDisk::with_capacity_bytes(256 << 20));
    let mut fs = ExtFs::mkfs(dev).expect("mkfs");
    for d in 0..10 {
        fs.mkdir(&format!("/name{d}")).expect("mkdir");
        for i in 1..=10 {
            let path = format!("/name{d}/{i}.img");
            fs.create(&path).expect("create");
            fs.write_file(&path, 0, &[(d * 10 + i) as u8; 4096])
                .expect("write");
        }
    }
    fs.sync().expect("sync");
    fs.device_mut().take_log();
    // Table II, op 1: write /mnt/box/name1/1.img 32768.
    fs.write_file("/name1/1.img", 0, &[0xEE; 32768])
        .expect("write");
    fs.sync().expect("sync");
    let write = fs.device_mut().take_log();
    // Table II, op 2: read /mnt/box/name9/7.img 4096.
    fs.read_file_to_end("/name9/7.img").expect("read");
    let read = fs.device_mut().take_log();
    let group = |class, label: &str, accesses| OpGroup {
        class,
        label: label.into(),
        accesses,
    };
    let groups = vec![
        group(OpClass::Append, "write name1/1.img", write),
        group(OpClass::Read, "read name9/7.img", read),
    ];
    let mut image = fs.into_device().expect("unmount").into_inner();
    let seen = monitored_replay(testbed, &mut image, groups, "/mnt/box", &["/mnt/box/name9"]);
    let written = seen.bytes(FsOp::Write, "/mnt/box/name1/1.img");
    let read = seen.bytes(FsOp::Read, "/mnt/box/name9/7.img");
    vec![seen
        .row("table1.monitor.synthetic")
        .extra("name1_write_bytes", written)
        .extra("name9_read_bytes", read)]
    .into()
}

/// Table III: the scripted re-enactment of `HEUR:Backdoor.Linux.Ganiw.a`'s
/// installation (`storm_workloads::malware`), replayed through the
/// monitor, which must recover every artifact of every step.
pub(crate) fn table3(testbed: &Testbed) -> Output {
    let mut image = malware::build_system_image();
    let (groups, steps) = malware::ganiw_trace(image.clone());
    let seen = monitored_replay(testbed, &mut image, groups, "", &["/etc/init.d", "/bin"]);
    let artifacts: Vec<&String> = steps.iter().flat_map(|s| &s.touches).collect();
    let missed = artifacts.iter().filter(|p| !seen.recovered(p)).count();
    vec![seen
        .row("table3.ganiw.install")
        .extra("steps", steps.len() as f64)
        .extra("artifacts", artifacts.len() as f64)
        .extra("missed", missed as f64)]
    .into()
}
