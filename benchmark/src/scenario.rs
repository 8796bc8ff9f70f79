//! The five full-stack scenarios, each assembled here from the public
//! APIs of `storm-cloud` / `storm-core` / `storm-services` /
//! `storm-workloads`, so that no edit under `crates/bench` can move a
//! workload. Every rep rebuilds its scenario from the seed.

use std::time::Instant;

use storm_cloud::{Cloud, CloudConfig, VolumeHandle};
use storm_core::{ActiveRelayMb, ChainDeployment, MbSpec, Reconstructor, RelayMode, StormPlatform};
use storm_iscsi::TransportKind;
use storm_net::{AppId, HostId, LinkId, LinkSpec};
use storm_services::{
    CompressService, DedupService, EncryptionService, MonitorConfig, MonitorService,
};
use storm_sim::trace::TraceHook;
use storm_sim::{SimDuration, SimTime};
use storm_workloads::postmark::{self, PostmarkConfig};
use storm_workloads::{FioJob, FioWorkload, TraceWorkload};

use crate::spans::Spans;
use crate::stats::Fnv;
use crate::workloads::{ChainWriteJob, ChainWriteWorkload, Measured};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FullStack {
    RelayStream64k,
    NvmeqQd32,
    Fwd4kQd32,
    ChainWrite16k,
    PostmarkMonitor,
}

impl FullStack {
    pub const ALL: [FullStack; 5] = [
        FullStack::RelayStream64k,
        FullStack::NvmeqQd32,
        FullStack::Fwd4kQd32,
        FullStack::ChainWrite16k,
        FullStack::PostmarkMonitor,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FullStack::RelayStream64k => "relay_stream_64k",
            FullStack::NvmeqQd32 => "nvmeq_qd32_64k",
            FullStack::Fwd4kQd32 => "fwd_4k_qd32",
            FullStack::ChainWrite16k => "chain_write_16k",
            FullStack::PostmarkMonitor => "postmark_monitor",
        }
    }

    /// Simulated measurement window in milliseconds, sized on the 2-core
    /// reference box so one rep costs about a second of host time;
    /// `None` runs the trace to completion.
    fn window_ms(self) -> Option<u64> {
        match self {
            FullStack::RelayStream64k => Some(1500),
            FullStack::NvmeqQd32 => Some(480),
            FullStack::Fwd4kQd32 => Some(1800),
            FullStack::ChainWrite16k => Some(420),
            FullStack::PostmarkMonitor => None,
        }
    }

    /// Request size the iSCSI probes are shaped after.
    pub fn block_bytes(self) -> usize {
        match self {
            FullStack::RelayStream64k | FullStack::NvmeqQd32 => 64 * 1024,
            FullStack::Fwd4kQd32 => 4096,
            FullStack::ChainWrite16k => 16 * 1024,
            FullStack::PostmarkMonitor => 4096,
        }
    }

    pub fn transport(self) -> TransportKind {
        match self {
            FullStack::NvmeqQd32 => TransportKind::Nvmeq,
            _ => TransportKind::Iscsi,
        }
    }
}

const VOLUME_BYTES: u64 = 1 << 30;
const POSTMARK_VOLUME_BYTES: u64 = 128 << 20;
/// Simulated slack after the window for in-flight requests to finish.
const DRAIN: SimDuration = SimDuration::from_secs(2);

/// Declares [`Counters`] once: the struct, its field list for the digest
/// and the field-wise difference all come from the same names.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Counters read through existing public getters. Every field is a
        /// running total; a window's work is `end.minus(&start)`.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            fn fields(&self) -> Vec<u64> {
                vec![$(self.$field),*]
            }

            pub fn minus(&self, start: &Counters) -> Counters {
                Counters {
                    $($field: self.$field - start.$field,)*
                }
            }
        }
    };
}

counters!(
    events,
    frames,
    wire_bytes,
    tcp_segs,
    pdus_forwarded,
    data_bytes_copied,
    header_bytes_copied,
    verbatim_forwards,
    dispatch_ticks,
    dispatch_cmds,
    doorbells,
    sqes,
    cq_frames,
    cqes,
);

/// What the services in the chain counted, read after the run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceCounts {
    pub cipher_bytes: u64,
    pub dedup_ratio: f64,
    pub compress_ratio: f64,
    pub monitor_log_rows: u64,
}

/// One timed piece of a run window.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Simulator events delivered in the slice: the unit of host work.
    pub events: u64,
    pub host_s: f64,
}

/// Timed slices per fixed-length window.
const WINDOW_SLICES: u64 = 16;

/// A scenario built and logged in, ready to run its window.
pub struct Built {
    pub kind: FullStack,
    pub cloud: Cloud,
    pub app: AppId,
    deployment: ChainDeployment,
    window: Option<SimDuration>,
}

/// Everything one rep measured on the simulated clock. Equal seeds must
/// reproduce it bit for bit (`digest` folds all of it).
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Tenant operations completed: block I/Os, or whole transactions
    /// for the grouped PostMark replay. One latency sample each.
    pub ops: u64,
    /// Block reads and writes completed.
    pub reads: u64,
    pub writes: u64,
    pub payload_bytes: u64,
    pub write_bytes: u64,
    pub errors: u64,
    /// Issued but still in flight after the drain.
    pub unfinished: u64,
    /// The denominator of `sim_iops`: the window, or the trace's elapsed
    /// time when it runs to completion.
    pub measured_ns: u64,
    pub lat_sorted_ns: Vec<u64>,
    /// Counters over window + drain (login and set-up excluded).
    pub window: Counters,
    pub sq_peak: u64,
    pub services: ServiceCounts,
    /// Workload-specific output checks that failed (empty when correct).
    pub check_failures: Vec<String>,
    pub digest: u64,
}

fn stock_cloud(seed: u64) -> CloudConfig {
    let mut cfg = CloudConfig {
        seed,
        ..CloudConfig::default()
    };
    // Steady-state page cache, as after the paper's repeated runs.
    cfg.target.disk.prewarmed = true;
    cfg
}

/// The transport lab's fabric: 10 GbE and SR-IOV-style vNICs, so neither
/// the 1 GbE wire nor the vhost copy clips the QD 32 point before the
/// rings matter.
fn lab_cloud(seed: u64) -> CloudConfig {
    CloudConfig {
        transport: TransportKind::Nvmeq,
        queue_depth: 32,
        phys_link: LinkSpec {
            bandwidth_bps: 10_000_000_000,
            ..LinkSpec::gigabit()
        },
        virtio_link: LinkSpec {
            per_packet: SimDuration::from_micros(1),
            half_duplex: false,
            ..LinkSpec::virtio()
        },
        ..stock_cloud(seed)
    }
}

fn scaled(ms: u64, quick: bool) -> SimDuration {
    SimDuration::from_millis(if quick { ms / 4 } else { ms })
}

/// Builds `kind` from `seed` up to a logged-in client, recording the
/// `setup.*` spans under the caller's open span.
pub fn build(kind: FullStack, seed: u64, quick: bool, hook: TraceHook, spans: &mut Spans) -> Built {
    let window = kind.window_ms().map(|ms| scaled(ms, quick));

    spans.enter("setup.build_cloud");
    let cfg = match kind {
        FullStack::NvmeqQd32 => lab_cloud(seed),
        _ => stock_cloud(seed),
    };
    let mut cloud = Cloud::build(cfg);
    cloud.set_trace_hook(hook);
    let volume_bytes = match kind {
        FullStack::PostmarkMonitor => POSTMARK_VOLUME_BYTES,
        _ => VOLUME_BYTES,
    };
    let vol = cloud.create_volume(volume_bytes, 0);
    spans.exit();

    spans.enter("setup.image");
    let (workload, services) = workload_and_chain(kind, seed, quick, window, &vol);
    spans.exit();

    spans.enter("setup.deploy_chain");
    let platform = StormPlatform::default();
    let spec = match kind {
        FullStack::Fwd4kQd32 => MbSpec::bare(3, RelayMode::Forward),
        _ => MbSpec::with_services(3, RelayMode::Active, services),
    };
    let deployment = platform.deploy_chain(&mut cloud, &vol, (1, 2), vec![spec]);
    spans.exit();

    spans.enter("setup.login");
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        "vm:tenant",
        &vol,
        Box::new(workload),
        seed,
        false,
    );
    spans.exit();

    Built {
        kind,
        cloud,
        app,
        deployment,
        window,
    }
}

type Chain = Vec<Box<dyn storm_core::StorageService>>;

/// The generator and the relay's service chain. For `postmark_monitor`
/// this is where the image is prepared and installed, which is why the
/// span around it is called `setup.image`.
fn workload_and_chain(
    kind: FullStack,
    seed: u64,
    quick: bool,
    window: Option<SimDuration>,
    vol: &VolumeHandle,
) -> (Measured, Chain) {
    let fio = |block: usize, clients: usize| {
        let job = FioJob::randrw(
            block,
            window.expect("fio scenarios have a window"),
            vol.sectors,
        )
        .threads(clients);
        Measured::new(Box::new(FioWorkload::new(job)))
    };
    match kind {
        FullStack::RelayStream64k => {
            let mut enc = EncryptionService::stream_cipher(&[9u8; 32], &[4u8; 12]);
            // A byte-wise software stream cipher (~250 MB/s single core).
            enc.set_per_byte_cost(SimDuration::from_nanos(4));
            (fio(64 * 1024, 4), vec![Box::new(enc)])
        }
        FullStack::NvmeqQd32 => (fio(64 * 1024, 32), Vec::new()),
        FullStack::Fwd4kQd32 => (fio(4096, 32), Vec::new()),
        FullStack::ChainWrite16k => {
            let job = ChainWriteJob {
                block_bytes: 16 * 1024,
                clients: 8,
                write_pct: 70,
                duplicate_pct: 50,
                compressible_pct: 50,
                area_blocks: 8192,
                duration: window.expect("chain_write_16k has a window"),
                seed,
            };
            let chain: Chain = vec![
                Box::new(DedupService::new(seed, 12)),
                Box::new(CompressService::new(4096)),
                Box::new(EncryptionService::aes_xts(&[0x5C; 64])),
            ];
            (Measured::new(Box::new(ChainWriteWorkload::new(job))), chain)
        }
        FullStack::PostmarkMonitor => {
            let cfg = PostmarkConfig {
                initial_files: 500,
                transactions: if quick { 500 } else { 2000 },
                seed,
                volume_bytes: POSTMARK_VOLUME_BYTES,
                ..PostmarkConfig::default()
            };
            let (mut image, groups) = postmark::prepare(&cfg);
            postmark::install_image(&mut image, &mut vol.shared.clone());
            let recon = Reconstructor::from_device(&mut vol.shared.clone(), "/mnt/box")
                .expect("prepared image mounts");
            let monitor = MonitorService::new(
                MonitorConfig {
                    watch: vec!["/mnt/box/mail/msg00001".into()],
                    per_byte_cost: SimDuration::ZERO,
                },
                recon,
            );
            let sizes = groups.iter().map(|g| g.accesses.len()).collect();
            (
                Measured::grouped(Box::new(TraceWorkload::new(groups)), sizes),
                vec![Box::new(monitor)],
            )
        }
    }
}

impl Built {
    fn relay(&mut self) -> Option<&mut ActiveRelayMb> {
        let node = self.deployment.mb_nodes[0].node;
        let app = self.deployment.mb_apps[0]?;
        self.cloud
            .net
            .app_mut(node, app)
            .and_then(|a| a.downcast_mut::<ActiveRelayMb>())
    }

    fn measured(&mut self) -> &Measured {
        self.cloud
            .client_mut(0, self.app)
            .workload_ref()
            .and_then(|w| w.downcast_ref::<Measured>())
            .expect("the client runs a Measured workload")
    }

    pub fn counters(&mut self) -> Counters {
        let net = &self.cloud.net;
        let mut c = Counters {
            events: net.events_delivered(),
            ..Counters::default()
        };
        for i in 0..net.fabric.link_count() {
            let link = net.fabric.link(LinkId(i as u32));
            c.frames += link.frames();
            c.wire_bytes += link.bytes();
        }
        for i in 0..net.host_count() {
            c.tcp_segs += net.host(HostId(i as u32)).tcp.counters().segs_in;
        }
        let (ticks, cmds, _) = self.cloud.target_mut(0).dispatch_stats();
        c.dispatch_ticks = ticks;
        c.dispatch_cmds = cmds;
        let transport = self.cloud.client_mut(0, self.app).transport();
        (c.doorbells, c.sqes) = transport.doorbell_stats();
        (c.cq_frames, c.cqes) = transport.cq_stats();
        if let Some(relay) = self.relay() {
            let copy = relay.copy_stats();
            c.pdus_forwarded = relay.pdus_forwarded();
            c.data_bytes_copied = copy.data_bytes_copied;
            c.header_bytes_copied = copy.header_bytes_copied;
            c.verbatim_forwards = copy.verbatim_forwards;
        }
        c
    }

    /// Runs the measurement window, in slices timed one by one, and then
    /// the drain. The window is cut on the simulated clock, which cannot
    /// change what the simulation does; the slices exist so that a burst
    /// of interference on the host spoils one slice, not the whole rep.
    pub fn run(&mut self, spans: &mut Spans) -> Vec<Slice> {
        let start = self.cloud.net.now();
        let mut slices = Vec::new();
        let mut timed = |cloud: &mut Cloud, until: SimTime| {
            let events = cloud.net.events_delivered();
            let t = Instant::now();
            cloud.net.run_until(until);
            slices.push(Slice {
                events: cloud.net.events_delivered() - events,
                host_s: t.elapsed().as_secs_f64(),
            });
        };
        spans.enter("run.window");
        let end = match self.window {
            Some(w) => {
                for i in 1..=WINDOW_SLICES {
                    let until = start + SimDuration::from_nanos(w.as_nanos() * i / WINDOW_SLICES);
                    timed(&mut self.cloud, until);
                }
                start + w
            }
            None => {
                // Run to completion, one simulated second per slice.
                let deadline = start + SimDuration::from_secs(600);
                while !self.trace_finished() && self.cloud.net.now() < deadline {
                    let until = self.cloud.net.now() + SimDuration::from_secs(1);
                    timed(&mut self.cloud, until);
                }
                self.cloud.net.now()
            }
        };
        spans.exit();
        spans.enter("run.drain");
        self.cloud
            .net
            .run_until(SimTime::from_nanos((end + DRAIN).as_nanos()));
        spans.exit();
        slices
    }

    fn trace_finished(&mut self) -> bool {
        self.measured()
            .inner
            .downcast_ref::<TraceWorkload>()
            .is_some_and(TraceWorkload::is_finished)
    }

    /// Reads results back, checks the outputs and folds the digest.
    /// `start` is the counter snapshot taken before [`Built::run`].
    pub fn collect(&mut self, start: &Counters) -> SimOutcome {
        let mut failures = Vec::new();
        let window = self.counters().minus(start);

        let client = self.cloud.client_mut(0, self.app);
        if !client.is_ready() {
            failures.push("client session is not ready".to_string());
        }
        let reads = client.stats.reads.count();
        let writes = client.stats.writes.count();
        let write_bytes = client.stats.writes.bytes();
        let payload_bytes = client.stats.reads.bytes() + write_bytes;
        let errors = client.stats.errors;
        let unfinished = client.transport().in_flight() as u64;
        let sq_peak = client.transport().sq_peak() as u64;
        if errors != 0 {
            failures.push(format!("{errors} I/O errors"));
        }
        if unfinished != 0 {
            failures.push(format!("{unfinished} requests never completed"));
        }

        let mut measured_ns = self.window.map_or(0, |w| w.as_nanos());
        let measured = self.measured();
        let mut lat_sorted_ns = measured.lat_ns.clone();
        lat_sorted_ns.sort_unstable();
        if let Some(trace) = measured.inner.downcast_ref::<TraceWorkload>() {
            match trace.elapsed() {
                Some(elapsed) => measured_ns = elapsed.as_nanos(),
                None => failures.push("the trace did not finish".to_string()),
            }
        }
        if let Some(w) = measured.inner.downcast_ref::<ChainWriteWorkload>() {
            if w.read_mismatches != 0 || w.reads_verified == 0 {
                failures.push(format!(
                    "read-back: {} verified, {} mismatched",
                    w.reads_verified, w.read_mismatches
                ));
            }
        }

        let kind = self.kind;
        let mut services = ServiceCounts::default();
        if let Some(relay) = self.relay() {
            for idx in 0.. {
                let Some(svc) = relay.service(idx) else { break };
                if let Some(enc) = svc.downcast_ref::<EncryptionService>() {
                    let (e, d) = enc.counters();
                    services.cipher_bytes = e + d;
                } else if let Some(dedup) = svc.downcast_ref::<DedupService>() {
                    services.dedup_ratio = dedup.stats.reduction_ratio();
                } else if let Some(comp) = svc.downcast_ref::<CompressService>() {
                    services.compress_ratio = comp.stats.reduction_ratio();
                } else if let Some(mon) = svc.downcast_ref::<MonitorService>() {
                    services.monitor_log_rows = mon.log().len() as u64;
                }
            }
        }
        if kind == FullStack::PostmarkMonitor && services.monitor_log_rows == 0 {
            failures.push("the monitor logged nothing".to_string());
        }
        if kind == FullStack::NvmeqQd32 && window.data_bytes_copied != 0 {
            failures.push(format!(
                "relay copied {} payload bytes on the verbatim path",
                window.data_bytes_copied
            ));
        }

        let mut d = Fnv::new();
        for v in [
            reads,
            writes,
            payload_bytes,
            errors,
            unfinished,
            measured_ns,
            sq_peak,
        ] {
            d.write_u64(v);
        }
        for v in window.fields() {
            d.write_u64(v);
        }
        for &ns in &lat_sorted_ns {
            d.write_u64(ns);
        }
        d.write_u64(services.cipher_bytes);
        d.write_u64(services.dedup_ratio.to_bits());
        d.write_u64(services.compress_ratio.to_bits());
        d.write_u64(services.monitor_log_rows);

        SimOutcome {
            ops: lat_sorted_ns.len() as u64,
            reads,
            writes,
            payload_bytes,
            write_bytes,
            errors,
            unfinished,
            measured_ns,
            lat_sorted_ns,
            window,
            sq_peak,
            services,
            check_failures: failures,
            digest: d.finish(),
        }
    }
}
