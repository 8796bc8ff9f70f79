//! Cloud assembly: hosts, the two networks, volumes and guests.

use std::net::Ipv4Addr;

use storm_block::transport::{Iqn, TransportKind};
use storm_block::{SharedVolume, VolumeGroup, VolumeId};
use storm_iscsi::{InitiatorConfig, ISCSI_PORT};
use storm_net::{AppId, HostId, IfaceId, LinkSpec, MacAddr, Network, PortNo, SockAddr, SwitchId};
use storm_sim::trace::TraceHook;
use storm_sim::SimDuration;

use crate::client::{VolumeClient, VolumeClientConfig, Workload};
use crate::target::{TargetHostApp, TargetHostConfig};

/// Compute hosts in every cloud (Figure 1's testbed).
const COMPUTE_HOSTS: usize = 4;
/// CPU cores per compute and storage host.
const HOST_CORES: usize = 8;
/// Gateway-namespace veth links: cheaper than a virtio vif.
const VETH_LINK: LinkSpec = LinkSpec {
    latency: SimDuration::from_nanos(300),
    bandwidth_bps: 10_000_000_000,
    per_packet: SimDuration::from_nanos(400),
    half_duplex: false,
};

/// Cloud-wide build parameters.
#[derive(Debug, Clone)]
pub struct CloudConfig {
    /// Number of storage hosts.
    pub storage_hosts: usize,
    /// Physical (1 GbE) link parameters.
    pub phys_link: LinkSpec,
    /// VM vif (virtio) link parameters.
    pub virtio_link: LinkSpec,
    /// Storage host configuration.
    pub target: TargetHostConfig,
    /// Bytes of backing disk per storage host.
    pub backing_bytes: u64,
    /// Wire protocol guest sessions speak (targets accept both on either
    /// portal — sessions are sniffed by magic byte).
    pub transport: TransportKind,
    /// Submission-ring depth for nvmeq sessions (ignored by iSCSI).
    pub queue_depth: u16,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            storage_hosts: 1,
            phys_link: LinkSpec::gigabit(),
            virtio_link: LinkSpec::virtio(),
            target: TargetHostConfig::default(),
            backing_bytes: 8 << 30,
            transport: TransportKind::Iscsi,
            queue_depth: 32,
            seed: 42,
        }
    }
}

/// A compute host's identifiers.
#[derive(Debug, Clone, Copy)]
pub struct ComputeHost {
    /// The network node.
    pub host: HostId,
    /// Storage-network NIC address.
    pub storage_ip: Ipv4Addr,
    /// Instance-network NIC address.
    pub instance_ip: Ipv4Addr,
    /// This host's OVS bridge.
    pub ovs: SwitchId,
    /// Storage NIC interface id.
    pub storage_iface: IfaceId,
    /// The instance_sw port of this host's OVS uplink (for FDB seeding).
    pub uplink_port: PortNo,
}

/// A storage host's identifiers.
#[derive(Debug, Clone, Copy)]
pub struct StorageHost {
    /// The network node.
    pub host: HostId,
    /// Storage-network NIC address.
    pub storage_ip: Ipv4Addr,
    /// The target application.
    pub app: AppId,
}

/// A created volume.
#[derive(Debug, Clone)]
pub struct VolumeHandle {
    /// Cinder volume id.
    pub id: VolumeId,
    /// Export IQN.
    pub iqn: Iqn,
    /// Index into [`Cloud::storages`].
    pub storage_host: usize,
    /// The iSCSI portal.
    pub portal: SockAddr,
    /// Shared handle to the backing volume (the platform reads it at
    /// attach time for semantics reconstruction; tests verify contents).
    pub shared: SharedVolume,
    /// Capacity in sectors.
    pub sectors: u64,
}

/// A guest network node: a middle-box VM or a gateway namespace.
#[derive(Debug, Clone, Copy)]
pub struct GuestVm {
    /// The guest's own network node.
    pub node: HostId,
    /// Hosting compute host index.
    pub host_idx: usize,
    /// Instance-network (tenant subnet) address.
    pub instance_ip: Ipv4Addr,
    /// Instance-network vif MAC.
    pub mac: MacAddr,
    /// Storage-network leg address, if any.
    pub storage_ip: Option<Ipv4Addr>,
    /// Port on the hosting OVS.
    pub ovs_port: PortNo,
}

/// The assembled cloud.
pub struct Cloud {
    /// The simulated network (public: experiments drive it directly).
    pub net: Network,
    /// The storage-network switch.
    pub storage_sw: SwitchId,
    /// The instance-network core switch.
    pub instance_sw: SwitchId,
    /// Compute hosts.
    pub computes: Vec<ComputeHost>,
    /// Storage hosts.
    pub storages: Vec<StorageHost>,
    cfg: CloudConfig,
    vgs: Vec<VolumeGroup>,
    guest_count: u32,
    attachments: Vec<crate::attribution::AttachRecord>,
    trace: TraceHook,
}

impl std::fmt::Debug for Cloud {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cloud")
            .field("computes", &self.computes.len())
            .field("storages", &self.storages.len())
            .finish_non_exhaustive()
    }
}

impl Cloud {
    /// Builds the Figure-1 topology.
    pub fn build(cfg: CloudConfig) -> Cloud {
        let mut net = Network::new(cfg.seed);
        let storage_sw = net.add_switch("storage-sw", 64);
        let instance_sw = net.add_switch("instance-sw", 64);
        let mut computes = Vec::new();
        for i in 0..COMPUTE_HOSTS {
            let host = net.add_host(format!("compute{i}"), HOST_CORES);
            let storage_ip = Ipv4Addr::new(10, 1, 0, 10 + i as u8);
            let instance_ip = Ipv4Addr::new(10, 2, 0, 10 + i as u8);
            let storage_iface = net.add_iface_with(host, storage_ip, 16);
            let instance_iface = net.add_iface_with(host, instance_ip, 16);
            net.link_host_switch(host, storage_iface, storage_sw, cfg.phys_link);
            // Per-host OVS bridge; the host NIC and uplink hang off it.
            let ovs = net.add_switch(format!("ovs-compute{i}"), 48);
            let nic_link = LinkSpec {
                latency: SimDuration::from_nanos(300),
                bandwidth_bps: 10_000_000_000,
                per_packet: SimDuration::from_nanos(200),
                half_duplex: false,
            };
            net.link_host_switch(host, instance_iface, ovs, nic_link);
            let (_l, _pa, uplink_port) = net.link_switches(ovs, instance_sw, cfg.phys_link);
            computes.push(ComputeHost {
                host,
                storage_ip,
                instance_ip,
                ovs,
                storage_iface,
                uplink_port,
            });
        }
        let mut storages = Vec::new();
        let mut vgs = Vec::new();
        for j in 0..cfg.storage_hosts {
            let host = net.add_host(format!("storage{j}"), HOST_CORES);
            let storage_ip = Ipv4Addr::new(10, 1, 1, 10 + j as u8);
            let iface = net.add_iface_with(host, storage_ip, 16);
            net.link_host_switch(host, iface, storage_sw, cfg.phys_link);
            let app = net.add_app(host, Box::new(TargetHostApp::new(cfg.target.clone())));
            storages.push(StorageHost {
                host,
                storage_ip,
                app,
            });
            vgs.push(VolumeGroup::new(cfg.backing_bytes));
        }
        Cloud {
            net,
            storage_sw,
            instance_sw,
            computes,
            storages,
            cfg,
            vgs,
            guest_count: 0,
            attachments: Vec::new(),
            trace: TraceHook::none(),
        }
    }

    /// Arms the whole cloud with a trace hook: the network fabric (forward
    /// and tap stages), every storage target (target CPU and disk stages)
    /// and every volume attached *after* this call (issue/complete events).
    ///
    /// Call before [`Cloud::attach_volume`] so guest initiators inherit the
    /// hook. Middle-box apps deployed by the platform pick the hook up via
    /// [`Cloud::trace_hook`].
    pub fn set_trace_hook(&mut self, hook: TraceHook) {
        self.trace = hook.clone();
        self.net.set_trace_hook(hook.clone());
        for i in 0..self.storages.len() {
            self.target_mut(i).set_trace_hook(hook.clone(), i as u32);
        }
    }

    /// The currently armed trace hook (unarmed by default).
    pub fn trace_hook(&self) -> TraceHook {
        self.trace.clone()
    }

    /// The build configuration.
    pub fn config(&self) -> &CloudConfig {
        &self.cfg
    }

    /// Creates a volume of `bytes` on storage host `on_host`.
    ///
    /// # Panics
    ///
    /// Panics if the volume group is exhausted or the host index is out of
    /// range (configuration errors in experiment setup).
    pub fn create_volume(&mut self, bytes: u64, on_host: usize) -> VolumeHandle {
        let vol = self.vgs[on_host]
            .create_volume(bytes)
            .expect("volume group exhausted");
        let id = vol.id();
        let iqn = Iqn::for_volume(id.0);
        let shared = SharedVolume::new(vol);
        let sectors = {
            use storm_block::BlockDevice as _;
            shared.clone().num_sectors()
        };
        let sh = &self.storages[on_host];
        let app = sh.app;
        let host = sh.host;
        let portal = SockAddr::new(sh.storage_ip, ISCSI_PORT);
        self.net
            .app_mut(host, app)
            .expect("target app present")
            .downcast_mut::<TargetHostApp>()
            .expect("target app type")
            .register_volume(iqn.clone(), shared.clone());
        VolumeHandle {
            id,
            iqn,
            storage_host: on_host,
            portal,
            shared,
            sectors,
        }
    }

    /// Attaches `volume` to a VM on compute host `host_idx`, running
    /// `workload` against it. Returns the client app id.
    pub fn attach_volume(
        &mut self,
        host_idx: usize,
        vm_label: &str,
        volume: &VolumeHandle,
        workload: Box<dyn Workload>,
        seed: u64,
        timeline: bool,
    ) -> AppId {
        let initiator = InitiatorConfig {
            initiator_iqn: Iqn::for_host(&format!("compute{host_idx}-{vm_label}")),
            target_iqn: volume.iqn.clone(),
            isid: [
                0x80,
                0,
                0,
                (host_idx + 1) as u8,
                0,
                (volume.id.0 % 256) as u8,
            ],
        };
        let mut cfg = VolumeClientConfig::new(volume.portal, initiator, vm_label);
        cfg.transport = self.cfg.transport;
        cfg.queue_depth = self.cfg.queue_depth;
        cfg.seed = seed;
        cfg.timeline = timeline;
        cfg.trace = self.trace.clone();
        let host = self.computes[host_idx].host;
        let app = self
            .net
            .add_app(host, Box::new(VolumeClient::new(cfg, workload)));
        self.attachments.push(crate::attribution::AttachRecord {
            host_idx,
            app,
            vm_label: vm_label.to_owned(),
            volume: volume.id,
            iqn: volume.iqn.clone(),
        });
        app
    }

    /// Reads a client app back out (to collect stats after a run).
    ///
    /// # Panics
    ///
    /// Panics if `(host_idx, app)` is not a [`VolumeClient`].
    pub fn client_mut(&mut self, host_idx: usize, app: AppId) -> &mut VolumeClient {
        self.net
            .app_mut(self.computes[host_idx].host, app)
            .expect("app present")
            .downcast_mut::<VolumeClient>()
            .expect("volume client app")
    }

    /// Reads a storage host's target app back out.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn target_mut(&mut self, storage_idx: usize) -> &mut TargetHostApp {
        let sh = self.storages[storage_idx];
        self.net
            .app_mut(sh.host, sh.app)
            .expect("app present")
            .downcast_mut::<TargetHostApp>()
            .expect("target app")
    }

    /// Spawns a guest network node (middle-box VM or gateway namespace) on
    /// compute host `host_idx` inside tenant network `tenant`.
    ///
    /// Middle-box VMs attach with a virtio vif (per-packet copy cost);
    /// gateway namespaces use the cheaper veth profile and may carry a
    /// storage-network leg.
    pub fn spawn_guest(
        &mut self,
        name: &str,
        host_idx: usize,
        tenant: u32,
        is_namespace: bool,
        storage_leg: bool,
    ) -> GuestVm {
        self.guest_count += 1;
        let n = self.guest_count;
        let node = self.net.add_host(name.to_string(), 2);
        let instance_ip = Ipv4Addr::new(192, 168, tenant as u8, 10 + (n % 200) as u8);
        let iface = self.net.add_iface_with(node, instance_ip, 24);
        let ovs = self.computes[host_idx].ovs;
        let spec = if is_namespace {
            VETH_LINK
        } else {
            self.cfg.virtio_link
        };
        let link = self.net.link_host_switch(node, iface, ovs, spec);
        let ovs_port = match self.net.fabric.link(link).ends()[1] {
            storm_net::Endpoint::Switch { port, .. } => port,
            _ => PortNo(0),
        };
        let mac = self.net.host(node).ifaces[iface.0 as usize].mac;
        // Tag the port with the tenant and seed the core switch's FDB so
        // steered frames reach this guest without flooding.
        self.net.fabric.switch_mut(ovs).set_tenant(ovs_port, tenant);
        let uplink = self.computes[host_idx].uplink_port;
        self.net
            .fabric
            .switch_mut(self.instance_sw)
            .learn(mac, uplink);
        let storage_ip = if storage_leg {
            let ip = Ipv4Addr::new(10, 1, 2, 10 + (n % 200) as u8);
            let siface = self.net.add_iface_with(node, ip, 16);
            self.net
                .link_host_switch(node, siface, self.storage_sw, VETH_LINK);
            Some(ip)
        } else {
            None
        };
        GuestVm {
            node,
            host_idx,
            instance_ip,
            mac,
            storage_ip,
            ovs_port,
        }
    }

    /// Records of every attachment (the attribution registry's input).
    pub(crate) fn attachments(&self) -> &[crate::attribution::AttachRecord] {
        &self.attachments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{IoCtx, IoKind, IoResult, ReqId};
    use bytes::Bytes;
    use storm_sim::SimTime;

    /// Writes one 4 KiB block, reads it back, verifies contents.
    struct SmokeWorkload {
        verified: bool,
        wrote: Option<ReqId>,
    }
    impl Workload for SmokeWorkload {
        fn start(&mut self, io: &mut IoCtx<'_>) {
            let data = Bytes::from(vec![0xA7u8; 4096]);
            self.wrote = Some(io.write(100, data));
        }
        fn completed(&mut self, io: &mut IoCtx<'_>, req: ReqId, kind: IoKind, result: IoResult) {
            assert!(result.ok, "I/O failed");
            if Some(req) == self.wrote && kind == IoKind::Write {
                io.read(100, 8);
            } else if kind == IoKind::Read {
                assert_eq!(result.data.len(), 4096);
                assert!(result.data.iter().all(|&b| b == 0xA7));
                self.verified = true;
                io.stop();
            }
        }
    }

    #[test]
    fn end_to_end_write_read_over_legacy_path() {
        let mut cloud = Cloud::build(CloudConfig::default());
        let vol = cloud.create_volume(64 << 20, 0);
        let app = cloud.attach_volume(
            0,
            "vm:smoke",
            &vol,
            Box::new(SmokeWorkload {
                verified: false,
                wrote: None,
            }),
            7,
            false,
        );
        cloud.net.run_until(SimTime::from_nanos(2_000_000_000));
        let client = cloud.client_mut(0, app);
        assert!(client.is_ready(), "login should complete");
        let verified = client.workload_ref().map(|_| ()).is_some();
        assert!(verified);
        assert_eq!(client.stats.reads.count(), 1);
        assert_eq!(client.stats.writes.count(), 1);
        assert_eq!(client.stats.errors, 0);
        assert!(client.stats.latency.mean() > storm_sim::SimDuration::ZERO);
        // The data really reached the backing volume.
        use storm_block::BlockDevice as _;
        let mut shared = vol.shared.clone();
        let mut buf = vec![0u8; 4096];
        shared.read(100, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xA7));
        // Attribution sees the login on the target side.
        let logins = cloud.target_mut(0).logins().to_vec();
        assert_eq!(logins.len(), 1);
        assert_eq!(logins[0].1.dst.port, ISCSI_PORT);
    }

    /// The same smoke cycle with the cloud speaking nvmeq: the target
    /// sniffs the protocol on the shared portal, the connect binds the
    /// volume, and each command rides one doorbell and one completion.
    #[test]
    fn end_to_end_write_read_over_nvmeq() {
        let mut cloud = Cloud::build(CloudConfig {
            transport: TransportKind::Nvmeq,
            ..CloudConfig::default()
        });
        let vol = cloud.create_volume(64 << 20, 0);
        let app = cloud.attach_volume(
            0,
            "vm:nvmeq",
            &vol,
            Box::new(SmokeWorkload {
                verified: false,
                wrote: None,
            }),
            7,
            false,
        );
        cloud.net.run_until(SimTime::from_nanos(2_000_000_000));
        let client = cloud.client_mut(0, app);
        assert!(client.is_ready(), "connect should complete");
        assert_eq!(client.transport().kind(), TransportKind::Nvmeq);
        assert_eq!(client.stats.reads.count(), 1);
        assert_eq!(client.stats.writes.count(), 1);
        assert_eq!(client.stats.errors, 0);
        let (doorbells, sqes) = client.transport().doorbell_stats();
        assert_eq!((doorbells, sqes), (2, 2), "one doorbell per command");
        use storm_block::BlockDevice as _;
        let mut shared = vol.shared.clone();
        let mut buf = vec![0u8; 4096];
        shared.read(100, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xA7));
        // Connection attribution works unchanged: the connect carried the
        // initiator name over the shared portal.
        let (ticks, cmds, _) = cloud.target_mut(0).dispatch_stats();
        assert!(ticks >= 1 && cmds == 2);
        let logins = cloud.target_mut(0).logins().to_vec();
        assert_eq!(logins.len(), 1);
    }

    #[test]
    fn volumes_on_same_host_are_isolated() {
        let mut cloud = Cloud::build(CloudConfig::default());
        let v1 = cloud.create_volume(16 << 20, 0);
        let v2 = cloud.create_volume(16 << 20, 0);
        assert_ne!(v1.iqn, v2.iqn);
        use storm_block::BlockDevice as _;
        let mut a = v1.shared.clone();
        let mut b = v2.shared.clone();
        a.write(0, &[1u8; 512]).unwrap();
        let mut buf = [9u8; 512];
        b.read(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));
    }

    #[test]
    fn spawn_guest_wires_instance_and_storage_legs() {
        let mut cloud = Cloud::build(CloudConfig::default());
        let mb = cloud.spawn_guest("mb1", 3, 1, false, true);
        assert_eq!(mb.host_idx, 3);
        assert!(mb.storage_ip.is_some());
        assert!(cloud.net.host(mb.node).has_ip(mb.instance_ip));
        assert!(cloud.net.host(mb.node).has_ip(mb.storage_ip.unwrap()));
        let gw = cloud.spawn_guest("gw1", 0, 1, true, true);
        assert_ne!(gw.mac, mb.mac);
        assert_ne!(gw.instance_ip, mb.instance_ip);
    }
}
