//! The StorM platform: policy-driven middle-box deployment.
//!
//! Ties the pieces together exactly as §III-D describes: "the platform
//! first provisions the required middle-box VMs ... then retrieves the
//! connection attributions for each volume and generates and installs the
//! forwarding rules ... lastly, StorM connects the volumes to their VMs
//! with the middle-box services enabled."

use storm_block::transport::Iqn;
use storm_cloud::qos::RateLimitSpec;
use storm_cloud::sdn::{self, ChainHop, ChainSpec};
use storm_cloud::{Cloud, GuestVm, VolumeHandle, Workload};
use storm_net::{AppId, DnatRule, SockAddr, TapConfig};
use storm_sim::SimDuration;

use crate::relay::{
    ActiveRelayConfig, ActiveRelayMb, PassiveTap, ReplicaTarget, BUFFER_CAP, LISTEN_PORT,
    PER_PDU_COST,
};
use crate::service::StorageService;
use crate::splice::{self, GatewayPair};

/// How a middle-box intercepts the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayMode {
    /// Pure IP forwarding; no interception (the paper's MB-FWD baseline).
    Forward,
    /// FORWARD-chain hook with per-packet kernel→user copies
    /// (MB-PASSIVE-RELAY).
    Passive,
    /// Split TCP with immediate acks and a persistence buffer
    /// (MB-ACTIVE-RELAY, the default).
    Active,
}

/// Specification of one middle-box in a chain.
pub struct MbSpec {
    /// Compute host to place the middle-box VM on.
    pub host_idx: usize,
    /// Interception mode.
    pub mode: RelayMode,
    /// The tenant's service chain inside this middle-box.
    pub services: Vec<Box<dyn StorageService>>,
    /// Replica volumes to attach (replication service).
    pub replicas: Vec<ReplicaTarget>,
}

impl MbSpec {
    /// A middle-box with no services (baseline measurement).
    pub fn bare(host_idx: usize, mode: RelayMode) -> Self {
        MbSpec {
            host_idx,
            mode,
            services: Vec::new(),
            replicas: Vec::new(),
        }
    }

    /// A middle-box with services.
    pub fn with_services(
        host_idx: usize,
        mode: RelayMode,
        services: Vec<Box<dyn StorageService>>,
    ) -> Self {
        MbSpec {
            host_idx,
            mode,
            services,
            replicas: Vec::new(),
        }
    }
}

impl std::fmt::Debug for MbSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MbSpec")
            .field("host_idx", &self.host_idx)
            .field("mode", &self.mode)
            .field("services", &self.services.len())
            .finish_non_exhaustive()
    }
}

/// A deployed chain for one volume.
#[derive(Debug)]
pub struct ChainDeployment {
    /// The gateway pair.
    pub gateways: GatewayPair,
    /// Middle-box guest nodes, in chain order.
    pub mb_nodes: Vec<GuestVm>,
    /// App ids of relay apps (None for [`RelayMode::Forward`]).
    pub mb_apps: Vec<Option<AppId>>,
    /// Relay modes, in chain order.
    pub modes: Vec<RelayMode>,
    /// The installed global forward chain.
    pub forward_chain: ChainSpec,
    /// Reverse-direction segments.
    pub reverse_chains: Vec<ChainSpec>,
    /// The target portal being steered.
    pub target: SockAddr,
}

/// Platform-wide tunables.
#[derive(Debug, Clone)]
pub struct StormPlatform {
    /// Tenant whose network the gateways/middle-boxes live in.
    pub tenant: u32,
    /// Per-packet kernel forwarding cost on gateways and FWD middle-boxes.
    pub forward_cost: SimDuration,
    /// Passive-relay per-packet interception cost (the syscall + copy the
    /// paper attributes to the passive approach).
    pub tap_cost: SimDuration,
    /// Active-relay per-PDU API cost.
    pub per_pdu_cost: SimDuration,
    /// Active-relay persistence buffer capacity.
    pub buffer_cap: usize,
    /// Segmentation offload for active relays: the split-TCP stack emits
    /// large frames so vif copies batch ("the TCP handler packs several
    /// packets together for each copy"). Disable for ablation studies.
    pub tso: bool,
    /// Per-tenant rate shaping applied at every active relay this
    /// platform deploys; `None` (default) admits everything unshaped.
    pub qos: Option<RateLimitSpec>,
}

impl Default for StormPlatform {
    fn default() -> Self {
        StormPlatform {
            tenant: 1,
            forward_cost: SimDuration::from_nanos(300),
            tap_cost: SimDuration::from_micros(3),
            per_pdu_cost: PER_PDU_COST,
            buffer_cap: BUFFER_CAP,
            tso: true,
            qos: None,
        }
    }
}

impl StormPlatform {
    /// Deploys gateways + middle-boxes + forwarding rules for `volume`,
    /// without yet attaching any VM.
    ///
    /// `gw_hosts` places the (ingress, egress) gateways. Middle-boxes are
    /// provisioned per `mbs`, in chain order.
    pub fn deploy_chain(
        &self,
        cloud: &mut Cloud,
        volume: &VolumeHandle,
        gw_hosts: (usize, usize),
        mbs: Vec<MbSpec>,
    ) -> ChainDeployment {
        let pair = splice::create_gateway_pair(
            cloud,
            self.tenant,
            gw_hosts.0,
            gw_hosts.1,
            self.forward_cost,
        );
        splice::install_gateway_nat(cloud, &pair, volume.portal);
        let egress_portal = pair.egress_instance_portal();

        let mut mb_nodes = Vec::new();
        let mut mb_apps = Vec::new();
        let mut modes = Vec::new();
        for (i, spec) in mbs.into_iter().enumerate() {
            let needs_storage_leg = !spec.replicas.is_empty();
            let guest = cloud.spawn_guest(
                &format!("mb{i}-t{}", self.tenant),
                spec.host_idx,
                self.tenant,
                false,
                needs_storage_leg,
            );
            let app = match spec.mode {
                RelayMode::Forward => {
                    cloud.net.enable_forwarding(guest.node, self.forward_cost);
                    None
                }
                RelayMode::Passive => {
                    cloud.net.enable_forwarding(guest.node, self.forward_cost);
                    let mut tap = PassiveTap::new(spec.services);
                    tap.set_trace_hook(cloud.trace_hook(), i as u32);
                    let app = cloud.net.add_app(guest.node, Box::new(tap));
                    cloud.net.set_tap(
                        guest.node,
                        Some(TapConfig {
                            app,
                            per_packet: self.tap_cost,
                        }),
                    );
                    Some(app)
                }
                RelayMode::Active => {
                    // Split TCP + segmentation offload: the relay's own
                    // stack emits large frames, so vif copies batch
                    // ("the TCP handler packs several packets together
                    // for each copy").
                    if self.tso {
                        cloud.net.set_tcp_mss(guest.node, 16 * 1024);
                    }
                    let mut cfg = ActiveRelayConfig::new(egress_portal);
                    cfg.per_pdu_cost = self.per_pdu_cost;
                    cfg.buffer_cap = self.buffer_cap;
                    cfg.replicas = spec.replicas;
                    cfg.initiator_iqn = Iqn::for_host(&format!("mb{i}-t{}", self.tenant));
                    cfg.qos = self.qos;
                    let mut relay = ActiveRelayMb::new(cfg, spec.services);
                    relay.set_trace_hook(cloud.trace_hook(), i as u32);
                    let app = cloud.net.add_app(guest.node, Box::new(relay));
                    // Redirect the steered flow to the pseudo-server.
                    cloud.net.add_dnat(
                        guest.node,
                        DnatRule {
                            match_dst_ip: egress_portal.ip,
                            match_dst_port: Some(egress_portal.port),
                            match_src_ip: None,
                            to: SockAddr::new(guest.instance_ip, LISTEN_PORT),
                        },
                    );
                    Some(app)
                }
            };
            mb_nodes.push(guest);
            mb_apps.push(app);
            modes.push(spec.mode);
        }

        // Forward chain: all middle-boxes, ingress gw -> ... -> egress gw.
        let hops: Vec<ChainHop> = mb_nodes
            .iter()
            .map(|g| ChainHop {
                mac: g.mac,
                ovs: cloud.computes[g.host_idx].ovs,
            })
            .collect();
        let forward_chain = ChainSpec {
            vm_port: None,
            ingress_mac: pair.ingress.mac,
            ingress_ovs: cloud.computes[pair.ingress.host_idx].ovs,
            egress_mac: pair.egress.mac,
            egress_ovs: cloud.computes[pair.egress.host_idx].ovs,
            hops: hops.clone(),
        };
        sdn::install_forward(&mut cloud.net, &forward_chain);

        // Reverse chains: one per TCP segment (split at active relays).
        let mut reverse_chains = Vec::new();
        let mut seg_start_mac = pair.ingress.mac;
        let mut seg_start_ovs = cloud.computes[pair.ingress.host_idx].ovs;
        let mut seg_hops: Vec<ChainHop> = Vec::new();
        for (i, mode) in modes.iter().enumerate() {
            match mode {
                RelayMode::Active => {
                    // Close the current segment at this active relay.
                    let seg = ChainSpec {
                        vm_port: None,
                        ingress_mac: seg_start_mac,
                        ingress_ovs: seg_start_ovs,
                        egress_mac: pair.egress.mac,
                        egress_ovs: cloud.computes[mb_nodes[i].host_idx].ovs,
                        hops: seg_hops.clone(),
                    };
                    reverse_chains.push(seg);
                    seg_start_mac = mb_nodes[i].mac;
                    seg_start_ovs = cloud.computes[mb_nodes[i].host_idx].ovs;
                    seg_hops.clear();
                }
                RelayMode::Forward | RelayMode::Passive => seg_hops.push(hops[i]),
            }
        }
        // Final segment towards the egress gateway.
        reverse_chains.push(ChainSpec {
            vm_port: None,
            ingress_mac: seg_start_mac,
            ingress_ovs: seg_start_ovs,
            egress_mac: pair.egress.mac,
            egress_ovs: cloud.computes[pair.egress.host_idx].ovs,
            hops: seg_hops,
        });
        for seg in &reverse_chains {
            sdn::install_reverse(&mut cloud.net, seg);
        }

        ChainDeployment {
            gateways: pair,
            mb_nodes,
            mb_apps,
            modes,
            forward_chain,
            reverse_chains,
            target: volume.portal,
        }
    }

    /// Attaches `volume` on `compute_idx` with its traffic steered through
    /// `deployment`'s chain, using the paper's atomic attachment: the
    /// steering rule exists only during login; established flows stay
    /// pinned afterwards.
    ///
    /// Drives the simulation until the session reaches full-feature phase
    /// (or `timeout` elapses), then removes the rule.
    #[allow(clippy::too_many_arguments)]
    pub fn attach_volume_steered(
        &self,
        cloud: &mut Cloud,
        deployment: &ChainDeployment,
        compute_idx: usize,
        vm_label: &str,
        volume: &VolumeHandle,
        workload: Box<dyn Workload>,
        seed: u64,
        timeline: bool,
    ) -> AppId {
        let rule =
            splice::steering_rule_for(cloud, compute_idx, &deployment.gateways, volume.portal);
        cloud
            .net
            .add_steer_rule(cloud.computes[compute_idx].host, rule);
        let app = cloud.attach_volume(compute_idx, vm_label, volume, workload, seed, timeline);
        // Atomic attachment window: wait for login, then drop the rule.
        // Event-stepped rather than polled in 1 ms quanta, so the rule
        // drops at the exact login instant and the wait costs one
        // readiness check per event instead of per millisecond.
        let deadline = cloud.net.now() + SimDuration::from_secs(5);
        while !cloud.client_mut(compute_idx, app).is_ready() && cloud.net.step_until(deadline) {}
        let host = cloud.computes[compute_idx].host;
        cloud.net.host_mut(host).remove_steer_rule(&rule);
        app
    }

    /// Dynamically removes the chain's forwarding rules (middle-box
    /// scale-down); pinned flows then bypass the middle-boxes entirely on
    /// the next connection.
    pub fn tear_down_rules(&self, cloud: &mut Cloud, deployment: &ChainDeployment) -> usize {
        let mut removed = sdn::remove_chain(&mut cloud.net, &deployment.forward_chain);
        for seg in &deployment.reverse_chains {
            removed += sdn::remove_chain(&mut cloud.net, seg);
        }
        removed
    }
}
