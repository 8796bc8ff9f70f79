//! The SDN controller: installing Figure-3 forwarding chains.
//!
//! StorM "relies on a centralized SDN controller that controls a set of
//! virtual switches, to which middle-box VMs are connected". A chain is a
//! sequence of middle-boxes between the ingress and egress storage
//! gateways; the controller programs each hop's local OVS with a rule that
//! rewrites the destination MAC to the next middle-box (`mod_dst_mac`) and
//! falls through to normal L2 forwarding — exactly the rule structure the
//! paper's Figure 3 shows. Removing the rules detaches middle-boxes from
//! an existing flow (on-demand service scaling).

use storm_iscsi::ISCSI_PORT;
use storm_net::{steering_rule, FlowMatch, MacAddr, Network, SwitchId};

/// The priority of every chain rule the controller installs.
const PRIORITY: u16 = 100;

/// One middle-box hop in a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainHop {
    /// The middle-box vif MAC.
    pub mac: MacAddr,
    /// The OVS bridge of the middle-box's compute host.
    pub ovs: SwitchId,
}

/// A full chain description for one steered storage flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSpec {
    /// The flow's source port inside the instance network (the VM's
    /// connection attribution port). `None` matches any port — used when a
    /// whole gateway pair is dedicated to one volume.
    pub vm_port: Option<u16>,
    /// Ingress gateway vif (where steered traffic enters the instance
    /// network).
    pub ingress_mac: MacAddr,
    /// The ingress gateway host's OVS.
    pub ingress_ovs: SwitchId,
    /// Egress gateway vif (traffic exits back to the storage network).
    pub egress_mac: MacAddr,
    /// The egress gateway host's OVS.
    pub egress_ovs: SwitchId,
    /// Middle-boxes, in traversal order.
    pub hops: Vec<ChainHop>,
}

impl ChainSpec {
    /// The forward-direction rules as `(switch, match, next_mac)`.
    pub fn forward_rules(&self) -> Vec<(SwitchId, FlowMatch, MacAddr)> {
        let mut rules = Vec::new();
        let mut prev_mac = self.ingress_mac;
        let mut prev_ovs = self.ingress_ovs;
        for hop in &self.hops {
            let mut m = FlowMatch::any()
                .src_mac(prev_mac)
                .dst_mac(self.egress_mac)
                .dst_port(ISCSI_PORT);
            if let Some(p) = self.vm_port {
                m = m.src_port(p);
            }
            rules.push((prev_ovs, m, hop.mac));
            prev_mac = hop.mac;
            prev_ovs = hop.ovs;
        }
        rules
    }

    /// The reverse-direction rules (target → VM path, Figure 3 right).
    pub fn reverse_rules(&self) -> Vec<(SwitchId, FlowMatch, MacAddr)> {
        let mut rules = Vec::new();
        let mut prev_mac = self.egress_mac;
        let mut prev_ovs = self.egress_ovs;
        for hop in self.hops.iter().rev() {
            let mut m = FlowMatch::any()
                .src_mac(prev_mac)
                .dst_mac(self.ingress_mac)
                .src_port(ISCSI_PORT);
            if let Some(p) = self.vm_port {
                m = m.dst_port(p);
            }
            rules.push((prev_ovs, m, hop.mac));
            prev_mac = hop.mac;
            prev_ovs = hop.ovs;
        }
        rules
    }

    /// Total rules this chain installs.
    pub fn rule_count(&self) -> usize {
        2 * self.hops.len()
    }
}

/// Installs a chain's rules into the fabric.
pub fn install_chain(net: &mut Network, chain: &ChainSpec) {
    install_rules(net, chain.forward_rules());
    install_rules(net, chain.reverse_rules());
}

/// Installs only the forward-direction rules (used when active relays
/// split the chain into per-segment reverse paths).
pub fn install_forward(net: &mut Network, chain: &ChainSpec) {
    install_rules(net, chain.forward_rules());
}

/// Installs only the reverse-direction rules for one segment.
pub fn install_reverse(net: &mut Network, chain: &ChainSpec) {
    install_rules(net, chain.reverse_rules());
}

fn install_rules(net: &mut Network, rules: Vec<(SwitchId, FlowMatch, MacAddr)>) {
    for (ovs, m, next) in rules {
        net.fabric
            .switch_mut(ovs)
            .flows_mut()
            .install(steering_rule(PRIORITY, m, next));
    }
}

/// Removes a chain's rules; established flows immediately revert to the
/// shorter path (dynamic middle-box removal).
pub fn remove_chain(net: &mut Network, chain: &ChainSpec) -> usize {
    let mut removed = 0;
    for (ovs, m, _) in chain
        .forward_rules()
        .into_iter()
        .chain(chain.reverse_rules())
    {
        removed += net.fabric.switch_mut(ovs).flows_mut().remove(&m);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_net::Network;

    fn chain(hops: usize, vm_port: Option<u16>) -> (Network, ChainSpec) {
        let mut net = Network::new(0);
        let ingress_ovs = net.add_switch("ovs1", 8);
        let egress_ovs = net.add_switch("ovs2", 8);
        let mb_ovs = net.add_switch("ovs-mb", 8);
        let spec = ChainSpec {
            vm_port,
            ingress_mac: MacAddr::nth(1),
            ingress_ovs,
            egress_mac: MacAddr::nth(2),
            egress_ovs,
            hops: (0..hops)
                .map(|i| ChainHop {
                    mac: MacAddr::nth(10 + i as u64),
                    ovs: mb_ovs,
                })
                .collect(),
        };
        (net, spec)
    }

    #[test]
    fn installs_two_rules_per_hop() {
        let (mut net, spec) = chain(2, Some(40001));
        assert_eq!(spec.rule_count(), 4);
        install_chain(&mut net, &spec);
        // Forward rule for hop 1 lives on the ingress OVS.
        assert_eq!(net.fabric.switch(spec.ingress_ovs).flows().len(), 1);
        // Hop-2 forward + both reverse-direction rules live on the MB OVS
        // (both hops share it here) and the egress OVS.
        assert_eq!(net.fabric.switch(spec.egress_ovs).flows().len(), 1);
        assert_eq!(net.fabric.switch(spec.hops[0].ovs).flows().len(), 2);
    }

    #[test]
    fn forward_chain_links_hops_in_order() {
        let (_net, spec) = chain(3, Some(5));
        let rules = spec.forward_rules();
        assert_eq!(rules.len(), 3);
        assert_eq!(rules[0].1.src_mac, Some(spec.ingress_mac));
        assert_eq!(rules[0].2, spec.hops[0].mac);
        assert_eq!(rules[1].1.src_mac, Some(spec.hops[0].mac));
        assert_eq!(rules[1].2, spec.hops[1].mac);
        assert_eq!(rules[2].2, spec.hops[2].mac);
        // All match the VM's port and the egress MAC.
        assert!(rules.iter().all(|(_, m, _)| m.src_port == Some(5)));
        assert!(rules
            .iter()
            .all(|(_, m, _)| m.dst_mac == Some(spec.egress_mac)));
    }

    #[test]
    fn reverse_chain_is_mirrored() {
        let (_net, spec) = chain(2, Some(7));
        let rules = spec.reverse_rules();
        assert_eq!(rules[0].1.src_mac, Some(spec.egress_mac));
        assert_eq!(
            rules[0].2, spec.hops[1].mac,
            "reverse hits the last MB first"
        );
        assert_eq!(rules[1].2, spec.hops[0].mac);
        assert!(rules.iter().all(|(_, m, _)| m.src_port == Some(3260)));
        assert!(rules.iter().all(|(_, m, _)| m.dst_port == Some(7)));
    }

    #[test]
    fn remove_chain_uninstalls_everything() {
        let (mut net, spec) = chain(2, None);
        install_chain(&mut net, &spec);
        assert_eq!(remove_chain(&mut net, &spec), 4);
        assert!(net.fabric.switch(spec.ingress_ovs).flows().is_empty());
        assert!(net.fabric.switch(spec.hops[0].ovs).flows().is_empty());
        // Idempotent.
        assert_eq!(remove_chain(&mut net, &spec), 0);
    }

    #[test]
    fn empty_chain_installs_nothing() {
        let (mut net, spec) = chain(0, None);
        install_chain(&mut net, &spec);
        assert_eq!(spec.rule_count(), 0);
        assert!(net.fabric.switch(spec.ingress_ovs).flows().is_empty());
    }
}
