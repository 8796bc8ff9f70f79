//! The SDN flow table behind the paper's forwarding plane.
//!
//! StorM's SDN controller steers storage flows through middle-box chains by
//! installing rules like the ones in the paper's Figure 3:
//!
//! ```text
//! Matching rules: src: ovs1_mac:vm1_port, dst: ovs2_mac:3260
//! Actions:        mod_dst_mac: ovs2_mac -> mb1_mac
//! ```
//!
//! That is the one rule shape this model has: a [`FlowRule`] matches the
//! (wildcard-able) [`FlowMatch`] fields, rewrites the destination MAC to
//! its `next_mac`, and the switch then forwards the frame by L2 learning.
//! [`FlowTable`] performs the priority-ordered lookup.

use crate::addr::MacAddr;
use crate::frame::Frame;
use crate::switch::PortNo;

/// Match fields; `None` wildcards a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowMatch {
    /// Source MAC.
    pub src_mac: Option<MacAddr>,
    /// Destination MAC.
    pub dst_mac: Option<MacAddr>,
    /// TCP source port.
    pub src_port: Option<u16>,
    /// TCP destination port.
    pub dst_port: Option<u16>,
}

impl FlowMatch {
    /// A match with every field wildcarded (matches everything).
    pub fn any() -> Self {
        Self::default()
    }

    /// Restricts the source MAC.
    pub fn src_mac(mut self, m: MacAddr) -> Self {
        self.src_mac = Some(m);
        self
    }

    /// Restricts the destination MAC.
    pub fn dst_mac(mut self, m: MacAddr) -> Self {
        self.dst_mac = Some(m);
        self
    }

    /// Restricts the TCP source port.
    pub fn src_port(mut self, p: u16) -> Self {
        self.src_port = Some(p);
        self
    }

    /// Restricts the TCP destination port.
    pub fn dst_port(mut self, p: u16) -> Self {
        self.dst_port = Some(p);
        self
    }

    /// Whether `frame` satisfies this match.
    pub fn matches(&self, frame: &Frame) -> bool {
        self.src_mac.is_none_or(|m| m == frame.src_mac)
            && self.dst_mac.is_none_or(|m| m == frame.dst_mac)
            && self.src_port.is_none_or(|p| p == frame.tcp.src_port)
            && self.dst_port.is_none_or(|p| p == frame.tcp.dst_port)
    }
}

/// A prioritized steering rule: a matched frame's destination MAC becomes
/// `next_mac` (`mod_dst_mac`), then the frame is L2-forwarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRule {
    /// Higher priorities are evaluated first.
    pub priority: u16,
    /// Match fields.
    pub matching: FlowMatch,
    /// The MAC a matched frame is steered to.
    pub next_mac: MacAddr,
}

/// A priority-ordered flow table with per-rule hit counters.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    rules: Vec<(FlowRule, u64)>,
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a rule; rules of equal priority keep insertion order.
    pub fn install(&mut self, rule: FlowRule) {
        let pos = self
            .rules
            .partition_point(|(r, _)| r.priority >= rule.priority);
        self.rules.insert(pos, (rule, 0));
    }

    /// Removes all rules whose match equals `matching` exactly. Returns the
    /// number removed.
    pub fn remove(&mut self, matching: &FlowMatch) -> usize {
        let before = self.rules.len();
        self.rules.retain(|(r, _)| r.matching != *matching);
        before - self.rules.len()
    }

    /// Finds the highest-priority rule matching `frame`, incrementing its
    /// hit counter. A rule matches no ingress port, so `_port` is unread.
    pub fn lookup(&mut self, frame: &Frame, _port: PortNo) -> Option<&FlowRule> {
        let i = self.find(frame)?;
        self.count_hit(i, true);
        Some(self.rule(i))
    }

    /// The position of the highest-priority rule matching `frame`,
    /// counting nothing.
    pub(crate) fn find(&self, frame: &Frame) -> Option<u32> {
        let i = (self.rules.iter()).position(|(rule, _)| rule.matching.matches(frame))?;
        Some(i as u32)
    }

    /// The rule at a position [`find`](Self::find) returned.
    pub(crate) fn rule(&self, i: u32) -> &FlowRule {
        &self.rules[i as usize].0
    }

    /// Counts a hit on the rule at position `i`, or takes one back.
    pub(crate) fn count_hit(&mut self, i: u32, hit: bool) {
        let hits = &mut self.rules[i as usize].1;
        *hits = if hit { *hits + 1 } else { *hits - 1 };
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterates over rules with their hit counts (priority order).
    pub fn iter(&self) -> impl Iterator<Item = (&FlowRule, u64)> {
        self.rules.iter().map(|(r, h)| (r, *h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{TcpFlags, TcpSegment};
    use bytes::Bytes;
    use std::net::Ipv4Addr;

    fn frame(dst_port: u16) -> Frame {
        Frame {
            src_mac: MacAddr::nth(1),
            dst_mac: MacAddr::nth(2),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            tcp: TcpSegment {
                src_port: 5555,
                dst_port,
                seq: 0,
                ack: 0,
                flags: TcpFlags::ACK,
                wnd: 0,
                payload: Bytes::new().into(),
            },
            hops: 0,
        }
    }

    fn rule(priority: u16, matching: FlowMatch) -> FlowRule {
        FlowRule {
            priority,
            matching,
            next_mac: MacAddr::nth(9),
        }
    }

    #[test]
    fn wildcard_match_matches_everything() {
        assert!(FlowMatch::any().matches(&frame(80)));
    }

    #[test]
    fn field_mismatch_fails() {
        let m = FlowMatch::any().dst_port(3260).src_mac(MacAddr::nth(1));
        assert!(m.matches(&frame(3260)));
        assert!(!m.matches(&frame(80)));
        assert!(!m.src_port(7).matches(&frame(3260)));
        assert!(m.src_port(5555).matches(&frame(3260)));
    }

    #[test]
    fn priority_order_wins() {
        let mut t = FlowTable::new();
        t.install(rule(1, FlowMatch::any()));
        t.install(rule(10, FlowMatch::any().dst_port(3260)));
        let hit = t.lookup(&frame(3260), PortNo(0)).unwrap();
        assert_eq!(hit.priority, 10);
        let miss = t.lookup(&frame(80), PortNo(0)).unwrap();
        assert_eq!(miss.priority, 1);
        let hits: Vec<u64> = t.iter().map(|(_, h)| h).collect();
        assert_eq!(hits, vec![1, 1]);
    }

    #[test]
    fn remove_by_match() {
        let mut t = FlowTable::new();
        let m = FlowMatch::any().dst_port(3260);
        t.install(rule(5, m));
        t.install(rule(0, FlowMatch::any()));
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(&m), 1);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_table_returns_none() {
        let mut t = FlowTable::new();
        assert!(t.lookup(&frame(80), PortNo(0)).is_none());
    }
}
