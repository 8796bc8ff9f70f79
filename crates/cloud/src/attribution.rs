//! Connection attribution: which VM owns which iSCSI connection.
//!
//! Paper §III-A: "Connection attribution refers to the process of
//! automatically identifying which VM is attached to which persistent
//! storage connection". Because every VM on a host shares the host
//! initiator's IP, the 4-tuple alone names only the host; StorM combines
//!
//! 1. the hypervisor's IQN ↔ VM map (which virtual block device each VM
//!    has attached), and
//! 2. the modified iSCSI login path exposing each session's TCP source
//!    port,
//!
//! to bind 4-tuples to VMs. Here (1) is the cloud's attachment registry
//! and (2) is read from the client session (initiator side) and the
//! target's login log.

use storm_block::transport::Iqn;
use storm_block::VolumeId;
use storm_net::{AppId, FourTuple};

use crate::topology::Cloud;

/// One attachment record (the hypervisor's IQN ↔ VM knowledge).
#[derive(Debug, Clone)]
pub(crate) struct AttachRecord {
    pub host_idx: usize,
    pub app: AppId,
    pub vm_label: String,
    pub volume: VolumeId,
    pub iqn: Iqn,
}

/// A resolved attribution entry: VM ↔ volume ↔ connection 4-tuple.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// The VM's label.
    pub vm_label: String,
    /// The attached volume.
    pub volume: VolumeId,
    /// The volume's IQN.
    pub iqn: Iqn,
    /// The connection tuple as seen at the initiator (`None` until the
    /// session connects).
    pub tuple: Option<FourTuple>,
}

impl Cloud {
    /// Resolves the current attribution table by joining the attachment
    /// registry with live session tuples.
    pub fn attributions(&mut self) -> Vec<Attribution> {
        let records: Vec<AttachRecord> = self.attachments().to_vec();
        records
            .into_iter()
            .map(|r| {
                let tuple = self
                    .net
                    .app_mut(self.computes[r.host_idx].host, r.app)
                    .and_then(|a| a.downcast_ref::<crate::client::VolumeClient>())
                    .and_then(|c| c.tuple());
                Attribution {
                    vm_label: r.vm_label,
                    volume: r.volume,
                    iqn: r.iqn,
                    tuple,
                }
            })
            .collect()
    }

    /// Finds the VM label owning a given on-wire source port (the lookup
    /// StorM's platform performs when installing per-flow rules).
    pub fn vm_for_port(&mut self, src_port: u16) -> Option<String> {
        self.attributions()
            .into_iter()
            .find(|a| a.tuple.is_some_and(|t| t.src.port == src_port))
            .map(|a| a.vm_label)
    }
}
