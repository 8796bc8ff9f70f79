//! Tenant policy documents (paper §III-D).
//!
//! "The following policies must be specified by tenants prior to using
//! middle-boxes: (1) which VMs and their associated volumes will use the
//! middle-box services, (2) the middle-boxes' storage service types and
//! virtual resources, and (3) the organization of these middle-boxes."
//!
//! Policies are plain data submitted to the provider. This module knows
//! no service kinds: the provider's catalogue
//! (`storm_services::catalog::build_chain`) checks a [`VolumePolicy`]
//! while it builds the chain the policy names.

use std::collections::BTreeMap;

use crate::platform::RelayMode;

/// One middle-box service in a chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSpec {
    /// Service type, as the provider's catalogue names it.
    pub kind: String,
    /// Free-form service parameters (watch lists, cipher ids, replica
    /// counts…).
    pub params: BTreeMap<String, String>,
}

impl ServiceSpec {
    /// A service spec with no parameters.
    pub fn new(kind: impl Into<String>) -> Self {
        ServiceSpec {
            kind: kind.into(),
            params: BTreeMap::new(),
        }
    }

    /// Adds a parameter.
    pub fn param(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.params.insert(key.into(), value.into());
        self
    }
}

/// Services requested for one VM/volume pair, in chain order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumePolicy {
    /// The tenant VM this applies to.
    pub vm: String,
    /// Volume size in GiB.
    pub volume_gb: u32,
    /// How the middle-box intercepts the flow; it runs the whole chain in
    /// this one mode.
    pub mode: RelayMode,
    /// Chain of services, applied in order on the write path.
    pub services: Vec<ServiceSpec>,
}

/// A tenant's full policy document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Tenant identifier.
    pub tenant: u32,
    /// Per-volume service chains.
    pub volumes: Vec<VolumePolicy>,
}
