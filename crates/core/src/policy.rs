//! Tenant policy documents (paper §III-D).
//!
//! "The following policies must be specified by tenants prior to using
//! middle-boxes: (1) which VMs and their associated volumes will use the
//! middle-box services, (2) the middle-boxes' storage service types and
//! virtual resources, and (3) the organization of these middle-boxes."
//!
//! Policies are plain data submitted to the provider;
//! the platform validates them and maps each [`ServiceSpec`] to a concrete
//! middle-box deployment.

use std::collections::BTreeMap;

/// The interception mode requested for a service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RelayModeSpec {
    /// Split-TCP store-and-forward (default; lowest overhead).
    #[default]
    Active,
    /// In-path per-packet hook (stream transforms only).
    Passive,
    /// No interception (measurement baseline).
    Forward,
}

/// One middle-box service in a chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSpec {
    /// Service type: one of [`KNOWN_KINDS`].
    pub kind: String,
    /// Interception mode.
    pub mode: RelayModeSpec,
    /// Requested vCPUs for the middle-box VM.
    pub vcpus: u32,
    /// Requested memory in MiB.
    pub memory_mb: u32,
    /// Free-form service parameters (watch lists, cipher ids, replica
    /// counts…).
    pub params: BTreeMap<String, String>,
}

impl ServiceSpec {
    /// A service spec with defaults.
    pub fn new(kind: impl Into<String>) -> Self {
        ServiceSpec {
            kind: kind.into(),
            mode: RelayModeSpec::Active,
            vcpus: 2,
            memory_mb: 4096,
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

/// Service kinds the bundled catalogue builds.
pub const KNOWN_KINDS: &[&str] = &[
    "monitor",
    "encryption",
    "replication",
    "passthrough",
    "dedup",
    "compress",
    "cache",
    "snapshot",
];

/// The kinds a passive tap can host: it transforms bytes as they stream
/// past and never holds a whole PDU.
const PASSIVE_KINDS: &[&str] = &["encryption", "passthrough"];

/// The kinds that issue replica I/O, which passes no later stage.
const REPLICA_KINDS: &[&str] = &["replication", "cache", "snapshot"];

/// Policy validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// A volume entry requests no services.
    EmptyChain {
        /// Offending VM name.
        vm: String,
    },
    /// The service kind is not a known bundled service.
    UnknownKind {
        /// Offending kind.
        kind: String,
    },
    /// Passive mode hosts only byte-wise transforms (encryption,
    /// passthrough).
    PassiveBuffering {
        /// Offending kind.
        kind: String,
    },
    /// A volume size of zero.
    ZeroVolume {
        /// Offending VM name.
        vm: String,
    },
    /// Replication, a cache or a snapshot ahead of encryption: replica I/O
    /// skips later stages, so mirrors, flushes and journals would hold
    /// plaintext.
    ReplicaBeforeEncryption {
        /// Offending VM name.
        vm: String,
    },
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::EmptyChain { vm } => write!(f, "vm {vm}: empty service chain"),
            PolicyError::UnknownKind { kind } => write!(f, "unknown service kind {kind}"),
            PolicyError::PassiveBuffering { kind } => {
                write!(f, "service {kind} requires the active relay")
            }
            PolicyError::ZeroVolume { vm } => write!(f, "vm {vm}: zero-sized volume"),
            PolicyError::ReplicaBeforeEncryption { vm } => {
                write!(f, "vm {vm}: replica I/O ahead of encryption")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

impl TenantPolicy {
    /// Validates the document against the bundled service catalogue.
    ///
    /// # Errors
    ///
    /// The first [`PolicyError`] found.
    pub fn validate(&self) -> Result<(), PolicyError> {
        for v in &self.volumes {
            if v.services.is_empty() {
                return Err(PolicyError::EmptyChain { vm: v.vm.clone() });
            }
            if v.volume_gb == 0 {
                return Err(PolicyError::ZeroVolume { vm: v.vm.clone() });
            }
            for s in &v.services {
                if !KNOWN_KINDS.contains(&s.kind.as_str()) {
                    return Err(PolicyError::UnknownKind {
                        kind: s.kind.clone(),
                    });
                }
                if s.mode == RelayModeSpec::Passive && !PASSIVE_KINDS.contains(&s.kind.as_str()) {
                    return Err(PolicyError::PassiveBuffering {
                        kind: s.kind.clone(),
                    });
                }
            }
            let kinds = || v.services.iter().map(|s| s.kind.as_str());
            let replica = kinds().position(|k| REPLICA_KINDS.contains(&k));
            if replica.is_some_and(|r| kinds().skip(r).any(|k| k == "encryption")) {
                return Err(PolicyError::ReplicaBeforeEncryption { vm: v.vm.clone() });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TenantPolicy {
        TenantPolicy {
            tenant: 7,
            volumes: vec![VolumePolicy {
                vm: "web-1".into(),
                volume_gb: 20,
                services: vec![
                    ServiceSpec::new("monitor").param("watch", "/mnt/box/secrets"),
                    ServiceSpec::new("encryption").param("cipher", "aes-256-xts"),
                ],
            }],
        }
    }

    #[test]
    fn valid_policy_passes() {
        assert_eq!(sample().validate(), Ok(()));
    }

    #[test]
    fn empty_chain_rejected() {
        let mut p = sample();
        p.volumes[0].services.clear();
        assert!(matches!(p.validate(), Err(PolicyError::EmptyChain { .. })));
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut p = sample();
        p.volumes[0].services[0].kind = "quantum-dedupe".into();
        assert!(matches!(p.validate(), Err(PolicyError::UnknownKind { .. })));
    }

    #[test]
    fn passive_monitor_rejected() {
        let mut p = sample();
        p.volumes[0].services[0].mode = RelayModeSpec::Passive;
        assert!(matches!(
            p.validate(),
            Err(PolicyError::PassiveBuffering { .. })
        ));
        // Passive encryption (stream cipher) is fine.
        let mut p2 = sample();
        p2.volumes[0].services[1].mode = RelayModeSpec::Passive;
        assert_eq!(p2.validate(), Ok(()));
    }

    #[test]
    fn zero_volume_rejected() {
        let mut p = sample();
        p.volumes[0].volume_gb = 0;
        assert!(matches!(p.validate(), Err(PolicyError::ZeroVolume { .. })));
    }

    #[test]
    fn builder_and_defaults() {
        let s = ServiceSpec::new("replication").param("replicas", "3");
        assert_eq!(s.vcpus, 2);
        assert_eq!(s.memory_mb, 4096);
        assert_eq!(s.mode, RelayModeSpec::Active);
        assert_eq!(s.params["replicas"], "3");
    }
}
