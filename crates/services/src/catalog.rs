//! The provider's service catalogue: tenant policy → concrete services.
//!
//! Paper §III-D: "StorM provides an interface for tenants to submit these
//! policies to the cloud provider, and the StorM platform, accordingly,
//! parses the policies and deploys the middle-box services." This module
//! is the parsing half, and the only code that knows the service kinds:
//! [`build_chain`] instantiates the bundled services a [`VolumePolicy`]
//! names and refuses a chain the platform cannot run as asked.

use storm_core::policy::{ServiceSpec, VolumePolicy};
use storm_core::service::PassthroughService;
use storm_core::{Reconstructor, RelayMode, StorageService};
use storm_sim::SimDuration;

use crate::{
    CacheConfig, CompressService, DedupService, EncryptionService, MonitorConfig, MonitorService,
    ReplicationService, SnapshotService, WriteBackCacheService,
};

/// Why a policy's chain was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// The policy names no services.
    EmptyChain,
    /// A volume size of zero.
    ZeroVolume,
    /// The kind is not in the catalogue.
    UnknownKind(String),
    /// A required parameter is missing or malformed.
    BadParam {
        /// Parameter name.
        param: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// The monitor needs a bootstrapped reconstructor.
    MissingReconstructor,
    /// A passive tap transforms bytes as they stream past and never holds
    /// a whole PDU, so it hosts only a stream cipher and passthrough.
    NotPassive(String),
    /// Replication, a cache or a snapshot ahead of encryption: replica I/O
    /// skips later stages, so mirrors, flushes and journals would hold
    /// plaintext.
    ReplicaBeforeEncryption,
    /// Encryption or compression ahead of the monitor: it would parse
    /// rewritten payloads as filesystem blocks and miss paths and alerts.
    RewriteBeforeMonitor,
    /// A write-back cache ahead of the monitor: the cache acknowledges
    /// writes and flushes them over replica I/O, which passes no later
    /// stage, and answers read hits itself, so the monitor would see
    /// neither.
    CacheBeforeMonitor,
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::EmptyChain => write!(f, "empty service chain"),
            CatalogError::ZeroVolume => write!(f, "zero-sized volume"),
            CatalogError::UnknownKind(k) => write!(f, "unknown service kind {k}"),
            CatalogError::BadParam { param, reason } => write!(f, "parameter {param}: {reason}"),
            CatalogError::MissingReconstructor => {
                write!(f, "monitor requires the volume's filesystem view")
            }
            CatalogError::NotPassive(k) => write!(f, "service {k} requires the active relay"),
            CatalogError::ReplicaBeforeEncryption => {
                write!(f, "replica I/O ahead of encryption")
            }
            CatalogError::RewriteBeforeMonitor => write!(f, "payload rewrite ahead of monitor"),
            CatalogError::CacheBeforeMonitor => write!(f, "write-back cache ahead of monitor"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// Builds the chain `policy` names, in order, checking it on the way.
///
/// `recon` supplies the volume's bootstrapped filesystem view for a
/// monitor service (built by the platform at attach time).
///
/// # Errors
///
/// The first [`CatalogError`] found: the chain is refused whole.
pub fn build_chain(
    policy: &VolumePolicy,
    mut recon: Option<Reconstructor>,
) -> Result<Vec<Box<dyn StorageService>>, CatalogError> {
    if policy.services.is_empty() {
        return Err(CatalogError::EmptyChain);
    }
    if policy.volume_gb == 0 {
        return Err(CatalogError::ZeroVolume);
    }
    let (mut replica_issuer, mut rewriter, mut cache) = (false, false, false);
    let mut chain = Vec::with_capacity(policy.services.len());
    for spec in &policy.services {
        let (svc, streams) = build_service(spec, &mut recon)?;
        if policy.mode == RelayMode::Passive && !streams {
            return Err(CatalogError::NotPassive(spec.kind.clone()));
        }
        match spec.kind.as_str() {
            "encryption" if replica_issuer => return Err(CatalogError::ReplicaBeforeEncryption),
            "monitor" if rewriter => return Err(CatalogError::RewriteBeforeMonitor),
            "monitor" if cache => return Err(CatalogError::CacheBeforeMonitor),
            "replication" | "snapshot" => replica_issuer = true,
            "cache" => (replica_issuer, cache) = (true, true),
            "encryption" | "compress" => rewriter = true,
            _ => {}
        }
        chain.push(svc);
    }
    Ok(chain)
}

/// Derives a 64-byte XTS master key from a non-empty policy passphrase.
///
/// Key material handling is out of the paper's scope; this is a simple
/// expansion, not a KDF.
fn expand_key(passphrase: &str) -> [u8; 64] {
    let mut key = [0u8; 64];
    let cycled = key.iter_mut().zip(passphrase.bytes().cycle());
    for (i, (k, b)) in cycled.enumerate() {
        *k = b.wrapping_mul(167).wrapping_add(i as u8);
    }
    key
}

/// The number `param` holds, `None` when the policy leaves it out.
fn num<T: std::str::FromStr>(
    spec: &ServiceSpec,
    param: &'static str,
) -> Result<Option<T>, CatalogError> {
    let Some(v) = spec.params.get(param) else {
        return Ok(None);
    };
    let n = v.parse().map_err(|_| CatalogError::BadParam {
        param,
        reason: format!("not a number: {v}"),
    })?;
    Ok(Some(n))
}

/// Instantiates one bundled service, and says whether it streams: whether
/// it is a byte-wise, position-keyed transform a passive tap can run.
fn build_service(
    spec: &ServiceSpec,
    recon: &mut Option<Reconstructor>,
) -> Result<(Box<dyn StorageService>, bool), CatalogError> {
    let bad = |param, reason: &str| {
        Err(CatalogError::BadParam {
            param,
            reason: reason.into(),
        })
    };
    match spec.kind.as_str() {
        "monitor" => {
            let recon = recon.take().ok_or(CatalogError::MissingReconstructor)?;
            let watch = spec
                .params
                .get("watch")
                .map(|w| w.split(',').map(|s| s.trim().to_owned()).collect())
                .unwrap_or_default();
            let cfg = MonitorConfig {
                watch,
                per_byte_cost: SimDuration::from_nanos(1),
            };
            Ok((Box::new(MonitorService::new(cfg, recon)), false))
        }
        "encryption" => {
            let passphrase = spec
                .params
                .get("key")
                .map(String::as_str)
                .unwrap_or("default");
            if passphrase.is_empty() {
                return bad("key", "the key must not be empty");
            }
            let key = expand_key(passphrase);
            let cipher = spec
                .params
                .get("cipher")
                .map(String::as_str)
                .unwrap_or("aes-256-xts");
            match cipher {
                "aes-256-xts" => Ok((Box::new(EncryptionService::aes_xts(&key)), false)),
                "chacha20" | "stream" => {
                    let mut stream_key = [0u8; 32];
                    stream_key.copy_from_slice(&key[..32]);
                    let mut nonce = [0u8; 12];
                    nonce.copy_from_slice(&key[32..44]);
                    let svc = EncryptionService::stream_cipher(&stream_key, &nonce);
                    Ok((Box::new(svc), true))
                }
                other => bad("cipher", &format!("unsupported cipher {other}")),
            }
        }
        "replication" => {
            let replicas: usize = num(spec, "replicas")?.unwrap_or(2);
            if replicas == 0 {
                return bad("replicas", "at least one replica required");
            }
            let stripe = spec
                .params
                .get("stripe_reads")
                .map(|v| v.eq_ignore_ascii_case("true") || v == "1")
                .unwrap_or(true);
            Ok((Box::new(ReplicationService::new(replicas, stripe)), false))
        }
        "cache" => {
            let mut cfg = CacheConfig::default();
            if let Some(mb) = num::<u64>(spec, "capacity_mb")? {
                if mb == 0 {
                    return bad("capacity_mb", "cache capacity must be positive");
                }
                cfg.capacity_sectors = mb * 2048;
            }
            if let Some(ms) = num::<u64>(spec, "flush_ms")? {
                cfg.flush_delay = SimDuration::from_millis(ms.max(1));
            }
            if let Some(mb) = num::<u64>(spec, "journal_mb")? {
                cfg.journal_sectors = mb.max(1) * 2048;
            }
            Ok((Box::new(WriteBackCacheService::new(cfg)), false))
        }
        "dedup" => {
            let seed = num(spec, "seed")?.unwrap_or(0);
            let bits = num(spec, "chunk_bits")?.unwrap_or(12);
            Ok((Box::new(DedupService::new(seed, bits)), false))
        }
        "compress" => {
            let extent: usize = num(spec, "extent_bytes")?.unwrap_or(4096);
            if extent < 512 || !extent.is_multiple_of(512) {
                return bad("extent_bytes", "extent must be a positive multiple of 512");
            }
            Ok((Box::new(CompressService::new(extent)), false))
        }
        "snapshot" => {
            let extent: u64 = num(spec, "extent_sectors")?.unwrap_or(128);
            if extent == 0 {
                return bad("extent_sectors", "extent must be positive");
            }
            Ok((Box::new(SnapshotService::new(extent)), false))
        }
        "passthrough" => Ok((Box::new(PassthroughService::new()), true)),
        other => Err(CatalogError::UnknownKind(other.to_owned())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheStats, ReplicationStats};
    use bytes::Bytes;
    use storm_block::transport::Step;
    use storm_block::MemDisk;
    use storm_core::{Dir, Op, SvcAction, SvcCtx};
    use storm_extfs::ExtFs;
    use storm_sim::SimTime;

    fn recon() -> Reconstructor {
        let fs = ExtFs::mkfs(MemDisk::with_capacity_bytes(48 << 20)).unwrap();
        let mut dev = fs.into_device().unwrap();
        Reconstructor::from_device(&mut dev, "/mnt").unwrap()
    }

    fn policy(mode: RelayMode, services: Vec<ServiceSpec>) -> VolumePolicy {
        VolumePolicy {
            vm: "web-1".into(),
            volume_gb: 20,
            mode,
            services,
        }
    }

    /// Why a one-service active chain without a filesystem view is
    /// refused, if it is.
    fn refusal(spec: ServiceSpec) -> Option<CatalogError> {
        build_chain(&policy(RelayMode::Active, vec![spec]), None).err()
    }

    fn every_kind() -> Vec<ServiceSpec> {
        vec![
            ServiceSpec::new("monitor").param("watch", "/mnt/a, /mnt/b"),
            ServiceSpec::new("encryption").param("cipher", "aes-256-xts"),
            ServiceSpec::new("dedup")
                .param("seed", "7")
                .param("chunk_bits", "11"),
            ServiceSpec::new("compress").param("extent_bytes", "4096"),
            ServiceSpec::new("passthrough"),
            ServiceSpec::new("replication").param("replicas", "3"),
            ServiceSpec::new("cache")
                .param("capacity_mb", "8")
                .param("flush_ms", "10"),
            ServiceSpec::new("snapshot").param("extent_sectors", "64"),
        ]
    }

    #[test]
    fn builds_every_kind_in_chain_order() {
        let specs = every_kind();
        let kinds: Vec<_> = specs.iter().map(|s| s.kind.clone()).collect();
        let chain = build_chain(&policy(RelayMode::Active, specs), Some(recon())).unwrap();
        let names: Vec<_> = chain.iter().map(|s| s.name()).collect();
        assert_eq!(names, kinds);
    }

    /// An op no service can place (a command whose length disagrees with
    /// its CDB lifts to one) passes every kind as received, either way:
    /// nothing is answered, staged, mirrored, counted or logged.
    #[test]
    fn every_kind_forwards_an_op_without_a_command_as_received() {
        let policy = policy(RelayMode::Active, every_kind());
        let mut chain = build_chain(&policy, Some(recon())).unwrap();
        let odd = Op::new(Step::Other, None, 1, Bytes::from(vec![1u8; 512]));
        for svc in &mut chain {
            for dir in [Dir::ToTarget, Dir::ToInitiator] {
                let mut cx = SvcCtx::new(SimTime::ZERO);
                svc.on_op(&mut cx, dir, odd.clone());
                let (acts, name) = (cx.take_actions(), svc.name());
                let once = matches!(&acts[..], [SvcAction::Forward(f)] if *f == odd);
                assert!(once, "{name}: {acts:?}");
            }
        }
        let cache = chain[6].downcast_ref::<WriteBackCacheService>().unwrap();
        assert_eq!(cache.stats, CacheStats::default());
        let replication = chain[5].downcast_ref::<ReplicationService>().unwrap();
        assert_eq!(replication.stats, ReplicationStats::default());
        let monitor = chain[0].downcast_mut::<MonitorService>().unwrap();
        assert!(monitor.log().is_empty() && monitor.events().is_empty());
    }

    #[test]
    fn malformed_policies_are_refused() {
        assert_eq!(
            build_chain(&policy(RelayMode::Active, vec![]), None).err(),
            Some(CatalogError::EmptyChain)
        );
        let zero = VolumePolicy {
            volume_gb: 0,
            ..policy(RelayMode::Active, vec![ServiceSpec::new("passthrough")])
        };
        assert_eq!(
            build_chain(&zero, None).err(),
            Some(CatalogError::ZeroVolume)
        );
        assert_eq!(
            refusal(ServiceSpec::new("quantum-dedupe")),
            Some(CatalogError::UnknownKind("quantum-dedupe".into()))
        );
        assert_eq!(
            refusal(ServiceSpec::new("monitor")),
            Some(CatalogError::MissingReconstructor)
        );
    }

    /// A passive tap never holds a whole PDU: the monitor needs one, the
    /// stream cipher does not.
    #[test]
    fn passive_monitor_rejected() {
        let passive = |spec: ServiceSpec| {
            build_chain(&policy(RelayMode::Passive, vec![spec]), Some(recon())).err()
        };
        assert_eq!(
            passive(ServiceSpec::new("monitor")),
            Some(CatalogError::NotPassive("monitor".into()))
        );
        assert_eq!(
            passive(ServiceSpec::new("encryption").param("cipher", "chacha20")),
            None
        );
    }

    #[test]
    fn bad_params_are_rejected() {
        for (kind, param, value) in [
            ("encryption", "cipher", "rot13"),
            ("replication", "replicas", "many"),
            ("replication", "replicas", "0"),
            ("cache", "capacity_mb", "0"),
            ("compress", "extent_bytes", "1000"),
        ] {
            match refusal(ServiceSpec::new(kind).param(param, value)) {
                Some(CatalogError::BadParam { param: p, .. }) => assert_eq!(p, param),
                other => panic!("{kind} {param}={value}: {other:?}"),
            }
        }
    }

    /// An empty passphrase is a tenant input error, not a key.
    #[test]
    fn empty_key_is_a_bad_param_not_a_panic() {
        for cipher in ["aes-256-xts", "chacha20"] {
            let spec = ServiceSpec::new("encryption")
                .param("cipher", cipher)
                .param("key", "");
            assert!(matches!(
                refusal(spec),
                Some(CatalogError::BadParam { param: "key", .. })
            ));
        }
    }

    #[test]
    fn key_expansion_is_deterministic_and_distinct() {
        assert_eq!(expand_key("alpha"), expand_key("alpha"));
        assert_ne!(expand_key("alpha"), expand_key("beta"));
    }
}
