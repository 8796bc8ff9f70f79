//! The provider's service catalogue: tenant policy → concrete services.
//!
//! Paper §III-D: "StorM provides an interface for tenants to submit these
//! policies to the cloud provider, and the StorM platform, accordingly,
//! parses the policies and deploys the middle-box services." This module
//! is the parsing half: it instantiates the bundled service
//! implementations from a validated [`ServiceSpec`].

use storm_core::policy::{RelayModeSpec, ServiceSpec};
use storm_core::service::PassthroughService;
use storm_core::{Reconstructor, RelayMode, StorageService};
use storm_sim::SimDuration;

use crate::{
    CacheConfig, CompressService, DedupService, EncryptionService, MonitorConfig, MonitorService,
    ReplicationService, SnapshotService, WriteBackCacheService,
};

/// Errors instantiating a service from a policy entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
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
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::UnknownKind(k) => write!(f, "unknown service kind {k}"),
            CatalogError::BadParam { param, reason } => write!(f, "parameter {param}: {reason}"),
            CatalogError::MissingReconstructor => {
                write!(f, "monitor requires the volume's filesystem view")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// Maps the policy's relay mode to the platform's.
pub fn relay_mode(spec: RelayModeSpec) -> RelayMode {
    match spec {
        RelayModeSpec::Active => RelayMode::Active,
        RelayModeSpec::Passive => RelayMode::Passive,
        RelayModeSpec::Forward => RelayMode::Forward,
    }
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

/// Instantiates a bundled service from a validated [`ServiceSpec`].
///
/// `recon` supplies the volume's bootstrapped filesystem view for
/// monitor services (built by the platform at attach time).
///
/// # Errors
///
/// See [`CatalogError`].
pub fn build_service(
    spec: &ServiceSpec,
    recon: Option<Reconstructor>,
) -> Result<Box<dyn StorageService>, CatalogError> {
    let bad = |param, reason: &str| {
        Err(CatalogError::BadParam {
            param,
            reason: reason.into(),
        })
    };
    match spec.kind.as_str() {
        "monitor" => {
            let recon = recon.ok_or(CatalogError::MissingReconstructor)?;
            let watch = spec
                .params
                .get("watch")
                .map(|w| w.split(',').map(|s| s.trim().to_owned()).collect())
                .unwrap_or_default();
            Ok(Box::new(MonitorService::new(
                MonitorConfig {
                    watch,
                    per_byte_cost: SimDuration::from_nanos(1),
                },
                recon,
            )))
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
                "aes-256-xts" => Ok(Box::new(EncryptionService::aes_xts(&key))),
                "chacha20" | "stream" => {
                    let mut stream_key = [0u8; 32];
                    stream_key.copy_from_slice(&key[..32]);
                    let mut nonce = [0u8; 12];
                    nonce.copy_from_slice(&key[32..44]);
                    Ok(Box::new(EncryptionService::stream_cipher(
                        &stream_key,
                        &nonce,
                    )))
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
            Ok(Box::new(ReplicationService::new(replicas, stripe)))
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
            Ok(Box::new(WriteBackCacheService::new(cfg)))
        }
        "dedup" => {
            let seed = num(spec, "seed")?.unwrap_or(0);
            let bits = num(spec, "chunk_bits")?.unwrap_or(12);
            Ok(Box::new(DedupService::new(seed, bits)))
        }
        "compress" => {
            let extent: usize = num(spec, "extent_bytes")?.unwrap_or(4096);
            if extent < 512 || !extent.is_multiple_of(512) {
                return bad("extent_bytes", "extent must be a positive multiple of 512");
            }
            Ok(Box::new(CompressService::new(extent)))
        }
        "snapshot" => {
            let extent: u64 = num(spec, "extent_sectors")?.unwrap_or(128);
            if extent == 0 {
                return bad("extent_sectors", "extent must be positive");
            }
            Ok(Box::new(SnapshotService::new(extent)))
        }
        "passthrough" => Ok(Box::new(PassthroughService::new())),
        other => Err(CatalogError::UnknownKind(other.to_owned())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_block::MemDisk;
    use storm_extfs::ExtFs;

    fn recon() -> Reconstructor {
        let fs = ExtFs::mkfs(MemDisk::with_capacity_bytes(48 << 20)).unwrap();
        let mut dev = fs.into_device().unwrap();
        Reconstructor::from_device(&mut dev, "/mnt").unwrap()
    }

    #[test]
    fn builds_every_known_kind() {
        let enc = build_service(&ServiceSpec::new("encryption"), None).unwrap();
        assert_eq!(enc.name(), "encryption");
        let rep = build_service(
            &ServiceSpec::new("replication").param("replicas", "3"),
            None,
        )
        .unwrap();
        assert_eq!(rep.name(), "replication");
        let mon = build_service(
            &ServiceSpec::new("monitor").param("watch", "/mnt/a, /mnt/b"),
            Some(recon()),
        )
        .unwrap();
        assert_eq!(mon.name(), "monitor");
        let pt = build_service(&ServiceSpec::new("passthrough"), None).unwrap();
        assert_eq!(pt.name(), "passthrough");
        let cache = build_service(
            &ServiceSpec::new("cache")
                .param("capacity_mb", "8")
                .param("flush_ms", "10"),
            None,
        )
        .unwrap();
        assert_eq!(cache.name(), "cache");
        let dedup = build_service(
            &ServiceSpec::new("dedup")
                .param("seed", "7")
                .param("chunk_bits", "11"),
            None,
        )
        .unwrap();
        assert_eq!(dedup.name(), "dedup");
        let comp = build_service(
            &ServiceSpec::new("compress").param("extent_bytes", "4096"),
            None,
        )
        .unwrap();
        assert_eq!(comp.name(), "compress");
        let snap = build_service(
            &ServiceSpec::new("snapshot").param("extent_sectors", "64"),
            None,
        )
        .unwrap();
        assert_eq!(snap.name(), "snapshot");
    }

    #[test]
    fn monitor_without_view_is_rejected() {
        assert_eq!(
            build_service(&ServiceSpec::new("monitor"), None).err(),
            Some(CatalogError::MissingReconstructor)
        );
    }

    #[test]
    fn bad_params_are_rejected() {
        assert!(matches!(
            build_service(
                &ServiceSpec::new("encryption").param("cipher", "rot13"),
                None
            ),
            Err(CatalogError::BadParam {
                param: "cipher",
                ..
            })
        ));
        assert!(matches!(
            build_service(
                &ServiceSpec::new("replication").param("replicas", "many"),
                None
            ),
            Err(CatalogError::BadParam {
                param: "replicas",
                ..
            })
        ));
        assert!(matches!(
            build_service(
                &ServiceSpec::new("replication").param("replicas", "0"),
                None
            ),
            Err(CatalogError::BadParam {
                param: "replicas",
                ..
            })
        ));
        assert!(matches!(
            build_service(&ServiceSpec::new("cache").param("capacity_mb", "0"), None),
            Err(CatalogError::BadParam {
                param: "capacity_mb",
                ..
            })
        ));
        assert!(matches!(
            build_service(
                &ServiceSpec::new("compress").param("extent_bytes", "1000"),
                None
            ),
            Err(CatalogError::BadParam {
                param: "extent_bytes",
                ..
            })
        ));
        assert!(matches!(
            build_service(&ServiceSpec::new("defragment"), None),
            Err(CatalogError::UnknownKind(_))
        ));
    }

    #[test]
    fn relay_modes_map() {
        assert_eq!(relay_mode(RelayModeSpec::Active), RelayMode::Active);
        assert_eq!(relay_mode(RelayModeSpec::Passive), RelayMode::Passive);
        assert_eq!(relay_mode(RelayModeSpec::Forward), RelayMode::Forward);
    }

    /// An empty passphrase is a tenant input error, not a key.
    #[test]
    fn empty_key_is_a_bad_param_not_a_panic() {
        for cipher in ["aes-256-xts", "chacha20"] {
            let spec = ServiceSpec::new("encryption")
                .param("cipher", cipher)
                .param("key", "");
            assert!(matches!(
                build_service(&spec, None),
                Err(CatalogError::BadParam { param: "key", .. })
            ));
        }
    }

    #[test]
    fn key_expansion_is_deterministic_and_distinct() {
        assert_eq!(expand_key("alpha"), expand_key("alpha"));
        assert_ne!(expand_key("alpha"), expand_key("beta"));
    }
}
