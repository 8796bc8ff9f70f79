//! The provider's service catalogue: tenant policy → concrete services.
//!
//! Paper §III-D: "StorM provides an interface for tenants to submit these
//! policies to the cloud provider, and the StorM platform, accordingly,
//! parses the policies and deploys the middle-box services." This module
//! is the parsing half, and the only code that knows the service kinds:
//! [`build_chain`] instantiates the bundled services a [`VolumePolicy`]
//! names and refuses a chain the platform cannot run as asked. Its order
//! is one rule, [`check_order`], which the scenario generator asks too:
//! each kind declares what it hides from later stages and what it must see.

use std::str::FromStr;

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
    /// `stage` sits behind `behind`, which hides what `stage` must see.
    Hidden {
        /// The refused stage's kind.
        stage: &'static str,
        /// The earliest kind ahead of it that hides what it must see.
        behind: &'static str,
    },
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
            CatalogError::Hidden { stage, behind } => write!(f, "{stage} behind {behind}"),
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
    let mut chain = Vec::with_capacity(policy.services.len());
    for spec in &policy.services {
        let (svc, streams) = build_service(spec, &mut recon)?;
        if policy.mode == RelayMode::Passive && !streams {
            return Err(CatalogError::NotPassive(spec.kind.clone()));
        }
        chain.push(svc);
    }
    check_order(policy.services.iter().map(|s| s.kind.as_str()))?;
    Ok(chain)
}

// What a kind can hide from the stages after it, and what one must see.
const PAYLOAD: u8 = 1; // it rewrites payloads
const WRITES: u8 = 2; // it acknowledges guest writes itself
const READS: u8 = 4; // it answers guest reads itself
const DISK: u8 = 8; // it sends disk I/O past the later stages
const REPLICAS: u8 = 16; // it owns the relay's replica sessions

/// Each kind, what it hides and what it must see (passthrough: neither).
const ORDER: [(&str, u8, u8); 7] = [
    ("monitor", 0, PAYLOAD | WRITES | READS),
    ("encryption", PAYLOAD, DISK),
    ("compress", PAYLOAD, WRITES),
    ("dedup", 0, WRITES),
    ("cache", WRITES | READS | DISK | REPLICAS, REPLICAS),
    ("replication", READS | DISK | REPLICAS, WRITES | REPLICAS),
    ("snapshot", DISK | REPLICAS, WRITES | REPLICAS),
];

/// Refuses the first of `kinds`, in write-path order, that sits behind a
/// kind hiding what it must see ([`CatalogError::Hidden`]).
pub fn check_order<'a>(kinds: impl IntoIterator<Item = &'a str>) -> Result<(), CatalogError> {
    let decls: Vec<_> = (kinds.into_iter())
        .filter_map(|k| ORDER.iter().find(|d| d.0 == k))
        .collect();
    for (i, &&(stage, _, needs)) in decls.iter().enumerate() {
        if let Some((behind, ..)) = decls[..i].iter().find(|d| d.1 & needs != 0) {
            return Err(CatalogError::Hidden { stage, behind });
        }
    }
    Ok(())
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
fn num<T: FromStr>(spec: &ServiceSpec, param: &'static str) -> Result<Option<T>, CatalogError> {
    match spec.params.get(param).map(|v| (v, v.parse())) {
        None => Ok(None),
        Some((_, Ok(n))) => Ok(Some(n)),
        Some((v, Err(_))) => bad(param, format!("not a number: {v}")),
    }
}

/// Refuses `param` for `reason`.
fn bad<T>(param: &'static str, reason: impl Into<String>) -> Result<T, CatalogError> {
    let reason = reason.into();
    Err(CatalogError::BadParam { param, reason })
}

/// The text `param` holds, `default` when the policy leaves it out.
fn text<'a>(spec: &'a ServiceSpec, param: &str, default: &'a str) -> &'a str {
    spec.params.get(param).map_or(default, String::as_str)
}

/// Instantiates one bundled service, and says whether it streams: whether
/// it is a byte-wise, position-keyed transform a passive tap can run.
fn build_service(
    spec: &ServiceSpec,
    recon: &mut Option<Reconstructor>,
) -> Result<(Box<dyn StorageService>, bool), CatalogError> {
    match spec.kind.as_str() {
        "monitor" => {
            let recon = recon.take().ok_or(CatalogError::MissingReconstructor)?;
            let watch = spec
                .params
                .get("watch")
                .map(|w| w.split(',').map(str::trim));
            let watch = watch.into_iter().flatten().map(String::from).collect();
            let cfg = MonitorConfig {
                watch,
                per_byte_cost: SimDuration::from_nanos(1),
            };
            Ok((Box::new(MonitorService::new(cfg, recon)), false))
        }
        "encryption" => {
            let key = match text(spec, "key", "default") {
                "" => return bad("key", "the key must not be empty"),
                passphrase => expand_key(passphrase),
            };
            match text(spec, "cipher", "aes-256-xts") {
                "aes-256-xts" => Ok((Box::new(EncryptionService::aes_xts(&key)), false)),
                "chacha20" | "stream" => {
                    let stream_key: [u8; 32] = std::array::from_fn(|i| key[i]);
                    let nonce: [u8; 12] = std::array::from_fn(|i| key[32 + i]);
                    let svc = EncryptionService::stream_cipher(&stream_key, &nonce);
                    Ok((Box::new(svc), true))
                }
                other => bad("cipher", format!("unsupported cipher {other}")),
            }
        }
        "replication" => {
            let replicas: usize = num(spec, "replicas")?.unwrap_or(2);
            if replicas == 0 {
                return bad("replicas", "at least one replica required");
            }
            let stripe = text(spec, "stripe_reads", "true");
            let stripe = stripe.eq_ignore_ascii_case("true") || stripe == "1";
            Ok((Box::new(ReplicationService::new(replicas, stripe)), false))
        }
        "cache" => {
            let mut cfg = CacheConfig::default();
            match num::<u64>(spec, "capacity_mb")? {
                Some(0) => return bad("capacity_mb", "cache capacity must be positive"),
                Some(mb) => cfg.capacity_sectors = mb * 2048,
                None => {}
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
        "compress" => match num::<usize>(spec, "extent_bytes")?.unwrap_or(4096) {
            e if e < 512 || !e.is_multiple_of(512) => {
                bad("extent_bytes", "extent must be a positive multiple of 512")
            }
            extent => Ok((Box::new(CompressService::new(extent)), false)),
        },
        "snapshot" => match num(spec, "extent_sectors")?.unwrap_or(128) {
            0 => bad("extent_sectors", "extent must be positive"),
            extent => Ok((Box::new(SnapshotService::new(extent)), false)),
        },
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

    /// [`every_kind`] built as three chains the order rule accepts, each
    /// with one owner of the replica sessions, laid end to end.
    fn build_every_kind() -> Vec<Box<dyn StorageService>> {
        let specs = every_kind();
        let build = |c: &[_]| build_chain(&policy(RelayMode::Active, c.to_vec()), Some(recon()));
        let chains = [&specs[..6], &specs[6..7], &specs[7..]];
        chains.into_iter().flat_map(|c| build(c).unwrap()).collect()
    }

    #[test]
    fn builds_every_kind_in_chain_order() {
        let kinds: Vec<_> = every_kind().into_iter().map(|s| s.kind).collect();
        let chain = build_every_kind();
        let names: Vec<_> = chain.iter().map(|s| s.name()).collect();
        assert_eq!(names, kinds);
    }

    /// An op no service can place (a command whose length disagrees with
    /// its CDB lifts to one) passes every kind as received, either way:
    /// nothing is answered, staged, mirrored, counted or logged.
    #[test]
    fn every_kind_forwards_an_op_without_a_command_as_received() {
        let mut chain = build_every_kind();
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
