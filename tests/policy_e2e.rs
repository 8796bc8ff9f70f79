//! Policy-driven deployment: a tenant policy document, checked and
//! instantiated by the provider catalogue, drives a full deployment.

use storm::block::MemDisk;
use storm::cloud::Cloud;
use storm::core::{
    Reconstructor, RelayMode, ServiceSpec, StormPlatform, TenantPolicy, VolumePolicy,
};
use storm::extfs::ExtFs;
use storm::scenario::Spec;
use storm::services::catalog::{self, CatalogError};
use storm_block::BlockDevice;
use storm_sim::SimTime;
use storm_workloads::ShadowWorkload;

/// A one-volume policy for tenant 9's `db-1`.
fn policy(mode: RelayMode, services: Vec<ServiceSpec>) -> TenantPolicy {
    TenantPolicy {
        tenant: 9,
        volumes: vec![VolumePolicy {
            vm: "db-1".into(),
            volume_gb: 1,
            mode,
            services,
        }],
    }
}

/// A monitor's view of a freshly made filesystem.
fn recon() -> Reconstructor {
    let fs = ExtFs::mkfs(MemDisk::with_capacity_bytes(48 << 20)).unwrap();
    Reconstructor::from_device(&mut fs.into_device().unwrap(), "/mnt").unwrap()
}

/// Why the catalogue refuses an active two-service chain, if it does.
fn refusal(kinds: [&str; 2]) -> Option<CatalogError> {
    let p = policy(RelayMode::Active, kinds.map(ServiceSpec::new).to_vec());
    catalog::build_chain(&p.volumes[0], Some(recon())).err()
}

/// `stage` refused for sitting behind `behind`.
fn hidden(stage: &'static str, behind: &'static str) -> Option<CatalogError> {
    Some(CatalogError::Hidden { stage, behind })
}

/// Deploys the chain the catalogue builds for the policy's volume, runs
/// one verified 8 KiB write and read-back through it, and returns the
/// cloud with the bytes the write left at rest.
fn deploy(policy: &TenantPolicy) -> (Cloud, Vec<u8>) {
    let vp = &policy.volumes[0];
    let spec = Spec {
        client_seed: 9,
        label: "vm:db-1",
        volume_bytes: u64::from(vp.volume_gb) << 30,
        mode: Some(vp.mode),
        services: catalog::build_chain(vp, None).expect("catalogue builds the chain"),
        platform: StormPlatform {
            tenant: policy.tenant,
            ..StormPlatform::default()
        },
        ..Spec::default()
    };
    // The attribution the tests check is the policy's VM.
    assert_eq!(spec.label, format!("vm:{}", vp.vm));
    let mut run = spec.build(ShadowWorkload::new(64, 8192), |_, _| {});
    run.run_until(SimTime::from_nanos(5_000_000_000));
    // `Run::client` asserts the session is still logged in.
    assert_eq!(run.client().stats.errors, 0);
    assert_eq!(run.workload::<ShadowWorkload>().verified(), 1);
    let mut at_rest = vec![0u8; 8192];
    run.volume.shared.clone().read(64, &mut at_rest).unwrap();
    (run.cloud, at_rest)
}

/// The policy's encryption is in force in either relay mode: ciphertext
/// at rest, and the session attributed to the policy's VM. A passive tap
/// runs only the position-keyed stream cipher.
#[test]
fn policy_document_deploys_and_enforces() {
    let xts = ServiceSpec::new("encryption")
        .param("cipher", "aes-256-xts")
        .param("key", "tenant-9-secret");
    let stream = ServiceSpec::new("encryption").param("cipher", "chacha20");
    for (mode, encryption) in [(RelayMode::Active, xts), (RelayMode::Passive, stream)] {
        let (mut cloud, at_rest) = deploy(&policy(mode, vec![encryption]));
        assert_ne!(
            at_rest,
            ShadowWorkload::payload(0, 0, 8192),
            "{mode:?}: policy-mandated encryption must apply"
        );
        let attrs = cloud.attributions();
        assert_eq!(attrs.len(), 1);
        assert_eq!(attrs[0].vm_label, "vm:db-1");
        assert!(attrs[0].tuple.is_some());
    }
}

/// The default cipher, AES-XTS, transforms whole sectors of whole PDUs; a
/// passive tap cannot run it and would store the tenant's plaintext.
#[test]
fn passive_default_encryption_is_refused() {
    let p = policy(RelayMode::Passive, vec![ServiceSpec::new("encryption")]);
    assert_eq!(
        catalog::build_chain(&p.volumes[0], None).err(),
        Some(CatalogError::NotPassive("encryption".into()))
    );
}

/// Replica I/O skips the stages after the service that issues it, so
/// replication ahead of encryption would mirror plaintext (and a cache or
/// a snapshot would flush or journal it): refused. The other order
/// encrypts what it mirrors.
#[test]
fn replication_ahead_of_encryption_is_refused() {
    for issuer in ["replication", "cache", "snapshot"] {
        assert_eq!(
            refusal([issuer, "encryption"]),
            hidden("encryption", issuer)
        );
        assert_eq!(refusal(["encryption", issuer]), None);
    }
}

/// The monitor parses write payloads as filesystem blocks. Behind a
/// cipher or a compressor it sees rewritten bytes, resolves few paths and
/// raises few alerts, and nothing errs: refused. The other order
/// monitors plaintext.
#[test]
fn monitor_behind_a_payload_rewrite_is_refused() {
    for rewriter in ["encryption", "compress"] {
        assert_eq!(refusal([rewriter, "monitor"]), hidden("monitor", rewriter));
        assert_eq!(refusal(["monitor", rewriter]), None);
    }
}

/// A write-back cache acknowledges writes and flushes them over replica
/// I/O, which passes no later stage, and answers read hits itself: a
/// monitor behind it sees neither, and nothing errs. Refused; the other
/// order monitors every write the guest sends.
#[test]
fn monitor_behind_a_write_back_cache_is_refused() {
    assert_eq!(refusal(["cache", "monitor"]), hidden("monitor", "cache"));
    assert_eq!(refusal(["monitor", "cache"]), None);
}

/// Replication answers the reads it stripes to a mirror itself: behind
/// it the Table III trace logged 360 of 720 reads and raised 2 of 8
/// alerts, and nothing erred. Refused; the other order sees every read.
#[test]
fn monitor_behind_replication_is_refused() {
    let refused = hidden("monitor", "replication");
    assert_eq!(refusal(["replication", "monitor"]), refused);
    assert_eq!(refusal(["monitor", "replication"]), None);
}

#[test]
fn invalid_policies_never_reach_deployment() {
    let bad = policy(RelayMode::Active, vec![ServiceSpec::new("quantum-dedupe")]);
    assert_eq!(
        catalog::build_chain(&bad.volumes[0], None).err(),
        Some(CatalogError::UnknownKind("quantum-dedupe".into()))
    );
}

/// Every kind the catalogue knows builds in active mode; in passive mode
/// only the byte-wise transforms the tap can run build: the stream cipher
/// and passthrough. A kind the catalogue does not know builds in neither.
#[test]
fn validation_and_catalogue_agree_on_every_kind() {
    let builds = |mode, spec: &ServiceSpec| {
        let p = policy(mode, vec![spec.clone()]);
        catalog::build_chain(&p.volumes[0], Some(recon())).is_ok()
    };
    let stream = ServiceSpec::new("encryption").param("cipher", "chacha20");
    // (service, builds on a passive tap)
    let table = [
        (ServiceSpec::new("monitor"), false),
        (ServiceSpec::new("encryption"), false),
        (stream, true),
        (ServiceSpec::new("replication"), false),
        (ServiceSpec::new("passthrough"), true),
        (ServiceSpec::new("dedup"), false),
        (ServiceSpec::new("compress"), false),
        (ServiceSpec::new("cache"), false),
        (ServiceSpec::new("snapshot"), false),
    ];
    for (spec, passive) in &table {
        assert!(builds(RelayMode::Active, spec), "{spec:?}");
        assert_eq!(builds(RelayMode::Passive, spec), *passive, "{spec:?}");
    }
    let unknown = ServiceSpec::new("defragment");
    assert!(!builds(RelayMode::Active, &unknown));
    assert!(!builds(RelayMode::Passive, &unknown));
}
