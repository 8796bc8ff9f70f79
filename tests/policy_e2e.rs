//! Policy-driven deployment: a tenant policy document, checked and
//! instantiated by the provider catalogue, drives a full deployment.

use storm::cloud::{Cloud, CloudConfig};
use storm::core::{MbSpec, RelayMode, ServiceSpec, StormPlatform, TenantPolicy, VolumePolicy};
use storm::services::catalog::{self, CatalogError};
use storm_block::BlockDevice;
use storm_sim::SimTime;
use storm_workloads::VerifyWorkload;

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

/// Deploys the chain the catalogue builds for the policy's volume, runs
/// one verified 8 KiB write and read-back through it, and returns the
/// cloud with the bytes the write left at rest.
fn deploy(policy: &TenantPolicy) -> (Cloud, Vec<u8>) {
    let vp = &policy.volumes[0];
    let services = catalog::build_chain(vp, None).expect("catalogue builds the chain");
    let mut cloud = Cloud::build(CloudConfig::default());
    let platform = StormPlatform {
        tenant: policy.tenant,
        ..StormPlatform::default()
    };
    let volume = cloud.create_volume(u64::from(vp.volume_gb) << 30, 0);
    let mb = MbSpec::with_services(3, vp.mode, services);
    let deployment = platform.deploy_chain(&mut cloud, &volume, (1, 2), vec![mb]);
    let app = platform.attach_volume_steered(
        &mut cloud,
        &deployment,
        0,
        &format!("vm:{}", vp.vm),
        &volume,
        Box::new(VerifyWorkload::new(64, 8192)),
        9,
        false,
    );
    cloud.net.run_until(SimTime::from_nanos(5_000_000_000));
    let client = cloud.client_mut(0, app);
    assert!(client.is_ready());
    assert_eq!(client.stats.errors, 0);
    let workload = client.workload_ref().unwrap();
    let verify = workload.downcast_ref::<VerifyWorkload>().unwrap();
    assert_eq!(verify.verified(), 1);
    let mut at_rest = vec![0u8; 8192];
    volume.shared.clone().read(64, &mut at_rest).unwrap();
    (cloud, at_rest)
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
            VerifyWorkload::pattern(0, 0, 8192),
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
    let chain = |kinds: [&str; 2]| {
        let p = policy(RelayMode::Active, kinds.map(ServiceSpec::new).to_vec());
        catalog::build_chain(&p.volumes[0], None).err()
    };
    for issuer in ["replication", "cache", "snapshot"] {
        assert_eq!(
            chain([issuer, "encryption"]),
            Some(CatalogError::ReplicaBeforeEncryption)
        );
        assert_eq!(chain(["encryption", issuer]), None);
    }
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
    use storm::block::MemDisk;
    use storm::core::Reconstructor;
    use storm::extfs::ExtFs;

    let builds = |mode, spec: &ServiceSpec| {
        let fs = ExtFs::mkfs(MemDisk::with_capacity_bytes(48 << 20)).unwrap();
        let recon = Reconstructor::from_device(&mut fs.into_device().unwrap(), "/mnt").unwrap();
        let p = policy(mode, vec![spec.clone()]);
        catalog::build_chain(&p.volumes[0], Some(recon)).is_ok()
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
