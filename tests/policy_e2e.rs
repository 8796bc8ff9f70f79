//! Policy-driven deployment: a tenant policy document, validated and
//! instantiated through the provider catalogue, drives a full deployment.

use storm::cloud::{Cloud, CloudConfig};
use storm::core::{MbSpec, ServiceSpec, StormPlatform, TenantPolicy, VolumePolicy};
use storm::services::catalog;
use storm_block::BlockDevice;
use storm_sim::SimTime;
use storm_workloads::VerifyWorkload;

#[test]
fn policy_document_deploys_and_enforces() {
    // 1. Tenant submits a policy.
    let policy = TenantPolicy {
        tenant: 9,
        volumes: vec![VolumePolicy {
            vm: "db-1".into(),
            volume_gb: 1,
            services: vec![ServiceSpec::new("encryption")
                .param("cipher", "aes-256-xts")
                .param("key", "tenant-9-secret")],
        }],
    };
    policy.validate().expect("valid policy");

    // 2. Provider instantiates services from the catalogue and deploys.
    let mut cloud = Cloud::build(CloudConfig::default());
    let platform = StormPlatform {
        tenant: policy.tenant,
        ..StormPlatform::default()
    };
    let vp = &policy.volumes[0];
    let volume = cloud.create_volume((vp.volume_gb as u64) << 30, 0);
    let services: Vec<_> = vp
        .services
        .iter()
        .map(|s| catalog::build_service(s, None).expect("catalogue builds it"))
        .collect();
    let mode = catalog::relay_mode(vp.services[0].mode);
    let deployment = platform.deploy_chain(
        &mut cloud,
        &volume,
        (1, 2),
        vec![MbSpec {
            host_idx: 3,
            mode,
            services,
            replicas: vec![],
        }],
    );

    // 3. Attach and run.
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
    assert_eq!(
        workload
            .downcast_ref::<VerifyWorkload>()
            .unwrap()
            .verified(),
        1
    );

    // 4. The policy's encryption is in force: ciphertext at rest.
    let mut at_rest = vec![0u8; 8192];
    volume.shared.clone().read(64, &mut at_rest).unwrap();
    assert_ne!(
        at_rest,
        VerifyWorkload::pattern(0, 0, 8192),
        "policy-mandated encryption must apply"
    );

    // 5. Attribution ties the session to the policy's VM.
    let attrs = cloud.attributions();
    assert_eq!(attrs.len(), 1);
    assert_eq!(attrs[0].vm_label, "vm:db-1");
    assert!(attrs[0].tuple.is_some());
}

#[test]
fn invalid_policies_never_reach_deployment() {
    let bad = TenantPolicy {
        tenant: 1,
        volumes: vec![VolumePolicy {
            vm: "x".into(),
            volume_gb: 1,
            services: vec![ServiceSpec::new("quantum-dedupe")],
        }],
    };
    assert!(bad.validate().is_err());
    // And the catalogue agrees even if validation were skipped.
    assert!(catalog::build_service(&bad.volumes[0].services[0], None).is_err());
}
