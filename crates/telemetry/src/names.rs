//! Metric names shared by producers and readers of a
//! [`MetricsRegistry`](crate::MetricsRegistry).
//!
//! Only names that something in the tree publishes live here: today the
//! snapshot service's counters, which `examples/backup_clone.rs` records.
//! A new registry metric adds its name here so reports stay greppable from
//! one place; per-tenant keys go through [`tenant_scoped`].

/// Copy-on-first-write pre-image copies performed (counter).
pub const SVC_SNAP_COW_COPIES: &str = "svc.snap.cow_copies";

/// Pre-image bytes preserved across all snapshot epochs (gauge).
pub const SVC_SNAP_PRESERVED_BYTES: &str = "svc.snap.preserved_bytes";

/// Scopes a metric name to one tenant: `tenant.<id>.<name>`.
///
/// Producers used to format per-tenant keys ad hoc (`vm.web-1.reads`,
/// `mb0.alerts`), which made reports impossible to grep by tenant. All
/// per-tenant registry keys go through this helper so the prefix stays
/// uniform.
pub fn tenant_scoped(name: &str, tenant_id: u32) -> String {
    format!("tenant.{tenant_id}.{name}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_scoped_is_uniform() {
        assert_eq!(tenant_scoped("reads", 0), "tenant.0.reads");
        assert_eq!(
            tenant_scoped(SVC_SNAP_COW_COPIES, 7),
            "tenant.7.svc.snap.cow_copies"
        );
    }
}
