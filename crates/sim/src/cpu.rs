//! Contended compute resources: multi-core CPUs and single-threaded queues.
//!
//! The paper's performance observations hinge on where cycles are burnt: the
//! virtio copy thread ("a single thread per VM's virtual interface"), the
//! middle-box service logic, dm-crypt in the tenant VM. [`CpuModel`] models a
//! host CPU with `n` cores and per-label busy accounting (to reproduce the
//! Figure 10 utilization breakdown); [`SerialResource`] models a strictly
//! FIFO single-threaded resource (virtio vif queue, SATA disk).

use std::collections::BTreeMap;

use crate::{SimDuration, SimTime};

/// A multi-core CPU with FIFO earliest-free-core scheduling and per-label
/// busy-time accounting.
///
/// Work is non-preemptive: a task occupies the earliest-available core for
/// its full cost. Labels attribute busy time to a logical owner (a VM, the
/// middle-box service, the kernel) for utilization breakdowns.
#[derive(Debug, Clone)]
pub struct CpuModel {
    cores: Vec<SimTime>,
    // Label-keyed BTreeMap: breakdowns iterate this, and utilization
    // reports feed traces, so order must not depend on hasher state.
    busy: BTreeMap<String, SimDuration>,
    total_busy: SimDuration,
}

impl CpuModel {
    /// Creates a CPU with `cores` cores, all idle at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "a CPU needs at least one core");
        CpuModel {
            cores: vec![SimTime::ZERO; cores],
            busy: BTreeMap::new(),
            total_busy: SimDuration::ZERO,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Runs a task costing `cost` cycles-worth of time, submitted at `now`,
    /// on the earliest-available core. Returns the completion instant.
    ///
    /// Busy time is attributed to `label`.
    pub fn run(&mut self, now: SimTime, cost: SimDuration, label: &str) -> SimTime {
        let core = self
            .cores
            .iter_mut()
            .min_by_key(|t| **t)
            .expect("at least one core");
        let start = (*core).max(now);
        let done = start + cost;
        *core = done;
        // Allocate the key only on a label's first charge.
        match self.busy.get_mut(label) {
            Some(busy) => *busy += cost,
            None => {
                self.busy.insert(label.to_owned(), cost);
            }
        }
        self.total_busy += cost;
        done
    }

    /// Total busy time attributed to `label`.
    pub fn busy_for(&self, label: &str) -> SimDuration {
        self.busy.get(label).copied().unwrap_or_default()
    }

    /// Busy time across all labels.
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// Mean utilization (0..=1 per core, so up to `cores()` in total terms)
    /// over the window `[0, horizon]`, expressed as a fraction of total
    /// capacity.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        let capacity = horizon.as_nanos() as f64 * self.cores.len() as f64;
        (self.total_busy.as_nanos() as f64 / capacity).min(1.0)
    }

    /// Per-label busy times, in label order (BTreeMap iteration is
    /// already sorted, so no post-sort is needed).
    pub fn breakdown(&self) -> Vec<(String, SimDuration)> {
        self.busy.iter().map(|(k, d)| (k.clone(), *d)).collect()
    }
}

/// A single-threaded FIFO resource: each job starts when the previous one
/// finishes.
///
/// Used for virtio vif copy threads (per-packet cost) and disk service
/// queues. Per the paper, "the virtualization driver ... uses a single
/// thread per VM's virtual interface", which is why intra-host packet
/// transfer dominates routing overhead.
#[derive(Debug, Clone, Default)]
pub struct SerialResource {
    busy_until: SimTime,
    busy_total: SimDuration,
    jobs: u64,
}

impl SerialResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a job arriving at `now` with the given `service` time and
    /// returns its completion instant.
    pub fn serve(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let start = self.busy_until.max(now);
        self.busy_until = start + service;
        self.busy_total += service;
        self.jobs += 1;
        self.busy_until
    }

    /// The instant at which the resource next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total service time performed.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Number of jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        (self.busy_total.as_nanos() as f64 / horizon.as_nanos() as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }
    fn at(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000)
    }

    #[test]
    fn single_core_serializes() {
        let mut cpu = CpuModel::new(1);
        assert_eq!(cpu.run(at(0), us(10), "a"), at(10));
        // Submitted while busy: queued behind the first task.
        assert_eq!(cpu.run(at(5), us(10), "b"), at(20));
        // Submitted after idle: starts immediately.
        assert_eq!(cpu.run(at(100), us(1), "a"), at(101));
    }

    #[test]
    fn multi_core_runs_in_parallel() {
        let mut cpu = CpuModel::new(2);
        assert_eq!(cpu.run(at(0), us(10), "a"), at(10));
        assert_eq!(cpu.run(at(0), us(10), "b"), at(10));
        // Third task waits for the earliest core.
        assert_eq!(cpu.run(at(0), us(10), "c"), at(20));
    }

    #[test]
    fn accounting_by_label() {
        let mut cpu = CpuModel::new(4);
        cpu.run(at(0), us(10), "vm");
        cpu.run(at(0), us(30), "vm");
        cpu.run(at(0), us(5), "kernel");
        assert_eq!(cpu.busy_for("vm"), us(40));
        assert_eq!(cpu.busy_for("kernel"), us(5));
        assert_eq!(cpu.busy_for("absent"), SimDuration::ZERO);
        assert_eq!(cpu.total_busy(), us(45));
        let breakdown = cpu.breakdown();
        assert_eq!(breakdown[0].0, "kernel");
        assert_eq!(breakdown[1].0, "vm");
    }

    #[test]
    fn utilization_fraction_of_capacity() {
        let mut cpu = CpuModel::new(2);
        cpu.run(at(0), us(50), "x");
        // 50us busy out of 2 cores * 100us = 25%.
        let u = cpu.utilization(at(100));
        assert!((u - 0.25).abs() < 1e-9, "{u}");
        assert_eq!(cpu.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = CpuModel::new(0);
    }

    #[test]
    fn serial_resource_fifo() {
        let mut r = SerialResource::new();
        assert_eq!(r.serve(at(0), us(3)), at(3));
        assert_eq!(r.serve(at(1), us(3)), at(6));
        assert_eq!(r.serve(at(100), us(3)), at(103));
        assert_eq!(r.jobs(), 3);
        assert_eq!(r.busy_total(), us(9));
        assert!(r.utilization(at(103)) > 0.08);
    }
}
