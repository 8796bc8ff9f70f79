//! The scenario table behind `bench_smoke`: one entry per figure family,
//! paper figures and tables included.
//!
//! Each entry declares the `BENCH_results.json` rows it produces and owns
//! the asserts that relate them ("qd32 >= 4x qd1", "shaped p99 <= 1.2x
//! solo", "0 data bytes copied"); the paper's entries own theirs as
//! [`Claim`]s, the rows of EXPERIMENTS.md's fidelity table, which
//! `bench_smoke` checks and `BENCH_figures.md` reports. Every row field is
//! a sim-clock quantity, so the rendered files are byte-identical across
//! equal runs and CI gates them with `diff -u BENCH_baseline.json
//! BENCH_results.json`; a deliberate behaviour change re-blesses the
//! baseline in the same PR. Host-clock measurement (wall time, events/s,
//! RSS) lives in `benchmark/`.

use std::sync::Arc;

use storm::block::transport::TransportKind;
use storm::core::{RelayCopyStats, RelayMode};
use storm::net::LinkSpec;
use storm::scenario::{Run, Spec};
use storm::sim::SimDuration;
use storm::telemetry::{analyze, Recorder};

use crate::figures::Claim;
use crate::{
    figure_path, figures, fio, paper, qos, ratio, run_fleet, services_suite, testbed, FioPoint,
    FleetConfig, Row,
};

/// What running one [`Scenario`] hands back.
pub struct Output {
    /// The measured rows, named and ordered as [`Scenario::rows`] declares.
    pub rows: Vec<Row>,
    /// The armed recorder, for the one scenario that runs traced.
    pub trace: Option<Arc<Recorder>>,
}

impl From<Vec<Row>> for Output {
    fn from(rows: Vec<Row>) -> Output {
        Output { rows, trace: None }
    }
}

/// One entry of the scenario table.
pub struct Scenario {
    /// Names of the rows `run` produces, in order.
    pub rows: &'static [&'static str],
    /// Runs the scenario, checks its invariants and returns its rows.
    pub run: fn() -> Output,
    /// Paper claims this entry answers for, checked over its rows and
    /// those of the entries before it.
    pub claims: &'static [Claim],
}

/// Every scenario `bench_smoke` runs, in `BENCH_results.json` row order.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        rows: &["fleet.1k_tenants.1m_requests"],
        run: fleet,
        claims: &[],
    },
    Scenario {
        rows: &["fig4.legacy.64k", "fig4.fwd.64k", "fig5.passive.64k"],
        run: fig_paths,
        claims: &[],
    },
    Scenario {
        rows: &["fig5.active.64k"],
        run: fig5_active_traced,
        claims: &[],
    },
    Scenario {
        rows: &["zerocopy.passthrough.64k"],
        run: zerocopy_passthrough,
        claims: &[],
    },
    Scenario {
        rows: &[
            "transport.qd_sweep.qd1",
            "transport.qd_sweep.qd8",
            "transport.qd_sweep.qd32",
            "transport.nvmeq_vs_iscsi.64k",
        ],
        run: transport_lab,
        claims: &[],
    },
    Scenario {
        rows: &["services.cache.hit"],
        run: services_suite::cache_hit,
        claims: &[],
    },
    Scenario {
        rows: &["services.dedup.ratio"],
        run: services_suite::dedup_ratio,
        claims: &[],
    },
    Scenario {
        rows: &["zerocopy.suite_idle.64k"],
        run: services_suite::zerocopy_suite_idle,
        claims: &[],
    },
    Scenario {
        rows: &["qos.interference.2tenant"],
        run: qos::qos_interference,
        claims: &[],
    },
    Scenario {
        rows: &["qos.provisioning.churn"],
        run: qos::qos_churn,
        claims: &[],
    },
    Scenario {
        rows: &[
            "fig4.legacy.4k",
            "fig4.fwd.4k",
            "fig5.passive.4k",
            "fig5.active.4k",
            "fig4.legacy.16k",
            "fig4.fwd.16k",
            "fig5.passive.16k",
            "fig5.active.16k",
            "fig4.legacy.256k",
            "fig4.fwd.256k",
            "fig5.passive.256k",
            "fig5.active.256k",
        ],
        run: size_sweep,
        claims: &[
            figures::REDIRECTION_COST_GROWS,
            figures::ACTIVE_OVERTAKES_FWD,
        ],
    },
    Scenario {
        rows: &[
            "fig6.legacy.t4",
            "fig6.fwd.t4",
            "fig6.passive.t4",
            "fig6.active.t4",
            "fig6.legacy.t8",
            "fig6.fwd.t8",
            "fig6.passive.t8",
            "fig6.active.t8",
            "fig6.legacy.t16",
            "fig6.fwd.t16",
            "fig6.passive.t16",
            "fig6.active.t16",
            "fig6.legacy.t32",
            "fig6.fwd.t32",
            "fig6.passive.t32",
            "fig6.active.t32",
        ],
        run: thread_sweep,
        claims: &[
            figures::PASSIVE_PAYS_PER_PACKET,
            figures::ACTIVE_GAIN_GROWS_WITH_THREADS,
            figures::ACTIVE_NEAR_LEGACY,
        ],
    },
    Scenario {
        rows: &["fig10.in_guest.ftp", "fig10.middlebox.ftp"],
        run: paper::fig10,
        claims: &[figures::MIDDLEBOX_HALVES_GUEST_CPU],
    },
    Scenario {
        rows: &["fig11.in_guest.postmark", "fig11.middlebox.postmark"],
        run: paper::fig11,
        claims: &[figures::POSTMARK_GAINS],
    },
    Scenario {
        rows: &["fig13.replicated.oltp", "fig13.single.oltp"],
        run: paper::fig13,
        claims: &[figures::REPLICATION_SURVIVES_AND_STRIPES],
    },
    Scenario {
        rows: &["table1.monitor.synthetic"],
        run: paper::table1,
        claims: &[],
    },
    Scenario {
        rows: &["table3.ganiw.install"],
        run: paper::table3,
        claims: &[figures::MONITOR_RECONSTRUCTS],
    },
];

/// Request size of the figure, zero-copy and transport families.
const BLOCK: usize = 64 * 1024;

/// Fleet-scale executor run: 1000 closed-loop tenants, a million requests.
fn fleet() -> Output {
    let cfg = FleetConfig {
        tenants: 1_000,
        requests_per_tenant: 1_000,
        ..FleetConfig::default()
    };
    let fr = run_fleet(&cfg);
    assert_eq!(
        fr.requests, 1_000_000,
        "fleet run must finish every request"
    );
    let sim_secs = fr.sim_end.as_nanos() as f64 / 1e9;
    let point = FioPoint {
        ops: fr.requests,
        iops: fr.requests as f64 / sim_secs,
        mean_latency_ms: fr.latency.mean().as_nanos() as f64 / 1e6,
        p50_ms: fr.latency.value_at_quantile(0.50).as_nanos() as f64 / 1e6,
        p99_ms: fr.latency.value_at_quantile(0.99).as_nanos() as f64 / 1e6,
    };
    vec![Row::new(
        "fleet.1k_tenants.1m_requests",
        None,
        4096,
        cfg.shards,
        1,
        point,
    )]
    .into()
}

/// LEGACY, MB-FWD and MB-PASSIVE-RELAY at one outstanding request.
fn fig_paths() -> Output {
    [
        ("fig4.legacy.64k", None),
        ("fig4.fwd.64k", Some(RelayMode::Forward)),
        ("fig5.passive.64k", Some(RelayMode::Passive)),
    ]
    .into_iter()
    .map(|(name, mode)| Row::new(name, mode, BLOCK, 1, 1, fio(figure_path(mode), BLOCK, 1).1))
    .collect::<Vec<_>>()
    .into()
}

/// MB-ACTIVE-RELAY with the recorder armed: its trace is the uploaded
/// artifact and must attribute every nanosecond of request latency.
fn fig5_active_traced() -> Output {
    let mode = Some(RelayMode::Active);
    let spec = Spec {
        traced: true,
        ..figure_path(mode)
    };
    let (run, p) = fio(spec, BLOCK, 1);
    let rec = Arc::clone(run.recorder());
    let report = analyze::attribute(&rec.events());
    assert!(report.requests > 0, "traced run completed no requests");
    let share_sum: f64 = report.rows.iter().map(|r| r.share).sum();
    assert!(
        (share_sum - 100.0).abs() < 0.5,
        "attribution shares sum to {share_sum}%"
    );
    Output {
        rows: vec![Row::new("fig5.active.64k", mode, BLOCK, 1, 1, p)],
        trace: Some(rec),
    }
}

/// The four path modes in sweep-row order, with their row-name stems.
const MODES: [(&str, Option<RelayMode>); 4] = [
    ("legacy", None),
    ("fwd", Some(RelayMode::Forward)),
    ("passive", Some(RelayMode::Passive)),
    ("active", Some(RelayMode::Active)),
];

/// Fig 4/5/7/8: one outstanding request at 4, 16 and 256 KiB over the four
/// path modes. The 64 KiB column is the four rows above, computed once.
fn size_sweep() -> Output {
    let mut rows = Vec::new();
    for kib in [4, 16, 256] {
        for (stem, mode) in MODES {
            let name = figures::sweep_row(stem, &format!("{kib}k"));
            let point = fio(figure_path(mode), kib * 1024, 1).1;
            rows.push(Row::new(&name, mode, kib * 1024, 1, 1, point));
        }
    }
    rows.into()
}

/// Fig 6/9: 16 KiB requests at 4-32 fio threads over the four path modes.
/// The active row carries its ratio to LEGACY, the reproduction's one
/// known gap ([`figures::ACTIVE_NEAR_LEGACY`]).
fn thread_sweep() -> Output {
    let mut rows = Vec::new();
    for threads in [4, 8, 16, 32] {
        let mut legacy_iops = 0.0;
        for (stem, mode) in MODES {
            let name = figures::sweep_row(stem, &format!("t{threads}"));
            let point = fio(figure_path(mode), 16 * 1024, threads).1;
            let mut row = Row::new(&name, mode, 16 * 1024, threads, 1, point);
            match mode {
                None => legacy_iops = point.iops,
                Some(RelayMode::Active) => {
                    row = row.extra("active_over_legacy", point.iops / legacy_iops);
                }
                _ => {}
            }
            rows.push(row);
        }
    }
    rows.into()
}

/// 64 KiB fio with `depth` requests outstanding through the active relay
/// of `spec`. However many commands are in flight, the relay must forward
/// every data segment verbatim (only the fixed 48-byte header copies are
/// allowed). Returns the row, carrying `bytes_copied_per_pdu`, plus the
/// run and the relay's copy counters for further extras.
fn verbatim_row(name: &str, spec: Spec, depth: usize) -> (Row, Run, RelayCopyStats) {
    let (mut run, point) = fio(spec, BLOCK, depth);
    let relay = run.relay();
    let (pdus, copy) = (relay.pdus_forwarded(), relay.copy_stats());
    assert!(pdus > 0, "{name}: nothing was forwarded");
    assert_eq!(
        copy.data_bytes_copied, 0,
        "{name}: chain must not copy data segments"
    );
    let mode = Some(RelayMode::Active);
    let row = Row::new(name, mode, BLOCK, depth, depth, point)
        .extra("bytes_copied_per_pdu", ratio(copy.data_bytes_copied, pdus));
    (row, run, copy)
}

/// The shared body of a zero-copy acceptance scenario: one outstanding
/// request through `spec`, every PDU a verbatim forward.
pub(crate) fn zerocopy_row(name: &str, spec: Spec) -> Output {
    let (row, _, copy) = verbatim_row(name, spec, 1);
    vec![row.extra("verbatim_forwards", copy.verbatim_forwards as f64)].into()
}

/// An active relay with an **empty** service chain (pure passthrough).
fn zerocopy_passthrough() -> Output {
    zerocopy_row("zerocopy.passthrough.64k", testbed(Some(RelayMode::Active)))
}

/// One transport-lab point: `kind` at `queue_depth` through a **bare**
/// active relay, with the workload keeping `queue_depth` requests
/// outstanding so the ring actually fills.
///
/// The lab swaps the testbed's 1 GbE storage fabric for 10 GbE and its
/// vhost-copied virtio vifs for SR-IOV-style passthrough vNICs (full
/// duplex, no 7 µs per-packet software copy) — the sweep measures how
/// deep queues amortize per-command costs, and either software ceiling
/// would clip the QD=32 point at ~110 MB/s before the rings matter.
fn transport_row(name: &str, transport: TransportKind, queue_depth: u16) -> Row {
    let spec = Spec {
        transport,
        queue_depth,
        phys_link: LinkSpec {
            bandwidth_bps: 10_000_000_000,
            ..LinkSpec::gigabit()
        },
        virtio_link: LinkSpec {
            per_packet: SimDuration::from_micros(1),
            half_duplex: false,
            ..LinkSpec::virtio()
        },
        ..testbed(Some(RelayMode::Active))
    };
    let (row, mut run, _) = verbatim_row(name, spec, usize::from(queue_depth));
    row.extra("sq_peak", run.client().transport().sq_peak() as f64)
}

/// Transport lab (offload-vs-relay): sweep the multi-queue protocol over
/// submission-queue depth through a bare active relay on a 10G fabric,
/// then the serial protocol head-to-head at the deepest point. Deep
/// pipelining must close the middle-box throughput gap.
fn transport_lab() -> Output {
    let sweep = |qd| {
        let name = format!("transport.qd_sweep.qd{qd}");
        transport_row(&name, TransportKind::Nvmeq, qd)
    };
    let mut rows = vec![sweep(1), sweep(8), sweep(32)];
    let metric = |r: &Row, key| r.metric(key).expect("transport rows carry it");
    let (qd1, qd32) = (
        metric(&rows[0], "throughput_mbps"),
        metric(&rows[2], "throughput_mbps"),
    );
    assert!(
        qd32 >= 4.0 * qd1,
        "deep queues must close the relay gap: qd32 {qd32:.1} MB/s vs qd1 {qd1:.1} MB/s"
    );

    // Head-to-head at the same depth: the serial protocol's best effort
    // with 32 outstanding commands is the row; the extras carry the
    // multi-queue side of the comparison.
    let name = "transport.nvmeq_vs_iscsi.64k";
    let mut iscsi = transport_row(name, TransportKind::Iscsi, 32);
    let iscsi_mbps = metric(&iscsi, "throughput_mbps");
    iscsi.extras = vec![
        ("nvmeq_mbps", qd32),
        ("nvmeq_over_iscsi", qd32 / iscsi_mbps),
    ];
    rows.push(iscsi);
    rows.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run-free: the table's declared row names are unique and are exactly
    /// the committed baseline's `"name"`s, in order, so table and baseline
    /// cannot drift apart silently.
    #[test]
    fn declared_rows_match_committed_baseline() {
        let declared: Vec<&str> = SCENARIOS.iter().flat_map(|s| s.rows).copied().collect();
        let mut unique = declared.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), declared.len(), "duplicate row name");

        let baseline = include_str!("../../../BENCH_baseline.json");
        let committed: Vec<&str> = baseline
            .split("{\"name\":\"")
            .skip(1)
            .map(|rest| rest.split('"').next().expect("split yields a first piece"))
            .collect();
        assert_eq!(declared, committed);
    }
}
