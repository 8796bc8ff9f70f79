//! The scenario table behind `bench_smoke`: one entry per figure family.
//!
//! Each entry declares the `BENCH_results.json` rows it produces and owns
//! the asserts that relate them ("qd32 >= 4x qd1", "shaped p99 <= 1.2x
//! solo", "0 data bytes copied"). Every row field is a sim-clock quantity,
//! so the rendered file is byte-identical across equal runs and CI gates it
//! with `diff -u BENCH_baseline.json BENCH_results.json`; a deliberate
//! behaviour change re-blesses the baseline in the same PR. Host-clock
//! measurement (wall time, events/s, RSS) lives in `benchmark/`.

use std::sync::Arc;

use storm_iscsi::TransportKind;
use storm_telemetry::{analyze, Recorder};

use crate::{
    cache_hit_point, dedup_ratio_point, fio_point, fio_point_traced, interference_point,
    passthrough_point, provisioning_churn_point, run_fleet, suite_passthrough_point,
    transport_point, FioPoint, FleetConfig, PassthroughPoint, PathMode, Row, Testbed,
    TransportPoint,
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
    pub run: fn(&Testbed) -> Output,
}

/// Every scenario `bench_smoke` runs, in `BENCH_results.json` row order.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        rows: &["fleet.1k_tenants.1m_requests"],
        run: fleet,
    },
    Scenario {
        rows: &["fig4.legacy.64k", "fig4.fwd.64k", "fig5.passive.64k"],
        run: fig_paths,
    },
    Scenario {
        rows: &["fig5.active.64k"],
        run: fig5_active_traced,
    },
    Scenario {
        rows: &["zerocopy.passthrough.64k"],
        run: zerocopy_passthrough,
    },
    Scenario {
        rows: &[
            "transport.qd_sweep.qd1",
            "transport.qd_sweep.qd8",
            "transport.qd_sweep.qd32",
            "transport.nvmeq_vs_iscsi.64k",
        ],
        run: transport_lab,
    },
    Scenario {
        rows: &["services.cache.hit"],
        run: cache_hit,
    },
    Scenario {
        rows: &["services.dedup.ratio"],
        run: dedup_ratio,
    },
    Scenario {
        rows: &["zerocopy.suite_idle.64k"],
        run: zerocopy_suite_idle,
    },
    Scenario {
        rows: &["qos.interference.2tenant"],
        run: qos_interference,
    },
    Scenario {
        rows: &["qos.provisioning.churn"],
        run: qos_churn,
    },
];

/// Request size of the figure, zero-copy and transport families.
const BLOCK: usize = 64 * 1024;

/// Fleet-scale executor run: 1000 closed-loop tenants, a million requests.
fn fleet(_: &Testbed) -> Output {
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
        PathMode::Legacy,
        4096,
        cfg.shards,
        1,
        point,
    )]
    .into()
}

/// LEGACY, MB-FWD and MB-PASSIVE-RELAY at one outstanding request.
fn fig_paths(testbed: &Testbed) -> Output {
    [
        ("fig4.legacy.64k", PathMode::Legacy),
        ("fig4.fwd.64k", PathMode::MbFwd),
        ("fig5.passive.64k", PathMode::MbPassiveRelay),
    ]
    .into_iter()
    .map(|(name, mode)| Row::new(name, mode, BLOCK, 1, 1, fio_point(mode, BLOCK, 1, testbed)))
    .collect::<Vec<_>>()
    .into()
}

/// MB-ACTIVE-RELAY with the recorder armed: its trace is the uploaded
/// artifact and must attribute every nanosecond of request latency.
fn fig5_active_traced(testbed: &Testbed) -> Output {
    let rec = Arc::new(Recorder::new());
    let mode = PathMode::MbActiveRelay;
    let p = fio_point_traced(mode, BLOCK, 1, testbed, Recorder::hook(&rec));
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

/// The shared tail of a zero-copy acceptance scenario: enforce the
/// invariant, build the row with its copy-accounting extras.
fn zerocopy_row(name: &str, pt: &PassthroughPoint) -> Output {
    assert_eq!(
        pt.copy.data_bytes_copied, 0,
        "{name}: chain must not copy data segments"
    );
    vec![
        Row::new(name, PathMode::MbActiveRelay, BLOCK, 1, 1, pt.point)
            .extra("bytes_copied_per_pdu", pt.bytes_copied_per_pdu())
            .extra("verbatim_forwards", pt.copy.verbatim_forwards as f64),
    ]
    .into()
}

/// An active relay with an empty chain must forward every data segment
/// verbatim — 0 data bytes copied per PDU.
fn zerocopy_passthrough(testbed: &Testbed) -> Output {
    zerocopy_row(
        "zerocopy.passthrough.64k",
        &passthrough_point(BLOCK, 1, testbed),
    )
}

/// The whole data-reduction suite installed but idle must keep the
/// verbatim fast path.
fn zerocopy_suite_idle(testbed: &Testbed) -> Output {
    zerocopy_row(
        "zerocopy.suite_idle.64k",
        &suite_passthrough_point(BLOCK, 1, testbed),
    )
}

/// One point of the queue-depth sweep as a row; the passthrough path must
/// stay zero-copy however many commands are in flight.
fn sweep_row(tp: &TransportPoint) -> Row {
    let name = format!("transport.qd_sweep.qd{}", tp.queue_depth);
    assert_eq!(
        tp.copy.data_bytes_copied, 0,
        "{name}: deep pipelining broke the zero-copy passthrough path"
    );
    let depth = usize::from(tp.queue_depth);
    Row::new(
        &name,
        PathMode::MbActiveRelay,
        BLOCK,
        depth,
        depth,
        tp.point,
    )
    .extra("bytes_copied_per_pdu", tp.bytes_copied_per_pdu())
    .extra("sq_peak", tp.sq_peak as f64)
    .extra("doorbell_batch", tp.doorbell_batch())
    .extra("cq_batch_avg", tp.cq_batch())
}

/// Transport lab (offload-vs-relay): sweep the multi-queue protocol over
/// submission-queue depth through a bare active relay on a 10G fabric,
/// then the serial protocol head-to-head at the deepest point. Deep
/// pipelining must close the middle-box throughput gap.
fn transport_lab(testbed: &Testbed) -> Output {
    let sweep: Vec<TransportPoint> = [1u16, 8, 32]
        .iter()
        .map(|&qd| transport_point(TransportKind::Nvmeq, qd, BLOCK, testbed))
        .collect();
    let mut rows: Vec<Row> = sweep.iter().map(sweep_row).collect();
    let (qd1, qd32) = (sweep[0].throughput_mbps(), sweep[2].throughput_mbps());
    assert!(
        qd32 >= 4.0 * qd1,
        "deep queues must close the relay gap: qd32 {qd32:.1} MB/s vs qd1 {qd1:.1} MB/s"
    );
    assert!(
        sweep[2].cq_batch() > 1.0,
        "interrupt moderation never coalesced completions: {:.2} cqes/frame",
        sweep[2].cq_batch()
    );

    // Head-to-head at the same depth: the serial protocol's best effort
    // with 32 outstanding commands is the row; the extras carry the
    // multi-queue side of the comparison.
    let iscsi = transport_point(TransportKind::Iscsi, 32, BLOCK, testbed);
    rows.push(
        Row::new(
            "transport.nvmeq_vs_iscsi.64k",
            PathMode::MbActiveRelay,
            BLOCK,
            32,
            32,
            iscsi.point,
        )
        .extra("nvmeq_mbps", qd32)
        .extra("nvmeq_over_iscsi", qd32 / iscsi.throughput_mbps()),
    );
    rows.into()
}

/// Data-reduction suite: hot-set reads against the write-back cache.
fn cache_hit(testbed: &Testbed) -> Output {
    let ch = cache_hit_point(testbed);
    assert!(
        ch.hit_rate > 0.5,
        "hot-set workload must mostly hit the cache: {:.3}",
        ch.hit_rate
    );
    assert!(ch.flushed_bytes > 0, "cache flush never reached the volume");
    vec![Row::new(
        "services.cache.hit",
        PathMode::MbActiveRelay,
        4096,
        1,
        1,
        ch.point,
    )
    .extra("hit_rate", ch.hit_rate)
    .extra("absorbed_writes", ch.absorbed_writes as f64)]
    .into()
}

/// Data-reduction suite: duplicate-heavy writes against CDC dedup.
fn dedup_ratio(testbed: &Testbed) -> Output {
    let dr = dedup_ratio_point(testbed);
    assert!(
        dr.ratio >= 1.5,
        "duplicate-heavy workload must reduce >= 1.5x: {:.3}",
        dr.ratio
    );
    vec![Row::new(
        "services.dedup.ratio",
        PathMode::MbActiveRelay,
        65536,
        1,
        1,
        dr.point,
    )
    .extra("dedup_ratio", dr.ratio)
    .extra("duplicate_chunks", dr.duplicate_chunks as f64)]
    .into()
}

/// Per-tenant QoS: a rate-limited, de-weighted aggressor must not push
/// the victim's p99 more than 20% past its solo baseline.
fn qos_interference(testbed: &Testbed) -> Output {
    let qi = interference_point(testbed);
    assert!(
        qi.shaped.p99_ms <= qi.solo.p99_ms * 1.2,
        "QoS failed to protect the victim: shaped p99 {:.3} ms vs solo {:.3} ms",
        qi.shaped.p99_ms,
        qi.solo.p99_ms
    );
    assert!(qi.throttled_ops > 0, "the aggressor was never throttled");
    vec![Row::new(
        "qos.interference.2tenant",
        PathMode::Legacy,
        BLOCK,
        1,
        1,
        qi.shaped,
    )
    .extra("solo_p99_ms", qi.solo.p99_ms)
    .extra("contended_p99_ms", qi.contended.p99_ms)
    .extra("qos_over_solo", qi.qos_over_solo())
    .extra("throttled_ops", qi.throttled_ops as f64)]
    .into()
}

/// SLO-driven provisioning: the control loop must live-migrate the
/// violating volume to the fast tier mid-run.
fn qos_churn(testbed: &Testbed) -> Output {
    let qc = provisioning_churn_point(testbed);
    assert!(
        qc.migrations_completed >= 1,
        "no tier migration cut over mid-run"
    );
    assert!(qc.overload_rejected, "overload request was not rejected");
    assert!(qc.slo_attainment > 0.0, "SLO attainment metric missing");
    vec![Row::new(
        "qos.provisioning.churn",
        PathMode::Legacy,
        4096,
        1,
        1,
        qc.point,
    )
    .extra("migrations", qc.migrations_completed as f64)
    .extra("slo_attainment", qc.slo_attainment)]
    .into()
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
