//! The names the benchmark speaks: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` must list exactly these (a unit
//! test compares them), and every run prints exactly these.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Deterministic for a seed: compared exactly.
    Sim,
    /// Wall clock or process state: compared within `bound`.
    Host,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Share of the parent's median by which the metric may worsen. The
    /// driver draws another seed for every run and wants the spread over
    /// ten of them well inside the bound, so a sim-clock bound has to cover
    /// seed-to-seed spread (3.5 % on `postmark_monitor`); at equal seed
    /// these metrics are compared bit for bit (`--self-check`).
    pub bound: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "relay_stream_64k",
        why: "iSCSI 64 KiB randrw, 4 clients, active relay + ChaCha20 on 1 GbE: the paper's Fig. 5/8 path; byte-heavy, so TCP, fabric, the relay's rewrite path and the cipher do the work",
    },
    WorkloadInfo {
        name: "nvmeq_qd32_64k",
        why: "nvmeq QD 32, 32 clients, bare active relay on 10 GbE: same relay on its verbatim zero-copy path, queue bridge and frame codec; no crypto, no services",
    },
    WorkloadInfo {
        name: "fwd_4k_qd32",
        why: "iSCSI 4 KiB randrw, 32 clients over MB-FWD splicing, no relay: per-command cost dominates (event queue, PDU codec, flow/NAT); relay and crypto changes must show nothing here",
    },
    WorkloadInfo {
        name: "chain_write_16k",
        why: "16 KiB 70/30 write/read-back, 8 clients, dedup+compress+AES-XTS chain with verified payloads: the only workload where host compute inside services dominates",
    },
    WorkloadInfo {
        name: "postmark_monitor",
        why: "PostMark trace (500 files, 2000 transactions), 1 client, active relay running the access monitor: small metadata-heavy I/O through semantics reconstruction; extfs in set-up",
    },
    WorkloadInfo {
        name: "fleet_1k",
        why: "run_fleet: 1000 closed-loop tenants, 4 shards on 2 threads: the only workload where the sharded executor does the work and iSCSI, TCP and the relay do none",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        clock,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 7] = [
    e2e("sim_iops", "ops/sim-s", Better::Higher, Clock::Sim, 0.12),
    e2e("sim_mbps", "MB/sim-s", Better::Higher, Clock::Sim, 0.12),
    e2e("sim_mean_ms", "ms", Better::Lower, Clock::Sim, 0.12),
    e2e("sim_p99_ms", "ms", Better::Lower, Clock::Sim, 0.12),
    e2e(
        "host_ops_per_s",
        "ops/host-s",
        Better::Higher,
        Clock::Host,
        0.25,
    ),
    e2e("peak_rss_mb", "MiB", Better::Lower, Clock::Host, 0.25),
    e2e("setup_s", "s", Better::Lower, Clock::Host, 0.25),
];

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

/// Layers are crate names. A metric that does not apply to a workload
/// (no relay on `fwd_4k_qd32`, no cloud under `fleet_1k`) reads 0 there.
pub const PER_LAYER: [PerLayer; 62] = [
    // sim
    lo("sim.latency_p50_ms", "ms"),
    lo("sim.events_per_op", "events/op"),
    lo("sim.event_queue.push_pop_ns", "ns"),
    lo("sim.event_queue.cancel_ns", "ns"),
    hi("sim.shard.ops_per_s_t2", "ops/host-s"),
    hi("sim.shard.events_per_s_t1", "events/s"),
    hi("sim.shard.speedup_t2_over_t1", "ratio"),
    lo("sim.shard.sys_cpu_share", "ratio"),
    // net
    lo("net.frames_per_op", "frames/op"),
    lo("net.wire_bytes_per_payload_byte", "ratio"),
    lo("net.tcp.segs_per_op", "segs/op"),
    lo("net.tcp.ns_per_seg", "ns"),
    lo("net.flow.lookup_ns", "ns"),
    lo("net.nat.translate_ns", "ns"),
    lo("net.engine.ns_per_event", "ns"),
    // iscsi
    lo("iscsi.pdus_per_op", "pdus/op"),
    lo("iscsi.encode_into_ns", "ns"),
    lo("iscsi.stream.feed_ns_per_pdu", "ns"),
    lo("iscsi.stream.bytes_copied_per_pdu", "bytes"),
    // nvmeq
    lo("nvmeq.frames_per_op", "frames/op"),
    hi("nvmeq.doorbell_batch", "sqes/doorbell"),
    hi("nvmeq.cq_batch", "cqes/frame"),
    hi("nvmeq.sq_peak", "count"),
    lo("nvmeq.codec.sqe_cqe_ns", "ns"),
    lo("nvmeq.stream.feed_ns_per_frame", "ns"),
    // core
    lo("core.relay.pdus_forwarded_per_op", "pdus/op"),
    hi("core.relay.verbatim_share", "ratio"),
    lo("core.relay.data_bytes_copied_per_pdu", "bytes"),
    lo("core.relay.header_bytes_copied_per_pdu", "bytes"),
    lo("core.semantics.observe_ns_per_write", "ns"),
    lo("core.semantics.events_per_write", "events/write"),
    // services
    hi("services.chacha20.on_pdu_mb_per_s", "MB/s"),
    hi("services.aes_xts.on_pdu_mb_per_s", "MB/s"),
    hi("services.dedup.on_pdu_mb_per_s", "MB/s"),
    hi("services.compress.on_pdu_mb_per_s", "MB/s"),
    lo("services.monitor.on_pdu_ns", "ns"),
    lo("services.encryption.bytes_per_op", "bytes/op"),
    hi("services.dedup.ratio", "ratio"),
    hi("services.compress.ratio", "ratio"),
    // crypto
    hi("crypto.aes_xts.mb_per_s", "MB/s"),
    hi("crypto.chacha20.mb_per_s", "MB/s"),
    // block / extfs
    lo("block.volume.write_ns_per_4k", "ns"),
    lo("block.volume.read_ns_per_4k", "ns"),
    lo("extfs.create_write_4k_ns", "ns"),
    // cloud (sim clock, from the traced rep's attribution)
    lo("attr.disk.share", "ratio"),
    lo("attr.target.share", "ratio"),
    lo("attr.network.share", "ratio"),
    lo("attr.virtio.share", "ratio"),
    lo("attr.forward.share", "ratio"),
    lo("attr.relay.share", "ratio"),
    lo("attr.service.share", "ratio"),
    lo("attr.incomplete_requests", "count"),
    hi("cloud.target.cmds_per_dispatch_tick", "cmds/tick"),
    // telemetry
    lo("telemetry.trace_overhead_share", "ratio"),
    lo("telemetry.trace_events_per_op", "events/op"),
    lo("telemetry.attribute_ms", "ms"),
    // host (whole process)
    lo("host.allocs_per_op", "allocs/op"),
    lo("host.alloc_bytes_per_op", "bytes/op"),
    lo("host.cpu_user_s", "s"),
    lo("host.cpu_sys_s", "s"),
    lo("host.ns_per_event", "ns"),
    hi("host.layer_explained_share", "ratio"),
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

#[cfg(test)]
/// The contract's name charset: starts with a letter or digit, then at
/// most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
/// The contract's unit charset: at most 16 letters, digits and `_/%.-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn name_charset() {
        for ok in [
            "a",
            "sim_iops",
            "net.tcp.ns_per_seg",
            "fleet_1k",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_a", ".a", "-a", "a b", "a/b", "a%", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("ops/sim-s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn registry_names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for n in workload_names() {
            assert!(valid_name(n) && seen.insert(n), "{n}");
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit) && seen.insert(m.name));
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` and the binary must agree name for name, unit for
    /// unit, direction for direction and bound for bound.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("array")
                .to_vec()
        };
        let field = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{key} missing"))
                .to_string()
        };

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, expected);

        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(layers, expected);

        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds");
        assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);
        assert_eq!(
            list("paths"),
            vec![Json::str("benchmark")],
            "the benchmark lives in one directory"
        );
    }
}
