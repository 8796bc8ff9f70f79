//! Machine-readable benchmark results (`BENCH_results.json`).

use crate::{FioPoint, PathMode};

/// One row of `BENCH_results.json`: a measured scenario point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row name, e.g. `fig5.active.64k`.
    pub name: String,
    /// The data path measured.
    pub mode: PathMode,
    /// Request size in bytes.
    pub block_bytes: usize,
    /// Outstanding requests.
    pub threads: usize,
    /// Transport submission-queue depth the session ran with (1 for the
    /// serial iSCSI scenarios) — makes QD-sweep rows self-describing.
    pub queue_depth: usize,
    /// The measured point.
    pub point: FioPoint,
    /// Extra scenario-specific metrics, serialized after `p99_ms` in
    /// insertion order (e.g. `bytes_copied_per_pdu` for the zero-copy
    /// passthrough scenario).
    pub extras: Vec<(&'static str, f64)>,
}

impl Row {
    /// A row without extras.
    pub fn new(
        name: &str,
        mode: PathMode,
        block_bytes: usize,
        threads: usize,
        queue_depth: usize,
        point: FioPoint,
    ) -> Row {
        Row {
            name: name.to_string(),
            mode,
            block_bytes,
            threads,
            queue_depth,
            point,
            extras: Vec::new(),
        }
    }

    /// Appends one extra named metric.
    pub fn extra(mut self, key: &'static str, value: f64) -> Row {
        self.extras.push((key, value));
        self
    }

    /// Data throughput in MB/s (decimal, as the paper's figures label).
    fn throughput_mbps(&self) -> f64 {
        self.point.iops * self.block_bytes as f64 / 1e6
    }

    /// Reads a metric back by its `BENCH_results.json` key: `threads`,
    /// `iops`, `throughput_mbps`, `mean_ms` or one of the extras.
    pub fn metric(&self, key: &str) -> Option<f64> {
        match key {
            "threads" => Some(self.threads as f64),
            "iops" => Some(self.point.iops),
            "throughput_mbps" => Some(self.throughput_mbps()),
            "mean_ms" => Some(self.point.mean_latency_ms),
            _ => self.extras.iter().find(|(k, _)| *k == key).map(|&(_, v)| v),
        }
    }
}

/// Serializes `rows` as the `BENCH_results.json` document.
///
/// The JSON is hand-rolled with fixed key order and fixed-precision
/// floats, and every field is a sim-clock quantity, so equal runs produce
/// byte-identical files — the same contract as trace exports, and what
/// lets CI gate the file with a plain `diff` against
/// `BENCH_baseline.json`.
pub fn render_json(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, s) in rows.iter().enumerate() {
        let p = &s.point;
        let throughput_mbps = s.throughput_mbps();
        let _ = write!(
            out,
            "    {{\"name\":\"{}\",\"mode\":\"{}\",\"block_bytes\":{},\"threads\":{},\
             \"queue_depth\":{},\"ops\":{},\"iops\":{:.1},\"throughput_mbps\":{:.2},\
             \"mean_ms\":{:.3},\"p50_ms\":{:.3},\"p99_ms\":{:.3}",
            s.name,
            s.mode,
            s.block_bytes,
            s.threads,
            s.queue_depth,
            p.ops,
            p.iops,
            throughput_mbps,
            p.mean_latency_ms,
            p.p50_ms,
            p.p99_ms
        );
        for (key, value) in &s.extras {
            let _ = write!(out, ",\"{key}\":{value:.3}");
        }
        out.push('}');
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let rows = [
            Row::new(
                "fig4.legacy.4k",
                PathMode::Legacy,
                4096,
                1,
                1,
                FioPoint {
                    ops: 1000,
                    iops: 500.0,
                    mean_latency_ms: 1.25,
                    p50_ms: 1.0,
                    p99_ms: 3.5,
                },
            ),
            Row::new(
                "fig5.active.64k",
                PathMode::MbActiveRelay,
                65536,
                1,
                32,
                FioPoint {
                    ops: 100,
                    iops: 50.0,
                    mean_latency_ms: 20.0,
                    p50_ms: 19.0,
                    p99_ms: 40.0,
                },
            )
            .extra("bytes_copied_per_pdu", 0.0),
        ];
        let json = render_json(&rows);
        assert!(json.starts_with("{\n  \"benchmarks\": [\n"));
        assert!(json.contains("\"name\":\"fig4.legacy.4k\""));
        assert!(json.contains("\"mode\":\"MB-ACTIVE-RELAY\""));
        // queue_depth sits between threads and ops in the fixed order.
        assert!(json.contains("\"threads\":1,\"queue_depth\":1,\"ops\":1000"));
        assert!(json.contains("\"threads\":1,\"queue_depth\":32,\"ops\":100"));
        assert!(json.contains("\"throughput_mbps\":2.05"));
        assert!(json.contains("\"p99_ms\":3.500"));
        // Extras append after p99_ms inside the same object.
        assert!(json.contains("\"p99_ms\":40.000,\"bytes_copied_per_pdu\":0.000}"));
        // Two renders, same inputs -> identical bytes.
        assert_eq!(json, render_json(&rows));
    }
}
