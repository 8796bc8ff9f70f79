//! Benchmark smoke run: walks the scenario table (one short scenario per
//! figure family), writes the rows to `BENCH_results.json` and the full
//! trace of the active-relay scenario to `BENCH_trace.jsonl`, and prints
//! that trace's latency attribution.
//!
//! This is the CI job's entry point — small enough to run in seconds but
//! exercising every data path (LEGACY, MB-FWD, MB-PASSIVE-RELAY,
//! MB-ACTIVE-RELAY) end to end. CI then gates the result with
//! `diff -u BENCH_baseline.json BENCH_results.json`.

use storm_bench::{render_json, Testbed, SCENARIOS};
use storm_sim::SimDuration;
use storm_telemetry::analyze;

fn main() {
    let testbed = Testbed {
        duration: SimDuration::from_secs(1),
        volume_bytes: 1 << 30,
        ..Testbed::default()
    };
    let mut rows = Vec::new();
    let mut trace = None;
    for scenario in SCENARIOS {
        let out = (scenario.run)(&testbed);
        let names: Vec<&str> = out.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, scenario.rows, "scenario produced undeclared rows");
        for r in &out.rows {
            let p = &r.point;
            print!(
                "{}: {} ops, {:.0} iops, mean {:.2} ms, p50 {:.2} ms, p99 {:.2} ms",
                r.name, p.ops, p.iops, p.mean_latency_ms, p.p50_ms, p.p99_ms
            );
            for (key, value) in &r.extras {
                print!(", {key} {value:.3}");
            }
            println!();
        }
        rows.extend(out.rows);
        trace = trace.or(out.trace);
    }
    let rec = trace.expect("one scenario runs traced");

    std::fs::write("BENCH_results.json", render_json(&rows)).expect("write BENCH_results.json");
    std::fs::write("BENCH_trace.jsonl", rec.to_jsonl()).expect("write BENCH_trace.jsonl");

    println!();
    println!("active-relay latency attribution ({} events):", rec.len());
    print!("{}", analyze::attribute(&rec.events()).table());
    println!("wrote BENCH_results.json and BENCH_trace.jsonl");
}
