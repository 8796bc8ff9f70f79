//! Benchmark smoke run: walks the scenario table (one short scenario per
//! figure family, the paper's figures and tables included), checks every
//! entry's fidelity claims against the rows so far, writes the rows to
//! `BENCH_results.json`, the paper-vs-measured tables to `BENCH_figures.md`
//! and the full trace of the active-relay scenario to `BENCH_trace.jsonl`,
//! and prints that trace's latency attribution.
//!
//! This is the CI job's entry point — small enough to run in about a
//! minute but exercising every data path (LEGACY, MB-FWD,
//! MB-PASSIVE-RELAY, MB-ACTIVE-RELAY) end to end. CI then gates the result
//! with `diff -u BENCH_baseline.json BENCH_results.json` and
//! `git diff --exit-code BENCH_figures.md`.

use storm_bench::{render_figures, render_json, Testbed, SCENARIOS};
use storm_telemetry::analyze;

fn main() {
    let testbed = Testbed::default();
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
        for claim in scenario.claims {
            let measured = (claim.check)(&rows);
            println!("claim \"{}\": {measured:?}", claim.text);
            assert_eq!(
                measured.is_ok(),
                claim.holds,
                "fidelity claim \"{}\" flipped: {measured:?}",
                claim.text
            );
        }
    }
    let rec = trace.expect("one scenario runs traced");

    std::fs::write("BENCH_results.json", render_json(&rows)).expect("write BENCH_results.json");
    std::fs::write("BENCH_figures.md", render_figures(&rows)).expect("write BENCH_figures.md");
    std::fs::write("BENCH_trace.jsonl", rec.to_jsonl()).expect("write BENCH_trace.jsonl");

    println!();
    println!("active-relay latency attribution ({} events):", rec.len());
    print!("{}", analyze::attribute(&rec.events()).table());
    println!("wrote BENCH_results.json, BENCH_figures.md and BENCH_trace.jsonl");
}
