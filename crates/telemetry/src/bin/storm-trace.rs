//! `storm-trace`: offline latency-attribution analyzer for JSONL traces.
//!
//! Usage: `storm-trace <trace.jsonl>` (or `-` for stdin). Prints the
//! per-hop attribution table — the software analogue of Figure 10 — and
//! any replica evictions found in the trace.

use std::io::Read as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let path = match args.as_slice() {
        [_, p] => p.clone(),
        _ => {
            eprintln!("usage: storm-trace <trace.jsonl | ->");
            return ExitCode::from(2);
        }
    };
    let doc = if path == "-" {
        let mut s = String::new();
        if std::io::stdin().read_to_string(&mut s).is_err() {
            eprintln!("storm-trace: failed to read stdin");
            return ExitCode::FAILURE;
        }
        s
    } else {
        match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("storm-trace: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let Some(events) = storm_telemetry::parse_jsonl(&doc) else {
        eprintln!("storm-trace: {path}: malformed trace line");
        return ExitCode::FAILURE;
    };
    let report = storm_telemetry::analyze::attribute(&events);
    println!("events: {}", events.len());
    print!("{}", report.table());
    ExitCode::SUCCESS
}
