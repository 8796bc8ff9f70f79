//! StorM's two-clock benchmark. See `benchmark/README.md`.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and prints one JSON result as its last line.
//! Without `--workload` the binary runs the whole suite, re-executing
//! itself once per workload and trace mode, one process at a time.

mod alloc;
mod budget;
mod fleet;
mod json;
mod probes;
mod procfs;
mod registry;
mod run;
mod scenario;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use run::{Opts, RunResult, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

pub const DEFAULT_SEED: u64 = 20160628;
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Where `results.json` and the span traces go: `benchmark/out`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Default)]
pub struct Cli {
    pub workload: Option<String>,
    pub seed: Option<u64>,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub quick: bool,
    pub self_check: bool,
    print_benchmark_json: bool,
    /// Internal: this process was re-executed under `taskset` on this CPU.
    pinned: Option<String>,
}

const USAGE: &str = "usage: storm-benchmark [--seed <u64>] [--seconds <s>] [--quick] [--self-check]
       storm-benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--quick]";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value()?.to_string()),
            "--seed" => {
                let v = value()?;
                cli.seed = Some(v.parse().map_err(|_| format!("--seed {v}: not a u64"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {v}: out of range"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                });
            }
            "--quick" => cli.quick = true,
            "--self-check" => cli.self_check = true,
            "--print-benchmark-json" => cli.print_benchmark_json = true,
            "--pinned" => cli.pinned = Some(value()?.to_string()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.self_check && (cli.quick || cli.workload.is_some()) {
        return Err("--self-check runs the full suite: no --quick, no --workload".into());
    }
    if cli.trace.is_some() && cli.workload.is_none() {
        return Err("--trace needs --workload (the suite runs both modes)".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.print_benchmark_json {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    let ok = match &cli.workload {
        Some(name) => match Workload::from_name(name) {
            Some(workload) => match pinned_rerun(&cli, workload, &args) {
                Some(ok) => ok,
                None => run_one(&cli, workload),
            },
            None => {
                eprintln!(
                    "unknown workload {name}; known: {}",
                    registry::workload_names().join(", ")
                );
                return ExitCode::from(2);
            }
        },
        None if cli.self_check => suite::self_check(&cli),
        None => suite::run_suite(&cli).is_some_and(|s| s.correct),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `fleet_1k`'s gated run is made with the whole process on one CPU.
///
/// Unpinned, the executor's coordinator and two workers hand every 5 us
/// round over through futexes; whether the scheduler keeps them on one
/// vCPU or spreads them decides the speed (measured: 15 k to 350 k
/// requests/s between runs of one binary), and no bound up to 0.25 can
/// hold that. On one CPU the same threads take turns, 370 k requests/s
/// within 3 % from run to run, which still prices every syscall, channel
/// hop and allocation of a round. What two CPUs really buy is reported
/// unpinned, by the `sim.shard.*` per-layer metrics of `--trace 1`.
///
/// Returns `None` when this process should run the workload itself:
/// another workload, a traced run, already pinned, or no usable `taskset`.
fn pinned_rerun(cli: &Cli, workload: Workload, args: &[String]) -> Option<bool> {
    if workload != Workload::Fleet || cli.trace == Some(true) || cli.pinned.is_some() {
        return None;
    }
    let cpu = procfs::first_allowed_cpu()?;
    let taskset = |program: &std::ffi::OsStr, args: &[String]| {
        std::process::Command::new("taskset")
            .args(["-c", &cpu])
            .arg(program)
            .args(args)
            .stdin(std::process::Stdio::null())
            .status()
    };
    if !taskset("true".as_ref(), &[]).is_ok_and(|s| s.success()) {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let mut args = args.to_vec();
    args.extend(["--pinned".to_string(), cpu.clone()]);
    // `status` waits for the child; its output is this process's output.
    taskset(exe.as_os_str(), &args).ok().map(|s| s.success())
}

/// The single-workload mode the driver (and the suite) calls.
fn run_one(cli: &Cli, workload: Workload) -> bool {
    let opts = Opts {
        workload,
        seed: cli.seed.unwrap_or(DEFAULT_SEED),
        seconds: cli.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: cli.trace.unwrap_or(false),
        quick: cli.quick,
    };
    let result = run::run(opts);
    let name = result.workload;

    let (attempted, failed) = result.attempted_failed();
    println!(
        "# {name} seed={} trace={} quick={} pinned_cpu={} sim_digest={:016x} ops={} reps={} failed_ops_share={} sim_p50_ms={}",
        opts.seed,
        opts.trace as u8,
        opts.quick,
        cli.pinned.as_deref().unwrap_or("none"),
        result.sim.digest,
        result.sim.ops,
        result.reps.len(),
        failed as f64 / attempted as f64,
        result.sim_p50_ms(),
    );
    for failure in &result.failures {
        println!("# {name} CHECK FAILED: {failure}");
    }

    let mut metrics = Vec::new();
    match &result.per_layer {
        None => {
            for (m, v) in result.end_to_end() {
                println!("{name} {} {v} {}", m.name, m.unit);
                metrics.push((m.name, v, m.unit));
            }
        }
        Some(values) => {
            for m in &registry::PER_LAYER {
                let v = values[m.name];
                println!("{name} {} {v} {}", m.name, m.unit);
                metrics.push((m.name, v, m.unit));
            }
            if let Some(table) = &result.budget_table {
                print!("{table}");
            }
            // Benchmark-side host spans, one file per workload; the suite
            // concatenates them into trace.jsonl.
            let dir = out_dir();
            let path = dir.join(format!("trace.{name}.jsonl"));
            if let Err(e) = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, result.spans.to_jsonl(name)))
            {
                eprintln!("cannot write {}: {e}", path.display());
                return false;
            }
        }
    }
    let metrics = Json::Obj(
        metrics
            .into_iter()
            .map(|(n, v, unit)| {
                (
                    n.to_string(),
                    Json::object(vec![("value", Json::Num(v)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    );
    println!("detail {}", detail_json(&result, &metrics));
    println!(
        "{}",
        Json::object(vec![
            ("correct", Json::Bool(result.correct())),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", metrics),
        ])
    );
    result.correct()
}

/// Everything the suite wants from a child beyond the contract's line:
/// the digest, the failed checks, and the samples (with their quartiles)
/// behind the two host-clock metrics that are statistics of many readings.
fn detail_json(r: &RunResult, metrics: &Json) -> Json {
    let (attempted, failed) = r.attempted_failed();
    let nums = |v: &[f64]| Json::Arr(v.iter().copied().map(Json::Num).collect());
    let quartiles = |v: &[f64]| {
        let (q1, q2, q3) = stats::quartiles(v);
        nums(&[q1, q2, q3])
    };
    let (rates, setups) = (r.host_rates(), &r.setup_s);
    Json::object(vec![
        ("workload", Json::str(r.workload)),
        ("seed", Json::Num(r.opts.seed as f64)),
        ("trace", Json::Bool(r.opts.trace)),
        ("quick", Json::Bool(r.opts.quick)),
        ("correct", Json::Bool(r.correct())),
        (
            "failures",
            Json::Arr(r.failures.iter().map(|f| Json::str(f)).collect()),
        ),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("ops", Json::Num(r.sim.ops as f64)),
        ("reps", Json::Num(r.reps.len() as f64)),
        ("sim_digest", Json::Str(format!("{:016x}", r.sim.digest))),
        ("sim_p50_ms", Json::Num(r.sim_p50_ms())),
        ("metrics", metrics.clone()),
        ("slice_host_ops_per_s_quartiles", quartiles(&rates)),
        ("slice_host_ops_per_s", nums(&rates)),
        ("setup_s_quartiles", quartiles(setups)),
        ("setup_s_samples", nums(setups)),
    ])
}

/// `BENCHMARK.json`, generated from the registry so the two cannot drift
/// (`cargo run ... -- --print-benchmark-json > BENCHMARK.json`).
fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {DEFAULT_SECONDS},\n"));
    let lines = |items: Vec<Json>| {
        items
            .iter()
            .map(|j| format!("    {j}"))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads = registry::WORKLOADS
        .iter()
        .map(|w| Json::object(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    out.push_str(&format!("  \"workloads\": [\n{}\n  ],\n", lines(workloads)));
    let e2e = registry::END_TO_END
        .iter()
        .map(|m| {
            Json::object(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    out.push_str(&format!("  \"end_to_end\": [\n{}\n  ],\n", lines(e2e)));
    let layers = registry::PER_LAYER
        .iter()
        .map(|m| {
            Json::object(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ])
        })
        .collect();
    out.push_str(&format!("  \"per_layer\": [\n{}\n  ]\n}}\n", lines(layers)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_accepts_the_drivers_call() {
        let cli = parse_cli(&args("--workload fleet_1k --seed 7 --seconds 10 --trace 1"))
            .expect("parses");
        assert_eq!(cli.workload.as_deref(), Some("fleet_1k"));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace),
            (Some(7), Some(10.0), Some(true))
        );
        assert!(parse_cli(&[]).is_ok());
    }

    #[test]
    fn cli_rejects_what_it_cannot_run() {
        for bad in [
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds nan",
            "--trace 2",
            "--trace 1",
            "--bogus",
            "--self-check --quick",
            "--self-check --workload fleet_1k",
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn generated_benchmark_json_is_the_committed_one() {
        let generated = benchmark_json();
        Json::parse(&generated).expect("generated BENCHMARK.json parses");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            generated, committed,
            "regenerate with --print-benchmark-json"
        );
    }
}
