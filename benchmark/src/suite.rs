//! The whole-suite command: every workload, `--trace 0` then `--trace 1`,
//! each in a child process of its own (fresh allocator and `VmHWM`),
//! strictly one after the other.

use std::process::{Command, Stdio};

use crate::json::Json;
use crate::registry::{self, Better, Clock};
use crate::{out_dir, Cli, DEFAULT_SECONDS, DEFAULT_SEED};

/// One child's `detail` object.
type Detail = Json;

pub struct SuiteResult {
    pub correct: bool,
    /// Per workload: the untraced run and the traced run.
    pub workloads: Vec<(&'static str, Detail, Detail)>,
}

/// Runs one workload in a child process; echoes its output (minus the
/// machine lines) and returns its detail object.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool, quick: bool) -> Option<Detail> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child: never two workloads at once.
    let output = match cmd.output() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cannot run {workload}: {e}");
            return None;
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        if let Some(d) = line.strip_prefix("detail ") {
            detail = Json::parse(d).ok();
        } else if !line.starts_with('{') {
            println!("{line}");
        }
    }
    if !output.status.success() {
        eprintln!(
            "{workload} (trace {}) exited with {}",
            trace as u8, output.status
        );
    }
    detail
}

fn is_correct(d: &Detail) -> bool {
    d.get("correct") == Some(&Json::Bool(true))
}

fn digest(d: &Detail) -> &str {
    d.get("sim_digest").and_then(Json::as_str).unwrap_or("")
}

pub fn run_suite(cli: &Cli) -> Option<SuiteResult> {
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    let seconds = cli.seconds.unwrap_or(DEFAULT_SECONDS);
    let mut correct = true;
    let mut workloads = Vec::new();
    for w in &registry::WORKLOADS {
        let plain = child(w.name, seed, seconds, false, cli.quick)?;
        let traced = child(w.name, seed, seconds, true, cli.quick)?;
        correct &= is_correct(&plain) && is_correct(&traced);
        if digest(&plain) != digest(&traced) {
            println!(
                "# {} CHECK FAILED: sim_digest differs between trace 0 and trace 1: {} vs {}",
                w.name,
                digest(&plain),
                digest(&traced)
            );
            correct = false;
        }
        if cli.quick {
            // The seed must reach the generators: another seed, another
            // digest, on every workload.
            let other = child(w.name, seed + 1, seconds, false, true)?;
            if digest(&other) == digest(&plain) {
                println!(
                    "# {} CHECK FAILED: seed {} and seed {seed} give the same sim_digest",
                    w.name,
                    seed + 1
                );
                correct = false;
            }
        }
        workloads.push((w.name, plain, traced));
    }

    let dir = out_dir();
    let results = Json::object(vec![
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(cli.quick)),
        ("correct", Json::Bool(correct)),
        (
            "host_cpus",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "workloads",
            Json::Obj(
                workloads
                    .iter()
                    .map(|(name, plain, traced)| {
                        (
                            name.to_string(),
                            Json::object(vec![
                                ("untraced", plain.clone()),
                                ("traced", traced.clone()),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut trace = String::new();
    for (name, _, _) in &workloads {
        let part = dir.join(format!("trace.{name}.jsonl"));
        match std::fs::read_to_string(&part) {
            Ok(text) => trace.push_str(&text),
            Err(e) => {
                eprintln!("cannot read {}: {e}", part.display());
                correct = false;
            }
        }
    }
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("results.json"), format!("{results}\n")))
        .and_then(|()| std::fs::write(dir.join("trace.jsonl"), trace));
    if let Err(e) = written {
        eprintln!("cannot write under {}: {e}", dir.display());
        correct = false;
    }
    println!(
        "# suite {}: wrote {} and {}",
        if correct { "correct" } else { "FAILED" },
        dir.join("results.json").display(),
        dir.join("trace.jsonl").display()
    );
    Some(SuiteResult { correct, workloads })
}

fn metric_value(detail: &Detail, name: &str) -> Option<f64> {
    detail.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// By how large a share of `a` the reading `b` is worse than `a`.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// Runs the full suite twice and fails unless every sim-clock metric and
/// digest is identical and every host-clock end-to-end metric agrees
/// within its bound, in both directions.
pub fn self_check(cli: &Cli) -> bool {
    let (Some(a), Some(b)) = (run_suite(cli), run_suite(cli)) else {
        return false;
    };
    let mut ok = a.correct && b.correct;
    for ((name, a0, _), (_, b0, _)) in a.workloads.iter().zip(&b.workloads) {
        if digest(a0) != digest(b0) {
            println!(
                "# self-check {name}: sim_digest {} vs {}",
                digest(a0),
                digest(b0)
            );
            ok = false;
        }
        for m in &registry::END_TO_END {
            let (Some(va), Some(vb)) = (metric_value(a0, m.name), metric_value(b0, m.name)) else {
                println!("# self-check {name}: {} missing", m.name);
                ok = false;
                continue;
            };
            let agrees = match m.clock {
                Clock::Sim => va.to_bits() == vb.to_bits(),
                Clock::Host => {
                    worsening(m.better, va, vb) <= m.bound && worsening(m.better, vb, va) <= m.bound
                }
            };
            println!(
                "# self-check {name} {}: {va} vs {vb} {}",
                m.name,
                if agrees { "ok" } else { "DISAGREES" }
            );
            ok &= agrees;
        }
    }
    println!("# self-check {}", if ok { "passed" } else { "FAILED" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 2.0, 2.5) - 0.25).abs() < 1e-12);
        assert!(worsening(Better::Lower, 2.0, 1.0) < 0.0);
    }
}
