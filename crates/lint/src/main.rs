//! CLI entry point: `storm-lint [--workspace] [--root DIR] [FILES...]`.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use storm_lint::{analyze_source, analyze_workspace, render_human, Config, FileClass};

struct Args {
    workspace: bool,
    root: PathBuf,
    files: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        root: PathBuf::from("."),
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--help" | "-h" => {
                return Err("usage: storm-lint [--workspace] [--root DIR] [FILES...]".to_string())
            }
            f if !f.starts_with('-') => args.files.push(f.to_string()),
            other => return Err(format!("unknown flag `{other}` (see --help)")),
        }
    }
    if !args.workspace && args.files.is_empty() {
        args.workspace = true; // the only mode that makes sense bare
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config::default();
    let (findings, scanned) = if args.workspace {
        match analyze_workspace(&args.root, &cfg) {
            Ok(scan) => scan,
            Err(e) => {
                eprintln!("storm-lint: workspace scan failed: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let mut findings = Vec::new();
        for rel in &args.files {
            let class = FileClass::from_rel_path(rel);
            match fs::read_to_string(args.root.join(rel)) {
                Ok(src) => findings.extend(analyze_source(&class, &src, &cfg)),
                Err(e) => {
                    eprintln!("storm-lint: cannot read {rel}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
        });
        let n = args.files.len();
        (findings, n)
    };
    print!("{}", render_human(&findings, scanned));
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
