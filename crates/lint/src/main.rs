//! The `camdn-lint` command-line interface.
//!
//! Exit codes are stable and CI-facing:
//! * `0` — clean (suppressed findings are fine),
//! * `1` — at least one unsuppressed finding,
//! * `2` — usage or I/O error (the workspace could not be linted).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use camdn_lint::{engine, report, Lint, LintConfig};

const USAGE: &str = "\
camdn-lint — determinism & hygiene lints for the CaMDN workspace

USAGE:
    camdn-lint [--root DIR] [--json PATH] [--quiet] [--list]

OPTIONS:
    --root DIR    Workspace root (default: nearest ancestor with a
                  workspace Cargo.toml)
    --json PATH   Also write a camdn-lint-report/1 JSON report to PATH
    --quiet       Print only the summary line
    --list        List the lints and exit

EXIT CODES:
    0  clean    1  unsuppressed findings    2  usage or I/O error";

struct Args {
    root: Option<PathBuf>,
    json: Option<PathBuf>,
    quiet: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        json: None,
        quiet: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = Some(PathBuf::from(
                    it.next().ok_or("--root needs a directory argument")?,
                ));
            }
            "--json" => {
                args.json = Some(PathBuf::from(
                    it.next().ok_or("--json needs a file argument")?,
                ));
            }
            "--quiet" => args.quiet = true,
            "--list" => args.list = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Walks up from the current directory to the first `Cargo.toml` that
/// declares a `[workspace]`.
fn discover_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Ok(dir);
                }
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the current directory".to_string());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("camdn-lint: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for lint in Lint::ALL {
            println!("{:<18} {}", lint.name(), lint.describe());
        }
        return ExitCode::SUCCESS;
    }
    let root = match args.root.map_or_else(discover_root, Ok) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("camdn-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = LintConfig::new(&root);
    let lint_report = match engine::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("camdn-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.json {
        let json = report::to_json(&lint_report, &root.display().to_string());
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("camdn-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if !args.quiet {
        for f in lint_report.unsuppressed() {
            println!("{}", report::text_line(f));
        }
    }
    println!("{}", report::summary_line(&lint_report));
    if lint_report.unsuppressed().next().is_some() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
