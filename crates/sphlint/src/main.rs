//! `sphlint` CLI.
//!
//! ```text
//! cargo run -p sphlint -- --workspace [--root <dir>] [--report <file.jsonl>]
//! cargo run -p sphlint -- <file.rs> [<file.rs> ...] [--report <file.jsonl>]
//! ```
//!
//! Exit codes: 0 = clean, 1 = unsuppressed diagnostics, 2 = usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut workspace = false;
    let mut root = PathBuf::from(".");
    let mut report: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--root" => match args.next() {
                Some(r) => root = PathBuf::from(r),
                None => return usage("--root needs a directory"),
            },
            "--report" => match args.next() {
                Some(r) => report = Some(PathBuf::from(r)),
                None => return usage("--report needs a path"),
            },
            "--help" | "-h" => {
                eprintln!("{}", USAGE);
                return ExitCode::SUCCESS;
            }
            f if !f.starts_with('-') => files.push(PathBuf::from(f)),
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }
    if !workspace && files.is_empty() {
        return usage("pass --workspace or explicit .rs files");
    }
    if workspace && !files.is_empty() {
        return usage("--workspace and explicit files are mutually exclusive");
    }

    let run = if workspace {
        sphlint::workspace::run_workspace(&root)
    } else {
        sphlint::workspace::run_files(&files)
    };

    for err in &run.io_errors {
        eprintln!("sphlint: io error: {err}");
    }
    for d in &run.diagnostics {
        println!("{}", d.render());
    }
    if let Some(path) = &report {
        if let Err(e) = sphlint::workspace::write_report(path, &run.diagnostics) {
            eprintln!("sphlint: cannot write report {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!(
        "sphlint: checked {} files — {} diagnostic(s), {} suppressed",
        run.files_checked,
        run.diagnostics.len(),
        run.suppressed.len()
    );
    if !run.io_errors.is_empty() {
        return ExitCode::from(2);
    }
    if run.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

const USAGE: &str = "sphlint — workspace-native static analysis
    --workspace          lint every first-party .rs under the root
    --root <dir>         workspace root (default .)
    --report <file>      write diagnostics as JSONL
    <file.rs> ...        lint explicit files instead of the workspace";

fn usage(msg: &str) -> ExitCode {
    eprintln!("sphlint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
