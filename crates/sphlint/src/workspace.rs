//! The workspace driver: find every first-party `.rs` file, classify it
//! against the contract scopes, lint it, and render the results (human
//! output + optional JSONL report).

use crate::diag::Diagnostic;
use crate::lints::FileClass;
use crate::UseIndex;
use std::path::{Path, PathBuf};

/// Warm-path modules under the zero-steady-state-allocation contract: the
/// surface the `alloc_free_neighbors` counting-allocator test pins — the
/// neighbour pipeline and the stage kernels that write their lanes in place
/// — plus the gravity kernel, which adds onto its target lanes in place.
const WARM_PATH: &[&str] = &[
    "crates/sphsim/src/kernels.rs",
    "crates/sphsim/src/workspace.rs",
    "crates/sphsim/src/octree.rs",
    "crates/sphsim/src/celllist.rs",
    "crates/sphsim/src/physics/neighbors.rs",
    "crates/sphsim/src/physics/gravity.rs",
    "crates/sphsim/src/physics/density.rs",
    "crates/sphsim/src/physics/gradh.rs",
    "crates/sphsim/src/physics/iad.rs",
    "crates/sphsim/src/physics/momentum.rs",
    "crates/sphsim/src/physics/eos.rs",
    "crates/sphsim/src/physics/avswitches.rs",
    "crates/sphsim/src/physics/turbulence.rs",
];

/// Pair-kernel modules under the minimum-image contract. (`gravity.rs` and
/// `octree.rs` are deliberately absent: Barnes–Hut runs on gathered global
/// coordinates in open space.)
const PAIR_KERNEL: &[&str] = &[
    "crates/sphsim/src/physics/density.rs",
    "crates/sphsim/src/physics/gradh.rs",
    "crates/sphsim/src/physics/iad.rs",
    "crates/sphsim/src/physics/momentum.rs",
    "crates/sphsim/src/physics/neighbors.rs",
    "crates/sphsim/src/celllist.rs",
    "crates/sphsim/src/domain.rs",
];

/// Directories never linted: external shims, build output, VCS, and the
/// fixture corpus (intentionally-bad snippets).
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "experiments_output", "fixtures"];

/// Classify a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileClass {
    FileClass {
        warm_path: WARM_PATH.iter().any(|w| rel.ends_with(w)),
        pair_kernel: PAIR_KERNEL.iter().any(|p| rel.ends_with(p)),
        test_file: rel.starts_with("tests/") || rel.contains("/tests/"),
    }
}

/// Result of linting a tree.
pub struct Run {
    pub files_checked: usize,
    pub diagnostics: Vec<Diagnostic>,
    /// Diagnostics a valid `sphlint::allow` swallowed.
    pub suppressed: Vec<Diagnostic>,
    /// Files that could not be read (reported, non-fatal).
    pub io_errors: Vec<String>,
}

/// Lint every first-party `.rs` file under `root`, the cross-file `dead-pub`
/// lint included.
pub fn run_workspace(root: &Path) -> Run {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files);
    files.sort();
    let files = files
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
            (rel, path.as_path())
        })
        .collect();
    run(files, true)
}

/// Lint an explicit list of files (scratch fixtures, pre-commit hooks).
/// Classification still derives from each path, so a scratch file can opt
/// into a scope by mirroring its layout (or by living anywhere for the
/// all-files lints). A few files cannot tell whether a `pub fn` has callers
/// elsewhere, so `dead-pub` does not run.
pub fn run_files(paths: &[PathBuf]) -> Run {
    let files = paths
        .iter()
        .map(|path| (path.to_string_lossy().replace('\\', "/"), path.as_path()))
        .collect();
    run(files, false)
}

/// Lex and model every file, index the uses when the files are the whole
/// workspace, then lint each file.
fn run(files: Vec<(String, &Path)>, whole_workspace: bool) -> Run {
    let mut run = Run {
        files_checked: 0,
        diagnostics: Vec::new(),
        suppressed: Vec::new(),
        io_errors: Vec::new(),
    };
    let mut parsed = Vec::new();
    for (rel, path) in files {
        match std::fs::read_to_string(path) {
            Ok(src) => {
                let lexed = crate::lexer::lex(&src);
                let model = crate::model::build(&lexed.toks);
                parsed.push((rel, lexed, model));
            }
            Err(e) => run.io_errors.push(format!("{rel}: {e}")),
        }
    }
    let uses = whole_workspace.then(|| {
        let mut uses = UseIndex::default();
        for (rel, lexed, model) in &parsed {
            uses.add_file(rel, &lexed.toks, model, classify(rel).test_file);
        }
        uses
    });
    for (rel, lexed, model) in &parsed {
        let (diags, suppressed) = crate::check_lexed(rel, lexed, model, classify(rel), uses.as_ref());
        run.files_checked += 1;
        run.diagnostics.extend(diags);
        run.suppressed.extend(suppressed);
    }
    run
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Write the machine-readable report: one JSONL record per diagnostic
/// (telemetry-codec style), empty file when clean.
pub fn write_report(path: &Path, diags: &[Diagnostic]) -> std::io::Result<()> {
    let mut body = String::new();
    for d in diags {
        body.push_str(&d.to_jsonl());
        body.push('\n');
    }
    std::fs::write(path, body)
}
