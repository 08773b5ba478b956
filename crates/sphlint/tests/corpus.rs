//! Fixture corpus: every lint has a known-bad snippet that must trip
//! *exactly* its diagnostics (lint id + line) and a known-clean snippet that
//! must pass, plus suppression fixtures proving the escape hatch works and
//! that a reason is mandatory. The cross-file `dead-pub` lint's fixtures are a
//! small workspace of their own. Finally, the real workspace must be clean —
//! the same gate CI enforces — and its `dead-pub` allowances may only shrink.

use sphlint::{Diagnostic, FileClass};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lint one fixture on its own, under the given classification: the kept
/// diagnostics and how many a valid `sphlint::allow` swallowed.
fn check_source_counted(name: &str, src: &str, class: FileClass) -> (Vec<Diagnostic>, usize) {
    let lexed = sphlint::lexer::lex(src);
    let model = sphlint::model::build(&lexed.toks);
    let (kept, suppressed) = sphlint::check_lexed(name, &lexed, &model, class, None);
    (kept, suppressed.len())
}

fn hits(name: &str, class: FileClass) -> Vec<(&'static str, u32)> {
    check_source_counted(name, &fixture(name), class)
        .0
        .into_iter()
        .map(|d| (d.lint, d.line))
        .collect()
}

const WARM: FileClass = FileClass {
    warm_path: true,
    pair_kernel: false,
    test_file: false,
};
const PAIR: FileClass = FileClass {
    warm_path: false,
    pair_kernel: true,
    test_file: false,
};
const PLAIN: FileClass = FileClass {
    warm_path: false,
    pair_kernel: false,
    test_file: false,
};
/// `celllist.rs` is in both scopes: warm (alloc-free sweep) and pair kernel
/// (minimum-image gather).
const CELL: FileClass = FileClass {
    warm_path: true,
    pair_kernel: true,
    test_file: false,
};

#[test]
fn collective_order_bad_trips_exactly() {
    assert_eq!(
        hits("collective_order/bad.rs", PLAIN),
        vec![
            ("collective-order", 5),  // gather inside `if rank == 0`
            ("collective-order", 11), // barrier after divergent `continue`
            ("collective-order", 16), // allreduce after divergent `return`
        ]
    );
}

#[test]
fn collective_order_clean_passes() {
    assert_eq!(hits("collective_order/clean.rs", PLAIN), vec![]);
}

#[test]
fn collective_order_nonblocking_bad_trips_exactly() {
    assert_eq!(
        hits("collective_order/nonblocking_bad.rs", PLAIN),
        vec![
            ("collective-order", 4),  // isend still in flight at allreduce_sum
            ("collective-order", 11), // irecv still in flight at barrier
        ]
    );
}

#[test]
fn collective_order_nonblocking_clean_passes() {
    assert_eq!(hits("collective_order/nonblocking_clean.rs", PLAIN), vec![]);
}

#[test]
fn hot_path_alloc_bad_trips_exactly() {
    assert_eq!(
        hits("hot_path_alloc/bad.rs", WARM),
        vec![
            ("hot-path-alloc", 4),  // Vec::new()
            ("hot-path-alloc", 6),  // push into a non-retained local
            ("hot-path-alloc", 8),  // format!
            ("hot-path-alloc", 9),  // .to_vec()
            ("hot-path-alloc", 10), // .collect()
        ]
    );
}

#[test]
fn hot_path_alloc_clean_passes() {
    assert_eq!(hits("hot_path_alloc/clean.rs", WARM), vec![]);
}

#[test]
fn hot_path_alloc_is_scoped_to_warm_files() {
    // The same bad source outside a warm-path module is not this lint's
    // business (dynamic behaviour there is unconstrained).
    assert_eq!(hits("hot_path_alloc/bad.rs", PLAIN), vec![]);
}

#[test]
fn celllist_bad_trips_both_scopes_exactly() {
    // A cell-list module carries both contracts at once: the grid sweep must
    // not allocate, and the stencil gather must respect minimum image.
    assert_eq!(
        hits("celllist/bad.rs", CELL),
        vec![
            ("hot-path-alloc", 5),        // Vec::new() in the rebuild
            ("hot-path-alloc", 7),        // push into a non-retained local
            ("min-image-discipline", 15), // raw x[i] - x[j] in the gather
            ("min-image-discipline", 16), // raw y[i] - y[j] in the gather
        ]
    );
}

#[test]
fn celllist_clean_passes() {
    assert_eq!(hits("celllist/clean.rs", CELL), vec![]);
}

#[test]
fn gravity_collect_then_scatter_trips_exactly() {
    // `physics/gravity.rs` is warm now that its kernel writes in place: the
    // old per-call result vector must not come back.
    assert_eq!(
        hits("gravity/bad.rs", WARM),
        vec![
            ("hot-path-alloc", 5),  // .collect() of the per-row results
            ("hot-path-alloc", 6),  // Vec::with_capacity(..)
            ("hot-path-alloc", 11), // push into a non-retained local
        ]
    );
}

#[test]
fn gravity_in_place_kernel_passes() {
    assert_eq!(hits("gravity/clean.rs", WARM), vec![]);
}

#[test]
fn min_image_bad_trips_exactly() {
    assert_eq!(
        hits("min_image/bad.rs", PAIR),
        vec![
            ("min-image-discipline", 6),  // x[i] - x[j]
            ("min-image-discipline", 7),  // y[i] - y[j]
            ("min-image-discipline", 14), // p.x[i] - p.x[j]
        ]
    );
}

#[test]
fn min_image_clean_passes() {
    assert_eq!(hits("min_image/clean.rs", PAIR), vec![]);
}

#[test]
fn float_determinism_bad_trips_exactly() {
    assert_eq!(
        hits("float_determinism/bad.rs", PLAIN),
        vec![
            ("float-determinism", 7),  // partial_cmp in live code
            ("float-determinism", 16), // SystemTime::now in a test
            ("float-determinism", 17), // thread_rng in a test
            ("float-determinism", 18), // rand::random in a test
        ]
    );
}

#[test]
fn float_determinism_clean_passes() {
    assert_eq!(hits("float_determinism/clean.rs", PLAIN), vec![]);
}

#[test]
fn telemetry_naming_bad_trips_exactly() {
    assert_eq!(
        hits("telemetry_naming/bad.rs", PLAIN),
        vec![
            ("telemetry-naming", 4),  // comm.gather.count: bad field
            ("telemetry-naming", 5),  // undocumented category "memory"
            ("telemetry-naming", 6),  // wall.seconds: undocumented root
            ("telemetry-naming", 7),  // comm.shm.gather.messages: no backend segment
            ("telemetry-naming", 11), // sim.rank{rank}.owned.bytes: too deep
        ]
    );
}

#[test]
fn telemetry_naming_clean_passes() {
    assert_eq!(hits("telemetry_naming/clean.rs", PLAIN), vec![]);
}

#[test]
fn allow_with_reason_suppresses() {
    let (diags, suppressed) = check_source_counted("allow/suppressed.rs", &fixture("allow/suppressed.rs"), PLAIN);
    assert_eq!(diags, vec![]);
    assert_eq!(suppressed, 1);
}

#[test]
fn allow_without_reason_is_diagnosed_and_does_not_suppress() {
    let (diags, suppressed) =
        check_source_counted("allow/missing_reason.rs", &fixture("allow/missing_reason.rs"), PLAIN);
    let got: Vec<(&str, u32)> = diags.iter().map(|d| (d.lint, d.line)).collect();
    assert_eq!(got, vec![("allow-syntax", 7), ("float-determinism", 8)]);
    assert_eq!(suppressed, 0);
}

/// The `dead-pub` fixtures form a workspace of their own: the lint needs
/// every file's uses before it can judge one.
fn dead_pub_fixture_workspace() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/dead_pub")
}

fn dead_pub_hits(run: &sphlint::workspace::Run, file: &str) -> Vec<(&'static str, u32)> {
    run.diagnostics
        .iter()
        .filter(|d| d.file == file)
        .map(|d| (d.lint, d.line))
        .collect()
}

#[test]
fn dead_pub_bad_trips_exactly() {
    let run = sphlint::workspace::run_workspace(&dead_pub_fixture_workspace());
    assert_eq!(
        dead_pub_hits(&run, "bad.rs"),
        vec![
            ("dead-pub", 7),  // only its own unit test calls it
            ("dead-pub", 11), // only an integration test calls it
            ("dead-pub", 16), // named only in a doc comment and a string
            ("dead-pub", 20), // only re-exported
        ]
    );
}

#[test]
fn dead_pub_clean_passes() {
    let run = sphlint::workspace::run_workspace(&dead_pub_fixture_workspace());
    assert_eq!(dead_pub_hits(&run, "clean.rs"), vec![]);
    assert_eq!(dead_pub_hits(&run, "examples/caller.rs"), vec![]);
    assert_eq!(dead_pub_hits(&run, "src/bin/tool.rs"), vec![]);
    assert_eq!(run.diagnostics.len(), 5, "only bad.rs and same_crate.rs trip");
}

#[test]
fn dead_pub_flags_a_function_only_its_own_crate_calls() {
    let run = sphlint::workspace::run_workspace(&dead_pub_fixture_workspace());
    let hits: Vec<&sphlint::Diagnostic> = run.diagnostics.iter().filter(|d| d.file == "same_crate.rs").collect();
    assert_eq!(
        hits.iter().map(|d| (d.lint, d.line)).collect::<Vec<_>>(),
        vec![("dead-pub", 4)]
    );
    assert!(hits[0].suggestion.contains("pub(crate)"), "{}", hits[0].suggestion);
}

#[test]
fn dead_pub_counts_a_bin_target_as_another_crate() {
    // `called_from_a_bin` (clean.rs) has one caller, in `src/bin/tool.rs`.
    let run = sphlint::workspace::run_workspace(&dead_pub_fixture_workspace());
    assert!(!run.diagnostics.iter().any(|d| d.message.contains("called_from_a_bin")));
}

#[test]
fn dead_pub_allow_with_reason_suppresses() {
    let run = sphlint::workspace::run_workspace(&dead_pub_fixture_workspace());
    assert_eq!(dead_pub_hits(&run, "suppressed.rs"), vec![]);
    let suppressed: Vec<(&str, &str, u32)> = run.suppressed.iter().map(|d| (d.file.as_str(), d.lint, d.line)).collect();
    assert_eq!(suppressed, vec![("suppressed.rs", "dead-pub", 4)]);
}

#[test]
fn dead_pub_is_silent_on_an_explicit_file_run() {
    // A few files cannot tell whether a `pub fn` has callers elsewhere.
    let run = sphlint::workspace::run_files(&[dead_pub_fixture_workspace().join("bad.rs")]);
    assert_eq!(run.diagnostics, vec![]);
}

#[test]
fn driver_flags_a_rank_divergent_scratch_file() {
    // End-to-end through the CLI driver path (`run_files` + path
    // classification): a scratch file outside any test tree gets the full
    // lint set, and the divergent collective is caught.
    let dir = std::env::temp_dir().join(format!("sphlint-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scratch.rs");
    std::fs::write(&path, fixture("collective_order/bad.rs")).unwrap();
    let run = sphlint::workspace::run_files(std::slice::from_ref(&path));
    let got: Vec<(&str, u32)> = run.diagnostics.iter().map(|d| (d.lint, d.line)).collect();
    assert_eq!(
        got,
        vec![
            ("collective-order", 5),
            ("collective-order", 11),
            ("collective-order", 16),
        ]
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}

#[test]
fn workspace_path_classification() {
    use sphlint::workspace::classify;
    assert!(classify("crates/sphsim/src/octree.rs").warm_path);
    assert!(!classify("crates/sphsim/src/octree.rs").pair_kernel);
    assert!(classify("crates/sphsim/src/physics/density.rs").pair_kernel);
    assert!(classify("crates/sphsim/src/physics/density.rs").warm_path);
    assert!(classify("crates/sphsim/src/physics/eos.rs").warm_path);
    assert!(classify("crates/sphsim/src/physics/momentum.rs").pair_kernel);
    assert!(classify("crates/sphsim/src/physics/momentum.rs").warm_path);
    assert!(classify("crates/sphsim/src/celllist.rs").warm_path);
    assert!(classify("crates/sphsim/src/celllist.rs").pair_kernel);
    assert!(classify("crates/sphsim/src/physics/gravity.rs").warm_path);
    assert!(!classify("crates/sphsim/src/physics/gravity.rs").pair_kernel);
    assert!(classify("crates/sphsim/tests/periodic_invariants.rs").test_file);
    assert!(classify("tests/conservation.rs").test_file);
    assert!(!classify("crates/autotune/src/governor.rs").test_file);
}

#[test]
fn workspace_is_clean() {
    // The acceptance gate: the real tree has zero unsuppressed diagnostics.
    // This is the same invariant the CI `static-analysis` job enforces.
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let run = sphlint::workspace::run_workspace(&root);
    assert!(run.files_checked > 100, "only {} files seen", run.files_checked);
    let rendered: Vec<String> = run.diagnostics.iter().map(|d| d.render()).collect();
    assert!(
        run.diagnostics.is_empty(),
        "workspace has sphlint diagnostics:\n{}",
        rendered.join("\n")
    );
}

/// `pub fn`s that only tests name, each under a `sphlint::allow(dead-pub, …)`:
/// the ones pending deletion plus the references tests compare against.
/// Lower it with every deletion; never raise it.
const DEAD_PUB_ALLOWED: usize = 20;

#[test]
fn dead_pub_allowances_only_go_down() {
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let run = sphlint::workspace::run_workspace(&root);
    let allowed: Vec<String> = run
        .suppressed
        .iter()
        .filter(|d| d.lint == "dead-pub")
        .map(|d| format!("{}:{}", d.file, d.line))
        .collect();
    assert_eq!(
        allowed.len(),
        DEAD_PUB_ALLOWED,
        "dead-pub allowances changed; a deletion lowers DEAD_PUB_ALLOWED, a new \
         test-only `pub fn` must not raise it:\n{}",
        allowed.join("\n")
    );
}
