//! The dependency direction the paper describes, held as a test: the
//! application is instrumented and knows nothing else. `sphsim` calls `pmt`
//! around its stages and talks over `cluster`; Slurm accounting, the node
//! power models and the cost model *of* the mini-app live above it, in
//! `experiments`.

use std::path::Path;

/// The names under `[dependencies]` of a manifest, in file order.
fn dependencies_of(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|line| line.trim() != "[dependencies]")
        .skip(1)
        .take_while(|line| !line.trim_start().starts_with('['))
        .filter_map(|line| line.split(['=', '.']).next())
        .map(|name| name.trim().to_string())
        .filter(|name| !name.is_empty() && !name.starts_with('#'))
        .collect()
}

#[test]
fn sphsim_depends_on_the_measurement_and_comm_layers_only() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/sphsim/Cargo.toml");
    let manifest = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(
        dependencies_of(&manifest),
        ["cluster", "pmt", "rand", "telemetry"],
        "sphsim is the mini-app: hardware models, Slurm and the campaign model belong in `experiments`"
    );
}
