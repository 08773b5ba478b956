//! The dependency direction the paper describes, held as a test: the
//! application is instrumented and knows nothing else. `sphsim` calls `pmt`
//! around its stages and talks over `comm`; the machine (node power models,
//! cluster, Slurm accounting, in `hwmodel`) and the cost model *of* the
//! mini-app live above it, in `experiments`. Below them the layers stay
//! apart: `comm` is a leaf that links no crate of the workspace, and the
//! machine links no communicator (the rank launcher that joins the two is
//! `experiments`').

use std::collections::BTreeMap;
use std::path::Path;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

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

/// Every package of a `Cargo.lock` with the names it depends on (normal,
/// build and dev dependencies alike: the lock file does not tell them apart).
fn lock_graph(lock: &str) -> BTreeMap<String, Vec<String>> {
    let mut graph = BTreeMap::new();
    for package in lock.split("[[package]]").skip(1) {
        let mut lines = package.lines().map(str::trim);
        let name = lines
            .find_map(|line| line.strip_prefix("name = "))
            .expect("a [[package]] entry without a name")
            .trim_matches('"')
            .to_string();
        let dependencies = lines
            .skip_while(|line| *line != "dependencies = [")
            .skip(1)
            .take_while(|line| *line != "]")
            // `"name"` or, where two versions are locked, `"name version"`.
            .filter_map(|line| line.trim_matches([',', '"']).split(' ').next())
            .map(str::to_string)
            .collect();
        graph.insert(name, dependencies);
    }
    graph
}

/// The dependency path from `from` to `to` in `graph`, both ends included, if
/// there is one.
fn path_between(graph: &BTreeMap<String, Vec<String>>, from: &str, to: &str) -> Option<Vec<String>> {
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(name) = queue.pop_front() {
        if name == to {
            let mut path = vec![to.to_string()];
            let mut at = to;
            while let Some(&up) = parent.get(at) {
                path.push(up.to_string());
                at = up;
            }
            path.reverse();
            return Some(path);
        }
        for next in graph.get(name).into_iter().flatten() {
            if next != from && !parent.contains_key(next.as_str()) {
                parent.insert(next, name);
                queue.push_back(next);
            }
        }
    }
    None
}

#[test]
fn sphsim_depends_on_the_measurement_and_comm_layers_only() {
    assert_eq!(
        dependencies_of(&read("crates/sphsim/Cargo.toml")),
        ["comm", "pmt", "rand", "telemetry"],
        "sphsim is the mini-app: the machine (`hwmodel`, Slurm included) and the campaign model stay above it"
    );
}

#[test]
fn sphsim_reaches_no_machine_model_by_any_path() {
    let graph = lock_graph(&read("Cargo.lock"));
    assert!(
        graph.contains_key("sphsim") && graph.contains_key("hwmodel"),
        "Cargo.lock lost a workspace crate"
    );
    for forbidden in ["hwmodel", "experiments"] {
        if let Some(path) = path_between(&graph, "sphsim", forbidden) {
            panic!(
                "sphsim links `{forbidden}` through {}: the mini-app may reach only the measurement and comm layers",
                path.join(" → ")
            );
        }
    }
}

/// The crates of this workspace: the `path` entries of the root manifest's
/// `[workspace.dependencies]`.
fn workspace_crates() -> Vec<String> {
    read("Cargo.toml")
        .lines()
        .filter(|line| line.contains("path = \"crates/"))
        .filter_map(|line| line.split('=').next())
        .map(|name| name.trim().to_string())
        .collect()
}

#[test]
fn comm_reaches_no_workspace_crate() {
    let crates = workspace_crates();
    assert!(
        crates.iter().any(|name| name == "pmt") && crates.iter().any(|name| name == "comm"),
        "the root manifest lost its workspace crates: {crates:?}"
    );
    let listed: Vec<String> = dependencies_of(&read("crates/comm/Cargo.toml"))
        .into_iter()
        .filter(|name| crates.contains(name))
        .collect();
    assert!(
        listed.is_empty(),
        "comm lists {listed:?}: the communicator is a leaf of the workspace"
    );
    let graph = lock_graph(&read("Cargo.lock"));
    for other in crates.iter().filter(|name| *name != "comm") {
        if let Some(path) = path_between(&graph, "comm", other) {
            panic!("comm links `{other}` through {}", path.join(" → "));
        }
    }
}

#[test]
fn hwmodel_reaches_no_communicator() {
    assert!(
        !dependencies_of(&read("crates/hwmodel/Cargo.toml")).contains(&"comm".to_string()),
        "hwmodel is the machine: the rank launcher that joins it to `comm` lives in `experiments`"
    );
    if let Some(path) = path_between(&lock_graph(&read("Cargo.lock")), "hwmodel", "comm") {
        panic!("hwmodel links `comm` through {}", path.join(" → "));
    }
}
