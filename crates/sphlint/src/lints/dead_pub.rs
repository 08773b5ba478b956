//! `dead-pub` — a library's `pub fn` that no code outside its crate needs.
//!
//! Public surface that no other crate calls still has to compile, be
//! documented and keep its tests green, and it reads as a promise that
//! someone relies on it. This lint is the only cross-file one: the workspace
//! driver first folds every file into a [`UseIndex`] (each identifier that
//! code names outside a `use` declaration and outside a `fn` signature's
//! name, with the crates that name it, test code apart), then judges each
//! non-test `pub fn` of a library crate:
//! - another crate's non-test code names it: it stays `pub`;
//! - only its own crate's code names it: flagged, with the hint to make it
//!   `pub(crate)`, where rustc's path-exact `dead_code` lint sees whether the
//!   crate still calls it — unless another crate's tests name it, which need
//!   it `pub`;
//! - no non-test code names it: flagged as dead surface with a test. Test
//!   code — test modules, `#[test]` functions, integration tests — does not
//!   keep a function alive.
//!
//! The line is the crate boundary. A file's crate is the directory above its
//! `src/`; a `src/main.rs` or `src/bin/` target, an example and an
//! integration test are crates of their own, and so is `perfbench/`. A crate
//! without `src/lib.rs` is a binary, whose `pub` exports nothing: the lint
//! leaves it to rustc. The match is by name, so a `pub fn` that shares its
//! name with one another crate calls (a trait method, another type's `new`)
//! goes unflagged; the lint never flags a function another crate's code
//! names, except one reached only through a doc comment or a string. An
//! explicit-file run (`sphlint <file.rs>…`) sees too little of the workspace
//! to judge, and skips the lint.

use super::{is_ident, Ctx};
use crate::diag::{Diagnostic, DEAD_PUB};
use crate::lexer::{Tok, TokKind};
use crate::model::Model;
use std::collections::{HashMap, HashSet};

/// Every identifier that the indexed files name, outside `use` declarations
/// and defining `fn` names, with the crates whose code names it: non-test
/// code and test code apart.
#[derive(Debug, Default)]
pub struct UseIndex {
    code: HashMap<String, HashSet<String>>,
    tests: HashMap<String, HashSet<String>>,
    /// The crates with a `src/lib.rs`: the only ones whose `pub` exports anything.
    libraries: HashSet<String>,
}

impl UseIndex {
    /// Fold the lexed file at workspace-relative path `file` in. `test_file`
    /// marks a whole file as test code: an integration test, a crate of its
    /// own.
    pub(crate) fn add_file(&mut self, file: &str, toks: &[Tok], model: &Model, test_file: bool) {
        let krate = if test_file { file.to_string() } else { crate_of(file) };
        if file == "src/lib.rs" || file.ends_with("/src/lib.rs") {
            self.libraries.insert(krate.clone());
        }
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            if t.text == "use" {
                // A re-export or an import names the function without calling
                // it; every real use names it again past the `;`.
                while i < toks.len() && !(toks[i].kind == TokKind::Punct && toks[i].text == ";") {
                    i += 1;
                }
                continue;
            }
            if t.text == "fn" {
                // Skip the defined name (a `fn(..)` pointer type has none).
                i += if toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
                    2
                } else {
                    1
                };
                continue;
            }
            let names = if test_file || model.in_test_code(i) {
                &mut self.tests
            } else {
                &mut self.code
            };
            names.entry(t.text.clone()).or_default().insert(krate.clone());
            i += 1;
        }
    }
}

/// True if `names` holds `name` for a crate other than `krate`.
fn named_outside(names: &HashMap<String, HashSet<String>>, name: &str, krate: &str) -> bool {
    names.get(name).is_some_and(|crates| crates.iter().any(|c| c != krate))
}

/// The crate a workspace-relative path compiles into: the directory above
/// its `src/` (`crates/core/src/meter.rs` → `crates/core`, `src/lib.rs` and a
/// file outside any `src/` → the root crate, `""`). A `src/main.rs` or
/// `src/bin/` target and an example are crates of their own: the path of the
/// binary.
fn crate_of(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    if let Some(e) = parts.iter().position(|p| *p == "examples") {
        return parts[..=(e + 1).min(parts.len() - 1)].join("/");
    }
    match parts.iter().position(|p| *p == "src") {
        Some(s) if parts.get(s + 1) == Some(&"main.rs") => rel.to_string(),
        Some(s) if parts.get(s + 1) == Some(&"bin") => parts[..=(s + 2).min(parts.len() - 1)].join("/"),
        Some(s) => parts[..s].join("/"),
        None => String::new(),
    }
}

/// Item qualifiers that may stand between `pub` and `fn`.
const QUALIFIERS: &[&str] = &["const", "async", "unsafe", "extern"];

pub(crate) fn check(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    let Some(uses) = ctx.uses else {
        return;
    };
    let krate = crate_of(ctx.file);
    // In a binary, `pub` exports nothing: rustc's `dead_code` already judges it.
    if !uses.libraries.contains(&krate) {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if !is_ident(&toks[i], "pub") || ctx.is_test(i) {
            continue;
        }
        let mut j = i + 1;
        while j < toks.len() && (QUALIFIERS.iter().any(|q| is_ident(&toks[j], q)) || toks[j].kind == TokKind::Str) {
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| is_ident(t, "fn")) {
            continue;
        }
        let Some(name) = toks.get(j + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        let name = &name.text;
        if named_outside(&uses.code, name, &krate) {
            continue;
        }
        if uses.code.contains_key(name.as_str()) {
            // Its own crate calls it: `pub` only for another crate's tests.
            if named_outside(&uses.tests, name, &krate) {
                continue;
            }
            ctx.diag(
                out,
                i,
                DEAD_PUB,
                format!("`pub fn {name}` is named by no code outside its crate"),
                "make it `pub(crate)`: rustc's `dead_code` lint then sees whether its crate still calls it".into(),
            );
        } else {
            ctx.diag(
                out,
                i,
                DEAD_PUB,
                format!("`pub fn {name}` is named by no non-test code: only its tests, if any, keep it"),
                "delete it with the tests that only exercise it; if it stays as a reference another crate's \
                 tests need, `// sphlint::allow(dead-pub, <the test>)` — the workspace test pins how many are"
                    .into(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::crate_of;

    #[test]
    fn a_file_belongs_to_the_directory_above_its_src() {
        assert_eq!(crate_of("crates/core/src/meter.rs"), "crates/core");
        assert_eq!(crate_of("crates/sphsim/src/physics/eos.rs"), "crates/sphsim");
        assert_eq!(crate_of("perfbench/src/child.rs"), "perfbench");
        assert_eq!(crate_of("crates/sphlint/src/main.rs"), "crates/sphlint/src/main.rs");
        assert_eq!(crate_of("src/lib.rs"), "");
        assert_eq!(crate_of("bad.rs"), "");
    }

    #[test]
    fn bins_and_examples_are_crates_of_their_own() {
        assert_eq!(
            crate_of("crates/experiments/src/bin/replicate.rs"),
            "crates/experiments/src/bin/replicate.rs"
        );
        assert_eq!(crate_of("src/bin/tool.rs"), "src/bin/tool.rs");
        assert_eq!(crate_of("examples/quickstart.rs"), "examples/quickstart.rs");
        assert_ne!(
            crate_of("crates/experiments/src/bin/replicate.rs"),
            crate_of("crates/experiments/src/lib.rs")
        );
    }
}
