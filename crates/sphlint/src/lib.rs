//! # sphlint — workspace-native static analysis
//!
//! Proves the codebase's domain contracts at the source level, on every
//! commit, instead of hoping a 4-rank run deadlocks in CI or a fuzzer gets
//! lucky:
//!
//! | lint id                | contract                                                    |
//! |------------------------|-------------------------------------------------------------|
//! | `collective-order`     | every rank issues the same `Comm` collectives, or none       |
//! | `hot-path-alloc`       | warm neighbour pipeline performs zero steady-state allocs    |
//! | `min-image-discipline` | pair separations go through the shared `MinImage` map        |
//! | `float-determinism`    | float orderings use `total_cmp`; fixtures are replayable     |
//! | `telemetry-naming`     | metric/span names follow the documented grammar              |
//! | `dead-pub`             | every `pub fn` is named by non-test code of another crate    |
//! | `allow-syntax`         | every suppression carries a lint id and a reason             |
//!
//! Suppression: `// sphlint::allow(<lint-id>, <reason>)` on the flagged line
//! or the line directly above. The reason is mandatory — it is the audit
//! trail for why the contract does not apply at that site.
//!
//! The analyzer is dependency-free by design: a hand-rolled lexer
//! ([`lexer`]), a token-level structural model ([`model`]), and six
//! pattern lints ([`lints`]) — the same idiom as the repo's hand-rolled
//! JSON codecs. Run it with `cargo run -p sphlint -- --workspace`.

pub mod diag;
pub mod lexer;
pub mod lints;
pub mod model;
pub mod workspace;

pub use diag::Diagnostic;
pub use lints::dead_pub::UseIndex;
pub use lints::FileClass;

/// Lint one lexed and modelled file under the given classification. `uses` is
/// the whole workspace's [`UseIndex`], which the cross-file `dead-pub` lint
/// needs; without it that lint stays silent. Returns the kept diagnostics,
/// sorted by line, and the ones a valid `sphlint::allow` swallowed. Malformed
/// `sphlint::allow` comments surface as `allow-syntax` diagnostics.
pub fn check_lexed(
    file: &str,
    lexed: &lexer::Lexed,
    model: &model::Model,
    class: FileClass,
    uses: Option<&UseIndex>,
) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    let ctx = lints::Ctx {
        file,
        toks: &lexed.toks,
        model,
        class,
        uses,
    };
    let mut diags = lints::run_all(&ctx);
    let (sups, malformed) = diag::parse_suppressions(&lexed.comments);
    for (line, why) in malformed {
        diags.push(Diagnostic {
            file: file.to_string(),
            line,
            lint: diag::ALLOW_SYNTAX,
            message: format!("malformed `sphlint::allow`: {why}"),
            suggestion: "write `// sphlint::allow(<lint-id>, <non-empty reason>)`".into(),
        });
    }
    let (mut kept, suppressed) = diag::apply_suppressions(diags, &sups);
    kept.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    (kept, suppressed)
}
