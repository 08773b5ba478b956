//! `float-determinism` — floating-point ordering and fixture determinism.
//!
//! The repo's PR 2 convention: every float ordering goes through
//! `f64::total_cmp`, never `partial_cmp().unwrap()`. `partial_cmp` on floats
//! is a silent landmine — a NaN produced upstream turns a sort into a panic
//! (or, with `unwrap_or`, into a *nondeterministic order*), and distributed
//! reductions then disagree across ranks. The lint flags every
//! `.partial_cmp(` call site, in live code and tests alike.
//!
//! Test fixtures must also be reproducible: wall-clock (`SystemTime::now`)
//! and entropy-seeded randomness (`thread_rng`, `from_entropy`,
//! `rand::random`) inside test code make failures unreplayable and are
//! flagged. `Instant::now` is deliberately allowed — measuring elapsed time
//! is not fixture data.

use super::{is_method_call, is_punct, Ctx};
use crate::diag::{Diagnostic, FLOAT_DETERMINISM};
use crate::lexer::TokKind;

const ENTROPY_FNS: &[&str] = &["thread_rng", "from_entropy"];

pub(crate) fn check(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.toks.len() {
        let t = &ctx.toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "partial_cmp" && is_method_call(ctx.toks, i) {
            ctx.diag(
                out,
                i,
                FLOAT_DETERMINISM,
                "`.partial_cmp(..)` on floats is a partial order: NaN panics the unwrap or \
                 scrambles the sort, and rank-replicated orderings stop agreeing"
                    .into(),
                "use `f64::total_cmp` (the repo-wide convention since PR 2); a genuine \
                 non-float PartialOrd use can be suppressed with \
                 `// sphlint::allow(float-determinism, <the compared type>)`"
                    .into(),
            );
            continue;
        }
        // Fixture nondeterminism: only inside test code.
        if !ctx.is_test(i) {
            continue;
        }
        let flagged = if ENTROPY_FNS.contains(&t.text.as_str()) && ctx.toks.get(i + 1).is_some_and(|n| is_punct(n, "("))
        {
            Some(t.text.clone())
        } else if t.text == "now" && i >= 2 && is_punct(&ctx.toks[i - 1], "::") && ctx.toks[i - 2].text == "SystemTime"
        {
            Some("SystemTime::now".into())
        } else if t.text == "random" && i >= 2 && is_punct(&ctx.toks[i - 1], "::") && ctx.toks[i - 2].text == "rand" {
            Some("rand::random".into())
        } else {
            None
        };
        if let Some(what) = flagged {
            ctx.diag(
                out,
                i,
                FLOAT_DETERMINISM,
                format!(
                    "`{what}` in test code: date/entropy-seeded fixtures make failures \
                     unreplayable (run-to-run nondeterminism)"
                ),
                "seed the generator explicitly (the vendored `rand` shim is seedable) or pin \
                 the timestamp; suppress with \
                 `// sphlint::allow(float-determinism, <reason>)` if the value never reaches \
                 an assertion"
                    .into(),
            );
        }
    }
}
