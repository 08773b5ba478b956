//! `min-image-discipline` — every pair separation in a pair-kernel module
//! must go through the shared minimum-image map (PR 5's `MinImage` /
//! `dx_periodic`), so periodic boxes sum over nearest images and the open
//! path stays bit-identical through the `const PERIODIC` specialisation.
//!
//! The lint finds raw coordinate-pair subtractions — `x[i] - x[j]`,
//! `particles.x[i] - particles.x[j]` — in functions that never consult the
//! minimum-image machinery (`MinImage`, `mi`, `dx_periodic`). A kernel loop
//! like that silently computes through-the-box distances and breaks every
//! periodic scenario (Gresho's confinement check is the dynamic witness;
//! this is the static one). Subtractions against scalars (`x[i] - cx`) are
//! not pair separations and are not flagged.

use super::{is_punct, Ctx};
use crate::diag::{Diagnostic, MIN_IMAGE};
use crate::lexer::TokKind;

/// Identifiers whose presence marks a function as minimum-image aware.
const AWARE: &[&str] = &["MinImage", "mi", "dx_periodic", "min_image"];

const COMPONENTS: &[&str] = &["x", "y", "z"];

/// If the tokens ending at `end` (exclusive) form an indexed coordinate
/// access `…x[..]`, return the component letter.
fn component_before(toks: &[crate::lexer::Tok], end: usize) -> Option<&str> {
    if end == 0 || !is_punct(&toks[end - 1], "]") {
        return None;
    }
    // Walk back to the matching `[`.
    let mut depth = 0i64;
    let mut j = end - 1;
    loop {
        if is_punct(&toks[j], "]") {
            depth += 1;
        } else if is_punct(&toks[j], "[") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    if j == 0 {
        return None;
    }
    let field = &toks[j - 1];
    if field.kind != TokKind::Ident {
        return None;
    }
    COMPONENTS.iter().find(|&&c| c == field.text).copied()
}

/// If the tokens starting at `start` form an indexed coordinate access
/// (optionally behind a receiver chain: `particles.x[`, `self.p.x[`),
/// return the component letter.
fn component_after(toks: &[crate::lexer::Tok], start: usize) -> Option<&str> {
    let mut j = start;
    // Skip a leading receiver chain `ident . ident . …`.
    while j + 1 < toks.len()
        && toks[j].kind == TokKind::Ident
        && is_punct(&toks[j + 1], ".")
        && j + 2 < toks.len()
        && toks[j + 2].kind == TokKind::Ident
    {
        j += 2;
    }
    if j + 1 < toks.len()
        && toks[j].kind == TokKind::Ident
        && COMPONENTS.contains(&toks[j].text.as_str())
        && is_punct(&toks[j + 1], "[")
    {
        return Some(&toks[j].text);
    }
    None
}

pub(crate) fn check(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    if !ctx.class.pair_kernel {
        return;
    }
    for func in &ctx.model.funcs {
        if func.is_test || func.body.1 <= func.body.0 {
            continue;
        }
        let (bs, be) = func.body;
        let body = &ctx.toks[bs..be.min(ctx.toks.len())];
        if body
            .iter()
            .any(|t| t.kind == TokKind::Ident && AWARE.contains(&t.text.as_str()))
        {
            continue; // the function consults the minimum-image map
        }
        for i in bs..be.min(ctx.toks.len()) {
            if !is_punct(&ctx.toks[i], "-") || ctx.is_test(i) {
                continue;
            }
            // Only report sites owned by this function (not a nested fn).
            if ctx.model.func_at(i).map(|f| f.body) != Some(func.body) {
                continue;
            }
            let Some(left) = component_before(ctx.toks, i) else {
                continue;
            };
            let Some(right) = component_after(ctx.toks, i + 1) else {
                continue;
            };
            if left == right {
                ctx.diag(
                    out,
                    i,
                    MIN_IMAGE,
                    format!(
                        "raw coordinate-pair subtraction on `{left}` in `{}` bypasses the \
                         minimum-image convention: periodic boxes will compute through-the-box \
                         distances instead of nearest-image separations",
                        func.name
                    ),
                    "hoist `let mi = MinImage::of(&boundary);` out of the loop and map the \
                     deltas (`mi.map(dx, dy, dz)` / `mi.dist_sq(..)`), or use `dx_periodic` for \
                     one-off callers; genuinely open-box geometry can be suppressed with \
                     `// sphlint::allow(min-image-discipline, <why the box is open here>)`"
                        .into(),
                );
            }
        }
    }
}
