//! A lightweight structural model over the token stream: function extents,
//! conditional regions (with their condition tokens), loop bodies, and
//! test-only regions. This is not a parse tree — it is exactly the amount of
//! structure the contract lints need: "which function am I in", "am I inside
//! a branch, and on what condition", "does test code own this token".

use crate::lexer::{Tok, TokKind};

/// Half-open token-index range `[start, end)`.
type Range = (usize, usize);

/// One `fn` item (nested functions included).
#[derive(Debug)]
pub struct Func {
    pub name: String,
    /// Param-list range including the surrounding parentheses.
    pub params: Range,
    /// Body range including the surrounding braces; empty for trait decls.
    pub body: Range,
    /// Marked `#[test]` (or `#[cfg(test)]`) directly.
    pub is_test: bool,
}

/// A conditional region: `body` only executes when the tokens of `cond` held
/// (for `match`, the whole arm block is paired with the scrutinee; for
/// `else`/`else if` chains every upstream condition is paired with every
/// downstream body, since reaching the body *evaluated* those conditions).
#[derive(Debug)]
pub struct Cond {
    pub cond: Range,
    pub body: Range,
}

#[derive(Debug, Default)]
pub struct Model {
    pub funcs: Vec<Func>,
    pub conds: Vec<Cond>,
    /// Bodies of `for`/`while`/`loop` constructs (brace-to-brace).
    pub loops: Vec<Range>,
    /// Regions owned by test code: `#[cfg(test)] mod` bodies, `#[test]` fns.
    pub test_ranges: Vec<Range>,
}

impl Model {
    /// Innermost function whose body contains token `idx`.
    pub(crate) fn func_at(&self, idx: usize) -> Option<&Func> {
        self.funcs
            .iter()
            .filter(|f| f.body.0 <= idx && idx < f.body.1)
            .min_by_key(|f| f.body.1 - f.body.0)
    }

    pub(crate) fn in_test_code(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| s <= idx && idx < e)
    }

    /// Innermost loop body containing token `idx`.
    pub(crate) fn loop_at(&self, idx: usize) -> Option<Range> {
        self.loops
            .iter()
            .filter(|&&(s, e)| s <= idx && idx < e)
            .min_by_key(|&&(s, e)| e - s)
            .copied()
    }
}

fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

fn is_ident(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

/// Index of the `}` matching the `{` at `open` (or `end` of stream).
fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if is_punct(t, "{") {
            depth += 1;
        } else if is_punct(t, "}") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Index of the `)` matching the `(` at `open`.
fn match_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if is_punct(t, "(") {
            depth += 1;
        } else if is_punct(t, ")") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Scan from `from` to the next `{` at zero paren/bracket depth — the opening
/// brace of an `if`/`while`/`match`/`for` body. Conditions with braces inside
/// parentheses (closures, nested calls) are handled by the depth tracking;
/// struct literals at depth 0 are not legal in these positions.
fn find_block_open(toks: &[Tok], from: usize, end: usize) -> Option<usize> {
    let mut paren = 0i64;
    let mut bracket = 0i64;
    for (i, t) in toks.iter().enumerate().take(end).skip(from) {
        if is_punct(t, "(") {
            paren += 1;
        } else if is_punct(t, ")") {
            paren -= 1;
        } else if is_punct(t, "[") {
            bracket += 1;
        } else if is_punct(t, "]") {
            bracket -= 1;
        } else if is_punct(t, "{") && paren == 0 && bracket == 0 {
            return Some(i);
        } else if is_punct(t, ";") && paren == 0 && bracket == 0 {
            return None;
        }
    }
    None
}

/// Build the structural model of one lexed file.
pub fn build(toks: &[Tok]) -> Model {
    let mut m = Model::default();
    collect_items(toks, 0, toks.len(), false, &mut m);
    collect_control_flow(toks, 0, toks.len(), &mut m);
    m
}

/// Pass 1: functions, test mods, `#[test]` markers. Linear scan with sticky
/// attribute flags (attributes may stack and be separated by visibility and
/// qualifier keywords before the item keyword lands).
fn collect_items(toks: &[Tok], start: usize, end: usize, in_test: bool, m: &mut Model) {
    let mut i = start;
    let mut attr_test = false;
    let mut attr_cfg_test = false;
    while i < end {
        let t = &toks[i];
        if is_punct(t, "#") && i + 1 < end && is_punct(&toks[i + 1], "[") {
            // Collect the attribute's identifiers.
            let mut depth = 0i64;
            let mut j = i + 1;
            let mut idents: Vec<&str> = Vec::new();
            while j < end {
                if is_punct(&toks[j], "[") {
                    depth += 1;
                } else if is_punct(&toks[j], "]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if toks[j].kind == TokKind::Ident {
                    idents.push(&toks[j].text);
                }
                j += 1;
            }
            if idents.contains(&"test") {
                if idents.contains(&"cfg") {
                    attr_cfg_test = true;
                } else {
                    attr_test = true;
                }
            }
            i = j + 1;
            continue;
        }
        if is_ident(t, "fn") {
            let name = toks
                .get(i + 1)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone())
                .unwrap_or_default();
            // Param list: next `(` (generics `<...>` may intervene).
            let mut p = i + 1;
            while p < end && !is_punct(&toks[p], "(") {
                if is_punct(&toks[p], "{") || is_punct(&toks[p], ";") {
                    break;
                }
                p += 1;
            }
            if p >= end || !is_punct(&toks[p], "(") {
                i += 1;
                continue;
            }
            let p_close = match_paren(toks, p);
            // Body: next `{` before a `;` (trait decls have none).
            let mut b = p_close + 1;
            let mut body = (0usize, 0usize);
            while b < end {
                if is_punct(&toks[b], "{") {
                    let b_close = match_brace(toks, b);
                    body = (b, b_close + 1);
                    break;
                }
                if is_punct(&toks[b], ";") {
                    break;
                }
                b += 1;
            }
            let is_test = in_test || attr_test || attr_cfg_test;
            m.funcs.push(Func {
                name,
                params: (p, p_close + 1),
                body,
                is_test,
            });
            if is_test && body.1 > body.0 {
                m.test_ranges.push(body);
            }
            if body.1 > body.0 {
                collect_items(toks, body.0 + 1, body.1 - 1, is_test, m);
                i = body.1;
            } else {
                i = b + 1;
            }
            attr_test = false;
            attr_cfg_test = false;
            continue;
        }
        if is_ident(t, "mod") {
            let mod_test = in_test || attr_cfg_test || attr_test;
            // `mod name { ... }` (skip `mod name;`).
            if let Some(open) = (i + 1..(i + 4).min(end)).find(|&j| is_punct(&toks[j], "{")) {
                let close = match_brace(toks, open);
                if mod_test {
                    m.test_ranges.push((open, close + 1));
                }
                collect_items(toks, open + 1, close, mod_test, m);
                i = close + 1;
            } else {
                i += 1;
            }
            attr_test = false;
            attr_cfg_test = false;
            continue;
        }
        // Any other item keyword consumes the pending attributes.
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "struct" | "enum" | "impl" | "trait" | "use" | "static" | "const" | "let" | "type"
            )
        {
            attr_test = false;
            attr_cfg_test = false;
        }
        i += 1;
    }
}

/// Pass 2: conditional regions and loop bodies, over the whole file.
fn collect_control_flow(toks: &[Tok], start: usize, end: usize, m: &mut Model) {
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if is_ident(t, "if") {
            i = parse_if_chain(toks, i, end, &mut Vec::new(), m);
            continue;
        }
        if is_ident(t, "while") || is_ident(t, "for") || is_ident(t, "match") {
            let kw = t.text.clone();
            let cond_from = if kw == "for" {
                // Condition = the iterated expression, after the `in`.
                let mut j = i + 1;
                let mut paren = 0i64;
                while j < end {
                    if is_punct(&toks[j], "(") {
                        paren += 1;
                    } else if is_punct(&toks[j], ")") {
                        paren -= 1;
                    } else if paren == 0 && (is_ident(&toks[j], "in") || is_punct(&toks[j], "{")) {
                        break;
                    }
                    j += 1;
                }
                j + 1
            } else {
                i + 1
            };
            match find_block_open(toks, cond_from, end) {
                Some(open) => {
                    let close = match_brace(toks, open);
                    let cond = (cond_from.min(open), open);
                    let body = (open, close + 1);
                    // `match x { .. }` used as an expression behaves the same
                    // for our purposes: the block only runs arm code the
                    // scrutinee selects.
                    m.conds.push(Cond { cond, body });
                    if kw != "match" {
                        m.loops.push(body);
                    }
                    collect_control_flow(toks, open + 1, close, m);
                    i = close + 1;
                }
                None => i += 1,
            }
            continue;
        }
        if is_ident(t, "loop") {
            if let Some(open) = find_block_open(toks, i + 1, end) {
                let close = match_brace(toks, open);
                m.loops.push((open, close + 1));
                collect_control_flow(toks, open + 1, close, m);
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
}

/// Parse `if C1 { B1 } else if C2 { B2 } else { B3 }`, pairing every body
/// with every condition evaluated on the way to it (reaching `B2` evaluated
/// `C1` and `C2`; divergence of either makes `B2`'s execution divergent).
/// Returns the index just past the chain. Recurses into each body.
fn parse_if_chain(toks: &[Tok], if_idx: usize, end: usize, upstream: &mut Vec<Range>, m: &mut Model) -> usize {
    let cond_from = if_idx + 1;
    let Some(open) = find_block_open(toks, cond_from, end) else {
        return if_idx + 1;
    };
    let close = match_brace(toks, open);
    let cond = (cond_from, open);
    let body = (open, close + 1);
    for &up in upstream.iter() {
        m.conds.push(Cond { cond: up, body });
    }
    m.conds.push(Cond { cond, body });
    collect_control_flow(toks, open + 1, close, m);
    let mut i = close + 1;
    if i < end && is_ident(&toks[i], "else") {
        if i + 1 < end && is_ident(&toks[i + 1], "if") {
            upstream.push(cond);
            i = parse_if_chain(toks, i + 1, end, upstream, m);
            upstream.pop();
        } else if let Some(eopen) = (i + 1..(i + 2).min(end)).find(|&j| is_punct(&toks[j], "{")) {
            let eclose = match_brace(toks, eopen);
            let ebody = (eopen, eclose + 1);
            for &up in upstream.iter() {
                m.conds.push(Cond { cond: up, body: ebody });
            }
            m.conds.push(Cond { cond, body: ebody });
            collect_control_flow(toks, eopen + 1, eclose, m);
            i = eclose + 1;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn functions_and_params_are_found() {
        let l = lex("pub fn alpha(a: u32, out: &mut Vec<u32>) -> u32 { a }\nfn beta() {}");
        let m = build(&l.toks);
        assert_eq!(m.funcs.len(), 2);
        assert_eq!(m.funcs[0].name, "alpha");
        assert_eq!(m.funcs[1].name, "beta");
    }

    #[test]
    fn cfg_test_mod_marks_test_ranges() {
        let l = lex("fn live() {}\n#[cfg(test)]\nmod tests {\n #[test] fn t() { live(); } }");
        let m = build(&l.toks);
        assert!(!m.funcs.iter().find(|f| f.name == "live").unwrap().is_test);
        assert!(m.funcs.iter().find(|f| f.name == "t").unwrap().is_test);
        assert!(!m.test_ranges.is_empty());
    }

    #[test]
    fn if_else_chain_pairs_every_condition() {
        let l = lex("fn f(rank: usize) { if rank == 0 { a(); } else if b() { c(); } else { d(); } }");
        let m = build(&l.toks);
        // B1 gets C1; B2 gets C1+C2; B3 gets C1+C2 -> 5 cond/body pairs.
        assert_eq!(m.conds.len(), 5);
    }

    #[test]
    fn match_block_is_one_conditional_region() {
        let l = lex("fn f(x: u32) { match x { 0 => a(), _ => b(), } }");
        let m = build(&l.toks);
        assert_eq!(m.conds.len(), 1);
    }

    #[test]
    fn loops_are_recorded_and_for_condition_is_the_iterator() {
        let l = lex("fn f(n: usize) { for i in 0..n { g(i); } while n > 0 { h(); } loop { break; } }");
        let m = build(&l.toks);
        assert_eq!(m.loops.len(), 3);
        assert_eq!(m.conds.len(), 2);
    }

    #[test]
    fn nested_conditionals_are_all_seen() {
        let l = lex("fn f(a: bool, b: bool) { if a { if b { x(); } } }");
        let m = build(&l.toks);
        assert_eq!(m.conds.len(), 2);
    }

    #[test]
    fn innermost_function_wins() {
        let l = lex("fn outer() { fn inner() { marker(); } inner(); }");
        let m = build(&l.toks);
        let idx = l.toks.iter().position(|t| t.text == "marker").unwrap();
        assert_eq!(m.func_at(idx).unwrap().name, "inner");
    }
}
