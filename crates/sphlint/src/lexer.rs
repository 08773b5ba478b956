//! A hand-rolled Rust lexer: just enough tokenization for contract linting.
//!
//! The lexer does not aim for rustc fidelity — it aims for *never
//! misclassifying* the constructs the lints key on. In particular it must get
//! right: line tracking, nested block comments, all string literal flavours
//! (escaped, raw, byte), char literals vs lifetimes, and the multi-character
//! operators (`->`, `::`, `..`) whose component characters (`-`, `:`, `.`)
//! the lints pattern-match on. Comments are captured out-of-band so the
//! suppression pass (`// sphlint::allow(id, reason)`) can see them.

/// One lexical token with the 1-indexed source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    /// Identifier name, string contents (between the quotes, escapes left
    /// verbatim), or the operator/punctuation spelling.
    pub text: String,
    pub line: u32,
}

/// Coarse token classes; the lints only need to tell these apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    /// `"..."`, `r"..."`, `r#"..."#`, `b"..."` — `text` holds the contents.
    Str,
    /// `'x'`, `'\n'`, `b'x'`.
    Char,
    /// `'a` in `&'a str`.
    Lifetime,
    /// Integer or float literal, suffix included.
    Num,
    /// Operators and delimiters; multi-character operators arrive as one
    /// token (`->`, `=>`, `::`, `..`, `..=`, `&&`, `||`, shifts, compound
    /// assignment), everything else as a single character.
    Punct,
}

/// A `//` line comment (doc comments included), captured for the suppression
/// pass. Block comments cannot carry suppressions — a trailing `//` comment
/// pins the allow to a line, which is what the diagnostics key on.
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: u32,
    /// Comment text after the leading `//` (and any `/`/`!` doc marker).
    pub text: String,
    /// `///` or `//!` — doc comments *describe* the suppression syntax
    /// rather than invoke it, so the suppression parser skips them.
    pub doc: bool,
}

/// Token stream plus the out-of-band line comments of one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// Multi-character operators, longest first so maximal munch is trivial.
const MULTI_PUNCT: &[&str] = &[
    "..=", "...", "<<=", ">>=", "->", "=>", "::", "..", "&&", "||", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=",
    "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Tokenize `src`. Unterminated constructs consume to end-of-file rather than
/// erroring: a linter must degrade gracefully on code rustc will reject.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident_cont = |c: char| c.is_alphanumeric() || c == '_';

    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let mut j = i + 2;
            let doc = j < n && (b[j] == '/' || b[j] == '!');
            while j < n && (b[j] == '/' || b[j] == '!') {
                j += 1;
            }
            let start = j;
            while j < n && b[j] != '\n' {
                j += 1;
            }
            out.comments.push(Comment {
                line,
                text: b[start..j].iter().collect(),
                doc,
            });
            i = j;
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if b[j] == '\n' {
                    line += 1;
                    j += 1;
                } else if b[j] == '/' && j + 1 < n && b[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == '*' && j + 1 < n && b[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            i = j;
            continue;
        }
        // Raw strings and raw identifiers: r"..", r#".."#, br#".."#, r#ident.
        if (c == 'r' || c == 'b') && i + 1 < n {
            let (raw_at, _has_b) = if c == 'b' && i + 1 < n && b[i + 1] == 'r' {
                (i + 2, true)
            } else if c == 'r' {
                (i + 1, false)
            } else {
                (usize::MAX, false)
            };
            if raw_at != usize::MAX && raw_at < n && (b[raw_at] == '"' || b[raw_at] == '#') {
                // Count hashes.
                let mut hashes = 0usize;
                let mut j = raw_at;
                while j < n && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && b[j] == '"' {
                    let start_line = line;
                    j += 1;
                    let content_start = j;
                    'scan: while j < n {
                        if b[j] == '\n' {
                            line += 1;
                            j += 1;
                            continue;
                        }
                        if b[j] == '"' {
                            let mut k = 0usize;
                            while k < hashes && j + 1 + k < n && b[j + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                out.toks.push(Tok {
                                    kind: TokKind::Str,
                                    text: b[content_start..j].iter().collect(),
                                    line: start_line,
                                });
                                j += 1 + hashes;
                                break 'scan;
                            }
                        }
                        j += 1;
                    }
                    i = j;
                    continue;
                } else if hashes == 1 && j < n && is_ident_start(b[j]) && c == 'r' {
                    // Raw identifier r#foo.
                    let start = j;
                    while j < n && is_ident_cont(b[j]) {
                        j += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Ident,
                        text: b[start..j].iter().collect(),
                        line,
                    });
                    i = j;
                    continue;
                }
                // Fall through: `r` / `b` was an ordinary identifier start.
            }
        }
        // Byte string b"..", byte char b'x'.
        if c == 'b' && i + 1 < n && (b[i + 1] == '"' || b[i + 1] == '\'') {
            i += 1;
            // Re-enter the loop logic below with the quote current.
            let q = b[i];
            let (tok, ni, nl) = lex_quoted(&b, i, line, q);
            out.toks.push(tok);
            i = ni;
            line = nl;
            continue;
        }
        if c == '"' {
            let (tok, ni, nl) = lex_quoted(&b, i, line, '"');
            out.toks.push(tok);
            i = ni;
            line = nl;
            continue;
        }
        if c == '\'' {
            // Char literal vs lifetime. A char literal is '<escape-or-char>'
            // (the closing quote appears right after one scalar); otherwise
            // it is a lifetime.
            let is_char = if i + 1 < n && b[i + 1] == '\\' {
                true
            } else {
                i + 2 < n && b[i + 2] == '\'' && b[i + 1] != '\''
            };
            if is_char {
                let (tok, ni, nl) = lex_quoted(&b, i, line, '\'');
                out.toks.push(Tok {
                    kind: TokKind::Char,
                    ..tok
                });
                i = ni;
                line = nl;
            } else {
                let mut j = i + 1;
                while j < n && is_ident_cont(b[j]) {
                    j += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: b[i + 1..j].iter().collect(),
                    line,
                });
                i = j;
            }
            continue;
        }
        if is_ident_start(c) {
            let start = i;
            let mut j = i;
            while j < n && is_ident_cont(b[j]) {
                j += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: b[start..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            let mut j = i;
            // Consume digits/suffix chars; a signed exponent (1e-3, 2.5E+7)
            // is part of the number only when everything before the `e` is
            // plain decimal (so hex like 0x1e is never extended over a `-`).
            let eat = |j: &mut usize| {
                while *j < n && (b[*j].is_alphanumeric() || b[*j] == '_') {
                    if (b[*j] == 'e' || b[*j] == 'E')
                        && *j + 1 < n
                        && (b[*j + 1] == '+' || b[*j + 1] == '-')
                        && *j + 2 < n
                        && b[*j + 2].is_ascii_digit()
                        && b[start..*j].iter().all(|&d| d.is_ascii_digit() || d == '.' || d == '_')
                    {
                        *j += 3;
                        continue;
                    }
                    *j += 1;
                }
            };
            eat(&mut j);
            // Fractional part — but never eat a `..` range or a method call
            // like `1.max(x)`.
            if j < n && b[j] == '.' && j + 1 < n && b[j + 1].is_ascii_digit() {
                j += 1;
                eat(&mut j);
            }
            out.toks.push(Tok {
                kind: TokKind::Num,
                text: b[start..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // Multi-character operators, longest match first.
        let mut matched = false;
        for op in MULTI_PUNCT {
            let oc: Vec<char> = op.chars().collect();
            if i + oc.len() <= n && b[i..i + oc.len()] == oc[..] {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: (*op).to_string(),
                    line,
                });
                i += oc.len();
                matched = true;
                break;
            }
        }
        if matched {
            continue;
        }
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

/// Lex a quoted literal starting at the opening quote `b[i] == q`; returns
/// the token, the index just past the closing quote, and the updated line.
fn lex_quoted(b: &[char], i: usize, mut line: u32, q: char) -> (Tok, usize, u32) {
    let start_line = line;
    let n = b.len();
    let mut j = i + 1;
    let content_start = j;
    while j < n {
        match b[j] {
            '\\' => {
                // An escaped newline (a string continuation) is still a line.
                if b.get(j + 1) == Some(&'\n') {
                    line += 1;
                }
                j += 2;
            }
            '\n' => {
                line += 1;
                j += 1;
            }
            c if c == q => break,
            _ => j += 1,
        }
    }
    let content: String = b[content_start..j.min(n)].iter().collect();
    (
        Tok {
            kind: TokKind::Str,
            text: content,
            line: start_line,
        },
        (j + 1).min(n),
        line,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).toks.into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_numbers_and_operators() {
        let toks = kinds("let dx = x[i] - x[j];");
        assert_eq!(toks[0], (TokKind::Ident, "let".into()));
        assert!(toks.contains(&(TokKind::Punct, "-".into())));
        assert!(toks.contains(&(TokKind::Punct, "[".into())));
    }

    #[test]
    fn arrow_is_not_a_minus() {
        let toks = kinds("fn f() -> f64 { 0.0 }");
        assert!(toks.contains(&(TokKind::Punct, "->".into())));
        assert!(!toks.contains(&(TokKind::Punct, "-".into())));
    }

    #[test]
    fn strings_capture_contents_and_lines() {
        let lexed =
            lex("let a = \"health.dt\";\nlet b = r#\"raw \"quoted\" text\"#;\nlet c = \"one \\\n two\";\nlet d;");
        let strs: Vec<&Tok> = lexed.toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs[0].text, "health.dt");
        assert_eq!(strs[0].line, 1);
        assert_eq!(strs[1].text, "raw \"quoted\" text");
        assert_eq!(strs[1].line, 2);
        assert_eq!(strs[2].line, 3);
        // A `\`-continued string spans two lines.
        assert_eq!(lexed.toks.iter().find(|t| t.text == "d").unwrap().line, 5);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks.contains(&(TokKind::Lifetime, "a".into())));
        assert!(toks.contains(&(TokKind::Char, "x".into())));
    }

    #[test]
    fn escaped_char_literal() {
        let toks = kinds(r"let c = '\n';");
        assert!(toks.iter().any(|t| t.0 == TokKind::Char));
    }

    #[test]
    fn nested_block_comments_track_lines() {
        let lexed = lex("/* outer /* inner\n */ still */\nfn f() {}");
        assert_eq!(lexed.toks[0].text, "fn");
        assert_eq!(lexed.toks[0].line, 3);
    }

    #[test]
    fn line_comments_are_captured_with_lines() {
        let lexed = lex("let x = 1; // sphlint::allow(float-determinism, \"test\")\nlet y = 2;");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 1);
        assert!(lexed.comments[0].text.contains("sphlint::allow"));
        assert!(!lexed.comments[0].doc);
    }

    #[test]
    fn doc_comments_are_comments_too() {
        let lexed = lex("/// summary line\nfn f() {}");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].text.trim(), "summary line");
        assert!(lexed.comments[0].doc);
    }

    #[test]
    fn float_exponents_lex_as_one_number() {
        let toks = kinds("let x = 1.0e-12 + 2e+3;");
        let nums: Vec<_> = toks.iter().filter(|t| t.0 == TokKind::Num).collect();
        assert_eq!(nums.len(), 2);
        assert_eq!(nums[0].1, "1.0e-12");
        assert_eq!(nums[1].1, "2e+3");
    }

    #[test]
    fn range_does_not_merge_into_float() {
        let toks = kinds("for i in 0..n {}");
        assert!(toks.contains(&(TokKind::Punct, "..".into())));
        assert!(toks.contains(&(TokKind::Num, "0".into())));
    }

    #[test]
    fn format_placeholder_strings_survive() {
        let lexed = lex("format!(\"sim.rank{rank}.owned\")");
        let s = lexed.toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.text, "sim.rank{rank}.owned");
    }
}
