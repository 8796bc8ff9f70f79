//! A minimal Rust lexer for invariant scanning.
//!
//! The build environment vendors no parser crates, so `storm-lint` does
//! its own tokenization. It is deliberately *not* a full Rust grammar:
//! the rules only need identifiers and punctuation with accurate source
//! positions, with comments, strings and char literals stripped so that
//! prose can never trigger a rule. Three extra pieces of structure are
//! recovered on top of the raw token stream because every rule needs
//! them:
//!
//! - `// storm-lint: allow(<rule>, ...)` comments, recorded per line
//!   (the inline escape hatch);
//! - `#[cfg(test)]` / `#[test]` item ranges, so test code is exempt;
//! - brace depth, so item boundaries can be found.

use std::collections::{BTreeMap, BTreeSet};

/// Token kind. Literals keep no text: no rule reads a literal's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character.
    Punct(char),
    /// Number, char, byte or string literal.
    Lit,
}

/// One token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Kind (identifier text lives in `text`).
    pub kind: TokKind,
    /// Identifier text; empty for punctuation and literals.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl Tok {
    /// True when the token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when the token is the punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// One rule named by an inline allow comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule name as written (not validated here).
    pub rule: String,
    /// Set by [`Lexed::allowed`] once the allow has suppressed a finding.
    pub used: bool,
}

/// Lexed source: tokens plus the per-line rule allowances and the line
/// ranges covered by test-only items.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Token stream in source order.
    pub toks: Vec<Tok>,
    /// Line -> rules allowed there by a `// storm-lint: allow(...)`
    /// comment. An allow covers its own line and the next code line,
    /// looking through any comment-only lines in between (so the
    /// directive may open a multi-line explanation).
    pub allows: BTreeMap<u32, Vec<Allow>>,
    /// Lines where a `//` comment starts; token-bearing lines are
    /// removed after lexing, leaving comment-only lines.
    pub comment_lines: BTreeSet<u32>,
    /// Inclusive line ranges of `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: Vec<(u32, u32)>,
}

impl Lexed {
    /// True when `line` falls inside a test-gated item.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// True when `rule` is allowed at `line`: by a comment on the same
    /// line, or by one above it separated only by comment-only lines.
    /// The allow that answers is marked used, for stale-allow reporting.
    pub fn allowed(&mut self, rule: &str, line: u32) -> bool {
        let mut l = line;
        loop {
            let allow = self
                .allows
                .get_mut(&l)
                .and_then(|at| at.iter_mut().find(|a| a.rule == rule));
            if let Some(a) = allow {
                a.used = true;
                return true;
            }
            if l == 1 || (l != line && !self.comment_lines.contains(&l)) {
                return false;
            }
            l -= 1;
        }
    }
}

const ALLOW_PREFIX: &str = "storm-lint: allow(";

/// Extracts rule names from a `storm-lint: allow(a, b)` comment body.
fn parse_allow(comment: &str) -> Option<Vec<Allow>> {
    let start = comment.find(ALLOW_PREFIX)? + ALLOW_PREFIX.len();
    let end = comment[start..].find(')')? + start;
    Some(
        comment[start..end]
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|rule| Allow {
                rule: rule.to_string(),
                used: false,
            })
            .collect(),
    )
}

/// Tokenizes `src`, recording allow-comments and test-item ranges.
pub fn lex(src: &str) -> Lexed {
    let mut lx = Lexed::default();
    let b = src.as_bytes();
    let mut i = 0;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    macro_rules! bump {
        () => {{
            if b[i] == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < b.len() {
        let c = b[i] as char;
        // Line comment (incl. doc comments): record allow directives.
        if c == '/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let start = i;
            while i < b.len() && b[i] != b'\n' {
                bump!();
            }
            let text = &src[start..i];
            lx.comment_lines.insert(line);
            // Doc comments never declare allows — they merely *mention*
            // the syntax (rule docs would otherwise register escapes).
            let is_doc = text.starts_with("///") || text.starts_with("//!");
            if !is_doc {
                if let Some(rules) = parse_allow(text) {
                    lx.allows.entry(line).or_default().extend(rules);
                }
            }
            continue;
        }
        // Block comment, with nesting. Every line the comment touches
        // is recorded as a comment line so the allow-walk can look
        // through multi-line `/* ... */` blocks exactly like it looks
        // through runs of `//` lines (token-bearing lines are removed
        // after lexing).
        if c == '/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 0;
            while i < b.len() {
                lx.comment_lines.insert(line);
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    bump!();
                    bump!();
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    bump!();
                    bump!();
                    if depth == 0 {
                        break;
                    }
                } else {
                    bump!();
                }
            }
            continue;
        }
        // Raw strings: r"..." / r#"..."# / br"..." etc.
        if let Some((hashes, open)) = raw_string_start(b, i) {
            let (l, cl) = (line, col);
            while i < open {
                bump!();
            }
            bump!(); // the opening quote
            while i < b.len() {
                if b[i] == b'"'
                    && b[i + 1..].len() >= hashes
                    && b[i + 1..i + 1 + hashes].iter().all(|&h| h == b'#')
                {
                    for _ in 0..=hashes {
                        bump!();
                    }
                    break;
                }
                bump!();
            }
            lx.toks.push(literal(l, cl));
            continue;
        }
        // String and byte-string literals.
        if c == '"' || (c == 'b' && i + 1 < b.len() && b[i + 1] == b'"') {
            let (l, cl) = (line, col);
            if c == 'b' {
                bump!();
            }
            bump!(); // opening quote
            while i < b.len() && b[i] != b'"' {
                if b[i] == b'\\' && i + 1 < b.len() {
                    bump!();
                }
                bump!();
            }
            if i < b.len() {
                bump!(); // closing quote
            }
            lx.toks.push(literal(l, cl));
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            if let Some(end) = char_literal_end(b, i) {
                let (l, cl) = (line, col);
                while i < end {
                    bump!();
                }
                lx.toks.push(literal(l, cl));
            } else {
                // Lifetime: skip the quote and the identifier.
                bump!();
                while i < b.len() && is_ident_char(b[i]) {
                    bump!();
                }
            }
            continue;
        }
        // Identifier / keyword.
        if is_ident_start(b[i]) {
            let (l, cl) = (line, col);
            let start = i;
            while i < b.len() && is_ident_char(b[i]) {
                bump!();
            }
            lx.toks.push(Tok {
                kind: TokKind::Ident,
                text: src[start..i].to_string(),
                line: l,
                col: cl,
            });
            continue;
        }
        // Number literal (including 0x..., suffixes, underscores).
        if b[i].is_ascii_digit() {
            let (l, cl) = (line, col);
            while i < b.len() && (is_ident_char(b[i]) || b[i] == b'.') {
                // Stop a `0..10` range from swallowing the dots.
                if b[i] == b'.' && i + 1 < b.len() && b[i + 1] == b'.' {
                    break;
                }
                bump!();
            }
            lx.toks.push(literal(l, cl));
            continue;
        }
        // Whitespace.
        if (b[i] as char).is_whitespace() {
            bump!();
            continue;
        }
        // Everything else: single punctuation char.
        lx.toks.push(Tok {
            kind: TokKind::Punct(c),
            text: String::new(),
            line,
            col,
        });
        bump!();
    }

    // A line with both code and a trailing comment is a code line: the
    // upward allow-walk must stop there.
    for t in &lx.toks {
        lx.comment_lines.remove(&t.line);
    }
    find_test_ranges(&mut lx);
    lx
}

fn literal(line: u32, col: u32) -> Tok {
    Tok {
        kind: TokKind::Lit,
        text: String::new(),
        line,
        col,
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// If `i` starts a raw (byte) string, returns `(hash_count, index of the
/// opening quote)`.
fn raw_string_start(b: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j < b.len() && b[j] == b'"' {
        Some((hashes, j))
    } else {
        None
    }
}

/// If `i` (at a `'`) starts a char literal, returns the index one past
/// its closing quote; `None` means it is a lifetime.
fn char_literal_end(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if j >= b.len() {
        return None;
    }
    if b[j] == b'\\' {
        // Escaped char: step over the escaped character itself (it may
        // be `'`, as in `'\''`), then scan to the closing quote.
        j += 1;
        if j < b.len() {
            j += 1;
        }
        while j < b.len() && b[j] != b'\'' {
            j += 1;
        }
        return (j < b.len()).then_some(j + 1);
    }
    if b[j] == b'\'' {
        return None; // `''` is not a char literal
    }
    // `'x'` is a char literal; `'x` followed by anything else (or more
    // ident chars) is a lifetime.
    if is_ident_char(b[j]) && j + 1 < b.len() && b[j + 1] == b'\'' {
        return Some(j + 2);
    }
    if !is_ident_char(b[j]) && j + 1 < b.len() && b[j + 1] == b'\'' {
        return Some(j + 2); // e.g. '+' or ' '
    }
    None
}

/// Finds `#[cfg(test)]` / `#[test]` attributed items and records their
/// line ranges. Any attribute containing the identifier `test` counts
/// (`#[cfg(all(test, ...))]` included) — unless the occurrence is
/// directly negated as `not(test)`, so `#[cfg(not(test))]` items stay
/// under the rules.
fn find_test_ranges(lx: &mut Lexed) {
    let toks = &lx.toks;
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        // Attribute span: `#[` ... matching `]`.
        let attr_start = i;
        let mut j = i + 2;
        let mut depth = 1;
        let mut has_test = false;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct('[') {
                depth += 1;
            } else if toks[j].is_punct(']') {
                depth -= 1;
            } else if toks[j].is_ident("test") {
                let negated = j >= 2 && toks[j - 1].is_punct('(') && toks[j - 2].is_ident("not");
                if !negated {
                    has_test = true;
                }
            }
            j += 1;
        }
        if !has_test {
            i = j;
            continue;
        }
        // Skip further attributes between this one and the item.
        while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
            let mut d = 1;
            let mut k = j + 2;
            while k < toks.len() && d > 0 {
                if toks[k].is_punct('[') {
                    d += 1;
                } else if toks[k].is_punct(']') {
                    d -= 1;
                }
                k += 1;
            }
            j = k;
        }
        // Item body: ends at the matching `}` of its first `{`, or at a
        // top-level `;` for brace-less items (`use`, type aliases).
        let mut d = 0i32;
        let mut end = j;
        while end < toks.len() {
            if toks[end].is_punct('{') {
                d += 1;
            } else if toks[end].is_punct('}') {
                d -= 1;
                if d == 0 {
                    break;
                }
            } else if toks[end].is_punct(';') && d == 0 {
                break;
            }
            end += 1;
        }
        let last = end.min(toks.len() - 1);
        lx.test_ranges
            .push((toks[attr_start].line, toks[last].line));
        i = end + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_do_not_tokenize() {
        let lx = lex(r#"let x = "SystemTime::now()"; // Instant::now in prose"#);
        assert!(!lx.toks.iter().any(|t| t.is_ident("SystemTime")));
        assert!(!lx.toks.iter().any(|t| t.is_ident("Instant")));
        assert!(lx.toks.iter().any(|t| t.is_ident("let")));
    }

    #[test]
    fn raw_strings_skip_cleanly() {
        let lx = lex(r##"let s = r#"thread_rng() "quoted" inside"#; let y = 1;"##);
        assert!(!lx.toks.iter().any(|t| t.is_ident("thread_rng")));
        assert!(lx.toks.iter().any(|t| t.is_ident("y")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lx = lex("fn f<'a>(x: &'a str) -> &'a str { x } let c = 'x'; let n = '\\n';");
        let idents: Vec<_> = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(idents.contains(&"str"));
        // 'a never shows up as an ident; 'x' and '\n' lex as literals.
        assert!(!idents.contains(&"a"));
        assert_eq!(lx.toks.iter().filter(|t| t.kind == TokKind::Lit).count(), 2);
    }

    #[test]
    fn allow_comments_attach_to_their_line() {
        let src = "fn f() {\n    // storm-lint: allow(no-panic): invariant\n    x.unwrap();\n}\n";
        let mut lx = lex(src);
        assert!(!lx.allows[&2][0].used);
        assert!(lx.allowed("no-panic", 2));
        assert!(lx.allowed("no-panic", 3), "next line is covered too");
        assert!(!lx.allowed("no-panic", 4), "code line ends the cover");
        assert!(!lx.allowed("no-hash-iter", 3));
        assert!(lx.allows[&2][0].used, "the answering allow is recorded");
    }

    #[test]
    fn allow_covers_through_comment_block() {
        let src = "fn f() {\n    // storm-lint: allow(no-panic): a long\n    // justification over\n    // several lines\n    x.unwrap();\n    y.unwrap();\n}\n";
        let mut lx = lex(src);
        assert!(lx.allowed("no-panic", 5), "reaches through comments");
        assert!(!lx.allowed("no-panic", 6), "but only the next code line");
    }

    #[test]
    fn trailing_comment_on_code_line_blocks_walk() {
        let src = "fn f() {\n    a(); // storm-lint: allow(no-panic): here\n    x.unwrap();\n    y.unwrap();\n}\n";
        let mut lx = lex(src);
        assert!(lx.allowed("no-panic", 2));
        assert!(lx.allowed("no-panic", 3), "directly-below still covered");
        assert!(!lx.allowed("no-panic", 4));
    }

    #[test]
    fn cfg_test_items_are_ranged() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let lx = lex(src);
        assert!(!lx.in_test(1));
        assert!(lx.in_test(3));
        assert!(lx.in_test(4));
        assert!(!lx.in_test(6));
    }

    #[test]
    fn test_attr_fn_is_ranged() {
        let src = "#[test]\nfn check() {\n    boom();\n}\nfn live() {}\n";
        let lx = lex(src);
        assert!(lx.in_test(3));
        assert!(!lx.in_test(5));
    }

    #[test]
    fn positions_are_one_based() {
        let lx = lex("a\n  bb\n");
        assert_eq!((lx.toks[0].line, lx.toks[0].col), (1, 1));
        assert_eq!((lx.toks[1].line, lx.toks[1].col), (2, 3));
    }

    #[test]
    fn block_comments_nest() {
        let lx = lex("/* outer /* inner */ still comment */ let x = 1;");
        assert!(lx.toks.iter().any(|t| t.is_ident("let")));
        assert!(!lx.toks.iter().any(|t| t.is_ident("outer")));
    }

    #[test]
    fn allow_covers_through_block_comment() {
        // Regression: a multi-line `/* */` block between the allow and
        // its target used to end the upward walk (block-comment lines
        // were never recorded as comment lines).
        let src = "fn f() {\n    // storm-lint: allow(no-panic): next code line\n    /* a block\n       comment between\n       allow and target */\n    x.unwrap();\n    y.unwrap();\n}\n";
        let mut lx = lex(src);
        assert!(lx.allowed("no-panic", 6), "reaches through the block");
        assert!(!lx.allowed("no-panic", 7), "but only the next code line");
    }

    #[test]
    fn nested_block_comment_keeps_line_map() {
        // Lines after a nested block comment must keep their true
        // numbers so `#[cfg(test)]` ranges and allows anchor correctly.
        let src = "/* outer\n /* inner\n  */\n still outer */\nfn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let lx = lex(src);
        let f = lx.toks.iter().find(|t| t.is_ident("live")).unwrap();
        assert_eq!(f.line, 5);
        assert!(!lx.in_test(5));
        assert!(lx.in_test(8));
    }

    #[test]
    fn multiline_raw_string_keeps_line_map() {
        // A raw string spanning lines (with embedded quotes and hashes)
        // must advance the line counter like any other bytes.
        let src =
            "let s = r##\"line one\n\"quoted\"# and\nmore\"##;\nfn live() {}\n#[test]\nfn t() {}\n";
        let lx = lex(src);
        let f = lx.toks.iter().find(|t| t.is_ident("live")).unwrap();
        assert_eq!(f.line, 4);
        assert!(lx.in_test(6));
        assert!(!lx.in_test(4));
    }

    #[test]
    fn escaped_quote_char_literal() {
        // `'\''` is a char literal, not a lifetime plus stray quotes.
        let lx = lex("let q = '\\''; let after = 1;");
        assert!(lx.toks.iter().any(|t| t.is_ident("after")));
        assert!(!lx.toks.iter().any(|t| t.kind == TokKind::Punct('\'')));
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src =
            "#[cfg(not(test))]\nfn live() {\n    x.unwrap();\n}\n#[cfg(test)]\nmod tests {}\n";
        let lx = lex(src);
        assert!(!lx.in_test(3), "not(test) items stay under the rules");
        assert!(lx.in_test(5));
    }
}
