//! Per-file item extraction: `fn` definitions (with their call sites
//! and direct taint sources), `impl` blocks, `use` imports, string
//! constants and allow-comments, summarized into a [`FileSummary`].
//!
//! The summary is the unit of caching: it is config-independent (raw
//! lexical hits carry no scope or suppression decisions) and derived
//! purely from the file's bytes, so it can be keyed by content hash.
//! The interprocedural engine ([`crate::callgraph`], [`crate::taint`])
//! consumes summaries only — it never re-reads source text.
//!
//! The item parser is a token walk, not a grammar: it recognizes `mod`
//! / `impl` / `trait` / `fn` / `use` / `const` heads and brace-matches
//! bodies. Known imprecision (documented in DESIGN.md §3.16): items
//! nested inside function bodies are attributed to the enclosing
//! function, turbofish paths resolve by their trailing segments, and
//! macro bodies are scanned as plain tokens.

use crate::lexer::{self, Lexed, TokKind};
use crate::rules::{self, Rule};

/// Taint property bits.
pub const P_WALL_CLOCK: u8 = 1 << 0;
/// Ambient randomness.
pub const P_AMBIENT_RAND: u8 = 1 << 1;
/// Hasher-order iteration.
pub const P_HASH_ITER: u8 = 1 << 2;
/// `unwrap`/`expect`/`panic!`.
pub const P_MAY_PANIC: u8 = 1 << 3;
/// Heap allocation / buffer growth.
pub const P_ALLOCATES: u8 = 1 << 4;

/// All property bits in reporting order.
pub const ALL_PROPS: [u8; 5] = [
    P_WALL_CLOCK,
    P_AMBIENT_RAND,
    P_HASH_ITER,
    P_MAY_PANIC,
    P_ALLOCATES,
];

/// The stable name of a property bit.
pub fn prop_name(p: u8) -> &'static str {
    match p {
        P_WALL_CLOCK => "reads-wall-clock",
        P_AMBIENT_RAND => "ambient-randomness",
        P_HASH_ITER => "hash-order-iteration",
        P_MAY_PANIC => "may-panic",
        P_ALLOCATES => "allocates",
        _ => "unknown-property",
    }
}

/// How a call site is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(..)` — bare name.
    Plain,
    /// `a::b::helper(..)` — path-qualified.
    Path,
    /// `x.method(..)` — method syntax.
    Method,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Syntax form.
    pub kind: CallKind,
    /// Path segments; a single element for `Plain`/`Method`.
    pub path: Vec<String>,
    /// For `Method`: receiver is literally `self`.
    pub recv_self: bool,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// A direct taint source inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectProp {
    /// Property bit.
    pub prop: u8,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Short backticked description, e.g. `` `Instant` ``.
    pub what: String,
}

/// One `fn` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Inline `mod` nesting inside the file (file-level modules from
    /// the path are added by the call-graph layer).
    pub modules: Vec<String>,
    /// Self type for methods in `impl` blocks; empty for free fns and
    /// trait default methods.
    pub impl_type: String,
    /// Trait name for `impl Trait for Type` methods and trait default
    /// methods; empty otherwise.
    pub trait_name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Line of the closing brace.
    pub end_line: u32,
    /// Inside a `#[cfg(test)]` / `#[test]` item.
    pub in_test: bool,
    /// Call sites in the body.
    pub calls: Vec<CallSite>,
    /// Direct taint sources in the body.
    pub props: Vec<DirectProp>,
}

/// One `use` import: `alias` names the last path segment (or the `as`
/// rename); `path` is the full imported path. A glob import stores the
/// alias `"*"` with the prefix as `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseImport {
    /// Local name the import binds.
    pub alias: String,
    /// Imported path segments.
    pub path: Vec<String>,
}

/// A string literal passed to a metrics-registry method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricLit {
    /// Method name (`inc`, `observe`, `tenant_scoped`, ...).
    pub method: String,
    /// The literal's value.
    pub value: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One inline allow-comment with its precomputed cover range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDecl {
    /// Rule names listed in the comment (not yet validated).
    pub rules: Vec<String>,
    /// Line of the comment.
    pub line: u32,
    /// Last covered line: the next code line, looking through
    /// comment-only lines (equals `line` for a trailing comment).
    pub end_line: u32,
    /// Inside a test item (exempt from stale-allow reporting).
    pub in_test: bool,
}

/// One raw lexical hit tagged with its rule (scope/suppression are
/// applied later by the engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexHit {
    /// The rule the hit belongs to.
    pub rule: Rule,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Finding message.
    pub message: String,
}

/// Everything the interprocedural engine needs to know about one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileSummary {
    /// Workspace-relative path (`/` separators).
    pub rel_path: String,
    /// Function items.
    pub fns: Vec<FnDef>,
    /// `use` imports.
    pub uses: Vec<UseImport>,
    /// `const NAME: &str = "value"` items, as `(name, value)`.
    pub consts: Vec<(String, String)>,
    /// Metric-name literals outside test code.
    pub metric_lits: Vec<MetricLit>,
    /// Allow-comments with cover ranges.
    pub allows: Vec<AllowDecl>,
    /// Raw lexical hits outside test code.
    pub lexical: Vec<LexHit>,
    /// File carries `#![forbid(unsafe_code)]`.
    pub has_forbid_unsafe: bool,
}

/// Keywords that look like `name(` but are never calls.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "while", "match", "return", "for", "loop", "let", "else", "move", "break", "continue",
    "in", "as", "await",
];

/// Summarizes one file's source text.
pub fn summarize(rel_path: &str, src: &str) -> FileSummary {
    let lx = lexer::lex(src);
    let mut out = FileSummary {
        rel_path: rel_path.to_string(),
        has_forbid_unsafe: rules::has_forbid_unsafe(&lx),
        ..FileSummary::default()
    };

    // Allow-comments with their cover range (the upward walk in
    // `Lexed::allowed`, precomputed downward).
    let last_line = lx.toks.last().map(|t| t.line).unwrap_or(0);
    for (&line, rules_at) in &lx.allows {
        let mut end = line;
        let mut l = line + 1;
        while lx.comment_lines.contains(&l) {
            l += 1;
        }
        if l <= last_line + 1 {
            end = l;
        }
        out.allows.push(AllowDecl {
            rules: rules_at.clone(),
            line,
            end_line: end,
            in_test: lx.in_test(line),
        });
    }

    // Items: fns (with bodies scanned for calls), uses, consts.
    let mut mods = Vec::new();
    parse_items(&lx, 0, lx.toks.len(), &mut mods, "", "", &mut out);

    // Raw lexical hits, rule-tagged, outside test code.
    let mut push_hits = |rule: Rule, hits: Vec<rules::Hit>| {
        for h in hits {
            if !lx.in_test(h.line) {
                out.lexical.push(LexHit {
                    rule,
                    line: h.line,
                    col: h.col,
                    message: h.message,
                });
            }
        }
    };
    push_hits(Rule::NoWallClock, rules::wall_clock_hits(&lx));
    push_hits(Rule::NoAmbientRand, rules::ambient_rand_hits(&lx));
    push_hits(Rule::NoHashIter, rules::hash_iter_hits(&lx));
    push_hits(Rule::NoHotPathCopy, rules::hot_path_copy_hits(&lx));
    push_hits(Rule::NoPanic, rules::panic_hits(&lx));

    // Direct taint sources, attributed to the enclosing fn by line.
    let attach = |prop: u8, hits: Vec<rules::Hit>, fns: &mut Vec<FnDef>| {
        for h in hits {
            if let Some(f) = fns
                .iter_mut()
                .find(|f| f.line <= h.line && h.line <= f.end_line)
            {
                f.props.push(DirectProp {
                    prop,
                    line: h.line,
                    col: h.col,
                    what: h.what,
                });
            }
        }
    };
    attach(P_WALL_CLOCK, rules::wall_clock_hits(&lx), &mut out.fns);
    attach(P_AMBIENT_RAND, rules::ambient_rand_hits(&lx), &mut out.fns);
    attach(P_HASH_ITER, rules::hash_iter_hits(&lx), &mut out.fns);
    attach(P_MAY_PANIC, rules::panic_hits(&lx), &mut out.fns);
    attach(P_ALLOCATES, rules::alloc_hits(&lx), &mut out.fns);

    // Metric literals outside test code.
    for (method, value, line, col) in rules::metric_call_literals(&lx) {
        if !lx.in_test(line) {
            out.metric_lits.push(MetricLit {
                method,
                value,
                line,
                col,
            });
        }
    }
    out
}

/// Finds the matching `}` for the `{` at `open` (token index). Returns
/// the index of the closing token, or the last token on imbalance.
fn brace_match(lx: &Lexed, open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < lx.toks.len() {
        if lx.toks[i].is_punct('{') {
            depth += 1;
        } else if lx.toks[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    lx.toks.len().saturating_sub(1)
}

/// Skips a `<...>` generics group starting at `i` (which must be `<`).
/// `->` arrows inside (e.g. `impl<F: Fn() -> u32>`) do not close it.
fn skip_generics(lx: &Lexed, i: usize) -> usize {
    let toks = &lx.toks;
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct('<') {
            depth += 1;
        } else if toks[j].is_punct('>') && !(j >= 1 && toks[j - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

/// Walks items in token range `[lo, hi)`.
fn parse_items(
    lx: &Lexed,
    lo: usize,
    hi: usize,
    mods: &mut Vec<String>,
    impl_type: &str,
    trait_name: &str,
    out: &mut FileSummary,
) {
    let toks = &lx.toks;
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "mod" => {
                let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
                    i += 1;
                    continue;
                };
                if toks.get(i + 2).is_some_and(|t| t.is_punct('{')) {
                    let close = brace_match(lx, i + 2);
                    mods.push(name.text.clone());
                    parse_items(lx, i + 3, close, mods, "", "", out);
                    mods.pop();
                    i = close + 1;
                } else {
                    i += 2; // `mod name;` — an out-of-line module file
                }
            }
            "impl" => {
                let (ty, tr, body) = parse_impl_head(lx, i, hi);
                match body {
                    Some(open) => {
                        let close = brace_match(lx, open);
                        parse_items(lx, open + 1, close, mods, &ty, &tr, out);
                        i = close + 1;
                    }
                    None => i += 1,
                }
            }
            "trait" => {
                let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
                    i += 1;
                    continue;
                };
                let mut j = i + 2;
                while j < hi && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    j += 1;
                }
                if j < hi && toks[j].is_punct('{') {
                    let close = brace_match(lx, j);
                    // Default methods belong to the trait, not a type.
                    parse_items(lx, j + 1, close, mods, "", &name.text, out);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
            }
            "fn" => {
                let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
                    i += 1;
                    continue;
                };
                // Signature runs to the body `{` or a `;` (trait method
                // declaration). `;` inside `[u8; 4]` return types is
                // shielded by bracket depth.
                let mut j = i + 2;
                let mut brackets = 0i32;
                let mut body = None;
                while j < toks.len() {
                    if toks[j].is_punct('[') {
                        brackets += 1;
                    } else if toks[j].is_punct(']') {
                        brackets -= 1;
                    } else if toks[j].is_punct('{') {
                        body = Some(j);
                        break;
                    } else if toks[j].is_punct(';') && brackets == 0 {
                        break;
                    }
                    j += 1;
                }
                match body {
                    Some(open) => {
                        let close = brace_match(lx, open);
                        let mut f = FnDef {
                            name: name.text.clone(),
                            modules: mods.clone(),
                            impl_type: impl_type.to_string(),
                            trait_name: trait_name.to_string(),
                            line: t.line,
                            end_line: toks[close].line,
                            in_test: lx.in_test(t.line),
                            calls: Vec::new(),
                            props: Vec::new(),
                        };
                        scan_body(lx, open + 1, close, &mut f);
                        out.fns.push(f);
                        i = close + 1;
                    }
                    None => i = j + 1, // declaration without body
                }
            }
            "use" => {
                let mut j = i + 1;
                while j < toks.len() && !toks[j].is_punct(';') {
                    j += 1;
                }
                parse_use_tree(lx, i + 1, j, &[], &mut out.uses);
                i = j + 1;
            }
            "const" => {
                // `const NAME : & str = "value"` — the string-constant
                // form that defines metric names.
                if let Some((name, value)) = parse_str_const(lx, i) {
                    out.consts.push((name, value));
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Parses an `impl` head starting at token `i` (the `impl` keyword).
/// Returns `(self_type, trait_name, body_open_index)`.
fn parse_impl_head(lx: &Lexed, i: usize, hi: usize) -> (String, String, Option<usize>) {
    let toks = &lx.toks;
    let mut j = i + 1;
    if j < hi && toks[j].is_punct('<') {
        j = skip_generics(lx, j);
    }
    // Scan to the body, tracking the last angle-depth-0 identifier seen
    // before and after an angle-depth-0 `for`.
    let mut depth = 0i32;
    let mut before = String::new();
    let mut after = String::new();
    let mut saw_for = false;
    let mut saw_where = false;
    let mut body = None;
    while j < hi {
        let t = &toks[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(j >= 1 && toks[j - 1].is_punct('-')) {
            depth -= 1;
        } else if t.is_punct('{') && depth <= 0 {
            body = Some(j);
            break;
        } else if depth == 0 && t.kind == TokKind::Ident && !saw_where {
            if t.text == "for" && !toks.get(j + 1).is_some_and(|n| n.is_punct('<')) {
                saw_for = true;
            } else if t.text == "where" {
                // Only the body `{` matters past a where clause.
                saw_where = true;
            } else if t.text != "dyn" && t.text != "mut" {
                if saw_for {
                    after = t.text.clone();
                } else {
                    before = t.text.clone();
                }
            }
        }
        j += 1;
    }
    if saw_for {
        (after, before, body)
    } else {
        (before, String::new(), body)
    }
}

/// Parses a `use` tree between `[lo, hi)` (exclusive of `use` and `;`),
/// appending imports. Handles `a::b::c`, `as` renames, `{...}` groups
/// (nested) and `*` globs.
fn parse_use_tree(lx: &Lexed, lo: usize, hi: usize, prefix: &[String], out: &mut Vec<UseImport>) {
    let toks = &lx.toks;
    let depth_at = |i: usize| -> i32 {
        let mut d = 0;
        for t in &toks[lo..i] {
            if t.is_punct('{') {
                d += 1;
            } else if t.is_punct('}') {
                d -= 1;
            }
        }
        d
    };
    // Split the range into top-level comma groups.
    let mut groups = Vec::new();
    let mut start = lo;
    for (i, t) in toks.iter().enumerate().take(hi).skip(lo) {
        if t.is_punct(',') && depth_at(i) == 0 {
            groups.push((start, i));
            start = i + 1;
        }
    }
    groups.push((start, hi));
    for (glo, ghi) in groups {
        if glo >= ghi {
            continue;
        }
        let mut segs = prefix.to_vec();
        let mut i = glo;
        let mut alias: Option<String> = None;
        let mut done = false;
        while i < ghi && !done {
            let t = &toks[i];
            if t.kind == TokKind::Ident && t.text == "as" {
                if let Some(a) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                    alias = Some(a.text.clone());
                }
                i += 2;
            } else if t.kind == TokKind::Ident {
                segs.push(t.text.clone());
                i += 1;
            } else if t.is_punct('*') {
                out.push(UseImport {
                    alias: "*".to_string(),
                    path: segs.clone(),
                });
                done = true;
            } else if t.is_punct('{') {
                let mut d = 0;
                let mut close = i;
                for (k, tk) in toks.iter().enumerate().take(ghi).skip(i) {
                    if tk.is_punct('{') {
                        d += 1;
                    } else if tk.is_punct('}') {
                        d -= 1;
                        if d == 0 {
                            close = k;
                            break;
                        }
                    }
                }
                parse_use_tree(lx, i + 1, close, &segs, out);
                done = true;
            } else {
                i += 1; // `::`
            }
        }
        if !done && !segs.is_empty() && segs.len() > prefix.len() {
            let alias = alias.unwrap_or_else(|| segs.last().cloned().unwrap_or_default());
            // `use x::y::{self}` / `use x::y::self` binds `y`.
            if alias == "self" {
                if segs.len() >= 2 {
                    let path = segs[..segs.len() - 1].to_vec();
                    let name = path.last().cloned().unwrap_or_default();
                    out.push(UseImport { alias: name, path });
                }
            } else {
                out.push(UseImport { alias, path: segs });
            }
        }
    }
}

/// Parses `const NAME: &str = "value"` at token `i` (the `const`
/// keyword). Returns `(name, value)` on match.
fn parse_str_const(lx: &Lexed, i: usize) -> Option<(String, String)> {
    let toks = &lx.toks;
    let name = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident)?;
    if !toks.get(i + 2).is_some_and(|t| t.is_punct(':')) {
        return None;
    }
    let mut j = i + 3;
    while toks
        .get(j)
        .is_some_and(|t| t.is_punct('&') || t.is_punct('\'') || t.is_ident("static"))
    {
        j += 1;
    }
    if !toks.get(j).is_some_and(|t| t.is_ident("str")) {
        return None;
    }
    if !toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
        return None;
    }
    let val = toks.get(j + 2).filter(|t| t.kind == TokKind::Str)?;
    Some((name.text.clone(), val.text.clone()))
}

/// Scans a function body (token range) for call sites.
fn scan_body(lx: &Lexed, lo: usize, hi: usize, f: &mut FnDef) {
    let toks = &lx.toks;
    for i in lo..hi {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        // Method call: `recv . name (`.
        if i >= 1 && toks[i - 1].is_punct('.') {
            let recv_self = i >= 2 && toks[i - 2].is_ident("self");
            f.calls.push(CallSite {
                kind: CallKind::Method,
                path: vec![t.text.clone()],
                recv_self,
                line: t.line,
                col: t.col,
            });
            continue;
        }
        // Path call: walk `seg :: seg :: name (` backwards; a turbofish
        // `>` stops the walk (trailing segments still resolve).
        if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
            let mut segs = vec![t.text.clone()];
            let mut j = i;
            while j >= 3
                && toks[j - 1].is_punct(':')
                && toks[j - 2].is_punct(':')
                && toks[j - 3].kind == TokKind::Ident
            {
                segs.insert(0, toks[j - 3].text.clone());
                j -= 3;
            }
            f.calls.push(CallSite {
                kind: CallKind::Path,
                path: segs,
                recv_self: false,
                line: t.line,
                col: t.col,
            });
            continue;
        }
        // Plain call: `name (` not preceded by `fn` (a nested fn
        // definition) and not a macro (`name !` never reaches here).
        if i >= 1 && toks[i - 1].is_ident("fn") {
            continue;
        }
        // Skip tuple-struct-like constructors of uppercase idents?
        // No: `Some(..)`/`Ok(..)` resolve to nothing and are dropped by
        // the resolver, which keeps this layer simple.
        f.calls.push(CallSite {
            kind: CallKind::Plain,
            path: vec![t.text.clone()],
            recv_self: false,
            line: t.line,
            col: t.col,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_fns_impls_and_calls() {
        let src = "\
use storm_iscsi::pdu::Pdu;
fn free() {
    helper();
    util::deep(1);
    x.method_call();
}
struct T;
impl T {
    fn inherent(&self) {
        self.own();
    }
}
impl Clone for T {
    fn clone(&self) -> T {
        other::thing();
        T
    }
}
";
        let s = summarize("crates/x/src/lib.rs", src);
        assert_eq!(s.fns.len(), 3);
        assert_eq!(s.fns[0].name, "free");
        let kinds: Vec<_> = s.fns[0].calls.iter().map(|c| c.kind).collect();
        assert_eq!(kinds, [CallKind::Plain, CallKind::Path, CallKind::Method]);
        assert_eq!(s.fns[0].calls[1].path, ["util", "deep"]);
        assert_eq!(s.fns[1].impl_type, "T");
        assert_eq!(s.fns[1].trait_name, "");
        assert!(s.fns[1].calls[0].recv_self);
        assert_eq!(s.fns[2].impl_type, "T");
        assert_eq!(s.fns[2].trait_name, "Clone");
        assert_eq!(s.uses.len(), 1);
        assert_eq!(s.uses[0].alias, "Pdu");
        assert_eq!(s.uses[0].path, ["storm_iscsi", "pdu", "Pdu"]);
    }

    #[test]
    fn impl_head_with_generics_and_for() {
        let src = "impl<F: FnMut() -> u32> Runner for Wrapper<F> {\n    fn run(&mut self) {}\n}\n";
        let s = summarize("crates/x/src/lib.rs", src);
        assert_eq!(s.fns[0].impl_type, "Wrapper");
        assert_eq!(s.fns[0].trait_name, "Runner");
    }

    #[test]
    fn inline_mods_nest() {
        let src =
            "mod outer {\n    mod inner {\n        fn deep() {}\n    }\n    fn shallow() {}\n}\n";
        let s = summarize("crates/x/src/lib.rs", src);
        let deep = s.fns.iter().find(|f| f.name == "deep").unwrap();
        assert_eq!(deep.modules, ["outer", "inner"]);
        let shallow = s.fns.iter().find(|f| f.name == "shallow").unwrap();
        assert_eq!(shallow.modules, ["outer"]);
    }

    #[test]
    fn use_groups_globs_and_renames() {
        let src = "use a::{b, c::d, e as f};\nuse g::*;\nuse h::i::{self, j};\n";
        let s = summarize("crates/x/src/lib.rs", src);
        let find = |alias: &str| s.uses.iter().find(|u| u.alias == alias);
        assert_eq!(find("b").unwrap().path, ["a", "b"]);
        assert_eq!(find("d").unwrap().path, ["a", "c", "d"]);
        assert_eq!(find("f").unwrap().path, ["a", "e"]);
        assert_eq!(find("*").unwrap().path, ["g"]);
        assert_eq!(find("i").unwrap().path, ["h", "i"]);
        assert_eq!(find("j").unwrap().path, ["h", "i", "j"]);
    }

    #[test]
    fn direct_props_attach_to_enclosing_fn() {
        let src = "\
fn clocky() {
    let t = Instant::now();
}
fn allocy() -> Vec<u8> {
    vec![0u8; 4]
}
";
        let s = summarize("crates/x/src/util.rs", src);
        assert_eq!(s.fns[0].props[0].prop, P_WALL_CLOCK);
        assert_eq!(s.fns[0].props[0].what, "`Instant`");
        assert!(s.fns[1].props.iter().any(|p| p.prop == P_ALLOCATES));
    }

    #[test]
    fn trait_default_methods_carry_trait_name() {
        let src = "trait ShardSim {\n    fn tick(&mut self) {\n        helper();\n    }\n    fn required(&self);\n}\n";
        let s = summarize("crates/x/src/lib.rs", src);
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].trait_name, "ShardSim");
        assert_eq!(s.fns[0].impl_type, "");
    }

    #[test]
    fn str_consts_and_metric_lits() {
        let src = "\
pub const RELAY_PDUS: &str = \"relay.pdus\";
fn record(reg: &mut Registry) {
    reg.inc(\"relay.pdus\", 1);
    reg.observe(\"relay.typo\", 2.0);
}
#[cfg(test)]
mod tests {
    fn t(reg: &mut Registry) {
        reg.inc(\"test.only\", 1);
    }
}
";
        let s = summarize("crates/telemetry/src/names.rs", src);
        assert_eq!(
            s.consts,
            [("RELAY_PDUS".to_string(), "relay.pdus".to_string())]
        );
        let vals: Vec<_> = s.metric_lits.iter().map(|m| m.value.as_str()).collect();
        assert_eq!(vals, ["relay.pdus", "relay.typo"], "test sites excluded");
    }

    #[test]
    fn allow_cover_ranges_precomputed() {
        let src = "fn f() {\n    // storm-lint: allow(no-panic): why\n    // more words\n    x.unwrap();\n    y.unwrap();\n}\n";
        let s = summarize("crates/x/src/lib.rs", src);
        assert_eq!(s.allows.len(), 1);
        assert_eq!((s.allows[0].line, s.allows[0].end_line), (2, 4));
        assert!(!s.allows[0].in_test);
    }

    #[test]
    fn lexical_hits_skip_test_code() {
        let src = "fn live() { let t = SystemTime::now(); }\n#[cfg(test)]\nmod tests {\n    fn t() { let i = Instant::now(); }\n}\n";
        let s = summarize("crates/sim/src/x.rs", src);
        assert_eq!(s.lexical.len(), 1);
        assert_eq!(s.lexical[0].rule, Rule::NoWallClock);
    }
}
