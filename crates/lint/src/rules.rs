//! The rule set: which invariants are checked, where, and how.
//!
//! Every rule matches token patterns in one file. The raw detectors
//! (`*_hits`) report every occurrence; [`check_file`] applies scope, the
//! test-code exemption and both escape hatches, then reports the allows
//! that suppressed nothing.

use std::collections::BTreeSet;

use crate::config::{Config, FileClass};
use crate::diag::Finding;
use crate::lexer::{Lexed, TokKind};

/// Stable identifiers for every rule. These names appear in inline
/// `// storm-lint: allow(<name>)` comments, config allowlists and the
/// diagnostics, so they are part of the tool's interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Determinism: no wall-clock time sources in simulation crates.
    NoWallClock,
    /// Determinism: no ambient (OS-seeded) randomness in simulation
    /// crates.
    NoAmbientRand,
    /// Determinism: no iteration over `HashMap`/`HashSet`/`IdMap` in
    /// simulation crates (hasher order leaks into traces and metrics).
    NoHashIter,
    /// Zero-copy: no payload copies on datapath modules.
    NoHotPathCopy,
    /// Panic hygiene: no `unwrap`/`expect`/`panic!` on datapath modules.
    NoPanic,
    /// Unsafe coverage: every crate root carries
    /// `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// Escape hygiene: an inline `storm-lint: allow(...)` that no
    /// longer suppresses any finding.
    StaleAllow,
}

/// All rules, in reporting order.
pub const ALL_RULES: [Rule; 7] = [
    Rule::NoWallClock,
    Rule::NoAmbientRand,
    Rule::NoHashIter,
    Rule::NoHotPathCopy,
    Rule::NoPanic,
    Rule::ForbidUnsafe,
    Rule::StaleAllow,
];

impl Rule {
    /// The rule's stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoWallClock => "no-wall-clock",
            Rule::NoAmbientRand => "no-ambient-rand",
            Rule::NoHashIter => "no-hash-iter",
            Rule::NoHotPathCopy => "no-hot-path-copy",
            Rule::NoPanic => "no-panic",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::StaleAllow => "stale-allow",
        }
    }

    /// The remediation hint attached to every finding of this rule.
    pub fn suggestion(self) -> &'static str {
        match self {
            Rule::NoWallClock => {
                "use the simulated clock (storm_sim::SimTime / Cx::now()); wall-clock time \
                 makes runs irreproducible"
            }
            Rule::NoAmbientRand => {
                "draw randomness from the experiment's seeded storm_sim::SimRng (fork() for \
                 independent streams)"
            }
            Rule::NoHashIter => {
                "switch the container to BTreeMap/BTreeSet, or collect and sort before \
                 iterating; hasher order must not reach traces or metrics"
            }
            Rule::NoHotPathCopy => {
                "keep payloads as refcounted Bytes (slice()/try_join()/WireChunks); if the \
                 copy is a counted slow path, annotate it with an allow comment stating why"
            }
            Rule::NoPanic => {
                "return a typed error (PduError/RelayError) or restructure with if-let so the \
                 invariant failure degrades instead of aborting the relay"
            }
            Rule::ForbidUnsafe => "add `#![forbid(unsafe_code)]` to the crate root",
            Rule::StaleAllow => {
                "this allow no longer suppresses any finding; delete the comment (or fix its \
                 rule name) so unused escapes cannot hide regressions"
            }
        }
    }

    /// Parses a rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.into_iter().find(|r| r.name() == name)
    }
}

/// One raw lexical hit: a source location and the finding message. Raw
/// hits carry no scope or suppression decisions.
#[derive(Debug)]
struct Hit {
    line: u32,
    col: u32,
    message: String,
}

impl Hit {
    fn new(line: u32, col: u32, message: String) -> Hit {
        Hit { line, col, message }
    }
}

/// Iterator-producing methods whose order depends on the hasher.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_values",
];

/// Wall-clock identifiers (matched as whole identifiers only, never in
/// strings or comments).
const WALL_CLOCK_IDENTS: [&str; 2] = ["SystemTime", "Instant"];

/// Ambient-randomness identifiers.
const AMBIENT_RAND_IDENTS: [&str; 4] = ["thread_rng", "OsRng", "from_entropy", "from_os_rng"];

/// Copying calls banned on datapath modules.
const COPY_IDENTS: [&str; 4] = ["to_vec", "to_owned", "copy_from_slice", "extend_from_slice"];

/// Panicking calls banned on datapath modules. The macro set covers the
/// `name!` form; `unwrap`/`expect` cover the method form.
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Runs every applicable rule over one lexed file, then reports the
/// allows that suppressed nothing (stale-allow must come last: the rules
/// before it record each allow they consult).
pub fn check_file(class: &FileClass, lexed: &mut Lexed, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.is_determinism_scoped(class) {
        for h in wall_clock_hits(lexed) {
            emit(Rule::NoWallClock, class, lexed, cfg, h, out);
        }
        for h in ambient_rand_hits(lexed) {
            emit(Rule::NoAmbientRand, class, lexed, cfg, h, out);
        }
        for h in hash_iter_hits(lexed) {
            emit(Rule::NoHashIter, class, lexed, cfg, h, out);
        }
    }
    if cfg.is_datapath(class) {
        for h in hot_path_copy_hits(lexed) {
            emit(Rule::NoHotPathCopy, class, lexed, cfg, h, out);
        }
        for h in panic_hits(lexed) {
            emit(Rule::NoPanic, class, lexed, cfg, h, out);
        }
    }
    // A file-level property: no test-range check.
    if class.is_crate_root
        && !has_forbid_unsafe(lexed)
        && !lexed.allowed(Rule::ForbidUnsafe.name(), 1)
    {
        let message = "crate root lacks `#![forbid(unsafe_code)]`".to_string();
        push(Rule::ForbidUnsafe, class, cfg, Hit::new(1, 1, message), out);
    }
    check_stale_allows(class, lexed, cfg, out);
}

/// Pushes a finding unless the site is in test code, inline-allowed, or
/// the file is on the rule's config allowlist.
fn emit(
    rule: Rule,
    class: &FileClass,
    lexed: &mut Lexed,
    cfg: &Config,
    hit: Hit,
    out: &mut Vec<Finding>,
) {
    if !lexed.in_test(hit.line) && !lexed.allowed(rule.name(), hit.line) {
        push(rule, class, cfg, hit, out);
    }
}

fn push(rule: Rule, class: &FileClass, cfg: &Config, hit: Hit, out: &mut Vec<Finding>) {
    if !cfg.is_path_allowed(rule, class) {
        out.push(Finding {
            rule: rule.name(),
            file: class.rel_path.clone(),
            line: hit.line,
            col: hit.col,
            message: hit.message,
            suggestion: rule.suggestion(),
        });
    }
}

/// Reports every allow outside test code that suppressed nothing in this
/// file, and every allow naming no rule. An allow only ever covers lines
/// of its own file, so this is complete once the file's rules have run.
fn check_stale_allows(class: &FileClass, lexed: &Lexed, cfg: &Config, out: &mut Vec<Finding>) {
    for (&line, allows) in &lexed.allows {
        if lexed.in_test(line) {
            continue;
        }
        for a in allows {
            let message = match Rule::from_name(&a.rule) {
                None => format!("unknown rule `{}` in allow comment", a.rule),
                Some(_) if a.used => continue,
                Some(_) => format!(
                    "stale allow: `{}` does not suppress any finding here",
                    a.rule
                ),
            };
            push(
                Rule::StaleAllow,
                class,
                cfg,
                Hit::new(line, 1, message),
                out,
            );
        }
    }
}

/// Raw wall-clock hits: `SystemTime` / `Instant` / `std::time`.
fn wall_clock_hits(lx: &Lexed) -> Vec<Hit> {
    let mut out = Vec::new();
    for (i, t) in lx.toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if WALL_CLOCK_IDENTS.contains(&t.text.as_str()) {
            out.push(Hit::new(
                t.line,
                t.col,
                format!("wall-clock type `{}` in deterministic code", t.text),
            ));
        }
        // `std :: time` path segment.
        if t.is_ident("std")
            && lx.toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && lx.toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && lx.toks.get(i + 3).is_some_and(|t| t.is_ident("time"))
        {
            out.push(Hit::new(
                t.line,
                t.col,
                "`std::time` in deterministic code".to_string(),
            ));
        }
    }
    out
}

/// Raw ambient-randomness hits.
fn ambient_rand_hits(lx: &Lexed) -> Vec<Hit> {
    let mut out = Vec::new();
    for (i, t) in lx.toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if AMBIENT_RAND_IDENTS.contains(&t.text.as_str()) {
            out.push(Hit::new(
                t.line,
                t.col,
                format!("ambient randomness source `{}`", t.text),
            ));
        }
        // `rand :: random` free function (the seeded `SimRng::random`
        // method is fine; only the ambient path-form is flagged).
        if t.is_ident("rand")
            && lx.toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && lx.toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && lx.toks.get(i + 3).is_some_and(|t| t.is_ident("random"))
        {
            out.push(Hit::new(
                t.line,
                t.col,
                "`rand::random` draws from the ambient thread RNG".to_string(),
            ));
        }
    }
    out
}

/// Collects identifiers bound to `HashMap`/`HashSet`, or to
/// `storm_sim::IdMap` (a `HashMap` under another name), in this file:
/// struct fields and annotated bindings (`name: HashMap<..>`, possibly
/// behind `&`/`&mut`), plus `let name = HashMap::new()`-style inits.
fn hash_bound_names(lx: &Lexed) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let toks = &lx.toks;
    let is_hash = |i: usize| {
        toks.get(i)
            .is_some_and(|t| t.is_ident("HashMap") || t.is_ident("HashSet") || t.is_ident("IdMap"))
    };
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        // `name :` [&] [mut] [std :: collections ::] HashMap
        if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            let mut j = i + 2;
            while toks
                .get(j)
                .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
            {
                j += 1;
            }
            // Skip a fully qualified `std :: collections ::` prefix.
            while toks.get(j).is_some_and(|t| t.kind == TokKind::Ident)
                && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
                && !is_hash(j)
            {
                j += 3;
            }
            if is_hash(j) {
                names.insert(toks[i].text.clone());
            }
        }
        // `let [mut] name = [prefix ::] HashMap :: new ( ... )`
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            if !toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
                continue;
            }
            let mut k = j + 2;
            while toks.get(k).is_some_and(|t| t.kind == TokKind::Ident)
                && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
                && !is_hash(k)
            {
                k += 3;
            }
            if is_hash(k) {
                names.insert(name.text.clone());
            }
        }
    }
    names
}

/// Raw hasher-order iteration hits.
fn hash_iter_hits(lx: &Lexed) -> Vec<Hit> {
    let mut out = Vec::new();
    let tracked = hash_bound_names(lx);
    if tracked.is_empty() {
        return out;
    }
    let toks = &lx.toks;
    for i in 0..toks.len() {
        // `name . iter ( ... )` — also matches `self.name.iter()` since
        // the receiver identifier sits directly before the dot.
        if toks[i].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i].text.as_str())
            && i >= 2
            && toks[i - 1].is_punct('.')
            && toks[i - 2].kind == TokKind::Ident
            && tracked.contains(&toks[i - 2].text)
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            out.push(Hit::new(
                toks[i].line,
                toks[i].col,
                format!(
                    "hasher-order iteration: `{}.{}()` on a HashMap/HashSet",
                    toks[i - 2].text,
                    toks[i].text
                ),
            ));
        }
        // `for pat in <expr ending in a tracked name> {`
        if toks[i].is_ident("for") && !toks.get(i + 1).is_some_and(|t| t.is_punct('<')) {
            let mut j = i + 1;
            let mut found_in = None;
            while j < toks.len() && !toks[j].is_punct('{') {
                if toks[j].is_ident("in") {
                    found_in = Some(j);
                }
                j += 1;
            }
            let (Some(in_idx), true) = (found_in, j < toks.len()) else {
                continue;
            };
            // The last identifier of the iterated expression.
            let last_ident = toks[in_idx + 1..j]
                .iter()
                .rev()
                .find(|t| t.kind == TokKind::Ident);
            if let Some(t) = last_ident {
                if tracked.contains(&t.text) {
                    out.push(Hit::new(
                        t.line,
                        t.col,
                        format!("hasher-order iteration: `for .. in {}`", t.text),
                    ));
                }
            }
        }
    }
    out
}

/// Raw payload-copy hits.
fn hot_path_copy_hits(lx: &Lexed) -> Vec<Hit> {
    let mut out = Vec::new();
    let toks = &lx.toks;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || !COPY_IDENTS.contains(&toks[i].text.as_str()) {
            continue;
        }
        let called = toks.get(i + 1).is_some_and(|t| t.is_punct('('));
        let method = i >= 1 && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':'));
        if called && method {
            out.push(Hit::new(
                toks[i].line,
                toks[i].col,
                format!("payload copy `{}()` on a zero-copy datapath", toks[i].text),
            ));
        }
    }
    out
}

/// Raw panic hits (`.unwrap()` / `panic!` forms).
fn panic_hits(lx: &Lexed) -> Vec<Hit> {
    let mut out = Vec::new();
    let toks = &lx.toks;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        if PANIC_METHODS.contains(&name)
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            out.push(Hit::new(
                toks[i].line,
                toks[i].col,
                format!("`.{name}()` can abort the datapath"),
            ));
        }
        if PANIC_MACROS.contains(&name) && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            out.push(Hit::new(
                toks[i].line,
                toks[i].col,
                format!("`{name}!` can abort the datapath"),
            ));
        }
    }
    out
}

/// Whether the file carries `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(lx: &Lexed) -> bool {
    let toks = &lx.toks;
    for i in 0..toks.len() {
        if toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("forbid"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 5).is_some_and(|t| t.is_ident("unsafe_code"))
        {
            return true;
        }
    }
    false
}
