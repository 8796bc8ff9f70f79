//! The rule set: which invariants are checked, where, and how.
//!
//! Rules come in two layers:
//!
//! - **Lexical rules** match token patterns in one file. Their raw
//!   detectors (`*_hits`) report every occurrence with no scope or
//!   suppression filtering, so the same scan feeds both the per-file
//!   checker ([`check_file`]) and the interprocedural engine's per-file
//!   summaries (where hits double as taint sources).
//! - **Interprocedural rules** (`no-transitive-nondeterminism`,
//!   `no-alloc-on-datapath`, plus `stale-allow`)
//!   need the workspace call graph and live in [`crate::taint`]; they
//!   only exist in `--workspace` mode.

use std::collections::BTreeSet;

use crate::config::{Config, FileClass};
use crate::diag::Finding;
use crate::lexer::{Lexed, TokKind};

/// Stable identifiers for every rule. These names appear in inline
/// `// storm-lint: allow(<name>)` comments, config allowlists and the
/// JSON/SARIF output, so they are part of the tool's interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Determinism: no wall-clock time sources in simulation crates.
    NoWallClock,
    /// Determinism: no ambient (OS-seeded) randomness in simulation
    /// crates.
    NoAmbientRand,
    /// Determinism: no iteration over `HashMap`/`HashSet` in simulation
    /// crates (hasher order leaks into traces and metrics).
    NoHashIter,
    /// Zero-copy: no payload copies on datapath modules.
    NoHotPathCopy,
    /// Panic hygiene: no `unwrap`/`expect`/`panic!` on datapath modules.
    NoPanic,
    /// Unsafe coverage: every crate root carries
    /// `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// Interprocedural determinism: a determinism-scoped function calls
    /// (transitively) into a wall-clock / ambient-randomness /
    /// hash-order source outside the scoped file set.
    NoTransitiveNondeterminism,
    /// Interprocedural zero-alloc: a hot datapath function reaches an
    /// allocation (`Vec`/`Box`/`String` growth) through its callees.
    NoAllocOnDatapath,
    /// Metric hygiene: string literals passed to the metrics registry
    /// must match a constant exported from `storm_telemetry::names`.
    MetricNameRegistry,
    /// Escape hygiene: an inline `storm-lint: allow(...)` that no
    /// longer suppresses any finding.
    StaleAllow,
}

/// All rules, in reporting order.
pub const ALL_RULES: [Rule; 10] = [
    Rule::NoWallClock,
    Rule::NoAmbientRand,
    Rule::NoHashIter,
    Rule::NoHotPathCopy,
    Rule::NoPanic,
    Rule::ForbidUnsafe,
    Rule::NoTransitiveNondeterminism,
    Rule::NoAllocOnDatapath,
    Rule::MetricNameRegistry,
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
            Rule::NoTransitiveNondeterminism => "no-transitive-nondeterminism",
            Rule::NoAllocOnDatapath => "no-alloc-on-datapath",
            Rule::MetricNameRegistry => "metric-name-registry",
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
            Rule::NoTransitiveNondeterminism => {
                "the callee (transitively) reaches a nondeterministic source; thread the \
                 simulated clock / seeded rng through its arguments, or allow at the call \
                 site with a justification"
            }
            Rule::NoAllocOnDatapath => {
                "hot-path I/O must reuse pooled buffers and refcounted Bytes; hoist the \
                 allocation to setup or a counted slow path, or allow with a justification"
            }
            Rule::MetricNameRegistry => {
                "use the constants exported from storm_telemetry::names; a typo'd literal \
                 silently splits the metric series"
            }
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

/// One raw lexical hit: a source location plus a short backticked
/// description (`what`, used as the final frame of taint chains) and the
/// full finding message. Raw hits carry no scope or suppression
/// decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Short description, e.g. `` `Instant` `` or `` `.to_vec()` ``.
    pub what: String,
    /// Full finding message.
    pub message: String,
}

impl Hit {
    fn new(line: u32, col: u32, what: String, message: String) -> Hit {
        Hit {
            line,
            col,
            what,
            message,
        }
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

/// Allocating method calls (taint sources for `no-alloc-on-datapath`).
const ALLOC_METHODS: [&str; 7] = [
    "to_vec",
    "to_owned",
    "to_string",
    "push_str",
    "extend_from_slice",
    "into_owned",
    "collect",
];

/// Allocating `Type::method` path calls.
const ALLOC_PATHS: [(&str, &str); 7] = [
    ("Box", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("String", "with_capacity"),
    ("String", "from"),
    ("VecDeque", "with_capacity"),
    ("BytesMut", "with_capacity"),
];

/// Allocating macros (`name!`).
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Registry methods whose first string-literal argument is a metric
/// name; `tenant_scoped` is the free-function form.
const METRIC_METHODS: [&str; 8] = [
    "inc",
    "observe",
    "set_gauge",
    "merge_histogram",
    "counter",
    "gauge",
    "histogram",
    "tenant_scoped",
];

/// Runs every applicable rule over one lexed file.
///
/// This is the single-file (lexical) layer; interprocedural rules need
/// the whole workspace and are evaluated in [`crate::taint`]. The
/// metric-name rule only fires here when `cfg.metric_names` is
/// populated (in workspace mode the engine harvests the registry
/// constants itself).
pub fn check_file(class: &FileClass, lexed: &Lexed, cfg: &Config, out: &mut Vec<Finding>) {
    let deterministic = cfg.is_determinism_scoped(class);
    let datapath = cfg.is_datapath(class);

    if deterministic {
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
    if datapath {
        for h in hot_path_copy_hits(lexed) {
            emit(Rule::NoHotPathCopy, class, lexed, cfg, h, out);
        }
        for h in panic_hits(lexed) {
            emit(Rule::NoPanic, class, lexed, cfg, h, out);
        }
    }
    if !cfg.metric_names.is_empty() {
        for (method, value, line, col) in metric_call_literals(lexed) {
            if !cfg.metric_names.iter().any(|n| n == &value) {
                let h = Hit::new(
                    line,
                    col,
                    format!("\"{value}\""),
                    metric_message(&method, &value),
                );
                emit(Rule::MetricNameRegistry, class, lexed, cfg, h, out);
            }
        }
    }
    if class.is_crate_root {
        check_forbid_unsafe(class, lexed, cfg, out);
    }
}

/// The message for a metric-name finding (shared with workspace mode).
pub fn metric_message(method: &str, value: &str) -> String {
    format!(
        "metric literal \"{value}\" passed to `{method}` is not a name exported from \
         storm_telemetry::names"
    )
}

/// Pushes a finding unless the site is in test code, inline-allowed, or
/// the file is on the rule's config allowlist.
fn emit(
    rule: Rule,
    class: &FileClass,
    lexed: &Lexed,
    cfg: &Config,
    hit: Hit,
    out: &mut Vec<Finding>,
) {
    if lexed.in_test(hit.line) {
        return;
    }
    if lexed.allowed(rule.name(), hit.line) {
        return;
    }
    if cfg.is_path_allowed(rule, class) {
        return;
    }
    out.push(Finding {
        rule: rule.name(),
        file: class.rel_path.clone(),
        line: hit.line,
        col: hit.col,
        message: hit.message,
        suggestion: rule.suggestion(),
        chain: Vec::new(),
    });
}

/// Raw wall-clock hits: `SystemTime` / `Instant` / `std::time`.
pub fn wall_clock_hits(lx: &Lexed) -> Vec<Hit> {
    let mut out = Vec::new();
    for (i, t) in lx.toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if WALL_CLOCK_IDENTS.contains(&t.text.as_str()) {
            out.push(Hit::new(
                t.line,
                t.col,
                format!("`{}`", t.text),
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
                "`std::time`".to_string(),
                "`std::time` in deterministic code".to_string(),
            ));
        }
    }
    out
}

/// Raw ambient-randomness hits.
pub fn ambient_rand_hits(lx: &Lexed) -> Vec<Hit> {
    let mut out = Vec::new();
    for (i, t) in lx.toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if AMBIENT_RAND_IDENTS.contains(&t.text.as_str()) {
            out.push(Hit::new(
                t.line,
                t.col,
                format!("`{}`", t.text),
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
                "`rand::random`".to_string(),
                "`rand::random` draws from the ambient thread RNG".to_string(),
            ));
        }
    }
    out
}

/// Collects identifiers bound to `HashMap`/`HashSet` in this file:
/// struct fields and annotated bindings (`name: HashMap<..>`, possibly
/// behind `&`/`&mut`), plus `let name = HashMap::new()`-style inits.
fn hash_bound_names(lx: &Lexed) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let toks = &lx.toks;
    let is_hash = |i: usize| {
        toks.get(i)
            .is_some_and(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
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
pub fn hash_iter_hits(lx: &Lexed) -> Vec<Hit> {
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
                format!("`{}.{}()`", toks[i - 2].text, toks[i].text),
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
                        format!("`for .. in {}`", t.text),
                        format!("hasher-order iteration: `for .. in {}`", t.text),
                    ));
                }
            }
        }
    }
    out
}

/// Raw payload-copy hits.
pub fn hot_path_copy_hits(lx: &Lexed) -> Vec<Hit> {
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
                format!("`.{}()`", toks[i].text),
                format!("payload copy `{}()` on a zero-copy datapath", toks[i].text),
            ));
        }
    }
    out
}

/// Raw panic hits (`.unwrap()` / `panic!` forms).
pub fn panic_hits(lx: &Lexed) -> Vec<Hit> {
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
                format!("`.{name}()`"),
                format!("`.{name}()` can abort the datapath"),
            ));
        }
        if PANIC_MACROS.contains(&name) && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            out.push(Hit::new(
                toks[i].line,
                toks[i].col,
                format!("`{name}!`"),
                format!("`{name}!` can abort the datapath"),
            ));
        }
    }
    out
}

/// Raw allocation hits: growth/box methods, allocating `Type::method`
/// constructors and `vec!`/`format!` macros. Only used as taint sources
/// for `no-alloc-on-datapath` (there is no file-scoped alloc rule).
///
/// Two shapes allocate and are **not** seen, because a token scan cannot
/// type the receiver: `Vec::new()` (free) followed by `push`/`extend`
/// (the allocation), and `.clone()` of a value that owns a `Vec`
/// (`Frame`, `Payload`; indistinguishable from a refcount bump on
/// `Bytes`). The benchmark's counting allocator (`host.allocs_per_op`)
/// is the oracle for both.
pub fn alloc_hits(lx: &Lexed) -> Vec<Hit> {
    let mut out = Vec::new();
    let toks = &lx.toks;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        if ALLOC_METHODS.contains(&name)
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            out.push(Hit::new(
                toks[i].line,
                toks[i].col,
                format!("`.{name}()`"),
                format!("allocating call `.{name}()`"),
            ));
        }
        if ALLOC_MACROS.contains(&name) && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            out.push(Hit::new(
                toks[i].line,
                toks[i].col,
                format!("`{name}!`"),
                format!("allocating macro `{name}!`"),
            ));
        }
        // `Type :: method (`
        if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
        {
            if let Some(m) = toks.get(i + 3).filter(|t| t.kind == TokKind::Ident) {
                if ALLOC_PATHS.contains(&(name, m.text.as_str())) {
                    out.push(Hit::new(
                        toks[i].line,
                        toks[i].col,
                        format!("`{}::{}`", name, m.text),
                        format!("allocating constructor `{}::{}`", name, m.text),
                    ));
                }
            }
        }
    }
    out
}

/// String literals passed as the first argument to a metrics-registry
/// method (`reg.inc("...")`, `names::tenant_scoped("...", id)`).
/// Returns `(method, literal value, line, col)` per site, including
/// test code (the caller filters).
pub fn metric_call_literals(lx: &Lexed) -> Vec<(String, String, u32, u32)> {
    let mut out = Vec::new();
    let toks = &lx.toks;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || !METRIC_METHODS.contains(&toks[i].text.as_str()) {
            continue;
        }
        let is_method = i >= 1 && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':'));
        if toks[i].text != "tenant_scoped" && !is_method {
            continue; // bare `inc(...)` is some other function
        }
        if !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        if let Some(lit) = toks.get(i + 2).filter(|t| t.kind == TokKind::Str) {
            out.push((toks[i].text.clone(), lit.text.clone(), lit.line, lit.col));
        }
    }
    out
}

/// Whether the file carries `#![forbid(unsafe_code)]`.
pub fn has_forbid_unsafe(lx: &Lexed) -> bool {
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

fn check_forbid_unsafe(class: &FileClass, lx: &Lexed, cfg: &Config, out: &mut Vec<Finding>) {
    if !has_forbid_unsafe(lx) {
        // Bypass the test-range check: this is a file-level property.
        if !cfg.is_path_allowed(Rule::ForbidUnsafe, class) && !lx.allowed("forbid-unsafe", 1) {
            out.push(Finding {
                rule: Rule::ForbidUnsafe.name(),
                file: class.rel_path.clone(),
                line: 1,
                col: 1,
                message: "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
                suggestion: Rule::ForbidUnsafe.suggestion(),
                chain: Vec::new(),
            });
        }
    }
}
