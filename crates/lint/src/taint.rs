//! Backward taint propagation over the call graph, and the workspace
//! evaluation pass that turns taint into findings.
//!
//! # Lattice
//!
//! Each function carries a set of six *source properties* (bitflags in
//! [`crate::symbols`]): `reads-wall-clock`, `ambient-randomness`,
//! `hash-order-iteration`, `may-panic`, `allocates`, `blocks-thread`.
//! Direct sources are attributed during summarization; the fixpoint
//! here unions callee sets into callers (`props[f] |= props[callee]`)
//! until stable, so the set is reachability: "calling `f` may execute
//! one of these". The lattice is a powerset, propagation is monotone,
//! and iteration order is fixed, so the result is deterministic.
//!
//! # Evidence and chains
//!
//! The first acquisition of each property records evidence — either
//! `Direct` (a source site in the body) or `Via` (the call site it
//! arrived through). Following `Via` links reconstructs the call chain
//! shown in diagnostics; links always point at a function that held
//! the bit earlier, so the walk terminates at a `Direct` source.
//!
//! # Emission policy
//!
//! Transitive rules fire only where taint **crosses a scope boundary**
//! (a determinism-scoped caller invoking an unscoped tainted callee,
//! a curated hot-path root reaching an allocation). Cascading reports up
//! the call graph are avoided by skipping callees that are themselves
//! inside the scope — the boundary closest to the source gets the single
//! report, and an inline allow anywhere on the chain silences it.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{FnId, Workspace};
use crate::config::{Config, FileClass};
use crate::diag::{Finding, Frame};
use crate::rules::{self, Rule};
use crate::symbols::{
    prop_name, ALL_PROPS, P_ALLOCATES, P_AMBIENT_RAND, P_HASH_ITER, P_WALL_CLOCK,
};

/// How a function acquired a property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Evidence {
    /// A source site in the function's own body.
    Direct {
        /// Source line.
        line: u32,
        /// Source column.
        col: u32,
        /// Backticked description (`` `Instant` ``).
        what: String,
    },
    /// Acquired through a call site.
    Via {
        /// Call-site line.
        line: u32,
        /// Call-site column.
        col: u32,
        /// The callee it arrived from.
        callee: FnId,
    },
}

/// The fixpoint result: per-function property sets plus per-property
/// acquisition evidence.
#[derive(Debug, Default)]
pub struct Taint {
    /// Property bits per [`FnId`].
    pub props: Vec<u8>,
    /// Evidence per function per property bit index.
    pub evidence: Vec<[Option<Evidence>; 6]>,
}

fn bit_idx(p: u8) -> usize {
    p.trailing_zeros() as usize
}

/// Runs the fixpoint over the workspace call graph. `allocates` does not
/// flow out of a cold boundary ([`Config::alloc_cold`]): its callers do
/// not "reach" what it allocates.
pub fn propagate(ws: &Workspace, cfg: &Config) -> Taint {
    let n = ws.fns.len();
    let cold: Vec<bool> = (0..n)
        .map(|id| cfg.is_alloc_cold(&ws.files[ws.file_of(id)].rel_path, &ws.fn_def(id).name))
        .collect();
    let mut t = Taint {
        props: vec![0; n],
        evidence: vec![[None, None, None, None, None, None]; n],
    };
    // Seed direct sources (test fns contribute nothing).
    for id in 0..n {
        let f = ws.fn_def(id);
        if f.in_test {
            continue;
        }
        for p in &f.props {
            if t.props[id] & p.prop == 0 {
                t.props[id] |= p.prop;
                t.evidence[id][bit_idx(p.prop)] = Some(Evidence::Direct {
                    line: p.line,
                    col: p.col,
                    what: p.what.clone(),
                });
            }
        }
    }
    // Propagate callee sets into callers until stable. Deterministic:
    // fixed iteration order, first acquisition wins.
    loop {
        let mut changed = false;
        for id in 0..n {
            let f = ws.fn_def(id);
            for (ci, targets) in &ws.edges[id] {
                let call = &f.calls[*ci];
                for &target in targets {
                    let mut add = t.props[target] & !t.props[id];
                    if cold[target] {
                        add &= !P_ALLOCATES;
                    }
                    if add != 0 {
                        t.props[id] |= add;
                        for p in ALL_PROPS {
                            if add & p != 0 {
                                t.evidence[id][bit_idx(p)] = Some(Evidence::Via {
                                    line: call.line,
                                    col: call.col,
                                    callee: target,
                                });
                            }
                        }
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    t
}

/// Reconstructs the chain for property `prop` starting from a call
/// site in `caller` into `callee`: `[caller@call, ...frames..., source]`.
/// The final frame's `fn_name` is the source description.
pub fn chain_from_call(
    ws: &Workspace,
    t: &Taint,
    caller: FnId,
    call_line: u32,
    callee: FnId,
    prop: u8,
) -> Vec<Frame> {
    let mut frames = vec![Frame {
        fn_name: ws.fn_def(caller).name.clone(),
        file: ws.files[ws.file_of(caller)].rel_path.clone(),
        line: call_line,
    }];
    let mut cur = callee;
    let mut seen = BTreeSet::new();
    loop {
        if !seen.insert(cur) {
            break; // cycle guard (should not happen; see module docs)
        }
        let f = ws.fn_def(cur);
        let file = ws.files[ws.file_of(cur)].rel_path.clone();
        match &t.evidence[cur][bit_idx(prop)] {
            Some(Evidence::Via { line, callee, .. }) => {
                frames.push(Frame {
                    fn_name: f.name.clone(),
                    file,
                    line: *line,
                });
                cur = *callee;
            }
            Some(Evidence::Direct { line, what, .. }) => {
                frames.push(Frame {
                    fn_name: f.name.clone(),
                    file: file.clone(),
                    line: f.line,
                });
                frames.push(Frame {
                    fn_name: what.clone(),
                    file,
                    line: *line,
                });
                break;
            }
            None => break,
        }
    }
    frames
}

/// The last `what` of a chain (the source description).
fn chain_source(frames: &[Frame]) -> (String, String) {
    let last = frames.last();
    (
        last.map(|f| f.fn_name.clone()).unwrap_or_default(),
        last.map(|f| f.file.clone()).unwrap_or_default(),
    )
}

/// Tracks which inline allows suppressed something.
struct AllowLedger<'a> {
    ws: &'a Workspace,
    file_by_path: BTreeMap<&'a str, usize>,
    used: BTreeSet<(usize, u32, String)>,
}

impl<'a> AllowLedger<'a> {
    fn new(ws: &'a Workspace) -> AllowLedger<'a> {
        let file_by_path = ws
            .files
            .iter()
            .enumerate()
            .map(|(i, f)| (f.rel_path.as_str(), i))
            .collect();
        AllowLedger {
            ws,
            file_by_path,
            used: BTreeSet::new(),
        }
    }

    /// If an allow for `rule` covers `line` in file `fi`, marks it used
    /// and returns true.
    fn suppresses(&mut self, fi: usize, rule: Rule, line: u32) -> bool {
        let name = rule.name();
        let mut hit = None;
        for a in &self.ws.files[fi].allows {
            if a.line <= line && line <= a.end_line && a.rules.iter().any(|r| r == name) {
                hit = Some(a.line);
                break;
            }
        }
        match hit {
            Some(al) => {
                self.used.insert((fi, al, name.to_string()));
                true
            }
            None => false,
        }
    }

    /// Chain-aware suppression: any frame covered by an allow for
    /// `rule` (in that frame's file) silences the whole finding.
    fn chain_suppresses(&mut self, rule: Rule, frames: &[Frame]) -> bool {
        let mut out = false;
        for fr in frames {
            if let Some(&fi) = self.file_by_path.get(fr.file.as_str()) {
                if self.suppresses(fi, rule, fr.line) {
                    out = true;
                }
            }
        }
        out
    }
}

/// Determinism source properties.
const DET_PROPS: [u8; 3] = [P_WALL_CLOCK, P_AMBIENT_RAND, P_HASH_ITER];

/// Evaluates every workspace rule: re-applies scope/suppression to the
/// cached lexical hits, runs the metric-name check against harvested
/// registry constants, emits the three interprocedural rules from the
/// taint result, and finally reports stale allows. Returns unsorted
/// findings (the caller sorts).
pub fn evaluate(ws: &Workspace, t: &Taint, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut ledger = AllowLedger::new(ws);
    let classes: Vec<FileClass> = ws
        .files
        .iter()
        .map(|f| FileClass::from_rel_path(&f.rel_path))
        .collect();

    // 1. Lexical rules from cached raw hits.
    for (fi, file) in ws.files.iter().enumerate() {
        let class = &classes[fi];
        for hit in &file.lexical {
            let scoped = match hit.rule {
                Rule::NoWallClock | Rule::NoAmbientRand | Rule::NoHashIter => {
                    cfg.is_determinism_scoped(class)
                }
                Rule::NoHotPathCopy | Rule::NoPanic => cfg.is_datapath(class),
                _ => false,
            };
            if !scoped {
                continue;
            }
            if ledger.suppresses(fi, hit.rule, hit.line) {
                continue;
            }
            if cfg.is_path_allowed(hit.rule, class) {
                continue;
            }
            out.push(Finding {
                rule: hit.rule.name(),
                file: file.rel_path.clone(),
                line: hit.line,
                col: hit.col,
                message: hit.message.clone(),
                suggestion: hit.rule.suggestion(),
                chain: Vec::new(),
            });
        }
        if class.is_crate_root && !file.has_forbid_unsafe {
            let rule = Rule::ForbidUnsafe;
            if !ledger.suppresses(fi, rule, 1) && !cfg.is_path_allowed(rule, class) {
                out.push(Finding {
                    rule: rule.name(),
                    file: file.rel_path.clone(),
                    line: 1,
                    col: 1,
                    message: "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
                    suggestion: rule.suggestion(),
                    chain: Vec::new(),
                });
            }
        }
    }

    // 2. Metric-name registry: literals must match a harvested
    // constant (or an explicitly configured extra name).
    let mut names: BTreeSet<String> = cfg.metric_names.iter().cloned().collect();
    for file in &ws.files {
        if cfg.is_metric_name_file(&file.rel_path) {
            names.extend(file.consts.iter().map(|(_, v)| v.clone()));
        }
    }
    if !names.is_empty() {
        for (fi, file) in ws.files.iter().enumerate() {
            let class = &classes[fi];
            for ml in &file.metric_lits {
                if names.contains(&ml.value) {
                    continue;
                }
                let rule = Rule::MetricNameRegistry;
                if ledger.suppresses(fi, rule, ml.line) || cfg.is_path_allowed(rule, class) {
                    continue;
                }
                out.push(Finding {
                    rule: rule.name(),
                    file: file.rel_path.clone(),
                    line: ml.line,
                    col: ml.col,
                    message: rules::metric_message(&ml.method, &ml.value),
                    suggestion: rule.suggestion(),
                    chain: Vec::new(),
                });
            }
        }
    }

    // 3a. no-transitive-nondeterminism: determinism-scoped caller,
    // unscoped tainted callee, source also outside the scoped set
    // (sources inside it are already flagged lexically in place).
    for id in 0..ws.fns.len() {
        let fi = ws.file_of(id);
        let class = &classes[fi];
        let f = ws.fn_def(id);
        if f.in_test || !cfg.is_determinism_scoped(class) {
            continue;
        }
        for (ci, targets) in &ws.edges[id] {
            let call = &f.calls[*ci];
            for prop in DET_PROPS {
                let target = targets.iter().copied().find(|&tg| {
                    t.props[tg] & prop != 0 && !cfg.is_determinism_scoped(&classes[ws.file_of(tg)])
                });
                let Some(tg) = target else { continue };
                let frames = chain_from_call(ws, t, id, call.line, tg, prop);
                let (what, src_file) = chain_source(&frames);
                if cfg.is_determinism_scoped(&FileClass::from_rel_path(&src_file)) {
                    continue;
                }
                let rule = Rule::NoTransitiveNondeterminism;
                if ledger.chain_suppresses(rule, &frames) || cfg.is_path_allowed(rule, class) {
                    continue;
                }
                out.push(Finding {
                    rule: rule.name(),
                    file: ws.files[fi].rel_path.clone(),
                    line: call.line,
                    col: call.col,
                    message: format!(
                        "call into `{}` reaches {} source {} outside the determinism scope",
                        ws.fn_def(tg).name,
                        prop_name(prop),
                        what
                    ),
                    suggestion: rule.suggestion(),
                    chain: frames,
                });
            }
        }
    }

    // 3b. no-alloc-on-datapath: curated hot roots. Direct allocation
    // sites are reported unless the lexical copy rule already covers
    // them; calls are reported when the callee (neither itself a root
    // nor a cold boundary) reaches an allocation.
    let copy_whats = ["`.to_vec()`", "`.to_owned()`", "`.extend_from_slice()`"];
    for id in 0..ws.fns.len() {
        let fi = ws.file_of(id);
        let f = ws.fn_def(id);
        if f.in_test || !cfg.is_alloc_root(&ws.files[fi].rel_path, &f.name) {
            continue;
        }
        let rule = Rule::NoAllocOnDatapath;
        let class = &classes[fi];
        for p in &f.props {
            if p.prop != P_ALLOCATES || copy_whats.contains(&p.what.as_str()) {
                continue;
            }
            let frames = vec![
                Frame {
                    fn_name: f.name.clone(),
                    file: ws.files[fi].rel_path.clone(),
                    line: f.line,
                },
                Frame {
                    fn_name: p.what.clone(),
                    file: ws.files[fi].rel_path.clone(),
                    line: p.line,
                },
            ];
            if ledger.chain_suppresses(rule, &frames) || cfg.is_path_allowed(rule, class) {
                continue;
            }
            out.push(Finding {
                rule: rule.name(),
                file: ws.files[fi].rel_path.clone(),
                line: p.line,
                col: p.col,
                message: format!("allocation {} in hot function `{}`", p.what, f.name),
                suggestion: rule.suggestion(),
                chain: frames,
            });
        }
        for (ci, targets) in &ws.edges[id] {
            let call = &f.calls[*ci];
            let target = targets.iter().copied().find(|&tg| {
                t.props[tg] & P_ALLOCATES != 0 && {
                    let (file, name) = (&ws.files[ws.file_of(tg)].rel_path, &ws.fn_def(tg).name);
                    !cfg.is_alloc_root(file, name) && !cfg.is_alloc_cold(file, name)
                }
            });
            let Some(tg) = target else { continue };
            let frames = chain_from_call(ws, t, id, call.line, tg, P_ALLOCATES);
            let (what, _) = chain_source(&frames);
            if ledger.chain_suppresses(rule, &frames) || cfg.is_path_allowed(rule, class) {
                continue;
            }
            out.push(Finding {
                rule: rule.name(),
                file: ws.files[fi].rel_path.clone(),
                line: call.line,
                col: call.col,
                message: format!(
                    "hot function `{}` reaches allocation {} via `{}`",
                    f.name,
                    what,
                    ws.fn_def(tg).name
                ),
                suggestion: rule.suggestion(),
                chain: frames,
            });
        }
    }

    // 4. Stale allows: declared (non-test) allows that suppressed
    // nothing above, plus unknown rule names.
    for (fi, file) in ws.files.iter().enumerate() {
        for a in &file.allows {
            if a.in_test {
                continue;
            }
            for rn in &a.rules {
                let rule = Rule::StaleAllow;
                let (known, used) = match Rule::from_name(rn) {
                    Some(_) => (true, ledger.used.contains(&(fi, a.line, rn.clone()))),
                    None => (false, false),
                };
                if known && used {
                    continue;
                }
                let message = if known {
                    format!("stale allow: `{rn}` does not suppress any finding here")
                } else {
                    format!("unknown rule `{rn}` in allow comment")
                };
                out.push(Finding {
                    rule: rule.name(),
                    file: file.rel_path.clone(),
                    line: a.line,
                    col: 1,
                    message,
                    suggestion: rule.suggestion(),
                    chain: Vec::new(),
                });
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::summarize;

    fn build(files: &[(&str, &str)]) -> (Workspace, Taint) {
        let ws = Workspace::build(files.iter().map(|(p, s)| summarize(p, s)).collect());
        let t = propagate(&ws, &Config::default());
        (ws, t)
    }

    fn props_of(ws: &Workspace, t: &Taint, name: &str) -> u8 {
        let id = (0..ws.fns.len())
            .find(|&id| ws.fn_def(id).name == name)
            .unwrap();
        t.props[id]
    }

    #[test]
    fn taint_propagates_two_hops() {
        let (ws, t) = build(&[
            (
                "crates/sim/src/lib.rs",
                "pub fn tick() { storm_workloads::util::mid(); }\n",
            ),
            (
                "crates/workloads/src/util.rs",
                "pub fn mid() { leaf(); }\npub fn leaf() { let t = Instant::now(); }\n",
            ),
        ]);
        assert_eq!(props_of(&ws, &t, "leaf") & P_WALL_CLOCK, P_WALL_CLOCK);
        assert_eq!(props_of(&ws, &t, "mid") & P_WALL_CLOCK, P_WALL_CLOCK);
        assert_eq!(props_of(&ws, &t, "tick") & P_WALL_CLOCK, P_WALL_CLOCK);
    }

    #[test]
    fn recursion_reaches_fixpoint() {
        let (ws, t) = build(&[(
            "crates/a/src/lib.rs",
            "pub fn a() { b(); }\npub fn b() { a(); c(); }\npub fn c() { let v = vec![1]; }\n",
        )]);
        assert_ne!(props_of(&ws, &t, "a") & P_ALLOCATES, 0);
        assert_ne!(props_of(&ws, &t, "b") & P_ALLOCATES, 0);
    }

    #[test]
    fn transitive_finding_carries_full_chain() {
        let (ws, t) = build(&[
            (
                "crates/sim/src/lib.rs",
                "pub fn tick() {\n    storm_workloads::util::mid();\n}\n",
            ),
            (
                "crates/workloads/src/util.rs",
                "pub fn mid() {\n    leaf();\n}\npub fn leaf() {\n    let t = Instant::now();\n}\n",
            ),
        ]);
        let findings = evaluate(&ws, &t, &Config::default());
        let f = findings
            .iter()
            .find(|f| f.rule == "no-transitive-nondeterminism")
            .expect("boundary call flagged");
        assert_eq!(f.file, "crates/sim/src/lib.rs");
        assert_eq!(f.line, 2);
        let names: Vec<&str> = f.chain.iter().map(|fr| fr.fn_name.as_str()).collect();
        assert_eq!(names, ["tick", "mid", "leaf", "`Instant`"]);
        assert_eq!(f.chain.last().unwrap().file, "crates/workloads/src/util.rs");
        // No cascade: the unscoped intermediate fns produce nothing.
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.rule == "no-transitive-nondeterminism")
                .count(),
            1
        );
    }

    #[test]
    fn allow_on_intermediate_frame_silences_and_is_used() {
        let (ws, t) = build(&[
            (
                "crates/sim/src/lib.rs",
                "pub fn tick() {\n    storm_workloads::util::mid();\n}\n",
            ),
            (
                "crates/workloads/src/util.rs",
                "pub fn mid() {\n    // storm-lint: allow(no-transitive-nondeterminism): cold init path\n    leaf();\n}\npub fn leaf() {\n    let t = Instant::now();\n}\n",
            ),
        ]);
        let findings = evaluate(&ws, &t, &Config::default());
        assert!(
            !findings
                .iter()
                .any(|f| f.rule == "no-transitive-nondeterminism"),
            "{findings:?}"
        );
        assert!(
            !findings.iter().any(|f| f.rule == "stale-allow"),
            "chain allow counts as used: {findings:?}"
        );
    }

    #[test]
    fn stale_and_unknown_allows_are_reported() {
        let (ws, t) = build(&[(
            "crates/sim/src/lib.rs",
            "// storm-lint: allow(no-wall-clock): nothing here\n// storm-lint: allow(no-such-rule): typo\npub fn quiet() {}\n",
        )]);
        let findings = evaluate(&ws, &t, &Config::default());
        let stale: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "stale-allow")
            .collect();
        assert_eq!(stale.len(), 2, "{findings:?}");
        assert!(stale.iter().any(|f| f.message.contains("no-wall-clock")));
        assert!(stale.iter().any(|f| f.message.contains("unknown rule")));
    }

    #[test]
    fn used_allow_is_not_stale() {
        let (ws, t) = build(&[(
            "crates/sim/src/engine.rs",
            "pub fn f() {\n    // storm-lint: allow(no-wall-clock): deliberate\n    let t = Instant::now();\n}\n",
        )]);
        let findings = evaluate(&ws, &t, &Config::default());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn alloc_root_direct_and_via() {
        let (ws, t) = build(&[(
            "crates/net/src/tcp.rs",
            "fn pump() {\n    let b = vec![0u8; 64];\n    slow_path();\n}\nfn slow_path() {\n    let s = format!(\"x\");\n}\n",
        )]);
        let findings = evaluate(&ws, &t, &Config::default());
        let alloc: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "no-alloc-on-datapath")
            .collect();
        assert_eq!(alloc.len(), 2, "{findings:?}");
        assert!(alloc.iter().any(|f| f.message.contains("`vec!`")));
        assert!(alloc.iter().any(|f| f.message.contains("via `slow_path`")));
    }

    #[test]
    fn alloc_cold_boundary_cuts_the_chain() {
        // The fault plan's `decide` is a cold boundary: neither the
        // direct call from the root nor the one through `helper` reaches
        // its `format!`; `helper`'s own `vec!` is still reached.
        let (ws, t) = build(&[
            (
                "crates/net/src/tcp.rs",
                "fn pump(h: &Hook) {\n    h.decide();\n    helper(h);\n}\nfn helper(h: &Hook) {\n    h.decide();\n    let v = vec![1];\n}\n",
            ),
            (
                "crates/faults/src/state.rs",
                "impl Hook {\n    pub fn decide(&self) {\n        let s = format!(\"x\");\n    }\n}\n",
            ),
        ]);
        assert_ne!(props_of(&ws, &t, "decide") & P_ALLOCATES, 0);
        let findings = evaluate(&ws, &t, &Config::default());
        let alloc: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "no-alloc-on-datapath")
            .collect();
        assert_eq!(alloc.len(), 1, "{findings:?}");
        assert!(
            alloc[0].message.contains("`vec!` via `helper`"),
            "{alloc:?}"
        );
    }
}
