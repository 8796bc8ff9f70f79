//! Workspace symbol table and best-effort call resolution.
//!
//! [`Workspace::build`] flattens per-file [`FileSummary`]s into an
//! indexed function table and resolves every call site to a set of
//! candidate definitions. Resolution is *conservative on ambiguity*:
//! when several definitions could be the callee (method calls through
//! unknown receiver types, same-name free functions), the call links to
//! **all** of them, so taint over-approximates rather than leaks.
//! Unresolved calls (std, vendored crates) are assumed clean — the
//! vendor tree is not held to workspace invariants.
//!
//! Resolution tiers (DESIGN.md §3.16):
//!
//! 1. plain `f()` — same module, then `use`-imports (incl. globs),
//!    then unique-by-name in the same crate;
//! 2. path `a::b::f()` — `crate`/`self`/`super`/`storm_*` prefixes are
//!    normalized and `use`-aliases expanded, then exact module match,
//!    then `Type::method` impl lookup, then crate-wide by name;
//! 3. method `x.m()` — `self.m()` prefers the surrounding impl type;
//!    otherwise every trait method named `m` in the workspace (dynamic
//!    dispatch can land in any crate) plus every inherent method named
//!    `m` in a crate the caller's crate can name a type of: itself and
//!    the transitive closure of the `storm_*` crates its files name in
//!    a `use` or a qualified call.
//!    `queue.serve(..)` in `storm-net` therefore links to `storm-sim`'s
//!    `SerialResource::serve`, not to the storage host's `serve` three
//!    layers above.

use std::collections::{BTreeMap, BTreeSet};

use crate::symbols::{CallKind, FileSummary, FnDef};

/// Index of one function in the flattened workspace table.
pub type FnId = usize;

/// Method names so ubiquitous on std containers/iterators that linking
/// an untyped receiver to every same-named workspace impl floods the
/// graph with false edges (`vec.push(..)` must not link to a project
/// `push`). Such calls stay external unless the receiver is `self`.
/// The cost is a missed edge when a project method shadows one of
/// these names on a non-`self` receiver — a documented imprecision.
const UBIQUITOUS_METHODS: [&str; 24] = [
    "push",
    "pop",
    "push_back",
    "push_front",
    "pop_back",
    "pop_front",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "clear",
    "extend",
    "drain",
    "append",
    "entry",
    "retain",
    "contains",
    "contains_key",
    "next",
    "take",
    "send",
    "write",
];

/// The flattened workspace: files, functions, and resolution indexes.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Per-file summaries, in walk order.
    pub files: Vec<FileSummary>,
    /// Flattened `(file index, fn index within file)` per [`FnId`].
    pub fns: Vec<(usize, usize)>,
    /// Resolved call edges per function: `(call index, candidates)`.
    pub edges: Vec<Vec<(usize, Vec<FnId>)>>,
    /// `(crate, module path, fn name)` -> free fns.
    by_module: BTreeMap<(String, String, String), Vec<FnId>>,
    /// `(crate, fn name)` -> free fns anywhere in the crate.
    by_crate: BTreeMap<(String, String), Vec<FnId>>,
    /// `(impl type, method name)` -> methods.
    by_type_method: BTreeMap<(String, String), Vec<FnId>>,
    /// method name -> every impl/trait method with that name.
    by_method: BTreeMap<String, Vec<FnId>>,
    /// crate -> itself plus every workspace crate it (transitively)
    /// imports from: the crates whose inherent methods it can call.
    reach: BTreeMap<String, BTreeSet<String>>,
}

/// Derives `(crate short name, module path segments)` from a
/// workspace-relative file path: `crates/core/src/relay/active.rs` →
/// `("core", ["relay", "active"])`; `lib.rs`, `main.rs` and `mod.rs`
/// contribute no segment of their own.
pub fn file_modules(rel_path: &str) -> (String, Vec<String>) {
    let (crate_name, within) = match rel_path.strip_prefix("crates/") {
        Some(rest) => {
            let mut it = rest.splitn(2, '/');
            let name = it.next().unwrap_or("").to_string();
            (name, it.next().unwrap_or(""))
        }
        None => ("storm".to_string(), rel_path),
    };
    let within = within.strip_prefix("src/").unwrap_or(within);
    let mut mods: Vec<String> = Vec::new();
    for seg in within.split('/') {
        let seg = seg.strip_suffix(".rs").unwrap_or(seg);
        if seg.is_empty() || seg == "lib" || seg == "main" || seg == "mod" {
            continue;
        }
        mods.push(seg.to_string());
    }
    (crate_name, mods)
}

/// Normalizes a leading path segment that names a workspace crate:
/// `storm_core` → `core`, `storm` → `storm`.
fn crate_of_segment(seg: &str) -> Option<String> {
    if seg == "storm" {
        return Some("storm".to_string());
    }
    seg.strip_prefix("storm_").map(str::to_string)
}

/// Per crate: itself plus the transitive closure of the workspace crates
/// its `use` imports and qualified calls name.
fn import_closure(files: &[FileSummary]) -> BTreeMap<String, BTreeSet<String>> {
    let mut reach: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for file in files {
        let krate = file_modules(&file.rel_path).0;
        let uses = file.uses.iter().map(|u| &u.path);
        let calls = file.fns.iter().flat_map(|f| &f.calls).map(|c| &c.path);
        let set = reach.entry(krate.clone()).or_default();
        set.extend(
            uses.chain(calls)
                .filter_map(|p| crate_of_segment(p.first()?)),
        );
        set.insert(krate);
    }
    loop {
        let mut grown = false;
        let snapshot = reach.clone();
        for set in reach.values_mut() {
            let before = set.len();
            let via: Vec<&BTreeSet<String>> = set.iter().filter_map(|c| snapshot.get(c)).collect();
            for deps in via {
                set.extend(deps.iter().cloned());
            }
            grown |= set.len() != before;
        }
        if !grown {
            return reach;
        }
    }
}

impl Workspace {
    /// Builds the table and resolves all call sites.
    pub fn build(files: Vec<FileSummary>) -> Workspace {
        let mut ws = Workspace {
            files,
            ..Workspace::default()
        };
        for (fi, file) in ws.files.iter().enumerate() {
            let (crate_name, file_mods) = file_modules(&file.rel_path);
            for (gi, f) in file.fns.iter().enumerate() {
                let id: FnId = ws.fns.len();
                ws.fns.push((fi, gi));
                if f.in_test {
                    continue; // test fns are never resolution targets
                }
                if f.impl_type.is_empty() && f.trait_name.is_empty() {
                    let mut mods = file_mods.clone();
                    mods.extend(f.modules.iter().cloned());
                    ws.by_module
                        .entry((crate_name.clone(), mods.join("::"), f.name.clone()))
                        .or_default()
                        .push(id);
                    ws.by_crate
                        .entry((crate_name.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                } else {
                    if !f.impl_type.is_empty() {
                        ws.by_type_method
                            .entry((f.impl_type.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                    }
                    ws.by_method.entry(f.name.clone()).or_default().push(id);
                }
            }
        }
        ws.reach = import_closure(&ws.files);
        // Resolve all call sites.
        let mut edges: Vec<Vec<(usize, Vec<FnId>)>> = Vec::with_capacity(ws.fns.len());
        for id in 0..ws.fns.len() {
            let f = ws.fn_def(id);
            let (fi, _) = ws.fns[id];
            let mut out = Vec::new();
            if !f.in_test {
                for (ci, call) in f.calls.iter().enumerate() {
                    let targets = ws.resolve(fi, f, call.kind, &call.path, call.recv_self);
                    if !targets.is_empty() {
                        out.push((ci, targets));
                    }
                }
            }
            edges.push(out);
        }
        ws.edges = edges;
        ws
    }

    /// The [`FnDef`] behind an id.
    pub fn fn_def(&self, id: FnId) -> &FnDef {
        let (fi, gi) = self.fns[id];
        &self.files[fi].fns[gi]
    }

    /// The file index behind an id.
    pub fn file_of(&self, id: FnId) -> usize {
        self.fns[id].0
    }

    /// Resolves one call from a function in file `fi`. Returns a
    /// sorted, deduplicated candidate set (empty = external, assumed
    /// clean).
    fn resolve(
        &self,
        fi: usize,
        caller: &FnDef,
        kind: CallKind,
        path: &[String],
        recv_self: bool,
    ) -> Vec<FnId> {
        let file = &self.files[fi];
        let (crate_name, file_mods) = file_modules(&file.rel_path);
        let mut caller_mods = file_mods.clone();
        caller_mods.extend(caller.modules.iter().cloned());

        let found = match kind {
            CallKind::Method => {
                let name = path.last().map(String::as_str).unwrap_or("");
                if recv_self && !caller.impl_type.is_empty() {
                    if let Some(v) = self
                        .by_type_method
                        .get(&(caller.impl_type.clone(), name.to_string()))
                    {
                        return dedup(v.clone());
                    }
                }
                // Without a typed receiver, linking every same-named
                // impl is only tolerable for distinctive names. Names
                // shared with std's containers/iterators would wire
                // `vec.push(..)` to every workspace `push`, so they
                // stay external (a deliberate precision trade-off;
                // `self.push()` above still resolves exactly).
                if UBIQUITOUS_METHODS.contains(&name) {
                    Vec::new()
                } else {
                    // An inherent method needs a value of its type, which
                    // only a crate the caller imports from can supply.
                    let reach = self.reach.get(&crate_name);
                    let mut all = self.by_method.get(name).cloned().unwrap_or_default();
                    all.retain(|&id| {
                        let krate = file_modules(&self.files[self.file_of(id)].rel_path).0;
                        !self.fn_def(id).trait_name.is_empty()
                            || reach.is_some_and(|r| r.contains(&krate))
                    });
                    all
                }
            }
            CallKind::Plain => {
                let name = path.last().cloned().unwrap_or_default();
                // Same module first.
                if let Some(v) =
                    self.by_module
                        .get(&(crate_name.clone(), caller_mods.join("::"), name.clone()))
                {
                    return dedup(v.clone());
                }
                // A `use` import binding this name.
                for u in &file.uses {
                    if u.alias == name {
                        return self.resolve_abs(&crate_name, &caller_mods, &u.path);
                    }
                }
                // Glob imports: try each prefix.
                for u in &file.uses {
                    if u.alias == "*" {
                        let mut p = u.path.clone();
                        p.push(name.clone());
                        let hit = self.resolve_abs(&crate_name, &caller_mods, &p);
                        if !hit.is_empty() {
                            return hit;
                        }
                    }
                }
                // Anywhere in the same crate (conservative: all).
                self.by_crate
                    .get(&(crate_name, name))
                    .cloned()
                    .unwrap_or_default()
            }
            CallKind::Path => self.resolve_path(&crate_name, &caller_mods, file, path),
        };
        dedup(found)
    }

    /// Resolves a path call after alias/prefix handling.
    fn resolve_path(
        &self,
        crate_name: &str,
        caller_mods: &[String],
        file: &FileSummary,
        path: &[String],
    ) -> Vec<FnId> {
        if path.is_empty() {
            return Vec::new();
        }
        // Expand a `use` alias on the first segment.
        let mut segs: Vec<String> = path.to_vec();
        if let Some(u) = file.uses.iter().find(|u| u.alias == segs[0]) {
            let mut p = u.path.clone();
            p.extend(segs[1..].iter().cloned());
            segs = p;
        }
        self.resolve_abs(crate_name, caller_mods, &segs)
    }

    /// Resolves an absolute-ish path: handles `crate`/`self`/`super`/
    /// `storm_*` prefixes, then tries (in order) exact module match in
    /// the named or current crate, `Type::method`, crate-wide by name.
    fn resolve_abs(&self, crate_name: &str, caller_mods: &[String], path: &[String]) -> Vec<FnId> {
        if path.is_empty() {
            return Vec::new();
        }
        let mut segs: Vec<String> = path.to_vec();
        let mut target_crate: Option<String> = None;
        let mut base_mods: Vec<String> = Vec::new();
        loop {
            let Some(first) = segs.first().cloned() else {
                return Vec::new();
            };
            if first == "crate" {
                target_crate = Some(crate_name.to_string());
                segs.remove(0);
            } else if first == "self" {
                target_crate = Some(crate_name.to_string());
                base_mods = caller_mods.to_vec();
                segs.remove(0);
            } else if first == "super" {
                target_crate = Some(crate_name.to_string());
                if base_mods.is_empty() {
                    base_mods = caller_mods.to_vec();
                }
                base_mods.pop();
                segs.remove(0);
            } else if let Some(c) = crate_of_segment(&first) {
                target_crate = Some(c);
                segs.remove(0);
            } else {
                break;
            }
        }
        let Some(name) = segs.last().cloned() else {
            return Vec::new();
        };
        let mid: Vec<String> = segs[..segs.len().saturating_sub(1)].to_vec();

        if let Some(tc) = &target_crate {
            let mut mods = base_mods.clone();
            mods.extend(mid.iter().cloned());
            if let Some(v) = self
                .by_module
                .get(&(tc.clone(), mods.join("::"), name.clone()))
            {
                return v.clone();
            }
            // `storm_x::Type::method(..)`.
            if let Some(ty) = mid.last() {
                if let Some(v) = self.by_type_method.get(&(ty.clone(), name.clone())) {
                    return v.clone();
                }
            }
            return self
                .by_crate
                .get(&(tc.clone(), name))
                .cloned()
                .unwrap_or_default();
        }

        // No crate prefix: `util::helper(..)` relative to the caller's
        // module, then from the crate root, then `Type::method`.
        let mut rel = caller_mods.to_vec();
        rel.extend(mid.iter().cloned());
        if let Some(v) = self
            .by_module
            .get(&(crate_name.to_string(), rel.join("::"), name.clone()))
        {
            return v.clone();
        }
        if let Some(v) = self
            .by_module
            .get(&(crate_name.to_string(), mid.join("::"), name.clone()))
        {
            return v.clone();
        }
        if let Some(ty) = mid.last() {
            if let Some(v) = self.by_type_method.get(&(ty.clone(), name.clone())) {
                return v.clone();
            }
        }
        Vec::new()
    }
}

fn dedup(mut v: Vec<FnId>) -> Vec<FnId> {
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::summarize;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(p, s)| summarize(p, s))
                .collect::<Vec<_>>(),
        )
    }

    fn fn_id(ws: &Workspace, name: &str) -> FnId {
        (0..ws.fns.len())
            .find(|&id| ws.fn_def(id).name == name)
            .unwrap()
    }

    fn callees_of(ws: &Workspace, name: &str) -> Vec<String> {
        let id = fn_id(ws, name);
        ws.edges[id]
            .iter()
            .flat_map(|(_, ts)| ts.iter().map(|&t| ws.fn_def(t).name.clone()))
            .collect()
    }

    #[test]
    fn file_module_derivation() {
        assert_eq!(
            file_modules("crates/core/src/relay/active.rs"),
            ("core".to_string(), vec!["relay".into(), "active".into()])
        );
        assert_eq!(
            file_modules("crates/sim/src/lib.rs"),
            ("sim".to_string(), vec![])
        );
        assert_eq!(
            file_modules("crates/net/src/nat/mod.rs"),
            ("net".to_string(), vec!["nat".into()])
        );
        assert_eq!(file_modules("src/lib.rs"), ("storm".to_string(), vec![]));
    }

    #[test]
    fn plain_call_resolves_same_module_then_crate() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn caller() { helper(); far(); }\nfn helper() {}\n",
            ),
            ("crates/a/src/deep.rs", "pub fn far() {}\n"),
        ]);
        assert_eq!(callees_of(&w, "caller"), ["helper", "far"]);
    }

    #[test]
    fn cross_crate_path_and_use_alias() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "use storm_b::util::remote;\nfn caller() { remote(); storm_b::util::remote(); }\n",
            ),
            ("crates/b/src/util.rs", "pub fn remote() {}\n"),
        ]);
        assert_eq!(callees_of(&w, "caller"), ["remote", "remote"]);
    }

    #[test]
    fn method_calls_are_conservative() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "use storm_b::T;\nstruct S;\nimpl S {\n    fn go(&self) { self.own(); }\n    fn own(&self) {}\n}\nfn outside(x: &Unknown) { x.own(); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "use storm_c::U;\npub struct T;\nimpl T {\n    fn own(&self) {}\n}\n",
            ),
            (
                "crates/c/src/lib.rs",
                "pub struct U;\nimpl U {\n    fn own(&self) {}\n}\n",
            ),
            (
                "crates/d/src/lib.rs",
                "struct V;\nimpl V {\n    fn own(&self) {}\n}\nimpl Plug for V {\n    fn own(&self) {}\n}\n",
            ),
        ]);
        // self.own() resolves to exactly the surrounding impl's method.
        let go = fn_id(&w, "go");
        assert_eq!(w.edges[go].len(), 1);
        assert_eq!(w.edges[go][0].1.len(), 1);
        // x.own() (unknown receiver) links every inherent `own` in the
        // crates `a` imports from, directly (b) or through them (c), and
        // every trait impl anywhere (d's `Plug::own`) — but not d's
        // inherent `own`: `a` cannot name a `V`.
        let outside = fn_id(&w, "outside");
        let linked: Vec<(String, &str)> = w.edges[outside][0]
            .1
            .iter()
            .map(|&t| {
                let krate = file_modules(&w.files[w.file_of(t)].rel_path).0;
                (krate, w.fn_def(t).trait_name.as_str())
            })
            .collect();
        let expect =
            [("a", ""), ("b", ""), ("c", ""), ("d", "Plug")].map(|(c, t)| (c.to_string(), t));
        assert_eq!(linked, expect, "ambiguity links all reachable");
    }

    #[test]
    fn test_fns_are_not_targets_or_sources_of_edges() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn live() { target(); }\nfn target() {}\n#[cfg(test)]\nmod tests {\n    fn target() {}\n    fn t() { super::live(); }\n}\n",
        )]);
        let live = fn_id(&w, "live");
        assert_eq!(w.edges[live][0].1.len(), 1, "test target() not linked");
        // The test fn `t` has no outgoing edges at all.
        let t = fn_id(&w, "t");
        assert!(w.edges[t].is_empty());
    }

    #[test]
    fn super_and_crate_prefixes() {
        let w = ws(&[
            (
                "crates/a/src/sub.rs",
                "pub fn here() { crate::rooty(); super::rooty(); self::sib(); }\npub fn sib() {}\n",
            ),
            ("crates/a/src/lib.rs", "pub fn rooty() {}\n"),
        ]);
        assert_eq!(callees_of(&w, "here"), ["rooty", "rooty", "sib"]);
    }
}
