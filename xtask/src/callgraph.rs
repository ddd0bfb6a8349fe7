//! Workspace-wide call-graph construction over the token stream.
//!
//! The call-graph rules (`panic-reachability`, `hot-path-blocking`,
//! `deadline-propagation`) need to answer "which functions can this
//! function reach", not just "which tokens does this file contain".
//! This module
//! recovers that from the scanner's output: every `fn` definition in the
//! workspace (with its enclosing `impl`/`trait` self type), every call
//! site inside each definition, and a name-based resolution from sites
//! to definitions.
//!
//! ## Resolution model (deliberate approximation)
//!
//! There is no type inference here. Resolution is name-based with three
//! refinements that keep the over-approximation useful in practice:
//!
//! - **Free calls** (`helper(x)`) resolve to free functions of that name
//!   anywhere in the workspace.
//! - **Qualified calls** (`Type::helper(x)`, `Self::helper(x)`) resolve
//!   to methods of that self type only (`Self` maps to the enclosing
//!   impl's type). A lowercase path head (`module::helper`) resolves as
//!   a free call.
//! - **Method calls** (`x.helper()`) resolve to every workspace method
//!   named `helper` whose self type is *witnessed* in the calling file —
//!   mentioned as an identifier anywhere in it (imports, annotations,
//!   field declarations). This is the import-witness approximation: a
//!   file that never names `VertexStore` cannot (in this codebase's
//!   idiom) call `VertexStore::get` through inference alone, so the
//!   witness check prunes the worst same-name collisions (`get`, `len`,
//!   `push`) without a type checker. Trait-method dispatch stays
//!   over-approximated on purpose: `x.go()` resolves to `go` in *every*
//!   witnessed impl, because any of them may be the dynamic target.
//!
//! Calls the resolver cannot see (function pointers, closures passed as
//! values, macro-generated code) are documented blind spots; the rules
//! built on top are audit gates over hand-written code, not a soundness
//! proof.
//!
//! ## Isolation cuts
//!
//! Two kinds of call edges carry flags the traversals use as cut points:
//!
//! - `isolated` — the site sits inside the argument span of a
//!   `catch_unwind(..)` call. Panic-reachability does not traverse these
//!   edges: the session worker's quarantine boundary (DESIGN.md §8)
//!   converts panics below it into typed errors.
//! - `spawned` — the site sits inside the argument span of a
//!   `spawn(..)` call (`thread::spawn`, `scope.spawn`). Hot-path
//!   analysis does not traverse these: work handed to another thread
//!   does not block the loop that spawned it. Panic-reachability *does*
//!   traverse them — a panic on a spawned service thread is still a
//!   service defect.
//!
//! Both traversals also honor *edge waivers*: a
//! `lint:allow(<rule>) — reason` comment on or above a call site prunes
//! the edge (and everything only reachable through it), which is how a
//! reviewed boundary ("startup path, failures surface before serving")
//! is recorded once instead of waiving every leaf.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::flow::{call_spans, close_delim, spans_contain};
use crate::items::impl_blocks;
use crate::scanner::{Scanned, TokKind, Token};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(..)` — free-function call (or tuple-struct construction,
    /// which resolves to nothing).
    Free,
    /// `x.helper(..)` — method call, receiver type unknown.
    Method,
    /// `Type::helper(..)` — associated call on a named type (`Self`
    /// already mapped to the enclosing impl's type).
    Qualified(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written.
    pub callee: String,
    /// Resolution class.
    pub kind: CallKind,
    /// 1-based source line.
    pub line: usize,
    /// Inside a `catch_unwind(..)` argument span.
    pub isolated: bool,
    /// Inside a `spawn(..)` argument span.
    pub spawned: bool,
}

/// One `fn` definition found in the workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Self type of the enclosing `impl` or `trait` block, if any.
    pub self_type: Option<String>,
    /// Callable from outside its module: declared `pub`/`pub(..)`, or a
    /// method of a trait impl / trait block (its visibility is the
    /// trait's). `panic-reachability` roots its traversal at these.
    pub exported: bool,
    /// Index into [`CallGraph::files`].
    pub file: usize,
    /// 1-based line of the `fn` token.
    pub line: usize,
    /// True when the def sits in a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Token index range of the body, inclusive of both braces.
    pub body: (usize, usize),
    /// Call sites in the body (nested fn bodies excluded — those belong
    /// to the nested def).
    pub calls: Vec<CallSite>,
}

/// The workspace call graph: files, definitions, and the name index.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Workspace-relative paths, in scan order.
    pub files: Vec<String>,
    /// Per-file test-tree flag (tests/, benches/, examples/).
    pub in_test_tree: Vec<bool>,
    /// All function definitions.
    pub defs: Vec<FnDef>,
    /// Definition indices by function name.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Per-file witness sets: every identifier token in the file.
    witness: Vec<BTreeSet<String>>,
}

/// Per-file analysis carried out once per scan (cheap enough to run
/// unconditionally; the rules decide what to use).
pub struct FileFns {
    /// Defs found in this file, with `file` left at `usize::MAX` for the
    /// graph to fix up on insertion.
    pub defs: Vec<FnDef>,
    /// Identifier witness set for method-call resolution.
    pub witness: BTreeSet<String>,
}

/// Rust keywords that can directly precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "fn", "let", "else",
    "break", "continue", "unsafe", "where", "impl", "dyn", "ref", "mut", "pub", "use", "crate",
    "self", "super", "box", "yield", "await",
];

/// Lowercase path heads that denote `std`/`core` modules: a call through
/// one of these (`mem::take`, `ptr::read`, `hint::spin_loop`) targets
/// the standard library, never a workspace def.
const STD_PATH_HEADS: &[&str] = &[
    "std", "core", "alloc", "mem", "ptr", "cmp", "fmt", "iter", "hint", "slice", "array", "char",
    "str", "panic", "process", "env", "fs", "io", "thread", "time",
];

/// Extracts every function definition (with call sites) from one file.
pub fn file_fns(scanned: &Scanned) -> FileFns {
    let toks = &scanned.tokens;
    let impls = impl_blocks(scanned);
    let trait_ranges = trait_line_ranges(toks);
    let isolated_spans = call_spans(toks, "catch_unwind");
    let spawned_spans = call_spans(toks, "spawn");

    let mut witness = BTreeSet::new();
    for t in toks {
        if t.kind == TokKind::Ident {
            witness.insert(t.text.clone());
        }
    }

    // First pass: locate every `fn` def and its body span.
    let mut defs: Vec<FnDef> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "fn" {
            if let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                if let Some(body) = body_span(toks, i + 2) {
                    defs.push(FnDef {
                        name: name_tok.text.clone(),
                        self_type: None,
                        exported: declared_pub(toks, i),
                        file: usize::MAX,
                        line: toks[i].line,
                        in_test: toks[i].in_test,
                        body,
                        calls: Vec::new(),
                    });
                    // Resume just past the opening brace so nested defs
                    // are found too.
                    i = body.0 + 1;
                    continue;
                }
            }
        }
        i += 1;
    }

    // Second pass: attach self types and extract call sites, excluding
    // nested defs' spans from their parents.
    let bodies: Vec<(usize, usize)> = defs.iter().map(|d| d.body).collect();
    for def in &mut defs {
        let body = def.body;
        let nested: Vec<(usize, usize)> = bodies
            .iter()
            .filter(|b| b.0 > body.0 && b.1 < body.1)
            .copied()
            .collect();
        if let Some((ty, in_trait)) = enclosing_self_type(&impls, &trait_ranges, def.line) {
            def.self_type = Some(ty);
            def.exported |= in_trait;
        }
        def.calls = collect_calls(
            toks,
            body,
            &nested,
            &isolated_spans,
            &spawned_spans,
            def.self_type.as_deref(),
        );
    }
    FileFns { defs, witness }
}

/// Finds the body `{..}` of a fn whose signature starts at token `j`
/// (just past the name). Returns `None` for bodyless declarations
/// (trait method signatures). Tracks paren/bracket/angle/brace depth so
/// const-generic braces in the signature are not taken for the body —
/// the same discipline the scanner's region tracker uses.
fn body_span(toks: &[Token], mut j: usize) -> Option<(usize, usize)> {
    let mut paren = 0usize;
    let mut bracket = 0usize;
    let mut angle = 0usize;
    let mut brace = 0usize;
    while j < toks.len() {
        let t = &toks[j];
        match t.text.as_str() {
            "(" => paren += 1,
            ")" => paren = paren.saturating_sub(1),
            "[" => bracket += 1,
            "]" => bracket = bracket.saturating_sub(1),
            "<" if brace == 0
                && j > 0
                && (toks[j - 1].kind == TokKind::Ident
                    || toks[j - 1].text == ">"
                    || toks[j - 1].text == "::"
                    || toks[j - 1].text == "->") =>
            {
                angle += 1;
            }
            ">" if brace == 0 => angle = angle.saturating_sub(1),
            ">>" if brace == 0 => angle = angle.saturating_sub(2),
            "{" => {
                if paren + bracket + angle + brace > 0 {
                    brace += 1;
                } else {
                    // Body found; an unbalanced tail means no body.
                    let close = close_delim(toks, j);
                    return (toks[close].text == "}" && close > j).then_some((j, close));
                }
            }
            "}" => brace = brace.saturating_sub(1),
            ";" if paren + bracket + brace == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Line ranges of `trait Name { .. }` blocks, with the trait name (used
/// as the self type of default-method bodies).
fn trait_line_ranges(toks: &[Token]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "trait"
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
        {
            let name = toks[i + 1].text.clone();
            if let Some((open, close)) = body_span(toks, i + 2) {
                out.push((name, toks[open].line, toks[close].line));
                i = open + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// True when the `fn` token at `i` is declared `pub` / `pub(..)`:
/// walks back over `const`/`async`/`unsafe`/`extern "C"` qualifiers.
fn declared_pub(toks: &[Token], i: usize) -> bool {
    let mut k = i;
    while k > 0
        && (matches!(toks[k - 1].text.as_str(), "const" | "async" | "unsafe" | "extern")
            || toks[k - 1].kind == TokKind::Str)
    {
        k -= 1;
    }
    if k > 0 && toks[k - 1].text == ")" {
        // `pub(crate)` / `pub(in path)`: step back over the restriction.
        while k > 0 && toks[k - 1].text != "(" {
            k -= 1;
        }
        k = k.saturating_sub(1);
    }
    k > 0 && toks[k - 1].text == "pub"
}

/// Self type for a fn defined at `line` — the innermost enclosing impl
/// block's type, or the enclosing trait's name for default methods —
/// and whether that block is a trait impl or trait (so the fn's
/// visibility is the trait's, not its own).
fn enclosing_self_type(
    impls: &[crate::items::ImplBlock],
    traits: &[(String, usize, usize)],
    line: usize,
) -> Option<(String, bool)> {
    let impl_blocks = impls
        .iter()
        .map(|b| (b.line, b.end_line, &b.type_name, b.trait_name.is_some()));
    let trait_blocks = traits.iter().map(|(name, lo, hi)| (*lo, *hi, name, true));
    impl_blocks
        .chain(trait_blocks)
        .filter(|(lo, hi, ..)| *lo <= line && line <= *hi)
        .min_by_key(|(lo, hi, ..)| hi - lo)
        .map(|(_, _, name, in_trait)| (name.clone(), in_trait))
}

/// Extracts call sites from a body span, skipping nested fn spans.
fn collect_calls(
    toks: &[Token],
    body: (usize, usize),
    nested: &[(usize, usize)],
    isolated_spans: &[(usize, usize)],
    spawned_spans: &[(usize, usize)],
    self_type: Option<&str>,
) -> Vec<CallSite> {
    let mut out = Vec::new();
    let mut i = body.0 + 1;
    while i < body.1 {
        if let Some(&(_, close)) = nested.iter().find(|(open, close)| *open <= i && i <= *close) {
            // Inside a nested def: its call sites belong to the nested
            // def, not this one.
            i = close + 1;
            continue;
        }
        let tok = &toks[i];
        if tok.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|t| t.text == "(")
            && !NON_CALL_KEYWORDS.contains(&tok.text.as_str())
        {
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str()).unwrap_or("");
            let kind = if prev == "." {
                Some(CallKind::Method)
            } else if prev == "::" {
                let head = i
                    .checked_sub(2)
                    .map(|p| &toks[p])
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.as_str());
                match head {
                    Some("Self") => self_type
                        .map(|t| CallKind::Qualified(t.to_string()))
                        .or(Some(CallKind::Free)),
                    Some(h) if h.chars().next().is_some_and(|c| c.is_uppercase()) => {
                        Some(CallKind::Qualified(h.to_string()))
                    }
                    // Standard-library paths (`std::mem::take`,
                    // `core::hint::spin_loop`) never land on workspace
                    // defs; recording them as Free would collide with
                    // same-named local helpers (`mem::take` vs a private
                    // `take`).
                    Some(h) if STD_PATH_HEADS.contains(&h) => None,
                    // `module::helper(..)` — free fn behind a path.
                    Some(_) => Some(CallKind::Free),
                    None => Some(CallKind::Free),
                }
            } else if prev == "fn" {
                None
            } else {
                Some(CallKind::Free)
            };
            if let Some(kind) = kind {
                out.push(CallSite {
                    callee: tok.text.clone(),
                    kind,
                    line: tok.line,
                    isolated: spans_contain(isolated_spans, i),
                    spawned: spans_contain(spawned_spans, i),
                });
            }
        }
        i += 1;
    }
    out
}

impl CallGraph {
    /// Adds one file's functions to the graph.
    pub fn add_file(&mut self, rel: &str, in_test_tree: bool, fns: FileFns) {
        let file_idx = self.files.len();
        self.files.push(rel.to_string());
        self.in_test_tree.push(in_test_tree);
        self.witness.push(fns.witness);
        for mut def in fns.defs {
            def.file = file_idx;
            let idx = self.defs.len();
            self.by_name.entry(def.name.clone()).or_default().push(idx);
            self.defs.push(def);
        }
    }

    /// Index of a file path, if present.
    pub fn file_index(&self, rel: &str) -> Option<usize> {
        self.files.iter().position(|f| f == rel)
    }

    /// Resolves one call site made from `from` to definition indices.
    /// Test-region defs and test-tree files are never targets: test
    /// helpers are not part of the shipped call graph.
    pub fn resolve(&self, from: usize, site: &CallSite) -> Vec<usize> {
        let Some(candidates) = self.by_name.get(&site.callee) else {
            return Vec::new();
        };
        let from_def = &self.defs[from];
        candidates
            .iter()
            .copied()
            .filter(|&c| {
                let def = &self.defs[c];
                if def.in_test || self.in_test_tree[def.file] {
                    return false;
                }
                // Crate-boundary cut: nothing under `crates/` depends on
                // the `xtask` dev tool, so its same-named helpers
                // (`emit`, `scan`, ...) are never call targets from
                // engine code.
                if self.files[def.file].starts_with("xtask/")
                    && !self.files[from_def.file].starts_with("xtask/")
                {
                    return false;
                }
                match &site.kind {
                    CallKind::Free => def.self_type.is_none(),
                    CallKind::Qualified(ty) => def.self_type.as_deref() == Some(ty.as_str()),
                    CallKind::Method => match def.self_type.as_deref() {
                        None => false,
                        Some(ty) => {
                            // Own methods always resolve; otherwise the
                            // receiver type must be witnessed in the
                            // calling file (import-witness rule).
                            from_def.self_type.as_deref() == Some(ty)
                                || def.file == from_def.file
                                || self.witness[from_def.file].contains(ty)
                        }
                    },
                }
            })
            .collect()
    }

    /// Breadth-first reachability from `roots`. Returns, for each
    /// reached def, the call path from its root (def indices, root
    /// first). Edges are pruned when:
    /// - `isolated` (always — the catch_unwind boundary),
    /// - `spawned` and `cut_spawned` is set,
    /// - a `lint:allow(<waiver_rule>)` comment covers the call site
    ///   (checked via `edge_waived`).
    ///
    /// The visited set guarantees termination on cyclic graphs (mutual
    /// recursion).
    pub fn reach(
        &self,
        roots: &[usize],
        cut_spawned: bool,
        mut edge_waived: impl FnMut(usize /*file*/, usize /*line*/) -> bool,
    ) -> BTreeMap<usize, Vec<usize>> {
        let mut paths: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(e) = paths.entry(r) {
                e.insert(vec![r]);
                queue.push_back(r);
            }
        }
        while let Some(cur) = queue.pop_front() {
            let path = paths[&cur].clone();
            let file = self.defs[cur].file;
            for site in self.defs[cur].calls.clone() {
                if site.isolated || (cut_spawned && site.spawned) {
                    continue;
                }
                if edge_waived(file, site.line) {
                    continue;
                }
                for target in self.resolve(cur, &site) {
                    if let std::collections::btree_map::Entry::Vacant(e) = paths.entry(target) {
                        let mut p = path.clone();
                        p.push(target);
                        e.insert(p);
                        queue.push_back(target);
                    }
                }
            }
        }
        paths
    }

    /// Renders a path as `a → b → c` using `Type::name` labels,
    /// eliding the middle of long chains.
    pub fn path_label(&self, path: &[usize]) -> String {
        let label = |&i: &usize| {
            let d = &self.defs[i];
            match &d.self_type {
                Some(t) => format!("{t}::{}", d.name),
                None => d.name.clone(),
            }
        };
        if path.len() <= 5 {
            path.iter().map(label).collect::<Vec<_>>().join(" → ")
        } else {
            let head: Vec<String> = path[..2].iter().map(label).collect();
            let tail: Vec<String> = path[path.len() - 2..].iter().map(label).collect();
            format!(
                "{} → … ({} frames) … → {}",
                head.join(" → "),
                path.len() - 4,
                tail.join(" → ")
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn graph_of(src: &str) -> CallGraph {
        let mut g = CallGraph::default();
        g.add_file("crates/x/src/lib.rs", false, file_fns(&scan(src)));
        g
    }

    fn def_idx(g: &CallGraph, name: &str) -> usize {
        g.defs.iter().position(|d| d.name == name).unwrap()
    }

    #[test]
    fn defs_capture_impl_self_types() {
        let g = graph_of(
            "impl Engine { fn run(&self) { self.step(); } fn step(&self) {} }\nfn free() {}",
        );
        assert_eq!(g.defs.len(), 3);
        let run = &g.defs[def_idx(&g, "run")];
        assert_eq!(run.self_type.as_deref(), Some("Engine"));
        assert_eq!(g.defs[def_idx(&g, "free")].self_type, None);
    }

    #[test]
    fn method_call_resolves_to_own_impl() {
        let g = graph_of("impl Engine { fn run(&self) { self.step(); } fn step(&self) {} }");
        let run = def_idx(&g, "run");
        let site = &g.defs[run].calls[0];
        assert_eq!(site.callee, "step");
        assert_eq!(g.resolve(run, site), vec![def_idx(&g, "step")]);
    }

    #[test]
    fn free_calls_do_not_resolve_to_methods() {
        let g = graph_of("fn a() { step(); }\nimpl E { fn step(&self) {} }");
        let a = def_idx(&g, "a");
        assert!(g.resolve(a, &g.defs[a].calls[0]).is_empty());
    }

    #[test]
    fn qualified_self_maps_to_impl_type() {
        let g = graph_of("impl E { fn a(&self) { Self::b(); } fn b() {} }");
        let a = def_idx(&g, "a");
        let site = &g.defs[a].calls[0];
        assert_eq!(site.kind, CallKind::Qualified("E".into()));
        assert_eq!(g.resolve(a, site), vec![def_idx(&g, "b")]);
    }

    #[test]
    fn catch_unwind_isolates_call_sites() {
        let g = graph_of(
            "fn worker() { let r = catch_unwind(AssertUnwindSafe(|| risky())); tail(); }\n\
             fn risky() {}\nfn tail() {}",
        );
        let worker = def_idx(&g, "worker");
        let risky_site = g.defs[worker]
            .calls
            .iter()
            .find(|c| c.callee == "risky")
            .unwrap();
        assert!(risky_site.isolated);
        let tail_site = g.defs[worker]
            .calls
            .iter()
            .find(|c| c.callee == "tail")
            .unwrap();
        assert!(!tail_site.isolated);
    }

    #[test]
    fn macro_invocations_are_not_calls() {
        let g = graph_of("fn a() { println!(\"x\"); vec![1]; b(); }\nfn b() {}");
        let a = def_idx(&g, "a");
        let callees: Vec<&str> = g.defs[a].calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(callees, ["b"]);
    }
}
