//! The call-graph-powered rules: `panic-reachability`,
//! `hot-path-blocking`, `ordering-protocol`, and the dataflow-verified
//! trio `lock-order`, `deadline-propagation`, and `dead-annotation`.
//!
//! Unlike the token-local rules in [`crate::rules`], these are
//! workspace-level passes: the lint driver scans every file first, then
//! hands the whole corpus (token streams plus the [`CallGraph`]) to
//! this module. Findings land at the *site* (the unwrap, the blocking
//! call, the orphaned store, the second lock of a cycle), with the
//! message naming the service entry point it is reachable from — so the
//! fix location and the reason it matters are both in the report.
//! Graph-rule findings carry their witness chain as [`FlowStep`]s,
//! rendered as SARIF `codeFlows`.
//!
//! Policy tables (roots, isolation boundaries, sanctioned modules) live
//! in [`crate::rules`] next to the older tables; DESIGN.md §9.5/§9.6
//! document the rationale for each entry.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{file_fns, CallGraph};
use crate::dataflow::{deadline_blind_sites, lock_sites, returns_guard, LockSite};
use crate::flow::{atomic_accesses, blocking_sites, call_spans, panic_sites, spans_contain};
use crate::items::impl_blocks;
use crate::rules::{
    emit, emit_flow, path_matches, take_waiver_log, waived, FileCtx, Finding, FlowStep, RuleId,
    DEADLINE_ROOTS, HOT_PATH_ROOTS, PANIC_ISOLATED, PANIC_ROOT_MODULES,
};
use crate::scanner::{Scanned, TokKind};

/// One scanned workspace file, as the driver holds it.
pub struct WorkspaceFile {
    /// Workspace-relative `/`-separated path.
    pub rel: String,
    /// Token stream + comments.
    pub scanned: Scanned,
    /// Under `tests/`, `benches/`, or `examples/`.
    pub in_test_tree: bool,
}

/// Builds the workspace call graph from scanned files (order defines
/// file indices; the rule passes below rely on it matching `files`).
pub fn build_graph(files: &[WorkspaceFile]) -> CallGraph {
    let mut graph = CallGraph::default();
    for f in files {
        graph.add_file(&f.rel, f.in_test_tree, file_fns(&f.scanned));
    }
    graph
}

/// Runs all call-graph rules over the scanned workspace.
/// `dead-annotation` MUST run last: it audits the waiver-usage log the
/// other rules (and the per-file rules, which the driver runs first)
/// populate as a side effect of suppressing findings.
pub fn run_graph_rules(
    files: &[WorkspaceFile],
    graph: &CallGraph,
    enabled: impl Fn(RuleId) -> bool,
    out: &mut Vec<Finding>,
) {
    if enabled(RuleId::PanicReachability) {
        panic_reachability(files, graph, out);
    }
    if enabled(RuleId::HotPathBlocking) {
        hot_path_blocking(files, graph, out);
    }
    if enabled(RuleId::OrderingProtocol) {
        ordering_protocol(files, out);
    }
    if enabled(RuleId::LockOrder) {
        lock_order(files, graph, out);
    }
    if enabled(RuleId::DeadlinePropagation) {
        deadline_propagation(files, graph, out);
    }
    if enabled(RuleId::DeadAnnotation) {
        dead_annotation(files, graph, &enabled, out);
    }
}

fn ctx_of(f: &WorkspaceFile) -> FileCtx<'_> {
    FileCtx {
        path: &f.rel,
        in_test_tree: f.in_test_tree,
    }
}

/// Rule `panic-reachability`: no function transitively reachable from
/// the service layer may panic — `.unwrap()`, `.expect()`, the `panic!`
/// family, or unguarded indexing. Upgrades `service-no-panic` from
/// direct to transitive. Edges inside `catch_unwind(..)` argument spans
/// are not traversed (the session worker's quarantine boundary converts
/// panics below it into typed errors), nor are edges whose call site
/// carries a `lint:allow(panic-reachability)` waiver (a reviewed
/// boundary, e.g. a startup-only path). Spawned-thread edges ARE
/// traversed: a panic on a service thread is still a service defect.
fn panic_reachability(files: &[WorkspaceFile], graph: &CallGraph, out: &mut Vec<Finding>) {
    let roots: Vec<usize> = graph
        .defs
        .iter()
        .enumerate()
        .filter(|(_, d)| {
            !d.in_test
                && !graph.in_test_tree[d.file]
                && path_matches(&graph.files[d.file], PANIC_ROOT_MODULES)
                && !PANIC_ISOLATED
                .iter()
                .any(|(p, f)| graph.files[d.file].ends_with(p) && d.name == *f)
        })
        .map(|(i, _)| i)
        .collect();
    let reached = graph.reach(&roots, false, |file, line| {
        waived(
            &files[file].scanned,
            &files[file].rel,
            line,
            RuleId::PanicReachability,
        )
    });
    for (def_idx, path) in &reached {
        let def = &graph.defs[*def_idx];
        if PANIC_ISOLATED
            .iter()
            .any(|(p, f)| graph.files[def.file].ends_with(p) && def.name == *f)
        {
            continue;
        }
        let file = &files[def.file];
        // The indexing class applies where untrusted input enters — defs
        // in the service-layer files themselves. Interior engine
        // indexing (CSR offsets, bitset words) is governed by
        // construction invariants local to the data structure; flagging
        // all of it transitively would drown the unwrap/expect/panic!
        // signal (90+ sites) without adding safety.
        let index_in_scope = path_matches(&graph.files[def.file], PANIC_ROOT_MODULES);
        for site in panic_sites(&file.scanned, def.body) {
            if site.what == "unguarded indexing" && !index_in_scope {
                continue;
            }
            emit(
                out,
                &file.scanned,
                &ctx_of(file),
                RuleId::PanicReachability,
                site.line,
                format!(
                    "{} is reachable from the service layer ({}); return a typed \
                     error, guard the access, or waive the edge with a justification",
                    site.what,
                    graph.path_label(path),
                ),
            );
        }
    }
}

/// Rule `hot-path-blocking`: nothing reachable from the refinement /
/// edge_map inner loops or the front-door accept loop may block
/// (`Mutex::lock`, `sleep`, `join`, `recv`, file I/O) or allocate
/// per-iteration (`Vec::new`/`vec!` in a loop body, `format!`). Edges
/// into `spawn(..)` closures are cut — work handed to another thread
/// does not stall the loop that spawned it — and so are waived edges.
fn hot_path_blocking(files: &[WorkspaceFile], graph: &CallGraph, out: &mut Vec<Finding>) {
    let roots: Vec<usize> = graph
        .defs
        .iter()
        .enumerate()
        .filter(|(_, d)| {
            !d.in_test
                && HOT_PATH_ROOTS
                    .iter()
                    .any(|(p, f)| graph.files[d.file].ends_with(p) && d.name == *f)
        })
        .map(|(i, _)| i)
        .collect();
    let reached = graph.reach(&roots, true, |file, line| {
        waived(
            &files[file].scanned,
            &files[file].rel,
            line,
            RuleId::HotPathBlocking,
        )
    });
    for (def_idx, path) in &reached {
        let def = &graph.defs[*def_idx];
        let file = &files[def.file];
        // Sinks inside spawn-closure spans belong to the spawned thread,
        // not this loop — mirror the edge cut at the token level.
        let spawn_spans = call_spans(&file.scanned.tokens, "spawn");
        for site in blocking_sites(&file.scanned, def.body) {
            let tok_idx = file
                .scanned
                .tokens
                .iter()
                .position(|t| t.line == site.line && !t.text.is_empty());
            if tok_idx.is_some_and(|i| spans_contain(&spawn_spans, i)) {
                continue;
            }
            emit(
                out,
                &file.scanned,
                &ctx_of(file),
                RuleId::HotPathBlocking,
                site.line,
                format!(
                    "{} on the hot path ({}); move it off the inner loop, hand it to \
                     another thread, or waive the edge with a justification",
                    site.what,
                    graph.path_label(path),
                ),
            );
        }
    }
}

/// Rule `ordering-protocol`: every `Release` (or `AcqRel`) store must
/// have at least one `Acquire`/`AcqRel`/`SeqCst` load of the same
/// atomic field somewhere in the workspace. Fields are keyed by
/// enclosing-impl self type + field name (`AtomicBitSet.words`); a
/// Release store nobody acquires is an orphaned publication — the
/// happens-before edge it pays for is never consumed, which usually
/// means the consumer reads `Relaxed` and the protocol is broken.
/// Upgrades `ordering-audit` from comment-presence to protocol checking.
fn ordering_protocol(files: &[WorkspaceFile], out: &mut Vec<Finding>) {
    // Collect the workspace-wide acquire side first (production code
    // only: a load that exists only in a test cannot consume a
    // production publication).
    let mut acquired: Vec<(String, String)> = Vec::new();
    let mut stores: Vec<(usize, crate::flow::AtomicAccess)> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        let impls = impl_blocks(&f.scanned);
        for access in atomic_accesses(&f.scanned, &impls) {
            if access.in_test || f.in_test_tree {
                continue;
            }
            if access.acquire_load {
                acquired.push(access.key.clone());
            }
            if access.release_store {
                stores.push((fi, access));
            }
        }
    }
    for (fi, store) in stores {
        if acquired.contains(&store.key) {
            continue;
        }
        let file = &files[fi];
        let field = if store.key.0.is_empty() {
            store.key.1.clone()
        } else {
            format!("{}.{}", store.key.0, store.key.1)
        };
        emit(
            out,
            &file.scanned,
            &ctx_of(file),
            RuleId::OrderingProtocol,
            store.line,
            format!(
                "orphaned publication: `{}` Release-stores `{field}` but no \
                 Acquire/AcqRel load of that field exists in the workspace; add the \
                 consuming load or downgrade the store's ordering",
                store.method,
            ),
        );
    }
}

/// Lock identity: `(self type or "", field/variable name)`.
type LockKey = (String, String);

fn key_label(key: &LockKey) -> String {
    if key.0.is_empty() {
        key.1.clone()
    } else {
        format!("{}.{}", key.0, key.1)
    }
}

fn def_label(graph: &CallGraph, d: usize) -> String {
    let def = &graph.defs[d];
    match &def.self_type {
        Some(t) => format!("`{t}::{}`", def.name),
        None => format!("`{}`", def.name),
    }
}

/// Where a lock key is acquired within a def's subtree: directly at a
/// line, or through a call at a line into another def.
#[derive(Clone)]
enum Hop {
    Here(usize),
    Via(usize, usize),
}

/// One acquisition held inside a def body: a direct `.lock()` site, or a
/// synthesized one from calling a guard-returning fn (the caller holds
/// the callee's lock after the call returns).
struct HeldAcq {
    key: LockKey,
    tok: usize,
    line: usize,
    extent: usize,
    indexed: bool,
    /// Token index of the guard-returning call that synthesized this
    /// acquisition (so the synthesizing call is not also treated as a
    /// nested acquisition of the same key).
    synth_from: Option<usize>,
}

/// Rule `lock-order`: `.lock()` acquisitions are lifted onto the call
/// graph and ordered — key A precedes key B when some function acquires
/// B (directly or through a callee) while holding A. Any cycle in that
/// order is a potential deadlock and is reported with the full witness
/// chain. Extents are over-approximated to the enclosing block (early
/// `drop()`s are ignored), which can only *add* order edges, never hide
/// a cycle; indexed receivers (`self.locks[i].lock()`) are exempt from
/// same-key self-edges because two acquisitions may target different
/// elements (sharding's whole point).
fn lock_order(files: &[WorkspaceFile], graph: &CallGraph, out: &mut Vec<Finding>) {
    let n = graph.defs.len();
    let mut direct: Vec<Vec<LockSite>> = vec![Vec::new(); n];
    let mut guard_fn: Vec<bool> = vec![false; n];
    let mut calls: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); n];
    for (d, def) in graph.defs.iter().enumerate() {
        if def.in_test || graph.in_test_tree[def.file] {
            continue;
        }
        let f = &files[def.file];
        direct[d] = lock_sites(&f.scanned, def.body);
        guard_fn[d] = returns_guard(&f.scanned.tokens, def.line, def.body.0);
        for site in &def.calls {
            if site.isolated {
                continue;
            }
            if waived(&f.scanned, &f.rel, site.line, RuleId::LockOrder) {
                continue;
            }
            let Some(tok) = f
                .scanned
                .tokens
                .iter()
                .position(|t| t.line == site.line && t.text == site.callee)
            else {
                continue;
            };
            for t in graph.resolve(d, site) {
                calls[d].push((t, site.line, tok));
            }
        }
    }

    // Subtree lock keys with one-hop provenance, to fixpoint.
    let mut hops: Vec<BTreeMap<LockKey, Hop>> = vec![BTreeMap::new(); n];
    for d in 0..n {
        for s in &direct[d] {
            hops[d].entry(s.key.clone()).or_insert(Hop::Here(s.line));
        }
    }
    loop {
        let mut updates: Vec<(usize, LockKey, Hop)> = Vec::new();
        for d in 0..n {
            for &(t, line, _) in &calls[d] {
                if t == d {
                    continue;
                }
                for k in hops[t].keys() {
                    if !hops[d].contains_key(k) {
                        updates.push((d, k.clone(), Hop::Via(line, t)));
                    }
                }
            }
        }
        if updates.is_empty() {
            break;
        }
        for (d, k, h) in updates {
            hops[d].entry(k).or_insert(h);
        }
    }

    // Acquisitions held within each body: direct sites plus guards
    // returned by callees.
    let mut held: Vec<Vec<HeldAcq>> = Vec::new();
    held.resize_with(n, Vec::new);
    for (d, def) in graph.defs.iter().enumerate() {
        if def.in_test || graph.in_test_tree[def.file] {
            continue;
        }
        let f = &files[def.file];
        for s in &direct[d] {
            held[d].push(HeldAcq {
                key: s.key.clone(),
                tok: s.tok,
                line: s.line,
                extent: s.extent,
                indexed: s.indexed,
                synth_from: None,
            });
        }
        for &(t, line, tok) in &calls[d] {
            if !guard_fn[t] {
                continue;
            }
            let extent =
                crate::dataflow::enclosing_block_end(&f.scanned.tokens, tok).min(def.body.1);
            let mut keys: Vec<(LockKey, bool)> = direct[t]
                .iter()
                .map(|s| (s.key.clone(), s.indexed))
                .collect();
            keys.sort();
            keys.dedup();
            for (key, indexed) in keys {
                held[d].push(HeldAcq {
                    key,
                    tok,
                    line,
                    extent,
                    indexed,
                    synth_from: Some(tok),
                });
            }
        }
        held[d].sort_by_key(|a| a.tok);
    }

    // Order edges, each with a witness chain.
    struct Edge {
        def: usize,
        site_line: usize,
        steps: Vec<FlowStep>,
    }
    let mut edges: BTreeMap<(LockKey, LockKey), Edge> = BTreeMap::new();
    for (d, def) in graph.defs.iter().enumerate() {
        if held[d].is_empty() {
            continue;
        }
        let file = &files[def.file];
        let label_d = def_label(graph, d);
        for a in &held[d] {
            let hold_step = FlowStep {
                file: file.rel.clone(),
                line: a.line,
                label: format!("{label_d} acquires `{}`", key_label(&a.key)),
            };
            for b in &held[d] {
                if b.tok <= a.tok || b.tok > a.extent {
                    continue;
                }
                if a.key == b.key && (a.indexed || b.indexed) {
                    continue;
                }
                if a.synth_from.is_some() && a.synth_from == b.synth_from {
                    continue;
                }
                edges
                    .entry((a.key.clone(), b.key.clone()))
                    .or_insert_with(|| Edge {
                        def: d,
                        site_line: b.line,
                        steps: vec![
                            hold_step.clone(),
                            FlowStep {
                                file: file.rel.clone(),
                                line: b.line,
                                label: format!(
                                    "acquires `{}` while holding `{}`",
                                    key_label(&b.key),
                                    key_label(&a.key)
                                ),
                            },
                        ],
                    });
            }
            for &(t, line, tok) in &calls[d] {
                if tok <= a.tok || tok > a.extent || a.synth_from == Some(tok) {
                    continue;
                }
                for k in hops[t].keys() {
                    if *k == a.key && a.indexed {
                        continue;
                    }
                    if edges.contains_key(&(a.key.clone(), k.clone())) {
                        continue;
                    }
                    let mut steps = vec![
                        hold_step.clone(),
                        FlowStep {
                            file: file.rel.clone(),
                            line,
                            label: format!(
                                "calls {} while holding `{}`",
                                def_label(graph, t),
                                key_label(&a.key)
                            ),
                        },
                    ];
                    steps.extend(chain_steps(files, graph, &hops, t, k));
                    edges.insert(
                        (a.key.clone(), k.clone()),
                        Edge {
                            def: d,
                            site_line: line,
                            steps,
                        },
                    );
                }
            }
        }
    }

    // Cycle detection over the key-order graph; one finding per distinct
    // key set.
    let mut adj: BTreeMap<&LockKey, Vec<&LockKey>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let mut reported: BTreeSet<Vec<LockKey>> = BTreeSet::new();
    for ((a, b), w) in &edges {
        let Some(path) = key_path(&adj, b, a) else {
            continue;
        };
        let mut cycle: Vec<LockKey> = vec![a.clone()];
        cycle.extend(path.iter().cloned());
        let mut canon = cycle.clone();
        canon.sort();
        canon.dedup();
        if !reported.insert(canon) {
            continue;
        }
        let mut flow = w.steps.clone();
        for pair in path.windows(2) {
            if let Some(e2) = edges.get(&(pair[0].clone(), pair[1].clone())) {
                flow.extend(e2.steps.iter().cloned());
            }
        }
        let order = cycle
            .iter()
            .map(key_label)
            .collect::<Vec<_>>()
            .join(" → ");
        let def = &graph.defs[w.def];
        let file = &files[def.file];
        emit_flow(
            out,
            &file.scanned,
            &ctx_of(file),
            RuleId::LockOrder,
            w.site_line,
            format!(
                "lock-order cycle: {order} — the acquisition order is inconsistent \
                 across call paths (potential deadlock); make every path take the \
                 locks in one order or waive the edge with a justification"
            ),
            flow,
        );
    }
}

/// Path from `start` to `goal` through order edges (inclusive), if any.
fn key_path(
    adj: &BTreeMap<&LockKey, Vec<&LockKey>>,
    start: &LockKey,
    goal: &LockKey,
) -> Option<Vec<LockKey>> {
    if start == goal {
        return Some(vec![start.clone()]);
    }
    let mut parent: BTreeMap<LockKey, LockKey> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start.clone());
    while let Some(cur) = queue.pop_front() {
        for &next in adj.get(&cur).map(|v| v.as_slice()).unwrap_or(&[]) {
            if next == &cur || parent.contains_key(next) || next == start {
                continue;
            }
            parent.insert(next.clone(), cur.clone());
            if next == goal {
                let mut path = vec![goal.clone()];
                let mut at = goal.clone();
                while let Some(p) = parent.get(&at) {
                    path.push(p.clone());
                    at = p.clone();
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(next.clone());
        }
    }
    None
}

/// Witness steps from `d` down to the acquisition of `key` in its
/// subtree, following the one-hop provenance recorded in `hops`.
fn chain_steps(
    files: &[WorkspaceFile],
    graph: &CallGraph,
    hops: &[BTreeMap<LockKey, Hop>],
    mut d: usize,
    key: &LockKey,
) -> Vec<FlowStep> {
    let mut steps = Vec::new();
    let mut seen = BTreeSet::new();
    loop {
        if !seen.insert(d) {
            break;
        }
        let rel = files[graph.defs[d].file].rel.clone();
        match hops[d].get(key) {
            Some(Hop::Here(line)) => {
                steps.push(FlowStep {
                    file: rel,
                    line: *line,
                    label: format!("{} acquires `{}`", def_label(graph, d), key_label(key)),
                });
                break;
            }
            Some(Hop::Via(line, t)) => {
                steps.push(FlowStep {
                    file: rel,
                    line: *line,
                    label: format!("{} calls {}", def_label(graph, d), def_label(graph, *t)),
                });
                d = *t;
            }
            None => break,
        }
    }
    steps
}

/// Rule `deadline-propagation`: everything reachable from a frontdoor
/// request handler ([`DEADLINE_ROOTS`]) that blocks — bare `recv`,
/// `sleep`, `join`, file I/O, an unbounded `loop` — must observe the
/// request deadline (PR-7's `X-Deadline-Ms` plumbing, DESIGN.md §7).
/// Spawned-thread edges are cut: work handed to another thread does not
/// hold up this request's reply (the handler's own `recv` of the result
/// is still checked).
fn deadline_propagation(files: &[WorkspaceFile], graph: &CallGraph, out: &mut Vec<Finding>) {
    let roots: Vec<usize> = graph
        .defs
        .iter()
        .enumerate()
        .filter(|(_, d)| {
            !d.in_test
                && DEADLINE_ROOTS
                    .iter()
                    .any(|(p, f)| graph.files[d.file].ends_with(p) && d.name == *f)
        })
        .map(|(i, _)| i)
        .collect();
    let reached = graph.reach(&roots, true, |file, line| {
        waived(
            &files[file].scanned,
            &files[file].rel,
            line,
            RuleId::DeadlinePropagation,
        )
    });
    for (def_idx, path) in &reached {
        let def = &graph.defs[*def_idx];
        let file = &files[def.file];
        let spawn_spans = call_spans(&file.scanned.tokens, "spawn");
        for sink in deadline_blind_sites(&file.scanned, def.body) {
            if spans_contain(&spawn_spans, sink.tok) {
                continue;
            }
            let mut flow: Vec<FlowStep> = path
                .iter()
                .map(|&i| {
                    let d = &graph.defs[i];
                    FlowStep {
                        file: graph.files[d.file].clone(),
                        line: d.line,
                        label: format!("enter {}", def_label(graph, i)),
                    }
                })
                .collect();
            flow.push(FlowStep {
                file: file.rel.clone(),
                line: sink.line,
                label: sink.what.clone(),
            });
            emit_flow(
                out,
                &file.scanned,
                &ctx_of(file),
                RuleId::DeadlinePropagation,
                sink.line,
                format!(
                    "{} is reachable from a frontdoor request handler ({}); bound it \
                     with the request deadline (`recv_deadline`, a deadline check in \
                     the loop) or waive the edge with a justification",
                    sink.what,
                    graph.path_label(path),
                ),
                flow,
            );
        }
    }
}

/// The memory-ordering variant names an `// ordering:` justification
/// must sit next to (mirror of the `ordering-audit` table).
const ORDERING_VARIANT_NAMES: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Rule `dead-annotation`: the trust surface must be live. A
/// `lint:allow` waiver that suppressed nothing this run, a `// bounds:`
/// comment with no indexing site below it, an `// ordering:`
/// justification with no memory-ordering site below it, or a
/// [`PANIC_ISOLATED`] entry whose quarantined subtree no longer panics —
/// each is itself an error: stale annotations are how a "clean tree"
/// rots. Runs LAST (it drains the waiver-usage log every other rule
/// feeds). A comment line is an *annotation* only when it **starts
/// with** the marker — prose that merely mentions `lint:allow(...)`
/// (like this module's own docs) is not an annotation.
fn dead_annotation(
    files: &[WorkspaceFile],
    graph: &CallGraph,
    enabled: &impl Fn(RuleId) -> bool,
    out: &mut Vec<Finding>,
) {
    // PANIC_ISOLATED entries first — and before draining the waiver log,
    // because probing a quarantined subtree records edge waivers inside
    // it as used (a waiver that prunes the probe is doing its job).
    for (suffix, fname) in PANIC_ISOLATED {
        let Some(fi) = files.iter().position(|f| f.rel.ends_with(suffix)) else {
            continue;
        };
        let def_idx = graph.defs.iter().position(|d| {
            graph.files[d.file].ends_with(suffix) && d.name == *fname && !d.in_test
        });
        let Some(d) = def_idx else {
            let f = &files[fi];
            emit(
                out,
                &f.scanned,
                &ctx_of(f),
                RuleId::DeadAnnotation,
                1,
                format!(
                    "dead PANIC_ISOLATED entry: no function `{fname}` in `{suffix}` — \
                     remove the entry from xtask/src/rules.rs"
                ),
            );
            continue;
        };
        let reached = graph.reach(&[d], false, |file, line| {
            waived(
                &files[file].scanned,
                &files[file].rel,
                line,
                RuleId::PanicReachability,
            )
        });
        let live = reached.keys().any(|&t| {
            let def = &graph.defs[t];
            let tf = &files[def.file];
            let index_in_scope = path_matches(&graph.files[def.file], PANIC_ROOT_MODULES);
            panic_sites(&tf.scanned, def.body)
                .iter()
                .any(|s| s.what != "unguarded indexing" || index_in_scope)
        });
        if !live {
            let def = &graph.defs[d];
            let f = &files[def.file];
            emit(
                out,
                &f.scanned,
                &ctx_of(f),
                RuleId::DeadAnnotation,
                def.line,
                format!(
                    "dead PANIC_ISOLATED entry: `{fname}` no longer reaches any panic \
                     site, so the quarantine claim in xtask/src/rules.rs suppresses \
                     nothing — remove the entry"
                ),
            );
        }
    }

    let used = take_waiver_log();
    for f in files {
        if f.in_test_tree {
            continue;
        }
        let toks = &f.scanned.tokens;
        let index_lines: Vec<usize> = crate::dataflow::index_open_brackets(toks)
            .iter()
            .map(|&i| toks[i].line)
            .collect();
        for (&line, text) in &f.scanned.comments {
            // Annotations inside #[cfg(test)] regions are out of scope
            // (test-local waivers are exercised only under `--allow`
            // subsets and fixture runs).
            let in_test = toks
                .iter()
                .find(|t| t.line >= line)
                .or(toks.last())
                .is_some_and(|t| t.in_test);
            if in_test {
                continue;
            }
            let t = text.trim();
            if let Some(rest) = t.strip_prefix("lint:allow(") {
                let name = rest.split(')').next().unwrap_or("");
                match RuleId::from_name(name) {
                    None => emit(
                        out,
                        &f.scanned,
                        &ctx_of(f),
                        RuleId::DeadAnnotation,
                        line,
                        format!("waiver names unknown rule `{name}` — fix or remove it"),
                    ),
                    Some(rule) => {
                        // A waiver is only verifiable when its rule ran.
                        if !enabled(rule) {
                            continue;
                        }
                        if !used.contains(&(f.rel.clone(), line, rule.name().to_string())) {
                            emit(
                                out,
                                &f.scanned,
                                &ctx_of(f),
                                RuleId::DeadAnnotation,
                                line,
                                format!(
                                    "dead waiver: `lint:allow({})` suppresses no finding \
                                     and cuts no edge in this run — remove it \
                                     (`cargo xtask lint --fix`) or re-justify it",
                                    rule.name()
                                ),
                            );
                        }
                    }
                }
            } else if t.starts_with("bounds:") {
                let live = index_lines.iter().any(|&l| line <= l && l <= line + 6);
                if !live {
                    emit(
                        out,
                        &f.scanned,
                        &ctx_of(f),
                        RuleId::DeadAnnotation,
                        line,
                        "dead `// bounds:` annotation: no indexing site within six lines \
                         below it — remove it or move it to the site it justifies"
                            .to_string(),
                    );
                }
            } else if t.starts_with("ordering:") {
                let live = toks.iter().any(|t2| {
                    t2.kind == TokKind::Ident
                        && ORDERING_VARIANT_NAMES.contains(&t2.text.as_str())
                        && line <= t2.line
                        && t2.line <= line + 6
                });
                if !live {
                    emit(
                        out,
                        &f.scanned,
                        &ctx_of(f),
                        RuleId::DeadAnnotation,
                        line,
                        "dead `// ordering:` justification: no memory-ordering site \
                         within six lines below it — remove it or move it to the site \
                         it justifies"
                            .to_string(),
                    );
                }
            }
        }
    }
}
