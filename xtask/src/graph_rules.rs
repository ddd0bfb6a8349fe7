//! The call-graph-powered rules: `panic-reachability`,
//! `hot-path-blocking`, and `deadline-propagation`.
//!
//! Unlike the token-local rules in [`crate::rules`], these reason about
//! what a function can transitively *reach*: the lint driver scans
//! every file first, then hands the whole corpus (token streams plus
//! the [`CallGraph`]) to this module. Findings land at the *site* (the
//! unwrap, the blocking call), with the message naming the entry point
//! it is reachable from — so the fix location and the reason it matters
//! are both in the report — and carry the call chain as [`FlowStep`]s,
//! rendered as SARIF `codeFlows`.
//!
//! Policy tables (roots, isolation boundaries) live in [`crate::rules`];
//! DESIGN.md §9.5/§9.6 document the rationale for each entry.

use std::collections::BTreeMap;

use crate::callgraph::{file_fns, CallGraph};
use crate::flow::{blocking_sites, call_spans, deadline_blind_sites, panic_sites, spans_contain};
use crate::rules::{
    path_matches, Finding, FlowStep, RuleId, Workspace, DEADLINE_ROOTS, HOT_PATH_ROOTS,
    PANIC_ISOLATED, PANIC_ROOT_MODULES,
};
use crate::scanner::Scanned;

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

/// Non-test defs matching a `(file suffix, fn name)` root table.
fn table_roots(graph: &CallGraph, table: &[(&str, &str)]) -> Vec<usize> {
    (0..graph.defs.len())
        .filter(|&i| !graph.defs[i].in_test && in_table(graph, i, table))
        .collect()
}

fn in_table(graph: &CallGraph, def: usize, table: &[(&str, &str)]) -> bool {
    let d = &graph.defs[def];
    table
        .iter()
        .any(|(p, f)| graph.files[d.file].ends_with(p) && d.name == *f)
}

/// Everything reachable from `roots`, with edges waived for `rule`
/// pruned (and the pruning waivers recorded as used).
fn reach(
    ws: &Workspace,
    roots: &[usize],
    cut_spawned: bool,
    rule: RuleId,
) -> BTreeMap<usize, Vec<usize>> {
    ws.graph
        .reach(roots, cut_spawned, |file, line| ws.waived(file, line, rule))
}

/// The call chain `path` as SARIF steps, ending at the offending site.
fn witness(ws: &Workspace, path: &[usize], site_file: &str, line: usize, what: &str) -> Vec<FlowStep> {
    let mut flow: Vec<FlowStep> = path
        .iter()
        .map(|&i| {
            let d = &ws.graph.defs[i];
            FlowStep {
                file: ws.graph.files[d.file].clone(),
                line: d.line,
                label: format!("enter {}", ws.graph.path_label(&[i])),
            }
        })
        .collect();
    flow.push(FlowStep {
        file: site_file.to_string(),
        line,
        label: what.to_string(),
    });
    flow
}

/// Rule `panic-reachability`: no function transitively reachable from
/// the service layer may panic — `.unwrap()`, `.expect()`, the `panic!`
/// family, or an index expression. Roots are the exported fns of
/// [`PANIC_ROOT_MODULES`] (`pub`/`pub(crate)` fns and trait-impl
/// methods); private fns are covered by being reached. Edges inside
/// `catch_unwind(..)` argument spans are not traversed (the session
/// worker's quarantine boundary converts panics below it into a
/// dead-lettered batch), nor are edges whose call site carries a
/// `lint:allow(panic-reachability)` waiver (a reviewed boundary, e.g. a
/// startup-only path). Spawned-thread edges ARE traversed: a panic on a
/// service thread is still a service defect.
pub(crate) fn panic_reachability(ws: &Workspace, out: &mut Vec<Finding>) {
    let graph = &ws.graph;
    let roots: Vec<usize> = (0..graph.defs.len())
        .filter(|&i| {
            let d = &graph.defs[i];
            d.exported
                && !d.in_test
                && !graph.in_test_tree[d.file]
                && path_matches(&graph.files[d.file], PANIC_ROOT_MODULES)
                && !in_table(graph, i, PANIC_ISOLATED)
        })
        .collect();
    for (&def_idx, path) in &reach(ws, &roots, false, RuleId::PanicReachability) {
        if in_table(graph, def_idx, PANIC_ISOLATED) {
            continue;
        }
        let def = &graph.defs[def_idx];
        let file = &ws.files[def.file];
        // The indexing class applies where untrusted input enters — defs
        // in the service-layer files themselves. Interior engine
        // indexing (CSR offsets, bitset words) is governed by
        // construction invariants local to the data structure; flagging
        // all of it transitively would drown the unwrap/expect/panic!
        // signal (90+ sites) without adding safety.
        let index_in_scope = path_matches(&file.rel, PANIC_ROOT_MODULES);
        for site in panic_sites(&file.scanned, def.body) {
            if site.what == "indexing" && !index_in_scope {
                continue;
            }
            let message = format!(
                "{} is reachable from the service layer ({}); return a typed error, use a \
                 total lookup, or waive the edge with a justification",
                site.what,
                graph.path_label(path),
            );
            let flow = witness(ws, path, &file.rel, site.line, &site.what);
            ws.emit(out, def.file, RuleId::PanicReachability, site.line, message, flow);
        }
    }
}

/// Rule `hot-path-blocking`: nothing reachable from the refinement /
/// edge_map inner loops or the front-door accept loop may block
/// (`Mutex::lock`, `sleep`, `join`, `recv`, file I/O) or allocate
/// per-iteration (`Vec::new`/`vec!` in a loop body, `format!`). Edges
/// into `spawn(..)` closures are cut — work handed to another thread
/// does not stall the loop that spawned it — and so are waived edges.
pub(crate) fn hot_path_blocking(ws: &Workspace, out: &mut Vec<Finding>) {
    let roots = table_roots(&ws.graph, HOT_PATH_ROOTS);
    for (&def_idx, path) in &reach(ws, &roots, true, RuleId::HotPathBlocking) {
        let def = &ws.graph.defs[def_idx];
        let file = &ws.files[def.file];
        let toks = &file.scanned.tokens;
        // Sinks inside spawn-closure spans belong to the spawned thread,
        // not this loop — mirror the edge cut at the token level.
        let spawn_spans = call_spans(toks, "spawn");
        for site in blocking_sites(&file.scanned, def.body) {
            let tok_idx = toks
                .iter()
                .position(|t| t.line == site.line && !t.text.is_empty());
            if tok_idx.is_some_and(|i| spans_contain(&spawn_spans, i)) {
                continue;
            }
            let message = format!(
                "{} on the hot path ({}); move it off the inner loop, hand it to another \
                 thread, or waive the edge with a justification",
                site.what,
                ws.graph.path_label(path),
            );
            let flow = witness(ws, path, &file.rel, site.line, &site.what);
            ws.emit(out, def.file, RuleId::HotPathBlocking, site.line, message, flow);
        }
    }
}

/// Rule `deadline-propagation`: everything reachable from a frontdoor
/// request handler ([`DEADLINE_ROOTS`]) that blocks — bare `recv`,
/// `sleep`, `join`, file I/O, an unbounded `loop` — must observe the
/// request deadline (the `X-Deadline-Ms` plumbing, DESIGN.md §7).
/// Spawned-thread edges are cut: work handed to another thread does not
/// hold up this request's reply (the handler's own `recv` of the result
/// is still checked).
pub(crate) fn deadline_propagation(ws: &Workspace, out: &mut Vec<Finding>) {
    let roots = table_roots(&ws.graph, DEADLINE_ROOTS);
    for (&def_idx, path) in &reach(ws, &roots, true, RuleId::DeadlinePropagation) {
        let def = &ws.graph.defs[def_idx];
        let file = &ws.files[def.file];
        let spawn_spans = call_spans(&file.scanned.tokens, "spawn");
        for sink in deadline_blind_sites(&file.scanned, def.body) {
            if spans_contain(&spawn_spans, sink.tok) {
                continue;
            }
            let message = format!(
                "{} is reachable from a frontdoor request handler ({}); bound it with the \
                 request deadline (`recv_deadline`, a deadline check in the loop) or waive \
                 the edge with a justification",
                sink.what,
                ws.graph.path_label(path),
            );
            let flow = witness(ws, path, &file.rel, sink.line, &sink.what);
            ws.emit(out, def.file, RuleId::DeadlinePropagation, sink.line, message, flow);
        }
    }
}
