//! The workspace invariants enforced by `cargo xtask lint`: rule ids,
//! the policy tables, the waiver mechanism, and the one token-local rule
//! (`law-coverage`). The three call-graph rules live in
//! [`crate::graph_rules`]; the dead-waiver check lives in the driver
//! ([`crate::lint`]).
//!
//! Policy lives here as code: the root and exclusion tables
//! below are the single source of truth. DESIGN.md §9 documents the
//! rationale for each entry; changing a table is a reviewable policy
//! change, not a lint tweak.
//!
//! The one escape hatch is a reviewed per-site waiver: an inline comment
//! `// lint:allow(<rule>) — reason` on the offending line or within the
//! six lines above (so multi-line justifications fit) suppresses a
//! single finding; on a *call site* it prunes the call-graph edge
//! instead. A waiver that suppresses nothing is itself a finding
//! (`dead-annotation`).

use std::cell::RefCell;
use std::collections::BTreeSet;

use crate::callgraph::CallGraph;
use crate::graph_rules::{build_graph, WorkspaceFile};
use crate::items::{impl_blocks, law_registrations};

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Every `impl Algorithm for T` is registered with the law harness.
    LawCoverage,
    /// No function transitively reachable from the service layer may
    /// panic.
    PanicReachability,
    /// Nothing reachable from the refinement / edge_map inner loops or
    /// the frontdoor accept loop may block or allocate per-iteration.
    HotPathBlocking,
    /// Every blocking / unbounded-loop op reachable from a frontdoor
    /// request handler observes the request deadline.
    DeadlinePropagation,
    /// Every `lint:allow` waiver names a real rule and still suppresses
    /// a live finding (checked by the driver after the rules ran).
    DeadAnnotation,
}

/// All rules, in reporting order; a rule's position is its SARIF
/// `ruleIndex` (pinned by `rule_index_table_is_stable`).
pub const ALL_RULES: [RuleId; 5] = [
    RuleId::LawCoverage,
    RuleId::PanicReachability,
    RuleId::HotPathBlocking,
    RuleId::DeadlinePropagation,
    RuleId::DeadAnnotation,
];

impl RuleId {
    /// Stable kebab-case name used by waivers and machine output.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::LawCoverage => "law-coverage",
            RuleId::PanicReachability => "panic-reachability",
            RuleId::HotPathBlocking => "hot-path-blocking",
            RuleId::DeadlinePropagation => "deadline-propagation",
            RuleId::DeadAnnotation => "dead-annotation",
        }
    }

    /// Parses a rule name; accepts `_` as an alias for `-`.
    pub fn from_name(name: &str) -> Option<Self> {
        let norm = name.replace('_', "-");
        ALL_RULES.into_iter().find(|r| r.name() == norm)
    }

    /// One-line description for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::LawCoverage => {
                "every `impl Algorithm for T` registered via `check_laws::<T>`"
            }
            RuleId::PanicReachability => {
                "no panic/unwrap/expect/indexing transitively reachable from the service layer"
            }
            RuleId::HotPathBlocking => {
                "no blocking or per-iteration allocation reachable from edge_map/refine inner \
                 loops or the accept loop"
            }
            RuleId::DeadlinePropagation => {
                "every blocking op reachable from a frontdoor handler observes the request \
                 deadline"
            }
            RuleId::DeadAnnotation => {
                "no `lint:allow` waiver that suppresses nothing or names an unknown rule"
            }
        }
    }
}

/// One step of a witness chain (a call path) attached to a graph-rule
/// finding; rendered as SARIF `codeFlows`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlowStep {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What happens at this step (`enter serve_query`, ...).
    pub label: String,
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Witness chain for graph-rule findings (empty for token-local
    /// rules); shown as SARIF `codeFlows`.
    pub flow: Vec<FlowStep>,
}

/// Modules whose `pub`/`pub(crate)` fns and trait-impl methods are the
/// entry points of the `panic-reachability` traversal: the service
/// layer plus the telemetry HTTP endpoint (a panic there kills the
/// scrape thread and blinds the operator). Private fns are covered by
/// being *reached*.
pub(crate) const PANIC_ROOT_MODULES: &[&str] = &[
    "crates/core/src/session.rs",
    "crates/core/src/streaming.rs",
    "crates/core/src/checkpoint.rs",
    "crates/core/src/frontdoor.rs",
    "crates/core/src/admission.rs",
    "crates/core/src/telemetry/http.rs",
];

/// `(file suffix, fn name)` pairs excluded from `panic-reachability`
/// roots *and* findings: functions whose every production invocation
/// runs under the session worker's `catch_unwind` quarantine (DESIGN.md
/// §8), so a panic below them dead-letters one batch and rebuilds the
/// engine instead of crashing the service. Adding an entry is a
/// reviewable policy claim that no un-quarantined call path to the
/// function exists.
pub(crate) const PANIC_ISOLATED: &[(&str, &str)] = &[
    // The engine's batch application: the session worker invokes it
    // exclusively under `catch_unwind` (session.rs worker loop).
    // Bench/CLI call it too, but those are operator tools, not the
    // service layer.
    ("crates/core/src/streaming.rs", "apply_batch"),
];

/// Entry points of the `hot-path-blocking` traversal: the refinement
/// drivers and each algebra's arm of them and of the BSP step (the call
/// graph does not follow `A::Kind::select`), the `edge_map*` kernel, and
/// the frontdoor accept loop (one slow iteration stalls every pending
/// connection).
pub(crate) const HOT_PATH_ROOTS: &[(&str, &str)] = &[
    ("crates/engine/src/edge_map.rs", "edge_map_sparse"),
    ("crates/engine/src/edge_map.rs", "edge_map_dense"),
    ("crates/engine/src/edge_map.rs", "edge_map"),
    ("crates/core/src/refine.rs", "refine"),
    ("crates/core/src/refine.rs", "propagate_decomposable"),
    ("crates/core/src/refine.rs", "propagate_selective"),
    ("crates/core/src/refine.rs", "run_hybrid"),
    ("crates/core/src/bsp.rs", "step_decomposable"),
    ("crates/core/src/bsp.rs", "step_pull_frontier"),
    ("crates/core/src/frontdoor.rs", "accept_loop"),
];

/// Entry points of the `deadline-propagation` traversal: the frontdoor
/// request handlers, which receive an optional `X-Deadline-Ms` budget
/// (DESIGN.md §7). Everything they can reach that blocks must observe
/// that deadline.
pub(crate) const DEADLINE_ROOTS: &[(&str, &str)] = &[
    ("crates/core/src/frontdoor.rs", "serve_update"),
    ("crates/core/src/frontdoor.rs", "serve_batch"),
    ("crates/core/src/frontdoor.rs", "serve_query"),
];

pub(crate) fn path_matches(path: &str, table: &[&str]) -> bool {
    table.iter().any(|ok| path == *ok || path.ends_with(ok))
}

/// Everything one lint run looks at: the scanned files, the call graph
/// over them, the one cross-file registry (`check_laws::<T>`
/// registrations), and the log of waivers that discharged something.
pub struct Workspace {
    /// Scanned files; indices match [`CallGraph::files`].
    pub files: Vec<WorkspaceFile>,
    /// Call graph over `files`.
    pub graph: CallGraph,
    /// Type names registered via `check_laws::<T>` anywhere in `files`
    /// (test trees included — registrations live in integration tests).
    registered: BTreeSet<String>,
    /// Waivers that suppressed a finding or cut an edge this run, keyed
    /// `(file index, marker line, rule)`; the dead-waiver check reports
    /// every waiver that is not in here.
    used_waivers: RefCell<BTreeSet<(usize, usize, RuleId)>>,
}

impl Workspace {
    /// Builds the call graph and the registration set over `files`.
    pub fn new(files: Vec<WorkspaceFile>) -> Self {
        let graph = build_graph(&files);
        let registered = files
            .iter()
            .flat_map(|f| law_registrations(&f.scanned))
            .collect();
        Self {
            files,
            graph,
            registered,
            used_waivers: RefCell::default(),
        }
    }

    /// True if a `lint:allow(<rule>)` waiver comment covers `line` of
    /// file `fi` (same line or up to six lines above). Every marker
    /// line that could have discharged the finding is recorded as used.
    pub(crate) fn waived(&self, fi: usize, line: usize, rule: RuleId) -> bool {
        let marker = format!("lint:allow({})", rule.name());
        let lines = self.files[fi]
            .scanned
            .comment_lines_with(line.saturating_sub(6), line, &marker);
        let mut used = self.used_waivers.borrow_mut();
        used.extend(lines.iter().map(|&l| (fi, l, rule)));
        !lines.is_empty()
    }

    /// True if the waiver comment at `line` of file `fi` discharged
    /// something for `rule` so far this run.
    pub(crate) fn waiver_used(&self, fi: usize, line: usize, rule: RuleId) -> bool {
        self.used_waivers.borrow().contains(&(fi, line, rule))
    }

    /// Records a finding unless a waiver covers it.
    pub(crate) fn emit(
        &self,
        out: &mut Vec<Finding>,
        fi: usize,
        rule: RuleId,
        line: usize,
        message: String,
        flow: Vec<FlowStep>,
    ) {
        if !self.waived(fi, line, rule) {
            out.push(Finding {
                rule,
                file: self.files[fi].rel.clone(),
                line,
                message,
                flow,
            });
        }
    }
}

/// Rule `law-coverage`: every `impl Algorithm for T` in a non-test-tree
/// file — including `#[cfg(test)]` helper algorithms — must appear in a
/// `check_laws::<T>` registration somewhere in the workspace. An
/// unregistered aggregation is one whose algebra nothing checks: its
/// BSP-equivalence guarantee (§3.3) is an unverified claim.
pub(crate) fn law_coverage(ws: &Workspace, fi: usize, out: &mut Vec<Finding>) {
    let file = &ws.files[fi];
    if file.in_test_tree {
        return;
    }
    for block in impl_blocks(&file.scanned) {
        if block.trait_name.as_deref() != Some("Algorithm")
            || ws.registered.contains(&block.type_name)
        {
            continue;
        }
        let message = format!(
            "`impl Algorithm for {0}` has no `check_laws::<{0}>` registration; add one to \
             the law-harness tests (see DESIGN.md §9)",
            block.type_name
        );
        ws.emit(out, fi, RuleId::LawCoverage, block.line, message, Vec::new());
    }
}
