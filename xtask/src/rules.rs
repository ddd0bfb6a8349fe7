//! The fifteen workspace invariants enforced by `cargo xtask lint`.
//!
//! Policy lives here as code: the sanctioned-module tables below are the
//! single source of truth for where `unsafe`, raw atomics, and thread
//! spawning may appear. DESIGN.md §9 documents the rationale for each
//! entry; changing a table is a reviewable policy change, not a lint
//! tweak.
//!
//! Escape hatches, from coarse to fine:
//! - `--allow <rule>` disables a rule for one invocation;
//! - an inline waiver comment `// lint:allow(<rule>) — reason` on the
//!   offending line or within the six lines above (the same window the
//!   SAFETY rule uses, so multi-line justifications fit) suppresses a
//!   single finding (used for documented API-contract panics).

use std::collections::BTreeSet;

use crate::items::impl_blocks;
use crate::scanner::{Scanned, TokKind, Token};

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Every `unsafe` must carry a nearby `// SAFETY:` comment.
    SafetyComment,
    /// `unsafe`, raw atomics, and thread spawning are confined to
    /// sanctioned modules.
    UnsafeConfined,
    /// No `unwrap`/`expect`/`panic!`-family calls in the service layer.
    ServiceNoPanic,
    /// No floating-point accumulation outside Aggregator ⊕/⊎ impls.
    FloatAccum,
    /// Every `impl Algorithm for T` is registered with the law harness.
    LawCoverage,
    /// Raw `Ordering::*` sites confined to sanctioned modules and
    /// justified with a `// ordering:` comment.
    OrderingAudit,
    /// Direct `.retract(` / `.delta(` calls confined to the refinement
    /// path and the law harness.
    RetractGuard,
    /// Registered metric names match `graphbolt_[a-z_]+` and appear in
    /// DESIGN.md §10's metric table.
    MetricsNaming,
    /// No function transitively reachable from the service layer may
    /// panic (call-graph upgrade of `service-no-panic`).
    PanicReachability,
    /// Nothing reachable from the refinement / edge_map inner loops or
    /// the frontdoor accept loop may block or allocate per-iteration.
    HotPathBlocking,
    /// Every Release store has a matching Acquire load of the same
    /// atomic field somewhere in the workspace.
    OrderingProtocol,
    /// Every `// bounds:` annotation is machine-proven: a dominating
    /// guard, clamp, or provenance argument must actually cover the
    /// indexing site it discharges.
    BoundsProof,
    /// No cycle in the inter-procedural lock-acquisition order.
    LockOrder,
    /// Every blocking / unbounded-loop op reachable from a frontdoor
    /// request handler observes the request deadline.
    DeadlinePropagation,
    /// Every waiver / `bounds:` / `ordering:` comment / `PANIC_ISOLATED`
    /// entry still suppresses a live finding; dead ones are errors.
    DeadAnnotation,
}

/// All rules, in reporting order; a rule's position is its SARIF
/// `ruleIndex` (pinned by `rule_index_table_is_stable`).
pub const ALL_RULES: [RuleId; 15] = [
    RuleId::SafetyComment,
    RuleId::UnsafeConfined,
    RuleId::ServiceNoPanic,
    RuleId::FloatAccum,
    RuleId::LawCoverage,
    RuleId::OrderingAudit,
    RuleId::RetractGuard,
    RuleId::MetricsNaming,
    RuleId::PanicReachability,
    RuleId::HotPathBlocking,
    RuleId::OrderingProtocol,
    RuleId::BoundsProof,
    RuleId::LockOrder,
    RuleId::DeadlinePropagation,
    RuleId::DeadAnnotation,
];

impl RuleId {
    /// Stable kebab-case name used by `--allow` and machine output.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::SafetyComment => "safety-comment",
            RuleId::UnsafeConfined => "unsafe-confined",
            RuleId::ServiceNoPanic => "service-no-panic",
            RuleId::FloatAccum => "float-accum",
            RuleId::LawCoverage => "law-coverage",
            RuleId::OrderingAudit => "ordering-audit",
            RuleId::RetractGuard => "retract-guard",
            RuleId::MetricsNaming => "metrics-naming",
            RuleId::PanicReachability => "panic-reachability",
            RuleId::HotPathBlocking => "hot-path-blocking",
            RuleId::OrderingProtocol => "ordering-protocol",
            RuleId::BoundsProof => "bounds-proof",
            RuleId::LockOrder => "lock-order",
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
            RuleId::SafetyComment => "every `unsafe` carries a `// SAFETY:` comment",
            RuleId::UnsafeConfined => {
                "unsafe / raw atomics / thread spawning only in sanctioned modules"
            }
            RuleId::ServiceNoPanic => {
                "no unwrap/expect/panic!-family in core::{session,streaming,checkpoint}"
            }
            RuleId::FloatAccum => {
                "no floating-point accumulation outside Aggregator combine/retract"
            }
            RuleId::LawCoverage => {
                "every `impl Algorithm for T` registered via `check_laws::<T>`"
            }
            RuleId::OrderingAudit => {
                "raw `Ordering::*` only in sanctioned modules, with an `// ordering:` comment"
            }
            RuleId::RetractGuard => {
                "direct `.retract(`/`.delta(` only in core::{refine,bsp,laws}"
            }
            RuleId::MetricsNaming => {
                "metric names match `graphbolt_[a-z_]+` and are documented in DESIGN.md §10"
            }
            RuleId::PanicReachability => {
                "no panic/unwrap/expect/unguarded-indexing transitively reachable from the \
                 service layer"
            }
            RuleId::HotPathBlocking => {
                "no blocking or per-iteration allocation reachable from edge_map/refine inner \
                 loops or the accept loop"
            }
            RuleId::OrderingProtocol => {
                "every Release store paired with an Acquire/AcqRel load of the same atomic field"
            }
            RuleId::BoundsProof => {
                "every `// bounds:` annotation is backed by a dominating guard, clamp, or \
                 provenance argument the dataflow analysis can verify"
            }
            RuleId::LockOrder => {
                "no cycle in the inter-procedural lock-acquisition order"
            }
            RuleId::DeadlinePropagation => {
                "every blocking op reachable from a frontdoor handler observes the request \
                 deadline"
            }
            RuleId::DeadAnnotation => {
                "no waiver, bounds/ordering comment, or PANIC_ISOLATED entry that suppresses \
                 nothing"
            }
        }
    }

    /// True for the call-graph-powered rules, which the driver runs as
    /// workspace-level passes (see [`crate::graph_rules`]) rather than
    /// per-file.
    pub fn is_graph_rule(self) -> bool {
        matches!(
            self,
            RuleId::PanicReachability
                | RuleId::HotPathBlocking
                | RuleId::OrderingProtocol
                | RuleId::LockOrder
                | RuleId::DeadlinePropagation
                | RuleId::DeadAnnotation
        )
    }
}

/// One step of a witness chain (a call path, a lock-acquisition chain)
/// attached to a graph-rule finding; rendered as SARIF `codeFlows`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlowStep {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What happens at this step (`enter serve_query`, `acquire
    /// Admission.classes`, ...).
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

/// Per-file context handed to the rules.
#[derive(Debug, Clone, Copy)]
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub path: &'a str,
    /// True for files under `tests/`, `benches/`, or `examples/` —
    /// exempt from the confinement and service rules (test harnesses may
    /// spawn threads and unwrap), but not from `safety-comment`.
    pub in_test_tree: bool,
}

/// Modules sanctioned to contain `unsafe` code.
const UNSAFE_OK: &[&str] = &["crates/core/src/sharded.rs"];

/// Modules sanctioned to use raw `std::sync::atomic` types directly.
/// Everything else goes through `engine::parallel`'s counters.
const ATOMICS_OK: &[&str] = &[
    "crates/engine/src/parallel.rs",
    "crates/engine/src/bitset.rs",
    "crates/core/src/sharded.rs",
];

/// Modules sanctioned to touch `std::thread` directly. `engine::parallel`
/// owns data parallelism (rayon); `core::session` owns its one service
/// worker thread.
const THREAD_OK: &[&str] = &[
    "crates/engine/src/parallel.rs",
    "crates/core/src/session.rs",
    "crates/core/src/telemetry/http.rs",
    "crates/core/src/frontdoor.rs",
    // The lint's own parallel file scan (scoped worker threads).
    "xtask/src/lint.rs",
];

/// The service layer: modules where a panic kills a long-lived session
/// or corrupts a checkpoint, so errors must be typed and propagated.
const SERVICE_MODULES: &[&str] = &[
    "crates/core/src/session.rs",
    "crates/core/src/streaming.rs",
    "crates/core/src/checkpoint.rs",
    "crates/core/src/frontdoor.rs",
    "crates/core/src/admission.rs",
];

/// Function names sanctioned for float accumulation: the Aggregator
/// trait's ⊕ (combine) and ⊎ (retract) implementations.
const FLOAT_FNS_OK: &[&str] = &["combine", "retract"];

/// Source trees the `float-accum` rule watches: the layers that carry
/// vertex values. Benchmark statistics, graph generators, and the
/// minidd oracle accumulate floats for non-vertex purposes and are out
/// of scope by design.
const FLOAT_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/engine/src/",
    "crates/algorithms/src/",
];

/// Modules sanctioned to call the aggregation operators `⋃-`
/// (`.retract(`) and `⋃△` (`.delta(`/`.delta_structural(`) directly:
/// the dependency-driven refinement path, the BSP baseline's tracking
/// variant, and the law harness itself. Everywhere else, aggregation
/// state must evolve through `refine`/`run_bsp`, never by hand — a
/// stray retract desynchronizes the dependency store from the values it
/// indexes.
const RETRACT_OK: &[&str] = &[
    "crates/core/src/refine.rs",
    "crates/core/src/bsp.rs",
    "crates/core/src/laws.rs",
];

/// The telemetry registration types whose `::new(` first argument is a
/// metric name (see `core::telemetry`).
const METRIC_TYPES: &[&str] = &["Counter", "Gauge", "Histogram"];

/// The memory-ordering variants of `std::sync::atomic::Ordering` (and
/// loom's mirror of it). `cmp::Ordering`'s variants (`Less`/`Equal`/
/// `Greater`) are deliberately absent so comparison code never trips
/// the audit.
const ORDERING_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Raw atomic type names whose appearance marks direct atomic usage.
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool", "AtomicU8", "AtomicU16", "AtomicU32", "AtomicU64", "AtomicUsize", "AtomicI8",
    "AtomicI16", "AtomicI32", "AtomicI64", "AtomicIsize", "AtomicPtr",
];

/// Panicking constructs disallowed in the service layer. `debug_assert*`
/// is allowed (compiled out of release builds).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Entry points of the `panic-reachability` traversal: the service
/// layer plus the telemetry HTTP endpoint (a panic there kills the
/// scrape thread and blinds the operator).
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
/// §8), so a panic below them surfaces as `SessionError::EngineFault`,
/// not a crash. Adding an entry is a reviewable policy claim that no
/// un-quarantined call path to the function exists.
pub(crate) const PANIC_ISOLATED: &[(&str, &str)] = &[
    // The engine's batch application: the session worker invokes it
    // exclusively under `catch_unwind` (session.rs worker loop), so
    // engine-internal invariant panics surface as
    // `SessionError::EngineFault`, not crashes. Bench/CLI call it too,
    // but those are operator tools, not the service layer.
    ("crates/core/src/streaming.rs", "apply_batch"),
    // Private helper with a single caller: `apply_batch` above, so it
    // inherits the same quarantine.
    ("crates/core/src/streaming.rs", "apply_batch_recompute"),
];

/// Entry points of the `hot-path-blocking` traversal: the refinement /
/// edge_map inner loops the paper's §4 performance claims rest on, and
/// the frontdoor accept loop (one slow iteration stalls every pending
/// connection).
pub(crate) const HOT_PATH_ROOTS: &[(&str, &str)] = &[
    ("crates/engine/src/edge_map.rs", "edge_map_sparse"),
    ("crates/engine/src/edge_map.rs", "edge_map_dense"),
    ("crates/engine/src/edge_map.rs", "edge_map"),
    ("crates/core/src/refine.rs", "refine"),
    ("crates/core/src/refine.rs", "run_hybrid"),
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

use std::cell::RefCell;

thread_local! {
    /// Waivers that suppressed a finding or cut an edge during the
    /// current lint run, keyed `(file, marker line, rule name)`. The
    /// dead-annotation pass (which runs last, on the same thread rule
    /// evaluation runs on) compares every waiver in the corpus against
    /// this log: unused ones are findings themselves.
    static USED_WAIVERS: RefCell<BTreeSet<(String, usize, String)>> =
        const { RefCell::new(BTreeSet::new()) };
}

/// Clears the waiver-usage log; the lint drivers call this before a run.
pub(crate) fn reset_waiver_log() {
    USED_WAIVERS.with(|log| log.borrow_mut().clear());
}

/// Takes the waiver-usage log accumulated since the last reset.
pub(crate) fn take_waiver_log() -> BTreeSet<(String, usize, String)> {
    USED_WAIVERS.with(|log| std::mem::take(&mut *log.borrow_mut()))
}

/// True if a `lint:allow(<rule>)` waiver comment covers `line` (same
/// line or up to six lines above, so multi-line reasons fit). Every
/// marker line that could have discharged the finding is recorded as
/// *used* for the dead-annotation pass.
pub(crate) fn waived(scanned: &Scanned, path: &str, line: usize, rule: RuleId) -> bool {
    let marker = format!("lint:allow({})", rule.name());
    let lines = scanned.comment_lines_with(line.saturating_sub(6), line, &marker);
    if lines.is_empty() {
        return false;
    }
    USED_WAIVERS.with(|log| {
        let mut log = log.borrow_mut();
        for l in lines {
            log.insert((path.to_string(), l, rule.name().to_string()));
        }
    });
    true
}

pub(crate) fn emit(
    out: &mut Vec<Finding>,
    scanned: &Scanned,
    ctx: &FileCtx,
    rule: RuleId,
    line: usize,
    message: String,
) {
    emit_flow(out, scanned, ctx, rule, line, message, Vec::new());
}

/// [`emit`] with a witness chain attached (graph-rule findings).
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_flow(
    out: &mut Vec<Finding>,
    scanned: &Scanned,
    ctx: &FileCtx,
    rule: RuleId,
    line: usize,
    message: String,
    flow: Vec<FlowStep>,
) {
    if !waived(scanned, ctx.path, line, rule) {
        out.push(Finding {
            rule,
            file: ctx.path.to_string(),
            line,
            message,
            flow,
        });
    }
}

/// Runs every rule in `enabled` over one scanned file.
pub fn run_rules(
    ctx: &FileCtx,
    scanned: &Scanned,
    enabled: &BTreeSet<RuleId>,
    out: &mut Vec<Finding>,
) {
    if enabled.contains(&RuleId::SafetyComment) {
        safety_comment(ctx, scanned, out);
    }
    if enabled.contains(&RuleId::UnsafeConfined) {
        unsafe_confined(ctx, scanned, out);
    }
    if enabled.contains(&RuleId::ServiceNoPanic) {
        service_no_panic(ctx, scanned, out);
    }
    if enabled.contains(&RuleId::FloatAccum) {
        float_accum(ctx, scanned, out);
    }
    if enabled.contains(&RuleId::OrderingAudit) {
        ordering_audit(ctx, scanned, out);
    }
    if enabled.contains(&RuleId::RetractGuard) {
        retract_guard(ctx, scanned, out);
    }
    if enabled.contains(&RuleId::BoundsProof) {
        crate::dataflow::bounds_proof(ctx, scanned, out);
    }
    // `law-coverage` and `metrics-naming` are cross-file (registrations
    // are checked against sets collected elsewhere — `check_laws` calls
    // and DESIGN.md §10's metric table) and are dispatched by the lint
    // driver, which owns those workspace-wide sets.
}

/// Rule `metrics-naming`: every metric registration —
/// `Counter::new("…")`, `Gauge::new("…")`, `Histogram::new("…")` — must
/// (a) pass a string literal as the name, (b) name it
/// `graphbolt_<suffix>` with a nonempty `[a-z_]` suffix, and (c) appear
/// in DESIGN.md §10's metric table (`documented` is that set; `None`
/// skips the documentation half so fixture runs stay self-contained).
/// Undocumented metrics are dashboards nobody can discover; malformed
/// names break Prometheus relabeling downstream. Test regions are
/// exempt — unit tests register throwaway metrics to probe the
/// encoders.
pub fn metrics_naming(
    ctx: &FileCtx,
    scanned: &Scanned,
    documented: Option<&BTreeSet<String>>,
    out: &mut Vec<Finding>,
) {
    if ctx.in_test_tree {
        return;
    }
    let toks = &scanned.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.in_test || tok.kind != TokKind::Ident {
            continue;
        }
        if !METRIC_TYPES.contains(&tok.text.as_str()) {
            continue;
        }
        if !(next_is(toks, i, "::")
            && toks.get(i + 2).is_some_and(|t| t.text == "new")
            && next_is(toks, i + 2, "("))
        {
            continue;
        }
        let Some(name_tok) = toks.get(i + 4).filter(|t| t.kind == TokKind::Str) else {
            emit(
                out,
                scanned,
                ctx,
                RuleId::MetricsNaming,
                tok.line,
                format!(
                    "`{}::new` name must be a string literal so the lint (and a \
                     grep) can see it",
                    tok.text
                ),
            );
            continue;
        };
        let name = name_tok.literal.as_str();
        let suffix = name.strip_prefix("graphbolt_");
        let well_formed = suffix
            .is_some_and(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        if !well_formed {
            emit(
                out,
                scanned,
                ctx,
                RuleId::MetricsNaming,
                name_tok.line,
                format!("metric name `{name}` does not match `graphbolt_[a-z_]+`"),
            );
            continue;
        }
        if let Some(docs) = documented {
            if !docs.contains(name) {
                emit(
                    out,
                    scanned,
                    ctx,
                    RuleId::MetricsNaming,
                    name_tok.line,
                    format!(
                        "metric `{name}` is not documented in DESIGN.md §10's metric \
                         table; add a row for it"
                    ),
                );
            }
        }
    }
}

/// Rule `law-coverage`: every `impl Algorithm for T` in a non-test-tree
/// file — including `#[cfg(test)]` helper algorithms — must appear in a
/// `check_laws::<T>` registration somewhere in the workspace
/// (`registered` is that set; the lint driver collects it across all
/// files, test trees included, since registrations live in integration
/// tests). An unregistered aggregation is one whose algebra nothing
/// checks: its BSP-equivalence guarantee (§3.3) is an unverified claim.
pub fn law_coverage(
    ctx: &FileCtx,
    scanned: &Scanned,
    registered: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    if ctx.in_test_tree {
        return;
    }
    for block in impl_blocks(scanned) {
        if block.trait_name.as_deref() != Some("Algorithm") {
            continue;
        }
        if !registered.contains(&block.type_name) {
            emit(
                out,
                scanned,
                ctx,
                RuleId::LawCoverage,
                block.line,
                format!(
                    "`impl Algorithm for {0}` has no `check_laws::<{0}>` registration; \
                     add one to the law-harness tests (see DESIGN.md §9)",
                    block.type_name
                ),
            );
        }
    }
}

/// Rule `ordering-audit`: every raw memory-ordering site
/// (`Ordering::Relaxed` … `Ordering::SeqCst`) must (a) sit in a module
/// sanctioned for raw atomics ([`ATOMICS_OK`]) and (b) carry a comment
/// containing `ordering:` on its line or within the six lines above,
/// stating why that ordering suffices — the same shape as the SAFETY
/// rule. The justification obligation applies everywhere, tests
/// included (a loom test asserting the wrong ordering proves nothing);
/// the confinement half exempts test regions, which may use atomics to
/// observe concurrency.
fn ordering_audit(ctx: &FileCtx, scanned: &Scanned, out: &mut Vec<Finding>) {
    let toks = &scanned.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Ident || tok.text != "Ordering" {
            continue;
        }
        if !next_is(toks, i, "::") {
            continue;
        }
        let Some(variant) = toks
            .get(i + 2)
            .filter(|t| t.kind == TokKind::Ident && ORDERING_VARIANTS.contains(&t.text.as_str()))
        else {
            continue;
        };
        let lo = tok.line.saturating_sub(6);
        let missing_comment = !scanned.comment_window_contains(lo, tok.line, "ordering:");
        let misplaced = !tok.in_test && !ctx.in_test_tree && !path_matches(ctx.path, ATOMICS_OK);
        let message = match (misplaced, missing_comment) {
            (true, true) => format!(
                "raw `Ordering::{}` outside sanctioned modules (engine::parallel, \
                 engine::bitset, core::sharded) and without a `// ordering:` \
                 justification comment",
                variant.text
            ),
            (true, false) => format!(
                "raw `Ordering::{}` outside sanctioned modules (engine::parallel, \
                 engine::bitset, core::sharded)",
                variant.text
            ),
            (false, true) => format!(
                "`Ordering::{}` without a `// ordering:` justification comment on or above it",
                variant.text
            ),
            (false, false) => continue,
        };
        emit(out, scanned, ctx, RuleId::OrderingAudit, tok.line, message);
    }
}

/// Rule `retract-guard`: direct calls to the aggregation operators
/// `.retract(`, `.delta(`, and `.delta_structural(` are confined to the
/// sanctioned refinement path ([`RETRACT_OK`]). Test regions and test
/// trees are exempt — unit tests legitimately probe the operators in
/// isolation.
fn retract_guard(ctx: &FileCtx, scanned: &Scanned, out: &mut Vec<Finding>) {
    if ctx.in_test_tree || path_matches(ctx.path, RETRACT_OK) {
        return;
    }
    let toks = &scanned.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.in_test || tok.kind != TokKind::Ident {
            continue;
        }
        let is_operator =
            tok.text == "retract" || tok.text == "delta" || tok.text == "delta_structural";
        if is_operator && prev_is(toks, i, ".") && next_is(toks, i, "(") {
            emit(
                out,
                scanned,
                ctx,
                RuleId::RetractGuard,
                tok.line,
                format!(
                    "direct `.{}(` call outside the refinement path (core::refine, \
                     core::bsp, core::laws); aggregation state must evolve through \
                     refine/BSP or the law harness",
                    tok.text
                ),
            );
        }
    }
}

/// Rule `safety-comment`: every `unsafe` token (block, fn, or impl) must
/// have a comment containing `SAFETY:` on its line or within the six
/// lines above. Applies everywhere, including tests — the obligation to
/// state why the code is sound does not stop at `#[cfg(test)]`.
fn safety_comment(ctx: &FileCtx, scanned: &Scanned, out: &mut Vec<Finding>) {
    for tok in &scanned.tokens {
        if tok.kind == TokKind::Ident && tok.text == "unsafe" {
            let lo = tok.line.saturating_sub(6);
            if !scanned.comment_window_contains(lo, tok.line, "SAFETY:") {
                emit(
                    out,
                    scanned,
                    ctx,
                    RuleId::SafetyComment,
                    tok.line,
                    "`unsafe` without a `// SAFETY:` comment on or above it".to_string(),
                );
            }
        }
    }
}

/// Rule `unsafe-confined`: `unsafe`, raw atomic types, and `std::thread`
/// may only appear in their sanctioned modules (see the tables above).
/// Test regions and test-tree files are exempt — test harnesses may
/// spawn threads and use atomics to observe concurrency.
fn unsafe_confined(ctx: &FileCtx, scanned: &Scanned, out: &mut Vec<Finding>) {
    if ctx.in_test_tree {
        return;
    }
    let toks = &scanned.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.in_test || tok.kind != TokKind::Ident {
            continue;
        }
        if tok.text == "unsafe" && !path_matches(ctx.path, UNSAFE_OK) {
            emit(
                out,
                scanned,
                ctx,
                RuleId::UnsafeConfined,
                tok.line,
                "`unsafe` outside sanctioned modules (core::sharded)".to_string(),
            );
        }
        let is_atomic_type = ATOMIC_TYPES.contains(&tok.text.as_str());
        let is_atomic_path = tok.text == "atomic" && prev_is(toks, i, "::") && ident_before(toks, i) == Some("sync");
        if (is_atomic_type || is_atomic_path) && !path_matches(ctx.path, ATOMICS_OK) {
            emit(
                out,
                scanned,
                ctx,
                RuleId::UnsafeConfined,
                tok.line,
                format!(
                    "raw atomic `{}` outside sanctioned modules (engine::parallel, \
                     engine::bitset, core::sharded); use engine::parallel counters",
                    tok.text
                ),
            );
        }
        let is_thread = tok.text == "thread"
            && (next_is(toks, i, "::")
                || (prev_is(toks, i, "::") && ident_before(toks, i) == Some("std")));
        if is_thread && !path_matches(ctx.path, THREAD_OK) {
            emit(
                out,
                scanned,
                ctx,
                RuleId::UnsafeConfined,
                tok.line,
                "`std::thread` outside sanctioned modules (engine::parallel, core::session, \
                 core::telemetry::http, core::frontdoor)"
                    .to_string(),
            );
        }
    }
}

/// Rule `service-no-panic`: inside the service layer, `.unwrap()`,
/// `.expect(..)`, and the panic macro family are forbidden outside
/// tests; failures must propagate as typed errors. `// lint:allow`
/// waivers cover documented API-contract panics.
fn service_no_panic(ctx: &FileCtx, scanned: &Scanned, out: &mut Vec<Finding>) {
    if ctx.in_test_tree || !path_matches(ctx.path, SERVICE_MODULES) {
        return;
    }
    let toks = &scanned.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.in_test || tok.kind != TokKind::Ident {
            continue;
        }
        if (tok.text == "unwrap" || tok.text == "expect") && prev_is(toks, i, ".") {
            emit(
                out,
                scanned,
                ctx,
                RuleId::ServiceNoPanic,
                tok.line,
                format!(
                    "`.{}()` in service layer; propagate a typed error instead",
                    tok.text
                ),
            );
        }
        if PANIC_MACROS.contains(&tok.text.as_str()) && next_is(toks, i, "!") {
            emit(
                out,
                scanned,
                ctx,
                RuleId::ServiceNoPanic,
                tok.line,
                format!(
                    "`{}!` in service layer; propagate a typed error instead",
                    tok.text
                ),
            );
        }
    }
}

/// Rule `float-accum`: floating-point accumulation (`+=`/`-=` with float
/// evidence, or `.sum::<f32|f64>()`) outside an Aggregator `combine` /
/// `retract` implementation. Float-valued results must flow through the
/// ⊕/⊎ operators so incremental and from-scratch runs agree bit-for-bit
/// (§3 of the paper: refinement replays the same operator sequence).
///
/// Float evidence is tracked token-locally: idents bound with a float
/// literal or an `f32`/`f64` annotation are marked (scoped to their
/// enclosing fn; struct fields file-wide), and a compound assignment
/// whose statement mentions a marked ident or float literal fires.
/// Accumulation through unannotated generics is out of scope
/// (documented blind spot). Only the vertex-value-bearing trees in
/// [`FLOAT_SCOPE`] are watched.
fn float_accum(ctx: &FileCtx, scanned: &Scanned, out: &mut Vec<Finding>) {
    if ctx.in_test_tree || !FLOAT_SCOPE.iter().any(|p| ctx.path.contains(p)) {
        return;
    }
    let toks = &scanned.tokens;
    let float_idents = collect_float_idents(toks);
    for (i, tok) in toks.iter().enumerate() {
        if tok.in_test {
            continue;
        }
        let sanctioned = tok
            .fn_name
            .as_deref()
            .is_some_and(|f| FLOAT_FNS_OK.contains(&f));
        if sanctioned {
            continue;
        }
        // `.sum::<f32>()` / `.sum::<f64>()`.
        if tok.kind == TokKind::Ident && tok.text == "sum" && prev_is(toks, i, ".") {
            let turbofish: Vec<&str> = toks[i + 1..]
                .iter()
                .take(4)
                .map(|t| t.text.as_str())
                .collect();
            if turbofish.len() == 4
                && turbofish[0] == "::"
                && turbofish[1] == "<"
                && (turbofish[2] == "f32" || turbofish[2] == "f64")
            {
                emit(
                    out,
                    scanned,
                    ctx,
                    RuleId::FloatAccum,
                    tok.line,
                    format!(
                        "`.sum::<{}>()` outside Aggregator combine/retract",
                        turbofish[2]
                    ),
                );
            }
        }
        // `+=` / `-=` with float evidence anywhere in the statement.
        if tok.kind == TokKind::Punct && (tok.text == "+=" || tok.text == "-=") {
            let (lo, hi) = statement_window(toks, i);
            let evidence = toks[lo..hi].iter().any(|t| {
                t.kind == TokKind::Float
                    || (t.kind == TokKind::Ident
                        && (t.text == "f32"
                            || t.text == "f64"
                            || float_idents.contains(&(tok.fn_name.clone(), t.text.clone()))
                            || float_idents.contains(&(None, t.text.clone()))))
            });
            if evidence {
                emit(
                    out,
                    scanned,
                    ctx,
                    RuleId::FloatAccum,
                    tok.line,
                    format!(
                        "floating-point `{}` accumulation outside Aggregator combine/retract",
                        tok.text
                    ),
                );
            }
        }
    }
}

/// Collects identifiers with float evidence: `let`-bound with a float
/// initializer, or annotated `: f32` / `: f64` (params, fields, locals —
/// possibly behind references). Keys are `(enclosing fn, name)`, so a
/// float local in one fn never taints a same-named integer local in
/// another; struct-field declarations sit outside any fn and therefore
/// apply file-wide via the `(None, name)` key.
fn collect_float_idents(toks: &[Token]) -> BTreeSet<(Option<String>, String)> {
    let mut set = BTreeSet::new();
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        // `name : [&mut] f32|f64`
        if next_is(toks, i, ":") {
            let ty = toks[i + 2..]
                .iter()
                .take(3)
                .map(|t| t.text.as_str())
                .find(|t| *t != "&" && *t != "mut")
                .unwrap_or("");
            if ty == "f32" || ty == "f64" {
                set.insert((tok.fn_name.clone(), tok.text.clone()));
            }
        }
        // `let [mut] name = <expr containing a float literal> ;`
        if tok.text == "let" {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.text == "mut") {
                j += 1;
            }
            if let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
                let saw_float = toks[j + 1..]
                    .iter()
                    .take(24)
                    .take_while(|t| t.text != ";")
                    .any(|t| t.kind == TokKind::Float || t.text == "f32" || t.text == "f64");
                if saw_float {
                    set.insert((name.fn_name.clone(), name.text.clone()));
                }
            }
        }
    }
    set
}

/// Token range of the statement containing index `i`: from the token
/// after the previous `;`/`{`/`}` through the next `;` (or brace).
pub(crate) fn statement_window(toks: &[Token], i: usize) -> (usize, usize) {
    let mut lo = i;
    while lo > 0 {
        let t = &toks[lo - 1].text;
        if t == ";" || t == "{" || t == "}" {
            break;
        }
        lo -= 1;
    }
    let mut hi = i;
    while hi < toks.len() {
        let t = &toks[hi].text;
        if t == ";" || t == "{" || t == "}" {
            break;
        }
        hi += 1;
    }
    (lo, hi.min(toks.len()))
}

fn prev_is(toks: &[Token], i: usize, text: &str) -> bool {
    i > 0 && toks[i - 1].text == text
}

fn next_is(toks: &[Token], i: usize, text: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.text == text)
}

/// Finds the identifier immediately before the `::` preceding token `i`
/// (for `std :: thread` / `sync :: atomic` path checks).
fn ident_before(toks: &[Token], i: usize) -> Option<&str> {
    if i >= 2 && toks[i - 1].text == "::" {
        Some(toks[i - 2].text.as_str())
    } else {
        None
    }
}
