//! Fixture-backed tests for the fifteen lint rules: each rule has one
//! passing and one violating fixture with an exact expected finding
//! count, plus `--allow` behavior, the `--changed` restriction, and a
//! whole-tree cleanliness check. The call-graph rules run through the
//! same single-file harness — the simulated path picks which root and
//! sanctioned-module tables apply.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use xtask::lint::{
    lint_source, lint_source_with_docs, lint_workspace, lint_workspace_with, render_text,
};
use xtask::rules::{Finding, RuleId, ALL_RULES};

fn fixture(rule_dir: &str, name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule_dir)
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn lint_fixture(rule: RuleId, rule_dir: &str, name: &str, as_path: &str) -> Vec<Finding> {
    let enabled: BTreeSet<RuleId> = [rule].into_iter().collect();
    lint_source(as_path, &fixture(rule_dir, name), &enabled)
}

#[test]
fn safety_comment_pass_fixture_is_clean() {
    let f = lint_fixture(
        RuleId::SafetyComment,
        "safety_comment",
        "pass.rs",
        "crates/core/src/sharded.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn safety_comment_fail_fixture_has_two_findings() {
    let f = lint_fixture(
        RuleId::SafetyComment,
        "safety_comment",
        "fail.rs",
        "crates/core/src/sharded.rs",
    );
    assert_eq!(f.len(), 2, "{f:?}");
    assert!(f.iter().all(|x| x.rule == RuleId::SafetyComment));
    assert_eq!(f[0].line, 5, "unsafe impl line");
    assert_eq!(f[1].line, 8, "unsafe block line");
}

#[test]
fn safety_comment_applies_even_in_sanctioned_modules() {
    // Sanctioned for `unsafe` existing is not sanctioned for missing
    // SAFETY comments — the rule has no path exemptions.
    let enabled: BTreeSet<RuleId> = [RuleId::SafetyComment].into_iter().collect();
    let f = lint_source(
        "crates/core/src/sharded.rs",
        "pub fn f(p: *const u8) -> u8 { unsafe { *p } }",
        &enabled,
    );
    assert_eq!(f.len(), 1);
}

#[test]
fn unsafe_confined_pass_fixture_clean_in_sanctioned_module() {
    let f = lint_fixture(
        RuleId::UnsafeConfined,
        "unsafe_confined",
        "pass.rs",
        "crates/engine/src/parallel.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn unsafe_confined_same_code_fires_in_unsanctioned_module() {
    // The *same* passing fixture, linted as an unsanctioned module,
    // fires on both atomic-bearing lines (the `use` and the signature).
    let f = lint_fixture(
        RuleId::UnsafeConfined,
        "unsafe_confined",
        "pass.rs",
        "crates/graph/src/lib.rs",
    );
    assert_eq!(f.len(), 2, "{f:?}");
}

#[test]
fn unsafe_confined_fail_fixture_has_four_findings() {
    let f = lint_fixture(
        RuleId::UnsafeConfined,
        "unsafe_confined",
        "fail.rs",
        "crates/minidd/src/worker.rs",
    );
    assert_eq!(f.len(), 4, "{}", render_text(&f));
    let messages: Vec<&str> = f.iter().map(|x| x.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("std::thread")));
    assert!(messages.iter().any(|m| m.contains("`unsafe`")));
    assert!(messages.iter().any(|m| m.contains("raw atomic")));
}

#[test]
fn unsafe_confined_exempts_test_trees_and_test_mods() {
    let enabled: BTreeSet<RuleId> = [RuleId::UnsafeConfined].into_iter().collect();
    // tests/ directory: exempt wholesale.
    let f = lint_source(
        "crates/engine/tests/stress.rs",
        &fixture("unsafe_confined", "fail.rs"),
        &enabled,
    );
    assert!(f.is_empty(), "{f:?}");
    // #[cfg(test)] region inside a lib file: exempt.
    let src = "#[cfg(test)]\nmod tests {\n use std::sync::atomic::AtomicU64;\n fn t() { std::thread::spawn(|| {}); }\n}\n";
    let f = lint_source("crates/graph/src/lib.rs", src, &enabled);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn service_no_panic_pass_fixture_is_clean() {
    // Exercises both the Ok path and the inline waiver.
    let f = lint_fixture(
        RuleId::ServiceNoPanic,
        "service_no_panic",
        "pass.rs",
        "crates/core/src/streaming.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn service_no_panic_fail_fixture_has_three_findings() {
    let f = lint_fixture(
        RuleId::ServiceNoPanic,
        "service_no_panic",
        "fail.rs",
        "crates/core/src/checkpoint.rs",
    );
    assert_eq!(f.len(), 3, "{}", render_text(&f));
    assert!(f[0].message.contains("unwrap"));
    assert!(f[1].message.contains("panic"));
    assert!(f[2].message.contains("expect"));
}

#[test]
fn service_no_panic_scoped_to_service_modules() {
    // The same violations outside the service layer are not this rule's
    // business (clippy handles general unwrap hygiene).
    let f = lint_fixture(
        RuleId::ServiceNoPanic,
        "service_no_panic",
        "fail.rs",
        "crates/graph/src/lib.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn float_accum_pass_fixture_is_clean() {
    let f = lint_fixture(
        RuleId::FloatAccum,
        "float_accum",
        "pass.rs",
        "crates/algorithms/src/pagerank.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn float_accum_fail_fixture_has_two_findings() {
    let f = lint_fixture(
        RuleId::FloatAccum,
        "float_accum",
        "fail.rs",
        "crates/algorithms/src/pagerank.rs",
    );
    assert_eq!(f.len(), 2, "{}", render_text(&f));
    assert!(f[0].message.contains("+="));
    assert!(f[1].message.contains("sum::<f32>"));
}

#[test]
fn law_coverage_pass_fixture_is_clean() {
    let f = lint_fixture(
        RuleId::LawCoverage,
        "law_coverage",
        "pass.rs",
        "crates/algorithms/src/alg.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn law_coverage_fail_fixture_flags_each_orphan_impl() {
    let f = lint_fixture(
        RuleId::LawCoverage,
        "law_coverage",
        "fail.rs",
        "crates/algorithms/src/alg.rs",
    );
    assert_eq!(f.len(), 2, "{}", render_text(&f));
    assert_eq!(f[0].line, 10, "plain-path orphan impl line");
    assert!(f[0].message.contains("Orphan"));
    assert_eq!(f[1].line, 15, "qualified-path orphan impl line");
    assert!(f[1].message.contains("AlsoOrphan"));
}

#[test]
fn law_coverage_exempts_test_trees() {
    // Integration tests define throwaway broken aggregators on purpose
    // (the law harness's own negative tests); they need no registration.
    let f = lint_fixture(
        RuleId::LawCoverage,
        "law_coverage",
        "fail.rs",
        "crates/algorithms/tests/laws.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn ordering_audit_pass_fixture_is_clean() {
    let f = lint_fixture(
        RuleId::OrderingAudit,
        "ordering_audit",
        "pass.rs",
        "crates/engine/src/parallel.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn ordering_audit_fail_fixture_in_unsanctioned_module() {
    // Unannotated + misplaced, annotated-but-misplaced, and a test-region
    // site missing its comment: three findings.
    let f = lint_fixture(
        RuleId::OrderingAudit,
        "ordering_audit",
        "fail.rs",
        "crates/core/src/refine.rs",
    );
    assert_eq!(f.len(), 3, "{}", render_text(&f));
    assert_eq!(f[0].line, 7);
    assert!(f[0].message.contains("outside sanctioned"));
    assert!(f[0].message.contains("ordering:"));
    assert_eq!(f[1].line, 12, "annotated site still misplaced");
    assert!(f[1].message.contains("outside sanctioned"));
    assert!(!f[1].message.contains("justification"));
    assert_eq!(f[2].line, 21, "test region exempts confinement only");
    assert!(f[2].message.contains("justification"));
    assert!(!f[2].message.contains("outside sanctioned"));
}

#[test]
fn ordering_audit_comment_required_even_in_sanctioned_module() {
    // Same fixture in a sanctioned module: the misplacement findings
    // drop, the two missing-comment findings remain.
    let f = lint_fixture(
        RuleId::OrderingAudit,
        "ordering_audit",
        "fail.rs",
        "crates/engine/src/parallel.rs",
    );
    assert_eq!(f.len(), 2, "{}", render_text(&f));
    assert_eq!(f[0].line, 7);
    assert_eq!(f[1].line, 21);
    assert!(f.iter().all(|x| x.message.contains("justification")));
}

#[test]
fn retract_guard_pass_fixture_clean_in_refine_path() {
    let f = lint_fixture(
        RuleId::RetractGuard,
        "retract_guard",
        "pass.rs",
        "crates/core/src/refine.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn retract_guard_fail_fixture_flags_each_operator_call() {
    let f = lint_fixture(
        RuleId::RetractGuard,
        "retract_guard",
        "fail.rs",
        "crates/core/src/streaming.rs",
    );
    assert_eq!(f.len(), 3, "{}", render_text(&f));
    assert!(f[0].message.contains(".retract("));
    assert!(f[1].message.contains(".delta("));
    assert!(f[2].message.contains(".delta_structural("));
    // Field reads/writes named `delta` (lines 8-9) and the cfg(test)
    // probe did not fire.
    assert_eq!(f.iter().map(|x| x.line).collect::<Vec<_>>(), [5, 6, 7]);
}

#[test]
fn retract_guard_exempts_test_trees() {
    let f = lint_fixture(
        RuleId::RetractGuard,
        "retract_guard",
        "fail.rs",
        "crates/core/tests/probe.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn metrics_naming_pass_fixture_is_clean() {
    let f = lint_fixture(
        RuleId::MetricsNaming,
        "metrics_naming",
        "pass.rs",
        "crates/core/src/telemetry/mod.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn metrics_naming_fail_fixture_flags_each_violation() {
    // Missing prefix, bad charset, empty suffix, computed name — the
    // well-formed registration on line 8 passes (no doc set injected).
    let f = lint_fixture(
        RuleId::MetricsNaming,
        "metrics_naming",
        "fail.rs",
        "crates/core/src/telemetry/mod.rs",
    );
    assert_eq!(f.len(), 4, "{}", render_text(&f));
    assert_eq!(f.iter().map(|x| x.line).collect::<Vec<_>>(), [4, 5, 6, 7]);
    assert!(f[0].message.contains("graphbolt_[a-z_]+"));
    assert!(f[1].message.contains("graphbolt_QueueDepth"));
    assert!(f[2].message.contains("graphbolt_`"));
    assert!(f[3].message.contains("string literal"));
}

#[test]
fn metrics_naming_documented_set_is_injected_not_read() {
    // The fixture tests never read DESIGN.md: the documented set is
    // passed in, so the suite works in a bare source export.
    let enabled: BTreeSet<RuleId> = [RuleId::MetricsNaming].into_iter().collect();
    let src = fixture("metrics_naming", "pass.rs");
    let path = "crates/core/src/telemetry/mod.rs";
    let documented: BTreeSet<String> = [
        "graphbolt_fixture_batches_total",
        "graphbolt_fixture_queue_occupancy",
        "graphbolt_fixture_refine_ns",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    let f = lint_source_with_docs(path, &src, &enabled, Some(&documented));
    assert!(f.is_empty(), "{f:?}");

    // An empty documented set flags every (well-formed) registration.
    let none = BTreeSet::new();
    let f = lint_source_with_docs(path, &src, &enabled, Some(&none));
    assert_eq!(f.len(), 3, "{}", render_text(&f));
    assert!(f.iter().all(|x| x.message.contains("DESIGN.md")));
}

#[test]
fn metrics_naming_exempts_test_trees() {
    let f = lint_fixture(
        RuleId::MetricsNaming,
        "metrics_naming",
        "fail.rs",
        "crates/core/tests/encoders.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn const_generic_signature_braces_do_not_misscope() {
    // Regression fixture for the scanner's former blind spot: the
    // `{ 1 }` const brace used to consume the pending `#[cfg(test)]`
    // flag, so the thread spawn in `helper`'s body looked like live
    // code and tripped `unsafe-confined` in an unsanctioned module.
    let enabled: BTreeSet<RuleId> = [RuleId::UnsafeConfined].into_iter().collect();
    let f = lint_source(
        "crates/graph/src/lib.rs",
        &fixture("scanner", "const_generic.rs"),
        &enabled,
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn escaped_newline_keeps_line_numbers_exact() {
    // Regression fixture for the scanner's other former blind spot:
    // the `\` line continuation inside a string literal was skipped
    // as a two-character escape without counting its newline, so every
    // finding after the string landed one line short per continuation.
    let enabled: BTreeSet<RuleId> = [RuleId::ServiceNoPanic].into_iter().collect();
    let f = lint_source(
        "crates/core/src/session.rs",
        &fixture("scanner", "escaped_newline.rs"),
        &enabled,
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].line, 13, "unwrap must land on its true line: {f:?}");
}

#[test]
fn changed_restriction_filters_findings_but_scans_whole_tree() {
    let dir = std::env::temp_dir().join(format!("xtask-changed-{}", std::process::id()));
    let src_dir = dir.join("crates/algorithms/src");
    std::fs::create_dir_all(&src_dir).expect("create temp workspace");
    // The impl lives in one file, its registration in another: a scan
    // restricted to the impl's file must still honor the registration.
    std::fs::write(
        src_dir.join("alg.rs"),
        "pub struct Covered;\nimpl Algorithm for Covered { fn f(&self) {} }\n\
         pub struct Orphan;\nimpl Algorithm for Orphan { fn f(&self) {} }\n",
    )
    .expect("write alg.rs");
    std::fs::write(
        src_dir.join("other.rs"),
        "fn reg() { check_laws::<Covered>(&Covered, spec()); }\n\
         fn bad() { let mut x = 0.0f64; x += 1.0; }\n",
    )
    .expect("write other.rs");

    let changed: BTreeSet<String> = ["crates/algorithms/src/alg.rs".to_string()]
        .into_iter()
        .collect();
    let findings =
        lint_workspace_with(&dir, &BTreeSet::new(), Some(&changed)).expect("restricted walk");
    // Only alg.rs findings survive the restriction: the Orphan impl.
    // other.rs's float-accum violation is filtered out, but its
    // `check_laws::<Covered>` registration still counts.
    assert_eq!(findings.len(), 1, "{}", render_text(&findings));
    assert_eq!(findings[0].rule, RuleId::LawCoverage);
    assert!(findings[0].message.contains("Orphan"));

    let all = lint_workspace_with(&dir, &BTreeSet::new(), None).expect("full walk");
    assert!(
        all.iter().any(|f| f.rule == RuleId::FloatAccum),
        "unrestricted walk must see other.rs too: {}",
        render_text(&all)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn panic_reachability_pass_fixture_is_clean() {
    let f = lint_fixture(
        RuleId::PanicReachability,
        "panic_reachability",
        "pass.rs",
        "crates/core/src/frontdoor.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn panic_reachability_fail_fixture_flags_each_site() {
    let f = lint_fixture(
        RuleId::PanicReachability,
        "panic_reachability",
        "fail.rs",
        "crates/core/src/frontdoor.rs",
    );
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, [11, 16, 20], "{f:?}");
    assert!(f[0].message.contains(".unwrap()"), "{f:?}");
    assert!(f[1].message.contains("unguarded indexing"), "{f:?}");
    assert!(f[2].message.contains("panic!"), "{f:?}");
    // Every message names the service entry point the site is
    // reachable from.
    for x in &f {
        assert!(x.message.contains("reachable from the service layer"), "{x:?}");
    }
}

#[test]
fn panic_reachability_scoped_to_service_roots() {
    // The same panicking code outside the service layer has no
    // traversal roots, so the rule stays silent.
    let f = lint_fixture(
        RuleId::PanicReachability,
        "panic_reachability",
        "fail.rs",
        "crates/graph/src/csr.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn hot_path_blocking_pass_fixture_is_clean() {
    let f = lint_fixture(
        RuleId::HotPathBlocking,
        "hot_path_blocking",
        "pass.rs",
        "crates/engine/src/edge_map.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn hot_path_blocking_fail_fixture_flags_each_sink() {
    let f = lint_fixture(
        RuleId::HotPathBlocking,
        "hot_path_blocking",
        "fail.rs",
        "crates/engine/src/edge_map.rs",
    );
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, [17, 24, 28], "{f:?}");
    assert!(f[0].message.contains("Vec::new in a loop body"), "{f:?}");
    assert!(f[1].message.contains("sleep"), "{f:?}");
    assert!(f[2].message.contains("format!"), "{f:?}");
}

#[test]
fn hot_path_blocking_scoped_to_hot_roots() {
    // Same code under a path with no hot-path roots: no findings.
    let f = lint_fixture(
        RuleId::HotPathBlocking,
        "hot_path_blocking",
        "fail.rs",
        "crates/core/src/checkpoint.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn ordering_protocol_pass_fixture_is_clean() {
    let f = lint_fixture(
        RuleId::OrderingProtocol,
        "ordering_protocol",
        "pass.rs",
        "crates/core/src/sharded.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn ordering_protocol_fail_fixture_flags_orphaned_store() {
    let f = lint_fixture(
        RuleId::OrderingProtocol,
        "ordering_protocol",
        "fail.rs",
        "crates/core/src/sharded.rs",
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].line, 14, "{f:?}");
    assert!(f[0].message.contains("PublishedCell.seq"), "{f:?}");
    assert!(f[0].message.contains("orphaned publication"), "{f:?}");
}

#[test]
fn bounds_proof_pass_fixture_proves_every_annotation() {
    let f = lint_fixture(
        RuleId::BoundsProof,
        "bounds_proof",
        "pass.rs",
        "crates/engine/src/edge_map.rs",
    );
    assert!(f.is_empty(), "{}", render_text(&f));
}

#[test]
fn bounds_proof_fail_fixture_flags_each_unproven_annotation() {
    let f = lint_fixture(
        RuleId::BoundsProof,
        "bounds_proof",
        "fail.rs",
        "crates/engine/src/edge_map.rs",
    );
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, [6, 12], "{}", render_text(&f));
    assert!(f
        .iter()
        .all(|x| x.message.contains("not machine-provable")));
}

#[test]
fn bounds_proof_exempts_test_trees() {
    let f = lint_fixture(
        RuleId::BoundsProof,
        "bounds_proof",
        "fail.rs",
        "crates/engine/tests/stress.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn lock_order_pass_fixture_is_clean() {
    let f = lint_fixture(
        RuleId::LockOrder,
        "lock_order",
        "pass.rs",
        "crates/core/src/sharded.rs",
    );
    assert!(f.is_empty(), "{}", render_text(&f));
}

#[test]
fn lock_order_fail_fixture_reports_the_cycle_once() {
    let f = lint_fixture(
        RuleId::LockOrder,
        "lock_order",
        "fail.rs",
        "crates/core/src/sharded.rs",
    );
    assert_eq!(f.len(), 1, "{}", render_text(&f));
    assert_eq!(f[0].line, 17, "second acquisition of the a→b path");
    assert!(f[0].message.contains("lock-order cycle"), "{f:?}");
    // The witness chain walks both conflicting acquisition orders.
    assert!(f[0].flow.len() >= 2, "{:?}", f[0].flow);
}

#[test]
fn deadline_propagation_pass_fixture_is_clean() {
    let f = lint_fixture(
        RuleId::DeadlinePropagation,
        "deadline_propagation",
        "pass.rs",
        "crates/core/src/frontdoor.rs",
    );
    assert!(f.is_empty(), "{}", render_text(&f));
}

#[test]
fn deadline_propagation_fail_fixture_flags_the_blind_recv() {
    let f = lint_fixture(
        RuleId::DeadlinePropagation,
        "deadline_propagation",
        "fail.rs",
        "crates/core/src/frontdoor.rs",
    );
    assert_eq!(f.len(), 1, "{}", render_text(&f));
    assert_eq!(f[0].line, 9, "the recv() inside the callee");
    assert!(f[0].message.contains("recv"), "{f:?}");
    assert!(f[0].message.contains("serve_query"), "{f:?}");
    // enter serve_query → enter wait_reply → the blocking site.
    assert_eq!(f[0].flow.len(), 3, "{:?}", f[0].flow);
    assert_eq!(f[0].flow[2].line, 9);
}

#[test]
fn deadline_propagation_scoped_to_frontdoor_roots() {
    // The same blind recv under a path with no request-handler roots
    // is not this rule's business.
    let f = lint_fixture(
        RuleId::DeadlinePropagation,
        "deadline_propagation",
        "fail.rs",
        "crates/engine/src/edge_map.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

fn lint_dead_annotation(name: &str) -> Vec<Finding> {
    // The dead-annotation rule needs the waived rule enabled to judge
    // waiver liveness: service-no-panic rides along.
    let enabled: BTreeSet<RuleId> = [RuleId::DeadAnnotation, RuleId::ServiceNoPanic]
        .into_iter()
        .collect();
    lint_source(
        "crates/core/src/checkpoint.rs",
        &fixture("dead_annotation", name),
        &enabled,
    )
}

#[test]
fn dead_annotation_pass_fixture_is_clean() {
    let f = lint_dead_annotation("pass.rs");
    assert!(f.is_empty(), "{}", render_text(&f));
}

#[test]
fn dead_annotation_fail_fixture_flags_each_stale_annotation() {
    let f = lint_dead_annotation("fail.rs");
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, [6, 11, 15, 21], "{}", render_text(&f));
    assert!(f[0].message.contains("dead waiver"), "{f:?}");
    assert!(f[1].message.contains("no-such-rule"), "{f:?}");
    assert!(f[2].message.contains("bounds:"), "{f:?}");
    assert!(f[3].message.contains("ordering:"), "{f:?}");
}

/// `--fix` round trip in a temp workspace: the dead waiver line is
/// removed mechanically and the re-lint comes back clean (exit 0).
#[test]
fn fix_removes_dead_waiver_and_tree_is_clean() {
    let dir = std::env::temp_dir().join(format!("xtask-fix-{}", std::process::id()));
    let src_dir = dir.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("create temp workspace");
    let file = src_dir.join("checkpoint.rs");
    std::fs::write(
        &file,
        "pub fn twice(x: u64) -> u64 {\n    \
         // lint:allow(float-accum) — stale waiver left by a refactor.\n    \
         x * 2\n}\n",
    )
    .expect("write checkpoint.rs");

    let bin = env!("CARGO_BIN_EXE_xtask");
    let out = std::process::Command::new(bin)
        .args(["lint", "--fix", "--root"])
        .arg(&dir)
        .output()
        .expect("run xtask");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(
        stderr.contains("removed 1 dead annotation line"),
        "stderr: {stderr}"
    );
    let fixed = std::fs::read_to_string(&file).expect("re-read");
    assert!(!fixed.contains("lint:allow"), "{fixed}");
    assert!(fixed.contains("x * 2"), "the code itself survives: {fixed}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Graph-rule findings carry their witness chain into SARIF as
/// `codeFlows`, and every result's `ruleIndex` matches the rule's
/// stable position in the `ALL_RULES` table.
#[test]
fn sarif_code_flows_for_graph_findings() {
    use xtask::lint::render_sarif;

    let f = lint_fixture(
        RuleId::DeadlinePropagation,
        "deadline_propagation",
        "fail.rs",
        "crates/core/src/frontdoor.rs",
    );
    assert_eq!(f.len(), 1, "{}", render_text(&f));
    let sarif = render_sarif(&f);
    assert!(sarif.contains("\"codeFlows\""), "{sarif}");
    assert!(sarif.contains("\"threadFlows\""), "{sarif}");
    assert!(
        sarif.contains("\"ruleIndex\": 13"),
        "deadline-propagation sits at index 13: {sarif}"
    );
    // The chain's entry frame names the handler file and line 5.
    assert!(sarif.contains("serve_query"), "{sarif}");

    // Per-file findings carry no chain and emit no codeFlows.
    let f = lint_fixture(
        RuleId::BoundsProof,
        "bounds_proof",
        "fail.rs",
        "crates/engine/src/edge_map.rs",
    );
    let sarif = render_sarif(&f);
    assert!(!sarif.contains("\"codeFlows\""), "{sarif}");
    assert!(sarif.contains("\"ruleIndex\": 11"), "{sarif}");
}

/// SARIF `ruleIndex` positions — CI dashboards key on them, so moving
/// one is a deliberate, reviewed change.
#[test]
fn rule_index_table_is_stable() {
    let expected = [
        (RuleId::SafetyComment, 0),
        (RuleId::UnsafeConfined, 1),
        (RuleId::ServiceNoPanic, 2),
        (RuleId::FloatAccum, 3),
        (RuleId::LawCoverage, 4),
        (RuleId::OrderingAudit, 5),
        (RuleId::RetractGuard, 6),
        (RuleId::MetricsNaming, 7),
        (RuleId::PanicReachability, 8),
        (RuleId::HotPathBlocking, 9),
        (RuleId::OrderingProtocol, 10),
        (RuleId::BoundsProof, 11),
        (RuleId::LockOrder, 12),
        (RuleId::DeadlinePropagation, 13),
        (RuleId::DeadAnnotation, 14),
    ];
    assert_eq!(ALL_RULES.len(), expected.len());
    for (rule, idx) in expected {
        assert_eq!(ALL_RULES[idx], rule, "{} moved", rule.name());
    }
}

#[test]
fn allow_disables_each_rule() {
    // `--allow <rule>` maps to removing the rule from the enabled set;
    // with its rule disabled, every fail fixture lints clean.
    let cases: [(RuleId, &str, &str); 15] = [
        (
            RuleId::SafetyComment,
            "safety_comment",
            "crates/core/src/sharded.rs",
        ),
        (
            RuleId::UnsafeConfined,
            "unsafe_confined",
            "crates/minidd/src/worker.rs",
        ),
        (
            RuleId::ServiceNoPanic,
            "service_no_panic",
            "crates/core/src/checkpoint.rs",
        ),
        (
            RuleId::FloatAccum,
            "float_accum",
            "crates/algorithms/src/pagerank.rs",
        ),
        (
            RuleId::LawCoverage,
            "law_coverage",
            "crates/algorithms/src/alg.rs",
        ),
        (
            RuleId::OrderingAudit,
            "ordering_audit",
            "crates/core/src/refine.rs",
        ),
        (
            RuleId::RetractGuard,
            "retract_guard",
            "crates/core/src/streaming.rs",
        ),
        (
            RuleId::MetricsNaming,
            "metrics_naming",
            "crates/core/src/telemetry/mod.rs",
        ),
        (
            RuleId::PanicReachability,
            "panic_reachability",
            "crates/core/src/frontdoor.rs",
        ),
        (
            RuleId::HotPathBlocking,
            "hot_path_blocking",
            "crates/engine/src/edge_map.rs",
        ),
        (
            RuleId::OrderingProtocol,
            "ordering_protocol",
            "crates/core/src/sharded.rs",
        ),
        (
            RuleId::BoundsProof,
            "bounds_proof",
            "crates/engine/src/edge_map.rs",
        ),
        (
            RuleId::LockOrder,
            "lock_order",
            "crates/core/src/sharded.rs",
        ),
        (
            RuleId::DeadlinePropagation,
            "deadline_propagation",
            "crates/core/src/frontdoor.rs",
        ),
        (
            RuleId::DeadAnnotation,
            "dead_annotation",
            "crates/core/src/checkpoint.rs",
        ),
    ];
    for (rule, dir, path) in cases {
        let enabled: BTreeSet<RuleId> = ALL_RULES.into_iter().filter(|r| *r != rule).collect();
        let findings: Vec<Finding> = lint_source(path, &fixture(dir, "fail.rs"), &enabled)
            .into_iter()
            .filter(|f| f.rule == rule)
            .collect();
        assert!(findings.is_empty(), "--allow {} leaks: {findings:?}", rule.name());
    }
}

#[test]
fn rule_names_round_trip() {
    for rule in ALL_RULES {
        assert_eq!(RuleId::from_name(rule.name()), Some(rule));
        // Snake-case aliases accepted for CLI ergonomics.
        assert_eq!(RuleId::from_name(&rule.name().replace('-', "_")), Some(rule));
    }
    assert_eq!(RuleId::from_name("no-such-rule"), None);
}

/// The tentpole guarantee: the workspace itself lints clean with every
/// rule enabled. Any new violation anywhere in the tree fails this test
/// (and `cargo xtask lint` in CI).
#[test]
fn workspace_tree_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives in the workspace root")
        .to_path_buf();
    let findings = lint_workspace(&root, &BTreeSet::new()).expect("walk workspace");
    assert!(
        findings.is_empty(),
        "workspace has lint violations:\n{}",
        render_text(&findings)
    );
}

/// `--format json` emits the findings array plus scan stats; `--format
/// sarif` emits a SARIF 2.1.0 log with the full rule table. Both run
/// against the (clean) workspace, so they exercise the empty-findings
/// shape end to end.
#[test]
fn cli_formats() {
    let bin = env!("CARGO_BIN_EXE_xtask");
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root");

    let out = std::process::Command::new(bin)
        .args(["lint", "--format", "json", "--root"])
        .arg(root)
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"findings\": []"), "{json}");
    assert!(json.contains("\"stats\""), "{json}");
    assert!(json.contains("\"files\":"), "{json}");
    assert!(json.contains("\"threads\":"), "{json}");
    assert!(json.contains("\"elapsed_ms\":"), "{json}");

    let out = std::process::Command::new(bin)
        .args(["lint", "--format", "sarif", "--root"])
        .arg(root)
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let sarif = String::from_utf8_lossy(&out.stdout);
    assert!(sarif.contains("sarif-2.1.0.json"), "{sarif}");
    assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
    assert!(sarif.contains("xtask-lint"), "{sarif}");
    for rule in ALL_RULES {
        assert!(sarif.contains(&format!("\"id\": \"{}\"", rule.name())), "{sarif}");
    }

    let out = std::process::Command::new(bin)
        .args(["lint", "--format", "yaml"])
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(2), "unknown format is a usage error");
}

/// End-to-end CLI checks via the built binary: usage errors exit 2,
/// `--list-rules` exits 0 and names every rule.
#[test]
fn cli_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_xtask");
    let out = std::process::Command::new(bin)
        .arg("frobnicate")
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(2));

    let out = std::process::Command::new(bin)
        .args(["lint", "--list-rules"])
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in ALL_RULES {
        assert!(stdout.contains(rule.name()), "{stdout}");
    }

    let out = std::process::Command::new(bin)
        .args(["lint", "--allow", "bogus-rule"])
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(2));

    // --changed outside a git work tree is a usage/environment error.
    let no_git = std::env::temp_dir().join(format!("xtask-nogit-{}", std::process::id()));
    std::fs::create_dir_all(&no_git).expect("create non-git dir");
    let out = std::process::Command::new(bin)
        .args(["lint", "--changed", "--root"])
        .arg(&no_git)
        .output()
        .expect("run xtask");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&no_git).ok();

    // --changed in the real (git) workspace: findings are a subset of
    // the full scan's, and the full tree is clean, so this exits 0.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root");
    let out = std::process::Command::new(bin)
        .args(["lint", "--changed", "--root"])
        .arg(root)
        .output()
        .expect("run xtask");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {} stderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
