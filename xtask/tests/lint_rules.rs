//! Fixture-backed tests for the lint: a passing and a violating fixture
//! per rule with exact expected findings, one regression fixture per
//! bug a rule historically caught (the fixture holds the *fixed* shape;
//! the test removes the guard and expects the original finding), the
//! dead-waiver check, per-rule enabling, and whole-tree cleanliness.
//! Everything runs through the same single-file harness — the simulated
//! path picks which root and exclusion tables apply.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use xtask::lint::{lint_source, lint_workspace, render_sarif, render_text};
use xtask::rules::{Finding, RuleId, ALL_RULES};

fn fixture(rule_dir: &str, name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule_dir)
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn lint_as(rule: RuleId, src: &str, as_path: &str) -> Vec<Finding> {
    lint_source(as_path, src, &[rule].into_iter().collect())
}

fn lint_fixture(rule: RuleId, rule_dir: &str, name: &str, as_path: &str) -> Vec<Finding> {
    lint_as(rule, &fixture(rule_dir, name), as_path)
}

/// `src` with `guard` replaced by `unguarded`; panics if the fixture no
/// longer contains the guard (so a drifted fixture fails loudly).
fn without_guard(src: &str, guard: &str, unguarded: &str) -> String {
    assert!(src.contains(guard), "fixture lost its guard `{guard}`");
    src.replace(guard, unguarded)
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
        "tests/laws.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn const_generic_signature_braces_do_not_misscope() {
    // Regression fixture for the scanner's former blind spot: the
    // `{ 1 }` const brace used to consume the pending `#[cfg(test)]`
    // flag, so the unwrap in `helper`'s body looked like live service
    // code.
    let f = lint_fixture(
        RuleId::PanicReachability,
        "scanner",
        "const_generic.rs",
        "crates/core/src/session.rs",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn escaped_newline_keeps_line_numbers_exact() {
    // Regression fixture for the scanner's other former blind spot:
    // the `\` line continuation inside a string literal was skipped
    // as a two-character escape without counting its newline, so every
    // finding after the string landed one line short per continuation.
    let f = lint_fixture(
        RuleId::PanicReachability,
        "scanner",
        "escaped_newline.rs",
        "crates/core/src/session.rs",
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].line, 13, "unwrap must land on its true line: {f:?}");
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
    assert!(f[1].message.contains("indexing"), "{f:?}");
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
fn no_comment_discharges_an_index_in_a_root_module() {
    let src = "pub fn pick(xs: &[u32], i: usize) -> u32 {\n    \
               // in range: the caller promises i < xs.len().\n    xs[i]\n}\n";
    let f = lint_as(RuleId::PanicReachability, src, "crates/core/src/admission.rs");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].line, 3);
}

#[test]
fn crafted_checkpoint_edge_endpoint_reaches_from_edges_without_its_guard() {
    let path = "crates/core/src/checkpoint.rs";
    let src = fixture("panic_reachability", "crafted_checkpoint_edge_endpoint.rs");
    let f = lint_as(RuleId::PanicReachability, &src, path);
    assert!(f.is_empty(), "fixed shape must lint clean: {f:?}");

    let unguarded = without_guard(&src, "// lint:allow(panic-reachability) —", "//");
    let f = lint_as(RuleId::PanicReachability, &unguarded, path);
    assert_eq!(f.len(), 1, "{}", render_text(&f));
    assert!(f[0].message.contains("assert!"), "{f:?}");
    assert!(
        f[0].message.contains("decode_session_file → GraphSnapshot::from_edges"),
        "{f:?}"
    );
}

#[test]
fn private_helper_under_isolated_fn_is_not_a_finding_site() {
    let path = "crates/core/src/streaming.rs";
    let src = fixture("panic_reachability", "private_helper_under_isolated_fn.rs");
    let f = lint_as(RuleId::PanicReachability, &src, path);
    assert!(f.is_empty(), "{f:?}");

    // The same helper also called from an un-isolated exported fn is
    // reachable from the service layer again.
    let leaked = format!(
        "{src}\npub fn rebuild(graph: &GraphSnapshot, batch: &MutationBatch) -> GraphSnapshot {{\n    \
         adjust_structure(graph, batch)\n}}\n"
    );
    let f = lint_as(RuleId::PanicReachability, &leaked, path);
    assert_eq!(f.len(), 1, "{}", render_text(&f));
    assert!(f[0].message.contains(".expect()"), "{f:?}");
    assert!(f[0].message.contains("rebuild → adjust_structure"), "{f:?}");
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
fn accept_loop_parsing_inline_blocks_the_hot_path_without_its_guard() {
    let path = "crates/core/src/frontdoor.rs";
    let src = fixture("hot_path_blocking", "accept_loop_inline_parse.rs");
    let f = lint_as(RuleId::HotPathBlocking, &src, path);
    assert!(f.is_empty(), "fixed shape must lint clean: {f:?}");

    let inline = without_guard(
        &src,
        "scope.spawn(move || serve_one(&mut stream, session));",
        "serve_one(&mut stream, session);",
    );
    let f = lint_as(RuleId::HotPathBlocking, &inline, path);
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, [19, 20], "{}", render_text(&f));
    assert!(f[0].message.contains("file I/O"), "{f:?}");
    assert!(f[1].message.contains("format!"), "{f:?}");
    assert!(f.iter().all(|x| x.message.contains("accept_loop → serve_one")), "{f:?}");
}

#[test]
fn vec_new_per_run_hybrid_iteration_allocates_on_the_hot_path_without_its_guard() {
    let path = "crates/core/src/refine.rs";
    let src = fixture("hot_path_blocking", "run_hybrid_frontier_alloc.rs");
    let f = lint_as(RuleId::HotPathBlocking, &src, path);
    assert!(f.is_empty(), "fixed shape must lint clean: {f:?}");

    let per_iteration = without_guard(
        &src,
        "frontier.clear();",
        "let mut frontier: Vec<u32> = Vec::new();",
    );
    let f = lint_as(RuleId::HotPathBlocking, &per_iteration, path);
    assert_eq!(f.len(), 1, "{}", render_text(&f));
    assert_eq!(f[0].line, 10);
    assert!(f[0].message.contains("Vec::new in a loop body"), "{f:?}");
    assert!(f[0].message.contains("run_hybrid"), "{f:?}");
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

#[test]
fn bare_recv_behind_a_deadline_is_flagged_without_its_guard() {
    let path = "crates/core/src/frontdoor.rs";
    let src = fixture("deadline_propagation", "query_reply_bare_recv.rs");
    let f = lint_as(RuleId::DeadlinePropagation, &src, path);
    assert!(f.is_empty(), "fixed shape must lint clean: {f:?}");

    let bare = without_guard(&src, "reply_rx.recv_deadline(deadline)", "reply_rx.recv()");
    let f = lint_as(RuleId::DeadlinePropagation, &bare, path);
    assert_eq!(f.len(), 1, "{}", render_text(&f));
    assert_eq!(f[0].line, 18);
    assert!(f[0].message.contains("blocking `recv()` without a deadline"), "{f:?}");
    assert!(
        f[0].message.contains("serve_query → StreamSession::query_within"),
        "{f:?}"
    );
}

fn lint_dead_waivers(name: &str) -> Vec<Finding> {
    // A waiver's liveness is only judged when its rule ran:
    // panic-reachability rides along.
    let enabled: BTreeSet<RuleId> = [RuleId::DeadAnnotation, RuleId::PanicReachability]
        .into_iter()
        .collect();
    lint_source(
        "crates/core/src/checkpoint.rs",
        &fixture("dead_annotation", name),
        &enabled,
    )
}

#[test]
fn dead_waiver_pass_fixture_is_clean() {
    let f = lint_dead_waivers("pass.rs");
    assert!(f.is_empty(), "{}", render_text(&f));
}

#[test]
fn dead_waiver_fail_fixture_flags_dead_and_unknown_waivers() {
    let f = lint_dead_waivers("fail.rs");
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, [5, 10], "{}", render_text(&f));
    assert!(f.iter().all(|x| x.rule == RuleId::DeadAnnotation));
    assert!(f[0].message.contains("dead waiver"), "{f:?}");
    assert!(f[1].message.contains("unknown rule `no-such-rule`"), "{f:?}");
}

/// Graph-rule findings carry their witness chain into SARIF as
/// `codeFlows`, and every result's `ruleIndex` matches the rule's
/// stable position in the `ALL_RULES` table.
#[test]
fn sarif_code_flows_for_graph_findings() {
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
        sarif.contains("\"ruleIndex\": 3"),
        "deadline-propagation sits at index 3: {sarif}"
    );
    // The chain's entry frame names the handler.
    assert!(sarif.contains("enter serve_query"), "{sarif}");

    // Token-local findings carry no chain and emit no codeFlows.
    let f = lint_fixture(
        RuleId::LawCoverage,
        "law_coverage",
        "fail.rs",
        "crates/algorithms/src/alg.rs",
    );
    let sarif = render_sarif(&f);
    assert!(!sarif.contains("\"codeFlows\""), "{sarif}");
    assert!(sarif.contains("\"ruleIndex\": 0"), "{sarif}");
}

/// SARIF `ruleIndex` positions — CI dashboards key on them, so moving
/// one is a deliberate, reviewed change.
#[test]
fn rule_index_table_is_stable() {
    let expected = [
        RuleId::LawCoverage,
        RuleId::PanicReachability,
        RuleId::HotPathBlocking,
        RuleId::DeadlinePropagation,
        RuleId::DeadAnnotation,
    ];
    assert_eq!(ALL_RULES, expected);
}

#[test]
fn allow_disables_each_rule() {
    // `lint_source` runs only the rules in its enabled set: with its
    // rule left out, every fail fixture lints clean.
    let cases = [
        (RuleId::LawCoverage, "law_coverage", "crates/algorithms/src/alg.rs"),
        (RuleId::PanicReachability, "panic_reachability", "crates/core/src/frontdoor.rs"),
        (RuleId::HotPathBlocking, "hot_path_blocking", "crates/engine/src/edge_map.rs"),
        (RuleId::DeadlinePropagation, "deadline_propagation", "crates/core/src/frontdoor.rs"),
        (RuleId::DeadAnnotation, "dead_annotation", "crates/core/src/checkpoint.rs"),
    ];
    for (rule, dir, path) in cases {
        let enabled: BTreeSet<RuleId> = ALL_RULES.into_iter().filter(|r| *r != rule).collect();
        let findings: Vec<Finding> = lint_source(path, &fixture(dir, "fail.rs"), &enabled)
            .into_iter()
            .filter(|f| f.rule == rule)
            .collect();
        assert!(findings.is_empty(), "disabled {} leaks: {findings:?}", rule.name());
    }
}

#[test]
fn rule_names_round_trip() {
    for rule in ALL_RULES {
        assert_eq!(RuleId::from_name(rule.name()), Some(rule));
        // Snake-case aliases accepted in waivers.
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
    let findings = lint_workspace(&root).expect("walk workspace");
    assert!(
        findings.is_empty(),
        "workspace has lint violations:\n{}",
        render_text(&findings)
    );
}

/// The failing twin of `workspace_tree_is_clean`: the same walk over a
/// tree that holds a violation reports it — and the cross-file registry
/// is honored (the registration lives in a test-tree file, the impls in
/// `src/`).
#[test]
fn workspace_walk_reports_a_violation_across_files() {
    let dir = std::env::temp_dir().join(format!("xtask-walk-{}", std::process::id()));
    let src_dir = dir.join("crates/algorithms/src");
    let test_dir = dir.join("crates/algorithms/tests");
    std::fs::create_dir_all(&src_dir).expect("create temp workspace");
    std::fs::create_dir_all(&test_dir).expect("create temp workspace");
    std::fs::write(
        src_dir.join("alg.rs"),
        "pub struct Covered;\nimpl Algorithm for Covered { fn f(&self) {} }\n\
         pub struct Orphan;\nimpl Algorithm for Orphan { fn f(&self) {} }\n",
    )
    .expect("write alg.rs");
    std::fs::write(
        test_dir.join("laws.rs"),
        "fn reg() { check_laws::<Covered>(&Covered, spec()); }\n",
    )
    .expect("write laws.rs");

    let findings = lint_workspace(&dir).expect("walk");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(findings.len(), 1, "{}", render_text(&findings));
    assert_eq!(findings[0].rule, RuleId::LawCoverage);
    assert_eq!(findings[0].file, "crates/algorithms/src/alg.rs");
    assert!(findings[0].message.contains("Orphan"));
}

/// End-to-end CLI checks via the built binary: the text run over the
/// (clean) workspace, the SARIF log with the full rule table, usage
/// errors exiting 2, and `--list-rules` naming every rule.
#[test]
fn cli_formats_and_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_xtask");
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root");
    let run = |args: &[&str]| {
        let out = std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("run xtask");
        (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let root_arg = root.to_str().expect("utf-8 root");

    let (code, text) = run(&["lint", "--root", root_arg]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("no violations"), "{text}");

    let (code, sarif) = run(&["lint", "--format", "sarif", "--root", root_arg]);
    assert_eq!(code, Some(0), "{sarif}");
    assert!(sarif.contains("sarif-2.1.0.json"), "{sarif}");
    assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
    assert!(sarif.contains("xtask-lint"), "{sarif}");
    for rule in ALL_RULES {
        assert!(sarif.contains(&format!("\"id\": \"{}\"", rule.name())), "{sarif}");
    }

    let (code, listed) = run(&["lint", "--list-rules"]);
    assert_eq!(code, Some(0));
    assert_eq!(listed.lines().count(), ALL_RULES.len(), "{listed}");
    for rule in ALL_RULES {
        assert!(listed.contains(rule.name()), "{listed}");
    }

    for usage_error in [
        &["frobnicate"][..],
        &["lint", "--format", "yaml"],
        // No per-run rule switch: `--allow` is an unknown option.
        &["lint", "--allow", "bogus-rule"],
        &["lint", "--no-such-flag"],
    ] {
        assert_eq!(run(usage_error).0, Some(2), "{usage_error:?}");
    }
}
