//! Lint driver: workspace file discovery and scanning, rule dispatch,
//! the dead-waiver check, and finding rendering (human text and SARIF
//! for CI annotations).

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use crate::graph_rules::{
    deadline_propagation, hot_path_blocking, panic_reachability, WorkspaceFile,
};
use crate::rules::{law_coverage, Finding, RuleId, Workspace, ALL_RULES};
use crate::scanner::scan;

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &[
    "target",
    ".git",
    ".cargo",
    "vendor-stubs",
    // Fixture files contain deliberate violations for the lint's own
    // tests; they are linted explicitly by those tests, never by the
    // workspace walk.
    "fixtures",
];

/// Recursively collects every `.rs` file under `root`, sorted for
/// deterministic output, skipping [`SKIP_DIRS`].
pub fn collect_workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// True for paths under `tests/`, `benches/`, or `examples/` — exempt
/// from every rule but a source of `check_laws::<T>` registrations.
fn in_test_tree(rel: &str) -> bool {
    rel.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

fn workspace_file(rel: String, src: &str) -> WorkspaceFile {
    let in_test_tree = in_test_tree(&rel);
    WorkspaceFile {
        rel,
        scanned: scan(src),
        in_test_tree,
    }
}

/// Runs every enabled rule over the workspace, then the dead-waiver
/// check (last: it reads which waivers the rules consumed). Findings
/// are ordered by file, then line, one per (rule, file, line).
fn run(ws: &Workspace, enabled: &BTreeSet<RuleId>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let on = |rule| enabled.contains(&rule);
    for fi in 0..ws.files.len() {
        if on(RuleId::LawCoverage) {
            law_coverage(ws, fi, &mut findings);
        }
    }
    if on(RuleId::PanicReachability) {
        panic_reachability(ws, &mut findings);
    }
    if on(RuleId::HotPathBlocking) {
        hot_path_blocking(ws, &mut findings);
    }
    if on(RuleId::DeadlinePropagation) {
        deadline_propagation(ws, &mut findings);
    }
    if on(RuleId::DeadAnnotation) {
        dead_waivers(ws, enabled, &mut findings);
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    findings.dedup_by(|a, b| a.rule == b.rule && a.file == b.file && a.line == b.line);
    findings
}

/// The dead-waiver check (`dead-annotation`): a `lint:allow(<rule>)`
/// comment in production code that names no known rule, or whose rule
/// ran and consumed it for nothing — no finding suppressed, no edge cut
/// — is itself a finding: stale waivers are how a "clean tree" rots. A
/// comment is a waiver only when it *starts with* the marker; prose
/// that merely mentions `lint:allow(...)` is not. Waivers for rules
/// this run did not enable are left alone (they may be live under the
/// full set), as are waivers in test code.
fn dead_waivers(ws: &Workspace, enabled: &BTreeSet<RuleId>, out: &mut Vec<Finding>) {
    for (fi, f) in ws.files.iter().enumerate() {
        if f.in_test_tree {
            continue;
        }
        let toks = &f.scanned.tokens;
        for (&line, text) in &f.scanned.comments {
            let Some(rest) = text.trim().strip_prefix("lint:allow(") else {
                continue;
            };
            let next_code = toks.iter().find(|t| t.line >= line).or(toks.last());
            if next_code.is_some_and(|t| t.in_test) {
                continue;
            }
            let name = rest.split(')').next().unwrap_or("");
            let message = match RuleId::from_name(name) {
                None => format!("waiver names unknown rule `{name}` — fix or remove it"),
                Some(rule) if enabled.contains(&rule) && !ws.waiver_used(fi, line, rule) => {
                    format!(
                        "dead waiver: `lint:allow({})` suppresses no finding and cuts no \
                         edge in this run — remove it or re-justify it",
                        rule.name()
                    )
                }
                Some(_) => continue,
            };
            ws.emit(out, fi, RuleId::DeadAnnotation, line, message, Vec::new());
        }
    }
}

/// Lints one source text as if it lived at workspace-relative `path`.
/// This is the entry point the fixture tests use: the simulated path
/// controls which root and exclusion tables apply. The
/// workspace is just this file, so `law-coverage` sees only its own
/// registrations.
pub fn lint_source(path: &str, src: &str, enabled: &BTreeSet<RuleId>) -> Vec<Finding> {
    let files = vec![workspace_file(path.to_string(), src)];
    run(&Workspace::new(files), enabled)
}

/// Lints the whole workspace rooted at `root` with every rule enabled.
/// Findings are ordered by file, then line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for file in collect_workspace_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(workspace_file(rel, &std::fs::read_to_string(&file)?));
    }
    Ok(run(&Workspace::new(files), &ALL_RULES.into_iter().collect()))
}

/// Renders findings for humans: one `file:line [rule] message` per line
/// plus a summary.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{} [{}] {}\n",
            f.file,
            f.line,
            f.rule.name(),
            f.message
        ));
    }
    if findings.is_empty() {
        out.push_str("xtask lint: no violations\n");
    } else {
        out.push_str(&format!(
            "xtask lint: {} violation{}\n",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        ));
    }
    out
}

/// Renders findings as SARIF 2.1.0 (the format GitHub code scanning
/// ingests, turning findings into PR annotations). One run, one rule
/// table (in declaration order — the `ruleIndex`), one result per
/// finding. Graph-rule findings carry their witness chain as
/// `codeFlows`, so code scanning shows the panic/blocking/deadline
/// path, not just the sink line. Hand-rolled to keep xtask
/// dependency-free.
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [{\n");
    out.push_str("    \"tool\": {\"driver\": {\"name\": \"xtask-lint\",\n");
    out.push_str("      \"rules\": [\n");
    for (i, rule) in ALL_RULES.iter().enumerate() {
        out.push_str(&format!(
            "        {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{}\n",
            rule.name(),
            json_escape(rule.describe()),
            if i + 1 < ALL_RULES.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n");
    out.push_str("    }},\n");
    out.push_str("    \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let rule_index = ALL_RULES
            .iter()
            .position(|r| *r == f.rule)
            .unwrap_or_default();
        let code_flows = if f.flow.is_empty() {
            String::new()
        } else {
            let steps: Vec<String> = f
                .flow
                .iter()
                .map(|s| {
                    format!(
                        "{{\"location\": {{\"physicalLocation\": {{\"artifactLocation\": \
                         {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}, \
                         \"message\": {{\"text\": \"{}\"}}}}}}",
                        json_escape(&s.file),
                        s.line,
                        json_escape(&s.label)
                    )
                })
                .collect();
            format!(
                ", \"codeFlows\": [{{\"threadFlows\": [{{\"locations\": [{}]}}]}}]",
                steps.join(", ")
            )
        };
        out.push_str(&format!(
            "      {{\"ruleId\": \"{}\", \"ruleIndex\": {}, \"level\": \"error\", \
             \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": \
             {}}}}}}}]{}}}{}\n",
            f.rule.name(),
            rule_index,
            json_escape(&f.message),
            json_escape(&f.file),
            f.line,
            code_flows,
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]\n");
    out.push_str("  }]\n");
    out.push_str("}\n");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_tree_paths_are_detected() {
        assert!(in_test_tree("crates/core/tests/loom_sharded.rs"));
        assert!(in_test_tree("benches/spine/src/main.rs"));
        assert!(in_test_tree("examples/live_session.rs"));
        assert!(!in_test_tree("crates/core/src/session.rs"));
    }

    #[test]
    fn dedup_collapses_same_rule_same_line() {
        let src = "pub fn f(a: Option<u8>, b: Option<u8>) -> u8 { a.unwrap() + b.unwrap() }\n";
        let enabled = ALL_RULES.into_iter().collect();
        let findings = lint_source("crates/core/src/session.rs", src, &enabled);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn sarif_escapes_quotes() {
        let f = Finding {
            rule: RuleId::LawCoverage,
            file: "a.rs".into(),
            line: 3,
            message: "say \"no\"".into(),
            flow: Vec::new(),
        };
        let sarif = render_sarif(&[f]);
        assert!(sarif.contains("say \\\"no\\\""), "{sarif}");
    }

    #[test]
    fn empty_findings_render_clean() {
        assert!(render_text(&[]).contains("no violations"));
    }
}
