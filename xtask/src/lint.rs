//! Lint driver: workspace file discovery, parallel per-file scanning,
//! workspace-level call-graph passes, and finding rendering (human
//! text, machine JSON, and SARIF for CI annotations).

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::graph_rules::{build_graph, run_graph_rules, WorkspaceFile};
use crate::items::law_registrations;
use crate::rules::{
    law_coverage, metrics_naming, reset_waiver_log, run_rules, FileCtx, Finding, RuleId,
    ALL_RULES, PANIC_ISOLATED,
};
use crate::scanner::{scan, Scanned};

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
/// from the confinement and service rules.
fn in_test_tree(rel: &str) -> bool {
    rel.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

/// Runs every enabled rule (per-file rules plus the cross-file pair:
/// `law-coverage` against the given registration set, `metrics-naming`
/// against DESIGN.md §10's documented names) over one scanned file,
/// with the per-file (rule, line) dedup applied.
fn lint_scanned(
    ctx: &FileCtx,
    scanned: &Scanned,
    enabled: &BTreeSet<RuleId>,
    registered: &BTreeSet<String>,
    documented: Option<&BTreeSet<String>>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    run_rules(ctx, scanned, enabled, &mut findings);
    if enabled.contains(&RuleId::LawCoverage) {
        law_coverage(ctx, scanned, registered, &mut findings);
    }
    if enabled.contains(&RuleId::MetricsNaming) {
        metrics_naming(ctx, scanned, documented, &mut findings);
    }
    // One finding per (rule, line): e.g. `use ...::{AtomicU64, AtomicUsize}`
    // is one violation, not two.
    findings.sort_by_key(|a| (a.line, a.rule));
    findings.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    findings
}

/// Lints one source text as if it lived at workspace-relative `path`.
/// This is the entry point the fixture tests use: the simulated path
/// controls which sanctioned-module tables apply. `law-coverage` runs
/// in its single-file form — registrations are collected from this text
/// alone (the workspace walk collects them globally instead).
pub fn lint_source(path: &str, src: &str, enabled: &BTreeSet<RuleId>) -> Vec<Finding> {
    lint_source_with_docs(path, src, enabled, None)
}

/// [`lint_source`] with an explicit documented-metric set for the
/// `metrics-naming` rule. `None` skips the documentation half (the
/// well-formedness half still runs), which keeps fixture tests
/// self-contained: they inject the set instead of reading DESIGN.md, so
/// the suite passes in a bare source export with no repo checkout.
pub fn lint_source_with_docs(
    path: &str,
    src: &str,
    enabled: &BTreeSet<RuleId>,
    documented: Option<&BTreeSet<String>>,
) -> Vec<Finding> {
    // Rule evaluation populates the thread-local waiver-usage log the
    // dead-annotation pass audits; start each run from a clean log.
    reset_waiver_log();
    let scanned = scan(src);
    let ctx = FileCtx {
        path,
        in_test_tree: in_test_tree(path),
    };
    let registered: BTreeSet<String> = law_registrations(&scanned).into_iter().collect();
    let mut findings = lint_scanned(&ctx, &scanned, enabled, &registered, documented);
    // Call-graph rules over the single file: the graph is just this
    // file's functions, which is exactly what fixture tests need.
    let files = [WorkspaceFile {
        rel: path.to_string(),
        scanned,
        in_test_tree: ctx.in_test_tree,
    }];
    let graph = build_graph(&files);
    run_graph_rules(&files, &graph, |r| enabled.contains(&r), &mut findings);
    findings.sort_by_key(|a| (a.line, a.rule));
    findings.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    findings
}

/// Extracts every `graphbolt_[a-z_]+` name mentioned in DESIGN.md §10's
/// metric table (in practice: anywhere in DESIGN.md — mentioning a
/// metric elsewhere in the document also counts as documenting it).
/// Returns `None` when DESIGN.md is absent, which downgrades
/// `metrics-naming` to its well-formedness half rather than flagging
/// every metric in a docs-less export.
pub fn documented_metric_names(root: &Path) -> Option<BTreeSet<String>> {
    let text = std::fs::read_to_string(root.join("DESIGN.md")).ok()?;
    let mut names = BTreeSet::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(off) = text[i..].find("graphbolt_") {
        let start = i + off;
        let mut end = start;
        while end < bytes.len() && (bytes[end].is_ascii_lowercase() || bytes[end] == b'_') {
            end += 1;
        }
        names.insert(text[start..end].to_string());
        i = end;
    }
    Some(names)
}

/// Scan statistics reported alongside findings in `--format json`.
#[derive(Debug, Clone, Copy)]
pub struct LintStats {
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// Worker threads used for the scan.
    pub threads: usize,
    /// Wall-clock time of the whole lint pass, in milliseconds.
    pub elapsed_ms: u128,
}

/// Lints the whole workspace rooted at `root` with all rules except
/// `allow` enabled. Findings are ordered by file, then line.
pub fn lint_workspace(root: &Path, allow: &BTreeSet<RuleId>) -> io::Result<Vec<Finding>> {
    lint_workspace_with(root, allow, None)
}

/// [`lint_workspace`] with an optional `changed` restriction: when
/// `Some`, findings are reported only for the listed workspace-relative
/// paths (`cargo xtask lint --changed`). The *whole* workspace is still
/// scanned regardless — `law-coverage` registrations and call-graph
/// edges live in different files than the findings they produce, so a
/// restricted scan would be wrong, not just incomplete.
pub fn lint_workspace_with(
    root: &Path,
    allow: &BTreeSet<RuleId>,
    changed: Option<&BTreeSet<String>>,
) -> io::Result<Vec<Finding>> {
    lint_workspace_report(root, allow, changed).map(|(findings, _)| findings)
}

/// Reads and lexes one workspace file into the driver's per-file record.
fn scan_one(root: &Path, file: &Path) -> io::Result<WorkspaceFile> {
    let rel = file
        .strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/");
    let src = std::fs::read_to_string(file)?;
    let in_test_tree = in_test_tree(&rel);
    Ok(WorkspaceFile {
        rel,
        scanned: scan(&src),
        in_test_tree,
    })
}

/// Full workspace lint returning findings plus scan statistics.
///
/// File reading + lexing is the dominant cost and is embarrassingly
/// parallel, so it fans out over scoped worker threads (stride
/// assignment; results land back in path order, so output stays
/// deterministic regardless of thread count). Rule evaluation stays on
/// the calling thread — it is cheap and the cross-file passes need the
/// whole corpus anyway.
pub fn lint_workspace_report(
    root: &Path,
    allow: &BTreeSet<RuleId>,
    changed: Option<&BTreeSet<String>>,
) -> io::Result<(Vec<Finding>, LintStats)> {
    let start = Instant::now();
    // Rule evaluation runs on this thread (only file scanning fans out),
    // so the thread-local waiver-usage log sees every suppression; the
    // dead-annotation pass audits it at the end of the run.
    reset_waiver_log();
    let enabled: BTreeSet<RuleId> = ALL_RULES
        .into_iter()
        .filter(|r| !allow.contains(r))
        .collect();
    let documented = documented_metric_names(root);
    let files = collect_workspace_files(root)?;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
        .min(files.len().max(1));
    let mut slots: Vec<Option<io::Result<WorkspaceFile>>> = Vec::new();
    slots.resize_with(files.len(), || None);
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let files = &files;
            handles.push(s.spawn(move || {
                let mut out = Vec::new();
                let mut idx = t;
                while idx < files.len() {
                    out.push((idx, scan_one(root, &files[idx])));
                    idx += threads;
                }
                out
            }));
        }
        for h in handles {
            for (idx, result) in h.join().expect("scan worker panicked") {
                slots[idx] = Some(result);
            }
        }
    });
    let mut scanned_files: Vec<WorkspaceFile> = Vec::with_capacity(files.len());
    for slot in slots {
        scanned_files.push(slot.expect("every index assigned to exactly one worker")?);
    }

    let mut registered: BTreeSet<String> = BTreeSet::new();
    for f in &scanned_files {
        registered.extend(law_registrations(&f.scanned));
    }
    let mut findings = Vec::new();
    for f in &scanned_files {
        let ctx = FileCtx {
            path: &f.rel,
            in_test_tree: f.in_test_tree,
        };
        findings.extend(lint_scanned(
            &ctx,
            &f.scanned,
            &enabled,
            &registered,
            documented.as_ref(),
        ));
    }
    let graph = build_graph(&scanned_files);
    run_graph_rules(
        &scanned_files,
        &graph,
        |r| enabled.contains(&r),
        &mut findings,
    );
    if let Some(set) = changed {
        findings.retain(|f| set.contains(&f.file));
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    findings.dedup_by(|a, b| a.rule == b.rule && a.file == b.file && a.line == b.line);
    let stats = LintStats {
        files: files.len(),
        threads,
        elapsed_ms: start.elapsed().as_millis(),
    };
    Ok((findings, stats))
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

/// Renders findings as a JSON array (machine-readable; stable key
/// order). Hand-rolled to keep xtask dependency-free.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            f.rule.name(),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Renders the full machine-readable report: the findings array under
/// `"findings"` plus a `"stats"` object with file count, worker-thread
/// count, and wall-clock timing. This is what `--format json` emits;
/// [`render_json`] (the bare array) is kept for embedding.
pub fn render_json_report(findings: &[Finding], stats: &LintStats) -> String {
    let array = render_json(findings);
    format!(
        "{{\n\"findings\": {},\n\"stats\": {{\"files\":{},\"threads\":{},\"elapsed_ms\":{}}}\n}}\n",
        array.trim_end(),
        stats.files,
        stats.threads,
        stats.elapsed_ms
    )
}

/// Renders findings as SARIF 2.1.0 (the format GitHub code scanning
/// ingests, turning findings into PR annotations). One run, one rule
/// table (all fifteen, in declaration order — the `ruleIndex`), one
/// result per finding.
/// Graph-rule findings carry their witness chain as `codeFlows`, so
/// code scanning shows the panic/lock/deadline path, not just the sink
/// line. Hand-rolled like the JSON renderer to keep xtask
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

/// Applies the mechanical fixes `--fix` offers: a dead-annotation
/// finding whose reported line is a whole-line comment is removed from
/// the file. Everything else (dead `PANIC_ISOLATED` entries, trailing
/// comments sharing a line with code, findings of other rules) is left
/// for a human and returned as not auto-fixable. Returns the number of
/// lines removed plus the unfixed findings.
pub fn apply_fixes(root: &Path, findings: &[Finding]) -> io::Result<(usize, Vec<Finding>)> {
    let mut deletions: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut unfixed: Vec<Finding> = Vec::new();
    for f in findings {
        if f.rule != RuleId::DeadAnnotation {
            unfixed.push(f.clone());
            continue;
        }
        let text = std::fs::read_to_string(root.join(&f.file))?;
        let is_comment_line = text
            .lines()
            .nth(f.line.saturating_sub(1))
            .is_some_and(|l| l.trim_start().starts_with("//"));
        if is_comment_line {
            deletions.entry(f.file.clone()).or_default().push(f.line);
        } else {
            unfixed.push(f.clone());
        }
    }
    let mut removed = 0usize;
    for (file, mut lines) in deletions {
        lines.sort_unstable();
        lines.dedup();
        let path = root.join(&file);
        let text = std::fs::read_to_string(&path)?;
        let kept: Vec<&str> = text
            .lines()
            .enumerate()
            .filter(|(i, _)| !lines.contains(&(i + 1)))
            .map(|(_, l)| l)
            .collect();
        removed += lines.len();
        let mut fixed = kept.join("\n");
        if text.ends_with('\n') {
            fixed.push('\n');
        }
        std::fs::write(&path, fixed)?;
    }
    Ok((removed, unfixed))
}

/// Counts the workspace's trust surface — the annotations the dataflow
/// rules verify — per top-level area (`crates/<name>`, `xtask`), using
/// the same start-of-comment discipline as the dead-annotation rule:
/// `lint:allow(` waivers, `bounds:` proofs, `ordering:` justifications
/// in production (non-`#[cfg(test)]`, non-test-tree) code, plus the
/// `PANIC_ISOLATED` table size. The snapshot test in
/// `xtask/tests/annotation_budget.rs` pins this output so trust-surface
/// creep is explicit in review.
pub fn annotation_census(root: &Path) -> io::Result<String> {
    let files = collect_workspace_files(root)?;
    let mut counts: BTreeMap<String, (usize, usize, usize)> = BTreeMap::new();
    for file in &files {
        let f = scan_one(root, file)?;
        if f.in_test_tree {
            continue;
        }
        let area = if let Some(rest) = f.rel.strip_prefix("crates/") {
            format!("crates/{}", rest.split('/').next().unwrap_or(""))
        } else {
            f.rel.split('/').next().unwrap_or("").to_string()
        };
        for (&line, text) in &f.scanned.comments {
            let in_test = f
                .scanned
                .tokens
                .iter()
                .find(|t| t.line >= line)
                .or(f.scanned.tokens.last())
                .is_some_and(|t| t.in_test);
            if in_test {
                continue;
            }
            let t = text.trim();
            let entry = counts.entry(area.clone()).or_default();
            if t.starts_with("lint:allow(") {
                entry.0 += 1;
            } else if t.starts_with("bounds:") {
                entry.1 += 1;
            } else if t.starts_with("ordering:") {
                entry.2 += 1;
            }
        }
    }
    let mut out = String::new();
    for (area, (waivers, bounds, ordering)) in &counts {
        if *waivers + *bounds + *ordering == 0 {
            continue;
        }
        out.push_str(&format!(
            "{area} waivers={waivers} bounds={bounds} ordering={ordering}\n"
        ));
    }
    out.push_str(&format!("PANIC_ISOLATED entries={}\n", PANIC_ISOLATED.len()));
    Ok(out)
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
    use crate::rules::ALL_RULES;

    fn all_enabled() -> BTreeSet<RuleId> {
        ALL_RULES.into_iter().collect()
    }

    #[test]
    fn test_tree_paths_are_detected() {
        assert!(in_test_tree("crates/core/tests/loom_sharded.rs"));
        assert!(in_test_tree("crates/bench/benches/mutation.rs"));
        assert!(in_test_tree("crates/core/examples/live_session.rs"));
        assert!(!in_test_tree("crates/core/src/session.rs"));
    }

    #[test]
    fn dedup_collapses_same_rule_same_line() {
        let src = "use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};\n";
        let findings = lint_source("crates/graph/src/lib.rs", src, &all_enabled());
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn json_escapes_quotes() {
        let f = Finding {
            rule: RuleId::ServiceNoPanic,
            file: "a.rs".into(),
            line: 3,
            message: "say \"no\"".into(),
            flow: Vec::new(),
        };
        let json = render_json(&[f]);
        assert!(json.contains("say \\\"no\\\""), "{json}");
    }

    #[test]
    fn empty_findings_render_clean() {
        assert!(render_text(&[]).contains("no violations"));
        assert_eq!(render_json(&[]), "[]\n");
    }
}
