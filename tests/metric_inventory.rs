//! The metric inventory, checked against the live registry: every
//! metric an engine registers is named `graphbolt_[a-z_]+`, and the
//! `(name, type)` pairs it registers are exactly the rows of DESIGN.md
//! §10.1's table — no undocumented metric, no stale row, no wrong Type
//! column.

use std::collections::BTreeSet;

use graphbolt::core::EngineStats;

const DESIGN: &str = include_str!("../DESIGN.md");

/// `(name, type)` rows of DESIGN.md §10.1's table.
fn documented() -> BTreeSet<(String, String)> {
    let section = DESIGN
        .split_once("### 10.1 Metric inventory")
        .and_then(|(_, rest)| rest.split("\n### ").next())
        .expect("DESIGN.md has a §10.1");
    section
        .lines()
        .filter_map(|line| {
            let mut cells = line.strip_prefix("| `")?.split('|');
            let name = cells.next()?.trim().strip_suffix('`')?;
            let kind = cells.next()?.trim();
            Some((name.to_string(), kind.to_string()))
        })
        .collect()
}

#[test]
fn registry_matches_design_table() {
    let snap = EngineStats::new().metrics().snapshot();
    let registered: BTreeSet<(String, String)> = snap
        .counters
        .iter()
        .map(|m| (m.name, "counter"))
        .chain(snap.gauges.iter().map(|m| (m.name, "gauge")))
        .chain(snap.histograms.iter().map(|h| (h.name, "histogram")))
        .map(|(name, kind)| (name.to_string(), kind.to_string()))
        .collect();

    for (name, _) in &registered {
        let well_formed = name.strip_prefix("graphbolt_").is_some_and(|s| {
            !s.is_empty() && s.chars().all(|c| c.is_ascii_lowercase() || c == '_')
        });
        assert!(
            well_formed,
            "metric name `{name}` does not match `graphbolt_[a-z_]+`"
        );
    }

    let documented = documented();
    let undocumented: Vec<_> = registered.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&registered).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "registered but not a DESIGN.md §10.1 row: {undocumented:?}\n\
         a §10.1 row but not registered: {stale:?}"
    );
}
