//! Pass fixture: typed errors, a total lookup, and a reviewed site
//! waiver — the three sanctioned ways to satisfy the rule.

pub fn handle_request(raw: &str) -> Result<u32, String> {
    let parsed = parse_vertex(raw)?;
    lookup(parsed).ok_or_else(|| "vertex out of range".to_string())
}

fn parse_vertex(raw: &str) -> Result<u32, String> {
    raw.trim().parse().map_err(|_| "not a vertex id".to_string())
}

fn lookup(v: u32) -> Option<u32> {
    let table = [10u32, 20, 30];
    table.get(v as usize).copied()
}

pub fn startup_config(raw: &str) -> u32 {
    // lint:allow(panic-reachability) — startup-only: runs once before
    // the listener accepts, so a bad config aborts boot, not a request.
    raw.parse().expect("config vertex id")
}

fn unreached_private_helper(xs: &[u32]) -> u32 {
    // Private and never called: not a root, not reached, not a finding.
    xs[0]
}
