//! Regression fixture, named for the bug: `refine::run_hybrid` used to
//! allocate a fresh frontier `Vec` on every hybrid iteration. This is
//! the fixed shape — one buffer hoisted out of the loop and cleared per
//! iteration. The test moves the allocation back into the loop body and
//! expects the original finding.

pub fn run_hybrid(state: &mut State, iterations: usize) {
    let mut frontier: Vec<u32> = Vec::new();
    for _ in 0..iterations {
        frontier.clear();
        collect_changed(state, &mut frontier);
        for v in &frontier {
            state.recompute(*v);
        }
    }
}

fn collect_changed(state: &State, out: &mut Vec<u32>) {
    out.extend(state.changed());
}
