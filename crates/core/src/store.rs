//! The dependency store: per-vertex aggregation-value histories.
//!
//! §3.2 of the paper: instead of materializing the full dependency graph
//! `DG` (`O(|E|·t)`), GraphBolt tracks only the *aggregation values*
//! `g_i(v)` (`O(|V|·t)`) — the dependency structure itself is re-derived
//! from the input graph during refinement. Two pruning mechanisms bound
//! the history further:
//!
//! * **vertical pruning** — a vertex's history stops at the last
//!   iteration where its aggregation changed ("holes reflecting no change
//!   are eliminated"; reads past the end return the stabilized value),
//! * **horizontal pruning** — nothing is stored past a global cut-off
//!   iteration; past it the engine switches to hybrid execution.
//!
//! # Refinement and the stabilized tail
//!
//! Refinement overwrites `g_i(v)` in place and may extend a vertically
//! pruned prefix. Iterations the refinement does *not* touch keep, by the
//! BSP induction, exactly the value of the previous trajectory — which in
//! the pruned region is the *original stabilized* aggregation, not the
//! most recently refined one. The store therefore freezes that stabilized
//! value as a per-vertex `tail` the first time refinement extends a
//! prefix: reads past the materialized prefix return the tail, and holes
//! created by out-of-order extension are filled with it.

/// One vertex's aggregation history.
#[derive(Debug, Clone)]
struct History<A> {
    /// `prefix[i - 1]` is `g_i(v)`; contiguous.
    prefix: Vec<A>,
    /// Beyond-prefix value. `None` until refinement first writes (the
    /// tracking-run invariant: beyond-prefix = last prefix entry); after
    /// the freeze, `Some(inner)` where `inner` is the stabilized
    /// pre-refinement value — `Some(None)` for vertices that had no
    /// history at all (added after the initial run), whose untouched
    /// iterations read as "no aggregation".
    tail: Option<Option<A>>,
}

impl<A> Default for History<A> {
    fn default() -> Self {
        Self {
            prefix: Vec::new(),
            tail: None,
        }
    }
}

/// Per-vertex aggregation-value history with vertical and horizontal
/// pruning.
///
/// Iterations are 1-based: index `i` holds `g_i(v)`, the aggregation that
/// produced `c_i(v)`.
#[derive(Debug, Clone)]
pub struct DependencyStore<A> {
    histories: Vec<History<A>>,
    /// Horizontal cut-off: `g_i` with `i > cutoff` is never stored.
    cutoff: usize,
    /// Disable vertical pruning (store every iteration for every vertex).
    vertical_pruning: bool,
    /// Number of tracked iterations so far (`min(L, cutoff)`).
    tracked_iterations: usize,
}

impl<A: Clone + PartialEq> DependencyStore<A> {
    /// Creates a store for `n` vertices tracking at most `cutoff`
    /// iterations.
    pub fn new(n: usize, cutoff: usize, vertical_pruning: bool) -> Self {
        Self {
            histories: (0..n).map(|_| History::default()).collect(),
            cutoff,
            vertical_pruning,
            tracked_iterations: 0,
        }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.histories.len()
    }

    /// Horizontal cut-off iteration.
    pub fn cutoff(&self) -> usize {
        self.cutoff
    }

    /// Number of iterations recorded so far (bounded by the cut-off).
    pub fn tracked_iterations(&self) -> usize {
        self.tracked_iterations
    }

    /// Grows the vertex space to `n` (new vertices start with empty
    /// histories). Called when a mutation batch adds vertices.
    pub fn grow(&mut self, n: usize) {
        if n > self.histories.len() {
            self.histories.resize_with(n, History::default);
        }
    }

    /// Records `g_iter(v)` during the initial (tracking) execution.
    ///
    /// Must be called with non-decreasing `iter` per vertex. With vertical
    /// pruning, a value equal to the last stored one is skipped; without
    /// it, the prefix is padded so every iteration is materialized.
    /// Iterations past the horizontal cut-off are ignored.
    pub fn record(&mut self, v: usize, iter: usize, agg: &A) {
        debug_assert!(iter >= 1);
        if iter > self.cutoff {
            return;
        }
        self.tracked_iterations = self.tracked_iterations.max(iter);
        let h = &mut self.histories[v];
        debug_assert!(h.tail.is_none(), "record() after refinement froze the tail");
        if self.vertical_pruning && h.prefix.last() == Some(agg) && h.prefix.len() < iter {
            // Value stabilized — prune (leave the hole implicit).
            return;
        }
        while h.prefix.len() + 1 < iter {
            let fill = h
                .prefix
                .last()
                .cloned()
                // lint:allow(panic-reachability) — driver invariant:
                // iteration 1 touches every vertex by construction
                // (bsp.rs tracking loop), so the prefix is non-empty
                // whenever a later iteration records; an empty prefix
                // here is engine corruption, not an input condition.
                .expect("record() skipped iteration 1");
            h.prefix.push(fill);
        }
        if h.prefix.len() >= iter {
            h.prefix[iter - 1] = agg.clone();
        } else {
            h.prefix.push(agg.clone());
        }
    }

    /// Reads `g_iter(v)`. Reads past the materialized prefix return the
    /// stabilized-tail value. Returns `None` for vertices with no history
    /// (isolated or newly added) or reads past the horizontal cut-off.
    pub fn get(&self, v: usize, iter: usize) -> Option<&A> {
        debug_assert!(iter >= 1);
        if iter > self.cutoff {
            return None;
        }
        let h = &self.histories[v];
        if iter <= h.prefix.len() {
            Some(&h.prefix[iter - 1])
        } else {
            match &h.tail {
                Some(frozen) => frozen.as_ref(),
                None => h.prefix.last(),
            }
        }
    }

    /// Overwrites `g_iter(v)` during refinement.
    ///
    /// Extending past the materialized prefix freezes the stabilized tail
    /// first (see the module docs) and fills any holes with it, so
    /// untouched iterations keep reading the previous trajectory's value.
    ///
    /// # Panics
    ///
    /// Panics when writing past the horizontal cut-off — refinement never
    /// touches untracked iterations by construction.
    pub fn set(&mut self, v: usize, iter: usize, agg: A) {
        // lint:allow(panic-reachability) — documented `# Panics`
        // contract: refinement derives every write target from the
        // tracked range (impacted sets are intersected with 1..=cutoff),
        // so an out-of-range write is engine corruption, not input.
        assert!(
            iter >= 1 && iter <= self.cutoff,
            "set({iter}) outside tracked range 1..={}",
            self.cutoff
        );
        self.tracked_iterations = self.tracked_iterations.max(iter);
        let h = &mut self.histories[v];
        // Freeze the stabilized value before the first refinement write:
        // any overwrite (even in place) may destroy the prefix's last
        // element, which until now doubled as the beyond-prefix value.
        if h.tail.is_none() {
            h.tail = Some(h.prefix.last().cloned());
        }
        if iter <= h.prefix.len() {
            h.prefix[iter - 1] = agg;
            return;
        }
        // Holes can only arise for vertices with pre-existing history
        // (refinement touches new vertices contiguously from iteration 1);
        // fill them with the frozen untouched-trajectory value.
        let fill = h.tail.clone().flatten().unwrap_or_else(|| agg.clone());
        while h.prefix.len() + 1 < iter {
            h.prefix.push(fill.clone());
        }
        h.prefix.push(agg);
    }

    /// Number of aggregation values physically stored for `v`.
    pub fn stored_len(&self, v: usize) -> usize {
        self.histories[v].prefix.len()
    }

    /// The frozen stabilized tail of `v`, if refinement froze one:
    /// `None` = never frozen (beyond-prefix reads fall back to the last
    /// prefix entry), `Some(None)` = frozen empty (vertex had no
    /// pre-refinement history), `Some(Some(_))` = the stabilized value.
    /// Exposed for checkpointing.
    pub fn frozen_tail(&self, v: usize) -> Option<Option<&A>> {
        self.histories[v].tail.as_ref().map(|t| t.as_ref())
    }

    /// Restores one vertex's history verbatim (checkpoint loading):
    /// neither pruning nor tail-freezing logic applies — the caller is
    /// replaying state captured from another store.
    pub fn restore_history(&mut self, v: usize, prefix: Vec<A>, tail: Option<Option<A>>) {
        debug_assert!(prefix.len() <= self.cutoff);
        self.histories[v] = History { prefix, tail };
    }

    /// Overrides the tracked-iteration counter (checkpoint loading —
    /// prefix lengths alone would understate it for stores whose last
    /// iterations were fully pruned).
    pub fn force_tracked_iterations(&mut self, tracked: usize) {
        self.tracked_iterations = tracked;
    }

    /// Total number of aggregation values physically stored.
    pub fn stored_entries(&self) -> usize {
        self.histories
            .iter()
            .map(|h| h.prefix.len() + usize::from(matches!(&h.tail, Some(Some(_)))))
            .sum()
    }

    /// Estimated heap footprint in bytes, given a per-entry byte cost
    /// function, and the number of aggregation values physically stored
    /// ([`DependencyStore::stored_entries`]) — both from one walk.
    // Kept out of line: inlined into the engine's per-batch publish, the
    // flattened walk compiled to a loop 2-3x slower, and the speed
    // turned on unrelated edits to the caller.
    #[inline(never)]
    pub fn footprint(&self, entry_bytes: impl Fn(&A) -> usize) -> (usize, usize) {
        let spine = self.histories.capacity() * std::mem::size_of::<History<A>>();
        self.histories
            .iter()
            .flat_map(|h| h.prefix.iter().chain(h.tail.iter().flatten()))
            .fold((spine, 0), |(bytes, entries), a| {
                (bytes + entry_bytes(a), entries + 1)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_get_round_trip() {
        let mut s: DependencyStore<f64> = DependencyStore::new(2, 10, true);
        s.record(0, 1, &1.0);
        s.record(0, 2, &2.0);
        assert_eq!(s.get(0, 1), Some(&1.0));
        assert_eq!(s.get(0, 2), Some(&2.0));
        assert_eq!(s.tracked_iterations(), 2);
    }

    #[test]
    fn vertical_pruning_skips_stable_values() {
        let mut s: DependencyStore<f64> = DependencyStore::new(1, 10, true);
        s.record(0, 1, &5.0);
        s.record(0, 2, &5.0); // pruned
        s.record(0, 3, &5.0); // pruned
        assert_eq!(s.stored_len(0), 1);
        // Reads past the prefix return the stabilized value.
        assert_eq!(s.get(0, 3), Some(&5.0));
        assert_eq!(s.get(0, 7), Some(&5.0));
    }

    #[test]
    fn vertical_pruning_materializes_holes_on_change() {
        let mut s: DependencyStore<f64> = DependencyStore::new(1, 10, true);
        s.record(0, 1, &5.0);
        s.record(0, 2, &5.0); // pruned
        s.record(0, 3, &6.0); // forces materialization of iteration 2
        assert_eq!(s.stored_len(0), 3);
        assert_eq!(s.get(0, 2), Some(&5.0));
        assert_eq!(s.get(0, 3), Some(&6.0));
    }

    #[test]
    fn no_vertical_pruning_stores_everything() {
        let mut s: DependencyStore<f64> = DependencyStore::new(1, 10, false);
        s.record(0, 1, &5.0);
        s.record(0, 2, &5.0);
        assert_eq!(s.stored_len(0), 2);
    }

    #[test]
    fn horizontal_cutoff_discards_late_iterations() {
        let mut s: DependencyStore<f64> = DependencyStore::new(1, 2, true);
        s.record(0, 1, &1.0);
        s.record(0, 2, &2.0);
        s.record(0, 3, &3.0); // beyond cut-off, ignored
        assert_eq!(s.get(0, 2), Some(&2.0));
        assert_eq!(s.get(0, 3), None);
        assert_eq!(s.tracked_iterations(), 2);
    }

    #[test]
    fn set_freezes_stabilized_tail() {
        let mut s: DependencyStore<f64> = DependencyStore::new(1, 10, true);
        s.record(0, 1, &1.0);
        s.record(0, 5, &1.0); // pruned: prefix still length 1
        s.set(0, 4, 9.0);
        // Holes filled with the stabilized value.
        assert_eq!(s.get(0, 2), Some(&1.0));
        assert_eq!(s.get(0, 3), Some(&1.0));
        assert_eq!(s.get(0, 4), Some(&9.0));
        // Reads past the prefix return the *old stabilized* value, not
        // the refined one: untouched iterations keep the previous
        // trajectory by the BSP induction.
        assert_eq!(s.get(0, 6), Some(&1.0));
    }

    #[test]
    fn set_within_prefix_overwrites_in_place() {
        let mut s: DependencyStore<f64> = DependencyStore::new(1, 10, true);
        s.record(0, 1, &1.0);
        s.record(0, 2, &2.0);
        s.set(0, 1, 7.0);
        assert_eq!(s.get(0, 1), Some(&7.0));
        assert_eq!(s.get(0, 2), Some(&2.0));
        // No tail frozen: prefix was not extended.
        assert_eq!(s.get(0, 9), Some(&2.0));
    }

    #[test]
    fn tail_survives_multiple_extensions() {
        let mut s: DependencyStore<f64> = DependencyStore::new(1, 10, true);
        s.record(0, 1, &1.0);
        s.set(0, 3, 9.0); // freeze tail = 1.0, fill hole at 2
        s.set(0, 5, 8.0); // fill hole at 4 with the tail (1.0)
        assert_eq!(s.get(0, 2), Some(&1.0));
        assert_eq!(s.get(0, 4), Some(&1.0));
        assert_eq!(s.get(0, 5), Some(&8.0));
        assert_eq!(s.get(0, 9), Some(&1.0));
    }

    #[test]
    fn empty_history_reads_none() {
        let s: DependencyStore<f64> = DependencyStore::new(3, 10, true);
        assert_eq!(s.get(2, 1), None);
    }

    #[test]
    fn grow_extends_vertex_space() {
        let mut s: DependencyStore<f64> = DependencyStore::new(2, 10, true);
        s.grow(5);
        assert_eq!(s.num_vertices(), 5);
        assert_eq!(s.get(4, 1), None);
        s.set(4, 1, 7.0);
        assert_eq!(s.get(4, 1), Some(&7.0));
    }

    #[test]
    #[should_panic(expected = "outside tracked range")]
    fn set_past_cutoff_panics() {
        let mut s: DependencyStore<f64> = DependencyStore::new(1, 2, true);
        s.set(0, 3, 1.0);
    }

    #[test]
    fn memory_accounting_counts_entries() {
        let mut s: DependencyStore<f64> = DependencyStore::new(2, 10, true);
        s.record(0, 1, &1.0);
        s.record(1, 1, &2.0);
        s.record(1, 2, &3.0);
        assert_eq!(s.stored_entries(), 3);
        let (bytes, entries) = s.footprint(|_| 8);
        assert!(bytes >= 24);
        assert_eq!(entries, 3);
    }
}
