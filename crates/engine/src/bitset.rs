//! Lock-free concurrent bit set.

// One of the two modules that own raw atomics (see `parallel`); its
// orderings are model-checked by tests/loom_models.rs.
#![allow(clippy::disallowed_types)]

// Under `loom-check` the words become loom's model-checked atomics so
// tests/loom_models.rs can exhaustively explore set/test interleavings.
#[cfg(feature = "loom-check")]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(feature = "loom-check"))]
use std::sync::atomic::{AtomicU64, Ordering};

use graphbolt_graph::VertexId;

use crate::parallel;

/// A fixed-capacity bit set supporting concurrent set/test from parallel
/// edge-map workers.
///
/// Dense frontiers and the "changed at cut-off iteration" vector of
/// hybrid execution (§4.2 of the paper) are represented this way: one bit
/// per vertex. [`set`](Self::set) and [`get`](Self::get) form a
/// release/acquire pair, so a reader that observes a bit also observes
/// every write the setter made before setting it — workers may publish a
/// vertex's value and then its changed bit without waiting for the BSP
/// barrier. Bulk operations (`word`, `count`, iteration, `reset`) stay
/// relaxed; they are only used after a barrier has already ordered the
/// preceding superstep.
#[derive(Debug)]
pub struct AtomicBitSet {
    words: Vec<AtomicU64>,
    capacity: usize,
}

impl AtomicBitSet {
    /// Creates a cleared bit set with room for `capacity` bits.
    pub fn new(capacity: usize) -> Self {
        let words = capacity.div_ceil(64);
        Self {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
            capacity,
        }
    }

    /// Number of bits the set can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sets bit `i`, returning `true` if it was previously clear.
    /// Safe to call concurrently.
    ///
    /// Release ordering: writes made before `set(i)` are visible to any
    /// thread that subsequently observes bit `i` via [`get`](Self::get).
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        let mask = 1u64 << (i & 63);
        let prev = self.words[i >> 6].fetch_or(mask, Ordering::Release);
        prev & mask == 0
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&self, i: usize) {
        debug_assert!(i < self.capacity);
        let mask = 1u64 << (i & 63);
        // ordering: clearing publishes no data; callers synchronize
        // phase boundaries externally (frontier swap), so Relaxed is
        // enough for the bit itself.
        self.words[i >> 6].fetch_and(!mask, Ordering::Relaxed);
    }

    /// Tests bit `i`.
    ///
    /// Acquire ordering: pairs with the release in [`set`](Self::set),
    /// so observing a set bit also makes the setter's prior writes
    /// visible.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        self.words[i >> 6].load(Ordering::Acquire) & (1u64 << (i & 63)) != 0
    }

    /// Number of set bits.
    ///
    /// Memory ordering: counting is only meaningful once concurrent
    /// setters have quiesced (between supersteps); Relaxed loads read
    /// the final values without pointless fences.
    pub fn count(&self) -> usize {
        if self.words.len() >= PAR_BLOCK_WORDS * 2 {
            return parallel::par_sum(0..self.words.len(), |wi| {
                // ordering: see above — quiescent-phase read.
                self.words[wi].load(Ordering::Relaxed).count_ones() as usize
            });
        }
        self.words
            .iter()
            // ordering: see above — quiescent-phase read.
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Number of 64-bit words backing the set.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Raw word `wi` (bits `wi * 64 .. wi * 64 + 64`).
    #[inline]
    pub fn word(&self, wi: usize) -> u64 {
        // ordering: raw-word access is a quiescent-phase read; callers
        // (frontier sweeps) run after all setters joined.
        self.words[wi].load(Ordering::Relaxed)
    }

    /// Clears all bits.
    pub fn reset(&self) {
        for w in &self.words {
            // ordering: reset happens single-threaded between phases;
            // the next superstep's thread-spawn synchronizes.
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Iterates indices of set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, w)| {
            // ordering: iteration is a quiescent-phase read (all
            // setters joined before the frontier is consumed).
            let mut bits = w.load(Ordering::Relaxed);
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Collects set bits into a vertex-id vector, ascending.
    ///
    /// Large sets convert in parallel: block-wise popcount, an exclusive
    /// prefix sum over the block counts, then a scatter where each block
    /// writes its indices into a disjoint, pre-sized slice of the output.
    /// Output is identical to the sequential walk (ascending order) — the
    /// prefix sum fixes each block's output position up front.
    pub fn to_ids(&self) -> Vec<VertexId> {
        if self.words.len() < PAR_BLOCK_WORDS * 2 {
            return self.iter().map(|i| i as VertexId).collect();
        }
        let blocks = self.words.len().div_ceil(PAR_BLOCK_WORDS);
        let mut offsets = parallel::par_map(0..blocks, |b| {
            self.words[b * PAR_BLOCK_WORDS..((b + 1) * PAR_BLOCK_WORDS).min(self.words.len())]
                .iter()
                // ordering: quiescent-phase read (setters joined
                // before conversion starts).
                .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
                .sum::<usize>()
        });
        let total = parallel::exclusive_prefix_sum(&mut offsets);
        let mut out: Vec<VertexId> = vec![0; total];
        let mut tail: &mut [VertexId] = &mut out;
        let mut tasks: Vec<(usize, &mut [VertexId])> = Vec::with_capacity(blocks);
        for b in 0..blocks {
            let end = offsets.get(b + 1).copied().unwrap_or(total);
            let (head, rest) = tail.split_at_mut(end - offsets[b]);
            tasks.push((b, head));
            tail = rest;
        }
        parallel::par_for_each(tasks, |(b, slot)| {
            let mut cursor = 0;
            let lo = b * PAR_BLOCK_WORDS;
            let hi = (lo + PAR_BLOCK_WORDS).min(self.words.len());
            for wi in lo..hi {
                // ordering: quiescent-phase read; the popcount pass
                // above already fixed this block's output size.
                let mut bits = self.words[wi].load(Ordering::Relaxed);
                while bits != 0 {
                    slot[cursor] = (wi * 64 + bits.trailing_zeros() as usize) as VertexId;
                    cursor += 1;
                    bits &= bits - 1;
                }
            }
            debug_assert_eq!(cursor, slot.len());
        });
        out
    }
}

/// Words per parallel-conversion block (256 words = 16 Kbit ≈ one L1-ish
/// tile); sets smaller than two blocks take the sequential path.
const PAR_BLOCK_WORDS: usize = 256;

impl Clone for AtomicBitSet {
    fn clone(&self) -> Self {
        Self {
            words: self
                .words
                .iter()
                // ordering: cloning from `&self` cannot race with
                // mutation through the same reference holder's phase
                // discipline; Relaxed snapshots each word.
                .map(|w| AtomicU64::new(w.load(Ordering::Relaxed)))
                .collect(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let bs = AtomicBitSet::new(130);
        assert!(bs.set(0));
        assert!(bs.set(64));
        assert!(bs.set(129));
        assert!(!bs.set(64), "second set reports already-set");
        assert!(bs.get(129));
        bs.clear(64);
        assert!(!bs.get(64));
        assert_eq!(bs.count(), 2);
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let bs = AtomicBitSet::new(200);
        for i in [5usize, 63, 64, 150, 199] {
            bs.set(i);
        }
        assert_eq!(bs.to_ids(), vec![5, 63, 64, 150, 199]);
    }

    #[test]
    fn reset_clears_everything() {
        let bs = AtomicBitSet::new(100);
        for i in 0..100 {
            bs.set(i);
        }
        bs.reset();
        assert_eq!(bs.count(), 0);
    }

    // Skipped under miri: 10k interpreted cross-thread sets take
    // minutes; `set_get_clear` and friends cover the atomics at
    // miri-friendly scale.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn concurrent_sets_count_correctly() {
        use std::sync::Arc;
        let bs = Arc::new(AtomicBitSet::new(10_000));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let bs = Arc::clone(&bs);
                std::thread::spawn(move || {
                    for i in (t..10_000).step_by(4) {
                        bs.set(i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(bs.count(), 10_000);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn parallel_to_ids_matches_sequential_iter() {
        // Big enough to take the blocked parallel path (> 2 blocks of
        // words), with an irregular pattern crossing block boundaries.
        let n = PAR_BLOCK_WORDS * 64 * 3 + 101;
        let bs = AtomicBitSet::new(n);
        for i in (0..n).filter(|i| i % 7 == 0 || i % 1013 == 5) {
            bs.set(i);
        }
        let expected: Vec<VertexId> = bs.iter().map(|i| i as VertexId).collect();
        assert_eq!(bs.to_ids(), expected);
        assert_eq!(bs.count(), expected.len());
    }

    #[test]
    fn clone_snapshots_current_state() {
        let bs = AtomicBitSet::new(10);
        bs.set(3);
        let copy = bs.clone();
        bs.set(4);
        assert!(copy.get(3));
        assert!(!copy.get(4));
    }
}
