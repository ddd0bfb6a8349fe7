//! Shard-locked mutable slice for parallel push-style aggregation.
//!
//! Push traversal has multiple workers combining contributions into the
//! same destination aggregate. Ligra uses per-word atomics
//! (`atomicAdd` in Algorithm 1 of the paper); generic aggregation values
//! are not atomics, so we guard destinations with a fixed pool of shard
//! locks instead — the GraphBolt C++ implementation uses the equivalent
//! fine-grained locking for its complex aggregations.

use std::cell::UnsafeCell;

// Under `loom-check` the shard locks become loom's model-checked mutex
// so tests/loom_sharded.rs can exhaustively explore acquisition orders.
#[cfg(feature = "loom-check")]
use loom::sync::Mutex;
#[cfg(not(feature = "loom-check"))]
use std::sync::Mutex;

/// Number of shard locks; power of two so the modulo is a mask.
#[cfg(not(feature = "loom-check"))]
const SHARDS: usize = 1024;
/// Tiny pool under loom: keeps exhaustive exploration tractable and
/// makes distinct indices actually alias onto one shard lock, so the
/// models also exercise the aliasing path.
#[cfg(feature = "loom-check")]
const SHARDS: usize = 2;

/// A mutable slice whose elements can be updated concurrently, each
/// access serialized by one of a fixed pool of shard locks.
pub struct ShardedMut<'a, T> {
    data: &'a [UnsafeCell<T>],
    locks: Box<[Mutex<()>]>,
}

// SAFETY: every access to an element goes through `with`, which holds the
// element's shard lock for the duration of the closure; two concurrent
// accesses to the same element therefore serialize, and accesses to
// different elements either use different locks or serialize on a shared
// one. No reference escapes the closure.
unsafe impl<T: Send> Sync for ShardedMut<'_, T> {}

// SAFETY: the wrapper exclusively borrows the slice, so moving it to
// another thread moves that exclusive borrow with it; `T: Send` makes the
// elements themselves safe to access from the receiving thread. The raw
// pointer is just the borrowed slice's base address.
unsafe impl<T: Send> Send for ShardedMut<'_, T> {}

impl<'a, T> ShardedMut<'a, T> {
    /// Wraps an exclusive slice. The wrapper holds the exclusive borrow,
    /// so no other access path exists while it lives.
    pub fn new(slice: &'a mut [T]) -> Self {
        let len = slice.len();
        let ptr = slice.as_mut_ptr() as *const UnsafeCell<T>;
        // SAFETY: `UnsafeCell<T>` has the same layout as `T`, and we hold
        // the unique `&mut` borrow of the slice for `'a`.
        let data = unsafe { std::slice::from_raw_parts(ptr, len) };
        let locks = (0..SHARDS).map(|_| Mutex::new(())).collect::<Vec<_>>();
        Self {
            data,
            locks: locks.into_boxed_slice(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Runs `f` with exclusive access to element `i`.
    #[inline]
    pub fn with<R>(&self, i: usize, f: impl FnOnce(&mut T) -> R) -> R {
        // A poisoned std lock still hands back its guard inside the
        // `Err`, so binding the result holds the shard either way; the
        // `()` payload has no invariant a panicking closure could break.
        let _guard = self.locks[i & (SHARDS - 1)].lock();
        // SAFETY: the shard lock serializes all accesses to index `i`
        // (and any other index mapping to the same shard); the closure
        // cannot leak the reference.
        let elem = unsafe { &mut *self.data[i].get() };
        f(elem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    // The rayon stress tests are skipped under miri (the global pool
    // never shuts down, and 10k interpreted iterations take minutes);
    // `scoped_threads_share_the_slice` below gives miri the same unsafe
    // coverage at interpreter-friendly scale.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn with_grants_exclusive_access() {
        let mut v = vec![0u64; 128];
        {
            let sharded = ShardedMut::new(&mut v);
            (0..10_000usize).into_par_iter().for_each(|i| {
                sharded.with(i % 128, |x| *x += 1);
            });
        }
        assert_eq!(v.iter().sum::<u64>(), 10_000);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn contended_single_slot_is_consistent() {
        let mut v = vec![0u64];
        {
            let sharded = ShardedMut::new(&mut v);
            (0..5_000usize).into_par_iter().for_each(|_| {
                sharded.with(0, |x| *x += 1);
            });
        }
        assert_eq!(v[0], 5_000);
    }

    #[test]
    fn scoped_threads_share_the_slice() {
        let mut v = vec![0u64; 64];
        {
            let sharded = ShardedMut::new(&mut v);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        for i in 0..64 {
                            sharded.with(i, |x| *x += 1);
                        }
                    });
                }
            });
        }
        assert!(v.iter().all(|&x| x == 2));
    }

    #[test]
    fn len_reports_slice_length() {
        let mut v = vec![1, 2, 3];
        let sharded = ShardedMut::new(&mut v);
        assert_eq!(sharded.len(), 3);
        assert!(!sharded.is_empty());
    }
}
