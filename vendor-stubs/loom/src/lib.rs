//! Offline stand-in for [loom](https://crates.io/crates/loom).
//!
//! Like every crate under `vendor-stubs/`, this is a minimal,
//! API-compatible replacement for environments with no crates.io access —
//! but unlike the thin `rayon`, `rand` and `proptest` stand-ins it implements
//! the part of loom the workspace actually depends on: **exhaustive
//! exploration of thread interleavings** for small concurrency models.
//!
//! # How it works
//!
//! [`model`] runs the closure once per *schedule*. Execution is fully
//! serialized: exactly one model thread runs at a time, and every
//! shared-memory operation (atomic op, mutex acquire, `yield_now`) is a
//! *switch point* where the scheduler picks which runnable thread
//! continues. The sequence of picks is recorded as a decision path;
//! after each execution the path is advanced depth-first (last decision
//! with an untried alternative is bumped), so the state space of
//! scheduling decisions is enumerated exhaustively.
//!
//! # Deviations from real loom
//!
//! * Only **sequentially-consistent** interleavings are explored. Real
//!   loom additionally simulates the C11 weak-memory model (store
//!   buffering for `Relaxed`/`Release`/`Acquire`), so a model passing
//!   here can still hide a relaxed-ordering bug that real loom would
//!   catch. Models should therefore only assert properties that are
//!   independent of weak orderings (atomicity of RMW ops, mutual
//!   exclusion, happens-before via join) — which is what the workspace's
//!   models do.
//! * `sync::Mutex::lock` returns the guard directly rather than a
//!   `LockResult`; the workspace's one call site (`ShardedMut::with`)
//!   only binds the result, which holds the lock in either shape.
//! * Schedules are capped at [`MAX_SCHEDULES`]; models that exceed the
//!   cap panic, forcing them to stay small instead of silently sampling.
//!
//! Outside of [`model`] every primitive degrades to its plain `std`
//! behaviour, so a crate compiled with its `loom-check` feature still
//! runs its ordinary test suite correctly.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Hard cap on explored schedules per [`model`] call.
pub const MAX_SCHEDULES: u64 = 1 << 20;

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// One scheduling decision: which of `options` runnable threads ran.
#[derive(Clone, Copy, Debug)]
struct Choice {
    taken: usize,
    options: usize,
}

struct State {
    /// Decision path: replayed up to `cursor`, recorded beyond it.
    path: Vec<Choice>,
    cursor: usize,
    next_tid: usize,
    /// Threads eligible to be scheduled, ascending tid.
    runnable: Vec<usize>,
    /// The single thread currently allowed to run.
    current: usize,
    /// Registered and not yet finished.
    live: usize,
    finished: Vec<bool>,
    /// child tid -> threads blocked joining it.
    join_waiters: HashMap<usize, Vec<usize>>,
    /// Set on the first panic: scheduling stops and threads free-run.
    abort: bool,
    panic_payload: Option<PanicPayload>,
}

struct Sched {
    state: StdMutex<State>,
    cv: Condvar,
}

thread_local! {
    /// (scheduler, my tid) for threads managed by an active model.
    static CTX: RefCell<Option<(Arc<Sched>, usize)>> = const { RefCell::new(None) };
}

fn ctx() -> Option<(Arc<Sched>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

impl Sched {
    fn new(path: Vec<Choice>) -> Self {
        Self {
            state: StdMutex::new(State {
                path,
                cursor: 0,
                next_tid: 0,
                runnable: Vec::new(),
                current: 0,
                live: 0,
                finished: Vec::new(),
                join_waiters: HashMap::new(),
                abort: false,
                panic_payload: None,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> StdMutexGuard<'_, State> {
        // A panicking managed thread may poison the state lock; the abort
        // protocol still needs the data, so recover it.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a new thread; returns its tid. Called by the *parent*
    /// (which is the running thread), so tids are deterministic.
    fn alloc_tid(&self) -> usize {
        let mut st = self.lock();
        let tid = st.next_tid;
        st.next_tid += 1;
        st.finished.push(false);
        st.live += 1;
        match st.runnable.binary_search(&tid) {
            Ok(_) => {}
            Err(pos) => st.runnable.insert(pos, tid),
        }
        tid
    }

    /// Picks the next thread to run among `runnable`, replaying or
    /// extending the decision path.
    fn decide(&self, st: &mut State) {
        if st.runnable.is_empty() {
            if st.live > 0 && !st.abort {
                st.abort = true;
                self.cv.notify_all();
                panic!(
                    "loom stub: deadlock — {} live thread(s), none runnable \
                     (every live thread is blocked)",
                    st.live
                );
            }
            return;
        }
        let options = st.runnable.len();
        let taken = if st.cursor < st.path.len() {
            let c = st.path[st.cursor];
            assert!(
                c.options == options && c.taken < options,
                "loom stub: nondeterministic model (replay expected {} options, saw {})",
                c.options,
                options
            );
            c.taken
        } else {
            st.path.push(Choice { taken: 0, options });
            0
        };
        st.cursor += 1;
        st.current = st.runnable[taken];
    }

    /// A switch point: the running thread offers the scheduler a chance
    /// to run somebody else before its next shared-memory operation.
    fn switch_point(&self, me: usize) {
        let mut st = self.lock();
        if st.abort {
            return;
        }
        self.decide(&mut st);
        if st.current != me {
            self.cv.notify_all();
            while st.current != me && !st.abort {
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    /// Parks a freshly spawned thread until it is scheduled.
    fn wait_for_turn(&self, me: usize) {
        let mut st = self.lock();
        while st.current != me && !st.abort {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks the running thread (it removed itself from contention via
    /// `f`), hands control to the next runnable thread, and waits until
    /// somebody makes it runnable again *and* the scheduler picks it.
    fn block_self(&self, me: usize) {
        let mut st = self.lock();
        if st.abort {
            return;
        }
        if let Ok(pos) = st.runnable.binary_search(&me) {
            st.runnable.remove(pos);
        }
        self.decide(&mut st);
        self.cv.notify_all();
        while st.current != me && !st.abort {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Re-inserts `tids` into the runnable set (e.g. mutex waiters on
    /// unlock). They run once the scheduler picks them.
    fn make_runnable(&self, tids: &[usize]) {
        let mut st = self.lock();
        for &tid in tids {
            if st.finished[tid] {
                continue;
            }
            if let Err(pos) = st.runnable.binary_search(&tid) {
                st.runnable.insert(pos, tid);
            }
        }
    }

    /// Marks the running thread finished and schedules a successor.
    fn finish(&self, me: usize) {
        let mut st = self.lock();
        if let Ok(pos) = st.runnable.binary_search(&me) {
            st.runnable.remove(pos);
        }
        st.finished[me] = true;
        st.live -= 1;
        if let Some(ws) = st.join_waiters.remove(&me) {
            for w in ws {
                if let Err(pos) = st.runnable.binary_search(&w) {
                    st.runnable.insert(pos, w);
                }
            }
        }
        if st.live > 0 && !st.abort {
            self.decide(&mut st);
        }
        self.cv.notify_all();
    }

    /// Blocks the caller until `child` finishes (scheduler-aware join).
    fn join_block(&self, me: usize, child: usize) {
        {
            let mut st = self.lock();
            if st.finished[child] || st.abort {
                return;
            }
            st.join_waiters.entry(child).or_default().push(me);
        }
        self.block_self(me);
    }

    /// First-panic handler: stop scheduling, let every thread free-run.
    fn abort_with(&self, payload: PanicPayload) {
        let mut st = self.lock();
        st.abort = true;
        if st.panic_payload.is_none() {
            st.panic_payload = Some(payload);
        }
        self.cv.notify_all();
    }

    fn take_panic(&self) -> Option<PanicPayload> {
        self.lock().panic_payload.take()
    }

    /// Waits until every registered thread has finished (or abort).
    fn wait_all_finished(&self) {
        let mut st = self.lock();
        while st.live > 0 && !st.abort {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn take_path(&self) -> Vec<Choice> {
        std::mem::take(&mut self.lock().path)
    }
}

/// Depth-first advance: bump the deepest decision that still has an
/// untried alternative; returns `false` when the space is exhausted.
fn advance(path: &mut Vec<Choice>) -> bool {
    while let Some(last) = path.last_mut() {
        if last.taken + 1 < last.options {
            last.taken += 1;
            return true;
        }
        path.pop();
    }
    false
}

fn current_switch_point() {
    if let Some((sched, me)) = ctx() {
        sched.switch_point(me);
    }
}

/// Exhaustively explores the scheduling decisions of `f`.
///
/// # Panics
///
/// Re-raises the first panic of any model thread (with the failing
/// schedule fully replayable by construction), panics on deadlock, and
/// panics when the model exceeds [`MAX_SCHEDULES`].
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut path: Vec<Choice> = Vec::new();
    let mut schedules: u64 = 0;
    loop {
        schedules += 1;
        assert!(
            schedules <= MAX_SCHEDULES,
            "loom stub: model exceeded {MAX_SCHEDULES} schedules; shrink the model"
        );
        let sched = Arc::new(Sched::new(path));
        let root_sched = Arc::clone(&sched);
        let body = Arc::clone(&f);
        let root = std::thread::spawn(move || {
            let me = root_sched.alloc_tid();
            CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&root_sched), me)));
            root_sched.wait_for_turn(me);
            match catch_unwind(AssertUnwindSafe(|| body())) {
                Ok(()) => root_sched.finish(me),
                Err(p) => root_sched.abort_with(p),
            }
        });
        let _ = root.join();
        sched.wait_all_finished();
        if let Some(p) = sched.take_panic() {
            eprintln!("loom stub: failing schedule found after {schedules} schedule(s)");
            resume_unwind(p);
        }
        path = sched.take_path();
        if !advance(&mut path) {
            break;
        }
    }
}

pub mod thread {
    //! Scheduler-aware `std::thread` subset.

    use super::*;

    enum Inner<T> {
        /// Spawned outside a model: plain std thread.
        Std(std::thread::JoinHandle<T>),
        /// Model thread: the wrapper returns `None` when the body
        /// panicked (the payload is parked in the scheduler).
        Managed {
            sched: Arc<Sched>,
            tid: usize,
            handle: std::thread::JoinHandle<Option<T>>,
        },
    }

    /// Handle to a spawned thread (see [`spawn`]).
    pub struct JoinHandle<T>(Inner<T>);

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish, propagating its panic like
        /// `std::thread::JoinHandle::join`.
        pub fn join(self) -> std::thread::Result<T> {
            match self.0 {
                Inner::Std(h) => h.join(),
                Inner::Managed { sched, tid, handle } => {
                    if let Some((s, me)) = ctx() {
                        debug_assert!(Arc::ptr_eq(&s, &sched));
                        sched.join_block(me, tid);
                    }
                    match handle.join() {
                        Ok(Some(v)) => Ok(v),
                        Ok(None) => Err(sched
                            .take_panic()
                            .unwrap_or_else(|| Box::new("loom model thread panicked"))),
                        Err(p) => Err(p),
                    }
                }
            }
        }
    }

    /// Spawns a thread. Inside [`model`](super::model) the thread is
    /// registered with the scheduler and participates in interleaving
    /// exploration; outside it is a plain `std::thread::spawn`.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match ctx() {
            None => JoinHandle(Inner::Std(std::thread::spawn(f))),
            Some((sched, _me)) => {
                let tid = sched.alloc_tid();
                let child_sched = Arc::clone(&sched);
                let handle = std::thread::spawn(move || {
                    CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&child_sched), tid)));
                    child_sched.wait_for_turn(tid);
                    match catch_unwind(AssertUnwindSafe(f)) {
                        Ok(v) => {
                            child_sched.finish(tid);
                            Some(v)
                        }
                        Err(p) => {
                            child_sched.abort_with(p);
                            None
                        }
                    }
                });
                JoinHandle(Inner::Managed { sched, tid, handle })
            }
        }
    }

    /// An explicit switch point.
    pub fn yield_now() {
        current_switch_point();
    }
}

pub mod sync {
    //! Scheduler-aware `std::sync` subset.

    pub use std::sync::Arc;

    pub mod atomic {
        //! Atomics whose every operation is a scheduler switch point.

        pub use std::sync::atomic::Ordering;

        use super::super::current_switch_point;

        /// Atomic fence; a switch point under an active model.
        pub fn fence(order: Ordering) {
            current_switch_point();
            std::sync::atomic::fence(order);
        }

        macro_rules! atomic {
            ($name:ident, $std:ty, $val:ty) => {
                /// Model-checked wrapper over the equivalent std atomic:
                /// each operation yields to the scheduler first, so every
                /// interleaving of operations is explored.
                #[derive(Debug, Default)]
                pub struct $name {
                    inner: $std,
                }

                impl $name {
                    /// Creates a new atomic.
                    pub fn new(v: $val) -> Self {
                        Self { inner: <$std>::new(v) }
                    }

                    /// Consumes the atomic, returning the value.
                    pub fn into_inner(self) -> $val {
                        self.inner.into_inner()
                    }

                    /// Atomic load (switch point).
                    pub fn load(&self, order: Ordering) -> $val {
                        current_switch_point();
                        self.inner.load(order)
                    }

                    /// Atomic store (switch point).
                    pub fn store(&self, v: $val, order: Ordering) {
                        current_switch_point();
                        self.inner.store(v, order)
                    }

                    /// Atomic swap (switch point).
                    pub fn swap(&self, v: $val, order: Ordering) -> $val {
                        current_switch_point();
                        self.inner.swap(v, order)
                    }

                    /// Atomic compare-exchange (switch point).
                    pub fn compare_exchange(
                        &self,
                        cur: $val,
                        new: $val,
                        ok: Ordering,
                        err: Ordering,
                    ) -> Result<$val, $val> {
                        current_switch_point();
                        self.inner.compare_exchange(cur, new, ok, err)
                    }

                    /// Atomic weak compare-exchange (switch point; never
                    /// fails spuriously in the stub).
                    pub fn compare_exchange_weak(
                        &self,
                        cur: $val,
                        new: $val,
                        ok: Ordering,
                        err: Ordering,
                    ) -> Result<$val, $val> {
                        current_switch_point();
                        self.inner.compare_exchange(cur, new, ok, err)
                    }
                }
            };
        }

        macro_rules! atomic_int_ops {
            ($name:ident, $val:ty) => {
                impl $name {
                    /// Atomic add, returning the previous value (switch
                    /// point).
                    pub fn fetch_add(&self, v: $val, order: Ordering) -> $val {
                        current_switch_point();
                        self.inner.fetch_add(v, order)
                    }

                    /// Atomic subtract, returning the previous value
                    /// (switch point).
                    pub fn fetch_sub(&self, v: $val, order: Ordering) -> $val {
                        current_switch_point();
                        self.inner.fetch_sub(v, order)
                    }

                    /// Atomic bitwise or, returning the previous value
                    /// (switch point).
                    pub fn fetch_or(&self, v: $val, order: Ordering) -> $val {
                        current_switch_point();
                        self.inner.fetch_or(v, order)
                    }

                    /// Atomic bitwise and, returning the previous value
                    /// (switch point).
                    pub fn fetch_and(&self, v: $val, order: Ordering) -> $val {
                        current_switch_point();
                        self.inner.fetch_and(v, order)
                    }

                    /// Atomic bitwise xor, returning the previous value
                    /// (switch point).
                    pub fn fetch_xor(&self, v: $val, order: Ordering) -> $val {
                        current_switch_point();
                        self.inner.fetch_xor(v, order)
                    }
                }
            };
        }

        atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);
        atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
        atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
        atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
        atomic_int_ops!(AtomicU32, u32);
        atomic_int_ops!(AtomicU64, u64);
        atomic_int_ops!(AtomicUsize, usize);

        impl AtomicBool {
            /// Atomic bitwise or, returning the previous value (switch
            /// point).
            pub fn fetch_or(&self, v: bool, order: Ordering) -> bool {
                current_switch_point();
                self.inner.fetch_or(v, order)
            }

            /// Atomic bitwise and, returning the previous value (switch
            /// point).
            pub fn fetch_and(&self, v: bool, order: Ordering) -> bool {
                current_switch_point();
                self.inner.fetch_and(v, order)
            }
        }
    }

    use std::cell::UnsafeCell;
    use std::sync::{Condvar, Mutex as StdMutex};

    use super::ctx;

    struct MutexMeta {
        held: bool,
        /// Managed threads parked on this mutex (woken on unlock).
        sched_waiters: Vec<usize>,
    }

    /// Scheduler-aware mutex. `lock()` returns the guard directly.
    pub struct Mutex<T> {
        meta: StdMutex<MutexMeta>,
        cv: Condvar,
        data: UnsafeCell<T>,
    }

    // SAFETY: the `held` flag (maintained under `meta`) guarantees at
    // most one `MutexGuard` exists at a time across both the scheduled
    // and the OS-blocking acquisition paths, so access to `data` is
    // exclusive.
    unsafe impl<T: Send> Send for Mutex<T> {}
    // SAFETY: as above — `&Mutex<T>` only exposes `data` through the
    // exclusively-held guard.
    unsafe impl<T: Send> Sync for Mutex<T> {}

    impl<T> Mutex<T> {
        /// Creates a mutex holding `value`.
        pub fn new(value: T) -> Self {
            Self {
                meta: StdMutex::new(MutexMeta {
                    held: false,
                    sched_waiters: Vec::new(),
                }),
                cv: Condvar::new(),
                data: UnsafeCell::new(value),
            }
        }

        /// Consumes the mutex, returning the value.
        pub fn into_inner(self) -> T {
            self.data.into_inner()
        }

        fn meta(&self) -> std::sync::MutexGuard<'_, MutexMeta> {
            self.meta.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Acquires the mutex. Inside a model, acquisition order is a
        /// scheduling decision; outside, this blocks on an OS condvar.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            match ctx() {
                None => {
                    let mut m = self.meta();
                    while m.held {
                        m = self.cv.wait(m).unwrap_or_else(|e| e.into_inner());
                    }
                    m.held = true;
                }
                Some((sched, me)) => loop {
                    sched.switch_point(me);
                    let mut m = self.meta();
                    if !m.held {
                        m.held = true;
                        break;
                    }
                    m.sched_waiters.push(me);
                    drop(m);
                    sched.block_self(me);
                },
            }
            MutexGuard { mutex: self }
        }
    }

    /// Exclusive access to the data of a locked [`Mutex`].
    pub struct MutexGuard<'a, T> {
        mutex: &'a Mutex<T>,
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            let mut m = self.mutex.meta();
            m.held = false;
            let waiters = std::mem::take(&mut m.sched_waiters);
            drop(m);
            self.mutex.cv.notify_all();
            if !waiters.is_empty() {
                if let Some((sched, _)) = ctx() {
                    sched.make_runnable(&waiters);
                }
            }
        }
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;

        fn deref(&self) -> &T {
            // SAFETY: the guard exists ⇒ `held` is true and was set by
            // this thread's acquisition; no other guard is live.
            unsafe { &*self.mutex.data.get() }
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            // SAFETY: as in `deref` — the guard is the unique owner of
            // the mutex while it lives.
            unsafe { &mut *self.mutex.data.get() }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::sync::{Arc, Mutex};

    #[test]
    fn explores_all_interleavings_of_two_increments() {
        // Two racing load+store increments: the classic lost-update race.
        // The explorer must find both the lost-update (1) and the
        // serialized (2) outcomes across schedules.
        use std::sync::atomic::AtomicBool as StdBool;
        use std::sync::atomic::AtomicUsize as StdUsize;
        let saw_lost = std::sync::Arc::new(StdBool::new(false));
        let saw_serial = std::sync::Arc::new(StdBool::new(false));
        let runs = std::sync::Arc::new(StdUsize::new(0));
        let (l, s, r) = (saw_lost.clone(), saw_serial.clone(), runs.clone());
        super::model(move || {
            r.fetch_add(1, Ordering::Relaxed);
            let x = Arc::new(AtomicUsize::new(0));
            let x2 = Arc::clone(&x);
            let t = super::thread::spawn(move || {
                let v = x2.load(Ordering::SeqCst);
                x2.store(v + 1, Ordering::SeqCst);
            });
            let v = x.load(Ordering::SeqCst);
            x.store(v + 1, Ordering::SeqCst);
            t.join().unwrap();
            match x.load(Ordering::SeqCst) {
                1 => l.store(true, Ordering::Relaxed),
                2 => s.store(true, Ordering::Relaxed),
                other => panic!("impossible count {other}"),
            }
        });
        assert!(saw_lost.load(Ordering::Relaxed), "never explored the racy schedule");
        assert!(saw_serial.load(Ordering::Relaxed), "never explored the serial schedule");
        assert!(runs.load(Ordering::Relaxed) > 2, "explored too few schedules");
    }

    #[test]
    fn fetch_add_never_loses_updates() {
        super::model(|| {
            let x = Arc::new(AtomicUsize::new(0));
            let x2 = Arc::clone(&x);
            let t = super::thread::spawn(move || {
                x2.fetch_add(1, Ordering::Relaxed);
            });
            x.fetch_add(1, Ordering::Relaxed);
            t.join().unwrap();
            assert_eq!(x.load(Ordering::Relaxed), 2);
        });
    }

    #[test]
    fn mutex_provides_mutual_exclusion() {
        super::model(|| {
            let m = Arc::new(Mutex::new(0u32));
            let m2 = Arc::clone(&m);
            let t = super::thread::spawn(move || {
                let mut g = m2.lock();
                let v = *g;
                super::thread::yield_now();
                *g = v + 1;
            });
            {
                let mut g = m.lock();
                let v = *g;
                super::thread::yield_now();
                *g = v + 1;
            }
            t.join().unwrap();
            assert_eq!(*m.lock(), 2);
        });
    }

    #[test]
    fn model_failure_reports_panic() {
        let r = std::panic::catch_unwind(|| {
            super::model(|| {
                let x = Arc::new(AtomicUsize::new(0));
                let x2 = Arc::clone(&x);
                let t = super::thread::spawn(move || {
                    // Racy read-modify-write: some schedule loses an update.
                    let v = x2.load(Ordering::SeqCst);
                    x2.store(v + 1, Ordering::SeqCst);
                });
                let v = x.load(Ordering::SeqCst);
                x.store(v + 1, Ordering::SeqCst);
                t.join().unwrap();
                assert_eq!(x.load(Ordering::SeqCst), 2, "lost update");
            });
        });
        assert!(r.is_err(), "the lost-update schedule must fail the model");
    }

    #[test]
    fn works_outside_model_as_plain_std() {
        let x = Arc::new(AtomicUsize::new(0));
        let x2 = Arc::clone(&x);
        let t = super::thread::spawn(move || x2.fetch_add(5, Ordering::SeqCst));
        t.join().unwrap();
        assert_eq!(x.load(Ordering::SeqCst), 5);
        let m = Mutex::new(3);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 4);
    }
}
