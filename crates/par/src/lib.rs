//! npar-par — a minimal work-stealing thread pool for the simulator's
//! parallel host execution (DESIGN.md §10).
//!
//! The build environment is offline, so this is a from-scratch pool on
//! `std::thread` + `Mutex`/`Condvar` only. It is deliberately small and
//! shaped around what the simulation engine needs:
//!
//! * **Per-lane worker state.** Each lane (OS thread) owns a `W` built by a
//!   factory on that thread — alignment scratch buffers — handed `&mut` to
//!   every task it runs. No `Sync` bound on `W`.
//! * **Scoped tasks over borrowed data.** [`Pool::scope`] runs closures
//!   that may borrow from the caller's stack frame; the scope does not
//!   return until every task (including tasks spawned *by* tasks) has
//!   finished, which is what makes the lifetime erasure sound.
//! * **Nested submission without deadlock.** Tasks receive a [`Scope`]
//!   handle and may spawn further tasks from worker threads (a parent
//!   block enqueueing its children). Only the scope *owner* ever blocks
//!   waiting for completion, and while waiting it helps execute queued
//!   tasks — workers never wait on other tasks, so there is no cycle to
//!   deadlock on.
//! * **Work stealing.** Each lane has its own deque; owners pop LIFO (hot
//!   caches for freshly split subranges), thieves steal FIFO (the oldest,
//!   typically largest pending task).
//!
//! Determinism note: the pool makes **no** ordering promises — tasks run
//! whenever a lane grabs them. Callers that need deterministic output
//! (the engine's bit-identical reports) must write results into
//! per-task slots and merge them in a canonical order afterwards.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A queued task, type-erased to `'static`. Soundness: tasks are only
/// created by [`Scope::spawn`], which transmutes away the scope's `'env`
/// lifetime, and [`Pool::scope`] does not return until every task has run
/// to completion — so the borrows a task captures outlive its execution.
type Task<W> = Box<dyn FnOnce(&Scope<'static, W>, &mut W) + Send + 'static>;

struct Shared<W> {
    /// One deque per lane; lane 0 belongs to the pool owner's thread.
    queues: Vec<Mutex<VecDeque<Task<W>>>>,
    /// Wake generation counter: bumped (under the lock) on every event a
    /// sleeper could be waiting for — spawn, scope drain, shutdown. A lane
    /// reads the generation *before* scanning the queues and sleeps only
    /// while it is unchanged, so a spawn between scan and sleep is never
    /// missed.
    sleep: Mutex<u64>,
    cv: Condvar,
    /// Tasks spawned into the current scope and not yet finished
    /// (queued + running). The scope owner waits for zero.
    pending: AtomicUsize,
    shutdown: AtomicBool,
    /// First panic payload captured from a task; rethrown by the scope.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl<W> Shared<W> {
    fn bump(&self) {
        let mut gen = self.sleep.lock().unwrap();
        *gen = gen.wrapping_add(1);
        drop(gen);
        self.cv.notify_all();
    }

    /// Pop from our own deque (LIFO) or steal from another lane (FIFO).
    fn grab(&self, lane: usize) -> Option<Task<W>> {
        if let Some(t) = self.queues[lane].lock().unwrap().pop_back() {
            return Some(t);
        }
        let n = self.queues.len();
        for off in 1..n {
            let victim = (lane + off) % n;
            if let Some(t) = self.queues[victim].lock().unwrap().pop_front() {
                return Some(t);
            }
        }
        None
    }

    /// Run one task, capturing panics; decrements `pending` afterwards and
    /// wakes the scope owner when the count drains to zero.
    fn run(&self, task: Task<W>, scope: &Scope<'_, W>, ctx: &mut W) {
        // The `'env` parameter is phantom; reborrowing as `'static` only
        // affects the fiction the erased task was stored under.
        let scope: &Scope<'static, W> = unsafe { std::mem::transmute(scope) };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(scope, ctx))) {
            let mut slot = self.panic.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.bump();
        }
    }
}

/// Handle for spawning tasks into the active scope. Tasks receive the
/// handle of the lane running them, so nested spawns push onto that
/// lane's own deque (cheap, and stealable by everyone else).
pub struct Scope<'env, W> {
    shared: Arc<Shared<W>>,
    lane: usize,
    /// Invariant in `'env` (a scope must not be coerced to a shorter or
    /// longer environment).
    _env: PhantomData<fn(&'env ()) -> &'env ()>,
}

impl<'env, W> Scope<'env, W> {
    /// Queue `f` for execution by any lane. May be called from inside a
    /// running task (nested submission). `f` must not block waiting for
    /// other tasks — only the scope owner joins.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'env, W>, &mut W) + Send + 'env,
    {
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        #[allow(clippy::type_complexity)] // spelled out: this is the erasure site
        let task: Box<dyn FnOnce(&Scope<'env, W>, &mut W) + Send + 'env> = Box::new(f);
        // Erase 'env; see the soundness note on `Task`.
        let task: Task<W> = unsafe { std::mem::transmute(task) };
        self.shared.queues[self.lane]
            .lock()
            .unwrap()
            .push_back(task);
        self.shared.bump();
    }
}

/// The pool: `lanes` execution lanes, one of which (lane 0) is the thread
/// that owns the pool and runs [`Pool::scope`].
pub struct Pool<W> {
    shared: Arc<Shared<W>>,
    /// Lane 0's worker state, lent to each scope.
    main_ctx: Mutex<W>,
    workers: Vec<JoinHandle<()>>,
    /// Guards against re-entrant scopes (one scope at a time per pool).
    in_scope: AtomicBool,
}

impl<W: 'static> Pool<W> {
    /// Build a pool with `lanes` total lanes (clamped to at least 1).
    /// `factory(lane)` constructs each lane's worker state *on that lane's
    /// thread*; lane 0's state is built on the calling thread.
    pub fn new<F>(lanes: usize, factory: F) -> Self
    where
        F: Fn(usize) -> W + Send + Sync + 'static,
    {
        let lanes = lanes.max(1);
        let shared = Arc::new(Shared {
            queues: (0..lanes).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep: Mutex::new(0),
            cv: Condvar::new(),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        let factory = Arc::new(factory);
        let main_ctx = Mutex::new(factory(0));
        let workers = (1..lanes)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                let factory = Arc::clone(&factory);
                std::thread::Builder::new()
                    .name(format!("npar-worker-{lane}"))
                    // Alignment/scan tasks are shallow; 16 MiB leaves slack
                    // for debug builds.
                    .stack_size(16 << 20)
                    .spawn(move || {
                        let mut ctx = factory(lane);
                        worker_loop(&shared, lane, &mut ctx);
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            main_ctx,
            workers,
            in_scope: AtomicBool::new(false),
        }
    }

    /// Total lanes (owner + workers).
    pub fn lanes(&self) -> usize {
        self.shared.queues.len()
    }

    /// Run `f` with a [`Scope`] and lane 0's worker state, then execute
    /// queued tasks on this thread until *every* task spawned into the
    /// scope (transitively) has finished. Panics from tasks are re-thrown
    /// here after the scope drains.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'env, W>, &mut W) -> R) -> R {
        assert!(
            !self.in_scope.swap(true, Ordering::AcqRel),
            "Pool::scope is not reentrant (one scope at a time)"
        );
        let mut ctx = self.main_ctx.lock().unwrap();
        let scope = Scope {
            shared: Arc::clone(&self.shared),
            lane: 0,
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope, &mut ctx)));
        // Help execute until the scope is fully drained — even if `f`
        // panicked, outstanding tasks still borrow from its environment
        // and must finish before we unwind.
        loop {
            let gen = *self.shared.sleep.lock().unwrap();
            if let Some(task) = self.shared.grab(0) {
                self.shared.run(task, &scope, &mut ctx);
                continue;
            }
            if self.shared.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            let mut guard = self.shared.sleep.lock().unwrap();
            while *guard == gen && self.shared.pending.load(Ordering::Acquire) != 0 {
                guard = self.shared.cv.wait(guard).unwrap();
            }
        }
        drop(ctx);
        self.in_scope.store(false, Ordering::Release);
        let panic = self.shared.panic.lock().unwrap().take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }
}

impl<W> Drop for Pool<W> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.bump();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop<W>(shared: &Arc<Shared<W>>, lane: usize, ctx: &mut W) {
    let scope = Scope {
        shared: Arc::clone(shared),
        lane,
        _env: PhantomData,
    };
    loop {
        let gen = *shared.sleep.lock().unwrap();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(task) = shared.grab(lane) {
            shared.run(task, &scope, ctx);
            continue;
        }
        let mut guard = shared.sleep.lock().unwrap();
        while *guard == gen && !shared.shutdown.load(Ordering::Acquire) {
            guard = shared.cv.wait(guard).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn pool(lanes: usize) -> Pool<usize> {
        Pool::new(lanes, |lane| lane)
    }

    #[test]
    fn runs_tasks_over_borrowed_data() {
        let p = pool(4);
        let data: Vec<u64> = (0..100).collect();
        let sum = AtomicU64::new(0);
        p.scope(|scope, _w| {
            for chunk in data.chunks(7) {
                let sum = &sum;
                scope.spawn(move |_, _| {
                    sum.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..100).sum::<u64>());
    }

    #[test]
    fn single_lane_pool_runs_everything_on_owner() {
        let p = pool(1);
        let count = AtomicU64::new(0);
        p.scope(|scope, _| {
            for _ in 0..32 {
                let count = &count;
                scope.spawn(move |_, _| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn nested_spawns_from_workers_complete() {
        // Binary range splitting: every task spawns two children until the
        // range is a leaf — the pattern the engine uses for block ranges.
        let p = pool(8);
        let hits = AtomicU64::new(0);
        fn split<'env>(scope: &Scope<'env, usize>, lo: u64, hi: u64, hits: &'env AtomicU64) {
            if hi - lo <= 1 {
                hits.fetch_add(lo, Ordering::Relaxed);
                return;
            }
            let mid = lo + (hi - lo) / 2;
            let (h1, h2) = (hits, hits);
            scope.spawn(move |s, _| split(s, lo, mid, h1));
            scope.spawn(move |s, _| split(s, mid, hi, h2));
        }
        p.scope(|scope, _| split(scope, 0, 1000, &hits));
        assert_eq!(hits.load(Ordering::Relaxed), (0..1000).sum::<u64>());
    }

    #[test]
    fn worker_state_is_per_lane() {
        let p = pool(4);
        let seen = Mutex::new(Vec::new());
        let record = |w: &mut usize| {
            let entry = (std::thread::current().id(), *w);
            seen.lock().unwrap().push(entry);
        };
        p.scope(|scope, w| {
            record(w); // lane 0's state, on the owner's thread
            for _ in 0..64 {
                let record = &record;
                scope.spawn(move |_, w| record(w));
            }
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 65);
        assert!(seen.iter().all(|&(_, l)| l < 4));
        // Each OS thread always gets the same state, and no two threads
        // share one.
        for &(t1, w1) in &seen {
            for &(t2, w2) in &seen {
                assert_eq!(t1 == t2, w1 == w2, "{t1:?}/{w1} vs {t2:?}/{w2}");
            }
        }
    }

    #[test]
    fn scope_returns_closure_value() {
        let p = pool(2);
        let v = p.scope(|_, w| *w + 41);
        assert_eq!(v, 41);
    }

    #[test]
    fn sequential_scopes_reuse_the_pool() {
        let p = pool(3);
        for round in 0..10u64 {
            let total = AtomicU64::new(0);
            p.scope(|scope, _| {
                for i in 0..20 {
                    let total = &total;
                    scope.spawn(move |_, _| {
                        total.fetch_add(round * i, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(total.load(Ordering::Relaxed), round * (0..20).sum::<u64>());
        }
    }

    #[test]
    fn task_panic_propagates_after_drain() {
        let p = pool(4);
        let done = AtomicU64::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            p.scope(|scope, _| {
                for i in 0..16 {
                    let done = &done;
                    scope.spawn(move |_, _| {
                        if i == 7 {
                            panic!("boom");
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err());
        // All non-panicking tasks still ran (the scope drains before
        // rethrowing), and the pool remains usable.
        assert_eq!(done.load(Ordering::Relaxed), 15);
        let ok = p.scope(|_, _| 5);
        assert_eq!(ok, 5);
    }
}
