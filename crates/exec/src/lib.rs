//! Deterministic work-stealing executor for RAI's payload pipeline.
//!
//! The discrete-event engine stays single-threaded on purpose — event
//! order *is* the simulation — but the byte-crunching it triggers
//! (Gear chunking, FNV digesting, LZSS batches, chunk validation) is
//! pure: output depends only on the input bytes. This crate provides
//! the pool those pure transforms run on, built from scratch because
//! the build environment has no registry access (same convention as
//! the `compat/` shims).
//!
//! Four pieces:
//!
//! - [`Executor`] — a cheaply clonable handle, either *sequential*
//!   (`parallelism <= 1`, every task runs inline on the caller; the
//!   preserved reference configuration) or a *pool* of N workers with
//!   per-worker deques plus a shared injector queue. Owners push and
//!   pop the back of their own deque (LIFO, cache-warm); thieves and
//!   the injector drain from the front (FIFO).
//! - [`Executor::scope`] — structured spawning: tasks may borrow from
//!   the caller's stack, the scope joins every spawned task before it
//!   returns (even when the closure panics), and the first task panic
//!   is re-thrown at the join point.
//! - [`Executor::par_map`] — ordered data parallelism: results come
//!   back in **input order** regardless of completion order, which is
//!   what makes offloading safe for the determinism gate
//!   (`SemesterResult::fingerprint()` must be byte-identical at every
//!   thread count; see DESIGN.md §12).
//! - [`Executor::run_jobs`] — the **job scheduling API** (DESIGN.md
//!   §15): one *claim → execute → commit* batch. The caller produces
//!   claims serially (every shared-state touch point resolved in a
//!   deterministic order), `execute` fans the pure middle of each job
//!   across the pool, and `commit` is applied back on the calling
//!   thread **in claim order**, no matter which pool worker finished
//!   first. This is what lets independent submissions run concurrently
//!   while fault draws, trace artifacts, and fingerprints stay
//!   byte-identical at every pool width.
//!
//! Threads that join a scope *help*: while waiting they pull pending
//! tasks off the pool and run them, so nested scopes make progress
//! even on a one-worker pool (and on a one-core host).
//!
//! # Examples
//!
//! Ordered data parallelism:
//!
//! ```
//! use rai_exec::Executor;
//!
//! let exec = Executor::new(4);
//! let doubled = exec.par_map((0..8).collect::<Vec<u64>>(), |x| x * 2);
//! assert_eq!(doubled, (0..8).map(|x| x * 2).collect::<Vec<_>>());
//! ```
//!
//! A claim/execute/commit batch — commits land in claim order even
//! though execution interleaves freely across the pool:
//!
//! ```
//! use rai_exec::Executor;
//!
//! let exec = Executor::new(4);
//! let mut committed = Vec::new();
//! exec.run_jobs(
//!     vec![1u64, 2, 3, 4],          // claims, in claim order
//!     |n| n * n,                    // execute: pure, concurrent
//!     |sq| committed.push(sq),      // commit: serial, claim order
//! );
//! assert_eq!(committed, vec![1, 4, 9, 16]);
//! ```

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A type-erased unit of work queued on the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// `(pool identity, worker index)` for pool worker threads, so a
    /// task spawning sub-tasks pushes onto its own deque instead of
    /// the shared injector.
    static CURRENT_WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

// ------------------------------------------------------------ Executor

/// Handle to an execution strategy: inline sequential or a
/// work-stealing pool. Clones share the same pool.
#[derive(Clone)]
pub struct Executor {
    inner: Arc<Inner>,
}

enum Inner {
    /// `parallelism <= 1`: tasks run inline on the calling thread, in
    /// spawn order. This is the preserved reference configuration the
    /// determinism gate compares against.
    Sequential(Counters),
    Pool(Pool),
}

/// Cumulative activity counters. Telemetry-only: they are never read
/// back by pipeline logic (steal/park counts depend on OS scheduling,
/// so they are *not* deterministic across runs or pool widths and must
/// stay out of fingerprints and byte-identical exports).
#[derive(Debug, Default)]
struct Counters {
    spawned: AtomicU64,
    inline_runs: AtomicU64,
    stolen: AtomicU64,
    parked: AtomicU64,
    injected: AtomicU64,
    batches: AtomicU64,
    batch_jobs: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ExecStats {
        ExecStats {
            spawned: self.spawned.load(Ordering::Relaxed),
            inline_runs: self.inline_runs.load(Ordering::Relaxed),
            stolen: self.stolen.load(Ordering::Relaxed),
            parked: self.parked.load(Ordering::Relaxed),
            injected: self.injected.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_jobs: self.batch_jobs.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of an executor's cumulative activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tasks handed to pool workers (scope spawns on a pool).
    pub spawned: u64,
    /// Tasks run inline on the calling thread (sequential executor, or
    /// degenerate `par_map` inputs that skip the pool).
    pub inline_runs: u64,
    /// Jobs taken from another worker's deque (or by a helping joiner).
    pub stolen: u64,
    /// Times a worker ran dry and parked on the idle condvar.
    pub parked: u64,
    /// Jobs that went through the shared injector (spawns arriving from
    /// off-pool threads).
    pub injected: u64,
    /// Claim/execute/commit batches scheduled via [`Executor::run_jobs`].
    pub batches: u64,
    /// Jobs those batches carried (batch sizes summed).
    pub batch_jobs: u64,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::sequential()
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("parallelism", &self.parallelism())
            .finish()
    }
}

impl Executor {
    /// An executor that runs every task inline on the caller thread.
    pub fn sequential() -> Self {
        Executor {
            inner: Arc::new(Inner::Sequential(Counters::default())),
        }
    }

    /// An executor with `parallelism` worker threads; `<= 1` yields
    /// the sequential executor (no threads spawned at all).
    pub fn new(parallelism: usize) -> Self {
        if parallelism <= 1 {
            return Executor::sequential();
        }
        Executor {
            inner: Arc::new(Inner::Pool(Pool::start(parallelism))),
        }
    }

    /// Number of threads tasks may run on (1 for sequential).
    pub fn parallelism(&self) -> usize {
        match &*self.inner {
            Inner::Sequential(_) => 1,
            Inner::Pool(p) => p.shared.deques.len(),
        }
    }

    /// True when every task runs inline on the caller thread.
    pub fn is_sequential(&self) -> bool {
        matches!(&*self.inner, Inner::Sequential(_))
    }

    /// Snapshot of the cumulative activity counters (spawn / inline /
    /// steal / park / inject). Monotonic; shared by every clone of this
    /// handle. Steal and park counts depend on thread scheduling —
    /// report them, never fingerprint them.
    pub fn stats(&self) -> ExecStats {
        self.counters().snapshot()
    }

    fn counters(&self) -> &Counters {
        match &*self.inner {
            Inner::Sequential(c) => c,
            Inner::Pool(p) => &p.shared.counters,
        }
    }

    /// Run `f` with a [`Scope`] that can spawn borrowing tasks.
    ///
    /// Every spawned task is joined before `scope` returns — including
    /// when `f` itself panics, so tasks never outlive the borrows they
    /// capture. Panics propagate: `f`'s own panic first, otherwise the
    /// first task panic, re-thrown here.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'env, '_>) -> R,
    {
        let state = Arc::new(ScopeState::new());
        let result = {
            let scope = Scope {
                exec: self,
                state: &state,
                _env: PhantomData,
            };
            panic::catch_unwind(AssertUnwindSafe(|| f(&scope)))
        };
        // Join before looking at `result`: tasks may borrow stack data
        // that `f`'s unwinding would otherwise free under them.
        self.join_scope(&state);
        let task_panic = state.lock.lock().panic.take();
        match result {
            Err(p) => panic::resume_unwind(p),
            Ok(r) => {
                if let Some(p) = task_panic {
                    panic::resume_unwind(p);
                }
                r
            }
        }
    }

    /// Map `f` over `items`, returning results in **input order**
    /// regardless of which worker finishes first. For a pure `f` the
    /// output is byte-identical to `items.into_iter().map(f)` at any
    /// parallelism — the property the determinism gate relies on.
    pub fn par_map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        if self.is_sequential() || items.len() <= 1 {
            self.counters()
                .inline_runs
                .fetch_add(items.len() as u64, Ordering::Relaxed);
            return items.into_iter().map(f).collect();
        }
        let slots = SlotVec::new(items.len());
        self.scope(|s| {
            for (i, item) in items.into_iter().enumerate() {
                let slots = &slots;
                let f = &f;
                s.spawn(move || slots.set(i, f(item)));
            }
        });
        slots.into_vec()
    }

    /// Run one *claim → execute → commit* batch of independent jobs
    /// (the job scheduling model of DESIGN.md §15).
    ///
    /// `claims` is the batch in **claim order** — the caller produced
    /// them serially, resolving every shared-state touch point (queue
    /// pops, fault draws, cache updates) before any job executes.
    /// `execute` is the pure middle of each job: it runs on pool tasks
    /// and may finish in any order (on a sequential executor it runs
    /// inline, in claim order). `commit` runs on the calling thread,
    /// serially, in claim order — so side effects downstream of
    /// execution (uploads, database records, acks) are applied in a
    /// deterministic order no matter how the pool interleaved.
    ///
    /// For a pure `execute` the committed sequence is byte-identical
    /// to running each job start-to-finish sequentially in claim
    /// order, at any parallelism. A panic in `execute` is re-thrown
    /// here after the whole batch joined, before any commit runs.
    ///
    /// # Examples
    ///
    /// ```
    /// use rai_exec::Executor;
    ///
    /// let exec = Executor::new(4);
    /// let mut order = Vec::new();
    /// let total: u64 = exec
    ///     .run_jobs(
    ///         vec![3u64, 1, 2],
    ///         |n| n * 10,                      // concurrent
    ///         |n| { order.push(n); n }         // serial, claim order
    ///     )
    ///     .into_iter()
    ///     .sum();
    /// assert_eq!(order, vec![30, 10, 20]);
    /// assert_eq!(total, 60);
    /// ```
    pub fn run_jobs<C, T, O, E, K>(&self, claims: Vec<C>, execute: E, mut commit: K) -> Vec<O>
    where
        C: Send,
        T: Send,
        E: Fn(C) -> T + Sync,
        K: FnMut(T) -> O,
    {
        let counters = self.counters();
        counters.batches.fetch_add(1, Ordering::Relaxed);
        counters
            .batch_jobs
            .fetch_add(claims.len() as u64, Ordering::Relaxed);
        self.par_map(claims, execute)
            .into_iter()
            .map(&mut commit)
            .collect()
    }

    /// Pull one pending job off the pool, if any: injector first, then
    /// steal from the front of any worker deque. Used by joining
    /// threads to help instead of blocking.
    fn try_pop_job(&self) -> Option<Job> {
        match &*self.inner {
            Inner::Sequential(_) => None,
            Inner::Pool(p) => p.shared.pop_external(),
        }
    }

    /// Block (helping) until every task of `state` has finished.
    fn join_scope(&self, state: &Arc<ScopeState>) {
        loop {
            if state.lock.lock().pending == 0 {
                return;
            }
            if let Some(job) = self.try_pop_job() {
                run_job(job);
                continue;
            }
            let mut g = state.lock.lock();
            if g.pending == 0 {
                return;
            }
            // Short timeout: a task spawned from a worker thread may
            // enqueue follow-up work onto its own deque without a
            // wakeup reaching us; re-polling bounds that race.
            state.done.wait_for(&mut g, Duration::from_millis(1));
        }
    }
}

/// Run one job, containing any panic: the scope wrapper inside the job
/// has already captured the payload for re-throw at the join point,
/// so the worker (or helping joiner) must survive the unwind.
fn run_job(job: Job) {
    let _ = panic::catch_unwind(AssertUnwindSafe(job));
}

// --------------------------------------------------------------- Scope

/// Spawning handle passed to the closure of [`Executor::scope`].
///
/// `'env` is the lifetime of borrows the spawned tasks may capture;
/// it is invariant (same trick as `std::thread::scope`) so tasks can
/// borrow both shared and mutable state safely.
pub struct Scope<'env, 'scope> {
    exec: &'scope Executor,
    state: &'scope Arc<ScopeState>,
    _env: PhantomData<&'env mut &'env ()>,
}

struct ScopeState {
    lock: Mutex<ScopeInner>,
    done: Condvar,
}

struct ScopeInner {
    pending: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            lock: Mutex::new(ScopeInner {
                pending: 0,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    /// Record a finished task, capturing the first panic payload.
    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut g = self.lock.lock();
        if let Some(p) = panic {
            if g.panic.is_none() {
                g.panic = Some(p);
            }
        }
        g.pending -= 1;
        if g.pending == 0 {
            self.done.notify_all();
        }
    }
}

impl<'env> Scope<'env, '_> {
    /// Spawn a task that may borrow from the enclosing scope.
    ///
    /// On a pool the task runs on whichever worker gets to it first;
    /// on the sequential executor it runs inline, immediately, in
    /// spawn order. A panicking task does not abort its siblings —
    /// the payload is re-thrown when the scope joins.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        match &*self.exec.inner {
            Inner::Sequential(counters) => {
                counters.inline_runs.fetch_add(1, Ordering::Relaxed);
                // Inline, but with pool-identical panic semantics:
                // capture the payload, keep running later spawns.
                if let Err(p) = panic::catch_unwind(AssertUnwindSafe(f)) {
                    let mut g = self.state.lock.lock();
                    if g.panic.is_none() {
                        g.panic = Some(p);
                    }
                }
            }
            Inner::Pool(pool) => {
                pool.shared.counters.spawned.fetch_add(1, Ordering::Relaxed);
                self.state.lock.lock().pending += 1;
                let state = Arc::clone(self.state);
                let task = move || {
                    let result = panic::catch_unwind(AssertUnwindSafe(f));
                    state.complete(result.err());
                };
                let job: Box<dyn FnOnce() + Send + 'env> = Box::new(task);
                // SAFETY: the scope joins every spawned task before it
                // returns (even when the scope closure panics), so the
                // job cannot outlive 'env despite the erased lifetime.
                let job: Job = unsafe {
                    std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job)
                };
                pool.shared.push(job);
            }
        }
    }
}

// ---------------------------------------------------------------- Pool

struct Pool {
    shared: Arc<Shared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

struct Shared {
    /// Queue for tasks submitted from outside the pool.
    injector: Mutex<VecDeque<Job>>,
    /// Per-worker deques: owner pushes/pops the back, thieves steal
    /// the front.
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Parks idle workers; paired with the `injector` mutex.
    idle: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
}

impl Shared {
    /// Pool identity for the worker-thread thread-local.
    fn id(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    /// Enqueue a job: onto the current worker's own deque when called
    /// from inside this pool, onto the injector otherwise.
    fn push(self: &Arc<Self>, job: Job) {
        let local = CURRENT_WORKER.with(|c| c.get());
        match local {
            Some((pool_id, idx)) if pool_id == self.id() => {
                self.deques[idx].lock().push_back(job);
            }
            _ => {
                self.counters.injected.fetch_add(1, Ordering::Relaxed);
                self.injector.lock().push_back(job);
            }
        }
        self.idle.notify_one();
    }

    /// Dequeue for worker `idx`: own deque back (LIFO), then injector
    /// front, then steal the front of the other deques.
    fn pop_worker(&self, idx: usize) -> Option<Job> {
        if let Some(job) = self.deques[idx].lock().pop_back() {
            return Some(job);
        }
        if let Some(job) = self.injector.lock().pop_front() {
            return Some(job);
        }
        self.steal(idx)
    }

    /// Dequeue for a non-worker (a joining thread helping): injector
    /// front, then steal.
    fn pop_external(&self) -> Option<Job> {
        if let Some(job) = self.injector.lock().pop_front() {
            return Some(job);
        }
        self.steal(usize::MAX)
    }

    fn steal(&self, not: usize) -> Option<Job> {
        for (i, deque) in self.deques.iter().enumerate() {
            if i == not {
                continue;
            }
            if let Some(mut g) = deque.try_lock() {
                if let Some(job) = g.pop_front() {
                    self.counters.stolen.fetch_add(1, Ordering::Relaxed);
                    return Some(job);
                }
            }
        }
        None
    }

    fn worker_loop(self: Arc<Self>, idx: usize) {
        CURRENT_WORKER.with(|c| c.set(Some((self.id(), idx))));
        loop {
            if let Some(job) = self.pop_worker(idx) {
                run_job(job);
                continue;
            }
            let mut g = self.injector.lock();
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            if !g.is_empty() {
                continue;
            }
            // Timed park: pushes onto sibling deques race with this
            // check (they notify before we sleep), so cap the nap and
            // re-scan rather than risk sleeping through work.
            self.counters.parked.fetch_add(1, Ordering::Relaxed);
            self.idle.wait_for(&mut g, Duration::from_millis(2));
        }
    }
}

impl Pool {
    fn start(parallelism: usize) -> Pool {
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..parallelism)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            idle: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
        });
        let threads = (0..parallelism)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rai-exec-{i}"))
                    .spawn(move || shared.worker_loop(i))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            threads: Mutex::new(threads),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.idle.notify_all();
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

// ------------------------------------------------------------- helpers

/// Write-once result slots for [`Executor::par_map`]: each task fills
/// exactly one index, so concurrent writes never alias.
struct SlotVec<U> {
    slots: Vec<UnsafeCell<Option<U>>>,
}

// SAFETY: distinct tasks write distinct indices exactly once and the
// vector is only read after the scope joined every writer.
unsafe impl<U: Send> Sync for SlotVec<U> {}

impl<U> SlotVec<U> {
    fn new(n: usize) -> Self {
        SlotVec {
            slots: (0..n).map(|_| UnsafeCell::new(None)).collect(),
        }
    }

    fn set(&self, i: usize, value: U) {
        // SAFETY: index `i` is owned by a single task (see par_map);
        // no other thread reads or writes this slot until the join.
        unsafe { *self.slots[i].get() = Some(value) }
    }

    fn into_vec(self) -> Vec<U> {
        self.slots
            .into_iter()
            .map(|c| c.into_inner().expect("par_map slot filled"))
            .collect()
    }
}

/// Split `0..len` into at most `max_batches` contiguous ranges of
/// near-equal length (longer ranges first), for callers that batch
/// many tiny items into one task each — e.g. digesting 32-byte chunks,
/// where a task per chunk would cost more than the hash.
pub fn batch_ranges(len: usize, max_batches: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let batches = max_batches.max(1).min(len);
    let base = len / batches;
    let extra = len % batches;
    let mut out = Vec::with_capacity(batches);
    let mut start = 0;
    for i in 0..batches {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn sequential_runs_inline_in_spawn_order() {
        let exec = Executor::sequential();
        let order = Mutex::new(Vec::new());
        exec.scope(|s| {
            for i in 0..8 {
                let order = &order;
                s.spawn(move || order.lock().push(i));
            }
        });
        assert_eq!(*order.lock(), (0..8).collect::<Vec<_>>());
        assert_eq!(exec.parallelism(), 1);
        assert!(exec.is_sequential());
    }

    #[test]
    fn par_map_returns_input_order() {
        let exec = Executor::new(4);
        // Later items sleep less, so completion order inverts input
        // order — results must come back in input order anyway.
        let items: Vec<usize> = (0..32).collect();
        let out = exec.par_map(items, |i| {
            std::thread::sleep(Duration::from_micros(((32 - i) * 50) as u64));
            i * 2
        });
        assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_sequential_map() {
        let exec = Executor::new(8);
        let seq = Executor::sequential();
        let items: Vec<u64> = (0..1000).collect();
        let f = |x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 3);
        assert_eq!(exec.par_map(items.clone(), f), seq.par_map(items, f));
    }

    #[test]
    fn zero_task_scope_returns_closure_value() {
        for exec in [Executor::sequential(), Executor::new(2)] {
            let value = exec.scope(|_| 42);
            assert_eq!(value, 42);
        }
    }

    #[test]
    fn empty_par_map_yields_empty_vec() {
        let exec = Executor::new(2);
        let out: Vec<u32> = exec.par_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn scope_panic_propagates() {
        for exec in [Executor::sequential(), Executor::new(2)] {
            let ran_after = AtomicUsize::new(0);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                exec.scope(|s| {
                    s.spawn(|| panic!("task boom"));
                    s.spawn(|| {
                        ran_after.fetch_add(1, Ordering::SeqCst);
                    });
                });
            }));
            assert!(caught.is_err(), "task panic must reach the scope caller");
            // A panicking task must not abort its siblings.
            assert_eq!(ran_after.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn par_map_panic_propagates() {
        let exec = Executor::new(4);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            exec.par_map((0..16).collect::<Vec<i32>>(), |i| {
                if i == 7 {
                    panic!("item boom");
                }
                i
            })
        }));
        assert!(caught.is_err());
        // The pool survives a panicking map and keeps working.
        assert_eq!(exec.par_map(vec![1, 2, 3], |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn closure_panic_beats_task_panic() {
        let exec = Executor::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            exec.scope(|s| {
                s.spawn(|| panic!("task"));
                panic!("closure");
            })
        }));
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "closure");
    }

    #[test]
    fn nested_scopes_complete() {
        // A 2-worker pool with tasks that themselves fan out: the
        // joining tasks must help run queued work or this deadlocks.
        let exec = Executor::new(2);
        let total = AtomicUsize::new(0);
        exec.scope(|s| {
            for _ in 0..4 {
                let exec = &exec;
                let total = &total;
                s.spawn(move || {
                    let inner: usize = exec.par_map((0..8).collect(), |x: usize| x).iter().sum();
                    total.fetch_add(inner, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 4 * 28);
    }

    #[test]
    fn nested_par_map_is_ordered_too() {
        let exec = Executor::new(3);
        let out = exec.par_map((0..6).collect::<Vec<usize>>(), |i| {
            exec.par_map((0..5).collect::<Vec<usize>>(), move |j| i * 10 + j)
        });
        for (i, row) in out.iter().enumerate() {
            assert_eq!(row, &(0..5).map(|j| i * 10 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn borrowed_mutation_through_scope() {
        let exec = Executor::new(2);
        let mut counters = vec![0u64; 4];
        exec.scope(|s| {
            for (i, c) in counters.iter_mut().enumerate() {
                s.spawn(move || *c = i as u64 + 1);
            }
        });
        assert_eq!(counters, vec![1, 2, 3, 4]);
    }

    #[test]
    fn parallelism_accessor() {
        assert_eq!(Executor::new(0).parallelism(), 1);
        assert_eq!(Executor::new(1).parallelism(), 1);
        assert_eq!(Executor::new(4).parallelism(), 4);
        assert!(!Executor::new(4).is_sequential());
    }

    #[test]
    fn run_jobs_commits_in_claim_order_despite_pool_interleaving() {
        // Earlier claims sleep longer, so pool completion order is the
        // *reverse* of claim order — commits must come back in claim
        // order anyway, and they must all run on the calling thread.
        let exec = Executor::new(4);
        let caller = std::thread::current().id();
        let mut commit_order = Vec::new();
        let out = exec.run_jobs(
            (0..16usize).collect(),
            |i| {
                std::thread::sleep(Duration::from_micros(((16 - i) * 200) as u64));
                i
            },
            |i| {
                assert_eq!(std::thread::current().id(), caller);
                commit_order.push(i);
                i * 2
            },
        );
        assert_eq!(commit_order, (0..16).collect::<Vec<_>>());
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_jobs_matches_sequential_at_any_width() {
        let f = |x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 7);
        let reference = {
            let mut committed = Vec::new();
            Executor::sequential().run_jobs(
                (0..64).collect::<Vec<u64>>(),
                f,
                |y| committed.push(y),
            );
            committed
        };
        for width in [2, 8] {
            let mut committed = Vec::new();
            Executor::new(width).run_jobs(
                (0..64).collect::<Vec<u64>>(),
                f,
                |y| committed.push(y),
            );
            assert_eq!(committed, reference, "commit drift at width {width}");
        }
    }

    #[test]
    fn run_jobs_execute_panic_reaches_caller_before_commits() {
        let exec = Executor::new(2);
        let committed = AtomicUsize::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            exec.run_jobs(
                vec![0, 1, 2],
                |i| {
                    if i == 1 {
                        panic!("execute boom");
                    }
                    i
                },
                |i: i32| {
                    committed.fetch_add(1, Ordering::SeqCst);
                    i
                },
            )
        }));
        assert!(caught.is_err(), "execute panic must reach the batch caller");
        assert_eq!(committed.load(Ordering::SeqCst), 0, "no commit after a poisoned batch");
    }

    #[test]
    fn run_jobs_counts_batches() {
        let exec = Executor::new(2);
        exec.run_jobs(vec![1, 2, 3], |x: u32| x, |x| x);
        exec.run_jobs(Vec::<u32>::new(), |x| x, |x| x);
        let s = exec.stats();
        assert_eq!(s.batches, 2);
        assert_eq!(s.batch_jobs, 3);
    }

    #[test]
    fn batch_ranges_cover_everything_once() {
        for (len, batches) in [(0, 4), (3, 8), (10, 3), (100, 7), (5, 1), (7, 0)] {
            let ranges = batch_ranges(len, batches);
            let mut covered = Vec::new();
            for r in &ranges {
                covered.extend(r.clone());
            }
            assert_eq!(covered, (0..len).collect::<Vec<_>>(), "len={len} batches={batches}");
            if len > 0 {
                assert!(ranges.len() <= batches.max(1));
                let max = ranges.iter().map(|r| r.len()).max().unwrap();
                let min = ranges.iter().map(|r| r.len()).min().unwrap();
                assert!(max - min <= 1, "uneven split: {ranges:?}");
            }
        }
    }

    #[test]
    fn stats_count_spawns_and_inline_runs() {
        let seq = Executor::sequential();
        seq.scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {});
            }
        });
        let _ = seq.par_map(vec![1, 2], |x| x);
        let s = seq.stats();
        assert_eq!(s.inline_runs, 5);
        assert_eq!(s.spawned, 0);
        assert_eq!(s.stolen, 0);

        let pool = Executor::new(2);
        let _ = pool.par_map((0..64u64).collect::<Vec<_>>(), |x| x + 1);
        let s = pool.stats();
        assert_eq!(s.spawned, 64);
        // Spawns came from the (off-pool) caller thread.
        assert_eq!(s.injected, 64);
        assert_eq!(s.inline_runs, 0);
        // Steal/park counts are scheduling-dependent; clones share them.
        assert_eq!(pool.clone().stats().spawned, 64);
    }

    #[test]
    fn drop_joins_workers() {
        let exec = Executor::new(4);
        let sum: u64 = exec.par_map((0..100u64).collect(), |x| x).iter().sum();
        assert_eq!(sum, 4950);
        drop(exec); // must not hang or leak threads
    }
}
