//! `qsync-pool` — the workspace's work-stealing compute pool.
//!
//! Every `par_iter()` in the workspace (via the `vendor/rayon` facade — the
//! gemm/quant kernels and tensor reductions) bottoms out in [`run_chunks`]: a
//! caller splits its work into **index-ordered chunks** and the pool executes
//! the chunks on however many threads it has. Three properties matter more
//! than raw speed:
//!
//! 1. **Deterministic reductions.** The chunk layout is a function of the
//!    input length only — never of the thread count — via [`chunk_plan`].
//!    Callers combine per-chunk partial results in chunk order, so every
//!    reduction (sums, argmins, collects) is byte-identical at every pool
//!    size, including 1. Work *stealing* randomizes which thread runs a
//!    chunk, never which chunk exists or how partials combine.
//! 2. **No deadlock under nesting.** A thread that waits for a batch helps
//!    drain it: workers pop their own LIFO deque first (their nested batch
//!    sits on top), and external callers steal. Every queued job is executed
//!    exactly once before its batch completes, so batch state can live on the
//!    waiter's stack.
//! 3. **Inline when there is nothing to overlap.** `QSYNC_POOL_THREADS=1` (or
//!    a one-chunk batch) runs every chunk inline on the caller, in index
//!    order, without spawning anything — byte-identical to the parallel run
//!    by property 1.
//!
//! Planning never reaches the pool: the allocator scores on the calling
//! thread, so a plan server's only plan-level parallelism is its planner
//! workers.
//!
//! Architecture: per-worker LIFO deques (owner pushes/pops the back, thieves
//! steal the front) + a global FIFO injector for external submissions +
//! random-victim stealing seeded per worker. Threads spawn lazily on the
//! first parallel batch; sizing comes from `QSYNC_POOL_THREADS`, the
//! [`PoolBuilder`], or `available_parallelism`. Counters for jobs, steals,
//! injections and park/unpark transitions are exported as a [`PoolStats`]
//! snapshot ([`current_stats`]).

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Fixed chunk-count target: `chunk_plan` aims for this many chunks so a
/// batch outnumbers any realistic worker count without shrinking chunks into
/// per-item scheduling overhead. Part of the determinism contract — never
/// derive anything here from the live thread count.
const TARGET_CHUNKS: usize = 32;

/// How long a worker parks before re-polling the queues. The wakeup path
/// notifies parked workers eagerly; the timeout is only a lost-wakeup
/// backstop, not the scheduling latency.
const PARK_TIMEOUT: Duration = Duration::from_millis(10);

/// Empty help-loop iterations before a waiter naps on the batch latch
/// instead of spinning.
const HELP_SPIN_ITERS: u32 = 256;

/// The deterministic chunk layout for `len` items: `(chunk_size, n_chunks)`.
///
/// Depends on `len` and the caller's `min_len` floor **only** — never on the
/// pool size — so the same input always produces the same chunks and the
/// same partial-combination order at every thread count.
pub fn chunk_plan(len: usize, min_len: usize) -> (usize, usize) {
    if len == 0 {
        return (0, 0);
    }
    let chunk = len.div_ceil(TARGET_CHUNKS).max(min_len.max(1));
    (chunk, len.div_ceil(chunk))
}

// ---------------------------------------------------------------------------
// Jobs and batches
// ---------------------------------------------------------------------------

/// A queued unit of work: one chunk of one batch. The pointer targets the
/// [`Batch`] on the submitting thread's stack; the batch's `released` flag
/// guarantees the stack frame outlives every queued job (each job is popped
/// and executed exactly once, and the last one releases the owner only as
/// its final access to the batch).
#[derive(Clone, Copy)]
struct Job {
    batch: *const BatchHeader,
    index: usize,
}

// SAFETY: the batch pointer is only dereferenced while the submitting scope
// blocks on the completion latch, and the closure it reaches is `Sync`.
unsafe impl Send for Job {}

struct BatchHeader {
    /// Monomorphized trampoline: runs chunk `index` of the concrete batch.
    run: unsafe fn(*const BatchHeader, usize),
    n: usize,
    completed: AtomicUsize,
    done: Mutex<bool>,
    done_cond: Condvar,
    /// The one signal the owning scope leaves on. Stored by the completer of
    /// the last chunk as its **final** access to the batch — after the latch
    /// has been locked, flagged, notified and unlocked — so the owner can
    /// never pop the stack frame while a worker is still inside it.
    released: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

#[repr(C)]
struct Batch<'f> {
    header: BatchHeader,
    f: &'f (dyn Fn(usize) + Sync),
}

impl<'f> Batch<'f> {
    fn new(n: usize, f: &'f (dyn Fn(usize) + Sync)) -> Self {
        Batch {
            header: BatchHeader {
                run: Self::run_job,
                n,
                completed: AtomicUsize::new(0),
                done: Mutex::new(false),
                done_cond: Condvar::new(),
                released: AtomicBool::new(false),
                panic: Mutex::new(None),
            },
            f,
        }
    }

    /// # Safety
    /// `header` must point at the `header` field of a live `Batch`.
    unsafe fn run_job(header: *const BatchHeader, index: usize) {
        let batch = &*(header as *const Batch<'_>);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (batch.f)(index))) {
            let mut slot = batch.header.panic.lock().unwrap();
            slot.get_or_insert(payload);
        }
        batch.header.complete_one();
    }
}

impl BatchHeader {
    fn complete_one(&self) {
        if self.completed.fetch_add(1, Ordering::SeqCst) + 1 == self.n {
            // Test builds widen the window between "all chunks ran" and the
            // latch hand-off, which is where an owner leaving early bites.
            #[cfg(test)]
            std::thread::yield_now();
            *self.done.lock().unwrap() = true;
            self.done_cond.notify_all();
            // Last touch: nothing may read or write the batch after this
            // store, the owner's frame can be gone the instant it lands.
            self.released.store(true, Ordering::SeqCst);
        }
    }

    /// Whether the owner may leave its scope (and free the batch). Not
    /// `completed == n`: that turns true *before* the last completer has
    /// finished with the latch.
    fn is_done(&self) -> bool {
        self.released.load(Ordering::SeqCst)
    }

    /// Park briefly on the latch; returns whether the batch finished.
    fn nap(&self) -> bool {
        let guard = self.done.lock().unwrap();
        if *guard {
            return true;
        }
        let (guard, _) = self.done_cond.wait_timeout(guard, Duration::from_micros(200)).unwrap();
        *guard
    }

    fn rethrow(&self) {
        if let Some(payload) = self.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
    }
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

#[derive(Default)]
struct StatCounters {
    jobs: AtomicU64,
    steals: AtomicU64,
    injected: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
}

/// A point-in-time snapshot of the pool's counters, cheap to take and fully
/// decoupled from `qsync-obs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads this pool runs (0 = inline/sequential pool).
    pub workers: u64,
    /// Whether the worker threads have actually been spawned yet.
    pub spawned: bool,
    /// Chunk jobs executed (by workers *and* helping callers).
    pub jobs: u64,
    /// Jobs a worker took from another worker's deque or a caller stole back.
    pub steals: u64,
    /// Jobs that entered through the global injector.
    pub injected: u64,
    /// Times a worker parked waiting for work.
    pub parks: u64,
    /// Explicit wakeups sent to parked workers.
    pub unparks: u64,
    /// Jobs currently sitting in the injector + all deques.
    pub queue_depth: u64,
}

struct PoolCore {
    id: u64,
    threads: usize,
    injector: Mutex<VecDeque<Job>>,
    deques: Vec<Mutex<VecDeque<Job>>>,
    sleep: Mutex<()>,
    wake: Condvar,
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    spawned: AtomicBool,
    stats: StatCounters,
}

impl PoolCore {
    fn stats(&self) -> PoolStats {
        let queue_depth = self
            .injector
            .lock()
            .map(|q| q.len() as u64)
            .unwrap_or(0)
            + self
                .deques
                .iter()
                .map(|d| d.lock().map(|q| q.len() as u64).unwrap_or(0))
                .sum::<u64>();
        PoolStats {
            workers: self.threads as u64,
            spawned: self.spawned.load(Ordering::SeqCst),
            jobs: self.stats.jobs.load(Ordering::SeqCst),
            steals: self.stats.steals.load(Ordering::SeqCst),
            injected: self.stats.injected.load(Ordering::SeqCst),
            parks: self.stats.parks.load(Ordering::SeqCst),
            unparks: self.stats.unparks.load(Ordering::SeqCst),
            queue_depth,
        }
    }

    /// Wake up to `want` parked workers.
    fn wake_workers(&self, want: usize) {
        let sleeping = self.sleepers.load(Ordering::SeqCst);
        if sleeping == 0 {
            return;
        }
        let _guard = self.sleep.lock().unwrap();
        let n = sleeping.min(want).max(1) as u64;
        self.stats.unparks.fetch_add(n, Ordering::SeqCst);
        if want >= sleeping {
            self.wake.notify_all();
        } else {
            for _ in 0..want {
                self.wake.notify_one();
            }
        }
    }

    fn pop_own(&self, worker: usize) -> Option<Job> {
        self.deques[worker].lock().unwrap().pop_back()
    }

    /// Steal one job: the injector first (FIFO fairness for external
    /// batches), then the deque fronts starting from a random victim.
    fn steal(&self, rng: &mut u64, skip: Option<usize>) -> Option<Job> {
        if let Some(job) = self.injector.lock().unwrap().pop_front() {
            return Some(job);
        }
        if self.deques.is_empty() {
            return None;
        }
        let start = (xorshift(rng) as usize) % self.deques.len();
        for i in 0..self.deques.len() {
            let victim = (start + i) % self.deques.len();
            if Some(victim) == skip {
                continue;
            }
            if let Some(job) = self.deques[victim].lock().unwrap().pop_front() {
                self.stats.steals.fetch_add(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        None
    }

    /// # Safety
    /// `job.batch` must point at a live batch (guaranteed by the scope
    /// protocol: batches outlive their queued jobs).
    unsafe fn execute(&self, job: Job) {
        self.stats.jobs.fetch_add(1, Ordering::SeqCst);
        ((*job.batch).run)(job.batch, job.index);
    }

    fn worker_loop(self: &Arc<Self>, worker: usize) {
        WORKER_CONTEXT.with(|ctx| ctx.set(Some((self.id, worker))));
        INSTALLED.with(|stack| stack.borrow_mut().push(Arc::clone(self)));
        let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ ((worker as u64 + 1) << 17) ^ self.id;
        loop {
            if let Some(job) = self.pop_own(worker).or_else(|| self.steal(&mut rng, Some(worker))) {
                // SAFETY: queued jobs always outlive their batch's scope.
                unsafe { self.execute(job) };
                continue;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Park. Holding the sleep lock across the re-check and the wait
            // means a producer that pushes after the re-check must block on
            // the same lock before notifying, so the wakeup cannot be lost;
            // the timeout is a belt-and-braces backstop.
            let guard = self.sleep.lock().unwrap();
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            let has_work = !self.injector.lock().unwrap().is_empty()
                || self.deques.iter().any(|d| !d.lock().unwrap().is_empty());
            if !has_work && !self.shutdown.load(Ordering::SeqCst) {
                self.stats.parks.fetch_add(1, Ordering::SeqCst);
                let _ = self.wake.wait_timeout(guard, PARK_TIMEOUT).unwrap();
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn ensure_spawned(self: &Arc<Self>) {
        if self.threads == 0 || self.spawned.swap(true, Ordering::SeqCst) {
            return;
        }
        for worker in 0..self.threads {
            let core = Arc::clone(self);
            std::thread::Builder::new()
                .name(format!("qsync-pool-{worker}"))
                .spawn(move || core.worker_loop(worker))
                .expect("spawn qsync-pool worker");
        }
    }

    /// The scope protocol: queue one job per chunk, help drain until every
    /// chunk has run, then propagate the first panic (if any).
    fn scope_chunks(self: &Arc<Self>, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        if self.threads == 0 || n == 1 {
            for index in 0..n {
                f(index);
            }
            return;
        }
        self.ensure_spawned();
        let batch = Batch::new(n, f);
        let header = &batch.header as *const BatchHeader;
        let me = WORKER_CONTEXT.with(|ctx| ctx.get()).filter(|(id, _)| *id == self.id);
        match me {
            Some((_, worker)) => {
                // Nested scope on one of our own workers: stack the jobs on
                // its LIFO deque so it (and thieves) drain them next.
                let mut deque = self.deques[worker].lock().unwrap();
                for index in 0..n {
                    deque.push_back(Job { batch: header, index });
                }
                drop(deque);
                self.wake_workers(n - 1);
            }
            None => {
                let mut injector = self.injector.lock().unwrap();
                for index in 0..n {
                    injector.push_back(Job { batch: header, index });
                }
                drop(injector);
                self.stats.injected.fetch_add(n as u64, Ordering::SeqCst);
                self.wake_workers(n);
            }
        }
        // Help until done: own deque first (a worker's nested batch sits on
        // top), then steal. Never block without a timeout — the jobs we wait
        // on may sit in our own queues.
        let mut rng = 0xD1B5_4A32_D192_ED03u64 ^ header as u64;
        let own = me.map(|(_, worker)| worker);
        let mut idle: u32 = 0;
        while !batch.header.is_done() {
            let job = match own {
                Some(worker) => self.pop_own(worker).or_else(|| self.steal(&mut rng, None)),
                None => self.steal(&mut rng, None),
            };
            match job {
                Some(job) => {
                    // SAFETY: queued jobs always outlive their batch's scope.
                    unsafe { self.execute(job) };
                    idle = 0;
                }
                None => {
                    idle += 1;
                    if idle > HELP_SPIN_ITERS {
                        batch.header.nap();
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
        batch.header.rethrow();
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

// ---------------------------------------------------------------------------
// Public pool handle
// ---------------------------------------------------------------------------

/// Builder for a [`Pool`]. Thread count resolution order: explicit
/// [`PoolBuilder::threads`], else `QSYNC_POOL_THREADS`, else
/// `available_parallelism()`.
#[derive(Debug, Default, Clone)]
pub struct PoolBuilder {
    threads: Option<usize>,
}

impl PoolBuilder {
    /// Start building a pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pin the worker count (1 means inline/sequential: no threads spawn).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Build the pool. Workers spawn lazily on the first parallel batch.
    pub fn build(self) -> Pool {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        let threads = self.threads.unwrap_or_else(env_threads);
        // One worker cannot overlap with anything: run inline instead and
        // keep the "sequential is just the 1-thread schedule" contract free.
        let workers = if threads <= 1 { 0 } else { threads };
        Pool {
            core: Arc::new(PoolCore {
                id: NEXT_ID.fetch_add(1, Ordering::SeqCst),
                threads: workers,
                injector: Mutex::new(VecDeque::new()),
                deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
                sleep: Mutex::new(()),
                wake: Condvar::new(),
                sleepers: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                spawned: AtomicBool::new(false),
                stats: StatCounters::default(),
            }),
        }
    }
}

fn env_threads() -> usize {
    std::env::var("QSYNC_POOL_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// A work-stealing thread pool. Dropping a non-global pool shuts its workers
/// down (they exit at the next idle poll).
pub struct Pool {
    core: Arc<PoolCore>,
}

impl Pool {
    /// A pool with exactly `threads` workers (1 = inline execution).
    pub fn with_threads(threads: usize) -> Pool {
        PoolBuilder::new().threads(threads).build()
    }

    /// The effective parallelism: worker count, or 1 for an inline pool.
    pub fn threads(&self) -> usize {
        self.core.threads.max(1)
    }

    /// Run `f(chunk_index)` for every index in `0..n_chunks` and return when
    /// all chunks have executed. Chunk→thread placement is arbitrary; chunk
    /// *identity* and the caller's combination order are not, which is the
    /// whole determinism contract.
    pub fn run_chunks<F: Fn(usize) + Sync>(&self, n_chunks: usize, f: F) {
        self.core.scope_chunks(n_chunks, &f);
    }

    /// Make this pool the current pool — the one [`run_chunks`] and
    /// [`current_stats`] use — for the duration of `f` on this thread (and,
    /// transitively, on this pool's workers). Used by the differential suite
    /// to compare explicit pool sizes in one process.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        INSTALLED.with(|stack| stack.borrow_mut().push(Arc::clone(&self.core)));
        let _pop = PopOnDrop;
        f()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        self.core.stats()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // The global pool is never dropped; test pools wind their workers
        // down so suites can build pools freely without leaking threads.
        self.core.shutdown.store(true, Ordering::SeqCst);
        let _guard = self.core.sleep.lock().unwrap();
        self.core.wake.notify_all();
    }
}

struct PopOnDrop;

impl Drop for PopOnDrop {
    fn drop(&mut self) {
        INSTALLED.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

thread_local! {
    /// `(pool id, worker index)` when this thread is a pool worker.
    static WORKER_CONTEXT: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
    /// Stack of `install`ed pools; the top overrides the global pool.
    static INSTALLED: RefCell<Vec<Arc<PoolCore>>> = const { RefCell::new(Vec::new()) };
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The lazily-created process-wide pool (sized by `QSYNC_POOL_THREADS` /
/// `available_parallelism`). Creating the handle is cheap; threads spawn on
/// first use.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| PoolBuilder::new().build())
}

/// Whether the global pool has actually spawned worker threads. The lab
/// asserts this stays `false` under the deterministic sim.
pub fn global_spawned() -> bool {
    GLOBAL.get().map(|pool| pool.stats().spawned).unwrap_or(false)
}

/// Stats of the current pool (installed override or global).
pub fn current_stats() -> PoolStats {
    current_core().stats()
}

fn current_core() -> Arc<PoolCore> {
    INSTALLED
        .with(|stack| stack.borrow().last().cloned())
        .unwrap_or_else(|| Arc::clone(&global().core))
}

/// Run `f(chunk_index)` for `0..n_chunks` on the current pool. This is the
/// single entry point the `rayon` facade builds on.
pub fn run_chunks<F: Fn(usize) + Sync>(n_chunks: usize, f: F) {
    current_core().scope_chunks(n_chunks, &f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn chunk_plan_depends_on_length_only() {
        assert_eq!(chunk_plan(0, 1), (0, 0));
        assert_eq!(chunk_plan(1, 1), (1, 1));
        let (chunk, n) = chunk_plan(1000, 1);
        assert_eq!(chunk, 32);
        assert_eq!(n, 32);
        // The min_len floor wins over the target chunk count.
        let (chunk, n) = chunk_plan(1000, 256);
        assert_eq!(chunk, 256);
        assert_eq!(n, 4);
        // Every item is covered exactly once.
        for len in [1usize, 7, 31, 32, 33, 1000, 4096] {
            let (chunk, n) = chunk_plan(len, 1);
            assert!(chunk * (n - 1) < len && len <= chunk * n, "len {len}");
        }
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        let pool = Pool::with_threads(4);
        let hits: Vec<AtomicU32> = (0..97).map(|_| AtomicU32::new(0)).collect();
        pool.run_chunks(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::SeqCst), 1, "chunk {i}");
        }
        let stats = pool.stats();
        assert!(stats.spawned);
        assert_eq!(stats.workers, 4);
        assert!(stats.jobs >= 97);
    }

    #[test]
    fn one_thread_pool_runs_inline_without_spawning() {
        let pool = Pool::with_threads(1);
        let caller = std::thread::current().id();
        let ran = AtomicU32::new(0);
        pool.run_chunks(16, |_| {
            assert_eq!(std::thread::current().id(), caller);
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 16);
        assert!(!pool.stats().spawned);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn nested_scopes_complete_without_deadlock() {
        let pool = Pool::with_threads(2);
        let total = AtomicU32::new(0);
        pool.install(|| {
            run_chunks(8, |_| {
                run_chunks(8, |_| {
                    total.fetch_add(1, Ordering::SeqCst);
                });
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = Pool::with_threads(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_chunks(8, |i| {
                if i == 5 {
                    panic!("chunk 5 exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must cross the scope");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(message, "chunk 5 exploded");
        // The pool survives a panicked batch.
        let ran = AtomicU32::new(0);
        pool.run_chunks(4, |_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn install_overrides_the_global_pool() {
        let pool = Pool::with_threads(3);
        assert_eq!(pool.install(current_stats).workers, 3);
    }

    #[test]
    fn deterministic_chunked_reduction_across_pool_sizes() {
        // The contract the whole workspace leans on: a chunked sum combined
        // in chunk order is byte-identical at every pool size.
        let data: Vec<f32> = (0..10_000).map(|i| (i as f32).sin() * 1e-3).collect();
        let reduce_on = |pool: &Pool| -> f32 {
            pool.install(|| {
                let (chunk, n) = chunk_plan(data.len(), 1);
                let partials: Vec<Mutex<f32>> = (0..n).map(|_| Mutex::new(0.0)).collect();
                run_chunks(n, |i| {
                    let lo = i * chunk;
                    let hi = (lo + chunk).min(data.len());
                    *partials[i].lock().unwrap() = data[lo..hi].iter().sum();
                });
                partials.iter().map(|p| *p.lock().unwrap()).fold(0.0, |a, b| a + b)
            })
        };
        let baseline = reduce_on(&Pool::with_threads(1));
        for threads in [2, 4, 8] {
            let got = reduce_on(&Pool::with_threads(threads));
            assert_eq!(baseline.to_bits(), got.to_bits(), "threads {threads}");
        }
    }

    #[test]
    fn steals_are_counted_under_an_injected_flood() {
        let pool = Pool::with_threads(4);
        for _ in 0..8 {
            pool.run_chunks(64, |_| {
                std::hint::black_box(fibonacci(12));
            });
        }
        let stats = pool.stats();
        assert!(stats.jobs >= 512);
        assert!(stats.injected >= 512, "external scopes go through the injector");
        assert_eq!(stats.queue_depth, 0, "scopes drain their queues before returning");
    }

    /// Overwrite the stack region a just-returned scope occupied with
    /// non-zero garbage, as any ordinary caller's next frames would.
    #[inline(never)]
    fn churn_stack(seed: u64) -> u64 {
        let mut frame = [0u64; 96];
        for (i, slot) in frame.iter_mut().enumerate() {
            *slot = std::hint::black_box(seed | 0xA5A5_0000_0000_0001).wrapping_mul(i as u64 + 1);
        }
        std::hint::black_box(&frame).iter().fold(0, |acc, &v| acc ^ v)
    }

    /// Every worker of `pool` still takes jobs: a worker that touched a dead
    /// batch blocks on (or panics over) whatever the owner's stack holds by
    /// then, and silently leaves the pool.
    fn assert_workers_alive(pool: &Pool, threads: usize) {
        let caller = std::thread::current().id();
        let workers = Mutex::new(std::collections::HashSet::new());
        for _ in 0..50 {
            pool.run_chunks(4 * threads, |_| {
                let id = std::thread::current().id();
                if id != caller {
                    workers.lock().unwrap().insert(id);
                }
                std::thread::sleep(Duration::from_micros(500));
            });
            if workers.lock().unwrap().len() == threads {
                return;
            }
        }
        panic!("only {} of {threads} workers still run jobs", workers.lock().unwrap().len());
    }

    #[test]
    fn tiny_scopes_never_outlive_their_stack_batch() {
        // Regression: the owner used to leave on `completed == n` while the
        // last completer was still locking/notifying the latch inside the
        // owner's (by then popped and reused) stack frame. Two-chunk scopes
        // maximise the odds that a worker finishes last, right as the owner
        // polls; the frame is reused at once.
        const SCOPES: u32 = 100_000;
        for threads in [2, 4] {
            let pool = Pool::with_threads(threads);
            let total = AtomicU32::new(0);
            let mut churn = 0;
            for i in 0..SCOPES {
                pool.run_chunks(2, |_| {
                    total.fetch_add(1, Ordering::Relaxed);
                });
                churn ^= churn_stack(u64::from(i));
            }
            std::hint::black_box(churn);
            assert_eq!(total.load(Ordering::SeqCst), 2 * SCOPES, "threads {threads}");
            assert_workers_alive(&pool, threads);
        }
        // Nested: inner scopes live on worker stacks as well as the caller's.
        let pool = Pool::with_threads(4);
        let total = AtomicU32::new(0);
        pool.install(|| {
            for i in 0..10_000u64 {
                run_chunks(2, |_| {
                    run_chunks(2, |_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                    std::hint::black_box(churn_stack(i));
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 40_000);
        assert_workers_alive(&pool, 4);
    }

    fn fibonacci(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            fibonacci(n - 1) + fibonacci(n - 2)
        }
    }
}
