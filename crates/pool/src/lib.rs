//! `qsync-pool` — the compute pool under the low-precision kernels.
//!
//! The gemm/quant kernels in `qsync-lp-kernels` and the elementwise ops and
//! reductions in `qsync-tensor` split their work with [`for_each_chunk_mut`]
//! and [`map_chunks`]. Both bottom out in [`run_chunks`], one flat
//! fork-join: the caller publishes a batch of index-ordered chunks, then it
//! and the pool's workers claim chunk indices from one shared counter until
//! none are left. Three properties matter more than raw speed:
//!
//! 1. **Deterministic reductions.** The chunk layout is a function of the
//!    input length only — never of the thread count — via [`chunk_plan`].
//!    Callers combine per-chunk partial results in chunk order, so every
//!    reduction (sums, maxima, concatenations) is byte-identical at every
//!    pool size, including 1. Which thread runs a chunk is arbitrary; which
//!    chunks exist and how partials combine is not.
//! 2. **One batch per pool at a time.** A batch started while its pool is
//!    already running one — on another thread, or from inside one of that
//!    batch's chunks — runs its chunks inline on its caller, in index order.
//!    No kernel nests a fan-out, so nothing is lost, and nothing can wait on
//!    itself.
//! 3. **Inline when there is nothing to overlap.** `QSYNC_POOL_THREADS=1` (or
//!    `0`), or a one-chunk batch, runs every chunk inline on the caller, in
//!    index order, without spawning anything — byte-identical to the parallel
//!    run by property 1.
//!
//! Planning never reaches the pool: the allocator scores on the calling
//! thread, so a plan server's only plan-level parallelism is its planner
//! workers.
//!
//! Workers spawn lazily on the first parallel batch and sleep on one
//! condition variable between batches. The process-wide pool is sized by
//! `QSYNC_POOL_THREADS` (every core when unset); [`Pool::with_threads`]
//! builds an explicit one. Counters are exported as a [`PoolStats`]
//! snapshot ([`current_stats`]).

use std::any::Any;
use std::cell::RefCell;
use std::env::VarError;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Fixed chunk-count target: `chunk_plan` aims for this many chunks so a
/// batch outnumbers any realistic worker count without shrinking chunks into
/// per-item scheduling overhead. Part of the determinism contract — never
/// derive anything here from the live thread count.
const TARGET_CHUNKS: usize = 32;

/// The chunk floor for elementwise work (one item = one element): inputs of
/// up to this many elements stay one chunk, on the calling thread. Block work
/// (one item = a whole row tile) uses a floor of 1.
pub const ELEMENT_MIN_LEN: usize = 1024;

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
// Chunked helpers
// ---------------------------------------------------------------------------

/// Run `f(first, chunk)` over `data` viewed as consecutive `block`-element
/// blocks (the last may be short), split by [`chunk_plan`] over the block
/// count with floor `min_blocks`. Every chunk holds whole blocks; `first` is
/// the global index of its first block. Elementwise callers pass `block = 1`
/// and [`ELEMENT_MIN_LEN`], so `first` is the chunk's element offset.
///
/// # Panics
/// If `block` is 0, or (after every chunk has run) if `f` panicked.
pub fn for_each_chunk_mut<T: Send>(
    data: &mut [T],
    block: usize,
    min_blocks: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(block > 0, "for_each_chunk_mut: block size must be non-zero");
    let (chunk, _) = chunk_plan(data.len().div_ceil(block), min_blocks);
    if chunk > 0 {
        for_each_part(data, chunk * block, |i, part| f(i * chunk, part));
    }
}

/// `f(range)` for every chunk of `chunk_plan(len, min_len)`, results in
/// chunk order. Folding them left to right (`sum`, `fold`, `concat`) gives
/// the same bits at every pool size.
pub fn map_chunks<R: Send>(len: usize, min_len: usize, f: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
    let (chunk, n) = chunk_plan(len, min_len);
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for_each_part(&mut out, 1, |i, slot| slot[0] = Some(f(i * chunk..len.min((i + 1) * chunk))));
    out.into_iter().map(|r| r.expect("every chunk ran")).collect()
}

/// One pool chunk per `size`-element part of `data` (the last may be
/// short): `f(i, part)` gets part `i`.
fn for_each_part<T: Send>(data: &mut [T], size: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    let len = data.len();
    let base = SharedMut(data.as_mut_ptr());
    run_chunks(len.div_ceil(size), |i| {
        let lo = i * size;
        // SAFETY: part `i` is `[lo, min(lo + size, len))`: inside `data` and
        // disjoint from every other part. `run_chunks` runs each index once
        // and returns only after every chunk has finished, inside `data`'s
        // exclusive borrow.
        let part = unsafe { std::slice::from_raw_parts_mut(base.at(lo), size.min(len - lo)) };
        f(i, part);
    });
}

/// A `*mut T` that chunks on other threads offset into.
struct SharedMut<T>(*mut T);

// SAFETY: only disjoint sub-slices are formed from it (see `for_each_part`),
// and `T: Send` lets each one move to the thread that runs its chunk.
unsafe impl<T: Send> Sync for SharedMut<T> {}

impl<T> SharedMut<T> {
    /// The element pointer `offset` past the base. A method rather than a
    /// field read, so closures capture the `Sync` wrapper, not the raw field.
    ///
    /// # Safety
    /// `offset` must lie within the slice the base came from.
    unsafe fn at(&self, offset: usize) -> *mut T {
        self.0.add(offset)
    }
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// One parallel `run_chunks` call, on its caller's stack. The caller and the
/// workers claim chunk indices from `next` until it passes `n`.
struct Batch<'f> {
    f: &'f (dyn Fn(usize) + Sync),
    n: usize,
    next: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Batch<'_> {
    /// Claim and run chunks until none are left; returns how many ran here.
    /// The first panic is kept for the caller, and the other chunks still run.
    fn work(&self) -> u64 {
        let mut ran = 0;
        loop {
            // Relaxed: the counter only hands out indices. Chunk results
            // reach the owner through the pool's state mutex.
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.n {
                return ran;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.f)(index))) {
                self.panic.lock().expect(POISONED).get_or_insert(payload);
            }
            ran += 1;
        }
    }
}

/// The published batch with its lifetime erased. A worker dereferences it
/// only while counted in `State::active`, and the owner leaves (freeing the
/// batch) only once `active` is back to 0 with the batch unpublished.
#[derive(Clone, Copy)]
struct BatchPtr(*const Batch<'static>);

// SAFETY: see above; everything a worker reaches through it is `Sync`.
unsafe impl Send for BatchPtr {}

#[derive(Default)]
struct State {
    /// A parallel batch owns the pool, from publishing until every worker
    /// has left it.
    running: bool,
    /// The batch workers may join. Unpublished once the owner's own claim
    /// loop ends.
    batch: Option<BatchPtr>,
    /// Bumped per published batch, so a worker joins each batch once.
    epoch: u64,
    /// Workers inside the current batch.
    active: usize,
    /// The spawned workers, joined when the pool drops.
    threads: Vec<JoinHandle<()>>,
    shutdown: bool,
    jobs: u64,
    steals: u64,
}

/// A point-in-time snapshot of the pool's counters, cheap to take and fully
/// decoupled from `qsync-obs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads this pool runs (0 = inline/sequential pool).
    pub workers: u64,
    /// Whether the worker threads have actually been spawned yet.
    pub spawned: bool,
    /// Chunks run in parallel batches (inline runs are not counted).
    pub jobs: u64,
    /// Of those, the chunks a worker ran rather than the caller.
    pub steals: u64,
}

struct PoolCore {
    /// Worker threads (0 = inline pool).
    workers: usize,
    state: Mutex<State>,
    /// Workers sleep here between batches.
    work: Condvar,
    /// A batch's owner waits here for its workers to leave.
    idle: Condvar,
}

/// The pool's mutexes are never held across a chunk, so only a panic in the
/// pool's own bookkeeping can poison them.
const POISONED: &str = "qsync-pool lock poisoned by a panic in the pool itself";

impl PoolCore {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(POISONED)
    }

    fn stats(&self) -> PoolStats {
        let state = self.lock();
        PoolStats {
            workers: self.workers as u64,
            spawned: !state.threads.is_empty(),
            jobs: state.jobs,
            steals: state.steals,
        }
    }

    fn run_chunks(self: &Arc<Self>, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if self.workers == 0 || n <= 1 || !self.publish(n, f) {
            (0..n).for_each(f);
        }
    }

    /// Publish a batch of `n` chunks, help run it and wait out the workers.
    /// Returns false, running nothing, if the pool already has a batch.
    fn publish(self: &Arc<Self>, n: usize, f: &(dyn Fn(usize) + Sync)) -> bool {
        let batch = Batch { f, n, next: AtomicUsize::new(0), panic: Mutex::new(None) };
        {
            let mut state = self.lock();
            if state.running {
                return false;
            }
            state.running = true;
            state.batch = Some(BatchPtr(std::ptr::from_ref(&batch).cast()));
            state.epoch += 1;
            if state.threads.is_empty() {
                state.threads = (0..self.workers)
                    .map(|worker| {
                        let core = Arc::clone(self);
                        std::thread::Builder::new()
                            .name(format!("qsync-pool-{worker}"))
                            .spawn(move || core.worker_loop())
                            .expect("spawn qsync-pool worker")
                    })
                    .collect();
            }
        }
        self.work.notify_all();
        batch.work();
        let mut state = self.lock();
        state.batch = None;
        while state.active > 0 {
            state = self.idle.wait(state).expect(POISONED);
        }
        state.running = false;
        state.jobs += n as u64;
        drop(state);
        if let Some(payload) = batch.panic.into_inner().expect(POISONED) {
            resume_unwind(payload);
        }
        true
    }

    fn worker_loop(self: Arc<Self>) {
        // A batch nested inside one of this worker's chunks resolves to this
        // pool, finds it running and goes inline.
        INSTALLED.with(|stack| stack.borrow_mut().push(Arc::clone(&self)));
        let mut seen = 0;
        let mut state = self.lock();
        while !state.shutdown {
            match state.batch {
                Some(batch) if state.epoch != seen => {
                    seen = state.epoch;
                    state.active += 1;
                    drop(state);
                    // SAFETY: the owner keeps the batch alive until `active`
                    // is back to 0.
                    let ran = unsafe { (*batch.0).work() };
                    state = self.lock();
                    state.active -= 1;
                    state.steals += ran;
                    if state.active == 0 {
                        self.idle.notify_one();
                    }
                }
                _ => state = self.work.wait(state).expect(POISONED),
            }
        }
    }
}

/// The process-wide pool's size for a `QSYNC_POOL_THREADS` lookup: every
/// core when unset; `0` and `1` both mean inline.
///
/// # Panics
/// On a value that is not a thread count, so a mistyped pin cannot silently
/// run on every core.
fn threads_from_env(var: Result<String, VarError>) -> usize {
    let value = match var {
        Err(VarError::NotPresent) => {
            return std::thread::available_parallelism().map_or(1, |n| n.get());
        }
        Err(VarError::NotUnicode(raw)) => raw.to_string_lossy().into_owned(),
        Ok(value) => value,
    };
    value.trim().parse().unwrap_or_else(|_| panic!("QSYNC_POOL_THREADS={value:?} is not a thread count"))
}

/// A fork-join thread pool. Dropping a pool stops and joins its workers.
pub struct Pool {
    core: Arc<PoolCore>,
}

impl Pool {
    /// A pool with exactly `threads` workers (0 or 1 = inline execution).
    pub fn with_threads(threads: usize) -> Pool {
        // One worker cannot overlap with anything: run inline instead and
        // keep the "sequential is just the 1-thread schedule" contract free.
        let workers = if threads <= 1 { 0 } else { threads };
        Pool {
            core: Arc::new(PoolCore {
                workers,
                state: Mutex::default(),
                work: Condvar::new(),
                idle: Condvar::new(),
            }),
        }
    }

    /// Make this pool the current pool — the one [`run_chunks`] and
    /// [`current_stats`] use — for the duration of `f` on this thread. Used
    /// by the differential suites to compare explicit pool sizes in one
    /// process.
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
        // The global pool is never dropped; test pools join their workers
        // so suites can build pools freely without leaking threads. Drop
        // must not panic, so a poisoned lock is recovered: setting
        // `shutdown` is valid whatever state the panic left behind.
        let threads = {
            let mut state = self.core.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.shutdown = true;
            std::mem::take(&mut state.threads)
        };
        self.core.work.notify_all();
        for thread in threads {
            let _ = thread.join();
        }
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
    /// Stack of `install`ed pools; the top overrides the global pool.
    static INSTALLED: RefCell<Vec<Arc<PoolCore>>> = const { RefCell::new(Vec::new()) };
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The lazily-created process-wide pool. Creating the handle is cheap;
/// threads spawn on the first parallel batch.
fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::with_threads(threads_from_env(std::env::var("QSYNC_POOL_THREADS"))))
}

/// Whether the global pool has actually spawned worker threads. The lab
/// asserts this stays `false` under the deterministic sim.
pub fn global_spawned() -> bool {
    GLOBAL.get().is_some_and(|pool| pool.stats().spawned)
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

/// Run `f(chunk_index)` for every index in `0..n_chunks` on the current pool
/// and return when all chunks have run, re-raising the first panic. Which
/// thread runs a chunk is arbitrary; chunk *identity* and the caller's
/// combination order are not, which is the whole determinism contract.
pub fn run_chunks<F: Fn(usize) + Sync>(n_chunks: usize, f: F) {
    current_core().run_chunks(n_chunks, &f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::Duration;

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

    /// Every chunk of one batch ran exactly once.
    fn assert_each_once(hits: &[AtomicU32]) {
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::SeqCst), 1, "chunk {i}");
        }
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        let pool = Pool::with_threads(4);
        let hits: Vec<AtomicU32> = (0..97).map(|_| AtomicU32::new(0)).collect();
        pool.install(|| {
            run_chunks(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            })
        });
        assert_each_once(&hits);
        let stats = pool.stats();
        assert!(stats.spawned);
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.jobs, 97);
        assert!(stats.steals <= stats.jobs);
    }

    #[test]
    fn one_thread_pool_runs_inline_without_spawning() {
        for threads in [0, 1] {
            let pool = Pool::with_threads(threads);
            let caller = std::thread::current().id();
            let ran = AtomicU32::new(0);
            pool.install(|| {
                run_chunks(16, |_| {
                    assert_eq!(std::thread::current().id(), caller);
                    ran.fetch_add(1, Ordering::SeqCst);
                })
            });
            assert_eq!(ran.load(Ordering::SeqCst), 16);
            assert_eq!(pool.stats(), PoolStats::default(), "{threads} threads");
        }
    }

    #[test]
    fn two_threads_running_batches_on_one_pool_at_once_each_see_every_chunk_once() {
        let pool = Pool::with_threads(2);
        let first: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        let second: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        let off_thread = AtomicU32::new(0);
        // Chunk 0 of the first batch holds it open from `started` until the
        // second thread's batch has run in full.
        let (started, done) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                pool.install(|| {
                    run_chunks(first.len(), |i| {
                        if i == 0 {
                            started.wait();
                            done.wait();
                        }
                        first[i].fetch_add(1, Ordering::SeqCst);
                    })
                })
            });
            s.spawn(|| {
                started.wait();
                let me = std::thread::current().id();
                pool.install(|| {
                    run_chunks(second.len(), |i| {
                        if std::thread::current().id() != me {
                            off_thread.fetch_add(1, Ordering::SeqCst);
                        }
                        second[i].fetch_add(1, Ordering::SeqCst);
                    })
                });
                done.wait();
            });
        });
        assert_each_once(&first);
        assert_each_once(&second);
        assert_eq!(off_thread.load(Ordering::SeqCst), 0, "a busy pool runs a second batch inline");
        assert_eq!(pool.stats().jobs, 64, "only the first batch ran in parallel");
    }

    #[test]
    fn run_chunks_called_from_inside_a_chunk_runs_inline() {
        let pool = Pool::with_threads(2);
        let inner_runs = AtomicU32::new(0);
        pool.install(|| {
            run_chunks(8, |_| {
                let outer = std::thread::current().id();
                let order = Mutex::new(Vec::new());
                run_chunks(8, |j| {
                    assert_eq!(std::thread::current().id(), outer, "nested chunk left its thread");
                    order.lock().unwrap().push(j);
                    inner_runs.fetch_add(1, Ordering::SeqCst);
                });
                assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
            })
        });
        assert_eq!(inner_runs.load(Ordering::SeqCst), 64);
        assert_eq!(pool.stats().jobs, 8, "only the outer batch ran in parallel");
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = Pool::with_threads(2);
        let ran = AtomicU32::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                run_chunks(8, |i| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i == 5 {
                        panic!("chunk 5 exploded");
                    }
                })
            })
        }));
        let payload = result.expect_err("panic must cross the scope");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(message, "chunk 5 exploded");
        assert_eq!(ran.load(Ordering::SeqCst), 8, "the other chunks still ran");
        // The pool survives a panicked batch.
        let ran = AtomicU32::new(0);
        pool.install(|| {
            run_chunks(4, |_| {
                ran.fetch_add(1, Ordering::SeqCst);
            })
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
                map_chunks(data.len(), 1, |range| data[range].iter().sum::<f32>())
                    .into_iter()
                    .fold(0.0, |a, b| a + b)
            })
        };
        let baseline = reduce_on(&Pool::with_threads(1));
        for threads in [2, 4, 8] {
            let got = reduce_on(&Pool::with_threads(threads));
            assert_eq!(baseline.to_bits(), got.to_bits(), "threads {threads}");
        }
    }

    #[test]
    fn for_each_chunk_mut_hands_out_whole_blocks_with_their_global_index() {
        for threads in [1, 2, 4] {
            // 10 elements in blocks of 3: the last block is short.
            let mut xs = vec![u32::MAX; 10];
            Pool::with_threads(threads).install(|| {
                for_each_chunk_mut(&mut xs, 3, 1, |first, blocks| {
                    for (bi, block) in (first..).zip(blocks.chunks_mut(3)) {
                        block.fill(bi as u32);
                    }
                })
            });
            assert_eq!(xs, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3], "{threads} threads");
            // Elementwise: every element updated exactly once, at its offset.
            let mut ys: Vec<usize> = vec![0; 50_000];
            Pool::with_threads(threads).install(|| {
                for_each_chunk_mut(&mut ys, 1, ELEMENT_MIN_LEN, |start, chunk| {
                    for (i, y) in (start..).zip(chunk) {
                        *y += i;
                    }
                })
            });
            assert!(ys.iter().enumerate().all(|(i, &y)| y == i), "{threads} threads");
        }
    }

    #[test]
    fn map_chunks_returns_one_result_per_chunk_in_chunk_order() {
        let pool = Pool::with_threads(4);
        let ranges = pool.install(|| map_chunks(100_000, ELEMENT_MIN_LEN, |range| range));
        let (chunk, n) = chunk_plan(100_000, ELEMENT_MIN_LEN);
        let expected: Vec<Range<usize>> = (0..n).map(|i| i * chunk..100_000.min((i + 1) * chunk)).collect();
        assert_eq!(ranges, expected);
        assert!(pool.install(|| map_chunks(0, 1, |range| range)).is_empty());
    }

    #[test]
    fn pool_size_comes_from_the_variable_and_rejects_garbage() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(threads_from_env(Err(VarError::NotPresent)), cores);
        assert_eq!(threads_from_env(Ok("0".into())), 0);
        assert_eq!(threads_from_env(Ok("1".into())), 1);
        assert_eq!(threads_from_env(Ok(" 6 ".into())), 6);
        for garbage in ["abc", "2x", "", "-1"] {
            let payload = catch_unwind(|| threads_from_env(Ok(garbage.into())))
                .expect_err(&format!("{garbage:?} must be rejected"));
            let message = payload.downcast_ref::<String>().expect("formatted panic message");
            assert!(
                message.contains("QSYNC_POOL_THREADS") && message.contains(&format!("{garbage:?}")),
                "{message}"
            );
        }
    }

    /// Overwrite the stack region a just-returned batch occupied with
    /// non-zero garbage, as any ordinary caller's next frames would.
    #[inline(never)]
    fn churn_stack(seed: u64) -> u64 {
        let mut frame = [0u64; 96];
        for (i, slot) in frame.iter_mut().enumerate() {
            *slot = std::hint::black_box(seed | 0xA5A5_0000_0000_0001).wrapping_mul(i as u64 + 1);
        }
        std::hint::black_box(&frame).iter().fold(0, |acc, &v| acc ^ v)
    }

    /// Every worker of `pool` still takes chunks: a worker that touched a
    /// dead batch blocks on (or panics over) whatever the owner's stack holds
    /// by then, and silently leaves the pool.
    fn assert_workers_alive(pool: &Pool, threads: usize) {
        let caller = std::thread::current().id();
        let workers: Mutex<std::collections::HashSet<ThreadId>> = Mutex::default();
        for _ in 0..50 {
            pool.install(|| {
                run_chunks(4 * threads, |_| {
                    let id = std::thread::current().id();
                    if id != caller {
                        workers.lock().unwrap().insert(id);
                    }
                    std::thread::sleep(Duration::from_micros(500));
                })
            });
            if workers.lock().unwrap().len() == threads {
                return;
            }
        }
        panic!("only {} of {threads} workers still run chunks", workers.lock().unwrap().len());
    }

    #[test]
    fn tiny_scopes_never_outlive_their_stack_batch() {
        // The batch lives on its owner's stack: the owner may only return
        // once no worker can still reach it. Two-chunk batches maximise the
        // odds that a worker joins late, right as the owner finishes; the
        // frame is reused at once.
        const SCOPES: u32 = 100_000;
        for threads in [2, 4] {
            let pool = Pool::with_threads(threads);
            let total = AtomicU32::new(0);
            let mut churn = 0;
            pool.install(|| {
                for i in 0..SCOPES {
                    run_chunks(2, |_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                    churn ^= churn_stack(u64::from(i));
                }
            });
            std::hint::black_box(churn);
            assert_eq!(total.load(Ordering::SeqCst), 2 * SCOPES, "threads {threads}");
            assert_workers_alive(&pool, threads);
        }
    }
}
