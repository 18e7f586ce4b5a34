//! Kernel parallelism over one persistent, process-wide thread pool.
//!
//! The workspace runs on small CPU boxes; a work-stealing scheduler is
//! not warranted. [`parallel_chunks_mut`] splits a mutable slice into
//! chunks that a few threads pull from a shared iterator, and
//! [`parallel_ranges`] splits an index range into one range per thread.
//! That keeps GEMM, convolution and Monte-Carlo evaluation busy on all
//! cores.
//!
//! # The pool
//!
//! A fan-out runs on the calling thread and on the helpers of one pool:
//! `num_threads() − 1` long-lived threads, started by the first fan-out
//! and kept for the life of the process. The job is cut into one share
//! per thread. The caller runs the first share itself, then every share
//! no helper has claimed yet, so a fan-out never waits for a parked
//! helper to wake; it waits only for shares a helper already runs. A
//! call costs a lock and a condvar notify instead of one thread spawn
//! per worker, allocates nothing, and finds every thread's kernel
//! scratch warm from the calls before it.
//!
//! - Jobs never queue: a thread that fans out while another caller owns
//!   the pool runs its whole job inline, so two callers cannot deadlock.
//! - A panic in any share is re-raised on the caller once every share
//!   has finished. Helpers catch it and keep serving.
//!
//! # One level deep
//!
//! Pool helpers and [`spawn_worker`] threads are *workers*, and so is a
//! caller while it runs shares of its own fan-out: any nested
//! [`parallel_chunks_mut`] / [`parallel_ranges`] call made there runs
//! inline. The outermost fan-out (one Monte-Carlo deployment per share,
//! or one serving batch per long-lived [`spawn_worker`] thread) already
//! occupies every core, so fanning its kernels out again would only
//! oversubscribe the machine. Only threads that are not workers (the
//! main thread of a training run, say) fan out.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, Once, PoisonError};

thread_local! {
    /// Set on pool helpers, on [`spawn_worker`] threads, and on a caller
    /// while it runs shares of its fan-out; nested calls run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Worker count for a call with `items` units of work: capped by
/// [`num_threads()`], and 1 on a worker thread.
fn workers_for(items: usize) -> usize {
    if IN_WORKER.with(Cell::get) {
        1
    } else {
        num_threads().min(items)
    }
}

/// Returns the number of worker threads to use.
///
/// Defaults to `std::thread::available_parallelism()`, overridable with the
/// `CN_THREADS` environment variable (useful to force determinism-friendly
/// single-threaded runs in tests).
pub fn num_threads() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("CN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// Processes disjoint chunks of `data` in parallel.
///
/// `data` is split into contiguous chunks of at most `chunk_len` elements;
/// `f(chunk_index, chunk)` is invoked for each. At most [`num_threads()`]
/// threads (the caller and pool helpers) take part, each pulling the next
/// unclaimed chunk from a shared iterator, so callers with many small
/// chunks never fan out beyond the worker cap. When only one thread is
/// available, there is a single chunk, or the caller is itself a worker
/// of this module, everything runs inline.
///
/// # Panics
///
/// Panics if `chunk_len` is zero, and re-raises a panic of `f` once every
/// thread has finished with `data`.
pub fn parallel_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let workers = workers_for(data.len().div_ceil(chunk_len));
    if workers <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let chunks = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    fan_out(workers, &|_| loop {
        // Claim the next chunk under the lock, release it before running
        // `f` so threads overlap on the work. No code that can panic runs
        // under the lock, so a poisoned one still holds a valid iterator.
        let next = chunks.lock().unwrap_or_else(PoisonError::into_inner).next();
        match next {
            Some((i, chunk)) => f(i, chunk),
            None => break,
        }
    });
}

/// Runs `f(start, end)` over `[0, n)` split into roughly equal ranges, one
/// per worker thread. Use when the work does not borrow a single mutable
/// slice (e.g. producing independent results gathered via channels).
/// Like [`parallel_chunks_mut`], it runs inline inside a worker.
pub fn parallel_ranges(n: usize, f: impl Fn(usize, usize) + Sync) {
    let workers = workers_for(n.max(1));
    if workers <= 1 || n == 0 {
        f(0, n);
        return;
    }
    let per = n.div_ceil(workers);
    fan_out(workers, &|w| {
        let (start, end) = (w * per, ((w + 1) * per).min(n));
        if start < end {
            f(start, end);
        }
    });
}

/// Spawns a long-lived named thread that runs kernels, such as a
/// serving worker, marked as a worker of this module: every
/// [`parallel_chunks_mut`] / [`parallel_ranges`] call it makes runs
/// inline. A pool of such threads is itself the outer fan-out, so size
/// the pool to the cores it should occupy.
///
/// # Errors
///
/// Fails when the OS cannot create the thread.
pub fn spawn_worker<T, F>(name: String, f: F) -> std::io::Result<std::thread::JoinHandle<T>>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::Builder::new().name(name).spawn(move || {
        IN_WORKER.with(|w| w.set(true));
        f()
    })
}

/// One fan-out: `share(i)` runs share `i` of the job.
type Share<'a> = dyn Fn(usize) + Sync + 'a;

/// A posted job, its borrow erased so the static pool can hold it.
#[derive(Clone, Copy)]
struct Job(*const Share<'static>);

// SAFETY: the pointee is `Sync`, so helpers may call it through a shared
// reference from any thread. How long it stays valid is argued where the
// one `Job` is made, in `fan_out`.
unsafe impl Send for Job {}

/// What the caller and helpers agree on, under [`Pool::state`].
struct State {
    /// The job being fanned out, if any; the pool is busy while it is
    /// posted.
    job: Option<Job>,
    /// Share count of `job`.
    shares: usize,
    /// First share of `job` nobody has claimed.
    next: usize,
    /// Helpers running a share of `job`.
    running: usize,
    /// The first panic a helper caught in `job`.
    panic: Option<Box<dyn Any + Send>>,
}

impl State {
    /// Claims the next unclaimed share of the posted job.
    fn claim(&mut self) -> Option<(Job, usize)> {
        let job = self.job?;
        (self.next < self.shares).then(|| {
            self.next += 1;
            (job, self.next - 1)
        })
    }
}

/// The process-wide helper pool.
struct Pool {
    state: Mutex<State>,
    /// Wakes helpers: a job was posted.
    posted: Condvar,
    /// Wakes the caller: the last running helper finished its share.
    finished: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        job: None,
        shares: 0,
        next: 0,
        running: 0,
        panic: None,
    }),
    posted: Condvar::new(),
    finished: Condvar::new(),
};

impl Pool {
    /// The pool's state. Shares run with the lock released and the
    /// bookkeeping under it cannot panic, so a poisoned lock still
    /// guards a consistent `State`.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The pool, with its helpers started on first use. A helper the OS
/// cannot create only leaves more shares to the callers.
fn pool() -> &'static Pool {
    static START: Once = Once::new();
    START.call_once(|| {
        for i in 1..num_threads() {
            // Helpers serve for the life of the process and catch every
            // panic, so their handles are not joined.
            let spawned = std::thread::Builder::new()
                .name(format!("cn-kernel-{i}"))
                .spawn(|| helper_loop(&POOL));
            if spawned.is_err() {
                break;
            }
        }
    });
    &POOL
}

/// A helper's life: claim a share of the posted job, run it with its
/// panic caught, report back; park while nothing is left to claim.
fn helper_loop(pool: &Pool) {
    IN_WORKER.with(|w| w.set(true));
    let mut state = pool.lock();
    loop {
        let Some((job, share)) = state.claim() else {
            state = pool
                .posted
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        state.running += 1;
        drop(state);
        // SAFETY: the share was claimed under the lock while its job was
        // posted, and `fan_out` keeps the job's borrow alive until
        // `running` is back to zero (see the SAFETY comment there).
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(share) }));
        state = pool.lock();
        state.running -= 1;
        if let Err(payload) = outcome {
            state.panic.get_or_insert(payload);
        }
        if state.running == 0 {
            pool.finished.notify_one();
        }
    }
}

/// Marks the calling thread as a worker until dropped, unwinding
/// included. Only non-worker threads fan out, so dropping clears it.
struct WorkerMark;

impl WorkerMark {
    fn set() -> WorkerMark {
        IN_WORKER.with(|w| w.set(true));
        WorkerMark
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(false));
    }
}

/// Runs `share(0)`, …, `share(shares − 1)` on the calling thread and the
/// pool's helpers, and returns once every share has finished. A panic
/// in any share is re-raised here after that. While another caller owns
/// the pool, every share runs inline.
fn fan_out(shares: usize, share: &Share<'_>) {
    let pool = pool();
    let _mark = WorkerMark::set();
    // SAFETY: this only erases the borrow's lifetime so helpers can reach
    // `share` through the static pool; the pointer and its metadata are
    // unchanged. It is sound because this function neither returns nor
    // unwinds before every helper has let go of `share`: a helper calls
    // it only for a share it claimed under the lock while the job is
    // posted, every share's panic is caught below, and the job is taken
    // down only once no share is left to claim and no helper is running
    // one.
    let job = Job(unsafe { std::mem::transmute::<*const Share<'_>, *const Share<'static>>(share) });
    {
        let mut state = pool.lock();
        if state.job.is_some() {
            drop(state);
            for i in 0..shares {
                share(i);
            }
            return;
        }
        *state = State {
            job: Some(job),
            shares,
            next: 1,
            running: 0,
            panic: None,
        };
    }
    pool.posted.notify_all();
    let mut caught = panic::catch_unwind(AssertUnwindSafe(|| share(0))).err();
    let mut state = pool.lock();
    loop {
        if caught.is_some() {
            // Leave shares nobody has started undone.
            state.next = state.shares;
        }
        if let Some((_, i)) = state.claim() {
            drop(state);
            caught = panic::catch_unwind(AssertUnwindSafe(|| share(i))).err();
            state = pool.lock();
        } else if state.running > 0 {
            state = pool
                .finished
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        } else {
            break;
        }
    }
    state.job = None;
    let helper_panic = state.panic.take();
    drop(state);
    if let Some(payload) = caught.or(helper_panic) {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU32};

    #[test]
    fn num_threads_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn chunks_cover_all_elements() {
        let mut v = vec![0u32; 103];
        parallel_chunks_mut(&mut v, 10, |_, chunk| {
            for x in chunk {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn chunk_indices_are_distinct() {
        let mut v = vec![0usize; 40];
        parallel_chunks_mut(&mut v, 7, |i, chunk| {
            for x in chunk {
                *x = i;
            }
        });
        // chunk 0 covers [0,7), chunk 5 covers [35,40)
        assert_eq!(v[0], 0);
        assert_eq!(v[6], 0);
        assert_eq!(v[7], 1);
        assert_eq!(v[39], 5);
    }

    #[test]
    fn ranges_cover_exactly_once() {
        let counter = AtomicU32::new(0);
        parallel_ranges(1000, |s, e| {
            counter.fetch_add((e - s) as u32, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 1000);
    }

    #[test]
    fn ranges_zero_items() {
        let counter = AtomicU32::new(0);
        parallel_ranges(0, |s, e| {
            counter.fetch_add((e - s) as u32, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn zero_chunk_len_panics() {
        let mut v = [0u8; 4];
        parallel_chunks_mut(&mut v, 0, |_, _| {});
    }

    /// Parallelism is one level deep: a `parallel_chunks_mut` (or
    /// `parallel_ranges`) call made from inside a worker runs every chunk
    /// on that worker's own thread instead of spawning more threads.
    #[test]
    fn nested_calls_run_inline_on_the_worker_thread() {
        use std::sync::Mutex;
        let mut outer = vec![0u32; 4 * num_threads().max(2)];
        let foreign = Mutex::new(Vec::new());
        parallel_chunks_mut(&mut outer, 1, |_, slot| {
            let me = std::thread::current().id();
            let mut inner = vec![0u32; 64];
            parallel_chunks_mut(&mut inner, 1, |_, x| {
                x[0] = 1;
                if std::thread::current().id() != me {
                    foreign.lock().unwrap().push("chunks");
                }
            });
            parallel_ranges(64, |_, _| {
                if std::thread::current().id() != me {
                    foreign.lock().unwrap().push("ranges");
                }
            });
            slot[0] = inner.iter().sum();
        });
        assert!(outer.iter().all(|&s| s == 64));
        assert_eq!(*foreign.lock().unwrap(), Vec::<&str>::new());
    }

    /// A `spawn_worker` thread is a worker too: the kernels it calls run
    /// every chunk and range on its own thread.
    #[test]
    fn spawn_worker_threads_run_nested_calls_inline() {
        use std::sync::Mutex;
        let handle = spawn_worker("parallel-test-worker".to_string(), || {
            let seen = Mutex::new(Vec::new());
            let mut v = vec![0u32; 64];
            parallel_chunks_mut(&mut v, 1, |_, x| {
                x[0] = 1;
                seen.lock().unwrap().push(std::thread::current().id());
            });
            parallel_ranges(64, |_, _| {
                seen.lock().unwrap().push(std::thread::current().id());
            });
            let me = std::thread::current().id();
            let seen = seen.into_inner().unwrap();
            (v.iter().sum::<u32>(), seen.iter().all(|&id| id == me))
        })
        .expect("spawn worker");
        assert_eq!(handle.join().unwrap(), (64, true));
    }

    /// Regression: chunk processing used to spawn one OS thread *per
    /// chunk*; with many small chunks that meant hundreds of threads. The
    /// worker pool must stay capped at [`num_threads()`].
    #[test]
    fn many_small_chunks_stay_within_worker_cap() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let mut v = vec![0u32; 512];
        let seen = Mutex::new(HashSet::new());
        parallel_chunks_mut(&mut v, 2, |_, chunk| {
            seen.lock().unwrap().insert(std::thread::current().id());
            for x in chunk {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 1));
        let distinct = seen.lock().unwrap().len();
        assert!(
            distinct <= num_threads(),
            "256 chunks ran on {distinct} threads, cap is {}",
            num_threads()
        );
    }

    /// Runs `parallel_ranges(num_threads(), ..)` until one call has all
    /// its shares in flight at once on distinct threads (a call runs
    /// inline while another test owns the pool, so a few tries may be
    /// needed). Each share waits, for a bounded time, until every share
    /// has arrived, then runs `f(caller, share)`. Returns whether such a
    /// call happened within the attempts.
    fn all_threads_at_once(f: impl Fn(std::thread::ThreadId, usize) + Sync) -> bool {
        use std::collections::HashSet;
        use std::sync::Mutex;
        use std::time::{Duration, Instant};
        let n = num_threads();
        let caller = std::thread::current().id();
        for _ in 0..200 {
            let arrived = AtomicUsize::new(0);
            let ids = Mutex::new(HashSet::new());
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                parallel_ranges(n, |s, _| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                    arrived.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_millis(100);
                    while arrived.load(Ordering::SeqCst) < n && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    if arrived.load(Ordering::SeqCst) == n {
                        f(caller, s);
                    }
                })
            }));
            if ids.into_inner().unwrap().len() == n {
                if let Err(payload) = outcome {
                    panic::resume_unwind(payload);
                }
                return true;
            }
        }
        false
    }

    /// Fan-outs reuse the pool's helpers: 100 calls in a row run on at
    /// most `num_threads()` distinct threads, where spawning per call
    /// would show a fresh thread id every time.
    #[test]
    fn consecutive_fan_outs_reuse_the_same_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        for _ in 0..100 {
            let mut v = vec![0u32; 4 * num_threads()];
            parallel_chunks_mut(&mut v, 1, |i, x| {
                seen.lock().unwrap().insert(std::thread::current().id());
                x[0] = i as u32;
            });
            assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32));
        }
        let distinct = seen.into_inner().unwrap().len();
        assert!(
            distinct <= num_threads(),
            "100 fan-outs ran on {distinct} threads, cap is {}",
            num_threads()
        );
    }

    /// A share that panics on a helper re-raises its own payload on the
    /// caller, and the helper survives: a later call still runs its
    /// shares on every thread at once.
    #[test]
    fn helper_panic_reraises_on_caller_and_pool_survives() {
        if num_threads() < 2 {
            return;
        }
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            all_threads_at_once(|caller, _| {
                if std::thread::current().id() != caller {
                    panic!("share failed on a helper");
                }
            })
        }));
        let payload = outcome.expect_err("the helper's panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"share failed on a helper")
        );
        assert!(
            all_threads_at_once(|_, _| {}),
            "after a helper panicked, no call ran on all {} threads",
            num_threads()
        );
    }

    /// The caller re-raises its own share's panic only after the helpers'
    /// shares have finished: the helper's share holds out until the
    /// caller has re-raised (or half a second passes), and must still be
    /// counted as done when the panic arrives.
    #[test]
    fn caller_panic_waits_for_running_helpers() {
        use std::time::{Duration, Instant};
        if num_threads() < 2 {
            return;
        }
        let (done, reraised) = (AtomicUsize::new(0), AtomicBool::new(false));
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            all_threads_at_once(|caller, _| {
                if std::thread::current().id() == caller {
                    panic!("share failed on the caller");
                }
                let deadline = Instant::now() + Duration::from_millis(500);
                while !reraised.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                done.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let done_at_reraise = done.load(Ordering::SeqCst);
        reraised.store(true, Ordering::SeqCst);
        assert!(outcome.is_err(), "the caller's panic must propagate");
        assert_eq!(done_at_reraise, num_threads() - 1);
    }

    /// Two threads that are not workers fan out at the same time; the one
    /// that finds the pool busy runs inline, and both get every chunk
    /// right.
    #[test]
    fn concurrent_callers_both_get_correct_results() {
        use std::sync::{Arc, Barrier};
        let barrier = Arc::new(Barrier::new(2));
        let callers: Vec<_> = (0..2u32)
            .map(|c| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for round in 0..50u32 {
                        let mut v = vec![0u32; 257];
                        parallel_chunks_mut(&mut v, 3, |i, chunk| {
                            for (j, x) in chunk.iter_mut().enumerate() {
                                *x = (i * 3 + j) as u32 * 7 + round + c;
                            }
                        });
                        assert!(v
                            .iter()
                            .enumerate()
                            .all(|(j, &x)| x == j as u32 * 7 + round + c));
                        let sum = AtomicUsize::new(0);
                        parallel_ranges(1000, |s, e| {
                            sum.fetch_add((s..e).sum::<usize>(), Ordering::Relaxed);
                        });
                        assert_eq!(sum.into_inner(), 999 * 1000 / 2);
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("caller thread");
        }
    }
}
