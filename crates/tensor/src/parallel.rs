//! Minimal scoped-thread parallel helpers.
//!
//! The workspace runs on small CPU boxes; a full work-stealing pool is not
//! warranted. [`parallel_chunks_mut`] splits a mutable slice into per-thread
//! chunks processed with `std::thread::scope`, which is enough to keep
//! GEMM, convolution and Monte-Carlo evaluation busy on all cores.
//!
//! Parallelism is **one level deep**: a thread spawned by this module runs
//! any nested [`parallel_chunks_mut`] / [`parallel_ranges`] call inline.
//! The outermost fan-out (one Monte-Carlo deployment per scoped worker,
//! or one serving batch per long-lived [`spawn_worker`] thread) already
//! occupies every core, so kernels called from inside it spawning
//! `num_threads()` more scoped threads per call would only oversubscribe
//! the machine. Only the calling threads this module did not spawn (the
//! main thread of a training run, say) fan out.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set on threads spawned by this module; nested calls run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Worker count for a call with `items` units of work: capped by
/// [`num_threads()`], and 1 on a thread this module spawned.
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
/// `f(chunk_index, chunk)` is invoked for each. At most
/// [`num_threads()`] worker threads are spawned, each pulling the next
/// unclaimed chunk from a shared iterator, so callers with many small
/// chunks never fan out beyond the worker cap. When only one thread is
/// available, there is a single chunk, or the caller is itself a worker
/// of this module, everything runs inline.
///
/// # Panics
///
/// Panics if `chunk_len` is zero.
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
    let chunks = std::sync::Mutex::new(data.chunks_mut(chunk_len).enumerate());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let chunks = &chunks;
            let f = &f;
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    // Claim the next chunk under the lock, release it
                    // before running `f` so workers overlap on the work.
                    let next = chunks
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .next();
                    match next {
                        Some((i, chunk)) => f(i, chunk),
                        None => break,
                    }
                }
            });
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
    std::thread::scope(|scope| {
        for w in 0..workers {
            let start = w * per;
            let end = ((w + 1) * per).min(n);
            if start >= end {
                break;
            }
            let f = &f;
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                f(start, end)
            });
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

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
}
