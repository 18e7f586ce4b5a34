//! Allocation accounting for the allocation-free hot paths.
//!
//! Analog-CIM serving is digital orchestration around a *fixed* compiled
//! deployment — every tensor shape is known before the first request
//! arrives — so steady-state inference never needs to touch the heap.
//! [`CountingHeap`] is the instrument that proves it: a
//! `#[global_allocator]` wrapper over the system heap with per-thread
//! counters, used by the zero-allocation regression tests and the
//! `alloc_profile` bench experiment to show that a steady-state request
//! performs **no** heap allocations.
//!
//! # Example
//!
//! ```
//! use cn_tensor::alloc::CountingHeap;
//!
//! #[global_allocator]
//! static HEAP: CountingHeap = CountingHeap::new();
//!
//! fn main() {
//!     assert!(CountingHeap::is_counting());
//!     let before = CountingHeap::thread_allocs();
//!     let buf: Vec<f32> = Vec::with_capacity(16);
//!     std::hint::black_box(&buf);
//!     assert_eq!(CountingHeap::thread_allocs(), before + 1);
//! }
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One thread's allocation counters, registered with the process-wide
/// registry on that thread's first allocation.
#[derive(Debug)]
pub struct ThreadAllocCounter {
    name: &'static str,
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl ThreadAllocCounter {
    /// The owning thread's name at registration time (`<unnamed>` if it
    /// had none).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Heap allocations performed by the owning thread so far.
    pub fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Bytes requested by the owning thread so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Mutex<Vec<&'static ThreadAllocCounter>> = Mutex::new(Vec::new());

thread_local! {
    static COUNTER: Cell<Option<&'static ThreadAllocCounter>> = const { Cell::new(None) };
    static REGISTERING: Cell<bool> = const { Cell::new(false) };
}

fn thread_counter() -> Option<&'static ThreadAllocCounter> {
    // `try_with`: allocations during TLS teardown must not panic.
    COUNTER
        .try_with(|slot| {
            if let Some(c) = slot.get() {
                return Some(c);
            }
            // Registration itself allocates (name copy, registry push);
            // the guard makes those inner allocations skip counting
            // instead of recursing.
            if REGISTERING.with(|g| g.replace(true)) {
                return None;
            }
            let name: &'static str = Box::leak(
                std::thread::current()
                    .name()
                    .unwrap_or("<unnamed>")
                    .to_string()
                    .into_boxed_str(),
            );
            let counter: &'static ThreadAllocCounter = Box::leak(Box::new(ThreadAllocCounter {
                name,
                allocs: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
            }));
            REGISTRY
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(counter);
            slot.set(Some(counter));
            REGISTERING.with(|g| g.set(false));
            Some(counter)
        })
        .ok()
        .flatten()
}

fn record_alloc(size: usize) {
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    if let Some(c) = thread_counter() {
        c.allocs.fetch_add(1, Ordering::Relaxed);
        c.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// A counting `#[global_allocator]`: delegates to [`System`] and keeps
/// per-thread + process-total allocation counts.
///
/// Install it in a test or bench **binary** (never a library):
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: cn_tensor::alloc::CountingHeap = cn_tensor::alloc::CountingHeap::new();
/// ```
///
/// then assert with [`CountingHeap::thread_allocs`] (current thread) or
/// [`CountingHeap::snapshot`] (every thread that has allocated, by
/// name — how the serve tests watch their worker threads).
#[derive(Debug)]
pub struct CountingHeap;

impl CountingHeap {
    /// The allocator value for the `#[global_allocator]` static.
    pub const fn new() -> CountingHeap {
        CountingHeap
    }

    /// Allocations made by the *current* thread since process start.
    /// Reads 0 when `CountingHeap` is not the installed global
    /// allocator.
    pub fn thread_allocs() -> u64 {
        thread_counter().map_or(0, |c| c.allocs())
    }

    /// Process-wide allocation count.
    pub fn total_allocs() -> u64 {
        TOTAL_ALLOCS.load(Ordering::Relaxed)
    }

    /// Counters for every thread that has allocated so far. The
    /// returned references are `'static`: counters are leaked at
    /// registration so a reader can keep watching a thread that has
    /// since exited.
    pub fn snapshot() -> Vec<&'static ThreadAllocCounter> {
        REGISTRY.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// `true` when this process actually routes heap traffic through a
    /// `CountingHeap` (probes with one boxed byte).
    pub fn is_counting() -> bool {
        let before = CountingHeap::thread_allocs();
        let probe = Box::new(0u8);
        std::hint::black_box(&probe);
        CountingHeap::thread_allocs() > before
    }
}

impl Default for CountingHeap {
    fn default() -> CountingHeap {
        CountingHeap::new()
    }
}

// SAFETY: pure delegation to `System`; the counter bookkeeping never
// touches the regions being managed.
unsafe impl GlobalAlloc for CountingHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_alloc(layout.size());
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is a fresh allocation from the hot path's perspective.
        record_alloc(new_size);
        // SAFETY: forwarded caller contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record_alloc(layout.size());
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc_zeroed(layout) }
    }
}
