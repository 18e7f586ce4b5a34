//! Allocation-count regression: the serve worker loop must perform
//! **zero heap allocations per request** in steady state, at any thread
//! count — plan once at the deployment shape, then batch, infer, reply
//! and wake the client out of warm buffers.
//!
//! Dedicated test binary: installs [`CountingHeap`] as the global
//! allocator and watches the `cn-serve-worker-*` thread counters from
//! the client thread. Single `#[test]` so `CN_THREADS=2` lands before
//! the first tensor op: with two GEMM threads, a 32-row batch GEMM
//! would fan out if the worker did not. Serve workers are
//! `cn_tensor::parallel` workers, so their kernels run inline at any
//! `max_batch`.

use cn_analog::engine::EngineBuilder;
use cn_nn::zoo::mlp;
use cn_serve::{ServeConfig, Server};
use cn_tensor::alloc::CountingHeap;
use cn_tensor::SeededRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};

#[global_allocator]
static ALLOC: CountingHeap = CountingHeap::new();

fn worker_allocs() -> u64 {
    CountingHeap::snapshot()
        .iter()
        .filter(|c| c.name().starts_with("cn-serve-worker"))
        .map(|c| c.allocs())
        .sum()
}

/// Counts wakes; waking it from the worker only moves reference counts.
struct CountingWaker(AtomicUsize);

impl Wake for CountingWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Serves pipelined rounds of `round_len` tickets on a one-worker server
/// at `max_batch`, then asserts that the worker allocated nothing after
/// warmup and that every registered waker fired exactly once.
fn assert_worker_allocates_nothing(max_batch: usize, round_len: usize) {
    let model = mlp(&[16, 32, 8], 3);
    let compiled = EngineBuilder::new(&model).compile();
    let config = ServeConfig::new(max_batch).workers(1);
    let server = Server::over(compiled, &[16], &config);
    let mut rng = SeededRng::new(4);
    let inputs: Vec<_> = (0..round_len)
        .map(|_| rng.normal_tensor(&[16], 0.0, 1.0))
        .collect();

    let wakes = Arc::new(CountingWaker(AtomicUsize::new(0)));
    let waker = Waker::from(Arc::clone(&wakes));

    // One round = `round_len` pipelined tickets, each with a registered
    // waker, so the worker's wake path is counted too. The batcher runs
    // whatever is queued, so the rounds' batch sizes vary; the worker's
    // staging is sized for max_batch at start-up, so no size can grow it.
    let round = || {
        let tickets: Vec<_> = inputs
            .iter()
            .map(|x| server.submit(x).expect("submit"))
            .collect();
        for ticket in &tickets {
            ticket.register_waker(&waker);
        }
        for ticket in tickets {
            ticket.wait().expect("reply");
        }
    };

    // Warmup: session plan + kernel scratch, reply-width publish, GEMM
    // panel scratch — all grown here, outside the contract.
    for _ in 0..4 {
        round();
    }

    let before = worker_allocs();
    for _ in 0..8 {
        round();
    }
    let after = worker_allocs();
    assert_eq!(
        after - before,
        0,
        "max_batch {max_batch}: steady-state worker loop heap-allocated"
    );

    // A worker wakes the waker after it releases the reply slot, so a
    // client can read its reply before the wake; joining the workers
    // first makes the count final.
    server.shutdown();
    assert_eq!(
        wakes.0.load(Ordering::Relaxed),
        12 * round_len,
        "max_batch {max_batch}: every registered waker fires exactly once"
    );
}

#[test]
fn steady_state_worker_loop_allocates_nothing() {
    // Must precede every tensor op: the thread-count is cached on first
    // read.
    std::env::set_var("CN_THREADS", "2");
    assert!(
        CountingHeap::is_counting(),
        "CountingHeap is not the installed global allocator"
    );
    assert_worker_allocates_nothing(8, 8);
    // Batches of up to 32 rows, which the GEMM splits into two row
    // blocks on a thread allowed to fan out.
    assert_worker_allocates_nothing(32, 32);
}
