//! Allocation-count regression: the serve worker loop must perform
//! **zero heap allocations per request** in steady state — plan once at
//! the deployment shape, then batch, infer and reply out of warm
//! buffers.
//!
//! Dedicated test binary: installs [`CountingHeap`] as the global
//! allocator and watches the `cn-serve-worker-*` thread counters from
//! the client thread. Single `#[test]` so `CN_THREADS=1` lands before
//! the first tensor op (the multi-threaded GEMM path allocates by
//! design).

use cn_analog::engine::EngineBuilder;
use cn_nn::zoo::mlp;
use cn_serve::{ServeConfig, Server};
use cn_tensor::alloc::CountingHeap;
use cn_tensor::SeededRng;
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingHeap = CountingHeap::new();

fn worker_allocs() -> u64 {
    CountingHeap::snapshot()
        .iter()
        .filter(|c| c.name().starts_with("cn-serve-worker"))
        .map(|c| c.allocs())
        .sum()
}

#[test]
fn steady_state_worker_loop_allocates_nothing() {
    // Must precede every tensor op: the thread-count is cached on first
    // read.
    std::env::set_var("CN_THREADS", "1");
    assert!(
        CountingHeap::is_counting(),
        "CountingHeap is not the installed global allocator"
    );

    let model = mlp(&[16, 32, 8], 3);
    let compiled = EngineBuilder::new(&model).compile();
    let config = ServeConfig::new(8)
        .workers(1)
        .max_wait(Duration::from_millis(20));
    let server = Server::over(compiled, &[16], &config);
    let mut rng = SeededRng::new(4);
    let inputs: Vec<_> = (0..8).map(|_| rng.normal_tensor(&[16], 0.0, 1.0)).collect();

    // One round = a pipelined full batch: all eight tickets in flight
    // before any wait, so the worker coalesces them (max_wait is far
    // longer than the submission gap) and its staging grows to the full
    // deployment batch during warmup.
    let round = || {
        let tickets: Vec<_> = inputs
            .iter()
            .map(|x| server.submit(x).expect("submit"))
            .collect();
        for ticket in tickets {
            ticket.wait().expect("reply");
        }
    };

    // Warmup: session plan + kernel scratch, batch staging, reply-width publish,
    // GEMM panel scratch — all grown here, outside the contract.
    for _ in 0..4 {
        round();
    }

    let before = worker_allocs();
    for _ in 0..8 {
        round();
    }
    let after = worker_allocs();
    assert_eq!(after - before, 0, "steady-state worker loop heap-allocated");

    server.shutdown();
}
