//! Allocation-count regression: steady-state `Session::infer_batch` must
//! perform **zero heap allocations per request** once the session scratch
//! is warm, and a repeated `Session::evaluate` (the Monte-Carlo loop) must
//! perform none per pass.
//!
//! This file is a dedicated test binary so it can install
//! [`CountingHeap`] as the process global allocator (a library must
//! never do that). It holds exactly one `#[test]` because `CN_THREADS=2`
//! must be set before the first tensor op: batch-32 GEMMs and
//! convolutions then fan out to the `cn_tensor::parallel` pool, and the
//! count covers every thread of the process (`total_allocs`), pool
//! helpers included. Fanning out costs no allocation once each thread's
//! kernel scratch has grown.

use cn_analog::engine::{AnalogBackend, EngineBuilder, Session};
use cn_data::synthetic_mnist;
use cn_nn::zoo::{lenet5, LeNetConfig};
use cn_tensor::alloc::CountingHeap;
use cn_tensor::SeededRng;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingHeap = CountingHeap::new();

/// Runs `round` until 16 rounds in a row allocate nothing on any thread,
/// for at most 1000 rounds. Which thread runs which chunk of a fanned-out
/// call varies from call to call, so a pool helper grows its kernel
/// scratch the first time it happens to run a chunk of each layer, not in
/// a fixed round.
fn warm_up(mut round: impl FnMut()) {
    let mut clean = 0;
    for _ in 0..1000 {
        let before = CountingHeap::total_allocs();
        round();
        clean = if CountingHeap::total_allocs() == before {
            clean + 1
        } else {
            0
        };
        if clean == 16 {
            return;
        }
    }
}

#[test]
fn steady_state_infer_batch_allocates_nothing() {
    // Must precede every tensor op: the thread-count is cached on first
    // read.
    std::env::set_var("CN_THREADS", "2");
    assert!(
        CountingHeap::is_counting(),
        "CountingHeap is not the installed global allocator"
    );

    let model = lenet5(&LeNetConfig::mnist(3));
    let compiled = EngineBuilder::new(&model).compile().shared();
    let mut session = Session::with_plan(Arc::clone(&compiled), &[1, 28, 28], 32);
    let mut rng = SeededRng::new(4);
    let x1 = rng.normal_tensor(&[1, 1, 28, 28], 0.0, 1.0);
    let x32 = rng.normal_tensor(&[32, 1, 28, 28], 0.0, 1.0);

    // Warmup: the first batches at each size start the pool and grow
    // each thread's kernel scratch (GEMM A-panels, conv B-panels) and the
    // prediction staging — explicitly outside the zero-alloc contract.
    warm_up(|| {
        session.infer_batch(&x1);
        session.infer_batch(&x32);
    });

    for (x, label) in [(&x1, "batch 1"), (&x32, "batch 32")] {
        let before = CountingHeap::total_allocs();
        for _ in 0..16 {
            std::hint::black_box(session.infer_batch(x));
        }
        let after = CountingHeap::total_allocs();
        assert_eq!(
            after - before,
            0,
            "{label}: steady-state infer_batch heap-allocated"
        );
    }

    // The scratch path must still agree with direct inference bitwise.
    assert_eq!(*session.logits_ref(&x32), compiled.infer(&x32));

    // Monte-Carlo evaluation: 72 samples at batch 32 end in a ragged
    // batch of 8. The first passes warm the batch tensor; a further pass
    // over the same data, rebound to another deployment as the
    // Monte-Carlo driver does, must not touch the heap.
    let data = synthetic_mnist(1, 72, 5);
    let builder = EngineBuilder::new(&model)
        .backend(AnalogBackend::lognormal(0.5))
        .seed(6);
    let (a, b) = (
        builder.compile().shared(),
        builder.compile_instance(1).shared(),
    );
    session.rebind(a);
    warm_up(|| {
        session.evaluate(&data.test, 32);
    });
    session.rebind(Arc::clone(&b));
    let before = CountingHeap::total_allocs();
    let acc = session.evaluate(&data.test, 32);
    let after = CountingHeap::total_allocs();
    assert_eq!(after - before, 0, "a repeated evaluate heap-allocated");
    let reference = cn_nn::metrics::evaluate(b.model(), &data.test, 32);
    assert_eq!(acc, reference);
}
