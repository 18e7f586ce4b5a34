//! Serving walkthrough: a shard set of independent analog deployments
//! behind a dynamic-batching front — bounded admission, micro-batch
//! coalescing, majority-vote redundancy and drift-aware re-programming.
//!
//! ```bash
//! cargo run --release --example serving
//! ```

use correctnet_repro::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

const REQUESTS: usize = 512;
const CLIENTS: usize = 8;

/// Drives `REQUESTS` majority votes through the router from `CLIENTS`
/// concurrent client threads, treating `Overloaded` as backpressure.
fn drive(router: &ShardRouter, samples: &[(Tensor, usize)]) -> f32 {
    let next = AtomicUsize::new(0);
    let hits = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= REQUESTS {
                    break;
                }
                let (sample, label) = &samples[i % samples.len()];
                let reply = loop {
                    match router.vote(sample) {
                        Ok(reply) => break reply,
                        Err(RouterError::Overloaded) => std::thread::yield_now(),
                        Err(e) => panic!("serving failed: {e}"),
                    }
                };
                if reply.class == *label {
                    hits.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    hits.load(Ordering::Relaxed) as f32 / REQUESTS as f32
}

fn main() {
    // Train a small LeNet on synthetic MNIST.
    let data = synthetic_mnist(600, 200, 1);
    let mut model = lenet5(&LeNetConfig::mnist(2));
    Trainer::new(TrainConfig::new(6, 32, 3)).fit(&mut model, &data.train, &mut Adam::new(2e-3));

    let sample_dims = data.test.sample_dims().to_vec();
    let samples: Vec<(Tensor, usize)> = (0..data.test.len())
        .map(|i| {
            let sample = data.test.images.batch_slice(i, i + 1).reshape(&sample_dims);
            (sample, data.test.labels[i])
        })
        .collect();

    // Three independent σ=0.3 chips behind a majority-vote front, each
    // serving micro-batches of up to 32 requests: a free worker runs
    // whatever is queued at once and never waits for a batch to fill.
    let config = ServeConfig::new(32).workers(2);
    let router = ShardRouter::new(
        &model,
        AnalogBackend::lognormal(0.3),
        3,
        42,
        &sample_dims,
        &RouterConfig::new(config),
    );

    let accuracy = drive(&router, &samples);
    println!("majority-vote accuracy      : {accuracy:.3}");
    println!(
        "vote disagreement rate      : {:.3}",
        router.vote_disagreement_rate()
    );
    for (i, stats) in router.stats().shards.iter().enumerate() {
        println!(
            "shard {i}: {} requests in {} batches, fill {:.2}, p50 {:.2} ms, p99 {:.2} ms",
            stats.requests,
            stats.batches,
            stats.batch_fill,
            stats.p50_us / 1000.0,
            stats.p99_us / 1000.0,
        );
    }

    // Field aging: recompile every shard under conductance drift, then
    // re-program the crossbars to recover.
    let drift = ConductanceDrift::new(0.05, 0.02, 1.0);
    router.recompile_drifted(&drift, 1.0e4);
    let drifted = drive(&router, &samples);
    router.reprogram();
    let reprogrammed = drive(&router, &samples);
    println!("accuracy after drift (t=1e4): {drifted:.3}");
    println!("accuracy after re-program   : {reprogrammed:.3}");
    router.shutdown();
}
