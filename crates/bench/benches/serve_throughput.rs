//! Load-generator benchmark of the dynamic-batching serving layer: two
//! analog MLP-head shards fed round-robin by eight client threads. One
//! iteration = 512 served requests, so the reported ns/iter divided by
//! 512 is the steady-state per-request service time;
//! `max_batch = 1` is the no-batching baseline the coalescing
//! configurations are measured against.

use cn_analog::engine::AnalogBackend;
use cn_serve::{RouterConfig, ServeConfig, ServeError, ShardRouter, Ticket};
use cn_tensor::{SeededRng, Tensor};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const MAX_BATCHES: [usize; 3] = [1, 8, 32];
const CLIENTS: usize = 8;
const WINDOW: usize = 32;
const REQUESTS_PER_ITER: usize = 512;

/// Pipelined load generator: each client keeps up to [`WINDOW`] tickets
/// in flight so the batchers have requests to coalesce; `QueueFull` is
/// backpressure (drain one reply, retry). Submissions rotate over the
/// shards' servers rather than going through `ShardRouter::route`: this
/// measures the batcher, and pick-two over two shards herds pipelined
/// clients, whose unread replies count as load, onto one shard at a time.
fn drive(router: &ShardRouter, samples: &[Tensor]) -> usize {
    let next = AtomicUsize::new(0);
    let rotation = AtomicUsize::new(0);
    let served = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut inflight: VecDeque<Ticket> = VecDeque::new();
                let drain = |inflight: &mut VecDeque<Ticket>| {
                    if let Some(ticket) = inflight.pop_front() {
                        black_box(ticket.wait().expect("worker reply").class);
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                };
                let mut exhausted = false;
                while !exhausted || !inflight.is_empty() {
                    while !exhausted && inflight.len() < WINDOW {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= REQUESTS_PER_ITER {
                            exhausted = true;
                            break;
                        }
                        let ticket = loop {
                            let shard = rotation.fetch_add(1, Ordering::Relaxed) % router.shards();
                            match router.shard(shard).submit(&samples[i % samples.len()]) {
                                Ok(ticket) => break ticket,
                                Err(ServeError::QueueFull) => {
                                    drain(&mut inflight);
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("bench load generator failed: {e}"),
                            }
                        };
                        inflight.push_back(ticket);
                    }
                    drain(&mut inflight);
                }
            });
        }
    });
    served.load(Ordering::Relaxed)
}

/// The served model: an edge-sized MLP head whose per-sample compute is
/// small enough that per-request overhead (wakeups, locks, scatter) is a
/// visible cost — the regime micro-batching amortizes. A conv LeNet's
/// multi-millisecond per-sample compute swamps that overhead and shows
/// batching parity instead (see `engine_forward` for its kernel costs).
fn mlp_head() -> cn_nn::Sequential {
    use cn_nn::layers::{Dense, Flatten, Relu};
    let mut rng = SeededRng::new(1);
    cn_nn::Sequential::new(vec![
        Box::new(Flatten::new()),
        Box::new(Dense::new(784, 48, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(48, 10, &mut rng)),
    ])
}

fn bench_serve_throughput(c: &mut Criterion) {
    let model = mlp_head();
    let mut rng = SeededRng::new(2);
    let samples: Vec<Tensor> = (0..32)
        .map(|_| rng.normal_tensor(&[1, 28, 28], 0.0, 1.0))
        .collect();
    let mut group = c.benchmark_group("serve_throughput_512_requests");
    for max_batch in MAX_BATCHES {
        let config = ServeConfig::new(max_batch)
            .max_wait(Duration::from_millis(2))
            .workers(2)
            .queue_capacity(64 * max_batch);
        let router = ShardRouter::new(
            &model,
            AnalogBackend::lognormal(0.3),
            2,
            7,
            &[1, 28, 28],
            &RouterConfig::new(config),
        );
        group.bench_function(BenchmarkId::new("max_batch", max_batch), |b| {
            b.iter(|| black_box(drive(&router, &samples)));
        });
        router.shutdown();
    }
    group.finish();
}

fn quick_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_serve_throughput
}
criterion_main!(benches);
