//! Load-generator benchmark of the dynamic-batching serving layer: two
//! analog MLP-head shards behind `ShardRouter::route`, fed by eight
//! pipelined client threads through the `serving` experiment's
//! `drive_pipelined`. One iteration = 512 served requests, so the
//! reported ns/iter divided by 512 is the steady-state per-request
//! service time; `max_batch = 1` is the no-batching baseline the
//! coalescing configurations are measured against.

use cn_analog::engine::AnalogBackend;
use cn_bench::experiments::serving::drive_pipelined;
use cn_serve::{RouterConfig, ServeConfig, ShardRouter};
use cn_tensor::{SeededRng, Tensor};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const MAX_BATCHES: [usize; 3] = [1, 8, 32];
const CLIENTS: usize = 8;
const WINDOW: usize = 32;
const REQUESTS_PER_ITER: usize = 512;

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
    // Labels are unused: the bench measures service time, not accuracy.
    let samples: Vec<(Tensor, usize)> = (0..32)
        .map(|_| (rng.normal_tensor(&[1, 28, 28], 0.0, 1.0), 0))
        .collect();
    let mut group = c.benchmark_group("serve_throughput_512_requests");
    for max_batch in MAX_BATCHES {
        let config = ServeConfig::new(max_batch)
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
            b.iter(|| {
                let result = drive_pipelined(&router, &samples, REQUESTS_PER_ITER, CLIENTS, WINDOW);
                black_box(result.hits)
            });
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
