//! End-to-end TCP serving benchmark: a loopback [`cn_net::Frontend`]
//! over a digital shard router, driven by the cn-net closed-loop load
//! generator. One iteration = [`REQUESTS_PER_ITER`] framed requests over
//! real sockets, so the reported ns/iter divided by that count is the
//! steady-state wire-to-wire service time — codec, kernel TCP, admission
//! queue and batcher included. The `shards` axis isolates what
//! pick-two-least-loaded routing costs over a single shard (and, on a
//! multi-core host, what parallel shards buy).

use cn_analog::engine::DigitalBackend;
use cn_net::{Frontend, FrontendConfig, LoadgenConfig, Mode, RouterConfig, ShardRouter};
use cn_serve::ServeConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

const SHARDS: [usize; 2] = [1, 4];
const CONNECTIONS: usize = 4;
const WINDOW: usize = 8;
const REQUESTS_PER_ITER: usize = 256;
const SAMPLE_DIMS: [usize; 1] = [32];

/// The served model: a mid-sized MLP with enough per-row compute that
/// the wire numbers mix real inference with framing cost, not framing
/// alone.
fn edge_model() -> cn_nn::Sequential {
    cn_nn::zoo::mlp(&[32, 256, 256, 10], 1)
}

fn bench_net_throughput(c: &mut Criterion) {
    let model = edge_model();
    let mut group = c.benchmark_group("net_throughput_256_requests");
    for shards in SHARDS {
        let serve = ServeConfig::new(8).workers(2);
        let router = Arc::new(ShardRouter::new(
            &model,
            DigitalBackend,
            shards,
            7,
            &SAMPLE_DIMS,
            &RouterConfig::new(serve),
        ));
        let frontend = Frontend::bind(
            "127.0.0.1:0",
            Arc::clone(&router),
            FrontendConfig::default().handlers(CONNECTIONS),
        )
        .expect("bind loopback frontend");
        let addr = frontend.local_addr();
        let mut load = LoadgenConfig::new(&SAMPLE_DIMS);
        load.connections = CONNECTIONS;
        load.requests = REQUESTS_PER_ITER;
        load.batch_rows = 2;
        load.mode = Mode::Closed { window: WINDOW };
        load.seed = 42;
        group.bench_function(BenchmarkId::new("shards", shards), |b| {
            b.iter(|| {
                let report = cn_net::loadgen::run(addr, &load).expect("loadgen run");
                assert_eq!(
                    report.completed, REQUESTS_PER_ITER as u64,
                    "bench load run dropped replies: {report:?}"
                );
                black_box(report.throughput_rps)
            });
        });
        frontend.drain();
        let joined = frontend.join();
        drop(router);
        match Arc::try_unwrap(joined) {
            Ok(router) => router.shutdown(),
            Err(_) => unreachable!("all frontend threads exited"),
        }
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
    targets = bench_net_throughput
}
criterion_main!(benches);
