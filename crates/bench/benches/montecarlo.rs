//! Monte-Carlo evaluation benchmarks: variation-mask sampling throughput
//! and the cost of one deployment sample (the unit the paper repeats 250×).

use cn_analog::deployment::DeploymentMode;
use cn_analog::engine::{monte_carlo, AnalogBackend, McConfig};
use cn_data::synthetic_mnist;
use cn_nn::zoo::{lenet5, LeNetConfig};
use cn_tensor::SeededRng;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_mask_sampling(c: &mut Criterion) {
    let model = lenet5(&LeNetConfig::mnist(1));
    let mut group = c.benchmark_group("variation_sampling");
    group.bench_function("lenet_weight_lognormal", |b| {
        let mode = DeploymentMode::WeightLognormal { sigma: 0.5 };
        let mut rng = SeededRng::new(2);
        b.iter(|| black_box(mode.mask_plan(&model, 0, &mut rng)));
    });
    group.bench_function("lenet_conductance_masks", |b| {
        let mode = DeploymentMode::Conductance {
            spec: cn_analog::cell::CellSpec::typical(0.3),
            tile_size: 128,
        };
        let mut rng = SeededRng::new(3);
        b.iter(|| black_box(mode.mask_plan(&model, 0, &mut rng)));
    });
    group.finish();
}

fn bench_mc_sample(c: &mut Criterion) {
    let data = synthetic_mnist(64, 64, 4);
    let model = lenet5(&LeNetConfig::mnist(5));
    // Grouped so the baseline taxonomy is uniformly group/id.
    let mut group = c.benchmark_group("mc_sample");
    group.bench_function("one_lenet_sample_64imgs", |b| {
        let backend = AnalogBackend::lognormal(0.5);
        b.iter(|| {
            black_box(monte_carlo(
                &model,
                &data.test,
                &McConfig::new(1, 0.5, 6),
                &backend,
            ))
        });
    });
    group.finish();
}

fn quick_criterion() -> Criterion {
    // CI-friendly budget: enough samples for stable medians on
    // these micro-kernels without multi-minute runs.
    Criterion::default()
        .sample_size(15)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_mask_sampling, bench_mc_sample
}
criterion_main!(benches);
