//! GEMM kernel benchmarks: the packed register-tiled driver against the
//! seed i-k-j kernel it replaced, swept over LeNet-5 / VGG-16 layer
//! shapes plus a square 512³ stress case.
//!
//! `CN_THREADS=1` is pinned before any kernel runs so the numbers reflect
//! single-thread throughput (the acceptance bar is ≥2× over the seed
//! kernel at 512³); the same sweep parallelizes identically on both
//! sides. The `parallel_dispatch` group times one `cn_tensor::parallel`
//! fan-out; it runs inline unless the bench is started with
//! `CN_THREADS=2` (or more).

use cn_tensor::ops::{gemm_bias_act, Activation, Layout, PackedB};
use cn_tensor::parallel::parallel_chunks_mut;
use cn_tensor::{SeededRng, Tensor};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// `(name, m, k, n)` — m is the im2col patch count (LeNet/VGG layers at
/// batch 1) or the batch size for dense heads.
const SHAPES: [(&str, usize, usize, usize); 8] = [
    // Single-request serving: the short-m (< MR) kernel path.
    ("vgg_fc_b1", 1, 512, 512),
    // LeNet-5 conv2 on MNIST: 10×10 patches, 6·5·5 patch len, 16 filters.
    ("lenet_conv2", 100, 150, 16),
    // LeNet-5 fc1 at batch 32: 32 × [400 → 120].
    ("lenet_fc1_b32", 32, 400, 120),
    // VGG-16 block1 conv on CIFAR: 32×32 patches, 3·3·3 → 64 filters.
    ("vgg_conv1", 1024, 27, 64),
    // VGG-16 block3 conv: 8×8 patches, 256·3·3 → 256 filters.
    ("vgg_conv3", 64, 2304, 256),
    // VGG dense head at batch 32: 32 × [512 → 512].
    ("vgg_fc_b32", 32, 512, 512),
    // Fast square case: the CI perf-smoke subset (`scripts/bench`).
    ("square256", 256, 256, 256),
    // Square stress case (the acceptance-criterion shape).
    ("square512", 512, 512, 512),
];

/// The pre-PR i-k-j kernel, verbatim single-threaded: the baseline the
/// packed driver is measured against (its outputs are bit-identical).
fn seed_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.data(), b.data());
    let c = out.data_mut();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (kk, &aik) in arow.iter().enumerate() {
            let brow = &bd[kk * n..(kk + 1) * n];
            for (cj, &bj) in crow.iter_mut().zip(brow.iter()) {
                *cj += aik * bj;
            }
        }
    }
    out
}

fn operands(m: usize, k: usize, n: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = SeededRng::new(seed);
    (
        rng.normal_tensor(&[m, k], 0.0, 1.0),
        rng.normal_tensor(&[k, n], 0.0, 1.0),
    )
}

fn bench_seed_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_seed_ikj");
    for (name, m, k, n) in SHAPES {
        let (a, b) = operands(m, k, n, 1);
        group.bench_function(BenchmarkId::from_parameter(name), |bench| {
            bench.iter(|| black_box(seed_matmul(&a, &b)));
        });
    }
    group.finish();
}

fn bench_packed_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_packed");
    for (name, m, k, n) in SHAPES {
        let (a, b) = operands(m, k, n, 1);
        group.bench_function(BenchmarkId::from_parameter(name), |bench| {
            bench.iter(|| black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

/// The serving hot path: frozen weights packed once, bias+ReLU fused
/// into the writeback (`Dense`/`Conv2d` infer with pre-packed panels).
fn bench_prepacked_fused(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_prepacked_bias_relu");
    for (name, m, k, n) in SHAPES {
        let (a, w) = operands(m, k, n, 2);
        let bias = SeededRng::new(3).normal_tensor(&[n], 0.0, 1.0);
        let packed = PackedB::from_tensor(&w, Layout::RowMajor);
        group.bench_function(BenchmarkId::from_parameter(name), |bench| {
            bench.iter(|| {
                black_box(gemm_bias_act(
                    &a,
                    Layout::RowMajor,
                    &packed,
                    Some(&bias),
                    Activation::Relu,
                ))
            });
        });
    }
    group.finish();
}

/// The fixed cost of a fan-out: a two-chunk call with nothing to do, and
/// a 64 K-float add split into two chunks.
fn bench_parallel_dispatch(c: &mut Criterion) {
    const LEN: usize = 1 << 16;
    let mut group = c.benchmark_group("parallel_dispatch");
    let mut empty = [0u8; 2];
    group.bench_function("empty_2_chunks", |bench| {
        bench.iter(|| {
            parallel_chunks_mut(&mut empty, 1, |i, chunk| {
                black_box((i, chunk));
            })
        });
    });
    let src = vec![1.0f32; LEN];
    let mut dst = vec![0.0f32; LEN];
    group.bench_function("add_64k", |bench| {
        bench.iter(|| {
            parallel_chunks_mut(&mut dst, LEN / 2, |i, chunk| {
                for (d, s) in chunk.iter_mut().zip(&src[i * LEN / 2..]) {
                    *d += s;
                }
            });
            black_box(&dst);
        });
    });
    group.finish();
}

fn quick_criterion() -> Criterion {
    // Pin the kernels to one worker before the thread count is first
    // cached; set CN_THREADS externally to observe parallel scaling.
    if std::env::var("CN_THREADS").is_err() {
        std::env::set_var("CN_THREADS", "1");
    }
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_seed_kernel, bench_packed_gemm, bench_prepacked_fused, bench_parallel_dispatch
}
criterion_main!(benches);
