//! Neural-network kernel benchmarks: matmul, conv2d forward/backward at
//! the shapes the experiments actually run.

use cn_nn::layers::Conv2d;
use cn_nn::Layer;
use cn_tensor::ops::{col2im, conv2d_backward, im2col, nchw_to_rows, Conv2dGeometry};
use cn_tensor::{SeededRng, Tensor};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for size in [64usize, 128, 256] {
        let mut rng = SeededRng::new(1);
        let a = rng.normal_tensor(&[size, size], 0.0, 1.0);
        let b_m = rng.normal_tensor(&[size, size], 0.0, 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b_m)));
        });
    }
    group.finish();
}

fn bench_conv_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d_forward");
    // LeNet conv1 on MNIST and a VGG-style 3×3 block.
    let mut rng = SeededRng::new(2);
    let mut lenet_conv = Conv2d::new(1, 6, 5, 1, 2, &mut rng);
    let mnist_x = rng.normal_tensor(&[8, 1, 28, 28], 0.0, 1.0);
    group.bench_function("lenet_conv1_b8", |b| {
        b.iter(|| black_box(lenet_conv.forward(&mnist_x, false)));
    });
    let mut vgg_conv = Conv2d::new(32, 32, 3, 1, 1, &mut rng);
    let cifar_x = rng.normal_tensor(&[8, 32, 16, 16], 0.0, 1.0);
    group.bench_function("vgg_conv3x3_32c_b8", |b| {
        b.iter(|| black_box(vgg_conv.forward(&cifar_x, false)));
    });
    group.finish();
}

fn bench_conv_backward(c: &mut Criterion) {
    let mut rng = SeededRng::new(3);
    // Forward plus backward at the shapes CorrectNet training runs: LeNet's
    // two convolutions at batch 32, the 1×1 generator of the conv1
    // compensation wrapper (ratio 0.5: 1 + 6 inputs, 3 filters), and a
    // 16-channel 3×3 block.
    let shapes: [(&str, Conv2d, [usize; 4]); 4] = [
        (
            "fwd_bwd_16c_b8",
            Conv2d::new(16, 16, 3, 1, 1, &mut rng),
            [8, 16, 16, 16],
        ),
        (
            "lenet_conv1_b32",
            Conv2d::new(1, 6, 5, 1, 2, &mut rng),
            [32, 1, 28, 28],
        ),
        (
            "lenet_conv2_b32",
            Conv2d::new(6, 16, 5, 1, 0, &mut rng),
            [32, 6, 14, 14],
        ),
        (
            "comp1x1_b32",
            Conv2d::new(7, 3, 1, 1, 0, &mut rng),
            [32, 7, 28, 28],
        ),
    ];
    // Grouped so the baseline taxonomy is uniformly group/id.
    let mut group = c.benchmark_group("conv2d_train");
    for (id, mut conv, dims) in shapes {
        let x = rng.normal_tensor(&dims, 0.0, 1.0);
        let y = conv.forward(&x, true);
        let g = rng.normal_tensor(y.dims(), 0.0, 1.0);
        conv.backward(&g);
        group.bench_function(id, |b| {
            b.iter(|| {
                let _ = conv.forward(&x, true);
                black_box(conv.backward(&g))
            });
        });
    }
    group.finish();
}

fn bench_conv_backward_kernel(c: &mut Criterion) {
    // Backward only: the `im2col`/`col2im` reference chain against
    // `conv2d_backward`, which matches it bit for bit.
    let mut rng = SeededRng::new(5);
    let mut group = c.benchmark_group("conv2d_backward");
    for (id, c_in, oc, k, pad, hw) in [
        ("lenet_conv1_b32", 1, 6, 5, 2, 28),
        ("lenet_conv2_b32", 6, 16, 5, 0, 14),
    ] {
        let geo = Conv2dGeometry {
            in_c: c_in,
            in_h: hw,
            in_w: hw,
            kh: k,
            kw: k,
            stride: 1,
            pad,
        };
        let x = rng.normal_tensor(&[32, c_in, hw, hw], 0.0, 1.0);
        let w = rng.normal_tensor(&[oc, geo.patch_len()], 0.0, 1.0);
        let dy = rng.normal_tensor(&[32, oc, geo.out_h(), geo.out_w()], 0.0, 1.0);
        group.bench_function(format!("chain_{id}"), |b| {
            b.iter(|| {
                let g = nchw_to_rows(&dy);
                let dw = g.t_matmul(&im2col(&x, &geo));
                black_box((dw, g.sum_rows(), col2im(&g.matmul(&w), &geo, 32)))
            });
        });
        group.bench_function(format!("kernel_{id}"), |b| {
            b.iter(|| {
                let mut dw = Tensor::zeros(w.dims());
                let mut db = Tensor::zeros(&[oc]);
                let mut dx = Tensor::zeros(x.dims());
                let (gw, gb, gx) = (dw.data_mut(), db.data_mut(), dx.data_mut());
                conv2d_backward(&x, &geo, w.data(), &dy, gw, gb, gx);
                black_box((dw, db, dx))
            });
        });
    }
    group.finish();
}

fn bench_noise_mask_application(c: &mut Criterion) {
    // The cost the variation model adds to every noisy forward pass.
    let mut rng = SeededRng::new(4);
    let mut conv = Conv2d::new(32, 32, 3, 1, 1, &mut rng);
    let x = rng.normal_tensor(&[8, 32, 8, 8], 0.0, 1.0);
    let mask = rng.lognormal_mask(&[32, 32, 3, 3], 0.5);
    let mut group = c.benchmark_group("noise_overhead");
    group.bench_function("forward_clean", |b| {
        b.iter(|| black_box(conv.forward(&x, false)));
    });
    group.bench_function("forward_masked", |b| {
        conv.set_noise(Some(mask.clone()));
        b.iter(|| black_box(conv.forward(&x, false)));
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
    targets = bench_matmul,
    bench_conv_forward,
    bench_conv_backward,
    bench_conv_backward_kernel,
    bench_noise_mask_application

}
criterion_main!(benches);
