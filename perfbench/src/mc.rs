//! `mc_lenet`: repeated Monte-Carlo robustness points on a trained
//! LeNet-5 — the paper's evaluation loop.
//!
//! Each point is one `cn_analog::engine::monte_carlo` call of
//! [`DEPLOYMENTS`] log-normal σ = 0.5 deployments, each evaluated at
//! batch 32 over the synthetic-MNIST test set. The traced run replays the
//! loop one deployment at a time (mask draw → compile → evaluate on
//! stream `fork(i)`), steps the compiled layers at batch 32, and times the
//! GEMM and im2col kernels the convolutions lower to.

use crate::trace::{durations, Tracer};
use crate::{derive_seed, finish_trace, stats, timed_setups, Args, Report};
use cn_analog::engine::{monte_carlo, AnalogBackend, Backend, CompiledModel, MaskPlan, Session};
use cn_analog::montecarlo::McConfig;
use cn_data::{synthetic_mnist, Dataset};
use cn_nn::layers::Relu;
use cn_nn::optim::Adam;
use cn_nn::trainer::{TrainConfig, Trainer};
use cn_nn::zoo::{lenet5, LeNetConfig};
use cn_nn::Sequential;
use cn_tensor::ops::im2col::{im2col, Conv2dGeometry};
use cn_tensor::{SeededRng, Tensor};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Variation level of every deployment (the paper's σ).
const SIGMA: f32 = 0.5;
/// Deployments per Monte-Carlo point.
const DEPLOYMENTS: usize = 2;
/// Evaluation batch size.
const BATCH: usize = 32;
/// Training images used to fit the model at set-up.
const TRAIN_IMAGES: usize = 512;
/// Test images every deployment is evaluated on.
const TEST_IMAGES: usize = 256;
/// Plain training epochs at set-up.
const TRAIN_EPOCHS: usize = 2;
/// Points whose sampled deployment is re-checked through the legacy
/// mutate-in-place protocol.
const CHECKED_POINTS: usize = 12;

/// Builds the workload's inputs: a LeNet-5 trained on synthetic MNIST,
/// and the test set.
fn setup(seed: u64) -> (Sequential, Dataset) {
    let data = synthetic_mnist(TRAIN_IMAGES, TEST_IMAGES, derive_seed(seed, 1));
    let mut model = lenet5(&LeNetConfig::mnist(derive_seed(seed, 2)));
    let mut opt = Adam::new(2e-3);
    Trainer::new(TrainConfig::new(TRAIN_EPOCHS, BATCH, derive_seed(seed, 3))).fit(
        &mut model,
        &data.train,
        &mut opt,
    );
    (model, data.test)
}

/// Monte-Carlo configuration of point `k`.
fn point_config(seed: u64, k: u64) -> McConfig {
    McConfig {
        samples: DEPLOYMENTS,
        sigma: SIGMA,
        batch_size: BATCH,
        seed: derive_seed(seed, 1000 + k),
    }
}

/// Accuracy of deployment `i` of `cfg` through the legacy protocol:
/// mask plan → `set_noise` on a copy of the model → `metrics::evaluate`.
fn legacy_accuracy(model: &Sequential, test: &Dataset, cfg: &McConfig, i: usize) -> f32 {
    let mut rng = SeededRng::new(cfg.seed).fork(i as u64);
    let plan = AnalogBackend::lognormal(cfg.sigma).mask_plan(model, &mut rng);
    let mut instance = model.clone();
    instance.clear_noise();
    for ((layer, _), mask) in model.noisy_layers().into_iter().zip(plan) {
        instance.layer_mut(layer).set_noise(mask);
    }
    cn_nn::metrics::evaluate(&mut instance, test, cfg.batch_size)
}

/// Output checks, run outside the timed loop: every accuracy is a valid
/// share, and one deployment of up to [`CHECKED_POINTS`] points,
/// re-evaluated through the legacy mutate-in-place protocol, matches bit
/// for bit.
fn check_points(
    model: &Sequential,
    test: &Dataset,
    points: &[(McConfig, Vec<f32>)],
    report: &mut Report,
) {
    for (cfg, accs) in points {
        for (i, &a) in accs.iter().enumerate() {
            report.check((0.0..=1.0).contains(&a), || {
                format!("deployment {i} of seed {}: accuracy {a}", cfg.seed)
            });
        }
    }
    let stride = points.len().div_ceil(CHECKED_POINTS).max(1);
    for (k, (cfg, accs)) in points.iter().enumerate().step_by(stride) {
        let i = k % accs.len();
        let legacy = legacy_accuracy(model, test, cfg, i);
        report.check(legacy.to_bits() == accs[i].to_bits(), || {
            format!(
                "point {k} deployment {i}: engine {} != legacy {legacy}",
                accs[i]
            )
        });
    }
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) {
    let ((model, test), setup_s) = timed_setups(5, || setup(args.seed));
    report.info("deployments_per_point", DEPLOYMENTS);
    report.info("test_images", TEST_IMAGES);
    report.info("sigma", SIGMA);
    let backend = AnalogBackend::lognormal(SIGMA);
    // Warm-up point: thread stacks, allocator pools and caches.
    black_box(monte_carlo(
        &model,
        &test,
        &point_config(args.seed, u64::MAX),
        &backend,
    ));
    if args.trace {
        traced(args, &model, &test, report);
        return;
    }

    let mut points: Vec<(McConfig, Vec<f32>)> = Vec::new();
    let mut walls = Vec::new();
    let start = Instant::now();
    while start.elapsed() < args.budget() {
        let cfg = point_config(args.seed, points.len() as u64);
        let t = Instant::now();
        let result = monte_carlo(&model, &test, &cfg, &backend);
        walls.push(t.elapsed().as_secs_f64() * 1e3);
        points.push((cfg, result.accuracies));
    }
    let wall = start.elapsed().as_secs_f64();
    let deployments = points.len() * DEPLOYMENTS;
    report.attempt(deployments as u64);
    check_points(&model, &test, &points, report);
    let mean_acc = points.iter().flat_map(|(_, a)| a).sum::<f32>() / deployments.max(1) as f32;
    report.info("points", points.len());
    report.info("mean_accuracy", mean_acc);

    let tail = stats::tail_percentile(walls.len()).unwrap_or(50.0);
    report.info("tail_percentile", tail);
    report.set("setup_s", setup_s);
    report.set(
        "peak_rss_mb",
        crate::host::peak_rss_mb("self").unwrap_or(0.0),
    );
    report.set("throughput_per_s", deployments as f64 / wall);
    report.set("p50_ms", stats::median(&walls));
    report.set("tail_ms", stats::percentile(&walls, tail).unwrap_or(0.0));
}

/// A backend that hands out one pre-drawn mask plan, so the replay can
/// time the mask draw and the compile step apart.
struct PreDrawn(Mutex<Option<MaskPlan>>);

impl Backend for PreDrawn {
    fn name(&self) -> String {
        "pre-drawn".to_string()
    }

    fn mask_plan(&self, _model: &Sequential, _rng: &mut SeededRng) -> MaskPlan {
        self.0
            .lock()
            .expect("plan mutex is never poisoned")
            .take()
            .expect("each pre-drawn plan is compiled once")
    }
}

/// One pass of the per-deployment replay; returns the accuracies.
fn replay(
    tracer: &mut Tracer,
    nominal: &Arc<Sequential>,
    test: &Dataset,
    cfg: &McConfig,
) -> Vec<f32> {
    let backend = AnalogBackend::lognormal(cfg.sigma);
    let mut session: Option<Session> = None;
    let mut accs = Vec::with_capacity(cfg.samples);
    for i in 0..cfg.samples {
        let span = tracer.begin("mc.deployment", i as u64);
        let mut rng = SeededRng::new(cfg.seed).fork(i as u64);
        let plan = tracer.scope("analog.mask_draw", i as u64, || {
            backend.mask_plan(nominal, &mut rng)
        });
        let pre = PreDrawn(Mutex::new(Some(plan)));
        let compiled = tracer.scope("analog.compile", i as u64, || {
            CompiledModel::compile_shared(nominal, &pre, &mut rng).shared()
        });
        let acc = tracer.scope("analog.evaluate", i as u64, || {
            let session = match &mut session {
                Some(s) => {
                    s.rebind(compiled);
                    s
                }
                none => none.insert(Session::new(compiled)),
            };
            session.evaluate(test, cfg.batch_size)
        });
        accs.push(acc);
        tracer.end(span);
    }
    accs
}

/// Which per-layer bucket layer `name` belongs to.
fn bucket(name: &str) -> &'static str {
    match name {
        "conv1" => "nn.infer.conv1",
        "conv2" => "nn.infer.conv2",
        n if n.contains("pool") => "nn.infer.pool",
        _ => "nn.infer.fc",
    }
}

/// Steps `model`'s layers on `x` with the `→Relu` fusion of
/// `Sequential::infer`, one span per layer (or fused pair).
fn step_layers(tracer: &mut Tracer, model: &Sequential, x: &Tensor, rep: u64) -> Tensor {
    let mut cur = x.clone();
    let mut i = 0;
    while i < model.len() {
        let layer = model.layer(i);
        let relu_next = i + 1 < model.len() && model.layer(i + 1).as_any().is::<Relu>();
        let span = tracer.begin(bucket(model.layer_name(i)), rep);
        let fused = if relu_next {
            layer.infer_fused_relu(&cur)
        } else {
            None
        };
        match fused {
            Some(y) => {
                cur = y;
                i += 2;
            }
            None => {
                cur = layer.infer(&cur);
                i += 1;
            }
        }
        tracer.end(span);
    }
    cur
}

/// MACs of the layer named `name` at input `x`: output elements times
/// the weights feeding each output.
fn conv_macs(model: &Sequential, name: &str, x: &Tensor) -> f64 {
    let mut cur = x.clone();
    for i in 0..model.len() {
        let out = model.layer(i).infer(&cur);
        if model.layer_name(i) == name {
            let w = &model.layer(i).params()[0].value;
            return out.numel() as f64 * (w.numel() / w.dims()[0]) as f64;
        }
        cur = out;
    }
    0.0
}

fn traced(args: &Args, model: &Sequential, test: &Dataset, report: &mut Report) {
    let nominal = Arc::new(model.clone());
    // Size the replay from one deployment so both passes fit the budget.
    let probe = Instant::now();
    replay(
        &mut Tracer::new(false),
        &nominal,
        test,
        &McConfig {
            samples: 1,
            ..point_config(args.seed, 0)
        },
    );
    let per = probe.elapsed().as_secs_f64().max(1e-3);
    let n = ((args.seconds * 0.3 / per) as usize).clamp(DEPLOYMENTS, 400);
    let cfg = McConfig {
        samples: n,
        ..point_config(args.seed, 0)
    };

    // The untraced twin of the replay; its wall time against the traced
    // pass is the tracing overhead.
    let t = Instant::now();
    let plain = replay(&mut Tracer::new(false), &nominal, test, &cfg);
    let untraced = t.elapsed().as_secs_f64();

    let mut tracer = Tracer::new(true);
    let root = tracer.begin("trace.mc_lenet", 0);
    let t = Instant::now();
    let accs = replay(&mut tracer, &nominal, test, &cfg);
    let traced = t.elapsed().as_secs_f64();
    let engine = monte_carlo(model, test, &cfg, &AnalogBackend::lognormal(SIGMA));
    report.attempt(n as u64);
    for (i, ((a, b), c)) in accs.iter().zip(&plain).zip(&engine.accuracies).enumerate() {
        report.check(
            a.to_bits() == c.to_bits() && b.to_bits() == c.to_bits(),
            || format!("replayed deployment {i}: {a} / {b} != monte_carlo {c}"),
        );
    }

    // Layer stepping at batch 32 on deployment 0.
    let mut rng = SeededRng::new(cfg.seed).fork(0);
    let compiled =
        CompiledModel::compile_shared(&nominal, &AnalogBackend::lognormal(SIGMA), &mut rng);
    let x = test.take(BATCH).images;
    let reference = compiled.infer(&x);
    let reps = 30u64;
    for rep in 0..reps {
        let out = step_layers(&mut tracer, compiled.model(), &x, rep);
        report.check(out == reference, || {
            format!("stepped layers diverge from infer (rep {rep})")
        });
    }

    // Kernel ceilings: a well-shaped GEMM, and the conv lowering.
    let mut krng = SeededRng::new(derive_seed(args.seed, 9));
    let a = krng.normal_tensor(&[256, 256], 0.0, 1.0);
    let b = krng.normal_tensor(&[256, 256], 0.0, 1.0);
    for rep in 0..20 {
        tracer.scope("tensor.gemm.square256", rep, || black_box(a.matmul(&b)));
    }
    let conv1 = Conv2dGeometry {
        in_c: 1,
        in_h: 28,
        in_w: 28,
        kh: 5,
        kw: 5,
        stride: 1,
        pad: 2,
    };
    for rep in 0..30 {
        tracer.scope("tensor.im2col", rep, || black_box(im2col(&x, &conv1)));
    }
    tracer.end(root);

    let spans = tracer.spans();
    let ms = |name: &str| stats::median(&durations(spans, name)) / 1e6;
    let us = |name: &str| stats::median(&durations(spans, name)) / 1e3;
    report.set("analog.mask_draw_ms", ms("analog.mask_draw"));
    report.set("analog.compile_ms", ms("analog.compile"));
    report.set("analog.evaluate_ms", ms("analog.evaluate"));
    report.set("analog.deployments", n as f64);
    // Pool and fc buckets hold several spans per pass: sum per pass.
    let per_pass = |name: &str| {
        let d = durations(spans, name);
        let per = d.len() / reps as usize;
        let sums: Vec<f64> = d.chunks(per.max(1)).map(|c| c.iter().sum()).collect();
        stats::median(&sums) / 1e3
    };
    let conv1_us = us("nn.infer.conv1");
    let conv2_us = us("nn.infer.conv2");
    report.set("nn.infer.conv1_us", conv1_us);
    report.set("nn.infer.conv2_us", conv2_us);
    report.set("nn.infer.pool_us", per_pass("nn.infer.pool"));
    report.set("nn.infer.fc_us", per_pass("nn.infer.fc"));
    report.set(
        "nn.infer.conv1_gmacs",
        conv_macs(compiled.model(), "conv1", &x) / conv1_us / 1e3,
    );
    report.set(
        "nn.infer.conv2_gmacs",
        conv_macs(compiled.model(), "conv2", &x) / conv2_us / 1e3,
    );
    report.set(
        "tensor.gemm.square256_gmacs",
        256f64.powi(3) / us("tensor.gemm.square256") / 1e3,
    );
    report.set("tensor.im2col_us", us("tensor.im2col"));
    report.info("replay_untraced_s", untraced);
    report.info("replay_traced_s", traced);
    finish_trace(
        &tracer,
        0,
        args,
        report,
        (traced - untraced) / untraced * 100.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_accuracy_is_rejected() {
        let data = synthetic_mnist(16, 16, 3);
        let model = lenet5(&LeNetConfig::mnist(4));
        let cfg = McConfig {
            samples: 2,
            sigma: SIGMA,
            batch_size: 8,
            seed: 5,
        };
        let accs =
            monte_carlo(&model, &data.test, &cfg, &AnalogBackend::lognormal(SIGMA)).accuracies;

        let mut clean = Report::new(false);
        check_points(&model, &data.test, &[(cfg, accs.clone())], &mut clean);
        assert_eq!(clean.failed, 0);

        // One ulp off on the checked deployment, and one out of range.
        let mut off = accs.clone();
        off[0] = f32::from_bits(off[0].to_bits() + 1);
        off[1] = 1.5;
        let mut bad = Report::new(false);
        check_points(&model, &data.test, &[(cfg, off)], &mut bad);
        assert_eq!(bad.failed, 2);
    }
}
