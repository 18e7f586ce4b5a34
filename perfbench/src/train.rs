//! `train_lenet`: CorrectNet stage 1 then stage 4 on LeNet-5 — what every
//! placement-search rollout pays for.
//!
//! A job trains a fresh LeNet-5 with `CorrectNetStages::train_base` (plain
//! epochs, then Lipschitz-regularized epochs), wraps layers 0 and 1 with
//! `CompensationPlan::uniform(&[0, 1], 0.5)` and trains the compensators
//! with `train_compensators`, which redraws variation masks before every
//! batch. The traced run replays `Trainer::fit` from public calls with a
//! span around each layer call.

use crate::trace::{durations, Tracer};
use crate::{derive_seed, finish_trace, stats, timed_setups, Args, Report};
use cn_data::{synthetic_mnist, BatchIter, Dataset};
use cn_nn::loss::softmax_cross_entropy;
use cn_nn::noise::apply_lognormal;
use cn_nn::optim::{Adam, Optimizer};
use cn_nn::trainer::{epoch_shuffle_rng, EpochStats};
use cn_nn::zoo::{lenet5, LeNetConfig};
use cn_nn::Sequential;
use cn_tensor::{SeededRng, Tensor};
use correctnet::compensation::{
    apply_compensation, freeze_all_but_compensation, train_compensators, CompensationPlan,
    CompensationTrainConfig,
};
use correctnet::{CorrectNetConfig, CorrectNetStages, LipschitzRegularizer};
use std::time::Instant;

/// Variation level the compensators train against.
const SIGMA: f32 = 0.5;
/// Training images per job.
const TRAIN_IMAGES: usize = 512;
/// Mini-batch size everywhere.
const BATCH: usize = 32;
/// Stage 1: plain epochs, then Lipschitz-regularized epochs.
const BASE_EPOCHS: usize = 2;
const REG_EPOCHS: usize = 1;
/// Stage 4: compensator epochs.
const COMP_EPOCHS: usize = 2;
/// Lipschitz penalty strength β.
const BETA: f32 = 1e-3;
/// Learning rate of both stages (stage 1's regularized phase uses half).
const LR: f32 = 2e-3;
/// Weight layers that receive compensation, and the generator ratio.
const COMP_LAYERS: [usize; 2] = [0, 1];
const COMP_RATIO: f32 = 0.5;

fn stage_config(seed: u64) -> CorrectNetConfig {
    CorrectNetConfig {
        sigma: SIGMA,
        beta: BETA,
        base_epochs: BASE_EPOCHS,
        reg_epochs: REG_EPOCHS,
        base_lr: LR,
        comp_epochs: COMP_EPOCHS,
        comp_lr: LR,
        batch_size: BATCH,
        mc_samples: 1,
        threshold: 0.95,
        seed,
    }
}

fn comp_config(seed: u64) -> CompensationTrainConfig {
    CompensationTrainConfig {
        sigma: SIGMA,
        epochs: COMP_EPOCHS,
        batch_size: BATCH,
        lr: LR,
        seed,
    }
}

/// Images one job processes, over all epochs of both stages.
fn images_per_job() -> usize {
    TRAIN_IMAGES * (BASE_EPOCHS + REG_EPOCHS + COMP_EPOCHS)
}

/// A job's outcome, for the output checks.
struct Job {
    base: Vec<EpochStats>,
    comp: Vec<EpochStats>,
    /// Base entries whose value changed during compensator training.
    base_changed: Vec<String>,
}

/// Every base state-dict entry must survive compensator training bit
/// for bit; wrapped layers keep their entries under `<layer>_comp.`.
fn changed_base_entries(base: &Sequential, comp: &Sequential) -> Vec<String> {
    let after: std::collections::HashMap<String, Tensor> = comp.state_dict().into_iter().collect();
    base.state_dict()
        .into_iter()
        .filter(|(name, value)| {
            let wrapped = name
                .split_once('.')
                .map(|(layer, rest)| format!("{layer}_comp.{rest}"));
            let found = after
                .get(name)
                .or_else(|| wrapped.as_ref().and_then(|w| after.get(w)));
            found != Some(value)
        })
        .map(|(name, _)| name)
        .collect()
}

fn job(model0: &Sequential, train: &Dataset, seed: u64) -> Job {
    let stages = CorrectNetStages::new(stage_config(seed));
    let mut model = model0.clone();
    let base = stages.train_base(&mut model, train);
    let plan = CompensationPlan::uniform(&COMP_LAYERS, COMP_RATIO);
    let mut comp = apply_compensation(&model, &plan, derive_seed(seed, 1));
    let stats = train_compensators(&mut comp, train, &comp_config(derive_seed(seed, 2)));
    Job {
        base,
        comp: stats,
        base_changed: changed_base_entries(&model, &comp),
    }
}

/// Every epoch loss is finite, and (when `decreasing`) the last is below
/// the first. Stage 4 is only held to finite losses: with masks redrawn
/// before every batch, its epoch loss rises in about one job in four at
/// this scale.
fn losses_ok(losses: &[f32], decreasing: bool) -> bool {
    losses.iter().all(|l| l.is_finite())
        && (!decreasing || (losses.len() >= 2 && losses[losses.len() - 1] < losses[0]))
}

fn epoch_losses(stats: &[EpochStats]) -> Vec<f32> {
    stats.iter().map(|s| s.loss).collect()
}

fn setup(seed: u64) -> (Sequential, Dataset) {
    let data = synthetic_mnist(TRAIN_IMAGES, BATCH, derive_seed(seed, 1));
    (
        lenet5(&LeNetConfig::mnist(derive_seed(seed, 2))),
        data.train,
    )
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) {
    let ((model0, train), setup_s) = timed_setups(25, || setup(args.seed));
    report.info("train_images", TRAIN_IMAGES);
    report.info("images_per_job", images_per_job());
    if args.trace {
        traced(args, &model0, &train, report);
        return;
    }
    // Warm-up job: allocator pools and caches.
    job(&model0, &train, derive_seed(args.seed, 99));

    let mut walls = Vec::new();
    let mut jobs = Vec::new();
    let start = Instant::now();
    while start.elapsed() < args.budget() {
        let t = Instant::now();
        jobs.push(job(
            &model0,
            &train,
            derive_seed(args.seed, 100 + jobs.len() as u64),
        ));
        walls.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let wall = start.elapsed().as_secs_f64();
    report.attempt(jobs.len() as u64);
    for (k, j) in jobs.iter().enumerate() {
        let (base, comp) = (epoch_losses(&j.base), epoch_losses(&j.comp));
        report.check(losses_ok(&base, true), || {
            format!("job {k}: stage-1 losses not finite and decreasing: {base:?}")
        });
        report.check(losses_ok(&comp, false), || {
            format!("job {k}: stage-4 losses not finite: {comp:?}")
        });
        report.check(j.base_changed.is_empty(), || {
            format!(
                "job {k}: compensator training changed base entries {:?}",
                j.base_changed
            )
        });
    }
    report.info("jobs", jobs.len());
    let tail = stats::tail_percentile(walls.len()).unwrap_or(50.0);
    report.info("tail_percentile", tail);
    report.set("setup_s", setup_s);
    report.set(
        "peak_rss_mb",
        crate::host::peak_rss_mb("self").unwrap_or(0.0),
    );
    report.set(
        "throughput_per_s",
        (jobs.len() * images_per_job()) as f64 / wall,
    );
    report.set("p50_ms", stats::median(&walls));
    report.set("tail_ms", stats::percentile(&walls, tail).unwrap_or(0.0));
}

/// One epoch-loop of `Trainer::fit`, replayed from public calls with a
/// span around each layer call. `resample` redraws variation masks before
/// each batch; `reg` adds the Lipschitz penalty after the backward pass.
#[allow(clippy::too_many_arguments)]
fn replay_fit(
    tracer: &mut Tracer,
    model: &mut Sequential,
    data: &Dataset,
    opt: &mut dyn Optimizer,
    epochs: usize,
    shuffle_seed: u64,
    train_mode: bool,
    reg: Option<&LipschitzRegularizer>,
    mut resample: Option<&mut SeededRng>,
) -> Vec<f32> {
    let mut losses = Vec::with_capacity(epochs);
    let mut batch_id = 0u64;
    for epoch in 0..epochs {
        let mut shuffle = epoch_shuffle_rng(shuffle_seed, epoch);
        let mut sum = 0.0f64;
        let mut batches = 0usize;
        for (x, y) in BatchIter::with_rng(data, BATCH, &mut shuffle) {
            let span = tracer.begin("nn.train.batch", batch_id);
            if let Some(rng) = resample.as_deref_mut() {
                tracer.scope("nn.noise.resample", batch_id, || {
                    apply_lognormal(model, SIGMA, rng)
                });
            }
            model.zero_grad();
            let fwd = tracer.begin("nn.train.forward", batch_id);
            let mut cur = x;
            for i in 0..model.len() {
                let s = tracer.begin(layer_span(i, true), batch_id);
                cur = model.layer_mut(i).forward(&cur, train_mode);
                tracer.end(s);
            }
            tracer.end(fwd);
            let (loss, grad) = softmax_cross_entropy(&cur, &y);
            let bwd = tracer.begin("nn.train.backward", batch_id);
            let mut g = grad;
            for i in (0..model.len()).rev() {
                let s = tracer.begin(layer_span(i, false), batch_id);
                g = model.layer_mut(i).backward(&g);
                tracer.end(s);
            }
            tracer.end(bwd);
            if let Some(reg) = reg {
                tracer.scope("core.lipschitz", batch_id, || reg.apply(model));
            }
            tracer.scope("nn.optim", batch_id, || opt.step(&mut model.params_mut()));
            tracer.end(span);
            sum += loss as f64;
            batches += 1;
            batch_id += 1;
        }
        losses.push((sum / batches.max(1) as f64) as f32);
    }
    losses
}

/// Span name of layer `i` of LeNet-5 (conv1 is layer 0, conv2 layer 3).
fn layer_span(i: usize, forward: bool) -> &'static str {
    match (i, forward) {
        (0, true) => "nn.train.conv1_fwd",
        (0, false) => "nn.train.conv1_bwd",
        (3, true) => "nn.train.conv2_fwd",
        (3, false) => "nn.train.conv2_bwd",
        (_, true) => "nn.train.layer_fwd",
        (_, false) => "nn.train.layer_bwd",
    }
}

/// One job replayed: stage 1 (plain then regularized epochs) and stage 4
/// (frozen base, per-batch resampling). Returns every epoch's loss.
fn replay_job(
    tracer: &mut Tracer,
    model0: &Sequential,
    train: &Dataset,
    seed: u64,
) -> Vec<Vec<f32>> {
    let mut model = model0.clone();
    let mut opt = Adam::new(LR);
    let plain = replay_fit(
        tracer,
        &mut model,
        train,
        &mut opt,
        BASE_EPOCHS,
        seed,
        true,
        None,
        None,
    );
    let reg = LipschitzRegularizer::for_sigma(BETA, SIGMA);
    let mut opt = Adam::new(LR / 2.0);
    let regd = replay_fit(
        tracer,
        &mut model,
        train,
        &mut opt,
        REG_EPOCHS,
        derive_seed(seed, 1),
        true,
        Some(&reg),
        None,
    );
    let plan = CompensationPlan::uniform(&COMP_LAYERS, COMP_RATIO);
    let mut comp = apply_compensation(&model, &plan, derive_seed(seed, 2));
    freeze_all_but_compensation(&mut comp);
    let mut noise = SeededRng::new(derive_seed(seed, 3));
    let mut opt = Adam::new(LR);
    let comped = replay_fit(
        tracer,
        &mut comp,
        train,
        &mut opt,
        COMP_EPOCHS,
        derive_seed(seed, 4),
        false,
        None,
        Some(&mut noise),
    );
    vec![plain.into_iter().chain(regd).collect(), comped]
}

fn traced(args: &Args, model0: &Sequential, train: &Dataset, report: &mut Report) {
    let seed = derive_seed(args.seed, 100);
    let jobs = 2u64;
    // A warm-up job, the untraced twin, then the traced pass.
    replay_job(
        &mut Tracer::new(false),
        model0,
        train,
        derive_seed(seed, jobs),
    );
    let t = Instant::now();
    for k in 0..jobs {
        replay_job(&mut Tracer::new(false), model0, train, derive_seed(seed, k));
    }
    let untraced = t.elapsed().as_secs_f64();
    let mut tracer = Tracer::new(true);
    let root = tracer.begin("trace.train_lenet", 0);
    let t = Instant::now();
    let mut all_losses = Vec::new();
    for k in 0..jobs {
        let span = tracer.begin("train.job", k);
        all_losses.push(replay_job(&mut tracer, model0, train, derive_seed(seed, k)));
        tracer.end(span);
    }
    let traced = t.elapsed().as_secs_f64();
    tracer.end(root);
    report.attempt(jobs);
    for (k, stages) in all_losses.iter().enumerate() {
        for (stage, losses) in stages.iter().enumerate() {
            report.check(losses_ok(losses, stage == 0), || {
                format!(
                    "replayed job {k} stage {}: losses {losses:?}",
                    if stage == 0 { 1 } else { 4 }
                )
            });
        }
    }

    let spans = tracer.spans();
    let ms = |name: &str| stats::median(&durations(spans, name)) / 1e6;
    let us = |name: &str| stats::median(&durations(spans, name)) / 1e3;
    report.set("nn.train.forward_ms", ms("nn.train.forward"));
    report.set("nn.train.backward_ms", ms("nn.train.backward"));
    report.set("nn.train.conv1_fwd_us", us("nn.train.conv1_fwd"));
    report.set("nn.train.conv1_bwd_us", us("nn.train.conv1_bwd"));
    report.set("nn.train.conv2_fwd_us", us("nn.train.conv2_fwd"));
    report.set("nn.train.conv2_bwd_us", us("nn.train.conv2_bwd"));
    report.set("core.lipschitz_ms", ms("core.lipschitz"));
    report.set("nn.optim_ms", ms("nn.optim"));
    report.set("nn.noise.resample_ms", ms("nn.noise.resample"));
    report.set(
        "nn.train.batches",
        durations(spans, "nn.train.batch").len() as f64,
    );
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
