//! **Serving**: the traffic-shaped workload — a [`cn_serve::ShardRouter`]
//! over independent analog deployments behind a dynamic-batching front,
//! measured under a multi-client load generator.
//!
//! This experiment goes beyond the paper's offline accuracy protocol: it
//! demonstrates that (1) dynamic micro-batching buys real throughput over
//! per-request inference on the same shards, (2) redundant majority voting
//! masks per-chip variation at a measurable disagreement rate, and (3)
//! conductance drift degrades shard agreement until the shards are
//! re-programmed — the distributed error-corrected deployment story of
//! the related RRAM scale-out work.

use super::{Ctx, Experiment};
use crate::profile::Pair;
use crate::report::{ExperimentReport, Series, SeriesPoint};
use cn_analog::drift::ConductanceDrift;
use cn_analog::engine::AnalogBackend;
use cn_data::TrainTest;
use cn_nn::layers::{Dense, Flatten, Relu};
use cn_nn::optim::Adam;
use cn_nn::trainer::{TrainConfig, Trainer};
use cn_nn::Sequential;
use cn_serve::{RouterConfig, RouterError, RouterStats, RouterTicket, ServeConfig, ShardRouter};
use cn_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Serving-throughput regenerator.
pub struct Serving;

const SIGMA: f32 = 0.3;
const REPLICAS: usize = 3;
const CLIENTS: usize = 16;
/// In-flight tickets per pipelined client (the request window the
/// batchers coalesce from).
const WINDOW: usize = 64;
/// Field age (in drift-reference units) of the aged majority-vote shards.
const DRIFT_T: f32 = 1.0e5;

/// Outcome of one load-generator run.
pub struct LoadResult {
    /// Served requests per second of wall clock.
    pub throughput_rps: f64,
    /// Replies whose class matched the sample's label.
    pub hits: usize,
    /// Requests served.
    pub total: usize,
    /// The router's stats after the run.
    pub stats: RouterStats,
}

/// Pipelined load generator: `clients` threads each keep up to `window`
/// tickets in flight, submitted through [`ShardRouter::route`], so the
/// shard batchers always have requests to coalesce. `Overloaded` is
/// backpressure: the client drains one in-flight reply and retries.
/// Serves `total` requests, cycling through `samples` (sample, label);
/// panics on any serving error other than backpressure.
pub fn drive_pipelined(
    router: &ShardRouter,
    samples: &[(Tensor, usize)],
    total: usize,
    clients: usize,
    window: usize,
) -> LoadResult {
    let next = AtomicUsize::new(0);
    let hits = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut inflight: VecDeque<(usize, RouterTicket)> = VecDeque::new();
                let drain = |inflight: &mut VecDeque<(usize, RouterTicket)>| {
                    if let Some((label, ticket)) = inflight.pop_front() {
                        let reply = ticket.wait().expect("worker dropped a request");
                        if reply.class == label {
                            hits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                };
                let mut exhausted = false;
                while !exhausted || !inflight.is_empty() {
                    while !exhausted && inflight.len() < window {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            exhausted = true;
                            break;
                        }
                        let (sample, label) = &samples[i % samples.len()];
                        let ticket = loop {
                            match router.route(sample) {
                                Ok(ticket) => break ticket,
                                Err(RouterError::Overloaded) => {
                                    drain(&mut inflight);
                                    std::thread::yield_now();
                                }
                                Err(e) => panic!("load generator hit a serving error: {e}"),
                            }
                        };
                        inflight.push_back((*label, ticket));
                    }
                    drain(&mut inflight);
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    LoadResult {
        throughput_rps: total as f64 / elapsed,
        hits: hits.load(Ordering::Relaxed),
        total,
        stats: router.stats(),
    }
}

/// Synchronous (closed-loop) load generator: [`CLIENTS`] threads issue
/// one [`ShardRouter::vote`] at a time — the latency-shaped workload the
/// majority-vote runs use.
fn drive(router: &ShardRouter, samples: &[(Tensor, usize)], total: usize) -> LoadResult {
    let next = AtomicUsize::new(0);
    let hits = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let (sample, label) = &samples[i % samples.len()];
                let reply = loop {
                    match router.vote(sample) {
                        Ok(reply) => break reply,
                        Err(RouterError::Overloaded) => std::thread::yield_now(),
                        Err(e) => panic!("load generator hit a serving error: {e}"),
                    }
                };
                if reply.class == *label {
                    hits.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    LoadResult {
        throughput_rps: total as f64 / elapsed,
        hits: hits.load(Ordering::Relaxed),
        total,
        stats: router.stats(),
    }
}

/// The throughput workload: an edge-sized MLP head over flattened MNIST
/// pixels, trained in a couple hundred milliseconds. Its per-sample
/// compute is small enough that per-request serving overhead (queue
/// wakeups, locks, reply scatter) is a visible cost — exactly the regime
/// dynamic micro-batching amortizes. (The conv LeNet's multi-millisecond
/// per-sample compute swamps that overhead, so it demonstrates the
/// health/redundancy story instead.)
fn throughput_model(data: &TrainTest, seed: u64) -> Sequential {
    let mut rng = cn_tensor::SeededRng::new(seed);
    let mut model = Sequential::new(vec![
        Box::new(Flatten::new()),
        Box::new(Dense::new(784, 48, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(48, 10, &mut rng)),
    ]);
    Trainer::new(TrainConfig::new(4, 32, seed ^ 0x77a1)).fit(
        &mut model,
        &data.train,
        &mut Adam::new(2e-3),
    );
    model
}

impl Experiment for Serving {
    fn name(&self) -> &'static str {
        "serving"
    }

    fn title(&self) -> &'static str {
        "Serving: dynamic-batching shard router under a multi-client load generator"
    }

    fn description(&self) -> &'static str {
        "micro-batching throughput, latency percentiles and majority-vote health of analog shards"
    }

    fn run(&self, ctx: &Ctx) -> ExperimentReport {
        let mut report = ctx.report(self);
        let requests = ctx.scale.mc_samples() * 1024; // quick: 12288 requests
        report.config_num("sigma", SIGMA as f64);
        report.config_num("replicas", REPLICAS as f64);
        report.config_num("clients", CLIENTS as f64);
        report.config_num("requests", requests as f64);

        let (model, data) = ctx.plain_base(Pair::LeNet5Mnist);
        let sample_dims = data.test.sample_dims().to_vec();
        let pool = data.test.len().min(256);
        let samples: Vec<(Tensor, usize)> = (0..pool)
            .map(|i| {
                let sample = data.test.images.batch_slice(i, i + 1).reshape(&sample_dims);
                (sample, data.test.labels[i])
            })
            .collect();
        let backend = AnalogBackend::lognormal(SIGMA);

        // Throughput: routed shards serving the edge-sized MLP head,
        // per-request vs micro-batched.
        eprintln!("[serving] training the throughput workload head …");
        let mlp_head = throughput_model(&data, ctx.seed);
        let mut table_rows = Vec::new();
        let mut curve = Vec::new();
        let mut throughputs = Vec::new();
        for max_batch in [1usize, 32] {
            eprintln!("[serving] routed load run, max_batch = {max_batch} …");
            let config = RouterConfig::new(
                ServeConfig::new(max_batch)
                    .workers(2)
                    .queue_capacity(64 * max_batch),
            );
            let shard_set = || {
                ShardRouter::new(
                    &mlp_head,
                    backend.clone(),
                    REPLICAS,
                    ctx.seed ^ 0x5e17e,
                    &sample_dims,
                    &config,
                )
            };
            // Warm up on a throwaway router, then measure on a fresh one so
            // the reported stats exclude cold-start latencies.
            let warmup = shard_set();
            drive_pipelined(&warmup, &samples, requests / 8, CLIENTS, WINDOW);
            warmup.shutdown();
            let router = shard_set();
            let result = drive_pipelined(&router, &samples, requests, CLIENTS, WINDOW);
            router.shutdown();
            let (served, _, p50, p95, p99) = result.stats.aggregate();
            let [p50, p95, p99] = [p50, p95, p99].map(|us| us / 1000.0);
            let shards = &result.stats.shards;
            let filled: f64 = shards
                .iter()
                .map(|s| s.requests as f64 * s.batch_fill)
                .sum();
            let fill = filled / served.max(1) as f64;
            report.metric(
                &format!("throughput_rps_b{max_batch}"),
                result.throughput_rps,
            );
            report.metric(&format!("p50_ms_b{max_batch}"), p50);
            report.metric(&format!("p95_ms_b{max_batch}"), p95);
            report.metric(&format!("p99_ms_b{max_batch}"), p99);
            report.metric(&format!("batch_fill_b{max_batch}"), fill);
            table_rows.push(vec![
                max_batch.to_string(),
                format!("{:.0}", result.throughput_rps),
                format!("{p50:.2}"),
                format!("{p95:.2}"),
                format!("{p99:.2}"),
                format!("{fill:.2}"),
                format!("{:.3}", result.hits as f64 / result.total as f64),
            ]);
            curve.push(SeriesPoint {
                x: max_batch as f64,
                mean: result.throughput_rps,
                std: 0.0,
            });
            throughputs.push(result.throughput_rps);
        }
        report.series.push(Series {
            label: "throughput vs max_batch".to_string(),
            points: curve,
        });
        report.metric(
            "batching_speedup",
            throughputs[1] / throughputs[0].max(1e-9),
        );
        report.table(
            "routed shards under load",
            &[
                "max_batch",
                "req/s",
                "p50 ms",
                "p95 ms",
                "p99 ms",
                "batch fill",
                "accuracy",
            ],
            table_rows,
        );

        // Redundancy: majority-vote shard sets with *matched* variation
        // draws. Both re-deploy to generation 1 with identical RNG
        // streams — the control via `reprogram` (log-normal masks only),
        // the aged one via `recompile_drifted` (the same log-normal masks
        // composed with per-device drift at t = 1e5) — so the drift
        // contribution to vote disagreement is isolated, not confounded
        // with a fresh variation draw.
        let majority_requests = requests / 8;
        let config = RouterConfig::new(ServeConfig::new(32).workers(2));
        let voting = || {
            ShardRouter::new(
                &model,
                backend.clone(),
                REPLICAS,
                ctx.seed ^ 0xf1ee7,
                &sample_dims,
                &config,
            )
        };
        eprintln!("[serving] majority-vote run ({majority_requests} requests) …");
        let router = voting();
        router.reprogram();
        let fresh = drive(&router, &samples, majority_requests);
        let fresh_rate = router.vote_disagreement_rate();
        router.shutdown();

        eprintln!("[serving] drifted majority-vote run …");
        let drifted_router = voting();
        drifted_router.recompile_drifted(&ConductanceDrift::new(0.05, 0.05, 1.0), DRIFT_T);
        let drifted = drive(&drifted_router, &samples, majority_requests);
        let drifted_rate = drifted_router.vote_disagreement_rate();
        drifted_router.shutdown();

        report.metric("vote_disagreement", fresh_rate);
        report.metric("vote_disagreement_drifted", drifted_rate);
        report.metric("majority_accuracy", fresh.hits as f64 / fresh.total as f64);
        report.metric(
            "majority_accuracy_drifted",
            drifted.hits as f64 / drifted.total as f64,
        );
        report.table(
            "majority-vote shard health",
            &["deployments", "disagreement", "accuracy"],
            vec![
                vec![
                    "fresh".to_string(),
                    format!("{fresh_rate:.3}"),
                    format!("{:.3}", fresh.hits as f64 / fresh.total as f64),
                ],
                vec![
                    format!("drifted (t = {DRIFT_T:.0e})"),
                    format!("{drifted_rate:.3}"),
                    format!("{:.3}", drifted.hits as f64 / drifted.total as f64),
                ],
            ],
        );

        report.note("Reproduction checks: (1) micro-batching (max_batch = 32) outperforms");
        report.note("per-request serving (max_batch = 1) on the same shards by amortizing");
        report.note("per-request overhead (queue wakeups, locks, reply scatter) across the");
        report.note("batch; (2) redundant majority voting reports a per-chip");
        report.note("vote-disagreement rate that grows once conductance drift ages the");
        report.note("deployments (matched variation draws, drift isolated).");
        report.note("Throughput rows serve the small MLP head; the majority/drift health");
        report.note("rows serve the trained LeNet shards.");
        if throughputs[1] <= throughputs[0] {
            report.note(format!(
                "WARNING: batching speedup not observed ({:.0} vs {:.0} req/s)",
                throughputs[1], throughputs[0]
            ));
        }
        report
    }
}
