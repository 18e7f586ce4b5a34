//! **Net serving**: the full network path — framed TCP requests through
//! the [`cn_net::Frontend`], pick-two-least-loaded shard routing, and
//! the dynamic-batching servers — measured with the cn-net load
//! generator over loopback.
//!
//! Where the `serving` experiment drives the in-process router API,
//! this one pays the whole wire cost (frame codec, kernel TCP, handler
//! pool, admission queue) and answers two deployment questions the
//! in-process numbers cannot: (1) how throughput scales with shard
//! count when every request arrives over a socket, and (2) what
//! client-observed latency looks like under an *open-loop* arrival
//! schedule, which — unlike closed-loop driving — does not let a slow
//! server pace its own load (no coordinated omission).

use super::{Ctx, Experiment};
use crate::report::{ExperimentReport, Series, SeriesPoint};
use cn_analog::engine::AnalogBackend;
use cn_net::{Frontend, FrontendConfig, LoadgenConfig, Mode, RouterConfig, ShardRouter};
use cn_serve::ServeConfig;
use std::sync::Arc;

/// Network-serving regenerator.
pub struct NetServing;

const SIGMA: f32 = 0.3;
const SHARD_SWEEP: [usize; 3] = [1, 2, 4];
const CONNECTIONS: usize = 8;
const WINDOW: usize = 8;
const BATCH_ROWS: usize = 2;
const SAMPLE_DIMS: [usize; 1] = [32];
/// Open-loop arrival rate as a fraction of the measured closed-loop
/// capacity — high enough to exercise batching, low enough that the
/// schedule stays feasible and latency reflects service time, not an
/// unbounded queue.
const OPEN_LOOP_UTILIZATION: f64 = 0.5;

/// One loadgen pass against a fresh loopback frontend; returns the
/// report and tears the whole stack down (drain → join → shutdown).
fn drive(
    model: &cn_nn::Sequential,
    backend: &AnalogBackend,
    shards: usize,
    seed: u64,
    load: &LoadgenConfig,
) -> cn_net::LoadgenReport {
    let serve = ServeConfig::new(8).workers(2);
    let router = Arc::new(ShardRouter::new(
        model,
        backend.clone(),
        shards,
        seed,
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
    drop(router);
    let report = cn_net::loadgen::run(addr, load).expect("loadgen run");
    frontend.drain();
    match Arc::try_unwrap(frontend.join()) {
        Ok(router) => router.shutdown(),
        Err(_) => unreachable!("all frontend threads exited"),
    }
    report
}

impl Experiment for NetServing {
    fn name(&self) -> &'static str {
        "net_serving"
    }

    fn title(&self) -> &'static str {
        "Net serving: TCP frontend + shard router under the cn-net load generator"
    }

    fn description(&self) -> &'static str {
        "wire-to-wire throughput scaling across shards and open-loop latency over loopback TCP"
    }

    fn run(&self, ctx: &Ctx) -> ExperimentReport {
        let mut report = ctx.report(self);
        let requests = ctx.scale.mc_samples() * 256; // quick: 3072 requests
        report.config_num("sigma", SIGMA as f64);
        report.config_num("connections", CONNECTIONS as f64);
        report.config_num("requests", requests as f64);
        report.config_num("batch_rows", BATCH_ROWS as f64);
        report.config_num("window", WINDOW as f64);

        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        report.config_num("host_cores", cores as f64);

        let model = cn_nn::zoo::mlp(&[32, 48, 10], ctx.seed);
        let backend = AnalogBackend::lognormal(SIGMA);

        let mut load = LoadgenConfig::new(&SAMPLE_DIMS);
        load.connections = CONNECTIONS;
        load.requests = requests;
        load.batch_rows = BATCH_ROWS;
        load.mode = Mode::Closed { window: WINDOW };
        load.seed = ctx.seed ^ 0x4e7;

        // Closed-loop shard sweep: capacity scaling over real sockets.
        let mut table_rows = Vec::new();
        let mut curve = Vec::new();
        let mut throughputs = Vec::new();
        for shards in SHARD_SWEEP {
            eprintln!("[net_serving] closed-loop run, shards = {shards} …");
            let r = drive(&model, &backend, shards, ctx.seed ^ 0x5e17e, &load);
            assert_eq!(r.mispaired, 0, "reply mispairing over loopback: {r:?}");
            report.metric(&format!("throughput_rps_s{shards}"), r.throughput_rps);
            report.metric(&format!("p50_ms_s{shards}"), r.p50_us / 1000.0);
            report.metric(&format!("p99_ms_s{shards}"), r.p99_us / 1000.0);
            table_rows.push(vec![
                shards.to_string(),
                format!("{:.0}", r.throughput_rps),
                format!("{:.2}", r.p50_us / 1000.0),
                format!("{:.2}", r.p95_us / 1000.0),
                format!("{:.2}", r.p99_us / 1000.0),
                r.backpressured.to_string(),
                format!("{}", r.completed),
            ]);
            curve.push(SeriesPoint {
                x: shards as f64,
                mean: r.throughput_rps,
                std: 0.0,
            });
            throughputs.push(r.throughput_rps);
        }
        report.series.push(Series {
            label: "closed-loop throughput vs shards".to_string(),
            points: curve,
        });
        report.metric(
            "shard_scaling",
            throughputs[SHARD_SWEEP.len() - 1] / throughputs[0].max(1e-9),
        );
        report.table(
            "closed-loop shard sweep (loopback TCP)",
            &[
                "shards",
                "req/s",
                "p50 ms",
                "p95 ms",
                "p99 ms",
                "backpressured",
                "completed",
            ],
            table_rows,
        );

        // Open-loop run on the widest fleet at a feasible fraction of
        // the measured closed-loop capacity: arrival times come from a
        // fixed schedule, so queueing delay is charged to latency
        // instead of silently slowing the generator down.
        let capacity = throughputs[SHARD_SWEEP.len() - 1];
        let qps = (capacity * OPEN_LOOP_UTILIZATION).max(50.0);
        eprintln!("[net_serving] open-loop run at {qps:.0} req/s …");
        let mut open = load.clone();
        open.requests = requests / 2;
        open.mode = Mode::Open { qps };
        let r = drive(
            &model,
            &backend,
            SHARD_SWEEP[SHARD_SWEEP.len() - 1],
            ctx.seed ^ 0x5e17e,
            &open,
        );
        assert_eq!(r.mispaired, 0, "reply mispairing over loopback: {r:?}");
        report.metric("open_loop_qps", qps);
        report.metric("open_loop_throughput_rps", r.throughput_rps);
        report.metric("open_loop_p50_ms", r.p50_us / 1000.0);
        report.metric("open_loop_p95_ms", r.p95_us / 1000.0);
        report.metric("open_loop_p99_ms", r.p99_us / 1000.0);
        report.metric("open_loop_lost", r.lost as f64);
        report.table(
            "open-loop latency (coordinated-omission-free)",
            &[
                "target req/s",
                "req/s",
                "p50 ms",
                "p95 ms",
                "p99 ms",
                "lost",
            ],
            vec![vec![
                format!("{qps:.0}"),
                format!("{:.0}", r.throughput_rps),
                format!("{:.2}", r.p50_us / 1000.0),
                format!("{:.2}", r.p95_us / 1000.0),
                format!("{:.2}", r.p99_us / 1000.0),
                r.lost.to_string(),
            ]],
        );

        report.note("Reproduction checks: (1) the shard sweep shows what");
        report.note("pick-two-least-loaded routing costs/buys as framed TCP requests");
        report.note("spread across independent dynamic-batching servers; (2) zero");
        report.note("mispaired replies across every run (request-id pinning holds under");
        report.note("load); (3) the open-loop schedule at half the measured capacity");
        report.note("completes without losses, with queueing delay charged to latency.");
        if cores == 1 {
            report.note("Single-core host: the shard sweep measures routing overhead only;");
            report.note("parallel throughput scaling needs cores >= shards x workers.");
        } else if throughputs[SHARD_SWEEP.len() - 1] <= throughputs[0] {
            report.note(format!(
                "WARNING: shard scaling not observed ({:.0} vs {:.0} req/s)",
                throughputs[SHARD_SWEEP.len() - 1],
                throughputs[0]
            ));
        }
        report
    }
}
