//! **Alloc profile**: heap-allocation counts along the inference and
//! serving hot paths — steady-state [`Session::infer_batch`] and the
//! Monte-Carlo [`Session::evaluate`] pass on the calling thread, and the
//! `cn-serve` worker loop — measured with the [`CountingHeap`] counting
//! allocator.
//!
//! The hard *zero allocations per request* contract is pinned by the
//! dedicated test binaries (`cn-analog/tests/zero_alloc_infer.rs`,
//! `cn-serve/tests/zero_alloc_serve.rs`). This experiment is the
//! observability side of the same harness: it reports allocs/request at
//! whatever thread count the process runs with, so a regression shows up
//! as a number, not just a failed assertion. Every row is zero at any
//! `CN_THREADS`: serve workers are `cn_tensor::parallel` workers, so
//! their 32-row batches run inline, and the engine rows' fan-out hands
//! shares to the module's persistent pool, which allocates nothing per
//! call. The engine rows count the calling thread; `zero_alloc_infer`
//! pins the same paths at two threads with every thread counted.
//!
//! Counting requires the binary to install [`CountingHeap`] as its
//! global allocator; `cn-experiments` does. When it is absent (e.g. a
//! custom harness linking the library), the experiment degrades to a
//! note instead of reporting garbage zeros.

use super::{Ctx, Experiment};
use crate::report::ExperimentReport;
use cn_analog::engine::{AnalogBackend, EngineBuilder, Session};
use cn_nn::zoo::{lenet5, mlp, LeNetConfig};
use cn_serve::{ServeConfig, Server};
use cn_tensor::alloc::{CountingHeap, ThreadAllocCounter};
use cn_tensor::SeededRng;
use std::sync::Arc;

/// Allocation-count profiler for the inference and serving hot paths.
pub struct AllocProfile;

/// Steady-state rounds measured per path (after warmup).
const ROUNDS: u64 = 16;
/// Warmup rounds: session scratch + kernel scratch + staging growth, outside the contract.
const WARMUP: usize = 4;

/// The calling thread's allocation counter. Resolved once so the
/// measurement reads (`allocs()`/`bytes()`) are themselves alloc-free —
/// looking it up inside the measured window would charge the lookup's
/// own `String`/`Vec` to the hot path.
fn my_counter() -> Option<&'static ThreadAllocCounter> {
    let name = std::thread::current().name().map(str::to_string);
    CountingHeap::snapshot()
        .into_iter()
        .find(|c| Some(c.name()) == name.as_deref())
}

/// Allocations and bytes charged to `cn-serve-worker-*` threads so far.
fn workers() -> (u64, u64) {
    CountingHeap::snapshot()
        .iter()
        .filter(|c| c.name().starts_with("cn-serve-worker"))
        .fold((0, 0), |(a, b), c| (a + c.allocs(), b + c.bytes()))
}

impl Experiment for AllocProfile {
    fn name(&self) -> &'static str {
        "alloc_profile"
    }

    fn title(&self) -> &'static str {
        "Alloc profile: heap allocations per request on the serving hot paths"
    }

    fn description(&self) -> &'static str {
        "counting-allocator profile of steady-state engine inference and the serve worker loop"
    }

    fn run(&self, ctx: &Ctx) -> ExperimentReport {
        let mut report = ctx.report(self);
        let threads = cn_tensor::parallel::num_threads();
        let counting = CountingHeap::is_counting();
        report.config_num("threads", threads as f64);
        report.config_num("counting_active", if counting { 1.0 } else { 0.0 });
        if !counting {
            report.note("CountingHeap is not this binary's global allocator; allocation");
            report.note("counts are unavailable. Run via `cn-experiments`, which installs it.");
            return report;
        }

        let mut rows = Vec::new();
        let mut row = |report: &mut ExperimentReport,
                       path: &str,
                       key: &str,
                       allocs: u64,
                       bytes: u64,
                       requests: u64| {
            let per_req = allocs as f64 / requests as f64;
            report.metric(&format!("allocs_per_request_{key}"), per_req);
            rows.push(vec![
                path.to_string(),
                requests.to_string(),
                allocs.to_string(),
                format!("{per_req:.3}"),
                bytes.to_string(),
            ]);
        };

        // Engine path: planned Session over an untrained LeNet at the
        // deployment shape, batch 1 and 32, counted on this thread.
        eprintln!("[alloc_profile] engine infer_batch, batch 1 and 32 …");
        let model = lenet5(&LeNetConfig::mnist(3));
        let compiled = EngineBuilder::new(&model).compile().shared();
        let mut session = Session::with_plan(Arc::clone(&compiled), &[1, 28, 28], 32);
        let mut rng = SeededRng::new(ctx.seed ^ 0xa110c);
        let x1 = rng.normal_tensor(&[1, 1, 28, 28], 0.0, 1.0);
        let x32 = rng.normal_tensor(&[32, 1, 28, 28], 0.0, 1.0);
        for _ in 0..WARMUP {
            session.infer_batch(&x1);
            session.infer_batch(&x32);
        }
        let me = my_counter().expect("calling thread has allocated, so its counter exists");
        for (x, key, label) in [
            (&x1, "engine_b1", "engine batch 1"),
            (&x32, "engine_b32", "engine batch 32"),
        ] {
            let (a0, b0) = (me.allocs(), me.bytes());
            for _ in 0..ROUNDS {
                std::hint::black_box(session.infer_batch(x));
            }
            let (a1, b1) = (me.allocs(), me.bytes());
            row(&mut report, label, key, a1 - a0, b1 - b0, ROUNDS);
        }

        // Monte-Carlo path: repeated evaluate passes over a 72-sample test
        // set at batch 32 (ending in a ragged batch), rebinding between two
        // analog deployments as `monte_carlo` does. One request = one
        // evaluated batch.
        eprintln!("[alloc_profile] engine evaluate, batch 32 …");
        let data = cn_data::synthetic_mnist(1, 72, ctx.seed);
        let builder = EngineBuilder::new(&model)
            .backend(AnalogBackend::lognormal(0.5))
            .seed(ctx.seed);
        let pair = [
            builder.compile_instance(0).shared(),
            builder.compile_instance(1).shared(),
        ];
        session.rebind(Arc::clone(&pair[1]));
        session.evaluate(&data.test, 32);
        let (a0, b0) = (me.allocs(), me.bytes());
        for round in 0..ROUNDS as usize {
            session.rebind(Arc::clone(&pair[round % 2]));
            std::hint::black_box(session.evaluate(&data.test, 32));
        }
        let (a1, b1) = (me.allocs(), me.bytes());
        let batches = ROUNDS * data.test.len().div_ceil(32) as u64;
        row(
            &mut report,
            "engine evaluate (batch 32)",
            "engine_evaluate",
            a1 - a0,
            b1 - b0,
            batches,
        );

        // Serve path: one worker over a small MLP head at max_batch 32;
        // each round pipelines 32 requests, which the worker runs in
        // batches of whatever is queued. Counted on the worker threads.
        eprintln!("[alloc_profile] serve worker loop …");
        let head = mlp(&[16, 32, 8], 3);
        let config = ServeConfig::new(32).workers(1);
        let server = Server::over(EngineBuilder::new(&head).compile(), &[16], &config);
        let inputs: Vec<_> = (0..32)
            .map(|_| rng.normal_tensor(&[16], 0.0, 1.0))
            .collect();
        let round = || {
            let tickets: Vec<_> = inputs
                .iter()
                .map(|x| server.submit(x).expect("submit"))
                .collect();
            for ticket in tickets {
                ticket.wait().expect("reply");
            }
        };
        for _ in 0..WARMUP {
            round();
        }
        let (a0, b0) = workers();
        for _ in 0..ROUNDS {
            round();
        }
        let (a1, b1) = workers();
        server.shutdown();
        row(
            &mut report,
            "serve worker loop (max_batch 32)",
            "serve_worker",
            a1 - a0,
            b1 - b0,
            ROUNDS * inputs.len() as u64,
        );

        report.table(
            "steady-state allocation profile (warmup excluded)",
            &["path", "requests", "allocs", "allocs/req", "bytes"],
            rows,
        );
        report.note("Every row is contractually zero at any thread count: serve workers");
        report.note("never fan out (zero_alloc_serve pins it), and the engine rows' fan-out");
        report.note("runs on the persistent kernel pool (zero_alloc_infer pins it at two");
        report.note("threads). Nonzero means the zero-alloc refactor regressed.");
        report
    }
}
