//! `serve_light` and `serve_heavy`: a `cn-netd` child process serving an
//! MLP, driven by the benchmark's open-loop client.
//!
//! Each run starts [`CHILDREN`] daemons one after another; each set-up
//! (start, connect, warm-up) is one `setup_s` sample. `serve_light` offers
//! [`LIGHT_RPS`], where the 1 ms batching window dominates latency;
//! `serve_heavy` offers [`HEAVY_RPS`], and its traced run then climbs a
//! rate ladder for the highest rate whose p99 meets [`LIMIT_MS`] with
//! every request answered and no growing backlog. Every reply is checked
//! against the benchmark's own `Sequential::infer` of the same row.

use crate::client::{run_phase, PhaseOutcome, RequestPool};
use crate::trace::{durations, Tracer};
use crate::{derive_seed, finish_trace, stats, Args, Report};
use cn_analog::engine::{DigitalBackend, EngineBuilder, Session};
use cn_net::frame::{
    decode, encode_infer_reply_into, encode_into, write_frame, Frame, Payload, DEFAULT_MAX_PAYLOAD,
};
use cn_net::{FrameReader, PollFrame, RouterConfig, ShardRouter};
use cn_nn::zoo::mlp;
use cn_nn::Sequential;
use cn_serve::ServeConfig;
use cn_tensor::{SeededRng, Tensor};
use correctnet::export::json::Json;
use std::hint::black_box;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Served MLP widths; the first is the request row length.
const LAYERS: [usize; 4] = [32, 256, 256, 10];
/// Offered rate of `serve_light` (requests per second).
pub const LIGHT_RPS: f64 = 1000.0;
/// Offered rate of `serve_heavy`, and the ladder's first rung.
pub const HEAVY_RPS: f64 = 6000.0;
/// p99 latency limit of a ladder rung.
pub const LIMIT_MS: f64 = 5.0;
/// Ladder growth per rung, and the most rungs climbed in one direction.
const LADDER_STEP: f64 = 1.3;
const MAX_RUNGS: usize = 16;
/// Daemons started per run; each figure is the median over them, so one
/// daemon hit by a scheduling hiccup on the shared host does not move it.
const CHILDREN: usize = 7;
/// Distinct request rows in the input pool.
const POOL_ROWS: usize = 1024;
/// Warm-up requests per daemon, at the light rate.
const WARMUP: usize = 200;
/// Per-shard admission queue capacity. A sender stalled by the host
/// catches up with a burst of every request that fell due meanwhile; at
/// the default 64 a 60 ms stall at 6000 req/s sheds about a hundred of
/// them. 1024 per shard absorbs a stall of about a third of a second.
const QUEUE: usize = 1024;

/// Which fixed rate the workload offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// [`LIGHT_RPS`].
    Light,
    /// [`HEAVY_RPS`] plus the rate ladder.
    Heavy,
}

/// `cn-netd` flags for seed `seed` (the seed picks the MLP's weights).
fn netd_flags(seed: u64) -> Vec<String> {
    let layers: Vec<String> = LAYERS.iter().map(|w| w.to_string()).collect();
    [
        "--addr",
        "127.0.0.1:0",
        "--layers",
        &layers.join(","),
        "--shards",
        "2",
        "--workers",
        "1",
        "--handlers",
        "2",
        "--queue",
        &QUEUE.to_string(),
        "--sigma",
        "0",
        "--seed",
        &seed.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// The model `cn-netd --seed seed` serves.
fn served_model(seed: u64) -> Sequential {
    mlp(&LAYERS, seed)
}

/// The workload's request rows, `[POOL_ROWS, LAYERS[0]]`, drawn from the
/// seed.
fn pool_rows(seed: u64) -> Tensor {
    SeededRng::new(derive_seed(seed, 7)).normal_tensor(&[POOL_ROWS, LAYERS[0]], 0.0, 1.0)
}

/// Request rows drawn from the seed, encoded, with expected replies from
/// the benchmark's own `Sequential::infer` of each row.
fn request_pool(seed: u64) -> RequestPool {
    let model = served_model(seed);
    let width = LAYERS[0];
    let rows = pool_rows(seed);
    let mut pool = RequestPool {
        frames: Vec::with_capacity(POOL_ROWS),
        classes: Vec::with_capacity(POOL_ROWS),
        logits: Vec::with_capacity(POOL_ROWS),
    };
    for row in rows.data().chunks(width) {
        let x = Tensor::from_vec(row.to_vec(), &[1, width]);
        let logits = model.infer(&x);
        pool.classes.push(logits.argmax_rows()[0] as u32);
        pool.logits.push(logits.data().to_vec());
        let mut bytes = Vec::new();
        encode_into(
            &Frame::new(
                0,
                Payload::InferRequest {
                    dims: vec![1, width],
                    data: row.to_vec(),
                },
            ),
            &mut bytes,
        );
        pool.frames.push(bytes);
    }
    pool
}

/// A running `cn-netd`; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(netd: &Path, flags: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(netd)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", netd.display()))?;
        let stdout = child.stdout.take().ok_or("child stdout missing")?;
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = daemon
                .stdout
                .read_line(&mut line)
                .map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("cn-netd exited before listening".to_string());
            }
            if let Some(addr) = line.trim().strip_prefix("cn-netd listening on ") {
                daemon.addr = addr.parse().map_err(|_| format!("bad address `{addr}`"))?;
                return Ok(daemon);
            }
        }
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(s)
    }

    /// Sends one control command on a fresh connection; returns the
    /// parsed reply.
    fn control(&self, cmd: &str) -> Result<Json, String> {
        let mut s = self.connect()?;
        s.set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(|e| e.to_string())?;
        s.set_write_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| e.to_string())?;
        write_frame(
            &mut s,
            &Frame::new(u64::MAX, Payload::Control(cmd.to_string())),
        )
        .map_err(|e| format!("control write: {e}"))?;
        let mut reader = FrameReader::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match reader.poll(&mut s) {
                Ok(PollFrame::Frame(Frame {
                    payload: Payload::ControlReply(text),
                    ..
                })) => {
                    return Json::parse(&text).map_err(|e| format!("control reply: {e}"));
                }
                Ok(PollFrame::Frame(other)) => return Err(format!("unexpected frame {other:?}")),
                Ok(PollFrame::Pending) => {}
                Ok(PollFrame::Eof) => return Err("control connection closed".to_string()),
                Err(e) => return Err(format!("control read: {e}")),
            }
        }
        Err(format!("no reply to {cmd} within 10 s"))
    }

    /// Drains the daemon and waits for it to exit cleanly.
    fn drain(mut self) -> Result<(), String> {
        self.control("{\"cmd\":\"drain\"}")?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("cn-netd exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("cn-netd did not exit within 10 s of a drain".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        // Keep the stdout pipe open until the child is gone, so its last
        // line never hits a closed pipe.
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
    }
}

/// One daemon's figures, read from its `stats` reply.
struct ServerFigures {
    p50_us: f64,
    p99_us: f64,
    rows_per_batch: f64,
    batch_fill: f64,
    routed: f64,
    shed: f64,
}

fn server_figures(stats: &Json) -> Result<ServerFigures, String> {
    let num = |j: &Json, k: &str| {
        j.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("stats lacks {k}"))
    };
    let agg = stats.get("aggregate").ok_or("stats lacks aggregate")?;
    let shards = stats
        .get("shards")
        .and_then(Json::as_arr)
        .ok_or("stats lacks shards")?;
    let (mut requests, mut batches, mut fill) = (0.0, 0.0, 0.0);
    for s in shards {
        let r = num(s, "requests")?;
        requests += r;
        batches += num(s, "batches")?;
        fill += r * num(s, "batch_fill")?;
    }
    Ok(ServerFigures {
        p50_us: num(agg, "p50_us")?,
        p99_us: num(agg, "p99_us")?,
        rows_per_batch: requests / batches.max(1.0),
        batch_fill: fill / requests.max(1.0),
        routed: num(stats, "routed")?,
        shed: num(stats, "shed")?,
    })
}

/// Everything one daemon's session measured.
#[derive(Default)]
struct ChildRun {
    setup_s: f64,
    rss_mb: f64,
    phases: Vec<PhaseOutcome>,
    max_rps: f64,
    ladder_sent: usize,
    ladder_mismatched: usize,
    figures: Option<ServerFigures>,
    traced_p50_us: Vec<f64>,
}

/// Sets up one daemon: start it, build the request pool, connect and
/// warm up. Returns the daemon, its load connections and the pool.
fn start_child(args: &Args) -> Result<(Daemon, [TcpStream; 2], RequestPool, PhaseOutcome), String> {
    let daemon = Daemon::spawn(&args.netd, &netd_flags(args.seed))?;
    let pool = request_pool(args.seed);
    let conns = [daemon.connect()?, daemon.connect()?];
    let warm =
        run_phase(&conns, &pool, LIGHT_RPS, WARMUP, 0).map_err(|e| format!("warm-up: {e}"))?;
    Ok((daemon, conns, pool, warm))
}

/// The rate at which p99 crosses `limit_us`, interpolated on log p99
/// between a passing rung `(rate, p99)` and the failing rung above it. A
/// failing rung that lost requests or built a backlog (p99 infinite)
/// gives the passing rung's rate.
fn crossing(pass: (f64, f64), fail: (f64, f64), limit_us: f64) -> f64 {
    let ((r0, p0), (r1, p1)) = (pass, fail);
    if !p1.is_finite() || p1 <= limit_us || p0 >= limit_us {
        return r0;
    }
    r0 + (r1 - r0) * (limit_us / p0).ln() / (p1 / p0).ln()
}

/// Climbs the rate ladder from `HEAVY_RPS` by [`LADDER_STEP`] until a
/// rung misses [`LIMIT_MS`] (or, if the heavy phase itself missed it,
/// descends), then interpolates where p99 crosses the limit between the
/// two rungs around it.
fn ladder(
    conns: &[TcpStream; 2],
    pool: &RequestPool,
    step_s: f64,
    next_id: &mut u64,
    run: &mut ChildRun,
    heavy_p99_us: f64,
) -> Result<f64, String> {
    let limit_us = LIMIT_MS * 1e3;
    let mut once = |rate: f64, run: &mut ChildRun| -> Result<f64, String> {
        let n = (rate * step_s).ceil() as usize;
        let out = run_phase(conns, pool, rate, n, *next_id).map_err(|e| format!("ladder: {e}"))?;
        *next_id += n as u64;
        run.ladder_sent += n;
        run.ladder_mismatched += out.mismatched;
        // Let the previous rung's backlog clear before the next one.
        std::thread::sleep(Duration::from_millis(20));
        Ok(out.rung_p99_us(limit_us))
    };
    // A missed rung is tried once more and the better try counts, so one
    // scheduling hiccup on the shared host does not end the climb.
    let mut probe = |rate: f64, run: &mut ChildRun| -> Result<f64, String> {
        let p99 = once(rate, run)?;
        Ok(if p99 <= limit_us {
            p99
        } else {
            p99.min(once(rate, run)?)
        })
    };
    let mut below = (HEAVY_RPS, heavy_p99_us);
    if below.1 <= limit_us {
        for _ in 0..MAX_RUNGS {
            let rate = below.0 * LADDER_STEP;
            let above = (rate, probe(rate, run)?);
            if above.1 > limit_us {
                return Ok(crossing(below, above, limit_us));
            }
            below = above;
        }
        return Ok(below.0);
    }
    let mut above = below;
    for _ in 0..MAX_RUNGS {
        let rate = above.0 / LADDER_STEP;
        let lower = (rate, probe(rate, run)?);
        if lower.1 <= limit_us {
            return Ok(crossing(lower, above, limit_us));
        }
        above = lower;
    }
    Ok(0.0)
}

fn child_session(args: &Args, load: Load, tracer: &mut Tracer, c: u64) -> Result<ChildRun, String> {
    let t = Instant::now();
    let (daemon, conns, pool, warm) = tracer.scope("serve.setup", c, || start_child(args))?;
    let mut run = ChildRun {
        setup_s: t.elapsed().as_secs_f64(),
        ..ChildRun::default()
    };
    let mut next_id = WARMUP as u64;
    let rate = match load {
        Load::Light => LIGHT_RPS,
        Load::Heavy => HEAVY_RPS,
    };
    // Samples per daemon: 950 light, so its tail is a p90; a light p99
    // swung with millisecond host stalls (IQR/median 0.59 over ten runs).
    // 7200 heavy, where the p99 held steady, so its tail is a p99.
    let phase_s = match load {
        Load::Light => 0.95,
        Load::Heavy => 1.2,
    } * args.seconds
        / 15.0;
    let n = (rate * phase_s).ceil() as usize;
    run.phases.push(warm);
    let mut heavy_p99_us = f64::INFINITY;
    if args.trace {
        // Untraced half, then the same load inside a span: their p50s
        // give the tracing overhead.
        for half in 0..2u64 {
            let span = if half == 1 {
                Some(tracer.begin("client.phase", c))
            } else {
                None
            };
            let out = run_phase(&conns, &pool, rate, n / 2, next_id).map_err(|e| e.to_string())?;
            if let Some(span) = span {
                tracer.end(span);
            }
            next_id += (n / 2) as u64;
            run.traced_p50_us.push(stats::median(&out.latency_us));
            heavy_p99_us = out.rung_p99_us(LIMIT_MS * 1e3);
            run.phases.push(out);
        }
    } else {
        let out = run_phase(&conns, &pool, rate, n, next_id).map_err(|e| e.to_string())?;
        next_id += n as u64;
        run.phases.push(out);
    }
    // Handlers serve one connection at a time: close the load
    // connections before asking for stats.
    drop(conns);
    let stats = tracer.scope("net.control.stats", c, || {
        daemon.control("{\"cmd\":\"stats\"}")
    })?;
    run.figures = Some(server_figures(&stats)?);
    if args.trace && load == Load::Heavy {
        let conns = [daemon.connect()?, daemon.connect()?];
        let span = tracer.begin("client.ladder", c);
        let step_s = args.seconds * 0.2 / 15.0;
        run.max_rps = ladder(&conns, &pool, step_s, &mut next_id, &mut run, heavy_p99_us)?;
        tracer.end(span);
    }
    run.rss_mb = crate::host::peak_rss_mb(&daemon.child.id().to_string()).unwrap_or(0.0);
    tracer.scope("serve.drain", c, || daemon.drain())?;
    Ok(run)
}

/// Runs the workload.
///
/// # Errors
///
/// Fails when a daemon cannot be started, connected to or drained.
pub fn run(args: &Args, load: Load, report: &mut Report) -> Result<(), String> {
    report.info("netd_flags", netd_flags(args.seed).join(" "));
    report.info(
        "offered_rps",
        match load {
            Load::Light => LIGHT_RPS,
            Load::Heavy => HEAVY_RPS,
        },
    );
    report.info("limit_ms", LIMIT_MS);
    let mut tracer = Tracer::new(args.trace);
    let root = tracer.begin("trace.serve", 0);
    let mut runs = Vec::with_capacity(CHILDREN);
    for c in 0..CHILDREN as u64 {
        let span = tracer.begin("serve.child", c);
        runs.push(child_session(args, load, &mut tracer, c)?);
        tracer.end(span);
    }

    // Output checks: every fixed-rate request got its exact reply; ladder
    // rungs above capacity may shed or run late (that is what they probe),
    // but a wrong reply is always a failure.
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    let mut lateness = Vec::new();
    let mut sent = 0usize;
    let mut tail = 50.0;
    for run in &runs {
        let mut latencies = Vec::new();
        for (k, p) in run.phases.iter().enumerate() {
            report.attempt(p.sent as u64);
            sent += p.sent;
            for _ in 0..p.sent - p.completed {
                report.fail(format!(
                    "phase {k} at {} rps: {} mismatched, {} error frames, {} lost of {}",
                    p.rate, p.mismatched, p.errored, p.lost, p.sent
                ));
            }
            if k > 0 {
                latencies.extend_from_slice(&p.latency_us);
                lateness.extend_from_slice(&p.lateness_us);
            }
        }
        report.attempt(run.ladder_sent as u64);
        for _ in 0..run.ladder_mismatched {
            report.fail("wrong reply on a ladder rung");
        }
        tail = stats::tail_percentile(latencies.len()).unwrap_or(50.0);
        p50s.push(stats::median(&latencies));
        tails.push(stats::percentile(&latencies, tail).unwrap_or(0.0));
    }
    report.info("tail_percentile", tail);
    report.info("p50_us_per_daemon", format!("{p50s:?}"));
    report.info("tail_us_per_daemon", format!("{tails:?}"));
    let p50_us = stats::median(&p50s);
    let lateness_p99_ms = stats::percentile(&lateness, 99.0).unwrap_or(0.0) / 1e3;
    report.info("lateness_p99_ms", lateness_p99_ms);
    let setup: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let rss: Vec<f64> = runs.iter().map(|r| r.rss_mb).collect();
    if !args.trace {
        // Goodput: correct replies per second at the offered rate.
        let done: usize = runs.iter().map(|r| r.phases[1].completed).sum();
        let wall: f64 = runs.iter().map(|r| r.phases[1].wall_s).sum();
        report.set("setup_s", stats::median(&setup));
        report.set("peak_rss_mb", stats::median(&rss));
        report.set("throughput_per_s", done as f64 / wall);
        report.set("p50_ms", p50_us / 1e3);
        report.set("tail_ms", stats::median(&tails) / 1e3);
        return Ok(());
    }

    // Per-layer figures: the daemons' own stats, the codec and the
    // session on this workload's frames, and an in-process router.
    let figures: Vec<&ServerFigures> = runs.iter().filter_map(|r| r.figures.as_ref()).collect();
    let med = |f: &dyn Fn(&ServerFigures) -> f64| {
        stats::median(&figures.iter().map(|x| f(x)).collect::<Vec<_>>())
    };
    let server_p50 = med(&|f| f.p50_us);
    report.set("serve.queue_to_reply_p50_us", server_p50);
    report.set("serve.queue_to_reply_p99_us", med(&|f| f.p99_us));
    report.set("serve.rows_per_batch", med(&|f| f.rows_per_batch));
    report.set("serve.batch_fill", med(&|f| f.batch_fill));
    report.set("net.routed", med(&|f| f.routed));
    report.set("net.shed", med(&|f| f.shed));
    report.set("net.overhead_p50_us", p50_us - server_p50);
    report.set("client.lateness_ms_p99", lateness_p99_ms);
    report.set("client.requests", sent as f64);
    if load == Load::Heavy {
        let rates: Vec<f64> = runs.iter().map(|r| r.max_rps).collect();
        report.info("ladder_max_rps", format!("{rates:?}"));
        report.set("client.max_rps", stats::median(&rates));
    }
    let pool = request_pool(args.seed);
    codec_spans(&mut tracer, &pool);
    session_spans(&mut tracer, args.seed);
    let panics = tracer.scope("serve.inprocess", 0, || inprocess_router(args.seed, &pool));
    match panics {
        Ok(p) => report.set("serve.worker_panics", p as f64),
        Err(e) => report.fail(e),
    }
    tracer.end(root);
    let spans = tracer.spans();
    let per_call = |name: &str, calls: f64| stats::median(&durations(spans, name)) / 1e3 / calls;
    report.set(
        "net.codec.encode_request_us",
        per_call("net.codec.encode_request", CODEC_CALLS),
    );
    report.set(
        "net.codec.decode_request_us",
        per_call("net.codec.decode_request", CODEC_CALLS),
    );
    report.set(
        "net.codec.encode_reply_us",
        per_call("net.codec.encode_reply", CODEC_CALLS),
    );
    report.set(
        "analog.infer_b1_us",
        per_call("analog.infer_b1", INFER_CALLS),
    );
    report.set(
        "analog.infer_b8_us",
        per_call("analog.infer_b8", INFER_CALLS),
    );
    let halves: Vec<(f64, f64)> = runs
        .iter()
        .map(|r| (r.traced_p50_us[0], r.traced_p50_us[1]))
        .collect();
    let untraced = stats::median(&halves.iter().map(|h| h.0).collect::<Vec<_>>());
    let traced = stats::median(&halves.iter().map(|h| h.1).collect::<Vec<_>>());
    finish_trace(
        &tracer,
        0,
        args,
        report,
        (traced - untraced) / untraced * 100.0,
    );
    Ok(())
}

/// Codec calls per timed span.
const CODEC_CALLS: f64 = 2000.0;
/// Session calls per timed span.
const INFER_CALLS: f64 = 200.0;

fn codec_spans(tracer: &mut Tracer, pool: &RequestPool) {
    let (request, _) = decode(&pool.frames[0], DEFAULT_MAX_PAYLOAD).expect("pool frames decode");
    let bytes = pool.frames[0].clone();
    let mut out = Vec::new();
    for rep in 0..15 {
        tracer.scope("net.codec.encode_request", rep, || {
            for _ in 0..CODEC_CALLS as usize {
                encode_into(black_box(&request), &mut out);
            }
        });
        tracer.scope("net.codec.decode_request", rep, || {
            for _ in 0..CODEC_CALLS as usize {
                black_box(decode(black_box(&bytes), DEFAULT_MAX_PAYLOAD).is_ok());
            }
        });
        tracer.scope("net.codec.encode_reply", rep, || {
            for _ in 0..CODEC_CALLS as usize {
                encode_infer_reply_into(
                    7,
                    &pool.classes[..1],
                    &pool.logits[0],
                    LAYERS[3],
                    &mut out,
                );
                black_box(&out);
            }
        });
    }
}

fn session_spans(tracer: &mut Tracer, seed: u64) {
    let model = served_model(seed);
    let compiled = EngineBuilder::new(&model)
        .backend(DigitalBackend)
        .compile()
        .shared();
    let mut session = Session::with_plan(compiled, &[LAYERS[0]], 8);
    let width = LAYERS[0];
    let data = pool_rows(seed);
    let rows = Tensor::from_vec(data.data()[..8 * width].to_vec(), &[8, width]);
    let one = Tensor::from_vec(data.data()[..width].to_vec(), &[1, width]);
    for rep in 0..15 {
        tracer.scope("analog.infer_b1", rep, || {
            for _ in 0..INFER_CALLS as usize {
                black_box(session.infer_batch(black_box(&one)));
            }
        });
        tracer.scope("analog.infer_b8", rep, || {
            for _ in 0..INFER_CALLS as usize {
                black_box(session.infer_batch(black_box(&rows)));
            }
        });
    }
}

/// Drives an in-process router configured like the daemon with the
/// pool's rows, checks every reply, and returns the shards' worker
/// panics (the daemon's `stats` reply does not carry them).
fn inprocess_router(seed: u64, pool: &RequestPool) -> Result<u64, String> {
    let serve = ServeConfig::new(8)
        .max_wait(Duration::from_micros(1000))
        .queue_capacity(QUEUE)
        .workers(1);
    let width = LAYERS[0];
    let router = ShardRouter::new(
        &served_model(seed),
        DigitalBackend,
        2,
        seed,
        &[width],
        &RouterConfig::new(serve),
    );
    let rows = pool_rows(seed);
    let mut bad = 0usize;
    // 256 requests, 16 in flight at a time.
    for start in (0..256usize).step_by(16) {
        let window = start..start + 16;
        let tickets: Vec<_> = window
            .clone()
            .map(|i| {
                let x =
                    Tensor::from_vec(rows.data()[i * width..(i + 1) * width].to_vec(), &[width]);
                router.route(&x).map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        for (i, ticket) in window.zip(tickets) {
            let reply = ticket.wait().map_err(|e| e.to_string())?;
            if !pool.reply_ok(i as u64, &[reply.class as u32], &reply.logits) {
                bad += 1;
            }
        }
    }
    let panics = router.stats().shards.iter().map(|s| s.worker_panics).sum();
    router.shutdown();
    if bad > 0 {
        return Err(format!("in-process router: {bad} wrong replies"));
    }
    Ok(panics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_interpolated_where_p99_crosses_the_limit() {
        // p99 goes 2.5 ms → 10 ms between 10k and 13k rps: on a log scale
        // the 5 ms limit sits halfway.
        let r = crossing((10_000.0, 2_500.0), (13_000.0, 10_000.0), 5_000.0);
        assert!((r - 11_500.0).abs() < 1e-6, "{r}");
        // A rung that lost requests gives no slope: stop at the pass.
        assert_eq!(
            crossing((10_000.0, 2_500.0), (13_000.0, f64::INFINITY), 5_000.0),
            10_000.0
        );
    }
}
