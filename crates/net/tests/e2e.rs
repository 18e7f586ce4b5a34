//! End-to-end loopback tests: a real TCP frontend over a multi-shard
//! router, driven by the loadgen library and by raw frame clients.
//!
//! These pin the acceptance contracts of the network layer:
//!
//! - every reply pairs to its request by id with **zero** mispairs, and
//!   reply *content* matches a digital recomputation of the request;
//! - queue-full overload surfaces as explicit backpressure frames;
//! - a graceful drain completes accepted in-flight requests before the
//!   sockets close;
//! - `/stats` aggregates every shard and reports the frontend's
//!   connection counters;
//! - idle, slowloris and non-reading peers neither starve a real client
//!   nor outlive their deadlines, and a client facing a server that never
//!   answers gives up instead of hanging.

use cn_analog::engine::DigitalBackend;
use cn_net::frame::{encode, write_frame, Frame, FrameReader, Payload, PollFrame};
use cn_net::{
    loadgen, ErrorCode, Frontend, FrontendConfig, LoadgenConfig, Mode, RouterConfig, ShardRouter,
};
use cn_nn::zoo::mlp;
use cn_serve::ServeConfig;
use cn_tensor::Tensor;
use correctnet::export::json::Json;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Starts a loopback frontend over `shards` digital shards of an
/// `layers` MLP (exact backend: every shard computes the nominal model).
fn start(layers: &[usize], shards: usize, config: RouterConfig) -> Frontend {
    start_with(layers, shards, config, FrontendConfig::default())
}

fn start_with(
    layers: &[usize],
    shards: usize,
    config: RouterConfig,
    frontend: FrontendConfig,
) -> Frontend {
    let model = mlp(layers, 7);
    let router = ShardRouter::new(&model, DigitalBackend, shards, 7, &[layers[0]], &config);
    Frontend::bind("127.0.0.1:0", Arc::new(router), frontend).expect("bind loopback")
}

/// Runs `body` on its own thread and fails the test if it has not
/// finished within `limit`, so a hang fails instead of wedging CI.
fn with_watchdog<T: Send + 'static>(
    limit: Duration,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    // cn-lint: allow(unbounded-thread-spawn, reason = "one thread per test; the channel observes its result, and a hung one is abandoned by design")
    std::thread::spawn(move || {
        let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)));
    });
    match rx.recv_timeout(limit) {
        Ok(Ok(value)) => value,
        Ok(Err(panic)) => std::panic::resume_unwind(panic),
        Err(_) => panic!("watchdog: the test did not finish within {limit:?}"),
    }
}

/// Polls `cond` until it holds, panicking with `what` after `limit`.
fn eventually(limit: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + limit;
    while !cond() {
        assert!(Instant::now() < deadline, "{what} within {limit:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The digital ground truth for one loadgen request: the logits the
/// nominal model produces for [`loadgen::request_rows`]`(seed, id, …)`.
fn expected_logits(layers: &[usize], seed: u64, id: u64, rows: usize) -> Vec<f32> {
    let mut model = mlp(layers, 7);
    let row_len = layers[0];
    let data = loadgen::request_rows(seed, id, rows, row_len);
    let x = Tensor::from_vec(data, &[rows, row_len]);
    model.forward(&x, false).data().to_vec()
}

fn raw_client(frontend: &Frontend) -> (TcpStream, FrameReader) {
    let stream = TcpStream::connect(frontend.local_addr()).expect("connect loopback");
    stream
        .set_read_timeout(Some(Duration::from_millis(5)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(5))))
        .expect("socket timeouts");
    (stream, FrameReader::new())
}

/// Reads frames until one arrives (panics at `deadline`).
fn recv(stream: &mut TcpStream, reader: &mut FrameReader, deadline: Instant) -> Frame {
    loop {
        match reader.poll(stream).expect("readable stream") {
            PollFrame::Frame(frame) => return frame,
            PollFrame::Pending | PollFrame::Eof => {
                assert!(Instant::now() < deadline, "no frame before deadline");
            }
        }
    }
}

/// The tentpole acceptance test: a 4-shard fleet under concurrent
/// closed-loop load answers **every** request, pairs **every** reply by
/// request id, and every reply's logits match a digital recomputation of
/// that id's payload — content-level proof that no reply was swapped.
#[test]
fn loadgen_pairs_and_matches_content_on_four_shards() {
    let layers = [8, 16, 4];
    let serve = ServeConfig::new(4).workers(2);
    let frontend = start(&layers, 4, RouterConfig::new(serve));

    let mut config = LoadgenConfig::new(&[8]);
    config.connections = 4;
    config.requests = 200;
    config.batch_rows = 3;
    config.seed = 42;
    config.mode = Mode::Closed { window: 8 };
    let width = *layers.last().unwrap();
    config.expect = Some(Arc::new(move |id, classes, logits| {
        let want = expected_logits(&layers, 42, id, 3);
        if classes.len() != 3 || logits.len() != want.len() {
            return false;
        }
        let close = logits
            .iter()
            .zip(&want)
            .all(|(a, b)| (a - b).abs() <= 1e-3 * (1.0 + b.abs()));
        // Argmax must agree wherever the margin is decisive.
        let classes_ok = (0..3).all(|r| {
            let row = &want[r * width..(r + 1) * width];
            let (best, &top) = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap();
            let runner_up = row
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != best)
                .map(|(_, &v)| v)
                .fold(f32::NEG_INFINITY, f32::max);
            top - runner_up < 1e-3 || classes[r] as usize == best
        });
        close && classes_ok
    }));

    let report = loadgen::run(frontend.local_addr(), &config).expect("load run");
    assert_eq!(report.completed, 200, "{report:?}");
    assert_eq!(report.mispaired, 0, "{report:?}");
    assert_eq!(report.content_mismatched, 0, "{report:?}");
    assert_eq!(report.errored, 0, "{report:?}");
    assert_eq!(report.lost, 0, "{report:?}");
    assert!(report.p50_us > 0.0, "{report:?}");

    frontend.drain();
    let router = frontend.join();
    assert!(router.drained());
}

/// Overload contract: with tiny queues and a saturating closed loop, the
/// router sheds — and every shed surfaces to the client as an explicit
/// backpressure error frame, still pinned to its request id (no silent
/// drops, no disconnects).
#[test]
fn overload_surfaces_as_backpressure_frames() {
    let layers = [16, 64, 10];
    let serve = ServeConfig::new(1).queue_capacity(1).workers(1);
    let frontend = start(&layers, 2, RouterConfig::new(serve).shed_inflight(2));

    let mut config = LoadgenConfig::new(&[16]);
    config.connections = 4;
    config.requests = 240;
    config.mode = Mode::Closed { window: 32 };
    let report = loadgen::run(frontend.local_addr(), &config).expect("load run");

    assert!(report.backpressured > 0, "{report:?}");
    assert!(report.completed > 0, "{report:?}");
    assert_eq!(report.mispaired, 0, "{report:?}");
    assert_eq!(report.lost, 0, "{report:?}");
    assert_eq!(
        report.completed + report.backpressured + report.rejected_draining + report.errored,
        240,
        "every request is answered exactly once: {report:?}"
    );
    // The router counted what it shed.
    assert!(frontend.router().stats().shed > 0);

    frontend.drain();
    frontend.join();
}

/// Drain contract: requests already accepted when the drain begins are
/// completed and delivered before the connection closes.
#[test]
fn graceful_drain_completes_inflight_requests() {
    // 1000 rows of a ~1 M-MAC MLP on one worker: the burst outruns the
    // worker, so most of it is still queued or executing when the drain
    // lands.
    let layers = [8, 1024, 1024, 4];
    let rows = 1000;
    let serve = ServeConfig::new(16).queue_capacity(4096).workers(1);
    let frontend = start(&layers, 1, RouterConfig::new(serve));
    let started = Instant::now();

    let (mut infer, mut infer_reader) = raw_client(&frontend);
    let data = loadgen::request_rows(0, 9, rows, 8);
    write_frame(
        &mut infer,
        &Frame::new(
            9,
            Payload::InferRequest {
                dims: vec![rows, 8],
                data,
            },
        ),
    )
    .expect("send batch");

    // Wait until every row has been admitted by the router.
    eventually(Duration::from_secs(5), "rows reach the router", || {
        frontend.router().stats().routed >= rows as u64
    });
    let inflight: usize = frontend.router().stats().inflight.iter().sum();
    assert!(inflight > 0, "the burst finished before the drain was sent");

    let (mut ctl, mut ctl_reader) = raw_client(&frontend);
    write_frame(
        &mut ctl,
        &Frame::new(1, Payload::Control("{\"cmd\":\"drain\"}".into())),
    )
    .expect("send drain");
    let reply = recv(
        &mut ctl,
        &mut ctl_reader,
        Instant::now() + Duration::from_secs(5),
    );
    assert_eq!(reply.request_id, 1);
    assert!(matches!(reply.payload, Payload::ControlReply(ref r) if r.contains("true")));

    // The in-flight burst must be answered (not dropped), and promptly.
    let reply = recv(
        &mut infer,
        &mut infer_reader,
        Instant::now() + Duration::from_secs(5),
    );
    assert_eq!(reply.request_id, 9);
    match reply.payload {
        Payload::InferReply {
            classes,
            logits,
            width,
        } => {
            assert_eq!(classes.len(), rows);
            assert_eq!(width, 4);
            assert_eq!(logits.len(), rows * 4);
        }
        other => panic!("expected the batch reply, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_millis(1900),
        "drain did not flush the in-flight burst promptly"
    );

    // The whole frontend settles: acceptor, handlers, shards.
    let router = frontend.join();
    assert!(router.drained());
    assert_eq!(router.stats().state.name(), "draining");
}

/// `/stats` aggregates every shard: shard count, request conservation
/// across shards, non-zero percentiles, and the generation counter
/// reflecting a hot swap performed over the control plane.
#[test]
fn stats_command_aggregates_all_shards() {
    let layers = [8, 16, 4];
    let serve = ServeConfig::new(4).workers(1);
    let frontend = start(&layers, 4, RouterConfig::new(serve));

    let mut config = LoadgenConfig::new(&[8]);
    config.connections = 2;
    config.requests = 60;
    config.mode = Mode::Closed { window: 4 };
    let report = loadgen::run(frontend.local_addr(), &config).expect("load run");
    assert_eq!(report.completed, 60, "{report:?}");

    let (mut ctl, mut reader) = raw_client(&frontend);
    write_frame(
        &mut ctl,
        &Frame::new(2, Payload::Control("{\"cmd\":\"stats\"}".into())),
    )
    .expect("send stats");
    let reply = recv(
        &mut ctl,
        &mut reader,
        Instant::now() + Duration::from_secs(5),
    );
    let text = match reply.payload {
        Payload::ControlReply(text) => text,
        other => panic!("expected a control reply, got {other:?}"),
    };
    let json = Json::parse(&text).expect("stats reply is JSON");
    assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(json.get("state").and_then(Json::as_str), Some("accepting"));
    let shards = json.get("shards").and_then(Json::as_arr).expect("shards");
    assert_eq!(shards.len(), 4);
    let per_shard: f64 = shards
        .iter()
        .map(|s| s.get("requests").and_then(Json::as_f64).unwrap())
        .sum();
    let agg = json.get("aggregate").expect("aggregate");
    assert_eq!(agg.get("requests").and_then(Json::as_f64), Some(per_shard));
    assert_eq!(per_shard, 60.0);
    assert!(agg.get("p50_us").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(agg.get("p99_us").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(shards
        .iter()
        .all(|s| s.get("worker_panics").and_then(Json::as_f64) == Some(0.0)));
    // The load connections are gone once their peers closed; the control
    // connection asking is the one still open.
    let counters = json.get("frontend").expect("frontend counters");
    let open = counters.get("connections_open").and_then(Json::as_f64);
    assert!(
        matches!(open, Some(n) if (1.0..=3.0).contains(&n)),
        "{open:?}"
    );
    assert_eq!(
        counters.get("connections_shed").and_then(Json::as_f64),
        Some(0.0)
    );
    assert_eq!(
        counters.get("handler_panics").and_then(Json::as_f64),
        Some(0.0)
    );

    // Hot swap over the control plane bumps the generation and the fleet
    // keeps serving.
    write_frame(
        &mut ctl,
        &Frame::new(
            3,
            Payload::Control("{\"cmd\":\"swap\",\"mode\":\"reprogram\"}".into()),
        ),
    )
    .expect("send swap");
    let reply = recv(
        &mut ctl,
        &mut reader,
        Instant::now() + Duration::from_secs(5),
    );
    assert!(matches!(reply.payload, Payload::ControlReply(ref r) if r.contains("true")));
    assert_eq!(frontend.router().generation(), 1);

    let mut config = LoadgenConfig::new(&[8]);
    config.requests = 20;
    config.connections = 2;
    let report = loadgen::run(frontend.local_addr(), &config).expect("post-swap load");
    assert_eq!(report.completed, 20, "{report:?}");

    frontend.drain();
    frontend.join();
}

/// Connection admission: beyond `max_connections` a new connection is
/// answered with a backpressure frame and closed, and counted; once held
/// connections close, new ones are served again.
#[test]
fn connections_beyond_the_limit_are_shed_with_backpressure() {
    let frontend = start_with(
        &[8, 16, 4],
        1,
        RouterConfig::new(ServeConfig::new(4)),
        FrontendConfig {
            max_connections: 2,
            ..FrontendConfig::default()
        },
    );
    let held: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(frontend.local_addr()).expect("connect loopback"))
        .collect();
    eventually(Duration::from_secs(5), "both connections admitted", || {
        frontend.connections_open() == 2
    });

    let (mut extra, mut reader) = raw_client(&frontend);
    let frame = recv(
        &mut extra,
        &mut reader,
        Instant::now() + Duration::from_secs(5),
    );
    assert!(
        matches!(
            frame.payload,
            Payload::Error {
                code: ErrorCode::Backpressure,
                ..
            }
        ),
        "{frame:?}"
    );
    assert_eq!(frontend.connections_shed(), 1);

    drop(held);
    eventually(Duration::from_secs(5), "held connections closed", || {
        frontend.connections_open() == 0
    });
    let mut config = LoadgenConfig::new(&[8]);
    config.connections = 1;
    config.requests = 4;
    let report = loadgen::run(frontend.local_addr(), &config).expect("load run");
    assert_eq!(report.completed, 4, "{report:?}");

    frontend.drain();
    frontend.join();
}

/// The peers a frontend must outlast: `idle` sockets that never send and
/// slow sockets that trickle one header byte per 100 ms from a thread of
/// their own until the value is dropped.
struct Hostile {
    idle: Vec<TcpStream>,
    stop: Arc<AtomicBool>,
}

impl Hostile {
    fn open(frontend: &Frontend, idle: usize, slow: usize) -> Hostile {
        let connect = || TcpStream::connect(frontend.local_addr()).expect("connect loopback");
        let idle = (0..idle).map(|_| connect()).collect();
        let slow: Vec<TcpStream> = (0..slow).map(|_| connect()).collect();
        let stop = Arc::new(AtomicBool::new(false));
        {
            let stop = Arc::clone(&stop);
            // cn-lint: allow(unbounded-thread-spawn, reason = "one trickle thread per test; it ends when the Hostile value drops")
            std::thread::spawn(move || {
                let header = encode(&Frame::new(0, Payload::Control("{}".repeat(512))));
                // 1040 bytes at 10 per second: no frame completes while
                // the test runs, and the sockets stay open on this side.
                let mut sent = 0;
                while !stop.load(Ordering::Relaxed) {
                    for mut s in &slow {
                        let _ = s.write(&header[sent..sent + 1]);
                    }
                    sent = (sent + 1) % header.len();
                    std::thread::sleep(Duration::from_millis(100));
                }
            });
        }
        Hostile { idle, stop }
    }
}

impl Drop for Hostile {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Starvation contract: with `handlers × 4` idle sockets and `handlers`
/// slowloris sockets open — plus, when `non_reader`, a peer that pipelines
/// large requests and never reads a reply — a real client's 16 requests
/// still complete within 2 s, and every hostile socket is closed once
/// its deadline passes.
fn hostile_peers_do_not_starve_a_client(non_reader: bool) {
    let handlers = 2;
    let idle_timeout = Duration::from_millis(500);
    // 512 logits per row: a 64-row reply is 128 KiB, so a non-reading
    // peer backs up its socket within a few requests.
    let layers = [8, 16, 512];
    // Shard queues far deeper than the non-reader's pipelining bound
    // (max_inflight_rows): its backlog must not shed the real client.
    let serve = ServeConfig::new(8).queue_capacity(4096).workers(1);
    let frontend = start_with(
        &layers,
        2,
        RouterConfig::new(serve),
        FrontendConfig {
            write_timeout: Duration::from_millis(500),
            ..FrontendConfig::default()
                .handlers(handlers)
                .idle_timeout(idle_timeout)
        },
    );

    let stalled = non_reader.then(|| {
        let mut peer = TcpStream::connect(frontend.local_addr()).expect("connect loopback");
        peer.set_write_timeout(Some(Duration::from_millis(200)))
            .expect("write timeout");
        let frame = encode(&Frame::new(
            0,
            Payload::InferRequest {
                dims: vec![64, 8],
                data: loadgen::request_rows(1, 0, 64, 8),
            },
        ));
        for _ in 0..100 {
            if peer.write_all(&frame).is_err() {
                break; // the frontend stopped reading: it is stalled
            }
        }
        peer
    });
    let hostile = Hostile::open(&frontend, handlers * 4, handlers);

    let mut config = LoadgenConfig::new(&[8]);
    config.connections = 1;
    config.requests = 16;
    config.mode = Mode::Closed { window: 4 };
    let started = Instant::now();
    let report = loadgen::run(frontend.local_addr(), &config).expect("load run");
    let took = started.elapsed();
    assert_eq!(report.completed, 16, "{report:?}");
    assert!(took < Duration::from_secs(2), "16 requests took {took:?}");

    // Idle and slowloris sockets are reaped after idle_timeout (partial
    // frames do not reset it); the non-reader after write_timeout.
    for mut s in &hostile.idle {
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let mut byte = [0u8; 1];
        match s.read(&mut byte) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("idle socket still open after {idle_timeout:?}: {other:?}"),
        }
    }
    eventually(
        Duration::from_secs(5),
        "every hostile connection closed",
        || frontend.connections_open() == 0,
    );
    assert_eq!(frontend.connections_shed(), 0);
    assert_eq!(frontend.handler_panics(), 0);

    drop(stalled);
    drop(hostile);
    frontend.drain();
    frontend.join();
}

#[test]
fn idle_and_slowloris_peers_do_not_starve_a_client() {
    with_watchdog(Duration::from_secs(20), || {
        hostile_peers_do_not_starve_a_client(false)
    });
}

#[test]
fn a_peer_that_never_reads_stalls_only_itself() {
    with_watchdog(Duration::from_secs(20), || {
        hostile_peers_do_not_starve_a_client(true)
    });
}

/// A server that accepts and then never answers: the load generator
/// gives up after `drain_timeout` without progress and reports every
/// request lost, instead of spinning on a full window forever.
#[test]
fn loadgen_counts_a_silent_server_as_lost() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let report = with_watchdog(Duration::from_secs(20), move || {
        let held = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let mut config = LoadgenConfig::new(&[8]);
        config.connections = 1;
        config.requests = 16;
        config.mode = Mode::Closed { window: 4 };
        config.drain_timeout = Duration::from_millis(300);
        let report = loadgen::run(addr, &config).expect("load run");
        drop(held.join());
        report
    });
    assert_eq!(report.completed, 0, "{report:?}");
    assert_eq!(report.lost, 16, "{report:?}");
}
