//! Load-generator core for `cn-loadgen`: open- and closed-loop traffic
//! against a cn-net frontend, with request-id pairing checks and a
//! client-side latency percentile report.
//!
//! Each connection runs on its own thread and interleaves sends with
//! reply polling over one socket. Every wait is bounded: a connection
//! that makes no progress — no send, no reply — for `drain_timeout` while
//! requests are outstanding gives up and reports them `lost`, so a stuck
//! server cannot hang the generator.
//!
//! - **Closed loop** ([`Mode::Closed`]) keeps a fixed window of requests
//!   outstanding per connection — throughput is whatever the server
//!   sustains, latency excludes client-side queueing.
//! - **Open loop** ([`Mode::Open`]) sends on a fixed schedule regardless
//!   of completions — the coordinated-omission-free view: queueing delay
//!   under overload lands in the measured latency instead of silently
//!   stretching the send schedule.
//!
//! Alongside the load, the generator can hold *bystander* sockets open:
//! idle connections that never send ([`LoadgenConfig::idle_conns`]) and
//! slow clients that trickle one header byte per 100 ms
//! ([`LoadgenConfig::slow_clients`]) — the peers that must not be able to
//! starve a server's real clients.
//!
//! Request payloads are deterministic in `(seed, request_id)` (see
//! [`request_rows`]), so a test harness can recompute what any request
//! contained and verify reply content end-to-end via
//! [`LoadgenConfig::expect`].

use crate::frame::{encode, write_frame, ErrorCode, Frame, FrameReader, Payload, PollFrame};
use cn_serve::LatencyHistogram;
use cn_tensor::SeededRng;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The load-generation discipline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Keep `window` requests outstanding per connection; send the next
    /// as soon as one completes.
    Closed {
        /// Outstanding requests per connection.
        window: usize,
    },
    /// Send on a fixed global schedule of `qps` requests per second
    /// (split evenly across connections), regardless of completions.
    Open {
        /// Aggregate target request rate across all connections.
        qps: f64,
    },
}

/// Reply-content check: `(request_id, classes, logits) -> ok`.
pub type ExpectFn = dyn Fn(u64, &[u32], &[f32]) -> bool + Send + Sync;

/// Load-generator configuration.
#[derive(Clone)]
pub struct LoadgenConfig {
    /// Concurrent TCP connections.
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Rows per request batch.
    pub batch_rows: usize,
    /// Shape of one sample row (must match the server model's input).
    pub sample_dims: Vec<usize>,
    /// Traffic discipline.
    pub mode: Mode,
    /// Seed for the deterministic request payloads.
    pub seed: u64,
    /// Socket read timeout — the reply-poll tick.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Longest a connection waits without progress (a send or a reply)
    /// while requests are outstanding; the requests it has not had
    /// answered by then, sent or not, are reported as `lost`.
    pub drain_timeout: Duration,
    /// Extra connections held open for the run that never send a byte.
    pub idle_conns: usize,
    /// Extra connections held open for the run that each send one byte of
    /// a frame header per 100 ms and never complete a frame.
    pub slow_clients: usize,
    /// Optional reply-content verification hook.
    pub expect: Option<Arc<ExpectFn>>,
}

impl std::fmt::Debug for LoadgenConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadgenConfig")
            .field("connections", &self.connections)
            .field("requests", &self.requests)
            .field("batch_rows", &self.batch_rows)
            .field("sample_dims", &self.sample_dims)
            .field("mode", &self.mode)
            .field("seed", &self.seed)
            .field("idle_conns", &self.idle_conns)
            .field("slow_clients", &self.slow_clients)
            .field("expect", &self.expect.is_some())
            .finish_non_exhaustive()
    }
}

impl LoadgenConfig {
    /// A closed-loop default: 4 connections, window 4, 1×`dims` rows.
    pub fn new(sample_dims: &[usize]) -> LoadgenConfig {
        LoadgenConfig {
            connections: 4,
            requests: 256,
            batch_rows: 1,
            sample_dims: sample_dims.to_vec(),
            mode: Mode::Closed { window: 4 },
            seed: 0,
            read_timeout: Duration::from_millis(2),
            write_timeout: Duration::from_secs(5),
            drain_timeout: Duration::from_secs(10),
            idle_conns: 0,
            slow_clients: 0,
            expect: None,
        }
    }
}

/// Aggregated result of one load-generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Requests answered with a well-formed, correctly-paired reply.
    pub completed: u64,
    /// Requests answered with a backpressure error frame.
    pub backpressured: u64,
    /// Requests rejected because the server was draining.
    pub rejected_draining: u64,
    /// Requests answered with any other error frame, malformed replies,
    /// or connection-level failures.
    pub errored: u64,
    /// Replies whose request id matched nothing outstanding — the
    /// mispairing detector; must be 0 against a correct server.
    pub mispaired: u64,
    /// Replies that failed the [`LoadgenConfig::expect`] content check.
    pub content_mismatched: u64,
    /// Requests not answered when their connection went `drain_timeout`
    /// without progress, including requests the closed loop's window kept
    /// it from sending.
    pub lost: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Completed requests per second of wall clock.
    pub throughput_rps: f64,
    /// Client-observed median latency (µs) over completed requests.
    pub p50_us: f64,
    /// Client-observed 95th-percentile latency (µs).
    pub p95_us: f64,
    /// Client-observed 99th-percentile latency (µs).
    pub p99_us: f64,
}

#[derive(Default)]
struct Totals {
    completed: AtomicU64,
    backpressured: AtomicU64,
    rejected_draining: AtomicU64,
    errored: AtomicU64,
    mispaired: AtomicU64,
    content_mismatched: AtomicU64,
    lost: AtomicU64,
}

/// The deterministic payload rows for `request_id`: standard-normal
/// values drawn from a stream forked off `(seed, request_id)`. A harness
/// holding the same seed can reconstruct any request it observed.
pub fn request_rows(seed: u64, request_id: u64, rows: usize, row_len: usize) -> Vec<f32> {
    let mut rng = SeededRng::new(seed).fork(request_id);
    rng.normal_tensor(&[rows.max(1), row_len.max(1)], 0.0, 1.0)
        .data()[..rows * row_len]
        .to_vec()
}

/// Runs the configured load against `addr` and aggregates the report.
///
/// # Errors
///
/// Fails only on setup errors (a connection that cannot be established,
/// bystanders included); per-request failures are counted in the report
/// instead.
///
/// # Panics
///
/// Panics if `connections`, `requests` or `batch_rows` is zero.
pub fn run(addr: SocketAddr, config: &LoadgenConfig) -> io::Result<LoadgenReport> {
    assert!(config.connections > 0, "connections must be positive");
    assert!(config.requests > 0, "requests must be positive");
    assert!(config.batch_rows > 0, "batch_rows must be positive");
    // Held open until the run returns.
    let _bystanders = Bystanders::open(addr, config)?;
    let totals = Arc::new(Totals::default());
    let hist = Arc::new(LatencyHistogram::new());
    let started = Instant::now();
    let mut threads = Vec::with_capacity(config.connections);
    for conn in 0..config.connections {
        // Connect up front so setup failures surface as an error, not as
        // a thread panic.
        let stream = TcpStream::connect(addr)?;
        let config = config.clone();
        let totals = Arc::clone(&totals);
        let hist = Arc::clone(&hist);
        // cn-lint: allow(unbounded-thread-spawn, reason = "bounded by config.connections; joined below")
        let handle = std::thread::Builder::new()
            .name(format!("cn-loadgen-{conn}"))
            // cn-lint: allow(panic-unsafe-pool-thread, reason = "finite per-connection request schedule, not a long-lived pool; joined below, and a panicked client fails the whole run")
            .spawn(move || connection_loop(stream, conn, &config, &totals, &hist))
            .expect("spawn loadgen thread");
        threads.push(handle);
    }
    let mut panicked = 0usize;
    for handle in threads {
        if handle.join().is_err() {
            panicked += 1;
        }
    }
    if panicked > 0 {
        // A panicked client thread means its requests were neither
        // completed nor counted as errors — the report would silently
        // under-count. Fail the measurement instead.
        return Err(io::Error::other(format!(
            "{panicked} load-generator connection thread(s) panicked"
        )));
    }
    let elapsed = started.elapsed();
    let snap = hist.snapshot();
    let completed = totals.completed.load(Ordering::Relaxed);
    Ok(LoadgenReport {
        completed,
        backpressured: totals.backpressured.load(Ordering::Relaxed),
        rejected_draining: totals.rejected_draining.load(Ordering::Relaxed),
        errored: totals.errored.load(Ordering::Relaxed),
        mispaired: totals.mispaired.load(Ordering::Relaxed),
        content_mismatched: totals.content_mismatched.load(Ordering::Relaxed),
        lost: totals.lost.load(Ordering::Relaxed),
        elapsed,
        throughput_rps: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: snap.quantile(0.50),
        p95_us: snap.quantile(0.95),
        p99_us: snap.quantile(0.99),
    })
}

/// Requests assigned to connection `conn`: ids `conn, conn + C, …`.
fn assigned_ids(conn: usize, config: &LoadgenConfig) -> Vec<u64> {
    (conn..config.requests)
        .step_by(config.connections)
        .map(|id| id as u64)
        .collect()
}

fn connection_loop(
    mut stream: TcpStream,
    conn: usize,
    config: &LoadgenConfig,
    totals: &Totals,
    hist: &LatencyHistogram,
) {
    // Closed-loop connections read blocking (the kernel wakes them the
    // instant a reply lands — best latency fidelity). Open-loop ones
    // must keep their send schedule while replies are outstanding, and
    // a blocking read would pin sends behind the kernel's `SO_RCVTIMEO`
    // granularity (a scheduler jiffy, ~1–10 ms) — so they poll
    // non-blocking and sleep until the next send is due.
    let open_loop = matches!(config.mode, Mode::Open { .. });
    let setup = if open_loop {
        stream.set_nonblocking(true)
    } else {
        stream.set_read_timeout(Some(config.read_timeout))
    };
    if setup.is_err()
        || stream
            .set_write_timeout(Some(config.write_timeout))
            .is_err()
    {
        totals
            .errored
            .fetch_add(assigned_ids(conn, config).len() as u64, Ordering::Relaxed);
        return;
    }
    stream.set_nodelay(true).ok();

    let ids = assigned_ids(conn, config);
    let row_len: usize = config.sample_dims.iter().product();
    let mut reader = FrameReader::new();
    let mut pending: HashMap<u64, Instant> = HashMap::new();
    let mut next = 0usize; // index into `ids` of the next request to send
    let started = Instant::now();

    let send = |stream: &mut TcpStream, id: u64| -> io::Result<()> {
        let data = request_rows(config.seed, id, config.batch_rows, row_len);
        let mut dims = vec![config.batch_rows];
        dims.extend_from_slice(&config.sample_dims);
        let frame = Frame::new(id, Payload::InferRequest { dims, data });
        if open_loop {
            // Flip to blocking for the write so `write_timeout`, not
            // `WouldBlock`, governs a server that stops reading.
            stream.set_nonblocking(false)?;
            let result = write_frame(stream, &frame);
            stream.set_nonblocking(true)?;
            result
        } else {
            write_frame(stream, &frame)
        }
    };

    // Progress is a send or a reply; with requests outstanding and none
    // for `drain_timeout`, the connection gives up on what is left.
    let mut last_progress = Instant::now();
    loop {
        if next >= ids.len() && pending.is_empty() {
            return; // everything sent and answered
        }
        let may_send = next < ids.len()
            && match config.mode {
                Mode::Closed { window } => pending.len() < window.max(1),
                Mode::Open { qps } => {
                    let interval = config.connections as f64 / qps.max(1e-9);
                    let due = started + Duration::from_secs_f64(interval * next as f64);
                    Instant::now() >= due
                }
            };
        if may_send {
            let id = ids[next];
            pending.insert(id, Instant::now());
            next += 1;
            if send(&mut stream, id).is_err() {
                // Connection is gone; everything outstanding or unsent
                // fails.
                let unsent = (ids.len() - next) as u64;
                totals
                    .errored
                    .fetch_add(pending.len() as u64 + unsent, Ordering::Relaxed);
                return;
            }
            last_progress = Instant::now();
            continue;
        }
        match poll_replies(&mut stream, &mut reader, &mut pending, config, totals, hist) {
            None => {
                let unsent = (ids.len() - next) as u64;
                totals
                    .errored
                    .fetch_add(pending.len() as u64 + unsent, Ordering::Relaxed);
                return;
            }
            Some(true) => last_progress = Instant::now(),
            Some(false) => {
                if !pending.is_empty() && last_progress.elapsed() >= config.drain_timeout {
                    let unsent = (ids.len() - next) as u64;
                    totals
                        .lost
                        .fetch_add(pending.len() as u64 + unsent, Ordering::Relaxed);
                    return;
                }
                if open_loop {
                    // Nothing readable and nothing due: nap until the
                    // schedule's next send (capped so replies are still
                    // picked up promptly).
                    let mut nap = OPEN_POLL;
                    if let (Mode::Open { qps }, true) = (config.mode, next < ids.len()) {
                        let interval = config.connections as f64 / qps.max(1e-9);
                        let due = started + Duration::from_secs_f64(interval * next as f64);
                        nap = due.saturating_duration_since(Instant::now()).min(OPEN_POLL);
                    }
                    if !nap.is_zero() {
                        std::thread::sleep(nap);
                    }
                }
            }
        }
    }
}

/// How long an open-loop connection sleeps between reply polls when its
/// schedule has nothing due.
const OPEN_POLL: Duration = Duration::from_micros(100);

/// How often a slow client sends its next byte.
const SLOW_TICK: Duration = Duration::from_millis(100);

/// The idle and slow-client sockets held open for a run. Dropping it
/// stops the trickle and closes them all.
struct Bystanders {
    _idle: Vec<TcpStream>,
    stop: Arc<AtomicBool>,
    trickle: Option<std::thread::JoinHandle<()>>,
}

impl Bystanders {
    fn open(addr: SocketAddr, config: &LoadgenConfig) -> io::Result<Bystanders> {
        let idle = (0..config.idle_conns)
            .map(|_| TcpStream::connect(addr))
            .collect::<io::Result<Vec<_>>>()?;
        let slow = (0..config.slow_clients)
            .map(|_| {
                let stream = TcpStream::connect(addr)?;
                // A server that stops reading must not block the trickle.
                stream.set_nonblocking(true)?;
                Ok(stream)
            })
            .collect::<io::Result<Vec<_>>>()?;
        let stop = Arc::new(AtomicBool::new(false));
        let trickle = if slow.is_empty() {
            None
        } else {
            let stop = Arc::clone(&stop);
            // cn-lint: allow(unbounded-thread-spawn, reason = "one trickle thread per run; joined when the run's Bystanders drop")
            let handle = std::thread::Builder::new()
                .name("cn-loadgen-slow".into())
                .spawn(move || trickle(slow, &stop))
                .expect("spawn slow-client thread");
            Some(handle)
        };
        Ok(Bystanders {
            _idle: idle,
            stop,
            trickle,
        })
    }
}

impl Drop for Bystanders {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.trickle.take() {
            let _ = handle.join();
        }
    }
}

/// Sends each slow socket the next byte of a control frame every
/// [`SLOW_TICK`] until `stop`. The frame declares a 4 KiB payload, so at
/// this rate it would take minutes to complete. A socket the server has
/// closed is left alone.
fn trickle(slow: Vec<TcpStream>, stop: &AtomicBool) {
    let frame = encode(&Frame::new(0, Payload::Control("\0".repeat(4096))));
    let mut live: Vec<(TcpStream, usize)> = slow.into_iter().map(|s| (s, 0)).collect();
    while !stop.load(Ordering::Relaxed) && !live.is_empty() {
        live.retain_mut(
            |(stream, sent)| match stream.write(&frame[*sent..*sent + 1]) {
                Ok(1) => {
                    *sent = (*sent + 1) % frame.len();
                    true
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => true,
                _ => false,
            },
        );
        std::thread::sleep(SLOW_TICK);
    }
}

/// Reads at most one frame, pairing it against `pending`. `None` means
/// the connection is unusable (EOF with requests outstanding, I/O
/// error, or undecodable bytes); otherwise whether a frame was
/// consumed.
fn poll_replies(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    pending: &mut HashMap<u64, Instant>,
    config: &LoadgenConfig,
    totals: &Totals,
    hist: &LatencyHistogram,
) -> Option<bool> {
    match reader.poll(stream) {
        Ok(PollFrame::Frame(frame)) => {
            pair_reply(frame, pending, config, totals, hist);
            Some(true)
        }
        Ok(PollFrame::Pending) => Some(false),
        Ok(PollFrame::Eof) => {
            if pending.is_empty() {
                Some(false)
            } else {
                None
            }
        }
        Err(_) => None,
    }
}

fn pair_reply(
    frame: Frame,
    pending: &mut HashMap<u64, Instant>,
    config: &LoadgenConfig,
    totals: &Totals,
    hist: &LatencyHistogram,
) {
    let Some(sent_at) = pending.remove(&frame.request_id) else {
        totals.mispaired.fetch_add(1, Ordering::Relaxed);
        return;
    };
    match frame.payload {
        Payload::InferReply {
            classes, logits, ..
        } => {
            if classes.len() != config.batch_rows {
                totals.errored.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if let Some(expect) = &config.expect {
                if !expect(frame.request_id, &classes, &logits) {
                    totals.content_mismatched.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            hist.record(sent_at.elapsed().as_micros() as u64);
            totals.completed.fetch_add(1, Ordering::Relaxed);
        }
        Payload::Error { code, .. } => {
            let counter = match code {
                ErrorCode::Backpressure => &totals.backpressured,
                ErrorCode::Draining => &totals.rejected_draining,
                ErrorCode::BadRequest | ErrorCode::Internal => &totals.errored,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        Payload::InferRequest { .. } | Payload::Control(_) | Payload::ControlReply(_) => {
            totals.errored.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_rows_are_deterministic_and_distinct() {
        let a = request_rows(7, 3, 2, 4);
        let b = request_rows(7, 3, 2, 4);
        let c = request_rows(7, 4, 2, 4);
        assert_eq!(a.len(), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn assigned_ids_partition_the_request_space() {
        let config = LoadgenConfig {
            connections: 3,
            requests: 10,
            ..LoadgenConfig::new(&[4])
        };
        let mut all: Vec<u64> = (0..3).flat_map(|c| assigned_ids(c, &config)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<u64>>());
    }
}
