//! The TCP frontend: acceptor thread + bounded connection-handler pool
//! feeding the shard router.
//!
//! Connections are accepted by one non-blocking acceptor thread and
//! queued into a bounded [`AdmissionQueue`]; `handlers` pool threads each
//! serve one connection at a time. A handler interleaves three duties on
//! its connection, none of which ever blocks past the socket timeouts:
//!
//! 1. flush replies whose shard tickets have completed (in submission
//!    order, pinned by request id);
//! 2. read the next frame (partial reads are buffered by
//!    [`FrameReader`]); and
//! 3. dispatch it — infer batches row-by-row through the router, control
//!    frames through [`handle_control`].
//!
//! **Backpressure contract**: a shed or queue-full submission answers the
//! offending request with an [`ErrorCode::Backpressure`] error frame
//! (never silence, never disconnect); a full connection queue answers the
//! new connection with the same frame and closes it. Pipelined clients
//! are additionally bounded by `max_inflight_rows` — beyond it the
//! handler simply stops reading, which surfaces to the peer as TCP
//! backpressure.
//!
//! **Drain contract**: `{"cmd":"drain"}` (or [`Frontend::drain`]) stops
//! the acceptor, closes the connection queue and the router's shards,
//! lets every handler flush its in-flight replies, then closes the
//! connections. [`Frontend::join`] returns once the drain has fully
//! settled; accepted requests are never dropped.

use crate::control::{handle_control, ControlAction};
use crate::frame::{
    encode_infer_reply_into, write_frame, ErrorCode, Frame, FrameReader, Payload, PollFrame,
    ReadFrameError, DEFAULT_MAX_PAYLOAD,
};
use cn_serve::{
    AdmissionQueue, PushError, Reply, RouterError, RouterTicket, ServeError, ShardRouter,
};
use cn_tensor::Tensor;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Frontend configuration: pool sizes, frame cap and socket timeouts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontendConfig {
    /// Connection-handler pool size (each handler serves one connection
    /// at a time; idle keep-alive connections occupy a slot).
    pub handlers: usize,
    /// Accepted connections waiting for a free handler; beyond this new
    /// connections are answered with a backpressure frame and closed.
    pub pending_conns: usize,
    /// Frame payload cap enforced on every decode.
    pub max_payload: usize,
    /// Idle poll tick: how long a handler sleeps between read attempts
    /// on a connection with nothing in flight. (A sleep, not a socket
    /// timeout — kernel `SO_RCVTIMEO` granularity is a scheduler jiffy,
    /// ~1–10 ms, which would put a hard floor under reply latency.)
    pub read_timeout: Duration,
    /// Socket write timeout; a peer that stops reading for this long is
    /// treated as gone.
    pub write_timeout: Duration,
    /// Most in-flight rows one connection may pipeline before the
    /// handler stops reading from it (TCP-level backpressure).
    pub max_inflight_rows: usize,
}

impl Default for FrontendConfig {
    fn default() -> FrontendConfig {
        FrontendConfig {
            handlers: 4,
            pending_conns: 64,
            max_payload: DEFAULT_MAX_PAYLOAD,
            read_timeout: Duration::from_millis(2),
            write_timeout: Duration::from_secs(5),
            max_inflight_rows: 1024,
        }
    }
}

impl FrontendConfig {
    /// Sets the handler pool size.
    ///
    /// # Panics
    ///
    /// Panics if `handlers` is zero.
    pub fn handlers(mut self, handlers: usize) -> FrontendConfig {
        assert!(handlers > 0, "handlers must be positive");
        self.handlers = handlers;
        self
    }

    /// Sets the frame payload cap.
    pub fn max_payload(mut self, cap: usize) -> FrontendConfig {
        self.max_payload = cap;
        self
    }

    /// Sets the read-poll tick.
    pub fn read_timeout(mut self, timeout: Duration) -> FrontendConfig {
        self.read_timeout = timeout;
        self
    }
}

/// Shared state between the acceptor, the handlers and the [`Frontend`]
/// handle.
struct Shared {
    router: Arc<ShardRouter>,
    conns: AdmissionQueue<TcpStream>,
    draining: AtomicBool,
    config: FrontendConfig,
    /// Connections answered-and-closed because the queue was full.
    conns_shed: AtomicU64,
    /// Connections whose handler panicked (the panic is contained; the
    /// handler thread survives to serve the next connection).
    handler_panics: AtomicU64,
}

impl Shared {
    /// Idempotently begins the frontend-wide drain: stop accepting, stop
    /// handing out queued connections, stop shard admission.
    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::AcqRel) {
            self.conns.close();
            self.router.drain();
        }
    }
}

/// A running TCP frontend over a shard router.
pub struct Frontend {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    handlers: Vec<std::thread::JoinHandle<()>>,
}

impl Frontend {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the acceptor and handler threads.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn bind(
        addr: impl ToSocketAddrs,
        router: Arc<ShardRouter>,
        config: FrontendConfig,
    ) -> io::Result<Frontend> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            router,
            conns: AdmissionQueue::new(config.pending_conns),
            draining: AtomicBool::new(false),
            config: config.clone(),
            conns_shed: AtomicU64::new(0),
            handler_panics: AtomicU64::new(0),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            // cn-lint: allow(unbounded-thread-spawn, reason = "exactly one acceptor thread; joined in Frontend::join")
            std::thread::Builder::new()
                .name("cn-net-acceptor".into())
                // cn-lint: allow(panic-unsafe-pool-thread, reason = "acceptor loop matches every accept error non-fatally and has no panic path; its exit is observed by Frontend::join at drain")
                .spawn(move || acceptor_loop(&listener, &shared))
                .expect("spawn acceptor thread")
        };
        let handlers = (0..config.handlers)
            .map(|h| {
                let shared = Arc::clone(&shared);
                // cn-lint: allow(unbounded-thread-spawn, reason = "bounded by config.handlers; joined in Frontend::join")
                std::thread::Builder::new()
                    .name(format!("cn-net-handler-{h}"))
                    .spawn(move || handler_loop(&shared))
                    .expect("spawn handler thread")
            })
            .collect();
        Ok(Frontend {
            local_addr,
            shared,
            acceptor: Some(acceptor),
            handlers,
        })
    }

    /// The address the frontend actually listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The router behind this frontend.
    pub fn router(&self) -> &Arc<ShardRouter> {
        &self.shared.router
    }

    /// Whether a drain has begun (via control frame or
    /// [`drain`](Frontend::drain)).
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Connections rejected because the pending-connection queue was
    /// full.
    pub fn connections_shed(&self) -> u64 {
        self.shared.conns_shed.load(Ordering::Relaxed)
    }

    /// Connections whose handler panicked. The pool survives a panic
    /// (each connection's state is dropped with it), but a non-zero
    /// count means a bug worth chasing.
    pub fn handler_panics(&self) -> u64 {
        self.shared.handler_panics.load(Ordering::Relaxed)
    }

    /// Initiates the graceful drain from the host process (equivalent to
    /// a `{"cmd":"drain"}` control frame).
    pub fn drain(&self) {
        self.shared.begin_drain();
    }

    /// Blocks until the acceptor and every handler have exited — i.e.
    /// until a drain (control-initiated or [`drain`](Frontend::drain))
    /// has fully flushed. Returns the router for final shutdown.
    pub fn join(mut self) -> Arc<ShardRouter> {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for handler in self.handlers.drain(..) {
            let _ = handler.join();
        }
        Arc::clone(&self.shared.router)
    }
}

/// How long the non-blocking acceptor sleeps between accept attempts.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

fn acceptor_loop(listener: &TcpListener, shared: &Shared) {
    // Non-blocking accept so the loop can observe the drain flag; the
    // poll sleep bounds the busy-wait.
    listener
        .set_nonblocking(true)
        .expect("set listener non-blocking");
    loop {
        if shared.draining.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => match shared.conns.push(stream) {
                Ok(()) => {}
                Err(PushError::Full(stream)) => {
                    shared.conns_shed.fetch_add(1, Ordering::Relaxed);
                    reject_connection(
                        stream,
                        &shared.config,
                        ErrorCode::Backpressure,
                        "connection queue full; retry later",
                    );
                }
                // Closed means a drain won the race against this accept:
                // telling the peer to retry would be a lie.
                Err(PushError::Closed(stream)) => {
                    reject_connection(
                        stream,
                        &shared.config,
                        ErrorCode::Draining,
                        "server draining",
                    );
                }
            },
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Transient accept errors (too many fds, peer reset mid
            // handshake) should not kill the acceptor.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Answers a connection the pool cannot take with the named error frame
/// ([`ErrorCode::Backpressure`] when the queue is full,
/// [`ErrorCode::Draining`] when the frontend is shutting down).
fn reject_connection(
    mut stream: TcpStream,
    config: &FrontendConfig,
    code: ErrorCode,
    message: &str,
) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = write_frame(
        &mut stream,
        &Frame::new(
            0,
            Payload::Error {
                code,
                message: message.into(),
            },
        ),
    );
}

fn handler_loop(shared: &Shared) {
    loop {
        // Blocks for the next queued connection; an empty batch means the
        // queue is closed and drained — the handler's shutdown signal.
        let mut batch = shared.conns.pop_batch(1, Duration::ZERO);
        match batch.pop() {
            Some(stream) => {
                // Individual connection failures — Err *or* panic — must
                // not kill the pool: an unwinding handler thread would
                // silently shrink it until no connections are served.
                // All connection state lives in the closure, so the
                // unwind cannot poison anything the pool shares.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = handle_connection(stream, shared);
                }));
                if outcome.is_err() {
                    shared.handler_panics.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => return,
        }
    }
}

/// Per-connection reusable buffers: the row-staging tensor for submits,
/// the class/logit staging for reply assembly, and the wire-encode
/// buffer. One connection serves its whole lifetime out of these — in
/// steady state the handler's reply path performs no heap allocation.
struct ConnScratch {
    row: Tensor,
    classes: Vec<u32>,
    logits: Vec<f32>,
    wire: Vec<u8>,
}

impl ConnScratch {
    fn new() -> ConnScratch {
        ConnScratch {
            row: Tensor::zeros(&[1]),
            classes: Vec::new(),
            logits: Vec::new(),
            wire: Vec::new(),
        }
    }
}

/// One in-flight batched request: the per-row shard tickets and the rows
/// already answered.
struct PendingRequest {
    request_id: u64,
    tickets: Vec<Option<RouterTicket>>,
    replies: Vec<Option<Reply>>,
}

impl PendingRequest {
    fn rows(&self) -> usize {
        self.tickets.len()
    }

    /// Polls the outstanding tickets; `Ok(true)` once every row has its
    /// reply.
    fn poll(&mut self) -> Result<bool, ServeError> {
        let mut done = true;
        for (slot, reply) in self.tickets.iter_mut().zip(self.replies.iter_mut()) {
            if reply.is_some() {
                continue;
            }
            match slot.as_mut().expect("ticket pending").try_wait() {
                Some(Ok(r)) => {
                    *reply = Some(r);
                    *slot = None;
                }
                Some(Err(e)) => return Err(e),
                None => done = false,
            }
        }
        Ok(done)
    }

    /// Blocks until every row has its reply (the drain path).
    fn wait_all(&mut self) -> Result<(), ServeError> {
        for (slot, reply) in self.tickets.iter_mut().zip(self.replies.iter_mut()) {
            if reply.is_some() {
                continue;
            }
            let ticket = slot.take().expect("ticket pending");
            *reply = Some(ticket.wait()?);
        }
        Ok(())
    }

    /// Assembles the wire reply into `scratch` and writes it (every row
    /// must be answered). Staging and encode buffers are reused across
    /// requests — the steady-state reply path allocates nothing.
    fn write_reply(&self, stream: &mut TcpStream, scratch: &mut ConnScratch) -> io::Result<()> {
        scratch.classes.clear();
        scratch.logits.clear();
        let mut width = 0;
        for reply in &self.replies {
            let reply = reply.as_ref().expect("all rows answered");
            width = reply.logits.len();
            scratch.classes.push(reply.class as u32);
            scratch.logits.extend_from_slice(&reply.logits);
        }
        encode_infer_reply_into(
            self.request_id,
            &scratch.classes,
            &scratch.logits,
            width,
            &mut scratch.wire,
        );
        write_bytes_blocking(stream, &scratch.wire)
    }
}

/// Serves one connection until the peer closes, the connection errors, or
/// a drain flushes it. See the module docs for the loop's contract.
fn handle_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    let mut stream = stream;
    // Reads are non-blocking polls: a blocking read with `SO_RCVTIMEO`
    // would pin completed shard replies behind the kernel's timeout
    // granularity (a scheduler jiffy, ~1–10 ms). Writes flip back to
    // blocking so `write_timeout` still bounds a peer that stops
    // reading — see `write_blocking`.
    stream.set_nonblocking(true)?;
    stream.set_write_timeout(Some(shared.config.write_timeout))?;
    stream.set_nodelay(true).ok();

    let mut reader = FrameReader::with_cap(shared.config.max_payload);
    let mut pending: VecDeque<PendingRequest> = VecDeque::new();
    let mut scratch = ConnScratch::new();
    let mut peer_closed = false;
    // Reply-poll backoff: start eager, double on every poll that makes no
    // progress, snap back the moment a frame or a reply moves. Keeps the
    // first reply's latency at REPLY_POLL while a stalled pipeline decays
    // to REPLY_POLL_MAX instead of spinning the CPU at 50 µs forever.
    let mut poll = REPLY_POLL;

    loop {
        if flush_ready(&mut stream, &mut pending, &mut scratch)? {
            poll = REPLY_POLL;
        }

        if shared.draining.load(Ordering::Acquire) || peer_closed {
            // Drain: stop reading, flush everything in flight, close.
            return flush_all(&mut stream, &mut pending, &mut scratch);
        }

        // Pipelining bound: past it, stop reading — TCP backpressure.
        let inflight_rows: usize = pending.iter().map(PendingRequest::rows).sum();
        if inflight_rows >= shared.config.max_inflight_rows {
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }

        match reader.poll(&mut stream) {
            Ok(PollFrame::Frame(frame)) => {
                poll = REPLY_POLL;
                dispatch(frame, &mut stream, &mut pending, shared, &mut scratch)?;
            }
            Ok(PollFrame::Pending) => {
                // Nothing readable. With rows in flight, nap at the
                // backed-off tick and widen it for next time; idle
                // connections back off to the configured tick.
                if pending.is_empty() {
                    std::thread::sleep(shared.config.read_timeout);
                } else {
                    std::thread::sleep(poll);
                    poll = (poll * 2).min(REPLY_POLL_MAX);
                }
            }
            Ok(PollFrame::Eof) => peer_closed = true,
            Err(ReadFrameError::Frame(e)) => {
                // Framing is lost: answer with the named decode error,
                // flush what we owe, drop the connection.
                let _ = write_blocking(
                    &mut stream,
                    &Frame::new(
                        0,
                        Payload::Error {
                            code: ErrorCode::BadRequest,
                            message: e.to_string(),
                        },
                    ),
                );
                return flush_all(&mut stream, &mut pending, &mut scratch);
            }
            Err(ReadFrameError::Io(_)) => {
                // Peer vanished; nothing left to flush to.
                return Ok(());
            }
        }
    }
}

/// The eager end of the reply-poll backoff: how long a handler with rows
/// in flight first sleeps between polls. Short, because it bounds reply
/// latency; `thread::sleep` is hrtimer-backed, so unlike a socket timeout
/// it actually honors microseconds.
const REPLY_POLL: Duration = Duration::from_micros(50);

/// The backed-off end: consecutive no-progress polls double the sleep up
/// to this cap, so a connection stuck behind a slow batch costs ~1k
/// wakeups/s instead of 20k.
const REPLY_POLL_MAX: Duration = Duration::from_millis(1);

/// Writes one frame on a connection whose read side runs non-blocking:
/// flips the socket to blocking for the write — so `write_timeout`
/// (not `WouldBlock`) governs a peer that stops reading — and back.
fn write_blocking(stream: &mut TcpStream, frame: &Frame) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    let result = write_frame(stream, frame);
    stream.set_nonblocking(true)?;
    result
}

/// [`write_blocking`] for pre-encoded bytes — the reply hot path, which
/// encodes into [`ConnScratch::wire`] instead of an owned frame.
fn write_bytes_blocking(stream: &mut TcpStream, bytes: &[u8]) -> io::Result<()> {
    use io::Write;
    stream.set_nonblocking(false)?;
    let result = stream.write_all(bytes);
    stream.set_nonblocking(true)?;
    result
}

/// Routes one decoded frame.
fn dispatch(
    frame: Frame,
    stream: &mut TcpStream,
    pending: &mut VecDeque<PendingRequest>,
    shared: &Shared,
    scratch: &mut ConnScratch,
) -> io::Result<()> {
    let request_id = frame.request_id;
    match frame.payload {
        Payload::InferRequest { dims, data } => {
            match submit_batch(&shared.router, request_id, &dims, &data, &mut scratch.row) {
                Ok(request) => pending.push_back(request),
                Err((code, message)) => {
                    write_blocking(
                        stream,
                        &Frame::new(request_id, Payload::Error { code, message }),
                    )?;
                }
            }
        }
        Payload::Control(text) => {
            let (reply, action) = handle_control(&shared.router, &text);
            write_blocking(
                stream,
                &Frame::new(request_id, Payload::ControlReply(reply)),
            )?;
            if action == ControlAction::Drain {
                shared.begin_drain();
            }
        }
        Payload::InferReply { .. } | Payload::ControlReply { .. } | Payload::Error { .. } => {
            write_blocking(
                stream,
                &Frame::new(
                    request_id,
                    Payload::Error {
                        code: ErrorCode::BadRequest,
                        message: "clients may only send InferRequest and Control frames".into(),
                    },
                ),
            )?;
        }
    }
    Ok(())
}

/// Validates a batch against the router's sample shape and routes every
/// row. All-or-nothing: a row that fails aborts the request (already
/// routed rows complete on their shards; their replies are discarded).
fn submit_batch(
    router: &ShardRouter,
    request_id: u64,
    dims: &[usize],
    data: &[f32],
    row: &mut Tensor,
) -> Result<PendingRequest, (ErrorCode, String)> {
    let sample_dims = router.sample_dims();
    if dims.len() != sample_dims.len() + 1 || dims[1..] != *sample_dims {
        return Err((
            ErrorCode::BadRequest,
            format!("batch shape {dims:?} does not match [rows, {sample_dims:?}...]",),
        ));
    }
    let rows = dims[0];
    let row_len: usize = sample_dims.iter().product();
    debug_assert_eq!(data.len(), rows * row_len, "codec validated the length");
    let mut tickets = Vec::with_capacity(rows);
    // `row` is the connection's staging tensor: the router's shard clones
    // it into the admitted request, so the staging buffer itself is
    // reused for every row of every batch on this connection.
    row.resize_in_place(sample_dims);
    for r in 0..rows {
        row.data_mut()
            .copy_from_slice(&data[r * row_len..(r + 1) * row_len]);
        match router.route(&*row) {
            Ok(ticket) => tickets.push(Some(ticket)),
            Err(RouterError::Overloaded) => {
                return Err((
                    ErrorCode::Backpressure,
                    format!("shed at row {r}/{rows}: all candidate shards at capacity"),
                ));
            }
            Err(RouterError::Draining) => {
                return Err((ErrorCode::Draining, "router is draining".into()));
            }
            Err(RouterError::Serve(e)) => {
                return Err((ErrorCode::Internal, format!("shard failure: {e}")));
            }
        }
    }
    let replies = (0..rows).map(|_| None).collect();
    Ok(PendingRequest {
        request_id,
        tickets,
        replies,
    })
}

/// Writes replies for every front-of-queue request whose rows have all
/// completed (in submission order; ids pin the pairing for the client).
/// Returns whether any reply (or error frame) was written — the
/// handler's poll backoff resets on that progress signal.
fn flush_ready(
    stream: &mut TcpStream,
    pending: &mut VecDeque<PendingRequest>,
    scratch: &mut ConnScratch,
) -> io::Result<bool> {
    let mut progressed = false;
    while let Some(front) = pending.front_mut() {
        match front.poll() {
            Ok(true) => {
                let request = pending.pop_front().expect("front exists");
                request.write_reply(stream, scratch)?;
                progressed = true;
            }
            Ok(false) => break,
            Err(e) => {
                let request = pending.pop_front().expect("front exists");
                write_blocking(
                    stream,
                    &Frame::new(
                        request.request_id,
                        Payload::Error {
                            code: ErrorCode::Internal,
                            message: format!("shard failure: {e}"),
                        },
                    ),
                )?;
                progressed = true;
            }
        }
    }
    Ok(progressed)
}

/// Blocks until every pending request is answered and written — the
/// drain/EOF path. Write errors abort (the peer is gone; shard replies
/// are still consumed so the router's in-flight counters settle).
fn flush_all(
    stream: &mut TcpStream,
    pending: &mut VecDeque<PendingRequest>,
    scratch: &mut ConnScratch,
) -> io::Result<()> {
    let mut write_error = None;
    while let Some(mut request) = pending.pop_front() {
        let result = match request.wait_all() {
            Ok(()) => {
                if write_error.is_none() {
                    request.write_reply(stream, scratch)
                } else {
                    Ok(())
                }
            }
            Err(e) => {
                let frame = Frame::new(
                    request.request_id,
                    Payload::Error {
                        code: ErrorCode::Internal,
                        message: format!("shard failure: {e}"),
                    },
                );
                if write_error.is_none() {
                    write_blocking(stream, &frame)
                } else {
                    Ok(())
                }
            }
        };
        if write_error.is_none() {
            if let Err(e) = result {
                write_error = Some(e);
            }
        }
    }
    match write_error {
        Some(e) => Err(e),
        None => Ok(()),
    }
}
