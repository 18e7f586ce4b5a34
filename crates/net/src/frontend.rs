//! The TCP frontend: an acceptor thread and a fixed pool of event-driven
//! connection handlers feeding the shard router.
//!
//! Each handler thread owns a *set* of non-blocking connections and
//! sleeps only in `poll(2)`, on its sockets plus one wake socket. The
//! acceptor, which polls the listener and a wake socket of its own, hands
//! each new connection to the handler holding the fewest. A handler
//! wakes when:
//!
//! 1. a socket is readable — it reads and decodes frames (partial frames
//!    are buffered by [`FrameReader`]) and dispatches them: infer batches
//!    row by row through the router, each row's ticket registered with
//!    the handler's waker; control frames through [`handle_control`];
//! 2. a reply landed — the shard worker's wake writes to the wake socket,
//!    and the handler moves completed replies (in per-connection
//!    submission order, pinned by request id) into the connection's
//!    outbound buffer;
//! 3. a socket whose outbound buffer the peer had not taken is writable
//!    again;
//! 4. a connection deadline passed, or a drain began.
//!
//! A slow, idle or hostile peer therefore stalls only its own connection.
//!
//! **Deadlines**: a connection with nothing in flight and no *complete*
//! frame for `idle_timeout` is closed — a partial frame does not reset
//! the timer, so a peer trickling header bytes is reaped too. A
//! connection whose replies the peer has not taken for `write_timeout` is
//! closed.
//!
//! **Backpressure contract**: a shed or queue-full submission answers the
//! offending request with an [`ErrorCode::Backpressure`] error frame
//! (never silence, never disconnect); a new connection beyond
//! `max_connections` is answered with the same frame and closed.
//! Pipelined clients are bounded by `max_inflight_rows` and by the
//! outbound buffer bound: beyond either, the handler stops reading that
//! connection, which surfaces to the peer as TCP backpressure.
//!
//! **Drain contract**: `{"cmd":"drain"}` (or [`Frontend::drain`]) stops
//! the acceptor and the router's shards, and wakes every handler. The
//! handlers stop reading, flush every in-flight reply, then close each
//! connection. [`Frontend::join`] returns once the drain has fully
//! settled; accepted requests are never dropped.

use crate::control::{handle_control, ControlAction, FrontendStats};
use crate::event::{
    poll_fds, wake_pair, PollFd, WakeReceiver, Wakeup, POLLERR, POLLHUP, POLLIN, POLLOUT,
};
use crate::frame::{
    encode_infer_reply_into, encode_into, write_frame, ErrorCode, Frame, FrameReader, Payload,
    PollFrame, ReadFrameError, DEFAULT_MAX_PAYLOAD,
};
use cn_serve::{Reply, RouterError, RouterTicket, ServeError, ShardRouter};
use cn_tensor::Tensor;
use std::collections::VecDeque;
use std::ffi::c_short;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::Waker;
use std::time::{Duration, Instant};

/// Frontend configuration: pool sizes, frame cap and connection
/// deadlines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontendConfig {
    /// Connection-handler threads; each serves any number of connections.
    pub handlers: usize,
    /// Most connections open at once across all handlers; beyond it a new
    /// connection is answered with a backpressure frame and closed.
    pub max_connections: usize,
    /// Frame payload cap enforced on every decode.
    pub max_payload: usize,
    /// A connection with nothing in flight and no complete frame for this
    /// long is closed. Partial frames do not reset the timer.
    pub idle_timeout: Duration,
    /// A connection whose peer takes none of its buffered replies for
    /// this long is closed.
    pub write_timeout: Duration,
    /// Most in-flight rows one connection may pipeline before the
    /// handler stops reading from it (TCP-level backpressure).
    pub max_inflight_rows: usize,
}

impl Default for FrontendConfig {
    fn default() -> FrontendConfig {
        FrontendConfig {
            handlers: 4,
            max_connections: 256,
            max_payload: DEFAULT_MAX_PAYLOAD,
            idle_timeout: Duration::from_secs(30),
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

    /// Sets the idle timeout.
    pub fn idle_timeout(mut self, timeout: Duration) -> FrontendConfig {
        self.idle_timeout = timeout;
        self
    }
}

/// Encoded reply bytes one connection may buffer before its handler stops
/// reading from it; with `max_inflight_rows` this bounds the memory a
/// peer that stops reading can pin.
const OUT_LIMIT: usize = 256 * 1024;

/// How long the acceptor leaves the listener alone after an accept error
/// other than "nothing pending" (out of descriptors, say): the listener
/// stays readable, so polling it at once would spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// What the acceptor shares with one handler thread.
struct HandlerSlot {
    /// Connections handed over by the acceptor, not yet adopted.
    inbox: Mutex<Vec<TcpStream>>,
    /// Connections this handler owns, its inbox included.
    open: AtomicUsize,
    /// Interrupts the handler's poll.
    wakeup: Arc<Wakeup>,
}

impl HandlerSlot {
    fn inbox(&self) -> MutexGuard<'_, Vec<TcpStream>> {
        // Every update leaves the vector valid, so a poisoned lock is
        // safe to keep using.
        self.inbox
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Shared state between the acceptor, the handlers and the [`Frontend`]
/// handle.
struct Shared {
    router: Arc<ShardRouter>,
    config: FrontendConfig,
    draining: AtomicBool,
    /// Set once the acceptor has handed over its last connection.
    acceptor_done: AtomicBool,
    acceptor_wakeup: Arc<Wakeup>,
    handlers: Vec<HandlerSlot>,
    /// Connections answered-and-closed at the connection limit.
    conns_shed: AtomicU64,
    /// Connections dropped because serving them panicked (the panic is
    /// contained; the handler keeps serving its other connections).
    handler_panics: AtomicU64,
}

impl Shared {
    /// Idempotently begins the frontend-wide drain: stop accepting, stop
    /// shard admission, and wake every thread to flush and wind down.
    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::AcqRel) {
            self.router.drain();
            self.acceptor_wakeup.notify();
            for slot in &self.handlers {
                slot.wakeup.notify();
            }
        }
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn connections_open(&self) -> u64 {
        self.handlers
            .iter()
            .map(|slot| slot.open.load(Ordering::Relaxed) as u64)
            .sum()
    }

    fn stats(&self) -> FrontendStats {
        FrontendStats {
            connections_open: self.connections_open(),
            connections_shed: self.conns_shed.load(Ordering::Relaxed),
            handler_panics: self.handler_panics.load(Ordering::Relaxed),
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
    /// Propagates bind and socket-setup I/O errors; a config with no
    /// handlers is [`io::ErrorKind::InvalidInput`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        router: Arc<ShardRouter>,
        config: FrontendConfig,
    ) -> io::Result<Frontend> {
        if config.handlers == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a frontend needs at least one handler",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (acceptor_wakeup, acceptor_rx) = wake_pair()?;
        let mut slots = Vec::with_capacity(config.handlers);
        let mut receivers = Vec::with_capacity(config.handlers);
        for _ in 0..config.handlers {
            let (wakeup, rx) = wake_pair()?;
            slots.push(HandlerSlot {
                inbox: Mutex::new(Vec::new()),
                open: AtomicUsize::new(0),
                wakeup,
            });
            receivers.push(rx);
        }
        let shared = Arc::new(Shared {
            router,
            config,
            draining: AtomicBool::new(false),
            acceptor_done: AtomicBool::new(false),
            acceptor_wakeup,
            handlers: slots,
            conns_shed: AtomicU64::new(0),
            handler_panics: AtomicU64::new(0),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            // cn-lint: allow(unbounded-thread-spawn, reason = "exactly one acceptor thread; joined in Frontend::join")
            std::thread::Builder::new()
                .name("cn-net-acceptor".into())
                // cn-lint: allow(panic-unsafe-pool-thread, reason = "acceptor loop matches every accept error non-fatally and has no panic path; its exit is observed by Frontend::join at drain")
                .spawn(move || acceptor_loop(&listener, &shared, acceptor_rx))
                .expect("spawn acceptor thread")
        };
        let handlers = receivers
            .into_iter()
            .enumerate()
            .map(|(h, rx)| {
                let shared = Arc::clone(&shared);
                // cn-lint: allow(unbounded-thread-spawn, reason = "bounded by config.handlers; joined in Frontend::join")
                std::thread::Builder::new()
                    .name(format!("cn-net-handler-{h}"))
                    .spawn(move || handler_loop(&shared, h, rx))
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
        self.shared.draining()
    }

    /// Connections currently held by the handlers.
    pub fn connections_open(&self) -> u64 {
        self.shared.connections_open()
    }

    /// Connections rejected because the frontend was at
    /// `max_connections`.
    pub fn connections_shed(&self) -> u64 {
        self.shared.conns_shed.load(Ordering::Relaxed)
    }

    /// Connections dropped because serving them panicked. The handler
    /// survives a panic (that connection's state is dropped with it), but
    /// a non-zero count means a bug worth chasing.
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

fn acceptor_loop(listener: &TcpListener, shared: &Shared, mut wake_rx: WakeReceiver) {
    // Non-blocking accept: the loop accepts until the backlog is empty,
    // then sleeps in poll on the listener and the drain wake.
    listener
        .set_nonblocking(true)
        .expect("set listener non-blocking");
    let mut backoff_until: Option<Instant> = None;
    while !shared.draining() {
        if backoff_until.is_some_and(|until| Instant::now() >= until) {
            backoff_until = None;
        }
        if backoff_until.is_none() {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => hand_off(stream, shared),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    // Transient accept errors (too many fds, peer reset
                    // mid handshake) must not kill the acceptor.
                    Err(_) => {
                        backoff_until = Some(Instant::now() + ACCEPT_BACKOFF);
                        break;
                    }
                }
            }
        }
        let listen = if backoff_until.is_none() { POLLIN } else { 0 };
        let mut fds = [
            PollFd::new(wake_rx.fd(), POLLIN),
            PollFd::new(listener.as_raw_fd(), listen),
        ];
        let timeout = backoff_until.map(|until| until.saturating_duration_since(Instant::now()));
        // Poll fails only on a bad descriptor table, which these two
        // live descriptors cannot form; the loop re-checks either way.
        let _ = poll_fds(&mut fds, timeout);
        if fds[0].revents() != 0 {
            wake_rx.clear();
        }
    }
    shared.acceptor_done.store(true, Ordering::Release);
    for slot in &shared.handlers {
        slot.wakeup.notify();
    }
}

/// Gives a new connection to the handler holding the fewest, or refuses
/// it at the connection limit or during a drain.
fn hand_off(stream: TcpStream, shared: &Shared) {
    if shared.draining() {
        // A drain won the race against this accept: telling the peer to
        // retry would be a lie.
        reject_connection(
            stream,
            &shared.config,
            ErrorCode::Draining,
            "server draining",
        );
        return;
    }
    if shared.connections_open() >= shared.config.max_connections as u64 {
        shared.conns_shed.fetch_add(1, Ordering::Relaxed);
        reject_connection(
            stream,
            &shared.config,
            ErrorCode::Backpressure,
            "connection limit reached; retry later",
        );
        return;
    }
    let slot = shared
        .handlers
        .iter()
        .min_by_key(|slot| slot.open.load(Ordering::Relaxed))
        .expect("bind checked there is a handler");
    slot.open.fetch_add(1, Ordering::Relaxed);
    slot.inbox().push(stream);
    slot.wakeup.notify();
}

/// Answers a connection the frontend will not serve with the named error
/// frame ([`ErrorCode::Backpressure`] at the connection limit,
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

fn handler_loop(shared: &Shared, index: usize, mut wake_rx: WakeReceiver) {
    let slot = &shared.handlers[index];
    let waker = Waker::from(Arc::clone(&slot.wakeup));
    // cn-lint: allow(alloc-in-hot-loop, reason = "the handler's connection set, created once per thread and reused")
    let mut conns: Vec<Conn> = Vec::new();
    // cn-lint: allow(alloc-in-hot-loop, reason = "the handler's poll table, created once per thread and reused")
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        let now = Instant::now();
        for stream in slot.inbox().drain(..) {
            match Conn::new(stream, &shared.config, now) {
                Ok(conn) => conns.push(conn),
                Err(_) => {
                    slot.open.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
        conns.retain_mut(|conn| {
            // A failure serving one connection — an error *or* a panic —
            // closes that connection only: an unwinding handler would
            // silently drop every connection it owns. All per-connection
            // state lives in `conn`, which is dropped with the failure.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                conn.serve(shared, &waker, now)
            }));
            let keep = match outcome {
                Ok(Ok(keep)) => keep,
                Ok(Err(_)) => false,
                Err(_) => {
                    shared.handler_panics.fetch_add(1, Ordering::Relaxed);
                    false
                }
            };
            if !keep {
                slot.open.fetch_sub(1, Ordering::Relaxed);
            }
            keep
        });
        if conns.is_empty()
            && shared.draining()
            && shared.acceptor_done.load(Ordering::Acquire)
            && slot.inbox().is_empty()
        {
            return;
        }

        fds.clear();
        fds.push(PollFd::new(wake_rx.fd(), POLLIN));
        for conn in &conns {
            fds.push(PollFd::new(conn.stream.as_raw_fd(), conn.interest(shared)));
        }
        let deadline = conns
            .iter()
            .filter_map(|conn| conn.deadline(&shared.config))
            .min();
        let timeout = deadline.map(|due| due.saturating_duration_since(Instant::now()));
        // Poll fails only on a bad descriptor table; every entry here is
        // an open socket or disabled, so the loop just re-checks.
        let _ = poll_fds(&mut fds, timeout);
        if fds[0].revents() != 0 {
            wake_rx.clear();
        }
        for (conn, fd) in conns.iter_mut().zip(&fds[1..]) {
            if fd.revents() & (POLLIN | POLLHUP | POLLERR) != 0 {
                conn.readable = true;
            }
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

/// One connection a handler serves: its socket, the partial frame being
/// read, the requests in flight, the reply staging and the encoded bytes
/// the socket has not yet taken.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    pending: VecDeque<PendingRequest>,
    /// Rows of the requests in `pending`.
    inflight_rows: usize,
    scratch: ConnScratch,
    /// Encoded frames the socket has not yet accepted.
    out: Vec<u8>,
    /// The socket may hold unread bytes: set by poll, cleared when a read
    /// finds nothing.
    readable: bool,
    /// No further frames are read: the peer closed its side, or framing
    /// was lost.
    read_done: bool,
    /// When the last complete frame arrived or the last reply was
    /// queued: the idle timer's origin.
    last_active: Instant,
    /// Since when `out` has held bytes the socket did not take.
    stalled_since: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, config: &FrontendConfig, now: Instant) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        Ok(Conn {
            stream,
            reader: FrameReader::with_cap(config.max_payload),
            pending: VecDeque::new(),
            inflight_rows: 0,
            scratch: ConnScratch::new(),
            out: Vec::new(),
            readable: true,
            read_done: false,
            last_active: now,
            stalled_since: None,
        })
    }

    /// Whether the handler should read more frames now: not past the
    /// pipelining bound, the outbound buffer bound, EOF or a drain.
    fn wants_read(&self, shared: &Shared) -> bool {
        !self.read_done
            && !shared.draining()
            && self.inflight_rows < shared.config.max_inflight_rows
            && self.out.len() < OUT_LIMIT
    }

    /// The poll events this connection waits for.
    fn interest(&self, shared: &Shared) -> c_short {
        let read = if self.wants_read(shared) { POLLIN } else { 0 };
        let write = if self.out.is_empty() { 0 } else { POLLOUT };
        read | write
    }

    /// Nothing in flight and nothing left to write.
    fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.out.is_empty()
    }

    /// When this connection next needs attention without any event: the
    /// idle or the write deadline.
    fn deadline(&self, config: &FrontendConfig) -> Option<Instant> {
        let idle =
            (self.is_idle() && !self.read_done).then(|| self.last_active + config.idle_timeout);
        let write = self.stalled_since.map(|since| since + config.write_timeout);
        idle.into_iter().chain(write).min()
    }

    /// Does all the work the connection allows without blocking: queue
    /// completed replies, write, read and dispatch frames. Returns
    /// whether to keep the connection open.
    ///
    /// Replies are queued and written before every read, so a bound that
    /// stops reading is never left closed by replies that had already
    /// landed; the loop ends only when a later event — readability, a
    /// reply wake or writability — will reopen it.
    fn serve(&mut self, shared: &Shared, waker: &Waker, now: Instant) -> io::Result<bool> {
        loop {
            self.flush_ready(now);
            self.write_out(now)?;
            if !(self.readable && self.wants_read(shared)) {
                break;
            }
            match self.reader.poll(&mut self.stream) {
                Ok(PollFrame::Frame(frame)) => {
                    self.last_active = now;
                    self.dispatch(frame, shared, waker);
                }
                Ok(PollFrame::Pending) => self.readable = false,
                Ok(PollFrame::Eof) => self.read_done = true,
                Err(ReadFrameError::Frame(e)) => {
                    // Framing is lost: answer with the named decode error,
                    // flush what we owe, then close.
                    self.queue_frame(&Frame::new(
                        0,
                        Payload::Error {
                            code: ErrorCode::BadRequest,
                            message: e.to_string(),
                        },
                    ));
                    self.read_done = true;
                }
                // The peer vanished; nothing left to flush to.
                Err(ReadFrameError::Io(e)) => return Err(e),
            }
        }
        let finished = self.is_idle() && (self.read_done || shared.draining());
        let expired = self.deadline(&shared.config).is_some_and(|due| now >= due);
        Ok(!(finished || expired))
    }

    /// Routes one decoded frame: infer batches into `pending`, control
    /// and error answers straight into the outbound buffer.
    fn dispatch(&mut self, frame: Frame, shared: &Shared, waker: &Waker) {
        let request_id = frame.request_id;
        match frame.payload {
            Payload::InferRequest { dims, data } => {
                match submit_batch(
                    &shared.router,
                    request_id,
                    &dims,
                    &data,
                    &mut self.scratch.row,
                    waker,
                ) {
                    Ok(request) => {
                        self.inflight_rows += request.rows();
                        self.pending.push_back(request);
                    }
                    Err((code, message)) => {
                        self.queue_frame(&Frame::new(request_id, Payload::Error { code, message }));
                    }
                }
            }
            Payload::Control(text) => {
                let (reply, action) = handle_control(&shared.router, &shared.stats(), &text);
                self.queue_frame(&Frame::new(request_id, Payload::ControlReply(reply)));
                if action == ControlAction::Drain {
                    shared.begin_drain();
                }
            }
            Payload::InferReply { .. } | Payload::ControlReply { .. } | Payload::Error { .. } => {
                self.queue_frame(&Frame::new(
                    request_id,
                    Payload::Error {
                        code: ErrorCode::BadRequest,
                        message: "clients may only send InferRequest and Control frames".into(),
                    },
                ));
            }
        }
    }

    /// Appends one encoded frame to the outbound buffer.
    fn queue_frame(&mut self, frame: &Frame) {
        encode_into(frame, &mut self.scratch.wire);
        self.out.extend_from_slice(&self.scratch.wire);
    }

    /// Queues replies for every front-of-queue request whose rows have
    /// all completed (in submission order; ids pin the pairing for the
    /// client), until the outbound buffer is at its bound. Staging and
    /// encode buffers are reused — the steady-state reply path allocates
    /// nothing.
    fn flush_ready(&mut self, now: Instant) {
        while self.out.len() < OUT_LIMIT {
            let Some(front) = self.pending.front_mut() else {
                return;
            };
            let outcome = front.poll();
            if matches!(outcome, Ok(false)) {
                return;
            }
            let request = self.pending.pop_front().expect("front exists");
            self.inflight_rows -= request.rows();
            self.last_active = now;
            match outcome {
                Ok(_) => {
                    request.encode_reply(&mut self.scratch);
                    self.out.extend_from_slice(&self.scratch.wire);
                }
                Err(e) => self.queue_frame(&Frame::new(
                    request.request_id,
                    Payload::Error {
                        code: ErrorCode::Internal,
                        message: format!("shard failure: {e}"),
                    },
                )),
            }
        }
    }

    /// Writes as much of the outbound buffer as the socket takes without
    /// blocking, and tracks how long it has been stuck.
    fn write_out(&mut self, now: Instant) -> io::Result<()> {
        let mut written = 0;
        while written < self.out.len() {
            match (&self.stream).write(&self.out[written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.drain(..written);
        if self.out.is_empty() {
            self.stalled_since = None;
        } else if written > 0 || self.stalled_since.is_none() {
            self.stalled_since = Some(now);
        }
        Ok(())
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

    /// Encodes the wire reply into `scratch.wire` (every row must be
    /// answered).
    fn encode_reply(&self, scratch: &mut ConnScratch) {
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
    }
}

/// Validates a batch against the router's sample shape and routes every
/// row, registering `waker` on each row's ticket. All-or-nothing: a row
/// that fails aborts the request (already routed rows complete on their
/// shards; their replies are discarded).
fn submit_batch(
    router: &ShardRouter,
    request_id: u64,
    dims: &[usize],
    data: &[f32],
    row: &mut Tensor,
    waker: &Waker,
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
            Ok(ticket) => {
                ticket.register_waker(waker);
                tickets.push(Some(ticket));
            }
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
