//! One serving instance: admission queue → dynamic batcher → worker
//! sessions → per-request reply slots.

use crate::config::ServeConfig;
use crate::queue::{AdmissionQueue, PushError};
use crate::stats::{ServerStats, StatsCollector};
use cn_analog::engine::{CompiledModel, Session};
use cn_tensor::{parallel, Tensor};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::Waker;
use std::time::Instant;

/// Why a request could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue is at capacity — back off and retry.
    QueueFull,
    /// The server is shutting down and admits no new requests.
    ShuttingDown,
    /// The worker executing the request disappeared before replying
    /// (it panicked); the request is lost.
    WorkerGone,
    /// The submitted sample's shape disagrees with the instance's input
    /// shape.
    ShapeMismatch {
        /// Shape the instance expects.
        expected: Vec<usize>,
        /// Shape that was submitted.
        got: Vec<usize>,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "admission queue is full"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::WorkerGone => write!(f, "serving worker dropped the request"),
            ServeError::ShapeMismatch { expected, got } => {
                write!(f, "sample shape {got:?} != expected {expected:?}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// The answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Raw logits of the request's sample.
    pub logits: Vec<f32>,
    /// Argmax class (first maximum wins, matching the evaluation path).
    pub class: usize,
    /// Size of the micro-batch this request rode in.
    pub batch_size: usize,
}

/// The reply rendezvous one request rides on — a one-shot slot the worker
/// fills and the client drains.
///
/// This replaces the previous per-request `mpsc` channel: an mpsc send
/// heap-allocates a node per message, which broke the zero-allocation
/// steady-state contract of the worker loop. The slot is a plain
/// mutex+condvar state machine; the client pre-allocates the logits
/// buffer at submit time (sized from the instance's last observed reply
/// width), so the worker only copies into warm client-owned memory.
///
/// A client that multiplexes many tickets on one thread (the network
/// frontend) registers a [`Waker`] instead of blocking on the condvar;
/// the worker wakes it after releasing the lock. Waking an `Arc`-backed
/// waker only moves a reference count, so the worker stays
/// allocation-free.
#[derive(Debug)]
struct ReplySlot {
    // cn-lint: allow(lock-in-hot-path, reason = "uncontended per-request oneshot held for a copy of one logits row; replaces an mpsc channel whose send allocated per reply")
    inner: Mutex<SlotInner>,
    cv: Condvar,
}

/// What [`ReplySlot`]'s mutex guards: the slot's state and the waker of
/// a client that asked to be told when it leaves `Pending`.
#[derive(Debug)]
struct SlotInner {
    state: SlotState,
    waker: Option<Waker>,
}

/// Lifecycle of one reply slot.
#[derive(Debug)]
enum SlotState {
    /// Waiting for the worker; holds the client's pre-allocated logits
    /// buffer the worker will fill.
    Pending(Vec<f32>),
    /// The worker delivered; waiting for the client to take it.
    Ready(Reply),
    /// One side departed: the client dropped its ticket, or the request
    /// was dropped unreplied (worker panic / server teardown).
    Abandoned,
    /// The client consumed the reply; the ticket is spent.
    Taken,
}

impl ReplySlot {
    fn new(logits_capacity: usize) -> Arc<ReplySlot> {
        Arc::new(ReplySlot {
            // cn-lint: allow(lock-in-hot-path, reason = "see ReplySlot::inner — per-request oneshot, not a shared hot lock")
            inner: Mutex::new(SlotInner {
                state: SlotState::Pending(Vec::with_capacity(logits_capacity)),
                waker: None,
            }),
            cv: Condvar::new(),
        })
    }

    // cn-lint: allow(lock-in-hot-path, reason = "per-request oneshot slot: uncontended except for the one worker/client handoff")
    fn lock(&self) -> std::sync::MutexGuard<'_, SlotInner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Worker side: deliver one reply row. Allocation-free whenever the
    /// client's pre-allocated buffer already holds `row_logits.len()`
    /// capacity (steady state; the first requests against a fresh
    /// instance arrive before the reply width is known and grow it once).
    fn fulfill(&self, row_logits: &[f32], class: usize, batch_size: usize) {
        let mut inner = self.lock();
        if let SlotState::Pending(buf) = &mut inner.state {
            let mut logits = std::mem::take(buf);
            logits.clear();
            logits.extend_from_slice(row_logits);
            let reply = Reply {
                logits,
                class,
                batch_size,
            };
            self.settle(inner, SlotState::Ready(reply));
        }
        // Abandoned: the client left; nothing to deliver.
    }

    /// Either side: mark the slot abandoned if still pending, waking a
    /// blocked or registered waiter.
    fn abandon(&self) {
        let inner = self.lock();
        if matches!(inner.state, SlotState::Pending(_)) {
            self.settle(inner, SlotState::Abandoned);
        }
    }

    /// Moves a pending slot to `state`, then wakes its waiters once the
    /// lock is released: the blocked one through the condvar, a
    /// registered one through its waker.
    // cn-lint: allow(lock-in-hot-path, reason = "takes the per-request oneshot guard from fulfill/abandon; no shared lock")
    fn settle(&self, mut inner: std::sync::MutexGuard<'_, SlotInner>, state: SlotState) {
        inner.state = state;
        let waker = inner.waker.take();
        drop(inner);
        self.cv.notify_all();
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Client side: have `waker` woken once the slot leaves `Pending`, or
    /// at once if it already has — a reply that lands before the
    /// registration is never missed.
    fn register(&self, waker: &Waker) {
        let mut inner = self.lock();
        if matches!(inner.state, SlotState::Pending(_)) {
            match &inner.waker {
                Some(current) if current.will_wake(waker) => {}
                _ => inner.waker = Some(waker.clone()),
            }
        } else {
            drop(inner);
            waker.wake_by_ref();
        }
    }
}

/// A pending reply handle returned by [`Server::submit`].
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<ReplySlot>,
}

impl Ticket {
    /// Blocks until the reply arrives.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerGone`] if the executing worker panicked.
    pub fn wait(self) -> Result<Reply, ServeError> {
        let mut inner = self.slot.lock();
        loop {
            match &mut inner.state {
                SlotState::Ready(_) => {
                    let SlotState::Ready(reply) =
                        std::mem::replace(&mut inner.state, SlotState::Taken)
                    else {
                        unreachable!("matched Ready above");
                    };
                    return Ok(reply);
                }
                SlotState::Abandoned | SlotState::Taken => return Err(ServeError::WorkerGone),
                SlotState::Pending(_) => {
                    inner = self
                        .slot
                        .cv
                        .wait(inner)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            }
        }
    }

    /// Non-blocking poll: `None` while the request is still in flight.
    ///
    /// Once this returns `Some`, the ticket is spent — further polls
    /// report [`ServeError::WorkerGone`] because the reply has been
    /// consumed. Network frontends use this to multiplex many in-flight
    /// tickets over one connection-handler thread, with
    /// [`register_waker`](Ticket::register_waker) telling them when to
    /// poll again.
    pub fn try_wait(&mut self) -> Option<Result<Reply, ServeError>> {
        let mut inner = self.slot.lock();
        match &mut inner.state {
            SlotState::Pending(_) => None,
            SlotState::Ready(_) => {
                let SlotState::Ready(reply) = std::mem::replace(&mut inner.state, SlotState::Taken)
                else {
                    unreachable!("matched Ready above");
                };
                Some(Ok(reply))
            }
            SlotState::Abandoned | SlotState::Taken => Some(Err(ServeError::WorkerGone)),
        }
    }

    /// Wakes `waker` once the reply lands or the request is lost, so a
    /// thread multiplexing many tickets can sleep until one of them
    /// completes and then [`try_wait`](Ticket::try_wait). If the reply has
    /// already landed, `waker` is woken at once. Only the most recently
    /// registered waker is kept; it fires at most once.
    pub fn register_waker(&self, waker: &Waker) {
        self.slot.register(waker);
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        // A departed client: let the worker skip the copy.
        self.slot.abandon();
    }
}

/// One queued request: the sample, its reply slot and the admission
/// timestamp the latency histogram is fed from.
struct Request {
    input: Tensor,
    slot: Arc<ReplySlot>,
    enqueued_at: Instant,
}

impl Drop for Request {
    fn drop(&mut self) {
        // Dropped unreplied (worker panic, server teardown mid-flight):
        // wake the waiting client with WorkerGone instead of hanging it.
        // After a normal fulfill the slot is Ready and this is a no-op.
        self.slot.abandon();
    }
}

/// State shared between the server handle and its workers: the hot-swap
/// deployment slot, the health counters, and the last observed reply
/// width (logits per sample) used to pre-size client reply buffers.
struct Shared {
    // cn-lint: allow(lock-in-hot-path, reason = "hot-swap slot: locked once per install/rebind at a batch boundary, never per request")
    slot: Mutex<Arc<CompiledModel>>,
    epoch: AtomicU64,
    stats: StatsCollector,
    /// Logits-per-sample of the most recent batch; 0 until the first
    /// batch completes. Written by workers, read by `submit` to size the
    /// client-side reply buffer so the worker never allocates to reply.
    reply_width: AtomicUsize,
}

/// A multi-threaded dynamic-batching inference server over one compiled
/// deployment.
///
/// Requests are admitted through a bounded queue; `workers` threads each
/// own a [`Session`] bound to the instance's current [`CompiledModel`],
/// take whatever is queued (up to `max_batch`) as one micro-batch,
/// execute it, and scatter per-row replies back through per-request reply
/// slots. A worker never waits for a batch to fill: rows that arrive
/// while it executes form its next batch. [`install`](Server::install) hot-swaps
/// the deployment (e.g. after a drift-aware recompilation) without
/// stopping traffic: workers rebind their session at the next batch
/// boundary.
///
/// The workers are the outer fan-out. They are spawned through
/// [`cn_tensor::parallel::spawn_worker`], so the kernels a batch runs stay
/// on the worker's own thread however many rows it holds. Size `workers`
/// to the cores the instance should occupy; a conv model wants `workers`
/// = cores.
///
/// The worker loop is allocation-free in the steady state at any
/// `CN_THREADS`: batch staging, session scratch, prediction buffers and
/// reply payloads all live in pre-sized, recycled memory (see
/// `run_batch`).
///
/// Dropping the server closes the queue, drains already-admitted
/// requests and joins the workers.
pub struct Server {
    queue: Arc<AdmissionQueue<Request>>,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    sample_dims: Vec<usize>,
    config: ServeConfig,
}

impl Server {
    /// Starts a server over `compiled`, accepting samples of shape
    /// `sample_dims` (without the batch dimension).
    ///
    /// # Panics
    ///
    /// Panics if `sample_dims` is empty.
    pub fn new(
        compiled: Arc<CompiledModel>,
        sample_dims: &[usize],
        config: &ServeConfig,
    ) -> Server {
        assert!(!sample_dims.is_empty(), "sample_dims must be non-empty");
        let queue = Arc::new(AdmissionQueue::new(config.queue_capacity));
        let shared = Arc::new(Shared {
            // cn-lint: allow(lock-in-hot-path, reason = "hot-swap slot construction; see Shared::slot")
            slot: Mutex::new(Arc::clone(&compiled)),
            epoch: AtomicU64::new(0),
            stats: StatsCollector::new(),
            reply_width: AtomicUsize::new(0),
        });
        let workers = (0..config.workers)
            .map(|w| {
                let queue = Arc::clone(&queue);
                let shared = Arc::clone(&shared);
                let cfg = config.clone();
                let dims = sample_dims.to_vec();
                parallel::spawn_worker(format!("cn-serve-worker-{w}"), move || {
                    worker_loop(&queue, &shared, &cfg, &dims)
                })
                .expect("spawn serving worker")
            })
            .collect();
        Server {
            queue,
            shared,
            workers,
            sample_dims: sample_dims.to_vec(),
            config: config.clone(),
        }
    }

    /// Compiles-and-starts in one call; the common case for examples and
    /// benches. See [`Server::new`].
    pub fn over(compiled: CompiledModel, sample_dims: &[usize], config: &ServeConfig) -> Server {
        Server::new(compiled.shared(), sample_dims, config)
    }

    /// Submits one sample (shape = `sample_dims`) and returns a [`Ticket`]
    /// for its reply.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShapeMismatch`] for wrong input shapes,
    /// [`ServeError::QueueFull`] under overload,
    /// [`ServeError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, input: &Tensor) -> Result<Ticket, ServeError> {
        if input.dims() != self.sample_dims {
            return Err(ServeError::ShapeMismatch {
                expected: self.sample_dims.clone(),
                got: input.dims().to_vec(),
            });
        }
        // The reply buffer is allocated here, on the client's thread, at
        // the width the last batch produced — the worker then fills it
        // without allocating. Before any batch has run the width is
        // unknown (0) and the first replies grow their buffers: warmup.
        let slot = ReplySlot::new(self.shared.reply_width.load(Ordering::Relaxed));
        let request = Request {
            input: input.clone(),
            slot: Arc::clone(&slot),
            enqueued_at: Instant::now(),
        };
        match self.queue.push(request) {
            Ok(()) => Ok(Ticket { slot }),
            Err(PushError::Full(_)) => Err(ServeError::QueueFull),
            Err(PushError::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Submits one sample and blocks for its reply.
    ///
    /// # Errors
    ///
    /// See [`Server::submit`] and [`Ticket::wait`].
    pub fn classify(&self, input: &Tensor) -> Result<Reply, ServeError> {
        self.submit(input)?.wait()
    }

    /// Hot-swaps the served deployment. In-flight batches finish on the
    /// old instance; workers rebind at their next batch boundary.
    pub fn install(&self, compiled: Arc<CompiledModel>) {
        *lock_slot(&self.shared.slot) = compiled;
        self.shared.epoch.fetch_add(1, Ordering::Release);
    }

    /// The deployment currently being served.
    pub fn current(&self) -> Arc<CompiledModel> {
        Arc::clone(&lock_slot(&self.shared.slot))
    }

    /// Number of deployment swaps since the server started.
    pub fn deployment_epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// A point-in-time health snapshot.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }

    /// The sample shape this instance accepts.
    pub fn sample_dims(&self) -> &[usize] {
        &self.sample_dims
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of requests admitted but not yet popped by a worker.
    /// Requests in an executing batch are not counted; the shard router
    /// balances on its own in-flight counter instead.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Stops admitting new requests **without** joining the workers: they
    /// drain everything already admitted, reply, and exit on their own.
    /// The non-consuming half of a graceful drain — callers that only
    /// hold `&Server` (a shard router's control plane) use this, then let
    /// `Drop`/[`shutdown`](Server::shutdown) do the join.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Stops admitting requests, drains the queue and joins the workers.
    /// Every already-admitted request still receives its reply.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

// cn-lint: allow(lock-in-hot-path, reason = "hot-swap slot accessor: called on install/current/rebind, not per batch")
fn lock_slot(slot: &Mutex<Arc<CompiledModel>>) -> std::sync::MutexGuard<'_, Arc<CompiledModel>> {
    slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The recycled per-worker memory: the coalesced batch, the staging
/// tensor the batch is assembled into, and the dims scratch for reshaping
/// it. All of it is sized for `max_batch` rows when the worker starts and
/// reused verbatim afterwards.
struct WorkerScratch {
    batch: Vec<Request>,
    stage: Tensor,
    dims: Vec<usize>,
}

/// The batcher/executor loop each worker thread runs: pop what is
/// queued, rebind to the latest deployment if it changed, assemble the
/// batch tensor, infer, scatter per-row replies, record stats.
fn worker_loop(
    queue: &AdmissionQueue<Request>,
    shared: &Shared,
    config: &ServeConfig,
    sample_dims: &[usize],
) {
    // Read the epoch before the slot: an install landing in between then
    // leaves `seen_epoch` stale, so the first batch rebinds. Read the
    // other way round, the worker could bind the old deployment under
    // the new epoch and never swap.
    let mut seen_epoch = shared.epoch.load(Ordering::Acquire);
    // Plan the session at max_batch up front so every batch size the
    // queue can produce runs in pre-sized scratch.
    let mut session = Session::with_plan(
        Arc::clone(&lock_slot(&shared.slot)),
        sample_dims,
        config.max_batch,
    );
    // cn-lint: allow(alloc-in-hot-loop, reason = "grown once per worker at startup, before the steady-state loop")
    let mut dims = Vec::with_capacity(sample_dims.len() + 1);
    dims.push(config.max_batch);
    dims.extend_from_slice(sample_dims);
    let mut scratch = WorkerScratch {
        // cn-lint: allow(alloc-in-hot-loop, reason = "grown once per worker at startup, before the steady-state loop")
        batch: Vec::with_capacity(config.max_batch),
        // Staged at max_batch rows up front, so no batch size the queue
        // can produce ever grows it.
        stage: Tensor::zeros(&dims),
        dims,
    };
    // Work-conserving: take whatever is queued and run it at once; rows
    // that arrive meanwhile form the next batch.
    loop {
        queue.pop_batch_into(config.max_batch, &mut scratch.batch);
        if scratch.batch.is_empty() {
            return; // closed and drained
        }
        // A panic while executing one batch must not kill the worker: a
        // dead thread silently shrinks the pool until the server stops
        // serving. The batch dies with the panic (its reply slots are
        // abandoned, so its clients observe WorkerGone), the panic is
        // counted, and the worker takes the next batch.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_batch(
                &mut session,
                &mut seen_epoch,
                &mut scratch,
                shared,
                config,
                sample_dims,
            );
        }));
        if unwound.is_err() {
            shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            // Drop whatever the panic left behind: each undelivered
            // request abandons its slot in Drop, releasing its client.
            scratch.batch.clear();
        }
    }
}

/// Executes one coalesced batch: rebind to the latest deployment if it
/// changed, assemble the batch tensor, infer, scatter per-row replies,
/// record stats. Steady-state allocation count: zero — staging, session
/// scratch, predictions and reply payloads are all recycled memory.
fn run_batch(
    session: &mut Session,
    seen_epoch: &mut u64,
    scratch: &mut WorkerScratch,
    shared: &Shared,
    config: &ServeConfig,
    sample_dims: &[usize],
) {
    let epoch = shared.epoch.load(Ordering::Acquire);
    if epoch != *seen_epoch {
        session.rebind(Arc::clone(&lock_slot(&shared.slot)));
        *seen_epoch = epoch;
    }

    let sample_len: usize = sample_dims.iter().product();
    let n = scratch.batch.len();
    scratch.dims.clear();
    scratch.dims.push(n);
    scratch.dims.extend_from_slice(sample_dims);
    scratch.stage.resize_in_place(&scratch.dims);
    let stage_data = scratch.stage.data_mut();
    for (row, request) in scratch.batch.iter().enumerate() {
        stage_data[row * sample_len..(row + 1) * sample_len].copy_from_slice(request.input.data());
    }
    let (logits, preds) = session.infer_logits_preds(&scratch.stage);

    let classes = logits.dims()[1];
    let data = logits.data();
    // Publish the reply width so subsequent submits pre-size their reply
    // buffers and the fulfill below never allocates.
    shared.reply_width.store(classes, Ordering::Relaxed);
    // Account the batch *before* dispatching replies: a client that
    // receives the last reply and immediately reads `stats()` must
    // see its own request counted (the counters used to be bumped
    // after the send loop, so a fast reader raced the worker and
    // observed stale totals).
    shared.stats.requests.fetch_add(n as u64, Ordering::Relaxed);
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .batch_slots
        .fetch_add(config.max_batch as u64, Ordering::Relaxed);
    for (row, request) in scratch.batch.drain(..).enumerate() {
        let micros = request
            .enqueued_at
            .elapsed()
            .as_micros()
            .min(u128::from(u64::MAX));
        shared.stats.latency.record(micros as u64);
        let row_logits = &data[row * classes..(row + 1) * classes];
        // A departed client (dropped Ticket) abandoned its slot; fulfill
        // is then a no-op, not an error.
        request.slot.fulfill(row_logits, preds[row], n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_analog::engine::EngineBuilder;
    use cn_nn::zoo::mlp;
    use cn_tensor::SeededRng;
    use std::time::Duration;

    fn server(config: &ServeConfig) -> Server {
        let model = mlp(&[4, 8, 3], 1);
        let compiled = EngineBuilder::new(&model).compile();
        Server::over(compiled, &[4], config)
    }

    #[test]
    fn replies_match_direct_inference() {
        let model = mlp(&[4, 8, 3], 1);
        let compiled = EngineBuilder::new(&model).compile().shared();
        let srv = Server::new(Arc::clone(&compiled), &[4], &ServeConfig::new(4));
        let mut rng = SeededRng::new(2);
        for _ in 0..20 {
            let x = rng.normal_tensor(&[4], 0.0, 1.0);
            let reply = srv.classify(&x).unwrap();
            let direct = compiled.infer(&x.reshape(&[1, 4]));
            assert_eq!(reply.logits, direct.data());
            assert_eq!(reply.class, direct.argmax_rows()[0]);
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let srv = server(&ServeConfig::new(2));
        let err = srv.classify(&Tensor::zeros(&[5])).unwrap_err();
        assert!(matches!(err, ServeError::ShapeMismatch { .. }));
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let srv = server(&ServeConfig::new(8));
        let x = Tensor::zeros(&[4]);
        let tickets: Vec<Ticket> = (0..50).map(|_| srv.submit(&x).unwrap()).collect();
        srv.shutdown();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let srv = server(&ServeConfig::new(2));
        srv.queue.close();
        assert_eq!(
            srv.classify(&Tensor::zeros(&[4])).unwrap_err(),
            ServeError::ShuttingDown
        );
    }

    #[test]
    fn try_wait_polls_without_blocking() {
        let srv = server(&ServeConfig::new(4));
        let mut ticket = srv.submit(&Tensor::zeros(&[4])).unwrap();
        // Poll until the reply lands; the first polls may see None.
        let reply = loop {
            if let Some(result) = ticket.try_wait() {
                break result.unwrap();
            }
            std::thread::yield_now();
        };
        assert_eq!(reply.logits.len(), 3);
        // The ticket is spent: the reply was consumed.
        assert!(matches!(
            ticket.try_wait(),
            Some(Err(ServeError::WorkerGone))
        ));
    }

    #[test]
    fn dropped_ticket_does_not_wedge_the_worker() {
        let srv = server(&ServeConfig::new(2));
        let x = Tensor::zeros(&[4]);
        drop(srv.submit(&x).unwrap());
        // The worker skips the abandoned slot and keeps serving.
        let reply = srv.classify(&x).unwrap();
        assert_eq!(reply.logits.len(), 3);
    }

    #[test]
    fn reply_width_is_published_after_first_batch() {
        let srv = server(&ServeConfig::new(2));
        assert_eq!(srv.shared.reply_width.load(Ordering::Relaxed), 0);
        srv.classify(&Tensor::zeros(&[4])).unwrap();
        assert_eq!(srv.shared.reply_width.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn close_drains_then_rejects() {
        let srv = server(&ServeConfig::new(8));
        let x = Tensor::zeros(&[4]);
        let tickets: Vec<Ticket> = (0..20).map(|_| srv.submit(&x).unwrap()).collect();
        srv.close();
        assert_eq!(srv.submit(&x).unwrap_err(), ServeError::ShuttingDown);
        // Everything admitted before the close still gets its reply.
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        // Workers exited on their own; queue_depth reads zero.
        assert_eq!(srv.queue_depth(), 0);
    }

    #[test]
    fn install_rebinds_workers_to_the_new_deployment() {
        let model = mlp(&[4, 8, 3], 3);
        let digital = EngineBuilder::new(&model).compile().shared();
        let srv = Server::new(Arc::clone(&digital), &[4], &ServeConfig::new(1).workers(1));
        let x = SeededRng::new(4).normal_tensor(&[4], 0.0, 1.0);
        let clean = srv.classify(&x).unwrap();

        let noisy = EngineBuilder::new(&model)
            .backend(cn_analog::engine::AnalogBackend::lognormal(0.8))
            .seed(9)
            .compile()
            .shared();
        srv.install(Arc::clone(&noisy));
        assert_eq!(srv.deployment_epoch(), 1);
        let swapped = srv.classify(&x).unwrap();
        assert_eq!(swapped.logits, noisy.infer(&x.reshape(&[1, 4])).data());
        assert_ne!(clean.logits, swapped.logits);
    }

    #[test]
    fn install_during_worker_startup_is_not_lost() {
        // A swap that lands while a fresh worker is still planning its
        // session must reach that worker: the epoch it starts from may
        // not be newer than the deployment it bound. The window sits
        // inside the worker thread, so the delays sweep the install
        // across its start-up instead of forcing the interleaving.
        let model = mlp(&[64, 256, 256, 10], 5);
        let x = SeededRng::new(6).normal_tensor(&[64], 0.0, 1.0);
        let nominal = EngineBuilder::new(&model).compile().shared();
        let noisy = EngineBuilder::new(&model)
            .backend(cn_analog::engine::AnalogBackend::lognormal(0.8))
            .seed(7)
            .compile()
            .shared();
        let expected = noisy.infer(&x.reshape(&[1, 64]));
        for step in 0..40u64 {
            let srv = Server::new(
                Arc::clone(&nominal),
                &[64],
                &ServeConfig::new(256).workers(1),
            );
            std::thread::sleep(Duration::from_micros(step * 25));
            srv.install(Arc::clone(&noisy));
            let reply = srv.classify(&x).unwrap();
            assert_eq!(
                reply.logits,
                expected.data(),
                "swap after {step}×25 µs lost"
            );
        }
    }
}
