//! The shard router: K independent deployments of one model behind one
//! admission point.
//!
//! Analog chips are individually noisy — every programmed crossbar is a
//! different draw from the variation model. Each shard is a [`Server`]
//! over its own independently-drawn compiled deployment, and callers pick
//! how a request maps onto the shard set:
//!
//! - [`route`](ShardRouter::route) sends it to *one* shard for scale,
//!   chosen by **pick-two-least-loaded** (two candidate shards are
//!   compared by their live load and the lighter one wins — the classic
//!   power-of-two-choices balancer, which avoids both the herding of
//!   global-least-loaded and the variance of blind round-robin). The
//!   first candidate rotates and wins ties, so a caller that waits for
//!   each reply sees strict round-robin.
//! - [`vote`](ShardRouter::vote) sends it to *every* shard and returns
//!   the majority class — redundancy against per-chip variation at K×
//!   the compute, with a running vote-disagreement rate as a health
//!   signal.
//!
//! The router owns three serving-time behaviors the network frontend
//! builds on:
//!
//! - **Load shedding**: a shard whose in-flight count reaches the
//!   configured bound rejects the request with [`RouterError::Overloaded`]
//!   before it ever touches the admission queue, and a full queue maps to
//!   the same signal — both surface as backpressure frames on the wire.
//! - **Graceful drain**: [`drain`](ShardRouter::drain) atomically stops
//!   admission ([`RouterError::Draining`] thereafter), closes every
//!   shard's queue so workers finish what was admitted, and
//!   [`drained`](ShardRouter::drained) flips once the last in-flight
//!   request has been answered. No accepted request is ever dropped.
//! - **Hot swap**: [`reprogram`](ShardRouter::reprogram) /
//!   [`recompile_drifted`](ShardRouter::recompile_drifted) rebuild every
//!   shard's deployment through the engine's `recompile` + `install`
//!   hooks under live traffic, bumping a generation counter the control
//!   plane reports. Drift recompilation models field aging; re-programming
//!   on the base backend resets it.
//!
//! Shards are addressed only through [`Server`] handles and per-shard
//! atomic counters — nothing in the routing layer assumes shared memory
//! beyond those, so shards could move behind their own processes by
//! swapping the handle type.

use crate::config::ServeConfig;
use crate::server::{Reply, ServeError, Server, Ticket};
use crate::stats::ServerStats;
use cn_analog::drift::ConductanceDrift;
use cn_analog::engine::{Backend, CompiledModel, DriftBackend};
use cn_nn::Sequential;
use cn_tensor::{SeededRng, Tensor};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Routing-layer failures (the wire maps these onto error frames).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterError {
    /// The chosen shard (for a vote, any shard) is at its in-flight bound,
    /// or a shard's queue is full — back off and retry.
    Overloaded,
    /// The router is draining (or closed) and admits nothing new.
    Draining,
    /// The chosen shard failed the submission (shape mismatch, worker
    /// death).
    Serve(ServeError),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Overloaded => write!(f, "all candidate shards are at capacity"),
            RouterError::Draining => write!(f, "router is draining"),
            RouterError::Serve(e) => write!(f, "shard error: {e}"),
        }
    }
}

impl std::error::Error for RouterError {}

/// Router configuration beyond the per-shard [`ServeConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// Per-shard serving configuration (batcher, queue, workers).
    pub serve: ServeConfig,
    /// In-flight requests per shard beyond which the router sheds load
    /// *before* touching the shard's queue.
    pub shed_inflight: usize,
}

impl RouterConfig {
    /// Defaults: the given serve config, shedding at `queue_capacity +
    /// max_batch × workers` in-flight per shard (a full queue plus every
    /// worker's largest batch in execution).
    pub fn new(serve: ServeConfig) -> RouterConfig {
        let shed_inflight = serve.queue_capacity + serve.max_batch * serve.workers;
        RouterConfig {
            serve,
            shed_inflight,
        }
    }

    /// Overrides the per-shard in-flight shedding bound.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn shed_inflight(mut self, bound: usize) -> RouterConfig {
        assert!(bound > 0, "shed_inflight must be positive");
        self.shed_inflight = bound;
        self
    }
}

/// Lifecycle state of the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterState {
    /// Admitting and routing requests.
    Accepting,
    /// Admission stopped; in-flight requests are being flushed.
    Draining,
}

impl RouterState {
    /// Lowercase name used by the control plane's JSON.
    pub fn name(self) -> &'static str {
        match self {
            RouterState::Accepting => "accepting",
            RouterState::Draining => "draining",
        }
    }
}

const STATE_ACCEPTING: u8 = 0;
const STATE_DRAINING: u8 = 1;

/// One shard: a server plus its live in-flight counter.
struct Shard {
    server: Server,
    inflight: Arc<AtomicUsize>,
}

impl Shard {
    /// Live load: requests submitted to this shard whose replies have not
    /// been consumed (queued, executing, or answered but unread).
    fn load(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }
}

/// Decrements a shard's in-flight counter when the reply is consumed (or
/// the ticket is abandoned), keeping the router's load signal honest.
#[derive(Debug)]
struct InflightGuard {
    counter: Arc<AtomicUsize>,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A pending reply routed through the shard router.
///
/// Wraps the shard's [`Ticket`] so the shard's in-flight counter is
/// released exactly when the reply is consumed or the ticket dropped.
#[derive(Debug)]
pub struct RouterTicket {
    ticket: Ticket,
    _guard: InflightGuard,
}

impl RouterTicket {
    /// Blocks until the reply arrives.
    ///
    /// # Errors
    ///
    /// See [`Ticket::wait`].
    pub fn wait(self) -> Result<Reply, ServeError> {
        self.ticket.wait()
    }

    /// Non-blocking poll; see [`Ticket::try_wait`].
    pub fn try_wait(&mut self) -> Option<Result<Reply, ServeError>> {
        self.ticket.try_wait()
    }

    /// Wakes `waker` when the reply lands (at once if it already has);
    /// see [`Ticket::register_waker`].
    pub fn register_waker(&self, waker: &std::task::Waker) {
        self.ticket.register_waker(waker);
    }
}

/// The majority decision of a [`ShardRouter::vote`].
#[derive(Debug, Clone, PartialEq)]
pub struct Vote {
    /// The majority-voted class.
    pub class: usize,
    /// Per-shard votes that produced the decision, in shard order.
    pub votes: Vec<usize>,
    /// Whether every shard agreed.
    pub unanimous: bool,
}

/// K independent deployments of one model behind pick-two routing and
/// majority voting.
pub struct ShardRouter {
    shards: Vec<Shard>,
    sample_dims: Vec<usize>,
    state: AtomicU8,
    /// Deterministic candidate-pair sequence (see [`candidates`]).
    route_seq: AtomicU64,
    routed: AtomicU64,
    shed: AtomicU64,
    voted: AtomicU64,
    disagreed: AtomicU64,
    generation: AtomicU64,
    backend: Box<dyn Backend>,
    seed: u64,
    shed_inflight: usize,
}

impl ShardRouter {
    /// Compiles `shards` independent deployments of `model` on `backend`
    /// (shard `i` draws from stream `fork(i)` of `seed`) and starts a
    /// server per shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `sample_dims` is empty.
    pub fn new(
        model: &Sequential,
        backend: impl Backend + 'static,
        shards: usize,
        seed: u64,
        sample_dims: &[usize],
        config: &RouterConfig,
    ) -> ShardRouter {
        let nominal = Arc::new(model.clone());
        let compiled = (0..shards)
            .map(|i| {
                let mut rng = SeededRng::new(seed).fork(i as u64);
                CompiledModel::compile_shared(&nominal, &backend, &mut rng).shared()
            })
            .collect();
        ShardRouter::from_compiled(compiled, Box::new(backend), seed, sample_dims, config)
    }

    /// Builds a router over pre-compiled deployments, one shard each (e.g.
    /// rigged deployments in tests). `backend` and `seed` drive later
    /// recompilations.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `sample_dims` is empty.
    pub fn from_compiled(
        shards: Vec<Arc<CompiledModel>>,
        backend: Box<dyn Backend>,
        seed: u64,
        sample_dims: &[usize],
        config: &RouterConfig,
    ) -> ShardRouter {
        assert!(!shards.is_empty(), "a router needs at least one shard");
        let shards = shards
            .into_iter()
            .map(|compiled| Shard {
                server: Server::new(compiled, sample_dims, &config.serve),
                inflight: Arc::new(AtomicUsize::new(0)),
            })
            .collect();
        ShardRouter {
            shards,
            sample_dims: sample_dims.to_vec(),
            state: AtomicU8::new(STATE_ACCEPTING),
            route_seq: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            voted: AtomicU64::new(0),
            disagreed: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            backend,
            seed,
            shed_inflight: config.shed_inflight,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The sample shape every shard accepts.
    pub fn sample_dims(&self) -> &[usize] {
        &self.sample_dims
    }

    /// Current lifecycle state.
    pub fn state(&self) -> RouterState {
        if self.state.load(Ordering::Acquire) == STATE_ACCEPTING {
            RouterState::Accepting
        } else {
            RouterState::Draining
        }
    }

    /// Routes one sample to the less loaded of two candidate shards.
    ///
    /// # Errors
    ///
    /// [`RouterError::Draining`] after [`drain`](ShardRouter::drain),
    /// [`RouterError::Overloaded`] when the chosen shard is at the shed
    /// bound or its queue is full, [`RouterError::Serve`] otherwise.
    pub fn route(&self, input: &Tensor) -> Result<RouterTicket, RouterError> {
        self.admitting()?;
        let (a, b) = self.candidates();
        let i = if self.shards[a].load() <= self.shards[b].load() {
            a
        } else {
            b
        };
        let shard = &self.shards[i];
        if shard.load() >= self.shed_inflight {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(RouterError::Overloaded);
        }
        self.submit(shard, input)
    }

    /// Classifies one sample on every shard and returns the majority
    /// class (ties go to the smallest class).
    ///
    /// # Errors
    ///
    /// As for [`route`](ShardRouter::route), except that
    /// [`RouterError::Overloaded`] is returned — with nothing submitted —
    /// when *any* shard is at the shed bound.
    pub fn vote(&self, input: &Tensor) -> Result<Vote, RouterError> {
        self.admitting()?;
        if self.shards.iter().any(|s| s.load() >= self.shed_inflight) {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(RouterError::Overloaded);
        }
        // Submit to every shard first so their batchers coalesce
        // concurrently, then gather.
        let tickets: Vec<RouterTicket> = self
            .shards
            .iter()
            .map(|shard| self.submit(shard, input))
            .collect::<Result<_, _>>()?;
        let votes: Vec<usize> = tickets
            .into_iter()
            .map(|t| t.wait().map(|r| r.class))
            .collect::<Result<_, _>>()
            .map_err(RouterError::Serve)?;
        let class = majority(&votes);
        let unanimous = votes.iter().all(|&v| v == votes[0]);
        self.voted.fetch_add(1, Ordering::Relaxed);
        if !unanimous {
            self.disagreed.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Vote {
            class,
            votes,
            unanimous,
        })
    }

    fn admitting(&self) -> Result<(), RouterError> {
        match self.state() {
            RouterState::Accepting => Ok(()),
            RouterState::Draining => Err(RouterError::Draining),
        }
    }

    /// Submits to one shard, holding its in-flight count until the
    /// returned ticket is consumed or dropped.
    fn submit(&self, shard: &Shard, input: &Tensor) -> Result<RouterTicket, RouterError> {
        // Count the request before submitting so a concurrent router sees
        // the load it is about to add; undo on rejection.
        shard.inflight.fetch_add(1, Ordering::Relaxed);
        match shard.server.submit(input) {
            Ok(ticket) => {
                self.routed.fetch_add(1, Ordering::Relaxed);
                Ok(RouterTicket {
                    ticket,
                    _guard: InflightGuard {
                        counter: Arc::clone(&shard.inflight),
                    },
                })
            }
            Err(e) => {
                shard.inflight.fetch_sub(1, Ordering::Relaxed);
                match e {
                    ServeError::QueueFull => {
                        self.shed.fetch_add(1, Ordering::Relaxed);
                        Err(RouterError::Overloaded)
                    }
                    ServeError::ShuttingDown => Err(RouterError::Draining),
                    other => Err(RouterError::Serve(other)),
                }
            }
        }
    }

    /// Two distinct candidate shard indices from a deterministic
    /// low-discrepancy sequence (round-robin first pick, rotating second
    /// pick), so pick-two needs no RNG and stays reproducible in tests.
    /// With one shard both candidates coincide.
    fn candidates(&self) -> (usize, usize) {
        let k = self.shards.len();
        let c = self.route_seq.fetch_add(1, Ordering::Relaxed) as usize;
        if k == 1 {
            return (0, 0);
        }
        let a = c % k;
        // Stride rotates through every non-zero offset as c advances a
        // full cycle, pairing each shard with every other over time.
        let stride = 1 + (c / k) % (k - 1);
        let b = (a + stride) % k;
        (a, b)
    }

    /// Stops admission and closes every shard's queue. Already-admitted
    /// requests keep flowing to completion; poll
    /// [`drained`](ShardRouter::drained) to learn when the flush is done.
    pub fn drain(&self) {
        self.state.store(STATE_DRAINING, Ordering::Release);
        for shard in &self.shards {
            shard.server.close();
        }
    }

    /// Whether a drain has finished: admission is stopped and no request
    /// is queued or executing anywhere.
    pub fn drained(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_DRAINING
            && self
                .shards
                .iter()
                .all(|s| s.load() == 0 && s.server.queue_depth() == 0)
    }

    /// Re-programs every shard on the base backend with fresh variation
    /// draws (drift reset), hot-swapped under live traffic.
    pub fn reprogram(&self) {
        let backend: &dyn Backend = self.backend.as_ref();
        self.recompile_on(backend);
    }

    /// Recompiles every shard against its base backend aged by `drift` at
    /// time `t`, modeling a sharded fleet that has been in the field.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the drift model's reference time.
    pub fn recompile_drifted(&self, drift: &ConductanceDrift, t: f32) {
        let aged = DriftBackend::new(self.backend.as_ref(), *drift, t);
        self.recompile_on(&aged);
    }

    fn recompile_on(&self, backend: &dyn Backend) {
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let shards = self.shards.len() as u64;
        for (i, shard) in self.shards.iter().enumerate() {
            // Fresh deterministic streams per (generation, shard).
            let mut rng = SeededRng::new(self.seed).fork(generation * shards + i as u64);
            let compiled = shard.server.current().recompile(backend, &mut rng);
            shard.server.install(compiled.shared());
        }
    }

    /// How many deployment generations have been installed (0 = the
    /// initial programming).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Fraction of votes whose shards did not all agree (0.0 before the
    /// first vote).
    pub fn vote_disagreement_rate(&self) -> f64 {
        let voted = self.voted.load(Ordering::Relaxed);
        if voted == 0 {
            return 0.0;
        }
        self.disagreed.load(Ordering::Relaxed) as f64 / voted as f64
    }

    /// Point-in-time routing and per-shard health snapshot.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            state: self.state(),
            generation: self.generation(),
            routed: self.routed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            inflight: self.shards.iter().map(Shard::load).collect(),
            shards: self.shards.iter().map(|s| s.server.stats()).collect(),
        }
    }

    /// Direct access to one shard's server (tests, maintenance).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard(&self, shard: usize) -> &Server {
        &self.shards[shard].server
    }

    /// Stops every shard, joining the workers. Combine with
    /// [`drain`](ShardRouter::drain) +
    /// [`drained`](ShardRouter::drained) for a graceful exit; calling
    /// this directly still drains admitted requests (workers reply before
    /// exiting) but does not wait for clients to consume the replies.
    pub fn shutdown(self) {
        for shard in self.shards {
            shard.server.shutdown();
        }
    }
}

/// A point-in-time snapshot of the router and its shards.
#[derive(Debug, Clone)]
pub struct RouterStats {
    /// Lifecycle state.
    pub state: RouterState,
    /// Deployment generation (0 = initial programming).
    pub generation: u64,
    /// Requests successfully submitted to a shard (a vote submits one per
    /// shard).
    pub routed: u64,
    /// Requests shed for overload (before or at the shard queue).
    pub shed: u64,
    /// Live in-flight count per shard.
    pub inflight: Vec<usize>,
    /// Per-shard serving stats.
    pub shards: Vec<ServerStats>,
}

impl RouterStats {
    /// Requests-weighted aggregate over the shards:
    /// `(total requests, total throughput rps, p50 µs, p95 µs, p99 µs)`.
    pub fn aggregate(&self) -> (u64, f64, f64, f64, f64) {
        let total: u64 = self.shards.iter().map(|s| s.requests).sum();
        let throughput: f64 = self.shards.iter().map(|s| s.throughput_rps).sum();
        if total == 0 {
            return (0, throughput, 0.0, 0.0, 0.0);
        }
        let weighted = |f: &dyn Fn(&ServerStats) -> f64| -> f64 {
            self.shards
                .iter()
                .map(|s| s.requests as f64 * f(s))
                .sum::<f64>()
                / total as f64
        };
        (
            total,
            throughput,
            weighted(&|s| s.p50_us),
            weighted(&|s| s.p95_us),
            weighted(&|s| s.p99_us),
        )
    }
}

/// Majority vote with deterministic tie-breaking (smallest class wins a
/// tie, matching argmax's first-maximum convention).
fn majority(votes: &[usize]) -> usize {
    let mut counts: Vec<(usize, usize)> = Vec::new();
    for &v in votes {
        match counts.iter_mut().find(|(class, _)| *class == v) {
            Some((_, n)) => *n += 1,
            None => counts.push((v, 1)),
        }
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(class, _)| class)
        .expect("majority of at least one vote")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_analog::engine::DigitalBackend;
    use cn_nn::zoo::mlp;

    fn router(shards: usize, config: RouterConfig) -> ShardRouter {
        let model = mlp(&[4, 8, 3], 1);
        ShardRouter::new(&model, DigitalBackend, shards, 7, &[4], &config)
    }

    fn quick_config() -> RouterConfig {
        RouterConfig::new(ServeConfig::new(8))
    }

    #[test]
    fn routes_and_replies() {
        let r = router(4, quick_config());
        let x = SeededRng::new(3).normal_tensor(&[4], 0.0, 1.0);
        for _ in 0..32 {
            let reply = r.route(&x).unwrap().wait().unwrap();
            assert_eq!(reply.logits.len(), 3);
        }
        let stats = r.stats();
        assert_eq!(stats.routed, 32);
        assert_eq!(stats.shed, 0);
        // Every reply consumed ⇒ in-flight drained back to zero.
        assert!(stats.inflight.iter().all(|&n| n == 0));
    }

    #[test]
    fn candidate_pairs_are_distinct_and_cover() {
        let r = router(4, quick_config());
        let mut seen = [false; 4];
        for _ in 0..64 {
            let (a, b) = r.candidates();
            assert_ne!(a, b);
            assert!(a < 4 && b < 4);
            seen[a] = true;
            seen[b] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn single_shard_candidates_coincide() {
        let r = router(1, quick_config());
        assert_eq!(r.candidates(), (0, 0));
        let x = Tensor::zeros(&[4]);
        r.route(&x).unwrap().wait().unwrap();
    }

    #[test]
    fn least_loaded_candidate_wins() {
        // Shed bound 1: once a shard holds one un-consumed reply, the
        // pick-two comparison must steer the next request elsewhere.
        let r = router(2, quick_config().shed_inflight(1));
        let x = Tensor::zeros(&[4]);
        // Load shard picked first without consuming the reply.
        let held = r.route(&x).unwrap();
        // Both candidates considered; the empty shard must win every time.
        for _ in 0..8 {
            r.route(&x).unwrap().wait().unwrap();
        }
        drop(held);
    }

    #[test]
    fn shed_bound_rejects_with_overloaded() {
        let r = router(1, quick_config().shed_inflight(2));
        let x = Tensor::zeros(&[4]);
        // Stall by holding tickets un-waited; workers busy or not, the
        // in-flight counter holds at 2.
        let _a = r.route(&x).unwrap();
        let _b = r.route(&x).unwrap();
        assert_eq!(r.route(&x).unwrap_err(), RouterError::Overloaded);
        assert_eq!(r.stats().shed, 1);
    }

    #[test]
    fn drain_stops_admission_and_flushes() {
        let r = router(2, quick_config());
        let x = Tensor::zeros(&[4]);
        let tickets: Vec<RouterTicket> = (0..16).map(|_| r.route(&x).unwrap()).collect();
        r.drain();
        assert_eq!(r.route(&x).unwrap_err(), RouterError::Draining);
        assert_eq!(r.state(), RouterState::Draining);
        for t in tickets {
            t.wait().unwrap();
        }
        assert!(r.drained());
        r.shutdown();
    }

    #[test]
    fn reprogram_bumps_generation_and_swaps() {
        let model = mlp(&[4, 8, 3], 1);
        let r = ShardRouter::new(
            &model,
            cn_analog::engine::AnalogBackend::lognormal(0.6),
            2,
            11,
            &[4],
            &quick_config(),
        );
        let x = SeededRng::new(5).normal_tensor(&[4], 0.0, 1.0);
        let before: Vec<f32> = r.shard(0).classify(&x).unwrap().logits;
        r.reprogram();
        assert_eq!(r.generation(), 1);
        let after: Vec<f32> = r.shard(0).classify(&x).unwrap().logits;
        // Fresh variation draws ⇒ different deployment ⇒ different logits.
        assert_ne!(before, after);
    }

    #[test]
    fn drifted_recompile_changes_deployments() {
        let model = mlp(&[4, 8, 3], 1);
        let r = ShardRouter::new(
            &model,
            cn_analog::engine::AnalogBackend::lognormal(0.3),
            2,
            11,
            &[4],
            &quick_config(),
        );
        let x = SeededRng::new(5).normal_tensor(&[4], 0.0, 1.0);
        let before: Vec<f32> = r.shard(1).classify(&x).unwrap().logits;
        r.recompile_drifted(&ConductanceDrift::new(0.05, 0.02, 1.0), 1.0e4);
        assert_eq!(r.generation(), 1);
        let after: Vec<f32> = r.shard(1).classify(&x).unwrap().logits;
        assert_ne!(before, after);
    }

    #[test]
    fn aggregate_weights_by_requests() {
        let r = router(3, quick_config());
        let x = Tensor::zeros(&[4]);
        for _ in 0..24 {
            r.route(&x).unwrap().wait().unwrap();
        }
        let stats = r.stats();
        let (total, throughput, p50, p95, p99) = stats.aggregate();
        assert_eq!(total, 24);
        assert!(throughput > 0.0);
        assert!(p50 > 0.0 && p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn majority_picks_the_mode() {
        assert_eq!(majority(&[2, 2, 0]), 2);
        assert_eq!(majority(&[1, 1, 1]), 1);
        assert_eq!(majority(&[3]), 3);
    }

    #[test]
    fn majority_breaks_ties_toward_the_smaller_class() {
        assert_eq!(majority(&[4, 1]), 1);
        assert_eq!(majority(&[0, 2, 2, 0]), 0);
    }

    #[test]
    fn vote_after_drain_is_refused() {
        let r = router(3, quick_config());
        r.drain();
        assert_eq!(
            r.vote(&Tensor::zeros(&[4])).unwrap_err(),
            RouterError::Draining
        );
        assert_eq!(r.stats().routed, 0);
    }

    #[test]
    fn vote_sheds_when_a_shard_is_at_bound() {
        let r = router(2, quick_config().shed_inflight(1));
        let x = Tensor::zeros(&[4]);
        // One held ticket puts its shard at the bound of 1.
        let held = r.route(&x).unwrap();
        assert_eq!(r.vote(&x).unwrap_err(), RouterError::Overloaded);
        let stats = r.stats();
        assert_eq!(stats.routed, 1, "a shed vote submits to no shard");
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.inflight.iter().sum::<usize>(), 1);
        held.wait().unwrap();
        assert!(r.stats().inflight.iter().all(|&n| n == 0));
        // With the bound cleared the same vote goes through.
        assert!(r.vote(&x).unwrap().unanimous);
        assert!(r.stats().inflight.iter().all(|&n| n == 0));
    }
}
