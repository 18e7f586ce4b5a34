//! # cn-serve
//!
//! A dynamic-batching inference service over the engine layer's compiled
//! deployments — the repo's first genuinely traffic-shaped workload.
//!
//! The serving path is a pipeline of four pieces:
//!
//! 1. [`AdmissionQueue`] — a bounded queue turning overload into
//!    backpressure ([`ServeError::QueueFull`]) instead of unbounded
//!    memory.
//! 2. The **dynamic batcher** — each worker pops a coalesced micro-batch
//!    (up to `max_batch` requests or `max_wait` of waiting, whichever
//!    comes first), trading a bounded latency hit for much higher
//!    throughput than per-request inference.
//! 3. [`Server`] workers — one [`Session`](cn_analog::engine::Session)
//!    per worker thread, bound to a hot-swappable
//!    [`CompiledModel`](cn_analog::engine::CompiledModel); per-row
//!    replies are scattered back through per-request channels.
//! 4. [`ShardRouter`] — K independent analog deployments of the same
//!    model, one [`Server`] each, behind one admission point. Callers
//!    [`route`](ShardRouter::route) a request to one shard
//!    (pick-two-least-loaded, for capacity) or [`vote`](ShardRouter::vote)
//!    it across every shard (majority, for redundancy against per-chip
//!    variation). The router sheds load, drains gracefully, hot-swaps
//!    drift-aged or re-programmed deployments
//!    ([`ShardRouter::recompile_drifted`] / [`ShardRouter::reprogram`])
//!    and reports per-shard health ([`ServerStats`]: latency percentiles,
//!    throughput, batch fill; plus the vote-disagreement rate).
//!
//! ```
//! use cn_analog::engine::{AnalogBackend, EngineBuilder};
//! use cn_nn::zoo::mlp;
//! use cn_serve::{RouterConfig, ServeConfig, Server, ShardRouter};
//! use cn_tensor::SeededRng;
//!
//! let model = mlp(&[4, 16, 3], 1);
//!
//! // One instance: compile once, serve concurrently with micro-batching.
//! let server = Server::over(
//!     EngineBuilder::new(&model).compile(),
//!     &[4],
//!     &ServeConfig::new(8),
//! );
//! let x = SeededRng::new(2).normal_tensor(&[4], 0.0, 1.0);
//! let reply = server.classify(&x).unwrap();
//! assert!(reply.class < 3);
//!
//! // A shard set: three independent σ=0.4 chips, majority-voted.
//! let router = ShardRouter::new(
//!     &model,
//!     AnalogBackend::lognormal(0.4),
//!     3,
//!     42,
//!     &[4],
//!     &RouterConfig::new(ServeConfig::new(8)),
//! );
//! let voted = router.vote(&x).unwrap();
//! assert_eq!(voted.votes.len(), 3);
//! ```

#![warn(missing_docs)]

mod config;
mod queue;
mod router;
mod server;
mod stats;

pub use config::ServeConfig;
pub use queue::{AdmissionQueue, PushError};
pub use router::{
    RouterConfig, RouterError, RouterState, RouterStats, RouterTicket, ShardRouter, Vote,
};
pub use server::{Reply, ServeError, Server, Ticket};
pub use stats::{HistogramSnapshot, LatencyHistogram, ServerStats};
