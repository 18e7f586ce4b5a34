//! cn-net: the network layer for multi-shard CorrectNet serving.
//!
//! Everything here is dependency-free over `std::net`. The shard set
//! itself — [`ShardRouter`]: pick-two routing and majority voting across
//! independent [`Server`](cn_serve::Server) shards, load shedding,
//! graceful drain and hot model swap — lives in cn-serve and is
//! re-exported here; this crate adds only the wire concerns, in three
//! layers:
//!
//! - [`frame`] — the length-prefixed binary wire codec: a 16-byte
//!   versioned header (magic, version, kind, request id, payload
//!   length), f32 inference batches or JSON control text as payloads,
//!   strict decoding with named errors, and a hard payload cap enforced
//!   *before* any allocation — peer-supplied lengths are never trusted.
//! - [`frontend`] — the TCP [`Frontend`]: an acceptor and a fixed pool
//!   of event-driven handlers, each serving a set of non-blocking
//!   connections from one `poll(2)` loop woken by socket readiness and
//!   by reply wakers; idle and write deadlines on every connection, and
//!   explicit backpressure frames when shedding.
//! - [`control`] / [`loadgen`] — the JSON control plane
//!   (`stats`/`drain`/`swap`) and the open/closed-loop load-generator
//!   core behind the `cn-loadgen` binary.
//!
//! The `cn-netd` binary serves a model zoo MLP over TCP; `cn-loadgen`
//! drives it and reports client-observed latency percentiles. See
//! `docs/ARCHITECTURE.md` ("The network layer") for the wire diagram and
//! the drain/backpressure contracts.

#![warn(missing_docs)]

pub mod control;
mod event;
pub mod frame;
pub mod frontend;
pub mod loadgen;

pub use cn_serve::{
    RouterConfig, RouterError, RouterState, RouterStats, RouterTicket, ShardRouter,
};
pub use control::{handle_control, stats_reply, ControlAction, FrontendStats};
pub use frame::{
    ErrorCode, Frame, FrameError, FrameReader, Payload, PollFrame, ReadFrameError,
    DEFAULT_MAX_PAYLOAD,
};
pub use frontend::{Frontend, FrontendConfig};
pub use loadgen::{request_rows, LoadgenConfig, LoadgenReport, Mode};
