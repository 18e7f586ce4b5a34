//! The JSON control plane: `stats`, `drain` and `swap` commands carried
//! in [`Payload::Control`](crate::frame::Payload::Control) frames.
//!
//! Commands are JSON objects with a `cmd` member:
//!
//! - `{"cmd":"stats"}` — a snapshot aggregating every shard's
//!   [`ServerStats`](cn_serve::ServerStats) (per-shard and
//!   requests-weighted aggregate p50/p95/p99, throughput, in-flight,
//!   worker panics, shed/routed counters, generation, lifecycle state)
//!   plus the frontend's connection counters ([`FrontendStats`]).
//! - `{"cmd":"drain"}` — begin a graceful drain: the frontend stops
//!   accepting, in-flight requests are flushed, then connections and
//!   shards close.
//! - `{"cmd":"swap","mode":"reprogram"}` — hot-swap every shard with
//!   fresh variation draws (drift reset).
//! - `{"cmd":"swap","mode":"drift","nu":ν,"nu_sigma":σ,"t0":t₀,"t":t}` —
//!   hot-swap every shard with a deployment aged by a
//!   [`ConductanceDrift`] model at field age `t`.
//!
//! Every reply is an object with an `ok` boolean; failures carry an
//! `error` string. Unknown commands are answered, never dropped — the
//! control path must stay debuggable from a misbehaving client.

use cn_analog::drift::ConductanceDrift;
use cn_serve::{RouterStats, ShardRouter};
use correctnet::export::json::Json;

/// A side effect the connection handler must apply after replying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlAction {
    /// Nothing beyond the reply.
    None,
    /// Begin the frontend-wide graceful drain.
    Drain,
}

/// The frontend's connection counters, reported as the `frontend` object
/// of the `stats` reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Connections currently held by the handlers.
    pub connections_open: u64,
    /// Connections refused with a backpressure frame because the
    /// frontend was at its connection limit.
    pub connections_shed: u64,
    /// Connections dropped because serving them panicked.
    pub handler_panics: u64,
}

/// Executes one control command against the router and renders the JSON
/// reply; `frontend` supplies the connection counters `stats` reports.
/// Router mutations (`swap`) happen here; the frontend-wide drain is
/// returned as an action because only the frontend can stop its own
/// acceptor.
pub fn handle_control(
    router: &ShardRouter,
    frontend: &FrontendStats,
    text: &str,
) -> (String, ControlAction) {
    let parsed = match Json::parse(text) {
        Ok(json) => json,
        Err(e) => {
            return (
                error_reply(&format!("control frame is not JSON: {e}")),
                ControlAction::None,
            )
        }
    };
    let cmd = match parsed.get("cmd").and_then(Json::as_str) {
        Some(cmd) => cmd,
        None => {
            return (
                error_reply("control object lacks a string `cmd`"),
                ControlAction::None,
            )
        }
    };
    match cmd {
        "stats" => (stats_reply(&router.stats(), frontend), ControlAction::None),
        "drain" => (
            Json::obj([("ok", Json::Bool(true)), ("draining", Json::Bool(true))]).render(),
            ControlAction::Drain,
        ),
        "swap" => (swap(router, &parsed), ControlAction::None),
        other => (
            error_reply(&format!("unknown cmd `{other}`")),
            ControlAction::None,
        ),
    }
}

fn swap(router: &ShardRouter, parsed: &Json) -> String {
    match parsed.get("mode").and_then(Json::as_str) {
        Some("reprogram") => {
            router.reprogram();
            swap_ok(router.generation())
        }
        Some("drift") => {
            // Checked after the f32 cast, with `ConductanceDrift::new`'s
            // predicates, so no accepted frame can panic the handler.
            let num = |key: &str| parsed.get(key).and_then(Json::as_f64).map(|v| v as f32);
            match (num("nu"), num("nu_sigma"), num("t0"), num("t")) {
                (Some(nu), Some(nu_sigma), Some(t0), Some(t))
                    if [nu, nu_sigma, t0, t].iter().all(|v| v.is_finite())
                        && nu >= 0.0
                        && nu_sigma >= 0.0
                        && t0 > 0.0
                        && t >= t0 =>
                {
                    router.recompile_drifted(&ConductanceDrift::new(nu, nu_sigma, t0), t);
                    swap_ok(router.generation())
                }
                (Some(nu), Some(nu_sigma), Some(t0), Some(t)) => error_reply(&format!(
                    "drift swap needs finite nu ≥ 0, nu_sigma ≥ 0 and t ≥ t0 > 0 as f32 \
                     (got nu = {nu}, nu_sigma = {nu_sigma}, t0 = {t0}, t = {t})"
                )),
                _ => error_reply("drift swap needs numeric `nu`, `nu_sigma`, `t0`, `t`"),
            }
        }
        Some(other) => error_reply(&format!("unknown swap mode `{other}`")),
        None => error_reply("swap needs a string `mode` (reprogram | drift)"),
    }
}

fn swap_ok(generation: u64) -> String {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("generation", Json::num(generation as f64)),
    ])
    .render()
}

fn error_reply(message: &str) -> String {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::str(message))]).render()
}

/// Renders a [`RouterStats`] snapshot and the frontend's counters as the
/// `/stats` JSON document.
pub fn stats_reply(stats: &RouterStats, frontend: &FrontendStats) -> String {
    let (requests, throughput, p50, p95, p99) = stats.aggregate();
    let shards: Vec<Json> = stats
        .shards
        .iter()
        .zip(&stats.inflight)
        .map(|(s, &inflight)| {
            Json::obj([
                ("requests", Json::num(s.requests as f64)),
                ("batches", Json::num(s.batches as f64)),
                ("batch_fill", Json::num(s.batch_fill)),
                ("throughput_rps", Json::num(s.throughput_rps)),
                ("p50_us", Json::num(s.p50_us)),
                ("p95_us", Json::num(s.p95_us)),
                ("p99_us", Json::num(s.p99_us)),
                ("inflight", Json::num(inflight as f64)),
                ("worker_panics", Json::num(s.worker_panics as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("ok", Json::Bool(true)),
        ("state", Json::str(stats.state.name())),
        ("generation", Json::num(stats.generation as f64)),
        ("routed", Json::num(stats.routed as f64)),
        ("shed", Json::num(stats.shed as f64)),
        (
            "aggregate",
            Json::obj([
                ("requests", Json::num(requests as f64)),
                ("throughput_rps", Json::num(throughput)),
                ("p50_us", Json::num(p50)),
                ("p95_us", Json::num(p95)),
                ("p99_us", Json::num(p99)),
            ]),
        ),
        ("shards", Json::Arr(shards)),
        (
            "frontend",
            Json::obj([
                (
                    "connections_open",
                    Json::num(frontend.connections_open as f64),
                ),
                (
                    "connections_shed",
                    Json::num(frontend.connections_shed as f64),
                ),
                ("handler_panics", Json::num(frontend.handler_panics as f64)),
            ]),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_analog::engine::DigitalBackend;
    use cn_nn::zoo::mlp;
    use cn_serve::{RouterConfig, ServeConfig};
    use cn_tensor::Tensor;

    fn router() -> ShardRouter {
        let model = mlp(&[4, 8, 3], 1);
        ShardRouter::new(
            &model,
            DigitalBackend,
            2,
            7,
            &[4],
            &RouterConfig::new(ServeConfig::new(4)),
        )
    }

    #[test]
    fn stats_command_reports_all_shards() {
        let r = router();
        for _ in 0..6 {
            r.route(&Tensor::zeros(&[4])).unwrap().wait().unwrap();
        }
        let frontend = FrontendStats {
            connections_open: 3,
            connections_shed: 2,
            handler_panics: 1,
        };
        let (reply, action) = handle_control(&r, &frontend, "{\"cmd\":\"stats\"}");
        assert_eq!(action, ControlAction::None);
        let json = Json::parse(&reply).unwrap();
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("state").and_then(Json::as_str), Some("accepting"));
        let shards = json.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(shards.len(), 2);
        let agg = json.get("aggregate").unwrap();
        assert_eq!(agg.get("requests").and_then(Json::as_f64), Some(6.0));
        assert!(agg.get("p95_us").and_then(Json::as_f64).unwrap() > 0.0);
        for shard in shards {
            assert_eq!(shard.get("worker_panics").and_then(Json::as_f64), Some(0.0));
        }
        let counters = json.get("frontend").expect("frontend counters");
        for (key, want) in [
            ("connections_open", 3.0),
            ("connections_shed", 2.0),
            ("handler_panics", 1.0),
        ] {
            assert_eq!(
                counters.get(key).and_then(Json::as_f64),
                Some(want),
                "{key}"
            );
        }
    }

    #[test]
    fn drain_command_returns_the_action() {
        let r = router();
        let (reply, action) = handle_control(&r, &FrontendStats::default(), "{\"cmd\":\"drain\"}");
        assert_eq!(action, ControlAction::Drain);
        let json = Json::parse(&reply).unwrap();
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
        // The control layer itself does not mutate the router; the
        // frontend applies the action so acceptor and shards stop as one.
        assert_eq!(r.stats().state.name(), "accepting");
    }

    #[test]
    fn swap_reprogram_bumps_generation() {
        let r = router();
        let (reply, action) = handle_control(
            &r,
            &FrontendStats::default(),
            "{\"cmd\":\"swap\",\"mode\":\"reprogram\"}",
        );
        assert_eq!(action, ControlAction::None);
        let json = Json::parse(&reply).unwrap();
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("generation").and_then(Json::as_f64), Some(1.0));
        assert_eq!(r.generation(), 1);
    }

    #[test]
    fn swap_drift_validates_parameters() {
        let r = router();
        let good = "{\"cmd\":\"swap\",\"mode\":\"drift\",\"nu\":0.05,\"nu_sigma\":0.02,\"t0\":1.0,\"t\":10000.0}";
        let (reply, _) = handle_control(&r, &FrontendStats::default(), good);
        assert_eq!(
            Json::parse(&reply)
                .unwrap()
                .get("ok")
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(r.generation(), 1);

        for bad in [
            "{\"cmd\":\"swap\",\"mode\":\"drift\",\"nu\":0.05}",
            // Each of these panics in `ConductanceDrift::new` unless rejected.
            "{\"cmd\":\"swap\",\"mode\":\"drift\",\"nu\":-1,\"nu_sigma\":0,\"t0\":1,\"t\":2}",
            "{\"cmd\":\"swap\",\"mode\":\"drift\",\"nu\":0.05,\"nu_sigma\":-0.1,\"t0\":1,\"t\":2}",
            // Positive as f64, zero after the f32 cast.
            "{\"cmd\":\"swap\",\"mode\":\"drift\",\"nu\":0.05,\"nu_sigma\":0,\"t0\":1e-60,\"t\":2}",
            // Finite as f64, infinite after the f32 cast.
            "{\"cmd\":\"swap\",\"mode\":\"drift\",\"nu\":0.05,\"nu_sigma\":0,\"t0\":1,\"t\":1e60}",
        ] {
            let (reply, _) = handle_control(&r, &FrontendStats::default(), bad);
            let json = Json::parse(&reply).unwrap();
            assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
            assert!(json.get("error").and_then(Json::as_str).is_some(), "{bad}");
            assert_eq!(r.generation(), 1, "{bad}");
        }
    }

    #[test]
    fn malformed_commands_are_answered() {
        let r = router();
        for bad in [
            "not json",
            "{}",
            "{\"cmd\":\"reboot\"}",
            "{\"cmd\":\"swap\"}",
        ] {
            let (reply, action) = handle_control(&r, &FrontendStats::default(), bad);
            assert_eq!(action, ControlAction::None, "{bad}");
            let json = Json::parse(&reply).unwrap();
            assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
            assert!(json.get("error").and_then(Json::as_str).is_some(), "{bad}");
        }
    }
}
