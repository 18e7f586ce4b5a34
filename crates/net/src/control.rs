//! The JSON control plane: `stats`, `drain` and `swap` commands carried
//! in [`Payload::Control`](crate::frame::Payload::Control) frames.
//!
//! Commands are JSON objects with a `cmd` member:
//!
//! - `{"cmd":"stats"}` — a snapshot aggregating every shard's
//!   [`ServerStats`](cn_serve::ServerStats) (per-shard and
//!   requests-weighted aggregate p50/p95/p99, throughput, in-flight,
//!   shed/routed counters, generation, lifecycle state).
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

/// Executes one control command against the router and renders the JSON
/// reply. Router mutations (`swap`) happen here; the frontend-wide drain
/// is returned as an action because only the frontend can stop its own
/// acceptor.
pub fn handle_control(router: &ShardRouter, text: &str) -> (String, ControlAction) {
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
        "stats" => (stats_reply(&router.stats()), ControlAction::None),
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
            let num = |key: &str| parsed.get(key).and_then(Json::as_f64);
            match (num("nu"), num("nu_sigma"), num("t0"), num("t")) {
                (Some(nu), Some(nu_sigma), Some(t0), Some(t)) if t >= t0 && t0 > 0.0 => {
                    let drift = ConductanceDrift::new(nu as f32, nu_sigma as f32, t0 as f32);
                    router.recompile_drifted(&drift, t as f32);
                    swap_ok(router.generation())
                }
                (Some(_), Some(_), Some(t0), Some(t)) => error_reply(&format!(
                    "drift swap needs t ≥ t0 > 0 (got t0 = {t0}, t = {t})"
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

/// Renders a [`RouterStats`] snapshot as the `/stats` JSON document.
pub fn stats_reply(stats: &RouterStats) -> String {
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
    use std::time::Duration;

    fn router() -> ShardRouter {
        let model = mlp(&[4, 8, 3], 1);
        ShardRouter::new(
            &model,
            DigitalBackend,
            2,
            7,
            &[4],
            &RouterConfig::new(ServeConfig::new(4).max_wait(Duration::from_millis(1))),
        )
    }

    #[test]
    fn stats_command_reports_all_shards() {
        let r = router();
        for _ in 0..6 {
            r.route(&Tensor::zeros(&[4])).unwrap().wait().unwrap();
        }
        let (reply, action) = handle_control(&r, "{\"cmd\":\"stats\"}");
        assert_eq!(action, ControlAction::None);
        let json = Json::parse(&reply).unwrap();
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("state").and_then(Json::as_str), Some("accepting"));
        let shards = json.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(shards.len(), 2);
        let agg = json.get("aggregate").unwrap();
        assert_eq!(agg.get("requests").and_then(Json::as_f64), Some(6.0));
        assert!(agg.get("p95_us").and_then(Json::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn drain_command_returns_the_action() {
        let r = router();
        let (reply, action) = handle_control(&r, "{\"cmd\":\"drain\"}");
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
        let (reply, action) = handle_control(&r, "{\"cmd\":\"swap\",\"mode\":\"reprogram\"}");
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
        let (reply, _) = handle_control(&r, good);
        assert_eq!(
            Json::parse(&reply)
                .unwrap()
                .get("ok")
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(r.generation(), 1);

        let bad = "{\"cmd\":\"swap\",\"mode\":\"drift\",\"nu\":0.05}";
        let (reply, _) = handle_control(&r, bad);
        assert_eq!(
            Json::parse(&reply)
                .unwrap()
                .get("ok")
                .and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(r.generation(), 1);
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
            let (reply, action) = handle_control(&r, bad);
            assert_eq!(action, ControlAction::None, "{bad}");
            let json = Json::parse(&reply).unwrap();
            assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
            assert!(json.get("error").and_then(Json::as_str).is_some(), "{bad}");
        }
    }
}
