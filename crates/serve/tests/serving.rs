//! Integration tests of the serving layer: batcher invariants under
//! concurrent load and shard-router routing and majority-vote
//! correctness on rigged deployments.

use cn_analog::drift::ConductanceDrift;
use cn_analog::engine::{AnalogBackend, CompiledModel, DigitalBackend, EngineBuilder};
use cn_nn::zoo::mlp;
use cn_nn::Sequential;
use cn_serve::{RouterConfig, ServeConfig, ServeError, Server, ShardRouter};
use cn_tensor::{SeededRng, Tensor};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn compiled_mlp(seed: u64) -> CompiledModel {
    EngineBuilder::new(&mlp(&[4, 16, 3], seed)).compile()
}

/// A deployment whose logits ignore the input: all weights zeroed, the
/// final bias one-hot on `class`. Serving it predicts `class` for every
/// sample.
fn constant_class_model(class: usize) -> Sequential {
    let mut model = mlp(&[4, 3], 1);
    for param in model.params_mut() {
        for v in param.value.data_mut() {
            *v = 0.0;
        }
    }
    let bias = model.params_mut().pop().expect("mlp has a bias");
    bias.value.data_mut()[class] = 1.0;
    model
}

fn rigged_router(classes: &[usize], config: &ServeConfig) -> ShardRouter {
    let shards = classes
        .iter()
        .map(|&c| {
            EngineBuilder::new(&constant_class_model(c))
                .compile()
                .shared()
        })
        .collect();
    ShardRouter::from_compiled(
        shards,
        Box::new(DigitalBackend),
        7,
        &[4],
        &RouterConfig::new(config.clone()),
    )
}

#[test]
fn batches_never_exceed_max_batch_under_concurrent_load() {
    let server = Arc::new(Server::over(
        compiled_mlp(1),
        &[4],
        &ServeConfig::new(4)
            .workers(2)
            .max_wait(Duration::from_millis(2)),
    ));
    let observed_max = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let server = Arc::clone(&server);
                scope.spawn(move || {
                    let mut rng = SeededRng::new(t);
                    let mut max_seen = 0;
                    for _ in 0..40 {
                        let x = rng.normal_tensor(&[4], 0.0, 1.0);
                        let reply = loop {
                            match server.classify(&x) {
                                Ok(reply) => break reply,
                                Err(ServeError::QueueFull) => std::thread::yield_now(),
                                Err(e) => panic!("serve error: {e}"),
                            }
                        };
                        max_seen = max_seen.max(reply.batch_size);
                        assert!(reply.batch_size >= 1);
                    }
                    max_seen
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .max()
            .unwrap()
    });
    assert!(
        observed_max <= 4,
        "a batch of {observed_max} exceeded max_batch = 4"
    );
    let stats = server.stats();
    assert_eq!(stats.requests, 8 * 40);
    assert!(stats.batches >= stats.requests / 4);
}

#[test]
fn partial_batches_flush_after_max_wait() {
    // max_batch far above the single queued request: only the max_wait
    // timer can flush the batch.
    let server = Server::over(
        compiled_mlp(2),
        &[4],
        &ServeConfig::new(64)
            .workers(1)
            .max_wait(Duration::from_millis(10)),
    );
    let started = Instant::now();
    let reply = server.classify(&Tensor::zeros(&[4])).unwrap();
    assert_eq!(reply.batch_size, 1, "nothing else queued: batch of one");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "flush must come from the max_wait timer, not block forever"
    );
}

#[test]
fn no_request_is_dropped_and_every_reply_matches_its_input() {
    // Distinct inputs with known classes: the scatter step must pair each
    // reply with its own request even when batches interleave arbitrarily.
    let server = Arc::new(Server::over(
        compiled_mlp(3),
        &[4],
        &ServeConfig::new(8)
            .workers(3)
            .max_wait(Duration::from_millis(1)),
    ));
    let reference = compiled_mlp(3);
    std::thread::scope(|scope| {
        for t in 0..6 {
            let server = Arc::clone(&server);
            let reference = &reference;
            scope.spawn(move || {
                let mut rng = SeededRng::new(100 + t);
                for _ in 0..50 {
                    let x = rng.normal_tensor(&[4], 0.0, 1.0);
                    let expected = reference.infer(&x.reshape(&[1, 4]));
                    let reply = loop {
                        match server.classify(&x) {
                            Ok(reply) => break reply,
                            Err(ServeError::QueueFull) => std::thread::yield_now(),
                            Err(e) => panic!("serve error: {e}"),
                        }
                    };
                    assert_eq!(
                        reply.logits,
                        expected.data(),
                        "reply paired with wrong input"
                    );
                }
            });
        }
    });
    assert_eq!(server.stats().requests, 6 * 50);
}

#[test]
fn queue_overload_turns_into_backpressure() {
    let server = Server::over(
        compiled_mlp(4),
        &[4],
        &ServeConfig::new(1)
            .workers(1)
            .queue_capacity(2)
            .max_wait(Duration::from_millis(50)),
    );
    let x = Tensor::zeros(&[4]);
    // Flood far beyond the queue bound; some submissions must be rejected
    // rather than buffered without limit.
    let mut accepted = Vec::new();
    let mut rejected = 0;
    for _ in 0..64 {
        match server.submit(&x) {
            Ok(ticket) => accepted.push(ticket),
            Err(ServeError::QueueFull) => rejected += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(
        rejected > 0,
        "capacity-2 queue absorbed 64 instant submissions"
    );
    for ticket in accepted {
        ticket.wait().unwrap();
    }
}

#[test]
fn fleet_majority_vote_on_rigged_instances() {
    let config = ServeConfig::new(4)
        .workers(1)
        .max_wait(Duration::from_millis(1));
    let router = rigged_router(&[2, 2, 0], &config);
    let x = SeededRng::new(5).normal_tensor(&[4], 0.0, 1.0);
    for _ in 0..10 {
        let reply = router.vote(&x).unwrap();
        assert_eq!(reply.class, 2, "majority of [2, 2, 0] is 2");
        assert_eq!(reply.votes, vec![2, 2, 0]);
        assert!(!reply.unanimous);
    }
    assert_eq!(router.vote_disagreement_rate(), 1.0);

    let agreeing = rigged_router(&[1, 1, 1], &config);
    let reply = agreeing.vote(&x).unwrap();
    assert_eq!(reply.class, 1);
    assert!(reply.unanimous);
    assert_eq!(agreeing.vote_disagreement_rate(), 0.0);
}

#[test]
fn round_robin_rotates_across_instances() {
    let config = ServeConfig::new(2)
        .workers(1)
        .max_wait(Duration::from_millis(1));
    let router = rigged_router(&[0, 1, 2], &config);
    let x = Tensor::zeros(&[4]);
    // Waiting for each reply leaves every shard idle, so pick-two's first
    // candidate (which rotates and wins ties) serves each request.
    let classes: Vec<usize> = (0..6)
        .map(|_| router.route(&x).unwrap().wait().unwrap().class)
        .collect();
    assert_eq!(classes, vec![0, 1, 2, 0, 1, 2]);
    // Routing never votes, so disagreement stays undefined/zero.
    assert_eq!(router.vote_disagreement_rate(), 0.0);
}

#[test]
fn drift_recompilation_swaps_deployments_without_stopping_traffic() {
    let model = mlp(&[4, 16, 3], 9);
    let config = ServeConfig::new(4)
        .workers(1)
        .max_wait(Duration::from_millis(1));
    let router = ShardRouter::new(
        &model,
        AnalogBackend::lognormal(0.3),
        2,
        11,
        &[4],
        &RouterConfig::new(config),
    );
    let x = SeededRng::new(12).normal_tensor(&[4], 0.0, 1.0);
    let before: Vec<f32> = router.shard(0).classify(&x).unwrap().logits;

    let drift = ConductanceDrift::new(0.08, 0.02, 1.0);
    router.recompile_drifted(&drift, 10_000.0);
    assert_eq!(router.generation(), 1);
    let drifted: Vec<f32> = router.shard(0).classify(&x).unwrap().logits;
    assert_ne!(before, drifted, "drifted deployment must change the logits");

    // Re-programming draws a fresh instance on the base backend.
    router.reprogram();
    assert_eq!(router.generation(), 2);
    let reprogrammed: Vec<f32> = router.shard(0).classify(&x).unwrap().logits;
    assert_ne!(drifted, reprogrammed);
    router.shutdown();
}

#[test]
fn digital_fleet_matches_direct_inference() {
    let model = mlp(&[4, 16, 3], 20);
    let router = ShardRouter::new(
        &model,
        DigitalBackend,
        3,
        21,
        &[4],
        &RouterConfig::new(ServeConfig::new(4).max_wait(Duration::from_millis(1))),
    );
    let mut rng = SeededRng::new(22);
    for _ in 0..10 {
        let x = rng.normal_tensor(&[4], 0.0, 1.0);
        let expected = model.infer(&x.reshape(&[1, 4])).argmax_rows()[0];
        let reply = router.vote(&x).unwrap();
        assert_eq!(reply.class, expected);
        assert!(reply.unanimous, "digital replicas are identical");
    }
    assert_eq!(router.vote_disagreement_rate(), 0.0);
}
