//! Integration: the compile/execute engine must be a drop-in replacement
//! for the historic mutate-in-place evaluation — backend equivalences,
//! cross-thread sharing, and bit-exact reproduction of the pre-refactor
//! Monte-Carlo protocol.

use correctnet_repro::prelude::*;
use std::sync::Arc;

fn trained() -> (Sequential, cn_data::TrainTest) {
    let data = synthetic_mnist(200, 60, 501);
    let mut model = lenet5(&LeNetConfig::mnist(502));
    Trainer::new(TrainConfig::new(4, 32, 503)).fit(&mut model, &data.train, &mut Adam::new(2e-3));
    (model, data)
}

#[test]
fn digital_backend_bitwise_equals_sequential_forward() {
    let (model, data) = trained();
    let compiled = EngineBuilder::new(&model)
        .backend(DigitalBackend)
        .compile()
        .shared();
    let mut session = Session::new(Arc::clone(&compiled));
    let logits = session.logits_batch(&data.test.images);
    let reference = model.clone().forward(&data.test.images, false);
    assert_eq!(logits, reference, "digital session must be bit-exact");
    // …and so is the immutable path against itself, repeatedly.
    assert_eq!(session.logits_batch(&data.test.images), reference);
}

#[test]
fn analog_sigma_zero_and_no_faults_match_digital() {
    let (model, data) = trained();
    let digital = EngineBuilder::new(&model)
        .backend(DigitalBackend)
        .compile()
        .shared();
    let expect = digital.infer(&data.test.images);

    let lognormal0 = EngineBuilder::new(&model)
        .backend(AnalogBackend::lognormal(0.0))
        .seed(7)
        .compile();
    assert_eq!(lognormal0.infer(&data.test.images), expect);

    let faults0 = EngineBuilder::new(&model)
        .backend(AnalogBackend::new(DeploymentMode::LognormalWithFaults {
            sigma: 0.0,
            faults: cn_analog::faults::StuckFaults::new(0.0, 0.0, 0.0),
        }))
        .seed(8)
        .compile();
    assert_eq!(faults0.infer(&data.test.images), expect);
}

#[test]
fn tiled_backend_ideal_cells_match_digital_closely() {
    let (model, data) = trained();
    let expect = EngineBuilder::new(&model)
        .compile()
        .infer(&data.test.images);
    let tiled = EngineBuilder::new(&model)
        .backend(AnalogBackend::new(DeploymentMode::Conductance {
            spec: cn_analog::CellSpec::ideal(1.0, 100.0),
            tile_size: 128,
        }))
        .seed(9)
        .compile();
    let got = tiled.infer(&data.test.images);
    for (a, b) in expect.data().iter().zip(got.data().iter()) {
        assert!((a - b).abs() < 1e-2, "{a} vs {b}");
    }
}

#[test]
fn compiled_model_shared_across_threads_is_consistent() {
    let (model, data) = trained();
    let compiled = EngineBuilder::new(&model)
        .backend(AnalogBackend::lognormal(0.5))
        .seed(10)
        .compile()
        .shared();
    let expect = compiled.infer(&data.test.images);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let compiled = Arc::clone(&compiled);
            let (x, expect) = (data.test.images.clone(), expect.clone());
            scope.spawn(move || {
                let mut session = Session::new(compiled);
                assert_eq!(session.logits_batch(&x), expect);
            });
        }
    });
}

/// The acceptance regression: engine Monte-Carlo must reproduce the
/// pre-refactor protocol bit for bit. The reference below is a literal
/// re-implementation of the legacy `mc_accuracy` / `mc_accuracy_from_layer`
/// inner loop (clone → install log-normal masks → mutate-in-place
/// evaluation).
#[test]
fn engine_monte_carlo_reproduces_legacy_protocol_bitwise() {
    let (model, data) = trained();
    let cfg = McConfig::new(6, 0.5, 504);
    for start in [0usize, 3] {
        let legacy: Vec<f32> = (0..cfg.samples)
            .map(|i| {
                let mut local = model.clone();
                let mut rng = SeededRng::new(cfg.seed).fork(i as u64);
                cn_nn::noise::apply_lognormal_from(&mut local, start, cfg.sigma, &mut rng);
                evaluate(&local, &data.test, cfg.batch_size)
            })
            .collect();
        let engine = monte_carlo(
            &model,
            &data.test,
            &cfg,
            &AnalogBackend::lognormal_from(cfg.sigma, start),
        );
        assert_eq!(
            engine.accuracies, legacy,
            "engine MC diverged from the legacy protocol (start = {start})"
        );
    }
}

#[test]
fn sessions_do_not_redeploy_between_calls() {
    let (model, data) = trained();
    let compiled = EngineBuilder::new(&model)
        .backend(AnalogBackend::lognormal(0.4))
        .seed(11)
        .compile()
        .shared();
    // Compilation bakes the deployment: the snapshot carries no live
    // masks, so there is nothing to re-sample per call…
    let mut cleared = compiled.model().clone();
    cleared.clear_noise();
    assert_eq!(
        cleared.infer(&data.test.images),
        compiled.infer(&data.test.images)
    );
    // …and repeated batches through one session are stable and counted.
    let mut session = Session::new(compiled);
    let acc = session.evaluate(&data.test, 16);
    assert_eq!(session.evaluate(&data.test, 16), acc);
    assert_eq!(
        session.batches_run(),
        2 * data.test.len().div_ceil(16) as u64
    );
}
