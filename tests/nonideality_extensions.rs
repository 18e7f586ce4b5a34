//! Integration: extension non-idealities (drift, IR drop) compose with
//! the CorrectNet machinery exactly like the paper's variation model.

use cn_analog::deployment::DeploymentMode;
use cn_analog::drift::ConductanceDrift;
use cn_analog::engine::{monte_carlo, AnalogBackend};
use cn_analog::irdrop::IrDrop;
use cn_analog::montecarlo::McConfig;
use cn_data::synthetic_mnist;
use cn_nn::optim::Adam;
use cn_nn::trainer::{TrainConfig, Trainer};
use cn_nn::zoo::{lenet5, LeNetConfig};

fn trained() -> (cn_nn::Sequential, cn_data::TrainTest) {
    let data = synthetic_mnist(250, 80, 401);
    let mut model = lenet5(&LeNetConfig::mnist(402));
    Trainer::new(TrainConfig::new(5, 32, 403)).fit(&mut model, &data.train, &mut Adam::new(2e-3));
    (model, data)
}

#[test]
fn drift_degrades_accuracy_over_time() {
    let (model, data) = trained();
    let drift = ConductanceDrift::new(0.06, 0.01, 1.0);
    let mc = McConfig::new(4, 0.2, 404);
    let fresh = monte_carlo(
        &model,
        &data.test,
        &mc,
        &AnalogBackend::new(DeploymentMode::LognormalWithDrift {
            sigma: 0.2,
            drift,
            t: 1.0,
        }),
    );
    let aged = monte_carlo(
        &model,
        &data.test,
        &mc,
        &AnalogBackend::new(DeploymentMode::LognormalWithDrift {
            sigma: 0.2,
            drift,
            t: 1e6,
        }),
    );
    assert!(
        aged.mean <= fresh.mean + 0.02,
        "a million-fold aged chip ({}) should not beat a fresh one ({})",
        aged.mean,
        fresh.mean
    );
}

#[test]
fn mild_irdrop_is_survivable_severe_is_not_free() {
    let (model, data) = trained();
    let mc = McConfig::new(4, 0.0, 405);
    let clean = monte_carlo(
        &model,
        &data.test,
        &mc,
        &AnalogBackend::new(DeploymentMode::WeightLognormal { sigma: 0.0 }),
    );
    let mild = monte_carlo(
        &model,
        &data.test,
        &mc,
        &AnalogBackend::new(DeploymentMode::LognormalWithIrDrop {
            sigma: 0.0,
            irdrop: IrDrop::new(0.05),
        }),
    );
    let severe = monte_carlo(
        &model,
        &data.test,
        &mc,
        &AnalogBackend::new(DeploymentMode::LognormalWithIrDrop {
            sigma: 0.0,
            irdrop: IrDrop::new(2.0),
        }),
    );
    assert!(
        mild.mean > clean.mean - 0.05,
        "mild IR drop should be benign"
    );
    assert!(
        severe.mean <= mild.mean + 0.02,
        "severe IR drop ({}) should not beat mild ({})",
        severe.mean,
        mild.mean
    );
}

#[test]
fn compensation_also_recovers_drift_losses() {
    // CorrectNet's machinery is noise-model agnostic: train compensators
    // against the drift+variation deployment and accuracy improves.
    use cn_analog::montecarlo::McConfig;
    use correctnet::compensation::{
        apply_compensation, train_compensators, train_compensators_mode, CompensationPlan,
        CompensationTrainConfig,
    };

    let (model, data) = trained();
    let drift = ConductanceDrift::new(0.08, 0.02, 1.0);
    let mode = DeploymentMode::LognormalWithDrift {
        sigma: 0.4,
        drift,
        t: 1e5,
    };
    let eval = |m: &cn_nn::Sequential| {
        monte_carlo(
            m,
            &data.test,
            &McConfig::new(6, 0.4, 406),
            &AnalogBackend::new(mode.clone()),
        )
        .mean
    };
    let before = eval(&model);
    let plan = CompensationPlan::uniform(&[0, 1], 1.0);
    let cfg = CompensationTrainConfig::new(0.4, 5, 408);

    // Compensators trained against the same drift+variation deployment
    // they will face must not hurt — the machinery is noise-model
    // agnostic when the training distribution matches deployment.
    let mut comp = apply_compensation(&model, &plan, 407);
    train_compensators_mode(&mut comp, &data.train, &cfg, &mode);
    let after = eval(&comp);
    assert!(
        after > before - 0.03,
        "compensation must not hurt under drift: {before} → {after}"
    );

    // Known transfer gap: compensators trained on the paper's lognormal
    // model only (no drift) degrade under the mean-shifted drift
    // deployment — measured ≈ −0.10 accuracy at these seeds. Keep a
    // loose floor so a future collapse of the transfer behaviour (or a
    // fix that closes the gap) is visible here.
    let mut transfer = apply_compensation(&model, &plan, 407);
    train_compensators(&mut transfer, &data.train, &cfg);
    let after_transfer = eval(&transfer);
    assert!(
        after_transfer > before - 0.15,
        "lognormal-trained compensation collapsed under drift: {before} → {after_transfer}"
    );
}
