//! Integration: the weight-level and conductance-level variation models
//! must tell a consistent robustness story (DESIGN.md substitution check).

use cn_analog::cell::CellSpec;
use cn_analog::deployment::DeploymentMode;
use cn_analog::engine::{monte_carlo, AnalogBackend};
use cn_analog::montecarlo::McConfig;
use cn_data::synthetic_mnist;
use cn_nn::optim::Adam;
use cn_nn::trainer::{TrainConfig, Trainer};
use cn_nn::zoo::{lenet5, LeNetConfig};

fn trained() -> (cn_nn::Sequential, cn_data::TrainTest) {
    let data = synthetic_mnist(250, 80, 241);
    let mut model = lenet5(&LeNetConfig::mnist(242));
    Trainer::new(TrainConfig::new(5, 32, 243)).fit(&mut model, &data.train, &mut Adam::new(2e-3));
    (model, data)
}

#[test]
fn ideal_conductance_deployment_matches_clean_accuracy() {
    let (model, data) = trained();
    let mc = McConfig::new(2, 0.0, 244);
    let clean = monte_carlo(
        &model,
        &data.test,
        &mc,
        &AnalogBackend::new(DeploymentMode::WeightLognormal { sigma: 0.0 }),
    );
    let ideal = monte_carlo(
        &model,
        &data.test,
        &mc,
        &AnalogBackend::new(DeploymentMode::Conductance {
            spec: CellSpec::ideal(1.0, 100.0),
            tile_size: 128,
        }),
    );
    assert!(
        (clean.mean - ideal.mean).abs() < 0.02,
        "ideal crossbar ({}) should match clean accuracy ({})",
        ideal.mean,
        clean.mean
    );
}

#[test]
fn both_models_degrade_with_variation_strength() {
    let (model, data) = trained();
    let mut previous_weight = 1.0f32;
    let mut previous_device = 1.0f32;
    for (i, sigma) in [0.1f32, 0.6].into_iter().enumerate() {
        let mc = McConfig::new(5, sigma, 245 + i as u64);
        let weight = monte_carlo(
            &model,
            &data.test,
            &mc,
            &AnalogBackend::new(DeploymentMode::WeightLognormal { sigma }),
        );
        let device = monte_carlo(
            &model,
            &data.test,
            &mc,
            &AnalogBackend::new(DeploymentMode::Conductance {
                spec: CellSpec {
                    prog_sigma: sigma,
                    ..CellSpec::ideal(1.0, 100.0)
                },
                tile_size: 128,
            }),
        );
        assert!(weight.mean <= previous_weight + 0.05);
        assert!(device.mean <= previous_device + 0.05);
        previous_weight = weight.mean;
        previous_device = device.mean;
    }
}

#[test]
fn stuck_faults_compound_with_lognormal() {
    use cn_analog::faults::StuckFaults;
    let (model, data) = trained();
    let mc = McConfig::new(4, 0.3, 248);
    let plain = monte_carlo(
        &model,
        &data.test,
        &mc,
        &AnalogBackend::new(DeploymentMode::WeightLognormal { sigma: 0.3 }),
    );
    let faulty = monte_carlo(
        &model,
        &data.test,
        &mc,
        &AnalogBackend::new(DeploymentMode::LognormalWithFaults {
            sigma: 0.3,
            faults: StuckFaults::new(0.1, 0.0, 0.0),
        }),
    );
    assert!(
        faulty.mean <= plain.mean + 0.02,
        "adding 10% stuck-at-zero faults ({}) should not beat variation-only ({})",
        faulty.mean,
        plain.mean
    );
}
