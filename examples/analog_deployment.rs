//! Device-level deployment: program a trained network onto simulated RRAM
//! conductance pairs (per-tile scaling, programming variation, multi-level
//! quantization) and compare against the paper's weight-level log-normal
//! model.
//!
//! ```bash
//! cargo run --release --example analog_deployment
//! ```

use cn_analog::cell::CellSpec;
use cn_analog::deployment::DeploymentMode;
use cn_analog::engine::{monte_carlo, AnalogBackend, McConfig};
use cn_data::synthetic_mnist;
use cn_nn::optim::Adam;
use cn_nn::trainer::{TrainConfig, Trainer};
use cn_nn::zoo::{lenet5, LeNetConfig};

fn main() {
    println!("== RRAM crossbar deployment ==\n");

    // Whole-network deployment: weight-level vs conductance-level noise.
    let data = synthetic_mnist(600, 200, 11);
    let mut model = lenet5(&LeNetConfig::mnist(2));
    Trainer::new(TrainConfig::new(6, 32, 3)).fit(&mut model, &data.train, &mut Adam::new(2e-3));

    let mc = McConfig::new(8, 0.3, 5);
    let weight_level = monte_carlo(
        &model,
        &data.test,
        &mc,
        &AnalogBackend::new(DeploymentMode::WeightLognormal { sigma: 0.3 }),
    );
    let device_level = monte_carlo(
        &model,
        &data.test,
        &mc,
        &AnalogBackend::new(DeploymentMode::Conductance {
            spec: CellSpec {
                prog_sigma: 0.3,
                levels: None,
                ..CellSpec::ideal(1.0, 100.0)
            },
            tile_size: 128,
        }),
    );
    let quantized = monte_carlo(
        &model,
        &data.test,
        &mc,
        &AnalogBackend::new(DeploymentMode::Conductance {
            spec: CellSpec {
                prog_sigma: 0.3,
                levels: Some(32),
                ..CellSpec::ideal(1.0, 100.0)
            },
            tile_size: 128,
        }),
    );
    println!("accuracy under σ = 0.3 (8 MC samples):");
    println!(
        "  weight-level log-normal (paper eq. 1–2): {:.1}% ± {:.1}",
        100.0 * weight_level.mean,
        100.0 * weight_level.std
    );
    println!(
        "  conductance-level crossbars:             {:.1}% ± {:.1}",
        100.0 * device_level.mean,
        100.0 * device_level.std
    );
    println!(
        "  + 32-level conductance quantization:     {:.1}% ± {:.1}",
        100.0 * quantized.mean,
        100.0 * quantized.std
    );
}
