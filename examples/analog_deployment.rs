//! Device-level deployment: map a trained network onto simulated RRAM
//! crossbars (differential conductance pairs, programming variation, read
//! noise, quantization) and compare against the paper's weight-level
//! log-normal model.
//!
//! ```bash
//! cargo run --release --example analog_deployment
//! ```

use cn_analog::cell::CellSpec;
use cn_analog::deployment::DeploymentMode;
use cn_analog::engine::{monte_carlo, AnalogBackend, McConfig};
use cn_analog::{Crossbar, TiledCrossbar};
use cn_data::synthetic_mnist;
use cn_nn::optim::Adam;
use cn_nn::trainer::{TrainConfig, Trainer};
use cn_nn::zoo::{lenet5, LeNetConfig};
use cn_tensor::SeededRng;

fn main() {
    println!("== RRAM crossbar deployment ==\n");

    // A single crossbar doing an analog MAC (paper Fig. 1).
    let mut rng = SeededRng::new(1);
    let w = rng.normal_tensor(&[4, 6], 0.0, 1.0);
    let x = rng.normal_tensor(&[6], 0.0, 1.0);
    let xbar = Crossbar::program(&w, CellSpec::ideal(1.0, 100.0), &mut rng);
    let y_analog = xbar.mac(&x, &mut rng);
    let y_exact = w.matvec(&x);
    println!(
        "ideal crossbar MAC error: {:.2e}",
        (&y_analog - &y_exact).abs_max()
    );

    // Tiling a large matrix over 128×128 arrays.
    let big = rng.normal_tensor(&[300, 200], 0.0, 1.0);
    let tiled = TiledCrossbar::program(&big, 128, CellSpec::typical(0.1), &mut rng);
    println!(
        "300×200 matrix → {} physical 128×128 arrays",
        tiled.tile_count()
    );

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
                read_sigma: 0.0,
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
                read_sigma: 0.0,
                levels: Some(32),
                ..CellSpec::ideal(1.0, 100.0)
            },
            tile_size: 128,
        }),
    );
    println!("\naccuracy under σ = 0.3 (8 MC samples):");
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
