//! Quickstart: train LeNet-5, deploy it on a simulated analog accelerator,
//! watch accuracy collapse under variations, and recover it with
//! CorrectNet (Lipschitz regularization + error compensation).
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use cn_analog::engine::{monte_carlo, AnalogBackend, McConfig};
use cn_data::synthetic_mnist;
use cn_nn::metrics::evaluate;
use cn_nn::zoo::{lenet5, LeNetConfig};
use correctnet::compensation::{weight_overhead, CompensationPlan};
use correctnet::pipeline::{CorrectNetConfig, CorrectNetStages};

fn main() {
    let sigma = 0.5;
    println!("== CorrectNet quickstart (σ = {sigma}) ==\n");

    // 1. Data: a synthetic MNIST stand-in (seeded, offline).
    let data = synthetic_mnist(1000, 300, 42);
    println!(
        "dataset: {} train / {} test samples of {:?}",
        data.train.len(),
        data.test.len(),
        data.train.sample_dims()
    );

    // 2. Train the base model *with error suppression* (Lipschitz
    //    regularization, paper eq. 10–11).
    let cfg = CorrectNetConfig::quick(sigma, 7);
    let stages = CorrectNetStages::new(cfg);
    let mut model = lenet5(&LeNetConfig::mnist(1));
    stages.train_base(&mut model, &data.train);
    let clean = evaluate(&model, &data.test, 64);
    println!(
        "clean accuracy after Lipschitz training: {:.1}%",
        100.0 * clean
    );

    // 3. Deploy without compensation: Monte-Carlo accuracy under
    //    log-normal weight variations (paper eq. 1–2).
    let mc = McConfig::new(10, sigma, 3);
    let noisy = monte_carlo(&model, &data.test, &mc, &AnalogBackend::lognormal(mc.sigma));
    println!(
        "accuracy under σ={sigma} variations (no compensation): {:.1}% ± {:.1}",
        100.0 * noisy.mean,
        100.0 * noisy.std
    );

    // 4. Candidate selection (95% rule) + error compensation on the
    //    sensitive early layers.
    let report = stages.candidates(&model, &data.test);
    println!(
        "compensation candidates: first {} of {} weight layers",
        report.candidate_count,
        report.sweep.len() - 1
    );
    let plan = CompensationPlan::uniform(&report.candidates(), 0.5);
    let comp = stages.build_and_train(&model, &data.train, &plan);
    let corrected = stages.evaluate(&comp, &data.test);
    println!(
        "CorrectNet accuracy under σ={sigma}: {:.1}% ± {:.1} (overhead {:.2}%)",
        100.0 * corrected.mean,
        100.0 * corrected.std,
        100.0 * weight_overhead(&comp)
    );
    println!(
        "\nrecovered {:.0}% of the clean accuracy",
        100.0 * corrected.mean / clean
    );
}
