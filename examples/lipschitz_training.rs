//! Error suppression in isolation: how Lipschitz-constant regularization
//! (paper eq. 10–11) changes per-layer spectral norms and robustness.
//!
//! ```bash
//! cargo run --release --example lipschitz_training
//! ```

use cn_analog::engine::{monte_carlo, AnalogBackend, McConfig};
use cn_data::synthetic_mnist;
use cn_nn::metrics::evaluate;
use cn_nn::zoo::{lenet5, LeNetConfig};
use correctnet::lipschitz::{lambda_for, spectral_norms};
use correctnet::pipeline::{CorrectNetConfig, CorrectNetStages};

fn main() {
    let sigma = 0.5;
    let lambda = lambda_for(1.0, sigma);
    println!("== Lipschitz-constant regularization (σ = {sigma}) ==");
    println!("eq. 10 target: λ = {lambda:.4} at k = 1\n");

    let data = synthetic_mnist(800, 250, 21);
    let cfg = CorrectNetConfig {
        beta: 2e-3,
        ..CorrectNetConfig::quick(sigma, 22)
    };
    let stages = CorrectNetStages::new(cfg);

    let mut plain = lenet5(&LeNetConfig::mnist(23));
    stages.train_plain(&mut plain, &data.train);
    let mut regularized = lenet5(&LeNetConfig::mnist(23));
    stages.train_base(&mut regularized, &data.train);

    println!("per-layer spectral norms (power iteration):");
    println!("  layer | plain  | regularized");
    let sp = spectral_norms(&plain);
    let sr = spectral_norms(&regularized);
    for ((idx, a), (_, b)) in sp.iter().zip(sr.iter()) {
        println!("  {idx:>5} | {a:>6.3} | {b:>6.3}");
    }
    let bound_plain: f32 = sp.iter().map(|(_, s)| s).product();
    let bound_reg: f32 = sr.iter().map(|(_, s)| s).product();
    println!("  Lipschitz product bound: {bound_plain:.3e} → {bound_reg:.3e}\n");

    let acc_plain = evaluate(&plain, &data.test, 64);
    let acc_reg = evaluate(&regularized, &data.test, 64);
    println!(
        "clean accuracy: plain {:.1}%, regularized {:.1}%",
        100.0 * acc_plain,
        100.0 * acc_reg
    );

    for s in [0.2f32, 0.4, 0.5] {
        let mc = McConfig::new(8, s, 24);
        let backend = AnalogBackend::lognormal(mc.sigma);
        let rp = monte_carlo(&plain, &data.test, &mc, &backend);
        let rr = monte_carlo(&regularized, &data.test, &mc, &backend);
        println!(
            "σ={s}: plain {:>5.1}% ± {:>4.1} | regularized {:>5.1}% ± {:>4.1}",
            100.0 * rp.mean,
            100.0 * rp.std,
            100.0 * rr.mean,
            100.0 * rr.std
        );
    }
    println!("\n(Lipschitz training suppresses error amplification; compensation\n recovers the rest — see the quickstart and compensation_search examples.)");
}
