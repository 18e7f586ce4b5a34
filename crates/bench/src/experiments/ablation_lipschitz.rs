//! **Extension ablation** (not a paper figure): sensitivity of error
//! suppression to its two hyperparameters — the penalty strength β and
//! the spectral target λ (paper uses λ(k=1, σ) from eq. 10).

use super::{Ctx, Experiment};
use crate::profile::{pipeline_config, Pair};
use crate::report::ExperimentReport;
use cn_analog::engine::{monte_carlo, AnalogBackend, McConfig};
use cn_nn::metrics::evaluate;
use cn_nn::optim::Adam;
use cn_nn::trainer::{TrainConfig, Trainer};
use correctnet::lipschitz::{lambda_for, spectral_norms, LipschitzRegularizer};
use correctnet::report::pct;

/// Lipschitz-hyperparameter ablation regenerator.
pub struct AblationLipschitz;

const SIGMA: f32 = 0.5;
const PIPE_SEED: u64 = 0xab11;
const MC_SEED: u64 = 0xab12;
const NET_SEED: u64 = 0xab13;

impl Experiment for AblationLipschitz {
    fn name(&self) -> &'static str {
        "ablation_lipschitz"
    }

    fn title(&self) -> &'static str {
        "Ablation: Lipschitz regularization hyperparameters (σ = 0.5)"
    }

    fn description(&self) -> &'static str {
        "sensitivity of error suppression to beta and the spectral target lambda (extension)"
    }

    fn run(&self, ctx: &Ctx) -> ExperimentReport {
        let pair = Pair::LeNet5Mnist;
        let lambda_sigma = lambda_for(1.0, SIGMA);
        let mut report = ctx.report(self);
        report.config_num("sigma", SIGMA as f64);
        report.config_str("pair", pair.name());
        report.config_num("lambda_eq10", lambda_sigma as f64);
        report.note(format!(
            "pair: {}; eq. 10 gives λ = {lambda_sigma:.3}",
            pair.name()
        ));

        let data = pair.dataset(ctx.scale);
        let cfg = pipeline_config(ctx.scale, SIGMA, PIPE_SEED);
        let mc = McConfig::new(ctx.scale.mc_samples(), SIGMA, MC_SEED);

        let mut rows = Vec::new();
        for (key, label, beta, lambda) in [
            ("no_reg", "no regularization", 0.0f32, 1.0f32),
            ("beta_1e4", "β=1e-4, λ=λ(σ)", 1e-4, lambda_sigma),
            ("beta_1e3", "β=1e-3, λ=λ(σ) (default)", 1e-3, lambda_sigma),
            ("beta_1e2", "β=1e-2, λ=λ(σ)", 1e-2, lambda_sigma),
            ("parseval", "β=1e-3, λ=1 (Parseval)", 1e-3, 1.0),
        ] {
            eprintln!("[ablation_lipschitz] {label} …");
            // Two-phase protocol: plain pretraining, then regularized
            // fine-tuning (see pipeline docs). These variants deliberately
            // bypass the model cache — the sweep *is* the training
            // experiment.
            let mut model = pair.network(ctx.scale, NET_SEED);
            Trainer::new(TrainConfig::new(cfg.base_epochs, 32, 1)).fit(
                &mut model,
                &data.train,
                &mut Adam::new(cfg.base_lr),
            );
            if beta > 0.0 {
                let reg = LipschitzRegularizer { beta, lambda };
                Trainer::new(TrainConfig::new(cfg.base_epochs / 2, 32, 2))
                    .with_regularizer(move |m| reg.apply(m))
                    .fit(&mut model, &data.train, &mut Adam::new(cfg.base_lr / 2.0));
            }
            let clean = evaluate(&model, &data.test, 64);
            let noisy = monte_carlo(&model, &data.test, &mc, &AnalogBackend::lognormal(mc.sigma));
            let max_norm = spectral_norms(&model)
                .iter()
                .map(|(_, s)| *s)
                .fold(0.0f32, f32::max);
            rows.push(vec![
                label.to_string(),
                pct(clean),
                pct(noisy.mean),
                format!("{max_norm:.2}"),
            ]);
            report.metric(&format!("{key}.clean"), clean as f64);
            report.metric(&format!("{key}.noisy"), noisy.mean as f64);
            report.metric(&format!("{key}.max_spectral_norm"), max_norm as f64);
        }
        report.table(
            "",
            &["configuration", "clean acc", "acc @ σ=0.5", "max σ(W)"],
            rows,
        );
        report.note("Check: moderate β preserves clean accuracy while shrinking the");
        report.note("spectral norms; overly aggressive β trades clean accuracy away.");
        report
    }
}
