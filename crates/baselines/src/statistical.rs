//! Statistical / noise-aware training (≈ paper refs. \[7\], \[10\], \[11\]).
//!
//! The network is trained with variations sampled fresh for every batch,
//! so the weights settle in configurations robust to the variation
//! distribution. As in the referenced works, the method is applied as
//! **fine-tuning from a conventionally pretrained model** — training from
//! scratch under σ = 0.5 multiplicative noise does not converge in any
//! reasonable budget. No extra weights are stored: the overhead is zero;
//! the trade-off is accuracy, not memory.

use cn_data::Dataset;
use cn_nn::noise::apply_lognormal;
use cn_nn::optim::Adam;
use cn_nn::trainer::{EpochStats, TrainConfig, Trainer};
use cn_nn::Sequential;
use cn_tensor::SeededRng;

/// Noise-aware training configuration.
#[derive(Debug, Clone, Copy)]
pub struct NoiseAwareConfig {
    /// Variation level sampled during training (match the deployment σ).
    pub sigma: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
}

impl NoiseAwareConfig {
    /// Defaults for the quick profile.
    pub fn new(sigma: f32, epochs: usize, seed: u64) -> Self {
        NoiseAwareConfig {
            sigma,
            epochs,
            batch_size: 32,
            lr: 2e-3,
            seed,
        }
    }
}

/// Fine-tunes `model` (expected to be pretrained) with per-batch
/// variation resampling; leaves the nominal weights noise-free afterwards.
/// Returns per-epoch statistics.
pub fn train_noise_aware(
    model: &mut Sequential,
    train: &Dataset,
    cfg: &NoiseAwareConfig,
) -> Vec<EpochStats> {
    let sigma = cfg.sigma;
    let mut noise_rng = SeededRng::new(cfg.seed ^ 0x40a1);
    let mut trainer = Trainer::new(TrainConfig::new(cfg.epochs, cfg.batch_size, cfg.seed))
        .with_before_batch(move |m, _| apply_lognormal(m, sigma, &mut noise_rng));
    let mut opt = Adam::new(cfg.lr);
    let stats = trainer.fit(model, train, &mut opt);
    model.clear_noise();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_analog::engine::{monte_carlo, AnalogBackend, McConfig};
    use cn_data::synthetic_mnist;
    use cn_nn::optim::Adam;
    use cn_nn::trainer::Trainer;
    use cn_nn::zoo::{lenet5, LeNetConfig};

    #[test]
    fn noise_aware_finetuning_is_more_robust_than_plain() {
        let data = synthetic_mnist(240, 80, 101);
        let sigma = 0.5;

        let mut plain = lenet5(&LeNetConfig::mnist(102));
        Trainer::new(TrainConfig::new(5, 32, 103)).fit(
            &mut plain,
            &data.train,
            &mut Adam::new(2e-3),
        );

        // Noise-aware fine-tuning starts from the pretrained weights.
        let mut aware = plain.clone();
        train_noise_aware(
            &mut aware,
            &data.train,
            &NoiseAwareConfig {
                lr: 1e-3,
                ..NoiseAwareConfig::new(sigma, 4, 105)
            },
        );

        let mc = McConfig::new(8, sigma, 104);
        let backend = AnalogBackend::lognormal(mc.sigma);
        let r_plain = monte_carlo(&plain, &data.test, &mc, &backend);
        let r_aware = monte_carlo(&aware, &data.test, &mc, &backend);
        assert!(
            r_aware.mean > r_plain.mean - 0.02,
            "noise-aware ({}) should not be clearly worse than plain ({}) under noise",
            r_aware.mean,
            r_plain.mean
        );
    }

    #[test]
    fn masks_are_cleared_after_training() {
        let data = synthetic_mnist(40, 10, 105);
        let mut model = lenet5(&LeNetConfig::mnist(106));
        train_noise_aware(&mut model, &data.train, &NoiseAwareConfig::new(0.5, 1, 107));
        // Two consecutive clean evaluations must agree exactly.
        use cn_nn::metrics::evaluate;
        let a = evaluate(&model, &data.test, 10);
        let b = evaluate(&model, &data.test, 10);
        assert_eq!(a, b);
    }
}
