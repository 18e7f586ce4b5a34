//! Critical-weight replication into SRAM (≈ paper ref. \[8\]).

use crate::protection::{eval_protected, ProtectionMasks, RetrainConfig};
use cn_analog::engine::McResult;
use cn_data::Dataset;
use cn_nn::Sequential;

/// One point of the replication trade-off curve.
#[derive(Debug, Clone)]
pub struct ReplicationPoint {
    /// Fraction of weights replicated (= weight overhead).
    pub fraction: f32,
    /// Monte-Carlo result at the evaluation σ.
    pub result: McResult,
}

/// Evaluates magnitude-based replication at the given protected
/// fractions, with or without per-chip online retraining — producing a
/// Fig. 8-style accuracy-vs-overhead curve.
#[allow(clippy::too_many_arguments)]
pub fn magnitude_replication(
    model: &Sequential,
    test: &Dataset,
    train: &Dataset,
    fractions: &[f32],
    sigma: f32,
    samples: usize,
    seed: u64,
    retrain: Option<RetrainConfig>,
) -> Vec<ReplicationPoint> {
    fractions
        .iter()
        .map(|&fraction| {
            let protection = ProtectionMasks::top_magnitude(model, fraction);
            let result = eval_protected(
                model,
                test,
                train,
                &protection,
                sigma,
                samples,
                seed,
                retrain,
            );
            ReplicationPoint { fraction, result }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_data::synthetic_mnist;
    use cn_nn::optim::Adam;
    use cn_nn::trainer::{TrainConfig, Trainer};
    use cn_nn::zoo::{lenet5, LeNetConfig};

    #[test]
    fn curve_is_monotone_ish_in_protection() {
        let data = synthetic_mnist(160, 60, 81);
        let mut model = lenet5(&LeNetConfig::mnist(82));
        Trainer::new(TrainConfig::new(4, 32, 83)).fit(
            &mut model,
            &data.train,
            &mut Adam::new(2e-3),
        );
        let points = magnitude_replication(
            &model,
            &data.test,
            &data.train,
            &[0.0, 1.0],
            0.7,
            4,
            84,
            None,
        );
        assert_eq!(points.len(), 2);
        assert!(
            points[1].result.mean > points[0].result.mean,
            "full replication ({}) must beat none ({})",
            points[1].result.mean,
            points[0].result.mean
        );
    }

    #[test]
    fn online_retraining_improves_over_static() {
        let data = synthetic_mnist(200, 60, 85);
        let mut model = lenet5(&LeNetConfig::mnist(86));
        Trainer::new(TrainConfig::new(5, 32, 87)).fit(
            &mut model,
            &data.train,
            &mut Adam::new(2e-3),
        );
        let frac = [0.2f32];
        let without =
            magnitude_replication(&model, &data.test, &data.train, &frac, 0.6, 3, 88, None);
        let with = magnitude_replication(
            &model,
            &data.test,
            &data.train,
            &frac,
            0.6,
            3,
            88,
            Some(RetrainConfig::quick()),
        );
        assert!(
            with[0].result.mean >= without[0].result.mean - 0.02,
            "retraining hurt: {} vs {}",
            with[0].result.mean,
            without[0].result.mean
        );
    }
}
