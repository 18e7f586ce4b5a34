//! Random sparse adaptation (≈ paper ref. \[9\]).
//!
//! A random subset of weights is mapped to on-chip digital memory; since
//! they carry no variations *and* can be written per chip, the method is
//! evaluated with online retraining by default (its defining feature —
//! "random sparse adaptation for accurate inference").

use crate::protection::{eval_protected, ProtectionMasks, RetrainConfig};
use crate::replication::ReplicationPoint;
use cn_analog::engine::McResult;
use cn_data::Dataset;
use cn_nn::Sequential;

/// Evaluates random sparse adaptation at the given digital fractions.
#[allow(clippy::too_many_arguments)]
pub fn random_sparse_adaptation(
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
        .enumerate()
        .map(|(i, &fraction)| {
            let protection = ProtectionMasks::random(model, fraction, seed.wrapping_add(i as u64));
            let result: McResult = eval_protected(
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
    fn random_adaptation_runs_and_orders_sanely() {
        let data = synthetic_mnist(160, 50, 91);
        let mut model = lenet5(&LeNetConfig::mnist(92));
        Trainer::new(TrainConfig::new(4, 32, 93)).fit(
            &mut model,
            &data.train,
            &mut Adam::new(2e-3),
        );
        let points = random_sparse_adaptation(
            &model,
            &data.test,
            &data.train,
            &[0.0, 0.9],
            0.7,
            3,
            94,
            None,
        );
        assert!(points[1].result.mean >= points[0].result.mean - 0.05);
    }

    #[test]
    fn magnitude_beats_random_at_equal_fraction() {
        // The whole point of ref. [8] vs ref. \[9\]: protecting the largest
        // weights is better than protecting random ones (without
        // retraining).
        let data = synthetic_mnist(200, 60, 95);
        let mut model = lenet5(&LeNetConfig::mnist(96));
        Trainer::new(TrainConfig::new(5, 32, 97)).fit(
            &mut model,
            &data.train,
            &mut Adam::new(2e-3),
        );
        let frac = [0.3f32];
        let random =
            random_sparse_adaptation(&model, &data.test, &data.train, &frac, 0.6, 4, 98, None);
        let magnitude = crate::replication::magnitude_replication(
            &model,
            &data.test,
            &data.train,
            &frac,
            0.6,
            4,
            98,
            None,
        );
        assert!(
            magnitude[0].result.mean >= random[0].result.mean - 0.03,
            "magnitude {} clearly worse than random {}",
            magnitude[0].result.mean,
            random[0].result.mean
        );
    }
}
