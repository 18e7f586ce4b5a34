//! Shared machinery for weight-protection baselines.
//!
//! A *protection mask* marks the weights held in digital (SRAM) storage:
//! protected weights never receive variation factors, and — under online
//! retraining — are the only weights a per-chip fine-tuning step may
//! adjust (realized by element-wise gradient masking).

use cn_analog::engine::{monte_carlo, Backend, MaskPlan, McConfig, McResult};
use cn_data::{BatchIter, Dataset};
use cn_nn::loss::softmax_cross_entropy;
use cn_nn::Sequential;
use cn_tensor::{SeededRng, Tensor};

/// Per-analog-layer 0/1 masks; 1 marks a digitally protected weight.
#[derive(Debug, Clone)]
pub struct ProtectionMasks {
    /// One mask per analog weight layer, shaped like the weight tensor.
    pub masks: Vec<Tensor>,
}

impl ProtectionMasks {
    /// Fraction of all weights that are protected.
    pub fn protected_fraction(&self) -> f32 {
        let total: usize = self.masks.iter().map(|m| m.numel()).sum();
        let protected: f32 = self.masks.iter().map(|m| m.sum()).sum();
        if total == 0 {
            0.0
        } else {
            protected / total as f32
        }
    }

    /// The paper's overhead metric for replication methods: the protected
    /// fraction (digital copies add that many extra stored weights).
    pub fn overhead(&self) -> f32 {
        self.protected_fraction()
    }

    /// Protects the `fraction` largest-magnitude weights **globally**
    /// across all analog layers of `model` (≈ ref. \[8\]).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ fraction ≤ 1`.
    pub fn top_magnitude(model: &Sequential, fraction: f32) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let noisy = model.noisy_layers();
        // Gather |w| over all layers to find the global threshold.
        let mut magnitudes: Vec<f32> = Vec::new();
        let mut nominals: Vec<Tensor> = Vec::new();
        for (layer_idx, dims) in &noisy {
            let w = model
                .layer(*layer_idx)
                .lipschitz_matrix()
                .expect("analog layer")
                .into_reshaped(dims);
            magnitudes.extend(w.data().iter().map(|x| x.abs()));
            nominals.push(w);
        }
        let k = ((magnitudes.len() as f32) * fraction).round() as usize;
        let threshold = if k == 0 {
            f32::INFINITY
        } else if k >= magnitudes.len() {
            f32::NEG_INFINITY
        } else {
            // k-th largest magnitude.
            let mut sorted = magnitudes;
            sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite weights"));
            sorted[k - 1]
        };
        let masks = nominals
            .into_iter()
            .map(|w| w.map(|x| if x.abs() >= threshold { 1.0 } else { 0.0 }))
            .collect();
        ProtectionMasks { masks }
    }

    /// Protects a uniformly random `fraction` of weights (≈ ref. \[9\]).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ fraction ≤ 1`.
    pub fn random(model: &Sequential, fraction: f32, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let mut rng = SeededRng::new(seed);
        let masks = model
            .noisy_layers()
            .into_iter()
            .map(|(_, dims)| {
                let mut m = Tensor::zeros(&dims);
                for v in m.data_mut() {
                    *v = if rng.bernoulli(fraction) { 1.0 } else { 0.0 };
                }
                m
            })
            .collect();
        ProtectionMasks { masks }
    }
}

/// Per-chip online retraining configuration.
#[derive(Debug, Clone, Copy)]
pub struct RetrainConfig {
    /// Fine-tuning epochs per chip (variation sample).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Use only the first `subset` training samples (per-chip calibration
    /// sets are small in practice).
    pub subset: usize,
}

impl RetrainConfig {
    /// Defaults for the quick experiment profile.
    pub fn quick() -> Self {
        RetrainConfig {
            epochs: 2,
            batch_size: 32,
            lr: 5e-3,
            subset: 128,
        }
    }
}

/// Fine-tunes only the protected weights of `model` (already carrying its
/// variation masks) on `data`, by SGD with element-wise gradient masking.
fn retrain_protected(
    model: &mut Sequential,
    data: &Dataset,
    protection: &ProtectionMasks,
    cfg: &RetrainConfig,
    seed: u64,
) {
    let subset = data.take(cfg.subset.min(data.len()));
    let noisy: Vec<usize> = model.noisy_layers().iter().map(|(i, _)| *i).collect();
    for epoch in 0..cfg.epochs {
        // Fork-split the per-epoch shuffle stream (the previous
        // `seed ^ epoch` mix collided across adjacent seeds — the same
        // defect class fixed in `Trainer::fit`).
        let mut shuffle = SeededRng::new(seed).fork(epoch as u64);
        for (x, y) in BatchIter::with_rng(&subset, cfg.batch_size, &mut shuffle) {
            model.zero_grad();
            let logits = model.forward(&x, false);
            let (_, grad) = softmax_cross_entropy(&logits, &y);
            model.backward(&grad);
            // Masked SGD step on the weight parameter of each analog layer.
            for (k, &layer_idx) in noisy.iter().enumerate() {
                let mask = &protection.masks[k];
                let layer = model.layer_mut(layer_idx);
                let mut params = layer.params_mut();
                let w = &mut params[0];
                debug_assert_eq!(w.value.dims(), mask.dims());
                for ((wv, gv), mv) in w
                    .value
                    .data_mut()
                    .iter_mut()
                    .zip(w.grad.data().iter())
                    .zip(mask.data().iter())
                {
                    *wv -= cfg.lr * gv * mv;
                }
            }
        }
    }
}

/// Engine backend for a protected deployment: log-normal variation
/// factors on unprotected weights (protected ones stay exact), plus an
/// optional per-chip online-retraining finalize step.
///
/// Masks are deliberately *not* baked ([`Backend::bake`] is `false`):
/// retraining gradients must chain through the variation factors exactly
/// as deployed, and only the nominal (protected) weights are updated.
struct ProtectedBackend<'a> {
    protection: &'a ProtectionMasks,
    sigma: f32,
    train: &'a Dataset,
    retrain: Option<RetrainConfig>,
    seed: u64,
}

impl Backend for ProtectedBackend<'_> {
    fn name(&self) -> String {
        format!("protected-lognormal(σ={})", self.sigma)
    }

    fn mask_plan(&self, _model: &Sequential, rng: &mut SeededRng) -> MaskPlan {
        self.protection
            .masks
            .iter()
            .map(|prot| {
                let raw = rng.lognormal_mask(prot.dims(), self.sigma);
                Some(raw.zip_map(prot, |factor, p| if p > 0.5 { 1.0 } else { factor }))
            })
            .collect()
    }

    fn finalize(&self, instance: &mut Sequential, _rng: &mut SeededRng) {
        if let Some(cfg) = self.retrain {
            retrain_protected(
                instance,
                self.train,
                self.protection,
                &cfg,
                self.seed ^ 0xf17e,
            );
        }
    }

    fn bake(&self) -> bool {
        false
    }
}

/// Monte-Carlo evaluation of a protected deployment.
///
/// Per sample (one compiled chip instance): draw log-normal factors for
/// unprotected weights (protected ones stay exact), optionally run
/// per-chip online retraining of the protected weights, then measure test
/// accuracy through a session.
#[allow(clippy::too_many_arguments)]
pub fn eval_protected(
    model: &Sequential,
    test: &Dataset,
    train: &Dataset,
    protection: &ProtectionMasks,
    sigma: f32,
    samples: usize,
    seed: u64,
    retrain: Option<RetrainConfig>,
) -> McResult {
    let cfg = McConfig {
        samples,
        sigma,
        batch_size: 64,
        seed,
    };
    let backend = ProtectedBackend {
        protection,
        sigma,
        train,
        retrain,
        seed,
    };
    monte_carlo(model, test, &cfg, &backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_nn::zoo::mlp;

    fn model() -> Sequential {
        with_flatten(mlp(&[6, 12, 4], 1))
    }

    /// Prefixes a Flatten so rank-4 dataset images feed the MLP.
    fn with_flatten(body: Sequential) -> Sequential {
        use cn_nn::layers::Flatten;
        let mut layers: Vec<Box<dyn cn_nn::Layer>> = vec![Box::new(Flatten::new())];
        for i in 0..body.len() {
            layers.push(body.layer(i).clone_box());
        }
        Sequential::new(layers)
    }

    #[test]
    fn top_magnitude_selects_largest() {
        let m = model();
        let prot = ProtectionMasks::top_magnitude(&m, 0.25);
        let frac = prot.protected_fraction();
        assert!((frac - 0.25).abs() < 0.05, "{frac}");
        // Every protected weight must be ≥ every unprotected weight (by |·|).
        let noisy = m.noisy_layers();
        let mut min_protected = f32::INFINITY;
        let mut max_unprotected = 0.0f32;
        for ((layer_idx, dims), mask) in noisy.iter().zip(prot.masks.iter()) {
            let w = m
                .layer(*layer_idx)
                .lipschitz_matrix()
                .unwrap()
                .into_reshaped(dims);
            for (wv, mv) in w.data().iter().zip(mask.data().iter()) {
                if *mv > 0.5 {
                    min_protected = min_protected.min(wv.abs());
                } else {
                    max_unprotected = max_unprotected.max(wv.abs());
                }
            }
        }
        assert!(min_protected >= max_unprotected);
    }

    #[test]
    fn edge_fractions() {
        let m = model();
        assert_eq!(
            ProtectionMasks::top_magnitude(&m, 0.0).protected_fraction(),
            0.0
        );
        assert_eq!(
            ProtectionMasks::top_magnitude(&m, 1.0).protected_fraction(),
            1.0
        );
    }

    #[test]
    fn random_masks_hit_fraction() {
        let m = with_flatten(mlp(&[50, 50, 10], 2));
        let prot = ProtectionMasks::random(&m, 0.3, 3);
        assert!((prot.protected_fraction() - 0.3).abs() < 0.03);
        assert!((prot.overhead() - prot.protected_fraction()).abs() < 1e-6);
    }

    #[test]
    fn full_protection_removes_all_noise() {
        let m = model();
        let prot = ProtectionMasks::top_magnitude(&m, 1.0);
        let data = tiny_data();
        let res = eval_protected(&m, &data, &data, &prot, 0.8, 3, 4, None);
        // All weights protected → accuracy identical across samples.
        assert!(res.std < 1e-5, "std {}", res.std);
    }

    #[test]
    fn more_protection_helps_on_average() {
        let data = tiny_data();
        let mut m = with_flatten(mlp(&[6, 24, 4], 5));
        // Train briefly so accuracy is meaningful.
        use cn_nn::optim::Adam;
        use cn_nn::trainer::{TrainConfig, Trainer};
        Trainer::new(TrainConfig::new(30, 16, 6)).fit(&mut m, &data, &mut Adam::new(5e-3));
        let none = ProtectionMasks::top_magnitude(&m, 0.0);
        let full = ProtectionMasks::top_magnitude(&m, 1.0);
        let r_none = eval_protected(&m, &data, &data, &none, 0.9, 6, 7, None);
        let r_full = eval_protected(&m, &data, &data, &full, 0.9, 6, 7, None);
        assert!(
            r_full.mean >= r_none.mean,
            "full protection ({}) must beat none ({})",
            r_full.mean,
            r_none.mean
        );
    }

    fn tiny_data() -> Dataset {
        // 4-class problem on 6 features: class = argmax of 3 pairs… keep
        // it simply separable.
        let mut rng = SeededRng::new(9);
        let n = 64;
        let mut images = Tensor::zeros(&[n, 6, 1, 1]);
        let mut labels = Vec::new();
        for i in 0..n {
            let c = i % 4;
            for f in 0..6 {
                images.data_mut()[i * 6 + f] =
                    rng.normal(0.0, 0.2) + if f == c { 2.0 } else { 0.0 };
            }
            labels.push(c);
        }
        Dataset::new(images, labels, 4, "tiny4")
    }

    #[test]
    fn retraining_does_not_corrupt_base_model() {
        let data = tiny_data();
        let m = model();
        let before = m.state_dict();
        let prot = ProtectionMasks::top_magnitude(&m, 0.2);
        let _ = eval_protected(
            &m,
            &data,
            &data,
            &prot,
            0.5,
            2,
            10,
            Some(RetrainConfig::quick()),
        );
        let after = m.state_dict();
        for ((_, a), (_, b)) in before.iter().zip(after.iter()) {
            assert_eq!(a, b, "baseline evaluation mutated the input model");
        }
    }
}
