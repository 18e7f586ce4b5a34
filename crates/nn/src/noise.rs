//! Weight-level variation injection (paper eq. 1–2).
//!
//! These helpers draw multiplicative log-normal masks `e^θ` and install
//! them with [`Sequential::install_noise`]. They are the *weight-level*
//! noise model the paper evaluates with, and draw the same stream as
//! `cn_analog`'s `DeploymentMode::WeightLognormal` mask plan, which also
//! covers the device-level (conductance) and non-ideality models.

use crate::model::Sequential;
use cn_tensor::SeededRng;

/// Samples and installs log-normal masks on **all** analog layers.
///
/// Every weight receives an independent factor `e^θ`, `θ ~ N(0, σ²)`.
pub fn apply_lognormal(model: &mut Sequential, sigma: f32, rng: &mut SeededRng) {
    apply_lognormal_from(model, 0, sigma, rng);
}

/// Installs masks only on analog layers with *weight-layer index*
/// `≥ start` (0-based, counting only layers that hold analog weights) and
/// clears the rest. Skipped layers consume no draws.
///
/// This implements the paper's Fig. 9 protocol: "inject variations into
/// the layers from the last one backwards to the i-th layer".
pub fn apply_lognormal_from(model: &mut Sequential, start: usize, sigma: f32, rng: &mut SeededRng) {
    let plan = model
        .noisy_layers()
        .into_iter()
        .enumerate()
        .map(|(weight_idx, (_, dims))| {
            (weight_idx >= start).then(|| rng.lognormal_mask(&dims, sigma))
        })
        .collect();
    model.install_noise(plan);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::Sequential;

    fn model() -> Sequential {
        let mut rng = SeededRng::new(1);
        Sequential::new(vec![
            Box::new(Dense::new(4, 4, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(4, 4, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(4, 2, &mut rng)),
        ])
    }

    #[test]
    fn apply_changes_outputs() {
        let mut m = model();
        let mut rng = SeededRng::new(2);
        let x = rng.normal_tensor(&[3, 4], 0.0, 1.0);
        let clean = m.forward(&x, false);
        apply_lognormal(&mut m, 0.5, &mut rng);
        let noisy = m.forward(&x, false);
        assert_ne!(clean, noisy);
        m.clear_noise();
        assert_eq!(m.forward(&x, false), clean);
    }

    #[test]
    fn from_index_leaves_early_layers_clean() {
        let mut m = model();
        let mut rng = SeededRng::new(3);
        // Noise only on the last weight layer (index 2 of 3).
        apply_lognormal_from(&mut m, 2, 0.5, &mut rng);
        // First two dense layers must have no mask: forward with a probe
        // input through layer 0 only depends on clean weights. Verify via
        // noise clearing equivalence.
        let x = rng.normal_tensor(&[2, 4], 0.0, 1.0);
        let noisy = m.forward(&x, false);
        let mut clean = m.clone();
        clean.clear_noise();
        let clean_out = clean.forward(&x, false);
        // Outputs differ (last layer noisy)…
        assert_ne!(noisy, clean_out);
        // …but the activations up to layer 3 are identical.
        let acts_noisy = m.forward_collect(&x, false);
        let acts_clean = clean.forward_collect(&x, false);
        assert_eq!(acts_noisy[3], acts_clean[3]);
    }

    #[test]
    fn start_zero_perturbs_everything() {
        let mut m = model();
        let mut rng = SeededRng::new(4);
        let x = rng.normal_tensor(&[2, 4], 0.0, 1.0);
        let acts_clean = m.forward_collect(&x, false);
        apply_lognormal_from(&mut m, 0, 0.5, &mut rng);
        let acts_noisy = m.forward_collect(&x, false);
        assert_ne!(acts_clean[0], acts_noisy[0]);
    }

    #[test]
    fn sample_then_apply_reproduces() {
        // Installing a plan replaces the masks rather than compounding
        // them: installing the same plan twice gives the same outputs.
        let mut m = model();
        let mut rng = SeededRng::new(5);
        let plan: Vec<_> = m
            .noisy_layers()
            .iter()
            .map(|(_, dims)| Some(rng.lognormal_mask(dims, 0.5)))
            .collect();
        let x = SeededRng::new(6).normal_tensor(&[1, 4], 0.0, 1.0);
        m.install_noise(plan.clone());
        let y1 = m.forward(&x, false);
        m.install_noise(plan);
        assert_eq!(m.forward(&x, false), y1);
    }
}
