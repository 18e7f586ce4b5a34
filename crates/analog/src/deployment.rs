//! Deploying a trained model onto a (simulated) analog accelerator.

use crate::cell::CellSpec;
use crate::drift::ConductanceDrift;
use crate::faults::StuckFaults;
use crate::irdrop::IrDrop;
use crate::mapping::{conductance_masks, MappingConfig};
use cn_nn::Sequential;
use cn_tensor::{SeededRng, Tensor};

/// How weights are perturbed when the model is deployed.
#[derive(Debug, Clone)]
pub enum DeploymentMode {
    /// The paper's weight-level log-normal model (eq. 1–2).
    WeightLognormal {
        /// Standard deviation of `θ`.
        sigma: f32,
    },
    /// Full conductance-level crossbar simulation.
    Conductance {
        /// Cell model.
        spec: CellSpec,
        /// Physical array edge length.
        tile_size: usize,
    },
    /// Weight-level log-normal variation plus stuck-at faults.
    LognormalWithFaults {
        /// Standard deviation of `θ`.
        sigma: f32,
        /// Fault model.
        faults: StuckFaults,
    },
    /// Weight-level log-normal variation plus retention drift at time `t`.
    LognormalWithDrift {
        /// Standard deviation of `θ`.
        sigma: f32,
        /// Drift model.
        drift: ConductanceDrift,
        /// Evaluation time (same unit as the drift model's `t0`).
        t: f32,
    },
    /// Weight-level log-normal variation plus static IR-drop attenuation.
    LognormalWithIrDrop {
        /// Standard deviation of `θ`.
        sigma: f32,
        /// Wire-resistance model.
        irdrop: IrDrop,
    },
}

impl DeploymentMode {
    /// Draws one deployment: the only routine that samples variation
    /// masks, returning one entry per analog weight layer (aligned with
    /// [`Sequential::noisy_layers`], ready for
    /// [`Sequential::install_noise`]), where `None` leaves the layer exact.
    ///
    /// Layers with weight-layer index `< start` are skipped **without
    /// consuming RNG draws** (the paper's Fig. 9 suffix-variation
    /// protocol) — matching the historic `apply_lognormal_from` stream,
    /// which means a suffix plan draws *different* masks than the
    /// corresponding layers of a full plan under the same RNG. The
    /// engine's `AnalogBackend` and compensator training call it directly.
    ///
    /// # Panics
    ///
    /// Panics if the log-normal `sigma` is negative or NaN.
    pub fn mask_plan(
        &self,
        model: &Sequential,
        start: usize,
        rng: &mut SeededRng,
    ) -> Vec<Option<Tensor>> {
        let sigma = match self {
            DeploymentMode::Conductance { spec, tile_size } => {
                // The conductance path programs the whole model onto
                // (tiled) crossbars in one pass; prefix layers are
                // programmed but excluded from the plan.
                let cfg = MappingConfig {
                    tile_size: *tile_size,
                    spec: *spec,
                };
                return conductance_masks(model, &cfg, rng)
                    .into_iter()
                    .enumerate()
                    .map(|(i, mask)| (i >= start).then_some(mask))
                    .collect();
            }
            DeploymentMode::WeightLognormal { sigma }
            | DeploymentMode::LognormalWithFaults { sigma, .. }
            | DeploymentMode::LognormalWithDrift { sigma, .. }
            | DeploymentMode::LognormalWithIrDrop { sigma, .. } => *sigma,
        };
        assert!(sigma >= 0.0, "sigma must be non-negative, got {sigma}");
        model
            .noisy_layers()
            .into_iter()
            .enumerate()
            .map(|(weight_idx, (layer_index, dims))| {
                (weight_idx >= start).then(|| {
                    let lognormal = rng.lognormal_mask(&dims, sigma);
                    self.compose(lognormal, model, layer_index, &dims, rng)
                })
            })
            .collect()
    }

    /// Multiplies a layer's log-normal mask by the mode's non-ideality
    /// mask, drawn after it from the same stream.
    fn compose(
        &self,
        lognormal: Tensor,
        model: &Sequential,
        layer_index: usize,
        dims: &[usize],
        rng: &mut SeededRng,
    ) -> Tensor {
        let extra = match self {
            DeploymentMode::WeightLognormal { .. } => return lognormal,
            DeploymentMode::Conductance { .. } => {
                unreachable!("conductance masks are sampled whole-model in mask_plan")
            }
            DeploymentMode::LognormalWithFaults { faults, .. } => {
                let nominal = model
                    .layer(layer_index)
                    .lipschitz_matrix()
                    .expect("analog layer")
                    .into_reshaped(dims);
                faults.as_mask(&nominal, rng)
            }
            DeploymentMode::LognormalWithDrift { drift, t, .. } => drift.mask_at(dims, *t, rng),
            DeploymentMode::LognormalWithIrDrop { irdrop, .. } => {
                let matrix = model
                    .layer(layer_index)
                    .lipschitz_matrix()
                    .expect("analog layer");
                irdrop
                    .mask(matrix.dims()[0], matrix.dims()[1])
                    .into_reshaped(dims)
            }
        };
        lognormal.zip_map(&extra, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_nn::noise::apply_lognormal_from;
    use cn_nn::zoo::mlp;

    fn probe(model: &mut Sequential) -> Tensor {
        let x = SeededRng::new(99).normal_tensor(&[2, 4], 0.0, 1.0);
        model.forward(&x, false)
    }

    fn deploy(mode: &DeploymentMode, model: &mut Sequential, rng: &mut SeededRng) {
        let plan = mode.mask_plan(model, 0, rng);
        model.install_noise(plan);
    }

    /// The full (`start = 0`) plan with every entry unwrapped.
    fn masks(mode: &DeploymentMode, model: &Sequential, rng: &mut SeededRng) -> Vec<Tensor> {
        mode.mask_plan(model, 0, rng)
            .into_iter()
            .map(|m| m.expect("start = 0 plans every layer"))
            .collect()
    }

    #[test]
    fn lognormal_deploy_perturbs() {
        let mut model = mlp(&[4, 8, 3], 1);
        let clean = probe(&mut model);
        let mut rng = SeededRng::new(2);
        deploy(
            &DeploymentMode::WeightLognormal { sigma: 0.5 },
            &mut model,
            &mut rng,
        );
        assert_ne!(probe(&mut model), clean);
        model.clear_noise();
        assert_eq!(probe(&mut model), clean);
    }

    /// `E[e^θ] = e^{σ²/2}` and `sd[e^θ] = sqrt((e^{σ²}−1)·e^{σ²})`.
    #[test]
    fn lognormal_factor_moments() {
        let sigma = 0.5f32;
        let model = mlp(&[100, 100], 1);
        let mode = DeploymentMode::WeightLognormal { sigma };
        let mask = &masks(&mode, &model, &mut SeededRng::new(1))[0];
        assert_eq!(mask.dims(), &[100, 100]);
        let s2 = sigma * sigma;
        let mean = mask.mean();
        assert!((mean - (s2 / 2.0).exp()).abs() < 0.02, "mean {mean}");
        let std = (mask.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>()
            / mask.numel() as f32)
            .sqrt();
        assert!(
            (std - ((s2.exp() - 1.0) * s2.exp()).sqrt()).abs() < 0.05,
            "std {std}"
        );
    }

    #[test]
    fn lognormal_sigma_zero_is_identity() {
        let model = mlp(&[10, 1], 2);
        let mode = DeploymentMode::WeightLognormal { sigma: 0.0 };
        let mask = &masks(&mode, &model, &mut SeededRng::new(2))[0];
        assert!(mask.data().iter().all(|&x| (x - 1.0).abs() < 1e-6));
    }

    /// `apply_lognormal_from` (the nn-level helper) and the
    /// `WeightLognormal` plan draw the same stream, prefix skip included.
    #[test]
    fn weight_lognormal_plan_matches_apply_lognormal_from() {
        let model = mlp(&[4, 8, 8, 3], 3);
        let x = SeededRng::new(4).normal_tensor(&[2, 4], 0.0, 1.0);
        for start in [0, 1, 3] {
            let mut helper = model.clone();
            apply_lognormal_from(&mut helper, start, 0.4, &mut SeededRng::new(5));
            let mut planned = model.clone();
            let plan = DeploymentMode::WeightLognormal { sigma: 0.4 }.mask_plan(
                &model,
                start,
                &mut SeededRng::new(5),
            );
            planned.install_noise(plan);
            assert_eq!(helper.forward(&x, false), planned.forward(&x, false));
        }
    }

    #[test]
    #[should_panic(expected = "sigma must be non-negative")]
    fn negative_sigma_panics() {
        // Even with every layer skipped, so no normal draw would catch it.
        let model = mlp(&[4, 3], 6);
        DeploymentMode::WeightLognormal { sigma: -0.1 }.mask_plan(
            &model,
            1,
            &mut SeededRng::new(7),
        );
    }

    #[test]
    #[should_panic(expected = "sigma must be non-negative")]
    fn nan_sigma_panics() {
        let model = mlp(&[4, 3], 8);
        DeploymentMode::LognormalWithIrDrop {
            sigma: f32::NAN,
            irdrop: IrDrop::new(0.3),
        }
        .mask_plan(&model, 0, &mut SeededRng::new(9));
    }

    #[test]
    fn conductance_deploy_ideal_is_identity() {
        let mut model = mlp(&[4, 8, 3], 3);
        let clean = probe(&mut model);
        let mut rng = SeededRng::new(4);
        let mode = DeploymentMode::Conductance {
            spec: CellSpec::ideal(1.0, 100.0),
            tile_size: 64,
        };
        deploy(&mode, &mut model, &mut rng);
        let deployed = probe(&mut model);
        for (a, b) in clean.data().iter().zip(deployed.data().iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn conductance_deploy_with_variation_perturbs() {
        let mut model = mlp(&[4, 8, 3], 5);
        let clean = probe(&mut model);
        let mut rng = SeededRng::new(6);
        let mode = DeploymentMode::Conductance {
            spec: CellSpec::typical(0.3),
            tile_size: 64,
        };
        deploy(&mode, &mut model, &mut rng);
        assert_ne!(probe(&mut model), clean);
    }

    #[test]
    fn faulty_deploy_zeroes_some_weights() {
        let mut model = mlp(&[4, 16, 3], 7);
        let mut rng = SeededRng::new(8);
        let mode = DeploymentMode::LognormalWithFaults {
            sigma: 0.0,
            faults: StuckFaults::new(0.5, 0.0, 0.0),
        };
        let plan = masks(&mode, &model, &mut rng);
        let zeros = plan[0].data().iter().filter(|&&m| m == 0.0).count();
        assert!(zeros > 0, "expected some stuck-at-zero masks");
        deploy(&mode, &mut model, &mut rng);
    }

    #[test]
    fn drift_deploy_shrinks_weights_over_time() {
        let model = mlp(&[4, 8, 3], 20);
        let drift = ConductanceDrift::new(0.05, 0.0, 1.0);
        let at = |t| DeploymentMode::LognormalWithDrift {
            sigma: 0.0,
            drift,
            t,
        };
        let early = masks(&at(1.0), &model, &mut SeededRng::new(21));
        let late = masks(&at(10_000.0), &model, &mut SeededRng::new(21));
        // At t=t0 the mask is identity; much later everything shrank.
        assert!(early[0].data().iter().all(|&m| (m - 1.0).abs() < 1e-5));
        assert!(late[0].data().iter().all(|&m| m < 1.0));
    }

    #[test]
    fn irdrop_deploy_attenuates_deterministically() {
        let model = mlp(&[4, 8, 3], 22);
        let mode = DeploymentMode::LognormalWithIrDrop {
            sigma: 0.0,
            irdrop: IrDrop::new(0.3),
        };
        let m1 = masks(&mode, &model, &mut SeededRng::new(23));
        let m2 = masks(&mode, &model, &mut SeededRng::new(24));
        // σ = 0: IR drop alone is deterministic (independent of RNG).
        assert_eq!(m1, m2);
        assert!(m1[0].data().iter().all(|&m| m <= 1.0 && m > 0.0));
        assert!(m1[0].min() < 1.0, "far corner must be attenuated");
    }

    #[test]
    fn sampling_is_deterministic_per_rng_seed() {
        let model = mlp(&[4, 8, 3], 9);
        let mode = DeploymentMode::WeightLognormal { sigma: 0.3 };
        let m1 = masks(&mode, &model, &mut SeededRng::new(10));
        let m2 = masks(&mode, &model, &mut SeededRng::new(10));
        assert_eq!(m1, m2);
    }
}
