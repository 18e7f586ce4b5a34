//! Deploying a trained model onto a (simulated) analog accelerator.

use crate::cell::CellSpec;
use crate::drift::ConductanceDrift;
use crate::faults::StuckFaults;
use crate::irdrop::IrDrop;
use crate::mapping::conductance_masks;
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
    /// Conductance-level programming: every weight is stored as a
    /// differential pair on `tile_size`² arrays (see [`CellSpec`]).
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
    /// Panics if the log-normal `sigma` is negative or NaN, or, for
    /// [`DeploymentMode::Conductance`], if `tile_size` is zero, the cell
    /// spec does not have `0 ≤ g_min < g_max`, `prog_sigma` is negative or
    /// NaN, or `levels` is below 2.
    pub fn mask_plan(
        &self,
        model: &Sequential,
        start: usize,
        rng: &mut SeededRng,
    ) -> Vec<Option<Tensor>> {
        let sigma = match self {
            DeploymentMode::Conductance { spec, tile_size } => {
                assert!(*tile_size > 0, "tile_size must be positive");
                assert!(
                    0.0 <= spec.g_min && spec.g_min < spec.g_max,
                    "need 0 <= g_min < g_max, got {}..{}",
                    spec.g_min,
                    spec.g_max
                );
                assert!(
                    spec.prog_sigma >= 0.0,
                    "prog_sigma must be non-negative, got {}",
                    spec.prog_sigma
                );
                assert!(
                    spec.levels.is_none_or(|levels| levels >= 2),
                    "levels must be at least 2 when set, got {:?}",
                    spec.levels
                );
                // The conductance path programs the whole model in one
                // pass; prefix layers are programmed but excluded from
                // the plan.
                return conductance_masks(model, spec, *tile_size, rng)
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

    fn conductance_plan(spec: CellSpec, tile_size: usize) {
        let model = mlp(&[4, 3], 12);
        DeploymentMode::Conductance { spec, tile_size }.mask_plan(
            &model,
            0,
            &mut SeededRng::new(13),
        );
    }

    #[test]
    #[should_panic(expected = "levels must be at least 2")]
    fn conductance_single_level_panics() {
        conductance_plan(
            CellSpec {
                levels: Some(1),
                ..CellSpec::ideal(1.0, 100.0)
            },
            4,
        );
    }

    #[test]
    #[should_panic(expected = "need 0 <= g_min < g_max")]
    fn conductance_inverted_range_panics() {
        conductance_plan(
            CellSpec {
                g_min: 100.0,
                g_max: 1.0,
                ..CellSpec::ideal(1.0, 100.0)
            },
            4,
        );
    }

    #[test]
    #[should_panic(expected = "prog_sigma must be non-negative")]
    fn conductance_nan_prog_sigma_panics() {
        conductance_plan(CellSpec::typical(f32::NAN), 4);
    }

    #[test]
    #[should_panic(expected = "tile_size must be positive")]
    fn conductance_zero_tile_size_panics() {
        conductance_plan(CellSpec::ideal(1.0, 100.0), 0);
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

    /// FNV-1a over a conductance plan's mask bits (a present/absent tag
    /// per layer) followed by the bits of the RNG's next `uniform()`.
    fn plan_hash(mode: &DeploymentMode, model: &Sequential, start: usize) -> u64 {
        let mut rng = SeededRng::new(31);
        let plan = mode.mask_plan(model, start, &mut rng);
        let mut words = Vec::new();
        for mask in &plan {
            words.push(u32::from(mask.is_some()));
            if let Some(mask) = mask {
                words.extend(mask.data().iter().map(|m| m.to_bits()));
            }
        }
        words.push(rng.uniform().to_bits());
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        cn_tensor::hash::fnv1a64(&bytes)
    }

    /// Pins the conductance stream: masks and RNG position for LeNet-5
    /// and an MLP with partial edge tiles, over four cell specs, three
    /// tile sizes and both plan starts. Any change to the draw order or
    /// to the per-tile float arithmetic moves these bits.
    #[test]
    fn conductance_plans_are_pinned() {
        use cn_nn::zoo::{lenet5, LeNetConfig};
        let models = [lenet5(&LeNetConfig::mnist(1)), mlp(&[300, 200, 10], 2)];
        let specs = [
            CellSpec::ideal(1.0, 100.0),
            CellSpec::typical(0.3),
            CellSpec {
                levels: Some(32),
                ..CellSpec::typical(0.3)
            },
            CellSpec {
                levels: Some(16),
                ..CellSpec::ideal(1.0, 100.0)
            },
        ];
        let mut got = Vec::new();
        for model in &models {
            for spec in specs {
                for tile_size in [4, 37, 128] {
                    for start in [0, 1] {
                        let mode = DeploymentMode::Conductance { spec, tile_size };
                        got.push(plan_hash(&mode, model, start));
                    }
                }
            }
        }
        assert_eq!(got, GOLDEN_CONDUCTANCE);
    }

    /// Indexed `[model][spec][tile_size][start]`, row-major.
    const GOLDEN_CONDUCTANCE: [u64; 48] = [
        0xab33_4a52_4490_fcef,
        0x8257_8deb_beda_8e8e,
        0xd7cd_bcc4_f211_4c1b,
        0x4fcf_cc1b_646a_f832,
        0x3400_5c19_ffe8_4368,
        0x9e18_3783_0715_23d1,
        0xebf8_6b1a_cbdc_9878,
        0x42c3_c7a0_a758_76c0,
        0xebe6_0321_475e_ab45,
        0xcd16_5b18_64ae_4607,
        0x4313_620f_706e_5d70,
        0xbea8_0dc7_8f1c_3dbe,
        0xe0a4_6ac9_911d_3cdc,
        0x1912_c946_3d00_e192,
        0x804b_2991_0391_edd7,
        0x21cd_9ac4_804d_d264,
        0x2f54_3aa4_abe0_7758,
        0x0b9b_aa41_845f_fbff,
        0xd6df_1a00_270e_8438,
        0xbbc1_6b5a_25bc_8c86,
        0xa5fb_e039_5262_f20b,
        0x2289_c134_7956_b2d1,
        0xa7b1_e543_53fc_402e,
        0xe127_3f5c_8bb6_afcc,
        0x72ce_9f00_2ecd_4a3b,
        0x71e6_3944_cab6_3f0d,
        0x9041_4b73_0741_fcc7,
        0xb645_5dc6_c819_99f7,
        0x6859_d342_bc9a_5bbb,
        0x2a4a_659f_6817_80a0,
        0xc71d_21a5_5b2f_5e2d,
        0xe70d_95d5_3075_85c1,
        0x3559_01df_3a0d_9604,
        0xc83b_209d_27fb_ad4a,
        0x1983_a0c0_af67_6092,
        0x747b_9b9b_3a3c_18d9,
        0x92d6_1a20_2f2f_0ca4,
        0xad0a_7cc1_1ed8_9057,
        0x5b1f_bc2f_a72e_0003,
        0xb718_6738_4872_30ce,
        0x9166_7d54_cbc3_61c6,
        0x1a4d_b829_e244_1a51,
        0x27a0_7999_04e2_2d72,
        0x89b5_1882_22ab_359b,
        0xe010_7925_5233_65dc,
        0x266a_3e85_93f9_69dd,
        0x09c6_025e_eaa7_c95f,
        0xa7f9_1909_ee0f_65e7,
    ];

    #[test]
    fn sampling_is_deterministic_per_rng_seed() {
        let model = mlp(&[4, 8, 3], 9);
        let mode = DeploymentMode::WeightLognormal { sigma: 0.3 };
        let m1 = masks(&mode, &model, &mut SeededRng::new(10));
        let m2 = masks(&mode, &model, &mut SeededRng::new(10));
        assert_eq!(m1, m2);
    }
}
