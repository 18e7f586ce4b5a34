//! Property-based tests for the analog substrate.

use cn_analog::cell::CellSpec;
use cn_analog::deployment::DeploymentMode;
use cn_nn::zoo::mlp;
use cn_tensor::SeededRng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ideal cells store every weight exactly at any layer shape and tile
    /// size, partial edge tiles included: `w · mask = w`.
    #[test]
    fn ideal_conductance_masks_are_unity(
        inputs in 1usize..16,
        outputs in 1usize..16,
        tile_size in 1usize..20,
        seed in 0u64..500,
    ) {
        let model = mlp(&[inputs, outputs], seed);
        let mode = DeploymentMode::Conductance { spec: CellSpec::ideal(1.0, 100.0), tile_size };
        let plan = mode.mask_plan(&model, 0, &mut SeededRng::new(seed));
        let mask = plan[0].as_ref().expect("start = 0 plans every layer");
        let (layer_index, dims) = &model.noisy_layers()[0];
        prop_assert_eq!(mask.dims(), &dims[..]);
        let w = model.layer(*layer_index).lipschitz_matrix().expect("dense weights");
        let tol = 1e-4 * w.abs_max();
        for (&wv, &m) in w.data().iter().zip(mask.data()) {
            prop_assert!((wv * m - wv).abs() <= tol, "{wv} · {m}");
        }
    }

    /// Programmed conductances always stay inside the physical range.
    #[test]
    fn conductances_respect_rails(
        g_target in -50.0f32..200.0,
        prog_sigma in 0.0f32..0.6,
        seed in 0u64..500,
    ) {
        let spec = CellSpec { prog_sigma, ..CellSpec::ideal(1.0, 100.0) };
        let mut rng = SeededRng::new(seed);
        let g = spec.program(g_target, &mut rng);
        prop_assert!((1.0..=100.0).contains(&g), "{g}");
    }

    /// Log-normal deployment masks are positive and have the theoretical
    /// mean `e^{σ²/2}` within tolerance.
    #[test]
    fn lognormal_mask_statistics(sigma in 0.05f32..0.7, seed in 0u64..200) {
        let model = mlp(&[32, 32], 1);
        let mut rng = SeededRng::new(seed);
        let plan = DeploymentMode::WeightLognormal { sigma }.mask_plan(&model, 0, &mut rng);
        let mask = plan[0].as_ref().expect("start = 0 plans every layer");
        prop_assert!(mask.data().iter().all(|&m| m > 0.0));
        prop_assert!((mask.mean() - (sigma * sigma / 2.0).exp()).abs() < 0.25);
    }
}
