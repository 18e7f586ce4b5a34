//! Property-based tests for the analog substrate.

use cn_analog::cell::CellSpec;
use cn_analog::converters::{Adc, Dac};
use cn_analog::crossbar::Crossbar;
use cn_analog::deployment::DeploymentMode;
use cn_analog::tiled::TiledCrossbar;
use cn_nn::zoo::mlp;
use cn_tensor::SeededRng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ideal crossbars reproduce the nominal weights at any shape.
    #[test]
    fn ideal_programming_roundtrips(rows in 1usize..12, cols in 1usize..12, seed in 0u64..500) {
        let mut rng = SeededRng::new(seed);
        let w = rng.normal_tensor(&[rows, cols], 0.0, 1.0);
        let xbar = Crossbar::program(&w, CellSpec::ideal(1.0, 100.0), &mut rng);
        let eff = xbar.effective_weights();
        for (a, b) in w.data().iter().zip(eff.data().iter()) {
            prop_assert!((a - b).abs() < 2e-4, "{a} vs {b}");
        }
    }

    /// Ideal MACs agree with exact matrix–vector products.
    #[test]
    fn ideal_mac_is_exact(rows in 1usize..10, cols in 1usize..10, seed in 0u64..500) {
        let mut rng = SeededRng::new(seed);
        let w = rng.normal_tensor(&[rows, cols], 0.0, 1.0);
        let x = rng.normal_tensor(&[cols], 0.0, 1.0);
        let xbar = Crossbar::program(&w, CellSpec::ideal(1.0, 100.0), &mut rng);
        let y = xbar.mac(&x, &mut rng);
        let exact = w.matvec(&x);
        for (a, b) in y.data().iter().zip(exact.data().iter()) {
            prop_assert!((a - b).abs() < 2e-3, "{a} vs {b}");
        }
    }

    /// Tiled and monolithic crossbars agree for any tile size.
    #[test]
    fn tiling_is_transparent(
        rows in 1usize..16,
        cols in 1usize..16,
        tile in 1usize..20,
        seed in 0u64..500,
    ) {
        let mut rng = SeededRng::new(seed);
        let w = rng.normal_tensor(&[rows, cols], 0.0, 1.0);
        let x = rng.normal_tensor(&[cols], 0.0, 1.0);
        let tiled = TiledCrossbar::program(&w, tile, CellSpec::ideal(1.0, 100.0), &mut rng);
        let y = tiled.mac(&x, &mut rng);
        let exact = w.matvec(&x);
        for (a, b) in y.data().iter().zip(exact.data().iter()) {
            prop_assert!((a - b).abs() < 5e-3, "{a} vs {b}");
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

    /// DAC/ADC quantization error is bounded by half a step.
    #[test]
    fn converter_error_bounds(bits in 1u32..12, v in -2.0f32..2.0) {
        let dac = Dac::new(bits, 1.0);
        let adc = Adc::new(bits, 1.0);
        let step = 2.0 / ((1u32 << bits) - 1) as f32;
        let clamped = v.clamp(-1.0, 1.0);
        prop_assert!((dac.quantize(v) - clamped).abs() <= step / 2.0 + 1e-6);
        prop_assert!((adc.quantize(v) - clamped).abs() <= step / 2.0 + 1e-6);
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
