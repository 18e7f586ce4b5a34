//! Property-based tests on layer behaviour and training invariants.

use cn_nn::gradcheck::check_layer;
use cn_nn::layers::{AvgPool2d, Conv2d, Dense, Flatten, Relu};
use cn_nn::loss::softmax_cross_entropy;
use cn_nn::Layer;
use cn_tensor::SeededRng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dense gradients pass numeric checking at any size.
    #[test]
    fn dense_gradcheck(inp in 1usize..8, out in 1usize..8, batch in 1usize..4, seed in 0u64..300) {
        let mut rng = SeededRng::new(seed);
        let mut layer = Dense::new(inp, out, &mut rng);
        let r = check_layer(&mut layer, &[batch, inp], seed ^ 1, 1e-2, true);
        prop_assert!(r.passes(3e-2), "{r:?}");
    }

    /// Conv2d gradients pass numeric checking across geometries, strides
    /// and batch sizes.
    #[test]
    fn conv_gradcheck(
        in_c in 1usize..3,
        out_c in 1usize..3,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        batch in 1usize..3,
        seed in 0u64..300,
    ) {
        let size = k + 2; // always big enough
        let mut rng = SeededRng::new(seed);
        let mut layer = Conv2d::new(in_c, out_c, k, stride, pad, &mut rng);
        let r = check_layer(&mut layer, &[batch, in_c, size, size], seed ^ 2, 1e-2, true);
        prop_assert!(r.passes(4e-2), "{r:?}");
    }

    /// Forward passes never fabricate NaNs from finite inputs.
    #[test]
    fn finite_in_finite_out(seed in 0u64..300, scale in 0.1f32..10.0) {
        let mut rng = SeededRng::new(seed);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let mut relu = Relu::new();
        let mut pool = AvgPool2d::new(2);
        let mut flat = Flatten::new();
        let x = rng.normal_tensor(&[2, 2, 4, 4], 0.0, scale);
        let y = flat.forward(&pool.forward(&relu.forward(&conv.forward(&x, true), true), true), true);
        prop_assert!(!y.has_non_finite());
    }

    /// Softmax-CE loss is non-negative and ≤ ln C + ε for confident
    /// correct predictions made arbitrarily confident.
    #[test]
    fn ce_loss_bounds(c in 2usize..8, seed in 0u64..300) {
        let mut rng = SeededRng::new(seed);
        let logits = rng.normal_tensor(&[3, c], 0.0, 1.0);
        let labels: Vec<usize> = (0..3).map(|i| i % c).collect();
        let (loss, grad) = softmax_cross_entropy(&logits, &labels);
        prop_assert!(loss >= 0.0);
        prop_assert!(!grad.has_non_finite());
        // Gradient row sums vanish (softmax simplex tangency).
        for r in 0..3 {
            let s: f32 = grad.data()[r * c..(r + 1) * c].iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    /// Noise masks compose multiplicatively: masking with m1⊙m2 equals
    /// masking with m1 then rescaling weights by m2 — checked through the
    /// layer's forward output.
    #[test]
    fn noise_mask_composition(seed in 0u64..300) {
        let mut rng = SeededRng::new(seed);
        let mut layer = Dense::new(4, 3, &mut rng);
        let x = rng.normal_tensor(&[2, 4], 0.0, 1.0);
        let m1 = rng.lognormal_mask(&[3, 4], 0.3);
        let m2 = rng.lognormal_mask(&[3, 4], 0.3);
        let combined = m1.zip_map(&m2, |a, b| a * b);
        layer.set_noise(Some(combined));
        let y_combined = layer.forward(&x, false);

        // Apply m2 to the weights, mask with m1 only.
        let mut layer2 = layer.clone();
        layer2.set_noise(None);
        {
            let mut params = layer2.params_mut();
            let w = &mut params[0].value;
            let scaled = w.zip_map(&m2, |wv, m| wv * m);
            *w = scaled;
        }
        layer2.set_noise(Some(m1));
        let y_split = layer2.forward(&x, false);
        for (a, b) in y_combined.data().iter().zip(y_split.data().iter()) {
            prop_assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }
}
