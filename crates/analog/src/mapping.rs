//! Programming weight matrices onto differential conductance pairs.
//!
//! Each analog layer's unfolded weight matrix (its Lipschitz matrix —
//! identical element layout to the weight tensor) is split into
//! `tile_size`² physical arrays. Every tile stores its weights as
//! `w = α·(G⁺ − G⁻)` with its own scale `α = max|W_tile| / (g_max −
//! g_min)` (paper Fig. 1): a positive weight raises `G⁺` above `g_min`, a
//! negative one raises `G⁻`, and both cells take the cell model's
//! quantization and programming variation. The result is returned as the
//! *multiplicative equivalent mask* `w_eff / w_nominal`, so the inference
//! path used for weight-level experiments also runs the device-level model.
//!
//! Near-zero nominal weights get a unit mask: their differential pair
//! programs both cells to `g_min` and the residual after variation is
//! below the conductance-scale resolution (documented approximation).

use crate::cell::CellSpec;
use cn_nn::Sequential;
use cn_tensor::{SeededRng, Tensor};

/// Threshold below which a nominal weight is treated as zero when forming
/// the multiplicative equivalent mask.
const ZERO_WEIGHT_EPS: f32 = 1e-8;

/// Programs every analog layer of `model`, in
/// [`Sequential::noisy_layers`] order, and returns each layer's mask
/// shaped like its noise dims.
pub(crate) fn conductance_masks(
    model: &Sequential,
    spec: &CellSpec,
    tile_size: usize,
    rng: &mut SeededRng,
) -> Vec<Tensor> {
    model
        .noisy_layers()
        .into_iter()
        .map(|(layer_index, dims)| {
            let w = model
                .layer(layer_index)
                .lipschitz_matrix()
                .expect("analog layers expose their weight matrix");
            program_mask(&w, spec, tile_size, rng).into_reshaped(&dims)
        })
        .collect()
}

/// Programs the `[outputs, inputs]` matrix `w` tile by tile (row-major
/// tiles, row-major cells, `G⁺` drawn before `G⁻`) and returns the mask
/// `((g⁺ − g⁻)·α) / w`.
fn program_mask(w: &Tensor, spec: &CellSpec, tile_size: usize, rng: &mut SeededRng) -> Tensor {
    let (rows, cols) = (w.dims()[0], w.dims()[1]);
    let nominal = w.data();
    let mut mask = Tensor::zeros(w.dims());
    let out = mask.data_mut();
    for r0 in (0..rows).step_by(tile_size) {
        let r1 = (r0 + tile_size).min(rows);
        for c0 in (0..cols).step_by(tile_size) {
            let c1 = (c0 + tile_size).min(cols);
            let w_max = (r0..r1)
                .flat_map(|i| &nominal[i * cols + c0..i * cols + c1])
                .fold(0.0f32, |m, &x| m.max(x.abs()));
            let alpha = if w_max == 0.0 {
                1.0
            } else {
                w_max / spec.range()
            };
            for i in r0..r1 {
                for k in i * cols + c0..i * cols + c1 {
                    let wv = nominal[k];
                    let magnitude = wv.abs() / alpha + spec.g_min;
                    let (tp, tn) = if wv >= 0.0 {
                        (magnitude, spec.g_min)
                    } else {
                        (spec.g_min, magnitude)
                    };
                    let g_pos = spec.program(tp, rng);
                    let g_neg = spec.program(tn, rng);
                    out[k] = if wv.abs() < ZERO_WEIGHT_EPS {
                        1.0
                    } else {
                        ((g_pos - g_neg) * alpha) / wv
                    };
                }
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_nn::zoo::{lenet5, LeNetConfig};

    /// `w · mask`: the effective weights the programmed tiles store.
    fn effective(w: &Tensor, spec: &CellSpec, tile_size: usize, rng: &mut SeededRng) -> Tensor {
        w.zip_map(&program_mask(w, spec, tile_size, rng), |w, m| w * m)
    }

    #[test]
    fn ideal_masks_are_unity() {
        let model = lenet5(&LeNetConfig::mnist(3));
        let mut rng = SeededRng::new(4);
        for mask in conductance_masks(&model, &CellSpec::ideal(1.0, 100.0), 128, &mut rng) {
            assert!(
                mask.data().iter().all(|&m| (m - 1.0).abs() < 1e-3),
                "ideal mapping should give unit masks"
            );
        }
    }

    #[test]
    fn variation_masks_center_on_lognormal_mean() {
        let model = lenet5(&LeNetConfig::mnist(5));
        let mut rng = SeededRng::new(6);
        let masks = conductance_masks(&model, &CellSpec::typical(0.3), 128, &mut rng);
        // Masks perturb multiplicatively around ≈ e^{σ²/2}, like the
        // weight-level model (differential pairs add a small spread).
        let big = &masks[2]; // fc1: largest layer, best statistics
        let mean = big.mean();
        assert!((mean - 1.0).abs() < 0.2, "mask mean {mean} far from 1");
        let var = big
            .data()
            .iter()
            .map(|m| (m - mean) * (m - mean))
            .sum::<f32>()
            / big.numel() as f32;
        assert!(var > 0.01, "variation should spread the masks (var {var})");
    }

    #[test]
    fn mask_shapes_match_noise_dims() {
        let model = lenet5(&LeNetConfig::mnist(7));
        let mut rng = SeededRng::new(8);
        let masks = conductance_masks(&model, &CellSpec::typical(0.1), 128, &mut rng);
        assert_eq!(masks.len(), 5, "one mask per analog layer");
        for ((_, dims), mask) in model.noisy_layers().iter().zip(masks.iter()) {
            assert_eq!(mask.dims(), &dims[..]);
        }
    }

    /// A 10×7 matrix over 4×4 tiles leaves partial tiles on both edges;
    /// ideal cells still store every weight.
    #[test]
    fn partial_edge_tiles_roundtrip() {
        let mut rng = SeededRng::new(1);
        let w = rng.normal_tensor(&[10, 7], 0.0, 1.0);
        let eff = effective(&w, &CellSpec::ideal(1.0, 100.0), 4, &mut rng);
        for (a, b) in w.data().iter().zip(eff.data().iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn zero_matrix_gives_unit_masks() {
        let mask = program_mask(
            &Tensor::zeros(&[3, 3]),
            &CellSpec::typical(0.3),
            2,
            &mut SeededRng::new(3),
        );
        assert!(mask.data().iter().all(|&m| m == 1.0));
    }

    #[test]
    fn variation_stays_correlated_with_nominal_weights() {
        let w = SeededRng::new(7).normal_tensor(&[6, 6], 0.0, 1.0);
        let eff = effective(&w, &CellSpec::typical(0.3), 128, &mut SeededRng::new(4));
        let diff = (&eff - &w).abs_max();
        assert!(diff > 0.01, "variation did nothing");
        let corr = eff.dot(&w) / (eff.norm() * w.norm());
        assert!(corr > 0.8, "correlation {corr} too low");
    }

    /// Tiles holding only small weights get a finer conductance scale, so
    /// quantization error is smaller than with one global scale.
    #[test]
    fn per_tile_scaling_beats_global_for_mixed_magnitudes() {
        let mut w = Tensor::zeros(&[8, 8]);
        for j in 0..8 {
            w.set(&[0, j], 10.0); // large weights in tile row 0
            w.set(&[7, j], 0.01); // small weights in tile row 1
        }
        let spec = CellSpec {
            levels: Some(16),
            ..CellSpec::ideal(1.0, 100.0)
        };
        let mut rng = SeededRng::new(5);
        let err_tiled = (&effective(&w, &spec, 4, &mut rng) - &w).abs_max();
        let err_global = (&effective(&w, &spec, 8, &mut rng) - &w).abs_max();
        assert!(err_tiled < err_global, "{err_tiled} vs {err_global}");
    }
}
