//! Fully connected layer with analog weight-noise support.

use crate::init::{bias_uniform, kaiming_uniform};
use crate::layer::Layer;
use crate::param::Param;
use cn_tensor::ops::gemm::{gemm_bias_act_into, MR};
use cn_tensor::ops::{Activation, Layout, PackedB};
use cn_tensor::{SeededRng, Tensor};
use std::sync::Arc;

/// Fully connected layer `y = x·Wᵀ + b` over `[N, in]` inputs.
///
/// The weight matrix (shape `[out, in]`) is assumed to be mapped onto
/// analog crossbars: a multiplicative noise mask installed with
/// [`Layer::set_noise`] perturbs the effective weight in both the forward
/// and backward pass, while nominal weights stay untouched.
///
/// Both forward and inference run through the fused GEMM epilogue
/// (`x·Wᵀ` with the bias added in the C-tile writeback). Frozen
/// deployments additionally call [`Layer::pack_weights`] so the hot path
/// reuses pre-packed weight panels instead of repacking per call; the
/// panels are shared by `Arc`, making clones cheap, and are invalidated
/// by any mutable parameter or noise access.
#[derive(Debug, Clone)]
pub struct Dense {
    name: String,
    w: Param,
    b: Param,
    noise: Option<Tensor>,
    cache_x: Option<Tensor>,
    packed: Option<Arc<PackedB>>,
}

impl Dense {
    /// Creates a Kaiming-initialized dense layer.
    pub fn new(in_features: usize, out_features: usize, rng: &mut SeededRng) -> Self {
        Self::with_name("dense", in_features, out_features, rng)
    }

    /// Creates a named dense layer.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn with_name(
        name: &str,
        in_features: usize,
        out_features: usize,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(in_features > 0 && out_features > 0, "dims must be positive");
        Dense {
            name: name.to_string(),
            w: Param::new(
                "weight",
                kaiming_uniform(&[out_features, in_features], in_features, rng),
            ),
            b: Param::new("bias", bias_uniform(&[out_features], in_features, rng)),
            noise: None,
            cache_x: None,
            packed: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.w.value.dims()[1]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.w.value.dims()[0]
    }

    /// Accumulates dW and db for `grad_out`, unless both parameters are
    /// frozen.
    fn param_grads(&mut self, grad_out: &Tensor) {
        let x = self
            .cache_x
            .take()
            .expect("Dense::backward called before forward");
        if self.w.is_frozen() && self.b.is_frozen() {
            return;
        }
        // dW_eff = gᵀ·x ; chain through the noise mask for nominal weights.
        let mut dw = grad_out.t_matmul(&x);
        if let Some(mask) = &self.noise {
            dw = dw.zip_map(mask, |g, m| g * m);
        }
        self.w.accumulate(&dw);
        self.b.accumulate(&grad_out.sum_rows());
    }

    fn effective_weight(&self) -> Tensor {
        match &self.noise {
            Some(mask) => self.w.value.zip_map(mask, |w, m| w * m),
            None => self.w.value.clone(),
        }
    }
}

impl Layer for Dense {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.cache_x = Some(x.clone());
        self.infer(x)
    }

    // `act(x·Wᵀ_eff + b)` through one of three bitwise-identical
    // branches (see the GEMM kernel docs):
    // 1. pre-packed panels when the layer was deployed via
    //    `pack_weights` (the allocation-free path),
    // 2. a direct skinny product when `x` has fewer than `MR` rows (the
    //    `O(k·n)` pack would cost more than the product saves),
    // 3. pack-per-call through the fused GEMM otherwise.
    // The effective weight is only materialized when no panels exist.
    fn infer_into(&self, x: &Tensor, act: Activation, out: &mut Tensor) {
        assert_eq!(x.rank(), 2, "Dense expects [N, in] input");
        assert_eq!(
            x.dims()[1],
            self.in_features(),
            "Dense {}: input features {} != expected {}",
            self.name,
            x.dims()[1],
            self.in_features()
        );
        let bias = Some(&self.b.value);
        if let Some(packed) = &self.packed {
            gemm_bias_act_into(out, x, Layout::RowMajor, packed, bias, act);
            return;
        }
        let w_eff = self.effective_weight();
        if x.dims()[0] < MR {
            *out = &x.matmul_t(&w_eff) + &self.b.value;
            super::activate_in_place(out, act);
            return;
        }
        let packed = PackedB::from_tensor(&w_eff, Layout::Transposed);
        gemm_bias_act_into(out, x, Layout::RowMajor, &packed, bias, act);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.param_grads(grad_out);
        grad_out.matmul(&self.effective_weight())
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.param_grads(grad_out);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // Mutable parameter access may change the effective weight;
        // conservatively drop any pre-packed panels.
        self.packed = None;
        vec![&mut self.w, &mut self.b]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
    }

    fn noise_dims(&self) -> Option<Vec<usize>> {
        Some(self.w.value.dims().to_vec())
    }

    fn set_noise(&mut self, mask: Option<Tensor>) {
        if let Some(m) = &mask {
            assert_eq!(
                m.dims(),
                self.w.value.dims(),
                "noise mask shape mismatch for {}",
                self.name
            );
        }
        self.noise = mask;
        self.packed = None;
    }

    fn bake_noise(&mut self) {
        if let Some(mask) = self.noise.take() {
            self.w.value = self.w.value.zip_map(&mask, |w, m| w * m);
            self.packed = None;
        }
    }

    fn pack_weights(&mut self) {
        // The [out, in] weight plays `Wᵀ` in `x·Wᵀ`, i.e. it is the
        // transposed storage of the logical [in, out] right operand.
        self.packed = Some(Arc::new(PackedB::from_tensor(
            &self.effective_weight(),
            Layout::Transposed,
        )));
    }

    fn lipschitz_matrix(&self) -> Option<Tensor> {
        Some(self.w.value.clone())
    }

    fn accumulate_lipschitz_grad(&mut self, grad: &Tensor) {
        self.w.accumulate(grad);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> Dense {
        Dense::new(3, 2, &mut SeededRng::new(1))
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut l = layer();
        // Zero the weight: output must equal the bias for any input.
        l.w.value.data_mut().fill(0.0);
        let x = Tensor::ones(&[4, 3]);
        let y = l.forward(&x, false);
        assert_eq!(y.dims(), &[4, 2]);
        for r in 0..4 {
            assert_eq!(y.at(&[r, 0]), l.b.value.at(&[0]));
            assert_eq!(y.at(&[r, 1]), l.b.value.at(&[1]));
        }
    }

    #[test]
    fn forward_known_values() {
        let mut l = layer();
        l.w.value = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0], &[2, 3]);
        l.b.value = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let y = l.forward(&x, false);
        assert_eq!(y.data(), &[11.0, 22.0]);
    }

    #[test]
    fn noise_scales_effective_weight() {
        let mut l = layer();
        l.w.value = Tensor::ones(&[2, 3]);
        l.b.value = Tensor::zeros(&[2]);
        l.set_noise(Some(Tensor::full(&[2, 3], 2.0)));
        let x = Tensor::ones(&[1, 3]);
        let y = l.forward(&x, false);
        assert_eq!(y.data(), &[6.0, 6.0]);
        l.set_noise(None);
        let y2 = l.forward(&x, false);
        assert_eq!(y2.data(), &[3.0, 3.0]);
    }

    #[test]
    fn backward_accumulates_param_grads() {
        let mut l = layer();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let _ = l.forward(&x, true);
        let g = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let gx = l.backward(&g);
        assert_eq!(gx.dims(), &[2, 3]);
        // dW row0 = x row0 (grad col 0 = [1, 0]); dW row1 = x row1.
        assert_eq!(&l.w.grad.data()[0..3], &[1.0, 2.0, 3.0]);
        assert_eq!(&l.w.grad.data()[3..6], &[4.0, 5.0, 6.0]);
        assert_eq!(l.b.grad.data(), &[1.0, 1.0]);
    }

    /// A frozen dense layer skips dW and db, leaving its gradients at
    /// zero, and returns the unfrozen layer's dX bit for bit, noise mask
    /// included; with only dX skipped, dW and db are the unfrozen ones.
    #[test]
    fn frozen_backward_skips_param_grads_and_keeps_dx() {
        let mut rng = SeededRng::new(12);
        let mut l = Dense::new(9, 5, &mut rng);
        l.set_noise(Some(rng.lognormal_mask(&[5, 9], 0.5)));
        let x = rng.normal_tensor(&[4, 9], 0.0, 1.0);
        let mut frozen = l.clone();
        frozen.set_frozen(true);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let g = rng.normal_tensor(l.forward(&x, true).dims(), 0.0, 1.0);
        let gx = l.backward(&g);
        frozen.forward(&x, true);
        assert_eq!(bits(&frozen.backward(&g)), bits(&gx));
        assert!(frozen.params().iter().all(|p| p.grad.abs_max() == 0.0));

        let mut params_only = l.clone();
        for p in params_only.params_mut() {
            p.zero_grad();
        }
        params_only.forward(&x, true);
        params_only.backward_params(&g);
        assert_eq!(bits(&params_only.w.grad), bits(&l.w.grad));
        assert_eq!(bits(&params_only.b.grad), bits(&l.b.grad));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        layer().backward(&Tensor::zeros(&[1, 2]));
    }

    #[test]
    fn weight_count() {
        assert_eq!(layer().weight_count(), 3 * 2 + 2);
    }

    #[test]
    fn packed_infer_is_bitwise_identical_to_unpacked() {
        let mut rng = SeededRng::new(9);
        let mut l = Dense::new(17, 11, &mut rng);
        let x = rng.normal_tensor(&[5, 17], 0.0, 1.0);
        let unpacked = l.infer(&x);
        l.pack_weights();
        assert_eq!(l.infer(&x), unpacked);

        // Packing folds a live noise mask into the panels.
        l.set_noise(Some(rng.lognormal_mask(&[11, 17], 0.5)));
        let noisy = l.infer(&x);
        l.pack_weights();
        assert_eq!(l.infer(&x), noisy);
    }

    #[test]
    fn packed_panels_invalidate_on_mutation() {
        let mut rng = SeededRng::new(10);
        let mut l = Dense::new(4, 3, &mut rng);
        let x = rng.normal_tensor(&[2, 4], 0.0, 1.0);
        l.pack_weights();
        let before = l.infer(&x);
        // Optimizer-style mutation goes through params_mut and must not
        // serve stale panels.
        l.params_mut()[0].value.data_mut()[0] += 1.0;
        let after = l.infer(&x);
        assert_ne!(before, after);
        assert_eq!(after, l.clone().forward(&x, false));
        // set_noise after packing also invalidates.
        l.pack_weights();
        l.set_noise(Some(Tensor::full(&[3, 4], 2.0)));
        assert_ne!(l.infer(&x), after);
    }

    #[test]
    fn fused_relu_matches_separate_relu_bitwise() {
        let mut rng = SeededRng::new(11);
        let mut l = Dense::new(8, 6, &mut rng);
        let x = rng.normal_tensor(&[4, 8], 0.0, 1.0);
        let separate = l.infer(&x).map(|v| v.max(0.0));
        assert_eq!(l.infer_fused_relu(&x).unwrap(), separate);
        l.pack_weights();
        assert_eq!(l.infer_fused_relu(&x).unwrap(), separate);
    }

    #[test]
    fn lipschitz_matrix_is_weight() {
        let l = layer();
        assert_eq!(l.lipschitz_matrix().unwrap(), l.w.value);
    }
}
