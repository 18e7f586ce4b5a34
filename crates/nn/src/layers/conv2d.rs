//! 2-D convolution through the fused-gather GEMM micro-kernel, with analog
//! weight-noise support.

use crate::init::{bias_uniform, kaiming_uniform};
use crate::layer::Layer;
use crate::param::Param;
use cn_tensor::ops::{conv2d_backward, conv2d_into, Activation, Conv2dGeometry, PackedA};
use cn_tensor::{SeededRng, Tensor};
use std::sync::Arc;

/// 2-D convolution over `[N, C, H, W]` inputs with square kernels.
///
/// The kernel tensor has shape `[out_c, in_c, k, k]`; its unfolded
/// `[out_c, in_c·k·k]` matrix is the layer's Lipschitz matrix (the operator
/// the paper's eq. 9–11 constrains). Weights are analog-mapped and accept a
/// multiplicative noise mask shaped like the kernel.
///
/// The forward pass runs [`conv2d_into`] and the backward pass
/// [`conv2d_backward`]; both read NCHW tensors directly, so no patch
/// matrix is ever materialized. Only the input is cached for backward.
#[derive(Debug, Clone)]
pub struct Conv2d {
    name: String,
    w: Param,
    b: Param,
    stride: usize,
    pad: usize,
    noise: Option<Tensor>,
    cache_x: Option<Tensor>,
    cache_geo: Option<Conv2dGeometry>,
    packed: Option<Arc<PackedA>>,
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution.
    pub fn new(
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut SeededRng,
    ) -> Self {
        Self::with_name("conv", in_c, out_c, kernel, stride, pad, rng)
    }

    /// Creates a named convolution.
    ///
    /// # Panics
    ///
    /// Panics on zero channel counts / kernel / stride.
    pub fn with_name(
        name: &str,
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(in_c > 0 && out_c > 0, "channel counts must be positive");
        assert!(kernel > 0 && stride > 0, "kernel/stride must be positive");
        let fan_in = in_c * kernel * kernel;
        Conv2d {
            name: name.to_string(),
            w: Param::new(
                "weight",
                kaiming_uniform(&[out_c, in_c, kernel, kernel], fan_in, rng),
            ),
            b: Param::new("bias", bias_uniform(&[out_c], fan_in, rng)),
            stride,
            pad,
            noise: None,
            cache_x: None,
            cache_geo: None,
            packed: None,
        }
    }

    /// The backward pass behind both [`Layer`] hooks. dW and db are
    /// skipped when both parameters are frozen, and dX unless
    /// `input_grad` (an empty tensor is returned then).
    fn backward_with(&mut self, grad_out: &Tensor, input_grad: bool) -> Tensor {
        let x = self
            .cache_x
            .take()
            .expect("Conv2d::backward called before forward");
        let geo = self.cache_geo.take().expect("geometry cache missing");
        let params = !(self.w.is_frozen() && self.b.is_frozen());
        let sized = |wanted: bool, dims: &[usize]| {
            if wanted {
                Tensor::zeros(dims)
            } else {
                Tensor::default()
            }
        };
        let mut dw = sized(params, self.w.value.dims());
        let mut db = sized(params, self.b.value.dims());
        let mut dx = sized(input_grad, x.dims());
        conv2d_backward(
            &x,
            &geo,
            self.effective_weight_matrix().data(),
            grad_out,
            dw.data_mut(),
            db.data_mut(),
            dx.data_mut(),
        );
        if params {
            // The weight gradient chains through the noise mask.
            if let Some(mask) = &self.noise {
                dw = dw.zip_map(mask, |g, m| g * m);
            }
            self.w.accumulate(&dw);
            self.b.accumulate(&db);
        }
        dx
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.w.value.dims()[1]
    }

    /// Output channel count (filter count `n` in the paper's Fig. 5).
    pub fn out_channels(&self) -> usize {
        self.w.value.dims()[0]
    }

    /// Kernel edge length.
    pub fn kernel(&self) -> usize {
        self.w.value.dims()[2]
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding.
    pub fn pad(&self) -> usize {
        self.pad
    }

    fn geometry(&self, x: &Tensor) -> Conv2dGeometry {
        Conv2dGeometry {
            in_c: self.in_channels(),
            in_h: x.dims()[2],
            in_w: x.dims()[3],
            kh: self.kernel(),
            kw: self.kernel(),
            stride: self.stride,
            pad: self.pad,
        }
    }

    fn effective_weight_matrix(&self) -> Tensor {
        let oc = self.out_channels();
        let cols = self.in_channels() * self.kernel() * self.kernel();
        let w = match &self.noise {
            Some(mask) => self.w.value.zip_map(mask, |w, m| w * m),
            None => self.w.value.clone(),
        };
        w.into_reshaped(&[oc, cols])
    }

    /// The effective weights as `MR`-row GEMM panels.
    fn pack_effective(&self) -> PackedA {
        let w = self.effective_weight_matrix();
        PackedA::pack(w.data(), w.dims()[0], w.dims()[1])
    }

    fn check_input(&self, x: &Tensor) {
        assert_eq!(x.rank(), 4, "Conv2d expects NCHW input");
        assert_eq!(
            x.dims()[1],
            self.in_channels(),
            "Conv2d {}: input channels {} != expected {}",
            self.name,
            x.dims()[1],
            self.in_channels()
        );
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let y = self.infer(x);
        self.cache_x = Some(x.clone());
        self.cache_geo = Some(self.geometry(x));
        y
    }

    /// `act(conv(x, W_eff) + b)` into `out` through [`conv2d_into`],
    /// reusing pre-packed weight panels when present (packing per call
    /// otherwise — training, or an undeployed model).
    fn infer_into(&self, x: &Tensor, act: Activation, out: &mut Tensor) {
        self.check_input(x);
        let geo = self.geometry(x);
        out.resize_in_place(&[x.dims()[0], self.out_channels(), geo.out_h(), geo.out_w()]);
        let per_call;
        let packed = match self.packed.as_deref() {
            Some(p) => p,
            None => {
                per_call = self.pack_effective();
                &per_call
            }
        };
        conv2d_into(out.data_mut(), x, &geo, packed, self.b.value.data(), act);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_with(grad_out, true)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backward_with(grad_out, false);
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
        self.packed = Some(Arc::new(self.pack_effective()));
    }

    fn lipschitz_matrix(&self) -> Option<Tensor> {
        let oc = self.out_channels();
        let cols = self.in_channels() * self.kernel() * self.kernel();
        Some(self.w.value.reshape(&[oc, cols]))
    }

    fn accumulate_lipschitz_grad(&mut self, grad: &Tensor) {
        let reshaped = grad.reshape(self.w.value.dims());
        self.w.accumulate(&reshaped);
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

    #[test]
    fn forward_shapes() {
        let mut rng = SeededRng::new(1);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = rng.normal_tensor(&[2, 3, 8, 8], 0.0, 1.0);
        let y = conv.forward(&x, false);
        assert_eq!(y.dims(), &[2, 8, 8, 8]);

        let mut strided = Conv2d::new(3, 4, 5, 2, 0, &mut rng);
        let y2 = strided.forward(&x, false);
        assert_eq!(y2.dims(), &[2, 4, 2, 2]);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut rng = SeededRng::new(2);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        conv.w.value = Tensor::ones(&[1, 1, 1, 1]);
        conv.b.value = Tensor::zeros(&[1]);
        let x = rng.normal_tensor(&[1, 1, 4, 4], 0.0, 1.0);
        let y = conv.forward(&x, false);
        for (a, b) in x.data().iter().zip(y.data().iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn bias_is_added_per_channel() {
        let mut rng = SeededRng::new(3);
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, &mut rng);
        conv.w.value = Tensor::zeros(&[2, 1, 1, 1]);
        conv.b.value = Tensor::from_vec(vec![5.0, -3.0], &[2]);
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let y = conv.forward(&x, false);
        assert_eq!(y.at(&[0, 0, 1, 1]), 5.0);
        assert_eq!(y.at(&[0, 1, 0, 0]), -3.0);
    }

    #[test]
    fn noise_mask_perturbs_output() {
        let mut rng = SeededRng::new(4);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = rng.normal_tensor(&[1, 2, 5, 5], 0.0, 1.0);
        let clean = conv.forward(&x, false);
        conv.set_noise(Some(rng.lognormal_mask(&[3, 2, 3, 3], 0.5)));
        let noisy = conv.forward(&x, false);
        assert_ne!(clean, noisy);
        conv.set_noise(None);
        let clean2 = conv.forward(&x, false);
        assert_eq!(clean, clean2);
    }

    #[test]
    fn backward_shapes_and_accumulation() {
        let mut rng = SeededRng::new(5);
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        let x = rng.normal_tensor(&[2, 2, 6, 6], 0.0, 1.0);
        let y = conv.forward(&x, true);
        let g = rng.normal_tensor(y.dims(), 0.0, 1.0);
        let gx = conv.backward(&g);
        assert_eq!(gx.dims(), x.dims());
        assert!(conv.w.grad.abs_max() > 0.0);
        assert!(conv.b.grad.abs_max() > 0.0);
    }

    /// A frozen convolution skips dW and db, leaving its gradients at
    /// zero, and returns the unfrozen layer's dX bit for bit, noise mask
    /// included; with only dX skipped, dW and db are the unfrozen ones.
    #[test]
    fn frozen_backward_skips_param_grads_and_keeps_dx() {
        let mut rng = SeededRng::new(11);
        let mut conv = Conv2d::new(2, 4, 3, 2, 1, &mut rng);
        conv.set_noise(Some(rng.lognormal_mask(&[4, 2, 3, 3], 0.5)));
        let x = rng.normal_tensor(&[3, 2, 7, 7], 0.0, 1.0);
        let mut frozen = conv.clone();
        frozen.set_frozen(true);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let g = rng.normal_tensor(conv.forward(&x, true).dims(), 0.0, 1.0);
        let gx = conv.backward(&g);
        frozen.forward(&x, true);
        assert_eq!(bits(&frozen.backward(&g)), bits(&gx));
        assert!(frozen.params().iter().all(|p| p.grad.abs_max() == 0.0));

        let mut params_only = conv.clone();
        for p in params_only.params_mut() {
            p.zero_grad();
        }
        params_only.forward(&x, true);
        params_only.backward_params(&g);
        assert_eq!(bits(&params_only.w.grad), bits(&conv.w.grad));
        assert_eq!(bits(&params_only.b.grad), bits(&conv.b.grad));
    }

    #[test]
    fn lipschitz_matrix_is_unfolded_kernel() {
        let mut rng = SeededRng::new(6);
        let conv = Conv2d::new(3, 5, 3, 1, 1, &mut rng);
        let m = conv.lipschitz_matrix().unwrap();
        assert_eq!(m.dims(), &[5, 27]);
        assert_eq!(m.data(), conv.w.value.data());
    }

    #[test]
    fn weight_count() {
        let mut rng = SeededRng::new(7);
        let conv = Conv2d::new(3, 8, 5, 1, 2, &mut rng);
        assert_eq!(conv.weight_count(), 8 * 3 * 25 + 8);
    }

    #[test]
    fn packed_infer_is_bitwise_identical_to_unpacked() {
        let mut rng = SeededRng::new(8);
        let mut conv = Conv2d::new(2, 5, 3, 1, 1, &mut rng);
        let x = rng.normal_tensor(&[2, 2, 6, 6], 0.0, 1.0);
        let unpacked = conv.infer(&x);
        conv.pack_weights();
        assert_eq!(conv.infer(&x), unpacked);

        // A live (unbaked) noise mask is folded into the panels.
        conv.set_noise(Some(rng.lognormal_mask(&[5, 2, 3, 3], 0.5)));
        let noisy = conv.infer(&x);
        conv.pack_weights();
        assert_eq!(conv.infer(&x), noisy);

        // …and mutable parameter access invalidates them.
        conv.params_mut()[0].value.data_mut()[0] += 1.0;
        assert_eq!(conv.infer(&x), conv.clone().forward(&x, false));
    }

    #[test]
    fn fused_relu_matches_separate_relu_bitwise() {
        let mut rng = SeededRng::new(9);
        let mut conv = Conv2d::new(1, 3, 3, 1, 1, &mut rng);
        let x = rng.normal_tensor(&[2, 1, 5, 5], 0.0, 1.0);
        let separate = conv.infer(&x).map(|v| v.max(0.0));
        assert_eq!(conv.infer_fused_relu(&x).unwrap(), separate);
        conv.pack_weights();
        assert_eq!(conv.infer_fused_relu(&x).unwrap(), separate);
    }
}
