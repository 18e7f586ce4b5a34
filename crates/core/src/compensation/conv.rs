//! Compensation wrapper for convolutional layers (paper Fig. 5).

use super::generator_filters;
use cn_nn::layers::Conv2d;
use cn_nn::{Layer, Param};
use cn_tensor::ops::{
    avg_pool_to, avg_pool_to_backward, concat_channels, split_channels, Activation,
};
use cn_tensor::{SeededRng, Tensor};

/// A convolutional layer with attached error compensation.
///
/// Forward dataflow (paper Fig. 5):
///
/// ```text
/// x ──► base conv ──► y ─────────────┬─────────────► compensator ──► out
/// │                                  │                   ▲
/// └► avg-pool to y's size ─► concat(pooled, y) ─► generator
/// ```
///
/// The base convolution carries analog weights (noise masks forward to
/// it); generator and compensator run digitally and never receive noise.
#[derive(Debug, Clone)]
pub struct CompensatedConv2d {
    name: String,
    base: Conv2d,
    generator: Conv2d,
    compensator: Conv2d,
    ratio: f32,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    in_dims: Vec<usize>,
    pooled: bool,
}

impl CompensatedConv2d {
    /// Wraps `base`, sizing the generator as `m = max(1, round(ratio·n))`
    /// filters.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not positive.
    pub fn wrap(base: Conv2d, ratio: f32, seed: u64) -> Self {
        assert!(ratio > 0.0, "compensation ratio must be positive");
        let l = base.in_channels();
        let n = base.out_channels();
        let m = generator_filters(n, ratio);
        let mut rng = SeededRng::new(seed ^ 0xc0_fe);
        let mut generator = Conv2d::with_name("generator", l + n, m, 1, 1, 0, &mut rng);
        let mut compensator = Conv2d::with_name("compensator", n + m, n, 1, 1, 0, &mut rng);
        // Unique parameter names inside the wrapper's state-dict scope.
        for p in generator.params_mut() {
            p.name = format!("gen_{}", p.name);
        }
        for p in compensator.params_mut() {
            p.name = format!("comp_{}", p.name);
        }
        // Start as a near-identity correction: the compensator initially
        // passes y through, so attaching untrained compensation does not
        // destroy the base model.
        let (cw, n_ch, m_ch) = (compensator.params_mut(), n, m);
        let w = &mut cw.into_iter().next().expect("weight param").value;
        w.data_mut().fill(0.0);
        for i in 0..n_ch {
            // weight[i][i][0][0] = 1 (identity on the y part of the concat)
            let idx = i * (n_ch + m_ch) + i;
            w.data_mut()[idx] = 1.0;
        }
        let mut wrapper = CompensatedConv2d {
            name: format!("{}_comp", base.name()),
            base,
            generator,
            compensator,
            ratio,
            cache: None,
        };
        // Zero the compensator bias so the identity is exact.
        wrapper.compensator.params_mut()[1]
            .value
            .data_mut()
            .fill(0.0);
        wrapper
    }

    /// The compensation ratio this wrapper was built with.
    pub fn ratio(&self) -> f32 {
        self.ratio
    }

    /// Generator filter count `m`.
    pub fn generator_filters(&self) -> usize {
        self.generator.out_channels()
    }

    /// Weights in the generator + compensator (the Table I overhead
    /// numerator contribution).
    pub fn compensation_weight_count(&self) -> usize {
        self.generator.weight_count() + self.compensator.weight_count()
    }

    /// Freezes/unfreezes only the compensation parameters.
    pub fn set_comp_frozen(&mut self, frozen: bool) {
        self.generator.set_frozen(frozen);
        self.compensator.set_frozen(frozen);
    }

    /// Freezes/unfreezes only the base layer.
    pub fn set_base_frozen(&mut self, frozen: bool) {
        self.base.set_frozen(frozen);
    }

    /// Read-only access to the wrapped base convolution.
    pub fn base(&self) -> &Conv2d {
        &self.base
    }

    /// The inference dataflow up to the compensator's input:
    /// `concat(y, generator(concat(pool(x), y)))`.
    fn compensator_input(&self, x: &Tensor) -> Tensor {
        let y = self.base.infer(x);
        let (oh, ow) = (y.dims()[2], y.dims()[3]);
        let pooled = avg_pool_to(x, oh, ow);
        let gen_in = concat_channels(&[&pooled, &y]);
        let comp_data = self.generator.infer(&gen_in);
        concat_channels(&[&y, &comp_data])
    }
}

impl Layer for CompensatedConv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = self.base.forward(x, train);
        let (oh, ow) = (y.dims()[2], y.dims()[3]);
        let pooled = avg_pool_to(x, oh, ow);
        let gen_in = concat_channels(&[&pooled, &y]);
        let comp_data = self.generator.forward(&gen_in, train);
        let comp_in = concat_channels(&[&y, &comp_data]);
        self.cache = Some(Cache {
            in_dims: x.dims().to_vec(),
            pooled: (x.dims()[2], x.dims()[3]) != (oh, ow),
        });
        self.compensator.forward(&comp_in, train)
    }

    fn infer_into(&self, x: &Tensor, act: Activation, out: &mut Tensor) {
        // The wrapper's output stage is the compensator convolution, so
        // a trailing ReLU fuses into its GEMM writeback.
        self.compensator
            .infer_into(&self.compensator_input(x), act, out);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("CompensatedConv2d::backward called before forward");
        let n = self.base.out_channels();
        let m = self.generator.out_channels();
        let l = self.base.in_channels();

        let g_comp_in = self.compensator.backward(grad_out);
        let parts = split_channels(&g_comp_in, &[n, m]);
        let (g_y_direct, g_comp_data) = (&parts[0], &parts[1]);

        let g_gen_in = self.generator.backward(g_comp_data);
        let parts = split_channels(&g_gen_in, &[l, n]);
        let (g_pooled, g_y_via_gen) = (&parts[0], &parts[1]);

        let g_y = g_y_direct + g_y_via_gen;
        let g_x_base = self.base.backward(&g_y);

        let g_x_pool = if cache.pooled {
            avg_pool_to_backward(g_pooled, &cache.in_dims)
        } else {
            g_pooled.clone()
        };
        &g_x_base + &g_x_pool
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.base.params_mut();
        out.extend(self.generator.params_mut());
        out.extend(self.compensator.params_mut());
        out
    }

    fn params(&self) -> Vec<&Param> {
        let mut out = self.base.params();
        out.extend(self.generator.params());
        out.extend(self.compensator.params());
        out
    }

    fn noise_dims(&self) -> Option<Vec<usize>> {
        self.base.noise_dims()
    }

    fn set_noise(&mut self, mask: Option<Tensor>) {
        // Only the base layer is analog; compensation runs digitally.
        self.base.set_noise(mask);
    }

    fn bake_noise(&mut self) {
        self.base.bake_noise();
    }

    fn pack_weights(&mut self) {
        self.base.pack_weights();
        self.generator.pack_weights();
        self.compensator.pack_weights();
    }

    fn lipschitz_matrix(&self) -> Option<Tensor> {
        self.base.lipschitz_matrix()
    }

    fn accumulate_lipschitz_grad(&mut self, grad: &Tensor) {
        self.base.accumulate_lipschitz_grad(grad);
    }

    fn macs(&self, in_dims: &[usize], out_dims: &[usize]) -> (u64, u64) {
        let (analog, _) = self.base.macs(in_dims, out_dims);
        let out_positions: u64 = out_dims[2..].iter().product::<usize>() as u64;
        let l = self.base.in_channels() as u64;
        let n = self.base.out_channels() as u64;
        let m = self.generator.out_channels() as u64;
        let digital = out_positions * (m * (l + n) + n * (n + m));
        (analog, digital)
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

    fn base_conv(l: usize, n: usize, stride: usize) -> Conv2d {
        let mut rng = SeededRng::new(1);
        Conv2d::with_name("conv1", l, n, 3, stride, 1, &mut rng)
    }

    #[test]
    fn wrap_is_initially_identity_on_base_output() {
        let mut base = base_conv(3, 6, 1);
        let mut rng = SeededRng::new(2);
        let x = rng.normal_tensor(&[2, 3, 8, 8], 0.0, 1.0);
        let y_base = base.forward(&x, false);
        let mut wrapped = CompensatedConv2d::wrap(base, 0.5, 3);
        let y_wrapped = wrapped.forward(&x, false);
        for (a, b) in y_base.data().iter().zip(y_wrapped.data().iter()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn infer_into_contract_holds_unpacked_and_packed() {
        let mut w = CompensatedConv2d::wrap(base_conv(2, 4, 2), 0.5, 17);
        let mut rng = SeededRng::new(18);
        // Move the compensator off its identity init so the fused ReLU
        // acts on a real product.
        for p in w.compensator.params_mut() {
            p.value = rng.normal_tensor(p.value.dims(), 0.0, 0.3);
        }
        cn_nn::layer::assert_infer_into_contract(&w, &[2, 2, 6, 6], 19);
        w.pack_weights();
        cn_nn::layer::assert_infer_into_contract(&w, &[2, 2, 6, 6], 19);
    }

    #[test]
    fn generator_size_follows_ratio() {
        let w = CompensatedConv2d::wrap(base_conv(3, 16, 1), 0.25, 1);
        assert_eq!(w.generator_filters(), 4);
        // gen: 4 filters × (3+16) inputs + 4 bias; comp: 16 × (16+4) + 16.
        assert_eq!(w.compensation_weight_count(), 4 * 19 + 4 + 16 * 20 + 16);
    }

    #[test]
    fn strided_base_pools_the_input_branch() {
        let mut rng = SeededRng::new(4);
        let mut w = CompensatedConv2d::wrap(base_conv(2, 4, 2), 0.5, 5);
        let x = rng.normal_tensor(&[1, 2, 8, 8], 0.0, 1.0);
        let y = w.forward(&x, false);
        assert_eq!(y.dims(), &[1, 4, 4, 4]);
        // Backward must restore the input shape.
        let g = rng.normal_tensor(y.dims(), 0.0, 1.0);
        let gx = w.backward(&g);
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn gradients_match_numeric() {
        let mut w = CompensatedConv2d::wrap(base_conv(2, 3, 1), 0.5, 6);
        // Perturb the compensator away from identity so its gradient path
        // is exercised nontrivially.
        let mut rng = SeededRng::new(7);
        for p in w.generator.params_mut() {
            p.value = rng.normal_tensor(p.value.dims(), 0.0, 0.3);
        }
        let r = cn_nn::gradcheck::check_layer(&mut w, &[1, 2, 4, 4], 8, 1e-2, true);
        assert!(r.passes(3e-2), "{r:?}");
    }

    #[test]
    fn gradients_match_numeric_with_base_noise() {
        let mut w = CompensatedConv2d::wrap(base_conv(2, 3, 1), 0.5, 9);
        let mut rng = SeededRng::new(10);
        w.set_noise(Some(rng.lognormal_mask(&[3, 2, 3, 3], 0.5)));
        let r = cn_nn::gradcheck::check_layer(&mut w, &[1, 2, 4, 4], 11, 1e-2, true);
        assert!(r.passes(3e-2), "{r:?}");
    }

    /// A stride-2 base routes the generator's input branch through the
    /// average pool; its backward must still match numeric gradients.
    #[test]
    fn gradients_match_numeric_with_strided_base() {
        let mut w = CompensatedConv2d::wrap(base_conv(2, 3, 2), 0.5, 20);
        let mut rng = SeededRng::new(21);
        for p in w.generator.params_mut() {
            p.value = rng.normal_tensor(p.value.dims(), 0.0, 0.3);
        }
        let r = cn_nn::gradcheck::check_layer(&mut w, &[2, 2, 6, 6], 22, 1e-2, true);
        assert!(r.passes(3e-2), "{r:?}");
    }

    #[test]
    fn noise_does_not_touch_compensation_weights() {
        let mut w = CompensatedConv2d::wrap(base_conv(2, 3, 1), 0.5, 12);
        let gen_before = w.generator.params()[0].value.clone();
        let mut rng = SeededRng::new(13);
        w.set_noise(Some(rng.lognormal_mask(&[3, 2, 3, 3], 0.5)));
        assert_eq!(w.generator.params()[0].value, gen_before);
        assert_eq!(w.noise_dims(), Some(vec![3, 2, 3, 3]));
    }

    #[test]
    fn macs_split_analog_digital() {
        let w = CompensatedConv2d::wrap(base_conv(3, 8, 1), 0.5, 14);
        let (analog, digital) = w.macs(&[1, 3, 8, 8], &[1, 8, 8, 8]);
        // base: 8·8·8 outputs × 27-long patches.
        assert_eq!(analog, 8 * 8 * 8 * 27);
        // gen: 64 positions × 4·(3+8); comp: 64 × 8·(8+4).
        assert_eq!(digital, 64 * (4 * 11 + 8 * 12));
    }

    #[test]
    fn untrained_wrapper_tracks_base_under_noise() {
        // With identity-initialized compensation, the wrapper under noise
        // equals the noisy base — compensation starts neutral.
        let mut base = base_conv(2, 4, 1);
        let mut rng = SeededRng::new(15);
        let mask = rng.lognormal_mask(&[4, 2, 3, 3], 0.5);
        let x = rng.normal_tensor(&[1, 2, 6, 6], 0.0, 1.0);
        base.set_noise(Some(mask.clone()));
        let y_noisy_base = base.forward(&x, false);
        base.set_noise(None);
        let mut w = CompensatedConv2d::wrap(base, 0.5, 16);
        w.set_noise(Some(mask));
        let y_wrapped = w.forward(&x, false);
        for (a, b) in y_noisy_base.data().iter().zip(y_wrapped.data().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }
}
