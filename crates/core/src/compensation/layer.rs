//! The compensation wrapper (paper Fig. 5), for convolutional and dense
//! base layers alike.

use super::generator_filters;
use cn_nn::layers::{Conv2d, Dense};
use cn_nn::{Layer, Param};
use cn_tensor::ops::{
    avg_pool_to, avg_pool_to_backward, concat_channels, split_channels, Activation,
};
use cn_tensor::{SeededRng, Tensor};

/// An analog weight layer with attached error compensation.
///
/// Forward dataflow (paper Fig. 5):
///
/// ```text
/// x ──► base ──► y ──────────────────┬─────────────► compensator ──► out
/// │                                  │                   ▲
/// └► avg-pool to y's size ─► concat(pooled, y) ─► generator
/// ```
///
/// For a `Conv2d` base the generator and compensator are 1×1
/// convolutions; for a `Dense` base they are dense layers and the pool is
/// skipped (as it is for a convolution that keeps its input's spatial
/// size). The base carries analog weights (noise masks forward to it);
/// generator and compensator run digitally and never receive noise.
#[derive(Clone)]
pub struct Compensated {
    name: String,
    base: Box<dyn Layer>,
    generator: Box<dyn Layer>,
    compensator: Box<dyn Layer>,
    /// Base input width `l`, base output width `n`, generator width `m`
    /// (channels for convolutions, features for dense layers).
    l: usize,
    n: usize,
    m: usize,
    cache: Option<Cache>,
}

#[derive(Clone)]
struct Cache {
    /// Input dims, when the generator's input branch was average-pooled.
    pooled_from: Option<Vec<usize>>,
}

/// Builds a named generator or compensator layer from its input and
/// output widths.
type Build = fn(&str, usize, usize, &mut SeededRng) -> Box<dyn Layer>;

impl Compensated {
    /// Wraps a copy of `base`, sizing the generator as
    /// `m = max(1, round(ratio·n))` filters.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not positive, or if `base` is neither a
    /// `Conv2d` nor a `Dense` layer.
    pub fn wrap(base: &dyn Layer, ratio: f32, seed: u64) -> Self {
        assert!(ratio > 0.0, "compensation ratio must be positive");
        let any = base.as_any();
        let (l, n, salt, build): (usize, usize, u64, Build) =
            if let Some(conv) = any.downcast_ref::<Conv2d>() {
                let build: Build =
                    |name, i, o, rng| Box::new(Conv2d::with_name(name, i, o, 1, 1, 0, rng));
                (conv.in_channels(), conv.out_channels(), 0xc0_fe, build)
            } else if let Some(dense) = any.downcast_ref::<Dense>() {
                let build: Build = |name, i, o, rng| Box::new(Dense::with_name(name, i, o, rng));
                (dense.in_features(), dense.out_features(), 0xd0_5e, build)
            } else {
                panic!(
                    "layer {} cannot be compensated (not Conv2d/Dense or already wrapped)",
                    base.name()
                );
            };
        let m = generator_filters(n, ratio);
        let mut rng = SeededRng::new(seed ^ salt);
        let mut generator = build("generator", l + n, m, &mut rng);
        let mut compensator = build("compensator", n + m, n, &mut rng);
        // Unique parameter names inside the wrapper's state-dict scope.
        for p in generator.params_mut() {
            p.name = format!("gen_{}", p.name);
        }
        for p in compensator.params_mut() {
            p.name = format!("comp_{}", p.name);
        }
        // Start as an identity correction: the compensator passes y
        // through (weight[i][i] = 1 on the y part of its input, zero
        // bias), so attaching untrained compensation does not destroy the
        // base model.
        let mut params = compensator.params_mut();
        let w = params[0].value.data_mut();
        w.fill(0.0);
        for i in 0..n {
            w[i * (n + m) + i] = 1.0;
        }
        params[1].value.data_mut().fill(0.0);
        Compensated {
            name: format!("{}_comp", base.name()),
            base: base.clone_box(),
            generator,
            compensator,
            l,
            n,
            m,
            cache: None,
        }
    }

    /// Generator filter count `m`.
    pub fn generator_filters(&self) -> usize {
        self.m
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

    /// The backward pass behind both [`Layer`] hooks; returns the input
    /// gradient when `input_grad`. Without it, the generator's input
    /// gradient feeds only the base, so a frozen base is skipped
    /// entirely and the generator computes its parameter gradients only.
    fn backward_with(&mut self, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        let cache = self
            .cache
            .take()
            .expect("Compensated::backward called before forward");
        let (l, n, m) = (self.l, self.n, self.m);

        let g_comp_in = self.compensator.backward(grad_out);
        let parts = split_channels(&g_comp_in, &[n, m]);
        let (g_y_direct, g_comp_data) = (&parts[0], &parts[1]);
        if !input_grad && self.base.params().iter().all(|p| p.is_frozen()) {
            self.generator.backward_params(g_comp_data);
            return None;
        }

        let g_gen_in = self.generator.backward(g_comp_data);
        let parts = split_channels(&g_gen_in, &[l, n]);
        let (g_x_via_gen, g_y_via_gen) = (&parts[0], &parts[1]);

        let g_y = g_y_direct + g_y_via_gen;
        if !input_grad {
            self.base.backward_params(&g_y);
            return None;
        }
        let g_x_base = self.base.backward(&g_y);
        Some(match cache.pooled_from {
            Some(in_dims) => &g_x_base + &avg_pool_to_backward(g_x_via_gen, &in_dims),
            None => &g_x_base + g_x_via_gen,
        })
    }

    /// The inference dataflow up to the compensator's input:
    /// `concat(y, generator(concat(pool(x), y)))`.
    fn compensator_input(&self, x: &Tensor) -> Tensor {
        let y = self.base.infer(x);
        let pooled = pool_to_output(x, &y);
        let gen_in = concat_channels(&[pooled.as_ref().unwrap_or(x), &y]);
        let comp_data = self.generator.infer(&gen_in);
        concat_channels(&[&y, &comp_data])
    }
}

/// `x` average-pooled to the spatial size of `y`, or `None` when `x` is
/// not a feature map or already has that size.
fn pool_to_output(x: &Tensor, y: &Tensor) -> Option<Tensor> {
    (x.rank() == 4 && x.dims()[2..] != y.dims()[2..])
        .then(|| avg_pool_to(x, y.dims()[2], y.dims()[3]))
}

impl Layer for Compensated {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = self.base.forward(x, train);
        let pooled = pool_to_output(x, &y);
        let gen_in = concat_channels(&[pooled.as_ref().unwrap_or(x), &y]);
        let comp_data = self.generator.forward(&gen_in, train);
        let comp_in = concat_channels(&[&y, &comp_data]);
        self.cache = Some(Cache {
            pooled_from: pooled.map(|_| x.dims().to_vec()),
        });
        self.compensator.forward(&comp_in, train)
    }

    fn infer_into(&self, x: &Tensor, act: Activation, out: &mut Tensor) {
        // The wrapper's output stage is the compensator, so a trailing
        // ReLU fuses into its GEMM writeback.
        self.compensator
            .infer_into(&self.compensator_input(x), act, out);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_with(grad_out, true)
            .expect("the input gradient was requested")
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backward_with(grad_out, false);
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
        // One generator and one compensator dot product per output
        // position (a dense output has exactly one).
        let out_positions = out_dims[2..].iter().product::<usize>() as u64;
        let (l, n, m) = (self.l as u64, self.n as u64, self.m as u64);
        (analog, out_positions * (m * (l + n) + n * (n + m)))
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
        let mut wrapped = Compensated::wrap(&base, 0.5, 3);
        let y_wrapped = wrapped.forward(&x, false);
        for (a, b) in y_base.data().iter().zip(y_wrapped.data().iter()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn infer_into_contract_holds_unpacked_and_packed_conv() {
        let mut w = Compensated::wrap(&base_conv(2, 4, 2), 0.5, 17);
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
        let w = Compensated::wrap(&base_conv(3, 16, 1), 0.25, 1);
        assert_eq!(w.generator_filters(), 4);
        // gen: 4 filters × (3+16) inputs + 4 bias; comp: 16 × (16+4) + 16.
        assert_eq!(w.compensation_weight_count(), 4 * 19 + 4 + 16 * 20 + 16);
    }

    #[test]
    fn strided_base_pools_the_input_branch() {
        let mut rng = SeededRng::new(4);
        let mut w = Compensated::wrap(&base_conv(2, 4, 2), 0.5, 5);
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
        let mut w = Compensated::wrap(&base_conv(2, 3, 1), 0.5, 6);
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
        let mut w = Compensated::wrap(&base_conv(2, 3, 1), 0.5, 9);
        let mut rng = SeededRng::new(10);
        w.set_noise(Some(rng.lognormal_mask(&[3, 2, 3, 3], 0.5)));
        let r = cn_nn::gradcheck::check_layer(&mut w, &[1, 2, 4, 4], 11, 1e-2, true);
        assert!(r.passes(3e-2), "{r:?}");
    }

    /// A stride-2 base routes the generator's input branch through the
    /// average pool; its backward must still match numeric gradients.
    #[test]
    fn gradients_match_numeric_with_strided_base() {
        let mut w = Compensated::wrap(&base_conv(2, 3, 2), 0.5, 20);
        let mut rng = SeededRng::new(21);
        for p in w.generator.params_mut() {
            p.value = rng.normal_tensor(p.value.dims(), 0.0, 0.3);
        }
        let r = cn_nn::gradcheck::check_layer(&mut w, &[2, 2, 6, 6], 22, 1e-2, true);
        assert!(r.passes(3e-2), "{r:?}");
    }

    #[test]
    fn noise_does_not_touch_compensation_weights() {
        let mut w = Compensated::wrap(&base_conv(2, 3, 1), 0.5, 12);
        let gen_before = w.generator.params()[0].value.clone();
        let mut rng = SeededRng::new(13);
        w.set_noise(Some(rng.lognormal_mask(&[3, 2, 3, 3], 0.5)));
        assert_eq!(w.generator.params()[0].value, gen_before);
        assert_eq!(w.noise_dims(), Some(vec![3, 2, 3, 3]));
    }

    #[test]
    fn macs_split_analog_digital() {
        let w = Compensated::wrap(&base_conv(3, 8, 1), 0.5, 14);
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
        let mut w = Compensated::wrap(&base, 0.5, 16);
        w.set_noise(Some(mask));
        let y_wrapped = w.forward(&x, false);
        for (a, b) in y_noisy_base.data().iter().zip(y_wrapped.data().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    fn base_dense(l: usize, n: usize) -> Dense {
        Dense::with_name("fc1", l, n, &mut SeededRng::new(1))
    }

    #[test]
    fn initially_identity_on_base_output() {
        let mut base = base_dense(5, 4);
        let mut rng = SeededRng::new(2);
        let x = rng.normal_tensor(&[3, 5], 0.0, 1.0);
        let y_base = base.forward(&x, false);
        let mut w = Compensated::wrap(&base, 0.5, 3);
        let y = w.forward(&x, false);
        for (a, b) in y_base.data().iter().zip(y.data().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn gradcheck_after_perturbation() {
        let mut w = Compensated::wrap(&base_dense(4, 3), 0.5, 4);
        let mut rng = SeededRng::new(5);
        for p in w.generator.params_mut() {
            p.value = rng.normal_tensor(p.value.dims(), 0.0, 0.3);
        }
        for p in w.compensator.params_mut() {
            p.value = rng.normal_tensor(p.value.dims(), 0.0, 0.3);
        }
        let r = cn_nn::gradcheck::check_layer(&mut w, &[2, 4], 6, 1e-2, true);
        assert!(r.passes(3e-2), "{r:?}");
    }

    #[test]
    fn infer_into_contract_holds_unpacked_and_packed_dense() {
        let mut w = Compensated::wrap(&base_dense(5, 4), 0.5, 11);
        let mut rng = SeededRng::new(12);
        for p in w.compensator.params_mut() {
            p.value = rng.normal_tensor(p.value.dims(), 0.0, 0.3);
        }
        // Unpacked at a skinny and a full-panel batch, then packed.
        for rows in [3, 11] {
            cn_nn::layer::assert_infer_into_contract(&w, &[rows, 5], 13);
        }
        w.pack_weights();
        cn_nn::layer::assert_infer_into_contract(&w, &[11, 5], 13);
    }

    #[test]
    fn weight_counts() {
        let w = Compensated::wrap(&base_dense(10, 8), 0.25, 7);
        assert_eq!(w.generator_filters(), 2);
        // gen: 2×18+2, comp: 8×10+8.
        assert_eq!(w.compensation_weight_count(), 2 * 18 + 2 + 8 * 10 + 8);
        // Total includes the base.
        assert_eq!(w.weight_count(), 10 * 8 + 8 + w.compensation_weight_count());
    }

    #[test]
    fn noise_forwards_to_base_only() {
        let mut w = Compensated::wrap(&base_dense(4, 3), 1.0, 8);
        assert_eq!(w.noise_dims(), Some(vec![3, 4]));
        let mut rng = SeededRng::new(9);
        let x = rng.normal_tensor(&[2, 4], 0.0, 1.0);
        let clean = w.forward(&x, false);
        w.set_noise(Some(rng.lognormal_mask(&[3, 4], 0.5)));
        assert_ne!(w.forward(&x, false), clean);
        w.set_noise(None);
        assert_eq!(w.forward(&x, false), clean);
    }

    #[test]
    fn macs_counts() {
        let w = Compensated::wrap(&base_dense(10, 8), 0.25, 10);
        let (analog, digital) = w.macs(&[1, 10], &[1, 8]);
        assert_eq!(analog, 80);
        assert_eq!(digital, 2 * 18 + 8 * 10);
    }

    /// `Sequential::backward` runs a compensated first layer without its
    /// input gradient. With the base frozen (stage 4) it skips the base
    /// entirely, and with the base trainable it runs the base's
    /// parameter gradients only; either way every parameter gradient is
    /// bitwise the one the full layer-by-layer chain accumulates, and a
    /// frozen base's stay zero.
    #[test]
    fn first_layer_grads_match_the_full_chain() {
        use crate::compensation::{
            apply_compensation, freeze_all_but_compensation, CompensationPlan,
        };
        use cn_nn::zoo::{lenet5, LeNetConfig};
        use cn_nn::Sequential;

        let grads = |m: &mut Sequential| -> Vec<Vec<u32>> {
            m.params_mut()
                .iter()
                .map(|p| p.grad.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let mut rng = SeededRng::new(31);
        let x = rng.normal_tensor(&[3, 1, 28, 28], 0.0, 1.0);
        let g = rng.normal_tensor(&[3, 10], 0.0, 1.0);
        let base = lenet5(&LeNetConfig::mnist(32));
        let mut model = apply_compensation(&base, &CompensationPlan::uniform(&[0, 1], 0.5), 33);
        // Off the identity init, so every compensation gradient is live.
        for p in model.params_mut() {
            if p.name.starts_with("comp_") {
                p.value = rng.normal_tensor(p.value.dims(), 0.0, 0.3);
            }
        }
        for frozen_base in [true, false] {
            let mut chain = model.clone();
            if frozen_base {
                freeze_all_but_compensation(&mut chain);
            }
            let mut skipped = chain.clone();
            chain.forward(&x, false);
            let mut gx = g.clone();
            for i in (0..chain.len()).rev() {
                gx = chain.layer_mut(i).backward(&gx);
            }
            skipped.forward(&x, false);
            skipped.backward(&g);
            assert_eq!(
                grads(&mut skipped),
                grads(&mut chain),
                "frozen base: {frozen_base}"
            );
            let first = skipped.layer_mut(0);
            let comp_grads = first
                .params()
                .iter()
                .filter(|p| p.name.starts_with("gen_") || p.name.starts_with("comp_"))
                .all(|p| p.grad.abs_max() > 0.0);
            assert!(comp_grads, "generator and compensator gradients are live");
            let base_grads = first.params()[..2].iter().all(|p| p.grad.abs_max() > 0.0);
            assert_eq!(base_grads, !frozen_base);
        }
    }

    fn hash_bits<'a>(tensors: impl IntoIterator<Item = &'a Tensor>) -> u64 {
        let mut bytes = Vec::new();
        for t in tensors {
            for v in t.data() {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        cn_tensor::hash::fnv1a64(&bytes)
    }

    /// Pins parameter names, init draws and arithmetic order across all
    /// three base shapes — an unpooled conv (conv1), a pooled conv (conv2)
    /// and a dense layer (fc1) — to constants recorded when the conv and
    /// dense wrappers were still separate types. The seeded experiments
    /// and cached `.cnm` models depend on them.
    #[test]
    fn compensated_lenet_matches_parent_bitwise() {
        use crate::compensation::{
            apply_compensation, train_compensators, CompensationPlan, CompensationTrainConfig,
        };
        use cn_nn::zoo::{lenet5, LeNetConfig};

        let data = cn_data::synthetic_mnist(96, 16, 41);
        let base = lenet5(&LeNetConfig::mnist(42));
        let plan = CompensationPlan::uniform(&[0, 1, 2], 0.5);
        let mut model = apply_compensation(&base, &plan, 43);
        train_compensators(
            &mut model,
            &data.train,
            &CompensationTrainConfig::new(0.5, 1, 44),
        );
        let dict = model.state_dict();
        let names: Vec<&str> = dict.iter().map(|(n, _)| n.as_str()).collect();
        let mut expected = Vec::new();
        for layer in ["conv1_comp", "conv2_comp", "fc1_comp"] {
            for p in [
                "weight",
                "bias",
                "gen_weight",
                "gen_bias",
                "comp_weight",
                "comp_bias",
            ] {
                expected.push(format!("{layer}.{p}"));
            }
        }
        expected.extend(["fc2.weight", "fc2.bias", "fc3.weight", "fc3.bias"].map(String::from));
        assert_eq!(names, expected);
        assert_eq!(
            hash_bits(dict.iter().map(|(_, t)| t)),
            0x9514_9052_bed5_c2e0
        );
        let logits = model.infer(&data.test.images);
        assert_eq!(logits.dims(), &[16, 10]);
        assert_eq!(hash_bits([&logits]), 0x968f_607a_e124_e515);
    }
}
