//! Compensation wrapper for dense layers (the 1-D analogue of Fig. 5).

use super::generator_filters;
use cn_nn::layers::Dense;
use cn_nn::{Layer, Param};
use cn_tensor::ops::{concat_channels, split_channels, Activation};
use cn_tensor::{SeededRng, Tensor};

/// A dense layer with attached error compensation.
///
/// Identical dataflow to [`CompensatedConv2d`](super::CompensatedConv2d)
/// without the spatial pooling: the generator consumes
/// `concat(x, y) ∈ ℝ^{l+n}` and emits `m` features; the compensator maps
/// `concat(y, comp) ∈ ℝ^{n+m}` back to `n` outputs.
#[derive(Debug, Clone)]
pub struct CompensatedDense {
    name: String,
    base: Dense,
    generator: Dense,
    compensator: Dense,
    ratio: f32,
    forwarded: bool,
}

impl CompensatedDense {
    /// Wraps `base` with generator size `m = max(1, round(ratio·n))`.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not positive.
    pub fn wrap(base: Dense, ratio: f32, seed: u64) -> Self {
        assert!(ratio > 0.0, "compensation ratio must be positive");
        let l = base.in_features();
        let n = base.out_features();
        let m = generator_filters(n, ratio);
        let mut rng = SeededRng::new(seed ^ 0xd0_5e);
        let mut generator = Dense::with_name("generator", l + n, m, &mut rng);
        let mut compensator = Dense::with_name("compensator", n + m, n, &mut rng);
        for p in generator.params_mut() {
            p.name = format!("gen_{}", p.name);
        }
        for p in compensator.params_mut() {
            p.name = format!("comp_{}", p.name);
        }
        // Identity initialization on the y-part of the compensator input.
        {
            let mut params = compensator.params_mut();
            let w = &mut params[0].value;
            w.data_mut().fill(0.0);
            for i in 0..n {
                w.data_mut()[i * (n + m) + i] = 1.0;
            }
        }
        compensator.params_mut()[1].value.data_mut().fill(0.0);
        CompensatedDense {
            name: format!("{}_comp", base.name()),
            base,
            generator,
            compensator,
            ratio,
            forwarded: false,
        }
    }

    /// The compensation ratio this wrapper was built with.
    pub fn ratio(&self) -> f32 {
        self.ratio
    }

    /// Generator output feature count `m`.
    pub fn generator_filters(&self) -> usize {
        self.generator.out_features()
    }

    /// Weights in the generator + compensator.
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

    /// Read-only access to the wrapped base layer.
    pub fn base(&self) -> &Dense {
        &self.base
    }

    /// The inference dataflow up to the compensator's input:
    /// `concat(y, generator(concat(x, y)))`.
    fn compensator_input(&self, x: &Tensor) -> Tensor {
        let y = self.base.infer(x);
        let gen_in = concat_channels(&[x, &y]);
        let comp_data = self.generator.infer(&gen_in);
        concat_channels(&[&y, &comp_data])
    }
}

impl Layer for CompensatedDense {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = self.base.forward(x, train);
        let gen_in = concat_channels(&[x, &y]);
        let comp_data = self.generator.forward(&gen_in, train);
        let comp_in = concat_channels(&[&y, &comp_data]);
        self.forwarded = true;
        self.compensator.forward(&comp_in, train)
    }

    fn infer_into(&self, x: &Tensor, act: Activation, out: &mut Tensor) {
        // The wrapper's output stage is the compensator, so a trailing
        // ReLU fuses into its GEMM writeback.
        self.compensator
            .infer_into(&self.compensator_input(x), act, out);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            std::mem::take(&mut self.forwarded),
            "CompensatedDense::backward called before forward"
        );
        let n = self.base.out_features();
        let m = self.generator.out_features();
        let l = self.base.in_features();

        let g_comp_in = self.compensator.backward(grad_out);
        let parts = split_channels(&g_comp_in, &[n, m]);
        let (g_y_direct, g_comp_data) = (&parts[0], &parts[1]);

        let g_gen_in = self.generator.backward(g_comp_data);
        let parts = split_channels(&g_gen_in, &[l, n]);
        let (g_x_via_gen, g_y_via_gen) = (&parts[0], &parts[1]);

        let g_y = g_y_direct + g_y_via_gen;
        let g_x_base = self.base.backward(&g_y);
        &g_x_base + g_x_via_gen
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
        let l = self.base.in_features() as u64;
        let n = self.base.out_features() as u64;
        let m = self.generator.out_features() as u64;
        (analog, m * (l + n) + n * (n + m))
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

    fn base_dense(l: usize, n: usize) -> Dense {
        Dense::with_name("fc1", l, n, &mut SeededRng::new(1))
    }

    #[test]
    fn initially_identity_on_base_output() {
        let mut base = base_dense(5, 4);
        let mut rng = SeededRng::new(2);
        let x = rng.normal_tensor(&[3, 5], 0.0, 1.0);
        let y_base = base.forward(&x, false);
        let mut w = CompensatedDense::wrap(base, 0.5, 3);
        let y = w.forward(&x, false);
        for (a, b) in y_base.data().iter().zip(y.data().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn gradcheck_after_perturbation() {
        let mut w = CompensatedDense::wrap(base_dense(4, 3), 0.5, 4);
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
    fn infer_into_contract_holds_unpacked_and_packed() {
        let mut w = CompensatedDense::wrap(base_dense(5, 4), 0.5, 11);
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
        let w = CompensatedDense::wrap(base_dense(10, 8), 0.25, 7);
        assert_eq!(w.generator_filters(), 2);
        // gen: 2×18+2, comp: 8×10+8.
        assert_eq!(w.compensation_weight_count(), 2 * 18 + 2 + 8 * 10 + 8);
        // Total includes the base.
        assert_eq!(w.weight_count(), 10 * 8 + 8 + w.compensation_weight_count());
    }

    #[test]
    fn noise_forwards_to_base_only() {
        let mut w = CompensatedDense::wrap(base_dense(4, 3), 1.0, 8);
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
        let w = CompensatedDense::wrap(base_dense(10, 8), 0.25, 10);
        let (analog, digital) = w.macs(&[1, 10], &[1, 8]);
        assert_eq!(analog, 80);
        assert_eq!(digital, 2 * 18 + 8 * 10);
    }
}
