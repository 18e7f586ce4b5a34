//! Inverted dropout.

use crate::layer::Layer;
use cn_tensor::ops::Activation;
use cn_tensor::{SeededRng, Tensor};

/// Inverted dropout: at train time each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1−p)`; at eval time the
/// layer is the identity.
///
/// The layer derives a fresh deterministic mask per forward call from its
/// construction seed and an internal counter, so cloned models (e.g. for
/// parallel Monte-Carlo evaluation) replay identical dropout streams.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    seed: u64,
    calls: u64,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0, 1)");
        Dropout {
            p,
            seed,
            calls: 0,
            mask: None,
        }
    }

    /// Drop probability.
    pub fn rate(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn name(&self) -> &str {
        "dropout"
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            self.mask = None;
            return x.clone();
        }
        // Stream-split the construction seed per call. The previous
        // XOR-mix (`seed ^ calls * K`) produced colliding streams across
        // layers whose seeds differ by a multiple of the mixing constant.
        let mut rng = SeededRng::new(self.seed).fork(self.calls);
        self.calls += 1;
        let keep = 1.0 - self.p;
        let mut mask = Tensor::zeros(x.dims());
        for m in mask.data_mut() {
            *m = if rng.bernoulli(keep) { 1.0 / keep } else { 0.0 };
        }
        let y = x.zip_map(&mask, |v, m| v * m);
        self.mask = Some(mask);
        y
    }

    fn infer_into(&self, x: &Tensor, act: Activation, out: &mut Tensor) {
        out.resize_in_place(x.dims());
        out.data_mut().copy_from_slice(x.data());
        super::activate_in_place(out, act);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self.mask.take() {
            Some(mask) => grad_out.zip_map(&mask, |g, m| g * m),
            None => grad_out.clone(),
        }
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
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::ones(&[4, 4]);
        assert_eq!(d.forward(&x, false), x);
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut d = Dropout::new(0.5, 2);
        let x = Tensor::ones(&[100, 100]);
        let y = d.forward(&x, true);
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Survivors are scaled by 2.
        assert!(y.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.3, 3);
        let x = Tensor::ones(&[10, 10]);
        let y = d.forward(&x, true);
        let g = d.backward(&Tensor::ones(&[10, 10]));
        // Zeros line up between forward output and backward gradient.
        for (a, b) in y.data().iter().zip(g.data().iter()) {
            assert_eq!(*a == 0.0, *b == 0.0);
        }
    }

    #[test]
    fn masks_change_between_calls() {
        let mut d = Dropout::new(0.5, 4);
        let x = Tensor::ones(&[8, 8]);
        let a = d.forward(&x, true);
        let b = d.forward(&x, true);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_rate_is_identity_even_in_train() {
        let mut d = Dropout::new(0.0, 5);
        let x = Tensor::ones(&[3, 3]);
        assert_eq!(d.forward(&x, true), x);
    }

    /// Regression: the old `seed ^ calls * 0x9E37_79B9` derivation made
    /// layer seed 0 at call 1 replay the exact stream of layer seed
    /// `0x9E37_79B9` at call 0 (and every analogous collision). Fork-based
    /// stream splitting must keep such layers decorrelated.
    #[test]
    fn xor_colliding_seeds_produce_distinct_masks() {
        let x = Tensor::ones(&[16, 16]);
        let mut a = Dropout::new(0.5, 0);
        a.forward(&x, true); // advance to call index 1
        let second_call = a.forward(&x, true);
        let mut b = Dropout::new(0.5, 0x9E37_79B9);
        let first_call = b.forward(&x, true);
        assert_ne!(second_call, first_call);
    }

    #[test]
    fn cloned_layers_replay_identical_streams() {
        let x = Tensor::ones(&[8, 8]);
        let mut a = Dropout::new(0.4, 7);
        a.forward(&x, true);
        let mut b = a.clone();
        assert_eq!(a.forward(&x, true), b.forward(&x, true));
    }
}
