//! ReLU activation.

use crate::layer::Layer;
use cn_tensor::ops::Activation;
use cn_tensor::Tensor;

/// Rectified linear unit, `y = max(x, 0)`.
///
/// ReLU is 1-Lipschitz (paper Sec. III-A: "the ReLU function does not
/// amplify any deviations"), so it takes no part in the Lipschitz
/// regularization — only the preceding linear operator is constrained.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        "relu"
    }

    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.mask = Some(x.data().iter().map(|&v| v > 0.0).collect());
        x.map(|v| v.max(0.0))
    }

    fn infer_into(&self, x: &Tensor, act: Activation, out: &mut Tensor) {
        out.resize_in_place(x.dims());
        for (o, &v) in out.data_mut().iter_mut().zip(x.data()) {
            *o = v.max(0.0);
        }
        super::activate_in_place(out, act);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .mask
            .take()
            .expect("Relu::backward called before forward");
        assert_eq!(mask.len(), grad_out.numel(), "gradient shape mismatch");
        let mut g = grad_out.clone();
        for (v, &keep) in g.data_mut().iter_mut().zip(mask.iter()) {
            if !keep {
                *v = 0.0;
            }
        }
        g
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
    fn forward_clips_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        let y = relu.forward(&x, false);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0, -0.5, 2.0], &[4]);
        let _ = relu.forward(&x, true);
        let g = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[4]);
        let gx = relu.backward(&g);
        assert_eq!(gx.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_is_1_lipschitz() {
        let mut relu = Relu::new();
        let a = Tensor::from_vec(vec![-2.0, 0.5, 1.0], &[3]);
        let b = Tensor::from_vec(vec![-1.0, 0.7, -1.0], &[3]);
        let ya = relu.forward(&a, false);
        let yb = relu.forward(&b, false);
        let out_dist = (&ya - &yb).norm();
        let in_dist = (&a - &b).norm();
        assert!(out_dist <= in_dist + 1e-6);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        Relu::new().backward(&Tensor::zeros(&[1]));
    }
}
