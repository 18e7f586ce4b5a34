//! Additional activations (sigmoid, tanh).
//!
//! Both are 1-Lipschitz (sigmoid is even 1/4-Lipschitz), so like ReLU they
//! never amplify propagated errors and take no part in the Lipschitz
//! regularization of the linear operators.

use crate::layer::Layer;
use cn_tensor::ops::Activation;
use cn_tensor::Tensor;

/// Logistic sigmoid activation `y = 1/(1+e^{−x})`.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    cache_y: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid { cache_y: None }
    }
}

impl Layer for Sigmoid {
    fn name(&self) -> &str {
        "sigmoid"
    }

    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let y = x.sigmoid();
        self.cache_y = Some(y.clone());
        y
    }

    fn infer_into(&self, x: &Tensor, act: Activation, out: &mut Tensor) {
        *out = x.sigmoid();
        super::activate_in_place(out, act);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self
            .cache_y
            .take()
            .expect("Sigmoid::backward called before forward");
        grad_out.zip_map(&y, |g, yv| g * yv * (1.0 - yv))
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

/// Hyperbolic tangent activation.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    cache_y: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Tanh { cache_y: None }
    }
}

impl Layer for Tanh {
    fn name(&self) -> &str {
        "tanh"
    }

    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let y = x.tanh();
        self.cache_y = Some(y.clone());
        y
    }

    fn infer_into(&self, x: &Tensor, act: Activation, out: &mut Tensor) {
        *out = x.tanh();
        super::activate_in_place(out, act);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self
            .cache_y
            .take()
            .expect("Tanh::backward called before forward");
        grad_out.zip_map(&y, |g, yv| g * (1.0 - yv * yv))
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
    use crate::gradcheck::check_layer;

    #[test]
    fn sigmoid_values() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![0.0, 100.0, -100.0], &[3]);
        let y = s.forward(&x, false);
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        assert!(y.data()[1] > 0.999);
        assert!(y.data()[2] < 0.001);
    }

    #[test]
    fn tanh_values() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(vec![0.0, 10.0, -10.0], &[3]);
        let y = t.forward(&x, false);
        assert_eq!(y.data()[0], 0.0);
        assert!(y.data()[1] > 0.999);
        assert!(y.data()[2] < -0.999);
    }

    #[test]
    fn sigmoid_gradcheck() {
        let mut s = Sigmoid::new();
        let r = check_layer(&mut s, &[3, 5], 1, 1e-2, true);
        assert!(r.passes(1e-2), "{r:?}");
    }

    #[test]
    fn tanh_gradcheck() {
        let mut t = Tanh::new();
        let r = check_layer(&mut t, &[3, 5], 2, 1e-2, true);
        assert!(r.passes(1e-2), "{r:?}");
    }

    #[test]
    fn both_are_1_lipschitz() {
        let a = Tensor::from_vec(vec![-1.0, 0.3, 2.0], &[3]);
        let b = Tensor::from_vec(vec![0.5, -0.7, 1.0], &[3]);
        let in_dist = (&a - &b).norm();
        let mut s = Sigmoid::new();
        let ds = (&s.forward(&a, false) - &s.forward(&b, false)).norm();
        assert!(ds <= in_dist + 1e-6);
        let mut t = Tanh::new();
        let dt = (&t.forward(&a, false) - &t.forward(&b, false)).norm();
        assert!(dt <= in_dist + 1e-6);
    }
}
