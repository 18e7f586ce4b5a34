//! Flattening between convolutional and dense stages.

use crate::layer::Layer;
use cn_tensor::ops::Activation;
use cn_tensor::Tensor;

/// Flattens `[N, C, H, W]` (or any rank ≥ 2) into `[N, C·H·W]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cache_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cache_dims: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        "flatten"
    }

    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        assert!(x.rank() >= 2, "Flatten expects rank >= 2");
        self.cache_dims = Some(x.dims().to_vec());
        self.infer(x)
    }

    fn infer_into(&self, x: &Tensor, act: Activation, out: &mut Tensor) {
        assert!(x.rank() >= 2, "Flatten expects rank >= 2");
        let n = x.dims()[0];
        let rest: usize = x.dims()[1..].iter().product();
        out.resize_in_place(&[n, rest]);
        out.data_mut().copy_from_slice(x.data());
        super::activate_in_place(out, act);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dims = self
            .cache_dims
            .take()
            .expect("Flatten::backward called before forward");
        grad_out.reshape(&dims)
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
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::arange(24).into_reshaped(&[2, 3, 2, 2]);
        let y = f.forward(&x, false);
        assert_eq!(y.dims(), &[2, 12]);
        let gx = f.backward(&y);
        assert_eq!(gx, x);
    }
}
