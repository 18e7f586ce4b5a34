//! Pooling layers.

use crate::layer::Layer;
use cn_tensor::ops::{
    avg_pool2d, avg_pool2d_backward, avg_pool2d_into, max_pool2d, max_pool2d_backward,
    max_pool2d_into, Activation, PoolGeometry,
};
use cn_tensor::Tensor;

/// Max pooling over square windows (used by VGG16).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    geo: PoolGeometry,
    cache: Option<(Vec<u32>, Vec<usize>)>,
}

impl MaxPool2d {
    /// Creates a non-overlapping max-pool with the given window size.
    pub fn new(kernel: usize) -> Self {
        MaxPool2d {
            geo: PoolGeometry::square(kernel),
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        "maxpool"
    }

    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let (y, arg) = max_pool2d(x, self.geo);
        self.cache = Some((arg, x.dims().to_vec()));
        y
    }

    fn infer_into(&self, x: &Tensor, act: Activation, out: &mut Tensor) {
        max_pool2d_into(x, self.geo, out);
        super::activate_in_place(out, act);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (arg, in_dims) = self
            .cache
            .take()
            .expect("MaxPool2d::backward called before forward");
        max_pool2d_backward(grad_out, &arg, &in_dims)
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

/// Average pooling over square windows (used by LeNet-5).
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    geo: PoolGeometry,
    cache_in_dims: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates a non-overlapping average-pool with the given window size.
    pub fn new(kernel: usize) -> Self {
        AvgPool2d {
            geo: PoolGeometry::square(kernel),
            cache_in_dims: None,
        }
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> &str {
        "avgpool"
    }

    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.cache_in_dims = Some(x.dims().to_vec());
        avg_pool2d(x, self.geo)
    }

    fn infer_into(&self, x: &Tensor, act: Activation, out: &mut Tensor) {
        avg_pool2d_into(x, self.geo, out);
        super::activate_in_place(out, act);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let in_dims = self
            .cache_in_dims
            .take()
            .expect("AvgPool2d::backward called before forward");
        avg_pool2d_backward(grad_out, self.geo, &in_dims)
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
    use cn_tensor::SeededRng;

    #[test]
    fn max_pool_layer_roundtrip() {
        let mut rng = SeededRng::new(1);
        let mut layer = MaxPool2d::new(2);
        let x = rng.normal_tensor(&[2, 3, 4, 4], 0.0, 1.0);
        let y = layer.forward(&x, true);
        assert_eq!(y.dims(), &[2, 3, 2, 2]);
        let gx = layer.backward(&Tensor::ones(y.dims()));
        assert_eq!(gx.dims(), x.dims());
        // Exactly one input per window receives the gradient.
        assert_eq!(gx.sum(), y.numel() as f32);
    }

    #[test]
    fn avg_pool_layer_roundtrip() {
        let mut rng = SeededRng::new(2);
        let mut layer = AvgPool2d::new(2);
        let x = rng.normal_tensor(&[1, 2, 6, 6], 0.0, 1.0);
        let y = layer.forward(&x, true);
        assert_eq!(y.dims(), &[1, 2, 3, 3]);
        let gx = layer.backward(&Tensor::ones(y.dims()));
        // Gradient is uniformly 1/k² everywhere.
        assert!(gx.data().iter().all(|&g| (g - 0.25).abs() < 1e-6));
    }

    #[test]
    fn pooling_layers_have_no_params() {
        assert_eq!(MaxPool2d::new(2).weight_count(), 0);
        assert_eq!(AvgPool2d::new(2).weight_count(), 0);
    }
}
