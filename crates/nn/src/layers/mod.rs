//! Concrete layers.

pub mod activation;
pub mod batchnorm;
pub mod conv2d;
pub mod dense;
pub mod dropout;
pub mod flatten;
pub mod pool;
pub mod relu;

pub use activation::{Sigmoid, Tanh};
pub use batchnorm::BatchNorm2d;
pub use conv2d::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use pool::{AvgPool2d, MaxPool2d};
pub use relu::Relu;

use cn_tensor::ops::Activation;
use cn_tensor::Tensor;

/// Applies `act` to `out` in place: the output stage of layers whose
/// kernel has no fused epilogue. `Relu` is the exact `v.max(0.0)` of a
/// separate [`Relu`] layer, so the result stays bitwise identical to
/// running one.
pub(crate) fn activate_in_place(out: &mut Tensor, act: Activation) {
    if act == Activation::Relu {
        for v in out.data_mut() {
            *v = v.max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{assert_infer_into_contract, Layer};
    use cn_tensor::SeededRng;

    #[test]
    fn every_layer_meets_the_infer_into_contract() {
        let mut rng = SeededRng::new(1);
        let image = [2, 3, 6, 6];
        let mut bn = BatchNorm2d::new(3);
        bn.forward(&rng.normal_tensor(&image, 1.0, 2.0), true);
        let shape_free: Vec<Box<dyn Layer>> = vec![
            Box::new(Relu::new()),
            Box::new(Dropout::new(0.5, 3)),
            Box::new(Sigmoid::new()),
            Box::new(Tanh::new()),
        ];
        for layer in &shape_free {
            assert_infer_into_contract(layer.as_ref(), &image, 2);
            assert_infer_into_contract(layer.as_ref(), &[3, 5], 4);
        }
        let spatial: Vec<Box<dyn Layer>> = vec![
            Box::new(MaxPool2d::new(2)),
            Box::new(AvgPool2d::new(2)),
            Box::new(Flatten::new()),
            Box::new(bn),
        ];
        for layer in &spatial {
            assert_infer_into_contract(layer.as_ref(), &image, 2);
        }

        // Matrix layers: unpacked (pack-per-call, and Dense's skinny
        // product below MR rows), then deployed with packed panels.
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng);
        let mut dense = Dense::new(5, 4, &mut rng);
        for _ in 0..2 {
            assert_infer_into_contract(&conv, &image, 2);
            for rows in [3, 11] {
                assert_infer_into_contract(&dense, &[rows, 5], 5);
            }
            conv.pack_weights();
            dense.pack_weights();
        }
    }
}
