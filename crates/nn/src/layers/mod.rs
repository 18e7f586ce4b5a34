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

use cn_tensor::ops::gemm::{gemm_bias_act_into, MR};
use cn_tensor::ops::{gemm_bias_act, Activation, Layout, PackedB};
use cn_tensor::Tensor;

/// `Dense`'s `act(x·Wᵀ_eff + bias)` dispatch:
///
/// 1. pre-packed panels when the layer was deployed via `pack_weights`,
/// 2. a direct skinny product when `x` has fewer than `MR` rows (the
///    `O(k·n)` pack would cost more than the product saves),
/// 3. pack-per-call through the fused GEMM otherwise.
///
/// All three branches are bitwise identical (see the GEMM kernel docs);
/// `w_eff` is only materialized when no pre-packed panels exist.
pub(crate) fn matrix_infer_act(
    x: &Tensor,
    packed: Option<&PackedB>,
    w_eff: impl FnOnce() -> Tensor,
    bias: &Tensor,
    act: Activation,
) -> Tensor {
    if let Some(packed) = packed {
        return gemm_bias_act(x, Layout::RowMajor, packed, Some(bias), act);
    }
    let w_eff = w_eff();
    if x.dims()[0] < MR {
        let y = &x.matmul_t(&w_eff) + bias;
        return match act {
            Activation::Identity => y,
            Activation::Relu => y.map(|v| v.max(0.0)),
        };
    }
    let packed = PackedB::from_tensor(&w_eff, Layout::Transposed);
    gemm_bias_act(x, Layout::RowMajor, &packed, Some(bias), act)
}

/// Allocation-free sibling of [`matrix_infer_act`] for deployed layers:
/// only the pre-packed branch exists here (a compiled deployment always
/// packs), writing into the recycled `out` tensor. Returns `false` when
/// the layer is unpacked so the caller falls back to the allocating
/// path. Bitwise identical to [`matrix_infer_act`] — same kernel, same
/// epilogue.
pub(crate) fn matrix_infer_act_into(
    x: &Tensor,
    packed: Option<&PackedB>,
    bias: &Tensor,
    act: Activation,
    out: &mut Tensor,
) -> bool {
    match packed {
        Some(packed) => {
            gemm_bias_act_into(out, x, Layout::RowMajor, packed, Some(bias), act);
            true
        }
        None => false,
    }
}
