//! Tensor operations: elementwise arithmetic, packed register-tiled
//! matrix multiplication and the convolution kernels ([`gemm`]),
//! reductions, the `im2col`/`col2im` reference lowering, pooling and
//! padding.

pub mod axis;
pub mod concat;
pub mod elementwise;
pub mod gemm;
pub mod im2col;
pub mod matmul;
pub mod pad;
pub mod pool;
pub mod reduce;

pub use concat::{concat_channels, split_channels};
pub use elementwise::{broadcast_zip, reduce_to_suffix};
pub use gemm::{
    conv2d_backward, conv2d_into, gemm_bias_act, gemm_bias_act_into, gemm_into, Activation,
    Epilogue, Layout, PackedA, PackedB,
};
pub use im2col::{col2im, conv_out_dim, im2col, nchw_to_rows, rows_to_nchw, Conv2dGeometry};
pub use pad::{pad_nchw, unpad_nchw};
pub use pool::{
    avg_pool2d, avg_pool2d_backward, avg_pool2d_into, avg_pool_to, avg_pool_to_backward,
    max_pool2d, max_pool2d_backward, max_pool2d_into, PoolGeometry,
};
