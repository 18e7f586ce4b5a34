//! # cn-tensor
//!
//! Dense `f32` tensor library underpinning the CorrectNet reproduction.
//!
//! The crate provides exactly what a from-scratch CNN training stack and an
//! RRAM crossbar simulator need, and nothing more:
//!
//! - an owned, contiguous, row-major [`Tensor`] with shape/stride bookkeeping,
//! - elementwise and broadcast arithmetic ([`ops`]),
//! - packed, register-tiled, multi-threaded matrix multiplication with
//!   fused bias/ReLU epilogues and reusable pre-packed weight panels
//!   ([`ops::gemm`]; [`ops::matmul`] holds the `Tensor` entry points),
//! - the convolution kernel (im2col fused into GEMM panel packing),
//!   `im2col`/`col2im` for the backward pass, and pooling kernels,
//! - the linear algebra needed by Lipschitz-constant regularization
//!   (power iteration, Gram matrices, orthogonality penalties — [`linalg`]),
//! - seeded random sampling including Box–Muller normal and log-normal
//!   variates ([`rng`]) used by the variation models of the paper,
//! - a compact binary serialization format for tensors and state dicts
//!   ([`io`]).
//!
//! # Example
//!
//! ```
//! use cn_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod error;
pub mod hash;
pub mod io;
pub mod linalg;
pub mod ops;
pub mod parallel;
pub mod rng;
pub mod shape;
pub mod tensor;

pub use error::{Result, TensorError};
pub use rng::SeededRng;
pub use shape::Shape;
pub use tensor::Tensor;
