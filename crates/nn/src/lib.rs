//! # cn-nn
//!
//! A compact neural-network framework with manual backpropagation, built on
//! [`cn_tensor`], providing everything the CorrectNet reproduction trains:
//!
//! - layers with cached-activation backward passes ([`layers`]): dense,
//!   conv2d, ReLU, max/avg pooling, flatten, dropout, batch norm,
//! - fused softmax–cross-entropy loss ([`loss`]),
//! - SGD with momentum and Adam ([`optim`]),
//! - a [`Sequential`] container with state-dict serialization,
//! - **weight-noise hooks**: every analog layer accepts a multiplicative
//!   noise mask (the paper's `e^θ` factors) applied consistently in forward
//!   and backward passes ([`noise`]), plus per-parameter freeze flags used
//!   when training compensators against a fixed base network,
//! - a model zoo with faithful LeNet-5 and VGG16 topologies ([`zoo`]),
//! - a training loop with regularizer and per-batch hooks ([`trainer`]),
//! - an immutable inference path ([`Sequential::infer_with`]) through
//!   reusable ping-pong scratch ([`InferScratch`]) — the substrate the
//!   engine layer's compiled deployments execute on.
//!
//! Every layer's gradients are validated against numeric differentiation in
//! the test suite (see [`gradcheck`]).
//!
//! # Example
//!
//! ```
//! use cn_nn::layers::{Dense, Relu};
//! use cn_nn::{Sequential, loss::softmax_cross_entropy};
//! use cn_tensor::SeededRng;
//!
//! let mut rng = SeededRng::new(0);
//! let mut model = Sequential::new(vec![
//!     Box::new(Dense::new(4, 8, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Dense::new(8, 3, &mut rng)),
//! ]);
//! let x = rng.normal_tensor(&[2, 4], 0.0, 1.0);
//! let logits = model.forward(&x, true);
//! let (loss, grad) = softmax_cross_entropy(&logits, &[0, 2]);
//! model.backward(&grad);
//! assert!(loss > 0.0);
//! ```

#![warn(missing_docs)]

pub mod gradcheck;
pub mod init;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod noise;
pub mod optim;
pub mod param;
pub mod summary;
pub mod trainer;
pub mod zoo;

pub use layer::Layer;
pub use model::{InferScratch, Sequential};
pub use param::Param;
