//! # correctnet
//!
//! The paper's primary contribution: **error suppression** via modified
//! Lipschitz-constant regularization and **error compensation** via light
//! digital generator/compensator modules, for neural networks deployed on
//! analog in-memory computing accelerators.
//!
//! - [`lipschitz`] — the λ formula (paper eq. 10) bounding the log-normal
//!   variation factor, the orthogonality regularizer added to the training
//!   loss (eq. 11) and per-layer spectral-norm reporting.
//! - [`compensation`] — the generator/compensator wrapper around
//!   convolutional and dense layers (paper Fig. 5), weight-overhead
//!   accounting and compensator training with per-batch variation
//!   resampling (Sec. III-B).
//! - [`candidates`] — the 95 %-rule candidate-layer selection driven by
//!   suffix-variation Monte-Carlo sweeps (Sec. III-B / Fig. 9).
//! - [`pipeline`] — composable stages: Lipschitz base training, candidate
//!   selection, compensated-model construction/training and Monte-Carlo
//!   evaluation on the `cn_analog::engine` compile/execute engine. (The RL
//!   placement search lives in `cn-rl`, which builds on these stages.)
//!
//! # Example
//!
//! ```
//! use correctnet::lipschitz::lambda_for;
//!
//! // Paper eq. 10 at k = 1, σ = 0.5: λ ≈ 0.34.
//! let lambda = lambda_for(1.0, 0.5);
//! assert!((lambda - 0.34).abs() < 0.01);
//! ```

#![warn(missing_docs)]

pub mod candidates;
pub mod compensation;
pub mod export;
pub mod lipschitz;
pub mod pipeline;
pub mod report;

pub use candidates::{select_candidates, CandidateReport};
pub use compensation::{apply_compensation, CompensationPlan};
pub use lipschitz::{lambda_for, LipschitzRegularizer};
pub use pipeline::{CorrectNetConfig, CorrectNetStages};
