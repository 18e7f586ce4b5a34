//! # cn-analog
//!
//! RRAM device models for analog in-memory computing
//! (paper Fig. 1), plus the Monte-Carlo deployment machinery every
//! CorrectNet experiment runs on.
//!
//! Two fidelity levels are provided:
//!
//! - **Weight-level** variation (the model the paper evaluates with,
//!   eq. 1–2): every weight is multiplied by an independent log-normal
//!   factor `e^θ`.
//! - **Conductance-level** variation ([`DeploymentMode::Conductance`]):
//!   each weight is programmed as a differential RRAM conductance pair
//!   `w = α·(G⁺ − G⁻)` with a per-tile scale, programming variation and
//!   optional multi-level quantization ([`cell`]). The ideal limit
//!   reproduces the weight-level model.
//!
//! Either way the paper's Fig. 1 crossbar MAC runs as the engine's
//! dense/conv kernels over weights baked with the drawn masks; stuck-at
//! faults ([`faults`]), retention drift ([`drift`]) and IR drop
//! ([`irdrop`]) compose with the weight-level model.
//!
//! [`DeploymentMode::mask_plan`] is the one routine that draws a
//! deployment, at either level and with the stuck-at, drift and IR-drop
//! variants, as one multiplicative mask per analog layer;
//! [`cn_nn::Sequential::install_noise`] installs such a plan.
//!
//! The [`engine`] layer turns all of this into a compile/execute split:
//! a [`Backend`] samples one deployment of a trained
//! [`cn_nn::Sequential`], frozen as an immutable [`CompiledModel`] that
//! [`Session`]s execute batched inference against.
//! [`engine::monte_carlo`] runs the paper's N-sample accuracy protocol
//! (mean/std the paper plots as solid lines and ranges in its Figs. 2
//! and 7) on that API. [`energy`] provides a
//! coarse energy/latency model backing the "negligible hardware cost"
//! claim of Table I.
//!
//! # Example
//!
//! ```
//! use cn_analog::engine::{monte_carlo, AnalogBackend, McConfig};
//! use cn_data::synthetic_mnist;
//! use cn_nn::zoo::{lenet5, LeNetConfig};
//!
//! let data = synthetic_mnist(32, 32, 0);
//! let model = lenet5(&LeNetConfig::mnist(1));
//! let cfg = McConfig::new(4, 0.3, 7);
//! let result = monte_carlo(&model, &data.test, &cfg, &AnalogBackend::lognormal(0.3));
//! assert_eq!(result.accuracies.len(), 4);
//! ```

#![warn(missing_docs)]

pub mod cell;
pub mod deployment;
pub mod drift;
pub mod energy;
pub mod engine;
pub mod faults;
pub mod irdrop;
mod mapping;

/// The Monte-Carlo protocol's configuration and result types under their
/// original path; they live in [`engine`].
pub mod montecarlo {
    pub use crate::engine::{McConfig, McResult};
}

pub use cell::CellSpec;
pub use deployment::DeploymentMode;
pub use engine::{
    monte_carlo, AnalogBackend, Backend, CompiledModel, DigitalBackend, EngineBuilder, McConfig,
    McResult, Session,
};
