//! Compile/execute inference engine.
//!
//! Analog accelerators do not mutate a model per query — they *program*
//! weights onto a fixed crossbar substrate once and then execute many
//! inferences against that deployment (the accuracy-simulator architecture
//! of Xiao et al. and Wan et al.). This module gives the repo the same
//! shape, replacing the historic mutate-in-place evaluation:
//!
//! 1. **Compile** — [`EngineBuilder`] samples a deployment from a
//!    [`Backend`] (exact [`DigitalBackend`], [`AnalogBackend`] over any
//!    [`DeploymentMode`](crate::DeploymentMode) from weight-level
//!    log-normal to conductance-level tiled crossbars, or a custom
//!    implementation) and freezes it as an immutable [`CompiledModel`]
//!    (`Send + Sync`, shareable via `Arc`; variation masks are baked into
//!    the weights).
//! 2. **Execute** — each [`Session`] owns reusable scratch (ping-pong
//!    activations, a batch tensor, a prediction buffer) and runs batched
//!    inference (`infer_batch` / `logits_batch` / `evaluate`) against a
//!    compiled snapshot with no per-call model cloning, weight
//!    re-deployment or, once warm, heap allocation.
//!
//! [`monte_carlo`] runs the paper's 250-sample evaluation protocol as N
//! compiled instances executed through per-worker sessions, configured by
//! [`McConfig`] and summarised in an [`McResult`].
//!
//! ```
//! use cn_analog::engine::{AnalogBackend, EngineBuilder, Session};
//! use cn_data::synthetic_mnist;
//! use cn_nn::zoo::{lenet5, LeNetConfig};
//!
//! let data = synthetic_mnist(16, 16, 0);
//! let model = lenet5(&LeNetConfig::mnist(1));
//!
//! // Compile once: weights + sampled variations frozen into a snapshot.
//! let compiled = EngineBuilder::new(&model)
//!     .backend(AnalogBackend::lognormal(0.3))
//!     .seed(42)
//!     .compile()
//!     .shared();
//!
//! // Execute many times: sessions share the snapshot, own their scratch.
//! let mut session = Session::new(compiled);
//! let preds = session.infer_batch(&data.test.images).to_vec();
//! assert_eq!(preds.len(), 16);
//! assert!(session.evaluate(&data.test, 8) >= 0.0);
//! ```

mod backend;
mod compiled;
mod mc;
mod session;

pub use backend::{AnalogBackend, Backend, DigitalBackend, DriftBackend, MaskPlan};
pub use compiled::{CompiledModel, EngineBuilder};
pub use mc::{monte_carlo, McConfig, McResult};
pub use session::Session;

#[cfg(test)]
mod tests {
    use super::*;
    use cn_data::synthetic_mnist;
    use cn_nn::zoo::{lenet5, LeNetConfig};

    /// At σ = 0 every log-normal factor is exactly `e^0 = 1`, so an
    /// analog deployment's logits equal the digital reference bit for bit.
    #[test]
    fn sessions_under_sigma_zero_match_digital() {
        let model = lenet5(&LeNetConfig::mnist(3));
        let data = synthetic_mnist(8, 8, 5);
        let analog = EngineBuilder::new(&model)
            .backend(AnalogBackend::lognormal(0.0))
            .seed(4)
            .compile();
        let mut analog = Session::new(analog.shared());
        let mut digital = Session::new(EngineBuilder::new(&model).compile().shared());
        assert_eq!(
            analog.logits_batch(&data.test.images),
            digital.logits_batch(&data.test.images)
        );
    }
}
