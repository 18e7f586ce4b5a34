//! The backend-abstracted inference engine, as CorrectNet uses it.
//!
//! The compile/execute machinery lives in [`cn_analog::engine`] (backends
//! need the crossbar substrate); this module is the pipeline-facing
//! subsystem: it re-exports the full engine API and binds it to
//! [`CorrectNetConfig`] so every pipeline stage, baseline and experiment
//! evaluates deployments the same way.
//!
//! - **Compile**: [`EngineBuilder`] → [`CompiledModel`] — an immutable
//!   `Send + Sync` snapshot of one deployment (weights ⊙ sampled
//!   variation plan, baked at compile time), shareable via `Arc`.
//! - **Execute**: [`Session`] — owns reusable scratch buffers, exposes
//!   `infer_batch` / `logits_batch` / `evaluate` with no per-call model
//!   cloning or weight re-deployment.
//! - **Evaluate**: [`monte_carlo`] — the paper's N-sample protocol as N
//!   compiled instances executed through sessions.
//!
//! ```
//! use correctnet::engine::{deployment_backend, monte_carlo, session_for};
//! use correctnet::pipeline::CorrectNetConfig;
//! use cn_data::synthetic_mnist;
//! use cn_nn::zoo::{lenet5, LeNetConfig};
//!
//! let data = synthetic_mnist(16, 16, 0);
//! let model = lenet5(&LeNetConfig::mnist(1));
//! let config = CorrectNetConfig::quick(0.5, 42);
//!
//! // The paper's deployment model at the pipeline's σ, as a backend…
//! let mc = monte_carlo(&model, &data.test, &config.mc(), &deployment_backend(&config));
//! assert_eq!(mc.accuracies.len(), config.mc_samples);
//!
//! // …or a single compiled deployment served through a session.
//! let mut session = session_for(&model, &config);
//! assert_eq!(session.infer_batch(&data.test.images).len(), 16);
//! ```

use crate::pipeline::CorrectNetConfig;
use cn_nn::Sequential;

pub use cn_analog::engine::{
    monte_carlo, AnalogBackend, Backend, CompiledModel, DigitalBackend, DriftBackend,
    EngineBuilder, MaskPlan, McConfig, McResult, Session,
};

/// The paper's deployment model at the pipeline's variation level: a
/// weight-level log-normal [`AnalogBackend`] at `config.sigma`.
pub fn deployment_backend(config: &CorrectNetConfig) -> AnalogBackend {
    AnalogBackend::lognormal(config.sigma)
}

/// Compiles one deployment of `model` under the pipeline's variation
/// model, seeded like the pipeline's Monte-Carlo stream (instance 0).
pub fn compile_for(model: &Sequential, config: &CorrectNetConfig) -> CompiledModel {
    EngineBuilder::new(model)
        .backend(deployment_backend(config))
        .seed(config.mc().seed)
        .compile()
}

/// Opens a session on a freshly compiled deployment of `model` under the
/// pipeline's variation model.
pub fn session_for(model: &Sequential, config: &CorrectNetConfig) -> Session {
    Session::new(compile_for(model, config).shared())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_data::synthetic_mnist;
    use cn_nn::zoo::{lenet5, LeNetConfig};

    #[test]
    fn compile_for_is_deterministic_in_the_config_seed() {
        let model = lenet5(&LeNetConfig::mnist(1));
        let config = CorrectNetConfig::quick(0.5, 9);
        let data = synthetic_mnist(8, 8, 2);
        let a = compile_for(&model, &config).infer(&data.test.images);
        let b = compile_for(&model, &config).infer(&data.test.images);
        assert_eq!(a, b);
    }

    #[test]
    fn sessions_under_sigma_zero_match_digital() {
        let model = lenet5(&LeNetConfig::mnist(3));
        let config = CorrectNetConfig::quick(0.0, 4);
        let data = synthetic_mnist(8, 8, 5);
        let mut analog = session_for(&model, &config);
        let mut digital = Session::new(EngineBuilder::new(&model).compile().shared());
        assert_eq!(
            analog.logits_batch(&data.test.images),
            digital.logits_batch(&data.test.images)
        );
    }
}
