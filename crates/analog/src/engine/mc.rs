//! Monte-Carlo evaluation re-expressed as compiled instances + sessions.

use super::backend::Backend;
use super::compiled::CompiledModel;
use super::session::Session;
use crate::montecarlo::{McConfig, McResult};
use cn_data::Dataset;
use cn_tensor::parallel::{num_threads, parallel_chunks_mut};
use cn_tensor::SeededRng;
use std::sync::Arc;

/// The single Monte-Carlo entry point: compiles `cfg.samples` deployment
/// instances of `model` on `backend` and measures each one's test
/// accuracy through a session.
///
/// Sample `i` draws from the independent RNG stream
/// `SeededRng::new(cfg.seed).fork(i)`, so results are deterministic in
/// `cfg.seed` and independent of the worker thread count. Samples fan
/// out over [`parallel_chunks_mut`] workers; each keeps one [`Session`]
/// and rebinds it per instance, so its batch tensor and ping-pong
/// activation scratch are allocated once per worker, not per sample. This reproduces the results of the
/// removed legacy `mc_accuracy` / `mc_accuracy_mode` /
/// `mc_accuracy_from_layer` / `mc_with` free functions bit for bit
/// (pair this entry point with the matching backend).
///
/// ```
/// use cn_analog::engine::{monte_carlo, AnalogBackend};
/// use cn_analog::montecarlo::McConfig;
/// use cn_data::synthetic_mnist;
/// use cn_nn::zoo::{lenet5, LeNetConfig};
///
/// let data = synthetic_mnist(16, 16, 0);
/// let model = lenet5(&LeNetConfig::mnist(1));
/// let cfg = McConfig::new(3, 0.4, 7);
/// let a = monte_carlo(&model, &data.test, &cfg, &AnalogBackend::lognormal(cfg.sigma));
/// let b = monte_carlo(&model, &data.test, &cfg, &AnalogBackend::lognormal(cfg.sigma));
/// assert_eq!(a.accuracies, b.accuracies);
/// assert_eq!(a.accuracies.len(), 3);
/// ```
///
/// # Panics
///
/// Panics if `cfg.samples` is zero.
pub fn monte_carlo(
    model: &cn_nn::Sequential,
    data: &Dataset,
    cfg: &McConfig,
    backend: &dyn Backend,
) -> McResult {
    assert!(cfg.samples > 0, "need at least one Monte-Carlo sample");
    let nominal = Arc::new(model.clone());
    // One contiguous block of samples per worker, each worker keeping one
    // session across its block. Kernels called from the workers run
    // inline (`cn_tensor::parallel` is one level deep).
    let per_worker = cfg.samples.div_ceil(num_threads());
    let mut results = vec![0.0f32; cfg.samples];
    parallel_chunks_mut(&mut results, per_worker, |block, slots| {
        let mut session: Option<Session> = None;
        for (j, slot) in slots.iter_mut().enumerate() {
            let i = block * per_worker + j;
            let mut rng = SeededRng::new(cfg.seed).fork(i as u64);
            let compiled = CompiledModel::compile_shared(&nominal, backend, &mut rng).shared();
            let session = match &mut session {
                Some(s) => {
                    s.rebind(compiled);
                    s
                }
                none => none.insert(Session::new(compiled)),
            };
            *slot = session.evaluate(data, cfg.batch_size);
        }
    });
    McResult::from_accuracies(results)
}

#[cfg(test)]
mod tests {
    use super::super::{AnalogBackend, DigitalBackend, EngineBuilder};
    use super::*;
    use cn_data::synthetic_mnist;
    use cn_nn::zoo::{lenet5, LeNetConfig};

    /// Every sample slot must be written exactly by its own instance,
    /// including a ragged last worker block. Under the exact digital
    /// backend all instances are identical, so any dropped slot would show
    /// up as a default 0.0 among otherwise-equal accuracies.
    #[test]
    fn every_sample_slot_is_written() {
        let data = synthetic_mnist(16, 24, 3);
        let model = lenet5(&LeNetConfig::mnist(5));
        let expected =
            Session::new(EngineBuilder::new(&model).compile().shared()).evaluate(&data.test, 8);
        assert!(expected > 0.0, "pick a seed with non-zero clean accuracy");
        let cfg = McConfig::new(num_threads() * 2 + 1, 0.0, 11);
        let mc = monte_carlo(&model, &data.test, &cfg, &DigitalBackend);
        assert_eq!(mc.accuracies.len(), cfg.samples);
        assert!(mc.accuracies.iter().all(|&a| a == expected));
    }

    #[test]
    fn results_are_deterministic_across_runs() {
        let data = synthetic_mnist(8, 16, 1);
        let model = lenet5(&LeNetConfig::mnist(2));
        let cfg = McConfig::new(5, 0.5, 9);
        let backend = AnalogBackend::lognormal(0.5);
        let a = monte_carlo(&model, &data.test, &cfg, &backend);
        let b = monte_carlo(&model, &data.test, &cfg, &backend);
        assert_eq!(a.accuracies, b.accuracies);
    }
}
