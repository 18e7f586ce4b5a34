//! Monte-Carlo accuracy evaluation under deployment variations.
//!
//! The paper samples network weights 250 times from the variation model
//! and reports mean/std inference accuracy (Sec. IV). [`monte_carlo`]
//! compiles one deployment instance per sample and executes it through a
//! session; [`McConfig`] and [`McResult`] are the protocol's
//! configuration and result.

use super::backend::Backend;
use super::compiled::CompiledModel;
use super::session::Session;
use cn_data::Dataset;
use cn_nn::metrics::mean_std;
use cn_tensor::parallel::{num_threads, parallel_chunks_mut};
use cn_tensor::SeededRng;
use std::sync::Arc;

/// Monte-Carlo evaluation configuration.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    /// Number of deployment samples (paper: 250).
    pub samples: usize,
    /// Variation σ for the log-normal modes.
    pub sigma: f32,
    /// Evaluation batch size.
    pub batch_size: usize,
    /// Master seed; sample `i` uses an independent derived stream.
    pub seed: u64,
}

impl McConfig {
    /// Config with batch size 64.
    ///
    /// ```
    /// use cn_analog::engine::McConfig;
    ///
    /// let cfg = McConfig::new(250, 0.5, 42);
    /// assert_eq!((cfg.samples, cfg.sigma, cfg.batch_size), (250, 0.5, 64));
    /// ```
    pub fn new(samples: usize, sigma: f32, seed: u64) -> Self {
        McConfig {
            samples,
            sigma,
            batch_size: 64,
            seed,
        }
    }
}

/// Outcome of a Monte-Carlo evaluation.
#[derive(Debug, Clone)]
pub struct McResult {
    /// Accuracy of each sampled deployment.
    pub accuracies: Vec<f32>,
    /// Mean accuracy.
    pub mean: f32,
    /// Sample standard deviation.
    pub std: f32,
}

impl McResult {
    /// Wraps per-sample accuracies, computing their mean/std.
    pub fn from_accuracies(accuracies: Vec<f32>) -> Self {
        let (mean, std) = mean_std(&accuracies);
        McResult {
            accuracies,
            mean,
            std,
        }
    }
}

/// The single Monte-Carlo entry point: compiles `cfg.samples` deployment
/// instances of `model` on `backend` and measures each one's test
/// accuracy through a session.
///
/// Sample `i` draws from the independent RNG stream
/// `SeededRng::new(cfg.seed).fork(i)`, so results are deterministic in
/// `cfg.seed` and independent of the worker thread count. Samples fan
/// out over [`parallel_chunks_mut`] workers; each keeps one [`Session`]
/// and rebinds it per instance, so its batch tensor and ping-pong
/// activation scratch are allocated once per worker, not per sample.
///
/// ```
/// use cn_analog::engine::{monte_carlo, AnalogBackend, McConfig};
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
    use cn_nn::metrics::evaluate;
    use cn_nn::optim::Adam;
    use cn_nn::trainer::{TrainConfig, Trainer};
    use cn_nn::zoo::{lenet5, LeNetConfig};
    use cn_nn::Sequential;

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

    fn trained_lenet() -> (Sequential, cn_data::TrainTest) {
        let data = synthetic_mnist(200, 60, 21);
        let mut model = lenet5(&LeNetConfig::mnist(22));
        let mut opt = Adam::new(2e-3);
        Trainer::new(TrainConfig::new(4, 32, 23)).fit(&mut model, &data.train, &mut opt);
        (model, data)
    }

    fn mc_lognormal(model: &Sequential, data: &cn_data::Dataset, cfg: &McConfig) -> McResult {
        monte_carlo(model, data, cfg, &AnalogBackend::lognormal(cfg.sigma))
    }

    fn mc_lognormal_from(
        model: &Sequential,
        data: &cn_data::Dataset,
        cfg: &McConfig,
        start: usize,
    ) -> McResult {
        monte_carlo(
            model,
            data,
            cfg,
            &AnalogBackend::lognormal_from(cfg.sigma, start),
        )
    }

    #[test]
    fn zero_sigma_reproduces_clean_accuracy() {
        let (model, data) = trained_lenet();
        let clean = evaluate(&model, &data.test, 32);
        let res = mc_lognormal(&model, &data.test, &McConfig::new(3, 0.0, 1));
        assert!((res.mean - clean).abs() < 1e-6);
        assert!(res.std < 1e-5);
    }

    #[test]
    fn results_are_deterministic_and_thread_count_independent() {
        let (model, data) = trained_lenet();
        let cfg = McConfig::new(6, 0.4, 7);
        let a = mc_lognormal(&model, &data.test, &cfg);
        let b = mc_lognormal(&model, &data.test, &cfg);
        assert_eq!(a.accuracies, b.accuracies);
    }

    #[test]
    fn variation_degrades_accuracy_monotonically_in_expectation() {
        let (model, data) = trained_lenet();
        let low = mc_lognormal(&model, &data.test, &McConfig::new(5, 0.1, 3));
        let high = mc_lognormal(&model, &data.test, &McConfig::new(5, 0.8, 3));
        assert!(
            high.mean < low.mean + 0.02,
            "σ=0.8 ({}) should hurt more than σ=0.1 ({})",
            high.mean,
            low.mean
        );
    }

    #[test]
    fn later_start_layer_hurts_less() {
        let (model, data) = trained_lenet();
        let cfg = McConfig::new(5, 0.6, 5);
        let all = mc_lognormal_from(&model, &data.test, &cfg, 0);
        let last_only = mc_lognormal_from(&model, &data.test, &cfg, 4);
        assert!(
            last_only.mean >= all.mean - 0.02,
            "noise on all layers ({}) should hurt at least as much as last-layer-only ({})",
            all.mean,
            last_only.mean
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_samples_panics() {
        let (model, data) = trained_lenet();
        mc_lognormal(&model, &data.test, &McConfig::new(0, 0.1, 1));
    }
}
