//! Candidate-layer selection for error compensation (paper Sec. III-B).
//!
//! "We first inject variations into the layers from the last one backwards
//! to the i-th layer. … The candidates of the neural network layers for
//! error compensation are then determined as the first i layers when the
//! variations in the i-th layer to the last layer lead to an inference
//! accuracy lower than 95 % of the original accuracy."
//!
//! The same sweep produces the data behind the paper's Fig. 9.

use crate::engine::{monte_carlo, AnalogBackend, DigitalBackend, EngineBuilder, Session};
use cn_analog::montecarlo::McConfig;
use cn_data::Dataset;
use cn_nn::noise::num_weight_layers;
use cn_nn::Sequential;

/// One point of the suffix-variation sweep: variations on weight layers
/// `start..L`, accuracy mean/std over MC samples.
#[derive(Debug, Clone, PartialEq)]
pub struct SuffixPoint {
    /// First weight layer carrying variations.
    pub start: usize,
    /// Mean accuracy.
    pub mean: f32,
    /// Accuracy standard deviation.
    pub std: f32,
}

/// Output of [`select_candidates`].
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateReport {
    /// Variation-free accuracy of the model.
    pub clean_accuracy: f32,
    /// Relative accuracy threshold (the paper uses 0.95).
    pub threshold: f32,
    /// Sweep over all starting layers `0..=L` (the `L` entry has no
    /// variations anywhere and equals the clean accuracy).
    pub sweep: Vec<SuffixPoint>,
    /// Weight layers `0..candidate_count` are compensation candidates.
    pub candidate_count: usize,
}

impl CandidateReport {
    /// Candidate weight-layer indices.
    pub fn candidates(&self) -> Vec<usize> {
        (0..self.candidate_count).collect()
    }
}

/// Runs the suffix-variation sweep and applies the paper's 95 % rule.
///
/// `mc.sigma` sets the variation level (the paper uses σ = 0.5);
/// `threshold` is the relative accuracy bar (0.95 in the paper).
///
/// # Panics
///
/// Panics if `threshold` is not in `(0, 1]`.
pub fn select_candidates(
    model: &Sequential,
    data: &Dataset,
    mc: &McConfig,
    threshold: f32,
) -> CandidateReport {
    assert!(
        threshold > 0.0 && threshold <= 1.0,
        "threshold must be in (0, 1]"
    );
    let num_layers = num_weight_layers(model);
    // Exact digital deployment for the variation-free reference accuracy.
    let clean_accuracy = Session::new(
        EngineBuilder::new(model)
            .backend(DigitalBackend)
            .compile()
            .shared(),
    )
    .evaluate(data, mc.batch_size);
    let bar = threshold * clean_accuracy;

    let mut sweep = Vec::with_capacity(num_layers + 1);
    let mut candidate_count = num_layers;
    // Sweep from the back (cheap, matches the paper's procedure): the
    // first (largest) start whose accuracy is still below the bar fixes
    // the candidate prefix.
    for start in (0..=num_layers).rev() {
        let (mean, std) = if start == num_layers {
            (clean_accuracy, 0.0)
        } else {
            let backend = AnalogBackend::lognormal_from(mc.sigma, start);
            let r = monte_carlo(model, data, mc, &backend);
            (r.mean, r.std)
        };
        sweep.push(SuffixPoint { start, mean, std });
        if mean >= bar {
            candidate_count = start;
        }
    }
    sweep.reverse();
    // candidate_count is the smallest start meeting the bar — scan forward
    // to make that exact (MC noise can make the relation non-monotonic).
    for p in &sweep {
        if p.mean >= bar {
            candidate_count = p.start;
            break;
        }
    }
    CandidateReport {
        clean_accuracy,
        threshold,
        sweep,
        candidate_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_data::synthetic_mnist;
    use cn_nn::optim::Adam;
    use cn_nn::trainer::{TrainConfig, Trainer};
    use cn_nn::zoo::{lenet5, LeNetConfig};

    fn trained_lenet() -> (Sequential, cn_data::TrainTest) {
        let data = synthetic_mnist(200, 60, 61);
        let mut model = lenet5(&LeNetConfig::mnist(62));
        let mut opt = Adam::new(2e-3);
        Trainer::new(TrainConfig::new(5, 32, 63)).fit(&mut model, &data.train, &mut opt);
        (model, data)
    }

    #[test]
    fn sweep_covers_all_starts_and_ends_clean() {
        let (model, data) = trained_lenet();
        let report = select_candidates(&model, &data.test, &McConfig::new(4, 0.5, 64), 0.95);
        assert_eq!(report.sweep.len(), 6); // 5 weight layers + clean point
        assert_eq!(report.sweep[0].start, 0);
        let last = report.sweep.last().unwrap();
        assert_eq!(last.start, 5);
        assert!((last.mean - report.clean_accuracy).abs() < 1e-6);
    }

    #[test]
    fn candidate_count_consistent_with_threshold() {
        let (model, data) = trained_lenet();
        let report = select_candidates(&model, &data.test, &McConfig::new(4, 0.5, 65), 0.95);
        let bar = report.threshold * report.clean_accuracy;
        let c = report.candidate_count;
        // The selected start meets the bar…
        let at_c = report.sweep.iter().find(|p| p.start == c).unwrap();
        assert!(at_c.mean >= bar);
        // …and it is the first such start.
        for p in report.sweep.iter().filter(|p| p.start < c) {
            assert!(p.mean < bar, "start {} already meets the bar", p.start);
        }
        assert_eq!(report.candidates(), (0..c).collect::<Vec<_>>());
    }

    #[test]
    fn zero_sigma_needs_no_candidates() {
        let (model, data) = trained_lenet();
        let report = select_candidates(&model, &data.test, &McConfig::new(2, 0.0, 66), 0.95);
        assert_eq!(report.candidate_count, 0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_panics() {
        let (model, data) = trained_lenet();
        select_candidates(&model, &data.test, &McConfig::new(2, 0.5, 67), 0.0);
    }
}
