//! The composable CorrectNet pipeline.
//!
//! Stage order (paper Sec. III):
//!
//! 1. **Error-suppression training** — task loss + Lipschitz penalty
//!    (eq. 11) with λ from eq. 10 at `k = 1`.
//! 2. **Candidate selection** — suffix-variation sweep, 95 % rule.
//! 3. **Placement search** — choose compensation locations/ratios among
//!    the candidates (exhaustive here; the RNN-policy RL search lives in
//!    `cn-rl` and plugs into [`CorrectNetStages::evaluate_plan`]).
//! 4. **Compensator training** — frozen base, per-batch variation
//!    resampling.
//! 5. **Monte-Carlo evaluation** of the deployed model.

use crate::candidates::{select_candidates, CandidateReport};
use crate::compensation::{
    apply_compensation, train_compensators, weight_overhead, CompensationPlan,
    CompensationTrainConfig,
};
use crate::lipschitz::LipschitzRegularizer;
use cn_analog::engine::{monte_carlo, AnalogBackend, Backend, McConfig, McResult};
use cn_data::Dataset;
use cn_nn::optim::Adam;
use cn_nn::trainer::{EpochStats, TrainConfig, Trainer};
use cn_nn::Sequential;

/// Configuration shared by all pipeline stages.
#[derive(Debug, Clone, Copy)]
pub struct CorrectNetConfig {
    /// Variation level the deployment must survive (paper: 0.5).
    pub sigma: f32,
    /// Lipschitz penalty strength β in eq. 11.
    pub beta: f32,
    /// Epochs of plain pretraining (phase 1 of base training).
    pub base_epochs: usize,
    /// Epochs of Lipschitz-regularized fine-tuning (phase 2).
    pub reg_epochs: usize,
    /// Learning rate of base training (fine-tuning uses half).
    pub base_lr: f32,
    /// Epochs of compensator training.
    pub comp_epochs: usize,
    /// Learning rate of compensator training.
    pub comp_lr: f32,
    /// Mini-batch size everywhere.
    pub batch_size: usize,
    /// Monte-Carlo samples per evaluation (paper: 250).
    pub mc_samples: usize,
    /// Relative accuracy threshold for candidate selection (paper: 0.95).
    pub threshold: f32,
    /// Master seed.
    pub seed: u64,
}

impl CorrectNetConfig {
    /// Laptop-scale defaults at a given variation level.
    pub fn quick(sigma: f32, seed: u64) -> Self {
        CorrectNetConfig {
            sigma,
            beta: 1e-3,
            base_epochs: 6,
            reg_epochs: 3,
            base_lr: 2e-3,
            comp_epochs: 4,
            comp_lr: 2e-3,
            batch_size: 32,
            mc_samples: 15,
            threshold: 0.95,
            seed,
        }
    }

    /// Monte-Carlo config derived from this pipeline config.
    pub fn mc(&self) -> McConfig {
        McConfig {
            samples: self.mc_samples,
            sigma: self.sigma,
            batch_size: self.batch_size,
            seed: self.seed ^ 0x9c9c,
        }
    }
}

/// Outcome of evaluating one compensation plan end to end.
#[derive(Debug, Clone)]
pub struct PlanEvaluation {
    /// Mean Monte-Carlo accuracy under variations.
    pub mean: f32,
    /// Accuracy standard deviation.
    pub std: f32,
    /// Weight overhead of the plan (paper Table I metric).
    pub overhead: f32,
    /// Number of layers that received compensation.
    pub compensated_layers: usize,
}

/// Stage driver bound to one configuration.
#[derive(Debug, Clone, Copy)]
pub struct CorrectNetStages {
    /// The pipeline configuration.
    pub config: CorrectNetConfig,
}

impl CorrectNetStages {
    /// Creates the driver.
    pub fn new(config: CorrectNetConfig) -> Self {
        CorrectNetStages { config }
    }

    /// Stage 1: error-suppression training.
    ///
    /// Two phases: plain pretraining (`base_epochs`), then fine-tuning
    /// with the Lipschitz penalty of eq. 11 (`reg_epochs`, half the
    /// learning rate). Applying the penalty from scratch with the small
    /// λ(σ) target of eq. 10 collapses clean accuracy on deep networks
    /// (the penalty fights cross-entropy before features exist); the
    /// curriculum keeps clean accuracy intact while still driving the
    /// spectral norms down — see `ablation_lipschitz` for the sweep.
    pub fn train_base(&self, model: &mut Sequential, train: &Dataset) -> Vec<EpochStats> {
        let mut stats = self.train_plain(model, train);
        if self.config.reg_epochs > 0 && self.config.beta > 0.0 {
            let reg = LipschitzRegularizer::for_sigma(self.config.beta, self.config.sigma);
            let mut opt = Adam::new(self.config.base_lr / 2.0);
            let mut trainer = Trainer::new(TrainConfig::new(
                self.config.reg_epochs,
                self.config.batch_size,
                self.config.seed ^ 0x4e9,
            ))
            .with_regularizer(move |m| reg.apply(m));
            stats.extend(trainer.fit(model, train, &mut opt));
        }
        stats
    }

    /// Stage 1 without regularization (ablation / baseline training).
    pub fn train_plain(&self, model: &mut Sequential, train: &Dataset) -> Vec<EpochStats> {
        let mut opt = Adam::new(self.config.base_lr);
        let mut trainer = Trainer::new(TrainConfig::new(
            self.config.base_epochs,
            self.config.batch_size,
            self.config.seed,
        ));
        trainer.fit(model, train, &mut opt)
    }

    /// Stage 2: candidate selection on the (Lipschitz-trained) model.
    pub fn candidates(&self, model: &Sequential, test: &Dataset) -> CandidateReport {
        select_candidates(model, test, &self.mc(), self.config.threshold)
    }

    /// Stages 3–4 for a fixed plan: builds the compensated model and
    /// trains its compensators.
    pub fn build_and_train(
        &self,
        base: &Sequential,
        train: &Dataset,
        plan: &CompensationPlan,
    ) -> Sequential {
        let mut comp = apply_compensation(base, plan, self.config.seed ^ 0xc011);
        if plan.active_count() > 0 {
            let cfg = CompensationTrainConfig {
                sigma: self.config.sigma,
                epochs: self.config.comp_epochs,
                batch_size: self.config.batch_size,
                lr: self.config.comp_lr,
                seed: self.config.seed ^ 0x7a17,
            };
            train_compensators(&mut comp, train, &cfg);
        }
        comp
    }

    /// Stage 5: Monte-Carlo accuracy of a model under the configured σ,
    /// through the engine (compiled deployment instances + sessions).
    pub fn evaluate(&self, model: &Sequential, test: &Dataset) -> McResult {
        self.evaluate_backend(model, test, &AnalogBackend::lognormal(self.config.sigma))
    }

    /// Stage 5 on an arbitrary deployment [`Backend`] (device-level
    /// ablations swap in conductance or fault models here).
    pub fn evaluate_backend(
        &self,
        model: &Sequential,
        test: &Dataset,
        backend: &dyn Backend,
    ) -> McResult {
        monte_carlo(model, test, &self.mc(), backend)
    }

    /// Full plan evaluation (stages 3–5), the objective the placement
    /// search optimizes.
    pub fn evaluate_plan(
        &self,
        base: &Sequential,
        train: &Dataset,
        test: &Dataset,
        plan: &CompensationPlan,
    ) -> PlanEvaluation {
        let comp = self.build_and_train(base, train, plan);
        let mc = self.evaluate(&comp, test);
        PlanEvaluation {
            mean: mc.mean,
            std: mc.std,
            overhead: weight_overhead(&comp),
            compensated_layers: crate::compensation::compensated_layer_count(&comp),
        }
    }

    fn mc(&self) -> McConfig {
        McConfig {
            samples: self.config.mc_samples,
            sigma: self.config.sigma,
            batch_size: self.config.batch_size,
            seed: self.config.seed ^ 0x9c9c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lipschitz::spectral_norms;
    use cn_data::synthetic_mnist;
    use cn_nn::zoo::{lenet5, LeNetConfig};

    #[test]
    fn lipschitz_training_lowers_spectral_norms() {
        let data = synthetic_mnist(200, 60, 71);
        let cfg = CorrectNetConfig {
            beta: 2e-3,
            ..CorrectNetConfig::quick(0.5, 72)
        };
        let stages = CorrectNetStages::new(cfg);

        let mut plain = lenet5(&LeNetConfig::mnist(73));
        stages.train_plain(&mut plain, &data.train);
        let mut lips = lenet5(&LeNetConfig::mnist(73));
        stages.train_base(&mut lips, &data.train);

        let max_plain: f32 = spectral_norms(&plain)
            .iter()
            .map(|(_, s)| *s)
            .fold(0.0, f32::max);
        let max_lips: f32 = spectral_norms(&lips)
            .iter()
            .map(|(_, s)| *s)
            .fold(0.0, f32::max);
        assert!(
            max_lips < max_plain,
            "regularization did not shrink spectral norms: {max_lips} vs {max_plain}"
        );
    }

    #[test]
    fn evaluate_plan_reports_consistent_overhead() {
        let data = synthetic_mnist(120, 40, 74);
        let cfg = CorrectNetConfig {
            base_epochs: 3,
            comp_epochs: 1,
            mc_samples: 3,
            ..CorrectNetConfig::quick(0.5, 75)
        };
        let stages = CorrectNetStages::new(cfg);
        let mut base = lenet5(&LeNetConfig::mnist(76));
        stages.train_base(&mut base, &data.train);

        let empty =
            stages.evaluate_plan(&base, &data.train, &data.test, &CompensationPlan::default());
        assert_eq!(empty.overhead, 0.0);
        assert_eq!(empty.compensated_layers, 0);

        let plan = CompensationPlan::uniform(&[0, 1], 0.5);
        let eval = stages.evaluate_plan(&base, &data.train, &data.test, &plan);
        assert!(eval.overhead > 0.0);
        assert_eq!(eval.compensated_layers, 2);
    }
}
