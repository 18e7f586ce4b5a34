//! The experiment catalog: one [`Experiment`] per paper artifact.
//!
//! Every table/figure regenerator implements [`Experiment`] and is listed
//! in [`registry`]. The `cn-experiments` binary resolves names against the
//! registry.
//!
//! ```
//! let names = cn_bench::experiments::names();
//! assert!(names.contains(&"fig2") && names.contains(&"table1"));
//!
//! let exp = cn_bench::experiments::find("fig7").expect("registered");
//! assert_eq!(exp.name(), "fig7");
//! assert!(cn_bench::experiments::find("fig99").is_none());
//! ```

pub mod ablation_device;
pub mod ablation_lipschitz;
pub mod alloc_profile;
pub mod fig10;
pub mod fig2;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod net_serving;
pub mod serving;
pub mod table1;

use crate::cache::{cached_candidates, lipschitz_base, plain_base, ModelCache};
use crate::profile::{Pair, Scale};
use crate::report::ExperimentReport;
use cn_data::TrainTest;
use cn_nn::Sequential;
use correctnet::candidates::CandidateReport;

/// Shared state handed to every experiment run: the resolved scale
/// profile, the master seed and the trained-model cache (shared across
/// experiments so a sweep trains each base model exactly once).
pub struct Ctx<'a> {
    /// Scale profile of the run.
    pub scale: Scale,
    /// Master seed (feeds the pipeline configs; per-evaluation seeds are
    /// derived constants so cached artifacts stay comparable).
    pub seed: u64,
    /// Trained-model cache shared across experiments.
    pub cache: &'a ModelCache,
}

impl<'a> Ctx<'a> {
    /// Creates a context.
    pub fn new(scale: Scale, seed: u64, cache: &'a ModelCache) -> Ctx<'a> {
        Ctx { scale, seed, cache }
    }

    /// Plainly trained base model (cached) plus the pair's dataset.
    pub fn plain_base(&self, pair: Pair) -> (Sequential, TrainTest) {
        plain_base(self.cache, pair, self.scale, self.seed)
    }

    /// Lipschitz-regularized base model (cached) plus the pair's dataset.
    pub fn lipschitz_base(&self, pair: Pair, sigma: f32) -> (Sequential, TrainTest) {
        lipschitz_base(self.cache, pair, self.scale, sigma, self.seed)
    }

    /// Candidate-layer report for a pair's Lipschitz base (cached).
    pub fn candidates(
        &self,
        pair: Pair,
        sigma: f32,
        base: &Sequential,
        data: &TrainTest,
    ) -> CandidateReport {
        cached_candidates(self.cache, pair, self.scale, sigma, self.seed, base, data)
    }

    /// Report skeleton stamped with this run's identity.
    pub fn report(&self, experiment: &dyn Experiment) -> ExperimentReport {
        let mut report = ExperimentReport::new(
            experiment.name(),
            experiment.title(),
            self.scale.name(),
            self.seed,
        );
        report.config_str("scale", self.scale.name());
        report.config_num("mc_samples", self.scale.mc_samples() as f64);
        report
    }
}

/// A registered paper-artifact regenerator.
pub trait Experiment {
    /// Registry name (`fig2`, `table1`, `ablation_device`, …).
    fn name(&self) -> &'static str;
    /// Which paper artifact this regenerates, for report titles.
    fn title(&self) -> &'static str;
    /// One-line description shown by `cn-experiments list`.
    fn description(&self) -> &'static str;
    /// Runs the experiment and returns its structured report (the runner
    /// stamps the wall clock and writes the JSON file).
    fn run(&self, ctx: &Ctx) -> ExperimentReport;
}

/// All registered experiments, in the catalog order.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(table1::Table1),
        Box::new(fig2::Fig2),
        Box::new(fig7::Fig7),
        Box::new(fig8::Fig8),
        Box::new(fig9::Fig9),
        Box::new(fig10::Fig10),
        Box::new(ablation_device::AblationDevice),
        Box::new(ablation_lipschitz::AblationLipschitz),
        Box::new(serving::Serving),
        Box::new(net_serving::NetServing),
        Box::new(alloc_profile::AllocProfile),
    ]
}

/// The registered experiment names, in catalog order.
pub fn names() -> Vec<&'static str> {
    registry().iter().map(|e| e.name()).collect()
}

/// Resolves a registry name.
pub fn find(name: &str) -> Option<Box<dyn Experiment>> {
    registry().into_iter().find(|e| e.name() == name)
}

/// Candidate prefix used by the compensation experiments: the first six
/// candidate layers, or layer 0 when the 95 % rule selected none.
pub(crate) fn candidate_prefix(report: &CandidateReport) -> Vec<usize> {
    if report.candidate_count == 0 {
        vec![0]
    } else {
        report.candidates().into_iter().take(6).collect()
    }
}
