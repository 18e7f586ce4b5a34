//! Deployment backends: how nominal weights land on (simulated) hardware.

use crate::deployment::DeploymentMode;
use crate::drift::ConductanceDrift;
use cn_nn::Sequential;
use cn_tensor::{SeededRng, Tensor};

/// One per-analog-layer mask plan, aligned with
/// [`Sequential::noisy_layers`]; `None` entries leave the layer exact.
pub type MaskPlan = Vec<Option<Tensor>>;

/// A deployment substrate the engine can compile a model onto.
///
/// A backend answers one question — *what happens to the weights when this
/// model is programmed onto the accelerator?* — by sampling a [`MaskPlan`]
/// of multiplicative per-weight factors for one deployment instance.
/// Compilation applies the plan to a model snapshot (and normally bakes
/// the masks into the weights, see [`Backend::bake`]), after which
/// inference runs on a fixed substrate: no per-call re-deployment, no
/// effective-weight temporaries.
pub trait Backend: Send + Sync {
    /// Human-readable backend name (for reports and debugging).
    fn name(&self) -> String;

    /// Samples the mask plan of one deployment instance. `model` is the
    /// pristine (nominal-weight) model; implementations must consume `rng`
    /// deterministically so compiled instances are reproducible.
    fn mask_plan(&self, model: &Sequential, rng: &mut SeededRng) -> MaskPlan;

    /// Post-deployment hook run on the compiled instance after the mask
    /// plan is applied (e.g. per-chip calibration or retraining baselines).
    /// The default does nothing.
    fn finalize(&self, _instance: &mut Sequential, _rng: &mut SeededRng) {}

    /// Whether compilation folds the plan's masks into the weights
    /// (`Sequential::bake_noise`). Backends whose
    /// [`finalize`](Backend::finalize) step needs live masks (e.g.
    /// mask-chained retraining gradients) return `false`; everyone else
    /// keeps the default `true` for an allocation-free inference hot path.
    fn bake(&self) -> bool {
        true
    }
}

/// Exact digital reference: nominal weights, no variations. Compiling with
/// this backend reproduces `Sequential::forward` in eval mode bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct DigitalBackend;

impl Backend for DigitalBackend {
    fn name(&self) -> String {
        "digital".to_string()
    }

    fn mask_plan(&self, model: &Sequential, _rng: &mut SeededRng) -> MaskPlan {
        vec![None; model.noisy_layers().len()]
    }
}

/// Analog crossbar deployment under a [`DeploymentMode`] variation model,
/// optionally restricted to weight layers `≥ start` (the paper's Fig. 9
/// suffix protocol).
#[derive(Debug, Clone)]
pub struct AnalogBackend {
    mode: DeploymentMode,
    start: usize,
}

impl AnalogBackend {
    /// Deployment under an arbitrary variation mode on all analog layers.
    pub fn new(mode: DeploymentMode) -> Self {
        AnalogBackend { mode, start: 0 }
    }

    /// The paper's weight-level log-normal model (eq. 1–2) on all analog
    /// layers.
    pub fn lognormal(sigma: f32) -> Self {
        AnalogBackend::new(DeploymentMode::WeightLognormal { sigma })
    }

    /// Log-normal variations only on weight layers `≥ start`.
    pub fn lognormal_from(sigma: f32, start: usize) -> Self {
        AnalogBackend {
            mode: DeploymentMode::WeightLognormal { sigma },
            start,
        }
    }

    /// The variation mode this backend deploys with.
    pub fn mode(&self) -> &DeploymentMode {
        &self.mode
    }
}

impl Backend for AnalogBackend {
    fn name(&self) -> String {
        if self.start == 0 {
            format!("analog({:?})", self.mode)
        } else {
            format!("analog({:?}, from layer {})", self.mode, self.start)
        }
    }

    fn mask_plan(&self, model: &Sequential, rng: &mut SeededRng) -> MaskPlan {
        self.mode.mask_plan(model, self.start, rng)
    }
}

/// A backend aged by conductance retention drift: the wrapped backend's
/// mask plan composed with a per-weight [`ConductanceDrift`] mask sampled
/// at time `t`.
///
/// This is the deployment model a serving fleet recompiles against to
/// represent a chip that has been in the field for `t` time units since
/// programming; recompiling on the base backend afterwards models
/// re-programming the crossbar (which resets drift).
pub struct DriftBackend<'a> {
    inner: &'a dyn Backend,
    drift: ConductanceDrift,
    t: f32,
}

impl<'a> DriftBackend<'a> {
    /// Ages `inner` by `drift` evaluated at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the drift model's reference time.
    pub fn new(inner: &'a dyn Backend, drift: ConductanceDrift, t: f32) -> Self {
        assert!(
            t >= drift.t0,
            "drift evaluated before reference time t0 = {}",
            drift.t0
        );
        DriftBackend { inner, drift, t }
    }
}

impl Backend for DriftBackend<'_> {
    fn name(&self) -> String {
        format!("{} + drift(t = {})", self.inner.name(), self.t)
    }

    fn mask_plan(&self, model: &Sequential, rng: &mut SeededRng) -> MaskPlan {
        let mut plan = self.inner.mask_plan(model, rng);
        for (slot, (_, dims)) in plan.iter_mut().zip(model.noisy_layers()) {
            let aged = self.drift.mask_at(&dims, self.t, rng);
            *slot = Some(match slot.take() {
                Some(mask) => mask.zip_map(&aged, |m, d| m * d),
                None => aged,
            });
        }
        plan
    }

    fn finalize(&self, instance: &mut Sequential, rng: &mut SeededRng) {
        self.inner.finalize(instance, rng);
    }

    fn bake(&self) -> bool {
        self.inner.bake()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_nn::zoo::mlp;

    /// Conductance-level deployment onto 128×128 ideal-cell crossbars.
    fn ideal_tiles() -> DeploymentMode {
        DeploymentMode::Conductance {
            spec: crate::cell::CellSpec::ideal(1.0, 100.0),
            tile_size: 128,
        }
    }

    #[test]
    fn digital_plan_is_all_exact() {
        let model = mlp(&[4, 8, 3], 1);
        let plan = DigitalBackend.mask_plan(&model, &mut SeededRng::new(2));
        assert_eq!(plan.len(), 2);
        assert!(plan.iter().all(Option::is_none));
    }

    #[test]
    fn analog_from_layer_skips_prefix_without_consuming_rng() {
        let model = mlp(&[4, 8, 8, 3], 1);
        let full = AnalogBackend::lognormal(0.4).mask_plan(&model, &mut SeededRng::new(3));
        let suffix =
            AnalogBackend::lognormal_from(0.4, 1).mask_plan(&model, &mut SeededRng::new(3));
        assert!(full.iter().all(Option::is_some));
        assert!(suffix[0].is_none());
        // Suffix masks must differ from the full plan's: the prefix draw
        // is genuinely skipped, not discarded.
        assert_ne!(suffix[1], full[1]);
    }

    #[test]
    fn tiled_ideal_masks_are_unity() {
        let model = mlp(&[4, 8, 3], 5);
        let backend = AnalogBackend::new(ideal_tiles());
        for mask in backend.mask_plan(&model, &mut SeededRng::new(6)) {
            let mask = mask.expect("tiled backend programs every layer");
            assert!(mask.data().iter().all(|&m| (m - 1.0).abs() < 1e-3));
        }
    }

    #[test]
    fn drift_backend_composes_masks_multiplicatively() {
        let model = mlp(&[4, 8, 3], 7);
        let drift = ConductanceDrift::new(0.05, 0.0, 1.0);
        // Zero device variability: every drift factor is exactly the mean
        // decay, so the composed plan is the base plan scaled by it.
        let base = AnalogBackend::lognormal(0.4);
        let plain = base.mask_plan(&model, &mut SeededRng::new(8));
        let aged =
            DriftBackend::new(&base, drift, 1000.0).mask_plan(&model, &mut SeededRng::new(8));
        let factor = drift.mean_factor(1000.0);
        for (p, a) in plain.iter().zip(aged.iter()) {
            let (p, a) = (p.as_ref().unwrap(), a.as_ref().unwrap());
            for (pv, av) in p.data().iter().zip(a.data().iter()) {
                assert!((pv * factor - av).abs() < 1e-5, "{pv} vs {av}");
            }
        }
        // Over an exact backend, drift alone programs every layer.
        let digital = DriftBackend::new(&DigitalBackend, drift, 1000.0)
            .mask_plan(&model, &mut SeededRng::new(9));
        assert!(digital.iter().all(Option::is_some));
    }

    #[test]
    #[should_panic(expected = "before reference time")]
    fn drift_backend_rejects_backward_time() {
        DriftBackend::new(&DigitalBackend, ConductanceDrift::new(0.05, 0.0, 1.0), 0.5);
    }

    #[test]
    fn backend_names_are_informative() {
        assert_eq!(DigitalBackend.name(), "digital");
        assert!(AnalogBackend::lognormal(0.5).name().contains("0.5"));
        assert!(AnalogBackend::new(ideal_tiles()).name().contains("128"));
    }
}
