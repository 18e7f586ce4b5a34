//! Compile step: freezing one deployment instance of a model.

use super::backend::Backend;
use cn_nn::{InferScratch, Sequential};
use cn_tensor::{SeededRng, Tensor};
use std::sync::Arc;

/// An immutable deployment snapshot: the model with one sampled set of
/// variations programmed into it.
///
/// A `CompiledModel` is `Send + Sync` and never mutated after compilation,
/// so one instance (behind an [`Arc`]) can serve any number of concurrent
/// [`Session`](super::Session)s. Inference goes through the cache-free
/// [`Sequential::infer_with`] path; for baking backends the masks are folded
/// into the weights at compile time, so the hot path performs no mask
/// multiplication and no weight re-deployment. Compilation also
/// pre-packs every frozen weight matrix into GEMM panels
/// ([`Sequential::pack_weights`]), so session batches run the packed
/// register-tiled kernel directly — bitwise identical to the unpacked
/// path, without the per-call repack of row-major weights.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    model: Sequential,
    nominal: Arc<Sequential>,
    backend_name: String,
}

impl CompiledModel {
    /// Compiles one deployment instance: clones `model`, installs the
    /// backend's mask plan with [`Sequential::install_noise`] (which clears
    /// any mask the plan leaves out), optionally bakes it into the
    /// weights, and runs the backend's finalize hook.
    ///
    /// The pristine `model` is retained (shared) as the nominal source so
    /// the instance can later be [`recompile`](CompiledModel::recompile)d
    /// — e.g. re-programmed after conductance drift. Callers compiling
    /// many instances of one model should prefer
    /// [`compile_shared`](CompiledModel::compile_shared), which shares a
    /// single nominal snapshot instead of cloning it per instance.
    ///
    /// # Panics
    ///
    /// Panics if the backend's mask plan has the wrong length or a mask
    /// shape disagrees with its layer.
    pub fn compile(model: &Sequential, backend: &dyn Backend, rng: &mut SeededRng) -> Self {
        Self::compile_shared(&Arc::new(model.clone()), backend, rng)
    }

    /// [`compile`](CompiledModel::compile) from an already-shared nominal
    /// model; all instances compiled from the same `Arc` share one nominal
    /// snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the backend's mask plan has the wrong length or a mask
    /// shape disagrees with its layer.
    pub fn compile_shared(
        model: &Arc<Sequential>,
        backend: &dyn Backend,
        rng: &mut SeededRng,
    ) -> Self {
        let nominal: &Sequential = model;
        let mut instance = nominal.clone();
        instance.install_noise(backend.mask_plan(nominal, rng));
        if backend.bake() {
            instance.bake_noise();
        }
        backend.finalize(&mut instance, rng);
        // Deployment is now frozen: pre-pack the effective weights into
        // GEMM panels so every session batch (and every Monte-Carlo
        // evaluation pass) reuses the packed form instead of repacking
        // row-major weights per call. Bitwise-neutral.
        instance.pack_weights();
        CompiledModel {
            model: instance,
            nominal: Arc::clone(model),
            backend_name: backend.name(),
        }
    }

    /// Re-programs this deployment: compiles a fresh instance of the same
    /// nominal model on `backend`, drawing new variations from `rng`.
    ///
    /// This is the maintenance hook a serving fleet uses for periodic
    /// drift-aware re-deployment: wrap the base backend in a
    /// [`DriftBackend`](super::DriftBackend) to model an aged chip, or
    /// recompile on the base backend to model re-programming the crossbar
    /// (which resets drift).
    ///
    /// # Panics
    ///
    /// Panics if the backend's mask plan disagrees with the model (see
    /// [`compile`](CompiledModel::compile)).
    pub fn recompile(&self, backend: &dyn Backend, rng: &mut SeededRng) -> CompiledModel {
        CompiledModel::compile_shared(&self.nominal, backend, rng)
    }

    /// Logits for a batch through the immutable inference path.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        self.model.infer(x)
    }

    /// [`infer`](CompiledModel::infer) through caller-owned scratch —
    /// allocation-free in the steady state and bitwise identical to the
    /// allocating path (see [`Sequential::infer_with`]).
    pub fn infer_with<'s>(&self, x: &Tensor, scratch: &'s mut InferScratch) -> &'s Tensor {
        self.model.infer_with(x, scratch)
    }

    /// The deployed model snapshot.
    pub fn model(&self) -> &Sequential {
        &self.model
    }

    /// The pristine nominal model this instance was compiled from.
    pub fn nominal(&self) -> &Arc<Sequential> {
        &self.nominal
    }

    /// Name of the backend this instance was compiled with.
    pub fn backend_name(&self) -> &str {
        &self.backend_name
    }

    /// Wraps the snapshot for sharing across sessions and threads.
    pub fn shared(self) -> Arc<CompiledModel> {
        Arc::new(self)
    }
}

/// Builder for the compile step: model + backend + seed → one or many
/// [`CompiledModel`] instances.
///
/// Instance `i` draws from the deterministic RNG stream
/// `SeededRng::new(seed).fork(i)` — the same per-sample stream contract
/// the Monte-Carlo protocol has always used, so compiled instances are
/// reproducible and independent of how work is scheduled.
pub struct EngineBuilder<'m> {
    model: &'m Sequential,
    backend: Box<dyn Backend>,
    seed: u64,
}

impl<'m> EngineBuilder<'m> {
    /// Starts a builder over `model` with the exact
    /// [`DigitalBackend`](super::DigitalBackend) and seed 0.
    pub fn new(model: &'m Sequential) -> Self {
        EngineBuilder {
            model,
            backend: Box::new(super::DigitalBackend),
            seed: 0,
        }
    }

    /// Selects the deployment backend.
    pub fn backend(mut self, backend: impl Backend + 'static) -> Self {
        self.backend = Box::new(backend);
        self
    }

    /// Sets the master seed for instance RNG streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Compiles deployment instance `i` (stream `fork(i)` of the seed).
    pub fn compile_instance(&self, i: u64) -> CompiledModel {
        let mut rng = SeededRng::new(self.seed).fork(i);
        CompiledModel::compile(self.model, self.backend.as_ref(), &mut rng)
    }

    /// Compiles instance 0 — the common single-deployment case.
    pub fn compile(&self) -> CompiledModel {
        self.compile_instance(0)
    }

    /// The configured backend (e.g. for naming reports).
    pub fn backend_ref(&self) -> &dyn Backend {
        self.backend.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{AnalogBackend, DigitalBackend, MaskPlan};
    use super::*;
    use cn_nn::zoo::mlp;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn compiled_model_is_send_sync() {
        assert_send_sync::<CompiledModel>();
        assert_send_sync::<Arc<CompiledModel>>();
    }

    #[test]
    fn digital_compile_matches_eval_forward_bitwise() {
        let model = mlp(&[4, 8, 3], 1);
        let compiled = EngineBuilder::new(&model).compile();
        let x = SeededRng::new(2).normal_tensor(&[5, 4], 0.0, 1.0);
        assert_eq!(compiled.infer(&x), model.clone().forward(&x, false));
    }

    #[test]
    fn digital_compile_clears_preexisting_masks() {
        let mut noisy = mlp(&[4, 8, 3], 3);
        let clean_logits = noisy.infer(&SeededRng::new(4).normal_tensor(&[2, 4], 0.0, 1.0));
        cn_nn::noise::apply_lognormal(&mut noisy, 0.6, &mut SeededRng::new(5));
        let compiled = EngineBuilder::new(&noisy).backend(DigitalBackend).compile();
        let x = SeededRng::new(4).normal_tensor(&[2, 4], 0.0, 1.0);
        assert_eq!(compiled.infer(&x), clean_logits);
    }

    #[test]
    fn analog_instances_are_deterministic_per_index() {
        let model = mlp(&[4, 8, 3], 6);
        let builder = EngineBuilder::new(&model)
            .backend(AnalogBackend::lognormal(0.5))
            .seed(7);
        let x = SeededRng::new(8).normal_tensor(&[3, 4], 0.0, 1.0);
        let a = builder.compile_instance(2).infer(&x);
        let b = builder.compile_instance(2).infer(&x);
        let c = builder.compile_instance(3).infer(&x);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn recompile_redraws_from_the_shared_nominal() {
        let model = Arc::new(mlp(&[4, 8, 3], 12));
        let backend = AnalogBackend::lognormal(0.5);
        let first =
            CompiledModel::compile_shared(&model, &backend, &mut SeededRng::new(13).fork(0));
        let x = SeededRng::new(14).normal_tensor(&[2, 4], 0.0, 1.0);
        // Recompiling with a fresh stream redraws the variations…
        let second = first.recompile(&backend, &mut SeededRng::new(13).fork(1));
        assert_ne!(first.infer(&x), second.infer(&x));
        // …deterministically…
        let again = first.recompile(&backend, &mut SeededRng::new(13).fork(1));
        assert_eq!(second.infer(&x), again.infer(&x));
        // …and both instances share the one nominal snapshot.
        assert!(Arc::ptr_eq(first.nominal(), second.nominal()));
        assert_eq!(
            second
                .recompile(&DigitalBackend, &mut SeededRng::new(0))
                .infer(&x),
            model.infer(&x)
        );
    }

    #[test]
    fn baking_leaves_no_live_masks() {
        let model = mlp(&[4, 8, 3], 9);
        let compiled = EngineBuilder::new(&model)
            .backend(AnalogBackend::lognormal(0.5))
            .seed(10)
            .compile();
        // All variation state is folded into the weights: clearing noise
        // on a copy must not change the outputs.
        let mut cleared = compiled.model().clone();
        cleared.clear_noise();
        let x = SeededRng::new(11).normal_tensor(&[2, 4], 0.0, 1.0);
        assert_eq!(compiled.infer(&x), cleared.infer(&x));
        // …and the deployment really did perturb the weights.
        assert_ne!(compiled.infer(&x), model.clone().forward(&x, false));
    }

    /// A custom backend whose plan skips a layer is rejected at compile
    /// time instead of deploying a partly exact model.
    #[test]
    #[should_panic(expected = "mask plan has 1 entries for 2 analog layers")]
    fn compile_rejects_a_short_mask_plan() {
        struct Short;
        impl Backend for Short {
            fn name(&self) -> String {
                "short".to_string()
            }
            fn mask_plan(&self, _model: &Sequential, _rng: &mut SeededRng) -> MaskPlan {
                vec![None]
            }
        }
        EngineBuilder::new(&mlp(&[4, 8, 3], 15))
            .backend(Short)
            .compile();
    }
}
