//! Execute step: sessions running batched inference on compiled models.

use super::compiled::CompiledModel;
use cn_data::Dataset;
use cn_nn::InferScratch;
use cn_tensor::Tensor;
use std::sync::Arc;

/// An inference session bound to a [`CompiledModel`].
///
/// The compiled snapshot is shared (many sessions, e.g. one per serving
/// thread, can hold the same `Arc`); the session owns the mutable
/// per-caller state — ping-pong activation buffers for the layer stack
/// ([`InferScratch`]), an evaluation batch tensor and a prediction
/// buffer. All of it grows on first use and survives
/// [`rebind`](Session::rebind). Once it has seen the largest batch,
/// repeated [`infer_batch`](Session::infer_batch) /
/// [`logits_ref`](Session::logits_ref) / [`evaluate`](Session::evaluate)
/// calls perform **zero heap allocations**: every intermediate lives in
/// session-owned memory, and the weights were programmed once at compile
/// time.
pub struct Session {
    compiled: Arc<CompiledModel>,
    scratch: InferScratch,
    batch: Tensor,
    batch_dims: Vec<usize>,
    preds: Vec<usize>,
    batches: u64,
}

impl Session {
    /// Opens a session on a compiled deployment. Its scratch grows on the
    /// first batch; use [`with_plan`](Session::with_plan) to pay that
    /// cost up front.
    pub fn new(compiled: Arc<CompiledModel>) -> Self {
        Session {
            compiled,
            scratch: InferScratch::default(),
            batch: Tensor::default(),
            batch_dims: Vec::new(),
            preds: Vec::new(),
            batches: 0,
        }
    }

    /// Opens a session and warms its scratch with one inference pass over
    /// zeros at `[max_batch, …sample_dims]`, so every batch of up to
    /// `max_batch` rows already runs allocation-free. The warmup pass is
    /// not counted in [`batches_run`](Session::batches_run).
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero or the model rejects the shape.
    pub fn with_plan(
        compiled: Arc<CompiledModel>,
        sample_dims: &[usize],
        max_batch: usize,
    ) -> Self {
        assert!(max_batch > 0, "warmup needs a positive max batch");
        let mut session = Session::new(compiled);
        let mut dims = vec![max_batch];
        dims.extend_from_slice(sample_dims);
        session.infer_logits_preds(&Tensor::zeros(&dims));
        session.batches = 0;
        session
    }

    /// The compiled model this session executes.
    pub fn compiled(&self) -> &Arc<CompiledModel> {
        &self.compiled
    }

    /// Rebinds the session to another compiled instance (used by the
    /// Monte-Carlo driver to run N instances through one session per
    /// worker). All scratch is kept: it does not depend on the
    /// architecture, so any model can reuse it.
    pub fn rebind(&mut self, compiled: Arc<CompiledModel>) {
        self.compiled = compiled;
    }

    /// Logits for one input batch, borrowed from the session's scratch —
    /// the allocation-free entry point. The reference is valid until the
    /// next inference call.
    pub fn logits_ref(&mut self, x: &Tensor) -> &Tensor {
        self.batches += 1;
        self.compiled.infer_with(x, &mut self.scratch)
    }

    /// Logits for one input batch, as an owned tensor.
    pub fn logits_batch(&mut self, x: &Tensor) -> Tensor {
        // cn-lint: allow(alloc-in-hot-loop, reason = "owned-result convenience wrapper; allocation-free callers use logits_ref / infer_batch")
        self.logits_ref(x).clone()
    }

    /// Predicted class indices for one input batch, written into the
    /// session's reusable prediction buffer.
    pub fn infer_batch(&mut self, x: &Tensor) -> &[usize] {
        self.infer_logits_preds(x).1
    }

    /// Logits **and** predicted classes for one batch, both borrowed from
    /// session scratch — what a serving worker needs to build replies
    /// without allocating.
    pub fn infer_logits_preds(&mut self, x: &Tensor) -> (&Tensor, &[usize]) {
        self.batches += 1;
        let logits = self.compiled.infer_with(x, &mut self.scratch);
        logits.argmax_rows_into(&mut self.preds);
        (logits, &self.preds)
    }

    /// Batched test accuracy of the compiled deployment over `data`:
    /// batches in dataset order, each assembled into the session's batch
    /// tensor and run through its scratch. Bitwise-identical protocol to
    /// `cn_nn::metrics::evaluate`, and allocation-free once the session
    /// has seen a full batch.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn evaluate(&mut self, data: &Dataset, batch_size: usize) -> f32 {
        assert!(batch_size > 0, "batch_size must be positive");
        let sample_len: usize = data.sample_dims().iter().product();
        let mut hits = 0usize;
        for start in (0..data.len()).step_by(batch_size) {
            let end = (start + batch_size).min(data.len());
            self.batch_dims.clear();
            self.batch_dims.push(end - start);
            self.batch_dims.extend_from_slice(data.sample_dims());
            self.batch.resize_in_place(&self.batch_dims);
            self.batch
                .data_mut()
                .copy_from_slice(&data.images.data()[start * sample_len..end * sample_len]);
            self.batches += 1;
            let logits = self.compiled.infer_with(&self.batch, &mut self.scratch);
            logits.argmax_rows_into(&mut self.preds);
            hits += self
                .preds
                .iter()
                .zip(&data.labels[start..end])
                .filter(|(p, l)| p == l)
                .count();
        }
        hits as f32 / data.len().max(1) as f32
    }

    /// Number of batches this session has executed (across rebinds).
    pub fn batches_run(&self) -> u64 {
        self.batches
    }
}

#[cfg(test)]
mod tests {
    use super::super::{AnalogBackend, EngineBuilder};
    use super::*;
    use cn_data::synthetic_mnist;
    use cn_nn::zoo::{lenet5, LeNetConfig};
    use cn_tensor::SeededRng;

    #[test]
    fn repeated_infer_batch_is_stable_and_counted() {
        let model = lenet5(&LeNetConfig::mnist(1));
        let compiled = EngineBuilder::new(&model)
            .backend(AnalogBackend::lognormal(0.3))
            .seed(2)
            .compile()
            .shared();
        let mut session = Session::new(compiled);
        let x = SeededRng::new(3).normal_tensor(&[4, 1, 28, 28], 0.0, 1.0);
        let first: Vec<usize> = session.infer_batch(&x).to_vec();
        for _ in 0..3 {
            assert_eq!(session.infer_batch(&x), first.as_slice());
        }
        assert_eq!(session.batches_run(), 4);
    }

    #[test]
    fn one_compiled_model_serves_concurrent_sessions() {
        let model = lenet5(&LeNetConfig::mnist(4));
        let compiled = EngineBuilder::new(&model).compile().shared();
        let x = SeededRng::new(5).normal_tensor(&[2, 1, 28, 28], 0.0, 1.0);
        let expect = compiled.infer(&x);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let compiled = Arc::clone(&compiled);
                let (x, expect) = (x.clone(), expect.clone());
                scope.spawn(move || {
                    let mut session = Session::new(compiled);
                    for _ in 0..2 {
                        assert_eq!(session.logits_batch(&x), expect);
                    }
                });
            }
        });
    }

    #[test]
    fn session_evaluate_matches_mutating_evaluate() {
        let data = synthetic_mnist(24, 16, 6);
        let model = lenet5(&LeNetConfig::mnist(7));
        let mut session = Session::new(EngineBuilder::new(&model).compile().shared());
        let acc = session.evaluate(&data.test, 8);
        let reference = cn_nn::metrics::evaluate(&model, &data.test, 8);
        assert_eq!(acc, reference);
    }

    #[test]
    fn matches_mutating_evaluate_bitwise() {
        let data = synthetic_mnist(8, 25, 8);
        let model = lenet5(&LeNetConfig::mnist(9));
        let builder = EngineBuilder::new(&model)
            .backend(AnalogBackend::lognormal(0.5))
            .seed(10);
        let (a, b) = (builder.compile_instance(0), builder.compile_instance(1));
        let mut session = Session::new(a.clone().shared());
        // Ragged, exact, single-sample and oversized batches, then the
        // same sizes again after rebinding the warm scratch to another
        // deployment.
        for compiled in [a, b] {
            session.rebind(compiled.clone().shared());
            for bs in [1, 7, 25, 64] {
                let acc = session.evaluate(&data.test, bs);
                let reference = cn_nn::metrics::evaluate(compiled.model(), &data.test, bs);
                assert_eq!(acc, reference, "batch size {bs}");
            }
        }
    }

    #[test]
    fn planned_paths_match_direct_inference_bitwise() {
        let model = lenet5(&LeNetConfig::mnist(21));
        let compiled = EngineBuilder::new(&model)
            .backend(AnalogBackend::lognormal(0.4))
            .seed(22)
            .compile()
            .shared();
        let mut session = Session::with_plan(Arc::clone(&compiled), &[1, 28, 28], 4);
        let mut rng = SeededRng::new(23);
        for n in [4usize, 1, 3] {
            let x = rng.normal_tensor(&[n, 1, 28, 28], 0.0, 1.0);
            let reference = compiled.infer(&x);
            assert_eq!(*session.logits_ref(&x), reference, "batch {n}");
            let (logits, preds) = session.infer_logits_preds(&x);
            assert_eq!(*logits, reference);
            assert_eq!(preds, reference.argmax_rows().as_slice());
        }
    }

    #[test]
    fn outgrown_batch_replans_and_stays_exact() {
        let model = lenet5(&LeNetConfig::mnist(24));
        let compiled = EngineBuilder::new(&model).compile().shared();
        let mut session = Session::with_plan(Arc::clone(&compiled), &[1, 28, 28], 2);
        // The warmed scratch grows to the larger batch and stays exact.
        let x = SeededRng::new(25).normal_tensor(&[6, 1, 28, 28], 0.0, 1.0);
        assert_eq!(*session.logits_ref(&x), compiled.infer(&x));
    }

    #[test]
    fn rebind_keeps_scratch_and_stays_exact() {
        let model = lenet5(&LeNetConfig::mnist(26));
        let builder = EngineBuilder::new(&model)
            .backend(AnalogBackend::lognormal(0.5))
            .seed(1);
        let a = builder.compile_instance(0).shared();
        let b = builder.compile_instance(1).shared();
        let mut session = Session::with_plan(Arc::clone(&a), &[1, 28, 28], 2);
        let x = SeededRng::new(27).normal_tensor(&[2, 1, 28, 28], 0.0, 1.0);
        assert_eq!(*session.logits_ref(&x), a.infer(&x));
        session.rebind(Arc::clone(&b));
        assert_ne!(a.infer(&x), b.infer(&x), "pick deployments that differ");
        assert_eq!(*session.logits_ref(&x), b.infer(&x));
    }
}
