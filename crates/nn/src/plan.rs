//! Shape planning and reusable inference scratch.
//!
//! A compiled deployment knows its input shape and maximum batch size up
//! front, so every layer activation the inference pass produces can be
//! sized once and reused forever. [`ShapePlan`] records the peak size
//! (computed by a dry run over zeros at the maximum batch);
//! [`InferScratch`] owns the memory the plan calls for: two ping-pong
//! activation tensors. Layers write straight into them (the GEMM and
//! convolution kernels keep their packing scratch per thread), and
//! [`crate::Sequential::infer_with`] threads them through the layer stack
//! so the steady state performs zero heap allocations per call.

use cn_tensor::Tensor;

/// Exact scratch requirements of one model at one deployment shape.
///
/// Sizes are computed at `max_batch` and are valid upper bounds for every
/// smaller batch: activation sizes scale linearly with the
/// batch dimension, so a plan sized for `max_batch` covers all
/// `1..=max_batch` inferences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapePlan {
    max_batch: usize,
    sample_dims: Vec<usize>,
    peak_activation_elems: usize,
}

impl ShapePlan {
    pub(crate) fn new(
        max_batch: usize,
        sample_dims: &[usize],
        peak_activation_elems: usize,
    ) -> Self {
        ShapePlan {
            max_batch,
            sample_dims: sample_dims.to_vec(),
            peak_activation_elems,
        }
    }

    /// Largest batch the plan covers.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Per-sample input dims (the planned input is `[max_batch, …these]`).
    pub fn sample_dims(&self) -> &[usize] {
        &self.sample_dims
    }

    /// Largest single activation (in `f32` elements) any layer produces —
    /// the capacity each ping-pong buffer is warmed to.
    pub fn peak_activation_elems(&self) -> usize {
        self.peak_activation_elems
    }

    /// True when an input of `dims` fits this plan: same per-sample dims
    /// and a batch of at most [`max_batch`](Self::max_batch).
    pub fn covers(&self, dims: &[usize]) -> bool {
        dims.len() == self.sample_dims.len() + 1
            && dims[0] <= self.max_batch
            && dims[1..] == self.sample_dims[..]
    }
}

/// The memory a [`ShapePlan`] calls for, owned by one inference session.
///
/// Holds two activation tensors (layers write into one while reading the
/// other; [`crate::Sequential::infer_with`] swaps them between layers).
/// Construct via
/// [`InferScratch::from_plan`] so every buffer is warmed to its high-water
/// size; after the first pass, reuse is allocation-free.
#[derive(Debug)]
pub struct InferScratch {
    pub(crate) ping: Tensor,
    pub(crate) pong: Tensor,
}

impl InferScratch {
    /// Allocates scratch sized by `plan`: both ping-pong tensors at the
    /// peak activation size.
    pub fn from_plan(plan: &ShapePlan) -> Self {
        let elems = plan.peak_activation_elems.max(1);
        InferScratch {
            ping: Tensor::zeros(&[elems]),
            pong: Tensor::zeros(&[elems]),
        }
    }
}
