//! The layer abstraction.

use crate::param::Param;
use cn_tensor::ops::Activation;
use cn_tensor::Tensor;

/// A differentiable network layer with cached-activation backprop.
///
/// The contract mirrors classic define-by-run frameworks:
///
/// 1. [`Layer::forward`] computes outputs and caches whatever the backward
///    pass needs (inputs, masks, patch matrices…),
/// 2. [`Layer::backward`] consumes the gradient w.r.t. the layer's output,
///    **accumulates** parameter gradients into its [`Param`]s, and returns
///    the gradient w.r.t. its input. [`Layer::backward_params`] does the
///    same without the input gradient, for the first layer of a network,
///    whose input gradient nobody reads.
///
/// `backward` must be called after a matching `forward` (checked with
/// panics, since this is a programming error).
///
/// # Weight noise (analog variations)
///
/// Layers that hold analog-mapped weights ([`noise_dims`](Layer::noise_dims)
/// returns `Some`) accept a multiplicative noise mask via
/// [`set_noise`](Layer::set_noise): the *effective* weight used by both
/// forward and backward becomes `w ⊙ mask`, implementing the paper's
/// `w·e^θ` variation model while keeping the nominal weights intact.
/// Digital layers (pooling, activation, and CorrectNet's generator /
/// compensator convolutions) simply keep the default no-op implementation.
pub trait Layer: Send + Sync {
    /// Layer name (unique within a [`Sequential`](crate::Sequential)).
    fn name(&self) -> &str;

    /// Computes outputs; `train` enables stochastic behaviour (dropout,
    /// batch-norm statistics updates).
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Evaluation-mode forward pass through `&self` into a recycled output
    /// tensor — the one inference hook every layer implements.
    ///
    /// No activation caching, no statistics updates, no stochastic
    /// behaviour: because it never mutates the layer, a single model
    /// snapshot can serve concurrent inference sessions (see the engine
    /// layer). Implementations reshape `out` in place (reusing its
    /// capacity) and overwrite it with `act(y)`, where `y` is **bitwise
    /// identical** to `forward(x, /*train=*/false)` — the engine's
    /// backend-equivalence tests rely on it.
    ///
    /// `act` is a trailing activation fused into the output stage (the
    /// `<layer> → Relu` peephole of
    /// [`Sequential::infer_with`](crate::Sequential::infer_with)).
    /// `Activation::Relu` must equal `y` followed by a separate
    /// [`Relu`](crate::layers::Relu) bit for bit: layers with a GEMM
    /// epilogue apply `v.max(0.0)` in the C-tile writeback after each
    /// element's accumulation completes; every other layer writes `y` and
    /// then applies `v.max(0.0)` in place.
    ///
    /// Implementations must not allocate once `out`'s capacity (and any
    /// per-thread kernel scratch) has warmed up, at least for deployed
    /// (packed) weights — this is what makes steady-state
    /// `Sequential::infer_with` heap-silent.
    fn infer_into(&self, x: &Tensor, act: Activation, out: &mut Tensor);

    /// Allocating [`infer_into`](Layer::infer_into) without a fused
    /// activation. Provided; layers do not override it.
    fn infer(&self, x: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.infer_into(x, Activation::Identity, &mut out);
        out
    }

    /// Allocating [`infer_into`](Layer::infer_into) with a trailing ReLU
    /// fused in. Provided; layers do not override it. Always `Some`: every
    /// layer supports the fusion.
    fn infer_fused_relu(&self, x: &Tensor) -> Option<Tensor> {
        let mut out = Tensor::default();
        self.infer_into(x, Activation::Relu, &mut out);
        Some(out)
    }

    /// Backpropagates `grad_out`, accumulating parameter gradients and
    /// returning the input gradient.
    ///
    /// A layer may skip the gradients of parameters that are all frozen
    /// (they stay as they were, zero after
    /// [`Sequential::zero_grad`](crate::Sequential::zero_grad)); every
    /// gradient it does compute, and the input gradient, are bitwise the
    /// same as with the parameters unfrozen.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// [`backward`](Layer::backward) without the input gradient: only the
    /// parameter gradients are accumulated.
    /// [`Sequential::backward`](crate::Sequential::backward) calls it on
    /// its first layer. The default runs `backward` and drops the result;
    /// layers whose input gradient costs real work override it.
    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backward(grad_out);
    }

    /// Mutable access to all trainable parameters.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Shared access to all trainable parameters.
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Shape of the weight tensor subject to analog variations, or `None`
    /// for digital / parameter-free layers.
    fn noise_dims(&self) -> Option<Vec<usize>> {
        None
    }

    /// Installs (or clears) a multiplicative weight-noise mask shaped like
    /// [`noise_dims`](Layer::noise_dims).
    ///
    /// The default implementation panics when a mask is supplied to a layer
    /// without analog weights.
    fn set_noise(&mut self, mask: Option<Tensor>) {
        assert!(
            mask.is_none(),
            "layer {} has no analog weights to perturb",
            self.name()
        );
    }

    /// Folds an installed noise mask into the nominal weights and clears
    /// the mask: the effective weight `w ⊙ mask` becomes the stored weight.
    ///
    /// This is the "programming" step of a compiled deployment — after
    /// baking, the hot inference path multiplies no masks and allocates no
    /// effective-weight temporaries. Layers without analog weights (and
    /// layers without an installed mask) are untouched.
    ///
    /// Baking is destructive to the nominal weights by design; it is meant
    /// for deployment snapshots, not for models that keep training.
    fn bake_noise(&mut self) {}

    /// Packs the layer's frozen *effective* weights into the GEMM panel
    /// layout consumed by the inference hot path
    /// ([`cn_tensor::ops::PackedB`] for dense layers,
    /// [`cn_tensor::ops::PackedA`] for convolutions), so repeated
    /// [`infer`](Layer::infer) calls skip the per-call repack of
    /// row-major weights.
    ///
    /// This is a deployment-time hook: compiled snapshots call it once
    /// after programming (mask install / bake / finalize). Packed panels
    /// are conservatively invalidated by anything that can change the
    /// effective weight — [`set_noise`](Layer::set_noise),
    /// [`bake_noise`](Layer::bake_noise) and mutable parameter access —
    /// so a model that keeps training simply falls back to the unpacked
    /// path. Packed and unpacked inference are **bitwise identical**
    /// (packing only moves bits; see the GEMM kernel docs). Layers
    /// without a packable matrix operator keep the default no-op.
    fn pack_weights(&mut self) {}

    /// The matrix whose spectral norm bounds this layer's Lipschitz
    /// constant (dense weight, or unfolded conv kernel), if the layer is
    /// subject to Lipschitz regularization.
    fn lipschitz_matrix(&self) -> Option<Tensor> {
        None
    }

    /// Writes a gradient contribution for the Lipschitz matrix back into
    /// the layer's weight gradient. `grad` has the shape of
    /// [`lipschitz_matrix`](Layer::lipschitz_matrix).
    ///
    /// The default implementation panics for layers without a Lipschitz
    /// matrix.
    fn accumulate_lipschitz_grad(&mut self, _grad: &Tensor) {
        panic!("layer {} has no Lipschitz matrix", self.name());
    }

    /// Non-trainable state tensors (e.g. batch-norm running statistics),
    /// persisted in state dicts alongside parameters.
    fn buffers(&self) -> Vec<(String, &Tensor)> {
        Vec::new()
    }

    /// Mutable access to non-trainable state tensors.
    fn buffers_mut(&mut self) -> Vec<(String, &mut Tensor)> {
        Vec::new()
    }

    /// Total number of scalar weights (for overhead accounting).
    fn weight_count(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Per-sample multiply-accumulate counts as `(analog, digital)` given
    /// the layer's activation shapes (batch leading). The default derives
    /// the analog count from the Lipschitz matrix (each output position
    /// costs one dot product of its length); digital layers report zero.
    /// CorrectNet compensation wrappers override this to add their digital
    /// generator/compensator MACs.
    fn macs(&self, _in_dims: &[usize], out_dims: &[usize]) -> (u64, u64) {
        match self.lipschitz_matrix() {
            Some(m) => {
                let out_per_sample: usize = out_dims[1..].iter().product();
                (out_per_sample as u64 * m.dims()[1] as u64, 0)
            }
            None => (0, 0),
        }
    }

    /// Freezes/unfreezes every parameter of this layer.
    fn set_frozen(&mut self, frozen: bool) {
        for p in self.params_mut() {
            p.set_frozen(frozen);
        }
    }

    /// Clones the layer behind a fresh box (supports `Clone` for
    /// heterogeneous layer stacks).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Concrete-type access for callers that must rebuild or wrap specific
    /// layers (e.g. CorrectNet wrapping a `Conv2d` with compensation).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable concrete-type access.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Test support for the [`Layer::infer_into`] contract on a random
/// input of shape `in_dims` whose first elements are NaN, ±inf, −0.0 and
/// +0.0 (`in_dims` must hold at least five elements).
///
/// Panics unless `infer_into(x, Relu, out)` equals [`Layer::infer`]
/// followed by a separate `v.max(0.0)` bit for bit (NaN bit patterns and
/// signed zeros included), and unless `infer_into` fully overwrites a
/// recycled `out` that holds garbage of another shape.
pub fn assert_infer_into_contract(layer: &dyn Layer, in_dims: &[usize], seed: u64) {
    let mut x = cn_tensor::SeededRng::new(seed).normal_tensor(in_dims, 0.0, 1.0);
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
    x.data_mut()[..specials.len()].copy_from_slice(&specials);
    let bits = |t: &Tensor| {
        let data: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();
        (t.dims().to_vec(), data)
    };
    let plain = layer.infer(&x);
    let mut out = Tensor::full(&[3, 7], f32::NAN);
    layer.infer_into(&x, Activation::Relu, &mut out);
    let separate = plain.map(|v| v.max(0.0));
    assert_eq!(
        bits(&out),
        bits(&separate),
        "{}: fused ReLU diverged from infer + ReLU",
        layer.name()
    );
    layer.infer_into(&x, Activation::Identity, &mut out);
    assert_eq!(
        bits(&out),
        bits(&plain),
        "{}: infer_into into a recycled tensor diverged from infer",
        layer.name()
    );
}
