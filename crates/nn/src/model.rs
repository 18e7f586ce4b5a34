//! The [`Sequential`] model container.

use crate::layer::Layer;
use crate::layers::Relu;
use crate::param::Param;
use cn_tensor::error::{Result, TensorError};
use cn_tensor::ops::Activation;
use cn_tensor::Tensor;
use std::collections::HashMap;

/// A feed-forward stack of layers executed in order.
///
/// `Sequential` owns heterogeneous boxed [`Layer`]s, giving them unique
/// names (`"<layer>_<index>"` on collision), aggregates their parameters
/// for optimizers and regularizers, manages per-layer noise masks, and
/// serializes/restores state dicts.
#[derive(Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    names: Vec<String>,
}

/// Reusable inference memory for [`Sequential::infer_with`]: two
/// ping-pong activation tensors (a layer writes into one while reading
/// the other).
///
/// Starts empty and grows on first use through
/// [`Tensor::resize_in_place`], so it needs no sizing up front and does
/// not depend on the model: one scratch serves any model and any batch
/// size, and after a pass at the largest batch, reuse is allocation-free.
#[derive(Debug, Default)]
pub struct InferScratch {
    ping: Tensor,
    pong: Tensor,
}

impl Sequential {
    /// Builds a model from layers, uniquifying their names.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        let mut counts: HashMap<String, usize> = HashMap::new();
        let mut names = Vec::with_capacity(layers.len());
        for layer in &layers {
            let base = layer.name().to_string();
            let k = counts.entry(base.clone()).or_insert(0);
            names.push(if *k == 0 {
                base.clone()
            } else {
                format!("{base}_{k}")
            });
            *k += 1;
        }
        Sequential { layers, names }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Unique name of layer `i`.
    pub fn layer_name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Immutable access to layer `i`.
    pub fn layer(&self, i: usize) -> &dyn Layer {
        self.layers[i].as_ref()
    }

    /// Mutable access to layer `i`.
    pub fn layer_mut(&mut self, i: usize) -> &mut dyn Layer {
        self.layers[i].as_mut()
    }

    /// Replaces layer `i`, keeping its position (used to wrap layers with
    /// error compensation). Names are re-derived.
    pub fn replace_layer(&mut self, i: usize, layer: Box<dyn Layer>) {
        self.layers[i] = layer;
        *self = Sequential::new(std::mem::take(&mut self.layers));
    }

    /// Runs the forward pass through all layers.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    /// Evaluation-mode forward pass through `&self` (no activation caching,
    /// no statistics updates). Bitwise-identical to
    /// `forward(x, /*train=*/false)`; because it never mutates the model,
    /// one instance can serve concurrent inference sessions.
    ///
    /// A thin allocating wrapper over [`infer_with`](Self::infer_with)
    /// with fresh scratch.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        self.infer_with(x, &mut InferScratch::default()).clone()
    }

    /// [`infer`](Self::infer) through caller-owned scratch: the
    /// allocation-free steady-state entry point.
    ///
    /// Every layer writes its [`Layer::infer_into`] output into one of
    /// the scratch's two ping-pong tensors while reading the other. A
    /// `<layer> → Relu` pair runs as one step with the ReLU fused into the
    /// layer's output stage (the C-tile writeback for `Dense`, `Conv2d`
    /// and the compensation wrappers; an in-place `v.max(0.0)` elsewhere),
    /// which is bitwise identical to running the [`Relu`] separately.
    ///
    /// The scratch grows on first use and is independent of the model, so
    /// one scratch can serve any sequence of models and batch sizes; once
    /// it has seen the largest batch, further calls allocate nothing.
    /// The returned reference borrows from `scratch`; copy it out (or
    /// consume it) before the next call overwrites the buffers.
    pub fn infer_with<'s>(&self, x: &Tensor, scratch: &'s mut InferScratch) -> &'s Tensor {
        let InferScratch { ping, pong } = scratch;
        let mut src: &mut Tensor = ping;
        let mut dst: &mut Tensor = pong;
        let mut first = true;
        let mut i = 0;
        while i < self.layers.len() {
            let input: &Tensor = if first { x } else { &*src };
            let fuse_relu = self
                .layers
                .get(i + 1)
                .is_some_and(|l| l.as_any().is::<Relu>());
            let act = if fuse_relu {
                Activation::Relu
            } else {
                Activation::Identity
            };
            self.layers[i].infer_into(input, act, dst);
            i += if fuse_relu { 2 } else { 1 };
            std::mem::swap(&mut src, &mut dst);
            first = false;
        }
        if first {
            // Zero-layer model: `infer` returns the input unchanged.
            src.resize_in_place(x.dims());
            src.data_mut().copy_from_slice(x.data());
        }
        &*src
    }

    /// Runs the forward pass, returning every intermediate activation
    /// (index `i` holds the output of layer `i`).
    pub fn forward_collect(&mut self, x: &Tensor, train: bool) -> Vec<Tensor> {
        let mut outs = Vec::with_capacity(self.layers.len());
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, train);
            outs.push(cur.clone());
        }
        outs
    }

    /// Backpropagates the output gradient through every layer,
    /// accumulating parameter gradients. The network's input gradient is
    /// never read, so it is not computed: the first layer runs
    /// [`Layer::backward_params`].
    pub fn backward(&mut self, grad_out: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = None;
        for layer in rest.iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(grad_out)));
        }
        first.backward_params(g.as_ref().unwrap_or(grad_out));
    }

    /// All parameters, prefixed with their layer's unique name.
    pub fn named_params(&self) -> Vec<(String, &Param)> {
        let mut out = Vec::new();
        for (layer, name) in self.layers.iter().zip(self.names.iter()) {
            for p in layer.params() {
                out.push((format!("{name}.{}", p.name), p));
            }
        }
        out
    }

    /// Mutable access to all parameters, in a stable order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Clears every parameter gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total scalar weight count (for the paper's overhead metric).
    pub fn weight_count(&self) -> usize {
        self.layers.iter().map(|l| l.weight_count()).sum()
    }

    /// Indices and noise-tensor shapes of all layers holding analog
    /// weights.
    pub fn noisy_layers(&self) -> Vec<(usize, Vec<usize>)> {
        self.layers
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.noise_dims().map(|d| (i, d)))
            .collect()
    }

    /// Installs one deployment's mask plan: entry `k` is the mask of the
    /// `k`-th layer of [`noisy_layers`](Self::noisy_layers), and `None`
    /// clears that layer's mask.
    ///
    /// # Panics
    ///
    /// Panics, before touching any layer, if the plan does not hold one
    /// entry per analog layer or a mask's shape differs from its layer's.
    pub fn install_noise(&mut self, plan: Vec<Option<Tensor>>) {
        let noisy = self.noisy_layers();
        assert_eq!(
            plan.len(),
            noisy.len(),
            "mask plan has {} entries for {} analog layers",
            plan.len(),
            noisy.len()
        );
        for ((layer_index, dims), mask) in noisy.iter().zip(&plan) {
            if let Some(mask) = mask {
                assert_eq!(
                    mask.dims(),
                    &dims[..],
                    "mask shape mismatch at layer {layer_index}"
                );
            }
        }
        for ((layer_index, _), mask) in noisy.into_iter().zip(plan) {
            self.layers[layer_index].set_noise(mask);
        }
    }

    /// Folds every installed noise mask into the nominal weights and clears
    /// the masks (see [`Layer::bake_noise`]). Deployment snapshots call
    /// this once at compile time so the inference hot path multiplies no
    /// masks.
    pub fn bake_noise(&mut self) {
        for layer in &mut self.layers {
            layer.bake_noise();
        }
    }

    /// Packs every layer's frozen effective weights into GEMM panels
    /// (see [`Layer::pack_weights`]). Deployment snapshots call this once
    /// after programming so the inference hot path reuses packed panels
    /// instead of repacking row-major weights per batch; packed and
    /// unpacked inference are bitwise identical.
    pub fn pack_weights(&mut self) {
        for layer in &mut self.layers {
            layer.pack_weights();
        }
    }

    /// Clears all noise masks.
    pub fn clear_noise(&mut self) {
        for layer in &mut self.layers {
            if layer.noise_dims().is_some() {
                layer.set_noise(None);
            }
        }
    }

    /// Freezes/unfreezes every parameter in the model.
    pub fn set_frozen(&mut self, frozen: bool) {
        for layer in &mut self.layers {
            layer.set_frozen(frozen);
        }
    }

    /// Lipschitz matrices of all regularized layers as
    /// `(layer_index, matrix)`.
    pub fn lipschitz_matrices(&self) -> Vec<(usize, Tensor)> {
        self.layers
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.lipschitz_matrix().map(|m| (i, m)))
            .collect()
    }

    /// Stable fingerprint of the model *architecture*: a digest over the
    /// layer names plus every parameter/buffer name and shape (weight
    /// values are excluded). Two models agree iff a state dict saved from
    /// one loads into the other, which makes the fingerprint the natural
    /// cache key component for serialized trained models.
    pub fn arch_fingerprint(&self) -> String {
        let mut desc: Vec<u8> = Vec::new();
        for (layer, name) in self.layers.iter().zip(self.names.iter()) {
            desc.extend_from_slice(name.as_bytes());
            desc.push(0xff);
            for p in layer.params() {
                desc.extend_from_slice(p.name.as_bytes());
                for &d in p.value.dims() {
                    desc.extend_from_slice(&(d as u64).to_le_bytes());
                }
            }
            for (bname, b) in layer.buffers() {
                desc.extend_from_slice(bname.as_bytes());
                for &d in b.dims() {
                    desc.extend_from_slice(&(d as u64).to_le_bytes());
                }
            }
        }
        format!("{:016x}", cn_tensor::hash::fnv1a64(&desc))
    }

    /// Serializes parameters and buffers into a named state dict.
    pub fn state_dict(&self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        for (layer, name) in self.layers.iter().zip(self.names.iter()) {
            for p in layer.params() {
                out.push((format!("{name}.{}", p.name), p.value.clone()));
            }
            for (bname, b) in layer.buffers() {
                out.push((format!("{name}.{bname}"), b.clone()));
            }
        }
        out
    }

    /// Restores parameters and buffers from a state dict produced by a
    /// structurally identical model.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Malformed`] on missing entries or shape
    /// mismatches.
    pub fn load_state_dict(&mut self, dict: &[(String, Tensor)]) -> Result<()> {
        let map: HashMap<&str, &Tensor> = dict.iter().map(|(n, t)| (n.as_str(), t)).collect();
        let names = self.names.clone();
        for (layer, name) in self.layers.iter_mut().zip(names.iter()) {
            for p in layer.params_mut() {
                let key = format!("{name}.{}", p.name);
                let t = map.get(key.as_str()).ok_or_else(|| {
                    TensorError::Malformed(format!("missing state dict entry {key}"))
                })?;
                if t.dims() != p.value.dims() {
                    return Err(TensorError::Malformed(format!(
                        "shape mismatch for {key}: {} vs {}",
                        t.shape(),
                        p.value.shape()
                    )));
                }
                p.value = (*t).clone();
            }
            for (bname, b) in layer.buffers_mut() {
                let key = format!("{name}.{bname}");
                let t = map.get(key.as_str()).ok_or_else(|| {
                    TensorError::Malformed(format!("missing state dict entry {key}"))
                })?;
                if t.dims() != b.dims() {
                    return Err(TensorError::Malformed(format!(
                        "shape mismatch for buffer {key}"
                    )));
                }
                *b = (*t).clone();
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Sequential[{} layers: {}]",
            self.layers.len(),
            self.names.join(" → ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use cn_tensor::SeededRng;

    fn mlp(rng: &mut SeededRng) -> Sequential {
        Sequential::new(vec![
            Box::new(Dense::new(4, 6, rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(6, 3, rng)),
        ])
    }

    #[test]
    fn names_are_unique() {
        let mut rng = SeededRng::new(1);
        let m = mlp(&mut rng);
        assert_eq!(m.layer_name(0), "dense");
        assert_eq!(m.layer_name(2), "dense_1");
    }

    #[test]
    fn forward_backward_shapes() {
        let mut rng = SeededRng::new(2);
        let mut m = mlp(&mut rng);
        let x = rng.normal_tensor(&[5, 4], 0.0, 1.0);
        let y = m.forward(&x, true);
        assert_eq!(y.dims(), &[5, 3]);
        m.backward(&Tensor::ones(&[5, 3]));
        for p in m.params_mut() {
            assert_eq!(p.grad.dims(), p.value.dims());
        }
        // The first layer's parameters got their gradient too.
        assert!(m.layers[0].params()[0].grad.abs_max() > 0.0);
    }

    /// `backward` skips only the network's input gradient: on LeNet-5,
    /// every parameter gradient is bitwise the one the full
    /// layer-by-layer chain (input gradient included) accumulates.
    #[test]
    fn backward_matches_the_full_layer_chain_bitwise() {
        use crate::zoo::{lenet5, LeNetConfig};
        let mut rng = SeededRng::new(21);
        let x = rng.normal_tensor(&[4, 1, 28, 28], 0.0, 1.0);
        let g = rng.normal_tensor(&[4, 10], 0.0, 1.0);
        let grads = |m: &mut Sequential| -> Vec<Vec<u32>> {
            m.params_mut()
                .iter()
                .map(|p| p.grad.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let mut chain = lenet5(&LeNetConfig::mnist(22));
        let mut skipped = chain.clone();
        chain.forward(&x, true);
        let mut gx = g.clone();
        for i in (0..chain.len()).rev() {
            gx = chain.layer_mut(i).backward(&gx);
        }
        assert_eq!(gx.dims(), x.dims());
        skipped.forward(&x, true);
        skipped.backward(&g);
        assert_eq!(grads(&mut skipped), grads(&mut chain));
    }

    #[test]
    fn forward_collect_returns_all_activations() {
        let mut rng = SeededRng::new(3);
        let mut m = mlp(&mut rng);
        let x = rng.normal_tensor(&[2, 4], 0.0, 1.0);
        let acts = m.forward_collect(&x, false);
        assert_eq!(acts.len(), 3);
        assert_eq!(acts[0].dims(), &[2, 6]);
        assert_eq!(acts[2].dims(), &[2, 3]);
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut rng = SeededRng::new(4);
        let mut m = mlp(&mut rng);
        let x = rng.normal_tensor(&[2, 4], 0.0, 1.0);
        let y = m.forward(&x, true);
        m.backward(&Tensor::ones(y.dims()));
        assert!(m.params_mut().iter().any(|p| p.grad.abs_max() > 0.0));
        m.zero_grad();
        assert!(m.params_mut().iter().all(|p| p.grad.abs_max() == 0.0));
    }

    #[test]
    fn weight_count_sums_layers() {
        let mut rng = SeededRng::new(5);
        let m = mlp(&mut rng);
        assert_eq!(m.weight_count(), (4 * 6 + 6) + (6 * 3 + 3));
    }

    #[test]
    fn noisy_layers_lists_dense_only() {
        let mut rng = SeededRng::new(6);
        let m = mlp(&mut rng);
        let noisy = m.noisy_layers();
        assert_eq!(noisy.len(), 2);
        assert_eq!(noisy[0], (0, vec![6, 4]));
        assert_eq!(noisy[1], (2, vec![3, 6]));
    }

    #[test]
    fn install_noise_sets_and_clears_masks() {
        let mut rng = SeededRng::new(14);
        let mut m = mlp(&mut rng);
        let x = rng.normal_tensor(&[2, 4], 0.0, 1.0);
        let clean = m.forward(&x, false);
        let plan = vec![
            Some(rng.lognormal_mask(&[6, 4], 0.5)),
            Some(rng.lognormal_mask(&[3, 6], 0.5)),
        ];
        m.install_noise(plan);
        assert_ne!(m.forward(&x, false), clean);
        // `None` clears: a second install leaves only layer 2 noisy, so
        // the first layer's activations match the clean model's again.
        m.install_noise(vec![None, Some(rng.lognormal_mask(&[3, 6], 0.5))]);
        let mut reference = m.clone();
        reference.clear_noise();
        assert_eq!(
            m.forward_collect(&x, false)[1],
            reference.forward_collect(&x, false)[1]
        );
        m.install_noise(vec![None, None]);
        assert_eq!(m.forward(&x, false), clean);
    }

    #[test]
    #[should_panic(expected = "mask plan has 1 entries for 2 analog layers")]
    fn install_noise_rejects_wrong_length() {
        let mut rng = SeededRng::new(15);
        mlp(&mut rng).install_noise(vec![None]);
    }

    #[test]
    #[should_panic(expected = "mask shape mismatch at layer 2")]
    fn install_noise_rejects_wrong_shape() {
        let mut rng = SeededRng::new(16);
        let mut m = mlp(&mut rng);
        m.install_noise(vec![None, Some(Tensor::ones(&[6, 3]))]);
    }

    #[test]
    fn state_dict_roundtrip() {
        let mut rng = SeededRng::new(7);
        let mut m1 = mlp(&mut rng);
        let mut m2 = mlp(&mut rng); // different init
        let x = rng.normal_tensor(&[2, 4], 0.0, 1.0);
        let y1 = m1.forward(&x, false);
        let y2 = m2.forward(&x, false);
        assert_ne!(y1, y2);
        m2.load_state_dict(&m1.state_dict()).unwrap();
        let y2b = m2.forward(&x, false);
        assert_eq!(y1, y2b);
    }

    #[test]
    fn load_rejects_missing_entries() {
        let mut rng = SeededRng::new(8);
        let mut m = mlp(&mut rng);
        let err = m.load_state_dict(&[]).unwrap_err();
        assert!(matches!(err, TensorError::Malformed(_)));
    }

    #[test]
    fn clone_is_independent() {
        let mut rng = SeededRng::new(9);
        let mut m1 = mlp(&mut rng);
        let mut m2 = m1.clone();
        let x = rng.normal_tensor(&[1, 4], 0.0, 1.0);
        assert_eq!(m1.forward(&x, false), m2.forward(&x, false));
        // Mutating the clone leaves the original untouched. Compare the
        // parameters themselves: a ReLU dead zone could hide a shared-
        // storage bug from a forward-output comparison.
        let before = m1.params_mut()[0].value.clone();
        m2.params_mut()[0].value.data_mut()[0] += 1.0;
        assert_eq!(m1.params_mut()[0].value, before, "original was mutated");
        assert_ne!(m1.params_mut()[0].value, m2.params_mut()[0].value);
    }

    #[test]
    fn arch_fingerprint_tracks_structure_not_weights() {
        let mut rng = SeededRng::new(11);
        let a = mlp(&mut rng);
        let b = mlp(&mut rng); // same structure, different weights
        assert_eq!(a.arch_fingerprint(), b.arch_fingerprint());
        let other = Sequential::new(vec![
            Box::new(Dense::new(4, 7, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(7, 3, &mut rng)),
        ]);
        assert_ne!(a.arch_fingerprint(), other.arch_fingerprint());
    }

    #[test]
    fn fused_and_packed_infer_stays_bitwise_equal_to_forward() {
        use crate::layers::{Conv2d, Flatten, MaxPool2d, Relu};
        let mut rng = SeededRng::new(12);
        // Exercises the GEMM-epilogue fusion pairs (Conv2d→Relu,
        // Dense→Relu), the in-place fusion of MaxPool2d→Relu, and a
        // trailing bare Dense.
        let mut m = Sequential::new(vec![
            Box::new(Conv2d::new(1, 4, 3, 1, 1, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(4 * 3 * 3, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(8, 3, &mut rng)),
        ]);
        let x = rng.normal_tensor(&[2, 1, 6, 6], 0.0, 1.0);
        let reference = m.forward(&x, false);
        assert_eq!(m.infer(&x), reference, "fused infer diverged");
        m.pack_weights();
        assert_eq!(m.infer(&x), reference, "packed infer diverged");
    }

    #[test]
    fn infer_with_is_bitwise_equal_to_infer() {
        use crate::layers::{Conv2d, Flatten, MaxPool2d, Relu};
        let mut rng = SeededRng::new(13);
        let mut m = Sequential::new(vec![
            Box::new(Conv2d::new(1, 4, 3, 1, 1, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(4 * 3 * 3, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(8, 3, &mut rng)),
        ]);
        let x = rng.normal_tensor(&[2, 1, 6, 6], 0.0, 1.0);
        let mut scratch = InferScratch::default();
        // Unpacked layers pack per call into the same scratch.
        assert_eq!(*m.infer_with(&x, &mut scratch), m.infer(&x));
        m.pack_weights();
        let reference = m.infer(&x);
        assert_eq!(*m.infer_with(&x, &mut scratch), reference);
        // Repeat to exercise warm-buffer reuse, plus a smaller batch.
        assert_eq!(*m.infer_with(&x, &mut scratch), reference);
        let x1 = rng.normal_tensor(&[1, 1, 6, 6], 0.0, 1.0);
        assert_eq!(*m.infer_with(&x1, &mut scratch), m.infer(&x1));
        // The scratch does not depend on the model: a different
        // architecture reuses it as is.
        let other = mlp(&mut rng);
        let x2 = rng.normal_tensor(&[3, 4], 0.0, 1.0);
        assert_eq!(*other.infer_with(&x2, &mut scratch), other.infer(&x2));
        // A zero-layer model returns its input.
        let empty = Sequential::new(Vec::new());
        assert_eq!(*empty.infer_with(&x2, &mut scratch), x2);
    }

    #[test]
    fn set_frozen_propagates() {
        let mut rng = SeededRng::new(10);
        let mut m = mlp(&mut rng);
        m.set_frozen(true);
        assert!(m.params_mut().iter().all(|p| p.is_frozen()));
    }
}
