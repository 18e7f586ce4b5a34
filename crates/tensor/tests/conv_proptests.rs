//! Property tests for the convolution kernels.
//!
//! [`conv2d_into`] fuses the `im2col` gather into GEMM panel packing and
//! writes NCHW directly, but it must still be **bitwise identical** to the
//! explicit lowering chain it replaced, kept here as the reference:
//! `im2col → matmul_t → +bias → max(0) → rows_to_nchw`. Likewise
//! [`conv2d_backward`] reads NCHW tensors directly and must match the
//! chain `g = nchw_to_rows(dY)`, `dW = gᵀ·im2col(X)`, `db = g.sum_rows()`,
//! `dX = col2im(g·W)` bit for bit. Shapes are drawn so that output
//! channels, patch lengths and output positions are mostly not multiples
//! of the 8-wide register tile, and inputs may carry NaN, ±inf and −0.0.

use cn_tensor::ops::{
    col2im, conv2d_backward, conv2d_into, im2col, nchw_to_rows, rows_to_nchw, Activation,
    Conv2dGeometry, PackedA,
};
use cn_tensor::{SeededRng, Tensor};
use proptest::prelude::*;

/// Exact comparison: non-NaN values agree bitwise (±inf and signed zero
/// included) and NaN appears at exactly the same positions (NaN payload
/// bits are implementation-chosen).
fn assert_bit_identical(got: &Tensor, want: &Tensor) -> Result<(), TestCaseError> {
    prop_assert!(got.dims() == want.dims(), "shape mismatch");
    for (i, (x, y)) in got.data().iter().zip(want.data().iter()).enumerate() {
        prop_assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "diverged at flat index {i}: {x} vs {y}"
        );
    }
    Ok(())
}

/// Sprinkles NaN, ±inf and signed zeros into a tensor.
fn poison(t: &mut Tensor, rng: &mut SeededRng, rate: f32) {
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
    for v in t.data_mut() {
        if rng.uniform() < rate {
            *v = specials[rng.index(specials.len())];
        }
    }
}

/// The seed lowering chain.
fn reference(x: &Tensor, geo: &Conv2dGeometry, w: &Tensor, b: &Tensor, act: Activation) -> Tensor {
    let mut rows = &im2col(x, geo).matmul_t(w) + b;
    if act == Activation::Relu {
        rows = rows.map(|v| v.max(0.0));
    }
    rows_to_nchw(&rows, x.dims()[0], w.dims()[0], geo.out_h(), geo.out_w())
}

/// Random geometry: the smallest input the kernel fits, plus a margin.
fn geometry(
    (c, dh, dw, k): (usize, usize, usize, usize),
    stride: usize,
    pad: usize,
) -> Conv2dGeometry {
    let min = k.saturating_sub(2 * pad).max(1);
    Conv2dGeometry {
        in_c: c,
        in_h: min + dh,
        in_w: min + dw,
        kh: k,
        kw: k,
        stride,
        pad,
    }
}

/// One random case: the kernel against the reference on the same data.
fn check_case(
    (c, dh, dw, oc, k): (usize, usize, usize, usize, usize),
    stride: usize,
    pad: usize,
    batch: usize,
    relu: bool,
    poison_rate: f32,
    seed: u64,
) -> Result<(), TestCaseError> {
    let geo = geometry((c, dh, dw, k), stride, pad);
    let mut rng = SeededRng::new(seed);
    let mut x = rng.normal_tensor(&[batch, c, geo.in_h, geo.in_w], 0.0, 1.0);
    let mut w = rng.normal_tensor(&[oc, geo.patch_len()], 0.0, 1.0);
    let mut b = rng.normal_tensor(&[oc], 0.0, 1.0);
    poison(&mut x, &mut rng, poison_rate);
    poison(&mut w, &mut rng, poison_rate);
    poison(&mut b, &mut rng, poison_rate);
    let act = if relu {
        Activation::Relu
    } else {
        Activation::Identity
    };

    let packed = PackedA::pack(w.data(), oc, geo.patch_len());
    let mut got = Tensor::zeros(&[batch, oc, geo.out_h(), geo.out_w()]);
    conv2d_into(got.data_mut(), &x, &geo, &packed, b.data(), act);
    assert_bit_identical(&got, &reference(&x, &geo, &w, &b, act))
}

/// The backward reference chain: `(dW, db, dX)`.
fn backward_reference(
    x: &Tensor,
    geo: &Conv2dGeometry,
    w: &Tensor,
    dy: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let g = nchw_to_rows(dy);
    let dw = g.t_matmul(&im2col(x, geo));
    let dx = col2im(&g.matmul(w), geo, x.dims()[0]);
    (dw, g.sum_rows(), dx)
}

/// One random backward case: `conv2d_backward` against the chain.
fn check_backward_case(
    (c, dh, dw, oc, k): (usize, usize, usize, usize, usize),
    stride: usize,
    pad: usize,
    batch: usize,
    poison_rate: f32,
    seed: u64,
) -> Result<(), TestCaseError> {
    let geo = geometry((c, dh, dw, k), stride, pad);
    let mut rng = SeededRng::new(seed);
    let mut x = rng.normal_tensor(&[batch, c, geo.in_h, geo.in_w], 0.0, 1.0);
    let w = rng.normal_tensor(&[oc, geo.patch_len()], 0.0, 1.0);
    let mut dy = rng.normal_tensor(&[batch, oc, geo.out_h(), geo.out_w()], 0.0, 1.0);
    poison(&mut x, &mut rng, poison_rate);
    poison(&mut dy, &mut rng, poison_rate);

    let mut got_dw = Tensor::full(&[oc, geo.patch_len()], f32::NAN);
    let mut got_db = Tensor::full(&[oc], f32::NAN);
    let mut got_dx = Tensor::full(x.dims(), f32::NAN);
    conv2d_backward(
        &x,
        &geo,
        w.data(),
        &dy,
        got_dw.data_mut(),
        got_db.data_mut(),
        got_dx.data_mut(),
    );
    let (want_dw, want_db, want_dx) = backward_reference(&x, &geo, &w, &dy);
    assert_bit_identical(&got_dw, &want_dw)?;
    assert_bit_identical(&got_db, &want_db)?;
    assert_bit_identical(&got_dx, &want_dx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random geometry (channels, sizes, kernel, stride, padding, batch)
    /// with both activations, on finite inputs.
    #[test]
    fn conv_kernel_bit_identical_to_lowering_chain(
        c in 1usize..5, dh in 0usize..12, dw in 0usize..12, oc in 1usize..21,
        k in 1usize..6, stride in 1usize..4, pad in 0usize..3, batch in 1usize..4,
        relu in 0usize..2, seed in 0u64..1000
    ) {
        check_case((c, dh, dw, oc, k), stride, pad, batch, relu == 1, 0.0, seed)?;
    }

    /// Batch 1 with NaN, ±inf and −0.0 in inputs, weights and bias:
    /// `0 × inf`, `inf − inf`, NaN propagation and signed-zero sums reach
    /// the output exactly as through the reference chain.
    #[test]
    fn non_finite_inputs_propagate_bit_identically(
        c in 1usize..4, dh in 0usize..8, dw in 0usize..8, oc in 1usize..19,
        k in 1usize..5, stride in 1usize..3, pad in 0usize..3,
        relu in 0usize..2, seed in 0u64..1000
    ) {
        check_case((c, dh, dw, oc, k), stride, pad, 1, relu == 1, 0.15, seed)?;
    }

    /// Backward on finite data: batch 0, 1 and several images, strides
    /// 1–3, padding 0–2, kernels 1–5, and output channels / patch lengths
    /// that straddle the 8-wide tile.
    #[test]
    fn backward_bit_identical_to_lowering_chain(
        c in 1usize..5, dh in 0usize..12, dw in 0usize..12, oc in 1usize..21,
        k in 1usize..6, stride in 1usize..4, pad in 0usize..3, batch in 0usize..5,
        seed in 0u64..1000
    ) {
        check_backward_case((c, dh, dw, oc, k), stride, pad, batch, 0.0, seed)?;
    }

    /// Backward with NaN, ±inf and −0.0 in the input and the output
    /// gradient: they reach dW, db and dX exactly as through the chain.
    #[test]
    fn backward_non_finite_inputs_propagate_bit_identically(
        c in 1usize..4, dh in 0usize..8, dw in 0usize..8, oc in 1usize..19,
        k in 1usize..5, stride in 1usize..3, pad in 0usize..3, batch in 0usize..4,
        seed in 0u64..1000
    ) {
        check_backward_case((c, dh, dw, oc, k), stride, pad, batch, 0.03, seed)?;
    }
}
