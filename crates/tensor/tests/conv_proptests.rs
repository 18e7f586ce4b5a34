//! Property tests for the convolution kernel.
//!
//! [`conv2d_into`] fuses the `im2col` gather into GEMM panel packing and
//! writes NCHW directly, but it must still be **bitwise identical** to the
//! explicit lowering chain it replaced, kept here as the reference:
//! `im2col → matmul_t → +bias → max(0) → rows_to_nchw`. Shapes are drawn
//! so that output channels and output positions are mostly not multiples
//! of the 8-wide register tile, and inputs may carry NaN, ±inf and −0.0.

use cn_tensor::ops::{conv2d_into, im2col, rows_to_nchw, Activation, Conv2dGeometry, PackedA};
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
    // Smallest input the kernel fits, plus a random margin.
    let min = k.saturating_sub(2 * pad).max(1);
    let geo = Conv2dGeometry {
        in_c: c,
        in_h: min + dh,
        in_w: min + dw,
        kh: k,
        kw: k,
        stride,
        pad,
    };
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
}
