//! Packed, register-tiled GEMM with fused epilogues.
//!
//! This is the single kernel every matrix product in the workspace ends
//! up in: [`Tensor::matmul`](crate::Tensor::matmul) /
//! [`Tensor::t_matmul`](crate::Tensor::t_matmul) /
//! [`Tensor::matmul_t`](crate::Tensor::matmul_t) are thin entry points
//! over [`gemm_into`], and the inference layers of `cn-nn` call
//! [`gemm_bias_act`] with pre-packed weight panels. Convolutions run the
//! same micro-kernel through [`conv2d_into`], which packs the weights as
//! the left operand and gathers input patches straight into B panels.
//!
//! # Structure
//!
//! 1. The right operand is packed into `NR`-column panels
//!    ([`PackedB`]) — once per call for ad-hoc products, once per
//!    *deployment* for frozen weights.
//! 2. Output rows are distributed over threads in `MR`-aligned row
//!    blocks via [`crate::parallel::parallel_chunks_mut`]; each worker
//!    packs its A rows into `MR`-row panels.
//! 3. An `MR × NR` register-blocked micro-kernel accumulates each output
//!    tile over the full `k` extent, then writes it back through the
//!    [`Epilogue`] (optional bias add and/or ReLU).
//!
//! # Bit-exactness guarantee
//!
//! Every output element is accumulated **in ascending k order by a
//! single dedicated `f32` accumulator** — there is no split-k, no pair
//! summation and no FMA contraction. Register tiling only interleaves
//! *independent* output elements, and packing only moves bits, so the
//! result is bitwise identical to the naive i-k-j triple loop (and to
//! the pre-packing kernels this module replaced). The engine-equivalence
//! suite and the GEMM property tests pin this. (Sole caveat: when an
//! output is NaN, IEEE 754 leaves the NaN *payload* bits to the
//! implementation — NaN positions always coincide, but their payloads
//! may differ between code paths.)

mod conv;
mod kernel;
mod pack;

pub use conv::{conv2d_backward, conv2d_into};
pub use kernel::Epilogue;
pub use pack::{Layout, PackedA, PackedB};

use crate::parallel::{num_threads, parallel_chunks_mut};
use crate::tensor::Tensor;

/// Rows of the register accumulator tile.
pub const MR: usize = 8;
/// Columns of the register accumulator tile.
pub const NR: usize = 8;

/// Minimum output rows per spawned chunk; below this the spawn overhead
/// dominates the arithmetic.
const MIN_ROWS_PER_CHUNK: usize = 8;

/// Row-block height per parallel chunk: even split over the workers,
/// floored at [`MIN_ROWS_PER_CHUNK`] and aligned up to [`MR`] so chunk
/// boundaries coincide with tile boundaries.
fn rows_block(m: usize) -> usize {
    (m.div_ceil(num_threads()))
        .max(MIN_ROWS_PER_CHUNK)
        .next_multiple_of(MR)
}

/// Activation fused into [`gemm_bias_act`]'s writeback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// No activation — bias add only.
    Identity,
    /// `max(v, 0.0)`, bitwise identical to a separate ReLU pass.
    Relu,
}

/// The GEMM driver: `C[m, n] = epilogue(A[m, k] · B[k, n])` into a
/// caller-provided output slice.
///
/// `a` is read per `a_layout` (see [`Layout`]); `b` is already packed.
/// Degenerate shapes are well-defined: `m == 0` or `n == 0` writes
/// nothing, and `k == 0` writes `epilogue(0.0)` to every element.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `n`, `b.k()`, or if a bias
/// epilogue's slice length is not `n`.
pub fn gemm_into(
    c: &mut [f32],
    m: usize,
    n: usize,
    a: &[f32],
    a_layout: Layout,
    b: &PackedB,
    epilogue: Epilogue<'_>,
) {
    let k = b.k();
    assert_eq!(
        b.n(),
        n,
        "gemm: packed B has {} cols, output has {n}",
        b.n()
    );
    assert_eq!(
        a.len(),
        m * k,
        "gemm: lhs holds {} floats, expected {m}×{k}",
        a.len()
    );
    assert_eq!(
        c.len(),
        m * n,
        "gemm: output holds {} floats, expected {m}×{n}",
        c.len()
    );
    if let Some(bias) = epilogue.bias() {
        assert_eq!(bias.len(), n, "gemm: bias length {} != n = {n}", bias.len());
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Empty reduction: accumulators stay 0.0, only the epilogue runs.
        for row in c.chunks_mut(n) {
            for (j, cj) in row.iter_mut().enumerate() {
                *cj = epilogue.apply(0.0, j);
            }
        }
        return;
    }
    let rb = rows_block(m);
    let path = kernel::select_path();
    parallel_chunks_mut(c, rb * n, |chunk_idx, c_chunk| {
        let row0 = chunk_idx * rb;
        let rows = c_chunk.len() / n;
        let row_panels = rows.div_ceil(MR);
        A_PANELS.with_borrow_mut(|a_buf| {
            // `pack_a_block` requires a zeroed buffer (ragged tail panels
            // rely on the zero padding), so the recycled scratch is re-memset
            // each call; within its high-water capacity this is heap-free.
            a_buf.clear();
            a_buf.resize(row_panels * k * MR, 0.0);
            pack::pack_a_block(a, m, k, a_layout, row0, rows, a_buf);
            for ip in 0..row_panels {
                let ap = &a_buf[ip * k * MR..(ip + 1) * k * MR];
                let tile_rows = MR.min(rows - ip * MR);
                for jp in 0..b.panels() {
                    // Full tiles keep all 8 accumulator rows live; ragged
                    // tails (and whole short-m products) skip the padded
                    // lanes' arithmetic entirely.
                    let acc = if tile_rows == MR {
                        kernel::microkernel(k, ap, b.panel(jp), path)
                    } else {
                        kernel::microkernel_rows(k, ap, b.panel(jp), tile_rows, path)
                    };
                    let col0 = jp * NR;
                    kernel::write_tile(
                        c_chunk,
                        n,
                        kernel::TileBounds {
                            row0: ip * MR,
                            col0,
                            rows: tile_rows,
                            cols: NR.min(n - col0),
                        },
                        &acc,
                        &epilogue,
                    );
                }
            }
        });
    });
}

thread_local! {
    /// Recycled A-panel packing scratch. One buffer per thread: calls
    /// that run inline (single-threaded callers, and nested calls inside
    /// a `cn_tensor::parallel` worker) pack into warm memory after one
    /// allocation at their high-water size; a fanned-out call's scoped
    /// worker threads are fresh, so each of them allocates its own once
    /// for that call.
    static A_PANELS: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Fused `epilogue(A · B + bias)` over a pre-packed right operand — the
/// inference hot path of `Dense` and `Conv2d`.
///
/// Returns the `[m, b.n()]` product with the bias row broadcast-added
/// and the activation applied in the C-tile writeback. Because both run
/// after the k-accumulation completes, the result is bitwise identical
/// to the unfused `matmul → +bias → relu` chain.
///
/// # Panics
///
/// Panics if `a` is not rank-2, its `k` extent disagrees with the packed
/// operand, or the bias is not a length-`b.n()` rank-1 tensor.
pub fn gemm_bias_act(
    a: &Tensor,
    a_layout: Layout,
    b: &PackedB,
    bias: Option<&Tensor>,
    act: Activation,
) -> Tensor {
    let mut out = Tensor::zeros(&[0, 0]);
    gemm_bias_act_into(&mut out, a, a_layout, b, bias, act);
    out
}

/// [`gemm_bias_act`] into a caller-owned tensor: `out` is reshaped in
/// place to `[m, b.n()]` (reusing its capacity — heap-free at or below
/// its high-water size) and fully overwritten. Bitwise identical to the
/// allocating variant; this is the steady-state inference entry point.
///
/// # Panics
///
/// Same contract as [`gemm_bias_act`].
pub fn gemm_bias_act_into(
    out: &mut Tensor,
    a: &Tensor,
    a_layout: Layout,
    b: &PackedB,
    bias: Option<&Tensor>,
    act: Activation,
) {
    assert_eq!(a.rank(), 2, "gemm_bias_act lhs must be rank-2");
    let (m, k) = match a_layout {
        Layout::RowMajor => (a.dims()[0], a.dims()[1]),
        Layout::Transposed => (a.dims()[1], a.dims()[0]),
    };
    assert_eq!(
        k,
        b.k(),
        "gemm_bias_act inner dims disagree: {k} vs {}",
        b.k()
    );
    if let Some(bias) = bias {
        assert_eq!(bias.rank(), 1, "gemm_bias_act bias must be rank-1");
    }
    let n = b.n();
    out.resize_in_place(&[m, n]);
    let epilogue = match (bias, act) {
        (None, Activation::Identity) => Epilogue::None,
        (None, Activation::Relu) => Epilogue::Relu,
        (Some(bias), Activation::Identity) => Epilogue::Bias(bias.data()),
        (Some(bias), Activation::Relu) => Epilogue::BiasRelu(bias.data()),
    };
    gemm_into(out.data_mut(), m, n, a.data(), a_layout, b, epilogue);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul::matmul_naive;
    use crate::rng::SeededRng;

    #[test]
    fn packed_gemm_is_bitwise_equal_to_naive() {
        let mut rng = SeededRng::new(1);
        for (m, k, n) in [(1, 1, 1), (8, 8, 8), (13, 31, 9), (64, 48, 50), (5, 100, 3)] {
            let a = rng.normal_tensor(&[m, k], 0.0, 1.0);
            let b = rng.normal_tensor(&[k, n], 0.0, 1.0);
            let packed = PackedB::from_tensor(&b, Layout::RowMajor);
            let mut c = Tensor::zeros(&[m, n]);
            gemm_into(
                c.data_mut(),
                m,
                n,
                a.data(),
                Layout::RowMajor,
                &packed,
                Epilogue::None,
            );
            assert_eq!(c, matmul_naive(&a, &b), "{m}×{k}×{n}");
        }
    }

    #[test]
    fn transposed_a_matches_row_major_of_transpose() {
        let mut rng = SeededRng::new(2);
        let at = rng.normal_tensor(&[17, 5], 0.0, 1.0); // stored [k, m]
        let b = rng.normal_tensor(&[17, 11], 0.0, 1.0);
        let packed = PackedB::from_tensor(&b, Layout::RowMajor);
        let mut c = Tensor::zeros(&[5, 11]);
        gemm_into(
            c.data_mut(),
            5,
            11,
            at.data(),
            Layout::Transposed,
            &packed,
            Epilogue::None,
        );
        assert_eq!(c, matmul_naive(&at.transpose(), &b));
    }

    #[test]
    fn bias_epilogue_matches_separate_broadcast_add() {
        let mut rng = SeededRng::new(3);
        let a = rng.normal_tensor(&[9, 14], 0.0, 1.0);
        let w = rng.normal_tensor(&[6, 14], 0.0, 1.0); // [n, k] weight
        let bias = rng.normal_tensor(&[6], 0.0, 1.0);
        let packed = PackedB::from_tensor(&w, Layout::Transposed);
        let fused = gemm_bias_act(
            &a,
            Layout::RowMajor,
            &packed,
            Some(&bias),
            Activation::Identity,
        );
        let unfused = &a.matmul_t(&w) + &bias;
        assert_eq!(fused, unfused);
    }

    #[test]
    fn relu_epilogue_matches_separate_relu() {
        let mut rng = SeededRng::new(4);
        let a = rng.normal_tensor(&[7, 10], 0.0, 1.0);
        let w = rng.normal_tensor(&[4, 10], 0.0, 1.0);
        let bias = rng.normal_tensor(&[4], 0.0, 1.0);
        let packed = PackedB::from_tensor(&w, Layout::Transposed);
        let fused = gemm_bias_act(&a, Layout::RowMajor, &packed, Some(&bias), Activation::Relu);
        let unfused = (&a.matmul_t(&w) + &bias).map(|v| v.max(0.0));
        assert_eq!(fused, unfused);
    }

    #[test]
    fn zero_k_writes_epilogue_of_zero() {
        let packed = PackedB::pack(&[], 0, 3, Layout::RowMajor);
        let a = Tensor::zeros(&[2, 0]);
        let bias = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        let out = gemm_bias_act(&a, Layout::RowMajor, &packed, Some(&bias), Activation::Relu);
        assert_eq!(out.data(), &[1.0, 0.0, 3.0, 1.0, 0.0, 3.0]);
    }

    #[test]
    fn zero_m_and_zero_n_products_are_empty() {
        let packed = PackedB::pack(&[], 4, 0, Layout::RowMajor);
        let a = Tensor::zeros(&[3, 4]);
        let out = gemm_bias_act(&a, Layout::RowMajor, &packed, None, Activation::Identity);
        assert_eq!(out.dims(), &[3, 0]);

        let packed = PackedB::pack(&[0.0; 8], 4, 2, Layout::RowMajor);
        let a = Tensor::zeros(&[0, 4]);
        let out = gemm_bias_act(&a, Layout::RowMajor, &packed, None, Activation::Identity);
        assert_eq!(out.dims(), &[0, 2]);
    }

    #[test]
    fn nan_and_infinity_propagate_through_the_packed_kernel() {
        let a = Tensor::from_vec(vec![0.0, 1.0, f32::INFINITY, 2.0], &[2, 2]);
        let b = Tensor::from_vec(vec![f32::NAN, 1.0, 1.0, 1.0], &[2, 2]);
        let packed = PackedB::from_tensor(&b, Layout::RowMajor);
        let mut c = Tensor::zeros(&[2, 2]);
        gemm_into(
            c.data_mut(),
            2,
            2,
            a.data(),
            Layout::RowMajor,
            &packed,
            Epilogue::None,
        );
        // NaN positions must coincide and finite/inf values must be
        // bitwise equal; NaN *payload* bits are implementation-chosen.
        let naive = matmul_naive(&a, &b);
        for (x, y) in c.data().iter().zip(naive.data().iter()) {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{x} vs {y}"
            );
        }
        assert!(c.data()[0].is_nan()); // 0 × NaN + 1 × 1
        assert!(c.data()[2].is_nan()); // ∞ × NaN
        assert_eq!(c.data()[3], f32::INFINITY);
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn wrong_bias_length_panics() {
        let packed = PackedB::pack(&[1.0, 2.0], 1, 2, Layout::RowMajor);
        let mut c = [0.0; 2];
        gemm_into(
            &mut c,
            1,
            2,
            &[1.0],
            Layout::RowMajor,
            &packed,
            Epilogue::Bias(&[0.0]),
        );
    }
}
