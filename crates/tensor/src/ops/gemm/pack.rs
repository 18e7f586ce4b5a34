//! Panel packing for the register-tiled GEMM.
//!
//! The micro-kernel consumes both operands from *packed panels* laid out
//! exactly in the order the inner loop reads them:
//!
//! - **B panels** ([`PackedB`]): the right operand is split into column
//!   panels of [`NR`](super::NR) columns; panel `p` stores
//!   `B[kk][p·NR + jr]` at offset `kk·NR + jr`, so one k-step of the
//!   micro-kernel reads one contiguous `NR`-float row.
//! - **A panels** ([`pack_a_block`], or [`PackedA`] for a whole frozen
//!   operand): a block of output rows is split into row panels of
//!   [`MR`](super::MR) rows; panel `ip` stores `A[row0 + ip·MR + ir][kk]`
//!   at offset `kk·MR + ir`.
//!
//! Ragged edges are zero-padded to the full panel width. Padding never
//! reaches the output: padded accumulator lanes multiply packed zeros on
//! the *opposite* operand's padded lanes only when the lane itself is
//! discarded at writeback, so real output elements see exclusively real
//! operand values — a precondition of the driver's bit-exactness
//! guarantee.
//!
//! Packing is pure data movement (every `f32` is copied bit-for-bit), so
//! a packed product is bitwise identical to the unpacked one.

use super::{MR, NR};
use crate::tensor::Tensor;

/// Storage layout of a GEMM operand relative to its logical shape in the
/// product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// The buffer stores the logical `[rows, cols]` matrix row-major.
    RowMajor,
    /// The buffer stores the *transpose* of the logical matrix: a logical
    /// `[rows, cols]` operand kept as `[cols, rows]` row-major. This is
    /// how `t_matmul` sees its left operand and `matmul_t` its right one,
    /// avoiding materialized transposes.
    Transposed,
}

/// The right-hand operand of a GEMM packed into cache-friendly column
/// panels.
///
/// Packing costs one pass over the operand (`O(k·n)`), which a single
/// product amortizes over `O(m·k·n)` arithmetic. The real win is reuse:
/// a `PackedB` is immutable and independent of the left operand, so
/// frozen weights can be packed **once at deployment compile time** and
/// reused by every subsequent inference batch (see
/// `Layer::pack_weights` in `cn-nn`).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedB {
    data: Vec<f32>,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Packs a logical `[k, n]` right operand stored per `layout`
    /// (`RowMajor`: buffer is `[k, n]`; `Transposed`: buffer is `[n, k]`).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub fn pack(b: &[f32], k: usize, n: usize, layout: Layout) -> PackedB {
        assert_eq!(
            b.len(),
            k * n,
            "PackedB::pack: buffer holds {} floats, expected {k}×{n}",
            b.len()
        );
        let mut data = vec![0.0f32; n.div_ceil(NR) * k * NR];
        pack_b_panels(b, k, n, layout, &mut data);
        PackedB { data, k, n }
    }

    /// Packs a rank-2 tensor. With `RowMajor` the tensor is the logical
    /// `[k, n]` operand; with `Transposed` it is stored `[n, k]` (e.g. a
    /// `[out, in]` weight matrix used as `x · Wᵀ`).
    ///
    /// # Panics
    ///
    /// Panics unless `b` is rank-2.
    pub fn from_tensor(b: &Tensor, layout: Layout) -> PackedB {
        assert_eq!(b.rank(), 2, "PackedB::from_tensor expects a rank-2 tensor");
        let (k, n) = match layout {
            Layout::RowMajor => (b.dims()[0], b.dims()[1]),
            Layout::Transposed => (b.dims()[1], b.dims()[0]),
        };
        PackedB::pack(b.data(), k, n, layout)
    }

    /// Inner (reduction) dimension `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Logical column count `n` of the packed operand.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of `NR`-column panels (zero when `n == 0`).
    pub fn panels(&self) -> usize {
        self.n.div_ceil(NR)
    }

    /// The packed `k × NR` panel covering columns `[p·NR, min(n, (p+1)·NR))`.
    pub(super) fn panel(&self, p: usize) -> &[f32] {
        &self.data[p * self.k * NR..(p + 1) * self.k * NR]
    }
}

/// A row-major `[m, k]` left operand packed once into `MR`-row panels —
/// the frozen-weight counterpart of [`PackedB`] for products where the
/// weights sit on the left, as in the convolution kernel's
/// `W[oc, k] · patchesᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedA {
    data: Vec<f32>,
    m: usize,
    k: usize,
}

impl PackedA {
    /// Packs a row-major `[m, k]` buffer, zero-padding the ragged tail
    /// panel.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * k`.
    pub fn pack(a: &[f32], m: usize, k: usize) -> PackedA {
        PackedA::pack_layout(a, m, k, Layout::RowMajor)
    }

    /// Packs a logical `[m, k]` operand stored per `layout` (`Transposed`:
    /// the buffer is `[k, m]`, as a weight matrix seen as `Wᵀ`).
    pub(super) fn pack_layout(a: &[f32], m: usize, k: usize, layout: Layout) -> PackedA {
        assert_eq!(
            a.len(),
            m * k,
            "PackedA::pack: buffer holds {} floats, expected {m}×{k}",
            a.len()
        );
        let mut data = vec![0.0f32; m.div_ceil(MR) * MR * k];
        pack_a_block(a, m, k, layout, 0, m, &mut data);
        PackedA { data, m, k }
    }

    /// Row count `m` of the packed operand.
    pub(super) fn m(&self) -> usize {
        self.m
    }

    /// Inner (reduction) dimension `k`.
    pub(super) fn k(&self) -> usize {
        self.k
    }

    /// Number of `MR`-row panels (zero when `m == 0`).
    pub(super) fn panels(&self) -> usize {
        self.m.div_ceil(MR)
    }

    /// The packed `k × MR` panel covering rows `[p·MR, min(m, (p+1)·MR))`.
    pub(super) fn panel(&self, p: usize) -> &[f32] {
        &self.data[p * self.k * MR..(p + 1) * self.k * MR]
    }
}

/// Packs the logical `[k, n]` right operand stored per `layout` into
/// `NR`-column panels in `buf` (`n.div_ceil(NR) * k * NR` floats). Lanes
/// past a ragged last panel's `n` are left as they were: callers that
/// reuse a buffer rely on them feeding only discarded accumulator columns.
pub(super) fn pack_b_panels(b: &[f32], k: usize, n: usize, layout: Layout, buf: &mut [f32]) {
    debug_assert_eq!(buf.len(), n.div_ceil(NR) * k * NR);
    for p in 0..n.div_ceil(NR) {
        let j0 = p * NR;
        let cols = NR.min(n - j0);
        let panel = &mut buf[p * k * NR..(p + 1) * k * NR];
        match layout {
            Layout::RowMajor => {
                for kk in 0..k {
                    panel[kk * NR..kk * NR + cols]
                        .copy_from_slice(&b[kk * n + j0..kk * n + j0 + cols]);
                }
            }
            Layout::Transposed => {
                for jr in 0..cols {
                    let col = &b[(j0 + jr) * k..(j0 + jr + 1) * k];
                    for (kk, &v) in col.iter().enumerate() {
                        panel[kk * NR + jr] = v;
                    }
                }
            }
        }
    }
}

/// Packs output rows `[row0, row0 + rows)` of the logical `[m, k]` left
/// operand into `MR`-row panels, zero-padding the ragged tail panel.
///
/// `buf` must hold `rows.div_ceil(MR) * MR * k` zeroed floats.
pub(super) fn pack_a_block(
    a: &[f32],
    m: usize,
    k: usize,
    layout: Layout,
    row0: usize,
    rows: usize,
    buf: &mut [f32],
) {
    debug_assert_eq!(buf.len(), rows.div_ceil(MR) * MR * k);
    for ip in 0..rows.div_ceil(MR) {
        let r0 = row0 + ip * MR;
        let prows = MR.min(row0 + rows - r0);
        let panel = &mut buf[ip * k * MR..(ip + 1) * k * MR];
        match layout {
            Layout::RowMajor => {
                for ir in 0..prows {
                    let arow = &a[(r0 + ir) * k..(r0 + ir + 1) * k];
                    for (kk, &v) in arow.iter().enumerate() {
                        panel[kk * MR + ir] = v;
                    }
                }
            }
            Layout::Transposed => {
                // Stored [k, m]: row `kk` of the buffer holds column `kk`
                // of the logical operand, so panel rows are slice copies.
                for kk in 0..k {
                    panel[kk * MR..kk * MR + prows]
                        .copy_from_slice(&a[kk * m + r0..kk * m + r0 + prows]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_panels_hold_columns_in_k_order() {
        // B = [[0, 1, 2], [3, 4, 5]] (k = 2, n = 3): panel 0 covers all
        // three columns plus NR − 3 zero lanes.
        let b: Vec<f32> = (0..6).map(|v| v as f32).collect();
        let p = PackedB::pack(&b, 2, 3, Layout::RowMajor);
        assert_eq!(p.panels(), 1);
        let panel = p.panel(0);
        assert_eq!(&panel[0..3], &[0.0, 1.0, 2.0]);
        assert_eq!(&panel[NR..NR + 3], &[3.0, 4.0, 5.0]);
        assert!(panel[3..NR].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn transposed_pack_matches_row_major_of_transpose() {
        let bt = Tensor::arange(12).into_reshaped(&[4, 3]); // stored [n=4, k=3]
        let b = bt.transpose(); // logical [k=3, n=4]
        assert_eq!(
            PackedB::from_tensor(&bt, Layout::Transposed),
            PackedB::from_tensor(&b, Layout::RowMajor)
        );
    }

    #[test]
    fn zero_dims_pack_to_empty() {
        let p = PackedB::pack(&[], 0, 5, Layout::RowMajor);
        assert_eq!((p.k(), p.n(), p.panels()), (0, 5, 1));
        let p = PackedB::pack(&[], 3, 0, Layout::RowMajor);
        assert_eq!((p.k(), p.n(), p.panels()), (3, 0, 0));
    }

    #[test]
    fn a_block_panels_are_k_major_with_padded_tail() {
        // A = 3×2 row-major; one MR panel with 5 padded row lanes.
        let a: Vec<f32> = (0..6).map(|v| v as f32).collect();
        let mut buf = vec![0.0; MR * 2];
        pack_a_block(&a, 3, 2, Layout::RowMajor, 0, 3, &mut buf);
        // k step 0 holds column 0 of A across the MR row lanes.
        assert_eq!(&buf[0..3], &[0.0, 2.0, 4.0]);
        assert_eq!(&buf[MR..MR + 3], &[1.0, 3.0, 5.0]);
        assert!(buf[3..MR].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn a_block_transposed_matches_row_major() {
        let at = Tensor::arange(15).into_reshaped(&[3, 5]); // stored [k=3, m=5]
        let a = at.transpose(); // logical [m=5, k=3]
        let len = 5usize.div_ceil(MR) * MR * 3;
        let (mut row, mut col) = (vec![0.0; len], vec![0.0; len]);
        pack_a_block(a.data(), 5, 3, Layout::RowMajor, 0, 5, &mut row);
        pack_a_block(at.data(), 5, 3, Layout::Transposed, 0, 5, &mut col);
        assert_eq!(row, col);
    }
}
