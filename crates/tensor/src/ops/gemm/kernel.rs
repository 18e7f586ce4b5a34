//! The register-blocked micro-kernel and the fused C-tile writeback.

use super::{Activation, MR, NR};

/// Operation fused into the C-tile writeback.
///
/// Epilogues run **after** the k-accumulation of an output element is
/// complete, so fusing them changes no intermediate rounding: `Bias` adds
/// the same single `f32` addition a separate broadcast add would perform,
/// and `Relu` applies the same `v.max(0.0)` as `Relu::infer` in `cn-nn`
/// (NaN inputs clamp to `0.0`, matching `f32::max` semantics). Outputs
/// are therefore bitwise identical to the unfused operator chain.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// Plain store: `c = acc`.
    None,
    /// `c = acc.max(0.0)`.
    Relu,
    /// `c = acc + bias[j]` with the per-column bias.
    Bias(&'a [f32]),
    /// `c = (acc + bias[j]).max(0.0)`.
    BiasRelu(&'a [f32]),
}

impl Epilogue<'_> {
    /// Applies the epilogue to one accumulated element in output column
    /// `j`.
    #[inline(always)]
    pub(super) fn apply(&self, v: f32, j: usize) -> f32 {
        match self {
            Epilogue::None => v,
            Epilogue::Relu => v.max(0.0),
            Epilogue::Bias(bias) => v + bias[j],
            Epilogue::BiasRelu(bias) => (v + bias[j]).max(0.0),
        }
    }

    /// The bias slice, when the epilogue carries one.
    pub(super) fn bias(&self) -> Option<&[f32]> {
        match self {
            Epilogue::None | Epilogue::Relu => None,
            Epilogue::Bias(bias) | Epilogue::BiasRelu(bias) => Some(bias),
        }
    }
}

/// Computes one `MR × NR` accumulator tile from packed panels.
///
/// Every accumulator lane is a dedicated `f32` accumulating its output
/// element in **ascending k order**, one rounded multiply-then-add per
/// step — exactly the float-operation sequence of the historic i-k-j
/// kernels, which is what makes the driver bit-exact. Register tiling
/// only interleaves independent lanes, so every code path below (AVX2,
/// split-tile fallback) produces bitwise identical tiles.
/// The instruction path the driver selected once per GEMM call (the
/// runtime feature probe is an atomic load — cheap, but not something
/// to repeat per 8×8 tile).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum KernelPath {
    /// 256-bit vectors via runtime-detected AVX.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx,
    /// Portable fallback (128-bit-register-friendly split tiles).
    Portable,
}

/// Probes the CPU once for the best available kernel path.
pub(super) fn select_path() -> KernelPath {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx") {
        return KernelPath::Avx;
    }
    KernelPath::Portable
}

#[inline]
pub(super) fn microkernel(k: usize, ap: &[f32], bp: &[f32], path: KernelPath) -> [[f32; NR]; MR] {
    debug_assert_eq!(ap.len(), k * MR);
    debug_assert_eq!(bp.len(), k * NR);
    let mut acc = [[0.0f32; NR]; MR];
    match path {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: `KernelPath::Avx` is only constructed after the
        // runtime feature probe, and the panel lengths were checked
        // above.
        KernelPath::Avx => unsafe { microkernel_avx(k, ap, bp, &mut acc) },
        KernelPath::Portable => {
            // Baseline (128-bit) targets: a full 8×8 f32 tile exceeds
            // the 16 xmm registers and spills, so accumulate two
            // independent 4×8 half-tiles instead. Per-element op order
            // is unchanged.
            let (top, bottom) = acc.split_at_mut(MR / 2);
            microkernel_half(k, ap, bp, 0, top.try_into().unwrap());
            microkernel_half(k, ap, bp, MR / 2, bottom.try_into().unwrap());
        }
    }
    acc
}

/// Continues an accumulator tile over `k` more ascending reduction steps,
/// with the A operand read as `MR` rows at stride `lda` (`a[ir·lda + kk]`)
/// instead of a packed panel — the convolution weight gradient gathers
/// patch rows this way, as contiguous spans of the NCHW input. Each lane
/// performs the same multiply-then-add sequence as [`microkernel`], so
/// feeding a tile back in over consecutive reduction ranges equals one
/// pass over their concatenation: one accumulator carried across images.
///
/// # Panics
///
/// Panics unless `a` holds `MR` rows of `k` at stride `lda` and
/// `bp.len() >= k * NR`.
#[inline]
pub(super) fn microkernel_rows_from(
    mut acc: [[f32; NR]; MR],
    k: usize,
    a: &[f32],
    lda: usize,
    bp: &[f32],
    path: KernelPath,
) -> [[f32; NR]; MR] {
    assert!(k <= lda && a.len() >= (MR - 1) * lda + k && bp.len() >= k * NR);
    match path {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: as in `microkernel`; the operand extents were asserted
        // above.
        KernelPath::Avx => unsafe { microkernel_rows_from_avx(k, a, lda, bp, &mut acc) },
        KernelPath::Portable => {
            for kk in 0..k {
                let b: &[f32; NR] = bp[kk * NR..kk * NR + NR].try_into().unwrap();
                for (ir, acc_row) in acc.iter_mut().enumerate() {
                    let aik = a[ir * lda + kk];
                    for (c, &bkj) in acc_row.iter_mut().zip(b.iter()) {
                        *c += aik * bkj;
                    }
                }
            }
        }
    }
    acc
}

/// Partial-tile variant for row panels with fewer than `MR` live rows
/// (short-`m` products and ragged tails): accumulates only the first
/// `rows` lanes, row by row, so a batch-1 inference performs `k·n`
/// multiply-adds instead of the full tile's `k·MR·n`. Per-element float
/// ops are identical to the full tile's.
#[inline]
pub(super) fn microkernel_rows(
    k: usize,
    ap: &[f32],
    bp: &[f32],
    rows: usize,
    path: KernelPath,
) -> [[f32; NR]; MR] {
    debug_assert!(rows <= MR);
    debug_assert_eq!(ap.len(), k * MR);
    debug_assert_eq!(bp.len(), k * NR);
    let mut acc = [[0.0f32; NR]; MR];
    match path {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: as in `microkernel`.
        KernelPath::Avx => unsafe { microkernel_rows_avx(k, ap, bp, rows, &mut acc) },
        KernelPath::Portable => {
            for (ir, acc_row) in acc.iter_mut().enumerate().take(rows) {
                for kk in 0..k {
                    let aik = ap[kk * MR + ir];
                    let b: &[f32; NR] = bp[kk * NR..kk * NR + NR].try_into().unwrap();
                    for (c, &bkj) in acc_row.iter_mut().zip(b.iter()) {
                        *c += aik * bkj;
                    }
                }
            }
        }
    }
    acc
}

/// Accumulates rows `[r0, r0 + MR/2)` of the tile — the register budget
/// of one half fits 128-bit targets without spilling.
#[inline(always)]
fn microkernel_half(k: usize, ap: &[f32], bp: &[f32], r0: usize, acc: &mut [[f32; NR]; MR / 2]) {
    for kk in 0..k {
        let a: &[f32; MR / 2] = ap[kk * MR + r0..kk * MR + r0 + MR / 2].try_into().unwrap();
        let b: &[f32; NR] = bp[kk * NR..kk * NR + NR].try_into().unwrap();
        for (acc_row, &aik) in acc.iter_mut().zip(a.iter()) {
            for (c, &bkj) in acc_row.iter_mut().zip(b.iter()) {
                *c += aik * bkj;
            }
        }
    }
}

/// The 256-bit tile loop, selected at runtime: each of the `MR`
/// accumulator rows is one `__m256` register held across the whole k
/// loop; every step broadcasts one `a` lane, multiplies by the packed
/// `b` row and adds. `_mm256_mul_ps` + `_mm256_add_ps` are two
/// **separately rounded** operations (deliberately not `fma`), so every
/// lane performs the exact float-op sequence of the scalar fallback and
/// the tile is bitwise identical to it.
///
/// # Safety
///
/// Requires the `avx` target feature and `ap.len() == k * MR`,
/// `bp.len() == k * NR`.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx")]
unsafe fn microkernel_avx(k: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86")]
    use core::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    let mut rows = [_mm256_setzero_ps(); MR];
    for kk in 0..k {
        let b = _mm256_loadu_ps(bp.as_ptr().add(kk * NR));
        for (ir, row) in rows.iter_mut().enumerate() {
            let a = _mm256_set1_ps(*ap.get_unchecked(kk * MR + ir));
            *row = _mm256_add_ps(*row, _mm256_mul_ps(a, b));
        }
    }
    for (acc_row, row) in acc.iter_mut().zip(rows.iter()) {
        _mm256_storeu_ps(acc_row.as_mut_ptr(), *row);
    }
}

/// AVX partial tile: one `__m256` accumulator per live row, rows done
/// sequentially (the packed `b` panel re-streams per row, which is fine
/// for the ≤ 7 rows this path serves).
///
/// # Safety
///
/// As [`microkernel_avx`], plus `rows <= MR`.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx")]
unsafe fn microkernel_rows_avx(
    k: usize,
    ap: &[f32],
    bp: &[f32],
    rows: usize,
    acc: &mut [[f32; NR]; MR],
) {
    #[cfg(target_arch = "x86")]
    use core::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    for (ir, acc_row) in acc.iter_mut().enumerate().take(rows) {
        let mut lane = _mm256_setzero_ps();
        for kk in 0..k {
            let b = _mm256_loadu_ps(bp.as_ptr().add(kk * NR));
            let a = _mm256_set1_ps(*ap.get_unchecked(kk * MR + ir));
            lane = _mm256_add_ps(lane, _mm256_mul_ps(a, b));
        }
        _mm256_storeu_ps(acc_row.as_mut_ptr(), lane);
    }
}

/// AVX body of [`microkernel_rows_from`]: [`microkernel_avx`] with the
/// accumulators loaded from `acc` and `a` read row-major.
///
/// # Safety
///
/// Requires the `avx` target feature, `a.len() >= (MR - 1) * lda + k`
/// and `bp.len() >= k * NR`.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx")]
unsafe fn microkernel_rows_from_avx(
    k: usize,
    a: &[f32],
    lda: usize,
    bp: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    #[cfg(target_arch = "x86")]
    use core::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    let mut rows = [_mm256_setzero_ps(); MR];
    for (row, acc_row) in rows.iter_mut().zip(acc.iter()) {
        *row = _mm256_loadu_ps(acc_row.as_ptr());
    }
    for kk in 0..k {
        let b = _mm256_loadu_ps(bp.as_ptr().add(kk * NR));
        for (ir, row) in rows.iter_mut().enumerate() {
            let a = _mm256_set1_ps(*a.get_unchecked(ir * lda + kk));
            *row = _mm256_add_ps(*row, _mm256_mul_ps(a, b));
        }
    }
    for (acc_row, row) in acc.iter_mut().zip(rows.iter()) {
        _mm256_storeu_ps(acc_row.as_mut_ptr(), *row);
    }
}

/// Placement of an accumulator tile's valid corner inside the output:
/// `rows × cols` elements written at `(row0, col0)`.
#[derive(Debug, Clone, Copy)]
pub(super) struct TileBounds {
    pub(super) row0: usize,
    pub(super) col0: usize,
    pub(super) rows: usize,
    pub(super) cols: usize,
}

/// Writes the valid corner of an accumulator tile into `c` (leading
/// dimension `ldc`), applying the epilogue. Padded accumulator lanes are
/// discarded here.
#[inline]
pub(super) fn write_tile(
    c: &mut [f32],
    ldc: usize,
    at: TileBounds,
    acc: &[[f32; NR]; MR],
    epilogue: &Epilogue<'_>,
) {
    for (ir, acc_row) in acc.iter().enumerate().take(at.rows) {
        let start = (at.row0 + ir) * ldc + at.col0;
        let crow = &mut c[start..start + at.cols];
        for (jr, (cj, &v)) in crow.iter_mut().zip(acc_row.iter()).enumerate() {
            *cj = epilogue.apply(v, at.col0 + jr);
        }
    }
}

/// [`write_tile`] with a **per-row** bias and activation: output row `r`
/// stores `act(acc + bias[r])`. The convolution kernel's rows are output
/// channels, so this is the channel-bias writeback that lands NCHW
/// directly. The add and the `max(0.0)` are the same single operations a
/// separate broadcast add and ReLU pass perform.
#[inline]
pub(super) fn write_tile_row_bias(
    c: &mut [f32],
    ldc: usize,
    at: TileBounds,
    acc: &[[f32; NR]; MR],
    bias: &[f32],
    act: Activation,
) {
    for (ir, acc_row) in acc.iter().enumerate().take(at.rows) {
        let b = bias[at.row0 + ir];
        let start = (at.row0 + ir) * ldc + at.col0;
        let crow = &mut c[start..start + at.cols];
        match act {
            Activation::Identity => {
                for (cj, &v) in crow.iter_mut().zip(acc_row.iter()) {
                    *cj = v + b;
                }
            }
            Activation::Relu => {
                for (cj, &v) in crow.iter_mut().zip(acc_row.iter()) {
                    *cj = (v + b).max(0.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microkernel_matches_scalar_reference() {
        // k = 3 with distinct values per lane.
        let k = 3;
        let ap: Vec<f32> = (0..k * MR).map(|v| (v as f32) * 0.25 - 2.0).collect();
        let bp: Vec<f32> = (0..k * NR).map(|v| (v as f32) * 0.5 - 5.0).collect();
        let acc = microkernel(k, &ap, &bp, select_path());
        for (ir, acc_row) in acc.iter().enumerate() {
            for (jr, &got) in acc_row.iter().enumerate() {
                let mut want = 0.0f32;
                for kk in 0..k {
                    want += ap[kk * MR + ir] * bp[kk * NR + jr];
                }
                assert_eq!(got, want, "lane ({ir}, {jr})");
            }
        }
    }

    /// Both kernel paths and the partial-rows variant agree bitwise on
    /// their live lanes.
    #[test]
    fn all_paths_and_partials_agree_bitwise() {
        let k = 9;
        let ap: Vec<f32> = (0..k * MR).map(|v| ((v * 37) % 23) as f32 - 11.0).collect();
        let bp: Vec<f32> = (0..k * NR).map(|v| ((v * 53) % 29) as f32 - 14.0).collect();
        let reference = microkernel(k, &ap, &bp, KernelPath::Portable);
        let native = microkernel(k, &ap, &bp, select_path());
        assert_eq!(native, reference);
        for rows in 1..=MR {
            for path in [select_path(), KernelPath::Portable] {
                let partial = microkernel_rows(k, &ap, &bp, rows, path);
                assert_eq!(&partial[..rows], &reference[..rows], "rows {rows}");
            }
        }
    }

    /// Reading A row-major and carrying the tile across two reduction
    /// ranges is the float-op sequence of one packed call over both.
    #[test]
    fn carried_row_major_tile_matches_one_packed_call() {
        let (k1, k2, lda) = (5, 7, 13);
        let a: Vec<f32> = (0..MR * lda)
            .map(|v| ((v * 31) % 19) as f32 * 0.3 - 2.9)
            .collect();
        let bp: Vec<f32> = (0..(k1 + k2) * NR)
            .map(|v| ((v * 17) % 23) as f32 * 0.7 - 8.1)
            .collect();
        let mut ap = vec![0.0; (k1 + k2) * MR];
        for kk in 0..k1 + k2 {
            for ir in 0..MR {
                ap[kk * MR + ir] = a[ir * lda + kk];
            }
        }
        for path in [select_path(), KernelPath::Portable] {
            let whole = microkernel(k1 + k2, &ap, &bp, path);
            let zero = [[0.0; NR]; MR];
            let first = microkernel_rows_from(zero, k1, &a, lda, &bp, path);
            let carried = microkernel_rows_from(first, k2, &a[k1..], lda, &bp[k1 * NR..], path);
            assert_eq!(carried, whole);
        }
    }

    #[test]
    fn epilogues_apply_expected_math() {
        let bias = [1.0f32, -3.0];
        assert_eq!(Epilogue::None.apply(-2.0, 0), -2.0);
        assert_eq!(Epilogue::Relu.apply(-2.0, 0), 0.0);
        assert_eq!(Epilogue::Bias(&bias).apply(2.0, 1), -1.0);
        assert_eq!(Epilogue::BiasRelu(&bias).apply(2.0, 1), 0.0);
        assert_eq!(Epilogue::BiasRelu(&bias).apply(5.0, 1), 2.0);
    }

    #[test]
    fn relu_epilogue_clamps_nan_like_relu_infer() {
        // `f32::max` returns the non-NaN operand: Relu::infer(NaN) == 0.0
        // and the fused epilogue must agree.
        assert_eq!(Epilogue::Relu.apply(f32::NAN, 0), 0.0);
        let bias = [f32::NAN];
        assert_eq!(Epilogue::BiasRelu(&bias).apply(1.0, 0), 0.0);
    }

    #[test]
    fn write_tile_discards_padded_lanes() {
        let mut acc = [[0.0f32; NR]; MR];
        for (ir, row) in acc.iter_mut().enumerate() {
            for (jr, v) in row.iter_mut().enumerate() {
                *v = (ir * NR + jr) as f32;
            }
        }
        let mut c = vec![-1.0f32; 3 * 5];
        let at = TileBounds {
            row0: 1,
            col0: 2,
            rows: 2,
            cols: 3,
        };
        write_tile(&mut c, 5, at, &acc, &Epilogue::None);
        // Rows 1..3, cols 2..5 written from the tile corner.
        assert_eq!(&c[7..10], &[0.0, 1.0, 2.0]);
        assert_eq!(&c[12..15], &[8.0, 9.0, 10.0]);
        // Everything else untouched.
        assert!(c[0..5].iter().all(|&v| v == -1.0));
        assert_eq!(c[5], -1.0);
        assert_eq!(c[6], -1.0);
    }
}
