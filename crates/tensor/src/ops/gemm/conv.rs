//! The convolution kernel: `Y[n] = act(W[oc, k] · patches(X[n])ᵀ + b)`
//! per image, with the `im2col` gather fused into B-panel packing.
//!
//! The weights are the left operand, packed once into `MR`-row panels
//! ([`PackedA`]); output positions are the long `n` dimension. Each run of
//! [`NR`] consecutive output positions is gathered straight from the
//! NCHW input into a `k × NR` B panel, multiplied against every A panel by
//! the GEMM micro-kernel, and written back with a per-channel bias (and
//! optional ReLU) straight into the NCHW output. No patch matrix, no
//! A-pack of patches and no output transpose exist.
//!
//! Bit-exactness: each output element is still one dedicated accumulator
//! summing `w[oc, kk] · patch[kk]` in ascending `kk = (c·kh + ky)·kw + kx`
//! order — the order of an `im2col` row — followed by one bias add and
//! `max(0.0)`. The result is therefore bitwise identical to
//! `rows_to_nchw(act(im2col(x) · Wᵀ + b))`.

use super::kernel::{self, TileBounds};
use super::pack::PackedA;
use super::{Activation, MR, NR};
use crate::ops::im2col::Conv2dGeometry;
use crate::parallel::parallel_chunks_mut;
use crate::tensor::Tensor;

thread_local! {
    /// Recycled B-panel gather scratch. One buffer per thread: calls
    /// that run inline (single-threaded callers, and nested calls inside
    /// a `cn_tensor::parallel` worker) reuse it warm; a fanned-out call's
    /// scoped worker threads are fresh, so each of them allocates its
    /// own once for that call.
    static B_PANEL: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Convolves an NCHW `x` with packed `[oc, C·kh·kw]` weights into the
/// caller's `[N, oc, oh, ow]` buffer: `out = act(conv(x, W) + bias)`.
///
/// Images are distributed over threads; every output element is written.
///
/// # Panics
///
/// Panics if `x` is not rank-4 or disagrees with `geo`, if `w.k()` is
/// not `geo.patch_len()`, or if `bias` / `out` lengths disagree with
/// `w.m()` and the output shape.
pub fn conv2d_into(
    out: &mut [f32],
    x: &Tensor,
    geo: &Conv2dGeometry,
    w: &PackedA,
    bias: &[f32],
    act: Activation,
) {
    assert_eq!(x.rank(), 4, "conv2d expects NCHW input");
    let d = x.dims();
    assert_eq!(
        (d[1], d[2], d[3]),
        (geo.in_c, geo.in_h, geo.in_w),
        "geometry mismatch"
    );
    let (oc, k) = (w.m(), w.k());
    assert_eq!(
        k,
        geo.patch_len(),
        "conv2d: packed weights have k = {k}, patches {}",
        geo.patch_len()
    );
    assert_eq!(bias.len(), oc, "conv2d: bias length {} != {oc}", bias.len());
    let positions = geo.patches_per_sample();
    assert_eq!(
        out.len(),
        d[0] * oc * positions,
        "conv2d: output holds {} floats, expected {}×{oc}×{positions}",
        out.len(),
        d[0]
    );
    if out.is_empty() {
        return;
    }
    let plane = geo.in_c * geo.in_h * geo.in_w;
    let path = kernel::select_path();
    parallel_chunks_mut(out, oc * positions, |img, y| {
        let xi = &x.data()[img * plane..(img + 1) * plane];
        B_PANEL.with_borrow_mut(|bp| {
            // Lanes past a ragged run's end keep stale values: they only
            // feed accumulator columns the writeback discards.
            bp.resize(k * NR, 0.0);
            for p0 in (0..positions).step_by(NR) {
                let cols = NR.min(positions - p0);
                pack_patch_panel(xi, geo, p0, cols, bp);
                for ip in 0..w.panels() {
                    let acc = kernel::microkernel(k, w.panel(ip), bp, path);
                    let at = TileBounds {
                        row0: ip * MR,
                        col0: p0,
                        rows: MR.min(oc - ip * MR),
                        cols,
                    };
                    kernel::write_tile_row_bias(y, positions, at, &acc, bias, act);
                }
            }
        });
    });
}

/// Gathers output positions `[p0, p0 + cols)` of one image into a
/// `k × NR` B panel: lane `jr` of row `kk = (c·kh + ky)·kw + kx` holds
/// the input pixel position `p0 + jr`'s receptive field sees at
/// `(c, ky, kx)`, or `0.0` over the zero padding — exactly that
/// position's `im2col` row, transposed into the panel.
fn pack_patch_panel(x: &[f32], geo: &Conv2dGeometry, p0: usize, cols: usize, panel: &mut [f32]) {
    let (h, w, kh, kw, stride) = (geo.in_h, geo.in_w, geo.kh, geo.kw, geo.stride);
    let (pad, ow) = (geo.pad as isize, geo.out_w());
    let mut jr = 0;
    while jr < cols {
        // Lanes [jr, jr + seg) share output row `oy`, columns ox0.. .
        let (oy, ox0) = ((p0 + jr) / ow, (p0 + jr) % ow);
        let seg = (ow - ox0).min(cols - jr);
        for (c, plane) in x.chunks_exact(h * w).enumerate() {
            for ky in 0..kh {
                let row0 = ((c * kh + ky) * kw) * NR + jr;
                let iy = (oy * stride + ky) as isize - pad;
                if !(0..h as isize).contains(&iy) {
                    for kx in 0..kw {
                        panel[row0 + kx * NR..row0 + kx * NR + seg].fill(0.0);
                    }
                    continue;
                }
                let src = &plane[iy as usize * w..(iy as usize + 1) * w];
                for kx in 0..kw {
                    let dst = &mut panel[row0 + kx * NR..row0 + kx * NR + seg];
                    let ix0 = (ox0 * stride + kx) as isize - pad;
                    if stride == 1 && ix0 >= 0 && ix0 as usize + seg <= w {
                        // Interior: the run is one contiguous input span.
                        dst.copy_from_slice(&src[ix0 as usize..ix0 as usize + seg]);
                    } else {
                        for (t, v) in dst.iter_mut().enumerate() {
                            let ix = ix0 + (t * stride) as isize;
                            *v = if (0..w as isize).contains(&ix) {
                                src[ix as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
        jr += seg;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch_writes_nothing() {
        let geo = Conv2dGeometry {
            in_c: 1,
            in_h: 4,
            in_w: 4,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 0,
        };
        let packed = PackedA::pack(&[0.0; 9], 1, 9);
        let x = Tensor::zeros(&[0, 1, 4, 4]);
        conv2d_into(&mut [], &x, &geo, &packed, &[0.0], Activation::Relu);
    }
}
