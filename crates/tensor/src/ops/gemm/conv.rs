//! The convolution kernels: `Y[n] = act(W[oc, k] · patches(X[n])ᵀ + b)`
//! per image, with the `im2col` gather fused into B-panel packing, and its
//! backward pass, which reads NCHW activations and gradients directly.
//!
//! Forward: the weights are the left operand, packed once into `MR`-row
//! panels ([`PackedA`]); output positions are the long `n` dimension. Each
//! run of [`NR`] consecutive output positions is gathered straight from
//! the NCHW input into a `k × NR` B panel, multiplied against every A
//! panel by the GEMM micro-kernel, and written back with a per-channel
//! bias (and optional ReLU) straight into the NCHW output. No patch
//! matrix, no A-pack of patches and no output transpose exist.
//!
//! Backward ([`conv2d_backward`]) computes three gradients, two of them
//! through the same micro-kernel:
//!
//! - `dWᵀ[kk, o] = Σ_n Σ_p patch(X[n])[p, kk] · dY[n, o, p]`: `MR` patch
//!   rows at a time are gathered from NCHW as the row-major A operand
//!   (contiguous row spans at stride 1), `dY[n]ᵀ` is the packed B operand
//!   and positions are the reduction. Each accumulator tile is carried
//!   from one image to the next ([`kernel::microkernel_rows_from`]).
//!   Threads split the patch length into `MR`-row blocks.
//! - `db[o] = Σ_n Σ_p dY[n, o, p]`, one running sum per channel.
//! - `dX[n]`: `Wᵀ · dY[n]` into a `[k × oh·ow]` per-thread scratch, then
//!   each of its rows is added into the input positions it was gathered
//!   from. Threads split the images.
//!
//! Bit-exactness: each forward output element is one dedicated
//! accumulator summing `w[oc, kk] · patch[kk]` in ascending
//! `kk = (c·kh + ky)·kw + kx` order — the order of an `im2col` row —
//! followed by one bias add and `max(0.0)`, so the result is bitwise
//! identical to `rows_to_nchw(act(im2col(x) · Wᵀ + b))`. The backward
//! pass keeps the order of the chain `g = nchw_to_rows(dY)`,
//! `dW = gᵀ · im2col(X)`, `db = g.sum_rows()`, `dX = col2im(g · W)`: dW
//! and db sum from `0.0` in (image, position) order, and the scatter
//! visits taps in *descending* `(ky, kx)` order, which hands every input
//! pixel its contributions in ascending output position — `col2im`'s
//! order.

use super::kernel::{self, Epilogue, KernelPath, TileBounds};
use super::pack::{self, Layout, PackedA};
use super::{rows_block, Activation, MR, NR};
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

    /// Recycled backward scratch, with the same lifetime rules as
    /// `B_PANEL`: the weight gradient's patch rows and B panels, or one image's
    /// `Wᵀ·dY` product and B panels for the input gradient.
    static GRAD_SCRATCH: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
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

/// Gradients of `y = conv(x, W) + b` for the output gradient `dy`,
/// written into the caller's buffers: `dw` `[oc, C·kh·kw]` and `db`
/// `[oc]` (the gradients of `w` and the bias), and `dx` shaped like `x`.
/// Every element is overwritten.
///
/// `w` is the row-major `[oc, C·kh·kw]` weight matrix the forward pass
/// used. Each output is bitwise identical to the `im2col`/`col2im` chain
/// (see the module docs).
///
/// # Panics
///
/// Panics if `x` is not rank-4 or disagrees with `geo`, if `dy` is not
/// `[N, oc, oh, ow]` with `oc = db.len()`, or if `w`, `dw` or `dx` have
/// the wrong length.
pub fn conv2d_backward(
    x: &Tensor,
    geo: &Conv2dGeometry,
    w: &[f32],
    dy: &Tensor,
    dw: &mut [f32],
    db: &mut [f32],
    dx: &mut [f32],
) {
    assert_eq!(x.rank(), 4, "conv2d_backward expects NCHW input");
    let d = x.dims();
    assert_eq!(
        (d[1], d[2], d[3]),
        (geo.in_c, geo.in_h, geo.in_w),
        "geometry mismatch"
    );
    let (oc, k) = (db.len(), geo.patch_len());
    assert_eq!(
        dy.dims(),
        &[d[0], oc, geo.out_h(), geo.out_w()],
        "conv2d_backward: output gradient shape"
    );
    assert_eq!(w.len(), oc * k, "conv2d_backward: weights are not {oc}×{k}");
    assert_eq!(dw.len(), oc * k, "conv2d_backward: dw is not {oc}×{k}");
    assert_eq!(
        dx.len(),
        x.numel(),
        "conv2d_backward: dx is not shaped like x"
    );
    let path = kernel::select_path();
    weight_grad(x, geo, dy, dw, path);
    bias_grad(dy.data(), geo.patches_per_sample(), db);
    if !dx.is_empty() {
        let wt = PackedA::pack_layout(w, k, oc, Layout::Transposed);
        input_grad(geo, &wt, dy, dx, path);
    }
}

/// `dW` through `dWᵀ = Σ_n patches(X[n])ᵀ · dY[n]ᵀ`: blocks of `MR` patch
/// rows are the A operand, read row-major, and each (row block, B panel)
/// pair carries one accumulator tile across the images.
fn weight_grad(x: &Tensor, geo: &Conv2dGeometry, dy: &Tensor, dw: &mut [f32], path: KernelPath) {
    if dw.is_empty() {
        return;
    }
    let (k, positions) = (geo.patch_len(), geo.patches_per_sample());
    let oc = dw.len() / k;
    let (plane, grad_plane) = (geo.in_c * geo.in_h * geo.in_w, oc * positions);
    let b_panels = oc.div_ceil(NR);
    let mut dwt = vec![0.0f32; k * oc];
    let rb = rows_block(k);
    parallel_chunks_mut(&mut dwt, rb * oc, |chunk, out| {
        let (row0, rows) = (chunk * rb, out.len() / oc);
        let a_panels = rows.div_ceil(MR);
        let mut tiles = vec![[[0.0f32; NR]; MR]; a_panels * b_panels];
        GRAD_SCRATCH.with_borrow_mut(|scratch| {
            // Rows past a ragged block's end, and lanes past `oc` in the
            // last B panel, keep stale values: they only feed accumulator
            // lanes that are discarded.
            scratch.resize(positions * (MR + b_panels * NR), 0.0);
            let (ap, bp) = scratch.split_at_mut(positions * MR);
            let images = x
                .data()
                .chunks_exact(plane)
                .zip(dy.data().chunks_exact(grad_plane));
            for (xi, gi) in images {
                pack::pack_b_panels(gi, positions, oc, Layout::Transposed, bp);
                for (ip, tiles) in tiles.chunks_exact_mut(b_panels).enumerate() {
                    let kk0 = row0 + ip * MR;
                    let live = MR.min(k - kk0);
                    gather_patch_rows(xi, geo, kk0, &mut ap[..live * positions]);
                    for (tile, bpanel) in tiles.iter_mut().zip(bp.chunks_exact(positions * NR)) {
                        *tile = kernel::microkernel_rows_from(
                            *tile, positions, ap, positions, bpanel, path,
                        );
                    }
                }
            }
        });
        for (ip, tiles) in tiles.chunks_exact(b_panels).enumerate() {
            for (jp, tile) in tiles.iter().enumerate() {
                let at = TileBounds {
                    row0: ip * MR,
                    col0: jp * NR,
                    rows: MR.min(rows - ip * MR),
                    cols: NR.min(oc - jp * NR),
                };
                kernel::write_tile(out, oc, at, tile, &Epilogue::None);
            }
        }
    });
    for (kk, row) in dwt.chunks_exact(oc).enumerate() {
        for (o, &v) in row.iter().enumerate() {
            dw[o * k + kk] = v;
        }
    }
}

/// `db[o] = Σ_n Σ_p dY[n, o, p]`, summed from `0.0` in (image, position)
/// order.
fn bias_grad(dy: &[f32], positions: usize, db: &mut [f32]) {
    db.fill(0.0);
    if db.is_empty() {
        return;
    }
    for gi in dy.chunks_exact(db.len() * positions) {
        for (b, plane) in db.iter_mut().zip(gi.chunks_exact(positions)) {
            for &v in plane {
                *b += v;
            }
        }
    }
}

/// `dX[n] = col2im(Wᵀ · dY[n])`, one image per task; `wt` is `Wᵀ`
/// (`[k, oc]`) in `MR`-row panels.
fn input_grad(geo: &Conv2dGeometry, wt: &PackedA, dy: &Tensor, dx: &mut [f32], path: KernelPath) {
    let (k, oc, positions) = (geo.patch_len(), wt.k(), geo.patches_per_sample());
    let p_panels = positions.div_ceil(NR);
    parallel_chunks_mut(dx, geo.in_c * geo.in_h * geo.in_w, |img, dxi| {
        let gi = &dy.data()[img * oc * positions..(img + 1) * oc * positions];
        GRAD_SCRATCH.with_borrow_mut(|scratch| {
            scratch.resize(k * positions + p_panels * oc * NR, 0.0);
            let (t, bp) = scratch.split_at_mut(k * positions);
            pack::pack_b_panels(gi, oc, positions, Layout::RowMajor, bp);
            for jp in 0..p_panels {
                let bpanel = &bp[jp * oc * NR..(jp + 1) * oc * NR];
                for ip in 0..wt.panels() {
                    // A ragged last panel skips its padded rows' arithmetic.
                    let live = MR.min(k - ip * MR);
                    let acc = if live == MR {
                        kernel::microkernel(oc, wt.panel(ip), bpanel, path)
                    } else {
                        kernel::microkernel_rows(oc, wt.panel(ip), bpanel, live, path)
                    };
                    let (p0, cols) = (jp * NR, NR.min(positions - jp * NR));
                    for (kk, acc_row) in (ip * MR..k).zip(&acc) {
                        t[kk * positions + p0..][..cols].copy_from_slice(&acc_row[..cols]);
                    }
                }
            }
            scatter_patch_grads(t, geo, dxi);
        });
    });
}

/// Output indices `[lo, hi)` along one axis whose kernel tap `kt` lands
/// inside the input (`0 ≤ o·stride + kt − pad < len`); the others read
/// zero padding.
fn valid_span(kt: usize, len: usize, out: usize, stride: usize, pad: usize) -> (usize, usize) {
    let lo = pad.saturating_sub(kt).div_ceil(stride).min(out);
    let hi = (len + pad)
        .saturating_sub(kt)
        .div_ceil(stride)
        .clamp(lo, out);
    (lo, hi)
}

/// Gathers patch rows `kk0, kk0 + 1, …` of one image into the row-major
/// buffer `rows` (`oh·ow` floats per patch row): row `ir` holds column
/// `kk0 + ir` of `im2col(x)`, one value per output position. Along an
/// output row, a tap's valid positions read one input row span — a
/// contiguous copy at stride 1.
fn gather_patch_rows(x: &[f32], geo: &Conv2dGeometry, kk0: usize, rows: &mut [f32]) {
    let (h, w, kh, kw, stride, pad) = (geo.in_h, geo.in_w, geo.kh, geo.kw, geo.stride, geo.pad);
    let (oh, ow) = (geo.out_h(), geo.out_w());
    for (kk, row) in (kk0..).zip(rows.chunks_exact_mut(oh * ow)) {
        let (c, ky, kx) = (kk / (kh * kw), kk / kw % kh, kk % kw);
        let plane = &x[c * h * w..(c + 1) * h * w];
        let (oy0, oy1) = valid_span(ky, h, oh, stride, pad);
        let (ox0, ox1) = valid_span(kx, w, ow, stride, pad);
        for (oy, dst) in row.chunks_exact_mut(ow).enumerate() {
            if !(oy0..oy1).contains(&oy) || ox0 == ox1 {
                dst.fill(0.0);
                continue;
            }
            let src = &plane[(oy * stride + ky - pad) * w + ox0 * stride + kx - pad..];
            dst[..ox0].fill(0.0);
            if stride == 1 {
                dst[ox0..ox1].copy_from_slice(&src[..ox1 - ox0]);
            } else {
                for (d, &v) in dst[ox0..ox1].iter_mut().zip(src.iter().step_by(stride)) {
                    *d = v;
                }
            }
            dst[ox1..].fill(0.0);
        }
    }
}

/// Adds row `kk = (c·kh + ky)·kw + kx` of the `[k × oh·ow]` patch gradient
/// `t` into the input positions tap `(c, ky, kx)` was gathered from, into
/// a zeroed `dx`. Taps are visited in descending `(ky, kx)` order: a
/// larger `ky` (or, on the same row, `kx`) reaches a given pixel from a
/// smaller output position, so every pixel sums its contributions in
/// ascending position — the order `col2im` walks the patch rows in.
fn scatter_patch_grads(t: &[f32], geo: &Conv2dGeometry, dx: &mut [f32]) {
    let (h, w, kh, kw, stride, pad) = (geo.in_h, geo.in_w, geo.kh, geo.kw, geo.stride, geo.pad);
    let (oh, ow) = (geo.out_h(), geo.out_w());
    dx.fill(0.0);
    for (c, plane) in dx.chunks_exact_mut(h * w).enumerate() {
        for ky in (0..kh).rev() {
            let (oy0, oy1) = valid_span(ky, h, oh, stride, pad);
            for kx in (0..kw).rev() {
                let (ox0, ox1) = valid_span(kx, w, ow, stride, pad);
                if ox0 == ox1 {
                    continue;
                }
                let trow = &t[((c * kh + ky) * kw + kx) * oh * ow..][..oh * ow];
                for oy in oy0..oy1 {
                    let src = &trow[oy * ow + ox0..oy * ow + ox1];
                    let dst = &mut plane[(oy * stride + ky - pad) * w + ox0 * stride + kx - pad..];
                    if stride == 1 {
                        for (d, &g) in dst.iter_mut().zip(src) {
                            *d += g;
                        }
                    } else {
                        for (d, &g) in dst.iter_mut().step_by(stride).zip(src) {
                            *d += g;
                        }
                    }
                }
            }
        }
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
