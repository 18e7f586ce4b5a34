//! Convolution lowering: `im2col` / `col2im` and NCHW layout shuffles.
//!
//! `im2col` unrolls every receptive field of an `[N, C, H, W]` input into
//! a row of a `[N·oh·ow, C·kh·kw]` patch matrix, so a convolution is the
//! product of that matrix with the `[out_c, C·kh·kw]` kernel matrix.
//! The forward pass does not materialize it — [`crate::ops::conv2d_into`]
//! gathers patches straight into GEMM panels — but the backward pass
//! does, to form weight gradients, and `col2im`, the exact adjoint,
//! scatters input gradients. The explicit chain
//! `rows_to_nchw(im2col(x) · Wᵀ + b)` is also the reference the
//! convolution kernel is tested against bit for bit.

use crate::parallel::parallel_chunks_mut;
use crate::tensor::Tensor;

/// Output spatial extent of a convolution/pooling along one axis:
/// `(input + 2·pad − kernel) / stride + 1`.
///
/// # Panics
///
/// Panics if the kernel does not fit into the padded input.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    assert!(
        input + 2 * pad >= kernel,
        "kernel {kernel} larger than padded input {}",
        input + 2 * pad
    );
    (input + 2 * pad - kernel) / stride + 1
}

/// Static geometry of a 2-D convolution over NCHW inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same for both axes).
    pub stride: usize,
    /// Zero padding (same for both axes).
    pub pad: usize,
}

impl Conv2dGeometry {
    /// Output height.
    pub fn out_h(&self) -> usize {
        conv_out_dim(self.in_h, self.kh, self.stride, self.pad)
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        conv_out_dim(self.in_w, self.kw, self.stride, self.pad)
    }

    /// Rows of the patch matrix per sample (`oh·ow`).
    pub fn patches_per_sample(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Columns of the patch matrix (`C·kh·kw`).
    pub fn patch_len(&self) -> usize {
        self.in_c * self.kh * self.kw
    }
}

/// Unrolls `input` (`[N, C, H, W]`) into the patch matrix
/// `[N·oh·ow, C·kh·kw]`.
///
/// # Panics
///
/// Panics if `input` is not rank-4 or disagrees with `geo`.
pub fn im2col(input: &Tensor, geo: &Conv2dGeometry) -> Tensor {
    assert_eq!(input.rank(), 4, "im2col expects NCHW input");
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    assert_eq!(
        (c, h, w),
        (geo.in_c, geo.in_h, geo.in_w),
        "geometry mismatch"
    );

    let (oh, ow) = (geo.out_h(), geo.out_w());
    let patch_len = geo.patch_len();
    let rows = n * oh * ow;
    let mut out = Tensor::zeros(&[rows, patch_len]);
    let x = input.data();
    let (kh, kw, stride, pad) = (geo.kh, geo.kw, geo.stride, geo.pad);

    // One chunk per block of rows; each row is an independent gather.
    let rows_per_chunk = rows.div_ceil(crate::parallel::num_threads()).max(64);
    parallel_chunks_mut(out.data_mut(), rows_per_chunk * patch_len, |ci, chunk| {
        let row0 = ci * rows_per_chunk;
        for (local, patch) in chunk.chunks_mut(patch_len).enumerate() {
            let r = row0 + local;
            let nn = r / (oh * ow);
            let rem = r % (oh * ow);
            let oy = rem / ow;
            let ox = rem % ow;
            let mut q = 0;
            for cc in 0..c {
                let base = (nn * c + cc) * h * w;
                for ky in 0..kh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    for kx in 0..kw {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        patch[q] = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            x[base + iy as usize * w + ix as usize]
                        } else {
                            0.0
                        };
                        q += 1;
                    }
                }
            }
        }
    });
    out
}

/// Adjoint of [`im2col`]: scatters patch-matrix gradients
/// (`[N·oh·ow, C·kh·kw]`) back into an input-shaped `[N, C, H, W]` tensor,
/// accumulating where receptive fields overlap.
///
/// # Panics
///
/// Panics if `cols` disagrees with `geo`/`batch`.
pub fn col2im(cols: &Tensor, geo: &Conv2dGeometry, batch: usize) -> Tensor {
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let patch_len = geo.patch_len();
    assert_eq!(
        cols.dims(),
        &[batch * oh * ow, patch_len],
        "patch matrix shape mismatch"
    );
    let (c, h, w) = (geo.in_c, geo.in_h, geo.in_w);
    let (kh, kw, stride, pad) = (geo.kh, geo.kw, geo.stride, geo.pad);
    let mut out = Tensor::zeros(&[batch, c, h, w]);
    let o = out.data_mut();
    let cd = cols.data();
    for r in 0..batch * oh * ow {
        let nn = r / (oh * ow);
        let rem = r % (oh * ow);
        let oy = rem / ow;
        let ox = rem % ow;
        let patch = &cd[r * patch_len..(r + 1) * patch_len];
        let mut q = 0;
        for cc in 0..c {
            let base = (nn * c + cc) * h * w;
            for ky in 0..kh {
                let iy = (oy * stride + ky) as isize - pad as isize;
                for kx in 0..kw {
                    let ix = (ox * stride + kx) as isize - pad as isize;
                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                        o[base + iy as usize * w + ix as usize] += patch[q];
                    }
                    q += 1;
                }
            }
        }
    }
    out
}

/// Rearranges a `[N·oh·ow, out_c]` product-row matrix into NCHW
/// `[N, out_c, oh, ow]`.
pub fn rows_to_nchw(rows: &Tensor, batch: usize, out_c: usize, oh: usize, ow: usize) -> Tensor {
    assert_eq!(
        rows.dims(),
        &[batch * oh * ow, out_c],
        "row matrix mismatch"
    );
    let mut out = Tensor::zeros(&[batch, out_c, oh, ow]);
    let (r, o) = (rows.data(), out.data_mut());
    for n in 0..batch {
        for s in 0..oh * ow {
            let row = &r[(n * oh * ow + s) * out_c..(n * oh * ow + s + 1) * out_c];
            for (oc, &v) in row.iter().enumerate() {
                o[(n * out_c + oc) * oh * ow + s] = v;
            }
        }
    }
    out
}

/// Inverse of [`rows_to_nchw`]: flattens NCHW `[N, C, oh, ow]` into
/// `[N·oh·ow, C]` rows.
pub fn nchw_to_rows(x: &Tensor) -> Tensor {
    assert_eq!(x.rank(), 4, "nchw_to_rows expects NCHW input");
    let (n, c, oh, ow) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let mut out = Tensor::zeros(&[n * oh * ow, c]);
    let o = out.data_mut();
    let xd = x.data();
    for nn in 0..n {
        for cc in 0..c {
            let base = (nn * c + cc) * oh * ow;
            for s in 0..oh * ow {
                o[(nn * oh * ow + s) * c + cc] = xd[base + s];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    fn geo(c: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_c: c,
            in_h: h,
            in_w: w,
            kh: k,
            kw: k,
            stride,
            pad,
        }
    }

    #[test]
    fn out_dim_formula() {
        assert_eq!(conv_out_dim(28, 5, 1, 0), 24);
        assert_eq!(conv_out_dim(32, 3, 1, 1), 32);
        assert_eq!(conv_out_dim(8, 2, 2, 0), 4);
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn kernel_too_large_panics() {
        conv_out_dim(2, 5, 1, 0);
    }

    #[test]
    fn im2col_identity_kernel_1x1() {
        // 1×1 kernel, stride 1: patch matrix is just a channel re-layout.
        let mut rng = SeededRng::new(1);
        let x = rng.normal_tensor(&[2, 3, 4, 4], 0.0, 1.0);
        let g = geo(3, 4, 4, 1, 1, 0);
        let cols = im2col(&x, &g);
        assert_eq!(cols.dims(), &[2 * 16, 3]);
        // Spot-check: row for (n=1, oy=2, ox=3), channel 2.
        let r = 16 + 2 * 4 + 3;
        assert_eq!(cols.at(&[r, 2]), x.at(&[1, 2, 2, 3]));
    }

    #[test]
    fn im2col_known_3x3() {
        // Single channel 3×3 input, 2×2 kernel, stride 1, no pad.
        let x = Tensor::arange(9).into_reshaped(&[1, 1, 3, 3]);
        let g = geo(1, 3, 3, 2, 1, 0);
        let cols = im2col(&x, &g);
        assert_eq!(cols.dims(), &[4, 4]);
        // First patch = rows [0,1,3,4] of arange.
        assert_eq!(&cols.data()[0..4], &[0.0, 1.0, 3.0, 4.0]);
        // Last patch (oy=1, ox=1) = [4,5,7,8].
        assert_eq!(&cols.data()[12..16], &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn im2col_zero_padding() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let g = geo(1, 2, 2, 3, 1, 1);
        let cols = im2col(&x, &g);
        assert_eq!(cols.dims(), &[4, 9]);
        // Top-left output: kernel hangs over the top-left corner, so the
        // first row/column of the patch are zeros.
        let first = &cols.data()[0..9];
        assert_eq!(first, &[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property.
        let mut rng = SeededRng::new(7);
        let g = geo(2, 5, 5, 3, 2, 1);
        let x = rng.normal_tensor(&[2, 2, 5, 5], 0.0, 1.0);
        let y_dims = [2 * g.patches_per_sample(), g.patch_len()];
        let y = rng.normal_tensor(&y_dims, 0.0, 1.0);
        let lhs = im2col(&x, &g).dot(&y);
        let rhs = x.dot(&col2im(&y, &g, 2));
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn rows_nchw_roundtrip() {
        let mut rng = SeededRng::new(3);
        let x = rng.normal_tensor(&[3, 5, 2, 4], 0.0, 1.0);
        let rows = nchw_to_rows(&x);
        assert_eq!(rows.dims(), &[3 * 8, 5]);
        let back = rows_to_nchw(&rows, 3, 5, 2, 4);
        assert_eq!(back, x);
    }

    #[test]
    fn conv_via_im2col_matches_direct() {
        // Direct convolution cross-check for a small case.
        let mut rng = SeededRng::new(9);
        let x = rng.normal_tensor(&[1, 2, 4, 4], 0.0, 1.0);
        let wt = rng.normal_tensor(&[3, 2, 3, 3], 0.0, 1.0); // [oc, ic, kh, kw]
        let g = geo(2, 4, 4, 3, 1, 1);
        let cols = im2col(&x, &g);
        let wmat = wt.reshape(&[3, 2 * 9]);
        let y = rows_to_nchw(&cols.matmul_t(&wmat), 1, 3, 4, 4);

        for oc in 0..3 {
            for oy in 0..4 {
                for ox in 0..4 {
                    let mut acc = 0.0;
                    for ic in 0..2 {
                        for ky in 0..3 {
                            for kx in 0..3 {
                                let iy = oy as isize + ky as isize - 1;
                                let ix = ox as isize + kx as isize - 1;
                                if (0..4).contains(&iy) && (0..4).contains(&ix) {
                                    acc += x.at(&[0, ic, iy as usize, ix as usize])
                                        * wt.at(&[oc, ic, ky, kx]);
                                }
                            }
                        }
                    }
                    assert!(
                        (y.at(&[0, oc, oy, ox]) - acc).abs() < 1e-4,
                        "mismatch at {oc},{oy},{ox}"
                    );
                }
            }
        }
    }
}
