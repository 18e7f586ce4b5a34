//! Property-based tests for cn-tensor invariants.

use cn_tensor::linalg::{singular_values, spectral_norm};
use cn_tensor::ops::matmul::matmul_naive;
use cn_tensor::ops::{
    avg_pool2d, avg_pool2d_backward, col2im, im2col, nchw_to_rows, rows_to_nchw, Conv2dGeometry,
    PoolGeometry,
};
use cn_tensor::SeededRng;
use proptest::prelude::*;

fn close(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked/parallel matmul agrees with the naive reference at any shape.
    #[test]
    fn matmul_matches_naive(m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..1000) {
        let mut rng = SeededRng::new(seed);
        let a = rng.normal_tensor(&[m, k], 0.0, 1.0);
        let b = rng.normal_tensor(&[k, n], 0.0, 1.0);
        let fast = a.matmul(&b);
        let slow = matmul_naive(&a, &b);
        for (x, y) in fast.data().iter().zip(slow.data().iter()) {
            prop_assert!(close(*x, *y, 1e-4));
        }
    }

    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn matmul_transpose_identity(m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..1000) {
        let mut rng = SeededRng::new(seed);
        let a = rng.normal_tensor(&[m, k], 0.0, 1.0);
        let b = rng.normal_tensor(&[k, n], 0.0, 1.0);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!(close(*x, *y, 1e-4));
        }
    }

    /// Matmul is linear: A·(αB + C) = αA·B + A·C.
    #[test]
    fn matmul_linearity(m in 1usize..10, k in 1usize..10, n in 1usize..10, alpha in -2.0f32..2.0, seed in 0u64..1000) {
        let mut rng = SeededRng::new(seed);
        let a = rng.normal_tensor(&[m, k], 0.0, 1.0);
        let b = rng.normal_tensor(&[k, n], 0.0, 1.0);
        let c = rng.normal_tensor(&[k, n], 0.0, 1.0);
        let lhs = a.matmul(&(&b * alpha + &c));
        let rhs = &(a.matmul(&b)) * alpha + &a.matmul(&c);
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!(close(*x, *y, 1e-3));
        }
    }

    /// Spectral norm is sub-multiplicative and matches the Jacobi SVD.
    #[test]
    fn spectral_norm_properties(m in 2usize..8, n in 2usize..8, seed in 0u64..500) {
        let mut rng = SeededRng::new(seed);
        let w = rng.normal_tensor(&[m, n], 0.0, 1.0);
        let s = spectral_norm(&w, 150);
        let sv = singular_values(&w, 30);
        prop_assert!(close(s, sv[0], 5e-3), "power {s} vs jacobi {}", sv[0]);
        // ‖W‖₂ ≤ ‖W‖_F always.
        prop_assert!(s <= w.norm() * (1.0 + 1e-4));
    }

    /// Spectral norm bounds output amplification: |Wx| ≤ σ·|x|.
    #[test]
    fn spectral_norm_is_lipschitz_bound(m in 1usize..8, n in 1usize..8, seed in 0u64..500) {
        let mut rng = SeededRng::new(seed);
        let w = rng.normal_tensor(&[m, n], 0.0, 1.0);
        let x = rng.normal_tensor(&[n], 0.0, 1.0);
        let s = spectral_norm(&w, 200);
        prop_assert!(w.matvec(&x).norm() <= s * x.norm() * (1.0 + 1e-3) + 1e-5);
    }

    /// im2col followed by col2im is the adjoint pair: <im2col(x), y> = <x, col2im(y)>.
    #[test]
    fn im2col_adjointness(c in 1usize..3, h in 3usize..8, k in 1usize..4, stride in 1usize..3, pad in 0usize..2, seed in 0u64..500) {
        prop_assume!(h + 2 * pad >= k);
        let geo = Conv2dGeometry { in_c: c, in_h: h, in_w: h, kh: k, kw: k, stride, pad };
        let mut rng = SeededRng::new(seed);
        let x = rng.normal_tensor(&[2, c, h, h], 0.0, 1.0);
        let y = rng.normal_tensor(&[2 * geo.patches_per_sample(), geo.patch_len()], 0.0, 1.0);
        let lhs = im2col(&x, &geo).dot(&y);
        let rhs = x.dot(&col2im(&y, &geo, 2));
        prop_assert!(close(lhs, rhs, 1e-3), "{lhs} vs {rhs}");
    }

    /// NCHW <-> row-matrix conversion is a bijection.
    #[test]
    fn nchw_rows_roundtrip(n in 1usize..4, c in 1usize..5, h in 1usize..5, w in 1usize..5, seed in 0u64..500) {
        let mut rng = SeededRng::new(seed);
        let x = rng.normal_tensor(&[n, c, h, w], 0.0, 1.0);
        let back = rows_to_nchw(&nchw_to_rows(&x), n, c, h, w);
        prop_assert_eq!(back, x);
    }

    /// Average pooling preserves the global mean for non-overlapping windows.
    #[test]
    fn avg_pool_preserves_mean(n in 1usize..3, c in 1usize..3, half in 1usize..5, k in 1usize..3, seed in 0u64..500) {
        let size = half * k * 2;
        let mut rng = SeededRng::new(seed);
        let x = rng.normal_tensor(&[n, c, size, size], 0.0, 1.0);
        let y = avg_pool2d(&x, PoolGeometry::square(k));
        prop_assert!(close(x.mean(), y.mean(), 1e-3));
    }

    /// Avg-pool backward is the adjoint of forward.
    #[test]
    fn avg_pool_adjointness(k in 1usize..4, reps in 1usize..4, seed in 0u64..500) {
        let size = k * reps;
        let mut rng = SeededRng::new(seed);
        let x = rng.normal_tensor(&[1, 2, size, size], 0.0, 1.0);
        let geo = PoolGeometry::square(k);
        let y = avg_pool2d(&x, geo);
        let g = rng.normal_tensor(y.dims(), 0.0, 1.0);
        let gi = avg_pool2d_backward(&g, geo, x.dims());
        prop_assert!(close(y.dot(&g), x.dot(&gi), 1e-3));
    }

    /// Serialization roundtrips bit-exactly.
    #[test]
    fn io_roundtrip(dims in proptest::collection::vec(1usize..6, 1..4), seed in 0u64..500) {
        let mut rng = SeededRng::new(seed);
        let t = rng.normal_tensor(&dims, 0.0, 10.0);
        let buf = cn_tensor::io::tensor_to_bytes(&t);
        let back = cn_tensor::io::tensor_from_bytes(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back, t);
    }

    /// Softmax rows are probability distributions for any logits.
    #[test]
    fn softmax_is_distribution(n in 1usize..6, c in 1usize..8, scale in 0.1f32..50.0, seed in 0u64..500) {
        let mut rng = SeededRng::new(seed);
        let t = rng.normal_tensor(&[n, c], 0.0, scale);
        let s = t.softmax_rows();
        prop_assert!(!s.has_non_finite());
        for r in 0..n {
            let row_sum: f32 = s.data()[r * c..(r + 1) * c].iter().sum();
            prop_assert!(close(row_sum, 1.0, 1e-4));
            prop_assert!(s.data()[r * c..(r + 1) * c].iter().all(|&p| p >= 0.0));
        }
    }

    /// Log-normal masks have the theoretical mean e^{σ²/2}.
    #[test]
    fn lognormal_mask_mean(sigma in 0.05f32..0.8, seed in 0u64..100) {
        let mut rng = SeededRng::new(seed);
        let mask = rng.lognormal_mask(&[40, 40], sigma);
        let expected = (sigma * sigma / 2.0).exp();
        prop_assert!((mask.mean() - expected).abs() < 0.15, "{} vs {expected}", mask.mean());
    }
}
