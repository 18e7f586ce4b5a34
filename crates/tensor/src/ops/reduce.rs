//! Reductions, argmax and row-wise softmax / log-softmax.

use crate::tensor::Tensor;

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics on empty tensors.
    pub fn max(&self) -> f32 {
        assert!(self.numel() > 0, "max of empty tensor");
        self.data()
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics on empty tensors.
    pub fn min(&self) -> f32 {
        assert!(self.numel() > 0, "min of empty tensor");
        self.data().iter().cloned().fold(f32::INFINITY, f32::min)
    }

    /// Maximum absolute value (0 for empty tensors).
    pub fn abs_max(&self) -> f32 {
        self.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Index of the maximum element of a rank-1 tensor (first on ties).
    ///
    /// # Panics
    ///
    /// Panics for empty tensors.
    pub fn argmax(&self) -> usize {
        assert!(self.numel() > 0, "argmax of empty tensor");
        let mut best = 0;
        let mut best_v = self.data()[0];
        for (i, &v) in self.data().iter().enumerate().skip(1) {
            if v > best_v {
                best = i;
                best_v = v;
            }
        }
        best
    }

    /// Row-wise argmax of a rank-2 tensor: for `[n, c]` returns `n` indices.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.argmax_rows_into(&mut out);
        out
    }

    /// [`argmax_rows`](Self::argmax_rows) into a caller-owned buffer:
    /// `out` is cleared and refilled, so a reused buffer allocates nothing
    /// once it has held `n` indices. Ties pick the first maximum.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or has zero columns.
    pub fn argmax_rows_into(&self, out: &mut Vec<usize>) {
        assert_eq!(self.rank(), 2, "argmax_rows requires a rank-2 tensor");
        let (n, c) = (self.dims()[0], self.dims()[1]);
        assert!(c > 0, "argmax_rows requires at least one column");
        out.clear();
        out.extend(self.data().chunks_exact(c).take(n).map(|row| {
            let mut best = 0;
            for i in 1..c {
                if row[i] > row[best] {
                    best = i;
                }
            }
            best
        }));
    }

    /// Sums a rank-2 tensor over its rows, producing a `[cols]` tensor
    /// (the bias-gradient reduction).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "sum_rows requires a rank-2 tensor");
        let (n, c) = (self.dims()[0], self.dims()[1]);
        let mut out = Tensor::zeros(&[c]);
        for r in 0..n {
            for (o, &x) in out
                .data_mut()
                .iter_mut()
                .zip(self.data()[r * c..(r + 1) * c].iter())
            {
                *o += x;
            }
        }
        out
    }

    /// Numerically stable row-wise softmax of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "softmax_rows requires a rank-2 tensor");
        let (n, c) = (self.dims()[0], self.dims()[1]);
        let mut out = self.clone();
        for r in 0..n {
            let row = &mut out.data_mut()[r * c..(r + 1) * c];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
        out
    }

    /// Numerically stable row-wise log-softmax of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn log_softmax_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "log_softmax_rows requires a rank-2 tensor");
        let (n, c) = (self.dims()[0], self.dims()[1]);
        let mut out = self.clone();
        for r in 0..n {
            let row = &mut out.data_mut()[r * c..(r + 1) * c];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let lse = max + row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
            for x in row.iter_mut() {
                *x -= lse;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.0], &[4]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.abs_max(), 3.0);
        assert_eq!(t.argmax(), 2);
    }

    #[test]
    fn argmax_ties_pick_first() {
        let t = Tensor::from_vec(vec![5.0, 5.0, 1.0], &[3]);
        assert_eq!(t.argmax(), 0);
    }

    #[test]
    fn argmax_rows_basic() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.7, 0.2], &[2, 2]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn argmax_rows_into_reuses_the_buffer() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.7, 0.2, 3.0, 3.0], &[3, 2]);
        let mut out = vec![9; 5];
        t.argmax_rows_into(&mut out);
        // Stale contents are cleared; ties pick the first maximum.
        assert_eq!(out, vec![1, 0, 0]);
        let ptr = out.as_ptr();
        t.argmax_rows_into(&mut out);
        assert_eq!(out.as_ptr(), ptr, "reused buffer was reallocated");
    }

    #[test]
    fn sum_rows_bias_grad() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.sum_rows().data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotonicity: larger logit → larger probability.
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]);
        let s = t.softmax_rows();
        assert!(!s.has_non_finite());
        assert!((s.at(&[0, 0]) + s.at(&[0, 1]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let t = Tensor::from_vec(vec![0.5, -0.5, 2.0], &[1, 3]);
        let ls = t.log_softmax_rows();
        let s = t.softmax_rows();
        for i in 0..3 {
            assert!((ls.at(&[0, i]) - s.at(&[0, i]).ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(Tensor::zeros(&[0]).mean(), 0.0);
    }
}
