//! 2-D batch normalization.

use crate::layer::Layer;
use crate::param::Param;
use cn_tensor::ops::Activation;
use cn_tensor::Tensor;

/// Batch normalization over the channel axis of `[N, C, H, W]` tensors.
///
/// Statistics are computed per channel over `N·H·W` elements at train time
/// and tracked as exponential moving averages for evaluation. Scale/shift
/// (`γ`, `β`) are trainable; the running statistics are buffers.
///
/// Batch norm is executed digitally in AIMC accelerators (it is folded or
/// computed after the ADC), so it carries no noise hooks.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    name: String,
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    train: bool,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channels must be positive");
        BatchNorm2d {
            name: "batchnorm".to_string(),
            gamma: Param::new("gamma", Tensor::ones(&[channels])),
            beta: Param::new("beta", Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.gamma.value.numel()
    }

    /// Standardizes `x` with the given per-channel statistics and applies
    /// the affine scale/shift, returning `(x̂, 1/σ, y)` for the backward
    /// cache. The fused loop in [`Layer::infer_into`] replays the identical
    /// per-element operation sequence (pinned by a bitwise test) without
    /// materializing x̂.
    fn normalize(&self, x: &Tensor, mean: &[f32], var: &[f32]) -> (Tensor, Vec<f32>, Tensor) {
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let plane = h * w;
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut xhat = x.clone();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * plane;
                for v in &mut xhat.data_mut()[base..base + plane] {
                    *v = (*v - mean[ci]) * inv_std[ci];
                }
            }
        }
        let mut y = xhat.clone();
        let g = self.gamma.value.data();
        let b = self.beta.value.data();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * plane;
                for v in &mut y.data_mut()[base..base + plane] {
                    *v = *v * g[ci] + b[ci];
                }
            }
        }
        (xhat, inv_std, y)
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.rank(), 4, "BatchNorm2d expects NCHW input");
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        assert_eq!(c, self.channels(), "channel mismatch");
        let plane = h * w;
        let m = (n * plane) as f32;

        let (mean, var): (Vec<f32>, Vec<f32>) = if train {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for ci in 0..c {
                let mut acc = 0.0f64;
                for ni in 0..n {
                    let base = (ni * c + ci) * plane;
                    for &v in &x.data()[base..base + plane] {
                        acc += v as f64;
                    }
                }
                mean[ci] = (acc / m as f64) as f32;
                let mut vacc = 0.0f64;
                for ni in 0..n {
                    let base = (ni * c + ci) * plane;
                    for &v in &x.data()[base..base + plane] {
                        let d = v - mean[ci];
                        vacc += (d * d) as f64;
                    }
                }
                var[ci] = (vacc / m as f64) as f32;
            }
            // Update running statistics.
            for ci in 0..c {
                let rm = self.running_mean.data_mut();
                rm[ci] = (1.0 - self.momentum) * rm[ci] + self.momentum * mean[ci];
                let rv = self.running_var.data_mut();
                rv[ci] = (1.0 - self.momentum) * rv[ci] + self.momentum * var[ci];
            }
            (mean, var)
        } else {
            (
                self.running_mean.data().to_vec(),
                self.running_var.data().to_vec(),
            )
        };

        let (xhat, inv_std, y) = self.normalize(x, &mean, &var);
        self.cache = Some(BnCache {
            xhat,
            inv_std,
            train,
        });
        y
    }

    fn infer_into(&self, x: &Tensor, act: Activation, out: &mut Tensor) {
        assert_eq!(x.rank(), 4, "BatchNorm2d expects NCHW input");
        assert_eq!(x.dims()[1], self.channels(), "channel mismatch");
        // Fused single-pass eval normalization: the per-element operation
        // sequence matches `normalize` exactly (standardize, then scale/
        // shift), so outputs stay bitwise-equal to `forward(x, false)`
        // without materializing the x̂ intermediate the backward needs.
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let plane = h * w;
        let mean = self.running_mean.data();
        let var = self.running_var.data();
        let g = self.gamma.value.data();
        let b = self.beta.value.data();
        out.resize_in_place(x.dims());
        out.data_mut().copy_from_slice(x.data());
        for ni in 0..n {
            for ci in 0..c {
                let inv_std = 1.0 / (var[ci] + self.eps).sqrt();
                let base = (ni * c + ci) * plane;
                for v in &mut out.data_mut()[base..base + plane] {
                    *v = (*v - mean[ci]) * inv_std * g[ci] + b[ci];
                }
            }
        }
        super::activate_in_place(out, act);
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("BatchNorm2d::backward called before forward");
        let (n, c, h, w) = (
            grad_out.dims()[0],
            grad_out.dims()[1],
            grad_out.dims()[2],
            grad_out.dims()[3],
        );
        let plane = h * w;
        let m = (n * plane) as f32;
        let xhat = &cache.xhat;
        let gamma = self.gamma.value.data().to_vec();

        // Parameter gradients.
        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * plane;
                for k in 0..plane {
                    let g = grad_out.data()[base + k];
                    dgamma[ci] += g * xhat.data()[base + k];
                    dbeta[ci] += g;
                }
            }
        }
        self.gamma
            .accumulate(&Tensor::from_vec(dgamma.clone(), &[c]));
        self.beta.accumulate(&Tensor::from_vec(dbeta.clone(), &[c]));

        let mut gx = grad_out.clone();
        if cache.train {
            // Full batch-norm backward through the batch statistics.
            for ci in 0..c {
                let sum_dxhat = dbeta[ci] * gamma[ci];
                let sum_dxhat_xhat = dgamma[ci] * gamma[ci];
                for ni in 0..n {
                    let base = (ni * c + ci) * plane;
                    for k in 0..plane {
                        let dxhat = grad_out.data()[base + k] * gamma[ci];
                        gx.data_mut()[base + k] = cache.inv_std[ci] / m
                            * (m * dxhat - sum_dxhat - xhat.data()[base + k] * sum_dxhat_xhat);
                    }
                }
            }
        } else {
            // Eval mode: statistics are constants.
            for ni in 0..n {
                #[allow(clippy::needless_range_loop)]
                for ci in 0..c {
                    let base = (ni * c + ci) * plane;
                    for v in &mut gx.data_mut()[base..base + plane] {
                        *v *= gamma[ci] * cache.inv_std[ci];
                    }
                }
            }
        }
        gx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn buffers(&self) -> Vec<(String, &Tensor)> {
        vec![
            ("running_mean".to_string(), &self.running_mean),
            ("running_var".to_string(), &self.running_var),
        ]
    }

    fn buffers_mut(&mut self) -> Vec<(String, &mut Tensor)> {
        vec![
            ("running_mean".to_string(), &mut self.running_mean),
            ("running_var".to_string(), &mut self.running_var),
        ]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_tensor::SeededRng;

    #[test]
    fn train_forward_standardizes() {
        let mut bn = BatchNorm2d::new(3);
        let mut rng = SeededRng::new(1);
        let x = rng.normal_tensor(&[8, 3, 4, 4], 5.0, 3.0);
        let y = bn.forward(&x, true);
        // Default γ=1, β=0: each channel ≈ standardized.
        let (n, c, plane) = (8, 3, 16);
        for ci in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                vals.extend_from_slice(&y.data()[base..base + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn running_stats_converge() {
        let mut bn = BatchNorm2d::new(1);
        let mut rng = SeededRng::new(2);
        for _ in 0..60 {
            let x = rng.normal_tensor(&[16, 1, 2, 2], 3.0, 2.0);
            bn.forward(&x, true);
        }
        let rm = bn.running_mean.data()[0];
        let rv = bn.running_var.data()[0];
        assert!((rm - 3.0).abs() < 0.3, "running mean {rm}");
        assert!((rv - 4.0).abs() < 1.0, "running var {rv}");
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        bn.running_mean = Tensor::from_vec(vec![2.0], &[1]);
        bn.running_var = Tensor::from_vec(vec![4.0], &[1]);
        let x = Tensor::full(&[1, 1, 1, 2], 4.0);
        let y = bn.forward(&x, false);
        // (4 − 2)/2 = 1.
        assert!((y.data()[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn gamma_beta_scale_shift() {
        let mut bn = BatchNorm2d::new(1);
        bn.gamma.value = Tensor::from_vec(vec![3.0], &[1]);
        bn.beta.value = Tensor::from_vec(vec![-1.0], &[1]);
        let mut rng = SeededRng::new(3);
        let x = rng.normal_tensor(&[4, 1, 3, 3], 0.0, 1.0);
        let y = bn.forward(&x, true);
        let mean = y.mean();
        assert!((mean - -1.0).abs() < 1e-4, "mean {mean}");
    }

    #[test]
    fn infer_bitwise_matches_eval_forward() {
        let mut bn = BatchNorm2d::new(3);
        let mut rng = SeededRng::new(4);
        // Non-trivial running stats, scale and shift.
        for _ in 0..5 {
            let x = rng.normal_tensor(&[4, 3, 3, 3], 2.0, 1.5);
            bn.forward(&x, true);
        }
        bn.gamma.value = rng.normal_tensor(&[3], 1.0, 0.2);
        bn.beta.value = rng.normal_tensor(&[3], 0.0, 0.3);
        let x = rng.normal_tensor(&[2, 3, 4, 4], 0.0, 2.0);
        assert_eq!(bn.infer(&x), bn.forward(&x, false));
    }

    #[test]
    fn buffers_exposed_for_state_dict() {
        let bn = BatchNorm2d::new(2);
        let buffers = bn.buffers();
        assert_eq!(buffers.len(), 2);
        assert_eq!(buffers[0].0, "running_mean");
    }

    #[test]
    fn param_count_excludes_buffers() {
        let bn = BatchNorm2d::new(4);
        assert_eq!(bn.weight_count(), 8);
    }
}
