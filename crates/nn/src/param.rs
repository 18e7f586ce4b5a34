//! Trainable parameters.

use cn_tensor::Tensor;

/// A trainable parameter: value, gradient accumulator and freeze flag.
///
/// Freezing supports the CorrectNet compensator-training phase, in which
/// the base network's weights are fixed ("non-trainable", paper Sec. III-B)
/// while generator/compensator weights continue to learn. Optimizers skip
/// frozen parameters, and `Conv2d` and `Dense` skip computing their weight
/// and bias gradients when both are frozen: that pass costs as much as the
/// input gradient, so a frozen parameter's `grad` is left as it was.
#[derive(Debug, Clone)]
pub struct Param {
    /// Parameter name, unique within its layer (e.g. `"weight"`).
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    frozen: bool,
}

impl Param {
    /// Creates a parameter with a zeroed gradient.
    pub fn new(name: &str, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param {
            name: name.to_string(),
            value,
            grad,
            frozen: false,
        }
    }

    /// Number of scalar weights.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
    }

    /// Accumulates `g` into the gradient.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate(&mut self, g: &Tensor) {
        self.grad.axpy(1.0, g);
    }

    /// Whether optimizers should skip this parameter.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Sets the freeze flag.
    pub fn set_frozen(&mut self, frozen: bool) {
        self.frozen = frozen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new("w", Tensor::ones(&[2, 3]));
        assert_eq!(p.grad.dims(), &[2, 3]);
        assert!(p.grad.data().iter().all(|&x| x == 0.0));
        assert_eq!(p.numel(), 6);
        assert!(!p.is_frozen());
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = Param::new("w", Tensor::zeros(&[2]));
        p.accumulate(&Tensor::from_vec(vec![1.0, 2.0], &[2]));
        p.accumulate(&Tensor::from_vec(vec![0.5, 0.5], &[2]));
        assert_eq!(p.grad.data(), &[1.5, 2.5]);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
    }

    #[test]
    fn freeze_flag() {
        let mut p = Param::new("w", Tensor::zeros(&[1]));
        p.set_frozen(true);
        assert!(p.is_frozen());
    }
}
