//! Evaluation metrics.

use crate::model::{InferScratch, Sequential};
use cn_data::{BatchIter, Dataset};

/// Classification accuracy of logits against labels.
///
/// # Panics
///
/// Panics if counts disagree.
pub fn accuracy(logits: &cn_tensor::Tensor, labels: &[usize]) -> f32 {
    let preds = logits.argmax_rows();
    assert_eq!(preds.len(), labels.len(), "label count mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let hits = preds
        .iter()
        .zip(labels.iter())
        .filter(|(p, l)| p == l)
        .count();
    hits as f32 / labels.len() as f32
}

/// Evaluates model accuracy over a dataset, batched through
/// [`Sequential::infer_with`] with one scratch reused across batches
/// (bitwise identical to `forward(x, false)`).
pub fn evaluate(model: &Sequential, data: &Dataset, batch_size: usize) -> f32 {
    let mut scratch = InferScratch::default();
    let mut hits = 0usize;
    for (x, y) in BatchIter::new(data, batch_size, None) {
        let preds = model.infer_with(&x, &mut scratch).argmax_rows();
        hits += preds.iter().zip(y.iter()).filter(|(p, l)| p == l).count();
    }
    hits as f32 / data.len().max(1) as f32
}

/// Mean and sample standard deviation of a slice (used to report MC
/// accuracy distributions as in the paper's figures).
pub fn mean_std(xs: &[f32]) -> (f32, f32) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f32>() / xs.len() as f32;
    if xs.len() == 1 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / (xs.len() - 1) as f32;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Dense;
    use cn_tensor::{SeededRng, Tensor};

    #[test]
    fn accuracy_basic() {
        let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4], &[3, 2]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn evaluate_on_identity_task() {
        use crate::layer::Layer;
        use crate::layers::Flatten;
        // One-hot 3×1×1 images, identity weight: perfect accuracy.
        let mut rng = SeededRng::new(1);
        let mut dense = Dense::new(3, 3, &mut rng);
        dense.params_mut()[0].value = Tensor::eye(3);
        dense.params_mut()[1].value = Tensor::zeros(&[3]);
        let model = Sequential::new(vec![Box::new(Flatten::new()), Box::new(dense)]);
        let images = Tensor::from_vec(
            vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            &[3, 3, 1, 1],
        );
        let data = Dataset::new(images, vec![0, 1, 2], 3, "onehot");
        assert_eq!(evaluate(&model, &data, 2), 1.0);
    }

    #[test]
    fn evaluate_matches_the_forward_protocol() {
        use crate::noise::apply_lognormal;
        use crate::zoo::{lenet5, LeNetConfig};
        // A noisy LeNet over a ragged last batch: the accuracy through
        // `infer_with` equals the per-batch `forward(x, false)` count.
        let mut model = lenet5(&LeNetConfig::mnist(2));
        apply_lognormal(&mut model, 0.5, &mut SeededRng::new(3));
        let data = cn_data::synthetic_mnist(8, 13, 4).test;
        let mut hits = 0;
        for (x, y) in BatchIter::new(&data, 5, None) {
            let preds = model.forward(&x, false).argmax_rows();
            hits += preds.iter().zip(&y).filter(|(p, l)| p == l).count();
        }
        assert_eq!(evaluate(&model, &data, 5), hits as f32 / 13.0);
    }

    #[test]
    fn mean_std_values() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-6);
        assert!((s - 1.0).abs() < 1e-6);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[5.0]).1, 0.0);
    }
}
