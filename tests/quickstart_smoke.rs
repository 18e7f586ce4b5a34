//! Smoke test for the `quickstart` example path: one epoch of training on
//! the synthetic MNIST stand-in must produce finite losses and logits of
//! the expected shape. Keeps the example's entry points exercised by
//! `cargo test` without the example's full Monte-Carlo runtime.

use cn_data::synthetic_mnist;
use cn_nn::metrics::evaluate;
use cn_nn::optim::Adam;
use cn_nn::trainer::{TrainConfig, Trainer};
use cn_nn::zoo::{lenet5, LeNetConfig};

#[test]
fn one_epoch_quickstart_path() {
    let data = synthetic_mnist(128, 48, 42);
    assert_eq!(data.train.len(), 128);
    assert_eq!(data.test.len(), 48);

    let mut model = lenet5(&LeNetConfig::mnist(1));
    let stats =
        Trainer::new(TrainConfig::new(1, 32, 7)).fit(&mut model, &data.train, &mut Adam::new(2e-3));

    assert_eq!(stats.len(), 1, "exactly one epoch of stats");
    assert!(
        stats[0].loss.is_finite(),
        "training loss must be finite, got {}",
        stats[0].loss
    );

    let logits = model.forward(&data.test.images, false);
    assert_eq!(logits.dims(), &[48, 10], "logits are [batch, classes]");
    assert!(
        !logits.has_non_finite(),
        "logits must be finite after one epoch"
    );

    let acc = evaluate(&model, &data.test, 32);
    assert!((0.0..=1.0).contains(&acc), "accuracy in [0, 1], got {acc}");
}
