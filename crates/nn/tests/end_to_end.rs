//! End-to-end training tests: the full stack (synthetic data → model zoo →
//! trainer → metrics) must actually learn.

use cn_data::synthetic_mnist;
use cn_nn::metrics::evaluate;
use cn_nn::optim::Adam;
use cn_nn::trainer::{TrainConfig, Trainer};
use cn_nn::zoo::{lenet5, mlp, LeNetConfig};

#[test]
fn lenet_learns_synthetic_mnist() {
    let data = synthetic_mnist(300, 100, 42);
    let mut model = lenet5(&LeNetConfig::mnist(7));
    let before = evaluate(&model, &data.test, 50);
    let mut opt = Adam::new(2e-3);
    let mut trainer = Trainer::new(TrainConfig::new(5, 32, 1));
    let stats = trainer.fit(&mut model, &data.train, &mut opt);
    let after = evaluate(&model, &data.test, 50);
    assert!(
        after > 0.8,
        "LeNet test accuracy {after} too low (chance ≈ 0.1, start {before}), stats {stats:?}"
    );
    assert!(after > before + 0.3, "no learning: {before} → {after}");
}

#[test]
fn mlp_learns_synthetic_mnist_flattened() {
    use cn_nn::layers::Flatten;
    use cn_nn::Sequential;

    let data = synthetic_mnist(200, 80, 11);
    let mut layers: Vec<Box<dyn cn_nn::Layer>> = vec![Box::new(Flatten::new())];
    let body = mlp(&[28 * 28, 64, 10], 3);
    // Compose flatten + mlp by rebuilding a single Sequential.
    for i in 0..body.len() {
        layers.push(body.layer(i).clone_box());
    }
    let mut model = Sequential::new(layers);
    let mut opt = Adam::new(2e-3);
    Trainer::new(TrainConfig::new(4, 32, 2)).fit(&mut model, &data.train, &mut opt);
    let acc = evaluate(&model, &data.test, 40);
    assert!(acc > 0.7, "MLP test accuracy {acc} too low");
}

#[test]
fn training_under_persistent_noise_masks_still_learns() {
    // Noise-aware training sanity: resampling variation masks every batch
    // must not prevent learning (this is the mechanism behind both the
    // paper's compensator training and the statistical-training baseline).
    use cn_nn::noise::apply_lognormal;
    use cn_tensor::SeededRng;

    let data = synthetic_mnist(200, 80, 13);
    let mut model = lenet5(&LeNetConfig::mnist(5));
    let mut opt = Adam::new(2e-3);
    let mut noise_rng = SeededRng::new(99);
    let mut trainer = Trainer::new(TrainConfig::new(3, 32, 3))
        .with_before_batch(move |m, _| apply_lognormal(m, 0.1, &mut noise_rng));
    trainer.fit(&mut model, &data.train, &mut opt);
    model.clear_noise();
    let acc = evaluate(&model, &data.test, 40);
    assert!(acc > 0.6, "noise-aware training accuracy {acc} too low");
}
