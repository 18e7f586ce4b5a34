//! Integration: model persistence across pipeline stages.

use cn_data::synthetic_mnist;
use cn_nn::metrics::evaluate;
use cn_nn::optim::Adam;
use cn_nn::trainer::{TrainConfig, Trainer};
use cn_nn::zoo::{lenet5, vgg16, LeNetConfig, VggConfig};
use cn_tensor::io::{load_state_dict, save_state_dict};

#[test]
fn trained_lenet_roundtrips_through_disk() {
    let data = synthetic_mnist(150, 60, 221);
    let mut model = lenet5(&LeNetConfig::mnist(222));
    Trainer::new(TrainConfig::new(3, 32, 223)).fit(&mut model, &data.train, &mut Adam::new(2e-3));
    let acc = evaluate(&model, &data.test, 32);

    let dir = std::env::temp_dir().join("correctnet_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lenet.cnsd");
    save_state_dict(&path, &model.state_dict()).unwrap();

    let mut restored = lenet5(&LeNetConfig::mnist(999)); // different init
    let dict = load_state_dict(&path).unwrap();
    restored.load_state_dict(&dict).unwrap();
    let acc2 = evaluate(&restored, &data.test, 32);
    assert_eq!(acc, acc2, "restored model must reproduce accuracy exactly");
    std::fs::remove_file(&path).ok();
}

#[test]
fn vgg_state_dict_includes_batchnorm_buffers() {
    let model = vgg16(&VggConfig::quick(10, 3));
    let dict = model.state_dict();
    assert!(
        dict.iter().any(|(n, _)| n.contains("running_mean")),
        "batch-norm buffers missing from state dict"
    );
    // Restore into a twin and compare outputs on a probe.
    let mut twin = vgg16(&VggConfig::quick(10, 4));
    twin.load_state_dict(&dict).unwrap();
    let x = cn_tensor::SeededRng::new(5).normal_tensor(&[1, 3, 32, 32], 0.0, 1.0);
    let mut a = model.clone();
    let ya = a.forward(&x, false);
    let yb = twin.forward(&x, false);
    assert_eq!(ya, yb);
}

#[test]
fn compensated_model_state_dict_roundtrips() {
    use correctnet::compensation::{apply_compensation, CompensationPlan};
    let base = lenet5(&LeNetConfig::mnist(231));
    let plan = CompensationPlan::uniform(&[0, 1], 0.5);
    let comp = apply_compensation(&base, &plan, 232);
    let dict = comp.state_dict();
    assert!(dict.iter().any(|(n, _)| n.contains("gen_weight")));
    assert!(dict.iter().any(|(n, _)| n.contains("comp_weight")));
    let mut twin = apply_compensation(&base, &plan, 999);
    twin.load_state_dict(&dict).unwrap();
    let x = cn_tensor::SeededRng::new(7).normal_tensor(&[2, 1, 28, 28], 0.0, 1.0);
    let mut a = comp.clone();
    assert_eq!(a.forward(&x, false), twin.forward(&x, false));
}
