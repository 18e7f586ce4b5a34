//! Integration tests of the experiment subsystem: registry resolution,
//! report-schema round-trips and the trained-model cache.

use cn_bench::cache::{ModelCache, ModelKey};
use cn_bench::experiments::{self, Ctx};
use cn_bench::report::ExperimentReport;
use cn_bench::Scale;
use cn_data::synthetic_mnist;
use cn_nn::metrics::evaluate;
use cn_nn::optim::Adam;
use cn_nn::trainer::{TrainConfig, Trainer};
use cn_nn::zoo::{lenet5, LeNetConfig};
use cn_nn::Sequential;
use correctnet::export::json::Json;

const EXPECTED: [&str; 11] = [
    "table1",
    "fig2",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ablation_device",
    "ablation_lipschitz",
    "serving",
    "net_serving",
    "alloc_profile",
];

fn temp_cache(tag: &str) -> ModelCache {
    let dir = std::env::temp_dir().join(format!("cn_bench_test_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    ModelCache::new(dir)
}

#[test]
fn every_registered_name_resolves() {
    let names = experiments::names();
    assert_eq!(
        names, EXPECTED,
        "catalog must list the eight paper artifacts plus the serving and alloc-profile workloads"
    );
    for name in names {
        let exp = experiments::find(name).unwrap_or_else(|| panic!("`{name}` must resolve"));
        assert_eq!(exp.name(), name);
        assert!(!exp.title().is_empty(), "{name} needs a title");
        assert!(!exp.description().is_empty(), "{name} needs a description");
    }
    assert!(experiments::find("fig11").is_none());
}

#[test]
fn registry_names_are_unique() {
    let mut names = experiments::names();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), EXPECTED.len());
}

#[test]
fn report_skeleton_configs_roundtrip_through_json() {
    let cache = temp_cache("skeleton");
    let ctx = Ctx::new(Scale::Quick, 0x5eed, &cache);
    for exp in experiments::registry() {
        let report = ctx.report(exp.as_ref());
        let text = report.to_json().render_pretty();
        let back = ExperimentReport::from_json(&Json::parse(&text).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", exp.name()));
        assert_eq!(back, report, "{} skeleton must round-trip", exp.name());
        assert_eq!(back.experiment, exp.name());
        assert_eq!(back.scale, "quick");
        // The shared config knobs are present and typed.
        assert_eq!(
            back.config
                .iter()
                .find(|(k, _)| k == "scale")
                .map(|(_, v)| v.as_str()),
            Some(Some("quick"))
        );
        assert_eq!(
            back.config
                .iter()
                .find(|(k, _)| k == "mc_samples")
                .and_then(|(_, v)| v.as_f64()),
            Some(Scale::Quick.mc_samples() as f64)
        );
    }
}

fn tiny_key() -> ModelKey {
    ModelKey {
        arch: "lenet_mnist_test".to_string(),
        dataset: "synthetic_mnist[60+30]".to_string(),
        dataset_seed: 21,
        regime: "plain".to_string(),
        seed: 23,
        net_seed: 22,
        train: vec![("epochs".to_string(), 2.0), ("lr".to_string(), 2e-3)],
    }
}

fn build() -> Sequential {
    lenet5(&LeNetConfig::mnist(22))
}

fn train(model: &mut Sequential) {
    let data = synthetic_mnist(60, 30, 21);
    Trainer::new(TrainConfig::new(2, 16, 23)).fit(model, &data.train, &mut Adam::new(2e-3));
}

#[test]
fn cache_hit_reproduces_identical_accuracies() {
    let cache = temp_cache("hit");
    let data = synthetic_mnist(60, 30, 21);

    // First experiment of the sweep: trains and saves.
    let first = cache.get_or_train(&tiny_key(), build, train);
    let acc_first = evaluate(&first, &data.test, 16);
    assert_eq!(cache.stats().trained, 1);
    assert_eq!(cache.stats().hits, 0);

    // Second experiment sharing the architecture: must hit, not retrain.
    let second = cache.get_or_train(&tiny_key(), build, |_| {
        panic!("cache hit must not retrain");
    });
    let acc_second = evaluate(&second, &data.test, 16);
    assert_eq!(
        cache.stats().trained,
        1,
        "the model is trained exactly once"
    );
    assert_eq!(cache.stats().hits, 1);
    assert_eq!(
        acc_first, acc_second,
        "restored model must reproduce the fresh-train accuracy exactly"
    );

    // A fresh cache instance on the same directory (a new process in a
    // sweep) also hits.
    let reopened = ModelCache::new(cache.dir());
    let third = reopened.get_or_train(&tiny_key(), build, |_| {
        panic!("persisted entry must satisfy a new cache instance");
    });
    assert_eq!(evaluate(&third, &data.test, 16), acc_first);
    assert_eq!(reopened.stats().hits, 1);
}

#[test]
fn changed_train_config_misses_instead_of_hitting() {
    let cache = temp_cache("miss");
    cache.get_or_train(&tiny_key(), build, train);

    let mut longer = tiny_key();
    longer.train[0].1 = 3.0; // more epochs → different model identity
    let mut retrained = false;
    cache.get_or_train(&longer, build, |m| {
        retrained = true;
        train(m);
    });
    assert!(
        retrained,
        "a different train config must not reuse the entry"
    );
    assert_eq!(cache.stats().trained, 2);
    assert_eq!(cache.stats().hits, 0);
}

#[test]
fn candidate_sweep_cache_is_keyed_by_seed_and_base() {
    use cn_bench::cache::cached_candidates;
    use cn_bench::Pair;

    let cache = temp_cache("cands");
    let data = synthetic_mnist(40, 20, 21);
    let mut base = build();
    train(&mut base);

    let first = cached_candidates(
        &cache,
        Pair::LeNet5Mnist,
        Scale::Quick,
        0.5,
        1,
        &base,
        &data,
    );
    // Same identity: served from the cache file, identical content.
    let again = cached_candidates(
        &cache,
        Pair::LeNet5Mnist,
        Scale::Quick,
        0.5,
        1,
        &base,
        &data,
    );
    assert_eq!(first, again);
    let files_before = std::fs::read_dir(cache.dir()).unwrap().count();

    // A different master seed denotes a differently trained base: the
    // entry must not be reused, a new one appears.
    let _other = cached_candidates(
        &cache,
        Pair::LeNet5Mnist,
        Scale::Quick,
        0.5,
        2,
        &base,
        &data,
    );
    let files_after = std::fs::read_dir(cache.dir()).unwrap().count();
    assert_eq!(
        files_after,
        files_before + 1,
        "changed seed must create a distinct candidate-sweep entry"
    );
}

#[test]
fn corrupt_cache_entry_falls_back_to_training() {
    let cache = temp_cache("corrupt");
    cache.get_or_train(&tiny_key(), build, train);

    // Clobber the stored container.
    let entry = std::fs::read_dir(cache.dir())
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.path().extension().is_some_and(|x| x == "cnm"))
        .expect("cache entry exists");
    std::fs::write(entry.path(), b"garbage").unwrap();

    let mut retrained = false;
    cache.get_or_train(&tiny_key(), build, |m| {
        retrained = true;
        train(m);
    });
    assert!(retrained, "corrupt entries must retrain, not crash");
}
