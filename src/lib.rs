//! Umbrella crate re-exporting the CorrectNet reproduction workspace.
//!
//! Depend on the individual crates for fine-grained control, or on this
//! crate for everything at once:
//!
//! ```
//! use correctnet_repro::prelude::*;
//!
//! let data = synthetic_mnist(64, 32, 1);
//! let mut model = lenet5(&LeNetConfig::mnist(2));
//! let logits = model.forward(&data.test.images, false);
//! assert_eq!(logits.dims(), &[32, 10]);
//! ```

pub use cn_analog as analog;
pub use cn_baselines as baselines;
pub use cn_data as data;
pub use cn_nn as nn;
pub use cn_rl as rl;
pub use cn_serve as serve;
pub use cn_tensor as tensor;
pub use correctnet as core;

/// The most commonly used types and functions, re-exported flat.
pub mod prelude {
    pub use cn_analog::drift::ConductanceDrift;
    pub use cn_analog::engine::{
        monte_carlo, AnalogBackend, Backend, CompiledModel, DigitalBackend, DriftBackend,
        EngineBuilder, McConfig, McResult, Session,
    };
    pub use cn_analog::DeploymentMode;
    pub use cn_data::{synthetic_cifar10, synthetic_cifar100, synthetic_mnist, BatchIter, Dataset};
    pub use cn_nn::loss::softmax_cross_entropy;
    pub use cn_nn::metrics::evaluate;
    pub use cn_nn::optim::{Adam, Optimizer, Sgd};
    pub use cn_nn::trainer::{TrainConfig, Trainer};
    pub use cn_nn::zoo::{lenet5, vgg16, LeNetConfig, VggConfig};
    pub use cn_nn::{Layer, Sequential};
    pub use cn_serve::{
        RouterConfig, RouterError, ServeConfig, ServeError, Server, ShardRouter, Vote,
    };
    pub use cn_tensor::{SeededRng, Tensor};
    pub use correctnet::compensation::{apply_compensation, weight_overhead, CompensationPlan};
    pub use correctnet::lipschitz::{lambda_for, LipschitzRegularizer};
    pub use correctnet::pipeline::{CorrectNetConfig, CorrectNetStages};
}
