//! Error compensation (paper Sec. III-B, Fig. 5).
//!
//! A *generator* produces compensation data from the concatenation of a
//! layer's (pooled) input and output feature maps; a *compensator* merges
//! the compensation data back into the output. Both are 1×1-kernel
//! convolutions (dense layers for fully connected bases), executed
//! digitally and therefore immune to analog variations. One wrapper type,
//! [`Compensated`], implements this dataflow for either base kind.
//!
//! Given an original layer with `l` input and `n` output feature maps and
//! a compensation ratio `r` (the RL action `Sᵢ` of the paper), the
//! generator holds `m = max(1, round(r·n))` filters of shape `1×1×(l+n)`
//! and the compensator `n` filters of shape `1×1×(n+m)`.

pub mod layer;
pub mod train;

pub use layer::Compensated;
pub use train::{train_compensators, train_compensators_mode, CompensationTrainConfig};

use cn_nn::Sequential;

/// Number of generator filters for an original layer with `n` outputs at
/// compensation ratio `ratio` (paper: `Sᵢ` × original filter count,
/// minimum one filter when compensation is enabled).
pub fn generator_filters(n: usize, ratio: f32) -> usize {
    ((n as f32 * ratio).round() as usize).max(1)
}

/// One placement decision: compensate weight-layer `weight_layer` with
/// ratio `ratio`. Ratios ≤ 0 mean "no compensation" (paper: `S ≤ 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEntry {
    /// Index among the model's analog weight layers (0-based).
    pub weight_layer: usize,
    /// Generator size as a fraction of the layer's filter count.
    pub ratio: f32,
}

/// A full compensation placement (the RL search's state, paper Fig. 6).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompensationPlan {
    /// Placement entries; entries with `ratio ≤ 0` are skipped.
    pub entries: Vec<PlanEntry>,
}

impl CompensationPlan {
    /// Plan compensating the given weight layers with one shared ratio.
    pub fn uniform(layers: &[usize], ratio: f32) -> Self {
        CompensationPlan {
            entries: layers
                .iter()
                .map(|&weight_layer| PlanEntry {
                    weight_layer,
                    ratio,
                })
                .collect(),
        }
    }

    /// Number of layers that actually receive compensation.
    pub fn active_count(&self) -> usize {
        self.entries.iter().filter(|e| e.ratio > 0.0).count()
    }
}

/// Builds a compensated copy of `model` according to `plan`.
///
/// Each planned analog weight layer (convolutional or dense) is replaced
/// in place by its compensation wrapper; everything else is cloned
/// unchanged.
///
/// # Panics
///
/// Panics if a planned layer index is out of range, or targets a layer
/// [`Compensated::wrap`] rejects (neither `Conv2d` nor `Dense`, e.g.
/// already compensated).
pub fn apply_compensation(model: &Sequential, plan: &CompensationPlan, seed: u64) -> Sequential {
    let mut out = model.clone();
    let noisy = model.noisy_layers();
    for (k, entry) in plan.entries.iter().enumerate() {
        if entry.ratio <= 0.0 {
            continue;
        }
        assert!(
            entry.weight_layer < noisy.len(),
            "weight layer {} out of range ({} analog layers)",
            entry.weight_layer,
            noisy.len()
        );
        let (layer_idx, _) = noisy[entry.weight_layer];
        let wrapper = Compensated::wrap(
            out.layer(layer_idx),
            entry.ratio,
            seed.wrapping_add(k as u64),
        );
        out.replace_layer(layer_idx, Box::new(wrapper));
    }
    out
}

/// Closed-form weight overhead of a plan against an (uncompensated)
/// model, without building anything: per compensated layer the generator
/// costs `m·(l+n)+m` and the compensator `n·(n+m)+n` weights.
///
/// # Panics
///
/// Panics if a plan entry indexes past the model's analog layers.
pub fn plan_overhead(model: &Sequential, plan: &CompensationPlan) -> f32 {
    let noisy = model.noisy_layers();
    let base_weights = model.weight_count();
    let mut extra = 0usize;
    for entry in &plan.entries {
        if entry.ratio <= 0.0 {
            continue;
        }
        assert!(
            entry.weight_layer < noisy.len(),
            "weight layer {} out of range",
            entry.weight_layer
        );
        let (layer_idx, dims) = &noisy[entry.weight_layer];
        let n = model
            .layer(*layer_idx)
            .lipschitz_matrix()
            .expect("analog layer")
            .dims()[0];
        let l = dims[1];
        let m = generator_filters(n, entry.ratio);
        extra += m * (l + n) + m + n * (n + m) + n;
    }
    if base_weights == 0 {
        0.0
    } else {
        extra as f32 / base_weights as f32
    }
}

/// Greedily compensates `candidates` (in order) at `ratio` while the
/// closed-form overhead stays within `budget` — the fixed-plan stand-in
/// for the RL search used by sweep experiments. Returns the plan.
pub fn budgeted_uniform_plan(
    model: &Sequential,
    candidates: &[usize],
    ratio: f32,
    budget: f32,
) -> CompensationPlan {
    let mut plan = CompensationPlan::default();
    for &weight_layer in candidates {
        let mut trial = plan.clone();
        trial.entries.push(PlanEntry {
            weight_layer,
            ratio,
        });
        if plan_overhead(model, &trial) <= budget {
            plan = trial;
        }
    }
    plan
}

/// Total number of weights living in compensation modules.
pub fn compensation_weight_count(model: &Sequential) -> usize {
    (0..model.len())
        .map(|i| {
            model
                .layer(i)
                .as_any()
                .downcast_ref::<Compensated>()
                .map_or(0, Compensated::compensation_weight_count)
        })
        .sum()
}

/// The paper's overhead metric (Table I): compensation weights divided by
/// the weights of the original (uncompensated) network.
pub fn weight_overhead(model: &Sequential) -> f32 {
    let comp = compensation_weight_count(model);
    let base = model.weight_count() - comp;
    if base == 0 {
        0.0
    } else {
        comp as f32 / base as f32
    }
}

/// Number of compensated layers in a model (Table I's `#Layers` column).
pub fn compensated_layer_count(model: &Sequential) -> usize {
    (0..model.len())
        .filter(|&i| model.layer(i).as_any().is::<Compensated>())
        .count()
}

/// Unfreezes only the generator/compensator parameters, freezing the rest
/// of the model — the paper's compensator-training setup ("the weights in
/// the original layers are fixed … while the weights in the generators and
/// compensators are kept trainable").
pub fn freeze_all_but_compensation(model: &mut Sequential) {
    model.set_frozen(true);
    for i in 0..model.len() {
        if let Some(w) = model
            .layer_mut(i)
            .as_any_mut()
            .downcast_mut::<Compensated>()
        {
            w.set_comp_frozen(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_nn::zoo::{lenet5, LeNetConfig};
    use cn_tensor::Tensor;

    #[test]
    fn generator_filter_rule() {
        assert_eq!(generator_filters(16, 0.5), 8);
        assert_eq!(generator_filters(16, 0.03), 1); // minimum one filter
        assert_eq!(generator_filters(6, 1.0), 6);
    }

    #[test]
    fn apply_plan_wraps_layers() {
        let model = lenet5(&LeNetConfig::mnist(1));
        let plan = CompensationPlan::uniform(&[0, 1], 0.5);
        let comp = apply_compensation(&model, &plan, 7);
        assert_eq!(compensated_layer_count(&comp), 2);
        // The analog layer count is unchanged (wrappers forward noise).
        assert_eq!(comp.noisy_layers().len(), model.noisy_layers().len());
    }

    #[test]
    fn zero_ratio_entries_are_skipped() {
        let model = lenet5(&LeNetConfig::mnist(2));
        let plan = CompensationPlan {
            entries: vec![
                PlanEntry {
                    weight_layer: 0,
                    ratio: 0.0,
                },
                PlanEntry {
                    weight_layer: 1,
                    ratio: -0.5,
                },
            ],
        };
        let comp = apply_compensation(&model, &plan, 3);
        assert_eq!(compensated_layer_count(&comp), 0);
        assert_eq!(plan.active_count(), 0);
    }

    #[test]
    fn compensated_model_keeps_io_shapes() {
        let model = lenet5(&LeNetConfig::mnist(4));
        let plan = CompensationPlan::uniform(&[0, 1, 2, 3, 4], 0.5);
        let mut comp = apply_compensation(&model, &plan, 5);
        let x = Tensor::zeros(&[2, 1, 28, 28]);
        assert_eq!(comp.forward(&x, false).dims(), &[2, 10]);
    }

    #[test]
    fn overhead_accounting() {
        let model = lenet5(&LeNetConfig::mnist(6));
        let base_weights = model.weight_count();
        let plan = CompensationPlan::uniform(&[0], 0.5);
        let comp = apply_compensation(&model, &plan, 7);
        let overhead = weight_overhead(&comp);
        // conv1: l=1, n=6, m=3 → gen 3·(1+6)+3 = 24, comp 6·(6+3)+6 = 60.
        let expected = (24 + 60) as f32 / base_weights as f32;
        assert!(
            (overhead - expected).abs() < 1e-6,
            "{overhead} vs {expected}"
        );
        assert_eq!(weight_overhead(&model), 0.0);
    }

    #[test]
    fn freeze_all_but_compensation_splits_params() {
        let model = lenet5(&LeNetConfig::mnist(8));
        let plan = CompensationPlan::uniform(&[1], 0.5);
        let mut comp = apply_compensation(&model, &plan, 9);
        freeze_all_but_compensation(&mut comp);
        let frozen: usize = comp.params_mut().iter().filter(|p| p.is_frozen()).count();
        let free: usize = comp.params_mut().iter().filter(|p| !p.is_frozen()).count();
        assert_eq!(free, 4, "gen w/b + comp w/b must be trainable");
        assert!(frozen > free);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_layer_index_panics() {
        let model = lenet5(&LeNetConfig::mnist(10));
        apply_compensation(&model, &CompensationPlan::uniform(&[99], 0.5), 1);
    }

    #[test]
    fn plan_overhead_matches_built_model() {
        let model = lenet5(&LeNetConfig::mnist(12));
        for plan in [
            CompensationPlan::uniform(&[0], 0.5),
            CompensationPlan::uniform(&[0, 1], 1.0),
            CompensationPlan::uniform(&[0, 1, 2], 0.25),
        ] {
            let predicted = plan_overhead(&model, &plan);
            let built = apply_compensation(&model, &plan, 13);
            let actual = weight_overhead(&built);
            assert!(
                (predicted - actual).abs() < 1e-6,
                "plan {plan:?}: {predicted} vs {actual}"
            );
        }
    }

    #[test]
    fn budgeted_plan_respects_budget_and_order() {
        let model = lenet5(&LeNetConfig::mnist(14));
        // Tight budget: only the cheap conv layers fit; the dense layers
        // (n² compensator cost) must be skipped.
        let plan = budgeted_uniform_plan(&model, &[0, 1, 2, 3, 4], 1.0, 0.06);
        assert!(plan_overhead(&model, &plan) <= 0.06);
        let chosen: Vec<usize> = plan.entries.iter().map(|e| e.weight_layer).collect();
        // The convs (n = 6, 16) and the tiny output layer (n = 10) fit;
        // fc1/fc2 (n = 120/84 → ≥ n² compensator weights) must be skipped.
        assert_eq!(chosen, vec![0, 1, 4]);
        // Generous budget: everything fits.
        let all = budgeted_uniform_plan(&model, &[0, 1], 1.0, 1.0);
        assert_eq!(all.entries.len(), 2);
        // Zero budget: nothing fits.
        let none = budgeted_uniform_plan(&model, &[0, 1], 1.0, 0.0);
        assert_eq!(none.active_count(), 0);
    }
}
