//! **Paper Table I**: clean accuracy, collapsed accuracy at σ = 0.5,
//! CorrectNet-recovered accuracy, weight overhead and number of
//! compensated layers for all four network–dataset pairs.
//!
//! The placement is found by the RL search (paper Fig. 6) over the
//! candidate layers from the 95 % rule.

use super::{candidate_prefix, Ctx, Experiment};
use crate::profile::{pipeline_config, Pair};
use crate::report::ExperimentReport;
use cn_nn::metrics::evaluate;
use cn_rl::env::CorrectNetEnv;
use cn_rl::search::{reinforce_search, SearchConfig};
use correctnet::compensation::{compensated_layer_count, weight_overhead};
use correctnet::pipeline::CorrectNetStages;
use correctnet::report::{pct, Table1Row};

/// Table I regenerator.
pub struct Table1;

const SIGMA: f32 = 0.5;
const PIPE_SEED: u64 = 0x7ab1;

impl Experiment for Table1 {
    fn name(&self) -> &'static str {
        "table1"
    }

    fn title(&self) -> &'static str {
        "Table I: CorrectNet summary (σ = 0.5)"
    }

    fn description(&self) -> &'static str {
        "clean/collapsed/recovered accuracy, overhead and compensated layers (paper Table I)"
    }

    fn run(&self, ctx: &Ctx) -> ExperimentReport {
        let mut report = ctx.report(self);
        report.config_num("sigma", SIGMA as f64);
        report.config_num("pipeline_seed", PIPE_SEED as f64);
        let episodes = ctx.scale.search_episodes(5);
        report.config_num("rl_episodes", episodes as f64);

        let mut rows = Vec::new();
        for pair in Pair::ALL {
            eprintln!("[table1] running {} …", pair.name());
            let cfg = pipeline_config(ctx.scale, SIGMA, PIPE_SEED);
            let stages = CorrectNetStages::new(cfg);

            // Original (plain) network: σ=0 and σ=0.5 columns.
            let (plain, data) = ctx.plain_base(pair);
            let clean = evaluate(&plain, &data.test, 64);
            let noisy = stages.evaluate(&plain, &data.test);

            // CorrectNet: Lipschitz base + RL-placed compensation.
            let (base, _) = ctx.lipschitz_base(pair, SIGMA);
            let cand_report = ctx.candidates(pair, SIGMA, &base, &data);
            let candidates = candidate_prefix(&cand_report);
            eprintln!(
                "[table1] {}: {} candidate layers",
                pair.name(),
                candidates.len()
            );
            let use_rl = matches!(pair, Pair::Vgg16Cifar100 | Pair::Vgg16Cifar10);
            let search_cfg = SearchConfig {
                episodes,
                rollouts_per_episode: 2,
                ..SearchConfig::new(0.06, 0x5ea7)
            };
            // Proxy budget during the search (fewer compensator epochs,
            // fewer MC samples, training subset); the selected plan is
            // re-trained and re-evaluated at full budget below.
            let mut proxy_cfg = cfg;
            proxy_cfg.comp_epochs = 2;
            proxy_cfg.mc_samples = 6;
            let proxy_stages = CorrectNetStages::new(proxy_cfg);
            let search_train = data.train.take(data.train.len().min(600));
            let search_test = data.test.take(data.test.len().min(200));
            let env_candidates = candidates.clone();
            let mut env = CorrectNetEnv::new(
                proxy_stages,
                &base,
                &search_train,
                &search_test,
                env_candidates,
            );
            // The LeNet pairs have a two-conv candidate structure where the
            // budget-capped uniform plan coincides with what the RL
            // converges to; running the full search there spends minutes to
            // rediscover it, so RL is reserved for the VGG pairs (as in the
            // paper's Fig. 10 discussion).
            let plan = if use_rl {
                let result = reinforce_search(&mut env, &search_cfg);
                env.plan_of(&result.best_ratios)
            } else {
                correctnet::compensation::budgeted_uniform_plan(
                    &base,
                    &candidates,
                    0.5,
                    search_cfg.reward.overhead_limit,
                )
            };
            let corrected_model = stages.build_and_train(&base, &data.train, &plan);
            let corrected = stages.evaluate(&corrected_model, &data.test);

            let row = Table1Row {
                pair: pair.name().to_string(),
                acc_clean: clean,
                acc_noisy: noisy.mean,
                acc_correctnet: corrected.mean,
                overhead: weight_overhead(&corrected_model),
                comp_layers: compensated_layer_count(&corrected_model),
            };
            let paper = pair.paper_row();
            rows.push(vec![
                row.pair.clone(),
                format!("{} / {}", pct(paper.clean), pct(row.acc_clean)),
                format!("{} / {}", pct(paper.noisy), pct(row.acc_noisy)),
                format!("{} / {}", pct(paper.corrected), pct(row.acc_correctnet)),
                format!("{} / {}", pct(paper.overhead), pct(row.overhead)),
                format!("{} / {}", paper.layers, row.comp_layers),
                format!("{:.0}%", 100.0 * row.relative_recovery()),
            ]);
            let tag = pair.tag();
            report.metric(&format!("{tag}.acc_clean"), row.acc_clean as f64);
            report.metric(&format!("{tag}.acc_noisy"), row.acc_noisy as f64);
            report.metric(&format!("{tag}.acc_correctnet"), row.acc_correctnet as f64);
            report.metric(&format!("{tag}.overhead"), row.overhead as f64);
            report.metric(&format!("{tag}.comp_layers"), row.comp_layers as f64);
            report.metric(
                &format!("{tag}.relative_recovery"),
                row.relative_recovery() as f64,
            );
        }

        report.table(
            "",
            &[
                "network-dataset",
                "clean (paper/ours)",
                "σ=0.5 (paper/ours)",
                "CorrectNet (paper/ours)",
                "overhead (paper/ours)",
                "#layers (paper/ours)",
                "recovery",
            ],
            rows,
        );
        report.note("Reproduction checks: CorrectNet recovers a large share of clean");
        report.note("accuracy at ≪10% weight overhead; deeper nets lose more at σ=0.5");
        report.note("and gain more from correction. Absolute values differ (synthetic");
        report.note("data, width-scaled VGG — docs/ARCHITECTURE.md).");
        report
    }
}
