//! **Paper Fig. 2**: inference-accuracy degradation of the *uncorrected*
//! networks as weight variation σ grows from 0 to 0.5 (mean ± std over
//! Monte-Carlo deployment samples, four network–dataset pairs).

use super::{Ctx, Experiment};
use crate::profile::Pair;
use crate::report::{ExperimentReport, Series, SeriesPoint};
use cn_analog::engine::{monte_carlo, AnalogBackend, McConfig};
use correctnet::report::{pct, pct_pm};

/// Fig. 2 regenerator.
pub struct Fig2;

const MC_SEED: u64 = 0xf162;

impl Experiment for Fig2 {
    fn name(&self) -> &'static str {
        "fig2"
    }

    fn title(&self) -> &'static str {
        "Fig. 2: accuracy degradation of uncorrected networks"
    }

    fn description(&self) -> &'static str {
        "accuracy collapse of plainly trained networks across sigma (paper Fig. 2)"
    }

    fn run(&self, ctx: &Ctx) -> ExperimentReport {
        let sigmas = [0.0f32, 0.1, 0.2, 0.3, 0.4, 0.5];
        let mut report = ctx.report(self);
        report.config_str(
            "sigmas",
            sigmas
                .iter()
                .map(|s| format!("{s:.1}"))
                .collect::<Vec<_>>()
                .join(","),
        );
        report.config_num("mc_seed", MC_SEED as f64);

        for pair in Pair::ALL {
            eprintln!("[fig2] running {} …", pair.name());
            let (model, data) = ctx.plain_base(pair);
            let mut rows = Vec::new();
            let mut points = Vec::new();
            for (i, &sigma) in sigmas.iter().enumerate() {
                let mc = McConfig {
                    samples: if sigma == 0.0 {
                        1
                    } else {
                        ctx.scale.mc_samples()
                    },
                    sigma,
                    batch_size: 64,
                    seed: MC_SEED + i as u64,
                };
                let r = monte_carlo(&model, &data.test, &mc, &AnalogBackend::lognormal(sigma));
                rows.push(vec![format!("{sigma:.1}"), pct_pm(r.mean, r.std)]);
                points.push(SeriesPoint {
                    x: sigma as f64,
                    mean: r.mean as f64,
                    std: r.std as f64,
                });
                if sigma == 0.0 {
                    report.metric(&format!("{}.clean", pair.tag()), r.mean as f64);
                } else if sigma == 0.5 {
                    report.metric(&format!("{}.noisy_s05", pair.tag()), r.mean as f64);
                }
            }
            report.series.push(Series {
                label: pair.name().to_string(),
                points,
            });
            report.table(pair.name(), &["sigma", "accuracy (mean ± std)"], rows);
            let paper = pair.paper_row();
            report.note(format!(
                "{}: paper shape {} at σ=0 degrading to {} at σ=0.5; deeper nets degrade harder.",
                pair.name(),
                pct(paper.clean),
                pct(paper.noisy)
            ));
        }
        report.note("Reproduction checks: (1) monotone degradation with σ;");
        report.note("(2) VGG16 (deeper) collapses harder than LeNet-5 at σ=0.5.");
        report
    }
}
