//! **Extension ablation** (not a paper figure): does the paper's
//! weight-level log-normal model (eq. 1–2) agree with a device-level
//! crossbar simulation? Compares accuracy under weight-level log-normal
//! variation, conductance-level programming variation on differential
//! pairs (optionally quantized to 32 levels), and log-normal combined with
//! stuck-at faults, retention drift and static IR-drop attenuation —
//! validating the substitution argument of docs/ARCHITECTURE.md and probing the
//! non-idealities the paper leaves to future work.

use super::{Ctx, Experiment};
use crate::profile::Pair;
use crate::report::{ExperimentReport, Series, SeriesPoint};
use cn_analog::cell::CellSpec;
use cn_analog::deployment::DeploymentMode;
use cn_analog::drift::ConductanceDrift;
use cn_analog::engine::{monte_carlo, AnalogBackend, McConfig};
use cn_analog::faults::StuckFaults;
use cn_analog::irdrop::IrDrop;
use correctnet::report::pct_pm;

/// Device-model ablation regenerator.
pub struct AblationDevice;

const MC_SEED: u64 = 0xab1a;

impl Experiment for AblationDevice {
    fn name(&self) -> &'static str {
        "ablation_device"
    }

    fn title(&self) -> &'static str {
        "Ablation: weight-level vs device-level variation models"
    }

    fn description(&self) -> &'static str {
        "weight-level log-normal vs conductance/fault/drift/IR-drop models (extension)"
    }

    fn run(&self, ctx: &Ctx) -> ExperimentReport {
        let mut report = ctx.report(self);
        report.config_num("mc_seed", MC_SEED as f64);
        report.config_str("pair", Pair::LeNet5Mnist.name());

        let (model, data) = ctx.plain_base(Pair::LeNet5Mnist);
        let mut rows = Vec::new();
        let mut curves: Vec<(String, Vec<SeriesPoint>)> = Vec::new();
        for sigma in [0.1f32, 0.3, 0.5] {
            let mc = McConfig::new(ctx.scale.mc_samples(), sigma, MC_SEED);
            let modes: [(&str, DeploymentMode); 6] = [
                (
                    "weight log-normal (paper)",
                    DeploymentMode::WeightLognormal { sigma },
                ),
                (
                    "conductance pairs",
                    DeploymentMode::Conductance {
                        spec: CellSpec {
                            prog_sigma: sigma,
                            ..CellSpec::ideal(1.0, 100.0)
                        },
                        tile_size: 128,
                    },
                ),
                (
                    "conductance + 32 levels",
                    DeploymentMode::Conductance {
                        spec: CellSpec {
                            prog_sigma: sigma,
                            levels: Some(32),
                            ..CellSpec::ideal(1.0, 100.0)
                        },
                        tile_size: 128,
                    },
                ),
                (
                    "log-normal + 2% stuck-at-0",
                    DeploymentMode::LognormalWithFaults {
                        sigma,
                        faults: StuckFaults::new(0.02, 0.0, 0.0),
                    },
                ),
                (
                    "log-normal + drift (t=1000·t0)",
                    DeploymentMode::LognormalWithDrift {
                        sigma,
                        drift: ConductanceDrift::new(0.02, 0.005, 1.0),
                        t: 1000.0,
                    },
                ),
                (
                    "log-normal + IR drop (α=0.15)",
                    DeploymentMode::LognormalWithIrDrop {
                        sigma,
                        irdrop: IrDrop::new(0.15),
                    },
                ),
            ];
            for (label, mode) in modes {
                let r = monte_carlo(&model, &data.test, &mc, &AnalogBackend::new(mode));
                rows.push(vec![
                    format!("{sigma:.1}"),
                    label.to_string(),
                    pct_pm(r.mean, r.std),
                ]);
                let point = SeriesPoint {
                    x: sigma as f64,
                    mean: r.mean as f64,
                    std: r.std as f64,
                };
                match curves.iter_mut().find(|(l, _)| l == label) {
                    Some((_, points)) => points.push(point),
                    None => curves.push((label.to_string(), vec![point])),
                }
            }
        }
        for (label, points) in curves {
            report.series.push(Series { label, points });
        }
        report.table("", &["sigma", "variation model", "accuracy"], rows);
        report.note("Check: the models agree to a few accuracy points at each σ,");
        report.note("so conclusions drawn with the paper's weight-level model carry");
        report.note("over to the device-level substrate.");
        report
    }
}
