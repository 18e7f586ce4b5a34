//! Structured experiment reports with a stable JSON schema.
//!
//! Every experiment returns an [`ExperimentReport`]; the runner stamps the
//! wall clock, renders the human-readable tables, and writes the JSON file
//! that the perf-trajectory tooling (`BENCH_*.json`) ingests.
//!
//! # Schema (version 1)
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "experiment":     "fig2",          // registry name
//!   "title":          "paper Fig. 2 — …",
//!   "scale":          "quick",         // quick | default | full
//!   "seed":           "24301",         // master seed (decimal string: u64-lossless)
//!   "wall_clock_secs": 12.8,
//!   "config":  { "<key>": <number|string>, … },
//!   "metrics": { "<key>": <number>, … },
//!   "series":  [ { "label": "…", "points": [ {"x":0.0,"mean":0.99,"std":0.0}, … ] }, … ],
//!   "tables":  [ { "title": "…", "headers": […], "rows": [[…], …] }, … ],
//!   "notes":   [ "reproduction check …", … ]
//! }
//! ```
//!
//! `config` holds the resolved knobs of the run, `metrics` flat headline
//! scalars (`<pair>.<metric>` style keys), `series` the plottable curves
//! (x is σ, a layer index or an overhead fraction depending on the
//! experiment) and `tables` the exact human-readable tables also printed
//! to stdout. [`ExperimentReport::from_json`] round-trips everything, so
//! downstream consumers can rely on the schema staying parseable.

use correctnet::export::json::Json;
use correctnet::report::render_table;

/// Version stamp written into every report.
pub const SCHEMA_VERSION: u32 = 1;

/// One point of a plottable series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Abscissa (σ, layer index or overhead fraction).
    pub x: f64,
    /// Mean accuracy (fraction, not percent).
    pub mean: f64,
    /// Accuracy standard deviation.
    pub std: f64,
}

/// A labelled curve (e.g. one network–dataset pair).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Display label, `<pair>` or `<pair>/<variant>`.
    pub label: String,
    /// The curve's points.
    pub points: Vec<SeriesPoint>,
}

/// A rendered table: headers plus stringly rows.
#[derive(Debug, Clone, PartialEq)]
pub struct TableBlock {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (each row has the header arity).
    pub rows: Vec<Vec<String>>,
}

/// Structured outcome of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Registry name (`fig2`, `table1`, …).
    pub experiment: String,
    /// Human-readable title (which paper artifact this regenerates).
    pub title: String,
    /// Scale profile name the run used.
    pub scale: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Wall-clock duration, stamped by the runner.
    pub wall_clock_secs: f64,
    /// Resolved configuration knobs (ordered).
    pub config: Vec<(String, Json)>,
    /// Flat headline scalars (ordered).
    pub metrics: Vec<(String, f64)>,
    /// Plottable curves.
    pub series: Vec<Series>,
    /// Human-readable tables (also printed to stdout).
    pub tables: Vec<TableBlock>,
    /// Reproduction checks / caveats.
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Empty report skeleton for an experiment run.
    pub fn new(experiment: &str, title: &str, scale: &str, seed: u64) -> ExperimentReport {
        ExperimentReport {
            experiment: experiment.to_string(),
            title: title.to_string(),
            scale: scale.to_string(),
            seed,
            wall_clock_secs: 0.0,
            config: Vec::new(),
            metrics: Vec::new(),
            series: Vec::new(),
            tables: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records a numeric configuration knob.
    pub fn config_num(&mut self, key: &str, value: impl Into<f64>) {
        self.config.push((key.to_string(), Json::num(value.into())));
    }

    /// Records a string configuration knob.
    pub fn config_str(&mut self, key: &str, value: impl Into<String>) {
        self.config.push((key.to_string(), Json::str(value.into())));
    }

    /// Records a headline scalar.
    pub fn metric(&mut self, key: &str, value: impl Into<f64>) {
        self.metrics.push((key.to_string(), value.into()));
    }

    /// Records a table (the runner prints it and the JSON embeds it).
    pub fn table(&mut self, title: &str, headers: &[&str], rows: Vec<Vec<String>>) {
        self.tables.push(TableBlock {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows,
        });
    }

    /// Records a reproduction-check note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Serializes to the schema-version-1 JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::num(SCHEMA_VERSION as f64)),
            ("experiment", Json::str(self.experiment.clone())),
            ("title", Json::str(self.title.clone())),
            ("scale", Json::str(self.scale.clone())),
            // Decimal string, not a number: JSON numbers are f64 and would
            // silently corrupt seeds above 2^53.
            ("seed", Json::str(self.seed.to_string())),
            ("wall_clock_secs", Json::num(self.wall_clock_secs)),
            ("config", Json::Obj(self.config.clone())),
            (
                "metrics",
                Json::obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::num(*v)))
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "series",
                Json::arr(self.series.iter().map(|s| {
                    Json::obj([
                        ("label", Json::str(s.label.clone())),
                        (
                            "points",
                            Json::arr(s.points.iter().map(|p| {
                                Json::obj([
                                    ("x", Json::num(p.x)),
                                    ("mean", Json::num(p.mean)),
                                    ("std", Json::num(p.std)),
                                ])
                            })),
                        ),
                    ])
                })),
            ),
            (
                "tables",
                Json::arr(self.tables.iter().map(|t| {
                    Json::obj([
                        ("title", Json::str(t.title.clone())),
                        (
                            "headers",
                            Json::arr(t.headers.iter().map(|h| Json::str(h.clone()))),
                        ),
                        (
                            "rows",
                            Json::arr(
                                t.rows
                                    .iter()
                                    .map(|row| Json::arr(row.iter().map(|c| Json::str(c.clone())))),
                            ),
                        ),
                    ])
                })),
            ),
            (
                "notes",
                Json::arr(self.notes.iter().map(|n| Json::str(n.clone()))),
            ),
        ])
    }

    /// Parses a schema-version-1 JSON document back into a report.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<ExperimentReport, String> {
        let version = json
            .get("schema_version")
            .and_then(Json::as_f64)
            .ok_or("missing schema_version")?;
        if version as u32 != SCHEMA_VERSION {
            return Err(format!("unsupported schema_version {version}"));
        }
        let get_str = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string field `{key}`"))
        };
        let get_num = |key: &str| -> Result<f64, String> {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("missing numeric field `{key}`"))
        };
        let series = json
            .get("series")
            .and_then(Json::as_arr)
            .ok_or("missing `series`")?
            .iter()
            .map(|s| {
                let label = s
                    .get("label")
                    .and_then(Json::as_str)
                    .ok_or("series without label")?
                    .to_string();
                let points = s
                    .get("points")
                    .and_then(Json::as_arr)
                    .ok_or("series without points")?
                    .iter()
                    .map(|p| {
                        Ok(SeriesPoint {
                            x: p.get("x").and_then(Json::as_f64).ok_or("point without x")?,
                            mean: p
                                .get("mean")
                                .and_then(Json::as_f64)
                                .ok_or("point without mean")?,
                            std: p
                                .get("std")
                                .and_then(Json::as_f64)
                                .ok_or("point without std")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Series { label, points })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let tables = json
            .get("tables")
            .and_then(Json::as_arr)
            .ok_or("missing `tables`")?
            .iter()
            .map(|t| {
                let title = t
                    .get("title")
                    .and_then(Json::as_str)
                    .ok_or("table without title")?
                    .to_string();
                let headers = t
                    .get("headers")
                    .and_then(Json::as_arr)
                    .ok_or("table without headers")?
                    .iter()
                    .map(|h| h.as_str().map(str::to_string).ok_or("non-string header"))
                    .collect::<Result<Vec<_>, _>>()?;
                let rows = t
                    .get("rows")
                    .and_then(Json::as_arr)
                    .ok_or("table without rows")?
                    .iter()
                    .map(|row| {
                        row.as_arr()
                            .ok_or("non-array row")?
                            .iter()
                            .map(|c| c.as_str().map(str::to_string).ok_or("non-string cell"))
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if rows.iter().any(|r| r.len() != headers.len()) {
                    return Err(format!("table `{title}` has rows of mismatched arity"));
                }
                Ok(TableBlock {
                    title,
                    headers,
                    rows,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ExperimentReport {
            experiment: get_str("experiment")?,
            title: get_str("title")?,
            scale: get_str("scale")?,
            seed: json
                .get("seed")
                .and_then(Json::as_str)
                .and_then(|s| s.parse().ok())
                .ok_or("missing or non-string `seed`")?,
            wall_clock_secs: get_num("wall_clock_secs")?,
            config: json
                .get("config")
                .and_then(Json::as_obj)
                .ok_or("missing `config`")?
                .to_vec(),
            metrics: json
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("missing `metrics`")?
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|x| (k.clone(), x))
                        .ok_or(format!("non-numeric metric `{k}`"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            series,
            tables,
            notes: json
                .get("notes")
                .and_then(Json::as_arr)
                .ok_or("missing `notes`")?
                .iter()
                .map(|n| n.as_str().map(str::to_string).ok_or("non-string note"))
                .collect::<Result<Vec<_>, _>>()?,
        })
    }

    /// Renders the human-readable text output (title, tables, notes).
    pub fn render_text(&self) -> String {
        let mut out = format!("== {} ==\n", self.title);
        out.push_str(&format!(
            "experiment: {}  scale: {}  seed: {:#x}\n\n",
            self.experiment, self.scale, self.seed
        ));
        for table in &self.tables {
            if !table.title.is_empty() {
                out.push_str(&format!("--- {} ---\n", table.title));
            }
            let headers: Vec<&str> = table.headers.iter().map(String::as_str).collect();
            out.push_str(&render_table(&headers, &table.rows));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentReport {
        let mut r = ExperimentReport::new("fig2", "paper Fig. 2", "quick", 0x5eed);
        r.wall_clock_secs = 1.25;
        r.config_num("mc_samples", 12.0);
        r.config_str("pairs", "all");
        r.metric("lenet_mnist.clean", 0.98);
        r.series.push(Series {
            label: "LeNet-5-MNIST".into(),
            points: vec![
                SeriesPoint {
                    x: 0.0,
                    mean: 0.98,
                    std: 0.0,
                },
                SeriesPoint {
                    x: 0.5,
                    mean: 0.41,
                    std: 0.08,
                },
            ],
        });
        r.table(
            "LeNet-5-MNIST",
            &["sigma", "accuracy"],
            vec![vec!["0.0".into(), "98.0%".into()]],
        );
        r.note("monotone degradation with sigma");
        r
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let report = sample();
        let text = report.to_json().render_pretty();
        let back = ExperimentReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn huge_seeds_roundtrip_losslessly() {
        let mut report = sample();
        report.seed = u64::MAX;
        let json = Json::parse(&report.to_json().render()).unwrap();
        let back = ExperimentReport::from_json(&json).unwrap();
        assert_eq!(back.seed, u64::MAX);
    }

    #[test]
    fn schema_version_is_checked() {
        let mut json = sample().to_json();
        if let Json::Obj(members) = &mut json {
            members[0].1 = Json::num(99.0);
        }
        assert!(ExperimentReport::from_json(&json)
            .unwrap_err()
            .contains("schema_version"));
    }

    #[test]
    fn mismatched_table_arity_is_rejected() {
        let mut report = sample();
        report.tables[0].rows.push(vec!["only-one".into()]);
        let json = report.to_json();
        assert!(ExperimentReport::from_json(&json)
            .unwrap_err()
            .contains("arity"));
    }

    #[test]
    fn render_text_contains_tables_and_notes() {
        let text = sample().render_text();
        assert!(text.contains("paper Fig. 2"));
        assert!(text.contains("| sigma"));
        assert!(text.contains("monotone degradation"));
    }
}
