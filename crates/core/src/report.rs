//! Experiment report structures and plain-text table rendering.
//!
//! The benchmark binaries print paper-vs-measured tables through these
//! helpers so every figure/table regenerator has a uniform, diff-friendly
//! output format (recorded in `EXPERIMENTS.md`).

/// One row of a Table-I-style summary.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// `network-dataset` label.
    pub pair: String,
    /// Clean accuracy (σ = 0).
    pub acc_clean: f32,
    /// Uncorrected accuracy at the experiment σ.
    pub acc_noisy: f32,
    /// CorrectNet accuracy at the experiment σ.
    pub acc_correctnet: f32,
    /// Weight overhead of compensation.
    pub overhead: f32,
    /// Number of compensated layers.
    pub comp_layers: usize,
}

impl Table1Row {
    /// CorrectNet accuracy relative to clean accuracy (the paper's
    /// ">95 % of original accuracy" criterion).
    pub fn relative_recovery(&self) -> f32 {
        if self.acc_clean == 0.0 {
            0.0
        } else {
            self.acc_correctnet / self.acc_clean
        }
    }
}

/// One point of an accuracy-vs-σ sweep (Figs. 2 and 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SigmaPoint {
    /// Variation level.
    pub sigma: f32,
    /// Mean accuracy.
    pub mean: f32,
    /// Accuracy standard deviation.
    pub std: f32,
}

/// One point of an accuracy-vs-overhead trade-off (Figs. 8 and 10).
#[derive(Debug, Clone)]
pub struct TradeoffPoint {
    /// Method or plan label.
    pub label: String,
    /// Weight overhead.
    pub overhead: f32,
    /// Mean accuracy at the experiment σ.
    pub mean: f32,
    /// Accuracy standard deviation.
    pub std: f32,
}

/// Renders rows as a fixed-width text table.
///
/// `headers` names the columns; each row must have the same arity.
///
/// # Panics
///
/// Panics if any row's arity differs from the header's.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths.iter()) {
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(
        headers.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{:-<width$}|", "", width = w + 2));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
    }
    out
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f32) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats `mean ± std` percentages.
pub fn pct_pm(mean: f32, std: f32) -> String {
    format!("{:.1}% ± {:.1}", 100.0 * mean, 100.0 * std)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_recovery() {
        let row = Table1Row {
            pair: "x".into(),
            acc_clean: 0.8,
            acc_noisy: 0.1,
            acc_correctnet: 0.76,
            overhead: 0.01,
            comp_layers: 2,
        };
        assert!((row.relative_recovery() - 0.95).abs() < 1e-6);
    }

    #[test]
    fn table_rendering_aligns() {
        let s = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(s.contains("long-name"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn bad_arity_panics() {
        render_table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(pct(0.6701), "67.0%");
        assert_eq!(pct_pm(0.5, 0.012), "50.0% ± 1.2");
    }
}
