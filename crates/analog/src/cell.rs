//! RRAM cell electrical model.

use cn_tensor::SeededRng;

/// Electrical specification of one RRAM cell and its non-idealities.
///
/// Conductances are expressed in microsiemens (µS). Programming applies a
/// log-normal multiplicative error (process variation, paper Sec. II); an
/// optional finite number of conductance levels models multi-level-cell
/// quantization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Minimum (high-resistance-state) conductance, µS.
    pub g_min: f32,
    /// Maximum (low-resistance-state) conductance, µS.
    pub g_max: f32,
    /// σ of the log-normal programming error (0 = ideal write).
    pub prog_sigma: f32,
    /// Number of programmable levels (`None` = continuous; at least 2 when
    /// set).
    pub levels: Option<u32>,
}

impl CellSpec {
    /// An ideal cell: no variation, continuous levels.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ g_min < g_max`.
    pub fn ideal(g_min: f32, g_max: f32) -> Self {
        assert!(
            0.0 <= g_min && g_min < g_max,
            "need 0 <= g_min < g_max, got {g_min}..{g_max}"
        );
        CellSpec {
            g_min,
            g_max,
            prog_sigma: 0.0,
            levels: None,
        }
    }

    /// A typical RRAM corner used in the literature: 100× on/off ratio and
    /// moderate write variation.
    pub fn typical(prog_sigma: f32) -> Self {
        CellSpec {
            prog_sigma,
            ..CellSpec::ideal(1.0, 100.0)
        }
    }

    /// Conductance dynamic range `g_max − g_min`.
    pub fn range(&self) -> f32 {
        self.g_max - self.g_min
    }

    /// Quantizes a target conductance to the nearest programmable level.
    pub fn quantize(&self, g: f32) -> f32 {
        match self.levels {
            Some(levels) if levels >= 2 => {
                let step = self.range() / (levels - 1) as f32;
                let k = ((g - self.g_min) / step).round();
                (self.g_min + k * step).clamp(self.g_min, self.g_max)
            }
            _ => g.clamp(self.g_min, self.g_max),
        }
    }

    /// Programs a cell toward `g_target`: quantize, then apply log-normal
    /// write error, then clamp back into the physical range.
    pub fn program(&self, g_target: f32, rng: &mut SeededRng) -> f32 {
        let ideal = self.quantize(g_target);
        if self.prog_sigma == 0.0 {
            return ideal;
        }
        (ideal * rng.lognormal(0.0, self.prog_sigma)).clamp(self.g_min, self.g_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_program_is_exact() {
        let spec = CellSpec::ideal(1.0, 100.0);
        let mut rng = SeededRng::new(1);
        assert_eq!(spec.program(42.0, &mut rng), 42.0);
    }

    #[test]
    fn program_clamps_to_range() {
        let spec = CellSpec::ideal(1.0, 100.0);
        let mut rng = SeededRng::new(2);
        assert_eq!(spec.program(1000.0, &mut rng), 100.0);
        assert_eq!(spec.program(0.0, &mut rng), 1.0);
    }

    #[test]
    fn quantization_levels() {
        let spec = CellSpec {
            levels: Some(5), // steps of 24.75 over 1..100
            ..CellSpec::ideal(1.0, 100.0)
        };
        let step = 99.0 / 4.0;
        assert_eq!(spec.quantize(1.0), 1.0);
        assert_eq!(spec.quantize(100.0), 100.0);
        let q = spec.quantize(30.0);
        assert!((q - (1.0 + step)).abs() < 1e-4, "{q}");
    }

    #[test]
    fn programming_variation_is_lognormal_ish() {
        let spec = CellSpec::typical(0.2);
        let mut rng = SeededRng::new(3);
        let samples: Vec<f32> = (0..5000).map(|_| spec.program(50.0, &mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / samples.len() as f32;
        // E[g·e^θ] = 50·e^{0.02} ≈ 51.
        assert!((mean - 51.0).abs() < 1.0, "mean {mean}");
        assert!(samples.iter().all(|&g| (1.0..=100.0).contains(&g)));
    }

    #[test]
    #[should_panic(expected = "g_min < g_max")]
    fn bad_range_panics() {
        CellSpec::ideal(10.0, 1.0);
    }
}
