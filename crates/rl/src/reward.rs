//! The reward function of paper eq. (12).

/// Reward specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardSpec {
    /// Maximum admissible weight overhead (paper: 1 %, 2 %, 3 %).
    pub overhead_limit: f32,
}

impl RewardSpec {
    /// Creates the spec.
    ///
    /// # Panics
    ///
    /// Panics on negative limits.
    pub fn new(overhead_limit: f32) -> Self {
        assert!(overhead_limit >= 0.0, "overhead limit must be non-negative");
        RewardSpec { overhead_limit }
    }

    /// Paper eq. (12): `acc_avg − acc_std − overhead` when the overhead
    /// budget holds, `−overhead` otherwise.
    pub fn reward(&self, acc_mean: f32, acc_std: f32, overhead: f32) -> f32 {
        if overhead <= self.overhead_limit {
            acc_mean - acc_std - overhead
        } else {
            -overhead
        }
    }

    /// Whether an evaluation is even needed: plans over budget are scored
    /// `−overhead` directly, "so that the training of neural networks …
    /// can be skipped to make the agent learn fast" (paper Sec. III-B).
    pub fn over_budget(&self, overhead: f32) -> bool {
        overhead > self.overhead_limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_budget_reward() {
        let spec = RewardSpec::new(0.02);
        let r = spec.reward(0.8, 0.05, 0.01);
        assert!((r - (0.8 - 0.05 - 0.01)).abs() < 1e-6);
        assert!(!spec.over_budget(0.01));
    }

    #[test]
    fn over_budget_is_penalized_regardless_of_accuracy() {
        let spec = RewardSpec::new(0.02);
        assert_eq!(spec.reward(0.99, 0.0, 0.05), -0.05);
        assert!(spec.over_budget(0.05));
    }

    #[test]
    fn boundary_is_inclusive() {
        let spec = RewardSpec::new(0.02);
        assert!(!spec.over_budget(0.02));
        assert!(spec.reward(0.5, 0.0, 0.02) > 0.0);
    }

    #[test]
    fn higher_std_lowers_reward() {
        let spec = RewardSpec::new(0.1);
        assert!(spec.reward(0.7, 0.01, 0.01) > spec.reward(0.7, 0.1, 0.01));
    }
}
