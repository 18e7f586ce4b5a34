//! Seeded random sampling.
//!
//! The paper's variation model (eq. 1–2) multiplies every weight by
//! `e^θ, θ ~ N(0, σ²)` — a log-normal factor. Uniform bits come from an
//! in-tree xoshiro256** generator seeded through splitmix64, and normal
//! variates from the Box–Muller transform on top of it. All stochastic
//! components of the workspace draw from [`SeededRng`] so that every
//! experiment is reproducible from its seed.

use crate::tensor::Tensor;

/// The xoshiro256** generator under [`SeededRng`], its 256-bit state
/// expanded from a 64-bit seed by splitmix64 as its authors recommend.
#[derive(Debug, Clone)]
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    fn from_seed(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64(z)
        };
        Xoshiro256 {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` from the top 24 bits (a full f32 mantissa).
    fn next_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform in `[0, n)` by Lemire's multiply-shift (negligible bias
    /// for the small `n` used here).
    fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// A deterministic random number generator with the sampling primitives the
/// workspace needs (uniform, normal, log-normal, permutations, tensor fills).
///
/// # Example
///
/// ```
/// use cn_tensor::SeededRng;
///
/// let mut a = SeededRng::new(42);
/// let mut b = SeededRng::new(42);
/// assert_eq!(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
/// ```
#[derive(Debug)]
pub struct SeededRng {
    inner: Xoshiro256,
    /// Cached second Box–Muller variate.
    spare: Option<f32>,
}

impl SeededRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SeededRng {
            inner: Xoshiro256::from_seed(seed),
            spare: None,
        }
    }

    /// Derives an independent child generator; `stream` distinguishes
    /// multiple children of the same parent seed.
    pub fn fork(&mut self, stream: u64) -> SeededRng {
        let base = self.inner.next_u64();
        SeededRng::new(derive_stream_seed(base, stream))
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        self.inner.next_f32()
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "uniform_range requires lo < hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires n > 0");
        self.inner.below(n)
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f32 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Draw u1 in (0, 1] to keep ln(u1) finite.
        let mut u1 = self.inner.next_f32();
        if u1 <= f32::MIN_POSITIVE {
            u1 = f32::MIN_POSITIVE;
        }
        let u2 = self.inner.next_f32();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f32, std_dev: f32) -> f32 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.standard_normal()
    }

    /// Log-normal sample `e^θ` with `θ ~ N(mu, sigma²)` — the paper's
    /// multiplicative variation factor when `mu = 0`.
    pub fn lognormal(&mut self, mu: f32, sigma: f32) -> f32 {
        self.normal(mu, sigma).exp()
    }

    /// Bernoulli sample with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn bernoulli(&mut self, p: f32) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.uniform() < p
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.index(i + 1);
            perm.swap(i, j);
        }
        perm
    }

    /// Tensor of i.i.d. uniform samples in `[lo, hi)`.
    pub fn uniform_tensor(&mut self, dims: &[usize], lo: f32, hi: f32) -> Tensor {
        let mut t = Tensor::zeros(dims);
        for x in t.data_mut() {
            *x = self.uniform_range(lo, hi);
        }
        t
    }

    /// Tensor of i.i.d. normal samples.
    pub fn normal_tensor(&mut self, dims: &[usize], mean: f32, std_dev: f32) -> Tensor {
        let mut t = Tensor::zeros(dims);
        for x in t.data_mut() {
            *x = self.normal(mean, std_dev);
        }
        t
    }

    /// Tensor of i.i.d. log-normal factors `e^θ`, `θ ~ N(0, sigma²)` —
    /// one multiplicative variation mask in the sense of paper eq. (1)–(2).
    pub fn lognormal_mask(&mut self, dims: &[usize], sigma: f32) -> Tensor {
        let mut t = Tensor::zeros(dims);
        for x in t.data_mut() {
            *x = self.lognormal(0.0, sigma);
        }
        t
    }
}

/// The splitmix64 output/finalization function: two multiply-xorshift
/// rounds with full avalanche (every input bit flips every output bit
/// with probability ≈ 1/2).
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a parent draw and a stream id onto a child seed.
///
/// Both words go through a full splitmix64 finalization *before* they are
/// combined: `stream · φ64` is the splitmix64 state at index `stream`, so
/// finalizing it yields the sequence's `stream`-th output, and the result
/// is folded into `base` and finalized again. The previous derivation
/// combined the raw multiplied counter directly — `finalize(base ^
/// stream · φ64)` — so pairs like `(base, 1)` and `(base ^ φ64, 0)`
/// collapsed onto the same child seed (the Dropout/Trainer bug family).
fn derive_stream_seed(base: u64, stream: u64) -> u64 {
    let stream_word = splitmix64(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(base.wrapping_add(stream_word))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed() {
        let mut a = SeededRng::new(7);
        let mut b = SeededRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn forked_streams_are_deterministic_and_distinct() {
        let mut parent1 = SeededRng::new(5);
        let mut parent2 = SeededRng::new(5);
        let mut c1 = parent1.fork(0);
        let mut c2 = parent2.fork(0);
        assert_eq!(c1.uniform(), c2.uniform());

        let mut parent = SeededRng::new(5);
        let mut a = parent.fork(0);
        let mut b = parent.fork(1);
        assert_ne!(a.uniform(), b.uniform());
    }

    /// Regression: the old derivation `finalize(base ^ stream · φ64)`
    /// XOR-combined the raw multiplied counter with the parent draw, so
    /// related `(base, stream)` pairs cancelled exactly — `(base, s)` and
    /// `(base ^ s · φ64, 0)` produced the *same* child seed. Finalizing
    /// each word before combining must keep every such pair distinct.
    #[test]
    fn stream_mix_resists_xor_cancellation() {
        const PHI64: u64 = 0x9E37_79B9_7F4A_7C15;
        for base in [0u64, 1, 0xDEAD_BEEF, u64::MAX, 0x0123_4567_89AB_CDEF] {
            for s in 1..8u64 {
                let a = derive_stream_seed(base, s);
                let b = derive_stream_seed(base ^ s.wrapping_mul(PHI64), 0);
                assert_ne!(a, b, "base {base:#x} stream {s}");
            }
        }
    }

    /// Adjacent `(seed, stream)` pairs must all yield distinct child
    /// streams — a grid of small seeds and stream ids may not collide on
    /// their first draws.
    #[test]
    fn adjacent_seed_stream_pairs_do_not_collide() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for seed in 0..16u64 {
            for stream in 0..16u64 {
                let mut child = SeededRng::new(seed).fork(stream);
                let fingerprint = (child.uniform().to_bits(), child.uniform().to_bits());
                assert!(
                    seen.insert(fingerprint),
                    "fork collision at seed {seed}, stream {stream}"
                );
            }
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = SeededRng::new(42);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.4, "var {var}");
    }

    #[test]
    fn lognormal_moments_match_theory() {
        // E[e^θ] = e^{σ²/2}, Var[e^θ] = (e^{σ²}-1)e^{σ²} for θ~N(0,σ²).
        let sigma = 0.5f32;
        let mut rng = SeededRng::new(9);
        let n = 40_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.lognormal(0.0, sigma)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        let exp_mean = (sigma * sigma / 2.0).exp();
        let exp_var = ((sigma * sigma).exp() - 1.0) * (sigma * sigma).exp();
        assert!((mean - exp_mean).abs() < 0.02, "mean {mean} vs {exp_mean}");
        assert!((var - exp_var).abs() < 0.05, "var {var} vs {exp_var}");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = SeededRng::new(3);
        for _ in 0..1000 {
            assert!(rng.lognormal(0.0, 1.0) > 0.0);
        }
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = SeededRng::new(11);
        let p = rng.permutation(257);
        let mut seen = vec![false; 257];
        for &i in &p {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_range_bounds() {
        let mut rng = SeededRng::new(21);
        for _ in 0..1000 {
            let x = rng.uniform_range(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn bernoulli_rate() {
        let mut rng = SeededRng::new(17);
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.3)).count();
        assert!((hits as f32 / 10_000.0 - 0.3).abs() < 0.02);
    }

    #[test]
    fn mask_tensor_shape() {
        let mut rng = SeededRng::new(1);
        let m = rng.lognormal_mask(&[4, 5], 0.5);
        assert_eq!(m.dims(), &[4, 5]);
        assert!(m.data().iter().all(|&x| x > 0.0));
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut rng = SeededRng::new(1);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&rng.uniform()));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = SeededRng::new(2);
        for n in [1, 2, 3, 17, 1000] {
            for _ in 0..2_000 {
                assert!(rng.index(n) < n);
            }
        }
    }

    // Golden streams: the first outputs of `SeededRng::new(42)`. Every
    // seeded experiment, the model cache and the benchmark's output
    // checks depend on these exact bits.

    #[test]
    fn golden_uniform_stream() {
        let mut rng = SeededRng::new(42);
        let bits: Vec<u32> = (0..4).map(|_| rng.uniform().to_bits()).collect();
        assert_eq!(bits, [1034666072, 1052903858, 1059985235, 1064089773]);
    }

    #[test]
    fn golden_index_stream() {
        let mut rng = SeededRng::new(42);
        let picks: Vec<usize> = (0..6).map(|_| rng.index(1000)).collect();
        assert_eq!(picks, [83, 378, 680, 924, 991, 769]);
    }

    #[test]
    fn golden_normal_stream() {
        let mut rng = SeededRng::new(42);
        let bits: Vec<u32> = (0..4).map(|_| rng.normal(0.0, 1.0).to_bits()).collect();
        assert_eq!(bits, [3217980955, 1069836823, 1061690616, 3201099307]);
    }

    #[test]
    fn golden_fork_stream() {
        let mut child = SeededRng::new(42).fork(7);
        let bits: Vec<u32> = (0..3).map(|_| child.uniform().to_bits()).collect();
        assert_eq!(bits, [1055710866, 1035724960, 1059261556]);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn bad_uniform_range_panics() {
        SeededRng::new(0).uniform_range(1.0, 1.0);
    }
}
