//! Deterministic network jitter models.
//!
//! Commodity networks suffer latency jitter that hyperclusters do not
//! (paper Observation 3). Varuna explicitly profiles jitter and feeds it to
//! its simulator; we model jitter as a seeded lognormal (heavy right tail,
//! matching measured datacenter RTT distributions) so that every experiment
//! is exactly reproducible.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

use crate::units::Seconds;

/// A jitter distribution added on top of a link's base latency.
///
/// `mean` is the mean extra delay in seconds and `sigma` the lognormal shape
/// parameter; `sigma == 0` collapses to a deterministic `mean` offset, and a
/// zero `mean` disables jitter entirely (hypercluster links).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JitterModel {
    /// Mean additional delay in seconds.
    pub mean: Seconds,
    /// Lognormal shape parameter (0 = deterministic).
    pub sigma: f64,
}

impl JitterModel {
    /// A jitter-free model, used for NVLink and InfiniBand fabrics.
    pub const NONE: JitterModel = JitterModel {
        mean: 0.0,
        sigma: 0.0,
    };

    /// Creates a jitter model with the given mean delay and shape.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is negative or `sigma` is negative, which would not
    /// describe a delay distribution.
    pub fn new(mean: Seconds, sigma: f64) -> Self {
        assert!(mean >= 0.0, "jitter mean must be non-negative");
        assert!(sigma >= 0.0, "jitter sigma must be non-negative");
        JitterModel { mean, sigma }
    }

    /// Returns true if this model never adds delay.
    pub fn is_none(&self) -> bool {
        self.mean == 0.0
    }

    /// Creates a deterministic sampler for this model from a seed.
    pub fn sampler(&self, seed: u64) -> JitterSampler {
        JitterSampler::new(*self, seed)
    }

    /// The mean of the distribution (useful for jitter-agnostic estimates).
    pub fn mean_delay(&self) -> Seconds {
        self.mean
    }
}

/// Draws one jitter value from `model` using an external RNG.
///
/// Useful for simulators that own a single RNG and sample jitter for many
/// different links; one that draws from the same link repeatedly can
/// solve the distribution once with [`PreparedJitter`] (same draws).
pub fn sample_jitter<R: rand::Rng>(model: &JitterModel, rng: &mut R) -> Seconds {
    PreparedJitter::new(model).sample(rng)
}

/// A [`JitterModel`] with its lognormal parameters solved once.
///
/// Sampling consumes the RNG exactly as [`sample_jitter`] does and returns
/// the same values, without re-deriving `mu` (a logarithm) per draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedJitter {
    mean: Seconds,
    dist: Option<LogNormal<f64>>,
}

impl PreparedJitter {
    /// Solves `model`'s lognormal parameters.
    pub fn new(model: &JitterModel) -> Self {
        // A lognormal with parameters (mu, sigma) has mean exp(mu + sigma^2/2);
        // solve for mu so the draws' mean matches `model.mean`.
        let dist = (model.mean > 0.0 && model.sigma > 0.0).then(|| {
            let mu = model.mean.ln() - model.sigma * model.sigma / 2.0;
            LogNormal::new(mu, model.sigma).expect("valid lognormal parameters")
        });
        PreparedJitter {
            mean: model.mean,
            dist,
        }
    }

    /// Draws one jitter value in seconds.
    pub fn sample<R: rand::Rng>(&self, rng: &mut R) -> Seconds {
        match &self.dist {
            Some(d) => d.sample(rng),
            None => self.mean,
        }
    }
}

/// A seeded sampler drawing successive jitter values from a [`JitterModel`].
#[derive(Debug, Clone)]
pub struct JitterSampler {
    dist: PreparedJitter,
    rng: StdRng,
}

impl JitterSampler {
    /// Creates a sampler with the given deterministic seed.
    pub fn new(model: JitterModel, seed: u64) -> Self {
        JitterSampler {
            dist: PreparedJitter::new(&model),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws the next jitter value in seconds.
    pub fn sample(&mut self) -> Seconds {
        self.dist.sample(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_model_samples_zero() {
        let mut s = JitterModel::NONE.sampler(1);
        for _ in 0..10 {
            assert_eq!(s.sample(), 0.0);
        }
    }

    #[test]
    fn zero_sigma_is_deterministic_mean() {
        let mut s = JitterModel::new(0.002, 0.0).sampler(7);
        assert_eq!(s.sample(), 0.002);
        assert_eq!(s.sample(), 0.002);
    }

    #[test]
    fn sampler_is_reproducible_across_seeds() {
        let m = JitterModel::new(0.001, 0.8);
        let a: Vec<f64> = {
            let mut s = m.sampler(42);
            (0..16).map(|_| s.sample()).collect()
        };
        let b: Vec<f64> = {
            let mut s = m.sampler(42);
            (0..16).map(|_| s.sample()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<f64> = {
            let mut s = m.sampler(43);
            (0..16).map(|_| s.sample()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn empirical_mean_matches_model_mean() {
        let m = JitterModel::new(0.004, 0.5);
        let mut s = m.sampler(9);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| s.sample()).sum();
        let emp = total / n as f64;
        assert!(
            (emp - 0.004).abs() / 0.004 < 0.02,
            "empirical mean {emp} too far from 0.004"
        );
    }

    #[test]
    fn prepared_draws_match_solving_per_draw() {
        use rand::Rng;
        for m in [
            JitterModel::new(0.001, 0.8),
            JitterModel::new(0.002, 0.0),
            JitterModel::NONE,
        ] {
            let prepared = PreparedJitter::new(&m);
            let mut a = StdRng::seed_from_u64(5);
            let mut b = StdRng::seed_from_u64(5);
            for _ in 0..64 {
                let want = if m.mean > 0.0 && m.sigma > 0.0 {
                    let mu = m.mean.ln() - m.sigma * m.sigma / 2.0;
                    LogNormal::new(mu, m.sigma).unwrap().sample(&mut a)
                } else {
                    m.mean
                };
                assert_eq!(prepared.sample(&mut b).to_bits(), want.to_bits());
            }
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "same RNG consumption");
        }
    }

    #[test]
    fn samples_are_positive() {
        let mut s = JitterModel::new(0.001, 1.2).sampler(3);
        for _ in 0..1000 {
            assert!(s.sample() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "jitter mean must be non-negative")]
    fn negative_mean_rejected() {
        let _ = JitterModel::new(-1.0, 0.1);
    }
}
