//! The capacity arbiter: weighted fair shares with a starvation bound.
//!
//! The arbiter owns the shared market. Every arbitration round it
//! computes, from the instantaneous market capacity and each job's
//! (weight, demand, floor, starvation) state, the exact number of spot
//! GPUs each job is entitled to, and the fleet loop reconciles leases to
//! those targets — revoking only from jobs above their entitlement
//! (preemption-of-the-preemptible) and granting freed VMs to jobs below
//! it.
//!
//! Fairness is weighted max-min (water-filling): capacity is handed out
//! one GPU at a time to the job with the smallest `allocation / weight`,
//! skipping jobs already at their demand. The discrete formulation makes
//! the integer allocation exact (no largest-remainder rounding step) and
//! trivially deterministic: ties break toward the lower job index.
//!
//! Starvation is bounded: a job that has sat below its floor for longer
//! than [`ArbiterConfig::starvation_bound_hours`] is *boosted* — the next
//! round seeds its floor allocation before the water-filling pass, so
//! heavy jobs cannot park a light job below its floor indefinitely.

use serde::{Deserialize, Serialize};

/// Arbiter tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArbiterConfig {
    /// How long a job may sit below its floor before the arbiter boosts
    /// it to the front of the allocation queue, hours.
    pub starvation_bound_hours: f64,
}

impl ArbiterConfig {
    /// Defaults: boost a starved job after 30 minutes below its floor.
    pub fn default_tuning() -> Self {
        ArbiterConfig {
            starvation_bound_hours: 0.5,
        }
    }
}

impl Default for ArbiterConfig {
    fn default() -> Self {
        Self::default_tuning()
    }
}

/// One job's inputs to an arbitration round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobDemand {
    /// Fair-share weight (> 0).
    pub weight: f64,
    /// Maximum GPUs the job can use.
    pub demand: usize,
    /// Minimum-throughput floor in GPUs (0 disables).
    pub floor: usize,
    /// Whether the job has exceeded the starvation bound and gets its
    /// floor seeded before the fair pass.
    pub boosted: bool,
}

/// Computes each job's spot-GPU entitlement for one arbitration round.
///
/// Guarantees, by construction:
///
/// - `sum(result) <= capacity` — the arbiter never over-commits the
///   market;
/// - `result[i] <= jobs[i].demand` for every job;
/// - boosted jobs receive `min(floor, demand)` before any fair-share
///   GPU is handed out (in job order, while capacity lasts);
/// - the remainder is weighted max-min fair: no job can gain a GPU
///   except by taking one from a job with a smaller weighted allocation.
///
/// Deterministic: same inputs, same outputs, ties to the lower index.
pub fn fair_shares(capacity: usize, jobs: &[JobDemand]) -> Vec<usize> {
    let mut alloc = vec![0usize; jobs.len()];
    let mut left = capacity;

    // Pass 1: starvation boost — seed each boosted job's floor.
    for (i, j) in jobs.iter().enumerate() {
        if j.boosted {
            let want = j.floor.min(j.demand).min(left);
            alloc[i] = want;
            left -= want;
        }
    }

    // Pass 2: weighted max-min water-filling over the remainder. One GPU
    // per step to the unsaturated job with the smallest weighted
    // allocation `alloc[i] / weight`; O(capacity * jobs), exact on
    // integers. Each job's key is kept and recomputed only when the job
    // receives a GPU, from the same expression, so the keys compared are
    // the ones a fresh division would give.
    let mut key: Vec<f64> = alloc
        .iter()
        .zip(jobs)
        .map(|(&a, j)| a as f64 / j.weight)
        .collect();
    while left > 0 {
        let mut best: Option<usize> = None;
        for (i, j) in jobs.iter().enumerate() {
            if alloc[i] >= j.demand {
                continue;
            }
            if best.is_none_or(|b| key[i] < key[b]) {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                alloc[i] += 1;
                key[i] = alloc[i] as f64 / jobs[i].weight;
                left -= 1;
            }
            // Every job is saturated; leftover capacity stays free.
            None => break,
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(weight: f64, demand: usize, floor: usize, boosted: bool) -> JobDemand {
        JobDemand {
            weight,
            demand,
            floor,
            boosted,
        }
    }

    #[test]
    fn equal_weights_split_evenly() {
        let shares = fair_shares(12, &[job(1.0, 10, 0, false); 3]);
        assert_eq!(shares, vec![4, 4, 4]);
    }

    #[test]
    fn weights_tilt_the_split() {
        let shares = fair_shares(12, &[job(2.0, 12, 0, false), job(1.0, 12, 0, false)]);
        assert_eq!(shares, vec![8, 4]);
    }

    #[test]
    fn demand_caps_redistribute_to_the_hungry() {
        let shares = fair_shares(12, &[job(1.0, 2, 0, false), job(1.0, 12, 0, false)]);
        assert_eq!(shares, vec![2, 10]);
    }

    #[test]
    fn never_exceeds_capacity_or_demand() {
        let jobs = [
            job(3.0, 7, 2, false),
            job(1.0, 40, 8, true),
            job(0.5, 3, 1, false),
        ];
        for cap in 0..60 {
            let shares = fair_shares(cap, &jobs);
            assert!(shares.iter().sum::<usize>() <= cap);
            for (s, j) in shares.iter().zip(jobs.iter()) {
                assert!(*s <= j.demand);
            }
        }
    }

    #[test]
    fn boost_seeds_the_floor_first() {
        // Without the boost a weight-0.1 job gets almost nothing against
        // a weight-10 job on a tight market; boosted, its floor comes
        // first.
        let quiet = fair_shares(10, &[job(10.0, 10, 6, false), job(0.1, 10, 6, false)]);
        assert!(quiet[1] < 6);
        let boosted = fair_shares(10, &[job(10.0, 10, 6, false), job(0.1, 10, 6, true)]);
        assert_eq!(boosted[1], 6);
        assert_eq!(boosted.iter().sum::<usize>(), 10);
    }

    #[test]
    fn leftover_capacity_stays_free_when_all_saturated() {
        let shares = fair_shares(100, &[job(1.0, 3, 0, false), job(1.0, 5, 0, false)]);
        assert_eq!(shares, vec![3, 5]);
    }

    #[test]
    fn deterministic_ties_break_low() {
        let shares = fair_shares(3, &[job(1.0, 10, 0, false), job(1.0, 10, 0, false)]);
        assert_eq!(shares, vec![2, 1]);
    }
}
