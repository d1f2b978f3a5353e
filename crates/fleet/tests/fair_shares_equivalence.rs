//! `fair_shares` keeps each job's weighted-allocation key and recomputes
//! only the key of the job that just received a GPU. The water-filling
//! loop it replaced divided `alloc / weight` afresh for every comparison;
//! that loop is frozen here as the oracle, and the two must agree on
//! every input: boosted jobs, saturated jobs, mixed weights and ties.

use proptest::prelude::*;
use varuna_fleet::{fair_shares, JobDemand};

/// The arbiter's water-filling pass as it was before the keys were kept.
fn fair_shares_oracle(capacity: usize, jobs: &[JobDemand]) -> Vec<usize> {
    let mut alloc = vec![0usize; jobs.len()];
    let mut left = capacity;
    for (i, j) in jobs.iter().enumerate() {
        if j.boosted {
            let want = j.floor.min(j.demand).min(left);
            alloc[i] = want;
            left -= want;
        }
    }
    while left > 0 {
        let mut best: Option<usize> = None;
        for (i, j) in jobs.iter().enumerate() {
            if alloc[i] >= j.demand {
                continue;
            }
            best = match best {
                None => Some(i),
                Some(b) => {
                    let wi = alloc[i] as f64 / jobs[i].weight;
                    let wb = alloc[b] as f64 / jobs[b].weight;
                    if wi < wb {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        match best {
            Some(i) => {
                alloc[i] += 1;
                left -= 1;
            }
            None => break,
        }
    }
    alloc
}

/// Weights a fleet spec can carry: small integers and powers of two
/// (ties), and awkward values whose quotients round. Pairs such as
/// 0.1/1.1 or 0.3/1.5 order differently under `a * (1 / w)` than under
/// `a / w`, so a key computed any other way than the loop's division
/// shows here.
const WEIGHTS: [f64; 16] = [
    1.0,
    2.0,
    3.0,
    0.5,
    0.25,
    0.1,
    1.0 / 3.0,
    7.3,
    0.3,
    0.7,
    1.1,
    1.5,
    3.7,
    5.0,
    6.0,
    9.0,
];

/// A job from one random word: weight, demand (0 included, so some jobs
/// saturate at once), floor (may exceed demand) and the boost flag.
fn job_from(x: u64) -> JobDemand {
    JobDemand {
        weight: WEIGHTS[(x % 16) as usize],
        demand: ((x >> 4) % 24) as usize,
        floor: ((x >> 9) % 12) as usize,
        boosted: (x >> 14).is_multiple_of(3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn kept_keys_allocate_like_fresh_divisions(
        words in proptest::collection::vec(any::<u64>(), 0..14),
        capacity in 0usize..200,
    ) {
        let jobs: Vec<JobDemand> = words.iter().map(|&x| job_from(x)).collect();
        prop_assert_eq!(fair_shares(capacity, &jobs), fair_shares_oracle(capacity, &jobs));
    }

    /// Every job demands more than the market holds: no job saturates,
    /// so every GPU goes through the weighted comparison.
    #[test]
    fn kept_keys_agree_on_a_hungry_fleet(
        words in proptest::collection::vec(any::<u64>(), 1..14),
        capacity in 0usize..400,
    ) {
        let jobs: Vec<JobDemand> = words
            .iter()
            .map(|&x| JobDemand { demand: 400, ..job_from(x) })
            .collect();
        prop_assert_eq!(fair_shares(capacity, &jobs), fair_shares_oracle(capacity, &jobs));
    }
}
