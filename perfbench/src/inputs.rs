//! Seeded workload inputs. The seed is used here and nowhere else: the
//! program under test only ever sees the generated inputs.

use std::collections::BTreeSet;
use varuna_bench::fleet_sweep::multi_day_market;

use varuna_cluster::trace::{ClusterEventKind, ClusterTrace};
use varuna_fleet::JobSpec;
use varuna_models::ModelZoo;

/// Capacity levels of the re-plan walks, spread over the Table-3 range
/// of GPT-2 2.5B (24 to 100 GPUs). Six spread levels rather than every
/// fourth GPU count: neighbouring levels share most `(p, d)` candidates,
/// so on a dense 20-level walk the memo served ~72% of a walk's
/// candidates and cold decisions spent only ~30% of their time in the
/// emulator; with these six, ~28% are served and the emulator takes
/// most of a cold decision, as the workload is meant to exercise.
pub fn replan_levels() -> Vec<usize> {
    vec![24, 36, 48, 64, 80, 100]
}

/// The level every burst walk ends on: the burst is over and the full
/// allocation is back. Ending every walk on the same level gives the
/// torn-tail recovery (which re-plans that last decision live) the same
/// work on every seed.
pub const FULL_LEVEL: usize = 100;

/// SplitMix64: a tiny, well-mixed generator for input generation only.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Walk `index` of a preemption burst: every level below the full
/// allocation once in a seeded order, back to [`FULL_LEVEL`], then the
/// same levels revisited in another seeded order, ending on
/// [`FULL_LEVEL`] again. The first half is the cold visits, the second
/// the warm revisits. Consecutive walks start on each level in turn, so
/// over a run every level takes the fully cold first decision equally
/// often.
pub fn burst_walk(seed: u64, index: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed, 0x5EED_0000 + index);
    let below: Vec<usize> = replan_levels()
        .into_iter()
        .filter(|&g| g != FULL_LEVEL)
        .collect();
    let mut cold = below.clone();
    let first = (seed.wrapping_add(index) % cold.len() as u64) as usize;
    cold.swap(0, first);
    for i in (2..cold.len()).rev() {
        let j = 1 + rng.below(i);
        cold.swap(i, j);
    }
    let mut warm = below;
    for i in (1..warm.len()).rev() {
        warm.swap(i, rng.below(i + 1));
    }
    let mut walk = cold;
    walk.push(FULL_LEVEL);
    walk.extend(warm);
    walk.push(FULL_LEVEL);
    walk
}

/// Hosts in the Figure 8 spot market.
pub const SPOT_HOSTS: usize = 40;
/// GPUs the Figure 8 job asks the market for.
pub const SPOT_TARGET_GPUS: usize = 160;
/// Market poll interval, minutes.
pub const SPOT_POLL_MINUTES: f64 = 10.0;
/// Hours of market generated per slice before it is cut.
pub const SPOT_GENERATED_HOURS: f64 = 24.0;
/// Distinct capacity levels each replayed slice reaches. Planning a new
/// level is most of a replay's cost, so cutting every slice at the same
/// count gives every seed the same amount of work.
pub const SPOT_LEVELS: usize = 24;
/// Distinct slices per run; iterations cycle through them.
pub const SPOT_POOL: u64 = 8;

/// Schedulable GPUs after each instant of `trace`: granted minus
/// stuttering, as the manager counts them.
fn capacity_steps(trace: &ClusterTrace) -> Vec<(f64, usize)> {
    let mut held: BTreeSet<u64> = BTreeSet::new();
    let mut gpus = std::collections::BTreeMap::new();
    let mut slow: BTreeSet<u64> = BTreeSet::new();
    let mut out: Vec<(f64, usize)> = Vec::new();
    for e in &trace.events {
        match e.kind {
            ClusterEventKind::Granted { gpus: g } => {
                held.insert(e.vm);
                gpus.insert(e.vm, g);
            }
            ClusterEventKind::Preempted => {
                held.remove(&e.vm);
                slow.remove(&e.vm);
            }
            ClusterEventKind::StutterStart { .. } => {
                slow.insert(e.vm);
            }
            ClusterEventKind::StutterEnd => {
                slow.remove(&e.vm);
            }
            _ => {}
        }
        let level = held
            .iter()
            .filter(|vm| !slow.contains(vm))
            .map(|vm| gpus[vm])
            .sum();
        match out.last_mut() {
            Some((t, l)) if *t == e.time_hours => *l = level,
            _ => out.push((e.time_hours, level)),
        }
    }
    out
}

/// `trace` cut just before the instant its schedulable capacity would
/// reach a `levels + 1`-th distinct value. Traces that never get there
/// stay whole.
pub fn cut_to_levels(mut trace: ClusterTrace, levels: usize) -> ClusterTrace {
    let mut seen = BTreeSet::new();
    let cut = capacity_steps(&trace)
        .into_iter()
        .find(|&(_, level)| seen.insert(level) && seen.len() > levels)
        .map(|(t, _)| t);
    if let Some(t) = cut {
        trace.events.retain(|e| e.time_hours < t);
        trace.duration_hours = t;
    }
    trace
}

/// The seeded pool of Figure 8 trace slices a spot run replays, each
/// cut to [`SPOT_LEVELS`] distinct capacity levels.
pub fn spot_traces(seed: u64) -> Vec<ClusterTrace> {
    (0..SPOT_POOL)
        .map(|i| {
            let sub = SplitMix64::new(seed, 0x7ACE_0000 + i).next_u64();
            let full = ClusterTrace::generate_spot_1gpu(
                SPOT_HOSTS,
                SPOT_TARGET_GPUS,
                SPOT_GENERATED_HOURS,
                SPOT_POLL_MINUTES,
                sub,
            );
            cut_to_levels(full, SPOT_LEVELS)
        })
        .collect()
}

/// Jobs sharing the fleet market.
pub const FLEET_JOBS: usize = 12;
/// Market horizon, hours (two weeks): long enough that planning, a
/// fixed few levels per job, stays a minority of an iteration.
pub const FLEET_HOURS: f64 = 336.0;

/// The fleet: `FLEET_JOBS` copies of the fleet sweep's lightweight
/// GPT-2 355M job.
pub fn fleet_jobs() -> Vec<JobSpec> {
    (0..FLEET_JOBS)
        .map(|i| JobSpec {
            name: format!("gpt2-355m-{i}"),
            model: ModelZoo::gpt2_355m(),
            m_total: 1024,
            micro: 4,
            weight: 1.0,
            demand_gpus: 24,
            floor_gpus: 12,
        })
        .collect()
}

/// Market hosts: 45% of the fleet's total demand, as in the fleet sweep.
pub fn fleet_hosts() -> usize {
    fleet_jobs().iter().map(|j| j.demand_gpus).sum::<usize>() * 9 / 20
}

/// The seeded multi-week shared market.
pub fn fleet_market(seed: u64) -> ClusterTrace {
    let sub = SplitMix64::new(seed, 0xF1EE_7000).next_u64();
    multi_day_market(fleet_hosts(), FLEET_HOURS, sub)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distinct_levels(trace: &ClusterTrace) -> usize {
        capacity_steps(trace)
            .into_iter()
            .map(|(_, l)| l)
            .collect::<BTreeSet<_>>()
            .len()
    }

    fn trace_key(t: &ClusterTrace) -> String {
        format!("{:?}", t.events)
    }

    #[test]
    fn burst_walks_visit_every_level_cold_then_warm() {
        let w = burst_walk(42, 0);
        assert_eq!(w, burst_walk(42, 0));
        assert_ne!(w, burst_walk(43, 0));
        assert_ne!(w, burst_walk(42, 1));
        let n = replan_levels().len();
        assert_eq!(w.len(), 2 * n);
        for half in [&w[..n], &w[n..]] {
            assert_eq!(half.last(), Some(&FULL_LEVEL));
            let mut sorted = half.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, replan_levels());
        }
        let firsts: BTreeSet<usize> = (0..5).map(|i| burst_walk(42, i)[0]).collect();
        assert_eq!(firsts.len(), n - 1, "every level leads one walk in five");
    }

    #[test]
    fn spot_traces_are_deterministic_per_seed() {
        for seed in 1..6 {
            assert!(spot_traces(seed)
                .iter()
                .all(|t| distinct_levels(t) == SPOT_LEVELS));
        }
        let a = spot_traces(7);
        assert_eq!(a.len() as u64, SPOT_POOL);
        let b = spot_traces(7);
        assert!(a.iter().zip(&b).all(|(x, y)| trace_key(x) == trace_key(y)));
        let c = spot_traces(8);
        assert_ne!(trace_key(&a[0]), trace_key(&c[0]));
        assert_ne!(trace_key(&a[0]), trace_key(&a[1]));
        for t in &a {
            assert_eq!(distinct_levels(t), SPOT_LEVELS);
            assert!(t.events.iter().all(|e| e.time_hours < t.duration_hours));
        }
    }

    #[test]
    fn fleet_market_is_deterministic_per_seed() {
        let a = fleet_market(3);
        assert_eq!(trace_key(&a), trace_key(&fleet_market(3)));
        assert_ne!(trace_key(&a), trace_key(&fleet_market(4)));
        assert!(a.duration_hours >= FLEET_HOURS);
        assert_eq!(fleet_jobs().len(), FLEET_JOBS);
    }
}
