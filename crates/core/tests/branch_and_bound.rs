//! The branch-and-bound pick of `SimSearch` against the exhaustive sweep.
//!
//! The lower bound must never exceed the emulated time, a cutoff must
//! never change a run that finishes in time, the pick and its fallback
//! rung must be the exhaustive sweep's argmax (last of equal maxima), and
//! the outcome must not depend on the number of worker threads.

use proptest::prelude::*;
use varuna::{
    Calibration, ClusterTemplate, Config, FallbackLevel, PlanBudget, PlanMetrics, Planner,
    SimSearch, TrainingJob, VarunaCluster,
};
use varuna_exec::pipeline::{lower_bound, simulate_schedule_within};
use varuna_models::config::TransformerConfig;
use varuna_models::ModelZoo;

/// A model with its calibration cluster size, `M_total`, micro-batch,
/// whether its sweep is the offload rung, and the GPU counts drawn.
struct Scale {
    model: TransformerConfig,
    calib_gpus: usize,
    batch: usize,
    micro: usize,
    offload: bool,
    gpus: std::ops::RangeInclusive<usize>,
}

/// GPT-2 2.5B at the `replan_burst` setting, GPT-2 8.3B, and the offload
/// rung of GPT-2 200B.
fn scale(i: usize) -> Scale {
    match i % 3 {
        0 => Scale {
            model: ModelZoo::gpt2_2_5b(),
            calib_gpus: 100,
            batch: 1024,
            micro: 4,
            offload: false,
            gpus: 8..=100,
        },
        1 => Scale {
            model: ModelZoo::gpt2_8_3b(),
            calib_gpus: 128,
            batch: 512,
            micro: 8,
            offload: false,
            gpus: 24..=72,
        },
        _ => Scale {
            model: ModelZoo::gpt2_200b(),
            calib_gpus: 102,
            batch: 16,
            micro: 1,
            offload: true,
            gpus: 100..=110,
        },
    }
}

impl Scale {
    fn calibration(&self) -> Calibration {
        Calibration::profile(&self.model, &VarunaCluster::commodity_1gpu(self.calib_gpus))
    }

    fn planner<'a>(&'a self, calib: &'a Calibration) -> Planner<'a> {
        Planner::new(&self.model, calib)
            .batch_size(self.batch)
            .micro_batch(self.micro)
            .offload(self.offload)
    }

    /// The `k`-th of `of` GPU counts spread over the scale's range.
    fn gpus_at(&self, k: usize, of: usize) -> usize {
        let (lo, hi) = (*self.gpus.start(), *self.gpus.end());
        lo + (hi - lo) * k / of.max(1)
    }
}

/// The pick of an exhaustive search: every rung of the ladder scored by
/// `sweep_scored` on a fresh search (every candidate emulated), the first
/// rung with a candidate yielding its last maximum of throughput.
fn exhaustive_pick(planner: &Planner<'_>, g: usize) -> Option<(Config, FallbackLevel)> {
    let mut rungs = vec![(planner.clone(), FallbackLevel::None)];
    let mut m = planner.chosen_m() / 2;
    while m >= 1 {
        rungs.push((
            planner.clone().micro_batch(m),
            FallbackLevel::ReducedMicroBatch(m),
        ));
        m /= 2;
    }
    rungs.push((
        planner.clone().micro_batch(1).offload(true),
        FallbackLevel::Offload,
    ));
    for (rung, level) in rungs {
        let search = SimSearch::new(PlanBudget::unlimited());
        let (scored, _) = search.sweep_scored(&rung, g);
        let best = scored
            .into_iter()
            .map(|(cfg, _)| cfg)
            .max_by(|a, b| a.throughput().total_cmp(&b.throughput()));
        if let Some(cfg) = best {
            return Some((cfg, level));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    /// The bound never exceeds the emulated time of any sweep candidate,
    /// a run cut off at its own time finishes bit-identically, and a run
    /// cut off below its bound is abandoned.
    #[test]
    fn the_bound_never_exceeds_the_emulated_time(si in 0usize..3, k in 0usize..6) {
        let scale = scale(si);
        let calib = scale.calibration();
        let planner = scale.planner(&calib);
        let g = scale.gpus_at(k, 5);
        let template = ClusterTemplate::from_calibration(&calib);
        let sweep = planner.sweep(g);
        prop_assert!(!sweep.is_empty(), "no candidate at {g} GPUs");
        for cfg in sweep {
            let exact = SimSearch::simulate_candidate(&calib, template, &cfg).unwrap();
            let cluster = template.build(cfg.gpus_used());
            let placed = TrainingJob::place(&calib, &cluster, &cfg).unwrap();
            let bound = lower_bound(&placed);
            prop_assert!(
                bound > 0.0 && bound <= exact,
                "{}x{} at {g} GPUs: bound {bound} vs emulated {exact}", cfg.p, cfg.d
            );
            let job = TrainingJob::build(&calib, &cluster, cfg.clone()).unwrap();
            let within = simulate_schedule_within(&job.job, &job.schedule, exact).unwrap();
            prop_assert_eq!(within.map(|r| r.total_time.to_bits()), Some(exact.to_bits()));
            let short = simulate_schedule_within(&job.job, &job.schedule, bound * 0.999);
            prop_assert!(short.unwrap().is_none(), "{}x{} ran past its cutoff", cfg.p, cfg.d);
        }
    }

    /// Under an unlimited budget the pick and its rung are the exhaustive
    /// sweep's, on a cold search and on one that carries its memo and its
    /// remembered bounds across capacity levels.
    #[test]
    fn the_pick_is_the_exhaustive_argmax(si in 0usize..3, a in 0usize..8, b in 0usize..8) {
        let scale = scale(si);
        let calib = scale.calibration();
        let planner = scale.planner(&calib);
        let search = SimSearch::new(PlanBudget::unlimited());
        for g in [scale.gpus_at(a, 7), scale.gpus_at(b, 7), scale.gpus_at(a, 7)] {
            let got = search.best_config_with_fallback(&planner, g).ok();
            let want = exhaustive_pick(&planner, g);
            prop_assert_eq!(
                got.as_ref().map(|(cfg, level, _)| (cfg.clone(), *level)),
                want,
                "at {} GPUs", g
            );
            if let Some((_, _, m)) = got {
                prop_assert_eq!(m.simulated + m.memo_hits + m.analytic_fallbacks, m.candidates);
                prop_assert_eq!(m.analytic_fallbacks, 0);
                prop_assert!(!m.budget_exhausted);
            }
        }
    }
}

/// The deterministic part of a planning event's counters.
fn counters(m: &PlanMetrics) -> (u64, u64, u64, u64, u64, bool) {
    (
        m.candidates,
        m.simulated,
        m.memo_hits,
        m.analytic_fallbacks,
        m.pruned,
        m.budget_exhausted,
    )
}

#[test]
fn thread_width_does_not_change_a_walk() {
    let scale = scale(0);
    let calib = scale.calibration();
    let planner = scale.planner(&calib);
    let walk = [36, 24, 100, 30, 24, 64, 8, 36];
    for budget in [
        PlanBudget::unlimited(),
        PlanBudget::simulations(2),
        PlanBudget::simulations(5),
    ] {
        let run = |threads: usize| {
            let search = SimSearch::new(budget).threads(threads);
            walk.iter()
                .map(|&g| {
                    let (cfg, level, metrics) =
                        search.best_config_with_fallback(&planner, g).unwrap();
                    let bits = cfg.est_minibatch_time.to_bits();
                    (cfg, bits, level, counters(&metrics), search.memo_len())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(8), "budget {budget:?}");
    }
}
