//! Tier-1 pins of whole planning events: the pick, its fallback rung, the
//! search counters and the error text, for the analytic planner and for
//! `SimSearch` under three budgets, on every rung of the recovery ladder
//! (preferred micro-batch, reduced micro-batch, offload, nothing fits).
//! Each outcome folds into FNV-1a digests. The pick digest covers
//! `(p, d, m, n_micro, offload, est_minibatch_time bits)`, the
//! `FallbackLevel` and the `Display` text of each error; the counters
//! digest covers the `PlanMetrics` counters (`plan_seconds` excluded: it
//! is wall-clock time) and the memo size. Any change to candidate
//! generation, scoring, the ladder or the tie rule of the pick moves the
//! pick digests; a change to how the search spends its budget or fills
//! its memo moves only the counters digests, which also fold the pruned
//! count of each pick.

use varuna::{
    Calibration, Config, FallbackLevel, PlanBudget, PlanMetrics, Planner, SimSearch, VarunaCluster,
    VarunaError,
};
use varuna_models::config::TransformerConfig;
use varuna_models::ModelZoo;

/// FNV-1a, folded one word at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    fn config(&mut self, c: &Config) {
        for w in [c.p, c.d, c.m, c.n_micro, usize::from(c.offload)] {
            self.word(w as u64);
        }
        self.word(c.est_minibatch_time.to_bits());
    }

    fn level(&mut self, level: FallbackLevel) {
        match level {
            FallbackLevel::None => self.word(0),
            FallbackLevel::ReducedMicroBatch(m) => {
                self.word(1);
                self.word(m as u64);
            }
            FallbackLevel::Offload => self.word(2),
        }
    }

    fn metrics(&mut self, m: &PlanMetrics) {
        for w in [m.candidates, m.simulated, m.memo_hits, m.analytic_fallbacks] {
            self.word(w);
        }
        self.word(u64::from(m.budget_exhausted));
    }

    fn error(&mut self, e: &VarunaError) {
        self.word(u64::MAX);
        self.text(&e.to_string());
    }
}

/// One planning scenario: a model, its calibration cluster, `M_total`,
/// the pinned micro-batch and the GPU counts planned for.
struct Case {
    model: TransformerConfig,
    calib_gpus: usize,
    batch: usize,
    micro: usize,
    gpus: &'static [usize],
}

impl Case {
    fn calibration(&self) -> Calibration {
        Calibration::profile(&self.model, &VarunaCluster::commodity_1gpu(self.calib_gpus))
    }

    fn planner<'a>(&'a self, calib: &'a Calibration) -> Planner<'a> {
        Planner::new(&self.model, calib)
            .batch_size(self.batch)
            .micro_batch(self.micro)
    }
}

/// GPT-2 2.5B at the `replan_burst` setting: the preferred rung fits.
fn preferred() -> Case {
    Case {
        model: ModelZoo::gpt2_2_5b(),
        calib_gpus: 100,
        batch: 1024,
        micro: 4,
        gpus: &[8, 24, 36, 100],
    }
}

/// GPT-2 8.3B at m = 8: the preferred rung fits 24 GPUs, while 10 GPUs
/// walk the reduced rungs down to m = 1.
fn reduced() -> Case {
    Case {
        model: ModelZoo::gpt2_8_3b(),
        calib_gpus: 128,
        batch: 512,
        micro: 8,
        gpus: &[24, 10],
    }
}

/// GPT-2 200B on 102 GPUs: only the offload rung fits.
fn offload() -> Case {
    Case {
        model: ModelZoo::gpt2_200b(),
        calib_gpus: 102,
        batch: 16,
        micro: 1,
        gpus: &[102],
    }
}

/// GPT-2 8.3B on 2 GPUs: no rung fits.
fn infeasible() -> Case {
    Case {
        model: ModelZoo::gpt2_8_3b(),
        calib_gpus: 128,
        batch: 8192,
        micro: 4,
        gpus: &[2],
    }
}

/// Digest of the analytic planner's outcomes for every GPU count of
/// `case`: without the ladder, then with it.
fn analytic_digest(case: &Case) -> u64 {
    let calib = case.calibration();
    let planner = case.planner(&calib);
    let mut h = Fnv::new();
    for &g in case.gpus {
        match planner.best_config(g) {
            Ok(cfg) => h.config(&cfg),
            Err(e) => h.error(&e),
        }
        match planner.best_config_with_fallback(g) {
            Ok((cfg, level)) => {
                h.config(&cfg);
                h.level(level);
            }
            Err(e) => h.error(&e),
        }
    }
    h.0
}

/// Digests of `SimSearch` outcomes under `budget` for every GPU count of
/// `case`, on one search per GPU count so the memo carries between its
/// events: the ladder twice (cold, then memo-warm), then no ladder.
/// Returns the pick digest and the counters digest.
fn sim_digest(case: &Case, budget: PlanBudget) -> (u64, u64) {
    let calib = case.calibration();
    let planner = case.planner(&calib);
    let (mut pick, mut counters) = (Fnv::new(), Fnv::new());
    for &g in case.gpus {
        let search = SimSearch::new(budget);
        for _ in 0..2 {
            match search.best_config_with_fallback(&planner, g) {
                Ok((cfg, level, metrics)) => {
                    pick.config(&cfg);
                    pick.level(level);
                    counters.metrics(&metrics);
                    counters.word(metrics.pruned);
                }
                Err(e) => pick.error(&e),
            }
        }
        match search.best_config(&planner, g) {
            Ok((cfg, metrics)) => {
                pick.config(&cfg);
                counters.metrics(&metrics);
                counters.word(metrics.pruned);
            }
            Err(e) => pick.error(&e),
        }
        counters.word(search.memo_len() as u64);
    }
    (pick.0, counters.0)
}

/// Digest of one scored sweep: every candidate with its evaluation path,
/// then the counters.
fn sweep_digest(case: &Case, budget: PlanBudget, g: usize) -> u64 {
    let calib = case.calibration();
    let planner = case.planner(&calib);
    let (scored, metrics) = SimSearch::new(budget).sweep_scored(&planner, g);
    let mut h = Fnv::new();
    for (cfg, path) in &scored {
        h.config(cfg);
        h.word(*path as u64);
    }
    h.metrics(&metrics);
    h.0
}

const ANALYTIC: &[(&str, u64)] = &[
    ("preferred", 0x0d09_2988_c6b6_1bf5),
    ("reduced", 0x4d85_5f29_0910_39f4),
    ("offload", 0x25aa_1a51_2bce_2287),
    ("infeasible", 0xde16_5e06_2678_8d25),
];

/// `(case, pick digest, counters digest)` under a zero budget.
const SIM_0: &[(&str, u64, u64)] = &[
    ("preferred", 0x2e52_cfb6_fa8d_27b8, 0xbae8_9124_aa78_8be5),
    ("reduced", 0x25b0_2f75_1413_f239, 0x738b_9c9b_8d80_54c4),
    ("offload", 0xbc9a_3a54_156c_8d44, 0x8065_9716_83fd_5885),
    ("infeasible", 0xe812_91fd_2670_3ec3, 0xa8c7_f832_281a_39c5),
];

/// `(case, pick digest, counters digest)` under a 3-simulation budget.
const SIM_3: &[(&str, u64, u64)] = &[
    ("preferred", 0x4657_d3e5_203c_3328, 0x4416_cd8d_50d6_9edd),
    ("reduced", 0x6bd0_40a9_19a6_1642, 0xf6a9_bb5b_dcc9_2845),
    ("offload", 0xa7c1_4417_519a_bd94, 0x324b_02b1_f6c9_dcc4),
    ("infeasible", 0xe812_91fd_2670_3ec3, 0xa8c7_f832_281a_39c5),
];

/// `(case, pick digest, counters digest)` under an unlimited budget.
const SIM_UNLIMITED: &[(&str, u64, u64)] = &[
    ("preferred", 0x1907_b45a_b938_15f5, 0xb6f9_48af_80da_f1e1),
    ("reduced", 0x6bd0_40a9_19a6_1642, 0x8cc9_af13_989a_4a8e),
    ("offload", 0xa7c1_4417_519a_bd94, 0x324b_02b1_f6c9_dcc4),
    ("infeasible", 0xe812_91fd_2670_3ec3, 0xa8c7_f832_281a_39c5),
];

/// `SimSearch` under an unlimited budget, GPT-2 2.5B at 24 GPUs only:
/// `(pick digest, counters digest)`.
const SIM_UNLIMITED_24: (u64, u64) = (0x1c5e_f755_6706_513b, 0x7017_a9cf_594c_a615);

/// `sweep_scored` of GPT-2 2.5B at 24 GPUs under a 3-simulation budget.
const SWEEP_3_AT_24: u64 = 0xd8b2_d1d7_c941_28ee;

fn cases() -> [(&'static str, Case); 4] {
    [
        ("preferred", preferred()),
        ("reduced", reduced()),
        ("offload", offload()),
        ("infeasible", infeasible()),
    ]
}

#[test]
fn analytic_plans_on_every_rung_are_pinned() {
    let got: Vec<_> = cases()
        .iter()
        .map(|(name, case)| (*name, analytic_digest(case)))
        .collect();
    assert_eq!(got, ANALYTIC, "got {got:#x?}");
}

/// Every case's `(name, pick digest, counters digest)` under `budget`.
fn sim_digests(budget: PlanBudget) -> Vec<(&'static str, u64, u64)> {
    cases()
        .iter()
        .map(|(name, case)| {
            let (pick, counters) = sim_digest(case, budget);
            (*name, pick, counters)
        })
        .collect()
}

#[test]
fn zero_budget_sim_plans_on_every_rung_are_pinned() {
    let got = sim_digests(PlanBudget::simulations(0));
    assert_eq!(got, SIM_0, "got {got:#x?}");
}

#[test]
fn three_simulation_plans_on_every_rung_are_pinned() {
    let got = sim_digests(PlanBudget::simulations(3));
    assert_eq!(got, SIM_3, "got {got:#x?}");
}

#[test]
fn unlimited_sim_plans_on_every_rung_are_pinned() {
    let got = sim_digests(PlanBudget::unlimited());
    assert_eq!(got, SIM_UNLIMITED, "got {got:#x?}");
}

#[test]
fn unlimited_sim_plan_at_24_gpus_is_pinned() {
    let case = Case {
        gpus: &[24],
        ..preferred()
    };
    let got = sim_digest(&case, PlanBudget::unlimited());
    assert_eq!(got, SIM_UNLIMITED_24, "got {got:#x?}");
}

#[test]
fn a_budgeted_scored_sweep_is_pinned() {
    let got = sweep_digest(&preferred(), PlanBudget::simulations(3), 24);
    assert_eq!(got, SWEEP_3_AT_24, "got {got:#018x}");
}

#[test]
fn each_case_lands_on_its_rung() {
    let level = |case: &Case, g: usize| {
        let calib = case.calibration();
        case.planner(&calib)
            .best_config_with_fallback(g)
            .map(|(_, level)| level)
    };
    for &g in preferred().gpus {
        assert_eq!(level(&preferred(), g).unwrap(), FallbackLevel::None);
    }
    assert_eq!(level(&reduced(), 24).unwrap(), FallbackLevel::None);
    assert_eq!(
        level(&reduced(), 10).unwrap(),
        FallbackLevel::ReducedMicroBatch(1)
    );
    assert_eq!(level(&offload(), 102).unwrap(), FallbackLevel::Offload);
    assert!(level(&infeasible(), 2).is_err());
}
