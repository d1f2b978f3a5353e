//! Tier-1 pins of whole planning events: the pick, its fallback rung, the
//! search counters and the error text, for the analytic planner and for
//! `SimSearch` under three budgets, on every rung of the recovery ladder
//! (preferred micro-batch, reduced micro-batch, offload, nothing fits).
//! Each outcome folds into an FNV-1a digest of
//! `(p, d, m, n_micro, offload, est_minibatch_time bits)`, the
//! `FallbackLevel`, the `PlanMetrics` counters (`plan_seconds` excluded:
//! it is wall-clock time) and the `Display` text of each error. Any change
//! to candidate generation, scoring, the budget, the memo, the ladder or
//! the tie rule of the pick moves these digests.

use varuna::{
    Calibration, Config, EvalPath, FallbackLevel, PlanBudget, PlanMetrics, Planner, SimSearch,
    VarunaCluster, VarunaError,
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

/// Digest of `SimSearch` outcomes under `budget` for every GPU count of
/// `case`, on one search per GPU count so the memo carries between its
/// events: the ladder twice (cold, then memo-warm), then no ladder.
fn sim_digest(case: &Case, budget: PlanBudget) -> u64 {
    let calib = case.calibration();
    let planner = case.planner(&calib);
    let mut h = Fnv::new();
    for &g in case.gpus {
        let search = SimSearch::new(budget);
        for _ in 0..2 {
            match search.best_config_with_fallback(&planner, g) {
                Ok((cfg, level, metrics)) => {
                    h.config(&cfg);
                    h.level(level);
                    h.metrics(&metrics);
                }
                Err(e) => h.error(&e),
            }
        }
        match search.best_config(&planner, g) {
            Ok((cfg, metrics)) => {
                h.config(&cfg);
                h.metrics(&metrics);
            }
            Err(e) => h.error(&e),
        }
        h.word(search.memo_len() as u64);
    }
    h.0
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
        h.word(match path {
            EvalPath::Analytic => 0,
            EvalPath::Simulated => 1,
            EvalPath::Memoized => 2,
        });
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

const SIM_0: &[(&str, u64)] = &[
    ("preferred", 0x5bfc_5649_1208_4ff4),
    ("reduced", 0xce24_ba75_8810_a1a0),
    ("offload", 0x4ff2_379c_c3d0_aad8),
    ("infeasible", 0x3699_0dd7_9ca9_7523),
];

const SIM_3: &[(&str, u64)] = &[
    ("preferred", 0xac9e_06cf_ff5c_0281),
    ("reduced", 0xb80c_9a44_fa0c_f671),
    ("offload", 0x8ff4_a825_8369_70b5),
    ("infeasible", 0x3699_0dd7_9ca9_7523),
];

/// `SimSearch` under an unlimited budget, GPT-2 2.5B at 24 GPUs only.
const SIM_UNLIMITED_24: u64 = 0xc29b_2824_52ec_d4ad;

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

#[test]
fn zero_budget_sim_plans_on_every_rung_are_pinned() {
    let got: Vec<_> = cases()
        .iter()
        .map(|(name, case)| (*name, sim_digest(case, PlanBudget::simulations(0))))
        .collect();
    assert_eq!(got, SIM_0, "got {got:#x?}");
}

#[test]
fn three_simulation_plans_on_every_rung_are_pinned() {
    let got: Vec<_> = cases()
        .iter()
        .map(|(name, case)| (*name, sim_digest(case, PlanBudget::simulations(3))))
        .collect();
    assert_eq!(got, SIM_3, "got {got:#x?}");
}

#[test]
fn unlimited_sim_plan_at_24_gpus_is_pinned() {
    let case = Case {
        gpus: &[24],
        ..preferred()
    };
    let got = sim_digest(&case, PlanBudget::unlimited());
    assert_eq!(got, SIM_UNLIMITED_24, "got {got:#018x}");
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
