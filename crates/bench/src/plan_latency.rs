//! Plan latency: analytic vs simulated vs memoized configuration search.
//!
//! The paper's manager re-plans with its simulator on every morph event;
//! this bench prices that loop across Table-3 model scales. Three numbers
//! per scale: the closed-form analytic sweep, a cold simulator-in-the-loop
//! pick (every candidate emulated or pruned by the branch-and-bound), and
//! a warm repeat of the same morph event (every emulated candidate served
//! from the memo table and every pruned one pruned again from its
//! remembered bound, so no candidate pays for an emulation, an analytic
//! estimate or a partition). The headline claim
//! is that the memoized repeat is orders of magnitude faster than the cold
//! sweep — re-planning during a preemption burst costs the emulation only
//! once.

use std::time::Instant;

use varuna::plansearch::{PlanBudget, SimSearch};
use varuna::{Calibration, Planner, VarunaCluster};
use varuna_models::config::TransformerConfig;
use varuna_models::ModelZoo;
use varuna_obs::BenchReport;

/// One model-scale's search timings.
#[derive(Debug, Clone)]
pub struct Row {
    /// Model name.
    pub model: String,
    /// Available GPUs `G`.
    pub gpus: usize,
    /// Candidates in the sweep, pruned ones included.
    pub candidates: u64,
    /// Analytic `O(G)` sweep latency, milliseconds.
    pub analytic_ms: f64,
    /// Cold simulator-in-the-loop sweep latency, milliseconds.
    pub cold_ms: f64,
    /// Warm (memoized) repeat latency, milliseconds.
    pub warm_ms: f64,
    /// Candidates emulated to the end in the cold sweep.
    pub cold_simulated: u64,
    /// Memo hits in the warm sweep.
    pub warm_memo_hits: u64,
    /// Warm-sweep cache hit rate.
    pub warm_hit_rate: f64,
    /// Cold-over-warm speedup of the repeated morph event.
    pub memo_speedup: f64,
    /// Top-ranked `(p, d)` of the analytic sweep.
    pub analytic_pd: (usize, usize),
    /// Top-ranked `(p, d)` of the simulated sweep.
    pub sim_pd: (usize, usize),
}

impl Row {
    /// Whether both evaluation paths picked the same configuration.
    pub fn paths_agree(&self) -> bool {
        self.analytic_pd == self.sim_pd
    }
}

/// The scales measured: the paper's Table 3 (GPT-2 2.5B at 36 and 100
/// GPUs) plus the Figure 5 small scale of the 8.3B model.
pub fn scales() -> Vec<(TransformerConfig, usize)> {
    vec![
        (ModelZoo::gpt2_2_5b(), 36),
        (ModelZoo::gpt2_2_5b(), 100),
        (ModelZoo::gpt2_8_3b(), 54),
    ]
}

/// Measures one scale with an explicit batch contract.
pub fn measure(model: &TransformerConfig, gpus: usize, m_total: usize) -> Row {
    let calib = Calibration::profile(model, &VarunaCluster::commodity_1gpu(gpus));
    let planner = Planner::new(model, &calib)
        .batch_size(m_total)
        .micro_batch(4);

    let t0 = Instant::now();
    let analytic = planner
        .best_config(gpus)
        .unwrap_or_else(|e| panic!("{}: analytic plan at {gpus} GPUs: {e}", model.name));
    let analytic_ms = t0.elapsed().as_secs_f64() * 1e3;

    let search = SimSearch::new(PlanBudget::unlimited());
    let (cold_best, cold) = search
        .best_config(&planner, gpus)
        .unwrap_or_else(|e| panic!("{}: cold sim plan at {gpus} GPUs: {e}", model.name));
    // The same morph event again — a preemption burst revisiting this
    // capacity level — is a pure memo replay.
    let (warm_best, warm) = search
        .best_config(&planner, gpus)
        .unwrap_or_else(|e| panic!("{}: warm sim plan at {gpus} GPUs: {e}", model.name));
    assert_eq!(
        (cold_best.p, cold_best.d),
        (warm_best.p, warm_best.d),
        "memoized search changed the decision"
    );

    Row {
        model: model.name.clone(),
        gpus,
        candidates: cold.candidates + cold.pruned,
        analytic_ms,
        cold_ms: cold.plan_seconds * 1e3,
        warm_ms: warm.plan_seconds * 1e3,
        cold_simulated: cold.simulated,
        warm_memo_hits: warm.memo_hits,
        warm_hit_rate: warm.cache_hit_rate(),
        memo_speedup: cold.plan_seconds / warm.plan_seconds.max(1e-9),
        analytic_pd: (analytic.p, analytic.d),
        sim_pd: (cold_best.p, cold_best.d),
    }
}

/// Runs every scale at the paper's `M_total = 8192`.
pub fn run() -> Vec<Row> {
    scales()
        .iter()
        .map(|(model, gpus)| measure(model, *gpus, 8192))
        .collect()
}

/// Packages the rows as a [`BenchReport`] (`BENCH_plan_latency.json`).
pub fn report(rows: &[Row]) -> BenchReport {
    let mut rep = BenchReport::new("plan_latency").param("scales", rows.len() as f64);
    let mut min_speedup = f64::INFINITY;
    for r in rows {
        let key = format!("{}_{}gpu", r.model, r.gpus);
        rep = rep
            .result(&format!("{key}_candidates"), r.candidates as f64)
            .result(&format!("{key}_analytic_ms"), r.analytic_ms)
            .result(&format!("{key}_cold_sim_ms"), r.cold_ms)
            .result(&format!("{key}_warm_sim_ms"), r.warm_ms)
            .result(&format!("{key}_memo_speedup"), r.memo_speedup)
            .result(&format!("{key}_warm_hit_rate"), r.warm_hit_rate)
            .result(
                &format!("{key}_paths_agree"),
                if r.paths_agree() { 1.0 } else { 0.0 },
            );
        min_speedup = min_speedup.min(r.memo_speedup);
    }
    rep.result("min_memo_speedup", min_speedup)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_scale_shows_the_memo_speedup() {
        // A reduced batch keeps the emulations cheap under `cargo test`;
        // the full Table-3 scales run in the release binary.
        let row = measure(&ModelZoo::gpt2_2_5b(), 24, 768);
        assert!(row.candidates > 0);
        // Every candidate the cold pick emulated to the end is a warm hit;
        // the rest it pruned, and the warm pick prunes them again.
        assert!(row.cold_simulated > 0);
        assert_eq!(row.warm_memo_hits, row.cold_simulated);
        assert_eq!(row.warm_hit_rate, 1.0);
        // The 10x acceptance bar is asserted by the release binary; a
        // debug micro-run only has to show the memo actually bypassing
        // the emulator.
        assert!(
            row.memo_speedup > 1.0,
            "memoized repeat not faster ({:.2}x)",
            row.memo_speedup
        );
        let rep = report(std::slice::from_ref(&row));
        assert!(rep.is_current_schema());
        assert_eq!(rep.summary["min_memo_speedup"], row.memo_speedup);
    }
}
