//! The plan oracle: which scorer the planning loop runs under.
//!
//! Callers (the morph controller, and each `varuna-fleet` job) pick an
//! [`Oracle`] once and plan through it; the sweep, the pick and the
//! recovery ladder are the same for both scorers (see
//! [`crate::plansearch`]). Only the analytic path's decisions are pure
//! functions of the GPU count, so only they are eligible for an outer
//! capacity-keyed plan cache.

use crate::error::VarunaError;
use crate::planner::{Config, FallbackLevel, Planner};
use crate::plansearch::{self, PlanBudget, PlanMetrics, SimSearch};

/// A clonable scorer selection, so controllers (which must stay `Clone`)
/// can hold either.
#[derive(Debug, Clone, Default)]
pub enum Oracle {
    /// The closed-form analytic sweep.
    #[default]
    Analytic,
    /// The budgeted, memoized simulator-in-the-loop search. Its memo table
    /// provides the reuse, and every morph re-ranks so per-event metrics
    /// stay honest.
    Sim(SimSearch),
}

impl Oracle {
    /// A simulator-in-the-loop oracle under `budget`.
    pub fn sim(budget: PlanBudget) -> Self {
        Oracle::Sim(SimSearch::new(budget))
    }

    /// Whether this is the simulated path.
    pub fn is_sim(&self) -> bool {
        matches!(self, Oracle::Sim(_))
    }

    /// The best configuration for `g` GPUs, walking the recovery ladder
    /// (reduced micro-batch, then offload) when `ladder` is set. Returns
    /// search metrics on the simulated path (`None` on the analytic one).
    ///
    /// # Errors
    ///
    /// Fails when no configuration (no rung, with `ladder`) fits `g` GPUs.
    pub fn plan(
        &self,
        planner: &Planner<'_>,
        g: usize,
        ladder: bool,
    ) -> Result<(Config, FallbackLevel, Option<PlanMetrics>), VarunaError> {
        let search = match self {
            Oracle::Analytic => None,
            Oracle::Sim(search) => Some(search),
        };
        let (cfg, level, metrics) = plansearch::plan(planner, g, search, ladder)?;
        Ok((cfg, level, search.map(|_| metrics)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::Calibration;
    use crate::VarunaCluster;
    use varuna_models::ModelZoo;

    fn calib() -> Calibration {
        Calibration::profile(&ModelZoo::gpt2_2_5b(), &VarunaCluster::commodity_1gpu(32))
    }

    #[test]
    fn analytic_oracle_matches_the_planner_and_reports_no_metrics() {
        let c = calib();
        let planner = Planner::new(&c.model, &c).batch_size(768).micro_batch(4);
        let (cfg, _, metrics) = Oracle::Analytic.plan(&planner, 24, false).unwrap();
        assert_eq!(cfg, planner.best_config(24).unwrap());
        assert!(metrics.is_none());
        assert!(!Oracle::Analytic.is_sim());
    }

    #[test]
    fn sim_oracle_reports_metrics_and_declines_caching() {
        let c = calib();
        let planner = Planner::new(&c.model, &c).batch_size(768).micro_batch(4);
        let oracle = Oracle::sim(PlanBudget::unlimited());
        let (cfg, _, metrics) = oracle.plan(&planner, 24, false).unwrap();
        let m = metrics.expect("sim path must report metrics");
        assert!(m.candidates > 0);
        assert!(cfg.gpus_used() <= 24);
        assert!(oracle.is_sim());
    }

    #[test]
    fn oracle_enum_dispatches_both_paths_uniformly() {
        let c = calib();
        let planner = Planner::new(&c.model, &c).batch_size(768).micro_batch(4);
        for oracle in [Oracle::Analytic, Oracle::sim(PlanBudget::simulations(0))] {
            let (cfg, level, metrics) = oracle.plan(&planner, 24, true).unwrap();
            assert_eq!(level, FallbackLevel::None);
            assert!(cfg.gpus_used() <= 24);
            assert_eq!(metrics.is_some(), oracle.is_sim());
        }
        // A zero-budget sim oracle degrades to the analytic ranking, so
        // both oracles agree on the best shape.
        let (a, ..) = Oracle::Analytic.plan(&planner, 24, false).unwrap();
        let (s, ..) = Oracle::sim(PlanBudget::simulations(0))
            .plan(&planner, 24, false)
            .unwrap();
        assert_eq!((a.p, a.d), (s.p, s.d));
    }
}
