//! Configuration planning: the `O(G)` sweep of paper §4.4.
//!
//! Given `G` available GPUs and a fixed mini-batch size `M_total`, the
//! planner (1) picks the micro-batch size `m*` once from calibration,
//! (2) sweeps pipeline depth `P` from the smallest depth that fits GPU
//! memory up to the cut-point count, (3) takes the one compute-balanced
//! stage assignment per `P`, derives `D = G / P` and
//! `N_m = M_total / (m · D)`, and (4) feeds each candidate to the fast
//! simulator, returning the configuration with the highest throughput.

use serde::{Deserialize, Serialize};
use varuna_models::config::TransformerConfig;

use crate::calibrate::Calibration;
use crate::error::VarunaError;
use crate::partition::balanced_partition;
use crate::plansearch;
use crate::simulator::{estimate_minibatch_time, SimInput};

/// A fully planned configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Pipeline depth.
    pub p: usize,
    /// Data-parallel replicas per stage.
    pub d: usize,
    /// Micro-batch size.
    pub m: usize,
    /// Micro-batches per replica per mini-batch.
    pub n_micro: usize,
    /// Stage assignment as cut-point ranges.
    pub assignment: Vec<(usize, usize)>,
    /// Whether optimizer state is offloaded to CPU.
    pub offload: bool,
    /// Estimated mini-batch wall-clock time, seconds.
    pub est_minibatch_time: f64,
    /// Examples per mini-batch (`m · N_m · D`, kept equal to `M_total`).
    pub examples: usize,
}

impl Config {
    /// GPUs the configuration occupies.
    pub fn gpus_used(&self) -> usize {
        self.p * self.d
    }

    /// Estimated examples per second.
    pub fn throughput(&self) -> f64 {
        self.examples as f64 / self.est_minibatch_time
    }

    /// Estimated examples per second per GPU.
    pub fn throughput_per_gpu(&self) -> f64 {
        self.throughput() / self.gpus_used() as f64
    }
}

/// The configuration planner.
#[derive(Debug, Clone)]
pub struct Planner<'a> {
    model: &'a TransformerConfig,
    calib: &'a Calibration,
    m_total: usize,
    m_override: Option<usize>,
    offload: bool,
}

impl<'a> Planner<'a> {
    /// A planner for `model` with its calibration.
    pub fn new(model: &'a TransformerConfig, calib: &'a Calibration) -> Self {
        Planner {
            model,
            calib,
            m_total: 8192,
            m_override: None,
            offload: false,
        }
    }

    /// Sets the fixed mini-batch size `M_total` (default 8192).
    pub fn batch_size(mut self, m_total: usize) -> Self {
        assert!(m_total > 0);
        self.m_total = m_total;
        self
    }

    /// Forces a specific micro-batch size instead of `m*` (used to
    /// replicate the paper's exact configurations).
    pub fn micro_batch(mut self, m: usize) -> Self {
        self.m_override = Some(m);
        self
    }

    /// Enables CPU optimizer-state offload (the 200B configuration).
    pub fn offload(mut self, on: bool) -> Self {
        self.offload = on;
        self
    }

    /// The micro-batch size the planner will use.
    pub fn chosen_m(&self) -> usize {
        self.m_override.unwrap_or_else(|| self.calib.pick_m(0.05))
    }

    /// The chosen micro-batch size, if calibration profiled it.
    ///
    /// # Errors
    ///
    /// An uncalibrated size cannot be scored: the error names the
    /// calibrated sizes.
    pub(crate) fn calibrated_m(&self) -> Result<usize, VarunaError> {
        let m = self.chosen_m();
        if self.calib.ms.contains(&m) {
            return Ok(m);
        }
        Err(VarunaError::InvalidConfig(format!(
            "micro-batch size {m} was not calibrated (calibrated sizes: {:?})",
            self.calib.ms
        )))
    }

    /// The calibration this planner scores candidates against (the
    /// simulator-in-the-loop search needs it to build emulator jobs).
    pub fn calibration(&self) -> &'a Calibration {
        self.calib
    }

    /// The fixed mini-batch size `M_total`.
    pub fn total_batch(&self) -> usize {
        self.m_total
    }

    /// The candidate step shared by every evaluation path: builds the
    /// `(p, d)` shape (`m`, `N_m`, the balanced stage assignment) and runs
    /// every feasibility check, but leaves it unscored
    /// (`est_minibatch_time` is NaN until [`Planner::estimate`] or an
    /// emulation fills it in).
    ///
    /// # Errors
    ///
    /// Fails when the shape is invalid, the micro-batch size was not
    /// calibrated, or a stage cannot fit GPU memory.
    pub(crate) fn candidate(&self, p: usize, d: usize) -> Result<Config, VarunaError> {
        self.partitioned(self.shape(p, d)?)
    }

    /// The cheap half of [`Planner::candidate`]: every check but memory,
    /// with `m` and `N_m` derived and the stage assignment still empty.
    /// The shape fixes the candidate's memo key, so a memoized candidate
    /// needs nothing more.
    ///
    /// # Errors
    ///
    /// Fails when the shape is invalid or the micro-batch size was not
    /// calibrated.
    pub(crate) fn shape(&self, p: usize, d: usize) -> Result<Config, VarunaError> {
        let k = self.calib.graph.len();
        if p == 0 || p > k {
            return Err(VarunaError::InvalidConfig(format!("p={p} not in 1..={k}")));
        }
        if d == 0 {
            return Err(VarunaError::InvalidConfig("d=0".to_string()));
        }
        let m = self.calibrated_m()?;
        if m * d > self.m_total {
            return Err(VarunaError::InvalidConfig(format!(
                "m*d = {} exceeds M_total = {}",
                m * d,
                self.m_total
            )));
        }
        // Gradient accumulation absorbs the split: N_m grows as D shrinks
        // so that m·N_m·D covers M_total exactly (when D·m does not divide
        // M_total, a few trailing micro-batches run short; their gradient
        // weighting is handled by the accumulation, as in `varuna-train`).
        let n_micro = self.m_total.div_ceil(m * d);
        Ok(Config {
            p,
            d,
            m,
            n_micro,
            assignment: Vec::new(),
            offload: self.offload,
            est_minibatch_time: f64::NAN,
            examples: self.m_total,
        })
    }

    /// The expensive half of [`Planner::candidate`]: the balanced stage
    /// assignment of a [`Planner::shape`] and its memory check.
    ///
    /// # Errors
    ///
    /// Fails when a stage cannot fit GPU memory.
    pub(crate) fn partitioned(&self, mut cfg: Config) -> Result<Config, VarunaError> {
        cfg.assignment = balanced_partition(&self.calib.graph, cfg.p);
        for &(lo, hi) in &cfg.assignment {
            self.calib.window(lo, hi, cfg.m, cfg.offload)?;
        }
        Ok(cfg)
    }

    /// The scoring step: the closed-form mini-batch time of a candidate.
    ///
    /// # Errors
    ///
    /// Propagates [`estimate_minibatch_time`] failures.
    pub(crate) fn estimate(&self, cfg: &Config) -> Result<f64, VarunaError> {
        estimate_minibatch_time(&SimInput {
            calib: self.calib,
            assignment: &cfg.assignment,
            d: cfg.d,
            m: cfg.m,
            n_micro: cfg.n_micro,
            offload: cfg.offload,
        })
    }

    /// Evaluates one explicit `(p, d)` configuration: the candidate step,
    /// then the analytic score.
    ///
    /// # Errors
    ///
    /// Fails when the shape is invalid or a stage cannot fit GPU memory.
    pub fn evaluate(&self, p: usize, d: usize) -> Result<Config, VarunaError> {
        let mut cfg = self.candidate(p, d)?;
        cfg.est_minibatch_time = self.estimate(&cfg)?;
        Ok(cfg)
    }

    /// Every feasible pipeline depth for `g` GPUs as an unscored candidate
    /// (see [`Planner::candidate`]), in increasing `p`.
    pub(crate) fn candidates(&self, g: usize) -> Vec<Config> {
        self.shapes(g)
            .filter_map(|shape| self.partitioned(shape).ok())
            .collect()
    }

    /// The [`Planner::shape`] of every pipeline depth for `g` GPUs that
    /// passes its checks, in increasing `p`.
    pub(crate) fn shapes(&self, g: usize) -> impl Iterator<Item = Config> + '_ {
        let k = self.calib.graph.len();
        (1..=k.min(g)).filter_map(move |p| self.shape(p, g / p).ok())
    }

    /// Sweeps every feasible pipeline depth for `g` GPUs, returning all
    /// candidate configs with their analytic scores (used by the Table 3
    /// sensitivity study).
    pub fn sweep(&self, g: usize) -> Vec<Config> {
        let (scored, _) = plansearch::sweep(self, g, None);
        scored.into_iter().map(|(cfg, _)| cfg).collect()
    }

    /// The best configuration for `g` GPUs by total throughput.
    ///
    /// # Errors
    ///
    /// Fails when no pipeline depth fits memory on `g` GPUs.
    pub fn best_config(&self, g: usize) -> Result<Config, VarunaError> {
        plansearch::plan(self, g, None, false).map(|(cfg, ..)| cfg)
    }

    /// Like [`Planner::best_config`], but instead of failing outright when
    /// the chosen micro-batch does not fit, degrades gracefully: first it
    /// halves the micro-batch size down to 1, then it enables CPU
    /// optimizer-state offload at `m = 1` — the recovery ladder a morph
    /// uses when capacity drops below what the preferred configuration
    /// needs.
    ///
    /// # Errors
    ///
    /// Fails only when no rung of the ladder fits `g` GPUs.
    pub fn best_config_with_fallback(
        &self,
        g: usize,
    ) -> Result<(Config, FallbackLevel), VarunaError> {
        plansearch::plan(self, g, None, true).map(|(cfg, level, _)| (cfg, level))
    }

    /// The error of a planning event that found no feasible candidate.
    pub(crate) fn no_feasible(&self, g: usize) -> VarunaError {
        VarunaError::NoFeasibleConfig {
            gpus: g,
            reason: format!(
                "{} ({}B params) has no memory-feasible pipeline depth",
                self.model.name,
                self.model.params_billions()
            ),
        }
    }
}

/// How far down the recovery ladder
/// [`Planner::best_config_with_fallback`] had to go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FallbackLevel {
    /// The preferred configuration fit as-is.
    None,
    /// The micro-batch size was reduced to the carried value.
    ReducedMicroBatch(usize),
    /// CPU optimizer-state offload was enabled at `m = 1`.
    Offload,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarunaCluster;
    use varuna_models::ModelZoo;

    fn planner_for(model: &TransformerConfig, gpus: usize) -> (TransformerConfig, Calibration) {
        let calib = Calibration::profile(model, &VarunaCluster::commodity_1gpu(gpus));
        (model.clone(), calib)
    }

    #[test]
    fn best_config_fits_available_gpus_and_batch() {
        let (model, calib) = planner_for(&ModelZoo::gpt2_2_5b(), 36);
        let p = Planner::new(&model, &calib).batch_size(8192);
        let cfg = p.best_config(36).unwrap();
        assert!(cfg.gpus_used() <= 36);
        assert_eq!(cfg.examples, 8192, "M_total preserved");
        assert!(cfg.est_minibatch_time > 0.0);
    }

    #[test]
    fn an_uncalibrated_micro_batch_moves_down_the_ladder() {
        // m = 32 was never profiled; candidates at that size fail with a
        // typed error, so the ladder falls to the first calibrated rung.
        let (model, calib) = planner_for(&ModelZoo::gpt2_8_3b(), 128);
        let p = Planner::new(&model, &calib).batch_size(512).micro_batch(32);
        let err = p.candidate(12, 2).unwrap_err().to_string();
        assert!(
            err.contains("micro-batch size 32 was not calibrated")
                && err.contains("[1, 2, 3, 4, 6, 8, 12, 16]"),
            "{err}"
        );
        assert!(matches!(
            p.best_config(24),
            Err(VarunaError::InvalidConfig(_))
        ));
        let (cfg, level) = p.best_config_with_fallback(24).unwrap();
        assert_eq!(level, FallbackLevel::ReducedMicroBatch(16));
        assert_eq!((cfg.m, cfg.examples), (16, 512));
        assert!(cfg.gpus_used() <= 24);
    }

    #[test]
    fn shallow_depths_are_memory_infeasible_for_8_3b() {
        // 8.3B cannot run at P<10 on 16 GB GPUs; the sweep must start at
        // a deeper pipeline (§4.1's minimum-P constraint).
        let (model, calib) = planner_for(&ModelZoo::gpt2_8_3b(), 72);
        let p = Planner::new(&model, &calib).batch_size(8192).micro_batch(4);
        let sweep = p.sweep(72);
        assert!(!sweep.is_empty());
        let min_p = sweep.iter().map(|c| c.p).min().unwrap();
        assert!(min_p >= 10, "8.3B minimum depth was {min_p}");
        assert!(p.evaluate(6, 12).is_err());
    }

    #[test]
    fn gradient_accumulation_absorbs_resource_changes() {
        // Fewer GPUs => fewer replicas => more micro-batches, same
        // M_total (§4.2).
        let (model, calib) = planner_for(&ModelZoo::gpt2_2_5b(), 128);
        let planner = Planner::new(&model, &calib).batch_size(8192).micro_batch(4);
        let big = planner.evaluate(9, 14).unwrap();
        let small = planner.evaluate(9, 7).unwrap();
        assert_eq!(big.examples, small.examples);
        // Halving D doubles N_m (within ±1 from the ceiling division).
        assert!((small.n_micro as i64 - 2 * big.n_micro as i64).abs() <= 1);
    }

    #[test]
    fn table3_depth_tradeoff_appears_in_the_sweep() {
        // Table 3: at 36 GPUs a 6- or 9-deep pipeline beats 18-deep; the
        // planner must rank 18x2 below the shallower options.
        let (model, calib) = planner_for(&ModelZoo::gpt2_2_5b(), 36);
        let planner = Planner::new(&model, &calib).batch_size(8192).micro_batch(4);
        let t = |p: usize, d: usize| planner.evaluate(p, d).unwrap().throughput();
        assert!(t(6, 6) > t(18, 2), "6x6 should beat 18x2 at 36 GPUs");
        assert!(t(9, 4) > t(18, 2), "9x4 should beat 18x2 at 36 GPUs");
    }

    #[test]
    fn planner_uses_leftover_gpus_wisely() {
        // With 100 GPUs, P=6 uses 96 but P=9 can use 99 — the paper notes
        // total throughput can favor the depth that wastes fewer GPUs.
        let (model, calib) = planner_for(&ModelZoo::gpt2_2_5b(), 100);
        let planner = Planner::new(&model, &calib).batch_size(8192).micro_batch(4);
        let c6 = planner.evaluate(6, 16).unwrap();
        let c9 = planner.evaluate(9, 11).unwrap();
        assert_eq!(c6.gpus_used(), 96);
        assert_eq!(c9.gpus_used(), 99);
    }

    #[test]
    fn errors_are_informative() {
        let (model, calib) = planner_for(&ModelZoo::gpt2_200b(), 8);
        let planner = Planner::new(&model, &calib).batch_size(512).micro_batch(1);
        let err = planner.best_config(8).unwrap_err();
        assert!(err.to_string().contains("gpt2-200b"), "{err}");
    }

    #[test]
    fn fallback_ladder_recovers_infeasible_micro_batches() {
        // 8.3B at m=4 has feasible depths on 72 GPUs, so no fallback.
        let (model, calib) = planner_for(&ModelZoo::gpt2_8_3b(), 72);
        let planner = Planner::new(&model, &calib).batch_size(8192).micro_batch(4);
        let (cfg, level) = planner.best_config_with_fallback(72).unwrap();
        assert_eq!(level, FallbackLevel::None);
        assert!(cfg.gpus_used() <= 72);
    }

    #[test]
    fn fallback_ladder_reaches_offload_for_200b() {
        // 200B cannot fit resident at any micro-batch size; the ladder
        // must land on the offload rung (the paper's 200B configuration).
        let model = ModelZoo::gpt2_200b();
        let calib = Calibration::profile(&model, &VarunaCluster::commodity_1gpu(102));
        let planner = Planner::new(&model, &calib).batch_size(512).micro_batch(2);
        let (cfg, level) = planner.best_config_with_fallback(102).unwrap();
        assert_eq!(level, FallbackLevel::Offload);
        assert!(cfg.offload);
        assert_eq!(cfg.m, 1);
    }

    #[test]
    fn fallback_ladder_still_errors_when_nothing_fits() {
        // 8 GPUs cannot hold 200B even offloaded at m=1 (depth > GPUs).
        let (model, calib) = planner_for(&ModelZoo::gpt2_200b(), 8);
        let planner = Planner::new(&model, &calib).batch_size(512).micro_batch(1);
        assert!(planner.best_config_with_fallback(8).is_err());
    }

    #[test]
    fn offload_enables_the_200b_run() {
        let model = ModelZoo::gpt2_200b();
        let calib = Calibration::profile(&model, &VarunaCluster::commodity_1gpu(102));
        let resident = Planner::new(&model, &calib).batch_size(512).micro_batch(1);
        assert!(
            resident.evaluate(100, 1).is_err(),
            "200B without offload must OOM"
        );
        let offloaded = Planner::new(&model, &calib)
            .batch_size(512)
            .micro_batch(1)
            .offload(true);
        let cfg = offloaded.evaluate(100, 1).unwrap();
        assert_eq!(cfg.gpus_used(), 100);
    }
}
