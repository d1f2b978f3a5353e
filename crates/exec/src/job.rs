//! Stage specifications and placed jobs: the emulator's input.

use serde::{Deserialize, Serialize};
use varuna_models::efficiency::GpuModel;
use varuna_models::CutpointGraph;
use varuna_net::Topology;

use crate::placement::Placement;

/// Per-stage costs of one pipeline stage, for one micro-batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageSpec {
    /// Forward compute time, seconds (healthy GPU).
    pub fwd_time: f64,
    /// Backward compute time, seconds.
    pub bwd_time: f64,
    /// Recompute time, seconds (≈ forward).
    pub recompute_time: f64,
    /// Boundary activation bytes sent to the next stage per micro-batch.
    pub act_bytes: f64,
    /// Data-parallel gradient allreduce payload (fp16 gradients).
    pub grad_bytes: f64,
    /// Parameters owned by the stage.
    pub params: u64,
    /// Transformer blocks in the stage.
    pub layers: usize,
    /// Maximum input-activation stashes GPU memory allows (forward-ahead
    /// window); `usize::MAX` when memory is not the binding constraint.
    pub stash_window: usize,
}

/// A fully specified training job ready to simulate.
#[derive(Debug, Clone)]
pub struct PlacedJob {
    /// Pipeline stages, in order.
    pub stages: Vec<StageSpec>,
    /// Data-parallel replicas per stage.
    pub d: usize,
    /// Micro-batch size.
    pub m: usize,
    /// Micro-batches per replica per mini-batch.
    pub n_micro: usize,
    /// The fabric the job runs on.
    pub topology: Topology,
    /// GPU assignment.
    pub placement: Placement,
    /// Tied-parameter sync payload between first and last stage per
    /// replica, bytes (0 = no shared parameters).
    pub shared_sync_bytes: f64,
    /// Bytes per stage moved to/from CPU at mini-batch end when optimizer
    /// state is offloaded (the 200B configuration); `None` = resident.
    pub offload_bytes: Option<f64>,
    /// Per-endpoint compute slowdown factors (fail-stutter); empty = all
    /// healthy.
    pub stutter: Vec<f64>,
}

impl PlacedJob {
    /// Pipeline depth `P`.
    pub fn p(&self) -> usize {
        self.stages.len()
    }

    /// Total GPUs used: `P × D`.
    pub fn gpus(&self) -> usize {
        self.p() * self.d
    }

    /// Examples per mini-batch: `m × N_m × D`.
    pub fn minibatch_examples(&self) -> usize {
        self.m * self.n_micro * self.d
    }

    /// Compute slowdown of the GPU hosting `(stage, replica)`.
    pub fn stutter_of(&self, stage: usize, replica: usize) -> f64 {
        let e = self.placement.endpoint(stage, replica);
        self.stutter.get(e).copied().unwrap_or(1.0)
    }

    /// Checks shape invariants, returning a description of the first
    /// violation instead of panicking — the form recovery paths use to
    /// reject a candidate configuration without aborting the run.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the job is inconsistent (zero
    /// stages/replicas/micro-batches, a topology with too few GPUs, or a
    /// placement built for a different shape) or carries a value the
    /// emulator cannot schedule: a stage time or byte size that is
    /// negative or not finite, or a stutter factor that is not finite and
    /// positive.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("job needs at least one stage".to_string());
        }
        if self.d == 0 {
            return Err("job needs at least one replica".to_string());
        }
        if self.n_micro == 0 {
            return Err("job needs at least one micro-batch".to_string());
        }
        if self.m == 0 {
            return Err("micro-batch size must be positive".to_string());
        }
        if self.topology.num_gpus() < self.gpus() {
            return Err(format!(
                "topology has {} GPUs but the job needs {}",
                self.topology.num_gpus(),
                self.gpus()
            ));
        }
        if self.placement.p() != self.p() {
            return Err(format!(
                "placement was built for pipeline depth {} but the job has {}",
                self.placement.p(),
                self.p()
            ));
        }
        if self.placement.d() < self.d {
            return Err("placement has too few replicas".to_string());
        }
        let usable = |x: f64| x.is_finite() && x >= 0.0;
        for (s, st) in self.stages.iter().enumerate() {
            let fields = [
                ("fwd_time", st.fwd_time),
                ("bwd_time", st.bwd_time),
                ("recompute_time", st.recompute_time),
                ("act_bytes", st.act_bytes),
                ("grad_bytes", st.grad_bytes),
            ];
            if let Some((name, x)) = fields.into_iter().find(|&(_, x)| !usable(x)) {
                return Err(format!(
                    "stage {s} {name} must be finite and non-negative, got {x}"
                ));
            }
        }
        if !usable(self.shared_sync_bytes) {
            return Err(format!(
                "shared_sync_bytes must be finite and non-negative, got {}",
                self.shared_sync_bytes
            ));
        }
        if let Some(x) = self.offload_bytes.filter(|&x| !usable(x)) {
            return Err(format!(
                "offload_bytes must be finite and non-negative, got {x}"
            ));
        }
        if let Some((e, x)) = self
            .stutter
            .iter()
            .enumerate()
            .find(|&(_, &x)| !(x.is_finite() && x > 0.0))
        {
            return Err(format!(
                "stutter factor of endpoint {e} must be finite and positive, got {x}"
            ));
        }
        Ok(())
    }

    /// Validates shape invariants.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent job (zero stages/replicas/micro-batches or
    /// a topology with too few GPUs). Use [`PlacedJob::try_validate`] where
    /// a recoverable check is needed.
    pub fn validate(&self) {
        if let Err(why) = self.try_validate() {
            panic!("{why}");
        }
    }

    /// Builds a job by splitting a cut-point graph into `p` stages of
    /// (nearly) equal cut-point count — the naive split used by tests and
    /// baselines. Varuna's planner produces compute-balanced splits
    /// instead.
    #[allow(clippy::too_many_arguments)]
    pub fn uniform_from_graph(
        graph: &CutpointGraph,
        gpu: &GpuModel,
        p: usize,
        d: usize,
        m: usize,
        n_micro: usize,
        topology: Topology,
        placement: Placement,
    ) -> Self {
        assert!(p >= 1 && p <= graph.len(), "pipeline depth out of range");
        let hidden = graph.config.hidden;
        let k = graph.len();
        let mut stages = Vec::with_capacity(p);
        for s in 0..p {
            let lo = s * k / p;
            let hi = (s + 1) * k / p;
            let fwd_flops = graph.range_fwd_flops(lo, hi) * m as f64;
            let params = graph.range_params(lo, hi);
            let fwd = gpu.compute_time(fwd_flops, m, hidden);
            stages.push(StageSpec {
                fwd_time: fwd,
                bwd_time: 2.0 * fwd,
                recompute_time: fwd,
                act_bytes: graph.config.boundary_activation_bytes() * m as f64,
                grad_bytes: params as f64 * 2.0,
                params,
                layers: hi - lo,
                stash_window: usize::MAX,
            });
        }
        let shared_sync_bytes = graph.shared.iter().map(|sp| sp.params as f64 * 2.0).sum();
        PlacedJob {
            stages,
            d,
            m,
            n_micro,
            topology,
            placement,
            shared_sync_bytes,
            offload_bytes: None,
            stutter: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use varuna_models::ModelZoo;
    use varuna_net::Topology;

    fn job(p: usize, d: usize) -> PlacedJob {
        let graph = CutpointGraph::from_transformer(&ModelZoo::gpt2_2_5b());
        let topo = Topology::commodity_1gpu(p * d);
        let placement = Placement::one_stage_per_gpu(p, d);
        PlacedJob::uniform_from_graph(&graph, &GpuModel::v100(), p, d, 4, 8, topo, placement)
    }

    #[test]
    fn uniform_split_covers_all_params() {
        let j = job(9, 2);
        let total: u64 = j.stages.iter().map(|s| s.params).sum();
        assert_eq!(total, ModelZoo::gpt2_2_5b().total_params());
        let layers: usize = j.stages.iter().map(|s| s.layers).sum();
        assert_eq!(layers, 54);
    }

    #[test]
    fn backward_is_twice_forward_and_recompute_equals_forward() {
        let j = job(6, 1);
        for s in &j.stages {
            assert!((s.bwd_time - 2.0 * s.fwd_time).abs() < 1e-12);
            assert_eq!(s.recompute_time, s.fwd_time);
        }
    }

    #[test]
    fn minibatch_examples_is_m_nm_d() {
        let j = job(9, 3);
        assert_eq!(j.minibatch_examples(), 4 * 8 * 3);
        assert_eq!(j.gpus(), 27);
    }

    #[test]
    fn tied_embeddings_produce_shared_sync_payload() {
        let j = job(9, 1);
        assert!(j.shared_sync_bytes > 0.0);
        assert_eq!(j.shared_sync_bytes, (50257 * 1920) as f64 * 2.0);
    }

    #[test]
    fn validate_accepts_consistent_job() {
        job(9, 2).validate();
    }

    #[test]
    #[should_panic(expected = "topology has")]
    fn validate_rejects_undersized_topology() {
        let graph = CutpointGraph::from_transformer(&ModelZoo::gpt2_2_5b());
        let topo = Topology::commodity_1gpu(3);
        let placement = Placement::one_stage_per_gpu(6, 1);
        let j =
            PlacedJob::uniform_from_graph(&graph, &GpuModel::v100(), 6, 1, 2, 4, topo, placement);
        j.validate();
    }

    #[test]
    fn stutter_defaults_to_healthy() {
        let j = job(6, 2);
        assert_eq!(j.stutter_of(3, 1), 1.0);
    }

    #[test]
    fn try_validate_reports_reasons_without_panicking() {
        let mut j = job(6, 2);
        assert!(j.try_validate().is_ok());
        j.m = 0;
        let why = j.try_validate().unwrap_err();
        assert!(why.contains("micro-batch"));
        j.m = 4;
        j.d = 0;
        assert!(j.try_validate().is_err());
    }

    #[test]
    fn try_validate_rejects_values_the_emulator_cannot_schedule() {
        let bad_stage: [fn(&mut StageSpec); 6] = [
            |s| s.fwd_time = f64::NAN,
            |s| s.bwd_time = -1.0,
            |s| s.recompute_time = f64::INFINITY,
            |s| s.act_bytes = f64::NAN,
            |s| s.grad_bytes = -0.5,
            |s| s.fwd_time = f64::NEG_INFINITY,
        ];
        for corrupt in bad_stage {
            let mut j = job(6, 2);
            corrupt(&mut j.stages[3]);
            let why = j.try_validate().unwrap_err();
            assert!(why.contains("stage 3"), "{why}");
        }
        for x in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut j = job(6, 2);
            j.stutter = vec![1.0; 12];
            j.stutter[7] = x;
            let why = j.try_validate().unwrap_err();
            assert!(why.contains("endpoint 7"), "{why}");
        }
        let mut j = job(6, 2);
        j.shared_sync_bytes = f64::NAN;
        assert!(j.try_validate().is_err());
        let mut j = job(6, 2);
        j.offload_bytes = Some(-1.0);
        assert!(j.try_validate().is_err());
        // Zero costs and a slow-but-healthy GPU are legal.
        let mut j = job(6, 2);
        j.stages[0].act_bytes = 0.0;
        j.stutter = vec![2.5; 12];
        assert!(j.try_validate().is_ok());
    }
}
