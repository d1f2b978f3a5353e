//! The training-job facade: from a planned [`Config`] to emulated
//! mini-batches.
//!
//! Builds the placed job (stage specs from calibration, contiguous
//! placement, memory-derived stash windows), generates the static Varuna
//! schedule, and runs mini-batches on the discrete-event emulator with the
//! opportunistic policy — or with any other
//! [`SchedulePolicy`](varuna_sched::policy::SchedulePolicy) factory,
//! which is how the baseline comparisons hold everything else constant.

use varuna_exec::job::{PlacedJob, StageSpec};
use varuna_exec::metrics::Throughput;
use varuna_exec::pipeline::{
    simulate_minibatch, simulate_schedule, simulate_schedule_on_bus, MinibatchResult, SimError,
    SimOptions,
};
use varuna_exec::placement::Placement;
use varuna_obs::{Event, EventBus, EventKind};
use varuna_sched::policy::PolicyFactory;

use crate::calibrate::Calibration;
use crate::error::VarunaError;
use crate::planner::Config;
use crate::simulator::{plan_schedule, SimInput};
use crate::VarunaCluster;
use varuna_sched::schedule::StaticSchedule;

/// Statistics of an emulated steady-state run with checkpointing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyStats {
    /// Mini-batches executed.
    pub minibatches: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Mean mini-batch wall-clock time, seconds.
    pub per_minibatch: f64,
    /// Foreground pause per checkpoint, seconds.
    pub checkpoint_pause: f64,
    /// Total wall clock including checkpoint pauses, seconds.
    pub total_time: f64,
    /// Examples processed.
    pub examples: f64,
    /// Fraction of wall clock spent in checkpoint pauses.
    pub overhead: f64,
}

impl SteadyStats {
    /// Effective examples per second including checkpoint overhead.
    pub fn throughput(&self) -> f64 {
        self.examples / self.total_time
    }
}

/// A planned job bound to a cluster, ready to execute.
pub struct TrainingJob {
    /// The planned configuration.
    pub config: Config,
    /// The placed job the emulator executes.
    pub job: PlacedJob,
    /// The offline-enumerated Varuna schedule.
    pub schedule: StaticSchedule,
    model: varuna_models::TransformerConfig,
}

impl TrainingJob {
    /// Binds `config` to `cluster`.
    ///
    /// # Errors
    ///
    /// Fails when the cluster has fewer GPUs than the configuration needs,
    /// a stage does not fit memory, or the calibration yields a stage the
    /// emulator cannot schedule (a negative or non-finite time or size;
    /// see [`PlacedJob::try_validate`]) — all as errors, never panics.
    pub fn build(
        calib: &Calibration,
        cluster: &VarunaCluster,
        config: Config,
    ) -> Result<Self, VarunaError> {
        if cluster.gpus() < config.gpus_used() {
            return Err(VarunaError::InvalidConfig(format!(
                "config needs {} GPUs, cluster has {}",
                config.gpus_used(),
                cluster.gpus()
            )));
        }
        let m = config.m;
        let boundary = calib.model.boundary_activation_bytes() * m as f64;
        let mut stages = Vec::with_capacity(config.p);
        for &(lo, hi) in &config.assignment {
            let params = calib.graph.range_params(lo, hi);
            let window = calib.window(lo, hi, m, config.offload)?;
            stages.push(StageSpec {
                fwd_time: calib.fwd_time(lo, hi, m),
                bwd_time: calib.bwd_time(lo, hi, m),
                recompute_time: calib.fwd_time(lo, hi, m),
                act_bytes: boundary,
                grad_bytes: params as f64 * 2.0,
                params,
                layers: hi - lo,
                stash_window: window,
            });
        }
        let shared_sync_bytes: f64 = calib
            .graph
            .shared
            .iter()
            .map(|s| s.params as f64 * 2.0)
            .sum();
        let offload_bytes = config.offload.then(|| {
            let max_params = stages.iter().map(|s| s.params).max().unwrap_or(0);
            max_params as f64 * 4.0
        });
        let job = PlacedJob {
            stages,
            d: config.d,
            m,
            n_micro: config.n_micro,
            topology: cluster.topology.clone(),
            placement: Placement::one_stage_per_gpu(config.p, config.d),
            shared_sync_bytes,
            offload_bytes,
            stutter: Vec::new(),
        };
        job.try_validate().map_err(VarunaError::InvalidConfig)?;
        // Enumerate the static schedule from the calibrated stage times
        // (§3.2's offline tool): it accounts for the non-uniform stages a
        // balanced partition produces, unlike a unit-time enumeration.
        let schedule = plan_schedule(&SimInput {
            calib,
            assignment: &config.assignment,
            d: config.d,
            m: config.m,
            n_micro: config.n_micro,
            offload: config.offload,
        })?;
        Ok(TrainingJob {
            config,
            job,
            schedule,
            model: calib.model.clone(),
        })
    }

    /// Like [`TrainingJob::build`], but reports a memory rejection as an
    /// [`EventKind::OomKill`] on `bus` (source `Manager`) before returning
    /// the error.
    ///
    /// # Errors
    ///
    /// Same as [`TrainingJob::build`].
    pub fn build_on_bus(
        calib: &Calibration,
        cluster: &VarunaCluster,
        config: Config,
        bus: &mut EventBus,
    ) -> Result<Self, VarunaError> {
        match TrainingJob::build(calib, cluster, config) {
            Err(VarunaError::OutOfMemory(oom)) => {
                bus.emit_with(|| {
                    Event::manager(
                        0.0,
                        EventKind::OomKill {
                            stage: 0,
                            needed_bytes: oom.needed,
                            capacity_bytes: oom.capacity,
                            what: oom.what.clone(),
                        },
                    )
                });
                Err(VarunaError::OutOfMemory(oom))
            }
            other => other,
        }
    }

    /// Per-stage GPU memory footprints of this job (weights + stash at the
    /// scheduled window + recompute working set), for capacity audits.
    pub fn memory_report(&self) -> Vec<varuna_models::memory::StageMemory> {
        self.job
            .stages
            .iter()
            .map(|st| {
                varuna_models::memory::pipeline_stage_memory(
                    &self.model,
                    st.params,
                    st.layers,
                    self.job.m,
                    st.stash_window.min(self.job.n_micro),
                    self.config.offload,
                )
            })
            .collect()
    }

    /// Runs one mini-batch under the Varuna schedule.
    ///
    /// # Errors
    ///
    /// Propagates emulator deadlocks (a schedule bug, not a user error).
    pub fn run_minibatch(
        &self,
        opts: &SimOptions,
    ) -> Result<(MinibatchResult, Throughput), VarunaError> {
        self.with_throughput(simulate_schedule(&self.job, &self.schedule, opts))
    }

    /// Runs one mini-batch under the Varuna schedule, reporting every op,
    /// transfer, and allreduce through `bus` (see
    /// [`simulate_schedule_on_bus`]).
    ///
    /// # Errors
    ///
    /// Propagates emulator deadlocks (a schedule bug, not a user error).
    pub fn run_minibatch_on_bus(
        &self,
        opts: &SimOptions,
        bus: &mut EventBus,
    ) -> Result<(MinibatchResult, Throughput), VarunaError> {
        self.with_throughput(simulate_schedule_on_bus(
            &self.job,
            &self.schedule,
            opts,
            bus,
        ))
    }

    /// Emulates a steady-state training run of `minibatches` mini-batches
    /// with continuous checkpointing (paper §4.5): per-mini-batch times are
    /// sampled from the emulator under distinct jitter seeds, and the
    /// sharded checkpoint pause is charged every
    /// `ckpt.interval_minibatches`.
    ///
    /// # Errors
    ///
    /// Propagates emulator failures.
    pub fn run_steady(
        &self,
        minibatches: u64,
        ckpt: &crate::checkpoint::CheckpointPolicy,
    ) -> Result<SteadyStats, VarunaError> {
        const SAMPLES: u64 = 3;
        let mut sum = 0.0;
        for seed in 0..SAMPLES {
            let opts = SimOptions {
                seed,
                ..SimOptions::default()
            };
            let (res, _) = self.run_minibatch(&opts)?;
            sum += res.total_time;
        }
        let per_minibatch = sum / SAMPLES as f64;
        let max_stage_params = self
            .job
            .stages
            .iter()
            .map(|st| st.params)
            .max()
            .unwrap_or(0);
        let pause = ckpt.pause_seconds(max_stage_params, self.job.d)?;
        let checkpoints = minibatches / ckpt.interval_minibatches;
        let compute_time = minibatches as f64 * per_minibatch;
        let pause_time = checkpoints as f64 * pause;
        let examples = minibatches as f64 * self.config.examples as f64;
        Ok(SteadyStats {
            minibatches,
            checkpoints,
            per_minibatch,
            checkpoint_pause: pause,
            total_time: compute_time + pause_time,
            examples,
            overhead: pause_time / (compute_time + pause_time),
        })
    }

    /// Runs one mini-batch under an arbitrary schedule policy (baselines).
    ///
    /// # Errors
    ///
    /// Propagates emulator deadlocks.
    pub fn run_with_policy(
        &self,
        factory: &PolicyFactory<'_>,
        opts: &SimOptions,
    ) -> Result<(MinibatchResult, Throughput), VarunaError> {
        self.with_throughput(simulate_minibatch(&self.job, factory, opts))
    }

    /// Pairs an emulated mini-batch with its throughput, or reports an
    /// emulator deadlock as [`VarunaError::InvalidConfig`].
    fn with_throughput(
        &self,
        res: Result<MinibatchResult, SimError>,
    ) -> Result<(MinibatchResult, Throughput), VarunaError> {
        let res = res.map_err(|e| VarunaError::InvalidConfig(e.to_string()))?;
        // Count `M_total` examples (trailing micro-batches may run short
        // when divisibility forced `n_micro` to round up).
        let tput = Throughput::from_time(
            &self.model,
            self.config.examples as f64,
            self.job.gpus(),
            res.total_time,
        );
        Ok((res, tput))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use varuna_models::ModelZoo;

    fn setup() -> (Calibration, VarunaCluster) {
        let model = ModelZoo::gpt2_2_5b();
        let cluster = VarunaCluster::commodity_1gpu(27);
        let calib = Calibration::profile(&model, &cluster);
        (calib, cluster)
    }

    #[test]
    fn planned_job_executes_on_the_emulator() {
        let (calib, cluster) = setup();
        let cfg = Planner::new(&calib.model.clone(), &calib)
            .batch_size(432)
            .micro_batch(4)
            .evaluate(9, 3)
            .unwrap();
        let job = TrainingJob::build(&calib, &cluster, cfg).unwrap();
        let (res, tput) = job.run_minibatch(&SimOptions::default()).unwrap();
        assert!(res.total_time > 0.0);
        assert!(tput.examples_per_sec_per_gpu > 0.0);
        assert_eq!(tput.gpus, 27);
    }

    #[test]
    fn fast_simulator_estimate_tracks_emulated_time() {
        // The Table 7 property in miniature: estimate within ~10% here
        // (the dedicated experiment binary checks the 5% band over many
        // configurations).
        let (calib, cluster) = setup();
        let cfg = Planner::new(&calib.model.clone(), &calib)
            .batch_size(432)
            .micro_batch(4)
            .evaluate(9, 3)
            .unwrap();
        let est = cfg.est_minibatch_time;
        let job = TrainingJob::build(&calib, &cluster, cfg).unwrap();
        let (res, _) = job.run_minibatch(&SimOptions::default()).unwrap();
        let err = (res.total_time - est).abs() / res.total_time;
        assert!(
            err < 0.10,
            "estimate {est:.2}s vs actual {:.2}s ({err:.1}%)",
            res.total_time
        );
    }

    #[test]
    fn memory_report_fits_the_cluster_gpus() {
        let (calib, cluster) = setup();
        let cfg = Planner::new(&calib.model.clone(), &calib)
            .batch_size(432)
            .micro_batch(4)
            .evaluate(9, 3)
            .unwrap();
        let job = TrainingJob::build(&calib, &cluster, cfg).unwrap();
        let report = job.memory_report();
        assert_eq!(report.len(), 9);
        for (s, mem) in report.iter().enumerate() {
            assert!(
                mem.fits(cluster.gpu_memory()),
                "stage {s} uses {:.1} GiB of {:.1}",
                mem.total() / (1024.0 * 1024.0 * 1024.0),
                cluster.gpu_memory() / (1024.0 * 1024.0 * 1024.0)
            );
            assert!(mem.weights_bytes > 0.0 && mem.stash_bytes > 0.0);
        }
    }

    #[test]
    fn steady_run_charges_checkpoints_but_stays_cheap() {
        // §4.5: sharded checkpointing must not meaningfully tax training.
        let (calib, cluster) = setup();
        let cfg = Planner::new(&calib.model.clone(), &calib)
            .batch_size(432)
            .micro_batch(4)
            .evaluate(9, 3)
            .unwrap();
        let job = TrainingJob::build(&calib, &cluster, cfg).unwrap();
        let ckpt = crate::checkpoint::CheckpointPolicy::default_tuning();
        let stats = job.run_steady(64, &ckpt).unwrap();
        assert_eq!(stats.checkpoints, 4);
        assert!(stats.checkpoint_pause > 0.0);
        assert!(
            stats.overhead < 0.02,
            "sharded checkpointing should cost <2% ({:.3})",
            stats.overhead
        );
        assert!(
            stats.throughput() < stats.examples / (stats.minibatches as f64 * stats.per_minibatch)
        );
    }

    #[test]
    fn undersized_cluster_is_rejected() {
        let (calib, _) = setup();
        let small = VarunaCluster::commodity_1gpu(8);
        let cfg = Planner::new(&calib.model.clone(), &calib)
            .batch_size(432)
            .micro_batch(4)
            .evaluate(9, 3)
            .unwrap();
        assert!(TrainingJob::build(&calib, &small, cfg).is_err());
    }

    #[test]
    fn a_corrupt_calibration_is_an_error_not_a_panic() {
        let (calib, cluster) = setup();
        let cfg = Planner::new(&calib.model.clone(), &calib)
            .batch_size(432)
            .micro_batch(4)
            .evaluate(9, 3)
            .unwrap();
        for x in [f64::NAN, -1.0, f64::INFINITY] {
            let mut bad = calib.clone();
            for row in &mut bad.fwd {
                row.iter_mut().for_each(|t| *t = x);
            }
            match TrainingJob::build(&bad, &cluster, cfg.clone()) {
                Err(VarunaError::InvalidConfig(why)) => assert!(why.contains("fwd_time"), "{why}"),
                other => panic!(
                    "expected InvalidConfig for fwd_time {x}, got {:?}",
                    other.err()
                ),
            }
        }
    }
}
