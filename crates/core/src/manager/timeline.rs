//! Timeline samples (Figure 8) and the recovery machine's states.

use serde::{Deserialize, Serialize};

/// What happened at a timeline point.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimelineEvent {
    /// The job reconfigured to a new `P x D` shape.
    Morph {
        /// New pipeline depth.
        p: usize,
        /// New data-parallel width.
        d: usize,
    },
    /// Capacity changed but the best shape did not (the paper's `p`
    /// markers: a preempted VM was replaced).
    Replacement,
    /// A periodic checkpoint (the paper's throughput spikes).
    Checkpoint,
}

/// One sample of the dynamic training timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelinePoint {
    /// Hours since job start.
    pub t_hours: f64,
    /// GPUs currently granted by the cloud.
    pub gpus_held: usize,
    /// GPUs the active configuration actually uses (`P x D`).
    pub gpus_used: usize,
    /// Active pipeline depth.
    pub p: usize,
    /// Active data-parallel width.
    pub d: usize,
    /// Training throughput at this point, examples/sec (0 during
    /// reconfiguration downtime).
    pub ex_per_sec: f64,
    /// Per-GPU throughput over the GPUs in use.
    pub ex_per_sec_per_gpu: f64,
    /// What this sample marks.
    pub event: TimelineEvent,
}

/// Where the manager's recovery machine currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ManagerState {
    /// A configuration is active and training progresses.
    Running,
    /// No feasible configuration: the job is paused and replanning
    /// retries follow the morph backoff schedule.
    Degraded,
}
