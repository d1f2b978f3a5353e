#![warn(missing_docs)]
//! Discrete-event execution emulator for pipeline-parallel training.
//!
//! This crate plays the role of the paper's GPU cluster: it executes a
//! *placed job* — `P` pipeline stages × `D` data-parallel replicas with
//! per-stage compute times and boundary activation sizes — over a
//! [`varuna_net::Topology`], micro-batch by micro-batch, message by
//! message, and reports the mini-batch wall-clock time and memory
//! high-water marks. Every op, transfer, and allreduce is emitted on a
//! `varuna_obs` event bus, so traces and profiles are views over that
//! stream.
//!
//! The schedule that each stage follows is pluggable through
//! [`policy::SchedulePolicy`]: Varuna's static+opportunistic schedule (in
//! the `varuna` crate), GPipe / 1F1B / PipeDream (in `varuna-baselines`),
//! and the built-in greedy reference policy all run on this same engine, so
//! comparisons isolate scheduling differences exactly as the paper's
//! Table 5/6 experiments do.
//!
//! Modules:
//!
//! - [`op`]: pipeline operations.
//! - [`job`]: stage specifications and placed jobs.
//! - [`placement`]: mapping (stage, replica) to GPUs/VMs.
//! - [`policy`]: the schedule policy trait and the greedy reference policy.
//! - [`pipeline`]: the mini-batch simulation driver, which also renders
//!   any policy's unit-time schedule (paper Figure 4).
//! - [`oom`]: activation-stash windows and out-of-memory detection.
//! - [`gantt`]: ASCII Gantt charts (paper Figure 7).
//! - [`metrics`]: throughput and TFLOP/s summaries.
//! - [`background`]: the overlapped checkpoint-write lane (paper §4.5).

pub mod background;
pub mod gantt;
pub mod job;
pub mod metrics;
pub mod oom;
pub mod pipeline;
pub mod placement;

// The scheduling vocabulary lives in `varuna-sched`; these aliases keep
// the historical `varuna_exec::op::*` / `varuna_exec::policy::*` paths
// working for downstream crates.
pub use varuna_sched::{op, policy};

pub use background::{BackgroundLane, LaneCharge};
pub use job::{PlacedJob, StageSpec};
pub use metrics::Throughput;
pub use pipeline::{
    lower_bound, render_unit_schedule, simulate_minibatch, simulate_minibatch_on_bus,
    simulate_schedule, simulate_schedule_on_bus, simulate_schedule_within, MinibatchResult,
    SimOptions,
};
pub use placement::Placement;
pub use varuna_sched::{GreedyPolicy, OpKind, PolicyFactory, SchedulePolicy, StageView};
