#![warn(missing_docs)]
//! Varuna: scalable, low-cost training of massive deep learning models.
//!
//! A Rust reproduction of the EuroSys 2022 paper (Athlur, Saran, Sivathanu,
//! Ramjee, Kwatra). Varuna trains massive models on commodity-networked
//! spot VMs by combining:
//!
//! - a jitter-tolerant **pipeline schedule** ([`schedule`], paper §3.2),
//! - **auto-partitioning** of models at cut-points ([`partition`], §5.1),
//! - one-time **scale-invariant calibration** of hardware primitives
//!   ([`calibrate`], §4.3, Table 2),
//! - a fast **parametrized simulator** that predicts mini-batch time for
//!   any configuration ([`simulator`], §4.4),
//! - a **planner** that sweeps configurations in `O(G)` ([`planner`]):
//!   one planning loop ([`plansearch`]) whose candidates are scored either
//!   analytically or by a budgeted, memoized **simulator-in-the-loop
//!   search**, selected by the plan [`oracle`],
//! - correctness-preserving **job morphing** across preemptions
//!   ([`morph`], §4.2),
//! - **continuous checkpointing** sharded across replicas
//!   ([`checkpoint`], §4.5), and
//! - the **manager** that watches heartbeats, handles fail-stutter VMs,
//!   and grows the cluster ([`manager`], §4.6).
//!
//! # Examples
//!
//! ```
//! use varuna::prelude::*;
//!
//! // The model and cluster of the paper's Table 3.
//! let model = ModelZoo::gpt2_2_5b();
//! let cluster = VarunaCluster::commodity_1gpu(36);
//! let calib = Calibration::profile(&model, &cluster);
//! let plan = Planner::new(&model, &calib)
//!     .batch_size(8192)
//!     .best_config(36)
//!     .expect("a 2.5B model fits 36 commodity GPUs");
//! assert!(plan.p * plan.d <= 36);
//! ```

pub mod calibrate;
pub mod checkpoint;
pub mod cutfinder;
pub mod error;
pub mod job;
pub mod manager;
pub mod morph;
pub mod oracle;
pub mod partition;
pub mod planner;
pub mod plansearch;
pub mod simulator;
pub mod wal;

// The schedule enumerator and run-time policy moved to `varuna-sched`;
// this alias keeps the historical `varuna::schedule::*` paths working.
pub use varuna_sched::schedule;

pub use calibrate::Calibration;
pub use checkpoint::{
    ChainFrame, CheckpointError, CheckpointKind, CheckpointPolicy, PartialWrite, RestorePlan,
};
pub use cutfinder::{find_cutpoints, CutReport};
pub use error::VarunaError;
pub use job::TrainingJob;
pub use manager::{GracePolicy, Manager, ManagerState, TimelinePoint};
pub use morph::{MorphBackoff, MorphController, PlanCache};
pub use oracle::Oracle;
pub use partition::balanced_partition;
pub use planner::{Config, FallbackLevel, Planner};
pub use plansearch::{ClusterTemplate, EvalPath, PlanBudget, PlanMetrics, SimSearch};
pub use simulator::estimate_minibatch_time;
pub use varuna_sched::schedule::{generate_schedule, StaticSchedule, VarunaPolicy};
pub use wal::{ManagerWal, RecoveryReport, Wal, WalError, WalIo, WalRecord};

/// The hardware environment a job runs in: a topology plus SKU metadata.
#[derive(Debug, Clone)]
pub struct VarunaCluster {
    /// The network fabric.
    pub topology: varuna_net::Topology,
    /// The VM type.
    pub sku: varuna_cluster::VmSku,
    /// Whether the cluster is billed at spot rates.
    pub spot: bool,
}

impl VarunaCluster {
    /// `n` low-priority 1-GPU VMs (NC6_v3).
    pub fn commodity_1gpu(n: usize) -> Self {
        VarunaCluster {
            topology: varuna_net::Topology::commodity_1gpu(n),
            sku: varuna_cluster::VmSku::nc6_v3(),
            spot: true,
        }
    }

    /// `n_vms` low-priority 4-GPU VMs (NC24_v3).
    pub fn commodity_4gpu(n_vms: usize) -> Self {
        VarunaCluster {
            topology: varuna_net::Topology::commodity_4gpu(n_vms),
            sku: varuna_cluster::VmSku::nc24_v3(),
            spot: true,
        }
    }

    /// `n` dedicated DGX-2 nodes.
    pub fn hypercluster(n: usize) -> Self {
        VarunaCluster {
            topology: varuna_net::Topology::hypercluster(n),
            sku: varuna_cluster::VmSku::dgx2(),
            spot: false,
        }
    }

    /// Total GPUs.
    pub fn gpus(&self) -> usize {
        self.topology.num_gpus()
    }

    /// Usable memory per GPU in bytes.
    pub fn gpu_memory(&self) -> f64 {
        self.sku.gpu_memory
    }
}

/// Convenient re-exports for users of the library.
pub mod prelude {
    pub use crate::calibrate::Calibration;
    pub use crate::job::TrainingJob;
    pub use crate::manager::Manager;
    pub use crate::planner::{Config, Planner};
    pub use crate::VarunaCluster;
    pub use varuna_models::{GpuModel, ModelZoo, TransformerConfig};
    pub use varuna_sched::schedule::{generate_schedule, VarunaPolicy};
}
