#![warn(missing_docs)]
//! Fleet control plane: many Varuna jobs, one shared spot market.
//!
//! The paper trains *one* job on leftover spot capacity. This crate
//! scales that story out: N concurrent training jobs compete for one
//! shared, contended spot market, and a global **arbiter** owns the
//! capacity they fight over. Each job keeps its own [`varuna::Manager`]
//! (planning, morphing, checkpoint pricing, degraded-mode recovery,
//! optionally the simulator-in-the-loop plan oracle) while the fleet
//! layer decides *how many* GPUs each job holds at every instant:
//!
//! - [`arbiter`] — weighted max-min fair shares with a configurable
//!   starvation bound; only jobs above their entitlement are
//!   preemptible by the arbiter,
//! - [`policy`] — where GPUs come from: spot only, on-demand only, or
//!   spot with on-demand fallback up to each job's throughput floor,
//! - [`sim`] — the deterministic discrete-event fleet loop over a
//!   shared [`varuna_cluster::trace::ClusterTrace`], driving each
//!   manager through [`varuna::Manager::on_external_capacity_walled`],
//! - [`chaos`] — fleet-level fault scenarios (correlated preemption
//!   bursts across jobs) reusing the `varuna-chaos` injector on the
//!   shared market,
//! - [`wal`] — the combined write-ahead log: fleet allocation decisions
//!   and every job manager's plan-attempt records in one shared,
//!   sequence-numbered stream, so [`sim::recover_fleet`] rebuilds a
//!   killed control plane exactly from the surviving log prefix.
//!
//! Everything is deterministic: same fleet config + same market trace ⇒
//! byte-identical event streams and digests, so fleet runs regress like
//! golden tests.
//!
//! # Example
//!
//! ```
//! use varuna_cluster::trace::ClusterTrace;
//! use varuna_fleet::{FleetConfig, JobSpec, ProvisionPolicy};
//! use varuna_models::ModelZoo;
//!
//! let job = |name: &str| JobSpec {
//!     name: name.to_string(),
//!     model: ModelZoo::gpt2_355m(),
//!     m_total: 512,
//!     micro: 4,
//!     weight: 1.0,
//!     demand_gpus: 8,
//!     floor_gpus: 2,
//! };
//! let cfg = FleetConfig::new(vec![job("a"), job("b")])
//!     .with_policy(ProvisionPolicy::SpotWithFallback);
//! let market = ClusterTrace::generate_spot_1gpu(12, 16, 2.0, 15.0, 7);
//! let outcome = varuna_fleet::run_fleet(&cfg, &market).unwrap();
//! assert_eq!(outcome.capacity_violations, 0);
//! assert_eq!(outcome.fairness_violations, 0);
//! ```

pub mod arbiter;
pub mod chaos;
pub mod error;
pub mod job;
pub mod policy;
pub mod sim;
pub mod wal;

pub use arbiter::{fair_shares, ArbiterConfig, JobDemand};
pub use chaos::{run_fleet_chaos, FleetChaosRun};
pub use error::FleetError;
pub use job::JobSpec;
pub use policy::ProvisionPolicy;
pub use sim::{
    recover_fleet, run_fleet, run_fleet_traced, run_fleet_walled, FleetConfig, FleetOutcome,
    FleetRun, FleetStreamCheck, JobOutcome, StreamCheck,
};
pub use wal::{FleetWal, FleetWalRecord, JobWalView};
