#![warn(missing_docs)]
//! Network substrate for the Varuna reproduction.
//!
//! The Varuna paper characterizes the fabric connecting GPUs entirely by
//! per-link **bandwidth**, **base latency**, and **jitter** (Section 3,
//! Observation 3), and it models collectives with a ring-allreduce cost that
//! depends on ring size and the number of allreduces in flight per node
//! (Section 4.3, Table 2). This crate provides exactly those abstractions:
//!
//! - [`link`]: link classes (NVLink, PCIe, Ethernet, InfiniBand) and their
//!   bandwidth/latency parameters.
//! - [`jitter`]: deterministic, seedable jitter distributions.
//! - [`topology`]: endpoints grouped into nodes, pair classification, and NIC
//!   capacities.
//! - [`transfer`]: point-to-point transfer cost under contention.
//! - [`collective`]: analytical cost models for ring and hierarchical
//!   allreduce.
//! - [`ring`]: a real (data-plane) ring-allreduce implementation used by the
//!   miniature training engine, verified against a naive reduction.
//! - [`units`]: unit helpers (Gbps, MiB, milliseconds).

pub mod collective;
pub mod jitter;
pub mod link;
pub mod ring;
pub mod topology;
pub mod transfer;
pub mod units;

pub use collective::{allreduce_time, hierarchical_allreduce_time, AllreduceSpec};
pub use jitter::{sample_jitter, JitterModel, PreparedJitter};
pub use link::{Link, LinkClass};
pub use topology::{Endpoint, NodeId, Topology};
pub use transfer::{transfer_time, TransferSpec};
