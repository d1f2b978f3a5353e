//! Fleet-level error types.

use std::fmt;

use varuna::WalError;
use varuna_cluster::error::ClusterError;

/// Everything that can go wrong assembling or running a fleet.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// A job spec failed validation.
    InvalidSpec {
        /// The offending job's name.
        job: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The fleet-level configuration is unusable.
    InvalidConfig {
        /// What was wrong with it.
        reason: String,
    },
    /// A cluster-layer operation (trace handling, lease bookkeeping)
    /// failed.
    Cluster(ClusterError),
    /// A fleet log being recovered does not match the run replaying it
    /// (see [`varuna::WalError::Diverged`]).
    Wal(WalError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::InvalidSpec { job, reason } => {
                write!(f, "invalid job spec `{job}`: {reason}")
            }
            FleetError::InvalidConfig { reason } => write!(f, "invalid fleet config: {reason}"),
            FleetError::Cluster(e) => write!(f, "cluster error: {e}"),
            FleetError::Wal(e) => write!(f, "fleet write-ahead log: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<ClusterError> for FleetError {
    fn from(e: ClusterError) -> Self {
        FleetError::Cluster(e)
    }
}

impl From<WalError> for FleetError {
    fn from(e: WalError) -> Self {
        FleetError::Wal(e)
    }
}
