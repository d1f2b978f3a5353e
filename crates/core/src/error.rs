//! Error types of the Varuna core.

use varuna_exec::oom::OomError;

use crate::wal::WalError;

/// Errors surfaced by planning, calibration, and job management.
#[derive(Debug, Clone, PartialEq)]
pub enum VarunaError {
    /// No configuration of the model fits the given GPUs.
    NoFeasibleConfig {
        /// GPUs that were available.
        gpus: usize,
        /// Why the tightest candidate failed.
        reason: String,
    },
    /// A specific stage does not fit GPU memory.
    OutOfMemory(OomError),
    /// The requested configuration is shape-invalid.
    InvalidConfig(String),
    /// A write-ahead log being recovered does not match the run replaying
    /// it (see [`crate::wal::WalError::Diverged`]).
    Wal(WalError),
}

impl std::fmt::Display for VarunaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VarunaError::NoFeasibleConfig { gpus, reason } => {
                write!(f, "no feasible configuration on {gpus} GPUs: {reason}")
            }
            VarunaError::OutOfMemory(e) => write!(f, "{e}"),
            VarunaError::InvalidConfig(s) => write!(f, "invalid configuration: {s}"),
            VarunaError::Wal(e) => write!(f, "write-ahead log: {e}"),
        }
    }
}

impl std::error::Error for VarunaError {}

impl From<WalError> for VarunaError {
    fn from(e: WalError) -> Self {
        VarunaError::Wal(e)
    }
}

impl From<OomError> for VarunaError {
    fn from(e: OomError) -> Self {
        VarunaError::OutOfMemory(e)
    }
}

impl From<varuna_cluster::ClusterError> for VarunaError {
    fn from(e: varuna_cluster::ClusterError) -> Self {
        match e {
            varuna_cluster::ClusterError::InvalidConfig(s) => VarunaError::InvalidConfig(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = VarunaError::NoFeasibleConfig {
            gpus: 4,
            reason: "model too large".into(),
        };
        assert!(e.to_string().contains("4 GPUs"));
        let e = VarunaError::InvalidConfig("p > cutpoints".into());
        assert!(e.to_string().contains("p > cutpoints"));
    }

    #[test]
    fn cluster_errors_convert_to_invalid_config() {
        let e: VarunaError =
            varuna_cluster::ClusterError::InvalidConfig("zero hosts".into()).into();
        assert!(matches!(e, VarunaError::InvalidConfig(_)));
        assert!(e.to_string().contains("zero hosts"));
    }
}
