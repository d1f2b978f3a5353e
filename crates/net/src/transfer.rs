//! Point-to-point transfer cost model.
//!
//! A transfer of `bytes` over a link with one-way latency `l` and available
//! bandwidth `b` completes in `l + jitter + bytes / b`. When several flows
//! leave the same node concurrently they share the node's NIC, modeled as an
//! equal (max-min fair) split — the progressive-filling allocation that TCP
//! approximates on a shared bottleneck.

use serde::{Deserialize, Serialize};

use crate::link::Link;
use crate::units::{Bytes, BytesPerSec, Seconds};

/// Description of one point-to-point transfer for costing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferSpec {
    /// Payload size in bytes.
    pub bytes: Bytes,
    /// Number of flows concurrently sharing the sender-side bottleneck
    /// (including this one). `1` means the flow has the link to itself.
    pub concurrent_flows: usize,
}

impl TransferSpec {
    /// A transfer with exclusive use of the link.
    pub fn exclusive(bytes: Bytes) -> Self {
        TransferSpec {
            bytes,
            concurrent_flows: 1,
        }
    }
}

/// Effective per-flow bandwidth when `flows` flows share capacity `capacity`.
///
/// # Panics
///
/// Panics if `flows` is zero.
#[inline]
pub fn fair_share(capacity: BytesPerSec, flows: usize) -> BytesPerSec {
    assert!(flows > 0, "at least one flow must be present");
    capacity / flows as f64
}

/// Time to complete a transfer over `link`, with `jitter` already sampled.
///
/// The serialization time uses the smaller of the link's own bandwidth and
/// the fair share of the sender bottleneck `bottleneck` across
/// `spec.concurrent_flows` flows.
pub fn transfer_time(
    spec: TransferSpec,
    link: Link,
    bottleneck: BytesPerSec,
    jitter: Seconds,
) -> Seconds {
    assert!(spec.bytes >= 0.0, "transfer size must be non-negative");
    let share = fair_share(bottleneck, spec.concurrent_flows);
    let bw = link.bandwidth.min(share);
    link.latency + jitter + spec.bytes / bw
}

/// Mean transfer time, using the link's mean jitter rather than a sample.
pub fn mean_transfer_time(spec: TransferSpec, link: Link, bottleneck: BytesPerSec) -> Seconds {
    transfer_time(spec, link, bottleneck, link.jitter.mean_delay())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;
    use crate::units::{gbps, mib};

    #[test]
    fn exclusive_transfer_is_latency_plus_serialization() {
        let link = Link {
            bandwidth: gbps(8.0),
            ..Link::ethernet()
        };
        let t = transfer_time(TransferSpec::exclusive(1e9), link, link.bandwidth, 0.0);
        // 1 GB at 1 GB/s plus 0.25 ms latency.
        assert!((t - (1.0 + 0.00025)).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn concurrent_flows_halve_bandwidth() {
        let link = Link::ethernet();
        let solo = transfer_time(
            TransferSpec::exclusive(mib(100.0)),
            link,
            link.bandwidth,
            0.0,
        );
        let shared = transfer_time(
            TransferSpec {
                bytes: mib(100.0),
                concurrent_flows: 2,
            },
            link,
            link.bandwidth,
            0.0,
        );
        let serialization = solo - link.latency;
        assert!((shared - link.latency - 2.0 * serialization).abs() < 1e-9);
    }

    #[test]
    fn link_bandwidth_caps_fair_share() {
        // A huge bottleneck capacity cannot push a flow past the link rate.
        let link = Link::ethernet();
        let t1 = transfer_time(
            TransferSpec::exclusive(mib(10.0)),
            link,
            link.bandwidth,
            0.0,
        );
        let t2 = transfer_time(
            TransferSpec::exclusive(mib(10.0)),
            link,
            link.bandwidth * 100.0,
            0.0,
        );
        assert_eq!(t1, t2);
    }

    #[test]
    fn jitter_adds_directly() {
        let link = Link::ethernet();
        let base = transfer_time(TransferSpec::exclusive(mib(1.0)), link, link.bandwidth, 0.0);
        let jit = transfer_time(
            TransferSpec::exclusive(mib(1.0)),
            link,
            link.bandwidth,
            0.003,
        );
        assert!((jit - base - 0.003).abs() < 1e-12);
    }

    #[test]
    fn zero_bytes_costs_latency_only() {
        let link = Link::infiniband();
        let t = transfer_time(TransferSpec::exclusive(0.0), link, link.bandwidth, 0.0);
        assert_eq!(t, link.latency);
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn zero_flows_rejected() {
        let _ = fair_share(1e9, 0);
    }
}
