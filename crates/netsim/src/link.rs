//! Point-to-point link specifications and transfer-time arithmetic.
//!
//! All the paper's communication overheads — head↔master control traffic,
//! reduction-object exchange at global reduction, and remote chunk retrieval
//! — are functions of *(latency, bandwidth, bytes)*. [`LinkSpec::transfer_time`]
//! is the single source of that arithmetic, and [`crate::Pipe`] the single
//! place a transfer is charged with it, under the real-time throttle and the
//! discrete-event simulator alike.

use serde::{Deserialize, Serialize};

/// Seconds.
pub type Seconds = f64;

/// A unidirectional link (or a storage access path) with fixed latency and
/// bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// One-way latency in seconds charged per message/request.
    pub latency: Seconds,
    /// Sustained bandwidth in bytes per second.
    pub bandwidth: f64,
}

impl LinkSpec {
    /// # Panics
    /// Panics on non-positive bandwidth or negative latency.
    #[must_use]
    pub fn new(latency: Seconds, bandwidth: f64) -> LinkSpec {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        assert!(latency >= 0.0, "latency must be non-negative");
        LinkSpec { latency, bandwidth }
    }

    /// Time for one message of `bytes` payload: `latency + bytes/bandwidth`.
    #[must_use]
    pub fn transfer_time(&self, bytes: u64) -> Seconds {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// Built-in link profiles, calibrated to the paper's testbed (§IV-A):
/// an Infiniband campus cluster with a dedicated SATA-SCSI storage node,
/// EC2 m1.large instances rated "high I/O", S3 object storage, and the
/// commodity WAN between Ohio and AWS circa 2011.
pub mod profiles {
    use super::LinkSpec;

    /// One S3 GET connection from EC2: ~25 MB/s with ~30 ms time-to-first-
    /// byte. Parallel ranged GETs aggregate (paper: "multiple retrieval
    /// threads, to capitalize on the fast network interconnects").
    #[must_use]
    pub fn s3_connection() -> LinkSpec {
        LinkSpec::new(30e-3, 25.0e6)
    }

    /// Aggregate S3 throughput one host can reach with enough connections.
    #[must_use]
    pub fn s3_host_cap() -> LinkSpec {
        LinkSpec::new(30e-3, 90.0e6)
    }

    /// WAN between the campus cluster and AWS: ~40 ms one way, ~50 MB/s
    /// (the paper notes bandwidth to cloud storage "is quite limited today").
    #[must_use]
    pub fn wan() -> LinkSpec {
        LinkSpec::new(40e-3, 50.0e6)
    }

    /// In-process "loopback" for co-located components.
    #[must_use]
    pub fn loopback() -> LinkSpec {
        LinkSpec::new(1e-7, 20.0e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_latency_plus_serialization() {
        let l = LinkSpec::new(0.1, 1000.0);
        assert!((l.transfer_time(500) - 0.6).abs() < 1e-12);
        assert!((l.transfer_time(0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn s3_parallel_beats_single_connection() {
        // 8 parallel ranged GETs at the host cap beat one connection.
        let chunk = 64 << 20;
        let single = profiles::s3_connection().transfer_time(chunk);
        let parallel = profiles::s3_host_cap().transfer_time(chunk); // host cap
        assert!(parallel < single);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_zero_bandwidth() {
        let _ = LinkSpec::new(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "latency must be non-negative")]
    fn rejects_negative_latency() {
        let _ = LinkSpec::new(-0.1, 1.0);
    }
}
