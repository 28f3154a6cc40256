//! Fundamental identifier and quantity types shared across the framework.
//!
//! The paper's deployment has two *sites* (the local cluster and the cloud),
//! each hosting compute nodes and possibly storage. Everything in the
//! middleware is addressed by `(SiteId, NodeId)` for compute and by
//! `(FileId, offset)` for data.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a site: a cluster of co-located compute and/or storage
/// resources (e.g. the campus cluster, or an AWS region).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SiteId(pub u16);

impl SiteId {
    /// Conventional id of the local (in-house) cluster.
    pub const LOCAL: SiteId = SiteId(0);
    /// Conventional id of the cloud site.
    pub const CLOUD: SiteId = SiteId(1);

    /// Parse the [`fmt::Display`] spelling back (`local` / `cloud` /
    /// `site<N>`) — the inverse used when reading events JSONL.
    #[must_use]
    pub fn parse(text: &str) -> Option<SiteId> {
        match text {
            "local" => Some(SiteId::LOCAL),
            "cloud" => Some(SiteId::CLOUD),
            _ => text.strip_prefix("site").and_then(|n| n.parse().ok()).map(SiteId),
        }
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SiteId::LOCAL => write!(f, "local"),
            SiteId::CLOUD => write!(f, "cloud"),
            SiteId(n) => write!(f, "site{n}"),
        }
    }
}

/// Identifies a compute node (a worker/slave, a master, or the head) within
/// the whole deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifies one data file of the (logically single) dataset.
///
/// The organizer splits a dataset into several files "to satisfy the compute
/// units' file system requirements" (paper §III-B); files are the unit of
/// placement across sites and of the contention heuristic used when stealing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FileId(pub u32);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file{}", self.0)
    }
}

/// Identifies one chunk (== one job). Chunk ids are dense `0..n_chunks` in
/// file order, so consecutive ids within a file are physically consecutive
/// byte ranges — the property the consecutive-batch assignment exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChunkId(pub u32);

impl ChunkId {
    /// The next chunk id in file order.
    #[must_use]
    pub fn next(self) -> ChunkId {
        ChunkId(self.0 + 1)
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk{}", self.0)
    }
}

/// Byte counts throughout the framework.
pub type ByteSize = u64;

/// Wall-clock or simulated durations, in seconds. A plain `f64` is used so
/// that the threaded runtime (real `Instant` deltas) and the discrete-event
/// simulator (virtual clock) share one stats model.
pub type Seconds = f64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_display_names() {
        assert_eq!(SiteId::LOCAL.to_string(), "local");
        assert_eq!(SiteId::CLOUD.to_string(), "cloud");
        assert_eq!(SiteId(7).to_string(), "site7");
    }

    #[test]
    fn node_and_file_display_names() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(FileId(12).to_string(), "file12");
        assert_eq!(ChunkId(5).to_string(), "chunk5");
    }

    #[test]
    fn chunk_id_next_is_successor() {
        assert_eq!(ChunkId(0).next(), ChunkId(1));
        assert_eq!(ChunkId(41).next(), ChunkId(42));
    }

    #[test]
    fn ids_order_by_inner_value() {
        assert!(ChunkId(3) < ChunkId(10));
        assert!(FileId(0) < FileId(1));
        assert!(SiteId::LOCAL < SiteId::CLOUD);
    }
}
