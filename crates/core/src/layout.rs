//! Data organization metadata: files → chunks → units (paper §III-B).
//!
//! The dataset is divided into *files* (unit of placement and of the
//! contention heuristic), each file into logical *chunks* (sized to the
//! memory available on a compute unit; one chunk == one job), and each chunk
//! into fixed-size *units* — the smallest atomically processable elements.
//! Units are further grouped at run time into cache-sized *unit groups*
//! before being handed to the reduction layer.

use crate::types::{ByteSize, ChunkId, FileId, SiteId};
use serde::{Deserialize, Serialize};

/// Layout metadata for one file of the dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileMeta {
    /// The file's identifier.
    pub id: FileId,
    /// Site whose storage currently hosts the file.
    pub site: SiteId,
    /// Total byte length of the file.
    pub len: ByteSize,
    /// Ids of the chunks stored in this file, in physical order.
    pub chunks: Vec<ChunkId>,
}

/// Layout metadata for one chunk (the job granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkMeta {
    /// The chunk's identifier (also its job id).
    pub id: ChunkId,
    /// File the chunk physically lives in.
    pub file: FileId,
    /// Byte offset of the chunk within its file.
    pub offset: ByteSize,
    /// Byte length of the chunk.
    pub len: ByteSize,
    /// Number of data units in the chunk (`len == n_units * unit_size`).
    pub n_units: u64,
    /// Site whose storage hosts the chunk (same as its file's site).
    pub site: SiteId,
}

impl ChunkMeta {
    /// Whether the chunk is local to `site` (no inter-site retrieval needed).
    #[must_use]
    pub fn is_local_to(&self, site: SiteId) -> bool {
        self.site == site
    }

    /// End offset (exclusive) of the chunk within its file.
    #[must_use]
    pub fn end(&self) -> ByteSize {
        self.offset + self.len
    }
}

/// Parameters controlling how a dataset is cut into files/chunks/units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayoutParams {
    /// Size in bytes of one data unit (one record).
    pub unit_size: u32,
    /// Target units per chunk (chunk byte size = `units_per_chunk * unit_size`),
    /// chosen from the memory available on compute units.
    pub units_per_chunk: u64,
    /// Number of files the dataset is split into.
    pub n_files: u32,
}

impl LayoutParams {
    /// Chunk size in bytes implied by the parameters.
    #[must_use]
    pub fn chunk_bytes(&self) -> ByteSize {
        self.units_per_chunk * ByteSize::from(self.unit_size)
    }

    /// Validate the parameters, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.unit_size == 0 {
            return Err("unit_size must be non-zero".into());
        }
        if self.units_per_chunk == 0 {
            return Err("units_per_chunk must be non-zero".into());
        }
        if self.n_files == 0 {
            return Err("n_files must be non-zero".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_meta_locality_and_end() {
        let c = ChunkMeta {
            id: ChunkId(0),
            file: FileId(0),
            offset: 128,
            len: 256,
            n_units: 8,
            site: SiteId::CLOUD,
        };
        assert!(c.is_local_to(SiteId::CLOUD));
        assert!(!c.is_local_to(SiteId::LOCAL));
        assert_eq!(c.end(), 384);
    }

    #[test]
    fn layout_params_chunk_bytes() {
        let p = LayoutParams { unit_size: 32, units_per_chunk: 1024, n_files: 4 };
        assert_eq!(p.chunk_bytes(), 32 * 1024);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn layout_params_validation_rejects_zeroes() {
        let ok = LayoutParams { unit_size: 8, units_per_chunk: 2, n_files: 1 };
        assert!(ok.validate().is_ok());
        assert!(LayoutParams { unit_size: 0, ..ok }.validate().is_err());
        assert!(LayoutParams { units_per_chunk: 0, ..ok }.validate().is_err());
        assert!(LayoutParams { n_files: 0, ..ok }.validate().is_err());
    }
}
