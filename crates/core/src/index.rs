//! The data index: the metadata file the head node reads to generate the job
//! pool (paper §III-B, "Data Organization").
//!
//! "A data index file is generated after analyzing the data set. It holds
//! metadata such as physical locations (data files), starting offset
//! addresses, size of chunks and number of data units inside the chunks."

use crate::layout::{ChunkMeta, FileMeta, LayoutParams};
use crate::types::{ByteSize, ChunkId, FileId, SiteId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Complete layout metadata for one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataIndex {
    /// Layout parameters the dataset was organized with.
    pub params: LayoutParams,
    /// Per-file metadata, indexed by `FileId.0`.
    pub files: Vec<FileMeta>,
    /// Per-chunk metadata, indexed by `ChunkId.0` (dense, file order).
    pub chunks: Vec<ChunkMeta>,
}

impl DataIndex {
    /// Build an index for a dataset of `total_units` units, split evenly into
    /// `params.n_files` files of whole chunks, with each file placed by
    /// `place(file) -> SiteId`.
    ///
    /// The last chunk of the last file absorbs any remainder units, so every
    /// unit belongs to exactly one chunk.
    pub fn build(
        total_units: u64,
        params: LayoutParams,
        mut place: impl FnMut(FileId) -> SiteId,
    ) -> Result<DataIndex, String> {
        params.validate()?;
        if total_units == 0 {
            return Err("dataset must contain at least one unit".into());
        }
        let upc = params.units_per_chunk;
        let n_chunks = total_units.div_ceil(upc);
        let n_files = u64::from(params.n_files).min(n_chunks);
        // Chunks per file, first `extra` files get one more.
        let base = n_chunks / n_files;
        let extra = n_chunks % n_files;

        let mut files = Vec::with_capacity(n_files as usize);
        let mut chunks = Vec::with_capacity(n_chunks as usize);
        let mut next_chunk: u32 = 0;
        let mut units_left = total_units;
        for f in 0..n_files {
            let file_id = FileId(f as u32);
            let site = place(file_id);
            let n_in_file = base + u64::from(f < extra);
            let mut offset: ByteSize = 0;
            let mut ids = Vec::with_capacity(n_in_file as usize);
            for _ in 0..n_in_file {
                let n_units = upc.min(units_left);
                units_left -= n_units;
                let len = n_units * ByteSize::from(params.unit_size);
                let id = ChunkId(next_chunk);
                next_chunk += 1;
                ids.push(id);
                chunks.push(ChunkMeta { id, file: file_id, offset, len, n_units, site });
                offset += len;
            }
            files.push(FileMeta { id: file_id, site, len: offset, chunks: ids });
        }
        debug_assert_eq!(units_left, 0);
        let idx = DataIndex { params, files, chunks };
        idx.validate()?;
        Ok(idx)
    }

    /// Total number of chunks (== jobs).
    #[must_use]
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Total number of data units across all chunks.
    #[must_use]
    pub fn total_units(&self) -> u64 {
        self.chunks.iter().map(|c| c.n_units).sum()
    }

    /// Total dataset size in bytes.
    #[must_use]
    pub fn total_bytes(&self) -> ByteSize {
        self.chunks.iter().map(|c| c.len).sum()
    }

    /// Metadata for a chunk.
    #[must_use]
    pub fn chunk(&self, id: ChunkId) -> &ChunkMeta {
        &self.chunks[id.0 as usize]
    }

    /// Metadata for a file.
    #[must_use]
    pub fn file(&self, id: FileId) -> &FileMeta {
        &self.files[id.0 as usize]
    }

    /// Number of chunks hosted at each site.
    #[must_use]
    pub fn chunks_per_site(&self) -> BTreeMap<SiteId, usize> {
        let mut m = BTreeMap::new();
        for c in &self.chunks {
            *m.entry(c.site).or_insert(0) += 1;
        }
        m
    }

    /// The sites that host data — those with a file that holds chunks — from
    /// the files alone, in O(files): a run needs them, not a count per chunk.
    #[must_use]
    pub fn host_sites(&self) -> BTreeSet<SiteId> {
        self.files.iter().filter(|f| !f.chunks.is_empty()).map(|f| f.site).collect()
    }

    /// Fraction of bytes hosted at `site`.
    #[must_use]
    pub fn byte_fraction_at(&self, site: SiteId) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            return 0.0;
        }
        let at: ByteSize = self.chunks.iter().filter(|c| c.site == site).map(|c| c.len).sum();
        at as f64 / total as f64
    }

    /// Check internal consistency: dense chunk ids in file order, chunk/file
    /// site agreement, contiguous non-overlapping chunk ranges per file, and
    /// file lengths matching their chunks.
    pub fn validate(&self) -> Result<(), String> {
        for (i, c) in self.chunks.iter().enumerate() {
            if c.id.0 as usize != i {
                return Err(format!("chunk ids not dense at position {i}"));
            }
            if c.len != c.n_units * ByteSize::from(self.params.unit_size) {
                return Err(format!("{}: len != n_units * unit_size", c.id));
            }
            if c.n_units == 0 {
                return Err(format!("{}: empty chunk", c.id));
            }
        }
        for (i, f) in self.files.iter().enumerate() {
            if f.id.0 as usize != i {
                return Err(format!("file ids not dense at position {i}"));
            }
            let mut offset = 0;
            for &cid in &f.chunks {
                let c = self.chunk(cid);
                if c.file != f.id {
                    return Err(format!("{cid} listed in {} but points at {}", f.id, c.file));
                }
                if c.site != f.site {
                    return Err(format!("{cid} site differs from its file's site"));
                }
                if c.offset != offset {
                    return Err(format!("{cid}: offset {} but expected {offset}", c.offset));
                }
                offset = c.end();
            }
            if f.len != offset {
                return Err(format!("{}: len {} but chunks cover {offset}", f.id, f.len));
            }
        }
        let listed: usize = self.files.iter().map(|f| f.chunks.len()).sum();
        if listed != self.chunks.len() {
            return Err("some chunks belong to no file".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(unit: u32, upc: u64, nf: u32) -> LayoutParams {
        LayoutParams { unit_size: unit, units_per_chunk: upc, n_files: nf }
    }

    /// Replicates the paper's setup: 12 GB in 32 files, 96 jobs total.
    #[test]
    fn paper_scale_index_has_96_jobs_in_32_files() {
        // 96 chunks of 128 MiB = 12 GiB; unit = 64 B.
        let upc = (128 * 1024 * 1024) / 64;
        let total_units = 96 * upc;
        let idx = DataIndex::build(total_units, params(64, upc, 32), |_| SiteId::LOCAL).unwrap();
        assert_eq!(idx.n_chunks(), 96);
        assert_eq!(idx.files.len(), 32);
        assert_eq!(idx.total_bytes(), 12 * 1024 * 1024 * 1024);
        assert!(idx.files.iter().all(|f| f.chunks.len() == 3));
    }

    #[test]
    fn remainder_units_form_a_short_final_chunk() {
        let idx = DataIndex::build(10, params(4, 4, 2), |_| SiteId::LOCAL).unwrap();
        // 10 units / 4 per chunk = 3 chunks (4, 4, 2 units).
        assert_eq!(idx.n_chunks(), 3);
        assert_eq!(idx.total_units(), 10);
        assert_eq!(idx.chunks[2].n_units, 2);
        assert_eq!(idx.total_bytes(), 40);
    }

    #[test]
    fn more_files_than_chunks_collapses_file_count() {
        let idx = DataIndex::build(3, params(4, 1, 8), |_| SiteId::LOCAL).unwrap();
        assert_eq!(idx.n_chunks(), 3);
        assert_eq!(idx.files.len(), 3);
    }

    #[test]
    fn placement_controls_site_fractions() {
        // 8 files, first 4 local, last 4 cloud -> 50/50 split by bytes.
        let idx = DataIndex::build(64, params(8, 2, 8), |f| {
            if f.0 < 4 {
                SiteId::LOCAL
            } else {
                SiteId::CLOUD
            }
        })
        .unwrap();
        assert!((idx.byte_fraction_at(SiteId::LOCAL) - 0.5).abs() < 1e-9);
        assert!((idx.byte_fraction_at(SiteId::CLOUD) - 0.5).abs() < 1e-9);
        let per = idx.chunks_per_site();
        assert_eq!(per[&SiteId::LOCAL], per[&SiteId::CLOUD]);
    }

    #[test]
    fn build_rejects_empty_dataset() {
        assert!(DataIndex::build(0, params(4, 4, 2), |_| SiteId::LOCAL).is_err());
    }

    #[test]
    fn validate_catches_site_mismatch() {
        let mut idx = DataIndex::build(8, params(4, 2, 2), |_| SiteId::LOCAL).unwrap();
        idx.chunks[0].site = SiteId::CLOUD;
        assert!(idx.validate().is_err());
    }

    #[test]
    fn validate_catches_len_mismatch() {
        let mut idx = DataIndex::build(8, params(4, 2, 2), |_| SiteId::LOCAL).unwrap();
        idx.chunks[1].len += 1;
        assert!(idx.validate().is_err());
    }

    #[test]
    fn chunk_and_file_accessors_agree() {
        let idx = DataIndex::build(32, params(4, 2, 4), |_| SiteId::LOCAL).unwrap();
        for f in &idx.files {
            for &cid in &f.chunks {
                assert_eq!(idx.chunk(cid).file, f.id);
            }
        }
    }
}
