//! The storage abstraction slaves retrieve chunks through.
//!
//! A [`ChunkStore`] answers ranged reads against the dataset's files — the
//! same operation whether the bytes live on the cluster's storage node, in
//! Amazon S3, or in memory for tests. Stores are shared across worker
//! threads, so every method takes `&self`.

use bytes::Bytes;
use cloudburst_core::{ByteSize, FileId, SiteId};
use std::io;

/// A ranged-read interface over the dataset's files.
pub trait ChunkStore: Send + Sync {
    /// The site whose storage this is (reads from other sites are "remote").
    fn site(&self) -> SiteId;

    /// A short static name for the backend flavor (`"mem"`, `"file"`,
    /// `"s3sim"`), by which a profiling decorator names the reads it times.
    /// Decorators delegate to their inner store.
    fn kind(&self) -> &'static str {
        "store"
    }

    /// Read `len` bytes of `file` starting at `offset`.
    ///
    /// Implementations must return exactly `len` bytes or an error; short
    /// reads are reported as [`io::ErrorKind::UnexpectedEof`].
    fn read(&self, file: FileId, offset: ByteSize, len: ByteSize) -> io::Result<Bytes>;

    /// Read `out.len()` bytes of `file` at `offset` directly into `out` —
    /// the zero-copy entry point of the reassembly path: the caller hands
    /// each range fetcher a disjoint slice of one pre-allocated chunk
    /// buffer, so the bytes land in their final position.
    ///
    /// The default delegates to [`ChunkStore::read`] and copies once (what
    /// the old `extend_from_slice` reassembly paid anyway); backends that
    /// can fill a caller buffer natively override it.
    fn read_into(&self, file: FileId, offset: ByteSize, out: &mut [u8]) -> io::Result<()> {
        let bytes = self.read(file, offset, out.len() as ByteSize)?;
        out.copy_from_slice(&bytes);
        Ok(())
    }

    /// Total length of `file` in bytes.
    fn file_len(&self, file: FileId) -> io::Result<ByteSize>;

    /// Number of files in the store.
    fn n_files(&self) -> usize;
}

/// Validate a ranged read against a file length, producing the standard
/// error shapes all backends share.
pub fn check_range(
    file: FileId,
    file_len: ByteSize,
    offset: ByteSize,
    len: ByteSize,
) -> io::Result<()> {
    let end = offset.checked_add(len).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("{file}: range overflows u64"))
    })?;
    if end > file_len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("{file}: range {offset}..{end} beyond file length {file_len}"),
        ));
    }
    Ok(())
}

/// Standard error for a file id not present in a store.
pub fn no_such_file(file: FileId) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("{file}: no such file in store"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_bounds_ranges_pass() {
        assert!(check_range(FileId(0), 100, 0, 100).is_ok());
        assert!(check_range(FileId(0), 100, 99, 1).is_ok());
        assert!(check_range(FileId(0), 100, 100, 0).is_ok());
    }

    #[test]
    fn out_of_bounds_is_unexpected_eof() {
        let e = check_range(FileId(3), 100, 50, 51).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
        assert!(e.to_string().contains("file3"));
    }

    #[test]
    fn overflowing_range_is_invalid_input() {
        let e = check_range(FileId(0), 100, u64::MAX, 2).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn missing_file_error_shape() {
        let e = no_such_file(FileId(9));
        assert_eq!(e.kind(), io::ErrorKind::NotFound);
        assert!(e.to_string().contains("file9"));
    }
}
