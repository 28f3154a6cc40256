//! Deterministic fault injection at the storage layer.
//!
//! [`ChaosStore`] wraps any [`ChunkStore`] and makes ranged reads fail
//! transiently according to a seeded [`FaultPlan`] — the same plan, the
//! same failures, every run. This is how the failure experiments exercise
//! the retry path without touching the backends: the store under test stays
//! byte-identical, only the error schedule is injected.

use crate::store::ChunkStore;
use bytes::Bytes;
use cloudburst_core::fault::FaultPlan;
use cloudburst_core::{ByteSize, FileId, SiteId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A [`ChunkStore`] decorator that injects deterministic transient read
/// failures per the plan's `storage_error_rate`.
///
/// Each `(file, offset)` range tracks its consecutive failed attempts; the
/// plan decides per `(file, offset, attempt)` whether to fail, and caps the
/// consecutive failures (`storage_max_consecutive`) so a bounded retry
/// budget always eventually succeeds. A successful read resets the range's
/// attempt counter, so the schedule replays identically run over run.
pub struct ChaosStore {
    inner: Arc<dyn ChunkStore>,
    plan: Arc<FaultPlan>,
    attempts: Mutex<HashMap<(u32, u64), u32>>,
    injected: AtomicU64,
}

impl ChaosStore {
    /// Wrap `inner`, injecting the storage faults of `plan`.
    #[must_use]
    pub fn new(inner: Arc<dyn ChunkStore>, plan: Arc<FaultPlan>) -> ChaosStore {
        ChaosStore {
            inner,
            plan,
            attempts: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// Total injected failures so far (diagnostic aid for tests).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Consult the plan's schedule for this range's next attempt; returns
    /// the injected error when it is the range's turn to fail.
    fn inject(&self, file: FileId, offset: ByteSize) -> io::Result<()> {
        let mut attempts = self.attempts.lock();
        let n = attempts.entry((file.0, offset)).or_insert(0);
        if self.plan.storage_read_fails(file.0, offset, *n) {
            *n += 1;
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                format!("chaos: injected transient failure for {file} @ {offset}"),
            ));
        }
        Ok(())
    }
}

impl std::fmt::Debug for ChaosStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosStore").field("plan", &self.plan).finish_non_exhaustive()
    }
}

impl ChunkStore for ChaosStore {
    fn site(&self) -> SiteId {
        self.inner.site()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn read(&self, file: FileId, offset: ByteSize, len: ByteSize) -> io::Result<Bytes> {
        self.inject(file, offset)?;
        let result = self.inner.read(file, offset, len);
        if result.is_ok() {
            self.attempts.lock().remove(&(file.0, offset));
        }
        result
    }

    fn read_into(&self, file: FileId, offset: ByteSize, out: &mut [u8]) -> io::Result<()> {
        self.inject(file, offset)?;
        let result = self.inner.read_into(file, offset, out);
        if result.is_ok() {
            self.attempts.lock().remove(&(file.0, offset));
        }
        result
    }

    fn file_len(&self, file: FileId) -> io::Result<ByteSize> {
        self.inner.file_len(file)
    }

    fn n_files(&self) -> usize {
        self.inner.n_files()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::{fetch_range_pooled, FetchConfig};
    use crate::mem::MemStore;
    use crate::pool::FetcherPool;
    use crate::retry::RetryPolicy;

    fn chaotic(rate: f64, max_consecutive: u32, data: Vec<u8>) -> ChaosStore {
        let plan = FaultPlan {
            storage_error_rate: rate,
            storage_max_consecutive: max_consecutive,
            ..FaultPlan::seeded(42)
        };
        let inner: Arc<dyn ChunkStore> =
            Arc::new(MemStore::new(SiteId::CLOUD, vec![Bytes::from(data)]));
        ChaosStore::new(inner, Arc::new(plan))
    }

    #[test]
    fn always_fail_rate_is_capped_by_max_consecutive() {
        let store = chaotic(1.0, 2, vec![9u8; 100]);
        assert!(store.read(FileId(0), 0, 100).is_err());
        assert!(store.read(FileId(0), 0, 100).is_err());
        let ok = store.read(FileId(0), 0, 100).unwrap();
        assert_eq!(ok.len(), 100);
        // The counter reset on success: the schedule repeats.
        assert!(store.read(FileId(0), 0, 100).is_err());
    }

    #[test]
    fn injection_is_per_range_and_deterministic() {
        let a = chaotic(0.5, 1, vec![1u8; 1000]);
        let b = chaotic(0.5, 1, vec![1u8; 1000]);
        for offset in (0..1000).step_by(100) {
            assert_eq!(
                a.read(FileId(0), offset, 100).is_err(),
                b.read(FileId(0), offset, 100).is_err(),
                "same plan must fail the same ranges"
            );
        }
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let store = chaotic(0.0, 2, vec![3u8; 64]);
        for _ in 0..10 {
            assert!(store.read(FileId(0), 0, 64).is_ok());
        }
        assert_eq!(store.injected(), 0);
    }

    #[test]
    fn retrying_fetch_absorbs_injected_faults() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 241) as u8).collect();
        let store: Arc<dyn ChunkStore> = Arc::new(chaotic(0.6, 3, data.clone()));
        let pool = FetcherPool::new(4);
        let cfg = FetchConfig { threads: 4, min_range: 512 };
        let policy = RetryPolicy { max_retries: 4, base: 0.0, cap: 0.0, seed: 1 };
        let (bytes, retries) =
            fetch_range_pooled(|| &pool, &store, FileId(0), 0, 10_000, cfg, &policy, None).unwrap();
        assert_eq!(bytes.to_vec(), data, "reassembly must survive retries");
        assert!(retries > 0, "a 60% rate must inject something across 4 ranges");
    }
}
