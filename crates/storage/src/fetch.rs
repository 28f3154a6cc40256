//! Multi-threaded chunk retrieval (paper §III-B): "Each slave retrieves
//! jobs using multiple retrieval threads, to capitalize on the fast network
//! interconnects in the cluster."
//!
//! A chunk is split into `threads` byte ranges fetched concurrently on a
//! persistent [`FetcherPool`] and reassembled in order — the one retrieval
//! path, [`fetch_range_pooled`]. Against the simulated S3 this recovers most
//! of the gap between one connection's bandwidth and the aggregate host cap;
//! against local stores it degrades gracefully to a single sequential read.

use crate::pool::FetcherPool;
use crate::retry::{
    read_into_with_retry, read_with_retry_observed, RetryAttempt, RetryPolicy, SharedRetryObserver,
};
use crate::store::ChunkStore;
use bytes::{Bytes, BytesMut};
use cloudburst_core::{ByteSize, ChunkMeta, FileId};
use crossbeam::channel::bounded;
use std::io;
use std::sync::Arc;

/// Retrieval configuration for one slave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchConfig {
    /// Concurrent range requests per chunk.
    pub threads: u32,
    /// Ranges smaller than this are not split further.
    pub min_range: ByteSize,
}

impl Default for FetchConfig {
    fn default() -> Self {
        FetchConfig { threads: 4, min_range: 64 * 1024 }
    }
}

impl FetchConfig {
    /// Sequential fetching (one range per chunk).
    #[must_use]
    pub fn sequential() -> FetchConfig {
        FetchConfig { threads: 1, min_range: 1 }
    }

    /// How many ranges a read of `len` bytes is split into ([`FetchConfig::split`]).
    #[must_use]
    pub fn parts(&self, len: ByteSize) -> u64 {
        u64::from(self.threads.max(1)).min(len.div_ceil(self.min_range.max(1)))
    }

    /// The byte ranges `(offset, len)` a read of `[offset, offset+len)` is
    /// split into: contiguous, non-empty, ascending.
    #[must_use]
    pub fn split(&self, offset: ByteSize, len: ByteSize) -> Vec<(ByteSize, ByteSize)> {
        let parts = self.parts(len);
        if parts == 0 {
            return Vec::new();
        }
        let base = len / parts;
        let extra = len % parts;
        let mut ranges = Vec::with_capacity(parts as usize);
        let mut at = offset;
        for i in 0..parts {
            let this = base + u64::from(i < extra);
            ranges.push((at, this));
            at += this;
        }
        ranges
    }
}

/// Report one absorbed transient failure to the fetch's observer, if any.
fn notify(observe: &Option<SharedRetryObserver>, attempt: RetryAttempt) {
    if let Some(observe) = observe {
        observe(attempt);
    }
}

/// Fetch `len` bytes of `file` at `offset` as up to `config.threads`
/// concurrent range reads on a persistent [`FetcherPool`], each retrying its
/// own transient failures per `retry` — one reset connection re-reads its own
/// range, not the chunk — and reporting them to `observe` as they happen.
/// Returns the bytes and the retries absorbed over all ranges.
///
/// Each range task fills an owned, disjoint part of one pre-allocated chunk
/// allocation ([`BytesMut::split_to`]) and the caller stitches the contiguous
/// parts back together ([`BytesMut::unsplit`], O(1)): no spawn or join per
/// chunk and no copy per range. A read that is one range is made on the
/// calling thread — the pool round trip buys nothing — through the backend's
/// zero-copy `read`, and allocates nothing here.
///
/// `pool` is asked for only when the read splits, so a caller whose reads
/// are all one range never needs a pool to exist.
///
/// The store is passed by `Arc`, and the observer in its owned form, because
/// the pool's workers outlive this call's stack frame.
#[allow(clippy::too_many_arguments)]
pub fn fetch_range_pooled<'p>(
    pool: impl FnOnce() -> &'p FetcherPool,
    store: &Arc<dyn ChunkStore>,
    file: FileId,
    offset: ByteSize,
    len: ByteSize,
    config: FetchConfig,
    retry: &RetryPolicy,
    observe: Option<SharedRetryObserver>,
) -> io::Result<(Bytes, u64)> {
    match config.parts(len) {
        0 => return Ok((Bytes::new(), 0)),
        1 => {
            let observe = |a| notify(&observe, a);
            return read_with_retry_observed(store.as_ref(), file, offset, len, retry, &observe);
        }
        _ => {}
    }
    let (pool, ranges) = (pool(), config.split(offset, len));
    let mut buf = BytesMut::with_capacity(len as usize);
    buf.resize(len as usize, 0);
    let (done_tx, done_rx) = bounded::<(usize, BytesMut, io::Result<u64>)>(ranges.len());
    for (idx, &(at, l)) in ranges.iter().enumerate() {
        // An owned part of the chunk allocation, for a `'static` pool task
        // to write in place.
        let mut part = buf.split_to(l as usize);
        let (store, retry, observe, done_tx) =
            (Arc::clone(store), *retry, observe.clone(), done_tx.clone());
        pool.execute(move || {
            let observe = |a| notify(&observe, a);
            let read = read_into_with_retry(store.as_ref(), file, at, &mut part, &retry, &observe);
            let _ = done_tx.send((idx, part, read));
        });
    }
    drop(done_tx);
    // Every task answers or — its read having panicked — lets go of its
    // sender, so this ends.
    let mut parts: Vec<_> = done_rx.iter().collect();
    if parts.len() < ranges.len() {
        return Err(io::Error::other("fetcher pool task vanished"));
    }
    parts.sort_unstable_by_key(|&(idx, ..)| idx);
    let mut retries = 0;
    for (_, part, read) in parts {
        retries += read?;
        // Neighbours from one allocation (and `buf` is what is left of it,
        // empty): O(1).
        buf.unsplit(part);
    }
    Ok((buf.freeze(), retries))
}

/// [`fetch_range_pooled`] for one chunk described by its metadata.
pub fn fetch_chunk_pooled(
    pool: &FetcherPool,
    store: &Arc<dyn ChunkStore>,
    chunk: &ChunkMeta,
    config: FetchConfig,
    retry: &RetryPolicy,
    observe: Option<SharedRetryObserver>,
) -> io::Result<(Bytes, u64)> {
    fetch_range_pooled(|| pool, store, chunk.file, chunk.offset, chunk.len, config, retry, observe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemStore;
    use cloudburst_core::SiteId;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Mutex;

    fn pattern(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<_>>())
    }

    fn mem(n: usize) -> Arc<dyn ChunkStore> {
        Arc::new(MemStore::new(SiteId::LOCAL, vec![pattern(n)]))
    }

    const NO_RETRY: RetryPolicy = RetryPolicy { max_retries: 0, base: 0.0, cap: 0.0, seed: 0 };

    /// What becomes of a read that starts at a [`Trap`]'s offset.
    enum Sprung {
        Fails(io::ErrorKind),
        /// Fails transiently this many times, then succeeds.
        Flakes(u32),
        Panics,
    }

    /// A `MemStore` with one bad offset; `hits` counts the reads that began
    /// there.
    struct Trap {
        inner: MemStore,
        at: ByteSize,
        sprung: Sprung,
        hits: AtomicU32,
    }

    fn trap(n: usize, at: ByteSize, sprung: Sprung) -> Arc<Trap> {
        let inner = MemStore::new(SiteId::LOCAL, vec![pattern(n)]);
        Arc::new(Trap { inner, at, sprung, hits: AtomicU32::new(0) })
    }

    impl ChunkStore for Trap {
        fn site(&self) -> SiteId {
            self.inner.site()
        }
        fn read(&self, file: FileId, offset: ByteSize, len: ByteSize) -> io::Result<Bytes> {
            if offset == self.at {
                let hit = self.hits.fetch_add(1, Ordering::SeqCst);
                match self.sprung {
                    Sprung::Fails(kind) => return Err(io::Error::new(kind, "trapped")),
                    Sprung::Flakes(n) if hit < n => {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "trapped"))
                    }
                    Sprung::Flakes(_) => {}
                    Sprung::Panics => panic!("injected: the read at {offset} panics"),
                }
            }
            self.inner.read(file, offset, len)
        }
        fn file_len(&self, file: FileId) -> io::Result<ByteSize> {
            self.inner.file_len(file)
        }
        fn n_files(&self) -> usize {
            self.inner.n_files()
        }
    }

    #[test]
    fn split_covers_range_contiguously() {
        let cfg = FetchConfig { threads: 4, min_range: 10 };
        let ranges = cfg.split(100, 103);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], (100, 26));
        let mut at = 100;
        let mut total = 0;
        for (o, l) in ranges {
            assert_eq!(o, at);
            assert!(l > 0);
            at += l;
            total += l;
        }
        assert_eq!(total, 103);
    }

    #[test]
    fn split_respects_min_range() {
        let cfg = FetchConfig { threads: 8, min_range: 50 };
        // 120 bytes / min 50 -> at most 3 parts despite 8 threads.
        assert_eq!(cfg.split(0, 120).len(), 3);
        // Tiny range -> single part.
        assert_eq!(cfg.split(0, 10).len(), 1);
        // The count the one-range read path decides on, without the ranges.
        for len in [0, 1, 10, 49, 50, 51, 120, 400, 4_000] {
            assert_eq!(cfg.parts(len), cfg.split(7, len).len() as u64, "{len} bytes");
        }
    }

    #[test]
    fn split_empty_range_is_empty() {
        assert!(FetchConfig::default().split(5, 0).is_empty());
    }

    #[test]
    fn a_fetch_of_several_ranges_equals_a_direct_read_of_the_span() {
        let store = mem(10_000);
        // Fewer workers than ranges: the excess tasks queue.
        let pool = FetcherPool::new(3);
        let many = FetchConfig { threads: 7, min_range: 100 };
        // More threads than parts: `min_range` clamps 120 bytes to three.
        let clamped = FetchConfig { threads: 8, min_range: 50 };
        assert_eq!(clamped.split(4_000, 120).len(), 3);
        for (cfg, offset, len) in [
            (many, 0u64, 10_000u64),
            (many, 123, 7_531),
            (many, 9_999, 1),
            (many, 40, 0),
            (clamped, 4_000, 120),
        ] {
            let (got, retries) =
                fetch_range_pooled(|| &pool, &store, FileId(0), offset, len, cfg, &NO_RETRY, None)
                    .unwrap();
            assert_eq!(got, store.read(FileId(0), offset, len).unwrap(), "{offset}+{len}");
            assert_eq!(retries, 0);
        }
    }

    #[test]
    fn a_fetch_of_one_range_is_the_backends_zero_copy_read() {
        // Under `min_range`, or configured sequential: no part to fill, no
        // trip through the pool — the very bytes the store holds.
        let store = mem(4_096);
        let pool = FetcherPool::new(2);
        let whole = store.read(FileId(0), 0, 4_096).unwrap();
        for cfg in [FetchConfig::default(), FetchConfig::sequential()] {
            assert_eq!(cfg.split(512, 1_024).len(), 1);
            let (got, _) =
                fetch_range_pooled(|| &pool, &store, FileId(0), 512, 1_024, cfg, &NO_RETRY, None)
                    .unwrap();
            assert_eq!(got, store.read(FileId(0), 512, 1_024).unwrap());
            assert_eq!(got.as_ptr(), whole[512..].as_ptr(), "a copy was made");
        }
    }

    #[test]
    fn a_fetch_of_one_range_never_asks_for_the_pool() {
        // No pool exists for a caller whose reads are all one range; one
        // that splits asks for it once.
        let store = mem(4_096);
        let no_pool = || -> &FetcherPool { panic!("a one-range read asked for the pool") };
        for (cfg, len) in [(FetchConfig::default(), 4_096), (FetchConfig::sequential(), 100)] {
            let (got, _) =
                fetch_range_pooled(no_pool, &store, FileId(0), 0, len, cfg, &NO_RETRY, None)
                    .unwrap();
            assert_eq!(got, store.read(FileId(0), 0, len).unwrap());
        }
        let (pool, asked) = (FetcherPool::new(2), AtomicU32::new(0));
        let split = FetchConfig { threads: 4, min_range: 64 };
        let lazily = || {
            asked.fetch_add(1, Ordering::SeqCst);
            &pool
        };
        let (got, _) =
            fetch_range_pooled(lazily, &store, FileId(0), 0, 4_096, split, &NO_RETRY, None)
                .unwrap();
        assert_eq!(got, store.read(FileId(0), 0, 4_096).unwrap());
        assert_eq!(asked.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn fetch_chunk_pooled_reads_the_span_its_metadata_names() {
        let store = mem(4_096);
        let pool = FetcherPool::new(2);
        let chunk = ChunkMeta {
            id: cloudburst_core::ChunkId(0),
            file: FileId(0),
            offset: 512,
            len: 1_024,
            n_units: 256,
            site: SiteId::LOCAL,
        };
        let cfg = FetchConfig { threads: 4, min_range: 64 };
        let (got, _) = fetch_chunk_pooled(&pool, &store, &chunk, cfg, &NO_RETRY, None).unwrap();
        assert_eq!(got, store.read(FileId(0), 512, 1_024).unwrap());
    }

    #[test]
    fn one_failing_range_surfaces_its_error_and_is_not_retried() {
        let cfg = FetchConfig { threads: 4, min_range: 1 };
        let third = cfg.split(0, 4_000)[2].0;
        let trapped = trap(4_000, third, Sprung::Fails(io::ErrorKind::PermissionDenied));
        let store: Arc<dyn ChunkStore> = trapped.clone();
        let pool = FetcherPool::new(2);
        let retry = RetryPolicy { max_retries: 3, base: 0.0, cap: 0.0, seed: 0 };
        let err = fetch_range_pooled(|| &pool, &store, FileId(0), 0, 4_000, cfg, &retry, None)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(trapped.hits.load(Ordering::SeqCst), 1, "a permanent error is final");
    }

    #[test]
    fn a_ranges_retries_are_its_own_and_the_observer_hears_of_each() {
        // The second of four ranges times out twice: two retries of that
        // range, none of its neighbours, each reported with the range's
        // offset as it happens.
        let cfg = FetchConfig { threads: 4, min_range: 1 };
        let second = cfg.split(100, 4_000)[1].0;
        let trapped = trap(5_000, second, Sprung::Flakes(2));
        let store: Arc<dyn ChunkStore> = trapped.clone();
        let pool = FetcherPool::new(4);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let observe: SharedRetryObserver = {
            let seen = seen.clone();
            Arc::new(move |a| seen.lock().unwrap().push(a))
        };
        let retry = RetryPolicy { max_retries: 3, base: 0.0, cap: 0.0, seed: 0 };
        let (got, retries) =
            fetch_range_pooled(|| &pool, &store, FileId(0), 100, 4_000, cfg, &retry, Some(observe))
                .unwrap();
        assert_eq!(got, trapped.inner.read(FileId(0), 100, 4_000).unwrap());
        assert_eq!(retries, 2);
        assert_eq!(trapped.hits.load(Ordering::SeqCst), 3, "the range was read three times");
        let attempt = |attempt| RetryAttempt {
            file: FileId(0),
            offset: second,
            attempt,
            kind: io::ErrorKind::TimedOut,
        };
        assert_eq!(*seen.lock().unwrap(), [attempt(0), attempt(1)]);
    }

    #[test]
    fn retries_are_summed_over_ranges_and_an_exhausted_budget_is_the_fetchs_error() {
        use crate::chaos::ChaosStore;
        use cloudburst_core::FaultPlan;
        use std::sync::atomic::AtomicU64;

        // Every range fails once. The chaos store remembers attempts per
        // range, so each half of the test fetches through a fresh store.
        let fresh = || -> Arc<dyn ChunkStore> {
            let plan = FaultPlan {
                storage_error_rate: 1.0,
                storage_max_consecutive: 1,
                ..FaultPlan::seeded(3)
            };
            Arc::new(ChaosStore::new(mem(4_096), Arc::new(plan)))
        };
        let pool = FetcherPool::new(2);
        let cfg = FetchConfig { threads: 4, min_range: 128 };

        // Without retries the injected fault surfaces.
        assert!(fetch_range_pooled(|| &pool, &fresh(), FileId(0), 0, 4_096, cfg, &NO_RETRY, None)
            .is_err());

        // With retries the fetch succeeds and the observer sees each one.
        let seen = Arc::new(AtomicU64::new(0));
        let obs: SharedRetryObserver = {
            let seen = seen.clone();
            Arc::new(move |_| {
                seen.fetch_add(1, Ordering::SeqCst);
            })
        };
        let policy = RetryPolicy { max_retries: 3, base: 0.0, cap: 0.0, seed: 0 };
        let (bytes, retries) =
            fetch_range_pooled(|| &pool, &fresh(), FileId(0), 0, 4_096, cfg, &policy, Some(obs))
                .unwrap();
        assert_eq!(bytes, pattern(4_096));
        assert_eq!(retries, 4, "one per range");
        assert_eq!(seen.load(Ordering::SeqCst), retries);
    }

    #[test]
    fn a_fetch_beyond_the_file_fails_like_the_direct_read() {
        let store = mem(100);
        let pool = FetcherPool::new(2);
        let direct = store.read(FileId(0), 50, 100).unwrap_err();
        for cfg in [FetchConfig { threads: 4, min_range: 1 }, FetchConfig::sequential()] {
            let err =
                fetch_range_pooled(|| &pool, &store, FileId(0), 50, 100, cfg, &NO_RETRY, None)
                    .unwrap_err();
            assert_eq!(err.kind(), direct.kind(), "{cfg:?}");
        }
    }

    #[test]
    fn a_read_that_panics_costs_its_fetch_an_error_and_the_pool_no_worker() {
        // One worker. A fetch whose second range panics in the store gets an
        // error; the worker is still there for the next fetch, and for the
        // next panic.
        let cfg = FetchConfig { threads: 2, min_range: 1 };
        let bad = cfg.split(0, 1_000)[1].0;
        let trapped = trap(2_000, bad, Sprung::Panics);
        let store: Arc<dyn ChunkStore> = trapped.clone();
        let pool = FetcherPool::new(1);
        for _ in 0..2 {
            let err =
                fetch_range_pooled(|| &pool, &store, FileId(0), 0, 1_000, cfg, &NO_RETRY, None)
                    .unwrap_err();
            assert!(err.to_string().contains("vanished"), "{err}");
            let (got, _) =
                fetch_range_pooled(|| &pool, &store, FileId(0), 1_000, 1_000, cfg, &NO_RETRY, None)
                    .unwrap();
            assert_eq!(got, trapped.inner.read(FileId(0), 1_000, 1_000).unwrap());
        }
    }
}
