//! Ablation C: multi-threaded remote retrieval (paper §III-B: "Each slave
//! retrieves jobs using multiple retrieval threads"), measured against the
//! simulated S3 store whose per-connection bandwidth ceiling makes the
//! optimization matter — plus the local-store case where it must not hurt.

use bytes::Bytes;
use cloudburst_core::{FileId, SiteId};
use cloudburst_netsim::LinkSpec;
use cloudburst_storage::{
    fetch_range_pooled, ChunkStore, FetchConfig, FetcherPool, MemStore, RetryPolicy, S3Config,
    S3SimStore,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn s3(bytes_per_file: usize, time_scale: f64) -> S3SimStore<MemStore> {
    let backing = MemStore::new(SiteId::CLOUD, vec![Bytes::from(vec![7u8; bytes_per_file])]);
    S3SimStore::new(
        backing,
        S3Config {
            // One connection: 25 MB/s with 3 ms TTFB; the host can reach
            // 100 MB/s across connections.
            connection: LinkSpec::new(3e-3, 25e6),
            aggregate: LinkSpec::new(0.0, 100e6),
            max_connections: 32,
            time_scale,
        },
    )
}

/// One chunk through the one retrieval path, on a pool as wide as the
/// fan-out under test.
fn fetch(pool: &FetcherPool, store: &Arc<dyn ChunkStore>, len: u64, cfg: FetchConfig) -> Bytes {
    let retry = RetryPolicy::default();
    fetch_range_pooled(|| pool, store, FileId(0), 0, len, cfg, &retry, None).expect("fetch").0
}

fn bench_s3_fetch(c: &mut Criterion) {
    let chunk = 4 << 20; // 4 MiB chunk
    let store: Arc<dyn ChunkStore> = Arc::new(s3(chunk as usize, 1e-2));
    let mut g = c.benchmark_group("s3_chunk_fetch_4MiB");
    g.sample_size(15);
    for threads in [1u32, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            let cfg = FetchConfig { threads: t, min_range: 128 * 1024 };
            let pool = FetcherPool::new(t as usize);
            b.iter(|| black_box(fetch(&pool, &store, chunk, cfg)))
        });
    }
    g.finish();
}

fn bench_local_fetch(c: &mut Criterion) {
    // Against an in-memory (zero-latency) store the split should cost ~no
    // extra: the default config must be safe to use unconditionally.
    let chunk = 4 << 20;
    let store: Arc<dyn ChunkStore> =
        Arc::new(MemStore::new(SiteId::LOCAL, vec![Bytes::from(vec![7u8; chunk as usize])]));
    let mut g = c.benchmark_group("local_chunk_fetch_4MiB");
    for threads in [1u32, 4] {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            let cfg = FetchConfig { threads: t, min_range: 128 * 1024 };
            let pool = FetcherPool::new(t as usize);
            b.iter(|| black_box(fetch(&pool, &store, chunk, cfg)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_s3_fetch, bench_local_fetch);
criterion_main!(benches);
