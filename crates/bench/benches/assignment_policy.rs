//! Ablation B: the consecutive-batch assignment optimization (paper §III-B:
//! "The selection of consecutive jobs is an important optimization ...
//! because it allows the compute units to sequentially read jobs from the
//! files").
//!
//! Measures an end-to-end wordcount run on a real on-disk `FileStore`, whose
//! masters ask for consecutive batches of their own size, plus the raw
//! pool-operation throughput of the head's scheduler.

use cloudburst_apps::gen::gen_words;
use cloudburst_apps::wordcount::WordCount;
use cloudburst_cluster::{run_hybrid, RuntimeConfig};
use cloudburst_core::{BatchPolicy, DataIndex, EnvConfig, JobPool, LayoutParams, SiteId};
use cloudburst_storage::{organize, ChunkStore, FetchConfig, FileStore};
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

fn disk_store(data: &bytes::Bytes, tag: &str) -> (DataIndex, FileStore, PathBuf) {
    let params = LayoutParams { unit_size: 16, units_per_chunk: 4096, n_files: 8 };
    let org = organize(data, params, &mut |_| SiteId::LOCAL).expect("organize");
    let dir = std::env::temp_dir().join(format!("cloudburst-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let files: Vec<bytes::Bytes> = org
        .index
        .files
        .iter()
        .map(|f| org.stores[&SiteId::LOCAL].read(f.id, 0, f.len).expect("file bytes"))
        .collect();
    let store = FileStore::create(SiteId::LOCAL, &dir, &files).expect("create store");
    (org.index, store, dir)
}

fn bench_batching(c: &mut Criterion) {
    let data = gen_words(400_000, 2_000, 5);
    let (index, store, dir) = disk_store(&data, "batching");
    let stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = {
        let mut m = BTreeMap::new();
        m.insert(SiteId::LOCAL, Arc::new(store) as Arc<dyn ChunkStore>);
        m
    };

    let run = || {
        let env = EnvConfig::new("env-local", 1.0, 4, 0);
        let mut config = RuntimeConfig::new(env, 1e-7);
        config.fetch = FetchConfig::sequential();
        let out = run_hybrid(&WordCount, &index, stores.clone(), &config).expect("run");
        assert_eq!(out.result.total(), 400_000);
        out.report.total_time
    };

    let mut g = c.benchmark_group("assignment");
    g.sample_size(20);
    g.bench_function("sized_consecutive_batches", |b| b.iter(|| black_box(run())));
    g.finish();
    let _ = std::fs::remove_dir_all(dir);
}

fn bench_pool_throughput(c: &mut Criterion) {
    // Raw scheduler throughput: how fast the head can drain a 100k-job pool.
    let index = DataIndex::build(
        100_000 * 4,
        LayoutParams { unit_size: 4, units_per_chunk: 4, n_files: 64 },
        |f| if f.0 % 2 == 0 { SiteId::LOCAL } else { SiteId::CLOUD },
    )
    .expect("index");
    c.bench_function("pool_drain_100k_jobs", |b| {
        b.iter(|| {
            let mut pool = JobPool::from_index(&index, BatchPolicy::Fixed(8));
            let mut turn = 0u32;
            while !pool.all_done() {
                let site = if turn.is_multiple_of(2) { SiteId::LOCAL } else { SiteId::CLOUD };
                turn += 1;
                let batch = pool.request_for(site);
                for j in &batch.jobs {
                    pool.complete(j.id, site);
                }
            }
            black_box(pool.completed())
        })
    });
}

criterion_group!(benches, bench_batching, bench_pool_throughput);
criterion_main!(benches);
