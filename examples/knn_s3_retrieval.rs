//! k-NN against simulated S3: the paper's I/O-bound application, plus the
//! "multiple retrieval threads" optimization (§III-B) in isolation.
//!
//! All data lives in the simulated S3 store (per-connection bandwidth
//! ceiling + aggregate host cap). The example first measures a chunk fetch
//! with 1 vs 8 ranged connections, then runs the full search with all
//! compute "in the cloud" — the paper's observation that multi-threaded
//! retrieval lets env-cloud match env-local retrieval times.
//!
//! ```text
//! cargo run --release --example knn_s3_retrieval
//! ```

use cloudburst::prelude::*;
use cloudburst_apps::gen::gen_id_points;
use cloudburst_apps::knn::{knn_oracle, Knn};
use cloudburst_storage::{
    fetch_range_pooled, FetcherPool, FileStore, MemStore, RetryPolicy, S3Config, S3SimStore,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const DIM: usize = 4;
const K: usize = 10;
const N_POINTS: u32 = 300_000;

fn main() {
    let data = gen_id_points::<DIM>(N_POINTS, 99);
    let unit = (4 + 4 * DIM) as u32;
    println!("dataset: {N_POINTS} identified points, {} bytes, k = {K}", data.len());

    // ---- Part 1: ranged-GET parallelism against simulated S3 ----
    let backing = MemStore::new(SiteId::CLOUD, vec![data.clone()]);
    let s3 = Arc::new(S3SimStore::new(backing, S3Config::paper(2e-5)));
    let store: Arc<dyn ChunkStore> = s3.clone();
    let pool = FetcherPool::new(8);
    let (file, chunk_len, retry) = (cloudburst_core::FileId(0), 2 << 20, RetryPolicy::default());
    for threads in [1u32, 4, 8] {
        let cfg = FetchConfig { threads, min_range: 64 * 1024 };
        let t = Instant::now();
        let (bytes, _) =
            fetch_range_pooled(|| &pool, &store, file, 0, chunk_len, cfg, &retry, None)
                .expect("ranged fetch");
        println!(
            "  fetch 2 MiB with {threads} connection(s): {:>7.1} ms  ({} bytes)",
            t.elapsed().as_secs_f64() * 1e3,
            bytes.len()
        );
    }
    println!("  (S3 stats: {} GETs, {} bytes served)", s3.metrics().gets, s3.metrics().bytes);

    // ---- Part 2: the full search, env-cloud style ----
    let params = LayoutParams { unit_size: unit, units_per_chunk: 8192, n_files: 8 };
    let org = organize(&data, params, &mut fraction_placement(0.0, 8)).expect("organize");
    // Everything is hosted in the cloud; wrap the cloud store in the S3
    // timing model. FileStore would work identically for on-disk data.
    let _unused: Option<FileStore> = None;
    let cloud = S3SimStore::new(org.store(SiteId::CLOUD), S3Config::paper(2e-5));
    let mut stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = BTreeMap::new();
    stores.insert(SiteId::CLOUD, Arc::new(cloud));

    let query = [0.5f32; DIM];
    let app = Knn::<DIM>::new(query, K);
    let env = EnvConfig::new("env-cloud", 0.0, 0, 8);
    let mut config = RuntimeConfig::new(env, 2e-5);
    config.fetch = FetchConfig { threads: 8, min_range: 64 * 1024 };

    let t = Instant::now();
    let out = run_hybrid(&app, &org.index, stores, &config).expect("search");
    println!(
        "\nsearch over {} chunks on 8 cloud cores: {:.1} ms wall",
        org.index.n_chunks(),
        t.elapsed().as_secs_f64() * 1e3
    );

    let found = out.result.0.into_sorted();
    let expect = knn_oracle::<DIM>(&data, &query, K);
    assert_eq!(found, expect, "distributed result must match the serial oracle");
    println!("\n{K} nearest neighbors of {query:?}:");
    for n in &found {
        println!("  point {:<8} dist² {:.6}", n.id, n.dist2());
    }
}
