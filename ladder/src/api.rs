//! The one door between the ladder and the repository.
//!
//! This is the **only** file in the ladder that names a `cloudburst_*`
//! crate. Everything below is the public surface the benchmark is pinned
//! to; a refactor that renames or reshapes one of these items keeps the
//! old signature alive as a thin wrapper (or updates this file and nothing
//! else in the ladder), so the benchmark code — and therefore what is
//! measured — stays fixed while the runtime underneath it changes.
//!
//! Pinned surface:
//!
//! * entry points — `run_hybrid`, `run_hybrid_tcp` (default batched v2
//!   wire), returning `RunOutcome { result, report: RunReport, head:
//!   HeadReport }`; errors as `RunError`
//! * configuration — `RuntimeConfig::new(env, time_scale)` and the fields
//!   the ladder sets: `env`, `time_scale`, `ft`, `telemetry`, `metrics`
//!   (every other field stays at its default); `EnvConfig::new`;
//!   `FtConfig::enabled`; `Topology::paper_testbed`
//! * programming model — `Reduction`, `ReductionObject`, `Merge`,
//!   `reduce_serial`, `tree_reduce`
//! * data organisation — `organize`, `fraction_placement`, `LayoutParams`,
//!   `DataIndex`, `ChunkMeta`, `encode_index`, `decode_index`
//! * storage — `ChunkStore`, `MemStore`, `FileStore`, `S3SimStore` +
//!   `S3Config::paper`, `fetch_chunk_pooled` + `FetchConfig` +
//!   `FetcherPool` + `RetryPolicy`
//! * network model — `Throttle`, `LinkSpec`
//! * routing — `StoreRouter::{new, set_concurrency, fetch}`
//! * control plane — `serve_head`; the v2 `wire` functions `write_hello`,
//!   `read_hello_ack`, `write_get_jobs`, `read_grant`, `write_ack_batch`,
//!   `read_batch_reply`, `encode_frame`, `try_read_frame`, with `Frame`,
//!   `AckEntry`, `WIRE_VERSION` and the one legacy frame a v2 connection
//!   still ends on, `MasterToHead::Bye`. No other v1 wire function and no
//!   `run_head` channel API is pinned.
//! * pools — `JobPool::from_index`, `BatchPolicy::default_adaptive`,
//!   `ShardedPool::{new, get_jobs, complete_at}`
//! * observability — `Telemetry::to`, `Recorder`, `Event`, `EventKind`,
//!   `Metrics::on`, `Metrics::histogram`, `Histogram::observe`
//! * applications and generators — `Knn`, `knn_oracle`, `Neighbor`,
//!   `KMeans`, `KMeansObj`, `kmeans_oracle`, `PageRank`, `RankMass`,
//!   `gen_id_points`, `gen_clustered_points`, `gen_edges`
//! * artifacts — `Json`

pub use cloudburst_apps::gen::{gen_clustered_points, gen_edges, gen_id_points};
pub use cloudburst_apps::{
    kmeans_oracle, knn_oracle, KMeans, KMeansObj, Knn, KnnObj, Neighbor, PageRank, RankMass,
};
pub use cloudburst_cluster::wire::{
    encode_frame, read_batch_reply, read_grant, read_hello_ack, try_read_frame, write_ack_batch,
    write_get_jobs, write_hello, AckEntry, Frame, MasterToHead, WIRE_VERSION,
};
pub use cloudburst_cluster::{
    run_hybrid, run_hybrid_tcp, serve_head, FtConfig, RunError, RunOutcome, RuntimeConfig,
    StoreRouter,
};
pub use cloudburst_core::{
    reduce_serial, tree_reduce, BatchPolicy, ChunkId, ChunkMeta, DataIndex, EnvConfig, Event,
    EventKind, FileId, JobPool, Json, LayoutParams, Merge, Metrics, Recorder, Reduction,
    ReductionObject, ShardedPool, SiteId, Telemetry,
};
pub use cloudburst_netsim::{LinkSpec, Throttle, Topology};
pub use cloudburst_storage::{
    decode_index, encode_index, fetch_chunk_pooled, fraction_placement, organize, ChunkStore,
    FetchConfig, FetcherPool, FileStore, MemStore, RetryPolicy, S3Config, S3SimStore,
};
