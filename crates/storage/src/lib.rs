//! # cloudburst-storage
//!
//! The storage substrate of the cloudburst framework:
//!
//! * the [`ChunkStore`] ranged-read abstraction every slave retrieves
//!   through ([`store`]);
//! * backends: in-memory ([`mem`]), on-disk ([`mod@file`]), and the simulated
//!   Amazon S3 with per-connection limits, a connection cap, and an
//!   aggregate bandwidth pipe ([`s3sim`]);
//! * multi-threaded ranged retrieval, the paper's "multiple retrieval
//!   threads" optimization ([`fetch`]), with a persistent fetcher-thread
//!   pool and zero-copy chunk reassembly ([`pool`]);
//! * the data organizer that cuts a dataset into files/chunks/units, places
//!   files across sites and emits the index ([`organizer`]);
//! * the binary on-disk index format ([`index_io`]);
//! * transient-error classification and capped exponential backoff with
//!   deterministic jitter for range reads ([`retry`]);
//! * seeded, replayable fault injection over any store ([`chaos`]).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod chaos;
pub mod fetch;
pub mod file;
pub mod index_io;
pub mod mem;
pub mod organizer;
pub mod pool;
pub mod retry;
pub mod s3sim;
pub mod store;

pub use chaos::ChaosStore;
pub use fetch::{fetch_chunk_pooled, fetch_range_pooled, FetchConfig};
pub use file::FileStore;
pub use index_io::{
    decode_index, decode_index_meta, encode_index, encode_index_redundant, read_index,
    read_index_meta, write_index, write_index_redundant,
};
pub use mem::MemStore;
pub use organizer::{
    fraction_placement, organize, organize_redundant, reassemble, Organized, SiteStore,
};
pub use pool::FetcherPool;
pub use retry::{
    is_transient, read_into_with_retry, read_with_retry_observed, RetryAttempt, RetryObserver,
    RetryPolicy, SharedRetryObserver,
};
pub use s3sim::{S3Config, S3Metrics, S3SimStore};
pub use store::ChunkStore;
