//! A simulated Amazon S3: an object store with per-request time-to-first-
//! byte, a per-connection bandwidth ceiling, a bounded number of concurrent
//! connections, and an aggregate host bandwidth cap.
//!
//! The paper stores its 12 GB datasets in S3 and retrieves them both from
//! EC2 instances (fast path) and across the WAN from the campus cluster
//! (slow path, during job stealing). This store reproduces the two effects
//! that matter for those experiments:
//!
//! 1. a single GET connection is slow (high latency, modest bandwidth), so
//!    slaves fetch each chunk with **multiple retrieval threads**;
//! 2. connections share an aggregate pipe, so adding threads saturates.
//!
//! Both are [`cloudburst_netsim::Pipe`]s, driven on the real clock by a
//! [`Throttle`]: the store holds no permit and sleeps through netsim only.

use crate::store::ChunkStore;
use bytes::Bytes;
use cloudburst_core::{ByteSize, FileId, SiteId};
use cloudburst_netsim::{sleep_until, LinkSpec, Throttle};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of the simulated object store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct S3Config {
    /// Per-GET path: time-to-first-byte latency and per-connection bandwidth.
    pub connection: LinkSpec,
    /// Aggregate bandwidth cap across all concurrent GETs.
    pub aggregate: LinkSpec,
    /// Maximum concurrent GET connections the store accepts.
    pub max_connections: u32,
    /// Compression of modelled time into real time (see
    /// [`cloudburst_netsim::Throttle`]).
    pub time_scale: f64,
}

impl S3Config {
    /// The paper-testbed profile at the given time compression.
    #[must_use]
    pub fn paper(time_scale: f64) -> S3Config {
        S3Config {
            connection: cloudburst_netsim::profiles::s3_connection(),
            aggregate: cloudburst_netsim::profiles::s3_host_cap(),
            max_connections: 64,
            time_scale,
        }
    }
}

/// Counters exposed for tests and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct S3Metrics {
    /// Number of GET requests served.
    pub gets: u64,
    /// Total payload bytes served.
    pub bytes: u64,
}

/// The simulated S3 store: wraps any inner [`ChunkStore`] holding the actual
/// bytes and charges realistic retrieval time for every read.
pub struct S3SimStore<S> {
    inner: S,
    /// One channel of [`S3Config::aggregate`], shared by every GET.
    aggregate: Throttle,
    /// [`S3Config::max_connections`] channels of [`S3Config::connection`].
    connections: Throttle,
    gets: AtomicU64,
    bytes: AtomicU64,
}

impl<S: ChunkStore> S3SimStore<S> {
    /// Wrap `inner` with the S3 timing model.
    ///
    /// # Panics
    /// Panics if `max_connections == 0`.
    #[must_use]
    pub fn new(inner: S, config: S3Config) -> S3SimStore<S> {
        assert!(config.max_connections > 0, "S3 needs at least one connection");
        S3SimStore {
            aggregate: Throttle::new(config.aggregate, config.time_scale),
            connections: Throttle::with_channels(
                config.connection,
                config.max_connections as usize,
                config.time_scale,
            ),
            gets: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            inner,
        }
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> S3Metrics {
        S3Metrics {
            gets: self.gets.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// The wrapped store.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Run one GET of `len` payload bytes. A served GET reserves the
    /// aggregate pipe and one connection, and returns when the later of the
    /// two lets it go: it queues behind other GETs on the shared pipe, and
    /// can never beat its own connection's link.
    fn get<T>(&self, len: ByteSize, op: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        let result = op();
        if result.is_ok() {
            let (aggregate, _) = self.aggregate.reserve(len);
            let (connection, _) = self.connections.reserve(len);
            sleep_until(aggregate.max(connection));
            self.gets.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(len, Ordering::Relaxed);
        }
        result
    }
}

impl<S: ChunkStore> ChunkStore for S3SimStore<S> {
    fn site(&self) -> SiteId {
        self.inner.site()
    }

    fn kind(&self) -> &'static str {
        "s3sim"
    }

    fn read(&self, file: FileId, offset: ByteSize, len: ByteSize) -> io::Result<Bytes> {
        self.get(len, || self.inner.read(file, offset, len))
    }

    fn read_into(&self, file: FileId, offset: ByteSize, out: &mut [u8]) -> io::Result<()> {
        self.get(out.len() as ByteSize, || self.inner.read_into(file, offset, out))
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
    use crate::mem::MemStore;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn base(bytes_per_file: usize, n_files: usize) -> MemStore {
        let files = (0..n_files).map(|i| Bytes::from(vec![i as u8; bytes_per_file])).collect();
        MemStore::new(SiteId::CLOUD, files)
    }

    fn cfg(conn_bw: f64, agg_bw: f64, latency: f64, conns: u32) -> S3Config {
        S3Config {
            connection: LinkSpec::new(latency, conn_bw),
            aggregate: LinkSpec::new(0.0, agg_bw),
            max_connections: conns,
            time_scale: 1e-3,
        }
    }

    #[test]
    fn serves_correct_bytes_and_counts() {
        let s3 = S3SimStore::new(base(64, 2), cfg(1e9, 1e9, 0.0, 4));
        let got = s3.read(FileId(1), 8, 16).unwrap();
        assert_eq!(got, Bytes::from(vec![1u8; 16]));
        let m = s3.metrics();
        assert_eq!(m.gets, 1);
        assert_eq!(m.bytes, 16);
        assert_eq!(s3.n_files(), 2);
        assert_eq!(s3.file_len(FileId(0)).unwrap(), 64);
    }

    #[test]
    fn failed_reads_do_not_count() {
        let s3 = S3SimStore::new(base(8, 1), cfg(1e9, 1e9, 0.0, 4));
        assert!(s3.read(FileId(0), 4, 100).is_err());
        assert!(s3.read(FileId(9), 0, 1).is_err());
        assert_eq!(s3.metrics(), S3Metrics::default());
    }

    #[test]
    fn per_connection_bandwidth_floors_single_get() {
        // 100 KB at 100 KB/s per connection = 1 modelled second = 1 ms real
        // at scale 1e-3, even though the aggregate pipe is effectively free.
        let s3 = S3SimStore::new(base(100_000, 1), cfg(100_000.0, 1e12, 0.0, 4));
        let t = Instant::now();
        s3.read(FileId(0), 0, 100_000).unwrap();
        assert!(t.elapsed().as_secs_f64() >= 0.8e-3);
    }

    #[test]
    fn parallel_gets_beat_serial_on_aggregate_pipe() {
        // Aggregate 4x the connection speed: 4 parallel GETs of one quarter
        // each should take ~1/4 the wall time of 4 serial full-speed GETs.
        let s3 = Arc::new(S3SimStore::new(base(400_000, 1), cfg(100_000.0, 400_000.0, 0.0, 8)));
        let serial_start = Instant::now();
        for i in 0..4 {
            s3.read(FileId(0), i * 100_000, 100_000).unwrap();
        }
        let serial = serial_start.elapsed().as_secs_f64();

        let parallel_start = Instant::now();
        std::thread::scope(|sc| {
            for i in 0..4u64 {
                let s3 = Arc::clone(&s3);
                sc.spawn(move || s3.read(FileId(0), i * 100_000, 100_000).unwrap());
            }
        });
        let parallel = parallel_start.elapsed().as_secs_f64();
        assert!(parallel < serial * 0.6, "parallel {parallel:.4}s should beat serial {serial:.4}s");
    }

    #[test]
    fn connection_limit_serializes_excess_gets() {
        // 1 connection: two concurrent 1-modelled-second GETs take ~2x.
        let s3 = Arc::new(S3SimStore::new(base(1000, 1), cfg(1000.0, 1e12, 0.0, 1)));
        let t = Instant::now();
        std::thread::scope(|sc| {
            for _ in 0..2 {
                let s3 = Arc::clone(&s3);
                sc.spawn(move || s3.read(FileId(0), 0, 1000).unwrap());
            }
        });
        let real = t.elapsed().as_secs_f64();
        assert!(real >= 1.8e-3, "limit=1 must serialize, took {real}");
    }

    /// A store whose reads of file 1 panic.
    struct PanicsOnFile1(MemStore);

    impl ChunkStore for PanicsOnFile1 {
        fn site(&self) -> SiteId {
            self.0.site()
        }

        fn read(&self, file: FileId, offset: ByteSize, len: ByteSize) -> io::Result<Bytes> {
            assert_ne!(file, FileId(1), "a read of file 1 panics");
            self.0.read(file, offset, len)
        }

        fn file_len(&self, file: FileId) -> io::Result<ByteSize> {
            self.0.file_len(file)
        }

        fn n_files(&self) -> usize {
            self.0.n_files()
        }
    }

    #[test]
    fn a_read_that_panics_keeps_no_connection() {
        // The fetch path survives a read that panics; with one connection,
        // the GET after it must still be served.
        let s3 = Arc::new(S3SimStore::new(PanicsOnFile1(base(64, 2)), cfg(1e9, 1e9, 0.0, 1)));
        let unwound = std::panic::catch_unwind(|| s3.read(FileId(1), 0, 8));
        assert!(unwound.is_err());
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = Arc::clone(&s3);
        let next = std::thread::spawn(move || {
            tx.send(reader.read(FileId(0), 0, 8).map(|b| b.len())).unwrap();
        });
        let served = rx.recv_timeout(Duration::from_secs(2)).expect("the next GET was not served");
        assert_eq!(served.unwrap(), 8);
        next.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one connection")]
    fn zero_connections_rejected() {
        let _ = S3SimStore::new(base(1, 1), cfg(1.0, 1.0, 0.0, 0));
    }
}
