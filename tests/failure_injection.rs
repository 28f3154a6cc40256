//! Failure injection against the threaded runtime: retrieval failures must
//! surface as errors (never hangs or silent data loss), stragglers must be
//! absorbed by the pooling-based load balancer, and degenerate
//! configurations must be rejected up front.

use bytes::Bytes;
use cloudburst_apps::gen::gen_words;
use cloudburst_apps::wordcount::{wordcount_oracle, WordCount};
use cloudburst_cluster::{run_hybrid, RunError, RuntimeConfig};
use cloudburst_core::{ByteSize, EnvConfig, FileId, LayoutParams, SiteId};
use cloudburst_storage::{fraction_placement, organize, ChunkStore, FetchConfig, SiteStore};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A store that fails every read of one poisoned file.
struct PoisonedStore {
    inner: SiteStore,
    poisoned: FileId,
}

impl ChunkStore for PoisonedStore {
    fn site(&self) -> SiteId {
        self.inner.site()
    }
    fn read(&self, file: FileId, offset: ByteSize, len: ByteSize) -> io::Result<Bytes> {
        if file == self.poisoned {
            return Err(io::Error::other("injected: disk sector failure"));
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

/// A store that delays every read — a straggling site.
struct SlowStore {
    inner: SiteStore,
    delay: Duration,
    reads: AtomicU64,
}

impl ChunkStore for SlowStore {
    fn site(&self) -> SiteId {
        self.inner.site()
    }
    fn read(&self, file: FileId, offset: ByteSize, len: ByteSize) -> io::Result<Bytes> {
        std::thread::sleep(self.delay);
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read(file, offset, len)
    }
    fn file_len(&self, file: FileId) -> io::Result<ByteSize> {
        self.inner.file_len(file)
    }
    fn n_files(&self) -> usize {
        self.inner.n_files()
    }
}

fn organized(n_words: u32, frac: f64) -> (cloudburst_core::DataIndex, BTreeMap<SiteId, SiteStore>) {
    let data = gen_words(n_words, 32, 9);
    let params = LayoutParams { unit_size: 16, units_per_chunk: 128, n_files: 4 };
    let org = organize(&data, params, &mut fraction_placement(frac, 4)).unwrap();
    (org.index, org.stores)
}

fn fast_config(env: EnvConfig) -> RuntimeConfig {
    let mut c = RuntimeConfig::new(env, 1e-6);
    c.fetch = FetchConfig { threads: 2, min_range: 128 };
    c
}

#[test]
fn poisoned_file_fails_the_run_cleanly() {
    let (index, mut stores) = organized(4_000, 0.5);
    let cloud = stores.remove(&SiteId::CLOUD).unwrap();
    let poisoned_file = index.files.iter().find(|f| f.site == SiteId::CLOUD).unwrap().id;
    let mut wrapped: BTreeMap<SiteId, Arc<dyn ChunkStore>> = BTreeMap::new();
    wrapped.insert(
        SiteId::LOCAL,
        Arc::new(stores.remove(&SiteId::LOCAL).unwrap()) as Arc<dyn ChunkStore>,
    );
    wrapped
        .insert(SiteId::CLOUD, Arc::new(PoisonedStore { inner: cloud, poisoned: poisoned_file }));

    let env = EnvConfig::new("env-50/50", 0.5, 2, 2);
    let err = run_hybrid(&WordCount, &index, wrapped, &fast_config(env)).unwrap_err();
    match err {
        RunError::Io(e) => assert!(e.to_string().contains("injected"), "{e}"),
        other => panic!("expected Io error, got {other}"),
    }
}

#[test]
fn straggling_site_sheds_load_to_the_fast_site() {
    let (index, mut stores) = organized(8_000, 0.5);
    // The cloud's storage is 100x slower per read; the pooling-based
    // balancer must shift most of the work to the local site.
    let cloud = SlowStore {
        inner: stores.remove(&SiteId::CLOUD).unwrap(),
        delay: Duration::from_millis(25),
        reads: AtomicU64::new(0),
    };
    let mut wrapped: BTreeMap<SiteId, Arc<dyn ChunkStore>> = BTreeMap::new();
    wrapped.insert(
        SiteId::LOCAL,
        Arc::new(stores.remove(&SiteId::LOCAL).unwrap()) as Arc<dyn ChunkStore>,
    );
    wrapped.insert(SiteId::CLOUD, Arc::new(cloud));

    let env = EnvConfig::new("straggler", 0.5, 2, 2);
    let data = gen_words(8_000, 32, 9);
    let out = run_hybrid(&WordCount, &index, wrapped, &fast_config(env)).unwrap();
    // Correctness is unconditional.
    assert_eq!(out.result.as_string_counts(), wordcount_oracle(&data));
    // The local site must end up processing well over its 50% data share.
    let local_jobs = out.report.sites[&SiteId::LOCAL].jobs.total();
    let cloud_jobs = out.report.sites[&SiteId::CLOUD].jobs.total();
    assert!(
        local_jobs > cloud_jobs,
        "load balancer should favor the fast site: local {local_jobs} vs cloud {cloud_jobs}"
    );
    assert!(
        out.report.sites[&SiteId::LOCAL].jobs.stolen > 0,
        "local must steal from the straggler"
    );
}

#[test]
fn single_worker_single_site_still_completes() {
    let (index, mut stores) = organized(1_000, 1.0);
    let mut wrapped: BTreeMap<SiteId, Arc<dyn ChunkStore>> = BTreeMap::new();
    wrapped.insert(
        SiteId::LOCAL,
        Arc::new(stores.remove(&SiteId::LOCAL).unwrap()) as Arc<dyn ChunkStore>,
    );
    let env = EnvConfig::new("tiny", 1.0, 1, 0);
    let out = run_hybrid(&WordCount, &index, wrapped, &fast_config(env)).unwrap();
    assert_eq!(out.result.total(), 1_000);
}

#[test]
fn cores_only_on_the_dataless_site_work_via_stealing() {
    // All data local, all compute in the cloud: every job is a steal.
    let (index, mut stores) = organized(2_000, 1.0);
    let mut wrapped: BTreeMap<SiteId, Arc<dyn ChunkStore>> = BTreeMap::new();
    wrapped.insert(
        SiteId::LOCAL,
        Arc::new(stores.remove(&SiteId::LOCAL).unwrap()) as Arc<dyn ChunkStore>,
    );
    let env = EnvConfig::new("all-steal", 1.0, 0, 2);
    let out = run_hybrid(&WordCount, &index, wrapped, &fast_config(env)).unwrap();
    assert_eq!(out.result.total(), 2_000);
    let cloud = &out.report.sites[&SiteId::CLOUD];
    assert_eq!(cloud.jobs.local, 0);
    assert_eq!(cloud.jobs.stolen, out.head.completions);
    assert!(cloud.remote_bytes > 0);
}

#[test]
fn missing_store_is_rejected_before_any_work() {
    let (index, mut stores) = organized(1_000, 0.5);
    let mut wrapped: BTreeMap<SiteId, Arc<dyn ChunkStore>> = BTreeMap::new();
    wrapped.insert(
        SiteId::LOCAL,
        Arc::new(stores.remove(&SiteId::LOCAL).unwrap()) as Arc<dyn ChunkStore>,
    );
    // No cloud store although the cloud hosts half the files.
    let env = EnvConfig::new("broken", 0.5, 2, 2);
    let err = run_hybrid(&WordCount, &index, wrapped, &fast_config(env)).unwrap_err();
    assert!(matches!(err, RunError::NoStoreForSite(SiteId::CLOUD)));
}

/// A store whose reads fail the first `fail_first` times, then succeed — a
/// transient outage (dropped connections, S3 503s).
struct TransientStore {
    inner: SiteStore,
    fail_first: u64,
    attempts: AtomicU64,
}

impl ChunkStore for TransientStore {
    fn site(&self) -> SiteId {
        self.inner.site()
    }
    fn read(&self, file: FileId, offset: ByteSize, len: ByteSize) -> io::Result<Bytes> {
        let n = self.attempts.fetch_add(1, Ordering::SeqCst);
        if n < self.fail_first {
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "injected: transient"));
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
fn retry_policy_survives_transient_failures() {
    use cloudburst_cluster::FaultPolicy;
    let (index, mut stores) = organized(4_000, 0.5);
    let data = gen_words(4_000, 32, 9);
    let cloud = TransientStore {
        inner: stores.remove(&SiteId::CLOUD).unwrap(),
        fail_first: 3,
        attempts: AtomicU64::new(0),
    };
    let mut wrapped: BTreeMap<SiteId, Arc<dyn ChunkStore>> = BTreeMap::new();
    wrapped.insert(
        SiteId::LOCAL,
        Arc::new(stores.remove(&SiteId::LOCAL).unwrap()) as Arc<dyn ChunkStore>,
    );
    wrapped.insert(SiteId::CLOUD, Arc::new(cloud));

    let env = EnvConfig::new("transient", 0.5, 2, 2);
    let mut config = fast_config(env);
    config.fault_policy = FaultPolicy::Retry { max_attempts: 5 };
    let out = run_hybrid(&WordCount, &index, wrapped, &config).expect("retries must save the run");
    // Correctness is full despite the outage.
    assert_eq!(out.result.as_string_counts(), wordcount_oracle(&data));
    assert!(out.head.failures >= 1, "failures must be recorded");
    assert_eq!(out.head.abandoned, 0);
}

#[test]
fn permanent_failure_with_retry_reports_incomplete() {
    use cloudburst_cluster::FaultPolicy;
    let (index, mut stores) = organized(4_000, 0.5);
    let poisoned_file = index.files.iter().find(|f| f.site == SiteId::CLOUD).unwrap().id;
    let cloud =
        PoisonedStore { inner: stores.remove(&SiteId::CLOUD).unwrap(), poisoned: poisoned_file };
    let mut wrapped: BTreeMap<SiteId, Arc<dyn ChunkStore>> = BTreeMap::new();
    wrapped.insert(
        SiteId::LOCAL,
        Arc::new(stores.remove(&SiteId::LOCAL).unwrap()) as Arc<dyn ChunkStore>,
    );
    wrapped.insert(SiteId::CLOUD, Arc::new(cloud));

    let env = EnvConfig::new("permanent", 0.5, 2, 2);
    let mut config = fast_config(env);
    config.fault_policy = FaultPolicy::Retry { max_attempts: 2 };
    let err = run_hybrid(&WordCount, &index, wrapped, &config).unwrap_err();
    match err {
        RunError::Incomplete { abandoned } => assert!(!abandoned.is_empty()),
        other => panic!("expected Incomplete, got {other}"),
    }
}

#[test]
fn fail_fast_remains_the_default() {
    let (_, stores) = organized(100, 1.0);
    drop(stores);
    let env = EnvConfig::new("default", 1.0, 1, 0);
    let config = fast_config(env);
    assert_eq!(config.fault_policy, cloudburst_cluster::FaultPolicy::FailFast);
}

/// An app that panics on a magic byte — a crashing worker — for as long as
/// it has panics left.
struct PanickyApp {
    panics_left: AtomicU64,
}

impl cloudburst_core::Reduction for PanickyApp {
    type Item = u8;
    type RObj = cloudburst_core::combiners::Count;
    fn make_robj(&self) -> Self::RObj {
        cloudburst_core::combiners::Count(0)
    }
    fn unit_size(&self) -> usize {
        1
    }
    fn decode(&self, chunk: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(chunk);
    }
    fn local_reduce(&self, robj: &mut Self::RObj, item: &u8) {
        let poisoned = *item == 0xEE
            && self
                .panics_left
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok();
        assert!(!poisoned, "injected: poisoned record");
        robj.bump();
    }
}

#[test]
fn worker_panic_becomes_an_error_not_a_hang() {
    use cloudburst_storage::organize;
    // One poisoned byte in the middle of the dataset.
    let mut raw = vec![1u8; 4096];
    raw[2048] = 0xEE;
    let data = Bytes::from(raw);
    let params = LayoutParams { unit_size: 1, units_per_chunk: 256, n_files: 4 };
    let org = organize(&data, params, &mut fraction_placement(0.5, 4)).unwrap();
    let stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = org
        .stores
        .iter()
        .map(|(&s, st)| (s, Arc::new(st.clone()) as Arc<dyn ChunkStore>))
        .collect();
    let env = EnvConfig::new("panicky", 0.5, 2, 2);
    let app = PanickyApp { panics_left: AtomicU64::new(u64::MAX) };
    let err = run_hybrid(&app, &org.index, stores, &fast_config(env)).unwrap_err();
    match err {
        RunError::WorkerPanic(msg) => assert!(msg.contains("poisoned record"), "{msg}"),
        other => panic!("expected WorkerPanic, got {other}"),
    }
}

#[test]
fn job_after_a_mid_reduce_panic_starts_from_a_clean_scratch() {
    use cloudburst_cluster::FaultPolicy;
    // The poisoned byte sits 100 units into its chunk, so the worker's
    // scratch object already holds 100 counts when the panic hits. With one
    // worker, the next job and the retry of the failed one both reuse it:
    // a half-applied scratch that survived would be committed with them.
    let mut raw = vec![1u8; 4096];
    raw[2048 + 100] = 0xEE;
    let data = Bytes::from(raw);
    let params = LayoutParams { unit_size: 1, units_per_chunk: 256, n_files: 4 };
    for depth in [1, 3] {
        let org = organize(&data, params, &mut fraction_placement(1.0, 4)).unwrap();
        let stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = org
            .stores
            .iter()
            .map(|(&s, st)| (s, Arc::new(st.clone()) as Arc<dyn ChunkStore>))
            .collect();
        let mut config = fast_config(EnvConfig::new("panic-once", 1.0, 1, 0));
        config.fault_policy = FaultPolicy::Retry { max_attempts: 3 };
        config.pipeline_depth = depth;
        let app = PanickyApp { panics_left: AtomicU64::new(1) };
        let out = run_hybrid(&app, &org.index, stores, &config).expect("the retry must succeed");
        assert_eq!(out.result.0, 4096, "depth {depth}: every unit counted exactly once");
        assert_eq!(out.head.failures, 1, "depth {depth}");
    }
}
