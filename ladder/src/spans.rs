//! In-situ tracing from outside the runtime: decorators around the three
//! traits the runtime calls into — [`SpanStore`] (a `ChunkStore`),
//! [`SpanApp`] (a `Reduction`) and its [`SpanRObj`] (`Merge` /
//! `ReductionObject`) — each recording one span per call into a shared
//! in-memory [`SpanLog`]. Nothing is written anywhere until the benchmark
//! ends. Every decorator forwards to the wrapped value and returns its
//! answer untouched.

use crate::api::{ChunkStore, FileId, Merge, Reduction, ReductionObject, SiteId};
use crate::stats::{median, percentile, self_time_ns};
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `app.decode` or `store.read.s3sim`.
    pub name: &'static str,
    /// Small dense id of the recording thread (process-wide).
    pub thread: u32,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// The burst that caused the call — the parent span every layer span
    /// of one burst shares.
    pub burst: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_ID: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

const SHARDS: usize = 16;

/// The in-memory span sink shared by every decorator of a traced burst.
/// Threads append to the shard their id selects, so two slaves rarely meet
/// on one lock.
pub struct SpanLog {
    epoch: Instant,
    burst: AtomicU32,
    shards: [Mutex<Vec<Span>>; SHARDS],
    /// Payload bytes returned by store reads.
    pub bytes_read: AtomicU64,
    /// Data units produced by `decode`.
    pub units_decoded: AtomicU64,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            burst: AtomicU32::new(0),
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
            bytes_read: AtomicU64::new(0),
            units_decoded: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since the log's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Name the burst that subsequent spans belong to.
    pub fn set_burst(&self, burst: u32) {
        self.burst.store(burst, Ordering::Relaxed);
    }

    /// Record a call that began at `start` and has just returned.
    pub fn record(&self, name: &'static str, start: Instant) {
        let end_ns = self.now_ns();
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let thread = THREAD_ID.with(|t| *t);
        let span =
            Span { name, thread, start_ns, end_ns, burst: self.burst.load(Ordering::Relaxed) };
        self.shards[thread as usize % SHARDS]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Every span recorded so far, ordered by start time.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut all: Vec<Span> = Vec::new();
        for shard in &self.shards {
            all.extend_from_slice(&shard.lock().unwrap_or_else(PoisonError::into_inner));
        }
        all.sort_by_key(|s| (s.start_ns, s.thread));
        all
    }
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog::new()
    }
}

/// Totals of the spans sharing one name prefix.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Calls.
    pub count: u64,
    /// Summed duration over all threads, seconds.
    pub busy_s: f64,
    /// Median call duration, microseconds.
    pub us_p50: f64,
    /// 90th-percentile call duration, microseconds (0 with fewer than 100
    /// calls: a tail needs ten samples beyond it).
    pub us_p90: f64,
}

/// Aggregate the spans whose name is `prefix` or starts with `prefix.`.
pub fn span_stats(spans: &[Span], prefix: &str) -> SpanStats {
    let durs_us: Vec<f64> = spans
        .iter()
        .filter(|s| {
            s.name == prefix
                || (s.name.starts_with(prefix)
                    && s.name.as_bytes().get(prefix.len()) == Some(&b'.'))
        })
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    SpanStats {
        count: durs_us.len() as u64,
        busy_s: durs_us.iter().sum::<f64>() / 1e6,
        us_p50: median(&durs_us).unwrap_or(0.0),
        us_p90: percentile(&durs_us, 90.0).unwrap_or(0.0),
    }
}

/// Share of the burst `[start_ns, end_ns)` that the threads which ran
/// application code spent *outside* every recorded span: the burst span's
/// self time per slave thread, summed, over burst duration × slave threads.
/// Waiting for grants, acks and multi-range retrievals (whose reads run on
/// fetcher-pool threads) all land here.
pub fn burst_self_frac(spans: &[Span], start_ns: u64, end_ns: u64) -> f64 {
    let mut per_thread: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        per_thread.entry(s.thread).or_default().push((s.start_ns, s.end_ns));
    }
    let slaves: BTreeSet<u32> =
        spans.iter().filter(|s| s.name.starts_with("app.")).map(|s| s.thread).collect();
    if slaves.is_empty() || end_ns <= start_ns {
        return 0.0;
    }
    let idle: u64 = slaves.iter().map(|t| self_time_ns((start_ns, end_ns), &per_thread[t])).sum();
    idle as f64 / ((end_ns - start_ns) as f64 * slaves.len() as f64)
}

/// A `ChunkStore` that records a `store.read.<kind>` span and the payload
/// size of every ranged read, whichever of the two read entry points the
/// retrieval path picks.
pub struct SpanStore {
    inner: Arc<dyn ChunkStore>,
    log: Arc<SpanLog>,
    name: &'static str,
}

impl SpanStore {
    /// Wrap `inner`, recording into `log`.
    pub fn new(inner: Arc<dyn ChunkStore>, log: Arc<SpanLog>) -> SpanStore {
        let name = match inner.kind() {
            "file" => "store.read.file",
            "s3sim" => "store.read.s3sim",
            "mem" => "store.read.mem",
            _ => "store.read.other",
        };
        SpanStore { inner, log, name }
    }
}

impl ChunkStore for SpanStore {
    fn site(&self) -> SiteId {
        self.inner.site()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn read(&self, file: FileId, offset: u64, len: u64) -> io::Result<Bytes> {
        let start = Instant::now();
        let out = self.inner.read(file, offset, len);
        self.log.record(self.name, start);
        if out.is_ok() {
            self.log.bytes_read.fetch_add(len, Ordering::Relaxed);
        }
        out
    }

    fn read_into(&self, file: FileId, offset: u64, out: &mut [u8]) -> io::Result<()> {
        let start = Instant::now();
        let res = self.inner.read_into(file, offset, out);
        self.log.record(self.name, start);
        if res.is_ok() {
            self.log.bytes_read.fetch_add(out.len() as u64, Ordering::Relaxed);
        }
        res
    }

    fn file_len(&self, file: FileId) -> io::Result<u64> {
        self.inner.file_len(file)
    }

    fn n_files(&self) -> usize {
        self.inner.n_files()
    }
}

/// A `Reduction` that records `robj.make`, `app.decode` and
/// `app.reduce_group` spans around the wrapped application.
pub struct SpanApp<R> {
    inner: R,
    log: Arc<SpanLog>,
}

impl<R: Reduction> SpanApp<R> {
    /// Wrap `inner`, recording into `log`.
    pub fn new(inner: R, log: Arc<SpanLog>) -> SpanApp<R> {
        SpanApp { inner, log }
    }

    /// The wrapped application.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

/// The reduction object of a [`SpanApp`]: the wrapped object plus a
/// `robj.merge` span around every merge.
pub struct SpanRObj<O> {
    /// The application's own reduction object.
    pub inner: O,
    log: Arc<SpanLog>,
}

impl<O: Merge> Merge for SpanRObj<O> {
    fn merge(&mut self, other: SpanRObj<O>) {
        let start = Instant::now();
        self.inner.merge(other.inner);
        self.log.record("robj.merge", start);
    }
}

impl<O: ReductionObject> ReductionObject for SpanRObj<O> {
    fn byte_size(&self) -> usize {
        self.inner.byte_size()
    }
}

impl<R: Reduction> Reduction for SpanApp<R> {
    type Item = R::Item;
    type RObj = SpanRObj<R::RObj>;

    fn make_robj(&self) -> SpanRObj<R::RObj> {
        let start = Instant::now();
        let inner = self.inner.make_robj();
        self.log.record("robj.make", start);
        SpanRObj { inner, log: Arc::clone(&self.log) }
    }

    fn unit_size(&self) -> usize {
        self.inner.unit_size()
    }

    fn decode(&self, chunk: &[u8], out: &mut Vec<R::Item>) {
        let before = out.len();
        let start = Instant::now();
        self.inner.decode(chunk, out);
        self.log.record("app.decode", start);
        self.log.units_decoded.fetch_add((out.len() - before) as u64, Ordering::Relaxed);
    }

    fn local_reduce(&self, robj: &mut SpanRObj<R::RObj>, item: &R::Item) {
        self.inner.local_reduce(&mut robj.inner, item);
    }

    fn reduce_group(&self, robj: &mut SpanRObj<R::RObj>, items: &[R::Item]) {
        let start = Instant::now();
        self.inner.reduce_group(&mut robj.inner, items);
        self.log.record("app.reduce_group", start);
    }

    fn compute_hint(&self) -> Option<f64> {
        self.inner.compute_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, thread: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { name, thread, start_ns, end_ns, burst: 1 }
    }

    #[test]
    fn stats_match_by_name_or_dotted_prefix_only() {
        let spans = [
            span("store.read.mem", 0, 0, 2_000),
            span("store.read.file", 1, 0, 4_000),
            span("store.readahead", 1, 0, 9_000),
            span("app.decode", 0, 0, 1_000),
        ];
        let s = span_stats(&spans, "store.read");
        assert_eq!(s.count, 2);
        assert!((s.busy_s - 6e-6).abs() < 1e-12);
        assert_eq!(s.us_p50, 3.0);
        assert_eq!(s.us_p90, 0.0, "two samples carry no tail");
        assert_eq!(span_stats(&spans, "app.decode").count, 1);
        assert_eq!(span_stats(&spans, "robj.merge"), SpanStats::default());
    }

    #[test]
    fn burst_self_time_counts_only_threads_that_ran_app_code() {
        // Thread 0 is a slave: 1000 ns burst, 300 + 200 ns covered.
        // Thread 7 is a fetcher-pool thread: its reads are not a slave's.
        let spans = [
            span("app.decode", 0, 100, 400),
            span("app.reduce_group", 0, 400, 600),
            span("store.read.s3sim", 7, 0, 1_000),
        ];
        assert!((burst_self_frac(&spans, 0, 1_000) - 0.5).abs() < 1e-12);
        assert_eq!(burst_self_frac(&[], 0, 1_000), 0.0);
    }

    #[test]
    fn log_orders_spans_and_tags_the_burst() {
        let log = SpanLog::new();
        log.set_burst(3);
        let t0 = Instant::now();
        log.record("a", t0);
        log.record("b", Instant::now());
        let spans = log.snapshot();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.burst == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns);
    }
}
