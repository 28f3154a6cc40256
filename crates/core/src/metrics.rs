//! Live run metrics: the live ledger and two latency histograms, exposed
//! through a registry that renders Prometheus text exposition format 0.0.4.
//!
//! Telemetry (`crate::telemetry`) records *every* event; that is the right
//! shape for traces and post-hoc analysis but the wrong one for a live
//! operator view of a long run — per-event logs grow without bound and
//! answering "what is the steal rate right now" means replaying the log.
//! This module keeps *aggregates* instead, with the same cost discipline as
//! the telemetry handle:
//!
//! * **one ledger.** Every count is a fold of events: the registry owns the
//!   handle's live ledger — the pool's and the slaves' tallies the reports are
//!   built from, as each run's head and slaves publish them — renders it as
//!   the pool's and the slaves' families, and reads it typed for the live view
//!   ([`Registry::ledger`]).
//! * **two instruments.** What no fold gives is the distribution of the
//!   per-chunk fetch and process latencies: `cloudburst_fetch_seconds` and
//!   `cloudburst_process_seconds`, recorded in nanoseconds and rendered in
//!   seconds. A histogram is a fixed 496-bucket log-linear grid (exact below
//!   16, then 8 sub-buckets per power of two — ≤ 12.5% relative error)
//!   totalling ~4 KB however many values it absorbs; recording is two relaxed
//!   `fetch_add`s.
//! * **disabled = one branch.** A handle built with [`Metrics::off`] hands
//!   out histograms and ledgers that are a `None`: a would-be observation or
//!   publish costs one well-predicted test.
//!
//! Registration (cold path) goes through [`Registry`], which deduplicates
//! by `(name, labels)` so re-registering returns the *same* histogram —
//! iterative applications accumulate across `run_hybrid` calls instead of
//! emitting duplicate series. [`Registry::render`] produces deterministic,
//! sorted exposition text; [`parse_exposition`] is the matching strict
//! parser/validator used by `cloudburst check-metrics` and the proptests.
//! [`MetricsServer`] is a dependency-free `/metrics` HTTP listener.

use crate::pool::JobPool;
use crate::stats::SlaveSample;
use crate::telemetry::SiteRow;
use crate::types::SiteId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Log-linear histograms
// ---------------------------------------------------------------------------

/// Total buckets in the fixed log-linear grid: values 0..15 get exact
/// buckets, then every power of two up to `u64::MAX` is split into 8 linear
/// sub-buckets (HDR-histogram style), bounding relative error at 12.5%.
pub const HISTOGRAM_BUCKETS: usize = 16 + 60 * 8;

/// Seconds per recorded unit: histograms record nanoseconds and render
/// seconds.
const SECS_PER_NS: f64 = 1e-9;

/// Bucket index of a raw value.
#[inline]
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < 16 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // >= 4
        16 + (msb - 4) * 8 + ((v >> (msb - 3)) & 7) as usize
    }
}

/// Inclusive upper bound of bucket `i` (the `le` boundary of the grid).
#[must_use]
pub fn bucket_upper(i: usize) -> u64 {
    assert!(i < HISTOGRAM_BUCKETS, "bucket index {i} out of range");
    if i < 16 {
        i as u64
    } else {
        let oct = (i - 16) / 8 + 4;
        let sub = ((i - 16) % 8) as u128;
        let step = 1u128 << (oct - 3);
        let upper = (1u128 << oct) + (sub + 1) * step - 1;
        u64::try_from(upper).unwrap_or(u64::MAX)
    }
}

/// Shared state of one histogram series.
struct HistogramCore {
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            counts: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> (Vec<u64>, u64) {
        let counts = self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        (counts, self.sum.load(Ordering::Relaxed))
    }
}

/// A bounded-memory latency distribution, recorded in nanoseconds and read
/// in seconds. Recording is two relaxed atomic adds; quantile queries walk
/// the 496-bucket grid. Cloning is cheap (an `Arc`); a default-constructed
/// or [`Histogram::noop`] handle ignores observations.
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// A disabled histogram.
    #[must_use]
    pub fn noop() -> Histogram {
        Histogram(None)
    }

    /// Record a raw value (nanoseconds).
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(core) = &self.0 {
            core.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            core.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Record a duration in seconds as nanoseconds.
    #[inline]
    pub fn observe_secs(&self, secs: f64) {
        if self.0.is_some() {
            let ns = if secs <= 0.0 { 0 } else { (secs * 1e9).min(u64::MAX as f64) as u64 };
            self.observe(ns);
        }
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.snapshot().0.iter().sum())
    }

    /// Sum of recorded values in seconds.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |c| c.sum.load(Ordering::Relaxed) as f64 * SECS_PER_NS)
    }

    /// Raw-unit quantile estimate: the upper bound of the bucket holding the
    /// rank-`ceil(q·count)` value (0 when empty). Error ≤ one sub-bucket,
    /// i.e. ≤ 12.5% relative.
    #[must_use]
    pub fn quantile_raw(&self, q: f64) -> u64 {
        let Some(core) = &self.0 else { return 0 };
        let (counts, _) = core.snapshot();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(HISTOGRAM_BUCKETS - 1)
    }

    /// Quantile in seconds.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        self.quantile_raw(q) as f64 * SECS_PER_NS
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(count={})", self.count())
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The kind of a metric family, as rendered in `# TYPE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    /// Monotonically increasing.
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Bucketed distribution.
    Histogram,
}

impl MetricKind {
    fn type_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

type LabelSet = Vec<(String, String)>;

/// One histogram family: its help and its series by label set.
struct Family {
    help: String,
    series: BTreeMap<LabelSet, Arc<HistogramCore>>,
}

/// The metric store behind an enabled [`Metrics`] handle: families of
/// labeled histogram series and the handle's live ledger, rendered on demand.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
    ledger: LedgerHub,
}

fn canon_labels(labels: &[(&str, &str)]) -> LabelSet {
    let mut v: LabelSet = labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect();
    v.sort();
    v
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
        && !name.as_bytes()[0].is_ascii_digit()
}

impl Registry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get-or-create the histogram series `name{labels}`.
    fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        assert!(valid_name(name), "invalid metric name `{name}`");
        let mut families = self.families.lock();
        let family = (families.entry(name.to_owned()))
            .or_insert_with(|| Family { help: help.to_owned(), series: BTreeMap::new() });
        let core = (family.series.entry(canon_labels(labels)))
            .or_insert_with(|| Arc::new(HistogramCore::new()));
        Histogram(Some(Arc::clone(core)))
    }

    /// The observations of histogram `name` over its series whose labels
    /// include every pair of `labels`; 0 when no series matches.
    #[must_use]
    pub fn total(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let families = self.families.lock();
        let Some(family) = families.get(name) else { return 0 };
        let wanted = |have: &LabelSet| {
            labels.iter().all(|&(k, v)| have.iter().any(|(hk, hv)| hk == k && hv == v))
        };
        let series = family.series.iter().filter(|(have, _)| wanted(have));
        series.map(|(_, h)| h.snapshot().0.iter().sum::<u64>()).sum()
    }

    /// The live ledger summed over every publisher this handle has had, by
    /// site: what `--watch`, `/debug` and the health sampler show.
    #[must_use]
    pub fn ledger(&self) -> LedgerTotals {
        self.ledger.sum().by_site()
    }

    /// Render Prometheus text exposition format 0.0.4: `# HELP`/`# TYPE`
    /// once per family, series sorted, histograms as cumulative
    /// `_bucket`/`_sum`/`_count` in seconds. Deterministic for a fixed
    /// metric state.
    #[must_use]
    pub fn render(&self) -> String {
        let mut render: BTreeMap<String, Rendered> = BTreeMap::new();
        for (name, family) in self.families.lock().iter() {
            let rf = (render.entry(name.clone()))
                .or_insert_with(|| Rendered::new(&family.help, MetricKind::Histogram));
            for (labels, h) in &family.series {
                rf.hists.insert(labels.clone(), h.snapshot());
            }
        }
        self.ledger.sum().render(&mut render);

        let mut out = String::new();
        for (name, rf) in &render {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&rf.help));
            let _ = writeln!(out, "# TYPE {name} {}", rf.kind.type_name());
            for (labels, value) in &rf.scalars {
                let _ =
                    writeln!(out, "{name}{} {}", render_labels(labels, None), fmt_value(*value));
            }
            for (labels, (counts, sum)) in &rf.hists {
                let mut cumulative = 0u64;
                for (i, c) in counts.iter().enumerate() {
                    if *c == 0 {
                        continue;
                    }
                    cumulative += c;
                    let le = bucket_upper(i) as f64 * SECS_PER_NS;
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {cumulative}",
                        render_labels(labels, Some(&fmt_value(le)))
                    );
                }
                let total: u64 = counts.iter().sum();
                let _ =
                    writeln!(out, "{name}_bucket{} {total}", render_labels(labels, Some("+Inf")));
                let sum = fmt_value(*sum as f64 * SECS_PER_NS);
                let _ = writeln!(out, "{name}_sum{} {sum}", render_labels(labels, None));
                let _ = writeln!(out, "{name}_count{} {total}", render_labels(labels, None));
            }
        }
        out
    }
}

/// One family as [`Registry::render`] writes it.
struct Rendered {
    help: String,
    kind: MetricKind,
    scalars: BTreeMap<LabelSet, f64>,
    /// A histogram's bucket counts and raw sum.
    hists: BTreeMap<LabelSet, (Vec<u64>, u64)>,
}

impl Rendered {
    fn new(help: &str, kind: MetricKind) -> Rendered {
        Rendered { help: help.to_owned(), kind, scalars: BTreeMap::new(), hists: BTreeMap::new() }
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn render_labels(labels: &LabelSet, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v))).collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------------
// The handle
// ---------------------------------------------------------------------------

/// The cheap, cloneable metrics handle threaded through the runtime — the
/// metrics twin of [`crate::telemetry::Telemetry`]. Disabled ([`Metrics::off`])
/// it is a `None`, and every histogram and ledger it hands out is a no-op.
#[derive(Clone, Default)]
pub struct Metrics {
    registry: Option<Arc<Registry>>,
}

impl Metrics {
    /// The disabled handle: histograms and ledgers cost one branch.
    #[must_use]
    pub fn off() -> Metrics {
        Metrics { registry: None }
    }

    /// An enabled handle over a fresh registry, which holds and renders the
    /// handle's live ledger.
    #[must_use]
    pub fn on() -> Metrics {
        Metrics { registry: Some(Arc::new(Registry::new())) }
    }

    /// Whether a registry is attached.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The attached registry, if any.
    #[must_use]
    pub fn registry(&self) -> Option<Arc<Registry>> {
        self.registry.clone()
    }

    /// Get-or-create a latency histogram recording nanoseconds and rendering
    /// seconds (name it `*_seconds`; feed it with [`Histogram::observe_secs`]).
    #[must_use]
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match &self.registry {
            Some(r) => r.histogram(name, help, labels),
            None => Histogram::noop(),
        }
    }

    /// Where one head or one slave publishes its ledger to this handle;
    /// what it publishes is in the scrape from then on.
    #[must_use]
    pub fn ledger(&self) -> LiveLedger {
        let Some(registry) = &self.registry else { return LiveLedger::default() };
        let mine = Arc::new(Mutex::new(Totals::default()));
        registry.ledger.0.lock().1.push(Arc::clone(&mine));
        LiveLedger(Some((Arc::clone(registry), mine)))
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Metrics({})", if self.is_enabled() { "on" } else { "off" })
    }
}

// ---------------------------------------------------------------------------
// The live ledger
// ---------------------------------------------------------------------------

/// Where one head or one slave publishes what it has tallied — the pool's
/// [`PoolTally`](crate::telemetry::PoolTally) or the slave's [`SlaveSample`],
/// which the run report is built from — for the scrape and the live view.
/// Made by [`Metrics::ledger`]; off, it is a `None`. Dropped, what it last
/// counted moves into its handle's running totals, and nothing of its pool
/// waits or is in flight any more.
#[derive(Default)]
pub struct LiveLedger(Option<(Arc<Registry>, Arc<Mutex<Totals>>)>);

/// The live ledger of one enabled [`Metrics`] handle, held by its registry:
/// the totals of the publishers already dropped, and the open publishers'
/// own. Runs that share the handle add up, and what it holds follows the
/// publishers alive, not the runs it served.
#[derive(Default)]
struct LedgerHub(Mutex<(Totals, Vec<Arc<Mutex<Totals>>>)>);

/// The live ledger as the live view reads it ([`Registry::ledger`]): each
/// site's totals, and the jobs in flight.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerTotals {
    /// Jobs leased to some site now.
    pub in_flight: u64,
    /// Every site a publisher has named: one whose shard holds data, whose
    /// slaves published, or whose pool row counts anything.
    pub sites: BTreeMap<SiteId, SiteTotals>,
}

/// One site's row of [`LedgerTotals`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SiteTotals {
    /// Job leases the head granted the site.
    pub grants: u64,
    /// Jobs the site stole from other sites' shards.
    pub steals: u64,
    /// Jobs other sites stole out of the site's shard.
    pub stolen_from: u64,
    /// The site's leases the head reaped.
    pub lease_reaps: u64,
    /// Jobs waiting in the site's shard.
    pub depth: u64,
    /// Jobs leased to the site now: granted, not yet completed, failed,
    /// reaped or evacuated. A site that holds none has run out of work.
    pub leased: u64,
    /// Jobs the site's slaves decoded and reduced.
    pub jobs: u64,
    /// Seconds the site's slaves spent fetching and processing.
    pub busy_secs: f64,
    /// Bytes the site's slaves fetched across sites.
    pub remote_bytes: u64,
    /// Bytes the site's slaves fetched, from any store.
    pub fetched_bytes: u64,
    /// WAN-class fetches the site's slaves made.
    pub wan_fetches: u64,
    /// Seconds the site's WAN-class fetches took.
    pub wan_secs: f64,
    /// Answers with jobs the site's slaves heard from its master.
    pub hand_offs: u64,
    /// Jobs those answers brought.
    pub handed: u64,
    /// Exchanges in which the site's slaves reported jobs for verdicts.
    pub settles: u64,
    /// Jobs those exchanges reported.
    pub settled: u64,
}

impl LedgerTotals {
    /// The sum of every site's row.
    #[must_use]
    pub fn all(&self) -> SiteTotals {
        self.sites.values().fold(SiteTotals::default(), |a, s| SiteTotals {
            grants: a.grants + s.grants,
            steals: a.steals + s.steals,
            stolen_from: a.stolen_from + s.stolen_from,
            lease_reaps: a.lease_reaps + s.lease_reaps,
            depth: a.depth + s.depth,
            leased: a.leased + s.leased,
            jobs: a.jobs + s.jobs,
            busy_secs: a.busy_secs + s.busy_secs,
            remote_bytes: a.remote_bytes + s.remote_bytes,
            fetched_bytes: a.fetched_bytes + s.fetched_bytes,
            wan_fetches: a.wan_fetches + s.wan_fetches,
            wan_secs: a.wan_secs + s.wan_secs,
            hand_offs: a.hand_offs + s.hand_offs,
            handed: a.handed + s.handed,
            settles: a.settles + s.settles,
            settled: a.settled + s.settled,
        })
    }
}

/// The ledger families' values: each site's pool counts in
/// [`POOL_FAMILIES`] order, the jobs waiting per shard (every shard, from
/// the first publish on), the jobs in flight once a head published, and
/// each slave's sample, rendered as [`SLAVE_FAMILIES`] and, summed by site,
/// [`EXCHANGE_FAMILIES`]. Beside them, the
/// jobs leased to each site and the samples' fetch fields the families do
/// not show, which the live view reads typed.
#[derive(Clone, Default)]
struct Totals {
    pool: Vec<[u64; 16]>,
    depth: BTreeMap<SiteId, u64>,
    leased: BTreeMap<SiteId, u64>,
    in_flight: Option<u64>,
    slaves: BTreeMap<(SiteId, u32), SlaveSample>,
}

impl LiveLedger {
    /// Publish the head's `pool`.
    pub fn publish_pool(&self, pool: &JobPool) {
        if let Some((_, mine)) = &self.0 {
            mine.lock().set_pool(pool);
        }
    }

    /// Publish what slave `worker` at `site` has tallied.
    pub fn publish_slave(&self, site: SiteId, worker: u32, sample: &SlaveSample) {
        if let Some((_, mine)) = &self.0 {
            mine.lock().slaves.insert((site, worker), *sample);
        }
    }
}

impl Drop for LiveLedger {
    fn drop(&mut self) {
        if let Some((registry, mine)) = self.0.take() {
            let (closed, open) = &mut *registry.ledger.0.lock();
            let mut gone = mine.lock();
            gone.depth.values_mut().for_each(|d| *d = 0);
            gone.leased.values_mut().for_each(|n| *n = 0);
            gone.in_flight = gone.in_flight.map(|_| 0);
            closed.add(&gone);
            drop(gone);
            open.retain(|other| !Arc::ptr_eq(other, &mine));
        }
    }
}

impl LedgerHub {
    /// The ledger's one sum, under the lock a publisher's drop takes to move
    /// its totals: no read counts them twice or not at all.
    fn sum(&self) -> Totals {
        let (closed, open) = &*self.0.lock();
        let mut totals = closed.clone();
        open.iter().for_each(|mine| totals.add(&mine.lock()));
        totals
    }
}

/// The `# HELP` text of the ledger's families.
mod help {
    pub const GRANTS: &str = "Job leases granted by the head (speculative copies included).";
    pub const STEALS: &str = "Cross-site (stolen) job grants.";
    pub const STOLEN_FROM: &str = "Jobs stolen out of a site's shard by other sites.";
    pub const SPECULATIONS: &str = "Speculative straggler re-executions granted.";
    pub const REPLICAS: &str = "Proactive replica executions granted under coded redundancy.";
    pub const MERGED: &str = "Completions accepted for merging, by processing site and job kind.";
    pub const LOST: &str = "Merged results that died with an evacuated site's robj.";
    pub const DUPLICATES: &str = "Completion reports discarded by the dedup verdict.";
    pub const REAPS: &str = "Silent leases reclaimed after their deadline.";
    pub const FAILURES: &str = "Processing failures reported per site.";
    pub const EVACUATED: &str = "In-flight leases revoked by site evacuation.";
    pub const WINS: &str = "Replica executions that completed first and were merged.";
    pub const FENCES: &str = "Sibling executions fenced because a replica completed first.";
    pub const SAVED: &str =
        "Evacuation re-executions served from a local replica (no WAN re-fetch).";
    pub const DEPTH: &str = "Jobs waiting in the head's pool by data-home site (shard depth).";
    pub const IN_FLIGHT: &str = "Jobs currently leased to some site.";
    pub const JOBS: &str = "Jobs a slave fully decoded and reduced.";
    pub const BYTES: &str = "Bytes a slave fetched across sites (stolen reads).";
    pub const RETRIES: &str = "Transient storage retries absorbed under a slave's fetches.";
    pub const FETCH: &str = "Wall time a slave (or its prefetcher) spent in chunk retrieval.";
    pub const PROCESS: &str = "Wall time a slave spent decoding and reducing.";
    pub const HAND_OFFS: &str = "Answers with jobs a site's slaves heard from its master.";
    pub const HANDED: &str = "Jobs a site's master handed its slaves.";
    pub const SETTLES: &str = "Exchanges in which a site's slaves reported jobs for verdicts.";
    pub const SETTLED: &str = "Jobs a site's slaves reported in exchanges for verdicts.";
    pub const DROPPED: &str = "Granted jobs a slave dropped unprocessed because their execution \
                               was revoked (evacuation or a finished replica) while they waited \
                               in its batch or its pipeline.";
}

/// A pool family: name, help, the `kind` label of the two split by job kind,
/// and its count in a site's row.
type PoolFamily = (&'static str, &'static str, Option<&'static str>, fn(&SiteRow) -> u64);

/// A slave family: name, help, and its value in a slave's sample.
type SlaveFamily = (&'static str, &'static str, fn(&SlaveSample) -> f64);

/// The four the live view reads come first; the render sorts by name.
const POOL_FAMILIES: [PoolFamily; 16] = [
    ("cloudburst_pool_grants_total", help::GRANTS, None, |r| r.grants),
    ("cloudburst_pool_steals_total", help::STEALS, None, |r| r.steals),
    ("cloudburst_pool_shard_stolen_from_total", help::STOLEN_FROM, None, |r| r.stolen_from),
    ("cloudburst_pool_lease_reaps_total", help::REAPS, None, |r| r.reaps),
    ("cloudburst_pool_speculations_total", help::SPECULATIONS, None, |r| r.speculations),
    ("cloudburst_pool_replica_grants_total", help::REPLICAS, None, |r| r.replica_grants),
    ("cloudburst_pool_jobs_merged_total", help::MERGED, Some("local"), |r| r.merged[0]),
    ("cloudburst_pool_jobs_merged_total", help::MERGED, Some("stolen"), |r| r.merged[1]),
    ("cloudburst_pool_results_lost_total", help::LOST, Some("local"), |r| r.lost[0]),
    ("cloudburst_pool_results_lost_total", help::LOST, Some("stolen"), |r| r.lost[1]),
    ("cloudburst_pool_duplicate_completions_total", help::DUPLICATES, None, |r| r.duplicates),
    ("cloudburst_pool_failures_total", help::FAILURES, None, |r| r.failures),
    ("cloudburst_pool_evacuated_jobs_total", help::EVACUATED, None, |r| r.evacuated),
    ("cloudburst_pool_replica_wins_total", help::WINS, None, |r| r.replica_wins),
    ("cloudburst_pool_replica_fences_total", help::FENCES, None, |r| r.replica_fences),
    ("cloudburst_pool_saved_refetch_total", help::SAVED, None, |r| r.saved_refetches),
];

/// Rendered in this order; the live view reads the samples typed.
const SLAVE_FAMILIES: [SlaveFamily; 5] = [
    ("cloudburst_slave_jobs_total", help::JOBS, |s| s.jobs as f64),
    ("cloudburst_slave_remote_bytes_total", help::BYTES, |s| s.remote_bytes as f64),
    ("cloudburst_slave_retries_total", help::RETRIES, |s| s.retries as f64),
    ("cloudburst_slave_fetch_busy_seconds_total", help::FETCH, |s| s.retrieval),
    ("cloudburst_slave_process_busy_seconds_total", help::PROCESS, |s| s.processing),
];

/// A slave's exchanges with its master, rendered per site; the live view
/// reads the first four typed.
const EXCHANGE_FAMILIES: [SlaveFamily; 5] = [
    ("cloudburst_slave_hand_offs_total", help::HAND_OFFS, |s| s.hand_offs as f64),
    ("cloudburst_slave_handed_jobs_total", help::HANDED, |s| s.handed as f64),
    ("cloudburst_slave_settles_total", help::SETTLES, |s| s.settles as f64),
    ("cloudburst_slave_settled_jobs_total", help::SETTLED, |s| s.settled as f64),
    ("cloudburst_prefetch_dropped_total", help::DROPPED, |s| s.dropped as f64),
];

impl Totals {
    fn set_pool(&mut self, pool: &JobPool) {
        self.pool.resize(pool.tally.sites.len(), [0; 16]);
        for (mine, row) in self.pool.iter_mut().zip(&pool.tally.sites) {
            *mine = POOL_FAMILIES.map(|(.., count)| count(row));
        }
        self.depth.values_mut().for_each(|d| *d = 0);
        for (site, n) in pool.pending_by_home() {
            *self.depth.entry(site).or_default() += n as u64;
        }
        for (site, n) in pool.leased() {
            self.leased.insert(site, n as u64);
        }
        self.in_flight = Some(pool.in_flight() as u64);
    }

    fn add(&mut self, other: &Totals) {
        if self.pool.len() < other.pool.len() {
            self.pool.resize(other.pool.len(), [0; 16]);
        }
        for (mine, theirs) in self.pool.iter_mut().zip(&other.pool) {
            mine.iter_mut().zip(theirs).for_each(|(a, b)| *a += b);
        }
        for (&site, &n) in &other.depth {
            *self.depth.entry(site).or_default() += n;
        }
        for (&site, &n) in &other.leased {
            *self.leased.entry(site).or_default() += n;
        }
        if let Some(n) = other.in_flight {
            *self.in_flight.get_or_insert(0) += n;
        }
        for (&slave, theirs) in &other.slaves {
            let mine = self.slaves.entry(slave).or_default();
            mine.processing += theirs.processing;
            mine.retrieval += theirs.retrieval;
            mine.finish = mine.finish.max(theirs.finish);
            mine.remote_bytes += theirs.remote_bytes;
            mine.fetched_bytes += theirs.fetched_bytes;
            mine.wan_fetches += theirs.wan_fetches;
            mine.wan_secs += theirs.wan_secs;
            mine.retries += theirs.retries;
            mine.rereduced += theirs.rereduced;
            mine.jobs += theirs.jobs;
            mine.hand_offs += theirs.hand_offs;
            mine.handed += theirs.handed;
            mine.settles += theirs.settles;
            mine.settled += theirs.settled;
            mine.dropped += theirs.dropped;
        }
    }

    /// Add the ledger's families to `out`: a pool family's series once it
    /// counts anything, every shard's depth, the jobs in flight, and each
    /// slave's series, and its site's, from its first publish.
    fn render(&self, out: &mut BTreeMap<String, Rendered>) {
        let (counter, gauge) = (MetricKind::Counter, MetricKind::Gauge);
        let mut put = |name: &str, help: &str, kind, labels: &[(&str, &str)], value| {
            let family = out.entry(name.to_owned()).or_insert_with(|| Rendered::new(help, kind));
            *family.scalars.entry(canon_labels(labels)).or_insert(0.0) += value;
        };
        for (i, counts) in self.pool.iter().enumerate() {
            let site = SiteId(i as u16).to_string();
            for (&(name, help, kind, _), &n) in POOL_FAMILIES.iter().zip(counts) {
                if n > 0 {
                    let mut labels = vec![("site", site.as_str())];
                    labels.extend(kind.map(|kind| ("kind", kind)));
                    put(name, help, counter, &labels, n as f64);
                }
            }
        }
        for (site, &n) in &self.depth {
            let site = site.to_string();
            put("cloudburst_pool_queue_depth", help::DEPTH, gauge, &[("site", &site)], n as f64);
        }
        if let Some(n) = self.in_flight {
            put("cloudburst_pool_in_flight", help::IN_FLIGHT, gauge, &[], n as f64);
        }
        for (&(site, worker), sample) in &self.slaves {
            let (site, worker) = (site.to_string(), worker.to_string());
            let labels = [("site", site.as_str()), ("worker", worker.as_str())];
            for &(name, help, value) in &SLAVE_FAMILIES {
                put(name, help, counter, &labels, value(sample));
            }
            for &(name, help, value) in &EXCHANGE_FAMILIES {
                put(name, help, counter, &labels[..1], value(sample));
            }
        }
    }

    /// The typed read of the same totals, by site.
    fn by_site(&self) -> LedgerTotals {
        let mut sites: BTreeMap<SiteId, SiteTotals> = BTreeMap::new();
        for (i, counts) in self.pool.iter().enumerate().filter(|(_, c)| c.iter().any(|&n| n > 0)) {
            let [grants, steals, stolen_from, lease_reaps, ..] = *counts;
            let row = SiteTotals { grants, steals, stolen_from, lease_reaps, ..Default::default() };
            sites.insert(SiteId(i as u16), row);
        }
        for (&site, &depth) in &self.depth {
            sites.entry(site).or_default().depth = depth;
        }
        for (&site, &leased) in self.leased.iter().filter(|(_, &n)| n > 0) {
            sites.entry(site).or_default().leased = leased;
        }
        for (&(site, _), slave) in &self.slaves {
            let row = sites.entry(site).or_default();
            row.jobs += slave.jobs;
            row.busy_secs += slave.retrieval + slave.processing;
            row.remote_bytes += slave.remote_bytes;
            row.fetched_bytes += slave.fetched_bytes;
            row.wan_fetches += slave.wan_fetches;
            row.wan_secs += slave.wan_secs;
            row.hand_offs += slave.hand_offs;
            row.handed += slave.handed;
            row.settles += slave.settles;
            row.settled += slave.settled;
        }
        LedgerTotals { in_flight: self.in_flight.unwrap_or(0), sites }
    }
}

// ---------------------------------------------------------------------------
// Exposition parsing / validation
// ---------------------------------------------------------------------------

/// One parsed series: canonical `name{k="v",...}` key plus value.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// Family name → declared `# TYPE`.
    pub types: BTreeMap<String, String>,
    /// Canonical series key → value, in document order of first appearance.
    pub series: BTreeMap<String, f64>,
}

impl Exposition {
    /// Value of the series with `name` and exactly these labels.
    #[must_use]
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.series.get(&series_key(name, &canon_labels(labels))).copied()
    }

    /// Sum of every series in the family `name` (any labels), excluding
    /// histogram `_bucket`/`_sum`/`_count` expansions of other families.
    #[must_use]
    pub fn sum_family(&self, name: &str) -> f64 {
        self.series
            .iter()
            .filter(|(k, _)| k.as_str() == name || k.starts_with(&format!("{name}{{")))
            .map(|(_, v)| v)
            .sum()
    }

    /// Series of family `name` grouped by the value of `label`.
    #[must_use]
    pub fn by_label(&self, name: &str, label: &str) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let needle = format!("{label}=\"");
        for (k, v) in &self.series {
            let Some(rest) = k.strip_prefix(name) else { continue };
            if !rest.starts_with('{') {
                continue;
            }
            if let Some(pos) = rest.find(&needle) {
                let val = &rest[pos + needle.len()..];
                if let Some(end) = val.find('"') {
                    *out.entry(val[..end].to_owned()).or_insert(0.0) += v;
                }
            }
        }
        out
    }
}

fn series_key(name: &str, labels: &LabelSet) -> String {
    format!("{name}{}", render_labels(labels, None))
}

/// Strictly parse Prometheus text exposition 0.0.4, rejecting what our own
/// renderer would never produce: malformed lines, duplicate series,
/// duplicate `# TYPE` declarations, negative counters, and histogram bucket
/// series whose cumulative counts decrease or disagree with `_count`.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    // (family, labels-minus-le) -> ordered bucket (le, cumulative) pairs.
    let mut buckets: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (Some(name), Some(kind), None) = (it.next(), it.next(), it.next()) else {
                return Err(format!("line {n}: malformed TYPE line"));
            };
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                return Err(format!("line {n}: unknown type `{kind}`"));
            }
            if exp.types.insert(name.to_owned(), kind.to_owned()).is_some() {
                return Err(format!("line {n}: duplicate TYPE for `{name}`"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let (name, labels, value) =
            parse_sample_line(line).map_err(|e| format!("line {n}: {e}"))?;
        let key = series_key(&name, &labels);
        if exp.series.insert(key.clone(), value).is_some() {
            return Err(format!("line {n}: duplicate series `{key}`"));
        }
        // Track histogram buckets for monotonicity validation.
        if let Some(family) = name.strip_suffix("_bucket") {
            let le = labels.iter().find(|(k, _)| k == "le");
            if let Some((_, le)) = le {
                let le_val = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse::<f64>().map_err(|_| format!("line {n}: bad le `{le}`"))?
                };
                let rest: LabelSet = labels.iter().filter(|(k, _)| k != "le").cloned().collect();
                buckets
                    .entry((family.to_owned(), series_key("", &rest)))
                    .or_default()
                    .push((le_val, value));
            }
        }
        // Counters must be non-negative.
        let family = histogram_family(&name, &exp.types).unwrap_or(name.clone());
        if exp.types.get(&family).map(String::as_str) == Some("counter") && value < 0.0 {
            return Err(format!("line {n}: negative counter `{key}`"));
        }
    }
    // Histogram invariants: buckets cumulative and consistent with _count.
    for ((family, label_key), mut rows) in buckets {
        rows.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut prev = -1.0;
        for (le, cum) in &rows {
            if *cum < prev {
                return Err(format!("histogram `{family}` buckets not cumulative at le={le}"));
            }
            prev = *cum;
        }
        if let Some((le, last)) = rows.last() {
            if !le.is_infinite() {
                return Err(format!("histogram `{family}` missing le=\"+Inf\""));
            }
            let count_key = format!("{family}_count{label_key}");
            if let Some(count) = exp.series.get(&count_key) {
                if (count - last).abs() > 1e-9 {
                    return Err(format!(
                        "histogram `{family}`: +Inf bucket {last} != _count {count}"
                    ));
                }
            }
        }
    }
    Ok(exp)
}

/// The histogram family a `_bucket`/`_sum`/`_count` sample belongs to, if
/// its stem is a declared histogram.
fn histogram_family(name: &str, types: &BTreeMap<String, String>) -> Option<String> {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            if types.get(stem).map(String::as_str) == Some("histogram") {
                return Some(stem.to_owned());
            }
        }
    }
    None
}

fn parse_sample_line(line: &str) -> Result<(String, LabelSet, f64), String> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len()
        && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b':')
    {
        i += 1;
    }
    if i == 0 || bytes[0].is_ascii_digit() {
        return Err("sample line does not start with a metric name".into());
    }
    let name = line[..i].to_owned();
    let mut labels: LabelSet = Vec::new();
    let rest = &line[i..];
    let rest = if let Some(inner) = rest.strip_prefix('{') {
        let end = find_label_end(inner).ok_or("unterminated label set")?;
        parse_labels(&inner[..end], &mut labels)?;
        &inner[end + 1..]
    } else {
        rest
    };
    let value_str = rest.trim();
    if value_str.is_empty() {
        return Err("missing sample value".into());
    }
    // No timestamps: our renderer never emits them.
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v.parse::<f64>().map_err(|_| format!("bad sample value `{v}`"))?,
    };
    labels.sort();
    Ok((name, labels, value))
}

/// Index of the closing `}` of a label set, skipping quoted values.
fn find_label_end(s: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, b) in s.bytes().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_quotes => escaped = true,
            b'"' => in_quotes = !in_quotes,
            b'}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_labels(s: &str, out: &mut LabelSet) -> Result<(), String> {
    let mut rest = s;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label without `=`")?;
        let key = rest[..eq].trim().to_owned();
        if key.is_empty() {
            return Err("empty label name".into());
        }
        let after = &rest[eq + 1..];
        let after = after.strip_prefix('"').ok_or("label value not quoted")?;
        let mut value = String::new();
        let mut escaped = false;
        let mut close = None;
        for (i, c) in after.char_indices() {
            if escaped {
                value.push(match c {
                    'n' => '\n',
                    other => other,
                });
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                close = Some(i);
                break;
            } else {
                value.push(c);
            }
        }
        let close = close.ok_or("unterminated label value")?;
        out.push((key, value));
        rest = after[close + 1..].trim_start_matches(',');
    }
    Ok(())
}

/// Check that every counter (and histogram bucket/count/sum) series present
/// in `earlier` is present in `later` with a value no smaller — the
/// cross-scrape monotonicity contract.
pub fn check_monotonic(earlier: &Exposition, later: &Exposition) -> Result<(), String> {
    for (key, v0) in &earlier.series {
        let name = key.split('{').next().unwrap_or(key);
        let family = histogram_family(name, &earlier.types).unwrap_or_else(|| name.to_owned());
        let is_monotone = matches!(
            earlier.types.get(&family).map(String::as_str),
            Some("counter") | Some("histogram")
        );
        if !is_monotone {
            continue;
        }
        match later.series.get(key) {
            None => return Err(format!("series `{key}` disappeared between scrapes")),
            Some(v1) if v1 + 1e-9 < *v0 => {
                return Err(format!("series `{key}` went backwards: {v0} -> {v1}"));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The /metrics HTTP listener
// ---------------------------------------------------------------------------

/// What a debug-plane route handler returns: the HTTP status line suffix
/// (e.g. `"200 OK"`), the `Content-Type`, and the body.
pub type RouteResponse = (&'static str, &'static str, String);

/// A debug-plane route handler: called per request with the (possibly
/// empty) query string, already split off the path.
pub type RouteHandler = Box<dyn Fn(&str) -> RouteResponse + Send + Sync>;

/// A tiny, dependency-free HTTP/1.1 listener serving `GET /metrics` with
/// the registry's current exposition, plus any extra routes mounted at
/// bind time (the `/healthz` + `/debug/*` introspection plane). One accept
/// thread, one request per connection, `Connection: close`; a request head
/// that has not arrived within two seconds is answered `408`.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free port) and
    /// start serving `registry`.
    pub fn bind(registry: Arc<Registry>, addr: &str) -> io::Result<MetricsServer> {
        MetricsServer::bind_with_routes(registry, addr, Vec::new())
    }

    /// [`MetricsServer::bind`] with extra routes: each `(path, handler)`
    /// pair serves `GET path[?query]`. `/metrics` and `/` stay reserved
    /// for the exposition; unknown paths 404.
    pub fn bind_with_routes(
        registry: Arc<Registry>,
        addr: &str,
        routes: Vec<(String, RouteHandler)>,
    ) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new().name("metrics-http".into()).spawn(move || {
            for stream in listener.incoming() {
                if stop2.load(Ordering::Acquire) {
                    break;
                }
                if let Ok(stream) = stream {
                    // Serve inline: scrapes are small and rare.
                    let _ = serve_one(stream, &registry, &routes);
                }
            }
        })?;
        Ok(MetricsServer { addr, stop, thread: Some(thread) })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.stop_and_join();
        }
    }
}

/// How long a client has to send its whole request head. One deadline for
/// the head, not one per `read`: requests are served inline on the one accept
/// thread, so a client dribbling a byte at a time would otherwise hold every
/// route — and `shutdown`, which joins that thread — for as long as it liked.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

fn serve_one(
    mut stream: TcpStream,
    registry: &Registry,
    routes: &[(String, RouteHandler)],
) -> io::Result<()> {
    stream.set_write_timeout(Some(REQUEST_DEADLINE))?;
    let deadline = Instant::now() + REQUEST_DEADLINE;
    // Read until the end of the request head (we ignore any body).
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let in_time = loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break false;
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut chunk) {
            Ok(0) => break true,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 16 * 1024 {
                    break true;
                }
            }
            // Out of time (or the connection broke, and the answer goes nowhere).
            Err(_) => break false,
        }
    };
    if !in_time {
        let body = "request head not received in time\n".to_owned();
        return respond(stream, ("408 Request Timeout", "text/plain; charset=utf-8", body));
    }
    let request = String::from_utf8_lossy(&buf);
    let target =
        request.lines().next().and_then(|l| l.split_whitespace().nth(1)).unwrap_or("/").to_owned();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    let response = if path == "/metrics" || path == "/" {
        ("200 OK", "text/plain; version=0.0.4; charset=utf-8", registry.render())
    } else if let Some((_, handler)) = routes.iter().find(|(p, _)| p == path) {
        handler(query)
    } else {
        ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_owned())
    };
    respond(stream, response)
}

fn respond(mut stream: TcpStream, (status, content_type, body): RouteResponse) -> io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// A minimal HTTP GET for `http://host:port/path` URLs — the scrape client
/// behind `cloudburst check-metrics` (no curl dependency). Returns the body
/// of a 200 response.
pub fn http_get(url: &str, timeout: Duration) -> io::Result<String> {
    let (code, body) = http_get_status(url, timeout)?;
    if code != 200 {
        return Err(io::Error::other(format!("HTTP error: status {code}")));
    }
    Ok(body)
}

/// [`http_get`] that hands back the status code instead of failing on
/// non-200 — `cloudburst health <url>` needs the body of a 503 `/healthz`
/// verdict as much as a 200 one.
pub fn http_get_status(url: &str, timeout: Duration) -> io::Result<(u16, String)> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "only http:// URLs"))?;
    let (host, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };
    let addr = host
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable host"))?;
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"))?;
    let code = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    Ok((code, body.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_upper_are_consistent() {
        for v in [0u64, 1, 7, 15, 16, 17, 100, 1023, 1024, 1_000_000, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < HISTOGRAM_BUCKETS);
            assert!(bucket_upper(i) >= v, "upper({i}) < {v}");
            if i > 0 {
                assert!(bucket_upper(i - 1) < v, "v {v} should not fit bucket {}", i - 1);
            }
        }
        // Bounds are strictly increasing across the whole grid.
        for i in 1..HISTOGRAM_BUCKETS {
            assert!(bucket_upper(i) > bucket_upper(i - 1));
        }
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for v in [20u64, 1000, 12345, 987_654_321, 5_000_000_000] {
            let ub = bucket_upper(bucket_index(v));
            assert!((ub - v) as f64 / v as f64 <= 0.125 + 1e-9, "v={v} ub={ub}");
        }
    }

    #[test]
    fn a_disabled_handle_is_inert() {
        let m = Metrics::off();
        let h = m.histogram("x_seconds", "", &[]);
        h.observe(9);
        m.ledger().publish_slave(
            SiteId::LOCAL,
            0,
            &SlaveSample { jobs: 1, ..SlaveSample::default() },
        );
        assert_eq!(h.count(), 0);
        assert!(!m.is_enabled());
        assert!(m.registry().is_none());
    }

    #[test]
    fn histogram_quantiles_and_one_series_per_name() {
        let m = Metrics::on();
        let h = m.histogram("lat_seconds", "", &[]);
        for v in 1..=1000u64 {
            h.observe(v * 1000); // 1µs .. 1ms in ns
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile_raw(0.50) as f64;
        let p99 = h.quantile_raw(0.99) as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.13, "p50 {p50}");
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.13, "p99 {p99}");
        assert!(h.quantile(0.5) > 0.0);

        // Re-registering the same (name, labels) returns the same series.
        m.histogram("lat_seconds", "", &[]).observe(1);
        assert_eq!(h.count(), 1001);
    }

    #[test]
    fn render_parses_and_is_deterministic() {
        let m = Metrics::on();
        let h = m.histogram("cloudburst_fetch_seconds", "fetch", &[("site", "local")]);
        h.observe_secs(0.001);
        h.observe_secs(0.004);
        let sample = |jobs, hand_offs| SlaveSample { jobs, hand_offs, ..SlaveSample::default() };
        let (local, cloud) = (m.ledger(), m.ledger());
        local.publish_slave(SiteId::LOCAL, 0, &sample(3, 1));
        cloud.publish_slave(SiteId::CLOUD, 0, &sample(4, 2));
        cloud.publish_slave(SiteId::CLOUD, 0, &sample(5, 2));
        m.ledger().publish_slave(SiteId::CLOUD, 1, &sample(1, 1));
        let reg = m.registry().unwrap();
        let text = reg.render();
        assert_eq!(text, reg.render(), "render must be deterministic");
        let exp = parse_exposition(&text).expect("our own exposition parses");
        let worker = |site, worker| [("site", site), ("worker", worker)];
        assert_eq!(exp.get("cloudburst_slave_jobs_total", &worker("local", "0")), Some(3.0));
        assert_eq!(exp.get("cloudburst_slave_jobs_total", &worker("cloud", "0")), Some(5.0));
        assert_eq!(exp.sum_family("cloudburst_slave_jobs_total"), 9.0);
        assert_eq!(exp.get("cloudburst_slave_hand_offs_total", &[("site", "cloud")]), Some(3.0));
        assert_eq!(exp.types["cloudburst_slave_hand_offs_total"], "counter");
        assert_eq!(exp.get("cloudburst_fetch_seconds_count", &[("site", "local")]), Some(2.0));
        let by = exp.by_label("cloudburst_slave_jobs_total", "site");
        assert_eq!(by.get("cloud"), Some(&6.0));
    }

    #[test]
    fn a_handle_holds_one_ledger_however_many_runs_publish_to_it() {
        // Each run's publishers fold into the handle's totals as they go, so
        // a handle serving a thousand runs keeps one ledger and no run.
        let m = Metrics::on();
        let sample = SlaveSample { jobs: 3, retries: 1, processing: 0.5, ..SlaveSample::default() };
        let params = crate::LayoutParams { unit_size: 1, units_per_chunk: 2, n_files: 1 };
        let index = crate::DataIndex::build(8, params, |_| SiteId::LOCAL).unwrap();
        let pool = JobPool::from_index(&index, crate::BatchPolicy::Fixed(2));
        let scrape = || parse_exposition(&m.registry().unwrap().render()).unwrap();
        let mut last = scrape();
        for run in 0..1000 {
            let head = m.ledger();
            head.publish_pool(&pool);
            let slaves: Vec<_> = (0..4).map(|_| m.ledger()).collect();
            for (worker, slave) in (0..).zip(&slaves) {
                slave.publish_slave(SiteId::CLOUD, worker, &sample);
            }
            if run % 100 == 0 {
                let now = scrape();
                check_monotonic(&last, &now).unwrap();
                let depth = now.get("cloudburst_pool_queue_depth", &[("site", "local")]);
                assert_eq!(depth, Some(4.0), "the open run's shard");
                last = now;
            }
        }
        let registry = m.registry().unwrap();
        let hub = registry.ledger.0.lock();
        assert!(hub.1.is_empty(), "every publisher's totals were folded");
        assert_eq!(hub.0.slaves.len(), 4);
        drop(hub);
        let exp = scrape();
        check_monotonic(&last, &exp).unwrap();
        assert_eq!(exp.sum_family("cloudburst_slave_jobs_total"), 12_000.0);
        let worker = [("site", "cloud"), ("worker", "3")];
        assert_eq!(exp.get("cloudburst_slave_retries_total", &worker), Some(1000.0));
        assert_eq!(exp.get("cloudburst_slave_process_busy_seconds_total", &worker), Some(500.0));
        assert_eq!(exp.get("cloudburst_pool_in_flight", &[]), Some(0.0));
        assert_eq!(exp.get("cloudburst_pool_queue_depth", &[("site", "local")]), Some(0.0));
        // A handle no head published to shows no pool series.
        let quiet = parse_exposition(&Metrics::on().registry().unwrap().render()).unwrap();
        assert!(quiet.series.is_empty());
    }

    #[test]
    fn the_typed_read_names_the_jobs_leased_to_each_site() {
        let m = Metrics::on();
        let registry = m.registry().unwrap();
        let params = crate::LayoutParams { unit_size: 1, units_per_chunk: 1, n_files: 2 };
        let home = |f: crate::FileId| if f.0 == 0 { SiteId::LOCAL } else { SiteId::CLOUD };
        let index = crate::DataIndex::build(8, params, home).unwrap();
        let mut pool = JobPool::from_index(&index, crate::BatchPolicy::Fixed(1));
        // The cloud holds two leases; the local site finished its one job.
        let cloud = pool.grant(SiteId::CLOUD, 2, 0.0);
        for job in pool.grant(SiteId::LOCAL, 1, 0.0).jobs {
            pool.complete(job.id, SiteId::LOCAL);
        }
        let head = m.ledger();
        head.publish_pool(&pool);
        let read = registry.ledger();
        let leased = |read: &LedgerTotals, site| read.sites[&site].leased;
        assert_eq!((leased(&read, SiteId::LOCAL), leased(&read, SiteId::CLOUD)), (0, 2));
        assert_eq!(read.all().leased, read.in_flight);
        for job in &cloud.jobs {
            pool.complete(job.id, SiteId::CLOUD);
        }
        head.publish_pool(&pool);
        assert_eq!(registry.ledger().all().leased, 0, "a site out of work holds no lease");
        pool.grant(SiteId::CLOUD, 1, 0.0);
        head.publish_pool(&pool);
        assert_eq!(leased(&registry.ledger(), SiteId::CLOUD), 1);
        drop(head);
        assert_eq!(registry.ledger().all().leased, 0, "a head that is gone leases nothing");
    }

    #[test]
    fn the_typed_reads_are_what_the_scrape_shows() {
        let m = Metrics::on();
        let registry = m.registry().unwrap();
        assert_eq!(registry.ledger(), LedgerTotals::default(), "nothing published yet");
        let params = crate::LayoutParams { unit_size: 1, units_per_chunk: 1, n_files: 2 };
        let home = |f: crate::FileId| if f.0 == 0 { SiteId::LOCAL } else { SiteId::CLOUD };
        let index = crate::DataIndex::build(8, params, home).unwrap();
        let mut pool = JobPool::from_index(&index, crate::BatchPolicy::Fixed(1));
        pool.set_lease(crate::LeaseConfig::default());
        for _ in 0..5 {
            for job in pool.grant(SiteId::CLOUD, 1, 0.0).jobs {
                pool.complete(job.id, SiteId::CLOUD);
            }
        }
        // The local site's first lease is reaped; its second stays in flight.
        assert_eq!(pool.grant(SiteId::LOCAL, 1, 0.0).jobs.len(), 1);
        assert_eq!(pool.reap_expired(1e6).len(), 1);
        assert_eq!(pool.grant(SiteId::LOCAL, 1, 1e6).jobs.len(), 1);
        let head = m.ledger();
        head.publish_pool(&pool);
        let sample = SlaveSample {
            jobs: 3,
            retrieval: 0.25,
            processing: 0.5,
            hand_offs: 2,
            handed: 5,
            settles: 1,
            settled: 3,
            dropped: 2,
            ..SlaveSample::default()
        };
        let slave = m.ledger();
        slave.publish_slave(SiteId::LOCAL, 0, &sample);
        m.ledger().publish_slave(SiteId::LOCAL, 1, &sample);
        let observe = |labels: &[(&str, &str)], n| {
            (0..n).for_each(|_| m.histogram("x_seconds", "", labels).observe_secs(0.5));
        };
        observe(&[("site", "cloud"), ("store", "mem")], 2);
        observe(&[("site", "cloud"), ("store", "s3")], 5);
        observe(&[("site", "local"), ("store", "s3")], 7);

        let exp = parse_exposition(&registry.render()).unwrap();
        let read = registry.ledger();
        assert_eq!(read.in_flight, 1);
        assert_eq!(read.sites.keys().copied().collect::<Vec<_>>(), [SiteId::LOCAL, SiteId::CLOUD]);
        for (site, row) in &read.sites {
            let site = site.to_string();
            let get = |name: &str| exp.get(name, &[("site", &site)]).unwrap_or(0.0) as u64;
            assert_eq!(row.grants, get("cloudburst_pool_grants_total"), "{site}");
            assert_eq!(row.steals, get("cloudburst_pool_steals_total"), "{site}");
            assert_eq!(row.stolen_from, get("cloudburst_pool_shard_stolen_from_total"), "{site}");
            assert_eq!(row.lease_reaps, get("cloudburst_pool_lease_reaps_total"), "{site}");
            assert_eq!(row.depth, get("cloudburst_pool_queue_depth"), "{site}");
            let jobs = exp.by_label("cloudburst_slave_jobs_total", "site");
            assert_eq!(row.jobs as f64, jobs.get(&site).copied().unwrap_or(0.0), "{site}");
            assert_eq!(row.hand_offs, get("cloudburst_slave_hand_offs_total"), "{site}");
            assert_eq!(row.handed, get("cloudburst_slave_handed_jobs_total"), "{site}");
            assert_eq!(row.settles, get("cloudburst_slave_settles_total"), "{site}");
            assert_eq!(row.settled, get("cloudburst_slave_settled_jobs_total"), "{site}");
        }
        let local = read.sites[&SiteId::LOCAL];
        assert_eq!((local.jobs, local.busy_secs), (6, 1.5), "a dropped slave's share stays");
        assert_eq!((local.hand_offs, local.handed, local.settles, local.settled), (4, 10, 2, 6));
        let dropped = exp.get("cloudburst_prefetch_dropped_total", &[("site", "local")]);
        assert_eq!(dropped, Some(4.0));
        assert_eq!((read.all().grants, local.lease_reaps), (7, 1));
        assert_eq!(registry.total("x_seconds", &[("site", "cloud")]), 7);
        assert_eq!(registry.total("x_seconds", &[("store", "s3")]), 12);
        assert_eq!(registry.total("x_seconds", &[]), 14);
        assert_eq!(registry.total("absent_seconds", &[]), 0);
    }

    #[test]
    fn parser_rejects_duplicates_and_garbage() {
        assert!(parse_exposition("x_total 1\nx_total 2\n").is_err(), "duplicate series");
        assert!(parse_exposition("# TYPE a counter\n# TYPE a counter\n").is_err());
        assert!(parse_exposition("1bad 5\n").is_err());
        assert!(parse_exposition("ok{unterminated 5\n").is_err());
        assert!(parse_exposition("ok nope\n").is_err());
        assert!(parse_exposition("# TYPE c counter\nc -4\n").is_err(), "negative counter");
        let bad_hist = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                        h_bucket{le=\"+Inf\"} 5\nh_count 5\nh_sum 2\n";
        assert!(parse_exposition(bad_hist).is_err(), "non-cumulative buckets");
        // A gauge may go below zero, as text from outside the program says.
        let gauge = parse_exposition("# TYPE g gauge\ng{site=\"cloud\"} -3\n").unwrap();
        assert_eq!(gauge.get("g", &[("site", "cloud")]), Some(-3.0));
    }

    #[test]
    fn monotonicity_check_catches_regressions() {
        let a = parse_exposition("# TYPE c_total counter\nc_total 5\n").unwrap();
        let b = parse_exposition("# TYPE c_total counter\nc_total 7\n").unwrap();
        assert!(check_monotonic(&a, &b).is_ok());
        assert!(check_monotonic(&b, &a).is_err());
    }

    #[test]
    fn http_server_serves_metrics_and_404s() {
        let m = Metrics::on();
        let slave = m.ledger();
        slave.publish_slave(SiteId::LOCAL, 0, &SlaveSample { jobs: 42, ..SlaveSample::default() });
        let server = MetricsServer::bind(m.registry().unwrap(), "127.0.0.1:0").unwrap();
        let url = format!("http://{}/metrics", server.local_addr());
        let body = http_get(&url, Duration::from_secs(2)).unwrap();
        let exp = parse_exposition(&body).unwrap();
        assert_eq!(exp.sum_family("cloudburst_slave_jobs_total"), 42.0);
        let miss =
            http_get(&format!("http://{}/nope", server.local_addr()), Duration::from_secs(2));
        assert!(miss.is_err());
        server.shutdown();
    }

    #[test]
    fn a_client_that_dribbles_its_request_holds_the_listener_for_one_deadline_only() {
        let m = Metrics::on();
        let server = MetricsServer::bind(m.registry().unwrap(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        // A byte every 300 ms, never a whole request head: each byte lands
        // well inside a per-`read` timeout.
        let dribble = move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_millis(300))).unwrap();
            let mut answer = [0u8; 64];
            for byte in b"GET /metrics HTTP/1.1\r\nX-Slow: a very long header".iter().cycle() {
                if stream.write_all(&[*byte]).is_err() {
                    break;
                }
                // The wait between two bytes is the look for an answer.
                if let Ok(n) = stream.read(&mut answer) {
                    return String::from_utf8_lossy(&answer[..n]).into_owned();
                }
            }
            String::new()
        };
        let started = Instant::now();
        let slow = std::thread::spawn(dribble);
        std::thread::sleep(Duration::from_millis(100)); // the dribbler is first in line
        let url = format!("http://{addr}/metrics");
        http_get(&url, Duration::from_secs(10)).expect("the next client is served");
        let waited = started.elapsed();
        assert!(waited < REQUEST_DEADLINE + Duration::from_secs(2), "served after {waited:?}");
        assert!(slow.join().unwrap().starts_with("HTTP/1.1 408"), "the dribbler is told why");
        // `shutdown` joins the accept thread: it must not wait out a dribbler.
        let slow = std::thread::spawn(dribble);
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        server.shutdown();
        let waited = started.elapsed();
        assert!(waited < REQUEST_DEADLINE + Duration::from_secs(2), "shut down after {waited:?}");
        let _ = slow.join();
    }

    #[test]
    fn http_server_mounts_extra_routes_with_queries_and_statuses() {
        let m = Metrics::on();
        let routes: Vec<(String, RouteHandler)> = vec![
            (
                "/debug/echo".to_owned(),
                Box::new(|q: &str| ("200 OK", "application/json", format!("{{\"q\":\"{q}\"}}\n"))),
            ),
            (
                "/healthz".to_owned(),
                Box::new(|_: &str| {
                    (
                        "503 Service Unavailable",
                        "application/json",
                        "{\"status\":\"degraded\"}\n".to_owned(),
                    )
                }),
            ),
        ];
        let server =
            MetricsServer::bind_with_routes(m.registry().unwrap(), "127.0.0.1:0", routes).unwrap();
        let base = format!("http://{}", server.local_addr());
        // The query string reaches the handler, stripped of the '?'.
        let body = http_get(&format!("{base}/debug/echo?last=25"), Duration::from_secs(2)).unwrap();
        assert_eq!(body, "{\"q\":\"last=25\"}\n");
        let bare = http_get(&format!("{base}/debug/echo"), Duration::from_secs(2)).unwrap();
        assert_eq!(bare, "{\"q\":\"\"}\n");
        // Non-200 routes work; http_get_status surfaces code + body while
        // plain http_get refuses.
        let (code, verdict) =
            http_get_status(&format!("{base}/healthz"), Duration::from_secs(2)).unwrap();
        assert_eq!(code, 503);
        assert!(verdict.contains("degraded"));
        assert!(http_get(&format!("{base}/healthz"), Duration::from_secs(2)).is_err());
        // /metrics is still the registry exposition.
        assert!(http_get(&format!("{base}/metrics"), Duration::from_secs(2)).is_ok());
        server.shutdown();
    }
}
