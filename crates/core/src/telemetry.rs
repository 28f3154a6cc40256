//! Runtime telemetry: typed events, sinks, exporters, and the event-stream
//! aggregator.
//!
//! The paper's entire evaluation is a set of *time decompositions* —
//! processing / retrieval / sync stacked bars, per-site job and steal
//! counts, global-reduction and idle overheads — and PR 1's fault layer
//! made *when* a steal, lease reap, speculation or evacuation happened the
//! interesting object of study. This module gives every runtime a shared
//! vocabulary for those moments:
//!
//! * [`Event`] / [`EventKind`] — the typed taxonomy, each event tagged with
//!   site / slave / chunk ids and nanosecond timestamps (monotonic within
//!   the emitting clock: the pool clock, a runtime's epoch `Instant`, or
//!   the simulator's virtual time);
//! * [`EventSink`] — the lock-cheap ingestion trait; [`Telemetry`] is the
//!   clonable handle the runtimes carry (a no-op when disabled, one atomic
//!   clone of an `Arc` when not);
//! * consumers: [`Recorder`] (in-memory), [`events_to_jsonl`] (JSONL event
//!   log), [`chrome_trace`] (Chrome `trace_event` JSON that opens directly
//!   in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev) as
//!   per-slave swimlanes), and [`ConsoleSink`] (filtered stderr log);
//! * the ledger: [`PoolTally::apply`] and [`SlaveSample::apply`] give each
//!   event its one meaning as a count or a time. The live pool and the live
//!   slaves fold every fact they state through them (and publish the result
//!   for the live scrape, which renders it), and [`derive_report`]
//!   folds a recorded stream through the same two functions into the same
//!   [`crate::stats::assemble_report`], so the paper-shaped [`RunReport`]
//!   (breakdowns, per-site counts, fault counters) rebuilt from the event
//!   stream alone is the live one by construction.
//!
//! Overhead budget: with telemetry off the runtimes pay one branch per
//! would-be event. With a recorder attached, each event is a ~64-byte
//! `memcpy` under an uncontended `parking_lot` mutex — microseconds per
//! job, invisible next to chunk retrieval.

use crate::fault::{AbandonedJob, FaultCounters};
use crate::json::Json;
use crate::pool::SiteJobCounts;
use crate::stats::{RunReport, SiteSample, SlaveSample};
use crate::types::{ChunkId, SiteId};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Convert caller-clock seconds to the event timestamp unit (ns).
#[must_use]
pub fn secs_to_ns(secs: f64) -> u64 {
    if secs <= 0.0 || !secs.is_finite() {
        return 0;
    }
    (secs * 1e9).round() as u64
}

/// Convert an event timestamp back to seconds.
#[must_use]
pub fn ns_to_secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Nanoseconds of run clock between `epoch` and `at`, saturating at zero.
///
/// Every wall-clock event emitter must stamp through this (or [`ns_since`])
/// so a clock read that races the epoch can never underflow into a
/// nonsense timestamp.
#[must_use]
pub fn ns_between(epoch: std::time::Instant, at: std::time::Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// Nanoseconds of run clock elapsed since `epoch` (saturating at zero) —
/// the one timestamping helper shared by masters, slaves, and the
/// reduction phases.
#[must_use]
pub fn ns_since(epoch: std::time::Instant) -> u64 {
    ns_between(epoch, std::time::Instant::now())
}

/// What happened. Payload fields carry the flags the aggregator and the
/// trace exporter need; identity tags (site / worker / chunk) live on
/// [`Event`] itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// The head granted a job lease to a site. `stolen` marks cross-site
    /// grants (work stealing); `speculative` marks straggler re-executions,
    /// `replica` proactive copies under coded redundancy.
    JobGranted {
        /// Job data lives at a different site than the processor.
        stolen: bool,
        /// This is a speculative copy of an in-flight straggler.
        speculative: bool,
        /// This is a proactive replica of an in-flight job (`r > 1`). Logs
        /// written before the flag existed read as `false`.
        replica: bool,
    },
    /// A slave began processing a job it took from its master.
    JobStarted {
        /// The job's data is not hosted at the processing site.
        stolen: bool,
    },
    /// A slave fetched a chunk (span: `dur_ns` covers the retrieval).
    ChunkFetched {
        /// Bytes retrieved.
        bytes: u64,
        /// True when fetched across the inter-site link.
        remote: bool,
        /// Transient read failures absorbed below the chunk level.
        retries: u64,
    },
    /// Transient storage-read failures were absorbed while fetching one
    /// chunk (emitted once per affected job, after its fetch finally
    /// succeeded, just ahead of the job's `ChunkFetched`).
    StorageRetry {
        /// Failed range reads absorbed, summed over the chunk's ranges.
        retries: u64,
    },
    /// A slave ran the reduction over a chunk (span).
    JobProcessed,
    /// A slave reduced an accepted job a second time, because a job it shared
    /// the scratch object with was refused or revoked.
    JobRereduced,
    /// A slave heard its master answer a request with jobs.
    HandOff {
        /// Jobs the answer brought.
        jobs: u64,
    },
    /// A slave reported open jobs in one exchange and waited for the
    /// head's verdicts on them.
    Settled {
        /// Jobs the exchange reported.
        jobs: u64,
    },
    /// A slave dropped a granted job unprocessed: its execution was revoked
    /// (an evacuation or a finished replica) while it waited in the slave's
    /// batch or pipeline.
    JobDropped,
    /// The head ruled on a completion report (the dedup verdict).
    JobCompleted {
        /// The result was accepted for merging (first completion wins).
        merged: bool,
        /// The winning lease had already been reaped (late completion).
        late: bool,
        /// The processor was not the data-home site.
        stolen: bool,
    },
    /// A speculative execution resolved: it either won the race (its result
    /// merged) or lost (preempted, reaped or evacuated before merging).
    SpeculationResolved {
        /// True when the speculative copy's result was the one merged.
        won: bool,
    },
    /// An execution in a replica group (`r > 1`) resolved: a replica
    /// finished first and was the copy merged, or an execution — replica or
    /// original — was fenced because a sibling copy finished first.
    ReplicaResolved {
        /// True for the merged replica, false for a fenced sibling.
        won: bool,
    },
    /// A site reported a processing failure; the job was released.
    JobFailed,
    /// A silent lease expired and the head reclaimed the job.
    LeaseReaped,
    /// An in-flight lease was revoked because its site was evacuated.
    JobEvacuated,
    /// A whole site was declared dead and evacuated.
    SiteEvacuated,
    /// A completed result died with an evacuated site's unreduced robj and
    /// the job was re-queued.
    LostResult {
        /// The lost execution had been a stolen job.
        stolen: bool,
    },
    /// An evacuation re-queued a job that the survivors hold a replica of
    /// (`r > 1`): its re-execution needs no WAN re-fetch. Tagged with the
    /// evacuated site.
    RefetchSaved,
    /// A job was permanently abandoned after exhausting its attempts.
    JobAbandoned,
    /// A master liveness beacon reached the head.
    Heartbeat,
    /// A periodic sample of the live metrics registry (emitted by the
    /// background sampler when `--metrics-addr` / `--watch` is active), so
    /// traces and metrics share one timeline.
    MetricsSnapshot {
        /// Jobs granted so far (all sites, speculative copies included).
        grants: u64,
        /// Cross-site (stolen) grants so far.
        steals: u64,
        /// Completions merged so far.
        completions: u64,
        /// Jobs still waiting in the pool at sample time.
        queue_depth: u64,
        /// Bytes fetched from storage so far.
        bytes: u64,
    },
    /// A health detector changed state (emitted by
    /// [`crate::health::HealthMonitor`] after hysteresis, so transitions
    /// are rare even when the underlying signal is noisy).
    HealthTransition {
        /// Which detector changed state.
        detector: crate::health::HealthDetector,
        /// `true` = tripped (healthy -> degraded), `false` = cleared.
        tripped: bool,
        /// The observed value that drove the transition.
        value: f64,
        /// The configured threshold it was compared against.
        threshold: f64,
    },
    /// A slave processed its last job and exited (its finish timestamp).
    SlaveFinished,
    /// A site combined its workers' scratch objects (span).
    SiteMerged,
    /// A site finished everything, local combination included.
    SiteFinished,
    /// The inter-site global reduction phase (span).
    GlobalReduction,
    /// End of the run (`at_ns` is the total time).
    RunFinished,
}

impl EventKind {
    /// Stable machine-readable label (JSONL `kind` field).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::JobGranted { .. } => "job-granted",
            EventKind::JobStarted { .. } => "job-started",
            EventKind::ChunkFetched { .. } => "chunk-fetched",
            EventKind::StorageRetry { .. } => "storage-retry",
            EventKind::JobProcessed => "job-processed",
            EventKind::JobRereduced => "job-rereduced",
            EventKind::HandOff { .. } => "hand-off",
            EventKind::Settled { .. } => "settle",
            EventKind::JobDropped => "job-dropped",
            EventKind::JobCompleted { .. } => "job-completed",
            EventKind::SpeculationResolved { .. } => "speculation-resolved",
            EventKind::ReplicaResolved { .. } => "replica-resolved",
            EventKind::JobFailed => "job-failed",
            EventKind::LeaseReaped => "lease-reap",
            EventKind::JobEvacuated => "job-evacuated",
            EventKind::SiteEvacuated => "site-evacuated",
            EventKind::LostResult { .. } => "lost-result",
            EventKind::RefetchSaved => "refetch-saved",
            EventKind::JobAbandoned => "job-abandoned",
            EventKind::Heartbeat => "heartbeat",
            EventKind::MetricsSnapshot { .. } => "metrics-snapshot",
            EventKind::HealthTransition { .. } => "health-transition",
            EventKind::SlaveFinished => "slave-finished",
            EventKind::SiteMerged => "local-merge",
            EventKind::SiteFinished => "site-finished",
            EventKind::GlobalReduction => "global-reduction",
            EventKind::RunFinished => "run-finished",
        }
    }

    /// Human-facing trace name; grant flavors get their own names so steals,
    /// speculations and replicas are findable in a timeline by eye or by
    /// search.
    #[must_use]
    pub fn display_name(&self) -> &'static str {
        match self {
            EventKind::JobGranted { speculative: true, .. } => "speculate",
            EventKind::JobGranted { replica: true, .. } => "replica",
            EventKind::JobGranted { stolen: true, .. } => "steal",
            EventKind::JobGranted { .. } => "grant",
            EventKind::JobStarted { .. } => "start",
            EventKind::ChunkFetched { .. } => "fetch",
            EventKind::JobProcessed => "process",
            EventKind::JobCompleted { merged: false, .. } => "duplicate",
            EventKind::JobCompleted { late: true, .. } => "late-complete",
            EventKind::JobCompleted { .. } => "complete",
            EventKind::SpeculationResolved { won: true } => "spec-win",
            EventKind::SpeculationResolved { won: false } => "spec-loss",
            EventKind::ReplicaResolved { won: true } => "replica-win",
            EventKind::ReplicaResolved { won: false } => "replica-fence",
            EventKind::HealthTransition { tripped: true, .. } => "health-trip",
            EventKind::HealthTransition { tripped: false, .. } => "health-clear",
            other => other.label(),
        }
    }

    /// Trace category (Perfetto lets you filter on these).
    #[must_use]
    pub fn category(&self) -> &'static str {
        match self {
            EventKind::JobGranted { .. }
            | EventKind::JobCompleted { .. }
            | EventKind::SpeculationResolved { .. }
            | EventKind::ReplicaResolved { .. }
            | EventKind::JobFailed
            | EventKind::LeaseReaped
            | EventKind::JobEvacuated
            | EventKind::JobAbandoned => "pool",
            EventKind::JobStarted { .. }
            | EventKind::JobProcessed
            | EventKind::JobRereduced
            | EventKind::HandOff { .. }
            | EventKind::Settled { .. }
            | EventKind::JobDropped
            | EventKind::SlaveFinished => "slave",
            EventKind::ChunkFetched { .. } | EventKind::StorageRetry { .. } => "storage",
            EventKind::SiteEvacuated
            | EventKind::LostResult { .. }
            | EventKind::RefetchSaved
            | EventKind::Heartbeat => "liveness",
            EventKind::MetricsSnapshot { .. } => "metrics",
            EventKind::HealthTransition { .. } => "health",
            EventKind::SiteMerged | EventKind::SiteFinished => "site",
            EventKind::GlobalReduction | EventKind::RunFinished => "run",
        }
    }

    /// True for fault-path events worth surfacing at `--log-level info`.
    #[must_use]
    pub fn is_noteworthy(&self) -> bool {
        matches!(
            self,
            EventKind::JobGranted { speculative: true, .. }
                | EventKind::JobGranted { replica: true, .. }
                | EventKind::JobCompleted { merged: false, .. }
                | EventKind::JobCompleted { late: true, .. }
                | EventKind::JobRereduced
                | EventKind::JobDropped
                | EventKind::SpeculationResolved { .. }
                | EventKind::ReplicaResolved { .. }
                | EventKind::JobFailed
                | EventKind::LeaseReaped
                | EventKind::JobEvacuated
                | EventKind::SiteEvacuated
                | EventKind::LostResult { .. }
                | EventKind::RefetchSaved
                | EventKind::JobAbandoned
                | EventKind::StorageRetry { .. }
                | EventKind::HealthTransition { .. }
        )
    }
}

/// One telemetry event: a timestamped, tagged [`EventKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Nanoseconds since the emitting clock's epoch (span start for spans).
    pub at_ns: u64,
    /// Span duration in nanoseconds; 0 marks an instant event.
    pub dur_ns: u64,
    /// Site involved, when known.
    pub site: Option<SiteId>,
    /// Slave (worker index within the site), when known.
    pub worker: Option<u32>,
    /// Chunk/job involved, when known.
    pub chunk: Option<ChunkId>,
    /// Causal span this event belongs to: the pool allocates one span id per
    /// job *execution* at grant time (so a chunk's speculative or replica
    /// copies each get their own), and every downstream event of that
    /// execution — start, fetch, process, completion, reap, evacuation —
    /// carries it, across threads and across the TCP wire.
    pub span: Option<u64>,
    /// The span this one was caused by (replica/speculation lineage: a
    /// duplicate grant's parent is the execution it races).
    pub parent: Option<u64>,
    /// Per-sink delivery sequence number, stamped by [`Telemetry::emit`]
    /// (1-based; 0 marks an event that never went through a handle). The
    /// stamped *set* is contiguous — `cloudburst check-json` uses it to
    /// prove an events JSONL lost nothing — but the recorded *order* may
    /// interleave, since racing emitters are stamped before they enqueue.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// An instant event at `at_ns`.
    #[must_use]
    pub fn at(at_ns: u64, kind: EventKind) -> Event {
        Event {
            at_ns,
            dur_ns: 0,
            site: None,
            worker: None,
            chunk: None,
            span: None,
            parent: None,
            seq: 0,
            kind,
        }
    }

    /// A span starting at `at_ns` lasting `dur_ns`.
    #[must_use]
    pub fn span(at_ns: u64, dur_ns: u64, kind: EventKind) -> Event {
        Event { dur_ns, ..Event::at(at_ns, kind) }
    }

    /// Tag with a site.
    #[must_use]
    pub fn site(mut self, site: SiteId) -> Event {
        self.site = Some(site);
        self
    }

    /// Tag with a slave index.
    #[must_use]
    pub fn worker(mut self, worker: u32) -> Event {
        self.worker = Some(worker);
        self
    }

    /// Tag with a chunk id.
    #[must_use]
    pub fn chunk(mut self, chunk: ChunkId) -> Event {
        self.chunk = Some(chunk);
        self
    }

    /// Tag with the causal span id (0, the "no span" sentinel, is ignored).
    #[must_use]
    pub fn span_id(mut self, span: u64) -> Event {
        if span != 0 {
            self.span = Some(span);
        }
        self
    }

    /// Tag with the parent span that caused this event (0 is ignored).
    #[must_use]
    pub fn cause(mut self, parent: u64) -> Event {
        if parent != 0 {
            self.parent = Some(parent);
        }
        self
    }

    /// Kind-specific payload fields, shared by the JSONL and trace exports.
    fn payload(&self) -> Vec<(&'static str, Json)> {
        match self.kind {
            EventKind::JobGranted { stolen, speculative, replica } => vec![
                ("stolen", Json::Bool(stolen)),
                ("speculative", Json::Bool(speculative)),
                ("replica", Json::Bool(replica)),
            ],
            EventKind::JobStarted { stolen } => vec![("stolen", Json::Bool(stolen))],
            EventKind::ChunkFetched { bytes, remote, retries } => vec![
                ("bytes", Json::U64(bytes)),
                ("remote", Json::Bool(remote)),
                ("retries", Json::U64(retries)),
            ],
            EventKind::StorageRetry { retries } => vec![("retries", Json::U64(retries))],
            EventKind::HandOff { jobs } | EventKind::Settled { jobs } => {
                vec![("jobs", Json::U64(jobs))]
            }
            EventKind::JobCompleted { merged, late, stolen } => vec![
                ("merged", Json::Bool(merged)),
                ("late", Json::Bool(late)),
                ("stolen", Json::Bool(stolen)),
            ],
            EventKind::SpeculationResolved { won } | EventKind::ReplicaResolved { won } => {
                vec![("won", Json::Bool(won))]
            }
            EventKind::LostResult { stolen } => vec![("stolen", Json::Bool(stolen))],
            EventKind::MetricsSnapshot { grants, steals, completions, queue_depth, bytes } => vec![
                ("grants", Json::U64(grants)),
                ("steals", Json::U64(steals)),
                ("completions", Json::U64(completions)),
                ("queue_depth", Json::U64(queue_depth)),
                ("bytes", Json::U64(bytes)),
            ],
            EventKind::HealthTransition { detector, tripped, value, threshold } => vec![
                ("detector", Json::Str(detector.label().into())),
                ("tripped", Json::Bool(tripped)),
                ("value", Json::F64(value)),
                ("threshold", Json::F64(threshold)),
            ],
            _ => Vec::new(),
        }
    }

    /// The JSONL representation (one object per event).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .field("at_ns", Json::U64(self.at_ns))
            .field("kind", Json::Str(self.kind.label().into()));
        if self.dur_ns > 0 {
            j = j.field("dur_ns", Json::U64(self.dur_ns));
        }
        if let Some(site) = self.site {
            j = j.field("site", Json::Str(site.to_string()));
        }
        if let Some(worker) = self.worker {
            j = j.field("worker", Json::U64(u64::from(worker)));
        }
        if let Some(chunk) = self.chunk {
            j = j.field("chunk", Json::U64(u64::from(chunk.0)));
        }
        if let Some(span) = self.span {
            j = j.field("span", Json::U64(span));
        }
        if let Some(parent) = self.parent {
            j = j.field("parent", Json::U64(parent));
        }
        if self.seq > 0 {
            j = j.field("seq", Json::U64(self.seq));
        }
        for (k, v) in self.payload() {
            j = j.field(k, v);
        }
        j
    }

    /// Parse one JSONL object back into an [`Event`] — the exact inverse of
    /// [`Event::to_json`], used by `cloudburst explain` / `check-json` to
    /// reconstruct a run from its `--events-out` artifact.
    ///
    /// # Errors
    /// Returns a message naming the missing/malformed field, including an
    /// unrecognized `kind` (so a reader confronted with a newer taxonomy
    /// can skip rather than misfile).
    pub fn from_json(j: &Json) -> Result<Event, String> {
        fn u64_of(j: &Json, key: &str) -> Option<u64> {
            match j.get(key)? {
                Json::U64(v) => Some(*v),
                Json::F64(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
                _ => None,
            }
        }
        fn bool_of(j: &Json, key: &str) -> bool {
            matches!(j.get(key), Some(Json::Bool(true)))
        }
        let at_ns = u64_of(j, "at_ns").ok_or("missing 'at_ns'")?;
        let label = j.get("kind").and_then(Json::as_str).ok_or("missing 'kind'")?;
        let kind = match label {
            "job-granted" => EventKind::JobGranted {
                stolen: bool_of(j, "stolen"),
                speculative: bool_of(j, "speculative"),
                replica: bool_of(j, "replica"),
            },
            "job-started" => EventKind::JobStarted { stolen: bool_of(j, "stolen") },
            "chunk-fetched" => EventKind::ChunkFetched {
                bytes: u64_of(j, "bytes").unwrap_or(0),
                remote: bool_of(j, "remote"),
                retries: u64_of(j, "retries").unwrap_or(0),
            },
            "storage-retry" => {
                EventKind::StorageRetry { retries: u64_of(j, "retries").unwrap_or(0) }
            }
            "job-processed" => EventKind::JobProcessed,
            "job-rereduced" => EventKind::JobRereduced,
            "hand-off" => EventKind::HandOff { jobs: u64_of(j, "jobs").unwrap_or(0) },
            "settle" => EventKind::Settled { jobs: u64_of(j, "jobs").unwrap_or(0) },
            "job-dropped" => EventKind::JobDropped,
            "job-completed" => EventKind::JobCompleted {
                merged: bool_of(j, "merged"),
                late: bool_of(j, "late"),
                stolen: bool_of(j, "stolen"),
            },
            "speculation-resolved" => EventKind::SpeculationResolved { won: bool_of(j, "won") },
            "replica-resolved" => EventKind::ReplicaResolved { won: bool_of(j, "won") },
            "job-failed" => EventKind::JobFailed,
            "lease-reap" => EventKind::LeaseReaped,
            "job-evacuated" => EventKind::JobEvacuated,
            "site-evacuated" => EventKind::SiteEvacuated,
            "lost-result" => EventKind::LostResult { stolen: bool_of(j, "stolen") },
            "refetch-saved" => EventKind::RefetchSaved,
            "job-abandoned" => EventKind::JobAbandoned,
            "heartbeat" => EventKind::Heartbeat,
            "metrics-snapshot" => EventKind::MetricsSnapshot {
                grants: u64_of(j, "grants").unwrap_or(0),
                steals: u64_of(j, "steals").unwrap_or(0),
                completions: u64_of(j, "completions").unwrap_or(0),
                queue_depth: u64_of(j, "queue_depth").unwrap_or(0),
                bytes: u64_of(j, "bytes").unwrap_or(0),
            },
            "health-transition" => {
                let label = j.get("detector").and_then(Json::as_str).ok_or("missing 'detector'")?;
                let detector = crate::health::HealthDetector::parse(label)
                    .ok_or_else(|| format!("unknown health detector '{label}'"))?;
                EventKind::HealthTransition {
                    detector,
                    tripped: bool_of(j, "tripped"),
                    value: j.get("value").and_then(Json::as_f64).unwrap_or(0.0),
                    threshold: j.get("threshold").and_then(Json::as_f64).unwrap_or(0.0),
                }
            }
            "slave-finished" => EventKind::SlaveFinished,
            "local-merge" => EventKind::SiteMerged,
            "site-finished" => EventKind::SiteFinished,
            "global-reduction" => EventKind::GlobalReduction,
            "run-finished" => EventKind::RunFinished,
            other => return Err(format!("unknown event kind '{other}'")),
        };
        let site = match j.get("site").and_then(Json::as_str) {
            None => None,
            Some(text) => Some(SiteId::parse(text).ok_or_else(|| format!("bad site '{text}'"))?),
        };
        let mut e = Event::at(at_ns, kind);
        e.dur_ns = u64_of(j, "dur_ns").unwrap_or(0);
        e.site = site;
        e.worker = u64_of(j, "worker").map(|w| w as u32);
        e.chunk = u64_of(j, "chunk").map(|c| ChunkId(c as u32));
        e.span = u64_of(j, "span");
        e.parent = u64_of(j, "parent");
        e.seq = u64_of(j, "seq").unwrap_or(0);
        Ok(e)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>12.6}s", ns_to_secs(self.at_ns))?;
        if let Some(site) = self.site {
            write!(f, " {site}")?;
        }
        if let Some(w) = self.worker {
            write!(f, "/w{w}")?;
        }
        write!(f, " {}", self.kind.display_name())?;
        if let Some(c) = self.chunk {
            write!(f, " {c}")?;
        }
        if self.dur_ns > 0 {
            write!(f, " ({:.6}s)", ns_to_secs(self.dur_ns))?;
        }
        Ok(())
    }
}

/// Where events go. Implementations must be cheap and thread-safe: slaves
/// call [`EventSink::record`] from hot loops.
pub trait EventSink: Send + Sync {
    /// Ingest one event.
    fn record(&self, event: Event);
}

/// The clonable telemetry handle the runtimes carry. Disabled by default:
/// `emit` is a single branch when no sink is attached.
///
/// Every clone of a handle shares one sequence counter: `emit` stamps each
/// delivered event with the next 1-based [`Event::seq`], so however many
/// threads and runtimes share the handle, the union of everything the sink
/// saw carries a gap-free sequence — the invariant `cloudburst check-json`
/// verifies on events JSONL to detect dropped events.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<dyn EventSink>>,
    seq: Arc<std::sync::atomic::AtomicU64>,
}

impl Telemetry {
    /// The disabled handle (every emit is a no-op).
    #[must_use]
    pub fn off() -> Telemetry {
        Telemetry { sink: None, seq: Arc::default() }
    }

    /// A handle delivering every event to `sink`.
    #[must_use]
    pub fn to(sink: Arc<dyn EventSink>) -> Telemetry {
        Telemetry { sink: Some(sink), seq: Arc::default() }
    }

    /// A handle fanning out to several sinks (0 sinks = off, 1 = direct).
    #[must_use]
    pub fn fanout(mut sinks: Vec<Arc<dyn EventSink>>) -> Telemetry {
        match sinks.len() {
            0 => Telemetry::off(),
            1 => Telemetry::to(sinks.remove(0)),
            _ => Telemetry::to(Arc::new(Fanout { sinks })),
        }
    }

    /// True when a sink is attached.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Deliver one event (no-op when disabled), stamped with this handle
    /// family's next sequence number.
    #[inline]
    pub fn emit(&self, mut event: Event) {
        if let Some(sink) = &self.sink {
            event.seq = self.seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            sink.record(event);
        }
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_enabled() { "Telemetry(on)" } else { "Telemetry(off)" })
    }
}

/// Delivers each event to every attached sink, in order.
struct Fanout {
    sinks: Vec<Arc<dyn EventSink>>,
}

impl EventSink for Fanout {
    fn record(&self, event: Event) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }
}

/// An in-memory event recorder (the default sink for tests and the CLI).
#[derive(Default)]
pub struct Recorder {
    events: Mutex<Vec<Event>>,
}

impl Recorder {
    /// A fresh, empty recorder.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Copy out everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    /// Drain everything recorded so far.
    #[must_use]
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock())
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl EventSink for Recorder {
    fn record(&self, event: Event) {
        self.events.lock().push(event);
    }
}

/// The always-on flight recorder: a bounded ring-buffer sink that keeps
/// the last `capacity` events and overwrites the oldest beyond that.
///
/// The slot vector grows with what it holds, so the capacity is a bound,
/// never an up-front allocation; once the ring is full, recording is a
/// `memcpy` into a slot under an uncontended `parking_lot` mutex — no
/// allocation, no unbounded growth — so it can tee alongside every other
/// sink for the whole run and still cost nothing measurable.
/// [`FlightRecorder::snapshot`] reconstructs the window oldest-first on
/// demand; that is what `/debug/events` serves and what the black-box
/// crash dump writes.
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    capacity: usize,
    total: std::sync::atomic::AtomicU64,
}

struct Ring {
    /// Grows as events arrive until it holds `capacity`, then stays put.
    slots: Vec<Event>,
    /// Overwrite cursor: index of the oldest slot once the ring is full.
    next: usize,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (0 disables recording).
    #[must_use]
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Mutex::new(Ring { slots: Vec::new(), next: 0 }),
            capacity,
            total: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The fixed window size.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held (== `capacity` once the ring has wrapped).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.lock().slots.len()
    }

    /// True while nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every event ever offered, including those already overwritten.
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.total.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The current window, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        let ring = self.ring.lock();
        if ring.slots.len() < self.capacity {
            return ring.slots.clone();
        }
        let mut out = Vec::with_capacity(ring.slots.len());
        out.extend_from_slice(&ring.slots[ring.next..]);
        out.extend_from_slice(&ring.slots[..ring.next]);
        out
    }

    /// The newest `n` events of the window, oldest of those first.
    #[must_use]
    pub fn last(&self, n: usize) -> Vec<Event> {
        let mut window = self.snapshot();
        let keep = window.len().saturating_sub(n);
        window.drain(..keep);
        window
    }
}

impl EventSink for FlightRecorder {
    fn record(&self, event: Event) {
        if self.capacity == 0 {
            return;
        }
        self.total.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut ring = self.ring.lock();
        if ring.slots.len() < self.capacity {
            ring.slots.push(event);
        } else {
            let at = ring.next;
            ring.slots[at] = event;
            ring.next = (at + 1) % self.capacity;
        }
    }
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("total_recorded", &self.total_recorded())
            .finish()
    }
}

/// A streaming JSONL event-log sink: each event is serialized and written
/// as one line the moment it is recorded, through a line-buffered writer,
/// so a crashed run's `--events-out` log is complete up to the final whole
/// record instead of losing everything buffered for an end-of-run dump.
///
/// [`JsonlSink::flush`] is exposed for the panic hook; dropping the sink
/// flushes too.
pub struct JsonlSink {
    inner: Mutex<JsonlInner>,
    path: std::path::PathBuf,
}

struct JsonlInner {
    out: std::io::LineWriter<std::fs::File>,
    /// Reused serialization buffer: one line, no per-event allocation.
    buf: String,
}

impl JsonlSink {
    /// Create (truncate) `path` and stream events into it.
    ///
    /// # Errors
    /// Propagates the file-creation failure.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<JsonlSink> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::File::create(&path)?;
        Ok(JsonlSink {
            inner: Mutex::new(JsonlInner {
                out: std::io::LineWriter::new(file),
                buf: String::new(),
            }),
            path,
        })
    }

    /// Where the log is being written.
    #[must_use]
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Push everything buffered to the OS (idempotent; used by the
    /// panic/black-box hook).
    pub fn flush(&self) {
        use std::io::Write;
        let _ = self.inner.lock().out.flush();
    }
}

impl EventSink for JsonlSink {
    fn record(&self, event: Event) {
        use std::io::Write;
        let mut inner = self.inner.lock();
        let JsonlInner { out, buf } = &mut *inner;
        buf.clear();
        event.to_json().write(buf);
        buf.push('\n');
        let _ = out.write_all(buf.as_bytes());
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Console verbosity for [`ConsoleSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogLevel {
    /// Only fault-path events (reaps, evacuations, speculation, retries).
    Info,
    /// Every event.
    Debug,
}

impl LogLevel {
    /// Parse a CLI spelling (`info` / `debug`; `off` maps to `None`).
    #[must_use]
    pub fn parse(text: &str) -> Option<Option<LogLevel>> {
        match text {
            "off" => Some(None),
            "info" => Some(Some(LogLevel::Info)),
            "debug" => Some(Some(LogLevel::Debug)),
            _ => None,
        }
    }
}

/// Streams events to stderr as they happen, filtered by [`LogLevel`].
///
/// Lines go through one shared, buffered writer behind a single mutex —
/// not `eprintln!` — so `--log-level debug` on a chaos run pays one lock
/// and a `memcpy` per event instead of a syscall, and a flurry of slave
/// events can't interleave mid-line. The buffer is flushed when the sink
/// is dropped (and whenever it fills).
pub struct ConsoleSink {
    level: LogLevel,
    out: Mutex<std::io::BufWriter<std::io::Stderr>>,
}

impl ConsoleSink {
    /// A console sink at the given verbosity.
    #[must_use]
    pub fn new(level: LogLevel) -> ConsoleSink {
        ConsoleSink { level, out: Mutex::new(std::io::BufWriter::new(std::io::stderr())) }
    }
}

impl EventSink for ConsoleSink {
    fn record(&self, event: Event) {
        if self.level == LogLevel::Debug || event.kind.is_noteworthy() {
            use std::io::Write;
            let mut out = self.out.lock();
            let _ = writeln!(out, "[telemetry] {event}");
        }
    }
}

impl Drop for ConsoleSink {
    fn drop(&mut self) {
        use std::io::Write;
        let _ = self.out.lock().flush();
    }
}

/// Serialize events as JSONL (one JSON object per line) — the event-log
/// artifact behind the CLI's `--events-out`.
#[must_use]
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        e.to_json().write(&mut out);
        out.push('\n');
    }
    out
}

/// Export events as a Chrome `trace_event` document (the JSON object form,
/// `{"traceEvents": [...]}`). Open the file in `chrome://tracing` or
/// Perfetto: each site is a process, each slave a thread-track, the pool /
/// control plane is track 0.
///
/// Pool-side events (grants, steals, speculations, reaps, completions)
/// carry a site but no worker; the exporter attributes them to the slave
/// track that actually executed the chunk — the next `JobStarted` for the
/// same `(site, chunk)` for grant-like events, the latest preceding one for
/// outcome-like events — so a chaos run's steals, lease reaps and
/// speculative launches land on the swimlane of the slave they concern.
#[must_use]
pub fn chrome_trace(events: &[Event]) -> Json {
    // (site, chunk) -> sorted (start time, worker) pairs, for attribution.
    let mut starts: BTreeMap<(SiteId, ChunkId), Vec<(u64, u32)>> = BTreeMap::new();
    for e in events {
        if let (EventKind::JobStarted { .. }, Some(site), Some(w), Some(c)) =
            (e.kind, e.site, e.worker, e.chunk)
        {
            starts.entry((site, c)).or_default().push((e.at_ns, w));
        }
    }
    for v in starts.values_mut() {
        v.sort_unstable();
    }
    let attribute = |e: &Event| -> Option<u32> {
        if e.worker.is_some() {
            return e.worker;
        }
        let runs = starts.get(&(e.site?, e.chunk?))?;
        let forward = matches!(e.kind, EventKind::JobGranted { .. });
        let picked = if forward {
            // Grant-like: the execution this grant caused starts at/after it.
            runs.iter().find(|(at, _)| *at >= e.at_ns).or_else(|| runs.last())
        } else {
            // Outcome-like: concerns the latest execution already started.
            runs.iter().rev().find(|(at, _)| *at <= e.at_ns).or_else(|| runs.first())
        };
        picked.map(|&(_, w)| w)
    };

    let mut rows = Vec::new();
    let mut lanes: BTreeMap<(u64, u64), ()> = BTreeMap::new();
    for e in events {
        // Head/run-scoped events (no site) live in process 0.
        let pid = e.site.map_or(0, |s| u64::from(s.0) + 1);
        let tid = attribute(e).map_or(0, |w| u64::from(w) + 1);
        lanes.entry((pid, tid)).or_insert(());
        let mut row = Json::obj()
            .field("name", Json::Str(e.kind.display_name().into()))
            .field("cat", Json::Str(e.kind.category().into()))
            .field("pid", Json::U64(pid))
            .field("tid", Json::U64(tid))
            .field("ts", Json::F64(e.at_ns as f64 / 1000.0));
        if e.dur_ns > 0 {
            row = row
                .field("ph", Json::Str("X".into()))
                .field("dur", Json::F64(e.dur_ns as f64 / 1000.0));
        } else {
            row = row.field("ph", Json::Str("i".into())).field("s", Json::Str("t".into()));
        }
        let mut args = Json::obj();
        if let Some(c) = e.chunk {
            args = args.field("chunk", Json::U64(u64::from(c.0)));
        }
        for (k, v) in e.payload() {
            args = args.field(k, v);
        }
        rows.push(row.field("args", args));
    }
    // Metadata rows naming each process (site) and thread (slave) track.
    for &(pid, tid) in lanes.keys() {
        if tid == 0 {
            let name = if pid == 0 {
                "head".to_owned()
            } else {
                format!("site {}", SiteId(pid as u16 - 1))
            };
            rows.push(meta_row("process_name", pid, 0, &name));
            rows.push(meta_row("thread_name", pid, 0, "control"));
        } else {
            rows.push(meta_row("thread_name", pid, tid, &format!("slave {}", tid - 1)));
        }
    }
    Json::obj()
        .field("traceEvents", Json::Arr(rows))
        .field("displayTimeUnit", Json::Str("ms".into()))
}

fn meta_row(what: &str, pid: u64, tid: u64, name: &str) -> Json {
    Json::obj()
        .field("name", Json::Str(what.into()))
        .field("ph", Json::Str("M".into()))
        .field("pid", Json::U64(pid))
        .field("tid", Json::U64(tid))
        .field("args", Json::obj().field("name", Json::Str(name.into())))
}

/// The pool-side ledger: the fault counters and one row per site, which the
/// per-site job counts of Table I are read off. [`PoolTally::apply`] is the
/// one place a pool event gets its meaning: [`JobPool`](crate::pool::JobPool)
/// folds every event it states with it, and [`derive_report`] a recorded
/// stream, so the two agree; the live scrape renders the pool's tally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolTally {
    /// Fault-path accounting (`rereduced_jobs` stays zero here: that fact is
    /// a slave's, see [`SlaveSample::rereduced`]).
    pub faults: FaultCounters,
    /// One row per site, indexed by `SiteId`.
    pub(crate) sites: Vec<SiteRow>,
    /// Each chunk's data-home site, by `ChunkId`: whose shard a steal
    /// emptied. Empty when folded from a recorded stream.
    pub(crate) homes: Arc<[SiteId]>,
}

/// One site's row of the pool ledger: what the scrape's pool families show.
/// `merged` and `lost` are split by the kind of job, `[local, stolen]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SiteRow {
    pub(crate) grants: u64,
    pub(crate) steals: u64,
    /// Jobs other sites stole out of this site's shard.
    pub(crate) stolen_from: u64,
    pub(crate) speculations: u64,
    pub(crate) replica_grants: u64,
    pub(crate) merged: [u64; 2],
    /// Merged results lost with the site's robj.
    pub(crate) lost: [u64; 2],
    pub(crate) duplicates: u64,
    pub(crate) reaps: u64,
    pub(crate) failures: u64,
    pub(crate) evacuated: u64,
    pub(crate) replica_wins: u64,
    pub(crate) replica_fences: u64,
    pub(crate) saved_refetches: u64,
}

impl SiteRow {
    /// What the site merged and did not lose with its robj, by kind.
    pub(crate) fn jobs(&self) -> SiteJobCounts {
        let net = |kind: usize| self.merged[kind].saturating_sub(self.lost[kind]);
        SiteJobCounts { local: net(0), stolen: net(1) }
    }
}

impl PoolTally {
    /// Jobs merged per processing site, split local/stolen (Table I); a site
    /// is in it once it merged a job.
    #[must_use]
    pub fn counts(&self) -> BTreeMap<SiteId, SiteJobCounts> {
        let rows = self.sites.iter().enumerate().filter(|(_, r)| r.merged != [0, 0]);
        rows.map(|(i, r)| (SiteId(i as u16), r.jobs())).collect()
    }

    /// Fold one event into the ledger. Inlined (the bare hint is declined): at
    /// a call with the kind in hand only its arm is left, no event built whole.
    #[inline(always)]
    pub fn apply(&mut self, e: &Event) {
        let PoolTally { faults, sites, homes } = self;
        // An event about no site counts in no row.
        let mut unsited = SiteRow::default();
        let row = match e.site {
            Some(site) => row_mut(sites, site),
            None => &mut unsited,
        };
        match e.kind {
            EventKind::JobGranted { stolen, speculative, replica } => {
                faults.speculative_grants += u64::from(speculative);
                faults.replica_grants += u64::from(replica);
                row.grants += 1;
                row.steals += u64::from(stolen);
                row.speculations += u64::from(speculative);
                row.replica_grants += u64::from(replica);
                if stolen {
                    if let Some(&home) = e.chunk.and_then(|c| homes.get(c.0 as usize)) {
                        row_mut(sites, home).stolen_from += 1;
                    }
                }
            }
            EventKind::JobCompleted { merged: false, .. } => {
                faults.duplicate_completions += 1;
                row.duplicates += 1;
            }
            EventKind::JobCompleted { merged: true, late, stolen } => {
                faults.late_completions += u64::from(late);
                row.merged[usize::from(stolen)] += 1;
            }
            EventKind::LostResult { stolen } => {
                faults.lost_results += 1;
                row.lost[usize::from(stolen)] += 1;
            }
            EventKind::SpeculationResolved { won: true } => faults.speculative_wins += 1,
            EventKind::SpeculationResolved { won: false } => faults.speculative_losses += 1,
            EventKind::ReplicaResolved { won: true } => {
                faults.replica_wins += 1;
                row.replica_wins += 1;
            }
            EventKind::ReplicaResolved { won: false } => {
                faults.replica_fences += 1;
                row.replica_fences += 1;
            }
            EventKind::RefetchSaved => {
                faults.saved_refetches += 1;
                row.saved_refetches += 1;
            }
            EventKind::LeaseReaped => {
                faults.lease_expiries += 1;
                row.reaps += 1;
            }
            EventKind::JobEvacuated => {
                faults.evacuated_jobs += 1;
                row.evacuated += 1;
            }
            EventKind::JobFailed => row.failures += 1,
            EventKind::JobAbandoned => {
                if let Some(chunk) = e.chunk {
                    faults.abandoned_jobs.push(AbandonedJob { chunk, last_site: e.site });
                }
            }
            // Everything else is no entry in this ledger: slave, site and
            // run facts, and signals nothing is counted from.
            _ => {}
        }
    }
}

/// `site`'s row, made (with any missing below it) at its first use; a
/// `SiteId` is 16 bits, so the rows stay bounded whatever a peer says.
#[inline(always)]
fn row_mut(sites: &mut Vec<SiteRow>, site: SiteId) -> &mut SiteRow {
    let i = usize::from(site.0);
    if i >= sites.len() {
        sites.resize(i + 1, SiteRow::default());
    }
    &mut sites[i]
}

/// Whether a chunk fetched by a slave at `site` is WAN-class: it crossed
/// the inter-site link, or the slave is not at the local cluster. Only the
/// campus cluster's storage is on the LAN; the cloud's is S3, whose
/// front-end every read crosses. The run analysis attributes time and the
/// slave's ledger counts fetches by this one rule.
#[inline(always)]
#[must_use]
pub fn wan_class(site: Option<SiteId>, remote: bool) -> bool {
    remote || site != Some(SiteId::LOCAL)
}

impl SlaveSample {
    /// Fold one of the slave's own events into its ledger: what a live slave
    /// does with every fact it states, and what [`derive_report`] does with
    /// the slave's recorded events.
    #[inline(always)]
    pub fn apply(&mut self, e: &Event) {
        match e.kind {
            EventKind::ChunkFetched { bytes, remote, retries } => {
                let secs = ns_to_secs(e.dur_ns);
                self.retrieval += secs;
                self.fetched_bytes += bytes;
                if remote {
                    self.remote_bytes += bytes;
                }
                if wan_class(e.site, remote) {
                    self.wan_fetches += 1;
                    self.wan_secs += secs;
                }
                self.retries += retries;
            }
            EventKind::JobProcessed => {
                self.processing += ns_to_secs(e.dur_ns);
                self.jobs += 1;
            }
            EventKind::JobRereduced => self.rereduced += 1,
            EventKind::HandOff { jobs } => {
                self.hand_offs += 1;
                self.handed += jobs;
            }
            EventKind::Settled { jobs } => {
                self.settles += 1;
                self.settled += jobs;
            }
            EventKind::JobDropped => self.dropped += 1,
            EventKind::SlaveFinished => self.finish = self.finish.max(ns_to_secs(e.at_ns)),
            _ => {}
        }
    }
}

/// Derive the paper-shaped [`RunReport`] from an event stream.
///
/// This is the aggregator consumer: an event tagged with a worker goes to
/// that slave's [`SlaveSample`], the site and run spans to sums kept here,
/// everything else to one [`PoolTally`] — the *same* `apply` functions the
/// live slaves and the live pool fold their facts with — and the lot to
/// [`crate::stats::assemble_report`], like in the runtimes. The derived report
/// therefore equals the live one, in every count and in every time that was
/// read back from its event's stamp. A site has a row once it merged or
/// finished.
#[must_use]
pub fn derive_report(events: &[Event], env: &str) -> RunReport {
    let mut pool = PoolTally::default();
    let mut slaves: BTreeMap<(SiteId, u32), SlaveSample> = BTreeMap::new();
    let mut samples: BTreeMap<SiteId, SiteSample> = BTreeMap::new();
    let mut global_reduction = 0.0;
    let mut total_time = 0.0f64;

    for e in events {
        match (e.kind, e.site, e.worker) {
            (_, Some(site), Some(worker)) => slaves.entry((site, worker)).or_default().apply(e),
            (EventKind::SiteMerged, Some(site), _) => {
                samples.entry(site).or_default().local_merge += ns_to_secs(e.dur_ns);
            }
            (EventKind::SiteFinished, Some(site), _) => {
                let finish = &mut samples.entry(site).or_default().finish;
                *finish = finish.max(ns_to_secs(e.at_ns));
            }
            (EventKind::GlobalReduction, ..) => global_reduction += ns_to_secs(e.dur_ns),
            (EventKind::RunFinished, ..) => total_time = total_time.max(ns_to_secs(e.at_ns)),
            _ => pool.apply(e),
        }
    }
    for ((site, _), slave) in slaves {
        if let Some(sample) = samples.get_mut(&site) {
            sample.slaves.push(slave);
        }
    }
    let counts = pool.counts();
    for (site, sample) in &mut samples {
        sample.jobs = counts.get(site).copied().unwrap_or_default();
    }
    crate::stats::assemble_report(env, pool.faults, &samples, global_reduction, total_time)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        let local = SiteId::LOCAL;
        let cloud = SiteId::CLOUD;
        let c0 = ChunkId(0);
        let c1 = ChunkId(1);
        vec![
            Event::at(
                0,
                EventKind::JobGranted { stolen: false, speculative: false, replica: false },
            )
            .site(local)
            .chunk(c0),
            Event::at(10, EventKind::JobStarted { stolen: false }).site(local).worker(0).chunk(c0),
            Event::span(10, 300, EventKind::ChunkFetched { bytes: 64, remote: false, retries: 1 })
                .site(local)
                .worker(0)
                .chunk(c0),
            Event::span(310, 700, EventKind::JobProcessed).site(local).worker(0).chunk(c0),
            Event::at(
                5,
                EventKind::JobGranted { stolen: true, speculative: false, replica: false },
            )
            .site(cloud)
            .chunk(c1),
            Event::at(20, EventKind::JobStarted { stolen: true }).site(cloud).worker(1).chunk(c1),
            Event::span(20, 400, EventKind::ChunkFetched { bytes: 128, remote: true, retries: 0 })
                .site(cloud)
                .worker(1)
                .chunk(c1),
            Event::at(1200, EventKind::LeaseReaped).site(cloud).chunk(c1),
            Event::at(1300, EventKind::JobCompleted { merged: true, late: true, stolen: true })
                .site(cloud)
                .chunk(c1),
            Event::at(1050, EventKind::JobCompleted { merged: true, late: false, stolen: false })
                .site(local)
                .chunk(c0),
            Event::at(1400, EventKind::SlaveFinished).site(local).worker(0),
            Event::at(1500, EventKind::SlaveFinished).site(cloud).worker(1),
            Event::span(1500, 100, EventKind::SiteMerged).site(local),
            Event::at(1600, EventKind::SiteFinished).site(local),
            Event::at(1700, EventKind::SiteFinished).site(cloud),
            Event::span(1700, 200, EventKind::GlobalReduction),
            Event::at(1900, EventKind::RunFinished),
        ]
    }

    #[test]
    fn events_round_trip_through_jsonl() {
        let mut events = sample_events();
        // Exercise the causal fields and a stamped sequence too, and the
        // replica facts no sample run has.
        events[0] = events[0].span_id(7).cause(3);
        let replica = EventKind::JobGranted { stolen: true, speculative: false, replica: true };
        events.push(Event::at(6, replica).site(SiteId::CLOUD).chunk(ChunkId(0)));
        events.push(Event::at(7, EventKind::ReplicaResolved { won: true }).site(SiteId::CLOUD));
        events.push(Event::at(7, EventKind::ReplicaResolved { won: false }).site(SiteId::LOCAL));
        events.push(Event::at(8, EventKind::RefetchSaved).site(SiteId::CLOUD).chunk(ChunkId(1)));
        // And a slave's exchanges with its master.
        let slave = |e: Event| e.site(SiteId::LOCAL).worker(1);
        events.push(slave(Event::at(9, EventKind::HandOff { jobs: 12 })));
        events.push(slave(Event::at(10, EventKind::Settled { jobs: 5 })));
        events.push(slave(Event::at(11, EventKind::JobDropped).chunk(ChunkId(2))));
        for (i, e) in events.iter_mut().enumerate() {
            e.seq = i as u64 + 1;
        }
        for e in &events {
            let line = e.to_json().to_text();
            let back = Event::from_json(&Json::parse(&line).expect("line parses"))
                .expect("event parses back");
            assert_eq!(back, *e, "round trip diverged for {line}");
        }
    }

    #[test]
    fn a_slaves_exchanges_with_its_master_fold_into_its_ledger() {
        let mut sample = SlaveSample::default();
        for kind in [
            EventKind::HandOff { jobs: 12 },
            EventKind::HandOff { jobs: 4 },
            EventKind::Settled { jobs: 9 },
            EventKind::JobDropped,
        ] {
            sample.apply(&Event::at(1, kind).site(SiteId::CLOUD).worker(0));
        }
        let exchanges =
            (sample.hand_offs, sample.handed, sample.settles, sample.settled, sample.dropped);
        assert_eq!(exchanges, (2, 16, 1, 9, 1));
        assert_eq!(sample.jobs, 0, "an exchange processes nothing");
    }

    #[test]
    fn from_json_rejects_junk() {
        let missing = Json::parse(r#"{"kind":"heartbeat"}"#).unwrap();
        assert!(Event::from_json(&missing).unwrap_err().contains("at_ns"));
        let unknown = Json::parse(r#"{"at_ns":1,"kind":"warp-drive"}"#).unwrap();
        assert!(Event::from_json(&unknown).unwrap_err().contains("warp-drive"));
        let bad_site = Json::parse(r#"{"at_ns":1,"kind":"heartbeat","site":"mars"}"#).unwrap();
        assert!(Event::from_json(&bad_site).unwrap_err().contains("mars"));
    }

    #[test]
    fn emit_stamps_a_shared_gap_free_sequence() {
        let rec = Arc::new(Recorder::new());
        let t = Telemetry::to(rec.clone());
        let t2 = t.clone(); // clones share the counter
        t.emit(Event::at(1, EventKind::Heartbeat));
        t2.emit(Event::at(2, EventKind::Heartbeat));
        t.emit(Event::at(3, EventKind::Heartbeat));
        let seqs: Vec<u64> = rec.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        // A fresh handle starts its own sequence; off handles stamp nothing.
        let rec2 = Arc::new(Recorder::new());
        Telemetry::to(rec2.clone()).emit(Event::at(9, EventKind::Heartbeat));
        assert_eq!(rec2.snapshot()[0].seq, 1);
    }

    #[test]
    fn jsonl_lines_each_parse() {
        let text = events_to_jsonl(&sample_events());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), sample_events().len());
        for line in lines {
            let j = Json::parse(line).expect("line parses");
            assert!(j.get("kind").is_some());
            assert!(j.get("at_ns").is_some());
        }
    }

    #[test]
    fn chrome_trace_is_valid_and_attributes_pool_events_to_slave_tracks() {
        let doc = chrome_trace(&sample_events());
        let reparsed = Json::parse(&doc.to_text()).expect("trace parses");
        let rows = reparsed.get("traceEvents").unwrap().as_arr().unwrap();
        // The steal grant for chunk1 must land on cloud's slave-1 track.
        let steal = rows
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some("steal"))
            .expect("steal event present");
        assert_eq!(steal.get("pid").unwrap().as_f64(), Some(f64::from(SiteId::CLOUD.0) + 1.0));
        assert_eq!(steal.get("tid").unwrap().as_f64(), Some(2.0), "slave 1 => tid 2");
        // The lease reap is outcome-like: attributed to the same track.
        let reap = rows
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some("lease-reap"))
            .expect("reap event present");
        assert_eq!(reap.get("tid").unwrap().as_f64(), Some(2.0));
        // Spans carry ph=X with a duration; instants carry ph=i.
        let fetch =
            rows.iter().find(|r| r.get("name").and_then(Json::as_str) == Some("fetch")).unwrap();
        assert_eq!(fetch.get("ph").unwrap().as_str(), Some("X"));
        assert!(fetch.get("dur").unwrap().as_f64().unwrap() > 0.0);
        // Track-naming metadata is present.
        assert!(rows.iter().any(|r| r.get("ph").and_then(Json::as_str) == Some("M")));
    }

    #[test]
    fn derive_report_rebuilds_counts_faults_and_times() {
        let report = derive_report(&sample_events(), "test-env");
        assert_eq!(report.env, "test-env");
        assert_eq!(report.sites[&SiteId::LOCAL].jobs.local, 1);
        assert_eq!(report.sites[&SiteId::CLOUD].jobs.stolen, 1);
        assert_eq!(report.sites[&SiteId::LOCAL].retries, 1);
        assert_eq!(report.sites[&SiteId::CLOUD].remote_bytes, 128);
        assert_eq!(report.faults.lease_expiries, 1);
        assert_eq!(report.faults.late_completions, 1);
        assert!((report.global_reduction - 200e-9).abs() < 1e-15);
        assert!((report.total_time - 1900e-9).abs() < 1e-15);
        // Breakdown honors the shared assembly: local site waits for cloud.
        let local = &report.sites[&SiteId::LOCAL];
        assert!((local.breakdown.processing - 700e-9).abs() < 1e-15);
        assert!((local.idle - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn telemetry_handle_is_cheap_and_fans_out() {
        let off = Telemetry::off();
        assert!(!off.is_enabled());
        off.emit(Event::at(1, EventKind::Heartbeat)); // no-op, no panic
        assert_eq!(format!("{off:?}"), "Telemetry(off)");

        let a = Arc::new(Recorder::new());
        let b = Arc::new(Recorder::new());
        let t = Telemetry::fanout(vec![a.clone(), b.clone()]);
        assert!(t.is_enabled());
        assert_eq!(format!("{t:?}"), "Telemetry(on)");
        let t2 = t.clone();
        t2.emit(Event::at(7, EventKind::Heartbeat).site(SiteId::LOCAL));
        assert_eq!(a.len(), 1);
        assert_eq!(b.snapshot(), a.snapshot());
        assert_eq!(a.take().len(), 1);
        assert!(a.is_empty());
    }

    #[test]
    fn log_level_parsing_and_noteworthiness() {
        assert_eq!(LogLevel::parse("off"), Some(None));
        assert_eq!(LogLevel::parse("info"), Some(Some(LogLevel::Info)));
        assert_eq!(LogLevel::parse("debug"), Some(Some(LogLevel::Debug)));
        assert_eq!(LogLevel::parse("verbose"), None);
        assert!(EventKind::LeaseReaped.is_noteworthy());
        assert!(EventKind::SpeculationResolved { won: true }.is_noteworthy());
        assert!(!EventKind::JobProcessed.is_noteworthy());
        assert!(!EventKind::JobGranted { stolen: true, speculative: false, replica: false }
            .is_noteworthy());
    }

    #[test]
    fn timestamp_conversions_round_trip() {
        assert_eq!(secs_to_ns(0.0), 0);
        assert_eq!(secs_to_ns(-1.0), 0);
        assert_eq!(secs_to_ns(f64::NAN), 0);
        assert_eq!(secs_to_ns(1.5), 1_500_000_000);
        let s = 123.456_789;
        assert!((ns_to_secs(secs_to_ns(s)) - s).abs() < 1e-9);
    }

    #[test]
    fn health_transition_round_trips_and_classifies() {
        use crate::health::HealthDetector;
        let kind = EventKind::HealthTransition {
            detector: HealthDetector::ReapStorm,
            tripped: true,
            value: 7.5,
            threshold: 2.0,
        };
        assert_eq!(kind.label(), "health-transition");
        assert_eq!(kind.display_name(), "health-trip");
        assert_eq!(kind.category(), "health");
        assert!(kind.is_noteworthy());
        let cleared = EventKind::HealthTransition {
            detector: HealthDetector::QueueStall,
            tripped: false,
            value: 3.0,
            threshold: 1.0,
        };
        assert_eq!(cleared.display_name(), "health-clear");
        for k in [kind, cleared] {
            let e = Event::at(42, k);
            let line = e.to_json().to_text();
            let back = Event::from_json(&Json::parse(&line).expect("parses")).expect("round trip");
            assert_eq!(back, e, "diverged for {line}");
        }
        let bad = Json::parse(r#"{"at_ns":1,"kind":"health-transition","detector":"x"}"#).unwrap();
        assert!(Event::from_json(&bad).unwrap_err().contains("unknown health detector"));
    }

    #[test]
    fn flight_recorder_keeps_the_last_capacity_events_in_order() {
        let fr = FlightRecorder::new(4);
        assert!(fr.is_empty());
        for i in 0..10u64 {
            fr.record(Event::at(i, EventKind::Heartbeat));
        }
        assert_eq!(fr.capacity(), 4);
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.total_recorded(), 10);
        let at: Vec<u64> = fr.snapshot().iter().map(|e| e.at_ns).collect();
        assert_eq!(at, vec![6, 7, 8, 9], "window is the last 4, oldest first");
        let tail: Vec<u64> = fr.last(2).iter().map(|e| e.at_ns).collect();
        assert_eq!(tail, vec![8, 9]);
        // last(n) with n beyond the window is just the window.
        assert_eq!(fr.last(100).len(), 4);
        // Capacity 0 records nothing and never panics.
        let off = FlightRecorder::new(0);
        off.record(Event::at(1, EventKind::Heartbeat));
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn a_flight_recorder_of_any_capacity_allocates_only_what_it_holds() {
        // The cap bounds the window; it sizes nothing up front.
        let fr = FlightRecorder::new(usize::MAX);
        assert_eq!(fr.capacity(), usize::MAX);
        for i in 0..5u64 {
            fr.record(Event::at(i, EventKind::Heartbeat));
        }
        assert_eq!((fr.len(), fr.total_recorded()), (5, 5));
        let at: Vec<u64> = fr.snapshot().iter().map(|e| e.at_ns).collect();
        assert_eq!(at, vec![0, 1, 2, 3, 4]);
        let tail: Vec<u64> = fr.last(2).iter().map(|e| e.at_ns).collect();
        assert_eq!(tail, vec![3, 4]);
    }

    #[test]
    fn jsonl_sink_streams_whole_lines_immediately() {
        let dir = std::env::temp_dir().join(format!("cb-jsonl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let sink = JsonlSink::create(&path).expect("create log");
        assert_eq!(sink.path(), path.as_path());
        sink.record(Event::at(1, EventKind::Heartbeat));
        sink.record(Event::at(2, EventKind::RunFinished));
        // Line-buffered: both records are on disk *before* drop/flush.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            Event::from_json(&Json::parse(line).expect("line parses")).expect("event parses");
        }
        sink.flush(); // idempotent
        drop(sink);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn display_names_distinguish_grant_flavors() {
        assert_eq!(
            EventKind::JobGranted { stolen: false, speculative: false, replica: false }
                .display_name(),
            "grant"
        );
        assert_eq!(
            EventKind::JobGranted { stolen: true, speculative: false, replica: false }
                .display_name(),
            "steal"
        );
        assert_eq!(
            EventKind::JobGranted { stolen: true, speculative: true, replica: false }
                .display_name(),
            "speculate"
        );
        let replica = EventKind::JobGranted { stolen: true, speculative: false, replica: true };
        assert_eq!(replica.display_name(), "replica");
        assert!(replica.is_noteworthy());
        assert_eq!(EventKind::ReplicaResolved { won: false }.display_name(), "replica-fence");
        assert_eq!(EventKind::LeaseReaped.display_name(), "lease-reap");
    }

    #[test]
    fn a_grant_logged_before_the_replica_flag_existed_reads_as_no_replica() {
        let old = r#"{"at_ns":5,"kind":"job-granted","site":"cloud","chunk":1,"stolen":true,"speculative":false}"#;
        let e = Event::from_json(&Json::parse(old).unwrap()).expect("older JSONL still parses");
        let granted = EventKind::JobGranted { stolen: true, speculative: false, replica: false };
        assert_eq!(e.kind, granted);
    }
}
