//! Causal run analysis: span DAG reconstruction, critical-path extraction,
//! and makespan attribution — the engine behind `cloudburst explain` and
//! `cloudburst bench-diff`.
//!
//! The paper's evaluation reasons about *where the time went* — retrieval
//! vs. processing vs. synchronization stacked bars (Fig. 5-8) — but those
//! are per-site sums, not causes: they cannot say whether a slow run was
//! slow because the WAN was saturated, because workers starved waiting for
//! grants, or because recovery re-executed half the chunks. This module
//! answers that question from the event stream alone:
//!
//! * [`SpanDag`] rebuilds the causal graph from any events JSONL (a real
//!   threaded run, a TCP deployment, or the simulator — they share one
//!   taxonomy): one node per job *execution* (the span ids the head's pool
//!   allocates at grant time), with replica/speculation lineage edges from
//!   each duplicate grant to the execution it raced.
//! * [`analyze`] walks backward from `run-finished` through the critical
//!   chain — the last site to finish, that site's last slave — and
//!   partitions the whole makespan into seven exhaustive categories
//!   ([`Attribution`]): WAN fetch, local fetch, compute, pool wait,
//!   recovery, reduction, and idle. The categories are carved from ordered,
//!   clamped boundaries plus an interval sweep over the critical slave's
//!   lane, so they sum to the makespan *by construction*; the busy segments
//!   of that walk are the critical path, whose length can never exceed the
//!   makespan.
//! * [`diff_benchmarks`] compares two benchmark artifacts leaf-by-leaf and
//!   flags regressions on metrics with a known "better" direction — the
//!   cross-run gate `verify.sh` runs against the committed baseline.
//!
//! One classification rule deserves a callout: a `chunk-fetched` event is
//! counted as **WAN-class** ([`wan_class`]) when it was remote *or* when the
//! fetching site is not the local cluster. In the paper's testbed the cloud site's
//! storage *is* S3 — a cloud worker's "local" read still crosses the S3
//! front-end (30 ms TTFB, shared host cap), which is exactly the cost cloud
//! bursting pays for elasticity. Only campus-cluster reads ride the LAN.

use crate::json::Json;
use crate::telemetry::{ns_to_secs, wan_class, Event, EventKind};
use crate::types::{ChunkId, Seconds, SiteId};
use std::collections::BTreeMap;

/// Parse an events JSONL document (the `--events-out` artifact) into typed
/// events. Lines whose `kind` is unknown are skipped and counted — a reader
/// built against an older taxonomy degrades gracefully — but structurally
/// broken lines are hard errors.
///
/// # Errors
/// Returns `line N: <what>` for unparsable JSON or a malformed event.
pub fn parse_events_jsonl(text: &str) -> Result<(Vec<Event>, usize), String> {
    let mut events = Vec::new();
    let mut skipped = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match Event::from_json(&j) {
            Ok(e) => events.push(e),
            Err(e) if e.starts_with("unknown event kind") => skipped += 1,
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        }
    }
    Ok((events, skipped))
}

/// Result of a delivery-sequence audit ([`check_sequence`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqCheck {
    /// Events carrying a stamped (nonzero) sequence number.
    pub stamped: usize,
    /// The highest sequence number seen (0 when nothing was stamped).
    pub max: u64,
}

/// Audit the per-sink delivery sequence of an event stream.
///
/// [`crate::telemetry::Telemetry::emit`] stamps each delivered event with
/// the next 1-based sequence number, so the stamped values of a complete
/// artifact form exactly `{1..=max}` — as a *set*: racing emitters are
/// stamped before they enqueue, so recorded order may interleave. A gap
/// proves events were dropped between emission and the file; a duplicate
/// proves corruption. Streams with no stamped events (legacy artifacts)
/// pass vacuously with `stamped == 0`.
///
/// # Errors
/// Names the first duplicate or the first missing sequence number.
pub fn check_sequence(events: &[Event]) -> Result<SeqCheck, String> {
    let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).filter(|&s| s > 0).collect();
    if seqs.is_empty() {
        return Ok(SeqCheck { stamped: 0, max: 0 });
    }
    seqs.sort_unstable();
    for w in seqs.windows(2) {
        if w[1] == w[0] {
            return Err(format!("duplicate sequence number {}", w[0]));
        }
    }
    let max = *seqs.last().expect("non-empty");
    if seqs.len() as u64 != max {
        for (expect, &s) in (1u64..).zip(seqs.iter()) {
            if s != expect {
                let missing = s - expect;
                return Err(format!(
                    "sequence gap before {s}: {missing} event{} missing (first is {expect})",
                    if missing == 1 { "" } else { "s" }
                ));
            }
        }
    }
    Ok(SeqCheck { stamped: seqs.len(), max })
}

/// One job execution in the causal graph: everything stamped with one span
/// id, from the head's grant to the final verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanNode {
    /// The span id (allocated by the pool at grant time).
    pub span: u64,
    /// The execution this one was caused by (speculation/replica lineage).
    pub parent: Option<u64>,
    /// The processing site, when any tagged event carried it.
    pub site: Option<SiteId>,
    /// The chunk being executed.
    pub chunk: Option<ChunkId>,
    /// Earliest event timestamp (ns).
    pub first_ns: u64,
    /// Latest event end (ns, span durations included).
    pub last_ns: u64,
    /// Events stamped with this span.
    pub events: u32,
    /// True when this execution's result was accepted for merging.
    pub merged: bool,
}

/// The causal DAG of one run: span-id keyed executions with lineage edges.
#[derive(Debug, Clone, Default)]
pub struct SpanDag {
    /// All tracked executions, keyed by span id.
    pub nodes: BTreeMap<u64, SpanNode>,
}

impl SpanDag {
    /// Reconstruct the DAG from an event stream (events without a span tag
    /// — run-scoped phases, heartbeats, legacy artifacts — are ignored).
    #[must_use]
    pub fn from_events(events: &[Event]) -> SpanDag {
        let mut nodes: BTreeMap<u64, SpanNode> = BTreeMap::new();
        for e in events {
            let Some(span) = e.span else { continue };
            let node = nodes.entry(span).or_insert(SpanNode {
                span,
                parent: None,
                site: None,
                chunk: None,
                first_ns: e.at_ns,
                last_ns: 0,
                events: 0,
                merged: false,
            });
            node.events += 1;
            node.first_ns = node.first_ns.min(e.at_ns);
            node.last_ns = node.last_ns.max(e.at_ns + e.dur_ns);
            if e.parent.is_some() {
                node.parent = e.parent;
            }
            if e.site.is_some() {
                node.site = e.site;
            }
            if e.chunk.is_some() {
                node.chunk = e.chunk;
            }
            if let EventKind::JobCompleted { merged: true, .. } = e.kind {
                node.merged = true;
            }
        }
        SpanDag { nodes }
    }

    /// Number of tracked executions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no event carried a span (untracked/legacy stream).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Executions launched as duplicates of another (speculative copies and
    /// proactive replicas) — the nodes with a lineage edge.
    #[must_use]
    pub fn duplicates(&self) -> usize {
        self.nodes.values().filter(|n| n.parent.is_some()).count()
    }

    /// Longest lineage chain, in nodes (1 = no re-executions anywhere; 0
    /// for an empty DAG). Bounded by the node count, so a malformed parent
    /// cycle cannot hang the walk.
    #[must_use]
    pub fn depth(&self) -> usize {
        let cap = self.nodes.len();
        let mut best = 0usize;
        for node in self.nodes.values() {
            let mut len = 1usize;
            let mut cur = node.parent;
            while let Some(p) = cur {
                if len > cap {
                    break; // cycle guard
                }
                match self.nodes.get(&p) {
                    Some(n) => {
                        len += 1;
                        cur = n.parent;
                    }
                    None => break, // parent outside the recorded window
                }
            }
            best = best.max(len);
        }
        best
    }
}

/// Where the makespan went: seven exhaustive categories that sum to
/// [`Attribution::makespan`] by construction (up to float rounding).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Attribution {
    /// End-to-end run time (seconds) being attributed.
    pub makespan: Seconds,
    /// Critical-lane time retrieving over WAN-class storage (the inter-site
    /// link, or any cloud-site read — cloud storage is S3).
    pub wan_fetch: Seconds,
    /// Critical-lane time retrieving from campus-cluster (LAN) storage.
    pub local_fetch: Seconds,
    /// Critical-lane time inside the reduction processing chunks.
    pub compute: Seconds,
    /// Critical-lane gaps with no fault activity: waiting on grants and the
    /// master RPC (includes pipeline ramp-up).
    pub pool_wait: Seconds,
    /// Critical-lane gaps overlapping fault activity: lease reaps,
    /// evacuations, storage retries, lost speculation — re-execution tax.
    pub recovery: Seconds,
    /// Local site merge plus the global reduction tail.
    pub reduction: Seconds,
    /// Inter-phase slack: the critical worker waiting for the merge, or the
    /// critical site waiting for global reduction to start.
    pub idle: Seconds,
}

impl Attribution {
    /// Total across all categories; equals [`Attribution::makespan`] up to
    /// float rounding.
    #[must_use]
    pub fn total(&self) -> Seconds {
        self.wan_fetch
            + self.local_fetch
            + self.compute
            + self.pool_wait
            + self.recovery
            + self.reduction
            + self.idle
    }

    /// True when the categories account for the makespan within tolerance —
    /// the self-check `cloudburst explain` gates on.
    #[must_use]
    pub fn agrees(&self) -> bool {
        (self.total() - self.makespan).abs() <= self.makespan.abs() * 1e-6 + 1e-9
    }

    /// Every `(category, seconds)` pair, in declaration order.
    #[must_use]
    pub fn parts(&self) -> [(&'static str, Seconds); 7] {
        [
            ("wan_fetch", self.wan_fetch),
            ("local_fetch", self.local_fetch),
            ("compute", self.compute),
            ("pool_wait", self.pool_wait),
            ("recovery", self.recovery),
            ("reduction", self.reduction),
            ("idle", self.idle),
        ]
    }

    /// The largest category — the verdict's headline.
    #[must_use]
    pub fn dominant(&self) -> (&'static str, Seconds) {
        let mut best = ("idle", f64::NEG_INFINITY);
        for (name, secs) in self.parts() {
            if secs > best.1 {
                best = (name, secs);
            }
        }
        best
    }

    /// The machine-readable form (category keys are deliberately not bench
    /// metric names, so `bench-diff` treats them as informational).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj().field("makespan", Json::F64(self.makespan));
        for (name, secs) in self.parts() {
            j = j.field(name, Json::F64(secs));
        }
        j
    }
}

/// One segment of the critical path (seconds, `[start, end)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSegment {
    /// Segment start, seconds since the run epoch.
    pub start: Seconds,
    /// Segment end.
    pub end: Seconds,
    /// Attribution category of the segment (`compute`, `wan_fetch`,
    /// `local_fetch`, or `reduction` — the path keeps busy work only).
    pub category: &'static str,
}

/// Everything `cloudburst explain` reports about one run.
#[derive(Debug, Clone)]
pub struct RunAnalysis {
    /// The makespan attribution.
    pub attribution: Attribution,
    /// The last site to finish — the one the run waited for.
    pub critical_site: Option<SiteId>,
    /// The critical site's last slave to finish.
    pub critical_worker: Option<u32>,
    /// Busy segments of the critical chain, in time order.
    pub critical_path: Vec<PathSegment>,
    /// The reconstructed causal DAG.
    pub dag: SpanDag,
    /// Events analyzed.
    pub events: usize,
}

impl RunAnalysis {
    /// Total busy time on the critical path; provably ≤ the makespan since
    /// the path holds disjoint sub-intervals of `[0, makespan]`.
    #[must_use]
    pub fn critical_path_secs(&self) -> Seconds {
        self.critical_path.iter().map(|s| s.end - s.start).sum()
    }

    /// The machine-readable form (the `--json` artifact of `explain`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let (dominant, dominant_secs) = self.attribution.dominant();
        Json::obj()
            .field("events", Json::U64(self.events as u64))
            .field("attribution", self.attribution.to_json())
            .field("attribution_total", Json::F64(self.attribution.total()))
            .field("dominant", Json::Str(dominant.into()))
            .field("dominant_share", Json::F64(share(dominant_secs, self.attribution.makespan)))
            .field(
                "critical_site",
                self.critical_site.map_or(Json::Null, |s| Json::Str(s.to_string())),
            )
            .field(
                "critical_worker",
                self.critical_worker.map_or(Json::Null, |w| Json::U64(u64::from(w))),
            )
            .field(
                "critical_path",
                Json::obj()
                    .field("segments", Json::U64(self.critical_path.len() as u64))
                    .field("busy", Json::F64(self.critical_path_secs())),
            )
            .field(
                "spans",
                Json::obj()
                    .field("tracked", Json::U64(self.dag.len() as u64))
                    .field("duplicates", Json::U64(self.dag.duplicates() as u64))
                    .field("lineage_depth", Json::U64(self.dag.depth() as u64)),
            )
    }
}

fn share(part: Seconds, whole: Seconds) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// True for kinds that witness fault-path activity; a critical-lane gap
/// containing one is attributed to recovery rather than pool wait.
fn is_fault(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::LeaseReaped
            | EventKind::JobEvacuated
            | EventKind::SiteEvacuated
            | EventKind::LostResult { .. }
            | EventKind::JobFailed
            | EventKind::JobAbandoned
            | EventKind::StorageRetry { .. }
            | EventKind::JobRereduced
            | EventKind::SpeculationResolved { won: false }
            | EventKind::ReplicaResolved { won: false }
            | EventKind::RefetchSaved
    )
}

/// Reconstruct one run from its event stream and attribute the makespan.
///
/// The walk is backward from the end of the run through ordered, clamped
/// boundaries `0 ≤ worker_end ≤ merge_start ≤ site_end ≤ reduction_start ≤
/// makespan`:
///
/// * `[reduction_start, makespan]` — global reduction;
/// * `[site_end, reduction_start]` — idle (the critical site waiting for
///   the phase barrier);
/// * `[merge_start, site_end]` — the site's local merge (reduction);
/// * `[worker_end, merge_start]` — idle (merge waits on other slaves);
/// * `[0, worker_end]` — the critical slave's lane, swept interval by
///   interval: processing wins over fetch when they overlap (pipelining —
///   only *exposed* fetch time is charged), WAN-class fetch over LAN fetch,
///   and uncovered gaps become recovery (fault events inside) or pool wait.
///
/// Because the boundaries are clamped into order and the sweep is
/// exhaustive over the lane, the categories sum to the makespan exactly.
///
/// # Errors
/// Fails on an empty stream — there is nothing to attribute.
pub fn analyze(events: &[Event]) -> Result<RunAnalysis, String> {
    if events.is_empty() {
        return Err("no events to analyze".to_owned());
    }
    let end_ns =
        events.iter().map(|e| e.at_ns + e.dur_ns).max().expect("non-empty stream has a max");
    let makespan_ns = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RunFinished))
        .map(|e| e.at_ns)
        .max()
        .unwrap_or(end_ns);
    let makespan = ns_to_secs(makespan_ns);

    // The latest stamp of the boundary events `of`, clamped into
    // `[0, bound]`; `bound` itself when there is none.
    let latest = |of: &dyn Fn(&&Event) -> bool, bound: f64| {
        let at = events.iter().filter(of).map(|e| ns_to_secs(e.at_ns)).reduce(f64::max);
        at.map_or(bound, |at| at.clamp(0.0, bound))
    };
    let reduction_start = latest(&|e| matches!(e.kind, EventKind::GlobalReduction), makespan);

    // The critical site: the one whose completion the run waited for.
    let critical_site = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SiteFinished))
        .max_by_key(|e| e.at_ns)
        .and_then(|e| e.site);
    let at_crit_site = |e: &&Event| critical_site.is_none() || e.site == critical_site;
    let site_end =
        latest(&|e| matches!(e.kind, EventKind::SiteFinished) && at_crit_site(e), reduction_start);
    let merge_start =
        latest(&|e| matches!(e.kind, EventKind::SiteMerged) && at_crit_site(e), site_end);

    // The critical slave: the last one to finish at the critical site.
    let critical_finish = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SlaveFinished))
        .filter(at_crit_site)
        .max_by_key(|e| e.at_ns);
    let critical_worker = critical_finish.and_then(|e| e.worker);
    let worker_end =
        critical_finish.map_or(merge_start, |e| ns_to_secs(e.at_ns)).clamp(0.0, merge_start);

    // ---- The critical slave's lane: an exhaustive interval sweep. ----
    // Priorities: compute(0) wins over exposed WAN fetch(1) over LAN
    // fetch(2); the numbering doubles as the sweep's tie-break.
    let on_lane = |e: &&Event| {
        (critical_site.is_none() || e.site == critical_site)
            && (critical_worker.is_none() || e.worker == critical_worker)
    };
    let mut lane: Vec<(f64, f64, u8)> = Vec::new();
    for e in events.iter().filter(on_lane) {
        let prio = match e.kind {
            EventKind::JobProcessed => 0,
            // Cloud-site storage is S3: every cloud read is WAN-class even
            // when it never crossed the inter-site link (module docs).
            EventKind::ChunkFetched { remote, .. } => {
                if wan_class(e.site, remote) {
                    1
                } else {
                    2
                }
            }
            _ => continue,
        };
        let start = ns_to_secs(e.at_ns).max(0.0);
        let end = ns_to_secs(e.at_ns + e.dur_ns).min(worker_end);
        if end > start {
            lane.push((start, end, prio));
        }
    }
    let mut faults: Vec<f64> =
        events.iter().filter(|e| is_fault(e.kind)).map(|e| ns_to_secs(e.at_ns)).collect();
    faults.sort_unstable_by(f64::total_cmp);
    let fault_within = |a: f64, b: f64| {
        let from = faults.partition_point(|&t| t < a);
        faults.get(from).is_some_and(|&t| t <= b)
    };

    let mut cuts: Vec<f64> = vec![0.0, worker_end];
    for &(s, e, _) in &lane {
        cuts.push(s);
        cuts.push(e);
    }
    cuts.sort_unstable_by(f64::total_cmp);
    cuts.dedup();

    let mut attribution = Attribution { makespan, ..Attribution::default() };
    let mut path: Vec<PathSegment> = Vec::new();
    let push_segment = |path: &mut Vec<PathSegment>, start: f64, end: f64, cat| {
        // Coalesce with the previous segment when the category continues.
        if let Some(last) = path.last_mut() {
            if last.category == cat && (start - last.end).abs() <= 1e-12 {
                last.end = end;
                return;
            }
        }
        path.push(PathSegment { start, end, category: cat });
    };
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        if b <= a || a >= worker_end {
            continue;
        }
        let mid = 0.5 * (a + b);
        let covering =
            lane.iter().filter(|&&(s, e, _)| s <= mid && mid < e).map(|&(_, _, p)| p).min();
        let len = b - a;
        match covering {
            Some(0) => {
                attribution.compute += len;
                push_segment(&mut path, a, b, "compute");
            }
            Some(1) => {
                attribution.wan_fetch += len;
                push_segment(&mut path, a, b, "wan_fetch");
            }
            Some(_) => {
                attribution.local_fetch += len;
                push_segment(&mut path, a, b, "local_fetch");
            }
            None if fault_within(a, b) => attribution.recovery += len,
            None => attribution.pool_wait += len,
        }
    }

    // ---- The phase boundaries above the lane. ----
    attribution.idle += merge_start - worker_end;
    attribution.reduction += site_end - merge_start;
    if site_end > merge_start {
        push_segment(&mut path, merge_start, site_end, "reduction");
    }
    attribution.idle += reduction_start - site_end;
    attribution.reduction += makespan - reduction_start;
    if makespan > reduction_start {
        push_segment(&mut path, reduction_start, makespan, "reduction");
    }

    Ok(RunAnalysis {
        attribution,
        critical_site,
        critical_worker,
        critical_path: path,
        dag: SpanDag::from_events(events),
        events: events.len(),
    })
}

/// Whether a smaller or larger value of a benchmark leaf is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Latencies, runtimes, overhead ratios: smaller is better.
    LowerBetter,
    /// Speedups: larger is better.
    HigherBetter,
    /// Descriptive values (counts, configuration): never gated.
    Neutral,
}

/// The direction of one leaf, decided by the *last* key on its path, so
/// nested shapes like `fetch_seconds.p99` or `depths[0].seconds` gate on
/// the leaf metric, not the grouping.
fn direction_of(key: &str) -> Direction {
    match key {
        "seconds" | "p50" | "p95" | "p99" | "metrics_overhead" => Direction::LowerBetter,
        "speedup" => Direction::HigherBetter,
        _ => Direction::Neutral,
    }
}

/// One numeric leaf present in both benchmark artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDelta {
    /// Dotted/indexed path of the leaf (e.g. `depths[0].seconds`).
    pub path: String,
    /// The baseline value.
    pub old: f64,
    /// The candidate value.
    pub new: f64,
    /// Whether smaller or larger is better here.
    pub direction: Direction,
}

impl BenchDelta {
    /// Fractional change relative to the baseline (`0.1` = +10%); ±∞ when
    /// the baseline is zero and the candidate is not.
    #[must_use]
    pub fn change(&self) -> f64 {
        if self.old == 0.0 {
            if self.new == 0.0 {
                0.0
            } else {
                f64::INFINITY * self.new.signum()
            }
        } else {
            (self.new - self.old) / self.old.abs()
        }
    }

    /// True when the leaf moved in its "worse" direction by more than
    /// `threshold` (fractional: `0.1` = 10%).
    #[must_use]
    pub fn is_regression(&self, threshold: f64) -> bool {
        match self.direction {
            Direction::LowerBetter => self.change() > threshold,
            Direction::HigherBetter => self.change() < -threshold,
            Direction::Neutral => false,
        }
    }

    /// The effective regression threshold for this leaf, given the
    /// caller's base threshold. Histogram-derived quantile leaves
    /// (`p50`/`p95`/`p99`) are quantized to ~7–10%-wide buckets and sample
    /// real per-chunk scheduling tails, so a one-bucket move is
    /// measurement granularity rather than a regression: they gate at no
    /// less than 25% (two-plus buckets). Every other leaf gates at the
    /// base threshold.
    #[must_use]
    pub fn gate_threshold(&self, base: f64) -> f64 {
        let leaf = self.path.rsplit('.').next().unwrap_or("");
        if matches!(leaf, "p50" | "p95" | "p99") {
            base.max(0.25)
        } else {
            base
        }
    }
}

/// Compare two benchmark artifacts leaf-by-leaf. Only numeric leaves
/// reachable in **both** documents are compared (a renamed or added metric
/// is not a regression); array elements pair by index. The caller filters
/// with [`BenchDelta::is_regression`].
#[must_use]
pub fn diff_benchmarks(old: &Json, new: &Json) -> Vec<BenchDelta> {
    fn walk(old: &Json, new: &Json, path: &str, key: &str, out: &mut Vec<BenchDelta>) {
        match (old, new) {
            (Json::Obj(fields), Json::Obj(_)) => {
                for (k, ov) in fields {
                    if let Some(nv) = new.get(k) {
                        let sub = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                        walk(ov, nv, &sub, k, out);
                    }
                }
            }
            (Json::Arr(o), Json::Arr(n)) => {
                for (i, (ov, nv)) in o.iter().zip(n.iter()).enumerate() {
                    walk(ov, nv, &format!("{path}[{i}]"), key, out);
                }
            }
            _ => {
                if let (Some(a), Some(b)) = (old.as_f64(), new.as_f64()) {
                    out.push(BenchDelta {
                        path: path.to_owned(),
                        old: a,
                        new: b,
                        direction: direction_of(key),
                    });
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(old, new, "", "", &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::secs_to_ns;

    /// A two-site run shaped like the paper's: cloud is the critical site
    /// (its reads are S3 = WAN-class), one slave per site, a local merge
    /// and a global reduction tail.
    fn sample_run() -> Vec<Event> {
        let s = secs_to_ns;
        let cloud = SiteId::CLOUD;
        let local = SiteId::LOCAL;
        let tag =
            |e: Event, site, w, c, span| e.site(site).worker(w).chunk(ChunkId(c)).span_id(span);
        vec![
            // Local worker: one LAN fetch + compute, finishes early.
            tag(
                Event::span(
                    s(0.1),
                    s(0.2),
                    EventKind::ChunkFetched { bytes: 64, remote: false, retries: 0 },
                ),
                local,
                0,
                0,
                1,
            ),
            tag(Event::span(s(0.3), s(0.5), EventKind::JobProcessed), local, 0, 0, 1),
            Event::at(s(0.8), EventKind::SlaveFinished).site(local).worker(0),
            Event::span(s(0.8), s(0.1), EventKind::SiteMerged).site(local),
            Event::at(s(0.9), EventKind::SiteFinished).site(local),
            // Cloud worker: startup wait, S3 fetch, compute, a recovery
            // stall (lease reap lands inside it), then a second chunk.
            tag(
                Event::span(
                    s(0.5),
                    s(1.0),
                    EventKind::ChunkFetched { bytes: 64, remote: false, retries: 0 },
                ),
                cloud,
                0,
                1,
                2,
            ),
            tag(Event::span(s(1.5), s(0.5), EventKind::JobProcessed), cloud, 0, 1, 2),
            Event::at(s(2.2), EventKind::LeaseReaped).site(cloud).chunk(ChunkId(2)).span_id(3),
            tag(
                Event::span(
                    s(2.5),
                    s(0.5),
                    EventKind::ChunkFetched { bytes: 64, remote: true, retries: 0 },
                ),
                cloud,
                0,
                2,
                4,
            ),
            tag(Event::span(s(3.0), s(0.5), EventKind::JobProcessed), cloud, 0, 2, 4),
            Event::at(s(3.5), EventKind::SlaveFinished).site(cloud).worker(0),
            Event::span(s(3.6), s(0.2), EventKind::SiteMerged).site(cloud),
            Event::at(s(3.8), EventKind::SiteFinished).site(cloud),
            Event::span(s(3.8), s(0.2), EventKind::GlobalReduction),
            Event::at(s(4.0), EventKind::RunFinished),
        ]
    }

    #[test]
    fn attribution_sums_to_makespan_and_finds_the_critical_chain() {
        let run = analyze(&sample_run()).unwrap();
        let a = run.attribution;
        assert!((a.makespan - 4.0).abs() < 1e-9);
        assert!(a.agrees(), "total {} vs makespan {}", a.total(), a.makespan);
        assert_eq!(run.critical_site, Some(SiteId::CLOUD));
        assert_eq!(run.critical_worker, Some(0));
        // Lane arithmetic: 0.5 pool wait (no faults before the first
        // fetch), 1.5 WAN-class fetch (both cloud reads), 1.0 compute,
        // 0.5 recovery (the reap lands inside the [2.0, 2.5] gap), then
        // 0.1 idle until the merge, 0.2 local merge, 0.2 global reduction.
        assert!((a.pool_wait - 0.5).abs() < 1e-9, "pool_wait {}", a.pool_wait);
        assert!((a.wan_fetch - 1.5).abs() < 1e-9, "wan_fetch {}", a.wan_fetch);
        assert!((a.compute - 1.0).abs() < 1e-9, "compute {}", a.compute);
        assert!((a.recovery - 0.5).abs() < 1e-9, "recovery {}", a.recovery);
        assert!((a.idle - 0.1).abs() < 1e-9, "idle {}", a.idle);
        assert!((a.reduction - 0.4).abs() < 1e-9, "reduction {}", a.reduction);
        assert_eq!(a.local_fetch, 0.0, "cloud reads are never LAN-class");
        assert_eq!(a.dominant().0, "wan_fetch");
        // The critical path is busy time only, so it can't exceed the
        // makespan; here it excludes exactly the waits (0.5 + 0.5 + 0.1).
        assert!(run.critical_path_secs() <= a.makespan);
        assert!((run.critical_path_secs() - 2.9).abs() < 1e-9);
        assert!(run.critical_path.windows(2).all(|w| w[0].end <= w[1].start + 1e-12));
    }

    #[test]
    fn a_run_without_merge_or_reduction_events_spends_nothing_reducing() {
        // One cloud fetch, then the slave, its site and the run finish: no
        // `local-merge` and no `global-reduction` event to bound anything by.
        let s = secs_to_ns;
        let fetch = EventKind::ChunkFetched { bytes: 64, remote: false, retries: 0 };
        let cloud = |e: Event| e.site(SiteId::CLOUD);
        let events = [
            cloud(Event::span(s(0.0), s(1.0), fetch)).worker(0).chunk(ChunkId(0)),
            cloud(Event::at(s(1.0), EventKind::SlaveFinished)).worker(0),
            cloud(Event::at(s(1.0), EventKind::SiteFinished)),
            Event::at(s(1.0), EventKind::RunFinished),
        ];
        let a = analyze(&events).unwrap().attribution;
        assert!(a.agrees(), "total {} vs makespan {}", a.total(), a.makespan);
        assert_eq!(a.reduction, 0.0, "{a:?}");
        assert!((a.wan_fetch - 1.0).abs() < 1e-9, "{a:?}");
    }

    #[test]
    fn dag_reconstructs_lineage() {
        let mut events = sample_run();
        // A speculative copy of span 2, granted as its child.
        events.push(
            Event::at(
                secs_to_ns(2.0),
                EventKind::JobGranted { stolen: true, speculative: true, replica: false },
            )
            .site(SiteId::LOCAL)
            .chunk(ChunkId(1))
            .span_id(9)
            .cause(2),
        );
        let dag = SpanDag::from_events(&events);
        assert_eq!(dag.len(), 5, "spans 1,2,3,4,9");
        assert_eq!(dag.duplicates(), 1);
        assert_eq!(dag.depth(), 2, "9 -> 2");
        assert_eq!(dag.nodes[&9].parent, Some(2));
        assert_eq!(dag.nodes[&9].chunk, Some(ChunkId(1)));
        assert!(!dag.nodes[&9].merged);
    }

    #[test]
    fn analyze_handles_empty_and_reduction_only_streams() {
        assert!(analyze(&[]).is_err());
        // A stream with no worker events at all still attributes cleanly.
        let events = vec![
            Event::span(0, secs_to_ns(1.0), EventKind::GlobalReduction),
            Event::at(secs_to_ns(1.0), EventKind::RunFinished),
        ];
        let run = analyze(&events).unwrap();
        assert!(run.attribution.agrees());
        assert!((run.attribution.reduction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn jsonl_parse_skips_unknown_kinds_but_rejects_garbage() {
        let text =
            "\n{\"at_ns\":5,\"kind\":\"heartbeat\"}\n{\"at_ns\":6,\"kind\":\"quantum-leap\"}\n";
        let (events, skipped) = parse_events_jsonl(text).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(skipped, 1);
        assert!(parse_events_jsonl("not json\n").unwrap_err().contains("line 1"));
        assert!(parse_events_jsonl("{\"kind\":\"heartbeat\"}\n").unwrap_err().contains("at_ns"));
    }

    #[test]
    fn sequence_audit_finds_gaps_and_duplicates() {
        let ev = |seq| {
            let mut e = Event::at(1, EventKind::Heartbeat);
            e.seq = seq;
            e
        };
        // Unstamped stream: passes vacuously.
        let ok = check_sequence(&[ev(0), ev(0)]).unwrap();
        assert_eq!(ok, SeqCheck { stamped: 0, max: 0 });
        // Complete but out of recorded order: the *set* is what matters.
        let ok = check_sequence(&[ev(2), ev(1), ev(3)]).unwrap();
        assert_eq!(ok, SeqCheck { stamped: 3, max: 3 });
        assert!(check_sequence(&[ev(1), ev(3)]).unwrap_err().contains("gap"));
        assert!(check_sequence(&[ev(1), ev(1)]).unwrap_err().contains("duplicate"));
        assert!(check_sequence(&[ev(2), ev(3)]).unwrap_err().contains("gap"));
    }

    fn bench_doc(seconds: f64, speedup: f64) -> Json {
        Json::obj()
            .field("chunks", Json::U64(48))
            .field(
                "depths",
                Json::Arr(vec![Json::obj()
                    .field("depth", Json::U64(1))
                    .field("seconds", Json::F64(seconds))]),
            )
            .field("speedup", Json::F64(speedup))
            .field("fetch_seconds", Json::obj().field("p99", Json::F64(0.01)))
    }

    #[test]
    fn bench_diff_flags_regressions_in_both_directions() {
        let base = bench_doc(1.0, 1.4);
        // 20% slower and a speedup collapse: two regressions at 10%.
        let worse = bench_doc(1.2, 1.1);
        let deltas = diff_benchmarks(&base, &worse);
        let regressions: Vec<&BenchDelta> =
            deltas.iter().filter(|d| d.is_regression(0.10)).collect();
        assert_eq!(regressions.len(), 2);
        assert_eq!(regressions[0].path, "depths[0].seconds");
        assert!((regressions[0].change() - 0.2).abs() < 1e-9);
        assert_eq!(regressions[1].path, "speedup");
        // Improvements and within-threshold noise pass.
        let better = bench_doc(0.9, 1.5);
        assert!(diff_benchmarks(&base, &better).iter().all(|d| !d.is_regression(0.10)));
        let noise = bench_doc(1.05, 1.4);
        assert!(diff_benchmarks(&base, &noise).iter().all(|d| !d.is_regression(0.10)));
        // Neutral keys (counts) never gate, even when they change wildly.
        let mut counted = bench_doc(1.0, 1.4);
        if let Json::Obj(fields) = &mut counted {
            fields[0].1 = Json::U64(9000);
        }
        assert!(diff_benchmarks(&base, &counted).iter().all(|d| !d.is_regression(0.10)));
        // A leaf missing from one side is not compared at all.
        let partial = Json::obj().field("speedup", Json::F64(1.4));
        assert_eq!(diff_benchmarks(&base, &partial).len(), 1);
    }

    #[test]
    fn quantile_leaves_gate_at_a_bucket_aware_threshold() {
        // A one-bucket (~10%) move on a histogram quantile is measurement
        // granularity; the widened gate only trips past two-plus buckets.
        let q = BenchDelta {
            path: "process_seconds.p99".into(),
            old: 0.00944,
            new: 0.01153,
            direction: Direction::LowerBetter,
        };
        assert_eq!(q.gate_threshold(0.10), 0.25);
        assert!(q.is_regression(0.10), "raw 10% would flag the bucket move");
        assert!(!q.is_regression(q.gate_threshold(0.10)), "bucket-aware gate must not");
        let big = BenchDelta { new: 0.00944 * 1.4, ..q.clone() };
        assert!(big.is_regression(big.gate_threshold(0.10)), "a 40% move is a real regression");
        // Non-quantile leaves keep the caller's threshold.
        let s = BenchDelta {
            path: "depths[0].seconds".into(),
            old: 1.0,
            new: 1.2,
            direction: Direction::LowerBetter,
        };
        assert_eq!(s.gate_threshold(0.10), 0.10);
        // A base threshold looser than the bucket floor wins.
        assert_eq!(q.gate_threshold(0.5), 0.5);
    }

    #[test]
    fn bench_delta_change_handles_zero_baselines() {
        let d =
            BenchDelta { path: "x".into(), old: 0.0, new: 0.0, direction: Direction::LowerBetter };
        assert_eq!(d.change(), 0.0);
        assert!(!d.is_regression(0.1));
        let d = BenchDelta { new: 1.0, ..d };
        assert!(d.change().is_infinite());
        assert!(d.is_regression(0.1));
    }
}
