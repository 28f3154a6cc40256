//! The global job pool and the head node's assignment policy (paper §III-B).
//!
//! One job corresponds to one chunk. Masters request *batches* of jobs on
//! demand; the head grants:
//!
//! 1. **Local jobs first** — a group of *consecutive* jobs from a file hosted
//!    at the requesting site, "because it allows the compute units to
//!    sequentially read jobs from the files".
//! 2. **Remote jobs ("job stealing") once local jobs are exhausted** — chosen
//!    "from files which the minimum number of nodes are currently
//!    processing", minimizing file contention between clusters.
//!
//! On top of assignment the pool owns the fault-tolerance state machine:
//!
//! * every grant is a **lease** — when [`LeaseConfig`] is enabled the job
//!   carries a deadline sized from the site's observed job duration, and
//!   [`JobPool::reap_expired`] reclaims silent jobs for reassignment;
//! * a job may have up to two **concurrent assignees** (the original plus a
//!   speculative re-execution of a tail straggler); the first completion
//!   wins and [`Completion`] tells the caller which executions to cancel;
//! * duplicate, late and zombie completions are **deduplicated** so each
//!   chunk merges into the global reduction object *exactly once*;
//! * [`JobPool::evacuate`] handles whole-site death (spot revocation): it
//!   revokes the site's in-flight jobs *and* re-queues the jobs whose
//!   results died in the site's unreduced robj.
//!
//! The pool is pure single-threaded logic with one sized grant,
//! [`JobPool::grant`]: the head's sans-IO core owns it by value on the
//! channel and the TCP transport alike and in the discrete-event simulator,
//! so every runtime executes the *same* policy.

use crate::fault::{AbandonedJob, FaultCounters, LeaseConfig};
use crate::index::DataIndex;
use crate::layout::ChunkMeta;
use crate::telemetry::{secs_to_ns, Event, EventKind, PoolTally, Telemetry};
use crate::types::{ChunkId, FileId, SiteId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Largest batch ever granted for cross-site (stolen) jobs.
pub const STEAL_BATCH_MAX: usize = 2;

/// Most concurrent executions of one job (original + one speculative copy).
pub const MAX_ASSIGNEES: usize = 2;

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Pending,
    /// One or more sites hold a lease on the job (see [`Leases`]).
    Assigned,
    Done(SiteId),
    /// Permanently given up after exhausting retry attempts.
    Abandoned,
}

/// One live lease on a job.
#[derive(Debug, Clone, Copy)]
struct Assignee {
    site: SiteId,
    /// Pool-clock time of the grant (for straggler ordering).
    assigned_at: f64,
    /// Pool-clock time after which the lease may be reaped.
    deadline: f64,
    /// True for a speculative copy of an in-flight straggler (win/loss
    /// accounting needs to know which execution was the gamble).
    speculative: bool,
    /// True for a proactive replica granted under coded redundancy
    /// (`r > 1`); the first completed copy fences its siblings.
    replica: bool,
    /// Causal span id allocated at grant time; every telemetry event of
    /// this execution — on the head *and*, via [`JobBatch::spans`], on the
    /// processing site — carries it.
    span: u64,
}

/// The live leases on every job, in grant order: the one a job nearly always
/// has in a slab of live leases, found by a four-byte slot per job, and its
/// rare siblings — speculative copies and replicas — out of line, so a grant
/// allocates nothing and a job costs the table four bytes. A job with no
/// first lease has none.
#[derive(Debug, Clone)]
struct Leases {
    /// Per job, the slot of its oldest lease in `slab`, or [`Leases::NONE`].
    first: Vec<u32>,
    /// The first leases, and the free slots among them.
    slab: Vec<Assignee>,
    free: Vec<u32>,
    more: BTreeMap<usize, Vec<Assignee>>,
}

impl Leases {
    const NONE: u32 = u32::MAX;

    /// No lease on any of `n` jobs.
    fn new(n: usize) -> Leases {
        Leases {
            first: vec![Leases::NONE; n],
            slab: Vec::new(),
            free: Vec::new(),
            more: BTreeMap::new(),
        }
    }

    /// Job `i`'s leases, oldest first.
    fn of(&self, i: usize) -> impl Iterator<Item = &Assignee> {
        self.first(i).into_iter().chain(self.more.get(&i).into_iter().flatten())
    }

    /// Job `i`'s oldest lease.
    fn first(&self, i: usize) -> Option<&Assignee> {
        self.slab.get(self.first[i] as usize)
    }

    fn is_empty(&self, i: usize) -> bool {
        self.first[i] == Leases::NONE
    }

    fn count(&self, i: usize) -> usize {
        usize::from(!self.is_empty(i)) + self.more.get(&i).map_or(0, Vec::len)
    }

    fn push(&mut self, i: usize, lease: Assignee) {
        if !self.is_empty(i) {
            self.more.entry(i).or_default().push(lease);
        } else if let Some(slot) = self.free.pop() {
            self.slab[slot as usize] = lease;
            self.first[i] = slot;
        } else {
            self.first[i] = u32::try_from(self.slab.len()).expect("fewer live leases than u32");
            self.slab.push(lease);
        }
    }

    /// Take `site`'s lease on job `i` off, the rest staying in grant order;
    /// `None` when `site` held none.
    fn remove(&mut self, i: usize, site: SiteId) -> Option<Assignee> {
        let first = self.first(i).copied();
        let more = self.more.get_mut(&i);
        let released = match first {
            Some(first) if first.site == site => {
                let slot = self.first[i];
                match more.map(|more| more.remove(0)) {
                    Some(next) => self.slab[slot as usize] = next,
                    None => {
                        self.free.push(slot);
                        self.first[i] = Leases::NONE;
                    }
                }
                first
            }
            _ => {
                let more = more?;
                let pos = more.iter().position(|a| a.site == site)?;
                more.remove(pos)
            }
        };
        if self.more.get(&i).is_some_and(Vec::is_empty) {
            self.more.remove(&i);
        }
        Some(released)
    }
}

/// What happened to a completion report — the dedup verdict.
///
/// The runtimes acknowledge completions with this, and only `Merged`
/// completions may fold a worker's open result into its site robj; that
/// is what makes "each chunk reduced exactly once" hold under retries,
/// speculation and evacuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completion {
    /// First completion of the chunk: the result must be merged. Any other
    /// site listed in `preempted` held a now-revoked lease on the same job
    /// and should abort its redundant execution.
    Merged {
        /// Sites whose concurrent executions of this job just lost the race.
        preempted: Vec<SiteId>,
    },
    /// The chunk was already merged (or the reporter was already declared
    /// dead); the result must be discarded.
    Duplicate,
}

impl Completion {
    /// True when the result was accepted for merging.
    #[must_use]
    pub fn is_merged(&self) -> bool {
        matches!(self, Completion::Merged { .. })
    }
}

/// A batch of jobs granted to one site.
#[derive(Debug, Clone, PartialEq)]
pub struct JobBatch {
    /// Chunks to process, in physical (sequential-read) order.
    pub jobs: Vec<ChunkMeta>,
    /// Causal span id per granted job, parallel to `jobs` (0 = untracked).
    /// Allocated by the pool at grant time and propagated — across the TCP
    /// wire included — so the slave-side events of an execution join the
    /// head-side grant/completion events in one DAG.
    pub spans: Vec<u64>,
    /// True when the jobs' home site differs from the processing site.
    pub stolen: bool,
    /// True when the head guarantees no further work will ever appear:
    /// every job is finished or permanently abandoned. An empty,
    /// *non*-terminal batch means "nothing right now, but in-flight jobs
    /// could still fail and be requeued — poll again".
    pub terminal: bool,
}

impl JobBatch {
    /// An empty batch with the given terminal flag.
    #[must_use]
    pub fn empty(terminal: bool) -> JobBatch {
        JobBatch { jobs: Vec::new(), spans: Vec::new(), stolen: false, terminal }
    }

    /// The span granted for `jobs[i]`, 0 when the batch predates tracking
    /// (hand-built in tests, or decoded from an older peer).
    #[must_use]
    pub fn span_of(&self, i: usize) -> u64 {
        self.spans.get(i).copied().unwrap_or(0)
    }
}

impl JobBatch {
    /// True when the batch grants no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Number of jobs granted.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }
}

/// How many jobs a simulated master asks for, by the pool's backlog.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BatchPolicy {
    /// Always grant up to `n` jobs.
    Fixed(usize),
    /// Grant `pending / (divisor)` jobs, clamped to `[min, max]`. Large
    /// batches early (sequential reads, low control traffic), small batches
    /// near the end (fine-grained balancing, bounded idle tail).
    Adaptive {
        /// Pending-count divisor.
        divisor: usize,
        /// Smallest batch ever granted.
        min: usize,
        /// Largest batch ever granted.
        max: usize,
    },
}

impl BatchPolicy {
    /// Paper-like default: adaptive with a tail of single jobs.
    #[must_use]
    pub fn default_adaptive(n_sites: usize) -> BatchPolicy {
        BatchPolicy::Adaptive { divisor: 4 * n_sites.max(1), min: 1, max: 8 }
    }

    /// Number of jobs to grant given the current pending count.
    #[must_use]
    pub fn batch_size(&self, pending: usize) -> usize {
        match *self {
            BatchPolicy::Fixed(n) => n.max(1),
            BatchPolicy::Adaptive { divisor, min, max } => {
                (pending / divisor.max(1)).clamp(min.max(1), max.max(1))
            }
        }
    }
}

/// Per-site bookkeeping the pool maintains for reporting (Table I).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteJobCounts {
    /// Jobs this site processed whose data was hosted at the site.
    pub local: u64,
    /// Jobs this site processed whose data had to be fetched remotely.
    pub stolen: u64,
}

impl SiteJobCounts {
    /// Total jobs this site processed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.local + self.stolen
    }
}

/// The head node's global job pool.
#[derive(Debug, Clone)]
pub struct JobPool {
    chunks: Vec<ChunkMeta>,
    state: Vec<JobState>,
    /// Live leases per job (at most [`MAX_ASSIGNEES`], or the replication
    /// factor).
    assignees: Leases,
    /// Sites whose lease on a job was revoked (failed, reaped or evacuated)
    /// — their eventual reports are stale, not protocol errors — for the
    /// few jobs that have any.
    past: BTreeMap<usize, Vec<SiteId>>,
    /// Pending chunks per file, front = lowest id (physical order).
    pending_by_file: Vec<VecDeque<ChunkId>>,
    file_site: Vec<SiteId>,
    /// Jobs from each file currently assigned (in flight). This is the
    /// "number of nodes currently processing" signal of the heuristic.
    readers: Vec<u32>,
    pending_total: usize,
    /// Estimated end-to-end cost (seconds) for each site to process one
    /// *stolen* job: remote retrieval plus processing. Zero disables the
    /// rate-aware steal condition for that site.
    steal_cost: BTreeMap<SiteId, f64>,
    /// Latest timestamp observed from callers (seconds since run start).
    now: f64,
    /// Per-job processing attempts (for fault-tolerant requeueing).
    attempts: Vec<u8>,
    /// Attempts after which a failing job is abandoned.
    max_attempts: u8,
    /// Jobs currently assigned to each processing site, by site index
    /// (counted a grant at a time).
    assigned_to: Vec<usize>,
    /// Lease sizing; `None` disables deadlines (infinite leases).
    lease: Option<LeaseConfig>,
    /// Whether tail stragglers may be speculatively re-executed.
    speculate: bool,
    /// Coded-redundancy replication factor; 1 (the default) disables
    /// proactive replica grants and is bit-exact with the classic pool.
    redundancy: u32,
    /// Exponentially-weighted mean job duration per site, by site index:
    /// lease sizing is its only reader, so it is fed only while leases are on.
    ewma_dur: Vec<Option<f64>>,
    /// Sites declared dead and evacuated.
    dead_sites: BTreeSet<SiteId>,
    /// Next causal span id to allocate (1-based; 0 means "no span").
    next_span: u64,
    /// The pool's one ledger: fault counters, per-site job counts (Table I)
    /// and per-site rows, folded from every event [`JobPool::note`] states.
    /// The run report and the live scrape are both read off it.
    pub(crate) tally: PoolTally,
    /// Telemetry sink: every grant, completion verdict, reap, evacuation and
    /// abandonment is emitted here, stamped with the pool clock. Disabled by
    /// default (a single branch per would-be event).
    sink: Telemetry,
}

impl JobPool {
    /// Build the pool from a data index ("the head node ... reads the index
    /// file in order to generate the job pool").
    /// A grant holds what its request asks for, so `_batch_policy` is read
    /// by nothing: `ladder/src/api.rs` pins it (ROADMAP item 1 drops it).
    #[must_use]
    pub fn from_index(index: &DataIndex, _batch_policy: BatchPolicy) -> JobPool {
        let n_files = index.files.len();
        let mut pending_by_file = vec![VecDeque::new(); n_files];
        for c in &index.chunks {
            pending_by_file[c.file.0 as usize].push_back(c.id);
        }
        let n = index.chunks.len();
        JobPool {
            chunks: index.chunks.clone(),
            state: vec![JobState::Pending; n],
            assignees: Leases::new(n),
            past: BTreeMap::new(),
            pending_by_file,
            file_site: index.files.iter().map(|f| f.site).collect(),
            readers: vec![0; n_files],
            pending_total: n,
            steal_cost: BTreeMap::new(),
            now: 0.0,
            attempts: vec![0; n],
            max_attempts: 3,
            assigned_to: Vec::new(),
            lease: None,
            speculate: false,
            redundancy: 1,
            ewma_dur: Vec::new(),
            dead_sites: BTreeSet::new(),
            next_span: 1,
            tally: PoolTally {
                homes: index.chunks.iter().map(|c| c.site).collect(),
                ..PoolTally::default()
            },
            sink: Telemetry::off(),
        }
    }

    /// Attach a telemetry sink: pool-side events (grants, steals,
    /// speculative launches, completion verdicts, reaps, evacuations,
    /// abandonments) are emitted to it, timestamped with the pool clock.
    /// Because all three runtimes — channel, TCP, and the discrete-event
    /// simulator — drive this same pool, one sink covers them all.
    pub fn set_sink(&mut self, sink: Telemetry) {
        self.sink = sink;
    }

    /// A pool event at the pool clock.
    #[inline]
    fn event(&self, kind: EventKind) -> Event {
        Event::at(secs_to_ns(self.now), kind)
    }

    /// A pool event about job `i` at `site`, on the execution `span` when the
    /// fact is about one in particular (0 otherwise).
    #[inline]
    fn job_event(&self, kind: EventKind, i: usize, site: SiteId, span: u64) -> Event {
        self.event(kind).site(site).chunk(self.chunks[i].id).span_id(span)
    }

    /// State one fact — the only way the pool states any: the event is
    /// folded into the tally and emitted to the sink.
    #[inline(always)]
    fn note(&mut self, e: Event) {
        self.tally.apply(&e);
        self.sink.emit(e);
    }

    /// Set how many processing attempts a job gets before being abandoned
    /// (default 3; minimum 1).
    pub fn set_max_attempts(&mut self, n: u8) {
        self.max_attempts = n.max(1);
    }

    /// Enable job leases: grants carry deadlines sized by `config` and
    /// [`JobPool::reap_expired`] reclaims expired ones.
    pub fn set_lease(&mut self, config: LeaseConfig) {
        self.lease = Some(config);
    }

    /// Enable or disable speculative re-execution of tail stragglers.
    pub fn set_speculation(&mut self, on: bool) {
        self.speculate = on;
    }

    /// Set the coded-redundancy replication factor. With `r > 1` an idle
    /// site may be granted a proactive *replica* of an in-flight job it
    /// holds data for; the first completed copy is merged and fences its
    /// siblings through the exactly-once dedup path. `r <= 1` (the
    /// default) leaves the pool bit-exact with the classic behavior.
    pub fn set_redundancy(&mut self, r: u32) {
        self.redundancy = r.max(1);
    }

    /// Enable rate-aware stealing for `site` (paper abstract: "Our
    /// middleware considers the rate of processing together with
    /// distribution of data to decide on the optimal processing of data").
    ///
    /// `cost` is the estimated end-to-end seconds for `site` to fetch and
    /// process one stolen job. A steal is granted only while the data-local
    /// site's backlog would take longer than `cost` to drain at its observed
    /// processing rate — otherwise stealing a tail job over the slow
    /// inter-site path finishes *later* than simply letting the owner drain.
    pub fn set_steal_cost(&mut self, site: SiteId, cost: f64) {
        self.steal_cost.insert(site, cost);
    }

    /// Jobs not yet assigned.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending_total
    }

    /// Jobs fully processed: merged, and not lost with a site's robj since.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.tally.sites.iter().map(|r| r.jobs().total() as usize).sum()
    }

    /// True when every job has been processed or permanently abandoned.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.completed() + self.abandoned() == self.chunks.len()
    }

    /// Jobs currently assigned but neither completed nor failed.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.chunks.len() - self.pending_total - self.completed() - self.abandoned()
    }

    /// Jobs permanently abandoned after exhausting their attempts.
    #[must_use]
    pub fn abandoned(&self) -> usize {
        self.tally.faults.abandoned_jobs.len()
    }

    /// The abandoned jobs with the site that last failed each.
    #[must_use]
    pub fn abandoned_jobs(&self) -> &[AbandonedJob] {
        &self.tally.faults.abandoned_jobs
    }

    /// Fault-path accounting so far.
    #[must_use]
    pub fn faults(&self) -> &FaultCounters {
        &self.tally.faults
    }

    /// Jobs leased to each site that was ever granted one, by site.
    pub(crate) fn leased(&self) -> impl Iterator<Item = (SiteId, usize)> + '_ {
        (0..).zip(&self.assigned_to).map(|(k, &n)| (SiteId(k), n))
    }

    /// Jobs waiting per file, by its data-home site (shard), once per file.
    pub(crate) fn pending_by_home(&self) -> impl Iterator<Item = (SiteId, usize)> + '_ {
        self.file_site.iter().copied().zip(self.pending_by_file.iter().map(VecDeque::len))
    }

    /// Sites that have been declared dead and evacuated.
    #[must_use]
    pub fn dead_sites(&self) -> Vec<SiteId> {
        self.dead_sites.iter().copied().collect()
    }

    /// Whether `site` has been evacuated.
    #[must_use]
    pub fn is_dead(&self, site: SiteId) -> bool {
        self.dead_sites.contains(&site)
    }

    /// Sites currently holding a lease on `job` (test/diagnostic aid).
    #[must_use]
    pub fn assignees_of(&self, job: ChunkId) -> Vec<SiteId> {
        self.assignees.of(job.0 as usize).map(|a| a.site).collect()
    }

    /// Per-site processed/stolen counts (Table I data).
    #[must_use]
    pub fn site_counts(&self) -> BTreeMap<SiteId, SiteJobCounts> {
        self.tally.counts()
    }

    /// The sites whose lease on job `i` was revoked, oldest first.
    fn past_of(&self, i: usize) -> &[SiteId] {
        self.past.get(&i).map_or(&[], Vec::as_slice)
    }

    /// Whether `site` ever held (or still holds) a lease on job `i`, or
    /// finished it — i.e. a report from `site` is stale rather than a
    /// protocol violation.
    fn knows_site(&self, i: usize, site: SiteId) -> bool {
        self.assignees.of(i).any(|a| a.site == site)
            || self.past_of(i).contains(&site)
            || self.state[i] == JobState::Done(site)
    }

    /// Drop `site`'s live lease on job `i`, fixing the reader and in-flight
    /// accounting. Returns the released lease, `None` when `site` held no
    /// lease.
    fn release_assignee(&mut self, i: usize, site: SiteId) -> Option<Assignee> {
        let released = self.assignees.remove(i, site)?;
        self.readers[self.chunks[i].file.0 as usize] -= 1;
        // A site that held a lease was counted when it was granted.
        self.assigned_to[usize::from(site.0)] -= 1;
        Some(released)
    }

    /// Allocate a fresh causal span id for one job execution.
    fn alloc_span(&mut self) -> u64 {
        let span = self.next_span;
        self.next_span += 1;
        span
    }

    /// A speculative execution was released without its result merging:
    /// preempted, reaped, evacuated, failed, abandoned.
    fn speculation_lost(&mut self, i: usize, site: SiteId, span: u64) {
        self.note(self.job_event(EventKind::SpeculationResolved { won: false }, i, site, span));
    }

    /// Under coded redundancy every surviving site holds a local copy of
    /// the evacuated site's data, so an evacuation-forced re-execution of
    /// job `i` is served without a WAN re-fetch — state the save.
    fn refetch_saved(&mut self, i: usize, site: SiteId) {
        if self.redundancy > 1 {
            self.note(self.job_event(EventKind::RefetchSaved, i, site, 0));
        }
    }

    /// Put job `i` back on its file's pending queue, in physical order so
    /// consecutive-batch grants stay consecutive.
    fn requeue(&mut self, i: usize) {
        self.state[i] = JobState::Pending;
        self.pending_total += 1;
        let job = self.chunks[i].id;
        let q = &mut self.pending_by_file[self.chunks[i].file.0 as usize];
        let pos = q.partition_point(|&c| c < job);
        q.insert(pos, job);
    }

    /// Permanently give up on job `i`.
    fn abandon(&mut self, i: usize, last_site: Option<SiteId>) {
        self.state[i] = JobState::Abandoned;
        let mut e = self.event(EventKind::JobAbandoned).chunk(self.chunks[i].id);
        e.site = last_site;
        self.note(e);
    }

    /// Report that `site` failed to process `job` (retrieval error, worker
    /// crash). The job returns to the pending pool for reassignment — to any
    /// site — unless it has exhausted its attempts, in which case it is
    /// permanently abandoned. Stale reports (the lease was already reaped,
    /// the site evacuated, or another execution already finished the job)
    /// are ignored. Returns `true` unless the job was abandoned.
    ///
    /// # Panics
    /// Panics if `site` never held a lease on the job.
    pub fn fail(&mut self, job: ChunkId, site: SiteId) -> bool {
        let i = job.0 as usize;
        if let Some(released) = self.release_assignee(i, site) {
            self.attempts[i] = self.attempts[i].saturating_add(1);
            self.past.entry(i).or_default().push(site);
            self.note(self.job_event(EventKind::JobFailed, i, site, released.span));
            if released.speculative {
                self.speculation_lost(i, site, released.span);
            }
            if self.assignees.is_empty(i) {
                if self.attempts[i] >= self.max_attempts {
                    self.abandon(i, Some(site));
                    return false;
                }
                self.requeue(i);
            }
            return true;
        }
        assert!(self.knows_site(i, site), "{job} failed by {site} but not assigned to it");
        true // stale report from a reaped/preempted/evacuated execution
    }

    /// Reclaim every lease whose deadline has passed: the silent execution
    /// is written off (its site moves to the job's past, so a late result is
    /// still accepted) and the job is re-queued once no live lease remains.
    /// Jobs that exhaust their attempts through expiries are abandoned.
    ///
    /// Returns the reaped `(job, site)` pairs so the caller can cancel the
    /// orphaned executions. No-op while leases are disabled.
    pub fn reap_expired(&mut self, now: f64) -> Vec<(ChunkId, SiteId)> {
        self.now = self.now.max(now);
        if self.lease.is_none() {
            return Vec::new();
        }
        let mut reaped = Vec::new();
        for i in 0..self.state.len() {
            if self.state[i] != JobState::Assigned {
                continue;
            }
            let expired: Vec<(SiteId, bool, u64)> = self
                .assignees
                .of(i)
                .filter(|a| a.deadline <= now)
                .map(|a| (a.site, a.speculative, a.span))
                .collect();
            for (site, speculative, span) in expired {
                self.release_assignee(i, site);
                self.past.entry(i).or_default().push(site);
                self.attempts[i] = self.attempts[i].saturating_add(1);
                self.note(self.job_event(EventKind::LeaseReaped, i, site, span));
                if speculative {
                    self.speculation_lost(i, site, span);
                }
                reaped.push((self.chunks[i].id, site));
            }
            if self.state[i] == JobState::Assigned && self.assignees.is_empty(i) {
                if self.attempts[i] >= self.max_attempts {
                    self.abandon(i, self.past_of(i).last().copied());
                } else {
                    self.requeue(i);
                }
            }
        }
        reaped
    }

    /// Declare `site` dead and evacuate it (idempotent). Its in-flight
    /// leases are revoked and, because a site's completed results live in
    /// its not-yet-reduced robj, its **completed** jobs are re-queued for
    /// re-execution too. The site gets only empty grants from now on, and
    /// its late reports are treated as stale.
    pub fn evacuate(&mut self, site: SiteId) {
        if !self.dead_sites.insert(site) {
            return;
        }
        self.note(self.event(EventKind::SiteEvacuated).site(site));
        for i in 0..self.state.len() {
            let state = self.state[i];
            match state {
                JobState::Assigned => {
                    let Some(released) = self.release_assignee(i, site) else { continue };
                    self.past.entry(i).or_default().push(site);
                    self.note(self.job_event(EventKind::JobEvacuated, i, site, released.span));
                    if released.speculative {
                        self.speculation_lost(i, site, released.span);
                    }
                    if self.assignees.is_empty(i) {
                        self.requeue(i);
                        self.refetch_saved(i, site);
                    }
                }
                JobState::Done(s) if s == site => {
                    // The merged result died with the site's robj.
                    self.past.entry(i).or_default().push(site);
                    let stolen = self.chunks[i].site != site;
                    self.note(self.job_event(EventKind::LostResult { stolen }, i, site, 0));
                    self.requeue(i);
                    self.refetch_saved(i, site);
                }
                _ => {}
            }
        }
    }

    /// Abandon every unfinished job (used when the run must end — e.g. every
    /// site able to reach the data is gone). Each job records the site that
    /// last held it, when any.
    pub fn abandon_unfinished(&mut self) {
        for i in 0..self.state.len() {
            match self.state[i] {
                JobState::Pending => {
                    let job = self.chunks[i].id;
                    let q = &mut self.pending_by_file[self.chunks[i].file.0 as usize];
                    if let Some(pos) = q.iter().position(|&c| c == job) {
                        q.remove(pos);
                    }
                    self.pending_total -= 1;
                    let last = self.past_of(i).last().copied();
                    self.abandon(i, last);
                }
                JobState::Assigned => {
                    let holders: Vec<(SiteId, bool, u64)> =
                        self.assignees.of(i).map(|a| (a.site, a.speculative, a.span)).collect();
                    for &(site, speculative, span) in &holders {
                        self.release_assignee(i, site);
                        self.past.entry(i).or_default().push(site);
                        if speculative {
                            self.speculation_lost(i, site, span);
                        }
                    }
                    self.abandon(i, holders.last().map(|&(s, _, _)| s));
                }
                _ => {}
            }
        }
    }

    /// The rate-aware steal condition: worth stealing only while the owner
    /// site's pending backlog outlasts the thief's end-to-end steal cost.
    fn steal_pays_off(&self, thief: SiteId, owner: SiteId) -> bool {
        if self.dead_sites.contains(&owner) {
            return true; // a dead owner will never drain its own backlog
        }
        let cost = self.steal_cost.get(&thief).copied().unwrap_or(0.0);
        if cost <= 0.0 || self.now <= 0.0 {
            return true; // rate awareness disabled or no signal yet
        }
        // The owner's rate: the jobs it merged (and still holds) so far.
        let done = self.tally.sites.get(usize::from(owner.0)).map_or(0, |r| r.jobs().total());
        if done == 0 {
            return true; // owner rate unknown; assume stealing helps
        }
        let rate = done as f64 / self.now;
        let pending: usize = self
            .pending_by_file
            .iter()
            .zip(&self.file_site)
            .filter(|(_, &s)| s == owner)
            .map(|(q, _)| q.len())
            .sum();
        // The owner's true remaining work also includes its in-flight jobs
        // (half-done on average); ignoring them makes the estimate stop
        // stealing too early and strands the thief idle over the tail.
        let in_flight = self.assigned_to.get(usize::from(owner.0)).copied().unwrap_or(0);
        let backlog = pending as f64 + 0.5 * in_flight as f64;
        backlog / rate > cost
    }

    /// [`JobPool::complete`] with the caller's clock, feeding the
    /// job-duration estimator on accepted completions while leases are on.
    pub fn complete_at(&mut self, job: ChunkId, site: SiteId, now: f64) -> Completion {
        self.now = self.now.max(now);
        let sample = self.lease.and_then(|_| {
            let lease = self.assignees.of(job.0 as usize).find(|a| a.site == site)?;
            Some((now - lease.assigned_at).max(0.0))
        });
        let outcome = self.complete(job, site);
        if let Some(d) = sample.filter(|_| outcome.is_merged()) {
            let e = at_site(&mut self.ewma_dur, site).get_or_insert(d);
            *e = 0.8 * *e + 0.2 * d;
        }
        outcome
    }

    /// Mark one job finished. `site` is the site that processed it.
    ///
    /// Exactly one completion per chunk returns [`Completion::Merged`];
    /// every other report — from a preempted speculative copy, a reaped
    /// lease that was since re-executed, or an evacuated site — returns
    /// [`Completion::Duplicate`]. A *late* completion from a reaped lease
    /// whose job has not been re-completed yet is still accepted (the
    /// original worker won after all).
    ///
    /// # Panics
    /// Panics if `site` never held a lease on the job — a protocol
    /// violation.
    pub fn complete(&mut self, job: ChunkId, site: SiteId) -> Completion {
        let i = job.0 as usize;
        assert!(self.knows_site(i, site), "{job} completed by {site} but not assigned to it");
        let stolen = self.chunks[i].site != site;
        // A dead site's report is always discarded: its robj will never be
        // globally reduced, so merging there would lose the result.
        if self.dead_sites.contains(&site) {
            return self.duplicate_completion(job, site, stolen);
        }
        match self.state[i] {
            JobState::Done(_) | JobState::Abandoned => self.duplicate_completion(job, site, stolen),
            JobState::Assigned => {
                // Live lease: first finisher wins; revoke the rest. A reaped
                // lease finishing late while a re-execution still runs wins
                // the same way — accept the result, cancel the rerun.
                let winner = self.release_assignee(i, site);
                let winner_replica = winner.as_ref().is_some_and(|w| w.replica);
                let winner_span = winner.as_ref().map_or(0, |w| w.span);
                let losers: Vec<(SiteId, bool, bool, u64)> = self
                    .assignees
                    .of(i)
                    .map(|a| (a.site, a.speculative, a.replica, a.span))
                    .collect();
                for &(s, speculative, replica, span) in &losers {
                    self.release_assignee(i, s);
                    self.past.entry(i).or_default().push(s);
                    if speculative {
                        self.speculation_lost(i, s, span);
                    }
                    // A preemption inside a replica group is a fence: the
                    // first finished copy invalidates its siblings.
                    if replica || winner_replica {
                        let fenced = EventKind::ReplicaResolved { won: false };
                        self.note(self.job_event(fenced, i, s, span));
                    }
                }
                self.state[i] = JobState::Done(site);
                let late = winner.is_none();
                let merged = EventKind::JobCompleted { merged: true, late, stolen };
                self.note(self.job_event(merged, i, site, winner_span));
                if winner_replica {
                    let won = EventKind::ReplicaResolved { won: true };
                    self.note(self.job_event(won, i, site, winner_span));
                }
                if winner.is_some_and(|w| w.speculative) {
                    let won = EventKind::SpeculationResolved { won: true };
                    self.note(self.job_event(won, i, site, winner_span));
                }
                Completion::Merged { preempted: losers.into_iter().map(|(s, _, _, _)| s).collect() }
            }
            JobState::Pending => {
                // Reaped lease finished before the job was re-granted:
                // accept the result and withdraw the pending re-execution.
                let q = &mut self.pending_by_file[self.chunks[i].file.0 as usize];
                if let Some(pos) = q.iter().position(|&c| c == job) {
                    q.remove(pos);
                }
                self.pending_total -= 1;
                self.state[i] = JobState::Done(site);
                let merged = EventKind::JobCompleted { merged: true, late: true, stolen };
                self.note(self.job_event(merged, i, site, 0));
                Completion::Merged { preempted: Vec::new() }
            }
        }
    }

    /// A completion report that must be discarded.
    fn duplicate_completion(&mut self, job: ChunkId, site: SiteId, stolen: bool) -> Completion {
        let dup = EventKind::JobCompleted { merged: false, late: false, stolen };
        self.note(self.job_event(dup, job.0 as usize, site, 0));
        Completion::Duplicate
    }

    /// Local file to serve next: the site's file with the most pending jobs,
    /// preferring files already being read by someone (keeps streams long),
    /// tie-broken by file id for determinism.
    fn pick_local_file(&self, site: SiteId) -> Option<FileId> {
        self.pending_by_file
            .iter()
            .enumerate()
            .filter(|(f, q)| self.file_site[*f] == site && !q.is_empty())
            .max_by_key(|(f, q)| (q.len(), std::cmp::Reverse(*f)))
            .map(|(f, _)| FileId(f as u32))
    }

    /// Remote file to steal from: fewest current readers, then most pending,
    /// then lowest id ("chosen from files which the minimum number of nodes
    /// are currently processing").
    fn pick_steal_file(&self, site: SiteId) -> Option<FileId> {
        self.pending_by_file
            .iter()
            .enumerate()
            .filter(|(f, q)| self.file_site[*f] != site && !q.is_empty())
            .min_by_key(|(f, q)| (self.readers[*f], std::cmp::Reverse(q.len()), *f))
            .map(|(f, _)| FileId(f as u32))
    }

    /// Grant up to `want` *consecutive* jobs from the front of `file`'s
    /// pending queue into the empty `batch`.
    fn grant_from_file(&mut self, file: FileId, want: usize, stolen: bool, batch: &mut JobBatch) {
        let q = &mut self.pending_by_file[file.0 as usize];
        let jobs = &mut batch.jobs;
        jobs.reserve(want.min(q.len()));
        while jobs.len() < want {
            let Some(id) = q.front().copied() else { break };
            // Keep the run physically consecutive: stop at a gap.
            if let Some(last) = jobs.last() {
                let last: &ChunkMeta = last;
                if id != last.id.next() {
                    break;
                }
            }
            q.pop_front();
            jobs.push(self.chunks[id.0 as usize]);
        }
        batch.stolen = stolen;
    }

    /// The lease deadline for a fresh grant to `site` at the current clock.
    fn deadline_for(&self, site: SiteId) -> f64 {
        match self.lease {
            Some(cfg) => {
                self.now + cfg.lease_for(self.ewma_dur.get(usize::from(site.0)).copied().flatten())
            }
            None => f64::INFINITY,
        }
    }

    /// Record that `batch`, fresh from [`Self::grant_from_file`], is now
    /// owned by `site`, allocating one causal span per job (written into
    /// `batch.spans` so the grant carries them to the processing site).
    fn assign_to(&mut self, batch: &mut JobBatch, site: SiteId) {
        let deadline = self.deadline_for(site);
        *at_site(&mut self.assigned_to, site) += batch.jobs.len();
        batch.spans.reserve(batch.jobs.len());
        for k in 0..batch.jobs.len() {
            let j = batch.jobs[k];
            let i = j.id.0 as usize;
            debug_assert_eq!(self.state[i], JobState::Pending);
            self.state[i] = JobState::Assigned;
            let span = self.alloc_span();
            batch.spans.push(span);
            let lease = Assignee {
                site,
                assigned_at: self.now,
                deadline,
                speculative: false,
                replica: false,
                span,
            };
            self.assignees.push(i, lease);
            self.readers[j.file.0 as usize] += 1;
            self.pending_total -= 1;
            let granted =
                EventKind::JobGranted { stolen: batch.stolen, speculative: false, replica: false };
            self.note(self.job_event(granted, i, site, span));
        }
    }

    /// The straggler to duplicate for an otherwise-idle `site`: the oldest
    /// in-flight job with fewer than `cap` live leases, all held by
    /// *different* sites. Cross-site only — a second copy behind the same
    /// master shares the straggler's fate too often to pay off. Speculation
    /// uses `cap = MAX_ASSIGNEES`; coded replica grants widen the cap to
    /// the replication factor.
    fn pick_duplicate_target(&self, site: SiteId, cap: usize) -> Option<usize> {
        (0..self.state.len())
            .filter(|&i| self.state[i] == JobState::Assigned)
            .filter(|&i| {
                !self.assignees.is_empty(i)
                    && self.assignees.count(i) < cap
                    && self.assignees.of(i).all(|a| a.site != site)
            })
            .min_by(|&a, &b| {
                let oldest = |i| self.assignees.first(i).map_or(0.0, |a| a.assigned_at);
                let (ta, tb) = (oldest(a), oldest(b));
                ta.partial_cmp(&tb).unwrap().then(self.chunks[a].id.cmp(&self.chunks[b].id))
            })
    }

    /// Hand `site` an extra copy of in-flight job `i` (a speculative
    /// re-execution or a coded replica) as the one job of the empty `batch`.
    /// The copy gets a fresh span whose *parent* is the oldest live
    /// execution's span — the replica/speculation lineage edge of the run
    /// DAG.
    fn grant_duplicate(&mut self, i: usize, site: SiteId, speculative: bool, batch: &mut JobBatch) {
        let deadline = self.deadline_for(site);
        let parent = self.assignees.first(i).map_or(0, |a| a.span);
        let span = self.alloc_span();
        let lease = Assignee {
            site,
            assigned_at: self.now,
            deadline,
            speculative,
            replica: !speculative,
            span,
        };
        self.assignees.push(i, lease);
        self.readers[self.chunks[i].file.0 as usize] += 1;
        *at_site(&mut self.assigned_to, site) += 1;
        let stolen = self.chunks[i].site != site;
        let granted = EventKind::JobGranted { stolen, speculative, replica: !speculative };
        self.note(self.job_event(granted, i, site, span).cause(parent));
        batch.jobs.push(self.chunks[i]);
        batch.spans.push(span);
        batch.stolen = stolen;
    }

    /// Grant `site` up to `max` jobs — the one place pending jobs are
    /// selected and leased, whatever the transport (paper §III-B): a run of
    /// *consecutive* jobs from the site's own fullest file; once it has none,
    /// a steal of at most [`STEAL_BATCH_MAX`] from the remote file with the
    /// fewest readers, while the rate-aware condition says it pays off.
    /// Stolen jobs ride the slow inter-site path, so those grants are kept
    /// fine-grained: a site that over-commits to remote retrieval would
    /// starve the (faster) data-local site of its own pending jobs.
    ///
    /// When nothing is pending but stragglers are in flight, the idle site
    /// is handed a duplicate of the oldest one instead of an empty poll — a
    /// speculative copy when speculation is enabled, a proactive replica
    /// when coded redundancy (`r > 1`) is — first completion wins either
    /// way. `max == 0` only asks whether the run is over: nothing is
    /// granted, no copy launched. A dead site gets the same empty answer.
    pub fn grant(&mut self, site: SiteId, max: usize, now: f64) -> JobBatch {
        let mut batch = JobBatch::empty(false);
        self.grant_into(site, max, now, &mut batch);
        batch
    }

    /// [`JobPool::grant`] into `batch`, emptied first: a head that keeps the
    /// buffers of its grants allocates nothing per grant once they are
    /// grown.
    pub fn grant_into(&mut self, site: SiteId, max: usize, now: f64, batch: &mut JobBatch) {
        (batch.stolen, batch.terminal) = (false, false);
        batch.jobs.clear();
        batch.spans.clear();
        self.now = self.now.max(now);
        if max == 0 || self.dead_sites.contains(&site) {
            batch.terminal = self.all_done();
            return;
        }
        let pick = match self.pick_local_file(site) {
            Some(file) => Some((file, max, false)),
            None => self
                .pick_steal_file(site)
                .filter(|file| self.steal_pays_off(site, self.file_site[file.0 as usize]))
                .map(|file| (file, max.min(STEAL_BATCH_MAX), true)),
        };
        if let Some((file, want, stolen)) = pick {
            self.grant_from_file(file, want, stolen, batch);
            self.assign_to(batch, site);
            return;
        }
        if !self.all_done() {
            if self.speculate {
                if let Some(i) = self.pick_duplicate_target(site, MAX_ASSIGNEES) {
                    return self.grant_duplicate(i, site, true, batch);
                }
            }
            if self.redundancy > 1 {
                let cap = MAX_ASSIGNEES.max(self.redundancy as usize);
                if let Some(i) = self.pick_duplicate_target(site, cap) {
                    return self.grant_duplicate(i, site, false, batch);
                }
            }
        }
        batch.terminal = self.all_done();
    }
}

/// `site`'s entry of a per-site vector, made room for.
fn at_site<T: Clone + Default>(by_site: &mut Vec<T>, site: SiteId) -> &mut T {
    let k = usize::from(site.0);
    if k >= by_site.len() {
        by_site.resize(k + 1, T::default());
    }
    &mut by_site[k]
}

/// What `ladder/src/api.rs` still pins from the time several head threads
/// shared the pool: a lock around a [`JobPool`] and the three methods the
/// ladder's `pool.*` probe calls through `&self`. Nothing else uses it; it
/// goes when the ladder is hoisted into the workspace (ROADMAP item 1).
pub struct ShardedPool(parking_lot::Mutex<JobPool>);

impl ShardedPool {
    /// Wrap `pool`.
    #[must_use]
    pub fn new(pool: JobPool) -> ShardedPool {
        ShardedPool(parking_lot::Mutex::new(pool))
    }

    /// [`JobPool::grant`] under the lock.
    pub fn get_jobs(&self, site: SiteId, max: usize, now: f64) -> JobBatch {
        self.0.lock().grant(site, max, now)
    }

    /// [`JobPool::complete_at`] under the lock.
    pub fn complete_at(&self, job: ChunkId, site: SiteId, now: f64) -> Completion {
        self.0.lock().complete_at(job, site, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutParams;

    fn index(n_files: u32, chunks_per_file: u64, split: impl Fn(FileId) -> SiteId) -> DataIndex {
        let upc = 4;
        let total = u64::from(n_files) * chunks_per_file * upc;
        DataIndex::build(total, LayoutParams { unit_size: 8, units_per_chunk: upc, n_files }, split)
            .unwrap()
    }

    fn half_split(f: FileId) -> SiteId {
        if f.0 < 2 {
            SiteId::LOCAL
        } else {
            SiteId::CLOUD
        }
    }

    #[test]
    fn grants_local_jobs_first() {
        let idx = index(4, 3, half_split);
        let mut pool = JobPool::from_index(&idx, BatchPolicy::Fixed(2));
        let b = pool.grant(SiteId::LOCAL, 2, 0.0);
        assert!(!b.stolen);
        assert!(b.jobs.iter().all(|c| c.site == SiteId::LOCAL));
    }

    #[test]
    fn a_grant_into_a_used_batch_is_a_fresh_grant_and_leases_reuse_their_slots() {
        let idx = index(4, 3, half_split);
        let (mut pool, mut twin) = (
            JobPool::from_index(&idx, BatchPolicy::Fixed(2)),
            JobPool::from_index(&idx, BatchPolicy::Fixed(2)),
        );
        // Stale jobs, spans and flags in the batch count for nothing.
        let mut batch =
            JobBatch { stolen: true, terminal: true, ..twin.grant(SiteId::CLOUD, 5, 0.0) };
        pool.grant(SiteId::CLOUD, 5, 0.0);
        for (site, max) in [(SiteId::LOCAL, 4), (SiteId::CLOUD, 2), (SiteId::LOCAL, 9)] {
            pool.grant_into(site, max, 0.0, &mut batch);
            assert_eq!(batch, twin.grant(site, max, 0.0), "{site} asking for {max}");
        }
        // A finished job's slot serves the next grant: the slab holds what is
        // in flight at most, not what was ever granted.
        let in_flight = pool.in_flight();
        for job in idx.chunks.iter().filter(|c| c.site == SiteId::LOCAL) {
            pool.complete(job.id, SiteId::LOCAL);
        }
        assert_eq!(pool.in_flight(), in_flight - 6);
        let slots = pool.assignees.slab.len();
        assert_eq!(pool.grant(SiteId::LOCAL, 6, 0.0).len(), 1, "the cloud's last job, stolen");
        assert_eq!(pool.assignees.slab.len(), slots, "a freed slot holds the new lease");
    }

    #[test]
    fn batches_are_consecutive_chunks_of_one_file() {
        let idx = index(2, 6, |_| SiteId::LOCAL);
        let mut pool = JobPool::from_index(&idx, BatchPolicy::Fixed(4));
        let b = pool.grant(SiteId::LOCAL, 4, 0.0);
        assert_eq!(b.len(), 4);
        let file = b.jobs[0].file;
        for w in b.jobs.windows(2) {
            assert_eq!(w[0].file, file);
            assert_eq!(w[1].id, w[0].id.next());
            assert_eq!(w[1].offset, w[0].end());
        }
    }

    #[test]
    fn steals_only_after_local_exhausted() {
        let idx = index(2, 4, |f| if f.0 == 0 { SiteId::LOCAL } else { SiteId::CLOUD });
        let mut pool = JobPool::from_index(&idx, BatchPolicy::Fixed(2));
        let b1 = pool.grant(SiteId::LOCAL, 2, 0.0);
        assert!(!b1.stolen);
        assert_eq!(b1.len(), 2);
        // A sized grant is one file's run, however much is asked for.
        let b2 = pool.grant(SiteId::LOCAL, 16, 0.0);
        assert!(!b2.stolen);
        assert_eq!(b2.len(), 2);
        // And a steal is capped, however much is asked for.
        let b3 = pool.grant(SiteId::LOCAL, 16, 0.0);
        assert!(b3.stolen, "local jobs exhausted; must steal");
        assert_eq!(b3.len(), STEAL_BATCH_MAX);
        assert!(b3.jobs.iter().all(|c| c.site == SiteId::CLOUD));
    }

    #[test]
    fn steal_prefers_file_with_fewest_readers() {
        // Two cloud files; the cloud site is actively reading file2.
        let idx = index(4, 2, half_split); // files 0,1 local; 2,3 cloud
        let mut pool = JobPool::from_index(&idx, BatchPolicy::Fixed(1));
        // Cloud takes one job -> becomes a reader of one of its files.
        let cb = pool.grant(SiteId::CLOUD, 1, 0.0);
        let busy_file = cb.jobs[0].file;
        // Drain local jobs.
        let local_pending =
            |pool: &JobPool| pool.pending_by_home().any(|(home, n)| home == SiteId::LOCAL && n > 0);
        while local_pending(&pool) {
            let b = pool.grant(SiteId::LOCAL, 1, 0.0);
            for j in &b.jobs {
                pool.complete(j.id, SiteId::LOCAL);
            }
        }
        // First steal must avoid the file the cloud is reading.
        let sb = pool.grant(SiteId::LOCAL, 1, 0.0);
        assert!(sb.stolen);
        assert_ne!(sb.jobs[0].file, busy_file);
    }

    #[test]
    fn every_job_processed_exactly_once_two_sites() {
        let idx = index(4, 3, half_split);
        let mut pool = JobPool::from_index(&idx, BatchPolicy::Fixed(2));
        let mut turn = 0;
        let sites = [SiteId::LOCAL, SiteId::CLOUD];
        let mut seen = vec![0u32; idx.n_chunks()];
        while !pool.all_done() {
            let site = sites[turn % 2];
            turn += 1;
            let b = pool.grant(site, 2, 0.0);
            for j in &b.jobs {
                seen[j.id.0 as usize] += 1;
                pool.complete(j.id, site);
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        let counts = pool.site_counts();
        let total: u64 = counts.values().map(SiteJobCounts::total).sum();
        assert_eq!(total, idx.n_chunks() as u64);
    }

    #[test]
    fn stolen_counts_match_remote_processing() {
        // All data on the cloud; the local site processes everything.
        let idx = index(2, 4, |_| SiteId::CLOUD);
        let mut pool = JobPool::from_index(&idx, BatchPolicy::Fixed(3));
        while !pool.all_done() {
            let b = pool.grant(SiteId::LOCAL, 3, 0.0);
            assert!(b.stolen);
            for j in &b.jobs {
                pool.complete(j.id, SiteId::LOCAL);
            }
        }
        let c = pool.site_counts()[&SiteId::LOCAL];
        assert_eq!(c.local, 0);
        assert_eq!(c.stolen, 8);
    }

    #[test]
    fn empty_batch_when_drained() {
        let idx = index(1, 1, |_| SiteId::LOCAL);
        let mut pool = JobPool::from_index(&idx, BatchPolicy::Fixed(8));
        let b = pool.grant(SiteId::LOCAL, 8, 0.0);
        assert_eq!(b.len(), 1);
        let b2 = pool.grant(SiteId::LOCAL, 8, 0.0);
        assert!(b2.is_empty());
        let b3 = pool.grant(SiteId::CLOUD, 8, 0.0);
        assert!(b3.is_empty());
    }

    #[test]
    #[should_panic(expected = "not assigned")]
    fn completing_unassigned_job_panics() {
        let idx = index(1, 2, |_| SiteId::LOCAL);
        let mut pool = JobPool::from_index(&idx, BatchPolicy::Fixed(1));
        pool.complete(ChunkId(0), SiteId::LOCAL);
    }

    #[test]
    fn adaptive_batches_shrink_toward_tail() {
        let p = BatchPolicy::Adaptive { divisor: 8, min: 1, max: 8 };
        assert_eq!(p.batch_size(96), 8);
        assert_eq!(p.batch_size(32), 4);
        assert_eq!(p.batch_size(8), 1);
        assert_eq!(p.batch_size(0), 1);
    }

    #[test]
    fn fixed_policy_never_grants_zero() {
        assert_eq!(BatchPolicy::Fixed(0).batch_size(10), 1);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::index::DataIndex;
    use crate::layout::LayoutParams;

    fn pool(n_chunks: u64, max_attempts: u8) -> JobPool {
        let idx = DataIndex::build(
            n_chunks * 2,
            LayoutParams { unit_size: 1, units_per_chunk: 2, n_files: 2 },
            |_| SiteId::LOCAL,
        )
        .unwrap();
        let mut p = JobPool::from_index(&idx, BatchPolicy::Fixed(2));
        p.set_max_attempts(max_attempts);
        p
    }

    #[test]
    fn failed_job_is_requeued_and_completes_later() {
        let mut p = pool(4, 3);
        let b = p.grant(SiteId::LOCAL, 2, 0.0);
        let victim = b.jobs[0].id;
        assert!(p.fail(victim, SiteId::LOCAL), "first failure requeues");
        assert_eq!(p.in_flight(), b.len() - 1);
        for j in &b.jobs[1..] {
            p.complete(j.id, SiteId::LOCAL);
        }
        // Drain the rest by sized grants; the victim must come back.
        let mut saw_victim = false;
        while !p.all_done() {
            let b = p.grant(SiteId::CLOUD, 16, 0.0);
            for j in &b.jobs {
                saw_victim |= j.id == victim;
                p.complete(j.id, SiteId::CLOUD);
            }
        }
        assert!(saw_victim, "requeued job must be granted again");
        assert_eq!(p.abandoned(), 0);
        // The tally credits the failed execution to nobody: a requeue is no
        // fault-path entry, and the victim counts where it finally merged.
        assert!(p.faults().is_quiet());
        assert_eq!(p.site_counts()[&SiteId::LOCAL].total(), b.len() as u64 - 1);
        assert_eq!(p.site_counts()[&SiteId::CLOUD].total(), 4 - (b.len() as u64 - 1));
    }

    #[test]
    fn requeued_job_keeps_physical_order() {
        let mut p = pool(4, 5);
        let b = p.grant(SiteId::LOCAL, 2, 0.0);
        // Fail both; they go back in id order regardless of failure order.
        assert!(p.fail(b.jobs[1].id, SiteId::LOCAL));
        assert!(p.fail(b.jobs[0].id, SiteId::LOCAL));
        let again = p.grant(SiteId::LOCAL, 2, 0.0);
        assert!(again.jobs.windows(2).all(|w| w[1].id == w[0].id.next()));
    }

    #[test]
    fn exhausted_attempts_abandon_the_job() {
        let mut p = pool(1, 2);
        for round in 0..2 {
            let b = p.grant(SiteId::LOCAL, 2, 0.0);
            assert_eq!(b.len(), 1, "round {round}");
            let requeued = p.fail(b.jobs[0].id, SiteId::LOCAL);
            assert_eq!(requeued, round == 0);
        }
        assert!(p.all_done(), "abandoned jobs count toward completion");
        assert_eq!(p.abandoned(), 1);
        assert_eq!(p.abandoned_jobs().len(), 1);
        assert_eq!(p.abandoned_jobs()[0].last_site, Some(SiteId::LOCAL));
        assert!(p.grant(SiteId::LOCAL, 2, 0.0).terminal);
    }

    #[test]
    fn empty_grant_is_nonterminal_while_jobs_in_flight() {
        let mut p = pool(1, 3);
        let b = p.grant(SiteId::LOCAL, 2, 0.0);
        assert_eq!(b.len(), 1);
        // Nothing pending, but the job is in flight: not terminal.
        let empty = p.grant(SiteId::CLOUD, 2, 0.0);
        assert!(empty.is_empty());
        assert!(!empty.terminal, "in-flight job could still fail and requeue");
        p.complete(b.jobs[0].id, SiteId::LOCAL);
        assert!(p.grant(SiteId::CLOUD, 2, 0.0).terminal);
    }

    #[test]
    #[should_panic(expected = "not assigned")]
    fn failing_unassigned_job_panics() {
        let mut p = pool(2, 3);
        p.fail(ChunkId(0), SiteId::LOCAL);
    }
}

#[cfg(test)]
mod lease_tests {
    use super::*;
    use crate::fault::LeaseConfig;
    use crate::index::DataIndex;
    use crate::layout::LayoutParams;

    fn pool(n_chunks: u64) -> JobPool {
        // One file so consecutive-batch grants can cover any request size.
        let idx = DataIndex::build(
            n_chunks * 2,
            LayoutParams { unit_size: 1, units_per_chunk: 2, n_files: 1 },
            |_| SiteId::LOCAL,
        )
        .unwrap();
        JobPool::from_index(&idx, BatchPolicy::Fixed(2))
    }

    fn short_lease() -> LeaseConfig {
        LeaseConfig { base: 1.0, multiplier: 4.0, min: 0.5, max: 10.0 }
    }

    #[test]
    fn expired_lease_is_reaped_and_requeued() {
        let mut p = pool(1);
        p.set_lease(short_lease());
        let b = p.grant(SiteId::LOCAL, 2, 0.0);
        assert_eq!(b.len(), 1);
        assert!(p.reap_expired(0.5).is_empty(), "lease still live");
        let reaped = p.reap_expired(1.5);
        assert_eq!(reaped, vec![(b.jobs[0].id, SiteId::LOCAL)]);
        assert_eq!(p.pending(), 1, "job back in the pool");
        assert_eq!(p.faults().lease_expiries, 1);
        // Re-grant to another site; the grant must be the same chunk.
        let b2 = p.grant(SiteId::CLOUD, 2, 2.0);
        assert_eq!(b2.jobs[0].id, b.jobs[0].id);
        assert!(p.complete(b2.jobs[0].id, SiteId::CLOUD).is_merged());
    }

    #[test]
    fn late_completion_after_reap_still_merges_exactly_once() {
        let mut p = pool(1);
        p.set_lease(short_lease());
        let b = p.grant(SiteId::LOCAL, 2, 0.0);
        let job = b.jobs[0].id;
        p.reap_expired(5.0);
        // The written-off worker finishes after all, before any re-grant.
        assert!(p.complete_at(job, SiteId::LOCAL, 5.1).is_merged());
        assert_eq!(p.faults().late_completions, 1);
        assert!(p.all_done());
        assert_eq!(p.pending(), 0, "pending re-execution withdrawn");
        // Nothing left to grant.
        assert!(p.grant(SiteId::CLOUD, 2, 5.2).terminal);
    }

    #[test]
    fn late_completion_races_rerun_and_rerun_is_preempted() {
        let mut p = pool(1);
        p.set_lease(short_lease());
        let b = p.grant(SiteId::LOCAL, 2, 0.0);
        let job = b.jobs[0].id;
        p.reap_expired(5.0);
        let b2 = p.grant(SiteId::CLOUD, 2, 5.0);
        assert_eq!(b2.jobs[0].id, job, "reaped job re-granted");
        // Original worker reports first: accepted; rerun preempted.
        match p.complete_at(job, SiteId::LOCAL, 5.5) {
            Completion::Merged { preempted } => assert_eq!(preempted, vec![SiteId::CLOUD]),
            Completion::Duplicate => panic!("late completion must merge"),
        }
        // The rerun's own report is now a duplicate.
        assert_eq!(p.complete_at(job, SiteId::CLOUD, 6.0), Completion::Duplicate);
        assert_eq!(p.completed(), 1);
        assert_eq!(p.faults().duplicate_completions, 1);
    }

    #[test]
    fn speculative_copy_first_completion_wins() {
        let mut p = pool(2);
        p.set_lease(short_lease());
        p.set_speculation(true);
        let b = p.grant(SiteId::LOCAL, 2, 0.0);
        assert_eq!(b.len(), 2);
        p.complete_at(b.jobs[1].id, SiteId::LOCAL, 0.2);
        // Asking for nothing only learns that the run is not over: no copy
        // is launched for it.
        let probe = p.grant(SiteId::CLOUD, 0, 0.3);
        assert!(probe.is_empty() && !probe.terminal);
        assert_eq!(p.faults().speculative_grants, 0);
        // Cloud polls with nothing pending: granted a speculative copy of
        // the straggler.
        let spec = p.grant(SiteId::CLOUD, 2, 0.3);
        assert_eq!(spec.len(), 1);
        assert_eq!(spec.jobs[0].id, b.jobs[0].id);
        assert!(spec.stolen);
        assert_eq!(p.faults().speculative_grants, 1);
        assert_eq!(p.assignees_of(b.jobs[0].id), vec![SiteId::LOCAL, SiteId::CLOUD]);
        // No third copy.
        assert!(p.grant(SiteId::CLOUD, 2, 0.4).is_empty());
        // Speculative copy finishes first; the straggler is preempted.
        match p.complete_at(b.jobs[0].id, SiteId::CLOUD, 0.5) {
            Completion::Merged { preempted } => assert_eq!(preempted, vec![SiteId::LOCAL]),
            Completion::Duplicate => panic!("first completion must merge"),
        }
        // The straggler eventually reports: duplicate, merged exactly once.
        assert_eq!(p.complete_at(b.jobs[0].id, SiteId::LOCAL, 9.0), Completion::Duplicate);
        assert!(p.all_done() && p.grant(SiteId::CLOUD, 0, 9.0).terminal);
        assert_eq!(p.completed(), 2);
        // The gamble paid off; the preempted straggler was not speculative.
        assert_eq!(p.faults().speculative_wins, 1);
        assert_eq!(p.faults().speculative_losses, 0);
    }

    #[test]
    fn speculation_losses_are_counted_and_pool_events_tell_the_story() {
        use crate::telemetry::Recorder;
        use std::sync::Arc;

        let rec = Arc::new(Recorder::new());
        let mut p = pool(2);
        p.set_sink(Telemetry::to(rec.clone()));
        p.set_lease(short_lease());
        p.set_speculation(true);
        let b = p.grant(SiteId::LOCAL, 2, 0.0);
        p.complete_at(b.jobs[1].id, SiteId::LOCAL, 0.2);
        let spec = p.grant(SiteId::CLOUD, 2, 0.3);
        assert_eq!(spec.len(), 1);
        // This time the straggler beats its speculative copy: the copy is
        // preempted and the gamble is written off as a loss.
        assert!(p.complete_at(b.jobs[0].id, SiteId::LOCAL, 0.4).is_merged());
        assert_eq!(p.faults().speculative_wins, 0);
        assert_eq!(p.faults().speculative_losses, 1);

        let events = rec.take();
        let grants: Vec<bool> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::JobGranted { speculative, .. } => Some(speculative),
                _ => None,
            })
            .collect();
        assert_eq!(grants, vec![false, false, true]);
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::SpeculationResolved { won: false }
        ) && e.site == Some(SiteId::CLOUD)
            && e.chunk == Some(b.jobs[0].id)));
        let completions = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::JobCompleted { merged: true, .. }))
            .count();
        assert_eq!(completions, 2);
        // Pool events carry the virtual clock, scaled to nanoseconds.
        assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert_eq!(events.last().unwrap().at_ns, secs_to_ns(0.4));
    }

    #[test]
    fn reaping_a_speculative_lease_counts_a_loss() {
        let mut p = pool(2);
        p.set_lease(short_lease());
        p.set_speculation(true);
        let b = p.grant(SiteId::LOCAL, 2, 0.0);
        p.complete_at(b.jobs[1].id, SiteId::LOCAL, 0.2);
        let spec = p.grant(SiteId::CLOUD, 2, 0.3);
        assert_eq!(spec.len(), 1);
        // Both leases expire; only the speculative one counts as a loss.
        let reaped = p.reap_expired(1000.0);
        assert_eq!(reaped.len(), 2);
        assert_eq!(p.faults().speculative_losses, 1);
        assert_eq!(p.faults().speculative_wins, 0);
    }

    #[test]
    fn evacuation_requeues_in_flight_and_done_jobs() {
        let mut p = pool(4);
        let b1 = p.grant(SiteId::CLOUD, 2, 0.0); // 2 jobs in flight at cloud
        p.complete(b1.jobs[0].id, SiteId::CLOUD); // 1 done at cloud
        let done_at_cloud = b1.jobs[0].id;
        let inflight_at_cloud = b1.jobs[1].id;
        let b2 = p.grant(SiteId::LOCAL, 2, 0.0);
        assert_eq!(b2.len(), 2);
        p.evacuate(SiteId::CLOUD);
        p.evacuate(SiteId::CLOUD); // idempotent
                                   // Both the in-flight job and the done-but-unreduced job come back.
        assert_eq!(p.faults().evacuated_jobs, 1);
        assert_eq!(p.faults().lost_results, 1);
        assert_eq!(p.completed(), 0);
        assert_eq!(p.pending(), 2);
        assert!(p.is_dead(SiteId::CLOUD));
        // The dead site polls: empty, the run not over, the re-queued jobs
        // left for the survivor; and its zombie reports are discarded.
        let poll = p.grant(SiteId::CLOUD, 8, 0.0);
        assert!(poll.is_empty() && !poll.terminal);
        assert_eq!(p.pending(), 2);
        assert_eq!(p.complete(inflight_at_cloud, SiteId::CLOUD), Completion::Duplicate);
        // The survivor finishes its own grant and the re-queued jobs.
        for j in &b2.jobs {
            assert!(p.complete(j.id, SiteId::LOCAL).is_merged());
        }
        while !p.all_done() {
            let b = p.grant(SiteId::LOCAL, 2, 0.0);
            for j in &b.jobs {
                assert!(p.complete(j.id, SiteId::LOCAL).is_merged());
            }
        }
        assert_eq!(p.completed(), 4);
        assert_eq!(p.abandoned(), 0);
        let seen_again = p.site_counts()[&SiteId::LOCAL];
        assert_eq!(seen_again.total(), 4);
        // The lost result was re-executed by the survivor, so the dead
        // site's counts are fully rolled back.
        assert!(p.site_counts()[&SiteId::CLOUD].total() == 0);
        assert_eq!(p.assignees_of(done_at_cloud), Vec::<SiteId>::new());
    }

    #[test]
    fn abandon_unfinished_records_last_sites() {
        let mut p = pool(2);
        let b = p.grant(SiteId::LOCAL, 2, 0.0);
        assert_eq!(b.len(), 2);
        p.evacuate(SiteId::LOCAL);
        assert_eq!(p.pending(), 2);
        p.abandon_unfinished();
        assert!(p.all_done());
        assert_eq!(p.abandoned(), 2);
        for a in p.abandoned_jobs() {
            assert_eq!(a.last_site, Some(SiteId::LOCAL));
        }
    }

    #[test]
    fn leases_scale_with_observed_duration() {
        let mut p = pool(8);
        p.set_lease(LeaseConfig { base: 100.0, multiplier: 2.0, min: 0.1, max: 1000.0 });
        let b = p.grant(SiteId::LOCAL, 2, 0.0);
        for j in &b.jobs {
            p.complete_at(j.id, SiteId::LOCAL, 1.0); // ~1s jobs observed
        }
        let b2 = p.grant(SiteId::LOCAL, 2, 1.0);
        // With ~1s EWMA and multiplier 2, the lease is ~2s, far below base:
        // jobs granted now must be reapable shortly after, not in 100s.
        assert!(p.reap_expired(1.5).is_empty());
        let reaped = p.reap_expired(10.0);
        assert_eq!(reaped.len(), b2.len());
    }
}
#[cfg(test)]
mod redundancy_tests {
    use super::*;
    use crate::index::DataIndex;
    use crate::layout::LayoutParams;

    fn pool(n_chunks: u64) -> JobPool {
        let idx = DataIndex::build(
            n_chunks * 2,
            LayoutParams { unit_size: 1, units_per_chunk: 2, n_files: 1 },
            |_| SiteId::LOCAL,
        )
        .unwrap();
        JobPool::from_index(&idx, BatchPolicy::Fixed(2))
    }

    #[test]
    fn r1_never_grants_replicas() {
        let mut p = pool(1);
        p.set_redundancy(1);
        let b = p.grant(SiteId::LOCAL, 2, 0.0);
        assert_eq!(b.len(), 1);
        // Idle poll while a job is in flight: empty at r=1, no replica.
        assert!(p.grant(SiteId::CLOUD, 2, 0.0).is_empty());
        assert_eq!(p.faults().replica_grants, 0);
        p.complete(b.jobs[0].id, SiteId::LOCAL);
        assert_eq!(p.faults().replica_wins, 0);
        assert_eq!(p.faults().replica_fences, 0);
    }

    #[test]
    fn replica_first_completion_wins_and_fences_the_original() {
        let mut p = pool(1);
        p.set_redundancy(2);
        let b = p.grant(SiteId::LOCAL, 2, 0.0);
        let job = b.jobs[0].id;
        // The idle site is handed a proactive replica, not an empty poll —
        // unless it asked for nothing.
        assert!(p.grant(SiteId::CLOUD, 0, 0.0).is_empty());
        assert_eq!(p.faults().replica_grants, 0);
        let rep = p.grant(SiteId::CLOUD, 2, 0.0);
        assert_eq!(rep.len(), 1);
        assert_eq!(rep.jobs[0].id, job);
        assert_eq!(p.faults().replica_grants, 1);
        // No third copy on a two-site testbed: both sites already hold one.
        assert!(p.grant(SiteId::CLOUD, 2, 0.0).is_empty());
        // Replica finishes first: merged, and the original is fenced.
        match p.complete(job, SiteId::CLOUD) {
            Completion::Merged { preempted } => assert_eq!(preempted, vec![SiteId::LOCAL]),
            Completion::Duplicate => panic!("first replica completion must merge"),
        }
        assert_eq!(p.faults().replica_wins, 1);
        assert_eq!(p.faults().replica_fences, 1);
        // The fenced original reports late: duplicate, merged exactly once.
        assert_eq!(p.complete(job, SiteId::LOCAL), Completion::Duplicate);
        assert_eq!(p.completed(), 1);
        assert_eq!(p.faults().speculative_grants, 0, "replicas are not speculation");
    }

    #[test]
    fn original_first_completion_fences_the_replica() {
        let mut p = pool(1);
        p.set_redundancy(2);
        let b = p.grant(SiteId::LOCAL, 2, 0.0);
        let job = b.jobs[0].id;
        assert_eq!(p.grant(SiteId::CLOUD, 2, 0.0).len(), 1);
        match p.complete(job, SiteId::LOCAL) {
            Completion::Merged { preempted } => assert_eq!(preempted, vec![SiteId::CLOUD]),
            Completion::Duplicate => panic!("original completion must merge"),
        }
        assert_eq!(p.faults().replica_wins, 0);
        assert_eq!(p.faults().replica_fences, 1, "the replica sibling was fenced");
        assert_eq!(p.complete(job, SiteId::CLOUD), Completion::Duplicate);
    }

    #[test]
    fn evacuation_under_redundancy_counts_saved_refetches() {
        let mut p = pool(2);
        p.set_redundancy(2);
        let b = p.grant(SiteId::CLOUD, 2, 0.0);
        assert_eq!(b.len(), 2);
        p.complete(b.jobs[0].id, SiteId::CLOUD); // one done, one in flight
        p.evacuate(SiteId::CLOUD);
        // Both the revoked in-flight job and the lost done result requeue,
        // and each re-execution is served from a local replica: two saves.
        assert_eq!(p.pending(), 2);
        assert_eq!(p.faults().saved_refetches, 2);
        while !p.all_done() {
            let b = p.grant(SiteId::LOCAL, 2, 0.0);
            for j in &b.jobs {
                assert!(p.complete(j.id, SiteId::LOCAL).is_merged());
            }
        }
        assert_eq!(p.completed(), 2);
    }

    #[test]
    fn evacuation_at_r1_saves_nothing() {
        let mut p = pool(2);
        let b = p.grant(SiteId::CLOUD, 2, 0.0);
        p.complete(b.jobs[0].id, SiteId::CLOUD);
        p.evacuate(SiteId::CLOUD);
        assert_eq!(p.pending(), 2);
        assert_eq!(p.faults().saved_refetches, 0, "r=1 re-executions re-fetch");
    }
}
