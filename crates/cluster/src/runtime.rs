//! The threaded cloud-bursting runtime: one head, one master per site, and
//! one slave thread per core, wired exactly like Fig. 2 of the paper.
//!
//! "Clusters" are thread pools on this machine; the geographic separation is
//! supplied by [`cloudburst_netsim`] throttles on every inter-site
//! interaction: master↔head control RPCs, cross-site chunk retrieval, and
//! the reduction-object exchange during global reduction. The paper-scale
//! numbers come from `cloudburst-sim`; this runtime demonstrates the
//! middleware end to end on real data.
//!
//! Fault tolerance ([`FtConfig`]) layers job leases, heartbeat-driven site
//! evacuation, speculative re-execution, storage retries, and deterministic
//! chaos injection on top without touching the fault-free fast path.

use crate::error::RunError;
use crate::head::{run_head, CancelBoard, HeadOptions};
use crate::net::run_site_master;
use crate::protocol::{Answer, HeadMsg, HeadReport, MasterMsg, Reply, Verdicts};
use crate::reactor::serve_head_with;
use crate::router::{Fetched, StoreRouter};
use bytes::Bytes;
use cloudburst_core::master::MAX_BDP_JOBS;
use cloudburst_core::metrics::{Histogram, Metrics};
use cloudburst_core::slave::Step;
use cloudburst_core::{
    assemble_report, ns_between, ns_since, ns_to_secs, tree_reduce, BatchPolicy, ChunkId,
    DataIndex, EnvConfig, Event, EventKind, FaultPlan, HeartbeatConfig, JobPool, Journal,
    LeaseConfig, LiveLedger, LocalJob, MasterPool, Reduction, ReductionObject, RunReport, Seconds,
    SiteId, SiteSample, SlaveCore, SlaveSample, Take, Telemetry, Undo,
};
use cloudburst_netsim::{Throttle, Topology};
use cloudburst_storage::{ChaosStore, ChunkStore, FetchConfig, RetryPolicy};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

/// What to do when a slave fails to retrieve or process a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Abort the run on the first failure (the default): correctness over
    /// availability.
    FailFast,
    /// Report the failure to the head, which requeues the job for
    /// reassignment (to any site) up to `max_attempts` times before
    /// abandoning it. A run that ends with abandoned jobs fails with
    /// [`RunError::Incomplete`].
    Retry {
        /// Attempts per job before it is abandoned.
        max_attempts: u8,
    },
}

/// The fault-tolerance subsystem's knobs. [`Default`] turns everything off,
/// which reproduces the classic fault-oblivious runtime exactly.
#[derive(Debug, Clone, Default)]
pub struct FtConfig {
    /// Grant jobs under deadlines sized from observed per-site rates; the
    /// head reaps expired leases and requeues the jobs.
    pub lease: Option<LeaseConfig>,
    /// Hand idle sites speculative copies of tail stragglers (first
    /// completion wins, the loser is cancelled and deduplicated).
    pub speculate: bool,
    /// Masters beacon at `interval`; the head evacuates a site silent past
    /// `timeout`. Both are *real* seconds, independent of `time_scale`.
    pub heartbeat: Option<HeartbeatConfig>,
    /// Retry transient storage failures below the chunk level with capped
    /// exponential backoff.
    pub retry: Option<RetryPolicy>,
    /// Deterministic fault injection: storage errors, worker slowdowns and
    /// crashes, a site outage. The same plan replays the same faults.
    pub chaos: Option<Arc<FaultPlan>>,
}

impl FtConfig {
    /// Leases, speculation, heartbeats, and storage retries all on with
    /// their defaults; no chaos.
    #[must_use]
    pub fn enabled() -> FtConfig {
        FtConfig {
            lease: Some(LeaseConfig::default()),
            speculate: true,
            heartbeat: Some(HeartbeatConfig::default()),
            retry: Some(RetryPolicy::default()),
            chaos: None,
        }
    }

    /// Whether any fault-tolerance machinery (and therefore completion
    /// acking and result dedup) is active.
    #[must_use]
    pub fn active(&self) -> bool {
        self.lease.is_some() || self.speculate || self.heartbeat.is_some() || self.chaos.is_some()
    }
}

/// Everything configurable about a run.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Cores per site and data split.
    pub env: EnvConfig,
    /// Per-slave retrieval parallelism.
    pub fetch: FetchConfig,
    /// Units per cache-sized reduction group.
    pub unit_group: usize,
    /// Link/topology model for inter-site charging.
    pub topology: Topology,
    /// Compression of modelled network time into real time.
    pub time_scale: f64,
    /// Jobs in flight per slave. Depth 1 is the classic serial slave:
    /// request, fetch, process, repeat. Depth `d ≥ 2` overlaps retrieval
    /// with computation — while a slave processes chunk *N*, its fetch
    /// executor already retrieves the next, keeping up to `d` jobs (one
    /// processing, one fetching, and `d - 2` fetched) in the pipeline.
    pub pipeline_depth: usize,
    /// Coded-redundancy replication factor `r`. With `r ≥ 2` (and an
    /// organizer layout replicated to match) the pool proactively grants
    /// each chunk to up to `r` sites, the first completed copy fences its
    /// siblings, the router serves replicated chunks from the reader's own
    /// store, and evacuations re-execute from local replicas instead of
    /// re-fetching over the WAN. The default of 1 reproduces the classic
    /// single-copy runtime bit for bit.
    pub redundancy: u32,
    /// Failure handling.
    pub fault_policy: FaultPolicy,
    /// Fault-tolerance subsystem (off by default).
    pub ft: FtConfig,
    /// Event sink for the run (off by default): the pool, the masters, and
    /// every slave emit typed, timestamped events through this handle.
    pub telemetry: Telemetry,
    /// Live-metrics registry handle (off by default). When enabled, the head
    /// publishes its pool's ledger and every slave its own to it — the
    /// tallies the run report is folded from, so a mid-run scrape and the
    /// end-of-run report agree exactly — and every slave times its chunks'
    /// fetches and processing into its two latency histograms.
    pub metrics: Metrics,
}

impl RuntimeConfig {
    /// A configuration for `env` with paper-testbed links compressed by
    /// `time_scale` and sensible defaults elsewhere.
    #[must_use]
    pub fn new(env: EnvConfig, time_scale: f64) -> RuntimeConfig {
        RuntimeConfig {
            env,
            fetch: FetchConfig::default(),
            unit_group: 1024,
            topology: Topology::paper_testbed(),
            time_scale,
            pipeline_depth: 1,
            redundancy: 1,
            fault_policy: FaultPolicy::FailFast,
            ft: FtConfig::default(),
            telemetry: Telemetry::off(),
            metrics: Metrics::off(),
        }
    }

    /// Refuse what no run over `index` can start under: no cores anywhere,
    /// or a `time_scale` under which the modelled latency of a link between
    /// two of the run's sites — a master's leg to the head, a stolen read, a
    /// reduction object's push — is no real time a thread can sleep (not
    /// finite, not positive, or past what a [`Duration`] holds).
    ///
    /// # Errors
    /// [`RunError::NoWorkers`] or [`RunError::InvalidConfig`], naming the link.
    pub fn validate(&self, index: &DataIndex) -> Result<(), RunError> {
        let mut sites = self.env.active_sites();
        if sites.is_empty() {
            return Err(RunError::NoWorkers);
        }
        let scale = self.time_scale;
        if !(scale.is_finite() && scale > 0.0) {
            return Err(RunError::InvalidConfig(format!(
                "time_scale must be finite and > 0, got {scale}"
            )));
        }
        sites.extend(index.host_sites());
        for &a in &sites {
            for &b in &sites {
                let latency = self.topology.link(a.0, b.0).latency;
                if Duration::try_from_secs_f64(latency * scale).is_err() {
                    return Err(RunError::InvalidConfig(format!(
                        "time_scale {scale:e} stretches the {latency} s latency between {a} and \
                         {b} past what a Duration holds"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The result of a run: the final reduction object plus the paper-shaped
/// statistics record.
#[derive(Debug)]
pub struct RunOutcome<R> {
    /// The globally reduced result.
    pub result: R,
    /// Timing breakdowns, job counts, and overheads (Fig. 3/4, Tables I/II).
    pub report: RunReport,
    /// Head-side accounting (control traffic, authoritative job counts).
    pub head: HeadReport,
}

/// Where a slave publishes its [`SlaveSample`] for the scrape, and its two
/// latency histograms, resolved once at spawn so the hot loop pays only
/// relaxed atomic adds — or, with metrics off, a single branch each.
///
/// The histograms are per-site, shared by all of a site's workers through
/// the registry's get-or-create, and measure what no event is folded for:
/// the distribution of its chunks' latencies.
#[derive(Default)]
struct SlaveMetrics {
    ledger: LiveLedger,
    fetch_hist: Histogram,
    proc_hist: Histogram,
}

impl SlaveMetrics {
    fn new(metrics: &Metrics, site: SiteId, worker: u32) -> SlaveMetrics {
        if !metrics.is_enabled() {
            return SlaveMetrics::default();
        }
        let site_v = site.to_string();
        let per_site: &[(&str, &str)] = &[("site", &site_v)];
        // The slave's series are in the scrape from the start.
        let ledger = metrics.ledger();
        ledger.publish_slave(site, worker, &SlaveSample::default());
        SlaveMetrics {
            ledger,
            fetch_hist: metrics.histogram(
                "cloudburst_fetch_seconds",
                "Per-chunk retrieval latency (ranged reads plus WAN charge).",
                per_site,
            ),
            proc_hist: metrics.histogram(
                "cloudburst_process_seconds",
                "Per-chunk decode-and-reduce latency.",
                per_site,
            ),
        }
    }

    /// The latency histograms' reading of one of the slave's events: a
    /// chunk retrieval that finished on its behalf, or a chunk reduced.
    #[inline(always)]
    fn record(&self, e: &Event) {
        match e.kind {
            EventKind::ChunkFetched { .. } => self.fetch_hist.observe(e.dur_ns),
            EventKind::JobProcessed => self.proc_hist.observe(e.dur_ns),
            _ => {}
        }
    }
}

/// Per-slave fault-tolerance context threaded through [`run_slave`].
struct SlaveCtx {
    /// The slave's site.
    site: SiteId,
    /// The slave's index within its site (chaos plans target it by this).
    worker: u32,
    /// Revoked executions to abort early (channel mode only).
    cancel: Option<CancelBoard>,
    /// The fault-injection plan, if any.
    chaos: Option<Arc<FaultPlan>>,
    /// When true, a completion must be acked as *merged* by the head before
    /// the worker accepts its reduce ([`Reduction::accept`]).
    ack_gated: bool,
    /// Shared run clock origin.
    epoch: Instant,
    /// Event sink for this slave's job/fetch/processing spans.
    telemetry: Telemetry,
    /// Where this slave publishes its ledger, and its latency histograms
    /// (no-ops when metrics are off).
    metrics: SlaveMetrics,
}

impl SlaveCtx {
    fn site_dead(&self) -> bool {
        site_dead(self.chaos.as_deref(), self.site, self.epoch)
    }

    fn revoked(&self, chunk: ChunkId) -> bool {
        self.cancel.as_ref().is_some_and(|b| b.is_revoked(chunk))
    }

    /// `at` on the run clock.
    fn secs(&self, at: Instant) -> Seconds {
        at.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// `job` started `at`. No ledger entry: straight to the sink, for a
    /// listener only.
    fn started(&self, job: &LocalJob, at: Instant) {
        if self.telemetry.is_enabled() {
            let started = EventKind::JobStarted { stolen: job.stolen };
            let started = of_job(Event::at(ns_between(self.epoch, at), started), job);
            self.telemetry.emit(started.site(self.site).worker(self.worker));
        }
    }

    /// State one fact of this slave's — the only way a slave states any, the
    /// twin of the pool's `note`: the event, tagged with the slave, is folded
    /// into its `tally`, which the scrape shows from then on, timed into its
    /// latency histograms and emitted.
    #[inline(always)]
    fn note(&self, tally: &mut SlaveSample, event: Event) {
        let event = event.site(self.site).worker(self.worker);
        tally.apply(&event);
        self.metrics.ledger.publish_slave(self.site, self.worker, tally);
        self.metrics.record(&event);
        self.telemetry.emit(event);
    }
}

/// `event` tagged with `job`'s chunk and causal span.
fn of_job(event: Event, job: &LocalJob) -> Event {
    event.chunk(job.chunk.id).span_id(job.span)
}

/// What a run builds before it spawns anything.
struct Prepared {
    /// Sites with cores, and how many.
    active: Vec<(SiteId, u32)>,
    /// The head is co-located with the local cluster when it is active
    /// (paper Fig. 2); centralized-cloud baselines host it in the cloud, so
    /// the baselines see no inter-cluster control traffic.
    head_site: SiteId,
    chaos: Option<Arc<FaultPlan>>,
    router: StoreRouter,
    pool: JobPool,
    /// Units in the dataset's largest chunk.
    largest: usize,
    ft_active: bool,
    /// Replica grants mean a chunk can complete more than once even with the
    /// FT stack off, so coded runs need the same dedup machinery: acked
    /// completions (the head's merge/discard verdict) and fencing of the
    /// losing copies.
    dedup_active: bool,
}

/// Validate the run and build its router and job pool from `config`.
fn prepare(
    index: &DataIndex,
    stores: BTreeMap<SiteId, Arc<dyn ChunkStore>>,
    config: &RuntimeConfig,
) -> Result<Prepared, RunError> {
    config.validate(index)?;
    let active: Vec<(SiteId, u32)> =
        config.env.active_sites().into_iter().map(|s| (s, config.env.cores_at(s))).collect();
    // Verify every data-hosting site has a store before spawning anything.
    if let Some(&site) = index.host_sites().iter().find(|s| !stores.contains_key(s)) {
        return Err(RunError::NoStoreForSite(site));
    }
    let chaos = config.ft.chaos.clone().filter(|p| !p.is_empty());
    let stores = match &chaos {
        // Storage faults are injected between the router and the backends,
        // so every site's reads draw from the same seeded schedule.
        Some(plan) if plan.storage_error_rate > 0.0 => stores
            .into_iter()
            .map(|(s, st)| (s, Arc::new(ChaosStore::new(st, plan.clone())) as Arc<dyn ChunkStore>))
            .collect(),
        _ => stores,
    };
    let mut router = StoreRouter::new(stores, &config.topology, config.fetch, config.time_scale);
    // A chunk that is one range is read on its slave's own thread, so a run
    // whose largest chunk does not split spawns no fetcher. One whose does
    // gets its pools here, on the thread that starts the run — before any
    // site confines its threads to its own CPUs, since the pools serve
    // every site — sized for every worker (or, with pipelining, its fetch
    // executor) hitting storage at once (DESIGN §3.4.1).
    let largest = index.chunks.iter().map(|c| c.n_units as usize).max().unwrap_or(0);
    let unit = u64::from(index.params.unit_size);
    if config.fetch.parts(largest as u64 * unit) > 1 {
        router.set_concurrency(active.iter().map(|&(_, c)| c as usize).sum());
    }
    if let Some(retry) = config.ft.retry {
        router.set_retry(retry);
    }
    // Under coded redundancy the organizer replicated the data; let readers
    // serve replicated chunks from their own store instead of the WAN.
    router.set_replicated(config.redundancy > 1);

    // The masters size their own grants (`net::serve_site`); a batch policy
    // sizes only the simulator's.
    let mut pool = JobPool::from_index(index, BatchPolicy::default_adaptive(active.len()));
    if let FaultPolicy::Retry { max_attempts } = config.fault_policy {
        pool.set_max_attempts(max_attempts);
    }
    if let Some(lease) = config.ft.lease {
        pool.set_lease(lease);
    }
    pool.set_speculation(config.ft.speculate);
    pool.set_redundancy(config.redundancy);
    pool.set_sink(config.telemetry.clone());
    let ft_active = config.ft.active();
    let dedup_active = ft_active || config.redundancy > 1;
    let head_site = active[0].0;
    Ok(Prepared { active, head_site, chaos, router, pool, largest, ft_active, dedup_active })
}

/// Execute `app` over the dataset described by `index`, with per-site
/// `stores`, under `config`. This is the framework's main entry point.
///
/// # Errors
/// Fails when the environment has no cores, a store is missing for a site
/// that hosts data, retrieval fails, or a worker panics.
pub fn run_hybrid<R: Reduction>(
    app: &R,
    index: &DataIndex,
    stores: BTreeMap<SiteId, Arc<dyn ChunkStore>>,
    config: &RuntimeConfig,
) -> Result<RunOutcome<R::RObj>, RunError> {
    run_on(Transport::Channels, app, index, stores, config)
}

/// Refuse to run an application whose units are `unit_size` bytes over
/// `index` unless its data was organized in units of that size: any other
/// size cuts records apart, and zero cuts nothing. [`run_hybrid`] and
/// [`run_hybrid_tcp`](crate::run_hybrid_tcp) check it before they start a
/// thread.
///
/// # Errors
/// [`RunError::InvalidConfig`], naming both sizes.
pub fn check_units(unit_size: usize, index: &DataIndex) -> Result<(), RunError> {
    let organized = index.params.unit_size as usize;
    if unit_size == 0 || unit_size != organized {
        return Err(RunError::InvalidConfig(format!(
            "the dataset is organized in {organized}-byte units, the application reads \
             {unit_size}-byte units"
        )));
    }
    Ok(())
}

/// What carries a run's control plane between the head and the site masters;
/// everything else about a run is the same code ([`run_on`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transport {
    /// In-process channels: [`run_head`] over one mailbox, which takes the
    /// masters' frames and posts its answers into their mailboxes. Slaves
    /// settle with the head directly and see its revocations on a
    /// [`CancelBoard`].
    Channels,
    /// Loopback TCP: the reactor head, a socket per master and a reader
    /// thread beside it. Slaves report through their master, dedup alone
    /// deals with revoked executions, and each site keeps to its own CPUs.
    Tcp,
}

/// A site's way to the head of one run: the head's mailbox, or where it
/// listens. Either way the site's master is [`run_site_master`].
#[derive(Clone)]
pub(crate) enum Uplink {
    Mailbox(Sender<HeadMsg>),
    Connect(SocketAddr),
}

/// The head of one run, ready to be served on its thread.
type HeadServer = Box<dyn FnOnce(JobPool, HeadOptions) -> Result<HeadReport, RunError> + Send>;

/// What a thread of the run came to; its panic is the run's error.
fn joined<T>(handle: ScopedJoinHandle<'_, Result<T, RunError>>) -> Result<T, RunError> {
    handle.join().unwrap_or_else(|p| Err(RunError::WorkerPanic(panic_msg(&p))))
}

/// One burst, on either transport: validate and build ([`prepare`]), start
/// the run clock, serve the head on a thread, and per active site run a
/// coordinator that starts the site's master and one slave per core, joins
/// them and combines what the slaves accumulated ([`merge_site_outcome`]);
/// then the global reduction and the report ([`conclude`]).
pub(crate) fn run_on<R: Reduction>(
    transport: Transport,
    app: &R,
    index: &DataIndex,
    stores: BTreeMap<SiteId, Arc<dyn ChunkStore>>,
    config: &RuntimeConfig,
) -> Result<RunOutcome<R::RObj>, RunError> {
    check_units(app.unit_size(), index)?;
    let Prepared { active, head_site, chaos, router, pool, largest, ft_active, dedup_active } =
        prepare(index, stores, config)?;
    let n_sites = active.len();
    // A cancel board lets slaves abandon executions the head has fenced.
    let cancel = (transport == Transport::Channels && dedup_active).then(CancelBoard::new);
    let (uplink, serve_head): (Uplink, HeadServer) = match transport {
        Transport::Channels => {
            let (head_tx, head_rx) = unbounded::<HeadMsg>();
            let board = cancel.clone();
            let serve = move |pool, options: HeadOptions| {
                Ok(run_head(pool, head_rx, n_sites, board.as_ref(), &options))
            };
            (Uplink::Mailbox(head_tx), Box::new(serve))
        }
        Transport::Tcp => {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            let serve = move |pool, options: HeadOptions| {
                serve_head_with(&listener, pool, n_sites, &options).map_err(RunError::Io)
            };
            (Uplink::Connect(addr), Box::new(serve))
        }
    };
    // An application that journals does so because its object is large
    // (DESIGN §3.4.2): its accumulators, and its journals when jobs are
    // isolated, are allocated here, by the thread that outlives the run, at
    // room for a chunk or more, and never grow (DESIGN §3.4.3). A small
    // object is made on its slave's own thread.
    let journals = app.journal_len(1) > 0;
    let isolate = dedup_active || matches!(config.fault_policy, FaultPolicy::Retry { .. });
    let journal_len =
        if journals && isolate { app.journal_len(largest.max(JOURNAL_UNITS)) } else { 0 };
    let epoch = Instant::now();

    let (site_outcomes, head) = std::thread::scope(|scope| {
        let head_options = HeadOptions::of(config, ft_active, epoch);
        let head_handle = scope.spawn(move || serve_head(pool, head_options));

        let mut next_cpu = 0;
        let coordinators: Vec<_> = active
            .iter()
            .map(|&(site, cores)| {
                let (router, chaos, cancel, uplink) =
                    (&router, chaos.clone(), cancel.clone(), uplink.clone());
                let first_cpu = next_cpu;
                next_cpu += cores as usize;
                let floor = cores as usize * config.pipeline_depth.max(1) + 1;
                // The master's queue, which holds at most its floor and its
                // window of hand-offs, is allocated here at that bound, by the
                // thread that outlives the run: grown on the master's thread,
                // its outgrown blocks stay in that thread's malloc arena, and
                // the run's threads are new each run (DESIGN §3.4.3).
                let mut pool = MasterPool::new(site, LOW_WATERMARK);
                pool.reserve((floor + 2) * MAX_BDP_JOBS);
                let held: Vec<_> = (0..cores)
                    .map(|_| {
                        (journals.then(|| app.make_robj()), Journal::with_capacity(journal_len))
                    })
                    .collect();
                scope.spawn(move || -> Result<SiteOutcome<R::RObj>, RunError> {
                    if transport == Transport::Tcp {
                        // Each site keeps to as many CPUs as it has cores, its
                        // own where the host has enough: a slave ↔ master
                        // hand-off that crosses CPUs costs whatever the
                        // kernel's wake-up does that day.
                        crate::readiness::confine(first_cpu, cores as usize);
                    }
                    // Control-plane latency between this site's master and
                    // the head (zero when co-located).
                    let control_latency = config.topology.link(site.0, head_site.0).latency;
                    let start = &MasterStart {
                        site,
                        floor,
                        leg: Duration::from_secs_f64(
                            (control_latency * config.time_scale).max(0.0),
                        ),
                        heartbeat: config.ft.heartbeat,
                        chaos: chaos.clone(),
                        cancel: cancel.clone(),
                        epoch,
                        telemetry: config.telemetry.clone(),
                    };
                    let (master_tx, master_rx) = unbounded::<MasterMsg>();
                    let (results, master) = std::thread::scope(|site_scope| {
                        let (tx, head) = (master_tx.clone(), &uplink);
                        let master = site_scope
                            .spawn(move || Ok(run_site_master(start, pool, master_rx, tx, head)?));
                        let handles: Vec<_> = (0..cores)
                            .zip(held)
                            .map(|(worker, held)| {
                                let (master_tx, uplink) = (master_tx.clone(), &uplink);
                                let ctx = SlaveCtx {
                                    site,
                                    worker,
                                    cancel: cancel.clone(),
                                    chaos: chaos.clone(),
                                    ack_gated: dedup_active,
                                    epoch,
                                    telemetry: config.telemetry.clone(),
                                    metrics: SlaveMetrics::new(&config.metrics, site, worker),
                                };
                                site_scope.spawn(move || {
                                    let reports = ReportSink::new(match uplink {
                                        Uplink::Mailbox(head_tx) => Route::Head(head_tx),
                                        Uplink::Connect(_) => Route::Master(&master_tx),
                                    });
                                    let worker =
                                        Worker::new(app, &ctx, &master_tx, &reports, config, held);
                                    run_slave(worker, router)
                                })
                            })
                            .collect();
                        let results: Vec<_> = handles.into_iter().map(joined).collect();
                        // The master exits once it learns its slaves left.
                        let _ = master_tx.send(MasterMsg::SlavesGone);
                        (results, joined(master))
                    });
                    master?;

                    merge_site_outcome(start, results)
                })
            })
            .collect();

        let site_outcomes: Vec<_> = coordinators.into_iter().map(joined).collect();
        // All masters and slaves are done; a head over channels drains and
        // exits once the last sender to its mailbox is gone.
        drop(uplink);
        (site_outcomes, joined(head_handle))
    });

    conclude(head?, site_outcomes, head_site, config, epoch)
}

/// One site's end-of-run state, as collected by its coordinator.
struct SiteOutcome<O> {
    site: SiteId,
    /// The site's locally combined reduction object (`None` when the site
    /// was revoked or fenced off as dead).
    robj: Option<O>,
    /// Its slaves' tallies and its own times; the job counts are the head's
    /// to fill in.
    sample: SiteSample,
}

/// What a run does once every thread has been joined: surface
/// failures, fence dead sites, run the global reduction and assemble the
/// report — [`assemble_report`] over the slaves' tallies and the head's, the
/// function [`cloudburst_core::derive_report`] ends in too.
fn conclude<O: ReductionObject>(
    head: HeadReport,
    site_outcomes: Vec<Result<SiteOutcome<O>, RunError>>,
    head_site: SiteId,
    config: &RuntimeConfig,
    epoch: Instant,
) -> Result<RunOutcome<O>, RunError> {
    // Worker-level failures take precedence over the aggregate
    // incompleteness report: they carry the root cause.
    let mut outcomes = Vec::with_capacity(site_outcomes.len());
    for o in site_outcomes {
        outcomes.push(o?);
    }
    if head.abandoned > 0 {
        return Err(RunError::Incomplete { abandoned: head.faults.abandoned_jobs.clone() });
    }
    // Fencing: a site the head declared dead had all its work requeued, so
    // merging its robj anyway (it may be a live site whose heartbeats were
    // merely delayed) would double-count every re-executed job.
    for o in &mut outcomes {
        if head.dead_sites.contains(&o.site) {
            o.robj = None;
        }
    }

    // ---- Global reduction phase (head collects and merges robjs) ----
    let (final_robj, global_reduction, total_time) =
        collect_global(&mut outcomes, head_site, config, epoch);
    let result = final_robj.ok_or(RunError::NothingProcessed)?;

    let samples = outcomes
        .into_iter()
        .map(|o| {
            let jobs = head.counts.get(&o.site).copied().unwrap_or_default();
            (o.site, SiteSample { jobs, ..o.sample })
        })
        .collect();
    let (env, faults) = (&config.env.name, head.faults.clone());
    let report = assemble_report(env, faults, &samples, global_reduction, total_time);
    Ok(RunOutcome { result, report, head })
}

/// Site-local combination, once every slave of `start`'s site has been
/// joined: the first slave failure if there was one, else a parallel
/// binary-tree merge of the site's worker objects, with its
/// `SiteMerged`/`SiteFinished` events. A site taken down by the chaos plan
/// loses everything it accumulated: its reduction object never reaches global
/// reduction (the head evacuates and re-runs its jobs at surviving sites).
fn merge_site_outcome<O: ReductionObject>(
    start: &MasterStart,
    results: Vec<Result<(O, SlaveSample), RunError>>,
) -> Result<SiteOutcome<O>, RunError> {
    let (site, epoch, telemetry) = (start.site, start.epoch, &start.telemetry);
    let (robjs, slaves): (Vec<O>, Vec<SlaveSample>) =
        results.into_iter().collect::<Result<Vec<_>, _>>()?.into_iter().unzip();
    let revoked = start.site_dead();
    let merge_start = Instant::now();
    let robj = if revoked { None } else { tree_reduce(robjs) };
    let merge_ns = merge_start.elapsed().as_nanos() as u64;
    // The report's times are the events' stamps read back, so a report
    // derived from the stream carries the same numbers.
    let merged = Event::span(ns_between(epoch, merge_start), merge_ns, EventKind::SiteMerged);
    let finished = Event::at(ns_since(epoch), EventKind::SiteFinished);
    telemetry.emit(merged.site(site));
    telemetry.emit(finished.site(site));
    let (local_merge, finish) = (ns_to_secs(merged.dur_ns), ns_to_secs(finished.at_ns));
    let sample = SiteSample { slaves, local_merge, finish, jobs: Default::default() };
    Ok(SiteOutcome { site, robj, sample })
}

/// The global-reduction phase. Every remote site
/// pushes its reduction object to the head concurrently — the modelled
/// inter-site transfers overlap instead of queueing one after another —
/// and the head merges arrivals in deterministic site order, so the phase
/// costs the *largest* transfer rather than their sum. Returns
/// `(result, global_reduction, total_time)`, the times being those of the
/// `GlobalReduction`/`RunFinished` events it emits.
fn collect_global<O: ReductionObject>(
    outcomes: &mut [SiteOutcome<O>],
    head_site: SiteId,
    config: &RuntimeConfig,
    epoch: Instant,
) -> (Option<O>, Seconds, Seconds) {
    let gr_start = Instant::now();
    let staged: Vec<(SiteId, O)> =
        outcomes.iter_mut().filter_map(|o| o.robj.take().map(|r| (o.site, r))).collect();
    let mut final_robj: Option<O> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = staged
            .into_iter()
            .map(|(site, robj)| {
                scope.spawn(move || {
                    if site != head_site {
                        // The reduction object crosses the inter-site link;
                        // its size is what makes pagerank's sync time large
                        // (paper §IV-B).
                        let link = config.topology.link(site.0, head_site.0);
                        Throttle::new(link, config.time_scale).transfer(robj.byte_size() as u64);
                    }
                    robj
                })
            })
            .collect();
        // Joining in site order keeps the merge order fixed, whatever order
        // the transfers actually land in.
        for h in handles {
            let robj = h.join().expect("transfer thread panicked");
            final_robj = Some(match final_robj.take() {
                None => robj,
                Some(mut acc) => {
                    acc.merge(robj);
                    acc
                }
            });
        }
    });
    let gr_ns = gr_start.elapsed().as_nanos() as u64;
    let reduced = Event::span(ns_between(epoch, gr_start), gr_ns, EventKind::GlobalReduction);
    let finished = Event::at(ns_since(epoch), EventKind::RunFinished);
    config.telemetry.emit(reduced);
    config.telemetry.emit(finished);
    (final_robj, ns_to_secs(reduced.dur_ns), ns_to_secs(finished.at_ns))
}

/// The request window's floor: jobs a master keeps queued, beyond what the
/// grant round trip drains, when its next grant lands (see
/// [`MasterPool::new`](cloudburst_core::MasterPool::new)).
pub(crate) const LOW_WATERMARK: usize = 1;

/// Units a journal has room for at least (or a chunk's, if a chunk is
/// larger). A slave settles before a job that would overflow its journal:
/// on `pagerank-ft-5050` that would be after 16 of its 4 096-edge jobs,
/// 1 MiB of notes, but a slave there settles every hand-off, ≈ 8.5 jobs, so
/// the bound seldom binds. 2¹⁵, 2¹⁷ and 2¹⁸ units measured no faster there
/// (CHANGES.md).
const JOURNAL_UNITS: usize = 1 << 16;

/// Everything one site master is told at start-up, on either transport.
pub(crate) struct MasterStart {
    pub(crate) site: SiteId,
    /// Hand-offs that keep every slave pipeline slot busy, plus one as slack
    /// (held while a hand-off is more than one job): in jobs (times what a
    /// slave takes per hand-off) the part of a request's size that does not
    /// depend on the link (see
    /// [`MasterPool::ask`](cloudburst_core::MasterPool::ask)).
    pub(crate) floor: usize,
    /// One leg of modelled control-plane latency, in real time.
    pub(crate) leg: Duration,
    pub(crate) heartbeat: Option<HeartbeatConfig>,
    pub(crate) chaos: Option<Arc<FaultPlan>>,
    /// Revocations published by the head (replica fencing, evacuation):
    /// queued jobs already fenced are dropped instead of dispatched. Channels
    /// only; over TCP they come with the head's replies alone.
    pub(crate) cancel: Option<CancelBoard>,
    pub(crate) epoch: Instant,
    pub(crate) telemetry: Telemetry,
}

impl MasterStart {
    pub(crate) fn site_dead(&self) -> bool {
        site_dead(self.chaos.as_deref(), self.site, self.epoch)
    }

    pub(crate) fn revoked(&self, chunk: ChunkId) -> bool {
        self.cancel.as_ref().is_some_and(|b| b.is_revoked(chunk))
    }
}

/// Whether the chaos plan has taken `site` down by now. A dead site stops
/// without a word: its master sends no goodbye, its slaves report nothing,
/// and what it accumulated never reaches the global reduction.
fn site_dead(chaos: Option<&FaultPlan>, site: SiteId, epoch: Instant) -> bool {
    chaos.is_some_and(|p| p.site_dead(site, epoch.elapsed().as_secs_f64()))
}

/// The longest a master sleeps with nothing due: half the heartbeat interval
/// when beaconing.
pub(crate) fn mailbox_tick(heartbeat: Option<HeartbeatConfig>) -> Duration {
    heartbeat.map_or(Duration::from_millis(50), |h| {
        Duration::from_secs_f64((h.interval / 2.0).max(1e-4))
    })
}

/// Where a slave settles — directly with the head (in-process), or through
/// its master, which forwards over the control connection (the TCP
/// deployment mode) — and the slave's one verdict channel for the run.
/// Everything else a slave reports goes to its master.
struct ReportSink<'a> {
    route: Route<'a>,
    verdict_to: Sender<Option<bool>>,
    verdicts: Receiver<Option<bool>>,
}

/// The way a slave's settles go.
enum Route<'a> {
    /// Settle straight with the head's channel.
    Head(&'a Sender<HeadMsg>),
    /// Settle through the site master.
    Master(&'a Sender<MasterMsg>),
}

impl<'a> ReportSink<'a> {
    fn new(route: Route<'a>) -> ReportSink<'a> {
        let (verdict_to, verdicts) = unbounded();
        ReportSink { route, verdict_to, verdicts }
    }

    /// Report completions the head must rule on, in one exchange: blocks for
    /// its merge/discard verdicts and puts them in `into`, one per job. A
    /// torn-down control plane can no longer merge anything: a verdict it
    /// never said is a discard.
    fn settle(&self, jobs: Vec<ChunkId>, site: SiteId, into: &mut Vec<bool>) {
        let k = jobs.len();
        // Undelivered, the report drops its verdicts unsaid.
        let reply = Verdicts::new(&self.verdict_to, k);
        let _ = match self.route {
            Route::Head(tx) => tx.send(HeadMsg::Complete { jobs, site, reply }).map_err(drop),
            Route::Master(tx) => tx.send(MasterMsg::Complete { jobs, reply }).map_err(drop),
        };
        into.clear();
        into.extend((0..k).map(|_| self.verdicts.recv().ok().flatten().unwrap_or(false)));
    }
}

/// The slave: one loop that carries out what its [`SlaveCore`] says — ask
/// the master, fetch, process, settle, report — and tells the core what came
/// of each. At depth 1 a chunk is fetched inline. At depth `d ≥ 2` a
/// companion thread, one per slave for the whole run, is a plain fetch
/// executor: a job goes in, a [`FetchedJob`] comes out. The core starts up
/// to `d` jobs — the one processing, the rest with the executor — so
/// retrieval of chunk *N+1* overlaps processing of chunk *N*.
fn run_slave<R: Reduction>(
    mut worker: Worker<'_, R>,
    router: &StoreRouter,
) -> Result<(R::RObj, SlaveSample), RunError> {
    let (ctx, master_tx) = (worker.ctx, worker.master);
    let depth = worker.config.pipeline_depth.max(1);
    let crash_after = ctx.chaos.as_deref().and_then(|p| p.crash_after(ctx.site, ctx.worker));
    let mut core = SlaveCore::new(depth, ctx.ack_gated, crash_after);
    // The buffer the batches travel in, at the bound once: grown hand-off
    // by hand-off, its outgrown blocks would stay behind in an arena.
    core.reuse_batch(Vec::with_capacity(MAX_BDP_JOBS));
    let revoked = |chunk| ctx.revoked(chunk);
    // The slave's one decode buffer, for an application that decodes a
    // group of units before it reduces them; empty between groups.
    let mut buf = Vec::new();
    std::thread::scope(|scope| {
        let executor = (depth > 1).then(|| {
            // Never full: the core starts at most `depth` jobs.
            let (job_tx, job_rx) = bounded::<LocalJob>(depth);
            let (fetched_tx, fetched_rx) = bounded::<FetchedJob>(depth);
            scope.spawn(move || {
                for job in job_rx.iter() {
                    let fetched = FetchedJob::fetch(ctx, router, job, Instant::now());
                    if fetched_tx.send(fetched).is_err() {
                        return;
                    }
                }
            });
            (job_tx, fetched_rx)
        });
        // The slave's one reply channel (one request out at a time), and
        // whether a request is out.
        let (reply_to, replies) = bounded::<Option<Answer>>(1);
        let mut asking = false;
        // A fetched job taken off the executor while the slave blocked, to
        // process once what came in meanwhile has been acted on.
        let mut landed: Option<FetchedJob> = None;
        // Nothing the slave waits for was ready at the last look.
        let mut idle = false;
        let outcome = loop {
            if ctx.site_dead() {
                break Ok(());
            }
            // The master's answer is taken the moment it is in.
            if let Some(answer) = asking.then(|| replies.try_recv().ok()).flatten() {
                (asking, idle) = (false, false);
                worker.hear(&mut core, answer);
            }
            match core.poll(idle, revoked) {
                Step::Ask => {
                    let (want, done, buf) = core.ask(worker.tick());
                    let reply = Reply::new(&reply_to);
                    if let Err(unsent) =
                        master_tx.send(MasterMsg::GetJobs { want, done, buf, reply })
                    {
                        // The master is gone: the reply the request took
                        // says so as it drops.
                        drop(unsent);
                        worker.hear(&mut core, replies.recv().ok().flatten());
                    } else {
                        asking = true;
                    }
                }
                Step::Fetch(job) => {
                    let Some((to_fetch, _)) = &executor else {
                        // Inline, the fetch begins where the last step ended.
                        let inline = FetchedJob::fetch(ctx, router, job, worker.last);
                        match worker.take(&mut core, inline, &mut buf) {
                            Ok(()) => continue,
                            Err(e) => break Err(e),
                        }
                    };
                    // Never full, and the executor outlives the loop.
                    let _ = to_fetch.send(job);
                }
                Step::Dropped(job) => worker.dropped(job),
                Step::Settle(jobs) => worker.settle(&mut core, jobs, &mut buf),
                Step::Done(jobs) => {
                    let _ = master_tx.send(MasterMsg::Done { jobs });
                }
                // The one place a slave blocks. A fetched job is taken if one
                // is ready; else, once the core has said what it holds, the
                // slave waits for the fetch in flight — it lands whatever the
                // head does — or for the master's answer. With no `select!`
                // in the vendored crossbeam, an answer that came in while it
                // waited on the fetch is taken, and the next fetches started,
                // on one more pass before the job is processed.
                Step::Wait => {
                    let fetched = executor.as_ref().map(|e| &e.1).filter(|_| core.in_flight() > 0);
                    let pre =
                        match landed.take().map(Ok).or_else(|| fetched.map(Receiver::try_recv)) {
                            Some(Ok(pre)) => pre,
                            _ if !std::mem::replace(&mut idle, true) => continue,
                            Some(_) => {
                                let pre = fetched.and_then(|rx| rx.recv().ok());
                                (landed, idle) = (Some(pre.expect("the executor runs")), false);
                                worker.tick();
                                continue;
                            }
                            None => {
                                idle = false;
                                let answer = std::mem::take(&mut asking)
                                    .then(|| replies.recv().ok().flatten())
                                    .flatten();
                                worker.hear(&mut core, answer);
                                continue;
                            }
                        };
                    idle = false;
                    if let Err(e) = worker.take(&mut core, pre, &mut buf) {
                        break Err(e);
                    }
                }
                Step::Leave => break Ok(()),
            }
        };
        // Whichever way the loop ended, what is open is settled once and
        // what is owed is said. A request still out is answered once the head
        // has heard that, and what it brings is owed back too.
        let dead = ctx.site_dead();
        if let Some(jobs) = if dead { None } else { core.settle(revoked) } {
            worker.settle(&mut core, jobs, &mut buf);
        }
        while let Some(owed) = core.leave(dead) {
            if !owed.done.is_empty() {
                let _ = master_tx.send(MasterMsg::Done { jobs: owed.done });
            }
            for job in owed.failed {
                let _ = master_tx.send(MasterMsg::Failed { job });
            }
            if !std::mem::take(&mut asking) {
                break;
            }
            worker.hear(&mut core, replies.recv().ok().flatten());
        }
        // Close the executor's queue and take what it still fetched, so it
        // is not left blocked on a full channel.
        if let Some((to_fetch, fetched)) = executor {
            drop(to_fetch);
            fetched.iter().for_each(drop);
        }
        outcome?;
        Ok(worker.finish())
    })
}

/// What a slave carries from one job to the next, and the app-typed half of
/// its work: reduce, then accept or roll back and re-reduce from the
/// verdicts.
struct Worker<'a, R: Reduction> {
    app: &'a R,
    ctx: &'a SlaveCtx,
    master: &'a Sender<MasterMsg>,
    reports: &'a ReportSink<'a>,
    config: &'a RuntimeConfig,
    /// The worker's accumulator. On the isolated path it holds, besides
    /// whole jobs the head accepted, only what `undo` can take back.
    robj: R::RObj,
    /// Under the retry policy (or any FT machinery) a job is reduced *open*
    /// ([`Reduction::reduce_open`]) and accepted only on success/ack, so a
    /// mid-chunk panic cannot leave a partially-applied job in the
    /// accumulator and a deduplicated completion is never double-merged.
    isolate: bool,
    /// What takes the open jobs back: the scratch object of the default
    /// hooks, or a journaling application's journal, reserved by the run at
    /// its bound.
    undo: Undo<R::RObj>,
    /// A panic rolled back the open jobs: at their settle each accepted one
    /// is reduced again, whatever the verdicts.
    undone: bool,
    /// The open jobs' fetched chunks in the order they were processed — a
    /// reference count on each fetch, not a copy — kept until their verdicts
    /// because after a rollback the accepted ones are reduced from them
    /// again; the core holds each job's place.
    chunks: Vec<Bytes>,
    /// The last settle's verdicts, one per reported job.
    verdicts: Vec<bool>,
    /// Bytes in a cache-sized group of units (`unit_group` units).
    group: usize,
    /// The slave's share of the run report, folded from what it `note`s.
    stats: SlaveSample,
    /// When the slave loop's last step ended, read once per transition: a
    /// fetch ends where processing begins and a job ends where the next
    /// inline fetch begins, so a depth-1 job costs two clock reads. The loop's
    /// bookkeeping between two steps is charged to the step that follows.
    last: Instant,
    slowdown: f64,
    site_factor: f64,
}

impl<'a, R: Reduction> Worker<'a, R> {
    /// A worker with the accumulator and journal its run allocated, if any.
    fn new(
        app: &'a R,
        ctx: &'a SlaveCtx,
        master: &'a Sender<MasterMsg>,
        reports: &'a ReportSink<'a>,
        config: &'a RuntimeConfig,
        (robj, journal): (Option<R::RObj>, Journal),
    ) -> Worker<'a, R> {
        let chaos = ctx.chaos.as_deref();
        Worker {
            app,
            ctx,
            master,
            reports,
            config,
            robj: robj.unwrap_or_else(|| app.make_robj()),
            isolate: ctx.ack_gated || matches!(config.fault_policy, FaultPolicy::Retry { .. }),
            undo: Undo::new(journal),
            undone: false,
            chunks: Vec::new(),
            verdicts: Vec::new(),
            group: config.unit_group.max(1).saturating_mul(app.unit_size()),
            stats: SlaveSample::default(),
            last: Instant::now(),
            slowdown: chaos.map_or(0.0, |p| p.worker_delay(ctx.site, ctx.worker)),
            site_factor: chaos.map_or(1.0, |p| p.site_slowdown(ctx.site)),
        }
    }

    /// A transition of the slave loop: the clock read once, as the time the
    /// next step begins, on the run clock.
    fn tick(&mut self) -> Seconds {
        self.last = Instant::now();
        self.ctx.secs(self.last)
    }

    /// Tell the core what its master answered, now (`None`: the master is
    /// gone), and hand it back the buffer its completions went out in. An
    /// answer that brings jobs is a hand-off.
    fn hear(&mut self, core: &mut SlaveCore, answer: Option<Answer>) {
        let now = self.tick();
        let Some((take, done)) = answer else { return core.answer(None, now) };
        if let Take::Jobs(jobs) = &take {
            let hand_off = EventKind::HandOff { jobs: jobs.len() as u64 };
            let at = ns_between(self.ctx.epoch, self.last);
            self.ctx.note(&mut self.stats, Event::at(at, hand_off));
        }
        core.reuse_done(done);
        core.answer(Some(take), now);
    }

    /// Drop `job` unprocessed: its execution was revoked while it waited.
    fn dropped(&mut self, job: ChunkId) {
        let dropped = Event::at(ns_since(self.ctx.epoch), EventKind::JobDropped);
        self.ctx.note(&mut self.stats, dropped.chunk(job));
    }

    /// Take over a fetched job: fenced by the core at the hand-off,
    /// processed, and its outcome told to the core. Whatever goes wrong with
    /// it — retrieval error or a panic inside the application's reduce — is
    /// reported to the master, which tells the head, or the masters would
    /// poll for it forever; under
    /// `FailFast` it ends the slave. `buf` is the slave's decode buffer.
    fn take(
        &mut self,
        core: &mut SlaveCore,
        pre: FetchedJob,
        buf: &mut Vec<R::Item>,
    ) -> Result<(), RunError> {
        let (ctx, job) = (self.ctx, pre.job.chunk.id);
        // Processing can begin once both the fetch and the slave's last step
        // are over.
        self.last = self.last.max(pre.fetch_end);
        if !core.hand_off(job, |chunk| ctx.revoked(chunk)) {
            self.dropped(job);
            return Ok(());
        }
        // What is open is settled first if this job's notes would overflow
        // the journal: it never grows on this thread.
        let notes = self.app.journal_len(pre.job.chunk.n_units as usize);
        if self.isolate && notes > self.undo.journal.room() {
            if let Some(jobs) = core.settle(|chunk| ctx.revoked(chunk)) {
                self.settle(core, jobs, buf);
            }
        }
        match self.process_job(pre, buf) {
            Ok((kept, began, ended)) => {
                core.processed(job, kept, ctx.secs(began), ctx.secs(ended));
            }
            Err(e) => {
                core.failed();
                let _ = self.master.send(MasterMsg::Failed { job });
                // Under the retry policy the head requeues or abandons it.
                if self.config.fault_policy == FaultPolicy::FailFast {
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Report `jobs` in one exchange and act on the head's verdicts. All
    /// merged — nearly always — the open jobs' reduce is accepted as it
    /// stands. If a job was refused, was revoked while it was open (it lost
    /// its race: neither reported nor merged), or a panic rolled the open
    /// jobs back, they are rolled back (once) and each accepted job is
    /// reduced again from its kept chunk and accepted on its own.
    fn settle(&mut self, core: &mut SlaveCore, jobs: Vec<ChunkId>, buf: &mut Vec<R::Item>) {
        let (app, ctx) = (self.app, self.ctx);
        self.verdicts.clear();
        if !jobs.is_empty() {
            let settled = EventKind::Settled { jobs: jobs.len() as u64 };
            ctx.note(&mut self.stats, Event::at(ns_since(ctx.epoch), settled));
            self.reports.settle(jobs, ctx.site, &mut self.verdicts);
            // The exchange blocked: what follows begins when it is over.
            self.last = Instant::now();
        }
        let (all_merged, merged) = core.settled(&self.verdicts);
        if all_merged && !self.undone {
            app.accept(&mut self.robj, &mut self.undo);
        } else {
            if !std::mem::take(&mut self.undone) {
                app.rollback(&mut self.robj, &mut self.undo);
            }
            for (job, kept) in merged {
                for chunk in &self.chunks[kept] {
                    reduce_chunk(app, &mut self.robj, Some(&mut self.undo), chunk, self.group, buf);
                }
                app.accept(&mut self.robj, &mut self.undo);
                let rereduced = Event::at(ns_since(ctx.epoch), EventKind::JobRereduced);
                ctx.note(&mut self.stats, rereduced.chunk(job));
            }
        }
        self.chunks.clear();
    }

    /// Account for one retrieval, reduce the chunk and sit out any injected
    /// straggling. Processing begins at the slave's last transition and its
    /// end is the next one. Returns where the job's chunk is kept, when it
    /// began and when it ended. Without dedup no duplicate can exist, so the
    /// completion is merged by construction and an isolated job is accepted
    /// at once; ack-gated its chunk is kept until the verdict. A panic rolls
    /// back every open job, and the chunk is not kept.
    fn process_job(
        &mut self,
        pre: FetchedJob,
        buf: &mut Vec<R::Item>,
    ) -> Result<(std::ops::Range<usize>, Instant, Instant), RunError> {
        let ctx = self.ctx;
        let FetchedJob { job, fetched, fetch_start, fetch_end } = pre;
        let fetch_dur = fetch_end.saturating_duration_since(fetch_start);
        let (job, fetched) = (&job, fetched?);
        let (bytes, remote, retries) =
            (fetched.bytes.len() as u64, fetched.remote, fetched.retries);
        if retries > 0 {
            let retried = Event::at(ns_since(ctx.epoch), EventKind::StorageRetry { retries });
            ctx.note(&mut self.stats, of_job(retried, job));
        }
        // Emitted here rather than by the fetch executor, so a job fetched
        // and never processed is in neither the event stream nor the tally
        // folded from it; the span still carries the fetch's true timing.
        let fetch = EventKind::ChunkFetched { bytes, remote, retries };
        let fetch =
            Event::span(ns_between(ctx.epoch, fetch_start), fetch_dur.as_nanos() as u64, fetch);
        ctx.note(&mut self.stats, of_job(fetch, job));

        let proc_start = self.last;
        let (app, group) = (self.app, self.group);
        let undo = self.isolate.then_some(&mut self.undo);
        let processed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reduce_chunk(app, &mut self.robj, undo, &fetched.bytes, group, buf);
        }));
        if let Err(p) = processed {
            // The accumulator may hold a half-applied job: every open job is
            // taken back, and so is whatever the aborted group left in the
            // buffer. The jobs open before it keep their chunks; the core
            // settles them next, and each accepted one is reduced again.
            buf.clear();
            if self.isolate {
                app.rollback(&mut self.robj, &mut self.undo);
                self.undone = !self.chunks.is_empty();
            }
            self.last = Instant::now();
            return Err(RunError::WorkerPanic(panic_msg(&*p)));
        }
        let proc_end = Instant::now();
        let proc_dur = proc_end.saturating_duration_since(proc_start);
        let processed = Event::span(
            ns_between(ctx.epoch, proc_start),
            proc_dur.as_nanos() as u64,
            EventKind::JobProcessed,
        );
        ctx.note(&mut self.stats, of_job(processed, job));

        // Injected straggling: a fixed per-worker delay plus a site-wide
        // multiplicative slowdown scaled by this job's real elapsed time.
        let delay = self.slowdown
            + (self.site_factor - 1.0) * (fetch_dur.as_secs_f64() + proc_dur.as_secs_f64());
        if delay > 0.0 {
            // Crawl through the injected delay in small steps so a
            // cancellation (our lease was reaped, or a duplicate copy won)
            // or the site's death aborts the wait.
            let until = Instant::now() + Duration::from_secs_f64(delay);
            while Instant::now() < until && !ctx.site_dead() && !ctx.revoked(job.chunk.id) {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        // No clock is read for a job nothing delayed.
        let ended = if delay > 0.0 { Instant::now() } else { proc_end };
        self.last = ended;
        let kept = self.chunks.len()..self.chunks.len() + 1;
        if ctx.ack_gated {
            self.chunks.push(fetched.bytes);
        } else if self.isolate {
            app.accept(&mut self.robj, &mut self.undo);
        }
        Ok((kept, proc_start, ended))
    }

    fn finish(mut self) -> (R::RObj, SlaveSample) {
        let finished = Event::at(ns_since(self.ctx.epoch), EventKind::SlaveFinished);
        self.ctx.note(&mut self.stats, finished);
        (self.robj, self.stats)
    }
}

/// Reduce `chunk` into `robj` `group` bytes of units at a time: open
/// ([`Reduction::reduce_open`]) when there is an `undo` to take it back by,
/// else through the one call the classic path makes on fetched data,
/// [`Reduction::reduce_units`]. `buf` is left empty.
fn reduce_chunk<R: Reduction>(
    app: &R,
    robj: &mut R::RObj,
    mut undo: Option<&mut Undo<R::RObj>>,
    chunk: &[u8],
    group: usize,
    buf: &mut Vec<R::Item>,
) {
    for units in chunk.chunks(group) {
        match undo.as_deref_mut() {
            Some(undo) => app.reduce_open(robj, undo, units, buf),
            None => app.reduce_units(robj, units, buf),
        }
    }
    buf.clear();
}

/// A granted job and the outcome of retrieving its chunk — what the fetch
/// half of a slave (its own loop, or the fetch executor) hands to
/// [`Worker::take`].
struct FetchedJob {
    job: LocalJob,
    fetched: Result<Fetched, RunError>,
    fetch_start: Instant,
    fetch_end: Instant,
}

impl FetchedJob {
    /// Retrieve `job`'s chunk, begun at `fetch_start`; the job starts then,
    /// on the thread that fetches it, and the clock is read once, at the end.
    fn fetch(
        ctx: &SlaveCtx,
        router: &StoreRouter,
        job: LocalJob,
        fetch_start: Instant,
    ) -> FetchedJob {
        ctx.started(&job, fetch_start);
        let fetched = router.fetch(ctx.site, &job.chunk);
        FetchedJob { job, fetched, fetch_start, fetch_end: Instant::now() }
    }
}

fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use cloudburst_core::slave::QUANTUM;
    use cloudburst_core::{reduce_serial, LayoutParams, Merge};
    use cloudburst_storage::{fraction_placement, organize, organize_redundant};

    /// Units are little-endian u32s; the result is their sum (order-free).
    struct SumApp;

    #[derive(Debug, PartialEq, Eq)]
    struct SumObj(u64);

    impl Merge for SumObj {
        fn merge(&mut self, other: Self) {
            self.0 += other.0;
        }
    }
    impl ReductionObject for SumObj {
        fn byte_size(&self) -> usize {
            8
        }
    }
    impl Reduction for SumApp {
        type Item = u32;
        type RObj = SumObj;
        fn make_robj(&self) -> SumObj {
            SumObj(0)
        }
        fn unit_size(&self) -> usize {
            4
        }
        fn decode(&self, chunk: &[u8], out: &mut Vec<u32>) {
            out.extend(chunk.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().unwrap())));
        }
        fn local_reduce(&self, robj: &mut SumObj, item: &u32) {
            robj.0 += u64::from(*item);
        }
    }

    fn dataset(units: u32) -> Bytes {
        Bytes::from((0..units).flat_map(|i| i.to_le_bytes()).collect::<Vec<_>>())
    }

    fn setup(
        units: u32,
        local_frac: f64,
        n_files: u32,
    ) -> (DataIndex, BTreeMap<SiteId, Arc<dyn ChunkStore>>) {
        let data = dataset(units);
        let params = LayoutParams { unit_size: 4, units_per_chunk: 64, n_files };
        let org = organize(&data, params, &mut fraction_placement(local_frac, n_files)).unwrap();
        let stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = org
            .stores
            .iter()
            .map(|(&s, st)| (s, Arc::new(st.clone()) as Arc<dyn ChunkStore>))
            .collect();
        (org.index, stores)
    }

    fn setup_redundant(
        units: u32,
        local_frac: f64,
        n_files: u32,
        r: u32,
    ) -> (DataIndex, BTreeMap<SiteId, Arc<dyn ChunkStore>>) {
        let data = dataset(units);
        let params = LayoutParams { unit_size: 4, units_per_chunk: 64, n_files };
        let org =
            organize_redundant(&data, params, &mut fraction_placement(local_frac, n_files), r)
                .unwrap();
        let stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = org
            .stores
            .iter()
            .map(|(&s, st)| (s, Arc::new(st.clone()) as Arc<dyn ChunkStore>))
            .collect();
        (org.index, stores)
    }

    fn fast_config(env: EnvConfig) -> RuntimeConfig {
        let mut c = RuntimeConfig::new(env, 1e-5);
        c.fetch = FetchConfig { threads: 2, min_range: 64 };
        c
    }

    fn expected_sum(units: u32) -> u64 {
        (0..units).map(u64::from).sum()
    }

    /// Slow every worker a little so jobs take milliseconds, not
    /// microseconds: the crash-injection tests need the to-crash worker to
    /// reliably reach its fatal take before its peers drain the site's
    /// queue, which a scheduler hiccup on a loaded box would otherwise race.
    fn slow_all_workers(plan: &mut FaultPlan, delay: f64) {
        for site in [SiteId::LOCAL, SiteId::CLOUD] {
            for worker in 0..2 {
                plan.slow_workers.push(cloudburst_core::SlowWorker {
                    site,
                    worker,
                    delay_per_job: delay,
                });
            }
        }
    }

    #[test]
    fn hybrid_run_matches_serial_oracle() {
        let units = 4096;
        let (index, stores) = setup(units, 0.5, 4);
        let env = EnvConfig::new("env-50/50", 0.5, 3, 3);
        let out = run_hybrid(&SumApp, &index, stores, &fast_config(env)).unwrap();
        assert_eq!(out.result.0, expected_sum(units));
        assert_eq!(out.report.total_jobs(), index.n_chunks() as u64);
        assert!(out.report.total_time > 0.0);
    }

    #[test]
    fn centralized_local_run_works() {
        let units = 1024;
        let (index, stores) = setup(units, 1.0, 2);
        let env = EnvConfig::new("env-local", 1.0, 4, 0);
        let out = run_hybrid(&SumApp, &index, stores, &fast_config(env)).unwrap();
        assert_eq!(out.result.0, expected_sum(units));
        // Single site, all data local: nothing stolen.
        assert_eq!(out.report.total_stolen(), 0);
        assert_eq!(out.report.sites.len(), 1);
    }

    #[test]
    fn skewed_data_forces_stealing() {
        // All data in the cloud, cores on both sides: the local cluster can
        // only contribute by stealing.
        let units = 8192;
        let (index, stores) = setup(units, 0.0, 4);
        let env = EnvConfig::new("steal", 0.0, 3, 3);
        let out = run_hybrid(&SumApp, &index, stores, &fast_config(env)).unwrap();
        assert_eq!(out.result.0, expected_sum(units));
        let local = &out.report.sites[&SiteId::LOCAL];
        assert_eq!(local.jobs.local, 0);
        assert!(local.jobs.stolen > 0, "local cluster must steal cloud jobs");
        assert!(local.remote_bytes > 0);
    }

    #[test]
    fn result_identical_across_environments() {
        let units = 2048;
        let serial = {
            let data = dataset(units);
            reduce_serial(&SumApp, [data.as_ref()])
        };
        for (frac, lc, cc) in [(1.0, 4, 0), (0.0, 0, 4), (0.5, 2, 2), (0.17, 2, 2)] {
            let (index, stores) = setup(units, frac, 4);
            let env = EnvConfig::new("x", frac, lc, cc);
            let out = run_hybrid(&SumApp, &index, stores, &fast_config(env)).unwrap();
            assert_eq!(out.result, serial, "env ({frac},{lc},{cc}) diverged");
        }
    }

    #[test]
    fn head_accounting_is_consistent() {
        let units = 2048;
        let (index, stores) = setup(units, 0.33, 4);
        let env = EnvConfig::new("x", 0.33, 2, 2);
        let out = run_hybrid(&SumApp, &index, stores, &fast_config(env)).unwrap();
        assert_eq!(out.head.completions, index.n_chunks() as u64);
        let total: u64 = out.head.counts.values().map(|c| c.total()).sum();
        assert_eq!(total, index.n_chunks() as u64);
        assert!(out.head.requests > 0);
    }

    #[test]
    fn missing_store_fails_before_spawning() {
        let (index, mut stores) = setup(512, 0.5, 2);
        stores.remove(&SiteId::CLOUD);
        let env = EnvConfig::new("x", 0.5, 2, 2);
        let err = run_hybrid(&SumApp, &index, stores, &fast_config(env)).unwrap_err();
        assert!(matches!(err, RunError::NoStoreForSite(SiteId::CLOUD)));
    }

    #[test]
    fn a_time_scale_no_link_can_be_slept_at_is_refused_before_spawning() {
        // Finite and positive, but the link between the two sites, stretched
        // by it, outlasts any `Duration`: an error, not a panic on the thread
        // that would sleep it.
        let (index, stores) = setup(512, 0.5, 2);
        let config =
            RuntimeConfig { time_scale: 1e300, ..fast_config(EnvConfig::new("x", 0.5, 1, 1)) };
        let err = run_hybrid(&SumApp, &index, stores.clone(), &config).unwrap_err();
        assert!(matches!(&err, RunError::InvalidConfig(m) if m.contains("1e300 ")), "{err}");
        for time_scale in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let config = RuntimeConfig { time_scale, ..config.clone() };
            let err = run_hybrid(&SumApp, &index, stores.clone(), &config).unwrap_err();
            assert!(matches!(err, RunError::InvalidConfig(_)), "{time_scale}: {err}");
        }
    }

    #[test]
    fn report_breakdowns_are_populated() {
        let units = 4096;
        let (index, stores) = setup(units, 0.5, 4);
        let env = EnvConfig::new("x", 0.5, 2, 2);
        let out = run_hybrid(&SumApp, &index, stores, &fast_config(env)).unwrap();
        for (site, s) in &out.report.sites {
            assert!(s.finish_time > 0.0, "{site} finish time");
            assert!(s.breakdown.total() > 0.0, "{site} breakdown");
            assert!(s.idle >= 0.0);
        }
        let b = out.report.overall_breakdown();
        assert!(b.total() >= out.report.global_reduction);
    }

    #[test]
    fn ft_machinery_preserves_results() {
        // Leases, speculation, heartbeats, acked completions, and storage
        // retries all on — with no faults injected, the answer and the job
        // accounting must match the fault-oblivious run exactly.
        let units = 4096;
        let (index, stores) = setup(units, 0.5, 4);
        let env = EnvConfig::new("ft-quiet", 0.5, 3, 3);
        let mut config = fast_config(env);
        config.fault_policy = FaultPolicy::Retry { max_attempts: 4 };
        config.ft = FtConfig {
            lease: Some(LeaseConfig::default()),
            speculate: true,
            // Generous timeout: a loaded test machine must not evacuate a
            // site that is merely slow to schedule threads.
            heartbeat: Some(HeartbeatConfig { interval: 0.02, timeout: 10.0 }),
            retry: Some(RetryPolicy::default()),
            chaos: None,
        };
        let out = run_hybrid(&SumApp, &index, stores, &config).unwrap();
        assert_eq!(out.result.0, expected_sum(units));
        assert!(out.head.dead_sites.is_empty());
        assert_eq!(out.head.abandoned, 0);
        assert_eq!(out.report.total_jobs(), index.n_chunks() as u64);
    }

    /// A store that fails the `n`-th read after it is armed with `n`, and
    /// remembers the offset that read was for.
    struct FusedStore {
        inner: Arc<dyn ChunkStore>,
        reads_left: std::sync::atomic::AtomicI64,
        blown_at: std::sync::atomic::AtomicU64,
    }

    impl ChunkStore for FusedStore {
        fn site(&self) -> SiteId {
            self.inner.site()
        }
        fn read(
            &self,
            file: cloudburst_core::FileId,
            offset: cloudburst_core::ByteSize,
            len: cloudburst_core::ByteSize,
        ) -> std::io::Result<Bytes> {
            if self.reads_left.fetch_sub(1, std::sync::atomic::Ordering::SeqCst) == 1 {
                self.blown_at.store(offset, std::sync::atomic::Ordering::SeqCst);
                return Err(std::io::Error::other("injected: fuse blown"));
            }
            self.inner.read(file, offset, len)
        }
        fn file_len(&self, file: cloudburst_core::FileId) -> std::io::Result<u64> {
            self.inner.file_len(file)
        }
        fn n_files(&self) -> usize {
            self.inner.n_files()
        }
    }

    /// 160-byte chunks of `SumApp` units, all at `site`, behind a fuse.
    fn fused_setup(chunks: u32, site: SiteId) -> (DataIndex, Arc<FusedStore>) {
        let data = dataset(chunks * 40);
        let params = LayoutParams { unit_size: 4, units_per_chunk: 40, n_files: 1 };
        let frac = if site == SiteId::LOCAL { 1.0 } else { 0.0 };
        let org = organize(&data, params, &mut fraction_placement(frac, 1)).unwrap();
        let inner = Arc::new(org.stores[&site].clone()) as Arc<dyn ChunkStore>;
        let fused = FusedStore {
            inner,
            reads_left: std::sync::atomic::AtomicI64::new(i64::MAX / 2),
            blown_at: std::sync::atomic::AtomicU64::new(u64::MAX),
        };
        (org.index, Arc::new(fused))
    }

    /// What a scripted control plane saw of one slave.
    #[derive(Default)]
    struct Seen {
        /// The `want` of every request for jobs.
        wants: Vec<usize>,
        /// Completion reports, one entry per message: lists that rode a
        /// request, a leaving slave's last list, and settled batches.
        reports: Vec<Vec<ChunkId>>,
        failed: Vec<ChunkId>,
    }

    impl Seen {
        fn reported(&self) -> Vec<ChunkId> {
            self.reports.concat()
        }
    }

    fn local_ctx(
        ack_gated: bool,
        cancel: Option<CancelBoard>,
        chaos: Option<FaultPlan>,
    ) -> SlaveCtx {
        SlaveCtx {
            site: SiteId::LOCAL,
            worker: 0,
            cancel,
            chaos: chaos.map(Arc::new),
            ack_gated,
            epoch: Instant::now(),
            telemetry: Telemetry::off(),
            metrics: SlaveMetrics::default(),
        }
    }

    /// One local site, one slave, plain reads of whole chunks from `store`.
    fn one_slave(
        store: Arc<dyn ChunkStore>,
        depth: usize,
        fault_policy: FaultPolicy,
    ) -> (RuntimeConfig, StoreRouter) {
        let mut config = fast_config(EnvConfig::new("scripted", 1.0, 1, 0));
        config.fetch = FetchConfig { threads: 1, min_range: 1 << 20 };
        config.pipeline_depth = depth;
        config.fault_policy = fault_policy;
        let stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = [(SiteId::LOCAL, store)].into();
        let router = StoreRouter::new(stores, &config.topology, config.fetch, 1e-9);
        (config, router)
    }

    fn jobs_of(chunks: &[cloudburst_core::ChunkMeta]) -> Take {
        if chunks.is_empty() {
            return Take::Drained;
        }
        Take::Jobs(chunks.iter().map(|&chunk| LocalJob { chunk, stolen: false, span: 0 }).collect())
    }

    /// What a run hands a slave of `app`: nothing made, and a journal
    /// reserved at the run's bound if the application journals.
    fn held<R: Reduction>(app: &R) -> (Option<R::RObj>, Journal) {
        (None, Journal::with_capacity(app.journal_len(JOURNAL_UNITS)))
    }

    /// Run one slave against a scripted master and head. The master answers
    /// every request for jobs with `grant(want)`; the head — or, when the
    /// slave settles `through_master`, the master on its behalf — rules
    /// `verdict(job)` on every job of a report that waits for verdicts.
    fn scripted_slave<R: Reduction>(
        app: &R,
        ctx: SlaveCtx,
        (config, router): &(RuntimeConfig, StoreRouter),
        through_master: bool,
        mut grant: impl FnMut(usize) -> Take,
        verdict: impl Fn(ChunkId) -> bool + Sync,
    ) -> (Result<(R::RObj, SlaveSample), RunError>, Seen) {
        let (master_tx, master_rx) = unbounded::<MasterMsg>();
        let (head_tx, head_rx) = unbounded::<HeadMsg>();
        let verdict = &verdict;
        std::thread::scope(|scope| {
            let head = scope.spawn(move || {
                let mut settled = Vec::new();
                for msg in head_rx.iter() {
                    let HeadMsg::Complete { jobs, mut reply, .. } = msg else {
                        panic!("a slave sends the head nothing but its settles")
                    };
                    jobs.iter().for_each(|&j| reply.send(verdict(j)));
                    settled.push(jobs);
                }
                settled
            });
            let slave = scope.spawn({
                let master_tx = master_tx.clone();
                move || {
                    let reports = ReportSink::new(if through_master {
                        Route::Master(&master_tx)
                    } else {
                        Route::Head(&head_tx)
                    });
                    run_slave(
                        Worker::new(app, &ctx, &master_tx, &reports, config, held(app)),
                        router,
                    )
                }
            });
            let mut seen = Seen::default();
            let mut serve = |msg: MasterMsg| match msg {
                MasterMsg::GetJobs { want, done, reply, .. } => {
                    seen.wants.push(want);
                    if !done.is_empty() {
                        seen.reports.push(done);
                    }
                    reply.send((grant(want), Vec::new()));
                }
                MasterMsg::Complete { jobs, mut reply } => {
                    jobs.iter().for_each(|&job| reply.send(verdict(job)));
                    seen.reports.push(jobs);
                }
                MasterMsg::Done { jobs } => seen.reports.push(jobs),
                MasterMsg::Failed { job } => seen.failed.push(job),
                _ => panic!("unexpected message to the master"),
            };
            while !slave.is_finished() {
                if let Ok(msg) = master_rx.recv_timeout(Duration::from_millis(1)) {
                    serve(msg);
                }
            }
            while let Ok(msg) = master_rx.try_recv() {
                serve(msg);
            }
            let outcome = slave.join().unwrap();
            // The slave's was the last sender to the head.
            seen.reports.extend(head.join().unwrap());
            (outcome, seen)
        })
    }

    #[test]
    fn a_slave_that_errors_out_mid_batch_says_what_it_finished_and_hands_the_rest_back() {
        // A scripted master gives the slave what it asks for; the store
        // fails the second read after the first batch of at least four was
        // granted (serially, that batch's second job). The slave (FailFast)
        // must return that error having reported every job fetched before
        // that read complete, the job it failed failed, and every job it
        // was granted and never processed failed too — what was still
        // waiting in its batch and, pipelined, what its fetch executor had
        // in hand — whether it settles with the head directly or through its
        // master, and whether or not a report waits for verdicts (the fatal
        // batch's first job is then still open when the error strikes).
        for (through_master, depth, ack_gated) in [
            (false, 1, false),
            (true, 1, false),
            (false, 3, false),
            (true, 3, false),
            (false, 1, true),
            (true, 1, true),
            (false, 3, true),
            (true, 3, true),
        ] {
            let (index, store) = fused_setup(400, SiteId::LOCAL);
            let plane = one_slave(store.clone(), depth, FaultPolicy::FailFast);
            let mut chunks = index.chunks.iter();
            let (mut batch_len, mut granted) = (0, 0);
            let grant = |want: usize| {
                let jobs: Vec<_> = chunks.by_ref().take(want).copied().collect();
                granted += jobs.len();
                if batch_len == 0 && jobs.len() >= 4 {
                    batch_len = jobs.len();
                    store.reads_left.store(2, std::sync::atomic::Ordering::SeqCst);
                }
                jobs_of(&jobs)
            };
            let ctx = local_ctx(ack_gated, None, None);
            let (outcome, seen) =
                scripted_slave(&SumApp, ctx, &plane, through_master, grant, |_| true);
            let what =
                format!("through the master: {through_master}, depth {depth}, acked: {ack_gated}");
            assert!(matches!(outcome, Err(RunError::Io(_))), "{what}: {:?}", outcome.map(|_| ()));
            let wants = &seen.wants;
            assert_eq!(wants[0], 1, "{what}: nothing is known before the first job");
            assert!(wants.iter().all(|&w| (1..=MAX_BDP_JOBS).contains(&w)), "{what}: {wants:?}");
            assert!(batch_len >= 4, "{what}: 160-byte jobs are asked for in batches, {wants:?}");
            // Chunks are fetched in grant order, so what was fetched before
            // the failed read is done, and the job it failed and every job
            // granted behind it are failed, each exactly once. Serially the
            // failed read is the fatal batch's second job; a deeper pipeline
            // fetches and asks ahead, so it may strike earlier in grant order.
            let blown_at = store.blown_at.load(std::sync::atomic::Ordering::SeqCst);
            let k = index.chunks.iter().position(|c| c.offset == blown_at).expect("a read failed");
            if depth == 1 {
                assert_eq!(k, granted - batch_len + 1, "{what}: the fatal batch's second job");
            }
            let ids = |chunks: &[cloudburst_core::ChunkMeta]| -> Vec<ChunkId> {
                chunks.iter().map(|c| c.id).collect()
            };
            let (mut done, mut failed) = (seen.reported(), seen.failed);
            done.sort_unstable();
            failed.sort_unstable();
            assert_eq!(done, ids(&index.chunks[..k]), "{what}: fetched before the failed read");
            let rest = ids(&index.chunks[k..granted]);
            assert_eq!(failed, rest, "{what}: the error, and the rest handed back");
        }
    }

    /// `SumApp` with a hook on every chunk it decodes, handed the chunk's
    /// first unit.
    struct HookedSum<F>(F);

    impl<F: Fn(u32) + Send + Sync> Reduction for HookedSum<F> {
        type Item = u32;
        type RObj = SumObj;
        fn make_robj(&self) -> SumObj {
            SumObj(0)
        }
        fn unit_size(&self) -> usize {
            4
        }
        fn decode(&self, chunk: &[u8], out: &mut Vec<u32>) {
            SumApp.decode(chunk, out);
            (self.0)(out[out.len() - 40]);
        }
        fn local_reduce(&self, robj: &mut SumObj, item: &u32) {
            SumApp.local_reduce(robj, item);
        }
    }

    /// The sum of the units of `fused_setup`'s chunk `i`.
    fn chunk_sum(i: u32) -> u64 {
        (i * 40..(i + 1) * 40).map(u64::from).sum()
    }

    #[test]
    fn a_refused_job_costs_its_batch_mates_a_second_reduce_and_nothing_else() {
        refused_batch_mates_are_reduced_again(&SumApp);
    }

    #[test]
    fn a_refused_job_rolls_a_journal_back_and_costs_its_batch_mates_a_second_reduce() {
        refused_batch_mates_are_reduced_again(&JournalingSum::default());
    }

    /// Three jobs open on one worker, then one report; the head merges the
    /// first and the third and calls the second a duplicate. The accumulator
    /// must hold exactly the two accepted chunks, nothing may be left to
    /// take back, and the accepted two were reduced twice.
    fn refused_batch_mates_are_reduced_again<R: Reduction<RObj = SumObj>>(app: &R) {
        let (index, store) = fused_setup(3, SiteId::LOCAL);
        let (config, router) = one_slave(store, 1, FaultPolicy::FailFast);
        let (head_tx, head_rx) = unbounded::<HeadMsg>();
        let duplicate = index.chunks[1].id;
        let head = std::thread::spawn(move || {
            let mut reports = Vec::new();
            for msg in head_rx.iter() {
                let HeadMsg::Complete { jobs, mut reply, .. } = msg else {
                    panic!("only reports that wait for verdicts are expected")
                };
                jobs.iter().for_each(|&j| reply.send(j != duplicate));
                reports.push(jobs);
            }
            reports
        });
        let ctx = local_ctx(true, None, None);
        let reports = ReportSink::new(Route::Head(&head_tx));
        let (master_tx, _master_rx) = unbounded::<MasterMsg>();
        let mut worker = Worker::new(app, &ctx, &master_tx, &reports, &config, held(app));
        let mut core = SlaveCore::new(1, true, None);
        let mut buf = Vec::new();
        let jobs = index.chunks.iter().map(|&chunk| LocalJob { chunk, stolen: false, span: 0 });
        core.answer(Some(Take::Jobs(jobs.collect())), 0.0);
        loop {
            match core.poll(false, |_| false) {
                Step::Fetch(job) => {
                    let pre = FetchedJob::fetch(&ctx, &router, job, worker.last);
                    worker.take(&mut core, pre, &mut buf).unwrap();
                }
                Step::Settle(jobs) => worker.settle(&mut core, jobs, &mut buf),
                Step::Ask => break,
                step => panic!("{step:?}"),
            }
        }
        // An ask with nothing in flight comes after the open jobs' settle.
        assert!(worker.chunks.is_empty() && core.in_flight() == 0);
        assert!(buf.is_empty(), "no decoded unit outlives its group");
        let undo = &worker.undo;
        assert!(
            undo.scratch.is_none() && undo.journal.is_empty(),
            "nothing open after the verdicts"
        );
        assert_eq!(worker.robj, SumObj(chunk_sum(0) + chunk_sum(2)));
        let rereduced = worker.stats.rereduced;
        drop(worker);
        drop(head_tx);
        let reports = head.join().unwrap();
        assert_eq!(reports.concat(), index.chunks.iter().map(|c| c.id).collect::<Vec<_>>());
        // (A stall of a quantum between two of the jobs splits the report;
        // whatever shared a message with the duplicate was reduced again.)
        let mates = reports.iter().find(|r| r.contains(&duplicate)).unwrap().len() as u64 - 1;
        assert_eq!(rereduced, mates);
        assert!(core.ask(0.0).1.is_empty(), "no completion of an ack-gated slave rides a request");
    }

    /// `SumApp` reading its units where they lie, counting every `decode`
    /// it is asked for.
    #[derive(Default)]
    struct InPlaceSum(std::sync::atomic::AtomicUsize);

    impl Reduction for InPlaceSum {
        type Item = u32;
        type RObj = SumObj;
        fn make_robj(&self) -> SumObj {
            SumObj(0)
        }
        fn unit_size(&self) -> usize {
            4
        }
        fn decode(&self, chunk: &[u8], out: &mut Vec<u32>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            SumApp.decode(chunk, out);
        }
        fn local_reduce(&self, robj: &mut SumObj, item: &u32) {
            SumApp.local_reduce(robj, item);
        }
        fn reduce_units(&self, robj: &mut SumObj, units: &[u8], _: &mut Vec<u32>) {
            for unit in units.chunks_exact(4) {
                robj.0 += u64::from(u32::from_le_bytes(unit.try_into().unwrap()));
            }
        }
    }

    #[test]
    fn an_ack_gated_slave_keeps_its_chunks_encoded_and_never_decodes() {
        // A whole run under the FT stack, on both control planes and at
        // depth 1 and 3: exact, and not one unit decoded.
        for (transport, depth) in TRANSPORTS.into_iter().flat_map(|t| [(t, 1), (t, 3)]) {
            let units = 8192;
            let (index, stores) = setup(units, 0.5, 4);
            let mut config = fast_config(EnvConfig::new("ft-in-place", 0.5, 2, 2));
            config.pipeline_depth = depth;
            config.ft = FtConfig::enabled();
            let app = InPlaceSum::default();
            let out = run_on(transport, &app, &index, stores, &config).unwrap();
            let what = format!("{transport:?}, depth {depth}");
            assert_eq!(out.result.0, expected_sum(units), "{what}");
            assert_eq!(app.0.into_inner(), 0, "{what}: the runtime decoded");
        }
        // A refused batch-mate's neighbours are reduced again from their
        // kept chunks, still without a decode.
        let app = InPlaceSum::default();
        refused_batch_mates_are_reduced_again(&app);
        assert_eq!(app.0.into_inner(), 0, "the re-reduce decoded");
    }

    #[test]
    fn a_panic_in_a_batch_leaves_the_jobs_before_it_reportable_and_mergeable() {
        let hook = |first| assert_ne!(first, 2 * 40, "injected: chunk 2 panics");
        panic_in_a_batch(&HookedSum(hook));
        // Half-way through its chunk, with the jobs before it in the
        // accumulator: the journal takes all three back.
        panic_in_a_batch(&JournalingSum(std::sync::atomic::AtomicUsize::new(0), hook));
    }

    /// Four jobs in one hand-off, the third panics in the application. Under
    /// the retry policy the slave goes on: the first two are reported and
    /// merged although the panic rolled back the reduce they were open in,
    /// the third is failed, the fourth is processed.
    fn panic_in_a_batch<R: Reduction<RObj = SumObj>>(app: &R) {
        for through_master in [false, true] {
            let (index, store) = fused_setup(4, SiteId::LOCAL);
            let plane = one_slave(store, 1, FaultPolicy::Retry { max_attempts: 2 });
            let mut batches = vec![jobs_of(&[]), jobs_of(&index.chunks)];
            let grant = |_| batches.pop().unwrap();
            let ctx = local_ctx(true, None, None);
            let (outcome, seen) = scripted_slave(app, ctx, &plane, through_master, grant, |_| true);
            let (robj, stats) = outcome.unwrap();
            assert_eq!(robj, SumObj(chunk_sum(0) + chunk_sum(1) + chunk_sum(3)));
            assert_eq!(seen.failed, [index.chunks[2].id]);
            let ids = |of: &[usize]| of.iter().map(|&i| index.chunks[i].id).collect::<Vec<_>>();
            assert_eq!(seen.reported(), ids(&[0, 1, 3]));
            assert!(!seen.reports.iter().any(|r| r.contains(&ids(&[3])[0]) && r.len() > 1));
            assert_eq!(stats.jobs, 3);
            assert!(stats.rereduced <= 2, "only what was open at the panic is reduced again");
        }
    }

    #[test]
    fn a_job_revoked_while_it_is_open_is_neither_reported_nor_merged() {
        // Three jobs in one hand-off; the head fences the second while the
        // slave is reducing it — too late for the fences before the fetch
        // and at the pipeline's handoff. It lost its race: the slave must not
        // report it and must not merge it, and its batch-mates lose nothing.
        for depth in [1, 3] {
            let (index, store) = fused_setup(3, SiteId::LOCAL);
            let plane = one_slave(store, depth, FaultPolicy::FailFast);
            let board = CancelBoard::new();
            let fenced = index.chunks[1].id;
            let app = HookedSum(|first| {
                if first == 40 {
                    board.revoke(fenced);
                }
            });
            let mut batches = vec![jobs_of(&[]), jobs_of(&index.chunks)];
            let grant = |_| batches.pop().unwrap();
            let ctx = local_ctx(true, Some(board.clone()), None);
            let (outcome, seen) = scripted_slave(&app, ctx, &plane, false, grant, |_| true);
            let (robj, stats) = outcome.unwrap();
            assert_eq!(robj, SumObj(chunk_sum(0) + chunk_sum(2)), "depth {depth}");
            assert_eq!(seen.reported(), [index.chunks[0].id, index.chunks[2].id], "depth {depth}");
            assert!(
                seen.failed.is_empty(),
                "depth {depth}: the head requeued it when it fenced it"
            );
            assert_eq!(stats.jobs, 3, "depth {depth}: all three were processed");
        }
    }

    #[test]
    fn a_slow_job_does_not_sit_on_its_batch_mates_completions() {
        // Three jobs in one hand-off. (a) The chaos plan slows the worker by
        // 50 ms per job: every job lasts a quantum or more and is reported
        // alone, so no job's delay holds an earlier completion. (b) The
        // second job alone takes 50 ms, in the application: the first waits
        // for it — nothing can report from inside a reduce — but not a job
        // longer, the third is never in their report.
        let (index, store) = fused_setup(3, SiteId::LOCAL);
        let plane = one_slave(store, 1, FaultPolicy::FailFast);
        let ids: Vec<ChunkId> = index.chunks.iter().map(|c| c.id).collect();

        let mut plan = FaultPlan::seeded(3);
        plan.slow_workers.push(cloudburst_core::SlowWorker {
            site: SiteId::LOCAL,
            worker: 0,
            delay_per_job: 0.05,
        });
        let mut batches = vec![jobs_of(&[]), jobs_of(&index.chunks)];
        let ctx = local_ctx(true, None, Some(plan));
        let (outcome, seen) =
            scripted_slave(&SumApp, ctx, &plane, false, |_| batches.pop().unwrap(), |_| true);
        assert_eq!(outcome.unwrap().0, SumObj(chunk_sum(0) + chunk_sum(1) + chunk_sum(2)));
        assert_eq!(seen.reports, [[ids[0]], [ids[1]], [ids[2]]], "one report per delayed job");

        let app = HookedSum(|first| {
            if first == 40 {
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let mut batches = vec![jobs_of(&[]), jobs_of(&index.chunks)];
        let ctx = local_ctx(true, None, None);
        let (outcome, seen) =
            scripted_slave(&app, ctx, &plane, false, |_| batches.pop().unwrap(), |_| true);
        assert_eq!(outcome.unwrap().0, SumObj(chunk_sum(0) + chunk_sum(1) + chunk_sum(2)));
        assert_eq!(seen.reported(), ids);
        assert_eq!(seen.reports.last().unwrap(), &[ids[2]], "{:?}", seen.reports);
    }

    #[test]
    fn a_job_revoked_while_it_waits_in_the_slaves_batch_is_dropped_before_its_fetch() {
        // Depth 1: the slave fences at the batch boundary. The master hands
        // out a batch and the head revokes
        // its second job before the slave gets to it.
        let (index, store) = fused_setup(200, SiteId::LOCAL);
        let plane = one_slave(store, 1, FaultPolicy::FailFast);
        let metrics = Metrics::on();
        let board = CancelBoard::new();
        let mut ctx = local_ctx(false, Some(board.clone()), None);
        ctx.metrics = SlaveMetrics::new(&metrics, SiteId::LOCAL, 0);
        let mut chunks = index.chunks.iter();
        let mut revoked = Vec::new();
        let grant = |want: usize| {
            let jobs: Vec<_> = chunks.by_ref().take(want).copied().collect();
            if jobs.len() >= 3 {
                board.revoke(jobs[1].id);
                revoked.push(jobs[1].id);
            }
            jobs_of(&jobs)
        };
        let (outcome, seen) = scripted_slave(&SumApp, ctx, &plane, false, grant, |_| true);
        outcome.unwrap();
        let done = seen.reported();
        assert!(!revoked.is_empty(), "160-byte jobs come in batches");
        let mut settled = done.clone();
        settled.extend(&revoked);
        settled.sort_unstable();
        let all: Vec<ChunkId> = index.chunks.iter().map(|c| c.id).collect();
        assert_eq!(settled, all, "every job is either processed or dropped, none both");
        let exp = cloudburst_core::parse_exposition(&metrics.registry().unwrap().render()).unwrap();
        assert_eq!(exp.sum_family("cloudburst_prefetch_dropped_total") as usize, revoked.len());
        assert_eq!(exp.sum_family("cloudburst_slave_jobs_total") as usize, done.len());
    }

    #[test]
    fn a_slaves_completions_reach_the_scrape_before_it_leaves() {
        // One hand-off brings every job and the next says drained, so no ask
        // comes between the slave's last jobs and its exit. Each verdict the
        // head rules must find its job already counted in the scrape.
        for depth in [1, 3] {
            let (index, store) = fused_setup(8, SiteId::LOCAL);
            let plane = one_slave(store, depth, FaultPolicy::FailFast);
            let metrics = Metrics::on();
            let registry = metrics.registry().unwrap();
            let mut ctx = local_ctx(true, None, None);
            ctx.metrics = SlaveMetrics::new(&metrics, SiteId::LOCAL, 0);
            let mut batches = vec![jobs_of(&[]), jobs_of(&index.chunks)];
            let grant = |_| batches.pop().unwrap();
            // (jobs ruled on so far, jobs the scrape counted at the time)
            let ruled = std::sync::Mutex::new(Vec::new());
            let verdict = |_| {
                let exp = cloudburst_core::parse_exposition(&registry.render()).unwrap();
                let counted = exp.sum_family("cloudburst_slave_jobs_total") as usize;
                let mut ruled = ruled.lock().unwrap();
                let n = ruled.len() + 1;
                ruled.push((n, counted));
                true
            };
            let (outcome, _) = scripted_slave(&SumApp, ctx, &plane, false, grant, verdict);
            assert_eq!(outcome.unwrap().1.jobs, 8);
            let ruled = ruled.into_inner().unwrap();
            assert_eq!(ruled.len(), 8, "depth {depth}");
            for (n, counted) in ruled {
                assert!(counted >= n, "depth {depth}: verdict {n} saw {counted} jobs");
            }
        }
    }

    /// Both ways a run's control plane can travel; what a test says of "both
    /// transports" it says of each of these.
    const TRANSPORTS: [Transport; 2] = [Transport::Channels, Transport::Tcp];

    #[test]
    fn a_store_error_mid_batch_fails_the_run_promptly_and_leaks_no_grant() {
        use cloudburst_core::Recorder;
        // One site, one slave, 160-byte chunks, and a store whose 1000th
        // read fails: by then the slave takes dozens of jobs per hand-off,
        // so the error strikes inside a batch. No lease reaper runs, so a
        // job left granted would hang the head; instead the run must return
        // the error at once with every grant either merged or failed back.
        for transport in TRANSPORTS {
            let name = format!("{transport:?}");
            let (index, store) = fused_setup(4000, SiteId::LOCAL);
            store.reads_left.store(1000, std::sync::atomic::Ordering::SeqCst);
            let stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> =
                [(SiteId::LOCAL, store as Arc<dyn ChunkStore>)].into();
            let mut config = fast_config(EnvConfig::new("fuse", 1.0, 1, 0));
            config.fetch = FetchConfig { threads: 1, min_range: 1 << 20 };
            let rec = Arc::new(Recorder::new());
            config.telemetry = Telemetry::to(rec.clone());
            let started = Instant::now();
            let err = run_on(transport, &SumApp, &index, stores, &config).unwrap_err();
            assert!(started.elapsed() < Duration::from_secs(1), "{name}: {:?}", started.elapsed());
            assert!(matches!(&err, RunError::Io(e) if e.to_string().contains("fuse")), "{name}");
            let count = |pred: fn(&EventKind) -> bool| {
                rec.snapshot().iter().filter(|e| pred(&e.kind)).count()
            };
            let granted = count(|k| matches!(k, EventKind::JobGranted { .. }));
            let begun = count(|k| matches!(k, EventKind::JobStarted { .. }));
            let merged = count(|k| matches!(k, EventKind::JobCompleted { merged: true, .. }));
            let failures = count(|k| matches!(k, EventKind::JobFailed));
            assert_eq!(begun, 1000, "{name}: the slave stops at the error");
            assert_eq!(merged, 999, "{name}: what it finished before is reported");
            assert_eq!(failures, granted - begun + 1, "{name}: jobs handed back + 1");
            assert!(granted > begun, "{name}: the error struck with jobs granted and not begun");
        }
    }

    /// `SumApp` whose every chunk takes at least a given time to decode.
    struct SlowSum(Duration);

    impl Reduction for SlowSum {
        type Item = u32;
        type RObj = SumObj;
        fn make_robj(&self) -> SumObj {
            SumObj(0)
        }
        fn unit_size(&self) -> usize {
            4
        }
        fn decode(&self, chunk: &[u8], out: &mut Vec<u32>) {
            std::thread::sleep(self.0);
            SumApp.decode(chunk, out);
        }
        fn local_reduce(&self, robj: &mut SumObj, item: &u32) {
            SumApp.local_reduce(robj, item);
        }
    }

    /// Every site's row of a run's live ledger, summed: its slaves'
    /// hand-offs and settles among the rest.
    fn ledger_of(config: &RuntimeConfig) -> cloudburst_core::SiteTotals {
        config.metrics.registry().unwrap().ledger().all()
    }

    #[test]
    fn millisecond_jobs_are_taken_one_per_hand_off_on_both_transports() {
        // A job of a quantum or more — these last two — is asked for alone:
        // every answered request carried exactly one job, so each slave made
        // one request per job and the one that told it the pool had drained.
        for transport in TRANSPORTS {
            let name = format!("{transport:?}");
            let units = 64 * 48;
            let (index, stores) = setup(units, 0.5, 4);
            let mut config = fast_config(EnvConfig::new("slow-jobs", 0.5, 2, 2));
            config.metrics = Metrics::on();
            let app = SlowSum(Duration::from_secs_f64(2.0 * QUANTUM));
            let out = run_on(transport, &app, &index, stores, &config).unwrap();
            assert_eq!(out.result.0, expected_sum(units), "{name}");
            let ledger = ledger_of(&config);
            assert_eq!(ledger.handed, index.n_chunks() as u64, "{name}");
            let answers = ledger.hand_offs;
            assert_eq!(answers, index.n_chunks() as u64, "{name}: one job per answered request");
        }
    }

    /// `jobs` jobs of 160 bytes over two one-slave sites, metrics on and
    /// events to `telemetry`: the outcome, and the configuration whose
    /// registry holds the ledger.
    fn tiny_jobs_run(
        transport: Transport,
        ft: FtConfig,
        jobs: u32,
        telemetry: Telemetry,
    ) -> (RunOutcome<SumObj>, RuntimeConfig) {
        let units = 40 * jobs;
        let data = dataset(units);
        let params = LayoutParams { unit_size: 4, units_per_chunk: 40, n_files: 4 };
        let org = organize(&data, params, &mut fraction_placement(0.5, 4)).unwrap();
        let stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = org
            .stores
            .iter()
            .map(|(&s, st)| (s, Arc::new(st.clone()) as Arc<dyn ChunkStore>))
            .collect();
        let mut config = fast_config(EnvConfig::new("tiny-jobs", 0.5, 1, 1));
        // One plain read per chunk: a ranged fetch through the pool's
        // threads is a hand-off of its own and no tiny job.
        config.fetch = FetchConfig { threads: 1, min_range: 1 << 20 };
        (config.ft, config.metrics, config.telemetry) = (ft, Metrics::on(), telemetry);
        let out = run_on(transport, &SumApp, &org.index, stores, &config).unwrap();
        assert_eq!(out.result.0, expected_sum(units));
        (out, config)
    }

    #[test]
    fn under_fault_tolerance_a_completion_message_carries_a_hand_off_of_jobs() {
        // The whole FT stack on, so every completion waits for a verdict.
        // Jobs of two quanta are reported as they are asked for, alone:
        // one completion message per job, the old message pattern. 160-byte
        // jobs are reported about as they are taken, a hand-off at a time.
        // (Speculation may run a job twice, so the head merged no more than
        // the slaves reported.)
        let ft = FtConfig {
            heartbeat: Some(HeartbeatConfig { interval: 0.02, timeout: 10.0 }),
            ..FtConfig::enabled()
        };
        for transport in TRANSPORTS {
            let name = format!("{transport:?}");
            let (index, stores) = setup(64 * 48, 0.5, 4);
            let mut config = fast_config(EnvConfig::new("slow-ft-jobs", 0.5, 2, 2));
            (config.ft, config.metrics) = (ft.clone(), Metrics::on());
            let app = SlowSum(Duration::from_secs_f64(2.0 * QUANTUM));
            let out = run_on(transport, &app, &index, stores, &config).unwrap();
            assert_eq!(out.result.0, expected_sum(64 * 48), "{name}");
            let ledger = ledger_of(&config);
            let (messages, reported) = (ledger.settles, ledger.settled);
            assert!(reported >= out.head.completions, "{name}");
            assert_eq!(messages, reported, "{name}: one completion message per job");
        }
        for transport in TRANSPORTS {
            let name = format!("{transport:?}");
            let (out, config) = tiny_jobs_run(transport, ft.clone(), 6000, Telemetry::off());
            let ledger = ledger_of(&config);
            let (hand_offs, messages, reported) =
                (ledger.hand_offs, ledger.settles, ledger.settled);
            assert!(reported >= out.head.completions, "{name}");
            assert!(
                reported as f64 / messages as f64 >= 4.0,
                "{name}: {reported} jobs, {messages} reports"
            );
            // One report when the batch is used up, and at most one more
            // when it outlasted its quantum.
            assert!(messages <= 2 * hand_offs, "{name}: {messages} reports, {hand_offs} hand-offs");
        }
    }

    /// The largest hand-off in a run's events.
    #[derive(Default)]
    struct LargestHandOff(std::sync::atomic::AtomicU64);

    impl cloudburst_core::EventSink for LargestHandOff {
        fn record(&self, e: Event) {
            if let EventKind::HandOff { jobs } = e.kind {
                self.0.fetch_max(jobs, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn tiny_jobs_are_taken_a_quantum_at_a_time_and_never_more_than_the_cap() {
        for transport in TRANSPORTS {
            let name = format!("{transport:?}");
            // Enough hand-offs that an unoptimised build, where a job costs
            // ≈ 20 µs and the mean hand-off is ≈ 40 jobs, still reaches past
            // 64 on one of them.
            let largest = Arc::new(LargestHandOff::default());
            let telemetry = Telemetry::to(largest.clone());
            let (_, config) = tiny_jobs_run(transport, FtConfig::default(), 24_000, telemetry);
            let ledger = ledger_of(&config);
            let (answers, jobs) = (ledger.hand_offs, ledger.handed);
            assert_eq!(jobs, 24_000, "{name}");
            assert!(
                jobs as f64 / answers as f64 >= 8.0,
                "{name}: {jobs} jobs in {answers} hand-offs"
            );
            // The cap bounds every hand-off, and one past 64 — the cap's old
            // value — shows the quantum, not a job count, sized a hand-off
            // of these sub-µs jobs.
            let largest = largest.0.load(std::sync::atomic::Ordering::Relaxed);
            assert!(largest <= MAX_BDP_JOBS as u64, "{name}: a hand-off of {largest}");
            assert!(largest > 64, "{name}: no hand-off over 64 (largest {largest})");
        }
    }

    #[test]
    fn a_slaves_retrieval_and_processing_fit_in_its_lifetime_on_both_transports() {
        // A slave reads the clock once per transition, so its fetch and
        // processing spans tile its loop without overlap: their sum stays
        // within the time from its first hand-off to its exit, and neither
        // is empty.
        for transport in TRANSPORTS {
            let name = format!("{transport:?}");
            let events = Arc::new(cloudburst_core::Recorder::new());
            let telemetry = Telemetry::to(events.clone());
            tiny_jobs_run(transport, FtConfig::default(), 6000, telemetry);
            let mut slaves: BTreeMap<(SiteId, u32), (SlaveSample, Option<u64>)> = BTreeMap::new();
            for e in events.take() {
                let (Some(site), Some(worker)) = (e.site, e.worker) else { continue };
                let (sample, first) = slaves.entry((site, worker)).or_default();
                sample.apply(&e);
                if matches!(e.kind, EventKind::HandOff { .. }) {
                    first.get_or_insert(e.at_ns);
                }
            }
            assert_eq!(slaves.len(), 2, "{name}: one slave per site");
            for ((site, worker), (s, first)) in slaves {
                let lifetime = s.finish - ns_to_secs(first.expect("a slave was handed jobs"));
                let busy = s.retrieval + s.processing;
                assert!(s.retrieval > 0.0 && s.processing > 0.0, "{name} {site}/{worker}: {s:?}");
                assert!(busy <= lifetime, "{name} {site}/{worker}: busy {busy} s of {lifetime} s");
            }
        }
    }

    #[test]
    fn a_run_spawns_fetchers_in_prepare_only_when_its_largest_chunk_splits() {
        // 256-byte chunks. Under a 64-byte `min_range` each splits in two
        // ranges: `prepare` spawns every store site's pool, `threads` ranges
        // for each of the run's 5 cores, and the run's reads use it and
        // spawn no other. Under a `min_range` past the largest chunk, every
        // read is one range on the reader's thread, and nothing is spawned.
        let (index, stores) = setup(4096, 0.5, 4);
        let config = fast_config(EnvConfig::new("split", 0.5, 2, 3));
        let Prepared { router, .. } = prepare(&index, stores.clone(), &config).unwrap();
        let pools =
            [SiteId::LOCAL, SiteId::CLOUD].map(|s| router.spawned(s).map(std::ptr::from_ref));
        for site in [SiteId::LOCAL, SiteId::CLOUD] {
            let threads = router.spawned(site).map(cloudburst_storage::FetcherPool::threads);
            assert_eq!(threads, Some(2 * 5), "{site}");
        }
        for chunk in &index.chunks {
            router.fetch(SiteId::LOCAL, chunk).unwrap();
        }
        let after =
            [SiteId::LOCAL, SiteId::CLOUD].map(|s| router.spawned(s).map(std::ptr::from_ref));
        assert_eq!(after, pools, "a read spawned fetchers");

        let mut config = config;
        config.fetch.min_range = 257;
        let Prepared { router, .. } = prepare(&index, stores, &config).unwrap();
        for chunk in &index.chunks {
            router.fetch(SiteId::CLOUD, chunk).unwrap();
        }
        assert!([SiteId::LOCAL, SiteId::CLOUD].iter().all(|&s| router.spawned(s).is_none()));
    }

    /// A store that notes how many CPUs each fetcher thread reading from it
    /// may run on.
    struct AffinityProbe {
        inner: Arc<dyn ChunkStore>,
        fetchers: std::sync::Mutex<Vec<usize>>,
    }

    impl ChunkStore for AffinityProbe {
        fn site(&self) -> SiteId {
            self.inner.site()
        }
        fn read(
            &self,
            file: cloudburst_core::FileId,
            offset: u64,
            len: u64,
        ) -> std::io::Result<Bytes> {
            if std::thread::current().name().is_some_and(|n| n.starts_with("fetcher-")) {
                self.fetchers.lock().unwrap().push(crate::readiness::allowed_cpus().len());
            }
            self.inner.read(file, offset, len)
        }
        fn file_len(&self, file: cloudburst_core::FileId) -> std::io::Result<u64> {
            self.inner.file_len(file)
        }
        fn n_files(&self) -> usize {
            self.inner.n_files()
        }
    }

    #[test]
    fn a_tcp_runs_fetchers_are_spawned_before_any_site_is_confined() {
        // Over TCP each one-core site keeps its threads to one CPU. The
        // fetchers serve both sites, so they must keep every CPU the run's
        // starting thread has: spawned by `prepare`, not by a confined
        // slave's first split read.
        let wide = crate::readiness::allowed_cpus().len();
        if wide < 2 {
            eprintln!("skipped: this thread may run on {wide} CPU, as narrow as a site");
            return;
        }
        let (index, stores) = setup(4096, 0.5, 4);
        let probes: Vec<Arc<AffinityProbe>> = stores
            .into_values()
            .map(|inner| Arc::new(AffinityProbe { inner, fetchers: Default::default() }))
            .collect();
        let stores = probes.iter().map(|p| (p.site(), p.clone() as Arc<dyn ChunkStore>)).collect();
        let config = fast_config(EnvConfig::new("tcp-split", 0.5, 1, 1));
        let out = crate::run_hybrid_tcp(&SumApp, &index, stores, &config).unwrap();
        assert_eq!(out.result.0, expected_sum(4096));
        let seen: Vec<usize> =
            probes.iter().flat_map(|p| p.fetchers.lock().unwrap().clone()).collect();
        assert!(!seen.is_empty(), "no range was read on a fetcher");
        let narrowest = seen.iter().min();
        assert_eq!(narrowest, Some(&wide), "a fetcher ran on fewer CPUs than the run's thread");
    }

    /// `SumApp` that counts `make_robj` calls and journals, the way an app
    /// with a large object does, with a hook half-way through every group
    /// it reduces open, handed the group's first unit.
    struct JournalingSum<F = fn(u32)>(std::sync::atomic::AtomicUsize, F);

    impl Default for JournalingSum {
        fn default() -> JournalingSum {
            JournalingSum(std::sync::atomic::AtomicUsize::new(0), |_| {})
        }
    }

    impl<F: Fn(u32) + Send + Sync> Reduction for JournalingSum<F> {
        type Item = u32;
        type RObj = SumObj;
        fn make_robj(&self) -> SumObj {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            SumObj(0)
        }
        fn unit_size(&self) -> usize {
            4
        }
        fn decode(&self, chunk: &[u8], out: &mut Vec<u32>) {
            SumApp.decode(chunk, out);
        }
        fn local_reduce(&self, robj: &mut SumObj, item: &u32) {
            SumApp.local_reduce(robj, item);
        }
        fn journal_len(&self, units: usize) -> usize {
            units
        }
        fn reduce_open(
            &self,
            acc: &mut SumObj,
            undo: &mut Undo<SumObj>,
            units: &[u8],
            _: &mut Vec<u32>,
        ) {
            let unit = |i: usize| u32::from_le_bytes(units[4 * i..4 * i + 4].try_into().unwrap());
            for i in 0..units.len() / 4 {
                if i == units.len() / 8 {
                    (self.1)(unit(0));
                }
                undo.journal.note(0, acc.0);
                acc.0 += u64::from(unit(i));
            }
        }
        fn accept(&self, _: &mut SumObj, undo: &mut Undo<SumObj>) {
            undo.journal.clear();
        }
        fn rollback(&self, acc: &mut SumObj, undo: &mut Undo<SumObj>) {
            undo.journal.undo(|_, bits| acc.0 = bits);
        }
    }

    #[test]
    fn ft_run_allocates_reduction_objects_per_worker_not_per_job() {
        let units = 8192;
        let workers = 6;
        for (transport, depth) in TRANSPORTS.into_iter().flat_map(|t| [(t, 1), (t, 3)]) {
            let (index, stores) = setup(units, 0.5, 4);
            let mut config = fast_config(EnvConfig::new("ft-count", 0.5, 3, 3));
            config.pipeline_depth = depth;
            config.fault_policy = FaultPolicy::Retry { max_attempts: 4 };
            config.ft = FtConfig {
                heartbeat: Some(HeartbeatConfig { interval: 0.02, timeout: 10.0 }),
                ..FtConfig::enabled()
            };
            let app = JournalingSum::default();
            let out = run_on(transport, &app, &index, stores, &config).unwrap();
            let what = format!("{transport:?}, depth {depth}");
            assert_eq!(out.result.0, expected_sum(units), "{what}");
            let made = app.0.into_inner();
            // One accumulator per worker, and no second object.
            assert!(index.n_chunks() > 4 * workers, "the bound must separate jobs from workers");
            assert_eq!(made, workers, "{what}: {made} make_robj calls");
        }
    }

    #[test]
    fn event_stream_rederives_the_legacy_report() {
        use cloudburst_core::{derive_report, Recorder};

        // Two runs whose ledgers have something in every column, on both
        // transports. (a) The whole FT stack under a chaos plan: storage
        // errors absorbed by retries, every worker slowed so the run lasts,
        // one that crashes early and leaks a job only the lease reaper brings
        // back, and one slower still, whose last job the idle sites take
        // speculative copies of. (b) A
        // coded run (r = 2) whose masters take the whole pool at once, so
        // that each is handed replicas of the other's backlog from the first
        // millisecond — grants, wins and fences — and whose cloud site then
        // dies: an evacuation that saves its re-fetches.
        let ft_chaos = || {
            let mut config = fast_config(EnvConfig::new("telemetry-eq", 0.5, 2, 2));
            config.fault_policy = FaultPolicy::Retry { max_attempts: 5 };
            let mut plan = FaultPlan {
                storage_error_rate: 0.2,
                worker_crash: vec![cloudburst_core::WorkerCrash {
                    site: SiteId::CLOUD,
                    worker: 0,
                    after_jobs: 2,
                }],
                ..FaultPlan::seeded(11)
            };
            slow_all_workers(&mut plan, 0.004);
            plan.slow_workers[1].delay_per_job = 0.02;
            config.ft = FtConfig {
                lease: Some(LeaseConfig { base: 0.05, min: 0.05, max: 0.2, multiplier: 8.0 }),
                heartbeat: Some(HeartbeatConfig { interval: 0.02, timeout: 10.0 }),
                chaos: Some(Arc::new(plan)),
                ..FtConfig::enabled()
            };
            (setup(8192, 0.5, 4), config)
        };
        let coded_outage = || {
            let mut config = fast_config(EnvConfig::new("telemetry-eq-coded", 0.5, 2, 2));
            config.redundancy = 2;
            // Slaves deep enough to hold every job at once take the whole
            // pool in the first millisecond, so each site is soon handed
            // replicas of the other's backlog.
            config.pipeline_depth = 64;
            let mut plan = FaultPlan {
                site_outage: Some(cloudburst_core::SiteOutage { site: SiteId::CLOUD, at: 0.1 }),
                ..FaultPlan::seeded(5)
            };
            // The run must outlast the outage and the quarter second the
            // head takes to notice it.
            slow_all_workers(&mut plan, 0.02);
            config.ft = FtConfig {
                // A speculative copy would take the slot a replica is for.
                speculate: false,
                heartbeat: Some(HeartbeatConfig { interval: 0.01, timeout: 0.25 }),
                chaos: Some(Arc::new(plan)),
                ..FtConfig::enabled()
            };
            (setup_redundant(8192, 0.5, 4, 2), config)
        };
        type Case = fn() -> ((DataIndex, BTreeMap<SiteId, Arc<dyn ChunkStore>>), RuntimeConfig);
        let cases: [(&str, Case); 2] = [("ft+chaos", ft_chaos), ("coded+outage", coded_outage)];
        for (case, make) in cases {
            for transport in TRANSPORTS {
                let what = format!("{case} over {transport:?}");
                let ((index, stores), mut config) = make();
                let rec = Arc::new(Recorder::new());
                config.telemetry = Telemetry::to(rec.clone());
                let out = run_on(transport, &SumApp, &index, stores, &config).unwrap();
                let units: u64 = index.chunks.iter().map(|c| c.n_units).sum();
                assert_eq!(out.result.0, expected_sum(units as u32), "{what}");

                let derived = derive_report(&rec.take(), &out.report.env);
                let live = &out.report;
                assert!(!live.faults.is_quiet(), "{what}: the run was to exercise the fault path");
                if config.redundancy == 1 {
                    assert!(live.total_retries() > 0, "{what}: storage errors were injected");
                } else {
                    assert!(live.faults.replica_grants > 0, "{what}: {:?}", live.faults);
                    assert!(live.faults.saved_refetches > 0, "{what}: {:?}", live.faults);
                }
                // The derived report is the live one: the same events went
                // through the same `apply` functions and the same assembly,
                // every time through the same nanosecond stamp.
                assert_eq!(derived.faults, live.faults, "{what}");
                for (site, l) in &live.sites {
                    let d = &derived.sites[site];
                    assert_eq!(d.jobs, l.jobs, "{what}: {site} job counts");
                    assert_eq!(d.remote_bytes, l.remote_bytes, "{what}: {site} remote bytes");
                    assert_eq!(d.retries, l.retries, "{what}: {site} retries");
                    assert_eq!(d.breakdown, l.breakdown, "{what}: {site} breakdown");
                }
                assert_eq!(&derived, live, "{what}");
            }
        }
    }

    #[test]
    fn metrics_scrape_agrees_with_the_report() {
        use cloudburst_core::parse_exposition;
        let units = 4096;
        let (index, stores) = setup(units, 0.5, 4);
        let env = EnvConfig::new("metrics-eq", 0.5, 3, 3);
        let mut config = fast_config(env);
        config.pipeline_depth = 3;
        config.metrics = Metrics::on();
        let out = run_hybrid(&SumApp, &index, stores, &config).unwrap();
        let exp = parse_exposition(&config.metrics.registry().unwrap().render()).unwrap();

        let get = |name: &str, labels: &[(&str, &str)]| exp.get(name, labels).unwrap_or(0.0);
        for (site, s) in &out.report.sites {
            let sv = site.to_string();
            for (kind, want) in [("local", s.jobs.local), ("stolen", s.jobs.stolen)] {
                let merged =
                    get("cloudburst_pool_jobs_merged_total", &[("site", &sv), ("kind", kind)]);
                let lost =
                    get("cloudburst_pool_results_lost_total", &[("site", &sv), ("kind", kind)]);
                assert_eq!((merged - lost) as u64, want, "{site} {kind} jobs");
            }
        }
        // Slave byte/retry counters sum (over workers) to the report's
        // per-site numbers.
        let bytes = exp.by_label("cloudburst_slave_remote_bytes_total", "site");
        for (site, s) in &out.report.sites {
            let got = bytes.get(&site.to_string()).copied().unwrap_or(0.0);
            assert_eq!(got as u64, s.remote_bytes, "{site} remote bytes");
        }
        // Fault-free run: one grant per job, and the WAN pushed exactly the
        // remote bytes.
        assert_eq!(exp.sum_family("cloudburst_pool_grants_total") as u64, out.report.total_jobs());
        assert_eq!(
            exp.sum_family("cloudburst_pool_steals_total") as u64,
            out.report.total_stolen()
        );
        // Every job went through the latency histograms; gauges settled.
        assert_eq!(
            exp.sum_family("cloudburst_process_seconds_count") as u64,
            out.report.total_jobs()
        );
        assert_eq!(exp.sum_family("cloudburst_pool_queue_depth") as i64, 0);
        assert_eq!(exp.sum_family("cloudburst_pool_in_flight") as i64, 0);
    }

    /// The runs of the fault matrix: the two `event_stream_rederives_the_legacy_report`
    /// folds — the whole FT stack under a chaos plan (retries, a crashed
    /// worker's leaked job reaped, speculation on the slowest) and a coded
    /// run (r = 2) whose cloud site dies — and one whose storage errors reach
    /// the head as job failures, with no retry below the chunk.
    fn fault_matrix() -> [(&'static str, FaultCase); 3] {
        let ft_chaos = || {
            let mut config = fast_config(EnvConfig::new("ledger-ft", 0.5, 2, 2));
            config.fault_policy = FaultPolicy::Retry { max_attempts: 5 };
            let mut plan = FaultPlan {
                storage_error_rate: 0.2,
                worker_crash: vec![cloudburst_core::WorkerCrash {
                    site: SiteId::CLOUD,
                    worker: 0,
                    after_jobs: 2,
                }],
                ..FaultPlan::seeded(11)
            };
            slow_all_workers(&mut plan, 0.004);
            plan.slow_workers[1].delay_per_job = 0.02;
            config.ft = FtConfig {
                lease: Some(LeaseConfig { base: 0.05, min: 0.05, max: 0.2, multiplier: 8.0 }),
                heartbeat: Some(HeartbeatConfig { interval: 0.02, timeout: 10.0 }),
                chaos: Some(Arc::new(plan)),
                ..FtConfig::enabled()
            };
            (setup(8192, 0.5, 4), config)
        };
        let coded_outage = || {
            let mut config = fast_config(EnvConfig::new("ledger-coded", 0.5, 2, 2));
            config.redundancy = 2;
            config.pipeline_depth = 64;
            let mut plan = FaultPlan {
                site_outage: Some(cloudburst_core::SiteOutage { site: SiteId::CLOUD, at: 0.1 }),
                ..FaultPlan::seeded(5)
            };
            slow_all_workers(&mut plan, 0.02);
            config.ft = FtConfig {
                speculate: false,
                heartbeat: Some(HeartbeatConfig { interval: 0.01, timeout: 0.25 }),
                chaos: Some(Arc::new(plan)),
                ..FtConfig::enabled()
            };
            (setup_redundant(8192, 0.5, 4, 2), config)
        };
        let failures = || {
            let mut config = fast_config(EnvConfig::new("ledger-failures", 0.5, 2, 2));
            config.fault_policy = FaultPolicy::Retry { max_attempts: 8 };
            let plan = FaultPlan { storage_error_rate: 0.1, ..FaultPlan::seeded(3) };
            config.ft = FtConfig { chaos: Some(Arc::new(plan)), ..FtConfig::default() };
            (setup(8192, 0.5, 4), config)
        };
        [("ft+chaos", ft_chaos), ("coded+outage", coded_outage), ("failures", failures)]
    }

    type FaultCase = fn() -> ((DataIndex, BTreeMap<SiteId, Arc<dyn ChunkStore>>), RuntimeConfig);

    /// What one run's ledger came to: its reports, and what its event stream
    /// counts — the jobs its slaves processed per site, the failures the
    /// pool took (the head's `failures` also counts stale reports), and per
    /// site its slaves' `hand-off`, `settle` and `job-dropped` events.
    struct Ledgered {
        report: RunReport,
        head: HeadReport,
        processed: BTreeMap<SiteId, u64>,
        failed: u64,
        exchanges: BTreeMap<SiteId, [u64; 3]>,
    }

    /// Run `make`'s configuration over `transport` with `metrics`, checking
    /// the result, and keep what its ledger came to.
    fn ledgered(make: FaultCase, transport: Transport, metrics: &Metrics) -> Ledgered {
        use cloudburst_core::Recorder;
        let ((index, stores), mut config) = make();
        let rec = Arc::new(Recorder::new());
        config.telemetry = Telemetry::to(rec.clone());
        config.metrics = metrics.clone();
        let out = run_on(transport, &SumApp, &index, stores, &config).unwrap();
        let units: u64 = index.chunks.iter().map(|c| c.n_units).sum();
        assert_eq!(out.result.0, expected_sum(units as u32), "{transport:?}");
        let (mut processed, mut failed, mut exchanges) = (BTreeMap::new(), 0, BTreeMap::new());
        for e in rec.take() {
            let exchange = match e.kind {
                EventKind::HandOff { .. } => 0,
                EventKind::Settled { .. } => 1,
                EventKind::JobDropped => 2,
                EventKind::JobProcessed => {
                    *processed.entry(e.site.unwrap()).or_default() += 1;
                    continue;
                }
                EventKind::JobFailed => {
                    failed += 1;
                    continue;
                }
                _ => continue,
            };
            exchanges.entry(e.site.unwrap()).or_insert([0; 3])[exchange] += 1;
        }
        assert!(failed <= out.head.failures, "a failure the head never heard of");
        Ledgered { report: out.report, head: out.head, processed, failed, exchanges }
    }

    /// The scrape `exp` shows exactly what the `runs` that shared its handle
    /// tallied: per site and kind, per worker summed to the site, and in
    /// every fault total of their reports.
    fn assert_scrape_is_the_ledger(exp: &cloudburst_core::Exposition, runs: &[Ledgered]) {
        let get = |name: &str, labels: &[(&str, &str)]| exp.get(name, labels).unwrap_or(0.0);
        let sites: std::collections::BTreeSet<SiteId> =
            runs.iter().flat_map(|r| r.report.sites.keys().copied()).collect();
        let slaves = |name: &str| exp.by_label(name, "site");
        let (jobs, bytes, retries) = (
            slaves("cloudburst_slave_jobs_total"),
            slaves("cloudburst_slave_remote_bytes_total"),
            slaves("cloudburst_slave_retries_total"),
        );
        for site in sites {
            let sv = site.to_string();
            let stats: Vec<_> = runs.iter().filter_map(|r| r.report.sites.get(&site)).collect();
            for (kind, stolen) in [("local", false), ("stolen", true)] {
                let labels = [("site", sv.as_str()), ("kind", kind)];
                let merged = get("cloudburst_pool_jobs_merged_total", &labels);
                let lost = get("cloudburst_pool_results_lost_total", &labels);
                let want: u64 =
                    stats.iter().map(|s| if stolen { s.jobs.stolen } else { s.jobs.local }).sum();
                assert_eq!((merged - lost) as u64, want, "{site} {kind} jobs");
            }
            let per_site = |m: &BTreeMap<String, f64>| m.get(&sv).copied().unwrap_or(0.0) as u64;
            let processed: u64 = runs.iter().filter_map(|r| r.processed.get(&site)).sum();
            assert_eq!(per_site(&jobs), processed, "{site} slave jobs");
            let want: u64 = stats.iter().map(|s| s.remote_bytes).sum();
            assert_eq!(per_site(&bytes), want, "{site} remote bytes");
            let want: u64 = stats.iter().map(|s| s.retries).sum();
            assert_eq!(per_site(&retries), want, "{site} retries");
        }
        let total = |name: &str| exp.sum_family(name) as u64;
        let sum = |of: fn(&Ledgered) -> u64| runs.iter().map(of).sum::<u64>();
        type Total = (&'static str, fn(&Ledgered) -> u64);
        let families: [Total; 11] = [
            ("cloudburst_pool_jobs_merged_total", |r| r.head.completions),
            ("cloudburst_pool_results_lost_total", |r| r.head.faults.lost_results),
            ("cloudburst_pool_duplicate_completions_total", |r| {
                r.head.faults.duplicate_completions
            }),
            ("cloudburst_pool_lease_reaps_total", |r| r.report.faults.lease_expiries),
            ("cloudburst_pool_evacuated_jobs_total", |r| r.report.faults.evacuated_jobs),
            ("cloudburst_pool_speculations_total", |r| r.report.faults.speculative_grants),
            ("cloudburst_pool_replica_grants_total", |r| r.report.faults.replica_grants),
            ("cloudburst_pool_replica_wins_total", |r| r.report.faults.replica_wins),
            ("cloudburst_pool_replica_fences_total", |r| r.report.faults.replica_fences),
            ("cloudburst_pool_saved_refetch_total", |r| r.report.faults.saved_refetches),
            ("cloudburst_pool_failures_total", |r| r.failed),
        ];
        for (name, of) in families {
            assert_eq!(total(name), sum(of), "{name}");
        }
        // Every steal emptied some shard; every merge was granted first.
        let steals = total("cloudburst_pool_steals_total");
        assert_eq!(total("cloudburst_pool_shard_stolen_from_total"), steals);
        assert!(
            total("cloudburst_pool_grants_total") >= total("cloudburst_pool_jobs_merged_total")
        );
        assert_eq!(exp.sum_family("cloudburst_pool_queue_depth"), 0.0);
        assert_eq!(exp.sum_family("cloudburst_pool_in_flight"), 0.0);
    }

    #[test]
    fn the_scrape_is_the_ledger_under_faults_on_both_transports() {
        use cloudburst_core::parse_exposition;
        for (case, make) in fault_matrix() {
            for transport in TRANSPORTS {
                let metrics = Metrics::on();
                let run = ledgered(make, transport, &metrics);
                let quiet = run.report.faults.is_quiet() && run.failed == 0;
                assert!(!quiet, "{case}: the fault path must run");
                let exp = parse_exposition(&metrics.registry().unwrap().render()).unwrap();
                assert_scrape_is_the_ledger(&exp, std::slice::from_ref(&run));
            }
        }
    }

    #[test]
    fn a_slaves_exchanges_are_recorded_once_beside_two_instruments_on_both_transports() {
        use cloudburst_core::parse_exposition;
        let [ft_chaos, coded_outage, _] = fault_matrix();
        for (case, make) in [ft_chaos, coded_outage] {
            for transport in TRANSPORTS {
                let what = format!("{case}, {transport:?}");
                let metrics = Metrics::on();
                let run = ledgered(make, transport, &metrics);
                let registry = metrics.registry().unwrap();
                let (ledger, exp) =
                    (registry.ledger(), parse_exposition(&registry.render()).unwrap());
                // Each site's ledger counts what its slaves' events say,
                // and nothing else does.
                let dropped = exp.by_label("cloudburst_prefetch_dropped_total", "site");
                assert!(run.exchanges.keys().all(|site| ledger.sites.contains_key(site)), "{what}");
                for (site, row) in &ledger.sites {
                    let drops = dropped.get(&site.to_string()).map_or(0, |&n| n as u64);
                    let events = run.exchanges.get(site).copied().unwrap_or_default();
                    assert_eq!([row.hand_offs, row.settles, drops], events, "{what}: {site}");
                }
                let all = ledger.all();
                assert!(all.hand_offs > 0 && all.settles > 0, "{what}: FT runs settle");
                // Beside the ledger's families, the two latency histograms.
                let two = ["cloudburst_fetch_seconds", "cloudburst_process_seconds"];
                for (family, kind) in &exp.types {
                    let of_ledger = family.starts_with("cloudburst_pool_")
                        || family.starts_with("cloudburst_slave_")
                        || family == "cloudburst_prefetch_dropped_total";
                    let instrument = two.contains(&family.as_str());
                    assert_ne!(of_ledger, instrument, "{what}: {family}");
                    assert_eq!(kind == "histogram", instrument, "{what}: {family} is a {kind}");
                }
                assert!(two.iter().all(|family| exp.types.contains_key(*family)), "{what}");
            }
        }
    }

    #[test]
    fn runs_that_share_a_metrics_handle_add_up_in_the_scrape() {
        use cloudburst_core::{check_monotonic, parse_exposition};
        use std::sync::atomic::{AtomicBool, Ordering};
        let metrics = Metrics::on();
        let registry = metrics.registry().unwrap();
        let done = AtomicBool::new(false);
        let (runs, scrapes) = std::thread::scope(|scope| {
            // Scraped throughout both runs, as a live endpoint would be.
            let scraper = scope.spawn(|| {
                let mut scrapes = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    scrapes.push(parse_exposition(&registry.render()).unwrap());
                    std::thread::sleep(Duration::from_millis(5));
                }
                scrapes
            });
            let [(_, make), ..] = fault_matrix();
            let runs: Vec<_> =
                TRANSPORTS.into_iter().map(|t| ledgered(make, t, &metrics)).collect();
            done.store(true, Ordering::Relaxed);
            (runs, scraper.join().unwrap())
        });
        let last = parse_exposition(&registry.render()).unwrap();
        assert!(scrapes.len() > 2, "the runs were scraped while they ran");
        for pair in scrapes.windows(2) {
            check_monotonic(&pair[0], &pair[1]).unwrap();
        }
        check_monotonic(scrapes.last().unwrap(), &last).unwrap();
        assert_scrape_is_the_ledger(&last, &runs);
    }

    #[test]
    fn coded_run_is_exact_and_wan_free() {
        // r = 2 on two sites: every chunk has a local copy everywhere, so
        // the replica-aware router never crosses the WAN, and the replica
        // fencing dedups whatever proactive copies the pool hands out.
        let units = 4096;
        let (index, stores) = setup_redundant(units, 0.5, 4, 2);
        let env = EnvConfig::new("coded", 0.5, 3, 3);
        let mut config = fast_config(env);
        config.redundancy = 2;
        let out = run_hybrid(&SumApp, &index, stores, &config).unwrap();
        assert_eq!(out.result.0, expected_sum(units));
        assert_eq!(out.head.abandoned, 0);
        for (site, s) in &out.report.sites {
            assert_eq!(s.remote_bytes, 0, "{site} fetched over the WAN despite replicas");
        }
    }

    #[test]
    fn redundancy_one_matches_classic_run_at_every_depth() {
        // The r = 1 path must stay bit-exact with the pre-coded runtime:
        // same result, same job accounting, serial and pipelined.
        let units = 2048;
        let (index, stores) = setup(units, 0.5, 4);
        let env = EnvConfig::new("r1", 0.5, 2, 2);
        let baseline = run_hybrid(&SumApp, &index, stores, &fast_config(env)).unwrap();
        for depth in [1usize, 3] {
            let (index, stores) = setup(units, 0.5, 4);
            let env = EnvConfig::new("r1", 0.5, 2, 2);
            let mut config = fast_config(env);
            config.pipeline_depth = depth;
            config.redundancy = 1;
            let out = run_hybrid(&SumApp, &index, stores, &config).unwrap();
            assert_eq!(out.result, baseline.result, "depth {depth}");
            assert_eq!(out.report.total_jobs(), baseline.report.total_jobs(), "depth {depth}");
            assert_eq!(out.report.faults.replica_grants, 0, "depth {depth}");
            assert_eq!(out.report.faults.saved_refetches, 0, "depth {depth}");
        }
    }

    #[test]
    fn pipelined_run_matches_serial_loop() {
        let units = 4096;
        let serial = {
            let (index, stores) = setup(units, 0.5, 4);
            let env = EnvConfig::new("pipe-base", 0.5, 3, 3);
            run_hybrid(&SumApp, &index, stores, &fast_config(env)).unwrap()
        };
        for depth in [2usize, 4] {
            let (index, stores) = setup(units, 0.5, 4);
            let env = EnvConfig::new("pipe-base", 0.5, 3, 3);
            let mut config = fast_config(env);
            config.pipeline_depth = depth;
            let out = run_hybrid(&SumApp, &index, stores, &config).unwrap();
            assert_eq!(out.result, serial.result, "depth {depth} diverged");
            assert_eq!(out.report.total_jobs(), serial.report.total_jobs(), "depth {depth}");
            assert_eq!(out.head.completions, serial.head.completions, "depth {depth}");
        }
    }

    #[test]
    fn pipelined_crash_leaks_are_recovered_by_lease_reaping() {
        // A crashing worker abandons not just the job it pulled but its
        // whole fetched pipeline; the reaper must recover
        // every leaked grant and the run must still be exact.
        let units = 2048;
        let (index, stores) = setup(units, 0.5, 4);
        let env = EnvConfig::new("crashy-pipe", 0.5, 2, 2);
        let mut config = fast_config(env);
        config.pipeline_depth = 3;
        config.fault_policy = FaultPolicy::Retry { max_attempts: 5 };
        let mut plan = FaultPlan {
            worker_crash: vec![cloudburst_core::WorkerCrash {
                site: SiteId::CLOUD,
                worker: 0,
                after_jobs: 2,
            }],
            ..FaultPlan::seeded(11)
        };
        slow_all_workers(&mut plan, 0.004);
        config.ft = FtConfig {
            lease: Some(LeaseConfig { base: 0.05, min: 0.05, max: 0.2, multiplier: 8.0 }),
            speculate: false,
            heartbeat: None,
            retry: None,
            chaos: Some(Arc::new(plan)),
        };
        let out = run_hybrid(&SumApp, &index, stores, &config).unwrap();
        assert_eq!(out.result.0, expected_sum(units));
        assert!(out.head.faults.lease_expiries > 0, "leaked grants must come back via the reaper");
    }

    #[test]
    fn chaos_worker_crash_is_recovered_by_lease_reaping() {
        // One cloud worker crashes after two jobs, leaking its third. Only
        // the lease reaper can recover it; the run must still be exact.
        let units = 2048;
        let (index, stores) = setup(units, 0.5, 4);
        let env = EnvConfig::new("crashy", 0.5, 2, 2);
        let mut config = fast_config(env);
        config.fault_policy = FaultPolicy::Retry { max_attempts: 5 };
        let mut plan = FaultPlan {
            worker_crash: vec![cloudburst_core::WorkerCrash {
                site: SiteId::CLOUD,
                worker: 0,
                after_jobs: 2,
            }],
            ..FaultPlan::seeded(11)
        };
        slow_all_workers(&mut plan, 0.004);
        config.ft = FtConfig {
            lease: Some(LeaseConfig { base: 0.05, min: 0.05, max: 0.2, multiplier: 8.0 }),
            speculate: false,
            heartbeat: None,
            retry: None,
            chaos: Some(Arc::new(plan)),
        };
        let out = run_hybrid(&SumApp, &index, stores, &config).unwrap();
        assert_eq!(out.result.0, expected_sum(units));
        assert!(out.head.faults.lease_expiries > 0, "the leaked job must come back via the reaper");
    }
}
