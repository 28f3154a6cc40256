//! The multi-site generalization of the cloud-bursting scenario.
//!
//! The paper notes the framework "will also be applicable if the data
//! and/or processing power is spread across two different cloud providers"
//! — the scheduler is already site-generic; only the two-site scenario
//! harness wasn't. This module simulates an arbitrary number of sites
//! (e.g. cluster + AWS + a second provider), each with its own compute
//! profile and storage, joined by a shared inter-site bulk pipe.
//!
//! The two-site [`crate::scenario::simulate`] is a thin wrapper over
//! [`simulate_multi`], so the calibrated paper numbers and the multi-site
//! results come from the same engine.

use crate::model::AppModel;
use crate::params::{ResourceSpec, SimParams};
use cloudburst_core::{
    secs_to_ns, BatchPolicy, Breakdown, ChunkId, DataIndex, Event, EventKind, FaultPlan, JobPool,
    LayoutParams, LeaseConfig, LocalJob, MasterPool, RequestId, RunReport, Seconds, SiteId,
    SiteStats, Take, Telemetry,
};
use cloudburst_des::{EventQueue, Servers, SimTime, Timeline};
use cloudburst_netsim::Jitter;
use std::collections::{BTreeMap, VecDeque};

/// What a simulated slave is doing at a point in time (timeline kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Head/master control RPCs.
    Control,
    /// Chunk retrieval (including queueing and WAN transfer).
    Retrieval,
    /// Local reduction.
    Compute,
}

/// One site's compute and storage profile.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSpec {
    /// Site identity.
    pub site: SiteId,
    /// Worker cores at the site.
    pub cores: u32,
    /// Cores per slave node/instance (one slave processes one chunk at a
    /// time with all its cores).
    pub cores_per_slave: u32,
    /// Multiplier on per-unit compute time relative to a reference core.
    pub compute_factor: f64,
    /// Performance-variability amplitude (deterministic).
    pub jitter: f64,
    /// The site's storage as seen by one of its slaves.
    pub store: ResourceSpec,
    /// Fraction of the dataset's files hosted here (fractions should sum to
    /// roughly 1 across sites).
    pub data_fraction: f64,
}

/// A deployment across any number of sites.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiEnv {
    /// Display label.
    pub name: String,
    /// Per-site profiles (order fixes file placement: earlier sites get
    /// earlier files).
    pub sites: Vec<SiteSpec>,
    /// The shared inter-site bulk pipe for stolen chunks.
    pub wan: ResourceSpec,
    /// One-way control latency between the head and a remote master.
    pub control_latency: f64,
    /// Single-stream bandwidth for reduction-object exchange.
    pub robj_stream_bw: f64,
    /// Memory bandwidth for robj merging.
    pub merge_bw: f64,
    /// Jitter seed.
    pub seed: u64,
    /// Dataset size in bytes.
    pub dataset_bytes: u64,
    /// Number of dataset files.
    pub n_files: u32,
    /// Number of chunks (jobs).
    pub n_chunks: u32,
    /// Whether the head uses the rate-aware steal condition (the paper's
    /// "considers the rate of processing"); disable to measure the naive
    /// locality-greedy policy (the stealing ablation).
    pub rate_aware_stealing: bool,
    /// Deterministic fault injection: site outages, worker crashes, and
    /// straggler slowdowns are replayed in virtual time, so Table-II-style
    /// overheads can be re-derived under failure. `None` (or an empty plan)
    /// simulates a clean run.
    pub chaos: Option<FaultPlan>,
    /// Hand idle sites speculative duplicates of tail stragglers (first
    /// completion wins). Chaos plans with slow workers enable this
    /// implicitly; set it explicitly to ablate speculation against coded
    /// redundancy under site-wide slowdowns.
    pub speculation: bool,
    /// Coded-redundancy replication factor. With `r ≥ 2` every chunk is
    /// modelled as replicated at the reader — retrievals are served by the
    /// reader's own store with no WAN leg — and the pool proactively grants
    /// up to `r` copies of straggling chunks, first finished copy winning.
    /// 1 (the classic single-copy placement) changes nothing.
    pub redundancy: u32,
}

impl MultiEnv {
    /// The paper's two-site deployment, from an [`cloudburst_core::EnvConfig`]
    /// and the testbed parameters.
    #[must_use]
    pub fn two_site(
        env: &cloudburst_core::EnvConfig,
        app: &AppModel,
        params: &SimParams,
    ) -> MultiEnv {
        let mut sites = Vec::new();
        if env.local_cores > 0 || env.local_data_fraction > 0.0 {
            sites.push(SiteSpec {
                site: SiteId::LOCAL,
                cores: env.local_cores,
                cores_per_slave: params.local_cores_per_slave,
                compute_factor: 1.0,
                jitter: params.local_jitter,
                store: params.cluster_disk,
                data_fraction: env.local_data_fraction,
            });
        }
        sites.push(SiteSpec {
            site: SiteId::CLOUD,
            cores: env.cloud_cores,
            cores_per_slave: params.cloud_cores_per_slave,
            compute_factor: app.cloud_compute_factor,
            jitter: params.cloud_jitter,
            store: params.s3,
            data_fraction: 1.0 - env.local_data_fraction,
        });
        MultiEnv {
            name: env.name.clone(),
            sites,
            wan: params.wan_bulk,
            control_latency: params.control_latency,
            robj_stream_bw: params.robj_stream_bw,
            merge_bw: params.merge_bw,
            seed: params.seed,
            dataset_bytes: params.dataset_bytes,
            n_files: params.n_files,
            n_chunks: params.n_chunks,
            rate_aware_stealing: true,
            chaos: None,
            speculation: false,
            redundancy: 1,
        }
    }

    /// Files hosted per site, by cumulative rounding of the fractions.
    fn file_placement(&self) -> Vec<SiteId> {
        let n = self.n_files;
        let total: f64 = self.sites.iter().map(|s| s.data_fraction).sum();
        let mut out = Vec::with_capacity(n as usize);
        let mut cut_prev = 0u32;
        let mut cum = 0.0;
        for (i, s) in self.sites.iter().enumerate() {
            cum += s.data_fraction / total.max(f64::MIN_POSITIVE);
            let cut = if i + 1 == self.sites.len() {
                n
            } else {
                ((cum * f64::from(n)).round() as u32).min(n)
            };
            for _ in cut_prev..cut {
                out.push(s.site);
            }
            cut_prev = cut;
        }
        debug_assert_eq!(out.len(), n as usize);
        out
    }
}

/// Per-site derived slave shape.
struct SlaveShape {
    site: SiteId,
    n_slaves: u32,
    speed: f64,
}

/// Simulate one run of `app` across `env`'s sites. Deterministic.
///
/// # Panics
/// Panics when no site has cores, or the layout is degenerate.
#[must_use]
pub fn simulate_multi(app: &AppModel, env: &MultiEnv) -> RunReport {
    run_multi(app, env, None, &Telemetry::off())
}

/// Like [`simulate_multi`], additionally recording every slave's activity
/// timeline (control / retrieval / compute spans) for utilization analysis
/// and Gantt rendering.
#[must_use]
pub fn simulate_multi_traced(app: &AppModel, env: &MultiEnv) -> (RunReport, Timeline<Activity>) {
    let mut timeline = Timeline::new();
    let report = run_multi(app, env, Some(&mut timeline), &Telemetry::off());
    (report, timeline)
}

/// Like [`simulate_multi`], additionally emitting the full telemetry event
/// stream to `telemetry` — the same taxonomy the threaded runtimes emit,
/// but clocked in *virtual* time (event timestamps are simulated seconds
/// converted to ns). A simulated chaos run can thus be exported to the same
/// JSONL / Chrome-trace artifacts as a real one. Emission never perturbs
/// the simulation: the returned report is identical to [`simulate_multi`]'s.
#[must_use]
pub fn simulate_multi_instrumented(
    app: &AppModel,
    env: &MultiEnv,
    telemetry: &Telemetry,
) -> RunReport {
    run_multi(app, env, None, telemetry)
}

/// A simulated slave's accumulators and fault profile.
struct Worker {
    site: SiteId,
    /// Slave index within the site (the telemetry worker tag).
    lane: u32,
    speed: f64,
    factor: f64,
    processing: Seconds,
    retrieval: Seconds,
    /// Time spent parked at the master waiting for a grant to land.
    control: Seconds,
    remote_bytes: u64,
    /// When the worker finished its last job — the paper's notion of a
    /// worker going idle.
    last_done: Seconds,
    jitter: Jitter,
    /// Injected per-job slowdown (straggler model).
    delay: Seconds,
    /// Site-wide multiplicative slowdown on compute (≥ 1.0).
    slow: f64,
    /// Crash after taking this many jobs (the job in hand leaks).
    crash_after: Option<u64>,
    taken: u64,
}

/// What moves the simulation forward.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A slave is free — having just finished `completes`, if any — and asks
    /// its master for work.
    Ready { worker: usize, completes: Option<ChunkId> },
    /// A master's grant request reaches the head.
    AtHead { site: SiteId, id: RequestId },
    /// The head's grant reaches the master.
    Landed { site: SiteId, id: RequestId },
    /// A starving master's poll backoff ran out.
    Retry { site: SiteId },
}

/// A site master: the same [`MasterPool`] window logic the threaded runtime
/// runs, with the simulator as its transport.
struct SimMaster {
    pool: MasterPool,
    /// Slaves waiting for a grant, oldest first, and since when.
    parked: VecDeque<(usize, Seconds)>,
    /// The latest instant a [`Ev::Retry`] is scheduled for.
    retry: Seconds,
}

impl SimMaster {
    fn new(site: SiteId) -> SimMaster {
        SimMaster { pool: MasterPool::new(site, 0), parked: VecDeque::new(), retry: 0.0 }
    }
}

/// The mutable state of one simulated run.
struct Sim<'a> {
    app: &'a AppModel,
    env: &'a MultiEnv,
    specs: &'a BTreeMap<SiteId, &'a SiteSpec>,
    telemetry: &'a Telemetry,
    trace: Option<&'a mut Timeline<Activity>>,
    workers: Vec<Worker>,
    stores: BTreeMap<SiteId, Servers>,
    wan: Servers,
    queue: EventQueue<Ev>,
    masters: BTreeMap<SiteId, SimMaster>,
}

impl Sim<'_> {
    fn master(&mut self, site: SiteId) -> &mut SimMaster {
        self.masters.get_mut(&site).expect("active site has a master")
    }

    /// The slave saw the drained signal, crashed, or lost its site.
    fn slave_finished(&mut self, worker: usize, now: Seconds) {
        let w = &self.workers[worker];
        self.telemetry
            .emit(Event::at(secs_to_ns(now), EventKind::SlaveFinished).site(w.site).worker(w.lane));
    }

    /// Slave `worker` was handed `job` at `now`: occupy the storage (and, for
    /// a remote chunk, the WAN), compute, and come back for more.
    fn start_job(&mut self, worker: usize, job: LocalJob, now: Seconds) {
        let (env, telemetry) = (self.env, self.telemetry);
        let w = &mut self.workers[worker];
        let site = w.site;
        w.taken += 1;
        if w.crash_after.is_some_and(|k| w.taken > k) {
            // Simulated worker crash: the job it just pulled leaks — the
            // lease reaper recovers it once the deadline passes.
            self.slave_finished(worker, now);
            return;
        }
        telemetry.emit(
            Event::at(secs_to_ns(now), EventKind::JobStarted { stolen: job.stolen })
                .site(site)
                .worker(w.lane)
                .chunk(job.chunk.id)
                .span_id(job.span),
        );

        // Under coded redundancy the chunk's bytes are replicated at the
        // reader: the read is served on-site and never touches the WAN.
        let data_site = if env.redundancy > 1 { site } else { job.chunk.site };
        let spec = self.specs[&data_site];
        let store = self.stores.get_mut(&data_site).expect("store for data site");
        let grant = store.request(SimTime::at(now), spec.store.service_time(job.chunk.len));
        let mut retr_end = grant.finish.seconds();
        if data_site != site {
            let wg = self
                .wan
                .request(SimTime::at(retr_end.max(now)), env.wan.service_time(job.chunk.len));
            retr_end = wg.finish.seconds();
            w.remote_bytes += job.chunk.len;
        }
        w.retrieval += retr_end - now;

        let compute =
            w.jitter.stretch(self.app.compute_time(job.chunk.n_units, w.factor)) / w.speed * w.slow
                + w.delay;
        w.processing += compute;
        w.last_done = retr_end + compute;
        if telemetry.is_enabled() {
            let tag = |e: Event| e.site(site).worker(w.lane).chunk(job.chunk.id).span_id(job.span);
            telemetry.emit(tag(Event::span(
                secs_to_ns(now),
                secs_to_ns(retr_end - now),
                EventKind::ChunkFetched {
                    bytes: job.chunk.len,
                    remote: data_site != site,
                    retries: 0,
                },
            )));
            telemetry.emit(tag(Event::span(
                secs_to_ns(retr_end),
                secs_to_ns(compute),
                EventKind::JobProcessed,
            )));
        }
        if let Some(t) = self.trace.as_deref_mut() {
            t.record(worker, Activity::Retrieval, SimTime::at(now), SimTime::at(retr_end));
            t.record(
                worker,
                Activity::Compute,
                SimTime::at(retr_end),
                SimTime::at(retr_end + compute),
            );
        }
        self.queue.schedule(
            SimTime::at(retr_end + compute),
            Ev::Ready { worker, completes: Some(job.chunk.id) },
        );
    }
}

fn run_multi(
    app: &AppModel,
    env: &MultiEnv,
    trace: Option<&mut Timeline<Activity>>,
    telemetry: &Telemetry,
) -> RunReport {
    let placement = env.file_placement();
    let total_units = app.units_in(env.dataset_bytes).max(u64::from(env.n_chunks));
    let upc = total_units.div_ceil(u64::from(env.n_chunks));
    let index = DataIndex::build(
        total_units,
        LayoutParams { unit_size: app.unit_size, units_per_chunk: upc, n_files: env.n_files },
        |f| placement[f.0 as usize],
    )
    .expect("valid multi-site layout");

    let batch_policy = BatchPolicy::Adaptive { divisor: 24, min: 1, max: 2 };
    let mut pool = JobPool::from_index(&index, batch_policy);
    // The pool's clock is virtual (request_for_at / complete_at), so its
    // grant / completion / reap events land in simulated time.
    pool.set_sink(telemetry.clone());
    let chunk_bytes = index.chunks[0].len;
    let chunk_units = index.chunks[0].n_units;

    // Fault injection happens in virtual time: the plan's clock is the
    // simulation clock, so replays are exactly reproducible.
    let chaos = env.chaos.as_ref().filter(|p| !p.is_empty());
    if let Some(plan) = chaos {
        if !plan.worker_crash.is_empty() {
            // A crashed worker leaks the job it held; only lease reaping
            // can recover it.
            pool.set_lease(LeaseConfig::default());
        }
        if !plan.slow_workers.is_empty() {
            pool.set_speculation(true);
        }
    }
    if env.speculation {
        pool.set_speculation(true);
    }
    pool.set_redundancy(env.redundancy);

    let specs: BTreeMap<SiteId, &SiteSpec> = env.sites.iter().map(|s| (s.site, s)).collect();
    let active: Vec<SlaveShape> = env
        .sites
        .iter()
        .filter(|s| s.cores > 0)
        .map(|s| {
            let n_slaves =
                ((f64::from(s.cores) / f64::from(s.cores_per_slave.max(1))).round() as u32).max(1);
            SlaveShape { site: s.site, n_slaves, speed: f64::from(s.cores) / f64::from(n_slaves) }
        })
        .collect();
    assert!(!active.is_empty(), "environment has no workers");
    let head_site = active[0].site;

    // Rate-aware stealing: each active site's end-to-end cost to fetch and
    // process one remote chunk (worst remote store + WAN + compute).
    for shape in active.iter().filter(|_| env.rate_aware_stealing) {
        let spec = specs[&shape.site];
        let worst_remote_store = env
            .sites
            .iter()
            .filter(|s| s.site != shape.site)
            .map(|s| s.store.service_time(chunk_bytes))
            .fold(0.0_f64, f64::max);
        let cost = env.wan.service_time(chunk_bytes)
            + worst_remote_store
            + app.compute_time(chunk_units, spec.compute_factor) / shape.speed;
        pool.set_steal_cost(shape.site, cost);
    }

    let stores: BTreeMap<SiteId, Servers> =
        env.sites.iter().map(|s| (s.site, Servers::new(s.store.servers))).collect();

    let mut workers: Vec<Worker> = Vec::new();
    for shape in &active {
        let spec = specs[&shape.site];
        for c in 0..shape.n_slaves {
            workers.push(Worker {
                site: shape.site,
                lane: c,
                speed: shape.speed,
                factor: spec.compute_factor,
                processing: 0.0,
                retrieval: 0.0,
                control: 0.0,
                remote_bytes: 0,
                last_done: 0.0,
                jitter: Jitter::new(
                    env.seed ^ (u64::from(shape.site.0) << 32) ^ u64::from(c),
                    spec.jitter,
                ),
                delay: chaos.map_or(0.0, |p| p.worker_delay(shape.site, c)),
                slow: chaos.map_or(1.0, |p| p.site_slowdown(shape.site)),
                crash_after: chaos.and_then(|p| p.crash_after(shape.site, c)),
                taken: 0,
            });
        }
    }

    let mut queue: EventQueue<Ev> = EventQueue::new();
    for w in 0..workers.len() {
        queue.schedule(SimTime::ZERO, Ev::Ready { worker: w, completes: None });
    }
    let mut sim = Sim {
        app,
        env,
        specs: &specs,
        telemetry,
        trace,
        workers,
        stores,
        wan: Servers::new(env.wan.servers),
        queue,
        masters: active.iter().map(|s| (s.site, SimMaster::new(s.site))).collect(),
    };

    while let Some((at, ev)) = sim.queue.pop() {
        let now = at.seconds();
        if let Some(plan) = chaos {
            if let Some(o) = plan.site_outage {
                if now >= o.at {
                    pool.evacuate(o.site); // idempotent after the first call
                }
            }
            for _ in pool.reap_expired(now) {}
        }
        let site = match ev {
            Ev::Ready { worker, .. } => sim.workers[worker].site,
            Ev::AtHead { site, .. } | Ev::Landed { site, .. } | Ev::Retry { site } => site,
        };
        if chaos.is_some_and(|p| p.site_dead(site, now)) {
            // The site just lost power: the in-flight completion dies with
            // the site's robj, its master's requests and grants with the
            // master; evacuation above re-homes its jobs.
            if let Ev::Ready { worker, .. } = ev {
                sim.slave_finished(worker, now);
            }
            let parked = std::mem::take(&mut sim.master(site).parked);
            for (worker, _) in parked {
                sim.slave_finished(worker, now);
            }
            continue;
        }
        // One way across the control link; the co-located master's hop is
        // a LAN message.
        let leg = if site == head_site { 1e-4 } else { env.control_latency };
        match ev {
            Ev::Ready { worker, completes } => {
                if let Some(job) = completes {
                    pool.complete_at(job, site, now);
                }
                // The paper's slave takes one job per hand-off.
                match sim.master(site).pool.arrive(now, 1) {
                    Take::Jobs(jobs) => sim.start_job(worker, jobs[0], now),
                    Take::NeedRefill => sim.master(site).parked.push_back((worker, now)),
                    Take::Drained => sim.slave_finished(worker, now),
                }
            }
            Ev::AtHead { id, .. } => {
                let batch = pool.request_for_at(site, now);
                sim.master(site).pool.granted(id, batch);
                sim.queue.schedule(SimTime::at(now + leg), Ev::Landed { site, id });
                continue;
            }
            Ev::Landed { id, .. } => {
                sim.master(site).pool.land(id, now);
                while let Some(&(worker, since)) = sim.master(site).parked.front() {
                    let take = sim.master(site).pool.serve_parked(now, 1);
                    if take == Take::NeedRefill {
                        break;
                    }
                    sim.master(site).parked.pop_front();
                    let Take::Jobs(jobs) = take else {
                        // Waiting out the end of the run is barrier time,
                        // accounted from the slave's last completion.
                        sim.slave_finished(worker, now);
                        continue;
                    };
                    // The wait for the grant is the slave's control time.
                    sim.workers[worker].control += now - since;
                    if let Some(t) = sim.trace.as_deref_mut() {
                        t.record(worker, Activity::Control, SimTime::at(since), SimTime::at(now));
                    }
                    sim.start_job(worker, jobs[0], now);
                }
            }
            Ev::Retry { .. } => {}
        }
        // The paper's master holds nothing ahead of demand ("when it senses
        // that it is depleted, it will request a new group of jobs"): with a
        // window of zero it asks only for a waiting slave. Once jobs prove
        // shorter than the link the window opens and it asks ahead, as the
        // runtime's master does.
        let master = sim.masters.get_mut(&site).expect("active site has a master");
        if !master.parked.is_empty() || master.pool.window() > 0 {
            while let Some(id) = master.pool.next_request(now) {
                sim.queue.schedule(SimTime::at(now + leg), Ev::AtHead { site, id });
            }
        }
        if let Some(at) = master.pool.retry_at().filter(|&at| at > now && at != master.retry) {
            master.retry = at;
            sim.queue.schedule(SimTime::at(at), Ev::Retry { site });
        }
    }
    let workers = sim.workers;

    debug_assert!(pool.all_done(), "simulation ended with unprocessed jobs");

    // A site is "finished" when its last *completion* lands (plus the local
    // robj combination); the end-of-run polling a drained site does while
    // the other site works is the paper's inter-cluster **idle** time.
    let mut site_finish: BTreeMap<SiteId, Seconds> = BTreeMap::new();
    for shape in &active {
        let worker_finish = workers
            .iter()
            .filter(|w| w.site == shape.site)
            .map(|w| w.last_done)
            .fold(0.0_f64, f64::max);
        let merge = f64::from(shape.n_slaves) * app.robj_bytes as f64 / env.merge_bw;
        telemetry.emit(
            Event::span(secs_to_ns(worker_finish), secs_to_ns(merge), EventKind::SiteMerged)
                .site(shape.site),
        );
        telemetry.emit(
            Event::at(secs_to_ns(worker_finish + merge), EventKind::SiteFinished).site(shape.site),
        );
        site_finish.insert(shape.site, worker_finish + merge);
    }
    let compute_finish = site_finish.values().copied().fold(0.0_f64, f64::max);

    let mut global_reduction = 0.0;
    for shape in &active {
        if shape.site != head_site {
            global_reduction += env.control_latency
                + 2.0 * f64::from(shape.n_slaves) * app.robj_bytes as f64 / env.robj_stream_bw
                + f64::from(shape.n_slaves) * app.robj_bytes as f64 / env.merge_bw;
        }
    }
    let total_time = compute_finish + global_reduction;
    telemetry.emit(Event::span(
        secs_to_ns(compute_finish),
        secs_to_ns(global_reduction),
        EventKind::GlobalReduction,
    ));
    telemetry.emit(Event::at(secs_to_ns(total_time), EventKind::RunFinished));

    let counts = pool.site_counts().clone();
    let mut report = RunReport {
        env: env.name.clone(),
        global_reduction,
        total_time,
        faults: pool.faults().clone(),
        ..RunReport::default()
    };
    for shape in &active {
        let site = shape.site;
        let site_workers: Vec<&Worker> = workers.iter().filter(|w| w.site == site).collect();
        let n = site_workers.len().max(1) as f64;
        let fin = site_finish[&site];
        let mean_proc = site_workers.iter().map(|w| w.processing).sum::<f64>() / n;
        let mean_retr = site_workers.iter().map(|w| w.retrieval).sum::<f64>() / n;
        let mean_barrier =
            site_workers.iter().map(|w| (fin - w.last_done).max(0.0)).sum::<f64>() / n;
        let mean_control = site_workers.iter().map(|w| w.control).sum::<f64>() / n;
        let idle = compute_finish - fin;
        report.sites.insert(
            site,
            SiteStats {
                breakdown: Breakdown {
                    processing: mean_proc,
                    retrieval: mean_retr,
                    sync: mean_barrier + mean_control + idle,
                },
                finish_time: fin,
                idle,
                jobs: counts.get(&site).copied().unwrap_or_default(),
                remote_bytes: site_workers.iter().map(|w| w.remote_bytes).sum(),
                retries: 0,
            },
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three providers: the campus cluster plus two clouds with different
    /// compute/storage profiles.
    fn three_sites() -> MultiEnv {
        let p = SimParams::paper();
        MultiEnv {
            name: "tri-cloud".into(),
            sites: vec![
                SiteSpec {
                    site: SiteId::LOCAL,
                    cores: 16,
                    cores_per_slave: 8,
                    compute_factor: 1.0,
                    jitter: p.local_jitter,
                    store: p.cluster_disk,
                    data_fraction: 0.2,
                },
                SiteSpec {
                    site: SiteId::CLOUD,
                    cores: 16,
                    cores_per_slave: 4,
                    compute_factor: 1.2,
                    jitter: p.cloud_jitter,
                    store: p.s3,
                    data_fraction: 0.4,
                },
                SiteSpec {
                    site: SiteId(2),
                    cores: 16,
                    cores_per_slave: 2,
                    compute_factor: 1.5,
                    jitter: 0.2,
                    store: ResourceSpec { servers: 16, per_channel_bw: 30e6, latency: 80e-3 },
                    data_fraction: 0.4,
                },
            ],
            wan: p.wan_bulk,
            control_latency: p.control_latency,
            robj_stream_bw: p.robj_stream_bw,
            merge_bw: p.merge_bw,
            seed: p.seed,
            dataset_bytes: p.dataset_bytes,
            n_files: p.n_files,
            n_chunks: p.n_chunks,
            rate_aware_stealing: true,
            chaos: None,
            speculation: false,
            redundancy: 1,
        }
    }

    #[test]
    fn three_site_run_conserves_jobs() {
        let report = simulate_multi(&AppModel::pagerank(), &three_sites());
        assert_eq!(report.total_jobs(), 96);
        assert_eq!(report.sites.len(), 3);
        assert!(report.total_time > 0.0);
    }

    #[test]
    fn three_site_run_is_deterministic() {
        let a = simulate_multi(&AppModel::knn(), &three_sites());
        let b = simulate_multi(&AppModel::knn(), &three_sites());
        assert_eq!(a, b);
    }

    #[test]
    fn placement_covers_every_file_proportionally() {
        let env = three_sites();
        let placement = env.file_placement();
        assert_eq!(placement.len(), 32);
        let count = |s: SiteId| placement.iter().filter(|&&x| x == s).count();
        // 0.2 / 0.4 / 0.4 of 32 files = 6-7 / 13 / 12-13.
        assert!((6..=7).contains(&count(SiteId::LOCAL)));
        assert!((12..=14).contains(&count(SiteId::CLOUD)));
        assert!((12..=14).contains(&count(SiteId(2))));
    }

    #[test]
    fn all_compute_on_one_site_steals_the_rest() {
        let mut env = three_sites();
        env.sites[1].cores = 0;
        env.sites[2].cores = 0;
        let report = simulate_multi(&AppModel::knn(), &env);
        let local = &report.sites[&SiteId::LOCAL];
        assert_eq!(local.jobs.total(), 96);
        assert!(local.jobs.stolen > 0);
        assert_eq!(report.sites.len(), 1);
    }

    #[test]
    fn global_reduction_scales_with_remote_sites() {
        let app = AppModel::pagerank();
        let three = simulate_multi(&app, &three_sites());
        let mut two = three_sites();
        two.sites.remove(2);
        two.sites[0].data_fraction = 0.4;
        two.sites[1].data_fraction = 0.6;
        let two = simulate_multi(&app, &two);
        assert!(
            three.global_reduction > two.global_reduction,
            "more remote sites exchange more robjs: {} vs {}",
            three.global_reduction,
            two.global_reduction
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_covers_workers() {
        let app = AppModel::knn();
        let env = three_sites();
        let (report, timeline) = simulate_multi_traced(&app, &env);
        assert_eq!(report, simulate_multi(&app, &env), "tracing must not perturb the run");
        // Every slave recorded activity: 16/8 + 16/4 + 16/2 = 2+4+8 = 14.
        assert_eq!(timeline.n_entities(), 14);
        for e in 0..timeline.n_entities() {
            assert!(timeline.busy_seconds(e) > 0.0, "slave {e} never worked");
        }
        // The trace horizon ends near the compute finish: the drained side's
        // final poll ticks may run slightly past the last completion.
        assert!(timeline.horizon().seconds() <= report.total_time + 0.5);
        // Retrieval + compute span time equals the reported mean-per-slave
        // times × slave counts exactly (control/polling spans excluded).
        let work_spans: f64 = timeline
            .spans()
            .iter()
            .filter(|s| s.kind != Activity::Control)
            .map(|s| s.end - s.start)
            .sum();
        let slaves_of = |site: SiteId| match site.0 {
            0 => 2.0, // 16 cores / 8 per node
            1 => 4.0, // 16 / 4
            _ => 8.0, // 16 / 2
        };
        let reported: f64 = report
            .sites
            .iter()
            .map(|(&site, s)| (s.breakdown.processing + s.breakdown.retrieval) * slaves_of(site))
            .sum();
        assert!(
            (work_spans - reported).abs() < reported * 1e-9,
            "spans {work_spans} vs reported {reported}"
        );
    }

    #[test]
    fn site_outage_is_evacuated_and_work_is_rehomed() {
        use cloudburst_core::SiteOutage;
        let mut env = three_sites();
        env.chaos = Some(FaultPlan {
            site_outage: Some(SiteOutage { site: SiteId(2), at: 1.0 }),
            ..FaultPlan::seeded(11)
        });
        let report = simulate_multi(&AppModel::knn(), &env);
        // Every chunk still merges exactly once, at a surviving site.
        assert_eq!(report.total_jobs(), 96);
        let recovered = report.faults.evacuated_jobs + report.faults.lost_results;
        assert!(recovered > 0, "the outage must have interrupted something");
        assert_eq!(report.faults.abandoned_jobs.len(), 0);
    }

    #[test]
    fn crashed_worker_leaks_its_job_until_the_lease_reaper_recovers_it() {
        use cloudburst_core::WorkerCrash;
        let mut env = three_sites();
        env.chaos = Some(FaultPlan {
            worker_crash: vec![WorkerCrash { site: SiteId::CLOUD, worker: 0, after_jobs: 1 }],
            ..FaultPlan::seeded(12)
        });
        let report = simulate_multi(&AppModel::knn(), &env);
        assert_eq!(report.total_jobs(), 96);
        assert!(report.faults.lease_expiries > 0, "the leaked job must be reaped");
    }

    #[test]
    fn chaos_replay_is_deterministic() {
        use cloudburst_core::{SiteOutage, SlowWorker};
        let mut env = three_sites();
        env.chaos = Some(FaultPlan {
            site_outage: Some(SiteOutage { site: SiteId(2), at: 2.0 }),
            slow_workers: vec![SlowWorker { site: SiteId::CLOUD, worker: 1, delay_per_job: 50.0 }],
            ..FaultPlan::seeded(13)
        });
        let a = simulate_multi(&AppModel::knn(), &env);
        let b = simulate_multi(&AppModel::knn(), &env);
        assert_eq!(a, b, "a seeded fault plan must replay byte-identically");
        assert!(!a.faults.is_quiet());
    }

    #[test]
    fn coded_redundancy_outruns_a_straggling_site() {
        use cloudburst_core::SlowSite;
        let mk = |speculation: bool, redundancy: u32| {
            let mut env = three_sites();
            env.chaos = Some(FaultPlan {
                slow_sites: vec![SlowSite { site: SiteId::CLOUD, factor: 8.0 }],
                ..FaultPlan::seeded(31)
            });
            env.speculation = speculation;
            env.redundancy = redundancy;
            simulate_multi(&AppModel::knn(), &env)
        };
        let none = mk(false, 1);
        let coded = mk(false, 2);
        assert_eq!(none.total_jobs(), 96);
        assert_eq!(coded.total_jobs(), 96);
        // Replicated chunks are read at the executing site: no WAN bytes.
        for (site, s) in &coded.sites {
            assert_eq!(s.remote_bytes, 0, "{site} crossed the WAN despite replicas");
        }
        // The straggling site's in-flight tail is rescued by proactive
        // replicas at the idle survivors, which `none` cannot do (a granted
        // job can only be duplicated by speculation or redundancy).
        assert!(coded.faults.replica_grants > 0, "survivors must pick up replica copies");
        assert!(
            coded.total_time < none.total_time,
            "coded {} vs none {}",
            coded.total_time,
            none.total_time
        );
    }

    #[test]
    fn slow_site_replay_is_deterministic_and_slower_than_clean() {
        use cloudburst_core::SlowSite;
        let mut env = three_sites();
        env.chaos = Some(FaultPlan {
            slow_sites: vec![SlowSite { site: SiteId(2), factor: 3.0 }],
            ..FaultPlan::seeded(17)
        });
        let a = simulate_multi(&AppModel::kmeans(), &env);
        let b = simulate_multi(&AppModel::kmeans(), &env);
        assert_eq!(a, b, "site-wide slowdown must replay identically");
        let clean = simulate_multi(&AppModel::kmeans(), &three_sites());
        assert!(a.total_time > clean.total_time, "a 3x site slowdown must cost wall-clock");
    }

    #[test]
    fn instrumented_run_matches_plain_and_narrates_the_chaos() {
        use cloudburst_core::{Recorder, SlowWorker, Telemetry, WorkerCrash};
        use std::sync::Arc;
        let mut env = three_sites();
        env.chaos = Some(FaultPlan {
            worker_crash: vec![WorkerCrash { site: SiteId::CLOUD, worker: 0, after_jobs: 1 }],
            slow_workers: vec![SlowWorker { site: SiteId(2), worker: 1, delay_per_job: 60.0 }],
            ..FaultPlan::seeded(21)
        });
        let app = AppModel::knn();
        let rec = Arc::new(Recorder::new());
        let report = simulate_multi_instrumented(&app, &env, &Telemetry::to(rec.clone()));
        assert_eq!(report, simulate_multi(&app, &env), "emission must not perturb the run");

        let events = rec.snapshot();
        // The virtual-time stream narrates the faults the report counts.
        let reaps = events.iter().filter(|e| e.kind == EventKind::LeaseReaped).count();
        assert_eq!(reaps as u64, report.faults.lease_expiries);
        assert!(reaps > 0, "the crashed worker's job must be reaped");
        let spec_grants = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::JobGranted { speculative: true, .. }))
            .count();
        assert_eq!(spec_grants as u64, report.faults.speculative_grants);
        assert!(spec_grants > 0, "the straggler must trigger speculation");
        // The run-finished stamp is the report's total time, in virtual ns.
        let end = events.last().expect("stream non-empty");
        assert_eq!(end.kind, EventKind::RunFinished);
        assert_eq!(end.at_ns, secs_to_ns(report.total_time));
        // Per-slave streams are monotonic in virtual time.
        let mut last: BTreeMap<(SiteId, u32), u64> = BTreeMap::new();
        for e in &events {
            if let (Some(s), Some(w)) = (e.site, e.worker) {
                let prev = last.entry((s, w)).or_insert(0);
                assert!(e.at_ns >= *prev, "slave stream went backwards");
                *prev = e.at_ns;
            }
        }
    }

    #[test]
    fn two_site_wrapper_matches_scenario() {
        // The delegated two-site path must reproduce the calibrated results.
        let app = AppModel::kmeans();
        let env = cloudburst_core::EnvConfig::new("env-33/67", 0.33, 16, 22);
        let params = SimParams::paper();
        let via_multi = simulate_multi(&app, &MultiEnv::two_site(&env, &app, &params));
        let via_scenario = crate::scenario::simulate(&app, &env, &params);
        assert_eq!(via_multi, via_scenario);
    }
}
