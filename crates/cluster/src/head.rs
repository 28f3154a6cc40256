//! The head node (paper §III-B): owns the global job pool, grants batches to
//! requesting masters (local first, then stealing), and records completions.
//!
//! With fault tolerance enabled the head also runs the recovery machinery:
//! it reaps expired job leases on a periodic tick, declares sites dead when
//! their heartbeat goes silent past the timeout, evacuates their work, and
//! answers every completion with a merge/discard verdict so duplicated
//! executions (speculation, reaped leases, evacuated sites) merge exactly
//! once.

use crate::protocol::{HeadMsg, HeadReport};
use cloudburst_core::{ChunkId, HeartbeatConfig, JobPool, Seconds, SiteId};
use crossbeam::channel::{Receiver, RecvTimeoutError};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared board of revoked chunk executions.
///
/// When the head reaps a lease or preempts a losing speculative copy it
/// posts the chunk here; slaves poll the board between (and during slow)
/// executions and abort work that can no longer win. Cancellation is purely
/// an optimization — the pool's dedup already guarantees exactly-once
/// merging even if a revoked execution runs to completion.
#[derive(Clone, Default)]
pub struct CancelBoard {
    inner: Arc<RwLock<HashSet<ChunkId>>>,
}

impl CancelBoard {
    /// An empty board.
    #[must_use]
    pub fn new() -> CancelBoard {
        CancelBoard::default()
    }

    /// Post `chunk` as revoked.
    pub fn revoke(&self, chunk: ChunkId) {
        self.inner.write().insert(chunk);
    }

    /// Clear `chunk`, typically because it was re-granted to a new owner.
    pub fn clear(&self, chunk: ChunkId) {
        self.inner.write().remove(&chunk);
    }

    /// Is `chunk` currently revoked?
    #[must_use]
    pub fn is_revoked(&self, chunk: ChunkId) -> bool {
        self.inner.read().contains(&chunk)
    }
}

impl std::fmt::Debug for CancelBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelBoard").field("revoked", &self.inner.read().len()).finish()
    }
}

/// Fault-tolerance knobs for the head loop. [`Default`] disables all of
/// them, reducing [`run_head_with`] to the classic fault-oblivious loop.
pub struct HeadOptions {
    /// Declare a site dead after this silence; `None` disables liveness
    /// tracking (channel-mode masters beacon at `interval`).
    pub heartbeat: Option<HeartbeatConfig>,
    /// Where to post revoked executions so slaves can abort early.
    pub cancel: Option<CancelBoard>,
    /// The origin of the head's clock; lease deadlines and heartbeat ages
    /// are measured in real seconds since this instant.
    pub epoch: Instant,
    /// The service-loop tick: how often expired leases and silent sites are
    /// checked for while no message is waiting.
    pub tick: Seconds,
    /// How many sites the run started with; once that many are dead the
    /// head abandons the remaining work so grants turn terminal instead of
    /// letting survivors-that-aren't poll forever. `0` disables the check.
    pub n_sites: usize,
}

impl Default for HeadOptions {
    fn default() -> HeadOptions {
        HeadOptions {
            heartbeat: None,
            cancel: None,
            epoch: Instant::now(),
            tick: 0.005,
            n_sites: 0,
        }
    }
}

/// Serve head requests until every sender has hung up, then report.
///
/// The classic entry point: no leases reaped, no liveness tracking. The
/// assignment policy itself lives in [`JobPool`], which the simulator
/// replays identically.
pub fn run_head(pool: JobPool, rx: Receiver<HeadMsg>) -> HeadReport {
    run_head_with(pool, rx, HeadOptions::default())
}

/// [`run_head`] with the fault-tolerance machinery of `options`.
///
/// The loop wakes at least every `options.tick` to feed the pool clock,
/// reap expired leases (revoking the reaped executions on the cancel
/// board), and evacuate sites whose heartbeat aged past the timeout. Any
/// message from a site also counts as a liveness beacon.
pub fn run_head_with(mut pool: JobPool, rx: Receiver<HeadMsg>, options: HeadOptions) -> HeadReport {
    let mut report = HeadReport::default();
    let mut last_beat: BTreeMap<SiteId, Seconds> = BTreeMap::new();
    let mut said_bye: HashSet<SiteId> = HashSet::new();
    let tick = Duration::from_secs_f64(options.tick.max(1e-4));
    loop {
        let now = options.epoch.elapsed().as_secs_f64();
        for (chunk, _site) in pool.reap_expired(now) {
            if let Some(board) = &options.cancel {
                board.revoke(chunk);
            }
        }
        if let Some(hb) = options.heartbeat {
            // A site that said goodbye is finished, not dead: its silence
            // from then on means nothing, however long the others still work.
            let silent: Vec<SiteId> = last_beat
                .iter()
                .filter(|&(site, _)| !said_bye.contains(site) && !pool.is_dead(*site))
                .filter(|&(_, &beat)| now - beat > hb.timeout)
                .map(|(&site, _)| site)
                .collect();
            for site in silent {
                pool.evacuate(site);
            }
        }
        if options.n_sites > 0 && !pool.all_done() && pool.dead_sites().len() >= options.n_sites {
            // Every site is dead: nobody is left to drain the backlog, so
            // abandon it — the empty grants turn terminal and the run ends
            // with an explicit incomplete report instead of a hang.
            pool.abandon_unfinished();
        }
        let msg = match rx.recv_timeout(tick) {
            Ok(msg) => msg,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        match msg {
            HeadMsg::RequestJobs { site, reply } => {
                report.requests += 1;
                last_beat.insert(site, now);
                let batch = pool.request_for_at(site, now);
                if let Some(board) = &options.cancel {
                    // A re-granted chunk is live again; stale revocations
                    // must not kill the new owner's execution.
                    for j in &batch.jobs {
                        board.clear(j.id);
                    }
                }
                // A dropped reply means the master died; the pool keeps the
                // jobs assigned, which surfaces as a lease expiry (FT on) or
                // a runtime-detected worker panic (FT off) — never silent
                // data loss.
                let _ = reply.send(batch);
            }
            HeadMsg::Complete { jobs, site, reply } => {
                last_beat.insert(site, now);
                let verdicts = jobs
                    .into_iter()
                    .map(|job| complete(&mut pool, &mut report, &options, job, site, now))
                    .collect();
                if let Some(reply) = reply {
                    let _ = reply.send(verdicts);
                }
            }
            HeadMsg::Failed { job, site } => {
                report.failures += 1;
                last_beat.insert(site, now);
                pool.fail(job, site);
            }
            HeadMsg::Heartbeat { site } => {
                last_beat.insert(site, now);
            }
            HeadMsg::Bye { site } => {
                said_bye.insert(site);
            }
        }
    }
    // Every master is gone. With liveness tracking on, any site that joined
    // but hung up without an orderly goodbye crashed mid-run — evacuate it
    // now so results that died with its robj are re-queued rather than
    // silently counted as done (the heartbeat timeout alone cannot catch a
    // death the run outpaced).
    if options.heartbeat.is_some() {
        let vanished: Vec<SiteId> = last_beat
            .keys()
            .filter(|site| !said_bye.contains(site) && !pool.is_dead(**site))
            .copied()
            .collect();
        for site in vanished {
            pool.evacuate(site);
        }
    }
    // If a dead site stranded work that no survivor could pick up (all
    // channels closed first), record it as abandoned so the runtime reports
    // a partial result instead of a silent one.
    if !pool.all_done() && !pool.dead_sites().is_empty() {
        pool.abandon_unfinished();
    }
    report.counts = pool.site_counts().clone();
    report.abandoned = pool.abandoned() as u64;
    report.faults = pool.faults().clone();
    report.dead_sites = pool.dead_sites();
    report
}

/// Record one completion of `job` at `site`; true when it was merged (the
/// first completion of its chunk) rather than discarded as a duplicate.
fn complete(
    pool: &mut JobPool,
    report: &mut HeadReport,
    options: &HeadOptions,
    job: ChunkId,
    site: SiteId,
    now: Seconds,
) -> bool {
    let outcome = pool.complete_at(job, site, now);
    if let cloudburst_core::Completion::Merged { preempted } = &outcome {
        report.completions += 1;
        if let Some(board) = &options.cancel {
            for _ in preempted {
                board.revoke(job);
            }
        }
    }
    outcome.is_merged()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_core::{BatchPolicy, DataIndex, LayoutParams, LeaseConfig, SiteId};
    use crossbeam::channel::{bounded, unbounded};

    fn pool(n_chunks: u64) -> JobPool {
        let idx = DataIndex::build(
            n_chunks * 2,
            LayoutParams { unit_size: 1, units_per_chunk: 2, n_files: 2 },
            |_| SiteId::LOCAL,
        )
        .unwrap();
        JobPool::from_index(&idx, BatchPolicy::Fixed(2))
    }

    /// Like [`pool`] but with all chunks in one file, so a `Fixed(2)` batch
    /// (which never spans files) is actually 2 jobs.
    fn pool_one_file(n_chunks: u64) -> JobPool {
        let idx = DataIndex::build(
            n_chunks * 2,
            LayoutParams { unit_size: 1, units_per_chunk: 2, n_files: 1 },
            |_| SiteId::LOCAL,
        )
        .unwrap();
        JobPool::from_index(&idx, BatchPolicy::Fixed(2))
    }

    #[test]
    fn head_serves_until_senders_drop() {
        let (tx, rx) = unbounded();
        let head = std::thread::spawn(move || run_head(pool(4), rx));

        let (btx, brx) = bounded(1);
        tx.send(HeadMsg::RequestJobs { site: SiteId::LOCAL, reply: btx }).unwrap();
        let batch = brx.recv().unwrap();
        assert_eq!(batch.len(), 2);
        for j in &batch.jobs {
            tx.send(HeadMsg::Complete { jobs: vec![j.id], site: SiteId::LOCAL, reply: None })
                .unwrap();
        }
        drop(tx);
        let report = head.join().unwrap();
        assert_eq!(report.requests, 1);
        assert_eq!(report.completions, 2);
        assert_eq!(report.counts[&SiteId::LOCAL].local, 2);
        assert!(report.faults.is_quiet());
        assert!(report.dead_sites.is_empty());
    }

    #[test]
    fn empty_pool_grants_empty_batches() {
        let (tx, rx) = unbounded();
        let head = std::thread::spawn(move || run_head(pool(2), rx));
        // Drain everything.
        loop {
            let (btx, brx) = bounded(1);
            tx.send(HeadMsg::RequestJobs { site: SiteId::CLOUD, reply: btx }).unwrap();
            let batch = brx.recv().unwrap();
            if batch.is_empty() {
                break;
            }
            for j in &batch.jobs {
                tx.send(HeadMsg::Complete { jobs: vec![j.id], site: SiteId::CLOUD, reply: None })
                    .unwrap();
            }
        }
        drop(tx);
        let report = head.join().unwrap();
        assert_eq!(report.counts[&SiteId::CLOUD].stolen, 2, "all-local data read from cloud");
    }

    #[test]
    fn silent_site_is_evacuated_on_heartbeat_timeout() {
        let (tx, rx) = unbounded();
        let options = HeadOptions {
            heartbeat: Some(HeartbeatConfig { interval: 0.005, timeout: 0.03 }),
            tick: 0.002,
            ..HeadOptions::default()
        };
        let head = std::thread::spawn(move || run_head_with(pool(4), rx, options));

        // The cloud site takes a batch, then goes silent. The local site
        // keeps beaconing and eventually inherits the work as steals.
        let (btx, brx) = bounded(1);
        tx.send(HeadMsg::RequestJobs { site: SiteId::CLOUD, reply: btx }).unwrap();
        let stranded = brx.recv().unwrap();
        assert_eq!(stranded.len(), 2);

        let deadline = Instant::now() + Duration::from_secs(5);
        let mut done = 0usize;
        while done < 4 {
            assert!(Instant::now() < deadline, "local site never inherited the work");
            tx.send(HeadMsg::Heartbeat { site: SiteId::LOCAL }).unwrap();
            let (btx, brx) = bounded(1);
            tx.send(HeadMsg::RequestJobs { site: SiteId::LOCAL, reply: btx }).unwrap();
            let batch = brx.recv().unwrap();
            // The whole batch is settled in one exchange.
            let jobs: Vec<ChunkId> = batch.jobs.iter().map(|j| j.id).collect();
            done += jobs.len();
            let (ack_tx, ack_rx) = bounded(1);
            tx.send(HeadMsg::Complete { jobs, site: SiteId::LOCAL, reply: Some(ack_tx) }).unwrap();
            let verdicts = ack_rx.recv().unwrap();
            assert_eq!(verdicts, vec![true; batch.len()], "survivor completions must merge");
        }
        tx.send(HeadMsg::Bye { site: SiteId::LOCAL }).unwrap();
        drop(tx);
        let report = head.join().unwrap();
        assert_eq!(report.dead_sites, vec![SiteId::CLOUD]);
        assert_eq!(report.faults.evacuated_jobs, 2);
        assert_eq!(report.completions, 4);
        assert_eq!(report.abandoned, 0);
    }

    #[test]
    fn duplicate_completion_is_nacked_and_counted() {
        let (tx, rx) = unbounded();
        let mut p = pool_one_file(2);
        p.set_lease(LeaseConfig::default());
        let options = HeadOptions { cancel: Some(CancelBoard::new()), ..HeadOptions::default() };
        let head = std::thread::spawn(move || run_head_with(p, rx, options));

        let (btx, brx) = bounded(1);
        tx.send(HeadMsg::RequestJobs { site: SiteId::LOCAL, reply: btx }).unwrap();
        let batch = brx.recv().unwrap();
        let job = batch.jobs[0].id;

        let (ack_tx, ack_rx) = bounded(1);
        let first = HeadMsg::Complete { jobs: vec![job], site: SiteId::LOCAL, reply: Some(ack_tx) };
        tx.send(first).unwrap();
        assert_eq!(ack_rx.recv().unwrap(), [true], "first completion merges");

        // One report, a verdict per job: the repeat is a duplicate, its
        // batch-mate merges.
        let (ack_tx, ack_rx) = bounded(1);
        let jobs = vec![job, batch.jobs[1].id];
        tx.send(HeadMsg::Complete { jobs, site: SiteId::LOCAL, reply: Some(ack_tx) }).unwrap();
        assert_eq!(ack_rx.recv().unwrap(), [false, true]);
        drop(tx);
        let report = head.join().unwrap();
        assert_eq!(report.completions, 2);
        assert_eq!(report.faults.duplicate_completions, 1);
    }

    #[test]
    fn reaped_lease_is_posted_to_the_cancel_board() {
        let (tx, rx) = unbounded();
        let board = CancelBoard::new();
        let mut p = pool_one_file(2);
        // Tiny max lease: every grant expires almost immediately.
        p.set_lease(LeaseConfig { base: 0.01, min: 0.01, max: 0.01, ..LeaseConfig::default() });
        let options =
            HeadOptions { cancel: Some(board.clone()), tick: 0.002, ..HeadOptions::default() };
        let head = std::thread::spawn(move || run_head_with(p, rx, options));

        let (btx, brx) = bounded(1);
        tx.send(HeadMsg::RequestJobs { site: SiteId::LOCAL, reply: btx }).unwrap();
        let batch = brx.recv().unwrap();
        assert_eq!(batch.len(), 2);
        let job = batch.jobs[0].id;

        let deadline = Instant::now() + Duration::from_secs(5);
        while !board.is_revoked(job) {
            assert!(Instant::now() < deadline, "lease was never reaped onto the board");
            std::thread::sleep(Duration::from_millis(1));
        }

        // Re-granting the chunk clears the stale revocation.
        let (btx, brx) = bounded(1);
        tx.send(HeadMsg::RequestJobs { site: SiteId::LOCAL, reply: btx }).unwrap();
        let regrant = brx.recv().unwrap();
        assert!(regrant.jobs.iter().any(|j| j.id == job));
        assert!(!board.is_revoked(job));

        for j in &regrant.jobs {
            tx.send(HeadMsg::Complete { jobs: vec![j.id], site: SiteId::LOCAL, reply: None })
                .unwrap();
        }
        drop(tx);
        let report = head.join().unwrap();
        assert!(report.faults.lease_expiries >= 2);
    }
}
