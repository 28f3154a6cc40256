//! The head node over channels: [`HeadCore`] fed from one mailbox of
//! [`HeadMsg`]s, with revoked executions published on a [`CancelBoard`].

use crate::head_core::HeadCore;
use crate::protocol::{HeadMsg, HeadReport};
use crate::runtime::RuntimeConfig;
use crate::wire::{Frame, MasterToHead};
use cloudburst_core::{ChunkId, HeartbeatConfig, JobPool, Metrics};
use crossbeam::channel::{Receiver, RecvTimeoutError};
use parking_lot::RwLock;
use std::collections::HashSet;
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

/// What a head is told at start-up, on either transport. [`Default`] is the
/// classic fault-oblivious head.
pub struct HeadOptions {
    /// Declare a peer dead after `timeout` of silence (masters beacon at
    /// `interval`); `None` disables liveness tracking.
    pub heartbeat: Option<HeartbeatConfig>,
    /// Run the lease reaper and treat a peer that goes away without `Bye` as
    /// a site death to evacuate, not (over TCP) as the run's error. A
    /// `heartbeat` implies it.
    pub ft_active: bool,
    /// The origin of the head's clock; lease deadlines and heartbeat ages
    /// are measured in real seconds since this instant.
    pub epoch: Instant,
    /// Live-metrics handle for the TCP head's connection gauges and wake-up
    /// counter (`cloudburst_head_*`); [`Metrics::off`] publishes nothing.
    pub metrics: Metrics,
}

impl HeadOptions {
    /// What a run under `config` tells its head.
    pub(crate) fn of(config: &RuntimeConfig, ft_active: bool, epoch: Instant) -> HeadOptions {
        let (heartbeat, metrics) = (config.ft.heartbeat, config.metrics.clone());
        HeadOptions { heartbeat, ft_active, epoch, metrics }
    }
}

impl Default for HeadOptions {
    fn default() -> HeadOptions {
        HeadOptions {
            heartbeat: None,
            ft_active: false,
            epoch: Instant::now(),
            metrics: Metrics::off(),
        }
    }
}

/// Serve the head of a run of `n_sites` sites until every sender has hung
/// up, then report: a [`HeadCore`] fed from the channel. The loop sleeps
/// until a message arrives or the core's next deadline, and posts every
/// revocation the core issues on `cancel` — where the slaves of every site
/// look — taking a chunk off it again when the chunk is granted anew.
pub fn run_head(
    pool: JobPool,
    rx: Receiver<HeadMsg>,
    n_sites: usize,
    cancel: Option<&CancelBoard>,
    options: &HeadOptions,
) -> HeadReport {
    let mut core = HeadCore::new(pool, n_sites, options.heartbeat, options.ft_active);
    let publish = |core: &mut HeadCore| {
        if let Some(board) = cancel {
            for chunk in core.take_revocations().into_values().flatten() {
                board.revoke(chunk);
            }
        }
    };
    loop {
        let now = options.epoch.elapsed().as_secs_f64();
        core.on_tick(now);
        publish(&mut core);
        let msg = match core.next_deadline() {
            Some(due) => rx.recv_timeout(Duration::from_secs_f64((due - now).max(0.0))),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        let now = options.epoch.elapsed().as_secs_f64();
        match msg {
            Ok(HeadMsg::RequestJobs { site, reply }) => {
                let batch = core.request(site, now);
                if let Some(board) = cancel {
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
            Ok(HeadMsg::Complete { jobs, site, reply }) => {
                let verdicts = core.settle(site, &jobs, now);
                publish(&mut core);
                if let Some(reply) = reply {
                    let _ = reply.send(verdicts);
                }
            }
            Ok(HeadMsg::Failed { job, site }) => {
                core.on_frame(site.into(), Frame::Legacy(MasterToHead::Failed { job, site }), now);
            }
            Ok(HeadMsg::Heartbeat { site }) => {
                core.on_frame(site.into(), Frame::Legacy(MasterToHead::Ping { site }), now);
            }
            Ok(HeadMsg::Bye { site }) => {
                core.on_frame(site.into(), Frame::Legacy(MasterToHead::Bye), now);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return core.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudburst_core::{BatchPolicy, DataIndex, LayoutParams, SiteId};
    use crossbeam::channel::{bounded, unbounded};

    /// The adapter's own work, end to end and without a clock: messages in,
    /// replies out, a revocation on the board before the verdict that caused
    /// it is sent, off it when the chunk is granted again, and the report
    /// when the senders are gone. (What the messages *mean* is tested against
    /// [`HeadCore`] under a virtual clock.)
    #[test]
    fn head_serves_until_senders_drop_and_mirrors_revocations_onto_the_board() {
        let params = LayoutParams { unit_size: 1, units_per_chunk: 2, n_files: 1 };
        let idx = DataIndex::build(2, params, |_| SiteId::LOCAL).unwrap();
        let mut pool = JobPool::from_index(&idx, BatchPolicy::Fixed(2));
        pool.set_redundancy(2);
        let (tx, rx) = unbounded();
        let board = CancelBoard::new();
        let head = std::thread::spawn({
            let board = board.clone();
            move || run_head(pool, rx, 2, Some(&board), &HeadOptions::default())
        });
        let request = |site| {
            let (btx, brx) = bounded(1);
            tx.send(HeadMsg::RequestJobs { site, reply: btx }).unwrap();
            brx.recv().unwrap()
        };
        let settle = |site, job| {
            let (atx, arx) = bounded(1);
            tx.send(HeadMsg::Complete { jobs: vec![job], site, reply: Some(atx) }).unwrap();
            arx.recv().unwrap()
        };
        let job = request(SiteId::LOCAL).jobs[0].id;
        board.revoke(job); // stale, from some earlier life of the chunk
        assert_eq!(request(SiteId::CLOUD).jobs[0].id, job, "the idle site gets a replica");
        assert!(!board.is_revoked(job), "a granted chunk is live");
        assert_eq!(settle(SiteId::CLOUD, job), [true]);
        assert!(board.is_revoked(job), "the slower copy was not fenced");
        assert_eq!(settle(SiteId::LOCAL, job), [false]);
        tx.send(HeadMsg::Heartbeat { site: SiteId::LOCAL }).unwrap();
        tx.send(HeadMsg::Bye { site: SiteId::LOCAL }).unwrap();
        drop(tx);
        let report = head.join().unwrap();
        assert_eq!((report.requests, report.completions), (2, 1));
        assert_eq!(report.faults.replica_fences, 1);
        assert_eq!(report.counts[&SiteId::CLOUD].stolen, 1);
        assert!(report.dead_sites.is_empty());
    }
}
