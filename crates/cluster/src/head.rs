//! The head node over channels: [`HeadCore`] fed from one mailbox of
//! [`HeadMsg`]s, every one of them a frame for [`HeadCore::on_frame`], its
//! answers posted into the masters' mailboxes or to the settling slave.
//! Revocation notices reach a site only in its master's replies, as over
//! TCP.

use crate::head_core::{HeadCore, Reply};
use crate::protocol::{HeadMsg, HeadReport, MasterMsg};
use crate::runtime::RuntimeConfig;
use crate::wire::{AckEntry, Frame};
use cloudburst_core::{ChunkId, HeartbeatConfig, JobPool, Metrics, SiteId};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use std::collections::BTreeMap;
use std::io;
use std::time::{Duration, Instant};

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
    /// Live-metrics handle the head publishes its pool's ledger to;
    /// [`Metrics::off`] publishes nothing.
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

/// The mailboxes of the masters that joined, by site. However the head's
/// loop ends — a panic included — each is told the head is gone, so no
/// master waits for an answer that will not come.
#[derive(Default)]
struct Masters(BTreeMap<SiteId, Sender<MasterMsg>>);

impl Drop for Masters {
    fn drop(&mut self) {
        for mailbox in self.0.values() {
            let gone = io::Error::new(io::ErrorKind::BrokenPipe, "the head is gone");
            let _ = mailbox.send(MasterMsg::HeadGone(gone));
        }
    }
}

/// Serve the head of a run of `n_sites` sites until every sender has hung
/// up, then report: a [`HeadCore`] fed from the channel. The loop sleeps
/// until a message arrives or the core's next deadline. A master's frames
/// are the core's `on_frame`, as over TCP, and each `BatchReply` is posted
/// into the master's mailbox; a slave's settle is served as an `AckBatch`
/// that asks for nothing, its verdicts sent back, and the site's revocation
/// notices that reply took are carried to the front of its master's next
/// one — a reply the master handles before any later grant lands.
pub fn run_head(
    pool: JobPool,
    rx: Receiver<HeadMsg>,
    n_sites: usize,
    options: &HeadOptions,
) -> HeadReport {
    let mut core = HeadCore::new(pool, n_sites, options.heartbeat, options.ft_active);
    core.set_ledger(options.metrics.ledger());
    let mut masters = Masters::default();
    let mut carried: BTreeMap<SiteId, Vec<ChunkId>> = BTreeMap::new();
    loop {
        let now = options.epoch.elapsed().as_secs_f64();
        core.on_tick(now);
        // Every turn ends here, before the head waits again.
        core.publish_ledger();
        let msg = match core.next_deadline() {
            Some(due) => rx.recv_timeout(Duration::from_secs_f64((due - now).max(0.0))),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        let now = options.epoch.elapsed().as_secs_f64();
        // A frame, and the slave whose settle it serves, if it is one.
        let (site, frame, slave) = match msg {
            Ok(HeadMsg::Connect { site, mailbox }) => {
                masters.0.insert(site, mailbox);
                continue;
            }
            Ok(HeadMsg::Spare(batch)) => {
                core.recycle(batch);
                continue;
            }
            Ok(HeadMsg::Frame { site, frame }) => (site, frame, None),
            Ok(HeadMsg::Complete { jobs, site, reply }) => {
                let entries = jobs.into_iter().map(|job| AckEntry { job, ok: true }).collect();
                (site, Frame::AckBatch { site, want: 0, entries }, Some(reply))
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return core.finish(),
        };
        let Reply::Batch(mut reply) = core.on_frame(site.into(), frame, now) else { continue };
        if let Some(mut slave) = slave {
            reply.verdicts.into_iter().for_each(|merged| slave.send(merged));
            if !reply.revoked.is_empty() {
                carried.entry(site).or_default().append(&mut reply.revoked);
            }
        } else if let Some(mailbox) = masters.0.get(&site) {
            if let Some(mut notices) = carried.remove(&site) {
                notices.append(&mut reply.revoked);
                reply.revoked = notices;
            }
            // A master that is gone has let go of its mailbox; the pool
            // keeps its grant assigned, which surfaces as a lease expiry
            // (FT on) or a runtime-detected worker panic (FT off) — never
            // silent data loss.
            let _ = mailbox.send(MasterMsg::HeadReply(reply));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Verdicts;
    use crate::wire::{BatchReply, Frame, MasterToHead};
    use cloudburst_core::{BatchPolicy, DataIndex, LayoutParams};
    use crossbeam::channel::{bounded, unbounded};

    /// The adapter's own work, end to end and without a clock: frames in,
    /// replies into the masters' mailboxes, a slave's settle answered with
    /// its verdicts alone — a fence rides the losing master's next reply,
    /// even one the settle's own reply took — the report when the senders
    /// are gone, and then word to every master that the head is. (What the
    /// messages *mean* is tested against [`HeadCore`] under a virtual clock.)
    #[test]
    fn head_serves_until_senders_drop_and_fences_only_in_the_masters_replies() {
        let params = LayoutParams { unit_size: 1, units_per_chunk: 2, n_files: 1 };
        let idx = DataIndex::build(2, params, |_| SiteId::LOCAL).unwrap();
        let mut pool = JobPool::from_index(&idx, BatchPolicy::Fixed(2));
        pool.set_redundancy(2);
        let (tx, rx) = unbounded();
        let head = std::thread::spawn(move || run_head(pool, rx, 2, &HeadOptions::default()));
        let mailboxes = [SiteId::LOCAL, SiteId::CLOUD].map(|site| {
            let (mailbox, master) = unbounded();
            tx.send(HeadMsg::Connect { site, mailbox }).unwrap();
            master
        });
        let frame = |site: SiteId, frame| tx.send(HeadMsg::Frame { site, frame }).unwrap();
        let exchange = |site: SiteId, want| -> BatchReply {
            frame(site, Frame::AckBatch { site, want, entries: Vec::new() });
            match mailboxes[site.0 as usize].recv().unwrap() {
                MasterMsg::HeadReply(reply) => reply,
                _ => panic!("a frame is answered by a batch reply"),
            }
        };
        let settle = |site, job| {
            let (atx, arx) = bounded(1);
            let reply = Verdicts::new(&atx, 1);
            tx.send(HeadMsg::Complete { jobs: vec![job], site, reply }).unwrap();
            [arx.recv().unwrap() == Some(true)]
        };
        let job = exchange(SiteId::LOCAL, 1).grant.jobs[0].id;
        assert_eq!(
            exchange(SiteId::CLOUD, 1).grant.jobs[0].id,
            job,
            "the idle site gets a replica"
        );
        assert_eq!(settle(SiteId::CLOUD, job), [true]);
        assert!(exchange(SiteId::CLOUD, 0).revoked.is_empty(), "the winner is not fenced");
        // The slower copy's settle takes its site's notice: carried on, not
        // lost, and heard once, in the master's next reply.
        assert_eq!(settle(SiteId::LOCAL, job), [false]);
        assert!(mailboxes[0].try_recv().is_err(), "a settle is answered to its slave alone");
        assert_eq!(exchange(SiteId::LOCAL, 0).revoked, [job], "the slower copy is fenced");
        assert!(exchange(SiteId::LOCAL, 0).revoked.is_empty());
        frame(SiteId::LOCAL, Frame::Legacy(MasterToHead::Bye));
        drop(tx);
        let report = head.join().unwrap();
        assert_eq!((report.requests, report.completions), (2, 1));
        assert_eq!(report.faults.replica_fences, 1);
        assert_eq!(report.counts[&SiteId::CLOUD].stolen, 1);
        assert!(report.dead_sites.is_empty());
        for master in mailboxes {
            assert!(matches!(master.try_recv(), Ok(MasterMsg::HeadGone(_))));
        }
    }
}
