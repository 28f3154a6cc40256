//! The head node (paper §III-B) as a state machine with no I/O in it: it
//! owns the global job pool, grants batches to requesting masters (local
//! first, then stealing), rules on every completion — merged, or a duplicate
//! to discard — and runs the recovery machinery: the lease reaper on a 1 ms
//! tick, evacuation of a peer that fell silent past the heartbeat timeout or
//! went away without a goodbye, and the abandonment of what nobody is left to
//! do. Messages and the time come in as arguments, replies go out as return
//! values; [`crate::head`] carries them over channels and [`crate::reactor`]
//! over TCP, and each waits no longer than [`HeadCore::next_deadline`].

use crate::protocol::HeadReport;
use crate::wire::{BatchReply, Frame, MasterToHead, MAX_REVOKED, WIRE_VERSION};
use cloudburst_core::{
    ChunkId, Completion, HeartbeatConfig, JobBatch, JobPool, LiveLedger, Seconds, SiteId,
};
use std::collections::BTreeMap;

/// Lease-reap cadence.
const REAP_EVERY: Seconds = 1e-3;

/// Who a message came from: one control connection, or — on a transport
/// with one peer per site — the site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Peer(pub u64);

impl From<SiteId> for Peer {
    fn from(site: SiteId) -> Peer {
        Peer(u64::from(site.0))
    }
}

struct PeerState {
    /// Learned from the first site-bearing frame; where evacuation goes.
    site: Option<SiteId>,
    last_heard: Seconds,
    /// Leaving in good order: its silence from now on means nothing.
    said_bye: bool,
}

/// What the head answers a [`Frame`] with.
#[derive(Debug, PartialEq)]
pub enum Reply {
    /// Nothing.
    None,
    /// The version this connection will speak: the lower of the peer's and
    /// this head's.
    HelloAck(u16),
    /// The answer to `GetJobs`.
    Grant(JobBatch),
    /// The answer to `AckBatch`.
    Batch(BatchReply),
    /// Nothing, and the peer has said its last: drop it once its replies
    /// are out.
    Bye,
    /// The same, but that version is one this head no longer serves: send
    /// the acknowledgement, then treat the connection as broken.
    Refused(u16),
}

/// The head's whole state (see the module docs).
pub struct HeadCore {
    pool: JobPool,
    report: HeadReport,
    peers: BTreeMap<Peer, PeerState>,
    /// Revocation notices not yet delivered, by the site that must drop the
    /// jobs, oldest first: fed by the lease reaper and by completions that
    /// preempt a slower copy, emptied for a chunk the moment the site is
    /// granted it again.
    revocations: BTreeMap<SiteId, Vec<ChunkId>>,
    /// Grants the transport is done with, emptied: the next grants are built
    /// in their buffers ([`HeadCore::recycle`]).
    spares: Vec<JobBatch>,
    /// How many sites the run started with; once that many are dead the
    /// rest of the work is abandoned, so grants turn terminal instead of
    /// letting survivors-that-aren't poll forever. `0` disables the check.
    n_sites: usize,
    /// Run the lease reaper, and evacuate a peer that goes away without
    /// `Bye`.
    ft_active: bool,
    /// Silence that means death.
    silence: Option<Seconds>,
    next_reap: Seconds,
    /// A peer's silence deadline only ever moves later, so the earliest one
    /// seen at the last scan is a safe time to scan again.
    next_silence_scan: Seconds,
    /// Where the pool's ledger is published for the scrape (off by default).
    ledger: LiveLedger,
}

impl HeadCore {
    /// A head over `pool` for a run of `n_sites` sites, its clock at 0.
    /// Listening for heartbeats is fault tolerance whatever `ft_active` says:
    /// a peer declared dead is evacuated.
    #[must_use]
    pub fn new(
        pool: JobPool,
        n_sites: usize,
        heartbeat: Option<HeartbeatConfig>,
        ft_active: bool,
    ) -> HeadCore {
        let silence = heartbeat.map(|hb| hb.timeout.max(0.0));
        HeadCore {
            pool,
            report: HeadReport::default(),
            peers: BTreeMap::new(),
            revocations: BTreeMap::new(),
            spares: Vec::new(),
            n_sites,
            ft_active: ft_active || heartbeat.is_some(),
            silence,
            next_reap: REAP_EVERY,
            next_silence_scan: silence.unwrap_or(0.0),
            ledger: LiveLedger::default(),
        }
    }

    /// Publish the pool to `ledger` now, at each publish and at the finish.
    pub fn set_ledger(&mut self, ledger: LiveLedger) {
        self.ledger = ledger;
        self.publish_ledger();
    }

    /// Publish the pool to the live ledger, if any (after each turn).
    pub fn publish_ledger(&self) {
        self.ledger.publish_pool(&self.pool);
    }

    /// The pool, for inspection.
    #[must_use]
    pub fn pool(&self) -> &JobPool {
        &self.pool
    }

    /// Whether a peer that breaks off is a site death to recover from (and
    /// not the run's error).
    #[must_use]
    pub fn ft_active(&self) -> bool {
        self.ft_active
    }

    /// A connection opened: its silence counts from now, whether or not it
    /// ever says which site it is.
    pub fn on_connect(&mut self, peer: Peer, now: Seconds) {
        self.peers.insert(peer, PeerState { site: None, last_heard: now, said_bye: false });
    }

    /// Any message from a site is also its liveness beacon (and, on a
    /// transport without connections, how the head first learns of the peer).
    fn heard(&mut self, peer: Peer, site: SiteId, now: Seconds) {
        let fresh = PeerState { site: None, last_heard: now, said_bye: false };
        let state = self.peers.entry(peer).or_insert(fresh);
        state.site = Some(site);
        state.last_heard = now;
    }

    /// Serve one frame of the wire protocol.
    pub fn on_frame(&mut self, peer: Peer, frame: Frame, now: Seconds) -> Reply {
        match frame {
            Frame::Legacy(MasterToHead::Failed { job, site }) => {
                self.heard(peer, site, now);
                self.report.failures += 1;
                self.pool.fail(job, site);
                Reply::None
            }
            Frame::Legacy(MasterToHead::Ping { site }) => {
                self.heard(peer, site, now);
                Reply::None
            }
            Frame::Legacy(MasterToHead::Bye) => {
                if let Some(state) = self.peers.get_mut(&peer) {
                    state.said_bye = true;
                }
                Reply::Bye
            }
            // An old peer is turned away before it is believed: the site it
            // names may be alive and well on another connection.
            Frame::Hello { version, .. } if version < WIRE_VERSION => Reply::Refused(version),
            Frame::Hello { site, .. } => {
                self.heard(peer, site, now);
                Reply::HelloAck(WIRE_VERSION)
            }
            Frame::GetJobs { site, max } => {
                self.heard(peer, site, now);
                Reply::Grant(self.grant(site, usize::from(max), now))
            }
            Frame::AckBatch { site, want, entries } => {
                self.heard(peer, site, now);
                let verdicts = entries
                    .iter()
                    .map(|e| {
                        if e.ok {
                            self.complete(e.job, site, now)
                        } else {
                            self.report.failures += 1;
                            self.pool.fail(e.job, site);
                            false
                        }
                    })
                    .collect();
                // `want: 0` carries verdicts or flushes reports; it still
                // learns whether the run is over.
                let grant = self.grant(site, usize::from(want), now);
                let revoked = self.notices_for(site);
                Reply::Batch(BatchReply { verdicts, revoked, grant })
            }
        }
    }

    /// Up to `max` jobs for `site`, counted as a request when it asks for
    /// any, in a spare grant's buffers if there is one.
    fn grant(&mut self, site: SiteId, max: usize, now: Seconds) -> JobBatch {
        self.report.requests += u64::from(max > 0);
        let spare = if max > 0 { self.spares.pop() } else { None };
        let mut batch = spare.unwrap_or_else(|| JobBatch::empty(false));
        self.pool.grant_into(site, max, now, &mut batch);
        self.clear_granted(site, &batch);
        batch
    }

    /// A grant the transport is done with — encoded, or queued by its master
    /// — whose buffers serve a later grant. As many are kept as the
    /// transport hands back, which is as many as were ever out at once.
    pub fn recycle(&mut self, batch: JobBatch) {
        if batch.jobs.capacity() > 0 {
            self.spares.push(batch);
        }
    }

    /// The revocation notices one reply to `site` carries: the oldest
    /// [`MAX_REVOKED`], the rest kept for its next reply.
    fn notices_for(&mut self, site: SiteId) -> Vec<ChunkId> {
        match self.revocations.get_mut(&site) {
            Some(list) if list.len() > MAX_REVOKED => {
                let rest = list.split_off(MAX_REVOKED);
                std::mem::replace(list, rest)
            }
            _ => self.revocations.remove(&site).unwrap_or_default(),
        }
    }

    /// A master asks for a batch sized by the pool's policy — the
    /// simulator's masters, which do not size their own asks (the runtime's
    /// speak frames, [`HeadCore::on_frame`]).
    pub fn request(&mut self, site: SiteId, now: Seconds) -> JobBatch {
        self.heard(site.into(), site, now);
        self.report.requests += 1;
        let batch = self.pool.request_for_at(site, now);
        self.clear_granted(site, &batch);
        batch
    }

    /// `site`'s slaves report `jobs` complete: per job, whether the result
    /// is the chunk's first and must be merged (`true`) or a duplicate to
    /// discard.
    pub fn settle(&mut self, site: SiteId, jobs: &[ChunkId], now: Seconds) -> Vec<bool> {
        self.heard(site.into(), site, now);
        jobs.iter().map(|&job| self.complete(job, site, now)).collect()
    }

    fn complete(&mut self, job: ChunkId, site: SiteId, now: Seconds) -> bool {
        let outcome = self.pool.complete_at(job, site, now);
        if let Completion::Merged { preempted } = &outcome {
            self.report.completions += 1;
            for &loser in preempted {
                self.revocations.entry(loser).or_default().push(job);
            }
        }
        outcome.is_merged()
    }

    /// A freshly granted job is live again: a stale notice must not fence
    /// the new copy for its predecessor's death.
    fn clear_granted(&mut self, site: SiteId, batch: &JobBatch) {
        if let Some(list) = self.revocations.get_mut(&site) {
            list.retain(|id| !batch.jobs.iter().any(|j| j.id == *id));
            if list.is_empty() {
                self.revocations.remove(&site);
            }
        }
    }

    /// Every undelivered revocation notice, for a transport that publishes
    /// them itself instead of waiting for the site's next `AckBatch`.
    pub fn take_revocations(&mut self) -> BTreeMap<SiteId, Vec<ChunkId>> {
        std::mem::take(&mut self.revocations)
    }

    /// When [`HeadCore::on_tick`] next has something to do, if ever.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Seconds> {
        let reap = self.ft_active.then_some(self.next_reap);
        let scan = self.silence.map(|_| self.next_silence_scan);
        match (reap, scan) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Do what is due at `now`: reap expired leases, and evacuate the peers
    /// silent past the timeout — returned, so a transport that holds a
    /// connection per peer can drop theirs.
    pub fn on_tick(&mut self, now: Seconds) -> Vec<Peer> {
        if self.ft_active && now >= self.next_reap {
            for (job, site) in self.pool.reap_expired(now) {
                self.revocations.entry(site).or_default().push(job);
            }
            self.next_reap = now + REAP_EVERY;
        }
        let mut silent = Vec::new();
        if let Some(limit) = self.silence.filter(|_| now >= self.next_silence_scan) {
            self.next_silence_scan = now + limit;
            for (&peer, state) in self.peers.iter().filter(|(_, state)| !state.said_bye) {
                let due = state.last_heard + limit;
                if due <= now {
                    silent.push(peer);
                } else {
                    self.next_silence_scan = self.next_silence_scan.min(due);
                }
            }
            for &peer in &silent {
                self.on_disconnect(peer);
            }
        }
        silent
    }

    /// `peer` is gone. Without a goodbye that is a site death: evacuate it
    /// (fault tolerance on), so results that died with its reduction object
    /// are queued again rather than silently counted as done.
    pub fn on_disconnect(&mut self, peer: Peer) {
        let Some(PeerState { site: Some(site), said_bye: false, .. }) = self.peers.remove(&peer)
        else {
            return;
        };
        if !self.ft_active {
            return;
        }
        self.pool.evacuate(site);
        let dead = self.pool.dead_sites().len();
        if self.n_sites > 0 && dead >= self.n_sites && !self.pool.all_done() {
            // Every site is dead: nobody is left to drain the backlog.
            self.pool.abandon_unfinished();
        }
    }

    /// Every peer is gone: write the run up.
    #[must_use]
    pub fn finish(mut self) -> HeadReport {
        // Whoever never took its leave crashed, however quietly.
        let left: Vec<Peer> = self.peers.keys().copied().collect();
        for peer in left {
            self.on_disconnect(peer);
        }
        let mut pool = self.pool;
        // A dead site can strand work when every surviving master drained and
        // left before its jobs were re-homed: record it as abandoned, so the
        // runtime reports a partial result instead of a silent one.
        if !pool.all_done() && !pool.dead_sites().is_empty() {
            pool.abandon_unfinished();
        }
        // The last scrape is the report.
        self.ledger.publish_pool(&pool);
        let mut report = self.report;
        report.counts = pool.site_counts();
        report.abandoned = pool.abandoned() as u64;
        report.faults = pool.faults().clone();
        report.dead_sites = pool.dead_sites();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::AckEntry;
    use cloudburst_core::{BatchPolicy, DataIndex, LayoutParams, LeaseConfig};

    const LOCAL: SiteId = SiteId::LOCAL;
    const CLOUD: SiteId = SiteId::CLOUD;
    const HEARTBEAT: HeartbeatConfig = HeartbeatConfig { interval: 0.005, timeout: 0.03 };

    /// `n_chunks` chunks, all hosted locally, over `n_files` files; a
    /// `Fixed(2)` batch never spans files.
    fn pool(n_chunks: u64, n_files: u32) -> JobPool {
        let params = LayoutParams { unit_size: 1, units_per_chunk: 2, n_files };
        let idx = DataIndex::build(n_chunks * 2, params, |_| LOCAL).unwrap();
        JobPool::from_index(&idx, BatchPolicy::Fixed(2))
    }

    fn ids(batch: &JobBatch) -> Vec<ChunkId> {
        batch.jobs.iter().map(|j| j.id).collect()
    }

    /// The `AckBatch` exchange: report `done` complete, ask for `want` more.
    fn ack_batch(
        head: &mut HeadCore,
        peer: Peer,
        site: SiteId,
        want: u16,
        done: &[ChunkId],
        now: Seconds,
    ) -> BatchReply {
        let entries = done.iter().map(|&job| AckEntry { job, ok: true }).collect();
        match head.on_frame(peer, Frame::AckBatch { site, want, entries }, now) {
            Reply::Batch(reply) => reply,
            other => panic!("an AckBatch is answered by a BatchReply, not {other:?}"),
        }
    }

    #[test]
    fn serves_until_drained_and_counts_only_requests_that_ask_for_jobs() {
        let mut head = HeadCore::new(pool(4, 2), 2, None, false);
        assert_eq!(head.next_deadline(), None, "a fault-oblivious head has no timer");
        let first = head.request(LOCAL, 0.0);
        assert_eq!(first.len(), 2);
        assert_eq!(head.settle(LOCAL, &ids(&first), 0.1), [true, true]);
        // All-local data read from the cloud, over frames: a steal.
        let peer = Peer(7);
        let stolen = ack_batch(&mut head, peer, CLOUD, 8, &[], 0.2).grant;
        assert!(stolen.stolen && !stolen.terminal);
        // Verdicts only: not a request, but it learns the run is over.
        let last = ack_batch(&mut head, peer, CLOUD, 0, &ids(&stolen), 0.3);
        assert_eq!(last.verdicts, vec![true; stolen.len()]);
        assert!(last.grant.is_empty() && last.grant.terminal);
        assert!(head.request(LOCAL, 0.4).terminal);
        let report = head.finish();
        assert_eq!(report.requests, 3);
        assert_eq!(report.completions, 4);
        assert_eq!((report.counts[&LOCAL].local, report.counts[&CLOUD].stolen), (2, 2));
        assert!(report.faults.is_quiet() && report.dead_sites.is_empty());
    }

    #[test]
    fn the_last_publish_of_the_ledger_is_the_report() {
        // A site that took a batch and went away without a word is
        // evacuated, and the rest abandoned, in `finish`: the live ledger's
        // last publish is made there, after them.
        let metrics = cloudburst_core::Metrics::on();
        let mut head = HeadCore::new(pool(4, 2), 2, None, true);
        head.set_ledger(metrics.ledger());
        let scrape = || {
            let text = metrics.registry().unwrap().render();
            cloudburst_core::parse_exposition(&text).unwrap()
        };
        assert_eq!(scrape().get("cloudburst_pool_queue_depth", &[("site", "local")]), Some(4.0));
        assert_eq!(head.request(CLOUD, 0.0).len(), 2);
        head.publish_ledger();
        assert_eq!(scrape().get("cloudburst_pool_in_flight", &[]), Some(2.0));
        let report = head.finish();
        assert_eq!((report.faults.evacuated_jobs, report.abandoned), (2, 4));
        let exp = scrape();
        let evacuated = exp.get("cloudburst_pool_evacuated_jobs_total", &[("site", "cloud")]);
        assert_eq!(evacuated, Some(2.0));
        assert_eq!(exp.get("cloudburst_pool_in_flight", &[]), Some(0.0));
        assert_eq!(exp.get("cloudburst_pool_queue_depth", &[("site", "local")]), Some(0.0));
    }

    #[test]
    fn silent_site_is_evacuated_on_heartbeat_timeout() {
        // A heartbeat alone is fault tolerance enough.
        let mut head = HeadCore::new(pool(4, 2), 2, Some(HEARTBEAT), false);
        // The cloud site takes a batch, then goes silent. The local site
        // keeps asking and eventually inherits the work.
        assert_eq!(head.request(CLOUD, 0.0).len(), 2);
        let (mut done, mut lost) = (0, Vec::new());
        while done < 4 {
            let now = head.next_deadline().expect("the reaper and the silence scan are timers");
            assert!(now < 1.0, "the local site never inherited the work");
            lost.extend(head.on_tick(now));
            let batch = head.request(LOCAL, now);
            let verdicts = head.settle(LOCAL, &ids(&batch), now);
            assert_eq!(verdicts, vec![true; batch.len()], "survivor completions must merge");
            done += batch.len();
        }
        assert_eq!(lost, [Peer::from(CLOUD)], "declared dead once, at the timeout");
        head.on_frame(LOCAL.into(), Frame::Legacy(MasterToHead::Bye), 1.0);
        let report = head.finish();
        assert_eq!(report.dead_sites, vec![CLOUD]);
        assert_eq!(report.faults.evacuated_jobs, 2);
        assert_eq!((report.completions, report.abandoned), (4, 0));
    }

    #[test]
    fn duplicate_completion_is_nacked_and_counted() {
        let mut p = pool(2, 1);
        p.set_lease(LeaseConfig::default());
        let mut head = HeadCore::new(p, 0, None, true);
        let jobs = ids(&head.request(LOCAL, 0.0));
        assert_eq!(head.settle(LOCAL, &jobs[..1], 0.1), [true], "first completion merges");
        // One report, a verdict per job: the repeat is a duplicate, its
        // batch-mate merges.
        assert_eq!(head.settle(LOCAL, &jobs, 0.2), [false, true]);
        let report = head.finish();
        assert_eq!(report.completions, 2);
        assert_eq!(report.faults.duplicate_completions, 1);
    }

    #[test]
    fn a_reaped_lease_is_a_revocation_until_the_chunk_is_granted_again() {
        let lease = LeaseConfig { base: 0.01, min: 0.01, max: 0.01, ..LeaseConfig::default() };
        let reaped = |site: SiteId| {
            let mut p = pool(2, 1);
            p.set_lease(lease);
            let mut head = HeadCore::new(p, 0, None, true);
            let jobs = ids(&head.request(site, 0.0));
            assert_eq!(jobs.len(), 2);
            assert!(head.on_tick(0.0005).is_empty() && head.revocations.is_empty());
            head.on_tick(0.02);
            assert_eq!(head.revocations[&site], jobs);
            (head, jobs)
        };
        // Granted to the same site again, the chunks are live: the stale
        // notices must not kill the new executions.
        let (mut head, jobs) = reaped(LOCAL);
        assert_eq!(ids(&head.request(LOCAL, 0.02)), jobs);
        assert!(head.revocations.is_empty());
        assert!(head.finish().faults.lease_expiries >= 2);
        // Otherwise they ride the site's next reply, once.
        let (mut head, jobs) = reaped(CLOUD);
        assert_eq!(ack_batch(&mut head, Peer(0), CLOUD, 0, &[], 0.02).revoked, jobs);
        assert!(ack_batch(&mut head, Peer(0), CLOUD, 0, &[], 0.02).revoked.is_empty());
        // And a transport that publishes them itself takes them all.
        let (mut head, jobs) = reaped(CLOUD);
        assert_eq!(head.take_revocations(), BTreeMap::from([(CLOUD, jobs)]));
    }

    #[test]
    fn more_notices_than_a_reply_can_count_reach_the_site_in_order_over_several_replies() {
        // 70 000 leases of one site reaped at once: more notices than the
        // `u16` count of one reply. Each reply crosses the wire and back.
        const N: u64 = 70_000;
        let lease = LeaseConfig { base: 0.01, min: 0.01, max: 0.01, ..LeaseConfig::default() };
        let params = LayoutParams { unit_size: 1, units_per_chunk: 1, n_files: 1 };
        let mut p = JobPool::from_index(
            &DataIndex::build(N, params, |_| CLOUD).unwrap(),
            BatchPolicy::Fixed(1),
        );
        p.set_lease(lease);
        let mut head = HeadCore::new(p, 0, None, true);
        let exchange = |head: &mut HeadCore, want, now| {
            let reply = ack_batch(head, Peer(0), CLOUD, want, &[], now);
            let mut bytes = Vec::new();
            crate::wire::put_batch_reply(&mut bytes, &reply);
            let back = crate::wire::read_batch_reply(&mut bytes.as_slice()).expect("decodes");
            assert_eq!(back, reply);
            back
        };
        let mut granted = Vec::new();
        while granted.len() < N as usize {
            granted.extend(ids(&exchange(&mut head, u16::MAX, 0.0).grant));
        }
        head.on_tick(0.02);
        let (mut notices, mut replies) = (Vec::new(), 0);
        loop {
            let revoked = exchange(&mut head, 0, 0.02).revoked;
            if revoked.is_empty() {
                break;
            }
            assert!(revoked.len() <= MAX_REVOKED);
            notices.extend(revoked);
            replies += 1;
        }
        assert_eq!(replies, 2);
        assert_eq!(notices, granted, "every notice once, oldest first");
    }

    #[test]
    fn a_site_that_said_bye_is_finished_not_dead_however_long_the_others_work() {
        let mut head = HeadCore::new(pool(4, 1), 2, Some(HEARTBEAT), true);
        let (local, cloud) = (Peer(0), Peer(1));
        for (peer, site) in [(local, LOCAL), (cloud, CLOUD)] {
            head.on_connect(peer, 0.0);
            let hello = Frame::Hello { site, version: WIRE_VERSION, credit: 2 };
            assert_eq!(head.on_frame(peer, hello, 0.0), Reply::HelloAck(WIRE_VERSION));
        }
        let mine = ack_batch(&mut head, local, LOCAL, 2, &[], 0.001).grant;
        assert_eq!(ack_batch(&mut head, local, LOCAL, 0, &ids(&mine), 0.002).verdicts, [true; 2]);
        assert_eq!(head.on_frame(local, Frame::Legacy(MasterToHead::Bye), 0.003), Reply::Bye);
        // The cloud site beacons on for ten timeouts; the local connection
        // stays open and silent the whole time.
        let mut now = 0.003;
        while now < 10.0 * HEARTBEAT.timeout {
            now += HEARTBEAT.interval;
            head.on_frame(cloud, Frame::Legacy(MasterToHead::Ping { site: CLOUD }), now);
            assert!(head.on_tick(now).is_empty(), "a peer was declared silent at {now}");
        }
        let rest = ack_batch(&mut head, cloud, CLOUD, 2, &[], now).grant;
        let end = ack_batch(&mut head, cloud, CLOUD, 2, &ids(&rest), now);
        assert!(end.grant.terminal, "nothing came back to be done again");
        head.on_frame(cloud, Frame::Legacy(MasterToHead::Bye), now);
        head.on_disconnect(cloud);
        head.on_disconnect(local);
        let report = head.finish();
        assert!(report.dead_sites.is_empty(), "evacuated after its goodbye: {report:?}");
        assert!(report.faults.is_quiet(), "something was requeued: {:?}", report.faults);
        assert_eq!(report.completions, 4);
        assert_eq!((report.counts[&LOCAL].total(), report.counts[&CLOUD].total()), (2, 2));
    }

    #[test]
    fn a_peer_gone_without_bye_is_evacuated_and_the_last_one_takes_the_backlog_with_it() {
        // Fault tolerance off: a vanished peer is the transport's error, the
        // pool is left alone.
        let mut head = HeadCore::new(pool(4, 1), 2, None, false);
        head.request(LOCAL, 0.0);
        head.on_disconnect(LOCAL.into());
        assert!(head.finish().dead_sites.is_empty());

        let mut head = HeadCore::new(pool(4, 1), 2, None, true);
        let taken = ids(&head.request(LOCAL, 0.0));
        assert_eq!(head.settle(LOCAL, &taken[..1], 0.1), [true]);
        head.request(CLOUD, 0.2);
        head.on_disconnect(LOCAL.into());
        // What the dead site merged died with it, and it is granted nothing.
        assert!(head.request(LOCAL, 0.3).is_empty());
        assert_eq!(head.settle(LOCAL, &taken[1..], 0.3), [false]);
        // The other site never takes its leave: `finish` counts that a crash
        // too, and with every site dead the backlog is abandoned.
        let report = head.finish();
        assert_eq!(report.dead_sites, vec![LOCAL, CLOUD]);
        assert_eq!(report.faults.lost_results, 1);
        assert_eq!((report.completions, report.abandoned), (1, 4));
    }

    #[test]
    fn an_old_wire_version_is_refused_with_its_acknowledgement() {
        let mut head = HeadCore::new(pool(2, 1), 1, None, true);
        let hello = |version| Frame::Hello { site: CLOUD, version, credit: 1 };
        let (old, new) = (Peer(0), Peer(1));
        head.on_connect(old, 0.0);
        head.on_connect(new, 0.0);
        assert_eq!(head.on_frame(new, hello(9), 0.0), Reply::HelloAck(WIRE_VERSION));
        assert_eq!(head.on_frame(old, hello(1), 0.0), Reply::Refused(1));
        // Shown the door, it takes nothing with it: the site it named is the
        // one on the other connection, alive.
        head.on_disconnect(old);
        assert_eq!(ack_batch(&mut head, new, CLOUD, 2, &[], 0.1).grant.len(), 2);
        head.on_frame(new, Frame::Legacy(MasterToHead::Bye), 0.2);
        assert!(head.finish().dead_sites.is_empty());
    }
}
