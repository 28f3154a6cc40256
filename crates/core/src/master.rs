//! The per-site master's local job pool (paper §III-B).
//!
//! "The master monitors the cluster's job pool, and when it senses that it is
//! depleted, it will request a new group of jobs from the head. After the
//! master receives the set of jobs, they are added into the pool, and
//! assigned to the requesting slaves individually."
//!
//! Like [`crate::pool::JobPool`], this is pure logic with no clock and no
//! channel: every timed operation takes `now` as an argument. The threaded
//! runtime and the simulator are adapters that own the transport — they carry
//! a request to the head and its grant back, each leg taking as long as the
//! link says — and tell the pool when each thing happened.
//!
//! # Windowed grants
//!
//! A master that waits out the head round trip before serving the next slave
//! starves its site whenever jobs are shorter than the link is long. So a
//! request is not a call but a pair of events — [`MasterPool::next_request`]
//! now, [`MasterPool::land`] one round trip later — and several may be in
//! flight at once. The master asks again while
//!
//! ```text
//! queued + jobs expected from requests in flight ≤ low_watermark + ⌊rtt / gap⌋
//! ```
//!
//! where `gap` is its measured mean time between dispatches, per job
//! dispatched, and `rtt` its measured request→grant time — the mean plus
//! twice the mean deviation, so a link with jitter gets that much more
//! cover, the way TCP sizes its retransmit timer. `⌊rtt / gap⌋` jobs leave the queue while a request is
//! away, so the rule keeps `low_watermark` jobs queued when the grant lands:
//! one bandwidth-delay product of work on top of the floor. At most
//! `1 + ⌊rtt / gap⌋` requests are in flight, each one justified by a
//! dispatch that is due before the previous one returns.
//!
//! With jobs slower than the link the term is zero and the rule is the
//! blocking loop's — one request, at the watermark, after a dispatch — so
//! nothing is hoarded at the tail of a run. The rule is evaluated only when
//! a job was just dispatched or a slave is waiting. A head that answered
//! "nothing right now" closes the window to the watermark until it has jobs
//! again, and is polled for a starving slave only, with capped exponential
//! backoff.
//!
//! # Sized hand-offs
//!
//! A slave does not ask for *a* job but for up to `want` of them
//! ([`MasterPool::arrive`]), and is answered with `1 ..= want` the moment the
//! queue holds any: a batch is never waited for, and an empty queue parks the
//! slave whatever it asked for. How much to ask for is the slave's business
//! (the threaded runtime sizes it from its own job times; the simulator asks
//! for one). The `gap` sample of an arrival is the time since the previous
//! dispatch divided by the jobs that dispatch handed out, so `⌊rtt / gap⌋`
//! counts jobs whether they leave one at a time or a batch at a time.
//!
//! # Sized requests
//!
//! The simulator's head sizes a grant by its own batch policy; the threaded
//! runtime's heads grant what a request asks for, so its masters also have to
//! say *how many*. [`MasterPool::ask`] sizes a request that the window rule
//! just issued with [`ask_size`]: enough to bring what the master holds or
//! expects up to a floor (one job per slave pipeline slot, plus one) plus the
//! window, and remembers the figure as what that request is expected to
//! bring.

use crate::layout::ChunkMeta;
use crate::pool::JobBatch;
use crate::types::{ChunkId, Seconds, SiteId};
use std::collections::VecDeque;

/// First wait before asking a head that had nothing again; doubles per
/// empty answer up to [`POLL_CAP`].
pub const POLL_MIN: Seconds = 100e-6;
/// Longest wait between polls of a head that has nothing.
pub const POLL_CAP: Seconds = 5e-3;
/// The most jobs in one hand-off, in a master's window beyond its floor and
/// in one request of the runtime's master: the bound on what a slave asks for
/// ([`crate::slave::SlaveCore::ask`]), however short its jobs, and on
/// `⌊rtt / gap⌋`, so one wild measurement (two slaves asking in the same
/// microsecond) cannot make a master hoard the whole dataset. One bound for
/// all three: a master that opens its window this far can answer such a
/// hand-off from its queue, refilled a hand-off's worth per request.
pub const MAX_BDP_JOBS: usize = 1024;

/// Identifies one grant request between [`MasterPool::next_request`] and
/// [`MasterPool::land`].
pub type RequestId = u64;

/// A request the head has not answered here yet.
#[derive(Debug, Clone)]
struct InFlight {
    id: RequestId,
    issued_at: Seconds,
    /// How many jobs the request asked for, when the master sized it.
    asked: Option<usize>,
    /// The head's answer once it exists; it still has the return leg to
    /// travel, but its jobs are this master's responsibility already.
    batch: Option<JobBatch>,
}

/// The jobs of a grant as a master holds them.
fn jobs_of(batch: &JobBatch) -> impl Iterator<Item = LocalJob> + '_ {
    batch.jobs.iter().enumerate().map(|(i, chunk)| LocalJob {
        chunk: *chunk,
        stolen: batch.stolen,
        span: batch.span_of(i),
    })
}

/// How many jobs a master that sizes its own requests asks for: what brings
/// the `outstanding` jobs — queued, or expected from requests in flight — up
/// to `floor + window`, and never nothing (a request is only issued when the
/// window rule wants jobs).
#[must_use]
pub fn ask_size(floor: usize, window: usize, outstanding: usize) -> usize {
    (floor + window).saturating_sub(outstanding).max(1)
}

/// Fold `sample` into the running mean `est` with weight `1 / weight`.
pub(crate) fn ewma(est: &mut Option<Seconds>, sample: Seconds, weight: f64) {
    *est = Some(est.map_or(sample, |e| e + (sample - e) / weight));
}

/// One job as held by a master: the chunk plus whether it was stolen from a
/// remote site (and therefore needs remote retrieval).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalJob {
    /// The chunk to retrieve and process.
    pub chunk: ChunkMeta,
    /// True when the chunk's home site is not this master's site.
    pub stolen: bool,
    /// Causal span the head allocated for this execution (0 = untracked);
    /// the slave stamps it on every event of the job's lifecycle.
    pub span: u64,
}

/// What a slave asking its master for work gets ([`MasterPool::arrive`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Take {
    /// Jobs to process, in grant order: at least one, at most as many as the
    /// slave asked for.
    Jobs(Vec<LocalJob>),
    /// Pool empty but the head may still have jobs: the slave waits for a
    /// grant to land.
    NeedRefill,
    /// The head has confirmed there is no work left anywhere.
    Drained,
}

/// The master's site-local pool of granted-but-unprocessed jobs, and the
/// window of grant requests that keeps it from running dry.
#[derive(Debug, Clone)]
pub struct MasterPool {
    site: SiteId,
    queue: VecDeque<LocalJob>,
    /// Jobs that should still be queued when a grant lands: the floor of
    /// the request window.
    low_watermark: usize,
    /// Set when the head returned an empty terminal batch: no more work
    /// exists.
    drained: bool,
    /// Jobs handed to slaves.
    dispatched: u64,
    /// Requests issued and not yet landed, oldest first.
    in_flight: Vec<InFlight>,
    next_id: RequestId,
    /// Running mean of the request→grant time, and of its absolute
    /// deviation from that mean.
    rtt: Option<Seconds>,
    rtt_dev: Option<Seconds>,
    /// Running mean of the time between dispatches, per job dispatched.
    gap: Option<Seconds>,
    /// When the last dispatch happened and how many jobs it handed out.
    last_dispatch: Option<(Seconds, usize)>,
    /// Size of the last non-empty grant: what a request in flight is
    /// expected to bring.
    last_batch_len: usize,
    /// A job was dispatched since the window rule last said no.
    demand: bool,
    /// Slaves that asked and are waiting for a grant to land.
    parked: usize,
    /// The head's last answer was empty: until it has jobs again one probe
    /// at a time is enough, so the window falls back to the watermark.
    dry: bool,
    /// Backoff state for a starving slave's polls of a dry head.
    idle_wait: Seconds,
    poll_at: Seconds,
    /// Jobs received from the head, handed back at close, and dropped as
    /// revoked (conservation accounting).
    granted: u64,
    returned: u64,
    dropped: u64,
}

impl MasterPool {
    /// An empty pool for `site` whose request window never shrinks below
    /// `low_watermark` jobs.
    #[must_use]
    pub fn new(site: SiteId, low_watermark: usize) -> MasterPool {
        MasterPool {
            site,
            queue: VecDeque::new(),
            low_watermark,
            drained: false,
            dispatched: 0,
            in_flight: Vec::new(),
            next_id: 0,
            rtt: None,
            rtt_dev: None,
            gap: None,
            last_dispatch: None,
            last_batch_len: 1,
            demand: false,
            parked: 0,
            dry: false,
            idle_wait: POLL_MIN,
            poll_at: 0.0,
            granted: 0,
            returned: 0,
            dropped: 0,
        }
    }

    /// Room for `jobs` queued jobs, allocated now: on the thread that
    /// outlives a run's threads, the run's largest buffer is not left in the
    /// malloc arena of a thread that exits with the run.
    pub fn reserve(&mut self, jobs: usize) {
        self.queue.reserve(jobs);
    }

    /// The site this master manages.
    #[must_use]
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Jobs currently queued at this master.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Queue a landed grant and empty it, keeping its buffers. An empty
    /// **terminal** batch marks the pool as drained: the head has guaranteed
    /// no work will ever appear again. An empty *non*-terminal batch leaves
    /// the pool as-is — in-flight jobs elsewhere may still fail and be
    /// requeued.
    fn enqueue(&mut self, batch: &mut JobBatch) {
        if batch.is_empty() && batch.terminal {
            self.drained = true;
        }
        self.queue.extend(jobs_of(batch));
        batch.jobs.clear();
        batch.spans.clear();
    }

    /// Hand a slave the next `want` jobs, or as many as are queued, in `buf`
    /// — the buffer of its last hand-off, so a hand-off allocates nothing
    /// once the buffers are grown: a batch is never waited for. `buf` stays
    /// with the caller unless jobs are handed out.
    fn take(&mut self, want: usize, buf: &mut Vec<LocalJob>) -> Take {
        debug_assert!(want > 0, "a slave asks for at least one job");
        let n = want.min(self.queue.len());
        if n > 0 {
            self.dispatched += n as u64;
            buf.clear();
            // As large as the largest hand-off, no larger.
            buf.reserve_exact(n);
            buf.extend(self.queue.drain(..n));
            return Take::Jobs(std::mem::take(buf));
        }
        // A grant with jobs that is still travelling back must be waited
        // for even after a terminal answer overtook it.
        if self.drained && self.in_flight_jobs() == 0 {
            Take::Drained
        } else {
            Take::NeedRefill
        }
    }

    /// A slave asks for up to `want` jobs at `now`, handing back `buf`, the
    /// emptied buffer of its last hand-off, to be filled. `Take::NeedRefill`
    /// means it has to wait: the caller parks it with `buf` and offers it
    /// [`MasterPool::serve_parked`] after the next grant lands.
    pub fn arrive(&mut self, now: Seconds, want: usize, buf: &mut Vec<LocalJob>) -> Take {
        // The time since the last dispatch is how long the slaves took to
        // come back for more, and it bought as many jobs as that dispatch
        // handed out — unless a slave is parked already, in which case it
        // measures the wait for the grant instead.
        if let (0, Some((last, jobs))) = (self.parked, self.last_dispatch) {
            ewma(&mut self.gap, (now - last).max(0.0) / jobs as f64, 8.0);
        }
        let take = self.take(want, buf);
        match &take {
            Take::Jobs(jobs) => self.dispatched_at(now, jobs.len()),
            Take::NeedRefill => self.parked += 1,
            Take::Drained => {}
        }
        take
    }

    /// Offer the longest-parked slave the up to `want` jobs it asked for at
    /// `now`, in the buffer it handed back; `Take::NeedRefill` leaves it
    /// parked.
    pub fn serve_parked(&mut self, now: Seconds, want: usize, buf: &mut Vec<LocalJob>) -> Take {
        debug_assert!(self.parked > 0, "no slave is parked");
        let take = self.take(want, buf);
        match &take {
            Take::Jobs(jobs) => {
                self.parked -= 1;
                self.dispatched_at(now, jobs.len());
            }
            Take::NeedRefill => {}
            Take::Drained => self.parked -= 1,
        }
        take
    }

    fn dispatched_at(&mut self, now: Seconds, jobs: usize) {
        self.last_dispatch = Some((now, jobs));
        self.demand = true;
    }

    /// Jobs that leave the queue during one round trip to the head:
    /// `⌊rtt / gap⌋` with `rtt` taken as mean + 2 deviations and `gap` per
    /// job, however many a slave takes per exchange; zero until
    /// both have been measured and while the head has nothing to send.
    fn bdp_jobs(&self) -> usize {
        if self.dry {
            return 0;
        }
        match (self.rtt, self.gap) {
            // A zero gap divides to infinity, which saturates and is capped.
            (Some(rtt), Some(gap)) => {
                let rtt = rtt + 2.0 * self.rtt_dev.unwrap_or(0.0);
                ((rtt / gap) as usize).min(MAX_BDP_JOBS)
            }
            _ => 0,
        }
    }

    /// The request window in jobs: the master asks again while no more than
    /// this many are queued or expected.
    #[must_use]
    pub fn window(&self) -> usize {
        self.low_watermark + self.bdp_jobs()
    }

    /// Jobs request `r` is expected to bring: what the head granted, else
    /// what was asked for, else as many as the last grant.
    fn expected_from(&self, r: &InFlight) -> usize {
        r.batch.as_ref().map_or(r.asked.unwrap_or(self.last_batch_len), JobBatch::len)
    }

    /// Jobs queued here or expected from requests in flight: what the window
    /// rule compares with [`MasterPool::window`].
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.queue.len() + self.in_flight.iter().map(|r| self.expected_from(r)).sum::<usize>()
    }

    /// Jobs of grants the head has answered that have not landed yet.
    fn in_flight_jobs(&self) -> usize {
        self.in_flight.iter().filter_map(|r| r.batch.as_ref()).map(JobBatch::len).sum()
    }

    /// Issue a grant request at `now` if the window rule (see the module
    /// docs) asks for one. Call it until it returns `None` after every
    /// dispatch, and whenever slaves are parked and a grant landed or
    /// [`MasterPool::retry_at`] passed.
    pub fn next_request(&mut self, now: Seconds) -> Option<RequestId> {
        if self.drained || !(self.demand || self.parked > 0) || now < self.poll_at {
            return None;
        }
        let bdp = self.bdp_jobs();
        // A request beyond the first is worth sending only if a dispatch is
        // due before the first returns.
        if self.in_flight.len() > bdp || self.outstanding() > self.low_watermark + bdp {
            self.demand = false;
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.in_flight.push(InFlight { id, issued_at: now, asked: None, batch: None });
        Some(id)
    }

    /// Size request `id`, which [`MasterPool::next_request`] just issued, for
    /// a head that grants what it is asked for: [`ask_size`] over `floor`,
    /// the window and everything outstanding besides this request. The
    /// answer is remembered as what the request is expected to bring.
    ///
    /// # Panics
    /// Panics when `id` is not in flight.
    pub fn ask(&mut self, id: RequestId, floor: usize) -> usize {
        let at = self.in_flight.iter().position(|r| r.id == id).expect("request is in flight");
        let others = self.outstanding() - self.expected_from(&self.in_flight[at]);
        let n = ask_size(floor, self.window(), others);
        self.in_flight[at].asked = Some(n);
        n
    }

    /// The head answered request `id` with `batch`. The batch stays with the
    /// request until [`MasterPool::land`] — the adapter owns the clock that
    /// says when — but from here on its jobs are this master's to dispatch or
    /// to hand back.
    ///
    /// # Panics
    /// Panics when `id` is not in flight.
    pub fn granted(&mut self, id: RequestId, batch: JobBatch) {
        let req = self.in_flight.iter_mut().find(|r| r.id == id).expect("request is in flight");
        self.granted += batch.len() as u64;
        req.batch = Some(batch);
    }

    /// The grant for request `id` arrived at `now`: queue its jobs and take
    /// the round-trip sample. Returns the grant emptied, for whoever builds
    /// grants to fill again.
    ///
    /// # Panics
    /// Panics when `id` is not in flight or was never [`MasterPool::granted`].
    pub fn land(&mut self, id: RequestId, now: Seconds) -> JobBatch {
        let at = self.in_flight.iter().position(|r| r.id == id).expect("request is in flight");
        let req = self.in_flight.remove(at);
        let mut batch = req.batch.expect("a grant lands after the head answered");
        let rtt = (now - req.issued_at).max(0.0);
        let dev = self.rtt.map_or(0.0, |mean| (rtt - mean).abs());
        ewma(&mut self.rtt_dev, dev, 4.0);
        ewma(&mut self.rtt, rtt, 4.0);
        self.dry = batch.is_empty();
        if self.dry {
            // The head had nothing: do not ask again on a dispatch's
            // account, and for a starving slave only after a backoff.
            self.demand = false;
            if !batch.terminal && self.parked > 0 {
                self.poll_at = now + self.idle_wait;
                self.idle_wait = (self.idle_wait * 2.0).min(POLL_CAP);
            }
        } else {
            self.last_batch_len = batch.len();
            self.idle_wait = POLL_MIN;
            self.poll_at = 0.0;
        }
        self.enqueue(&mut batch);
        batch
    }

    /// When to call [`MasterPool::next_request`] again although nothing else
    /// happened: the end of the current backoff, while a slave is starving
    /// on a head that had nothing.
    #[must_use]
    pub fn retry_at(&self) -> Option<Seconds> {
        (self.parked > 0 && !self.drained && self.in_flight.is_empty()).then_some(self.poll_at)
    }

    /// True once the head reported no remaining work **and** the local queue
    /// has been fully handed out.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.drained && self.queue.is_empty()
    }

    /// Shut the master down: return every job it was granted and has not
    /// dispatched — the queue *and* every grant still travelling back — so
    /// the caller can fail each back to the head exactly once, instead of
    /// stranding them in the assigned state forever. Requests the head has
    /// not answered are forgotten: an adapter whose head may still answer
    /// them (a request already on a socket) waits for those answers first.
    pub fn close(&mut self) -> Vec<LocalJob> {
        self.returned += self.queue.len() as u64;
        let mut jobs: Vec<LocalJob> = self.queue.drain(..).collect();
        for batch in self.in_flight.drain(..).filter_map(|r| r.batch) {
            self.returned += batch.len() as u64;
            jobs.extend(jobs_of(&batch));
        }
        self.drained = true;
        jobs
    }

    /// Drop every queued-but-undispatched job in `revoked` — the head
    /// reaped their leases (or evacuated a site), so this prefetched credit
    /// is dead: dispatching it would only burn a slave on a result the
    /// dedup verdict will discard. Returns how many jobs were dropped.
    pub fn drop_revoked(&mut self, revoked: &[ChunkId]) -> usize {
        let before = self.queue.len();
        self.queue.retain(|j| !revoked.contains(&j.chunk.id));
        let n = before - self.queue.len();
        self.dropped += n as u64;
        n
    }

    /// Drop jobs from the front of the queue while `is_revoked` says their
    /// grant is dead, so the next [`MasterPool::arrive`] dispatches live
    /// work. Returns how many were dropped.
    pub fn skip_revoked(&mut self, is_revoked: impl Fn(ChunkId) -> bool) -> usize {
        let before = self.queue.len();
        while self.queue.front().is_some_and(|j| is_revoked(j.chunk.id)) {
            self.queue.pop_front();
        }
        let n = before - self.queue.len();
        self.dropped += n as u64;
        n
    }

    /// Number of jobs dispatched to slaves so far.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Requests issued and not yet landed.
    #[must_use]
    pub fn requests_in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Slaves waiting for a grant to land.
    #[must_use]
    pub fn parked(&self) -> usize {
        self.parked
    }

    /// Where every job the head ever granted this master is now:
    /// `granted = dispatched + queued + in_flight + returned + dropped`.
    #[must_use]
    pub fn ledger(&self) -> Ledger {
        Ledger {
            granted: self.granted,
            dispatched: self.dispatched,
            queued: self.queue.len() as u64,
            in_flight: self.in_flight_jobs() as u64,
            returned: self.returned,
            dropped: self.dropped,
        }
    }
}

/// The conservation ledger of a [`MasterPool`] (see [`MasterPool::ledger`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    /// Jobs the head granted this master.
    pub granted: u64,
    /// Jobs handed to slaves.
    pub dispatched: u64,
    /// Jobs queued here.
    pub queued: u64,
    /// Jobs of grants still travelling back.
    pub in_flight: u64,
    /// Jobs handed back at shutdown.
    pub returned: u64,
    /// Jobs dropped because their grant was revoked.
    pub dropped: u64,
}

impl Ledger {
    /// Whether every granted job is accounted for exactly once.
    #[must_use]
    pub fn balanced(&self) -> bool {
        self.granted
            == self.dispatched + self.queued + self.in_flight + self.returned + self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::DataIndex;
    use crate::layout::LayoutParams;

    fn some_batch(n: u64, stolen: bool) -> JobBatch {
        let idx = DataIndex::build(
            n * 2,
            LayoutParams { unit_size: 1, units_per_chunk: 2, n_files: 1 },
            |_| SiteId::CLOUD,
        )
        .unwrap();
        let spans = (1..=idx.chunks.len() as u64).collect();
        JobBatch { jobs: idx.chunks.clone(), spans, stolen, terminal: false }
    }

    /// The job of a one-job hand-off.
    fn one(take: Take) -> LocalJob {
        match take {
            Take::Jobs(jobs) if jobs.len() == 1 => jobs[0],
            other => panic!("expected one job, got {other:?}"),
        }
    }

    /// A grant that is simply there, the way a blocking master added it.
    fn refill(mp: &mut MasterPool, mut batch: JobBatch) {
        mp.granted += batch.len() as u64;
        mp.enqueue(&mut batch);
    }

    #[test]
    fn empty_pool_requests_refill_then_serves() {
        let mut mp = MasterPool::new(SiteId::LOCAL, 1);
        assert_eq!(mp.take(1, &mut Vec::new()), Take::NeedRefill);
        refill(&mut mp, some_batch(3, false));
        assert!(!one(mp.take(1, &mut Vec::new())).stolen);
        assert_eq!(mp.queued(), 2);
        assert_eq!(mp.dispatched(), 1);
    }

    #[test]
    fn stolen_flag_propagates_to_jobs() {
        let mut mp = MasterPool::new(SiteId::LOCAL, 0);
        refill(&mut mp, some_batch(1, true));
        assert!(one(mp.take(1, &mut Vec::new())).stolen);
    }

    #[test]
    fn spans_propagate_in_grant_order_and_default_to_zero() {
        let mut mp = MasterPool::new(SiteId::LOCAL, 0);
        refill(&mut mp, some_batch(2, false));
        assert_eq!(one(mp.take(1, &mut Vec::new())).span, 1);
        assert_eq!(one(mp.take(1, &mut Vec::new())).span, 2);
        // A batch without span tracking yields span 0 (untracked).
        let mut bare = some_batch(1, false);
        bare.spans.clear();
        refill(&mut mp, bare);
        assert_eq!(one(mp.take(1, &mut Vec::new())).span, 0);
    }

    #[test]
    fn empty_refill_drains_pool() {
        let mut mp = MasterPool::new(SiteId::CLOUD, 0);
        refill(&mut mp, some_batch(1, false));
        refill(&mut mp, JobBatch::empty(true));
        assert!(!mp.is_drained(), "queued job still to be handed out");
        assert!(matches!(mp.take(1, &mut Vec::new()), Take::Jobs(_)));
        assert_eq!(mp.take(1, &mut Vec::new()), Take::Drained);
        assert!(mp.is_drained());
        assert_eq!(mp.next_request(0.0), None, "a drained pool must not ask again");
    }

    #[test]
    fn empty_nonterminal_refill_does_not_drain() {
        let mut mp = MasterPool::new(SiteId::LOCAL, 0);
        refill(&mut mp, JobBatch::empty(false));
        assert!(!mp.is_drained());
        assert_eq!(mp.take(1, &mut Vec::new()), Take::NeedRefill, "must keep polling");
        refill(&mut mp, JobBatch::empty(true));
        assert_eq!(mp.take(1, &mut Vec::new()), Take::Drained);
    }

    #[test]
    fn drop_revoked_removes_only_undispatched_jobs() {
        let mut mp = MasterPool::new(SiteId::LOCAL, 0);
        refill(&mut mp, some_batch(3, false));
        let first = one(mp.take(1, &mut Vec::new())).chunk.id;
        // The dispatched job is out of the queue: revoking it is a no-op.
        assert_eq!(mp.drop_revoked(&[first]), 0);
        assert_eq!(mp.queued(), 2);
        // Revoking one of the two still-queued jobs drops exactly that one.
        let target = mp.queue.front().copied().unwrap().chunk.id;
        assert_eq!(mp.drop_revoked(&[target]), 1);
        assert_eq!(mp.queued(), 1);
        assert_ne!(one(mp.take(1, &mut Vec::new())).chunk.id, target);
    }

    /// Carry request `id` to a head that answers with `batch` and back.
    fn round_trip(mp: &mut MasterPool, id: RequestId, batch: JobBatch, lands_at: Seconds) {
        mp.granted(id, batch);
        mp.land(id, lands_at);
    }

    #[test]
    fn slow_jobs_keep_one_request_at_the_watermark() {
        let mut mp = MasterPool::new(SiteId::LOCAL, 1);
        assert_eq!(mp.next_request(0.0), None, "nobody asked for anything yet");
        assert_eq!(mp.arrive(0.0, 1, &mut Vec::new()), Take::NeedRefill);
        let id = mp.next_request(0.0).expect("a slave is waiting");
        assert_eq!(mp.next_request(0.0), None, "one request covers a window of one job");
        round_trip(&mut mp, id, some_batch(3, false), 0.1);
        assert!(matches!(mp.serve_parked(0.1, 1, &mut Vec::new()), Take::Jobs(_)));
        assert_eq!(mp.next_request(0.1), None, "two jobs queued, watermark one");
        // Jobs take 1 s, the link 0.1 s: the window stays at the watermark.
        assert!(matches!(mp.arrive(1.1, 1, &mut Vec::new()), Take::Jobs(_)));
        assert_eq!(mp.window(), 1);
        assert!(mp.next_request(1.1).is_some(), "at the watermark after a dispatch");
        assert_eq!(mp.next_request(1.1), None);
        assert!(mp.ledger().balanced());
    }

    #[test]
    fn fast_jobs_open_the_window_by_the_jobs_in_one_round_trip() {
        let mut mp = MasterPool::new(SiteId::LOCAL, 1);
        assert_eq!(mp.arrive(0.0, 1, &mut Vec::new()), Take::NeedRefill);
        let id = mp.next_request(0.0).unwrap();
        round_trip(&mut mp, id, some_batch(4, false), 1.0);
        assert!(matches!(mp.serve_parked(1.0, 1, &mut Vec::new()), Take::Jobs(_)));
        // The slave is back after 1/8 s; the round trip took 1 s.
        assert!(matches!(mp.arrive(1.125, 1, &mut Vec::new()), Take::Jobs(_)));
        assert_eq!(mp.window(), 1 + 8);
        // Two queued; requests (4 jobs each, like the last grant) go out
        // until 9 jobs are covered.
        let issued = std::iter::from_fn(|| mp.next_request(1.125)).count();
        assert_eq!(issued, 2, "2 + 4 = 6 <= 9 < 2 + 4 + 4");
        assert_eq!(mp.requests_in_flight(), 2);
    }

    #[test]
    fn dry_head_is_polled_only_for_a_waiting_slave_and_backs_off() {
        let mut mp = MasterPool::new(SiteId::LOCAL, 0);
        assert_eq!(mp.arrive(0.0, 1, &mut Vec::new()), Take::NeedRefill);
        let id = mp.next_request(0.0).unwrap();
        round_trip(&mut mp, id, JobBatch::empty(false), 0.0);
        assert_eq!(mp.next_request(0.0), None, "backing off");
        assert_eq!(mp.retry_at(), Some(POLL_MIN));
        let id = mp.next_request(POLL_MIN).expect("backoff over, slave still waiting");
        round_trip(&mut mp, id, JobBatch::empty(false), POLL_MIN);
        assert_eq!(mp.retry_at(), Some(POLL_MIN + 2.0 * POLL_MIN), "the wait doubles");
        let id = mp.next_request(1.0).unwrap();
        round_trip(&mut mp, id, JobBatch::empty(true), 1.0);
        assert_eq!(mp.serve_parked(1.0, 1, &mut Vec::new()), Take::Drained);
        assert_eq!(mp.next_request(2.0), None, "drained: never ask again");
    }

    #[test]
    fn close_hands_back_queued_jobs_and_grants_still_travelling() {
        let mut mp = MasterPool::new(SiteId::LOCAL, 0);
        assert_eq!(mp.arrive(0.0, 1, &mut Vec::new()), Take::NeedRefill);
        let landed = mp.next_request(0.0).unwrap();
        round_trip(&mut mp, landed, some_batch(3, false), 0.1);
        assert!(matches!(mp.serve_parked(0.1, 1, &mut Vec::new()), Take::Jobs(_)));
        // Empty the queue so the master asks again; close while that grant
        // is on its way back and one more request never reached the head.
        assert!(matches!(mp.arrive(0.2, 1, &mut Vec::new()), Take::Jobs(_)));
        assert!(matches!(mp.arrive(0.3, 1, &mut Vec::new()), Take::Jobs(_)));
        let answered = mp.next_request(0.3).unwrap();
        mp.granted(answered, some_batch(2, false));
        assert_eq!(mp.take(1, &mut Vec::new()), Take::NeedRefill, "granted jobs are not here yet");
        let handed_back = mp.close();
        assert_eq!(handed_back.len(), 2);
        let ledger = mp.ledger();
        assert_eq!((ledger.granted, ledger.dispatched, ledger.returned), (5, 3, 2));
        assert!(ledger.balanced());
        assert_eq!(mp.requests_in_flight(), 0);
        assert_eq!(mp.next_request(1.0), None);
    }

    #[test]
    fn a_sized_request_tops_the_pool_up_to_floor_plus_window_and_counts_as_expected() {
        assert_eq!(ask_size(3, 1, 0), 4);
        assert_eq!(ask_size(3, 1, 2), 2);
        assert_eq!(ask_size(3, 1, 9), 1, "an issued request never asks for nothing");

        let mut mp = MasterPool::new(SiteId::LOCAL, 1);
        assert_eq!(mp.arrive(0.0, 1, &mut Vec::new()), Take::NeedRefill);
        let id = mp.next_request(0.0).unwrap();
        assert_eq!(mp.ask(id, 3), 4, "empty pool, window 1: floor + window");
        assert_eq!(mp.outstanding(), 4, "the ask is what the request is expected to bring");
        // The head had only two: the grant, not the ask, counts from here.
        mp.granted(id, some_batch(2, false));
        assert_eq!(mp.outstanding(), 2);
        mp.land(id, 0.1);
        assert!(matches!(mp.serve_parked(0.1, 1, &mut Vec::new()), Take::Jobs(_)));
        let id = mp.next_request(0.1).expect("one queued, at the watermark");
        assert_eq!(mp.ask(id, 3), 3, "one queued besides this request");
    }

    #[test]
    fn a_sized_take_hands_out_what_is_queued_up_to_the_want_and_never_waits() {
        let mut mp = MasterPool::new(SiteId::LOCAL, 0);
        assert_eq!(
            mp.arrive(0.0, 8, &mut Vec::new()),
            Take::NeedRefill,
            "an empty pool parks whatever the want"
        );
        let id = mp.next_request(0.0).unwrap();
        round_trip(&mut mp, id, some_batch(5, false), 0.1);
        // Five landed, eight wanted: the slave gets the five now.
        assert!(
            matches!(mp.serve_parked(0.1, 8, &mut Vec::new()), Take::Jobs(jobs) if jobs.len() == 5)
        );
        assert_eq!((mp.parked(), mp.queued(), mp.dispatched()), (0, 0, 5));
        refill(&mut mp, some_batch(5, false));
        assert!(matches!(mp.arrive(0.2, 2, &mut Vec::new()), Take::Jobs(jobs) if jobs.len() == 2));
        assert_eq!(mp.queued(), 3);
        assert!(mp.ledger().balanced());
    }

    #[test]
    fn the_gap_is_per_job_however_many_a_dispatch_handed_out() {
        // One round trip of 1 s; then a slave that takes four jobs and is
        // back after half a second: 1/8 s per job, a window of 8 jobs — what
        // four one-job hand-offs 1/8 s apart measure.
        let mut mp = MasterPool::new(SiteId::LOCAL, 1);
        assert_eq!(mp.arrive(0.0, 4, &mut Vec::new()), Take::NeedRefill);
        let id = mp.next_request(0.0).unwrap();
        round_trip(&mut mp, id, some_batch(8, false), 1.0);
        assert!(
            matches!(mp.serve_parked(1.0, 4, &mut Vec::new()), Take::Jobs(jobs) if jobs.len() == 4)
        );
        assert!(matches!(mp.arrive(1.5, 4, &mut Vec::new()), Take::Jobs(jobs) if jobs.len() == 4));
        assert_eq!(mp.window(), 1 + 8);
    }

    #[test]
    fn skip_revoked_drops_dead_grants_from_the_front_only() {
        let mut mp = MasterPool::new(SiteId::LOCAL, 0);
        refill(&mut mp, some_batch(3, false));
        let ids: Vec<ChunkId> = mp.queue.iter().map(|j| j.chunk.id).collect();
        assert_eq!(mp.skip_revoked(|c| c == ids[0] || c == ids[2]), 1);
        assert_eq!(one(mp.arrive(0.0, 1, &mut Vec::new())).chunk.id, ids[1]);
        assert_eq!(mp.ledger().dropped, 1);
        assert!(mp.ledger().balanced());
    }

    #[test]
    fn each_refill_queues_its_jobs() {
        let mut mp = MasterPool::new(SiteId::LOCAL, 0);
        refill(&mut mp, some_batch(1, false));
        refill(&mut mp, some_batch(1, false));
        assert_eq!(mp.queued(), 2);
        assert_eq!(mp.ledger().granted, 2);
    }
}
