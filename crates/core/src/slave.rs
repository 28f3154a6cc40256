//! The slave's side of the protocol (paper §III-B, Fig. 2) as a state
//! machine with no clock, channel, thread or lock, like
//! [`crate::master::MasterPool`]: time comes in as `Seconds`, and what to do
//! next comes out of [`SlaveCore::poll`] as a [`Step`] for a driver to carry
//! out — the threaded runtime, or a test on a virtual clock.
//!
//! A slave asks for `clamp(⌊QUANTUM / per_job⌋, 1, MAX_BDP_JOBS)` jobs,
//! where `per_job` is a running mean (weight ¼) of a batch's wall time, from
//! its arrival to the next ask, over its length; the first ask is for one.
//! The quantum alone sizes a hand-off: the bound is the one a master's
//! window has ([`crate::master::MAX_BDP_JOBS`]), so a slave of sub-µs jobs
//! pays one exchange per quantum like any other. The ask hands back the
//! emptied buffer of the last batch for the master to fill, and the master
//! the emptied buffer of the completions the ask carried
//! ([`SlaveCore::reuse_done`]), so a hand-off allocates nothing once the
//! buffers are grown. A slave asks again once the batch is used up: at
//! depth 1 after its last job,
//! deeper as soon as its last fetch has started. Without dedup a completion
//! is merged by construction and rides the next ask. Ack-gated it stays
//! *open* until it is settled with its batch-mates — reported, and the
//! verdicts taken back — before an ask that is waited for at once, a quantum
//! after the oldest open job began, after a failure, and when the driver is
//! idle, before it blocks; then the done list is said too: its master may be
//! waiting on a head that cannot finish without those completions. A job
//! revoked in the batch is dropped before its fetch, at depth ≥ 2 one revoked
//! while fetching at the hand-off, and one revoked while open is neither
//! reported nor merged. [`SlaveCore::leave`] says what an exit owes.

use crate::master::{ewma, LocalJob, Take, MAX_BDP_JOBS};
use crate::types::{ChunkId, Seconds};
use std::collections::VecDeque;
use std::ops::Range;

/// How much work a slave takes from its master in one exchange, as time: it
/// asks for as many jobs as its own job times say fit in here — up to
/// [`MAX_BDP_JOBS`], the bound of a master's window — and under ack-gating
/// it reports them, and waits for their verdicts, together. A blocking
/// exchange (request, peer wake-up, reply, slave wake-up) measures 40–80 µs
/// on either runtime, so a quantum buys a slave ≈ 20 exchanges' worth of
/// work per exchange for jobs down to ≈ 1 µs; 1 024 jobs of ≈ 0.6 µs still
/// buy ≈ 12 (64 of them bought less than one). A job that takes a quantum
/// or longer is asked for and reported alone. A constant and not a multiple of a measured hand-off: the
/// time a request spends parked at a master that waits on its head is not the
/// cost of a hand-off, and would make a slave of slow jobs hoard. Measured:
/// DESIGN §3.4.3.
pub const QUANTUM: Seconds = 1e-3;

/// What the slave does next ([`SlaveCore::poll`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Send a request for jobs: [`SlaveCore::ask`] sizes it as it goes out,
    /// [`SlaveCore::answer`] takes the answer.
    Ask,
    /// Retrieve the chunk, then [`SlaveCore::hand_off`]. The job has started.
    Fetch(LocalJob),
    /// The job was revoked before its fetch and is dropped.
    Dropped(ChunkId),
    /// Report these open jobs in one exchange and give the verdicts to
    /// [`SlaveCore::settled`]; empty when every open job was revoked.
    Settle(Vec<ChunkId>),
    /// Report these completions; nobody waits on them.
    Done(Vec<ChunkId>),
    /// Take the answer or a fetched job if one is ready; else poll again as
    /// `idle`, and block once that, too, says `Wait`.
    Wait,
    /// No more work, or the worker crashed: [`SlaveCore::settle`], then
    /// [`SlaveCore::leave`].
    Leave,
}

/// What leaving owes the head ([`SlaveCore::leave`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Owed {
    /// Completions not said yet.
    pub done: Vec<ChunkId>,
    /// Jobs granted and never processed, to fail back.
    pub failed: Vec<ChunkId>,
}

/// One slave's protocol state (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct SlaveCore {
    /// Jobs started and not finished at most: one processing, the rest
    /// fetching or fetched.
    depth: usize,
    ack_gated: bool,
    /// Granted and not started, in grant order.
    batch: VecDeque<LocalJob>,
    /// When the batch in hand arrived, and its length.
    arrived: Option<(Seconds, usize)>,
    per_job: Option<Seconds>,
    /// A request is out.
    asking: bool,
    /// No more jobs will come: the pool drained or the master is gone.
    ended: bool,
    started: u64,
    crash_after: Option<u64>,
    crashed: bool,
    /// Started and not finished, in start order; the oldest is processing
    /// once it has been handed over.
    in_flight: VecDeque<ChunkId>,
    /// Completions nobody waits on, not said yet.
    done: Vec<ChunkId>,
    /// Processed and not settled, each with its place among the chunks the
    /// driver keeps; since `opened`. From a settle to its verdicts, the jobs
    /// it reports.
    open: Vec<(ChunkId, Range<usize>)>,
    opened: Seconds,
    settle_due: bool,
    /// How many jobs were open at the last settle.
    settling_of: usize,
}

impl SlaveCore {
    /// A slave keeping `depth` jobs in its pipeline, whose completions wait
    /// for verdicts when `ack_gated`, and which crashes after `crash_after`
    /// jobs.
    #[must_use]
    pub fn new(depth: usize, ack_gated: bool, crash_after: Option<u64>) -> SlaveCore {
        SlaveCore { depth: depth.max(1), ack_gated, crash_after, ..SlaveCore::default() }
    }

    /// What to do next; `revoked` says which executions the head took back,
    /// `idle` that nothing the driver waits for is ready: before it blocks,
    /// what is open is settled and the done list said.
    pub fn poll(&mut self, idle: bool, revoked: impl Fn(ChunkId) -> bool) -> Step {
        if self.crashed {
            return Step::Leave;
        }
        if self.settle_due || idle {
            if let Some(jobs) = self.settle(&revoked) {
                return Step::Settle(jobs);
            }
        }
        // At depth 1 the one job is fetched inline; deeper, the next fetches
        // start while the oldest is processed.
        if self.in_flight.len() < self.depth {
            if let Some(job) = self.batch.pop_front() {
                if revoked(job.chunk.id) {
                    return Step::Dropped(job.chunk.id);
                }
                if self.crash_after.is_some_and(|k| self.started >= k) {
                    // The job, and the rest of the batch behind it, leaks.
                    self.batch.push_front(job);
                    self.crashed = true;
                    return Step::Leave;
                }
                self.started += 1;
                self.in_flight.push_back(job.chunk.id);
                return Step::Fetch(job);
            }
        }
        if self.batch.is_empty() && !self.asking && !self.ended {
            // With nothing in flight the answer is waited for at once: what
            // is open goes first, the head may not finish without it.
            let waited_for = self.in_flight.is_empty();
            if let Some(jobs) = waited_for.then(|| self.settle(&revoked)).flatten() {
                return Step::Settle(jobs);
            }
            return Step::Ask;
        }
        if self.ended && self.batch.is_empty() && self.in_flight.is_empty() {
            return Step::Leave;
        }
        if idle && !self.done.is_empty() {
            return Step::Done(std::mem::take(&mut self.done));
        }
        Step::Wait
    }

    /// The request for jobs goes out at `now`: how many to ask for, the
    /// completions it carries, and the emptied buffer of the last batch, for
    /// the master to fill.
    pub fn ask(&mut self, now: Seconds) -> (usize, Vec<ChunkId>, Vec<LocalJob>) {
        if let Some((at, jobs)) = self.arrived.take() {
            ewma(&mut self.per_job, (now - at) / jobs as f64, 4.0);
        }
        self.asking = true;
        let want = self.per_job.map_or(1, |t| ((QUANTUM / t) as usize).clamp(1, MAX_BDP_JOBS));
        // Asked only once the batch is used up: an empty deque's buffer
        // becomes a `Vec` without a move.
        (want, std::mem::take(&mut self.done), std::mem::take(&mut self.batch).into())
    }

    /// Batches to come are held in `buf`, emptied, if no batch is held and
    /// it is the larger buffer (one reserved at the bound of a hand-off,
    /// say, so it never grows).
    pub fn reuse_batch(&mut self, mut buf: Vec<LocalJob>) {
        if self.batch.is_empty() && buf.capacity() > self.batch.capacity() {
            buf.clear();
            self.batch = buf.into();
        }
    }

    /// The completions an ask carried came back in `buf`, emptied: the next
    /// ones are said in it, if it is the larger buffer.
    pub fn reuse_done(&mut self, mut buf: Vec<ChunkId>) {
        if buf.capacity() > self.done.capacity() {
            buf.clear();
            buf.append(&mut self.done);
            self.done = buf;
        }
    }

    /// The master answered at `now` (`None`: it is gone). Anything but jobs
    /// means no more will come.
    pub fn answer(&mut self, take: Option<Take>, now: Seconds) {
        self.asking = false;
        match take {
            Some(Take::Jobs(jobs)) => {
                self.arrived = Some((now, jobs.len()));
                self.batch = jobs.into();
            }
            _ => self.ended = true,
        }
    }

    /// The fetch of `job`, the oldest started, landed: whether to process it.
    /// At depth ≥ 2 a job revoked meanwhile is dropped here; at depth 1 the
    /// fetch was inline and nothing happened in between.
    pub fn hand_off(&mut self, job: ChunkId, revoked: impl Fn(ChunkId) -> bool) -> bool {
        debug_assert_eq!(self.in_flight.front(), Some(&job), "fetches land in start order");
        let process = self.depth == 1 || !revoked(job);
        if !process {
            self.in_flight.pop_front();
        }
        process
    }

    /// `job` was processed from `began` to `now`; ack-gated, its fetched
    /// chunk is kept at `kept` of the driver's open jobs until the verdict
    /// (otherwise it is done).
    pub fn processed(&mut self, job: ChunkId, kept: Range<usize>, began: Seconds, now: Seconds) {
        self.in_flight.pop_front();
        if !self.ack_gated {
            self.done.push(job);
            return;
        }
        if self.open.is_empty() {
            self.opened = began;
        }
        self.open.push((job, kept));
        self.settle_due |= now - self.opened >= QUANTUM;
    }

    /// The job handed over last failed; the driver reports it. What is open
    /// is settled before anything else is processed: a panic costs the
    /// worker what it had reduced since the last settle.
    pub fn failed(&mut self) {
        self.in_flight.pop_front();
        self.settle_due = true;
    }

    /// Cut a settle of every open job not revoked: the jobs to report, or
    /// `None` when nothing is open.
    pub fn settle(&mut self, revoked: impl Fn(ChunkId) -> bool) -> Option<Vec<ChunkId>> {
        self.settle_due = false;
        if self.open.is_empty() {
            return None;
        }
        self.settling_of = self.open.len();
        self.open.retain(|(job, _)| !revoked(*job));
        Some(self.open.iter().map(|(job, _)| *job).collect())
    }

    /// The verdicts on the last settle, one per reported job: whether every
    /// job open then merged (none refused, none revoked), and the merged
    /// jobs with where their chunks are kept. The reported jobs are gone once
    /// it is dropped.
    pub fn settled<'a>(
        &'a mut self,
        verdicts: &'a [bool],
    ) -> (bool, impl Iterator<Item = (ChunkId, Range<usize>)> + 'a) {
        let all = verdicts.len() == self.settling_of && verdicts.iter().all(|&v| v);
        let merged = self.open.drain(..).zip(verdicts).filter(|(_, &v)| v);
        (all, merged.map(|(job, _)| job))
    }

    /// Jobs started and not finished.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Leave: the done list and every job held unprocessed — unstarted, or
    /// started and not finished — to fail back, because a head without a
    /// lease reaper would wait for them forever. `None` for a dead site (the
    /// head evacuates it) and a crashed worker (it leaks to the lease reaper,
    /// like the process it stands for). Settle first. Afterwards nothing is
    /// held; an answer still to come goes to [`SlaveCore::answer`], and then
    /// leave again.
    pub fn leave(&mut self, site_dead: bool) -> Option<Owed> {
        debug_assert!(site_dead || self.crashed || self.open.is_empty(), "open jobs are settled");
        self.ended = true;
        self.open.clear();
        let done = std::mem::take(&mut self.done);
        let unstarted = self.batch.drain(..).map(|job| job.chunk.id);
        let failed: Vec<ChunkId> = unstarted.chain(self.in_flight.drain(..)).collect();
        (!site_dead && !self.crashed).then_some(Owed { done, failed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::DataIndex;
    use crate::layout::LayoutParams;
    use crate::types::SiteId;

    fn jobs(n: u64) -> Vec<LocalJob> {
        let params = LayoutParams { unit_size: 1, units_per_chunk: 1, n_files: 1 };
        let idx = DataIndex::build(n, params, |_| SiteId::LOCAL).unwrap();
        idx.chunks.iter().map(|&chunk| LocalJob { chunk, stolen: false, span: 0 }).collect()
    }

    fn ids(jobs: &[LocalJob]) -> Vec<ChunkId> {
        jobs.iter().map(|j| j.chunk.id).collect()
    }

    const NONE: fn(ChunkId) -> bool = |_| false;

    /// Jobs held: in the batch, started, or open.
    fn held(core: &SlaveCore) -> usize {
        core.batch.len() + core.in_flight.len() + core.open.len()
    }

    /// Fetch, hand over and process the next `n` jobs, each taking `dur`,
    /// starting at `now`: the end time.
    fn run_jobs(core: &mut SlaveCore, n: usize, mut now: Seconds, dur: Seconds) -> Seconds {
        for _ in 0..n {
            let Step::Fetch(job) = core.poll(false, NONE) else { panic!("a job to fetch") };
            assert!(core.hand_off(job.chunk.id, NONE));
            core.processed(job.chunk.id, 0..0, now, now + dur);
            now += dur;
        }
        now
    }

    #[test]
    fn the_first_ask_is_for_one_job_and_later_ones_fill_a_quantum() {
        let mut core = SlaveCore::new(1, false, None);
        assert_eq!(core.poll(false, NONE), Step::Ask);
        let (want, done, buf) = core.ask(0.0);
        assert_eq!((want, done, buf.capacity()), (1, vec![], 0));
        assert_eq!(core.poll(false, NONE), Step::Wait, "the answer is out");
        let batch = jobs(1);
        core.answer(Some(Take::Jobs(batch.clone())), 0.0);
        let end = run_jobs(&mut core, 1, 0.0, QUANTUM / 8.0);
        assert_eq!(core.poll(false, NONE), Step::Ask);
        let (want, done, buf) = core.ask(end);
        assert_eq!((want, done), (8, ids(&batch)), "eight jobs to a quantum");
        assert!(buf.is_empty() && buf.capacity() >= 1, "the last batch's buffer goes back");
        core.answer(Some(Take::Drained), end);
        assert_eq!(core.poll(false, NONE), Step::Leave);
        assert_eq!(core.leave(false), Some(Owed::default()));
    }

    #[test]
    fn open_jobs_are_settled_before_an_ask_that_is_waited_for_and_a_quantum_after_the_oldest() {
        let mut core = SlaveCore::new(1, true, None);
        assert_eq!(core.poll(false, NONE), Step::Ask);
        core.ask(0.0);
        let batch = jobs(4);
        core.answer(Some(Take::Jobs(batch.clone())), 0.0);
        // Jobs of 0.6 ms: the second ends 1.2 ms after the first began.
        let mut settles = Vec::new();
        let mut now = 0.0;
        loop {
            match core.poll(false, NONE) {
                Step::Fetch(job) => {
                    assert!(core.hand_off(job.chunk.id, NONE));
                    core.processed(job.chunk.id, 0..0, now, now + 6e-4);
                    now += 6e-4;
                }
                Step::Settle(jobs) => {
                    settles.push(jobs);
                    let verdicts = vec![true; settles.last().unwrap().len()];
                    assert!(core.settled(&verdicts).0);
                }
                Step::Ask => break,
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(settles, [ids(&batch[..2]), ids(&batch[2..])]);
    }

    #[test]
    fn a_refused_and_a_revoked_open_job_spoil_the_batch_and_only_the_merged_are_returned() {
        let mut core = SlaveCore::new(1, true, None);
        core.poll(false, NONE);
        core.ask(0.0);
        let batch = jobs(3);
        core.answer(Some(Take::Jobs(batch.clone())), 0.0);
        run_jobs(&mut core, 3, 0.0, 0.0);
        let revoked = |job| job == batch[0].chunk.id;
        assert_eq!(
            core.poll(false, revoked),
            Step::Settle(ids(&batch[1..])),
            "the revoked one is not said"
        );
        let (all_merged, merged) = core.settled(&[false, true]);
        assert!(!all_merged, "its units are in the open reduce");
        assert_eq!(merged.map(|(job, _)| job).collect::<Vec<_>>(), ids(&batch[2..]));
        assert_eq!(held(&core), 0);
    }

    #[test]
    fn a_pipelined_slave_asks_early_and_says_what_it_holds_before_it_blocks() {
        let mut core = SlaveCore::new(2, false, None);
        core.poll(false, NONE);
        core.ask(0.0);
        let batch = jobs(3);
        core.answer(Some(Take::Jobs(batch.clone())), 0.0);
        assert_eq!(core.poll(false, NONE), Step::Fetch(batch[0]));
        assert_eq!(core.poll(false, NONE), Step::Fetch(batch[1]), "fetched while 0 is processed");
        assert_eq!(core.poll(false, NONE), Step::Wait, "two in the pipeline: full");
        assert!(core.hand_off(batch[0].chunk.id, NONE));
        core.processed(batch[0].chunk.id, 0..0, 1.0, 1.0);
        assert_eq!(core.poll(false, NONE), Step::Fetch(batch[2]));
        assert_eq!(core.poll(false, NONE), Step::Ask, "the batch is used up, two in the pipeline");
        assert_eq!(core.ask(1.0).1, ids(&batch[..1]));
        assert!(core.hand_off(batch[1].chunk.id, NONE));
        core.processed(batch[1].chunk.id, 0..0, 1.0, 1.0);
        assert_eq!(core.poll(false, NONE), Step::Wait);
        assert_eq!(core.poll(true, NONE), Step::Done(ids(&batch[1..2])), "said before blocking");
        assert_eq!(core.poll(true, NONE), Step::Wait);
        // The run fails here: the job fetching goes back, and so do the jobs
        // of the answer still out.
        assert_eq!(core.leave(false).unwrap(), Owed { done: vec![], failed: ids(&batch[2..]) });
        core.answer(Some(Take::Jobs(jobs(1))), 2.0);
        assert_eq!(core.leave(false).unwrap().failed.len(), 1);
        assert_eq!(held(&core), 0);
    }

    #[test]
    fn a_crashed_worker_and_a_dead_site_owe_nothing() {
        let mut core = SlaveCore::new(1, false, Some(1));
        core.poll(false, NONE);
        core.ask(0.0);
        let batch = jobs(3);
        core.answer(Some(Take::Jobs(batch.clone())), 0.0);
        run_jobs(&mut core, 1, 0.0, 0.0);
        assert_eq!(core.poll(false, NONE), Step::Leave, "the second job crashes the worker");
        assert_eq!(core.leave(false), None);
        assert_eq!(held(&core), 0);

        let mut core = SlaveCore::new(1, false, None);
        core.poll(false, NONE);
        core.ask(0.0);
        core.answer(Some(Take::Jobs(batch)), 0.0);
        assert!(matches!(core.poll(false, NONE), Step::Fetch(_)));
        assert_eq!(core.leave(true), None);
        assert_eq!(held(&core), 0);
    }
}
