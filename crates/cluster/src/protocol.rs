//! Control-plane messages between node roles (Fig. 2 of the paper).
//!
//! The control plane (job assignment) flows over channels: slaves ask their
//! site's **master** for jobs, a quantum of work per exchange, and hand it
//! their finished jobs with the next request; masters ask the **head** for
//! batches in frames of the wire protocol ([`crate::wire::Frame`]), carried
//! over a socket or, in-process, as [`HeadMsg::Frame`]. Either way the head's
//! answer comes back into the master's own mailbox
//! ([`MasterMsg::HeadReply`]), so a master never waits for one. The data
//! plane — chunk bytes and reduction objects — never rides these channels:
//! chunks go through the [`StoreRouter`](crate::router::StoreRouter), and
//! reduction objects are merged at site level and charged explicitly against
//! the inter-site link during global reduction.
//!
//! A slave's completions and failures go to its master, which reports them
//! as the entries of an `AckBatch` (a failure has `ok: false`). When fault
//! tolerance is on, a slave *settles* the jobs of a hand-off in one exchange
//! and waits for the head's verdict on each: merged (first completion of the
//! chunk) or to discard (a duplicate). In-process the settle is the one
//! message a slave sends the head itself ([`HeadMsg::Complete`]); its
//! verdicts go back to the slave alone. Any frame from a master doubles as its
//! liveness beacon; an idle one sends an empty `AckBatch`, so the head can
//! detect a silently dead site. Revocation notices reach a site only in the
//! `BatchReply`s to its master's frames, on both transports; the master posts
//! them on its site's [`CancelBoard`](crate::net::CancelBoard).

use crate::wire::{BatchReply, Frame};
use cloudburst_core::{ChunkId, FaultCounters, JobBatch, LocalJob, SiteId, SiteJobCounts, Take};
use crossbeam::channel::Sender;
use std::collections::BTreeMap;
use std::io;

/// Messages the head node serves over the in-process transport.
pub enum HeadMsg {
    /// A site master joins: the head posts its answers to the site's frames
    /// into `mailbox` as [`MasterMsg::HeadReply`] — as the reactor writes a
    /// reply to the connection its frame came on — and, should the head stop
    /// while the master is still there, [`MasterMsg::HeadGone`].
    Connect {
        /// The joining site.
        site: SiteId,
        /// The master's own mailbox.
        mailbox: Sender<MasterMsg>,
    },
    /// One frame of the wire protocol from `site`'s master: an `AckBatch`
    /// or its `Bye`.
    Frame {
        /// The site it comes from.
        site: SiteId,
        /// The frame.
        frame: Frame,
    },
    /// What one slave settles in one exchange: every job of a hand-off it
    /// reduced since its last report. The head serves it as an `AckBatch`
    /// from `site` that asks for nothing; the verdicts go back to the slave,
    /// and any revocation notices the reply took go to the front of the
    /// site's master's next reply.
    Complete {
        /// The finished jobs.
        jobs: Vec<ChunkId>,
        /// The site that processed them.
        site: SiteId,
        /// Where the head answers, job by job, whether the result was merged
        /// (`true`) or is a duplicate to discard (`false`).
        reply: Verdicts,
    },
    /// A grant a master has queued, emptied: its buffers serve a later grant,
    /// so the head allocates none per exchange once they are grown.
    Spare(JobBatch),
}

/// A master's answer to a slave's request for jobs: the jobs, or why there
/// are none, and the buffer of the completions the request carried, emptied,
/// for the slave to say its next ones in.
pub type Answer = (Take, Vec<ChunkId>);

/// Where a master answers a slave's request for jobs: the slave's one reply
/// channel, kept for its whole run, so an exchange allocates no channel. A
/// reply dropped unanswered — its master is gone — says so with `None`,
/// which a channel that outlives the request cannot.
pub struct Reply(Option<Sender<Option<Answer>>>);

impl Reply {
    /// A reply on the slave's channel `to` (one request out at a time, so a
    /// channel of one never blocks the master).
    #[must_use]
    pub fn new(to: &Sender<Option<Answer>>) -> Reply {
        Reply(Some(to.clone()))
    }

    /// Answer the request.
    pub fn send(mut self, answer: Answer) {
        if let Some(to) = self.0.take() {
            let _ = to.send(Some(answer));
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(to) = self.0.take() {
            let _ = to.send(None);
        }
    }
}

/// Where the verdicts on a slave's settle go: the slave's one verdict
/// channel, kept for its whole run, so a settle allocates no channel. It owes
/// the slave one verdict per settled job, in order; each one dropped unsaid —
/// the control plane was torn down — arrives as `None`, so a settle always
/// reads exactly its own verdicts, which a channel that outlives the settle
/// needs.
pub struct Verdicts {
    to: Sender<Option<bool>>,
    owed: usize,
}

impl Verdicts {
    /// `owed` verdicts on the slave's channel `to`.
    #[must_use]
    pub fn new(to: &Sender<Option<bool>>, owed: usize) -> Verdicts {
        Verdicts { to: to.clone(), owed }
    }

    /// Say the next verdict: whether that job's result was merged.
    pub fn send(&mut self, merged: bool) {
        if self.owed > 0 {
            self.owed -= 1;
            let _ = self.to.send(Some(merged));
        }
    }

    /// Hand over the next verdict, to be said on its own later.
    pub fn split(&mut self) -> Verdicts {
        debug_assert!(self.owed > 0, "a verdict is owed");
        self.owed -= 1;
        Verdicts { to: self.to.clone(), owed: 1 }
    }
}

impl Drop for Verdicts {
    fn drop(&mut self) {
        for _ in 0..self.owed {
            let _ = self.to.send(None);
        }
    }
}

/// Messages a site master serves: its slaves' requests and reports, the
/// head's answers and what its site coordinator has to tell it — one
/// mailbox, so the master sleeps in one place.
pub enum MasterMsg {
    /// A slave asks for its next jobs. The master answers with one to `want`
    /// of them the moment its pool holds any — it never waits to fill a
    /// batch — and parks the request while the pool is empty. The buffers
    /// travel back and forth, so a hand-off allocates nothing once they are
    /// grown.
    GetJobs {
        /// The most jobs the slave takes: one quantum of its work.
        want: usize,
        /// The jobs the slave finished since its last request whose
        /// completion nobody waits on; the master passes them to the head
        /// and answers with the buffer emptied.
        done: Vec<ChunkId>,
        /// The emptied buffer of the slave's last batch, which the master
        /// fills with the jobs.
        buf: Vec<LocalJob>,
        /// Where to send the jobs (or the drained signal).
        reply: Reply,
    },
    /// A slave reports the jobs it finished since its last report and waits
    /// for the head's merge/discard verdict on each (TCP deployment mode: the
    /// master forwards both ways over its control connection; in-process a
    /// slave settles with the head directly, [`HeadMsg::Complete`]).
    Complete {
        /// The finished jobs.
        jobs: Vec<ChunkId>,
        /// Where the master sends the verdicts, one per job, in order.
        reply: Verdicts,
    },
    /// Completions nobody waits on and no request carries: a slave's as it
    /// is about to block or to leave.
    Done {
        /// The finished jobs.
        jobs: Vec<ChunkId>,
    },
    /// A slave reports a failed job.
    Failed {
        /// The failed job.
        job: ChunkId,
    },
    /// The head answered the oldest unanswered `AckBatch` (replies arrive
    /// in request order).
    HeadReply(BatchReply),
    /// The head is gone: the control connection ended — EOF or a read
    /// error — or the in-process head stopped. Nothing follows it.
    HeadGone(io::Error),
    /// Every slave of the site has exited. Whoever posts the head's answers
    /// (the socket reader, or the in-process head) keeps the mailbox
    /// connected, so the site coordinator says it in so many words.
    SlavesGone,
}

/// What the head reports after the run: the authoritative per-site job
/// accounting (Table I) plus control-traffic counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HeadReport {
    /// Jobs processed per site, split local/stolen.
    pub counts: BTreeMap<SiteId, SiteJobCounts>,
    /// Batch requests served.
    pub requests: u64,
    /// Completions *merged* (each chunk exactly once; duplicates are
    /// counted in [`HeadReport::faults`] instead).
    pub completions: u64,
    /// Failure reports received.
    pub failures: u64,
    /// Jobs permanently abandoned after exhausting their retry attempts.
    pub abandoned: u64,
    /// Fault-path accounting: lease expiries, evacuations, speculative
    /// grants, deduplicated completions, abandoned-job detail.
    pub faults: FaultCounters,
    /// Sites declared dead and evacuated during the run.
    pub dead_sites: Vec<SiteId>,
    /// Connections the head accepted (TCP reactor mode; 0 in channel mode).
    pub conns_opened: u64,
    /// Connection states reclaimed — closed and their buffers freed (TCP
    /// reactor mode). Equal to [`HeadReport::conns_opened`] at the end of
    /// any run that leaks nothing, whether the peer said Bye, vanished, or
    /// timed out.
    pub conns_reclaimed: u64,
    /// Returns of the head reactor's readiness wait — socket activity plus
    /// timer ticks (TCP reactor mode; 0 in channel mode).
    pub wakeups: u64,
}
