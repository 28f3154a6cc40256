//! Control-plane messages between node roles (Fig. 2 of the paper).
//!
//! The control plane (job assignment) flows over channels: slaves ask their
//! site's **master** for jobs, a quantum of work per exchange, and hand it
//! their finished jobs with the next request; masters ask the **head** for
//! batches and report completions. The data plane — chunk bytes and
//! reduction objects — never rides these channels: chunks go through the
//! [`StoreRouter`](crate::router::StoreRouter), and reduction objects are
//! merged at site level and charged explicitly against the inter-site link
//! during global reduction.
//!
//! When fault tolerance is on, completions become a *request/response*:
//! the reporter attaches a reply channel and the head answers, for every job
//! of the report, whether the result was merged (first completion of the
//! chunk) or must be discarded (duplicate from a preempted, reaped, or
//! evacuated execution) — one exchange per hand-off of jobs, not per job. Masters
//! additionally emit [`HeadMsg::Heartbeat`] beacons so the head can detect
//! a silently dead site.

use crate::wire::BatchReply;
use cloudburst_core::{ChunkId, FaultCounters, JobBatch, SiteId, SiteJobCounts, Take};
use crossbeam::channel::Sender;
use std::collections::BTreeMap;
use std::io;

/// Messages the head node serves.
pub enum HeadMsg {
    /// A master requests a batch of jobs for its site.
    RequestJobs {
        /// The requesting site.
        site: SiteId,
        /// Where to send the granted batch (empty batch = no work left).
        reply: Sender<JobBatch>,
    },
    /// Jobs a site's slaves finished: what one slave settles in one exchange
    /// (every job of a hand-off it reduced since its last report), or the
    /// fire-and-forget completions it handed its master with a job request
    /// ([`MasterMsg::GetJobs`]).
    Complete {
        /// The finished jobs.
        jobs: Vec<ChunkId>,
        /// The site that processed them.
        site: SiteId,
        /// When present, the head answers, job by job and in one reply,
        /// whether the result was merged (`true`) or is a duplicate to
        /// discard (`false`). Fire-and-forget (`None`) is only sound with
        /// fault tolerance off, when no duplicate can exist.
        reply: Option<Sender<Vec<bool>>>,
    },
    /// A slave failed to process one job (retrieval error, crash); the head
    /// requeues it for reassignment or abandons it after too many attempts.
    Failed {
        /// The failed job.
        job: ChunkId,
        /// The site that failed it.
        site: SiteId,
    },
    /// A site master's liveness beacon. A site that stays silent past the
    /// heartbeat timeout is declared dead and evacuated.
    Heartbeat {
        /// The beaconing site.
        site: SiteId,
    },
    /// A site master's orderly goodbye. With liveness tracking on, a site
    /// that joined but hangs up without one is treated as crashed: the head
    /// evacuates it when the channel drains, so its merged-then-lost results
    /// are re-queued (or reported abandoned) instead of silently missing.
    Bye {
        /// The departing site.
        site: SiteId,
    },
}

/// Messages a site master serves: its slaves' requests and reports and, in
/// the TCP deployment mode, what its control connection and its site
/// coordinator have to tell it — one mailbox, so the master sleeps in one
/// place.
pub enum MasterMsg {
    /// A slave asks for its next jobs. The master answers with one to `want`
    /// of them the moment its pool holds any — it never waits to fill a
    /// batch — and parks the request while the pool is empty.
    GetJobs {
        /// The most jobs the slave takes: one quantum of its work.
        want: usize,
        /// The jobs the slave finished since its last request whose
        /// completion nobody waits on; the master passes them to the head.
        done: Vec<ChunkId>,
        /// Where to send the jobs (or the drained signal).
        reply: Sender<Take>,
    },
    /// A slave reports the jobs it finished since its last report and waits
    /// for the head's merge/discard verdict on each (TCP deployment mode: the
    /// master forwards both ways over its control connection; see
    /// [`HeadMsg::Complete`]).
    Complete {
        /// The finished jobs.
        jobs: Vec<ChunkId>,
        /// Where the master sends the verdicts, one per job, in order.
        reply: Sender<bool>,
    },
    /// A slave that is leaving hands over the completions no request of its
    /// own will carry any more (TCP deployment mode).
    Done {
        /// The finished jobs.
        jobs: Vec<ChunkId>,
    },
    /// A slave reports a failed job (TCP deployment mode).
    Failed {
        /// The failed job.
        job: ChunkId,
    },
    /// The head answered the oldest unanswered `AckBatch` on the control
    /// connection (TCP deployment mode; replies arrive in request order).
    HeadReply(BatchReply),
    /// The control connection ended — EOF or a read error (TCP deployment
    /// mode). Nothing follows it.
    HeadGone(io::Error),
    /// Every slave of the site has exited (TCP deployment mode). The master's
    /// socket reader keeps the mailbox connected, so the site coordinator
    /// says it in so many words.
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
}
