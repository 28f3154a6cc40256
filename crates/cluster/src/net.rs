//! The site master — one loop for both deployment modes — and the TCP
//! deployment mode's head ↔ master control plane over real sockets.
//!
//! A master speaks the [`crate::wire`] protocol to its head whatever carries
//! it: a loopback socket, or the in-process head's mailbox. Over TCP, job
//! assignment, work stealing, completion reporting and the terminal
//! handshake genuinely cross a wire. Slaves still live in their master's
//! process (as in the paper, where slaves and master share a cluster), and
//! the data plane goes through the usual [`StoreRouter`].
//!
//! Fault tolerance maps naturally onto the transport: any frame from a
//! master doubles as its liveness beacon (idle masters send explicit ping
//! frames), the head's per-connection read timeout is the death detector,
//! and an EOF without an orderly `Bye` — a crashed or revoked site — gets
//! the site evacuated and its work re-homed to the survivors.
//!
//! [`run_hybrid_tcp`] is a drop-in alternative to
//! [`run_hybrid`](crate::runtime::run_hybrid) that binds a loopback head
//! server and connects one control socket per site.
//!
//! [`StoreRouter`]: crate::router::StoreRouter

use crate::error::RunError;
use crate::protocol::{HeadMsg, MasterMsg, Reply, Verdicts};
pub use crate::reactor::{serve_head, serve_head_with};
use crate::runtime::{
    mailbox_tick, run_on, MasterStart, RunOutcome, RuntimeConfig, Transport, Uplink, LOW_WATERMARK,
};
use crate::wire::{
    put_ack_batch, put_frame, read_batch_reply_with, read_hello_ack, write_hello, AckEntry,
    BatchReply, Frame, MasterToHead, WIRE_VERSION,
};
use cloudburst_core::master::MAX_BDP_JOBS;
use cloudburst_core::{
    ns_since, ChunkId, DataIndex, Event, EventKind, JobBatch, LocalJob, MasterPool, Reduction,
    RequestId, SiteId, Take,
};
use cloudburst_storage::ChunkStore;
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reports waiting for a frame are flushed at this many, well under the
/// `u16` entry count of an `AckBatch`.
const REPORT_FLUSH: usize = 1024;

/// Hangs the control connection up when dropped — on *every* exit of the
/// master, the wordless chaos death included — so the socket reader wakes
/// from its read and the head sees EOF although the reader's clone is open.
struct HangUp(TcpStream);

impl Drop for HangUp {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

/// Grants the master has queued, emptied, for the socket reader to decode
/// the next ones into.
type Spares = Mutex<Vec<JobBatch>>;

/// Where a master's frames go: its control socket, or the in-process head's
/// mailbox. Either way the head's answers come back into the master's own
/// mailbox — from the socket reader, or from the head itself — so the
/// master never waits for one.
enum HeadLink<'a> {
    /// Frames are encoded into the buffer and written at each flush; landed
    /// grants go back to the reader.
    Socket(TcpStream, Vec<u8>, &'a Spares),
    /// Frames are handed over as they are, at each flush, behind the landed
    /// grants going back to the head — which the frames wake anyway.
    Mailbox { head: Sender<HeadMsg>, site: SiteId, frames: Vec<Frame>, spares: Vec<JobBatch> },
}

impl HeadLink<'_> {
    fn push(&mut self, frame: Frame) {
        match self {
            HeadLink::Socket(_, wbuf, _) => put_frame(wbuf, &frame),
            HeadLink::Mailbox { frames, .. } => frames.push(frame),
        }
    }

    /// Push an `AckBatch` of `entries` asking for `want` jobs — encoded
    /// straight from the master's buffer onto a socket.
    fn push_reports(&mut self, site: SiteId, want: u16, entries: &[AckEntry]) {
        match self {
            HeadLink::Socket(_, wbuf, _) => put_ack_batch(wbuf, site, want, entries),
            HeadLink::Mailbox { .. } => {
                self.push(Frame::AckBatch { site, want, entries: entries.to_vec() });
            }
        }
    }

    /// Hand a landed grant's buffers back to whoever builds the grants that
    /// reach this master, so no exchange allocates one once they are grown.
    fn recycle(&mut self, batch: JobBatch) {
        if batch.jobs.capacity() == 0 {
            return;
        }
        match self {
            HeadLink::Socket(.., spares) => spares.lock().push(batch),
            HeadLink::Mailbox { spares, .. } => spares.push(batch),
        }
    }

    /// Send what was pushed; whether there was anything to send.
    fn flush(&mut self) -> io::Result<bool> {
        match self {
            HeadLink::Socket(_, wbuf, _) if wbuf.is_empty() => Ok(false),
            HeadLink::Socket(stream, wbuf, _) => {
                stream.write_all(wbuf)?;
                wbuf.clear();
                Ok(true)
            }
            HeadLink::Mailbox { frames, .. } if frames.is_empty() => Ok(false),
            HeadLink::Mailbox { head, site, frames, spares } => {
                for batch in spares.drain(..) {
                    head.send(HeadMsg::Spare(batch)).map_err(|_| head_gone())?;
                }
                for frame in frames.drain(..) {
                    head.send(HeadMsg::Frame { site: *site, frame }).map_err(|_| head_gone())?;
                }
                Ok(true)
            }
        }
    }
}

fn head_gone() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "the head is gone")
}

/// Per report, the slave waiting for the head's verdict on it.
type Waiters = VecDeque<Option<Verdicts>>;

/// An `AckBatch` travelling the outbound leg: the oldest `reports` of those
/// cut.
struct Outbound {
    due: Instant,
    /// The grant request it carries, if any (else `want` is 0).
    request: Option<RequestId>,
    want: u16,
    reports: usize,
}

/// Completion and failure reports not sent yet, oldest first: the first
/// `cut` belong to frames on the outbound leg, the rest to none yet. The
/// buffers are the run's, so a frame allocates nothing.
#[derive(Default)]
struct Reports {
    entries: Vec<AckEntry>,
    acks: Waiters,
    cut: usize,
    /// Since when the oldest not cut has waited.
    since: Option<Instant>,
}

impl Reports {
    fn push(&mut self, job: ChunkId, ok: bool, ack: Option<Verdicts>, now: Instant) {
        self.entries.push(AckEntry { job, ok });
        self.acks.push_back(ack);
        self.since.get_or_insert(now);
    }

    /// Completions nobody waits on.
    fn done(&mut self, jobs: &mut Vec<ChunkId>, now: Instant) {
        for job in jobs.drain(..) {
            self.push(job, true, None, now);
        }
    }

    /// Reports no frame carries yet.
    fn uncut(&self) -> usize {
        self.entries.len() - self.cut
    }

    /// Whether a slave waits on a report no frame carries yet.
    fn awaited(&self) -> bool {
        self.acks.range(self.cut..).any(Option::is_some)
    }

    /// Cut a frame due at `due`: up to [`REPORT_FLUSH`] of the reports no
    /// frame carries, oldest first, with `request` asking for `want` jobs.
    fn frame(&mut self, request: Option<RequestId>, want: usize, due: Instant) -> Outbound {
        let reports = self.uncut().min(REPORT_FLUSH);
        self.cut += reports;
        if self.uncut() == 0 {
            self.since = None;
        }
        Outbound { due, request, want: want.min(usize::from(u16::MAX)) as u16, reports }
    }

    /// Put frame `f`, the oldest cut, on `link`; its waiters join `waiting`.
    fn send(&mut self, f: &Outbound, site: SiteId, link: &mut HeadLink<'_>, waiting: &mut Waiters) {
        link.push_reports(site, f.want, &self.entries[..f.reports]);
        self.entries.drain(..f.reports);
        waiting.extend(self.acks.drain(..f.reports));
        self.cut -= f.reports;
    }
}

/// A slave whose request found the pool empty: where to answer it, how many
/// jobs it asked for, and the buffers it handed back.
struct Parked {
    reply: Reply,
    want: usize,
    buf: Vec<LocalJob>,
    done: Vec<ChunkId>,
}

/// A `BatchReply` travelling the return leg. Its grant is already with the
/// pool ([`MasterPool::granted`]); verdicts and revocations wait here.
struct Inbound {
    due: Instant,
    request: Option<RequestId>,
    verdicts: Vec<(Verdicts, bool)>,
    revoked: Vec<ChunkId>,
}

/// A site's master: a non-blocking loop over [`MasterPool`], on either link
/// to the head. Slaves are served from the site pool the moment they ask;
/// the window rule decides when to ask the head for more and
/// [`MasterPool::ask`] how much; every exchange is an `AckBatch` out and a
/// `BatchReply` back, several may be in flight (replies come back in order,
/// into this master's one mailbox), and each leg of modelled link latency is
/// a delay queue rather than a sleep.
///
/// Completion and failure reports ride the next request — a slave's
/// fire-and-forget completions reach the master with its own next request for
/// jobs. Reports whose slave is waiting for the head's verdicts — the jobs of
/// one hand-off, settled together — do not wait for one: they go out at once,
/// as `want: 0` when the window asks for nothing, and each entry's verdict
/// goes back to that slave in entry order. Reports nobody waits on are also flushed after one mailbox tick,
/// at [`REPORT_FLUSH`], once the pool is drained and when the slaves are
/// gone, so the head always learns what it needs to terminate.
///
/// Over TCP, say hello and start the socket reader, which posts each reply
/// into `tx`; in-process, give the head `tx` to post its replies into. Either
/// way the master lets go of its mailbox on every exit, so a request that
/// reaches it too late fails at once instead of waiting for an answer.
///
/// `pool` is the site's, built where the run started. Returns the pool for
/// its ledger. A chaos-revoked site dies
/// mid-conversation by design; its broken link is the failure signal the
/// head is meant to see, not an error of this process.
pub(crate) fn run_site_master(
    cfg: &MasterStart,
    mut pool: MasterPool,
    rx: Receiver<MasterMsg>,
    tx: Sender<MasterMsg>,
    uplink: &Uplink,
) -> io::Result<MasterPool> {
    let result = match uplink {
        Uplink::Mailbox(head) => {
            let connect = HeadMsg::Connect { site: cfg.site, mailbox: tx };
            head.send(connect).map_err(|_| head_gone()).and_then(|()| {
                let frames = Vec::new();
                let (head, site, spares) = (head.clone(), cfg.site, Vec::new());
                let mut link = HeadLink::Mailbox { head, site, frames, spares };
                serve_site(cfg, &rx, &mut link, &mut pool)
            })
        }
        Uplink::Connect(addr) => TcpStream::connect(addr)
            .and_then(|stream| connect_and_serve(cfg, &rx, tx, stream, &mut pool)),
    };
    // Whatever is still in the mailbox holds a slave's reply channel: let go
    // of it, and of the mailbox, so no slave waits on a master that is gone.
    while rx.try_recv().is_ok() {}
    drop(rx);
    result.or_else(|e| if cfg.site_dead() { Ok(()) } else { Err(e) }).map(|()| pool)
}

/// Say hello, start the socket reader and run [`serve_site`] beside
/// it.
fn connect_and_serve(
    cfg: &MasterStart,
    rx: &Receiver<MasterMsg>,
    tx: Sender<MasterMsg>,
    stream: TcpStream,
    pool: &mut MasterPool,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let hang_up = HangUp(stream.try_clone()?);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let window = (cfg.floor + LOW_WATERMARK).min(usize::from(u16::MAX)) as u16;
    write_hello(&mut writer, cfg.site, WIRE_VERSION, window)?;
    if read_hello_ack(&mut reader)? < WIRE_VERSION {
        return Err(io::Error::new(io::ErrorKind::Unsupported, "the head speaks an older wire"));
    }
    let spares = &Spares::default();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            // The reader's one buffer for a reply's bytes.
            let mut body = Vec::new();
            loop {
                let msg = read_batch_reply_with(&mut reader, &mut body, || spares.lock().pop())
                    .map_or_else(MasterMsg::HeadGone, MasterMsg::HeadReply);
                let last = matches!(msg, MasterMsg::HeadGone(_));
                if tx.send(msg).is_err() || last {
                    break;
                }
            }
        });
        // Dropped when this closure ends, however it ends — which is what
        // lets the scope join the reader.
        let _hang_up = hang_up;
        serve_site(cfg, rx, &mut HeadLink::Socket(writer, Vec::new(), spares), pool)
    })
}

/// The master loop proper (see [`run_site_master`]).
fn serve_site(
    cfg: &MasterStart,
    rx: &Receiver<MasterMsg>,
    link: &mut HeadLink<'_>,
    pool: &mut MasterPool,
) -> io::Result<()> {
    let site = cfg.site;
    let tick = mailbox_tick(cfg.heartbeat);
    let secs = |at: Instant| at.saturating_duration_since(cfg.epoch).as_secs_f64();
    let mut reports = Reports::default();
    let mut outbound: VecDeque<Outbound> = VecDeque::new();
    // Frames on the link, oldest first: the request each carries and how
    // many reports; and the slaves their verdicts go to, report by report.
    let mut sent: VecDeque<(Option<RequestId>, usize)> = VecDeque::new();
    let mut waiting = Waiters::new();
    let mut inbound: VecDeque<Inbound> = VecDeque::new();
    // Slaves that found the pool empty, oldest first.
    let mut parked: VecDeque<Parked> = VecDeque::new();
    // Any frame doubles as a liveness beacon; explicit pings cover idle
    // stretches.
    let mut last_sent = Instant::now();
    let mut slaves_gone = false;
    // What a slave takes per hand-off, as of the last request: the floor is
    // counted in these, so a request tops the pool up by hand-offs' worth and
    // not by the few jobs a single dispatch just took.
    let mut quantum = 1;

    while !slaves_gone {
        if cfg.site_dead() {
            // Simulated spot revocation: vanish without a Bye. The silence
            // (over TCP, the dropped socket) is the head's cue to evacuate
            // this site.
            return Ok(());
        }
        let now = Instant::now();
        if cfg.heartbeat.is_some_and(|hb| (now - last_sent).as_secs_f64() >= hb.interval) {
            link.push(Frame::Legacy(MasterToHead::Ping { site }));
            cfg.telemetry.emit(Event::at(ns_since(cfg.epoch), EventKind::Heartbeat).site(site));
        }
        while inbound.front().is_some_and(|r| r.due <= now) {
            let reply = inbound.pop_front().expect("front was checked");
            for (mut ack, verdict) in reply.verdicts {
                ack.send(verdict);
            }
            // Fencing: every undelivered job the head revoked dies here,
            // before the refill can resurrect a fresh copy of the same chunk.
            pool.drop_revoked(&reply.revoked);
            if let Some(id) = reply.request {
                link.recycle(pool.land(id, secs(now)));
            }
        }
        while let Some(slave) = parked.front_mut() {
            // In-process the head also fences on the cancel board: a queued
            // job posted there is no longer this site's, so it is dropped
            // instead of dispatched.
            pool.skip_revoked(|chunk| cfg.revoked(chunk));
            match pool.serve_parked(secs(now), slave.want, &mut slave.buf) {
                Take::NeedRefill => break,
                take => {
                    let slave = parked.pop_front().expect("front was checked");
                    slave.reply.send((take, slave.done));
                }
            }
        }
        // Requests go out after the slaves were answered, so a slave is
        // already fetching while its master talks to the head.
        while let Some(id) = pool.next_request(secs(now)) {
            // At most a hand-off's bound per request, so a grant, its frame
            // and its decode stay within the buffers a hand-off needs; the
            // pool counts the grant, not the ask, once it lands, and a
            // master short of more asks again.
            let want = pool.ask(id, floor(cfg.floor, quantum) * quantum).min(MAX_BDP_JOBS);
            outbound.push_back(reports.frame(Some(id), want, now + cfg.leg));
        }
        let flush = reports.awaited()
            || pool.is_drained()
            || reports.since.is_some_and(|since| now - since >= tick);
        while reports.uncut() >= REPORT_FLUSH || (flush && reports.uncut() > 0) {
            outbound.push_back(reports.frame(None, 0, now + cfg.leg));
        }
        while outbound.front().is_some_and(|f| f.due <= now) {
            let f = outbound.pop_front().expect("front was checked");
            reports.send(&f, site, link, &mut waiting);
            sent.push_back((f.request, f.reports));
        }
        if link.flush()? {
            last_sent = now;
        }

        let retry = pool.retry_at().map(|at| cfg.epoch + Duration::from_secs_f64(at));
        let wake = [
            outbound.front().map(|f| f.due),
            inbound.front().map(|r| r.due),
            reports.since.map(|since| since + tick),
            retry,
        ]
        .into_iter()
        .flatten()
        .min();
        let timeout = wake.map_or(tick, |at| at.saturating_duration_since(now).min(tick));
        // One pass serves everything the mailbox holds, so a burst of
        // reports shares a frame, and a slave that asked while a grant was on
        // its way is parked before the grant lands: it was waiting for it.
        let mut next = rx.recv_timeout(timeout).ok();
        let now = Instant::now();
        while let Some(msg) = next {
            match msg {
                MasterMsg::GetJobs { want, mut done, mut buf, reply } => {
                    quantum = want;
                    reports.done(&mut done, now);
                    pool.skip_revoked(|chunk| cfg.revoked(chunk));
                    match pool.arrive(secs(now), want, &mut buf) {
                        Take::NeedRefill => parked.push_back(Parked { reply, want, buf, done }),
                        take => reply.send((take, done)),
                    }
                }
                MasterMsg::Complete { jobs, mut reply } => {
                    for job in jobs {
                        reports.push(job, true, Some(reply.split()), now);
                    }
                }
                MasterMsg::Done { mut jobs } => reports.done(&mut jobs, now),
                MasterMsg::Failed { job } => reports.push(job, false, None, now),
                MasterMsg::HeadReply(reply) => {
                    let (request, n) = sent.pop_front().ok_or_else(|| unasked("reply"))?;
                    let due = now + cfg.leg;
                    inbound.push_back(receive(pool, reply, request, waiting.drain(..n), due)?);
                }
                MasterMsg::HeadGone(e) => return Err(e),
                MasterMsg::SlavesGone => slaves_gone = true,
            }
            next = rx.try_recv().ok();
        }
    }

    if cfg.site_dead() {
        return Ok(()); // the slaves left because the site died under them
    }
    // All slaves hung up. Every job granted to this master and not dispatched
    // would stay assigned at the head forever (and without leases nothing
    // reaps them), stalling the surviving sites that poll for the work. So:
    // ship what reports are left (`want: 0` — requests still on the outbound
    // leg never reached the head and are forgotten) and wait for the head's
    // answer to every frame on the link — it may still be granting jobs to
    // this master; then hand back the queue and every grant that was
    // travelling, as failures in frames that ask for nothing, and wait for
    // their answers too before the orderly goodbye.
    for handing_back in [false, true] {
        if handing_back {
            for job in pool.close() {
                reports.push(job.chunk.id, false, None, Instant::now());
            }
        }
        for chunk in reports.entries.chunks(REPORT_FLUSH) {
            link.push_reports(site, 0, chunk);
            sent.push_back((None, chunk.len()));
            waiting.extend(chunk.iter().map(|_| None)); // nobody is left to tell
        }
        reports.entries.clear();
        link.flush()?;
        while !sent.is_empty() {
            match rx.recv() {
                Ok(MasterMsg::HeadReply(reply)) => {
                    let (request, n) = sent.pop_front().expect("checked non-empty");
                    receive(pool, reply, request, waiting.drain(..n), Instant::now())?;
                }
                Ok(MasterMsg::HeadGone(e)) => return Err(e),
                Ok(_) => {}
                Err(_) => return Err(head_gone()),
            }
        }
    }
    link.push(Frame::Legacy(MasterToHead::Bye));
    link.flush().map(drop)
}

/// The hand-offs a request tops the pool up to. The floor's last one is
/// slack against a slave finding the queue empty, worth holding while a
/// hand-off is short; a slave that takes one job per hand-off has jobs of a
/// quantum or more, and one more of those queued here is that much tail
/// another site could have run.
fn floor(hand_offs: usize, quantum: usize) -> usize {
    if quantum > 1 {
        hand_offs
    } else {
        hand_offs.saturating_sub(1)
    }
}

fn unasked(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("the head sent a {what} nobody asked for"))
}

/// Take in the head's answer to one frame: its grant goes to the pool at
/// once — from here on those jobs are this master's to dispatch or hand
/// back — and the rest starts the return leg.
fn receive(
    pool: &mut MasterPool,
    reply: BatchReply,
    request: Option<RequestId>,
    acks: impl ExactSizeIterator<Item = Option<Verdicts>>,
    due: Instant,
) -> io::Result<Inbound> {
    if reply.verdicts.len() != acks.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "batch reply verdict count mismatch",
        ));
    }
    match request {
        Some(id) => pool.granted(id, reply.grant),
        None if !reply.grant.is_empty() => return Err(unasked("grant")),
        None => {}
    }
    let verdicts = acks.zip(reply.verdicts).filter_map(|(a, v)| Some((a?, v))).collect();
    Ok(Inbound { due, request, verdicts, revoked: reply.revoked })
}

/// [`run_hybrid`](crate::runtime::run_hybrid) with the head ↔ master control
/// plane over TCP on the loopback interface.
///
/// # Errors
/// Everything [`run_hybrid`](crate::runtime::run_hybrid) can report, plus
/// socket errors surfaced as [`RunError::Io`].
pub fn run_hybrid_tcp<R: Reduction>(
    app: &R,
    index: &DataIndex,
    stores: BTreeMap<SiteId, Arc<dyn ChunkStore>>,
    config: &RuntimeConfig,
) -> Result<RunOutcome<R::RObj>, RunError> {
    run_on(Transport::Tcp, app, index, stores, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::head::{run_head, HeadOptions};
    use crate::protocol::{Answer, HeadReport};
    use crate::wire::put_hello_ack;
    use cloudburst_core::{
        BatchPolicy, FaultPlan, HeartbeatConfig, JobBatch, JobPool, LayoutParams, SiteOutage,
        Telemetry,
    };
    use crossbeam::channel::{bounded, unbounded};
    use std::io::Read;
    use std::net::TcpListener;

    fn pool(n_chunks: u64) -> JobPool {
        let params = LayoutParams { unit_size: 1, units_per_chunk: 2, n_files: 2 };
        let idx = DataIndex::build(n_chunks * 2, params, |_| SiteId::LOCAL).unwrap();
        JobPool::from_index(&idx, BatchPolicy::Fixed(2))
    }

    /// The pool a run starts `cfg`'s master with.
    fn fresh(cfg: &MasterStart) -> MasterPool {
        MasterPool::new(cfg.site, LOW_WATERMARK)
    }

    fn master(site: SiteId, leg: Duration, heartbeat: Option<HeartbeatConfig>) -> MasterStart {
        MasterStart {
            site,
            floor: 2,
            leg,
            heartbeat,
            chaos: None,
            cancel: None,
            epoch: Instant::now(),
            telemetry: Telemetry::off(),
        }
    }

    /// One site: a master on `uplink` and a slave that takes up to `limit`
    /// jobs one at a time, reports each complete (waiting for the verdict
    /// when `acked`, else with its next request) and leaves. Returns the
    /// master's outcome and the jobs taken.
    fn site(
        uplink: Uplink,
        cfg: &MasterStart,
        limit: usize,
        acked: bool,
    ) -> (io::Result<MasterPool>, usize) {
        let (tx, rx) = unbounded::<MasterMsg>();
        std::thread::scope(|scope| {
            let replies = tx.clone();
            let master =
                scope.spawn(move || run_site_master(cfg, fresh(cfg), rx, replies, &uplink));
            let mut taken = 0;
            let mut done = Vec::new();
            while taken < limit {
                let rrx = ask(&tx, 1, std::mem::take(&mut done));
                let Ok(Some((Take::Jobs(jobs), _))) = rrx.recv() else { break };
                let job = jobs[0].chunk.id;
                taken += 1;
                if acked {
                    let (atx, arx) = bounded(1);
                    let reply = Verdicts::new(&atx, 1);
                    tx.send(MasterMsg::Complete { jobs: vec![job], reply }).unwrap();
                    assert_eq!(arx.recv().unwrap(), Some(true), "a first completion merges");
                } else {
                    done.push(job);
                }
            }
            let _ = tx.send(MasterMsg::Done { jobs: done });
            let _ = tx.send(MasterMsg::SlavesGone);
            (master.join().unwrap(), taken)
        })
    }

    /// The two links a master reaches its head by.
    #[derive(Debug, Clone, Copy)]
    enum Link {
        Socket,
        Mailbox,
    }

    /// A head for `sites` sites over `link` and the uplink to it: the
    /// reactor on a loopback listener, or [`run_head`] over a mailbox.
    fn head_on(
        link: Link,
        pool: JobPool,
        sites: usize,
        options: HeadOptions,
    ) -> (Uplink, Box<dyn FnOnce() -> HeadReport + Send>) {
        match link {
            Link::Socket => {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let uplink = Uplink::Connect(listener.local_addr().unwrap());
                let serve = move || serve_head_with(&listener, pool, sites, &options).unwrap();
                (uplink, Box::new(serve))
            }
            Link::Mailbox => {
                let (tx, rx) = unbounded();
                let serve = move || run_head(pool, rx, sites, None, &options);
                (Uplink::Mailbox(tx), Box::new(serve))
            }
        }
    }

    #[test]
    fn slaves_hanging_up_at_any_point_get_every_undispatched_grant_handed_back() {
        // Fault tolerance off: no reaper, so a single grant stranded at a
        // master that left would keep the other site polling forever. With a
        // link latency there are requests on the link and grants travelling
        // back whenever the slave leaves.
        const CHUNKS: u64 = 40;
        for link in [Link::Socket, Link::Mailbox] {
            for leg in [Duration::ZERO, Duration::from_millis(2)] {
                for limit in [0, 1, 2, 3, 5, 9, 17] {
                    let (uplink, head) = head_on(link, pool(CHUNKS), 2, HeadOptions::default());
                    let (quitter, finisher) =
                        (master(SiteId::LOCAL, leg, None), master(SiteId::CLOUD, leg, None));
                    let (left, stayed, head) = std::thread::scope(|scope| {
                        let head = scope.spawn(head);
                        let to_head = uplink.clone();
                        let left = scope.spawn(|| site(to_head, &quitter, limit, false));
                        let stayed = site(uplink, &finisher, usize::MAX, false);
                        (left.join().unwrap(), stayed, head.join().unwrap())
                    });
                    let what = format!("{link:?} link, leg {leg:?}, leaving after {limit}");
                    let (ledger, taken) = (left.0.unwrap().ledger(), left.1);
                    // (Fewer than `limit` only if the other site drained the pool.)
                    assert!(taken <= limit, "{what}");
                    assert_eq!(ledger.dispatched, taken as u64, "{what}");
                    assert_eq!(
                        ledger.granted,
                        ledger.dispatched + ledger.returned,
                        "{what}: {ledger:?}"
                    );
                    assert_eq!(
                        ledger.queued + ledger.in_flight + ledger.dropped,
                        0,
                        "{what}: {ledger:?}"
                    );
                    assert!(stayed.0.unwrap().ledger().balanced(), "{what}");
                    assert_eq!(taken + stayed.1, CHUNKS as usize, "{what}");
                    assert_eq!(head.completions, CHUNKS, "{what}");
                    assert_eq!(
                        head.failures, ledger.returned,
                        "{what}: one failure per job handed back"
                    );
                    assert_eq!(head.abandoned, 0, "{what}");
                }
            }
        }
    }

    #[test]
    fn heartbeats_and_verdicts_flow_while_requests_are_away() {
        // A master 0.2 s from its head beaconing every 10 ms, and a head
        // that declares it dead after 0.3 s of silence — less than one round
        // trip. Every grant and every verdict the slave waits on spends
        // 0.4 s on the two legs; a master that slept them out would be
        // evacuated during the first.
        let heartbeat = Some(HeartbeatConfig { interval: 0.01, timeout: 0.3 });
        let cfg = master(SiteId::LOCAL, Duration::from_millis(200), heartbeat);
        let options = HeadOptions { heartbeat, ft_active: true, ..HeadOptions::default() };
        let (uplink, head) = head_on(Link::Socket, pool(3), 1, options);
        let (master, head) = std::thread::scope(|scope| {
            let head = scope.spawn(head);
            (site(uplink, &cfg, usize::MAX, true), head.join().unwrap())
        });
        assert_eq!(master.1, 3);
        assert!(master.0.unwrap().ledger().balanced());
        assert!(head.dead_sites.is_empty(), "a healthy site was evacuated: {head:?}");
        assert_eq!(head.completions, 3);
        assert_eq!(head.faults.evacuated_jobs, 0);
    }

    #[test]
    fn a_head_that_only_speaks_wire_v1_is_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let cfg = master(SiteId::LOCAL, Duration::ZERO, None);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let (mut conn, _) = listener.accept().unwrap();
                let mut hello = [0u8; 7];
                conn.read_exact(&mut hello).unwrap();
                let mut ack = Vec::new();
                put_hello_ack(&mut ack, 1);
                conn.write_all(&ack).unwrap();
            });
            let (outcome, taken) = site(Uplink::Connect(addr), &cfg, 1, false);
            assert_eq!(outcome.unwrap_err().kind(), io::ErrorKind::Unsupported);
            assert_eq!(taken, 0, "no master, no job");
        });
    }

    /// A head played by the test, in-process: the master's mailbox from its
    /// `Connect`, then every message as it comes but the grants it hands
    /// back to be built again in.
    struct ScriptedHead {
        rx: Receiver<HeadMsg>,
        master: Option<Sender<MasterMsg>>,
    }

    impl ScriptedHead {
        /// The next message within `wait`, taking the master's mailbox from a
        /// `Connect` on the way.
        fn next(&mut self, wait: Duration) -> Option<HeadMsg> {
            loop {
                match self.rx.recv_timeout(wait).ok()? {
                    HeadMsg::Connect { mailbox, .. } => self.master = Some(mailbox),
                    HeadMsg::Spare(_) => {}
                    msg => return Some(msg),
                }
            }
        }

        /// Answer an `AckBatch` of `entries` reports with `grant`.
        fn answer(&self, entries: usize, grant: JobBatch) {
            let reply = BatchReply { verdicts: vec![true; entries], revoked: Vec::new(), grant };
            let master = self.master.as_ref().expect("the master connected first");
            let _ = master.send(MasterMsg::HeadReply(reply));
        }

        /// Answer every frame with nothing more to do until the master says
        /// goodbye; the frames it sent meanwhile.
        fn until_bye(&mut self) -> Vec<Frame> {
            let mut frames = Vec::new();
            while let Some(msg) = self.next(Duration::from_secs(5)) {
                let HeadMsg::Frame { frame, .. } = msg else { continue };
                if let Frame::AckBatch { entries, .. } = &frame {
                    self.answer(entries.len(), JobBatch::empty(true));
                }
                let bye = frame == Frame::Legacy(MasterToHead::Bye);
                frames.push(frame);
                if bye {
                    break;
                }
            }
            frames
        }
    }

    /// A master of `cfg` on a mailbox link to a head the test plays.
    fn scripted<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        cfg: MasterStart,
    ) -> (Sender<MasterMsg>, ScriptedHead) {
        let (master_tx, master_rx) = unbounded::<MasterMsg>();
        let (head_tx, head_rx) = unbounded::<HeadMsg>();
        let replies = master_tx.clone();
        scope.spawn(move || {
            run_site_master(&cfg, fresh(&cfg), master_rx, replies, &Uplink::Mailbox(head_tx))
        });
        (master_tx, ScriptedHead { rx: head_rx, master: None })
    }

    /// A slave's request for `want` jobs, carrying `done`; its answer comes
    /// on the receiver — `None` when the master let it go unanswered.
    fn ask(
        master: &Sender<MasterMsg>,
        want: usize,
        done: Vec<ChunkId>,
    ) -> Receiver<Option<Answer>> {
        let (to, answer) = bounded(1);
        let reply = Reply::new(&to);
        let _ = master.send(MasterMsg::GetJobs { want, done, buf: Vec::new(), reply });
        answer
    }

    /// A slave's request for one job.
    fn ask_one(master: &Sender<MasterMsg>) -> Receiver<Option<Answer>> {
        ask(master, 1, Vec::new())
    }

    /// What the master answered the request `answer` stands for.
    fn taken(answer: &Receiver<Option<Answer>>) -> Take {
        answer.recv().unwrap().expect("the master answered").0
    }

    fn ack_batch(msg: Option<HeadMsg>) -> (u16, usize) {
        match msg {
            Some(HeadMsg::Frame { frame: Frame::AckBatch { want, entries, .. }, .. }) => {
                (want, entries.len())
            }
            _ => panic!("expected an AckBatch frame"),
        }
    }

    #[test]
    fn a_slave_the_queue_can_serve_is_answered_while_the_head_sits_on_a_grant_request() {
        // The head answers the first request with three jobs and sits on the
        // second. Two slaves take one job each, which brings the queue down
        // to the watermark and sends the second request; the third slave's
        // job is in the queue all along. A master that waits for the head's
        // answer before it reads its mailbox again leaves that slave waiting
        // for as long as the head takes.
        let mut jobs = pool(16);
        std::thread::scope(|scope| {
            let (master, mut head) = scripted(scope, master(SiteId::LOCAL, Duration::ZERO, None));
            let first = ask_one(&master);
            let (want, entries) = ack_batch(head.next(Duration::from_secs(5)));
            assert!(want > 0);
            head.answer(entries, jobs.grant(SiteId::LOCAL, 3, 0.0));
            assert!(matches!(taken(&first), Take::Jobs(j) if j.len() == 1));
            assert!(matches!(taken(&ask_one(&master)), Take::Jobs(j) if j.len() == 1));
            let (want, entries) = ack_batch(head.next(Duration::from_secs(5)));
            assert!(want > 0, "the queue is at its watermark: the master asks again");
            let third = ask_one(&master).recv_timeout(Duration::from_secs(2));
            assert!(
                matches!(third, Ok(Some((Take::Jobs(ref j), _))) if j.len() == 1),
                "a queued job waited on the head's answer to another request: {third:?}"
            );
            head.answer(entries, JobBatch::empty(true));
            assert_eq!(taken(&ask_one(&master)), Take::Drained);
            master.send(MasterMsg::SlavesGone).unwrap();
            head.until_bye();
        });
    }

    #[test]
    fn a_master_of_one_job_hand_offs_asks_without_the_slack_hand_off() {
        // One slave, so the floor is two hand-offs: the slave's slot and the
        // slack. A slave that takes several jobs per hand-off gets both; one
        // that takes a single job gets the slot alone, since one more long
        // job queued is tail another site could have run. (The window adds
        // the one job of the watermark.)
        for (want, asked) in [(1, 2), (4, 9)] {
            std::thread::scope(|scope| {
                let cfg = master(SiteId::LOCAL, Duration::ZERO, None);
                let (master, mut head) = scripted(scope, cfg);
                let answer = ask(&master, want, Vec::new());
                let (ask, entries) = ack_batch(head.next(Duration::from_secs(5)));
                assert_eq!(usize::from(ask), asked, "a slave taking {want} per hand-off");
                head.answer(entries, JobBatch::empty(true));
                assert_eq!(taken(&answer), Take::Drained);
                master.send(MasterMsg::SlavesGone).unwrap();
                head.until_bye();
            });
        }
    }

    #[test]
    fn slaves_that_asked_while_the_master_was_at_the_head_were_waiting_not_coming_back() {
        // Three slaves ask at once; the head takes 2 ms to answer. All three
        // waited for that grant. A master that serves the first from it and
        // only then reads the second's request takes the microsecond between
        // the two for its slaves' pace, divides the 2 ms round trip by it, and
        // asks for a thousand jobs' worth of batches nobody is there to run.
        let mut jobs = JobPool::from_index(
            &DataIndex::build(
                4096,
                LayoutParams { unit_size: 4, units_per_chunk: 4, n_files: 1 },
                |_| SiteId::LOCAL,
            )
            .unwrap(),
            BatchPolicy::Fixed(8),
        );
        std::thread::scope(|scope| {
            let mut cfg = master(SiteId::LOCAL, Duration::ZERO, None);
            cfg.floor = 0;
            let (master, mut head) = scripted(scope, cfg);
            let mut hungry: Vec<_> = (0..3).map(|_| ask_one(&master)).collect();
            let mut requests = 0;
            while !hungry.is_empty() {
                match head.next(Duration::from_millis(5)) {
                    Some(HeadMsg::Frame {
                        frame: Frame::AckBatch { want, entries, .. }, ..
                    }) => {
                        requests += usize::from(want > 0);
                        std::thread::sleep(Duration::from_millis(2));
                        let grant = if want > 0 {
                            jobs.grant(SiteId::LOCAL, 8, 0.0)
                        } else {
                            JobBatch::empty(false)
                        };
                        head.answer(entries.len(), grant);
                    }
                    Some(_) => {}
                    // Quiet: once every slave has its job, they all hang up.
                    None => hungry.retain(|slave| slave.try_recv().is_err()),
                }
            }
            master.send(MasterMsg::SlavesGone).unwrap();
            let rest = head.until_bye();
            let asked =
                rest.iter().filter(|f| matches!(f, Frame::AckBatch { want, .. } if *want > 0));
            assert_eq!(
                requests + asked.count(),
                1,
                "one batch of eight covers three slaves asking for one job each"
            );
        });
    }

    #[test]
    fn master_keeps_beaconing_while_its_grant_requests_are_away() {
        // A master 0.25 s from its head, beaconing every 10 ms. One slave
        // asks for a job: the request takes a quarter second to reach the
        // head and the grant as long to come back. Through all of it the
        // head must keep hearing from the master — a master that sleeps out
        // the legs is silent for their length, and a heartbeat timeout
        // shorter than a round trip then evacuates a healthy site.
        let leg = 0.25;
        let mut batch = pool(128).grant(SiteId::CLOUD, 2, 0.0);
        batch.stolen = true;
        let heartbeat = Some(HeartbeatConfig { interval: 0.01, timeout: 0.3 });
        let cfg = master(SiteId::CLOUD, Duration::from_secs_f64(leg), heartbeat);
        std::thread::scope(|scope| {
            let (master, mut head) = scripted(scope, cfg);
            let slave = ask_one(&master);
            // The head: answer the first request, note when each message
            // arrives, stop once the slave has its job.
            let mut last = Instant::now();
            let mut longest_silence = Duration::ZERO;
            let mut grant = Some(batch);
            while let Some(msg) = head.next(Duration::from_secs(5)) {
                longest_silence = longest_silence.max(last.elapsed());
                last = Instant::now();
                if let HeadMsg::Frame { frame: Frame::AckBatch { entries, .. }, .. } = msg {
                    head.answer(entries.len(), grant.take().unwrap_or(JobBatch::empty(false)));
                }
                if let Ok(Some((take, _))) = slave.try_recv() {
                    assert!(matches!(take, Take::Jobs(jobs) if jobs.len() == 1 && jobs[0].stolen));
                    break;
                }
            }
            master.send(MasterMsg::SlavesGone).unwrap(); // the master says goodbye
            assert!(
                longest_silence.as_secs_f64() < leg,
                "the head heard nothing for {longest_silence:?} of a {leg} s leg"
            );
            // Shutdown hands the second granted job back, as a failure in a
            // frame that asks for nothing, then the goodbye.
            let rest = head.until_bye();
            let failed: Vec<_> = (rest.iter())
                .flat_map(|f| match f {
                    Frame::AckBatch { site: SiteId::CLOUD, want: 0, entries } => entries.as_slice(),
                    _ => &[],
                })
                .filter(|e| !e.ok)
                .collect();
            assert_eq!(failed.len(), 1, "the undispatched job of the batch goes back to the head");
            assert_eq!(rest.last(), Some(&Frame::Legacy(MasterToHead::Bye)));
        });
    }

    #[test]
    fn a_request_in_the_mailbox_of_a_master_that_is_gone_fails_at_once() {
        // The slave's request is in the mailbox before the master looks, and
        // the master's site is dead from the first instant: it leaves
        // without reading its mail. Other holders of the mailbox's sending
        // end are still around (here: this test, and the head it connected
        // to), so only the master letting go of the mailbox — and of what
        // is in it — tells the slave.
        let (master_tx, master_rx) = unbounded::<MasterMsg>();
        let (head_tx, _head_rx) = unbounded::<HeadMsg>();
        let slave = ask_one(&master_tx);
        let plan = FaultPlan {
            site_outage: Some(SiteOutage { site: SiteId::CLOUD, at: 0.0 }),
            ..FaultPlan::seeded(1)
        };
        let cfg = MasterStart {
            chaos: Some(Arc::new(plan)),
            ..master(SiteId::CLOUD, Duration::ZERO, None)
        };
        let gone = run_site_master(
            &cfg,
            fresh(&cfg),
            master_rx,
            master_tx.clone(),
            &Uplink::Mailbox(head_tx),
        );
        assert!(gone.is_ok(), "a dead site's master is not the run's error");
        assert_eq!(
            slave.recv_timeout(Duration::from_secs(1)),
            Ok(None),
            "the slave must learn that nobody will answer"
        );
        let (to, _answer) = bounded(1);
        let reply = Reply::new(&to);
        let late = MasterMsg::GetJobs { want: 1, done: Vec::new(), buf: Vec::new(), reply };
        assert!(master_tx.send(late).is_err(), "a later request has nowhere to go");
    }
}
