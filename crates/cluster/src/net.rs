//! TCP deployment mode: the head ↔ master control plane over real sockets.
//!
//! The in-process runtime wires Fig. 2's node roles with channels; this
//! module runs the same protocol over TCP using the [`crate::wire`] codec,
//! so job assignment, work stealing, completion reporting and the terminal
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

use crate::error::RunError;
use crate::protocol::MasterMsg;
pub use crate::reactor::{serve_head, serve_head_with};
use crate::runtime::{
    mailbox_tick, run_on, MasterStart, Parked, RunOutcome, RuntimeConfig, Transport, LOW_WATERMARK,
};
use crate::wire::{
    put_ack_batch, put_to_head, read_batch_reply, read_hello_ack, write_hello, AckEntry,
    BatchReply, MasterToHead, WIRE_VERSION,
};
use cloudburst_core::{
    ns_since, ChunkId, DataIndex, Event, EventKind, MasterPool, Reduction, RequestId, SiteId, Take,
};
use cloudburst_storage::ChunkStore;
use crossbeam::channel::{Receiver, Sender};
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

/// Per report of a frame, the slave waiting for the head's verdict on it.
type Waiters = Vec<Option<Sender<bool>>>;

/// An `AckBatch` travelling the outbound leg.
struct Outbound {
    due: Instant,
    /// The grant request it carries, if any (else `want` is 0).
    request: Option<RequestId>,
    want: u16,
    entries: Vec<AckEntry>,
    acks: Waiters,
}

/// Completion and failure reports no frame carries yet.
#[derive(Default)]
struct Reports {
    entries: Vec<AckEntry>,
    acks: Waiters,
    /// Since when the oldest has waited.
    since: Option<Instant>,
}

impl Reports {
    fn push(&mut self, job: ChunkId, ok: bool, ack: Option<Sender<bool>>, now: Instant) {
        self.entries.push(AckEntry { job, ok });
        self.acks.push(ack);
        self.since.get_or_insert(now);
    }

    /// Completions nobody waits on.
    fn done(&mut self, jobs: Vec<ChunkId>, now: Instant) {
        for job in jobs {
            self.push(job, true, None, now);
        }
    }

    /// Cut a frame due at `due`: up to [`REPORT_FLUSH`] of the reports,
    /// oldest first, with `request` asking for `want` jobs.
    fn frame(&mut self, request: Option<RequestId>, want: usize, due: Instant) -> Outbound {
        let n = self.entries.len().min(REPORT_FLUSH);
        if n == self.entries.len() {
            self.since = None;
        }
        Outbound {
            due,
            request,
            want: want.min(usize::from(u16::MAX)) as u16,
            entries: self.entries.drain(..n).collect(),
            acks: self.acks.drain(..n).collect(),
        }
    }
}

/// A `BatchReply` travelling the return leg. Its grant is already with the
/// pool ([`MasterPool::granted`]); verdicts and revocations wait here.
struct Inbound {
    due: Instant,
    request: Option<RequestId>,
    verdicts: Vec<(Sender<bool>, bool)>,
    revoked: Vec<ChunkId>,
}

/// The master side of the control connection plus the local slave-facing
/// loop: a non-blocking adapter over [`MasterPool`], shaped like the channel
/// runtime's master. Slaves are served from the site pool the moment they
/// ask; the window rule decides when to ask the head for more and
/// [`MasterPool::ask`] how much; every exchange is an `AckBatch` out and a
/// `BatchReply` back, several may be in flight (replies come back in order,
/// decoded by a reader thread into this master's one mailbox), and each leg
/// of modelled link latency is a delay queue rather than a sleep.
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
/// Returns the pool for its ledger. A chaos-revoked site dies
/// mid-conversation by design; its broken socket is the failure signal the
/// head is meant to see, not an error of this process.
pub(crate) fn run_tcp_master(
    cfg: &MasterStart,
    rx: Receiver<MasterMsg>,
    tx: Sender<MasterMsg>,
    stream: TcpStream,
) -> io::Result<MasterPool> {
    let mut pool = MasterPool::new(cfg.site, LOW_WATERMARK);
    let result = connect_and_serve(cfg, &rx, tx, stream, &mut pool);
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
    std::thread::scope(|scope| {
        scope.spawn(move || loop {
            let msg = read_batch_reply(&mut reader)
                .map_or_else(MasterMsg::HeadGone, MasterMsg::HeadReply);
            let last = matches!(msg, MasterMsg::HeadGone(_));
            if tx.send(msg).is_err() || last {
                break;
            }
        });
        // Dropped when this closure ends, however it ends — which is what
        // lets the scope join the reader.
        let _hang_up = hang_up;
        serve_site(cfg, rx, &mut writer, pool)
    })
}

/// The master loop proper (see [`run_tcp_master`]).
fn serve_site(
    cfg: &MasterStart,
    rx: &Receiver<MasterMsg>,
    writer: &mut impl Write,
    pool: &mut MasterPool,
) -> io::Result<()> {
    let site = cfg.site;
    let tick = mailbox_tick(cfg.heartbeat);
    let secs = |at: Instant| at.saturating_duration_since(cfg.epoch).as_secs_f64();
    let mut reports = Reports::default();
    let mut outbound: VecDeque<Outbound> = VecDeque::new();
    // Frames on the wire, oldest first: the request each carries and the
    // slaves its verdicts go to.
    let mut sent: VecDeque<(Option<RequestId>, Waiters)> = VecDeque::new();
    let mut inbound: VecDeque<Inbound> = VecDeque::new();
    // Slaves that found the pool empty, oldest first.
    let mut parked: VecDeque<Parked> = VecDeque::new();
    // Encoded frames not yet written; any of them doubles as a liveness
    // beacon, explicit pings cover idle stretches.
    let mut wbuf: Vec<u8> = Vec::new();
    let mut last_sent = Instant::now();
    let mut slaves_gone = false;
    // What a slave takes per hand-off, as of the last request: the floor is
    // counted in these, so a request tops the pool up by hand-offs' worth and
    // not by the few jobs a single dispatch just took.
    let mut quantum = 1;

    while !slaves_gone {
        if cfg.site_dead() {
            // Simulated spot revocation: vanish without a Bye. The dropped
            // socket is the head's cue to evacuate this site.
            return Ok(());
        }
        let now = Instant::now();
        if cfg.heartbeat.is_some_and(|hb| (now - last_sent).as_secs_f64() >= hb.interval) {
            put_to_head(&mut wbuf, &MasterToHead::Ping { site });
            cfg.telemetry.emit(Event::at(ns_since(cfg.epoch), EventKind::Heartbeat).site(site));
        }
        while inbound.front().is_some_and(|r| r.due <= now) {
            let reply = inbound.pop_front().expect("front was checked");
            for (ack, verdict) in reply.verdicts {
                let _ = ack.send(verdict);
            }
            // Fencing: every undelivered job the head revoked dies here,
            // before the refill can resurrect a fresh copy of the same chunk.
            pool.drop_revoked(&reply.revoked);
            if let Some(id) = reply.request {
                cfg.metrics.grant_rtt.observe_secs(pool.land(id, secs(now)));
            }
        }
        while let Some((reply, want, since)) = parked.front() {
            match pool.serve_parked(secs(now), *want) {
                Take::NeedRefill => break,
                take => {
                    cfg.metrics.starved.add(since.elapsed().as_nanos() as u64);
                    cfg.metrics.answer(reply, take);
                    parked.pop_front();
                }
            }
        }
        // Requests go out after the slaves were answered, so a slave is
        // already fetching while its master talks to the head.
        while let Some(id) = pool.next_request(secs(now)) {
            let want = pool.ask(id, cfg.floor * quantum);
            outbound.push_back(reports.frame(Some(id), want, now + cfg.leg));
        }
        cfg.metrics.window.set(pool.window() as i64);
        let flush = reports.acks.iter().any(Option::is_some)
            || pool.is_drained()
            || reports.since.is_some_and(|since| now - since >= tick);
        while reports.entries.len() >= REPORT_FLUSH || (flush && !reports.entries.is_empty()) {
            outbound.push_back(reports.frame(None, 0, now + cfg.leg));
        }
        while outbound.front().is_some_and(|f| f.due <= now) {
            let f = outbound.pop_front().expect("front was checked");
            put_ack_batch(&mut wbuf, site, f.want, &f.entries);
            sent.push_back((f.request, f.acks));
        }
        if !wbuf.is_empty() {
            writer.write_all(&wbuf)?;
            wbuf.clear();
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
        // reports shares a frame.
        let mut next = rx.recv_timeout(timeout).ok();
        let now = Instant::now();
        while let Some(msg) = next {
            match msg {
                MasterMsg::GetJobs { want, done, reply } => {
                    quantum = want;
                    reports.done(done, now);
                    match pool.arrive(secs(now), want) {
                        Take::NeedRefill => parked.push_back((reply, want, now)),
                        take => cfg.metrics.answer(&reply, take),
                    }
                }
                MasterMsg::Complete { jobs, reply } => {
                    for job in jobs {
                        reports.push(job, true, Some(reply.clone()), now);
                    }
                }
                MasterMsg::Done { jobs } => reports.done(jobs, now),
                MasterMsg::Failed { job } => reports.push(job, false, None, now),
                MasterMsg::HeadReply(reply) => {
                    let (request, acks) = sent.pop_front().ok_or_else(|| unasked("reply"))?;
                    inbound.push_back(receive(pool, reply, request, acks, now + cfg.leg)?);
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
    // leg never reached the head and are forgotten), wait for the head's
    // answer to every frame on the wire — it may still be granting jobs to
    // this master — and only then hand back the queue and every grant that
    // was travelling, as failures, before the orderly goodbye.
    let mut entries: Vec<AckEntry> = outbound.into_iter().flat_map(|f| f.entries).collect();
    entries.append(&mut reports.entries);
    for chunk in entries.chunks(REPORT_FLUSH) {
        put_ack_batch(&mut wbuf, site, 0, chunk);
        sent.push_back((None, vec![None; chunk.len()])); // nobody is left to tell
    }
    writer.write_all(&wbuf)?;
    wbuf.clear();
    while !sent.is_empty() {
        match rx.recv() {
            Ok(MasterMsg::HeadReply(reply)) => {
                let (request, acks) = sent.pop_front().expect("checked non-empty");
                receive(pool, reply, request, acks, Instant::now())?;
            }
            Ok(MasterMsg::HeadGone(e)) => return Err(e),
            Ok(_) => {}
            Err(_) => return Err(io::Error::new(io::ErrorKind::BrokenPipe, "socket reader gone")),
        }
    }
    for job in pool.close() {
        put_to_head(&mut wbuf, &MasterToHead::Failed { job: job.chunk.id, site });
    }
    put_to_head(&mut wbuf, &MasterToHead::Bye);
    writer.write_all(&wbuf)?;
    writer.flush()
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
    acks: Waiters,
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
    let verdicts =
        acks.into_iter().zip(reply.verdicts).filter_map(|(a, v)| Some((a?, v))).collect();
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
    use crate::head::HeadOptions;
    use crate::runtime::MasterMetrics;
    use crate::wire::put_hello_ack;
    use cloudburst_core::{BatchPolicy, HeartbeatConfig, JobPool, LayoutParams, Telemetry};
    use crossbeam::channel::{bounded, unbounded};
    use std::io::Read;
    use std::net::{SocketAddr, TcpListener};

    fn pool(n_chunks: u64) -> JobPool {
        let params = LayoutParams { unit_size: 1, units_per_chunk: 2, n_files: 2 };
        let idx = DataIndex::build(n_chunks * 2, params, |_| SiteId::LOCAL).unwrap();
        JobPool::from_index(&idx, BatchPolicy::Fixed(2))
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
            metrics: MasterMetrics::default(),
        }
    }

    /// One site: a master on `addr` and a slave that takes up to `limit`
    /// jobs one at a time, reports each complete (waiting for the verdict
    /// when `acked`, else with its next request) and leaves. Returns the
    /// master's outcome and the jobs taken.
    fn site(
        addr: SocketAddr,
        cfg: &MasterStart,
        limit: usize,
        acked: bool,
    ) -> (io::Result<MasterPool>, usize) {
        let (tx, rx) = unbounded::<MasterMsg>();
        let stream = TcpStream::connect(addr).unwrap();
        std::thread::scope(|scope| {
            let reader_tx = tx.clone();
            let master = scope.spawn(move || run_tcp_master(cfg, rx, reader_tx, stream));
            let mut taken = 0;
            let mut done = Vec::new();
            while taken < limit {
                let (rtx, rrx) = bounded(1);
                let request =
                    MasterMsg::GetJobs { want: 1, done: std::mem::take(&mut done), reply: rtx };
                if tx.send(request).is_err() {
                    break;
                }
                let Ok(Take::Jobs(jobs)) = rrx.recv() else { break };
                let job = jobs[0].chunk.id;
                taken += 1;
                if acked {
                    let (atx, arx) = bounded(1);
                    tx.send(MasterMsg::Complete { jobs: vec![job], reply: atx }).unwrap();
                    assert!(arx.recv().unwrap(), "a first completion merges");
                } else {
                    done.push(job);
                }
            }
            let _ = tx.send(MasterMsg::Done { jobs: done });
            let _ = tx.send(MasterMsg::SlavesGone);
            (master.join().unwrap(), taken)
        })
    }

    #[test]
    fn slaves_hanging_up_at_any_point_get_every_undispatched_grant_handed_back() {
        // Fault tolerance off: no reaper, so a single grant stranded at a
        // master that left would keep the other site polling forever. With a
        // link latency there are requests on the wire and grants travelling
        // back whenever the slave leaves.
        const CHUNKS: u64 = 40;
        for leg in [Duration::ZERO, Duration::from_millis(2)] {
            for limit in [0, 1, 2, 3, 5, 9, 17] {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = listener.local_addr().unwrap();
                let (quitter, finisher) =
                    (master(SiteId::LOCAL, leg, None), master(SiteId::CLOUD, leg, None));
                let (left, stayed, head) = std::thread::scope(|scope| {
                    let head = scope.spawn(|| serve_head(&listener, pool(CHUNKS), 2));
                    let left = scope.spawn(|| site(addr, &quitter, limit, false));
                    let stayed = site(addr, &finisher, usize::MAX, false);
                    (left.join().unwrap(), stayed, head.join().unwrap().unwrap())
                });
                let what = format!("leg {leg:?}, leaving after {limit}");
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

    #[test]
    fn heartbeats_and_verdicts_flow_while_requests_are_away() {
        // A master 0.2 s from its head beaconing every 10 ms, and a head
        // that declares it dead after 0.3 s of silence — less than one round
        // trip. Every grant and every verdict the slave waits on spends
        // 0.4 s on the two legs; a master that slept them out would be
        // evacuated during the first.
        let heartbeat = Some(HeartbeatConfig { interval: 0.01, timeout: 0.3 });
        let cfg = master(SiteId::LOCAL, Duration::from_millis(200), heartbeat);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let options = HeadOptions { heartbeat, ft_active: true, ..HeadOptions::default() };
        let (master, head) = std::thread::scope(|scope| {
            let head = scope.spawn(|| serve_head_with(&listener, pool(3), 1, &options));
            (site(addr, &cfg, usize::MAX, true), head.join().unwrap().unwrap())
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
            let (outcome, taken) = site(addr, &cfg, 1, false);
            assert_eq!(outcome.unwrap_err().kind(), io::ErrorKind::Unsupported);
            assert_eq!(taken, 0, "no master, no job");
        });
    }
}
