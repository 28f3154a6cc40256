//! The head as a single-threaded poll reactor: thousands of master
//! connections without thousands of OS threads.
//!
//! The classic TCP head spawned one thread per connection — fine for the
//! paper's two sites, fatal for a scale bench hosting thousands of
//! simulated slaves. This module serves every connection from one thread:
//! non-blocking sockets, a per-connection read buffer fed into the
//! incremental [`try_read_frame`] decoder, and a write buffer drained as the
//! socket accepts it (partial writes tracked by offset). The house rule is
//! *no async runtime*, so the thread blocks in `poll(2)` ([`crate::readiness`])
//! over the listener and every connection — write interest only while a
//! reply is buffered — until a socket is ready or the next timer (lease
//! reap, heartbeat deadline) is due, and touches only the connections the
//! wait reported: an idle head costs nothing and a sweep is O(ready).
//!
//! Job grants go through [`ShardedPool`]: v1 `Request` frames take the
//! legacy policy path, v2 `GetJobs`/`AckBatch` frames take the lock-free
//! sharded batch path. All fault-tolerance semantics of the threaded head
//! hold unchanged — the lease reaper runs inline on a timer tick, a
//! connection silent past the heartbeat timeout (or gone without `Bye`)
//! gets its site evacuated, and every revoked lease is routed back to the
//! owning site's next [`BatchReply`] so the master fences the whole
//! undelivered remainder of its batch.
//!
//! Connection state is reclaimed on every exit path (Bye, EOF, timeout,
//! error): the per-connection buffers drop with the `Conn`, and the head
//! report's `conns_opened`/`conns_reclaimed` counters prove it — a churn
//! test cycles hundreds of connects and asserts the two stay equal.

use crate::net::TcpHeadOptions;
use crate::protocol::HeadReport;
use crate::readiness::{self, PollFd, READABLE, WRITABLE};
use crate::wire::{
    put_ack, put_batch_reply, put_grant, put_hello_ack, try_read_frame, BatchReply, Frame,
    MasterToHead, WIRE_VERSION,
};
use bytes::BytesMut;
use cloudburst_core::{ChunkId, Completion, JobBatch, JobPool, ShardedPool, SiteId};
use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Lease-reap cadence (matches the threaded head's reaper thread).
const REAP_EVERY: Duration = Duration::from_millis(1);

/// One master connection's entire state. Dropping it reclaims everything —
/// there is no side table to leak from.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet decoded (partial frames included).
    rbuf: BytesMut,
    /// Encoded replies not yet written; `wpos` marks the flushed prefix.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Learned from the first site-bearing frame; where evacuation goes.
    site: Option<SiteId>,
    last_heard: Instant,
    said_bye: bool,
    closed: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: BytesMut::with_capacity(1024),
            wbuf: Vec::new(),
            wpos: 0,
            site: None,
            last_heard: Instant::now(),
            said_bye: false,
            closed: false,
        }
    }
}

/// Revocation notices not yet delivered, keyed by the site that must drop
/// the jobs. Fed by the lease reaper and by speculative preemptions;
/// drained into each site's next `BatchReply`. Re-granting a job to a site
/// clears its stale notice (same rule as the channel head's cancel board).
type Revocations = BTreeMap<SiteId, Vec<ChunkId>>;

/// Serve the head's control protocol to exactly `n_masters` connections
/// from one thread, then return the head's report (counts, faults and the
/// connection-churn accounting filled in; see
/// [`serve_head_with`](crate::net::serve_head_with) for the wrapper that
/// finishes report assembly).
pub(crate) fn serve_head_reactor(
    listener: &TcpListener,
    pool: JobPool,
    n_masters: usize,
    options: &TcpHeadOptions,
) -> io::Result<(JobPool, HeadReport)> {
    listener.set_nonblocking(true)?;
    let sharded = ShardedPool::new(pool);
    let mut report = HeadReport::default();
    let mut revocations: Revocations = BTreeMap::new();
    let mut conns: Vec<Conn> = Vec::new();
    // What the readiness wait watches: slot 0 is the listener, slot `i + 1`
    // belongs to `conns[i]`.
    let mut fds = vec![PollFd::listener(listener)];
    let mut accepted = 0usize;
    let mut first_err: Option<io::Error> = None;
    // The two timers. A connection's silence deadline only ever moves later,
    // so the earliest one seen at the last scan is a safe time to scan again.
    let mut next_reap = Instant::now() + REAP_EVERY;
    let silence = options.heartbeat.map(|hb| Duration::from_secs_f64(hb.timeout.max(0.0)));
    let mut next_silence_scan = silence.map(|limit| Instant::now() + limit);
    // Every connection reads through this one buffer.
    let mut scratch = [0u8; 16384];

    // Introspection instruments for the /debug/sites plane: connection churn
    // and how often the reactor thread wakes, resolved once so the loop pays
    // only relaxed stores (nothing at all with metrics off).
    let g_opened = options.metrics.gauge(
        "cloudburst_head_conns_opened_total",
        "Master connections accepted by the head reactor",
        &[],
    );
    let g_reclaimed = options.metrics.gauge(
        "cloudburst_head_conns_reclaimed_total",
        "Master connection states reclaimed by the head reactor",
        &[],
    );
    let c_wakeups = options.metrics.counter(
        "cloudburst_head_wakeups_total",
        "Returns of the head reactor's readiness wait: socket activity plus timer ticks",
        &[],
    );

    while accepted < n_masters || !conns.is_empty() {
        let timer = [options.ft_active.then_some(next_reap), next_silence_scan]
            .into_iter()
            .flatten()
            .min()
            .map(|due| due.saturating_duration_since(Instant::now()));
        let mut ready = readiness::wait(&mut fds, timer)?;
        c_wakeups.inc();
        let now = Instant::now();

        if fds[0].ready() {
            ready -= 1;
            while accepted < n_masters {
                match listener.accept() {
                    Ok((stream, _addr)) => {
                        stream.set_nodelay(true)?;
                        stream.set_nonblocking(true)?;
                        fds.push(PollFd::stream(&stream));
                        conns.push(Conn::new(stream));
                        accepted += 1;
                        report.conns_opened += 1;
                        g_opened.set(report.conns_opened as i64);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
            if accepted == n_masters {
                fds[0].ignore();
            }
        }

        if options.ft_active && now >= next_reap {
            for (job, site) in sharded.reap_expired(options.epoch.elapsed().as_secs_f64()) {
                revocations.entry(site).or_default().push(job);
            }
            next_reap = now + REAP_EVERY;
        }

        // A connection broke or fell silent: a site death to evacuate with
        // fault tolerance on, the run's error without.
        let mut lost = |conn: &mut Conn, e: io::Error| {
            conn.closed = true;
            if options.ft_active {
                if let Some(site) = conn.site {
                    sharded.evacuate(site);
                }
            } else {
                first_err.get_or_insert(e);
            }
        };
        // Dropping the `Conn` reclaims everything it held.
        let reclaim = |conns: &mut Vec<Conn>, fds: &mut Vec<PollFd>, i: usize| {
            conns.swap_remove(i);
            fds.swap_remove(i + 1);
        };

        // Only the connections the wait reported. Going backwards, a
        // reclaimed slot is refilled by a connection already visited (or one
        // accepted just now, which the wait did not see).
        for i in (0..conns.len()).rev() {
            if ready == 0 {
                break;
            }
            if !fds[i + 1].ready() {
                continue;
            }
            ready -= 1;
            let conn = &mut conns[i];
            if let Err(e) =
                pump(conn, &mut scratch, &sharded, options, &mut report, &mut revocations)
            {
                lost(conn, e);
            }
            if conn.closed {
                reclaim(&mut conns, &mut fds, i);
            } else {
                let unsent = conn.wpos < conn.wbuf.len();
                fds[i + 1].events = if unsent { READABLE | WRITABLE } else { READABLE };
            }
        }

        if let Some(limit) = silence.filter(|_| next_silence_scan.is_some_and(|at| at <= now)) {
            let mut earliest = now;
            for i in (0..conns.len()).rev() {
                let conn = &mut conns[i];
                if conn.said_bye {
                    continue; // leaving in good order, only its last reply to flush
                }
                if now.saturating_duration_since(conn.last_heard) >= limit {
                    lost(conn, io::Error::new(ErrorKind::TimedOut, "silent master"));
                    reclaim(&mut conns, &mut fds, i);
                } else {
                    earliest = earliest.min(conn.last_heard);
                }
            }
            next_silence_scan = Some(earliest + limit);
        }

        let reclaimed = report.conns_opened - conns.len() as u64;
        if reclaimed != report.conns_reclaimed {
            report.conns_reclaimed = reclaimed;
            g_reclaimed.set(reclaimed as i64);
        }
    }

    let pool = sharded.into_inner();
    if let Some(e) = first_err {
        return Err(e);
    }
    Ok((pool, report))
}

/// Serve one ready connection: flush pending writes, read what has arrived
/// (or the EOF) through `scratch`, decode and handle every complete frame,
/// flush again. Marks the connection closed on Bye-with-drained-writes
/// or EOF (evacuating an unclean exit when fault tolerance is on).
fn pump(
    conn: &mut Conn,
    scratch: &mut [u8],
    sharded: &ShardedPool,
    options: &TcpHeadOptions,
    report: &mut HeadReport,
    revocations: &mut Revocations,
) -> io::Result<()> {
    flush(conn)?;

    let mut eof = false;
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&scratch[..n]);
                conn.last_heard = Instant::now();
                if n < scratch.len() {
                    break; // drained; the wait reports whatever comes next
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }

    while !conn.said_bye {
        match try_read_frame(&mut conn.rbuf)? {
            Some(frame) => handle_frame(conn, frame, sharded, options, report, revocations),
            None => break,
        }
    }

    flush(conn)?;

    if conn.said_bye && conn.wpos == conn.wbuf.len() {
        conn.closed = true;
    }
    if eof && !conn.closed {
        // Peer hung up. Frames already buffered were handled above, so a
        // `Bye` racing the close is honored; anything less is a crash.
        conn.closed = true;
        if !conn.said_bye && options.ft_active {
            if let Some(site) = conn.site {
                sharded.evacuate(site);
            }
        }
    }
    Ok(())
}

/// Write as much of the pending output as the socket accepts right now.
fn flush(conn: &mut Conn) -> io::Result<()> {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err(io::Error::new(ErrorKind::WriteZero, "master hung up mid-reply")),
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    Ok(())
}

/// A freshly granted job is live again: drop any stale revocation notice
/// so the new owner's copy is not fenced by its predecessor's death.
fn clear_granted(revocations: &mut Revocations, site: SiteId, batch: &JobBatch) {
    if let Some(list) = revocations.get_mut(&site) {
        list.retain(|id| !batch.jobs.iter().any(|j| j.id == *id));
        if list.is_empty() {
            revocations.remove(&site);
        }
    }
}

fn handle_frame(
    conn: &mut Conn,
    frame: Frame,
    sharded: &ShardedPool,
    options: &TcpHeadOptions,
    report: &mut HeadReport,
    revocations: &mut Revocations,
) {
    let now = options.epoch.elapsed().as_secs_f64();
    match frame {
        Frame::Legacy(MasterToHead::Request { site }) => {
            conn.site = Some(site);
            report.requests += 1;
            let batch = sharded.request_for_at(site, now);
            clear_granted(revocations, site, &batch);
            put_grant(&mut conn.wbuf, &batch);
        }
        Frame::Legacy(MasterToHead::Complete { job, site, want_ack }) => {
            conn.site = Some(site);
            let outcome = sharded.complete_at(job, site, now);
            if let Completion::Merged { preempted } = &outcome {
                report.completions += 1;
                for &loser in preempted {
                    revocations.entry(loser).or_default().push(job);
                }
            }
            if want_ack {
                put_ack(&mut conn.wbuf, outcome.is_merged());
            }
        }
        Frame::Legacy(MasterToHead::Failed { job, site }) => {
            conn.site = Some(site);
            report.failures += 1;
            sharded.fail(job, site);
        }
        Frame::Legacy(MasterToHead::Ping { site }) => {
            conn.site = Some(site);
        }
        Frame::Legacy(MasterToHead::Bye) => {
            conn.said_bye = true;
        }
        Frame::Hello { site, version, credit: _ } => {
            conn.site = Some(site);
            put_hello_ack(&mut conn.wbuf, WIRE_VERSION.min(version));
        }
        Frame::GetJobs { site, max } => {
            conn.site = Some(site);
            report.requests += 1;
            let batch = sharded.get_jobs(site, max as usize, now);
            clear_granted(revocations, site, &batch);
            put_grant(&mut conn.wbuf, &batch);
        }
        Frame::AckBatch { site, want, entries } => {
            conn.site = Some(site);
            let mut verdicts = Vec::with_capacity(entries.len());
            for e in &entries {
                if e.ok {
                    let outcome = sharded.complete_at(e.job, site, now);
                    if let Completion::Merged { preempted } = &outcome {
                        report.completions += 1;
                        for &loser in preempted {
                            revocations.entry(loser).or_default().push(e.job);
                        }
                    }
                    verdicts.push(outcome.is_merged());
                } else {
                    report.failures += 1;
                    sharded.fail(e.job, site);
                    verdicts.push(false);
                }
            }
            report.requests += 1;
            let grant = sharded.get_jobs(site, want as usize, now);
            clear_granted(revocations, site, &grant);
            let revoked = revocations.remove(&site).unwrap_or_default();
            put_batch_reply(&mut conn.wbuf, &BatchReply { verdicts, revoked, grant });
        }
    }
}
