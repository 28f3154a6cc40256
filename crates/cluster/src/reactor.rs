//! The head over TCP: [`HeadCore`] behind a single-threaded poll reactor —
//! thousands of master connections without thousands of OS threads.
//!
//! Every connection is served from one thread: non-blocking sockets, a
//! per-connection read buffer fed into the incremental
//! [`try_read_frame`](crate::wire::try_read_frame) decoder, and a write buffer
//! drained as the socket accepts it (partial writes tracked by offset). Both
//! are kept for the connection's life, and each grant is encoded and handed
//! back to the core to be built again in: a frame costs no buffer. The house rule is *no async runtime*, so the
//! thread blocks in `poll(2)` ([`crate::readiness`]) over the listener and
//! every connection — write interest only while a reply is buffered — until
//! a socket is ready or the core's next deadline (lease reap, heartbeat
//! silence) is due, and touches only the connections the wait reported: an
//! idle head costs nothing and a sweep is O(ready).
//!
//! What a frame means is the core's business; this module moves bytes. A
//! connection that breaks, falls silent or leaves without `Bye` is reported
//! to the core, which evacuates its site; the revocations the core holds for
//! a site ride that site's next [`BatchReply`](crate::wire::BatchReply).
//!
//! Connection state is reclaimed on every exit path (Bye, EOF, timeout,
//! error): the per-connection buffers drop with the `Conn`, and the head
//! report's `conns_opened`/`conns_reclaimed` counters prove it — a churn
//! test cycles hundreds of connects and asserts the two stay equal.

use crate::head::HeadOptions;
use crate::head_core::{HeadCore, Peer, Reply};
use crate::protocol::HeadReport;
use crate::readiness::{self, PollFd, READABLE, WRITABLE};
use crate::wire::{put_batch_reply, put_grant, put_hello_ack, read_frame};
use cloudburst_core::JobPool;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// One master connection's entire state. Dropping it reclaims everything —
/// there is no side table to leak from.
struct Conn {
    stream: TcpStream,
    /// What the core knows this connection as.
    peer: Peer,
    /// Bytes read but not yet decoded (partial frames included).
    rbuf: Vec<u8>,
    /// Encoded replies not yet written; `wpos` marks the flushed prefix.
    wbuf: Vec<u8>,
    wpos: usize,
    said_bye: bool,
    closed: bool,
}

/// Serve the head's control protocol to exactly `n_masters` connections
/// from one thread, then return the head's report: the classic
/// fault-oblivious server.
pub fn serve_head(
    listener: &TcpListener,
    pool: JobPool,
    n_masters: usize,
) -> io::Result<HeadReport> {
    serve_head_with(listener, pool, n_masters, &HeadOptions::default())
}

/// [`serve_head`] with the fault-tolerance machinery of `options`: the lease
/// reaper, per-connection death detection, and site evacuation on unclean
/// disconnects — without it a broken connection is the run's error.
pub fn serve_head_with(
    listener: &TcpListener,
    pool: JobPool,
    n_masters: usize,
    options: &HeadOptions,
) -> io::Result<HeadReport> {
    listener.set_nonblocking(true)?;
    // No site count: over TCP a dead site's connection is closed, so when the
    // last site is dead nobody is left asking, the loop ends, and `finish`
    // abandons the backlog — `n_masters` counts connections, not sites.
    let mut core = HeadCore::new(pool, 0, options.heartbeat, options.ft_active);
    core.set_ledger(options.metrics.ledger());
    let clock = || options.epoch.elapsed().as_secs_f64();
    let mut conns: Vec<Conn> = Vec::new();
    // What the readiness wait watches: slot 0 is the listener, slot `i + 1`
    // belongs to `conns[i]`.
    let mut fds = vec![PollFd::listener(listener)];
    let mut accepted = 0usize;
    let mut first_err: Option<io::Error> = None;
    // Every connection reads through this one buffer.
    let mut scratch = [0u8; 16384];
    let mut wakeups = 0;

    while accepted < n_masters || !conns.is_empty() {
        let timer =
            core.next_deadline().map(|due| Duration::from_secs_f64((due - clock()).max(0.0)));
        let mut ready = readiness::wait(&mut fds, timer)?;
        wakeups += 1;

        if fds[0].ready() {
            ready -= 1;
            while accepted < n_masters {
                match listener.accept() {
                    Ok((stream, _addr)) => {
                        stream.set_nodelay(true)?;
                        stream.set_nonblocking(true)?;
                        fds.push(PollFd::stream(&stream));
                        let peer = Peer(accepted as u64);
                        core.on_connect(peer, clock());
                        conns.push(Conn {
                            stream,
                            peer,
                            rbuf: Vec::with_capacity(1024),
                            wbuf: Vec::new(),
                            wpos: 0,
                            said_bye: false,
                            closed: false,
                        });
                        accepted += 1;
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
            if let Err(e) = pump(conn, &mut scratch, &mut core, clock()) {
                // A broken connection: a site death with fault tolerance on,
                // the run's error without.
                conn.closed = true;
                if !core.ft_active() {
                    first_err.get_or_insert(e);
                }
            }
            if conn.closed {
                reclaim(&mut core, &mut conns, &mut fds, i);
            } else {
                let unsent = conn.wpos < conn.wbuf.len();
                fds[i + 1].events = if unsent { READABLE | WRITABLE } else { READABLE };
            }
        }

        // After the pump, so that what a connection has just said counts.
        for peer in core.on_tick(clock()) {
            if let Some(i) = conns.iter().position(|c| c.peer == peer) {
                reclaim(&mut core, &mut conns, &mut fds, i);
            }
        }
        core.publish_ledger();
    }

    let mut report = core.finish();
    report.conns_opened = accepted as u64;
    report.conns_reclaimed = (accepted - conns.len()) as u64;
    report.wakeups = wakeups;
    match first_err {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

/// Dropping the `Conn` reclaims everything it held; the core hears of every
/// one that goes, and evacuates the site of one that went without `Bye` when
/// fault tolerance is on.
fn reclaim(core: &mut HeadCore, conns: &mut Vec<Conn>, fds: &mut Vec<PollFd>, i: usize) {
    core.on_disconnect(conns.swap_remove(i).peer);
    fds.swap_remove(i + 1);
}

/// Serve one ready connection: flush pending writes, read what has arrived
/// (or the EOF) through `scratch`, hand every complete frame to the core and
/// buffer its reply, flush again. Marks the connection closed on
/// Bye-with-drained-writes or EOF.
fn pump(conn: &mut Conn, scratch: &mut [u8], core: &mut HeadCore, now: f64) -> io::Result<()> {
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
                if n < scratch.len() {
                    break; // drained; the wait reports whatever comes next
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }

    let mut decoded = 0;
    while !conn.said_bye {
        let Some((frame, len)) = read_frame(&conn.rbuf[decoded..])? else { break };
        decoded += len;
        match core.on_frame(conn.peer, frame, now) {
            Reply::None => {}
            Reply::HelloAck(version) => put_hello_ack(&mut conn.wbuf, version),
            Reply::Grant(batch) => {
                put_grant(&mut conn.wbuf, &batch);
                core.recycle(batch);
            }
            Reply::Batch(reply) => {
                put_batch_reply(&mut conn.wbuf, &reply);
                core.recycle(reply.grant);
            }
            Reply::Bye => conn.said_bye = true,
            Reply::Refused(version) => {
                put_hello_ack(&mut conn.wbuf, version);
                flush(conn)?;
                return Err(io::Error::new(ErrorKind::Unsupported, "peer speaks an old wire"));
            }
        }
    }
    // What is left is a frame still arriving: moved to the front.
    conn.rbuf.drain(..decoded);

    flush(conn)?;

    // Frames already buffered were handled above, so a `Bye` racing the
    // close is honored; anything less is a crash.
    if eof || (conn.said_bye && conn.wpos == conn.wbuf.len()) {
        conn.closed = true;
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
