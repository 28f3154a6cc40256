//! The reactor head waits for socket readiness instead of polling its
//! connections: a frame that arrives in pieces is served once, when its last
//! byte does; a reply larger than the socket buffers finishes through write
//! readiness while the peer drains slowly; and a head with nothing to do
//! stays asleep — it wakes for traffic and for its timers, nothing else.

use cloudburst_cluster::net::serve_head_with;
use cloudburst_cluster::wire::{
    encode_frame, read_batch_reply, read_grant, read_hello_ack, write_ack_batch, write_hello,
    Frame, MasterToHead, WIRE_VERSION,
};
use cloudburst_cluster::{HeadOptions, HeadReport};
use cloudburst_core::{BatchPolicy, DataIndex, JobPool, LayoutParams, SiteId};
use std::collections::HashSet;
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

fn pool(n_chunks: u64) -> JobPool {
    let params = LayoutParams { unit_size: 1, units_per_chunk: 1, n_files: 1 };
    let idx = DataIndex::build(n_chunks, params, |_| SiteId::LOCAL).unwrap();
    JobPool::from_index(&idx, BatchPolicy::Fixed(2))
}

/// Run a one-master head beside `client`, which gets a connection that has
/// completed the v2 handshake; returns the head's report.
fn with_head(
    pool: JobPool,
    options: HeadOptions,
    client: impl FnOnce(&mut TcpStream),
) -> HeadReport {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let head = thread::spawn(move || serve_head_with(&listener, pool, 1, &options));
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    write_hello(&mut stream, SiteId::LOCAL, WIRE_VERSION, 8).unwrap();
    assert_eq!(read_hello_ack(&mut stream).unwrap(), WIRE_VERSION);
    client(&mut stream);
    stream.write_all(&encode_frame(&Frame::Legacy(MasterToHead::Bye))).unwrap();
    head.join().unwrap().unwrap()
}

#[test]
fn a_frame_split_across_two_writes_is_served_once() {
    let report = with_head(pool(8), HeadOptions::default(), |stream| {
        let frame = encode_frame(&Frame::GetJobs { site: SiteId::LOCAL, max: 3 });
        let (first, rest) = frame.split_at(2);
        stream.write_all(first).unwrap();
        // The head wakes for two bytes of a five-byte frame, finds nothing
        // to decode and goes back to sleep.
        thread::sleep(Duration::from_millis(50));
        stream.write_all(rest).unwrap();
        assert_eq!(read_grant(stream).unwrap().len(), 3);
        // Nothing else is on its way: a second grant would show up here.
        stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        assert!(stream.read(&mut [0u8; 1]).is_err(), "the head answered the one frame twice");
    });
    assert_eq!(report.requests, 1);
}

#[test]
fn a_reply_larger_than_the_socket_buffers_completes_through_write_readiness() {
    // 65 535 jobs × 42 bytes: 2.7 MB into a socket whose reader is in no
    // hurry. The first write stops at `WouldBlock`; the rest must follow as
    // the socket reports room, not never and not by spinning.
    const WANT: u16 = u16::MAX;
    let report = with_head(pool(70_000), HeadOptions::default(), |stream| {
        write_ack_batch(stream, SiteId::LOCAL, WANT, &[]).unwrap();
        thread::sleep(Duration::from_millis(100));
        /// Hands the bytes over in small sips with a pause between them.
        struct Slowly<'a>(&'a mut TcpStream);
        impl Read for Slowly<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                thread::sleep(Duration::from_micros(200));
                let n = buf.len().min(16 * 1024);
                self.0.read(&mut buf[..n])
            }
        }
        let reply =
            read_batch_reply(&mut BufReader::with_capacity(16 * 1024, Slowly(stream))).unwrap();
        assert_eq!(reply.grant.len(), usize::from(WANT));
        let distinct: HashSet<u32> = reply.grant.jobs.iter().map(|j| j.id.0).collect();
        assert_eq!(distinct.len(), usize::from(WANT), "a job was granted twice");
    });
    assert_eq!(report.requests, 1);
}

/// Wake-ups of a head whose one master says hello, nothing for `quiet`, and
/// goodbye.
fn wakeups_while_silent(options: HeadOptions, quiet: Duration) -> u64 {
    with_head(pool(8), options, |_| thread::sleep(quiet)).wakeups
}

#[test]
fn an_idle_head_wakes_for_traffic_and_timers_only() {
    let quiet = Duration::from_millis(200);
    // No timers at all: the connect, the hello and the goodbye (which may
    // arrive as goodbye then EOF), with room for a spurious wake-up or two.
    let wakeups = wakeups_while_silent(HeadOptions::default(), quiet);
    assert!(wakeups <= 6, "{wakeups} wake-ups with no timer set and three events");
    // With the lease reaper on, its 1 ms tick is the only other reason.
    let began = Instant::now();
    let ticking = HeadOptions { ft_active: true, ..HeadOptions::default() };
    let wakeups = wakeups_while_silent(ticking, quiet);
    let ticks = began.elapsed().as_millis() as u64;
    assert!(wakeups <= ticks + 6, "{wakeups} wake-ups in {ticks} reaper ticks");
    assert!(wakeups >= 50, "{wakeups} wake-ups: the reaper tick stopped firing");
}
