//! A peer the head no longer understands is turned away whole, not
//! half-served: a `Hello` below the wire version gets its `HelloAck` and the
//! door, a frame with a deleted tag gets the door. With fault tolerance on
//! the run goes on, every connection reclaimed — an old `Hello` is not even
//! believed about which site it is, a master that was let in and then spoke
//! a deleted tag is one more site death; without, either is the run's
//! error, as any broken connection is.

use cloudburst_cluster::net::serve_head_with;
use cloudburst_cluster::wire::{
    read_batch_reply, read_hello_ack, write_ack_batch, write_hello, write_to_head, AckEntry,
    MasterToHead, WIRE_VERSION,
};
use cloudburst_cluster::{HeadOptions, HeadReport};
use cloudburst_core::{BatchPolicy, DataIndex, JobPool, LayoutParams, SiteId};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;

const CHUNKS: u64 = 6;

/// A head for two masters. `intruder` gets the cloud site's raw connection
/// and must get itself thrown out; if the head is still there afterwards a
/// well-behaved local master drains the pool.
fn with_head(ft_active: bool, intruder: impl FnOnce(&mut TcpStream)) -> io::Result<HeadReport> {
    let params = LayoutParams { unit_size: 1, units_per_chunk: 1, n_files: 2 };
    let idx = DataIndex::build(CHUNKS, params, |f| SiteId(f.0 as u16 % 2)).unwrap();
    let pool = JobPool::from_index(&idx, BatchPolicy::Fixed(2));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let options = HeadOptions { ft_active, ..HeadOptions::default() };
    let head = thread::spawn(move || serve_head_with(&listener, pool, 2, &options));

    let mut cloud = TcpStream::connect(addr).unwrap();
    cloud.set_nodelay(true).unwrap();
    intruder(&mut cloud);
    assert_eq!(cloud.read(&mut [0u8; 1]).unwrap_or(0), 0, "the head kept the connection");

    // Without fault tolerance the head may be gone already: whatever this
    // master still manages to say, the run's verdict is the head's.
    let local = || -> io::Result<()> {
        let mut local = TcpStream::connect(addr)?;
        write_hello(&mut local, SiteId::LOCAL, WIRE_VERSION, 2)?;
        read_hello_ack(&mut local)?;
        let mut done: Vec<AckEntry> = Vec::new();
        loop {
            write_ack_batch(&mut local, SiteId::LOCAL, 2, &done)?;
            let grant = read_batch_reply(&mut local)?.grant;
            if grant.terminal {
                return write_to_head(&mut local, &MasterToHead::Bye);
            }
            done = grant.jobs.iter().map(|j| AckEntry { job: j.id, ok: true }).collect();
        }
    };
    let _ = local();
    head.join().unwrap()
}

fn the_run_went_on(report: &HeadReport, dead: &[SiteId]) {
    assert_eq!(report.dead_sites, dead);
    assert_eq!(report.completions, CHUNKS, "the local master did everything");
    assert_eq!(report.abandoned, 0);
    assert_eq!((report.conns_opened, report.conns_reclaimed), (2, 2));
}

#[test]
fn a_hello_below_the_wire_version_is_acknowledged_and_shown_the_door() {
    let old_hello = |stream: &mut TcpStream| {
        write_hello(stream, SiteId::CLOUD, WIRE_VERSION - 1, 2).unwrap();
        assert_eq!(read_hello_ack(stream).unwrap(), WIRE_VERSION - 1);
    };
    // Nobody died: the site the intruder named was never its to take down.
    the_run_went_on(&with_head(true, old_hello).unwrap(), &[]);
    assert_eq!(with_head(false, old_hello).unwrap_err().kind(), ErrorKind::Unsupported);
}

#[test]
fn a_frame_with_a_deleted_tag_ends_the_connection() {
    // Tag 1 was the single-job `Request`: tag, then the site.
    let old_request = |stream: &mut TcpStream| {
        write_hello(stream, SiteId::CLOUD, WIRE_VERSION, 2).unwrap();
        assert_eq!(read_hello_ack(stream).unwrap(), WIRE_VERSION);
        stream.write_all(&[1, 1, 0]).unwrap();
    };
    the_run_went_on(&with_head(true, old_request).unwrap(), &[SiteId::CLOUD]);
    assert_eq!(with_head(false, old_request).unwrap_err().kind(), ErrorKind::InvalidData);
}
