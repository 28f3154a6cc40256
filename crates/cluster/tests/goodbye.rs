//! A site that said `Bye` is finished, not dead. Both heads must leave it
//! alone however long the other site still works — silence after a goodbye
//! is not a missed heartbeat, and evacuating a finished site would requeue
//! (and re-run) everything it had already merged.

use cloudburst_cluster::net::{serve_head_with, TcpHeadOptions};
use cloudburst_cluster::wire::{
    read_batch_reply, read_hello_ack, write_ack_batch, write_hello, write_to_head, AckEntry,
    MasterToHead, WIRE_VERSION,
};
use cloudburst_cluster::{run_head_with, HeadMsg, HeadOptions, HeadReport};
use cloudburst_core::{
    BatchPolicy, DataIndex, HeartbeatConfig, JobBatch, JobPool, LayoutParams, SiteId,
};
use crossbeam::channel::{bounded, unbounded, Sender};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Silence past this is a death; the cloud site works for several of them
/// after the local site left.
const HEARTBEAT: HeartbeatConfig = HeartbeatConfig { interval: 0.005, timeout: 0.05 };
const CLOUD_WORKS_FOR: Duration = Duration::from_millis(300);

/// Four chunks, all hosted locally, granted two at a time.
fn pool() -> JobPool {
    let params = LayoutParams { unit_size: 1, units_per_chunk: 2, n_files: 1 };
    let idx = DataIndex::build(8, params, |_| SiteId::LOCAL).unwrap();
    JobPool::from_index(&idx, BatchPolicy::Fixed(2))
}

fn assert_nobody_was_evacuated(report: &HeadReport) {
    assert!(report.dead_sites.is_empty(), "evacuated after its goodbye: {:?}", report.dead_sites);
    assert!(report.faults.is_quiet(), "something was requeued: {:?}", report.faults);
    assert_eq!(report.completions, 4);
    assert_eq!(report.counts[&SiteId::LOCAL].total(), 2, "the local site's work stays its own");
    assert_eq!(report.counts[&SiteId::CLOUD].total(), 2);
}

#[test]
fn the_channel_head_leaves_a_site_alone_after_its_goodbye() {
    let (tx, rx) = unbounded();
    let options = HeadOptions {
        heartbeat: Some(HEARTBEAT),
        tick: 0.002,
        n_sites: 2,
        ..HeadOptions::default()
    };
    let head = thread::spawn(move || run_head_with(pool(), rx, options));
    let work = |tx: &Sender<HeadMsg>, site: SiteId| -> JobBatch {
        let (btx, brx) = bounded(1);
        tx.send(HeadMsg::RequestJobs { site, reply: btx }).unwrap();
        let batch = brx.recv().unwrap();
        let jobs: Vec<_> = batch.jobs.iter().map(|j| j.id).collect();
        let (atx, arx) = bounded(1);
        tx.send(HeadMsg::Complete { jobs, site, reply: Some(atx) }).unwrap();
        let verdicts = arx.recv().unwrap();
        assert!(verdicts.iter().all(|&merged| merged), "{site} completes its own grant once");
        batch
    };
    assert_eq!(work(&tx, SiteId::LOCAL).len(), 2);
    tx.send(HeadMsg::Bye { site: SiteId::LOCAL }).unwrap();

    let until = Instant::now() + CLOUD_WORKS_FOR;
    while Instant::now() < until {
        tx.send(HeadMsg::Heartbeat { site: SiteId::CLOUD }).unwrap();
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(work(&tx, SiteId::CLOUD).len(), 2);
    assert!(work(&tx, SiteId::CLOUD).terminal, "nothing came back to be done again");
    tx.send(HeadMsg::Bye { site: SiteId::CLOUD }).unwrap();
    drop(tx);
    assert_nobody_was_evacuated(&head.join().unwrap());
}

#[test]
fn the_reactor_head_drops_a_connection_at_its_goodbye() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let options =
        TcpHeadOptions { heartbeat: Some(HEARTBEAT), ft_active: true, ..TcpHeadOptions::default() };
    let head = thread::spawn(move || serve_head_with(&listener, pool(), 2, &options));
    let connect = |site: SiteId| {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        write_hello(&mut stream, site, WIRE_VERSION, 2).unwrap();
        assert_eq!(read_hello_ack(&mut stream).unwrap(), WIRE_VERSION);
        stream
    };
    // Ask for two jobs, then report them done; returns the second reply's
    // (empty) grant.
    let work = |stream: &mut TcpStream, site: SiteId| -> JobBatch {
        write_ack_batch(stream, site, 2, &[]).unwrap();
        let grant = read_batch_reply(stream).unwrap().grant;
        let done: Vec<AckEntry> =
            grant.jobs.iter().map(|j| AckEntry { job: j.id, ok: true }).collect();
        write_ack_batch(stream, site, 0, &done).unwrap();
        let reply = read_batch_reply(stream).unwrap();
        assert!(reply.verdicts.iter().all(|&merged| merged), "{site} completes its own grant once");
        assert_eq!(reply.verdicts.len(), 2);
        reply.grant
    };
    let mut local = connect(SiteId::LOCAL);
    let mut cloud = connect(SiteId::CLOUD);
    work(&mut local, SiteId::LOCAL);
    write_to_head(&mut local, &MasterToHead::Bye).unwrap();
    // The local master's process lives on, socket open, long past the
    // timeout: only the goodbye tells the head it is not a silent death.

    let until = Instant::now() + CLOUD_WORKS_FOR;
    while Instant::now() < until {
        write_to_head(&mut cloud, &MasterToHead::Ping { site: SiteId::CLOUD }).unwrap();
        thread::sleep(Duration::from_millis(5));
    }
    assert!(work(&mut cloud, SiteId::CLOUD).terminal, "nothing came back to be done again");
    write_to_head(&mut cloud, &MasterToHead::Bye).unwrap();
    let report = head.join().unwrap().unwrap();
    assert_nobody_was_evacuated(&report);
    assert_eq!((report.conns_opened, report.conns_reclaimed), (2, 2));
    drop(local);
}
