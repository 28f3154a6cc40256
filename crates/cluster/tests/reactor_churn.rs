//! Slave-churn regression: the reactor head must reclaim per-connection
//! state (sockets, read/write buffers) on every disconnect. A leak here is
//! invisible at the paper's two-master scale and fatal at thousands of
//! simulated slaves, so this cycles 500 connect → hello → bye → drop
//! rounds against one head and asserts the process's open-fd count stays
//! flat and the head's churn accounting balances exactly.

use cloudburst_cluster::net::serve_head_with;
use cloudburst_cluster::wire::{
    encode_frame, read_hello_ack, write_hello, Frame, MasterToHead, WIRE_VERSION,
};
use cloudburst_cluster::HeadOptions;
use cloudburst_core::{BatchPolicy, DataIndex, JobPool, LayoutParams, SiteId};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::thread;

#[cfg(target_os = "linux")]
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map(|d| d.count()).unwrap_or(0)
}

#[test]
fn five_hundred_connect_disconnect_cycles_leak_nothing() {
    const CYCLES: usize = 500;
    let idx =
        DataIndex::build(64, LayoutParams { unit_size: 8, units_per_chunk: 4, n_files: 1 }, |_| {
            SiteId::LOCAL
        })
        .unwrap();
    let pool = JobPool::from_index(&idx, BatchPolicy::Fixed(2));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let head =
        thread::spawn(move || serve_head_with(&listener, pool, CYCLES, &HeadOptions::default()));

    // Let the first few dozen cycles settle allocator/socket warm-up, then
    // demand a flat fd count for the remaining 450.
    #[cfg(target_os = "linux")]
    let mut baseline = 0usize;
    for cycle in 0..CYCLES {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_hello(&mut stream, SiteId::LOCAL, WIRE_VERSION, 8).unwrap();
        stream.flush().unwrap();
        assert_eq!(read_hello_ack(&mut stream).unwrap(), WIRE_VERSION);
        stream.write_all(&encode_frame(&Frame::Legacy(MasterToHead::Bye))).unwrap();
        stream.flush().unwrap();
        drop(stream);

        #[cfg(target_os = "linux")]
        {
            if cycle == 49 {
                baseline = open_fds();
            } else if cycle > 49 && cycle % 100 == 99 {
                // Slack of a few fds: the reactor may not have swept the
                // last EOFs yet, and the fd-dir read itself holds one.
                let now = open_fds();
                assert!(
                    now <= baseline + 8,
                    "fd count grew from {baseline} to {now} by cycle {cycle}: connection leak"
                );
            }
        }
        let _ = cycle;
    }

    let report = head.join().unwrap().unwrap();
    assert_eq!(report.conns_opened, CYCLES as u64, "every connect must be accepted");
    assert_eq!(
        report.conns_reclaimed, CYCLES as u64,
        "every connection's state must be reclaimed on disconnect"
    );
    assert_eq!(report.completions, 0);
}
