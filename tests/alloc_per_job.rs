//! The control plane allocates per exchange, not per job.
//!
//! A counting global allocator watches whole runs of tiny k-NN jobs — the
//! shape of the `grant-storm-tcp` ladder workload — over TCP and over
//! channels, at 24 000 and at 96 000 jobs. What the larger run asks for
//! beyond the smaller one is what its extra jobs cost:
//!
//! * fewer than 0.1 heap blocks per job, so nothing on the path of a job (a
//!   lease, a range list, a hand-off buffer) is allocated for that job;
//! * fewer than one block of 64 KiB or more per 4 096 jobs, counted on the
//!   run's own threads — the size glibc's dynamic mmap threshold moves into
//!   those threads' arenas, where it outlives the run. A hand-off of tiny
//!   jobs is 1 024 of them, and a buffer allocated per exchange at that size
//!   costs one such block per 1 024 jobs or more; a buffer kept and reused
//!   crosses 64 KiB a few times as it grows, whatever the run's length.
//!
//! Under fault tolerance a slave's exchange is the *settle*: it reports a
//! quantum of jobs and waits for their verdicts, on its one verdict channel
//! for the run. There the first bound is per settle, not per job: fewer than
//! [`SETTLE_BLOCKS`] heap blocks for one settle and the hand-off it closes,
//! the default hooks' fresh k-NN scratch object (three blocks as it grows)
//! included. How many jobs a settle carries is how many fit in a quantum,
//! which depends on the build: a few hundred optimised, 30–50 in a debug
//! build, where a per-job bound would measure the build's speed.
//!
//! (At 6 000 jobs no buffer of the control plane reaches 64 KiB yet, with or
//! without reuse, so the smaller run is one whose buffers have grown. The
//! pool's tables are built on the calling thread before the run starts; they
//! grow in bytes, not in count, and are not counted among the large blocks.)
//!
//! One `#[test]` only: the counters are process-wide, so nothing may run
//! beside the measured runs.

use bytes::Bytes;
use cloudburst_apps::gen::gen_id_points;
use cloudburst_apps::knn::{knn_oracle, Knn};
use cloudburst_cluster::{run_hybrid, run_hybrid_tcp, FtConfig, RuntimeConfig};
use cloudburst_core::{DataIndex, EnvConfig, HeartbeatConfig, LayoutParams, Metrics, SiteId};
use cloudburst_storage::{fraction_placement, organize, ChunkStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Blocks this large or larger are counted apart.
const BIG: usize = 64 * 1024;

/// Heap blocks a settle exchange may cost, whatever it carries: a channel
/// built per settle and grown by its verdicts cost 20 on TCP.
const SETTLE_BLOCKS: f64 = 16.0;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread that runs the test, which builds each run.
    static SETUP: Cell<bool> = const { Cell::new(false) };
}

fn count(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    if size >= BIG && !SETUP.try_with(Cell::get).unwrap_or(false) {
        BIG_ALLOCS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const D: usize = 4;
/// `grant-storm-tcp`'s jobs: eight 20-byte points each.
const UNITS_PER_CHUNK: u64 = 8;

struct Workload {
    data: Bytes,
    index: DataIndex,
    stores: BTreeMap<SiteId, Arc<dyn ChunkStore>>,
}

fn workload(jobs: u32) -> Workload {
    let data = gen_id_points::<D>(jobs * UNITS_PER_CHUNK as u32, 42);
    let params = LayoutParams {
        unit_size: (4 + 4 * D) as u32,
        units_per_chunk: UNITS_PER_CHUNK,
        n_files: 8,
    };
    let org = organize(&data, params, &mut fraction_placement(0.5, 8)).unwrap();
    let stores = org
        .stores
        .iter()
        .map(|(&s, st)| (s, Arc::new(st.clone()) as Arc<dyn ChunkStore>))
        .collect();
    Workload { data, index: org.index, stores }
}

/// Heap blocks asked for by one run over `w`, those of them of [`BIG`]
/// bytes or more asked for by its threads, and the settles its slaves made
/// (the result is checked against the oracle outside the count).
fn measure(w: &Workload, tcp: bool, ft: bool) -> (u64, u64, u64) {
    let app = Knn::<D>::new([0.4, 0.6, 0.2, 0.8], 10);
    let mut config = RuntimeConfig::new(EnvConfig::new("alloc", 0.5, 1, 1), 1e-9);
    if ft {
        // Counts the settles: the slaves' ledger, published live.
        config.metrics = Metrics::on();
        // Heartbeats alone turn on the settle path (every completion waits
        // for its verdict) without leases and speculation, which act on how
        // long jobs take and so make the count depend on the build's speed.
        config.ft = FtConfig { heartbeat: Some(HeartbeatConfig::default()), ..FtConfig::default() };
    }
    let stores = w.stores.clone();
    let (allocs, big) = (ALLOCS.load(Relaxed), BIG_ALLOCS.load(Relaxed));
    let out = if tcp {
        run_hybrid_tcp(&app, &w.index, stores, &config)
    } else {
        run_hybrid(&app, &w.index, stores, &config)
    }
    .expect("run");
    let counted = (ALLOCS.load(Relaxed) - allocs, BIG_ALLOCS.load(Relaxed) - big);
    let settles = config.metrics.registry().map_or(0, |r| r.ledger().all().settles);
    assert_eq!(out.result.0.items(), knn_oracle::<D>(&w.data, &app.query, 10).as_slice());
    assert_eq!(out.head.completions, w.index.n_chunks() as u64);
    (counted.0, counted.1, settles)
}

#[test]
fn the_control_plane_allocates_per_exchange_not_per_job() {
    SETUP.with(|s| s.set(true));
    let (small, large) = (workload(24_000), workload(96_000));
    let extra_jobs = (large.index.n_chunks() - small.index.n_chunks()) as f64;
    let mut counts = Vec::new();
    for (tcp, ft) in [(true, false), (false, false), (true, true), (false, true)] {
        let mode = match (tcp, ft) {
            (true, false) => "tcp",
            (false, false) => "channels",
            (true, true) => "tcp, ft",
            (false, true) => "channels, ft",
        };
        // A warm-up run, so lazily built process state is not counted.
        measure(&small, tcp, ft);
        let (a_small, big_small, s_small) = measure(&small, tcp, ft);
        let (a_large, big_large, s_large) = measure(&large, tcp, ft);
        let extra = a_large.saturating_sub(a_small) as f64;
        let per_job = extra / extra_jobs;
        let per_settle = extra / s_large.saturating_sub(s_small).max(1) as f64;
        let big_per_4096 = big_large.saturating_sub(big_small) as f64 / extra_jobs * 4096.0;
        eprintln!(
            "{mode}: {a_small} / {a_large} blocks, {big_small} / {big_large} of ≥ 64 KiB \
             (24 000 / 96 000 jobs): {per_job:.3} per extra job, {big_per_4096:.2} large per \
             4 096, {s_small} / {s_large} settles, {per_settle:.2} per extra settle"
        );
        counts.push((mode, ft, per_job, per_settle, big_per_4096));
    }
    for (mode, ft, per_job, per_settle, big_per_4096) in counts {
        if ft {
            assert!(per_settle < SETTLE_BLOCKS, "{mode}: {per_settle:.2} blocks per settle");
        } else {
            assert!(per_job < 0.1, "{mode}: {per_job:.3} blocks per job");
        }
        assert!(big_per_4096 < 1.0, "{mode}: {big_per_4096:.2} blocks of ≥ 64 KiB per 4 096 jobs");
    }
}
