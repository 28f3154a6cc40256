//! Where a journaling application's large objects are allocated.
//!
//! PageRank journals its open jobs instead of reducing them into a second
//! object, and its accumulators and journals are allocated by the thread
//! that calls the run, before the slaves spawn: a block that large grown or
//! freed on a run's own threads stays in their malloc arenas, which the next
//! run's threads take over at random (DESIGN §3.4.3). A counting global
//! allocator checks that, under the full settle path, no thread of the run
//! asks for a block of [`BIG`] bytes or more, and a wrapper around the
//! application checks that every `make_robj` runs on the calling thread —
//! one per slave, and no second object.
//!
//! One `#[test]` only: the counters are process-wide.

use cloudburst_apps::gen::gen_edges;
use cloudburst_apps::{PageRank, RankMass};
use cloudburst_cluster::{run_hybrid, run_hybrid_tcp, FtConfig, RuntimeConfig};
use cloudburst_core::{
    reduce_serial, EnvConfig, HeartbeatConfig, LayoutParams, Reduction, SiteId, Undo,
};
use cloudburst_storage::{fraction_placement, organize, ChunkStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Blocks this large or larger are counted when a run's thread asks.
const BIG: usize = 256 * 1024;

struct Counting;

static BIG_OFF_CALLER: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread that runs the test, which calls each run.
    static CALLER: Cell<bool> = const { Cell::new(false) };
}

fn on_caller() -> bool {
    CALLER.try_with(Cell::get).unwrap_or(false)
}

fn count(size: usize) {
    if size >= BIG && !on_caller() {
        BIG_OFF_CALLER.fetch_add(1, Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is an
// atomic and allocates nothing.
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

/// PageRank, counting the objects it makes on and off the calling thread.
struct Placed {
    app: PageRank,
    made: AtomicU64,
    made_off_caller: AtomicU64,
}

impl Reduction for Placed {
    type Item = <PageRank as Reduction>::Item;
    type RObj = RankMass;
    fn make_robj(&self) -> RankMass {
        self.made.fetch_add(1, Relaxed);
        if !on_caller() {
            self.made_off_caller.fetch_add(1, Relaxed);
        }
        self.app.make_robj()
    }
    fn unit_size(&self) -> usize {
        Reduction::unit_size(&self.app)
    }
    fn decode(&self, chunk: &[u8], out: &mut Vec<Self::Item>) {
        Reduction::decode(&self.app, chunk, out);
    }
    fn local_reduce(&self, robj: &mut RankMass, item: &Self::Item) {
        self.app.local_reduce(robj, item);
    }
    fn reduce_units(&self, robj: &mut RankMass, units: &[u8], buf: &mut Vec<Self::Item>) {
        self.app.reduce_units(robj, units, buf);
    }
    fn journal_len(&self, units: usize) -> usize {
        self.app.journal_len(units)
    }
    fn reduce_open(
        &self,
        acc: &mut RankMass,
        undo: &mut Undo<RankMass>,
        units: &[u8],
        buf: &mut Vec<Self::Item>,
    ) {
        self.app.reduce_open(acc, undo, units, buf);
    }
    fn accept(&self, acc: &mut RankMass, undo: &mut Undo<RankMass>) {
        self.app.accept(acc, undo);
    }
    fn rollback(&self, acc: &mut RankMass, undo: &mut Undo<RankMass>) {
        self.app.rollback(acc, undo);
    }
}

#[test]
fn a_journaling_apps_objects_and_journals_are_allocated_by_the_calling_thread() {
    CALLER.with(|c| c.set(true));
    // 100 000 pages: an 800 KB object, as against 2 KiB chunks of edges.
    let pages = 100_000;
    let data = gen_edges(pages, 40_000, 17);
    let params = LayoutParams { unit_size: 8, units_per_chunk: 256, n_files: 4 };
    let org = organize(&data, params, &mut fraction_placement(0.5, 4)).unwrap();
    let stores: BTreeMap<SiteId, Arc<dyn ChunkStore>> = org
        .stores
        .iter()
        .map(|(&s, st)| (s, Arc::new(st.clone()) as Arc<dyn ChunkStore>))
        .collect();
    let outdeg = PageRank::outdegrees(&data, pages as usize);
    let ranks = vec![1.0 / f64::from(pages); pages as usize];
    let app = PageRank::new(&ranks, &outdeg, 0.85);
    let serial = reduce_serial(&app, [data.as_ref()]);
    let workers = 4;
    for tcp in [false, true] {
        let placed = Placed {
            app: app.clone(),
            made: AtomicU64::new(0),
            made_off_caller: AtomicU64::new(0),
        };
        let mut config = RuntimeConfig::new(EnvConfig::new("placement", 0.5, 2, 2), 1e-6);
        // Heartbeats put every job on the settle path: reduced open under
        // the journal and accepted on its verdict.
        config.ft = FtConfig { heartbeat: Some(HeartbeatConfig::default()), ..FtConfig::default() };
        let before = BIG_OFF_CALLER.load(Relaxed);
        let out = if tcp {
            run_hybrid_tcp(&placed, &org.index, stores.clone(), &config)
        } else {
            run_hybrid(&placed, &org.index, stores.clone(), &config)
        }
        .expect("run");
        let big = BIG_OFF_CALLER.load(Relaxed) - before;
        for (a, b) in out.result.0.iter().zip(&serial.0) {
            assert!((a - b).abs() < 1e-12, "tcp {tcp}: {a} vs {b}");
        }
        assert_eq!(placed.made.into_inner(), workers, "tcp {tcp}: one object per slave");
        assert_eq!(placed.made_off_caller.into_inner(), 0, "tcp {tcp}: made by a run's thread");
        assert_eq!(big, 0, "tcp {tcp}: blocks of ≥ 256 KiB asked for by a run's threads");
    }
}
