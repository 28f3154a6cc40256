//! A journaling application's reduction object is resident when
//! `make_robj` returns (DESIGN §3.4.2): the first open job reduced into a
//! fresh object takes no page fault on the object, only on its journal's
//! fresh pages. Counted as the minor faults of the test's own thread
//! (`minflt`, field 10 of `/proc/thread-self/stat`) across one
//! `reduce_open` of a 4 096-unit chunk into a 3.2 MB rank vector and into a
//! 3.3 MB grid. A lazily zeroed object takes a fault or two for each page
//! the chunk touches: 1 530 for the rank vector, whose deposit reads a slot
//! before it writes it, and 796 for the grid, when they were made with
//! `vec![0; n]`.
//!
//! Linux only; elsewhere, or without `/proc/thread-self`, it says
//! `skipped:` on stderr.

use cloudburst_apps::gen::gen_edges;
use cloudburst_apps::gridding::gen_samples;
use cloudburst_apps::{Gridding, PageRank};
use cloudburst_core::{Journal, Reduction, Undo};

/// Units in the one chunk reduced into each fresh object.
const UNITS: usize = 4096;

/// Bytes in a page of the journal's allocation.
const PAGE: usize = 4096;

/// Faults allowed beyond the journal's pages: the stat reads themselves,
/// a decode buffer, the stack.
const SLACK: u64 = 16;

/// This thread's minor faults so far, or `None` where the kernel does not
/// say.
fn minflt() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // Fields after the command name, which may hold spaces, start at the
    // third (state); minflt is the tenth.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(10 - 3)?.parse().ok()
}

/// Faults this thread takes in one `reduce_open` of `chunk` into a fresh
/// object, and the bound: the journal's pages plus [`SLACK`].
fn first_job_faults<R: Reduction>(app: &R, chunk: &[u8]) -> Option<(u64, u64)> {
    let mut acc = app.make_robj();
    let notes = app.journal_len(chunk.len() / app.unit_size());
    let mut undo = Undo::new(Journal::with_capacity(notes));
    let mut buf = Vec::new();
    let before = minflt()?;
    app.reduce_open(&mut acc, &mut undo, chunk, &mut buf);
    let faults = minflt()? - before;
    let journal_pages = (notes * std::mem::size_of::<(usize, u64)>()).div_ceil(PAGE) as u64;
    Some((faults, journal_pages + SLACK))
}

fn skipped(why: &str) {
    use std::io::Write;
    let _ = writeln!(std::io::stderr(), "skipped: {why}");
}

#[test]
fn a_fresh_journaling_object_takes_no_page_fault_in_its_first_open_job() {
    if !cfg!(target_os = "linux") || minflt().is_none() {
        return skipped("no per-thread fault count (/proc/thread-self/stat) on this system");
    }
    // 400 000 pages: a 3.2 MB rank vector, as on the ladder's pagerank row.
    let pages = 400_000u32;
    let edges = gen_edges(pages, pages, 7);
    let outdeg = PageRank::outdegrees(&edges, pages as usize);
    let ranks = vec![1.0 / f64::from(pages); pages as usize];
    let pagerank = PageRank::new(&ranks, &outdeg, 0.85);
    // 512 × 400 cells of 16 bytes: a 3.3 MB grid.
    let gridding = Gridding::new(512, 400);
    let samples = gen_samples(UNITS as u32, 4, 7);

    let edges = &edges[..UNITS * Reduction::unit_size(&pagerank)];
    let counted = [
        ("pagerank", first_job_faults(&pagerank, edges)),
        ("gridding", first_job_faults(&gridding, &samples)),
    ]
    .map(|(app, counted)| (app, counted.expect("the fault count was readable before")));
    for (app, (faults, bound)) in counted {
        eprintln!("{app}: {faults} minor faults in the first open job (bound {bound})");
    }
    for (app, (faults, bound)) in counted {
        assert!(faults <= bound, "{app}: {faults} minor faults, more than {bound}");
    }
}
