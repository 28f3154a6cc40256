//! Property tests for the open-job lifecycle (`Reduction::reduce_open`,
//! `Reduction::accept`, `Reduction::rollback`).
//!
//! The runtime reduces every isolated job *open*, keeps the jobs' encoded
//! chunks, and settles them a batch at a time the way this test drives them:
//! all accepted, the batch is accepted as it stands; a job refused, the batch
//! is rolled back and every accepted job is reduced open again from its chunk
//! and accepted on its own. A job that panics mid-reduce is modelled the way
//! the runtime handles it too: everything open is rolled back at once, the
//! panicked job is dropped, and the jobs open before it are settled next,
//! each accepted one reduced again whatever the verdicts.
//!
//! For the journaling applications (PageRank, Gridding) the accumulator
//! after every settle must be bit-equal to reducing the accepted jobs
//! straight into one object with `reduce_units`, in the order they were
//! accepted — the fold of a run with no isolation — and every rollback must
//! restore it, bit for bit, to what it held at the last settle. The
//! default hooks (k-means, k-NN, word count) reduce into a scratch object
//! and merge it: their accumulator must equal merging one fresh object per
//! accepted batch, or per accepted job after a rollback. After every settle
//! nothing is left to take back.

use cloudburst_apps::gen::{gen_clustered_points, gen_edges, gen_id_points, gen_words};
use cloudburst_apps::gridding::gen_samples;
use cloudburst_apps::{
    Grid2D, Gridding, KMeans, KMeansObj, Knn, KnnObj, PageRank, RankMass, WordCount, WordCounts,
};
use cloudburst_core::{Journal, Merge, Reduction, Undo};
use proptest::prelude::*;

/// The head's answer to one job — or the job dying half-way through.
#[derive(Debug, Clone, Copy)]
enum Verdict {
    Accept,
    Reject,
    Panic,
}

fn verdicts() -> impl Strategy<Value = Vec<Verdict>> {
    prop::collection::vec(0u8..6, 1..16).prop_map(|v| {
        v.into_iter()
            .map(|x| match x {
                0 => Verdict::Reject,
                1 => Verdict::Panic,
                _ => Verdict::Accept,
            })
            .collect()
    })
}

fn f64_bits(xs: &[f64]) -> impl Iterator<Item = u64> + '_ {
    xs.iter().map(|x| x.to_bits())
}

/// Reduce `chunk`'s units into `robj` in the small groups both sides use,
/// through the one call the classic path makes on fetched data.
fn reduce<R: Reduction>(app: &R, robj: &mut R::RObj, chunk: &[u8]) {
    let mut buf = Vec::new();
    for group in chunk.chunks(7 * app.unit_size()) {
        app.reduce_units(robj, group, &mut buf);
    }
}

/// [`reduce`], open.
fn reduce_open<R: Reduction>(app: &R, acc: &mut R::RObj, undo: &mut Undo<R::RObj>, chunk: &[u8]) {
    let mut buf = Vec::new();
    for group in chunk.chunks(7 * app.unit_size()) {
        app.reduce_open(acc, undo, group, &mut buf);
    }
}

/// Fold accepted jobs into `reference` the way each half's contract says:
/// straight for a journaling application, else one fresh object merged.
fn fold<R: Reduction>(app: &R, reference: &mut R::RObj, chunks: &[&[u8]]) {
    if app.journal_len(1) > 0 {
        chunks.iter().for_each(|c| reduce(app, reference, c));
    } else {
        let mut fresh = app.make_robj();
        chunks.iter().for_each(|c| reduce(app, &mut fresh, c));
        reference.merge(fresh);
    }
}

/// Run `data` as jobs of `units_per_chunk` units under `verdicts` (cycled),
/// settled `batch` jobs at a time as the runtime drives them, with a journal
/// reserved at the bound of a batch, checking the contract after every
/// rollback and every settlement. `same` is the application's notion of
/// "bit-equal".
fn lifecycle_matches_reference<R: Reduction>(
    app: &R,
    data: &[u8],
    units_per_chunk: usize,
    batch: usize,
    verdicts: &[Verdict],
    same: impl Fn(&R::RObj, &R::RObj) -> bool,
) {
    let unit = app.unit_size();
    let mut acc = app.make_robj();
    let mut undo = Undo::new(Journal::with_capacity(app.journal_len(batch * units_per_chunk)));
    let mut reference = app.make_robj();
    // The open jobs' chunks and whether each will be accepted; and whether a
    // panic rolled them back.
    let mut open: Vec<(&[u8], bool)> = Vec::new();
    let mut undone = false;
    let jobs: Vec<&[u8]> = data.chunks(units_per_chunk * unit).collect();
    for (job, (&chunk, verdict)) in jobs.iter().zip(verdicts.iter().cycle()).enumerate() {
        if matches!(verdict, Verdict::Panic) {
            reduce_open(app, &mut acc, &mut undo, &chunk[..chunk.len() / unit / 2 * unit]);
            app.rollback(&mut acc, &mut undo);
            assert!(same(&acc, &reference), "job {job}: a panic's rollback left a trace");
            undone = !open.is_empty();
        } else {
            reduce_open(app, &mut acc, &mut undo, chunk);
            open.push((chunk, matches!(verdict, Verdict::Accept)));
            if open.len() < batch && job + 1 < jobs.len() {
                continue;
            }
        }
        let accepted: Vec<&[u8]> = open.iter().filter(|o| o.1).map(|o| o.0).collect();
        if accepted.len() == open.len() && !undone {
            app.accept(&mut acc, &mut undo);
            fold(app, &mut reference, &accepted);
        } else {
            if !std::mem::take(&mut undone) {
                app.rollback(&mut acc, &mut undo);
                assert!(same(&acc, &reference), "job {job}: a refusal's rollback left a trace");
            }
            for chunk in accepted {
                reduce_open(app, &mut acc, &mut undo, chunk);
                app.accept(&mut acc, &mut undo);
                fold(app, &mut reference, &[chunk]);
            }
        }
        assert!(undo.scratch.is_none() && undo.journal.is_empty(), "job {job}: left open");
        assert!(same(&acc, &reference), "job {job}: accumulator diverged after {verdict:?}");
        open.clear();
    }
}

proptest! {
    #[test]
    fn pagerank_journal_is_bit_equal_to_a_straight_reduce(
        seed in any::<u64>(),
        pages in 2u32..600,
        edges in 1u32..3000,
        per_chunk in 1usize..400,
        batch in 1usize..6,
        verdicts in verdicts(),
    ) {
        let data = gen_edges(pages, edges, seed);
        let outdeg = PageRank::outdegrees(&data, pages as usize);
        let ranks = vec![1.0 / f64::from(pages); pages as usize];
        let app = PageRank::new(&ranks, &outdeg, 0.85);
        lifecycle_matches_reference(&app, &data, per_chunk, batch, &verdicts, |a: &RankMass, b| {
            f64_bits(&a.0).eq(f64_bits(&b.0))
        });
    }

    #[test]
    fn gridding_journal_is_bit_equal_to_a_straight_reduce(
        seed in any::<u64>(),
        (width, height) in (1usize..48, 1usize..48),
        samples in 1u32..3000,
        per_chunk in 1usize..400,
        batch in 1usize..6,
        verdicts in verdicts(),
    ) {
        let data = gen_samples(samples, 3, seed);
        let app = Gridding::new(width, height);
        lifecycle_matches_reference(&app, &data, per_chunk, batch, &verdicts, |a: &Grid2D, b| {
            a.counts == b.counts && f64_bits(&a.sums).eq(f64_bits(&b.sums))
        });
    }

    #[test]
    fn kmeans_default_hooks_match_merge(
        seed in any::<u64>(),
        points in 1u32..2000,
        per_chunk in 1usize..300,
        batch in 1usize..6,
        verdicts in verdicts(),
    ) {
        let (data, centers) = gen_clustered_points::<3>(points, 4, 0.05, seed);
        let app = KMeans::new(centers.iter().map(|c| c.map(f64::from)).collect());
        lifecycle_matches_reference(&app, &data, per_chunk, batch, &verdicts, |a: &KMeansObj, b| {
            a.counts == b.counts && f64_bits(&a.sums).eq(f64_bits(&b.sums))
        });
    }

    #[test]
    fn knn_default_hooks_match_merge(
        seed in any::<u64>(),
        points in 1u32..2000,
        k in 1usize..20,
        per_chunk in 1usize..300,
        batch in 1usize..6,
        verdicts in verdicts(),
    ) {
        let data = gen_id_points::<3>(points, seed);
        let app = Knn::new([0.5f32; 3], k);
        lifecycle_matches_reference(&app, &data, per_chunk, batch, &verdicts, |a: &KnnObj, b| a == b);
    }

    #[test]
    fn wordcount_default_hooks_match_merge(
        seed in any::<u64>(),
        words in 1u32..2000,
        vocab in 1u32..200,
        per_chunk in 1usize..300,
        batch in 1usize..6,
        verdicts in verdicts(),
    ) {
        let data = gen_words(words, vocab, seed);
        lifecycle_matches_reference(
            &WordCount,
            &data,
            per_chunk,
            batch,
            &verdicts,
            |a: &WordCounts, b| a == b,
        );
    }
}
