//! Property tests for the scratch-object lifecycle (`Reduction::commit` /
//! `Reduction::discard`).
//!
//! The runtime keeps one scratch reduction object per worker, reduces every
//! job of a hand-off into it through `reduce_units`, keeps the jobs' encoded
//! chunks, and relies on two things for every shipped application:
//! committing from the reused scratch — over one job's chunk or several
//! jobs' chunks in order — leaves the accumulator bit-equal to merging a
//! freshly made object that the same units were reduced into, and after
//! every `commit` and `discard` the scratch is indistinguishable from a fresh
//! `make_robj()`. A batch with a rejected job in it is settled the way the
//! runtime does it: the scratch is discarded over the whole batch's chunks
//! and every accepted job is reduced from its chunk and committed again on
//! its own. A job that panics mid-reduce is modelled the way the runtime
//! handles it too: the half-applied scratch is dropped, the jobs open before
//! it are settled one by one, and the next job makes a new scratch.

use bytes::Bytes;
use cloudburst_apps::gen::{gen_clustered_points, gen_edges, gen_id_points, gen_words};
use cloudburst_apps::gridding::gen_samples;
use cloudburst_apps::{
    Grid2D, Gridding, KMeans, KMeansObj, Knn, KnnObj, PageRank, RankMass, WordCount, WordCounts,
};
use cloudburst_core::{Merge, Reduction};
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
/// through the one call the runtime makes on fetched data.
fn reduce<R: Reduction>(app: &R, robj: &mut R::RObj, chunk: &[u8]) {
    let mut buf = Vec::new();
    for group in chunk.chunks(7 * app.unit_size()) {
        app.reduce_units(robj, group, &mut buf);
    }
}

/// Run `data` as jobs of `units_per_chunk` units under `verdicts` (cycled),
/// settled `batch` jobs at a time, two ways — one reused scratch with
/// `commit`/`discard` over the open jobs' encoded chunks as the runtime
/// drives them, and freshly made objects with `merge` (one per batch when all
/// of it is accepted, else one per accepted job) — checking the contract
/// after every settlement. `same` is the application's notion of
/// "bit-equal".
fn reused_scratch_matches_fresh_objects<R: Reduction>(
    app: &R,
    data: &[u8],
    units_per_chunk: usize,
    batch: usize,
    verdicts: &[Verdict],
    same: impl Fn(&R::RObj, &R::RObj) -> bool,
) {
    let mut acc = app.make_robj();
    let mut scratch: Option<R::RObj> = None;
    let mut reference = app.make_robj();
    // The open jobs' chunks, one job after the other; each open job's place
    // among them and whether it will be accepted; and what a fresh object
    // per batch would hold.
    let mut chunks: Vec<Bytes> = Vec::new();
    let mut open: Vec<(usize, bool)> = Vec::new();
    let mut fresh = app.make_robj();
    let unit = app.unit_size();
    let jobs: Vec<&[u8]> = data.chunks(units_per_chunk * unit).collect();
    for (job, (chunk, verdict)) in jobs.iter().zip(verdicts.iter().cycle()).enumerate() {
        let reused = scratch.get_or_insert_with(|| app.make_robj());
        if matches!(verdict, Verdict::Panic) {
            reduce(app, reused, &chunk[..chunk.len() / unit / 2 * unit]);
            scratch = None;
        } else {
            reduce(app, reused, chunk);
            reduce(app, &mut fresh, chunk);
            open.push((chunks.len(), matches!(verdict, Verdict::Accept)));
            chunks.push(Bytes::from(chunk.to_vec()));
            if open.len() < batch && job + 1 < jobs.len() {
                continue;
            }
        }
        match &mut scratch {
            Some(reused) if open.iter().all(|(_, accepted)| *accepted) => {
                app.commit(&mut acc, reused, &chunks);
                reference.merge(std::mem::replace(&mut fresh, app.make_robj()));
            }
            reused => {
                if let Some(reused) = reused.as_mut() {
                    app.discard(reused, &chunks);
                    assert!(
                        same(reused, &app.make_robj()),
                        "job {job}: scratch not fresh, discard"
                    );
                }
                for &(at, _) in open.iter().filter(|(_, accepted)| *accepted) {
                    let kept = &chunks[at..=at];
                    let reused = reused.get_or_insert_with(|| app.make_robj());
                    reduce(app, reused, &kept[0]);
                    app.commit(&mut acc, reused, kept);
                    let mut alone = app.make_robj();
                    reduce(app, &mut alone, &kept[0]);
                    reference.merge(alone);
                }
                fresh = app.make_robj();
            }
        }
        if let Some(reused) = &scratch {
            assert!(
                same(reused, &app.make_robj()),
                "job {job}: scratch not fresh after {verdict:?}"
            );
        }
        assert!(same(&acc, &reference), "job {job}: accumulator diverged after {verdict:?}");
        chunks.clear();
        open.clear();
    }
}

proptest! {
    #[test]
    fn pagerank_commit_is_bit_equal_to_dense_merge(
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
        reused_scratch_matches_fresh_objects(&app, &data, per_chunk, batch, &verdicts, |a: &RankMass, b| {
            f64_bits(&a.0).eq(f64_bits(&b.0))
        });
    }

    #[test]
    fn gridding_commit_is_bit_equal_to_dense_merge(
        seed in any::<u64>(),
        (width, height) in (1usize..48, 1usize..48),
        samples in 1u32..3000,
        per_chunk in 1usize..400,
        batch in 1usize..6,
        verdicts in verdicts(),
    ) {
        let data = gen_samples(samples, 3, seed);
        let app = Gridding::new(width, height);
        reused_scratch_matches_fresh_objects(&app, &data, per_chunk, batch, &verdicts, |a: &Grid2D, b| {
            a.counts == b.counts && f64_bits(&a.sums).eq(f64_bits(&b.sums))
        });
    }

    #[test]
    fn kmeans_default_commit_matches_merge(
        seed in any::<u64>(),
        points in 1u32..2000,
        per_chunk in 1usize..300,
        batch in 1usize..6,
        verdicts in verdicts(),
    ) {
        let (data, centers) = gen_clustered_points::<3>(points, 4, 0.05, seed);
        let app = KMeans::new(centers.iter().map(|c| c.map(f64::from)).collect());
        reused_scratch_matches_fresh_objects(&app, &data, per_chunk, batch, &verdicts, |a: &KMeansObj, b| {
            a.counts == b.counts && f64_bits(&a.sums).eq(f64_bits(&b.sums))
        });
    }

    #[test]
    fn knn_default_commit_matches_merge(
        seed in any::<u64>(),
        points in 1u32..2000,
        k in 1usize..20,
        per_chunk in 1usize..300,
        batch in 1usize..6,
        verdicts in verdicts(),
    ) {
        let data = gen_id_points::<3>(points, seed);
        let app = Knn::new([0.5f32; 3], k);
        reused_scratch_matches_fresh_objects(&app, &data, per_chunk, batch, &verdicts, |a: &KnnObj, b| a == b);
    }

    #[test]
    fn wordcount_default_commit_matches_merge(
        seed in any::<u64>(),
        words in 1u32..2000,
        vocab in 1u32..200,
        per_chunk in 1usize..300,
        batch in 1usize..6,
        verdicts in verdicts(),
    ) {
        let data = gen_words(words, vocab, seed);
        reused_scratch_matches_fresh_objects(
            &WordCount,
            &data,
            per_chunk,
            batch,
            &verdicts,
            |a: &WordCounts, b| a == b,
        );
    }
}
