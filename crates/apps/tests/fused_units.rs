//! Property tests for `Reduction::reduce_units`, the one call the runtime
//! makes on fetched data: for every shipped application, reducing a chunk's
//! encoded units group by group must leave the reduction object bit-equal to
//! decoding each group and handing it to `reduce_group` — whatever the cut
//! of the chunk into groups, whatever byte the chunk starts at, and whatever
//! a reused decode buffer still holds from the group before.

use cloudburst_apps::gen::{gen_clustered_points, gen_edges, gen_id_points, gen_words};
use cloudburst_apps::gridding::gen_samples;
use cloudburst_apps::{
    Grid2D, Gridding, KMeans, KMeansObj, Knn, KnnObj, PageRank, Point, RankMass, WordCount,
    WordCounts,
};
use cloudburst_core::Reduction;
use proptest::prelude::*;

fn f64_bits(xs: &[f64]) -> impl Iterator<Item = u64> + '_ {
    xs.iter().map(|x| x.to_bits())
}

/// `data` cut into groups of `group` units, both ways, the encoded side read
/// from `offset` bytes into its buffer. `same` is the application's notion
/// of "bit-equal".
fn fused_matches_unfused<R: Reduction>(
    app: &R,
    data: &[u8],
    group: usize,
    offset: usize,
    same: impl Fn(&R::RObj, &R::RObj) -> bool,
) {
    let group = group * app.unit_size();
    let mut shifted = vec![0xA5; offset];
    shifted.extend_from_slice(data);
    let units = &shifted[offset..];

    let mut unfused = app.make_robj();
    let mut items = Vec::new();
    for g in data.chunks(group) {
        items.clear();
        app.decode(g, &mut items);
        app.reduce_group(&mut unfused, &items);
    }
    let mut fused = app.make_robj();
    // Left over from a group of something else: never reduced.
    let mut buf = Vec::new();
    app.decode(&data[..data.len().min(3 * app.unit_size())], &mut buf);
    for g in units.chunks(group) {
        app.reduce_units(&mut fused, g, &mut buf);
    }
    assert!(same(&fused, &unfused), "groups of {group} bytes from offset {offset}");
}

proptest! {
    #[test]
    fn kmeans_reduce_units_is_decode_then_reduce_group(
        seed in any::<u64>(),
        points in 1u32..3000,
        k in 1usize..40,
        group in 1usize..200,
        offset in 0usize..8,
    ) {
        let (data, _) = gen_clustered_points::<8>(points, 8, 0.08, seed);
        let (starts, _) = gen_clustered_points::<8>(k as u32, 8, 0.2, seed ^ 1);
        let centroids: Vec<[f64; 8]> =
            starts.chunks_exact(32).map(|p| Point::<8>::decode(p).0.map(f64::from)).collect();
        let app = KMeans::new(centroids);
        fused_matches_unfused(&app, &data, group, offset, |a: &KMeansObj, b| {
            a.counts == b.counts && f64_bits(&a.sums).eq(f64_bits(&b.sums))
        });
    }

    #[test]
    fn pagerank_reduce_units_is_decode_then_reduce_group(
        seed in any::<u64>(),
        pages in 2u32..600,
        edges in 1u32..3000,
        group in 1usize..200,
        offset in 0usize..8,
    ) {
        let data = gen_edges(pages, edges, seed);
        let outdeg = PageRank::outdegrees(&data, pages as usize);
        let ranks = vec![1.0 / f64::from(pages); pages as usize];
        let app = PageRank::new(&ranks, &outdeg, 0.85);
        fused_matches_unfused(&app, &data, group, offset, |a: &RankMass, b| {
            f64_bits(&a.0).eq(f64_bits(&b.0))
        });
    }

    #[test]
    fn gridding_reduce_units_is_decode_then_reduce_group(
        seed in any::<u64>(),
        (width, height) in (1usize..48, 1usize..48),
        samples in 1u32..3000,
        group in 1usize..200,
        offset in 0usize..8,
    ) {
        let data = gen_samples(samples, 3, seed);
        let app = Gridding::new(width, height);
        fused_matches_unfused(&app, &data, group, offset, |a: &Grid2D, b| {
            a.counts == b.counts && f64_bits(&a.sums).eq(f64_bits(&b.sums))
        });
    }

    #[test]
    fn knn_reduce_units_is_decode_then_reduce_group(
        seed in any::<u64>(),
        points in 1u32..3000,
        k in 1usize..20,
        group in 1usize..200,
        offset in 0usize..8,
    ) {
        let data = gen_id_points::<3>(points, seed);
        let app = Knn::new([0.5f32; 3], k);
        fused_matches_unfused(&app, &data, group, offset, |a: &KnnObj, b| a == b);
    }

    #[test]
    fn wordcount_reduce_units_is_decode_then_reduce_group(
        seed in any::<u64>(),
        words in 1u32..3000,
        vocab in 1u32..200,
        group in 1usize..200,
        offset in 0usize..8,
    ) {
        let data = gen_words(words, vocab, seed);
        fused_matches_unfused(&WordCount, &data, group, offset, |a: &WordCounts, b| a == b);
    }
}
