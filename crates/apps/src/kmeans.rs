//! k-Means clustering — "heavy computation resulting in low to medium I/O,
//! and a small reduction object" (paper §IV-A).
//!
//! One framework run performs one Lloyd iteration: every point is assigned
//! to its nearest centroid and folded into per-centroid coordinate sums.
//! The reduction object is `k × (D sums + count)` — kilobytes regardless of
//! dataset size. The per-unit cost is `k·D` multiply-adds, which is what
//! makes kmeans the compute-bound application of the trio.
//!
//! `reduce_group` and `reduce_units` run that loop as the kernel in
//! `kmeans_kernel` where the CPU has AVX-512F or AVX2 and FMA: per
//! centroid, `D` fused multiply-adds in `f32` on coordinates centred at the
//! centroids' mean, then one vectorised `f64` check per block that proves
//! each pick is the one `nearest` makes, and a vector fold of the proven
//! points. Points the check cannot prove go through `local_reduce`; the
//! accumulator is the same bits either way. `nearest`, `local_reduce` and
//! [`kmeans_oracle`] stay the plain loops they are checked against.

use crate::kmeans_kernel::{Filter, Group};
use crate::units::{decode_all, dist2, Point};
use cloudburst_core::{Merge, Reduction, ReductionObject};
use cloudburst_mapreduce::MapReduceApp;

/// The k-means reduction object: per-centroid coordinate sums and counts.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansObj {
    /// Flattened `k × D` coordinate sums.
    pub sums: Vec<f64>,
    /// Points assigned per centroid.
    pub counts: Vec<u64>,
}

impl KMeansObj {
    /// A zeroed accumulator for `k` centroids in `D` dimensions.
    #[must_use]
    pub fn zeros(k: usize, dim: usize) -> KMeansObj {
        KMeansObj { sums: vec![0.0; k * dim], counts: vec![0; k] }
    }

    /// The updated centroids; centroids with no assigned points keep their
    /// previous position.
    #[must_use]
    pub fn new_centroids<const D: usize>(&self, previous: &[[f64; D]]) -> Vec<[f64; D]> {
        let k = self.counts.len();
        let mut out = Vec::with_capacity(k);
        for (c, (&count, &prev)) in self.counts.iter().zip(previous).enumerate() {
            if count == 0 {
                out.push(prev);
                continue;
            }
            let mut centroid = [0f64; D];
            for (d, x) in centroid.iter_mut().enumerate() {
                *x = self.sums[c * D + d] / count as f64;
            }
            out.push(centroid);
        }
        out
    }
}

impl Merge for KMeansObj {
    /// # Panics
    /// Panics when the accumulators have different shapes.
    fn merge(&mut self, other: Self) {
        assert_eq!(self.sums.len(), other.sums.len(), "kmeans robj shape mismatch");
        assert_eq!(self.counts.len(), other.counts.len(), "kmeans robj shape mismatch");
        for (a, b) in self.sums.iter_mut().zip(other.sums) {
            *a += b;
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
    }
}

impl ReductionObject for KMeansObj {
    fn byte_size(&self) -> usize {
        self.sums.len() * 8 + self.counts.len() * 8
    }
}

/// One Lloyd iteration of k-means over `D`-dimensional points.
#[derive(Debug, Clone)]
pub struct KMeans<const D: usize> {
    centroids: Vec<[f64; D]>,
    /// `centroids` again, as the assignment kernel reads them. Both fields
    /// are private and set together in [`KMeans::new`], so they cannot
    /// disagree.
    filter: Filter<D>,
}

impl<const D: usize> KMeans<D> {
    /// An iteration against the given centroids.
    ///
    /// # Panics
    /// Panics when `centroids` is empty.
    #[must_use]
    pub fn new(centroids: Vec<[f64; D]>) -> KMeans<D> {
        assert!(!centroids.is_empty(), "kmeans needs at least one centroid");
        let filter = Filter::new(&centroids);
        KMeans { centroids, filter }
    }

    /// The centroids this iteration assigns points to.
    #[must_use]
    pub fn centroids(&self) -> &[[f64; D]] {
        &self.centroids
    }

    /// Index of the centroid nearest to `p`.
    #[must_use]
    pub fn nearest(&self, p: &[f32; D]) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, c) in self.centroids.iter().enumerate() {
            let d = dist2(p, c);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }
}

impl<const D: usize> Reduction for KMeans<D> {
    type Item = Point<D>;
    type RObj = KMeansObj;

    fn make_robj(&self) -> KMeansObj {
        KMeansObj::zeros(self.centroids.len(), D)
    }

    fn unit_size(&self) -> usize {
        Point::<D>::SIZE
    }

    fn decode(&self, chunk: &[u8], out: &mut Vec<Point<D>>) {
        decode_all(chunk, Point::<D>::SIZE, out, Point::<D>::decode);
    }

    fn local_reduce(&self, robj: &mut KMeansObj, item: &Point<D>) {
        let c = self.nearest(&item.0);
        for (d, &x) in item.0.iter().enumerate() {
            robj.sums[c * D + d] += f64::from(x);
        }
        robj.counts[c] += 1;
    }

    /// The filter-and-certify kernel where the CPU has AVX-512F or AVX2 and
    /// FMA, the `local_reduce` loop elsewhere; the two produce the same bits
    /// (see `kmeans_kernel`).
    fn reduce_group(&self, robj: &mut KMeansObj, items: &[Point<D>]) {
        if self.filter.reduce(self, robj, Group::Points(items)).is_none() {
            for item in items {
                self.local_reduce(robj, item);
            }
        }
    }

    /// The same kernel reading the points where they lie in the chunk, so
    /// `buf` is touched only on a CPU with no kernel.
    fn reduce_units(&self, robj: &mut KMeansObj, units: &[u8], buf: &mut Vec<Point<D>>) {
        debug_assert_eq!(units.len() % Point::<D>::SIZE, 0, "chunk not unit-aligned");
        if self.filter.reduce(self, robj, Group::Units(units)).is_none() {
            buf.clear();
            decode_all(units, Point::<D>::SIZE, buf, Point::<D>::decode);
            for item in buf.iter() {
                self.local_reduce(robj, item);
            }
        }
    }
}

/// A per-centroid partial aggregate flowing through the MapReduce shuffle.
#[derive(Debug, Clone, PartialEq)]
pub struct Partial<const D: usize> {
    /// Coordinate sums.
    pub sums: [f64; D],
    /// Point count.
    pub count: u64,
}

/// The MapReduce formulation: map each point to `(centroid, partial sum)`;
/// the combiner/reducer add partials. Note the per-point heap value the
/// fused API never materializes — the §III-A ablation measures exactly this.
impl<const D: usize> MapReduceApp for KMeans<D> {
    type Item = Point<D>;
    type Key = u32;
    type Value = Partial<D>;

    fn unit_size(&self) -> usize {
        Point::<D>::SIZE
    }

    fn decode(&self, chunk: &[u8], out: &mut Vec<Point<D>>) {
        decode_all(chunk, Point::<D>::SIZE, out, Point::<D>::decode);
    }

    fn map(&self, item: &Point<D>, emit: &mut dyn FnMut(u32, Partial<D>)) {
        let c = self.nearest(&item.0);
        let mut sums = [0f64; D];
        for (s, &x) in sums.iter_mut().zip(&item.0) {
            *s = f64::from(x);
        }
        emit(c as u32, Partial { sums, count: 1 });
    }

    fn reduce(&self, _key: &u32, values: Vec<Partial<D>>) -> Partial<D> {
        let mut acc = Partial { sums: [0f64; D], count: 0 };
        for v in values {
            for (a, b) in acc.sums.iter_mut().zip(v.sums) {
                *a += b;
            }
            acc.count += v.count;
        }
        acc
    }

    fn combine(&self, key: &u32, values: Vec<Partial<D>>) -> Vec<Partial<D>> {
        vec![self.reduce(key, values)]
    }

    fn has_combiner(&self) -> bool {
        true
    }
}

/// Serial oracle: one Lloyd iteration with plain loops.
#[must_use]
pub fn kmeans_oracle<const D: usize>(data: &[u8], centroids: &[[f64; D]]) -> KMeansObj {
    let app = KMeans::new(centroids.to_vec());
    let mut pts = Vec::new();
    decode_all(data, Point::<D>::SIZE, &mut pts, Point::<D>::decode);
    let mut obj = KMeansObj::zeros(centroids.len(), D);
    for p in &pts {
        Reduction::local_reduce(&app, &mut obj, p);
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_clustered_points;
    use crate::kmeans_kernel::{Group, Width};
    use bytes::{BufMut, BytesMut};
    use cloudburst_core::reduce_serial;

    fn initial_centroids<const D: usize>(k: usize) -> Vec<[f64; D]> {
        (0..k)
            .map(|i| {
                let mut c = [0f64; D];
                c.iter_mut().for_each(|x| *x = (i as f64 + 0.5) / k as f64);
                c
            })
            .collect()
    }

    #[test]
    fn genred_matches_oracle() {
        let (data, _) = gen_clustered_points::<3>(400, 4, 0.05, 17);
        let app = KMeans::new(initial_centroids::<3>(4));
        let robj = reduce_serial(&app, [data.as_ref()]);
        let oracle = kmeans_oracle(&data, &app.centroids);
        assert_eq!(robj, oracle);
        assert_eq!(robj.counts.iter().sum::<u64>(), 400);
    }

    #[test]
    fn merge_of_partitions_matches_whole() {
        let (data, _) = gen_clustered_points::<2>(256, 3, 0.1, 23);
        let app = KMeans::new(initial_centroids::<2>(3));
        let cut = (data.len() / 2) - (data.len() / 2) % Point::<2>::SIZE;
        let mut a = reduce_serial(&app, [&data[..cut]]);
        let b = reduce_serial(&app, [&data[cut..]]);
        a.merge(b);
        assert_eq!(a, kmeans_oracle(&data, &app.centroids));
    }

    #[test]
    fn lloyd_iterations_converge_to_true_centers() {
        let (data, truth) = gen_clustered_points::<2>(3000, 3, 0.02, 41);
        // Start beside the generator's own centres, not from a fixed grid:
        // which grid cell captures which cluster depends on where the seed's
        // random stream put the centres, and this test is about Lloyd
        // iterations pulling a nearby start onto the cluster.
        let mut centroids: Vec<[f64; 2]> =
            truth.iter().map(|t| [f64::from(t[0]) + 0.03, f64::from(t[1]) - 0.03]).collect();
        for _ in 0..10 {
            let app = KMeans::new(centroids.clone());
            let obj = reduce_serial(&app, [data.as_ref()]);
            centroids = obj.new_centroids(&centroids);
        }
        // Every true center must have a learned centroid nearby — nearer
        // than the start was (0.03² + 0.03² = 1.8e-3).
        for t in &truth {
            let nearest = centroids.iter().map(|c| dist2(t, c)).fold(f64::INFINITY, f64::min);
            assert!(nearest < 1e-3, "no centroid near true center {t:?} ({nearest})");
        }
    }

    #[test]
    fn empty_cluster_keeps_previous_centroid() {
        let obj = KMeansObj::zeros(2, 2);
        let prev = [[0.25, 0.25], [0.75, 0.75]];
        assert_eq!(obj.new_centroids(&prev), prev.to_vec());
    }

    #[test]
    fn robj_size_is_independent_of_data() {
        let app = KMeans::new(initial_centroids::<4>(10));
        let robj = Reduction::make_robj(&app);
        assert_eq!(robj.byte_size(), 10 * 4 * 8 + 10 * 8);
    }

    #[test]
    fn mapreduce_matches_genred() {
        use cloudburst_mapreduce::{run_mapreduce, EngineConfig};
        let (data, _) = gen_clustered_points::<2>(300, 3, 0.05, 29);
        let app = KMeans::new(initial_centroids::<2>(3));
        let chunks: Vec<&[u8]> = data.chunks(64 * Point::<2>::SIZE).collect();
        let (res, _) = run_mapreduce(&app, &chunks, EngineConfig::default());
        let oracle = kmeans_oracle(&data, &app.centroids);
        for (key, partial) in res {
            let c = key as usize;
            assert_eq!(partial.count, oracle.counts[c]);
            for d in 0..2 {
                assert!((partial.sums[d] - oracle.sums[c * 2 + d]).abs() < 1e-9);
            }
        }
    }

    /// splitmix64: the kernel tests' own generator, so they run (and repeat)
    /// in every configuration, with or without `proptest` and `rand`.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A coordinate in `[0, 1)` on a 1/1024 grid: coarse enough that
        /// equidistant centroids (ties) occur without being arranged.
        fn coord(&mut self) -> f32 {
            (self.next() % 1024) as f32 / 1024.0
        }
    }

    /// `==` would call two NaN sums different and `+0.0` and `-0.0` the
    /// same; the kernel promises the same bits, so compare bits — with every
    /// NaN as one value, because which operand's sign and payload a NaN sum
    /// inherits is the compiler's choice (`a + b` may be emitted as `b + a`)
    /// and differs between builds of the reference loop itself.
    fn bits(obj: &KMeansObj) -> (Vec<u64>, &[u64]) {
        let canonical = |s: &f64| if s.is_nan() { f64::NAN.to_bits() } else { s.to_bits() };
        (obj.sums.iter().map(canonical).collect(), &obj.counts)
    }

    /// The reference fold.
    fn fold<const D: usize>(app: &KMeans<D>, items: &[Point<D>]) -> KMeansObj {
        let mut want = app.make_robj();
        for item in items {
            app.local_reduce(&mut want, item);
        }
        want
    }

    /// The reference fold against the dispatching `reduce_group` and
    /// `reduce_units` and each kernel width called directly on both sources:
    /// the points decoded, and their encoding read in place — from an odd
    /// byte offset, whole and cut into groups of sizes that are and are not
    /// multiples of a block. Returns the widths that ran, each with the
    /// number of points it sent through the reference scan.
    fn kernel_matches_fold<const D: usize>(
        app: &KMeans<D>,
        items: &[Point<D>],
    ) -> Vec<(Width, usize)> {
        let want = fold(app, items);
        let (k, n) = (app.centroids.len(), items.len());
        // One byte in: a fetched chunk may start at any address.
        let mut encoded = BytesMut::new();
        encoded.put_u8(0xA5);
        items.iter().for_each(|p| p.encode(&mut encoded));
        let units = &encoded[1..];
        let mut got = app.make_robj();
        app.reduce_group(&mut got, items);
        assert_eq!(bits(&got), bits(&want), "reduce_group, k={k} D={D} n={n}");
        let mut buf = Vec::new();
        let mut got = app.make_robj();
        app.reduce_units(&mut got, units, &mut buf);
        assert_eq!(bits(&got), bits(&want), "reduce_units, k={k} D={D} n={n}");
        let mut ran = Vec::new();
        for width in Width::ALL {
            let mut got = app.make_robj();
            let Some(fallbacks) = app.filter.fold(width, app, &mut got, Group::Points(items))
            else {
                continue;
            };
            assert_eq!(bits(&got), bits(&want), "{width:?} on points, k={k} D={D} n={n}");
            let mut got = app.make_robj();
            let read = app.filter.fold(width, app, &mut got, Group::Units(units));
            assert_eq!(bits(&got), bits(&want), "{width:?} on units, k={k} D={D} n={n}");
            assert_eq!(read, Some(fallbacks), "{width:?}: the same points fall back");
            for cut in [3, 16, 37] {
                let mut got = app.make_robj();
                for group in units.chunks(cut * Point::<D>::SIZE) {
                    app.filter.fold(width, app, &mut got, Group::Units(group));
                }
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{width:?} on units by {cut}, k={k} D={D} n={n}"
                );
            }
            ran.push((width, fallbacks));
        }
        ran
    }

    /// Say on stderr which widths this CPU could not run, past libtest's
    /// capture (which only intercepts the print macros).
    fn report_skipped(ran: &[(Width, usize)]) {
        use std::io::Write;
        for width in Width::ALL {
            if !ran.iter().any(|&(w, _)| w == width) {
                let _ = writeln!(
                    std::io::stderr(),
                    "skipped: kernel width {width:?} (not on this CPU)"
                );
            }
        }
    }

    fn kernel_cases<const D: usize>(rng: &mut SplitMix) -> Vec<(Width, usize)> {
        let mut ran = Vec::new();
        for k in [1, 5, 8, 9, 16, 17, 32, 33] {
            let mut centroids: Vec<[f64; D]> = Vec::with_capacity(k);
            for i in 0..k {
                // One centroid in four repeats an earlier one: a tie the
                // lower index must win.
                let c = match rng.next() % 4 {
                    0 if i > 0 => centroids[rng.next() as usize % i],
                    _ => [0; D].map(|_| f64::from(rng.coord())),
                };
                centroids.push(c);
            }
            let app = KMeans::new(centroids);
            for len in [0, 1, 7, 15, 17, 33, 1024] {
                let items: Vec<Point<D>> = (0..len)
                    .map(|_| match rng.next() % 8 {
                        // A point on a centroid (distance exactly 0)...
                        0 => Point(app.centroids[rng.next() as usize % k].map(|x| x as f32)),
                        // ...one of `f32` subnormals...
                        2 => Point([0; D].map(|_| f32::from_bits(rng.next() as u32 & 0x807F_FFFF))),
                        // ...and one no centroid can win: every distance is
                        // +inf or NaN, so it folds into centroid 0.
                        1 => {
                            let mut p = [0; D].map(|_| rng.coord());
                            p[rng.next() as usize % D] =
                                [f32::INFINITY, f32::NEG_INFINITY, f32::NAN]
                                    [rng.next() as usize % 3];
                            Point(p)
                        }
                        _ => Point([0; D].map(|_| rng.coord())),
                    })
                    .collect();
                ran.extend(kernel_matches_fold(&app, &items));
            }
        }
        ran
    }

    #[test]
    fn reduce_group_is_bit_exact_against_the_local_reduce_fold() {
        let mut rng = SplitMix(19);
        let mut ran = kernel_cases::<2>(&mut rng);
        ran.extend(kernel_cases::<3>(&mut rng));
        ran.extend(kernel_cases::<4>(&mut rng));
        ran.extend(kernel_cases::<8>(&mut rng));
        report_skipped(&ran);
    }

    /// `x` moved `steps` units in the last place (negative: towards −∞).
    fn ulps(x: f32, steps: i64) -> f32 {
        (0..steps.abs()).fold(x, |x, _| if steps > 0 { x.next_up() } else { x.next_down() })
    }

    /// Points on the bisector of centroids `a` and `b` (their midpoint in
    /// `f32`, and that point slid along the bisector) and 1–4 `f32` ulps off
    /// it, every coordinate moved independently.
    fn around_the_bisector<const D: usize>(
        rng: &mut SplitMix,
        a: [f64; D],
        b: [f64; D],
    ) -> Vec<Point<D>> {
        let mut points = Vec::new();
        for _ in 0..8 {
            // A direction orthogonal to `b − a`, to slide along the bisector.
            let ab: [f64; D] = std::array::from_fn(|d| b[d] - a[d]);
            let mut v = [0; D].map(|_| f64::from(rng.coord()) - 0.5);
            let along = v.iter().zip(&ab).map(|(v, w)| v * w).sum::<f64>()
                / ab.iter().map(|w| w * w).sum::<f64>().max(f64::MIN_POSITIVE);
            v.iter_mut().zip(&ab).for_each(|(v, w)| *v -= along * w);
            let t = f64::from(rng.coord()) * 0.2;
            let on: [f32; D] = std::array::from_fn(|d| ((a[d] + b[d]) / 2.0 + t * v[d]) as f32);
            points.push(Point(on));
            for _ in 0..8 {
                points.push(Point(on.map(|x| ulps(x, (rng.next() % 9) as i64 - 4))));
            }
        }
        points
    }

    /// A coordinate in `[0, 1)` with all 53 bits of an `f64`: `f32` cannot
    /// hold it, so a centroid made of them has `r > 0`.
    fn fine(rng: &mut SplitMix) -> f64 {
        (rng.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn the_certificate_holds_at_its_edges() {
        let mut ran = certificate_edges::<4>(&mut SplitMix(5));
        ran.extend(certificate_edges::<8>(&mut SplitMix(5)));
        report_skipped(&ran);
    }

    /// [`kernel_matches_fold`] at the certificate's edges, in `D`
    /// dimensions: the widths that ran, with their fallbacks.
    fn certificate_edges<const D: usize>(rng: &mut SplitMix) -> Vec<(Width, usize)> {
        let mut ran = Vec::new();
        let mut check = |centroids: &[[f64; D]], items: &[Point<D>]| {
            ran.extend(kernel_matches_fold(&KMeans::new(centroids.to_vec()), items));
        };
        // `D` coordinates, the first `first` and the rest `rest`.
        let lead = |first: f64, rest: f64| -> [f64; D] {
            std::array::from_fn(|d| if d == 0 { first } else { rest })
        };
        // Exact and near ties between `f32`-representable centroids
        // (r = 0), with a far centroid so `m2` has more than one candidate.
        for _ in 0..64 {
            let (a, b) =
                ([0; D].map(|_| f64::from(rng.coord())), [0; D].map(|_| f64::from(rng.coord())));
            let items = around_the_bisector(rng, a, b);
            check(&[a, b, [9.0; D]], &items);
            check(&[[9.0; D], b, a], &items);
        }
        // Centroids `f32` cannot hold: r > 0, and rounding them moves the
        // bisector by as much as the points are off it. Far from the
        // origin the points' own rounding joins in.
        for i in 0..64 {
            let at = [0.0, 100.0][i % 2];
            let (a, b) = ([0; D].map(|_| at + fine(rng)), [0; D].map(|_| at + fine(rng)));
            assert!(KMeans::new(vec![a, b]).filter.r() > 0.0);
            let items = around_the_bisector(rng, a, b);
            check(&[a, b, [0; D].map(|_| fine(rng))], &items);
        }
        // 1e-20 apart around the origin: every square is an `f32`
        // subnormal or underflows to zero.
        for _ in 0..16 {
            let tiny = |rng: &mut SplitMix| [0; D].map(|_| (fine(rng) - 0.5) * 1e-20);
            let (a, b) = (tiny(rng), tiny(rng));
            let mut items = around_the_bisector(rng, a, b);
            items.extend((0..64).map(|_| Point([0; D].map(|_| (fine(rng) - 0.5) as f32 * 2e-20))));
            items.extend((-3..=3).map(|i| {
                Point(std::array::from_fn(
                    |d| if d == 0 { i as f32 * f32::from_bits(1) } else { 0.0 },
                ))
            }));
            // Off the bisector by as little as the subnormal grid resolves.
            for scale in [1e-27, 1e-26, 1e-25, 1e-24] {
                items.extend((0..16).map(|_| {
                    Point(std::array::from_fn(|d| {
                        ((a[d] + b[d]) / 2.0 + (fine(rng) - 0.5) * scale) as f32
                    }))
                }));
            }
            check(&[a, b, tiny(rng)], &items);
        }
        // Squares beyond `f32` range: the centred centroids' squares and
        // the points' `‖x′‖²` overflow to +∞.
        let mut last = [0.0; D];
        (last[0], last[D - 1]) = (3e19, 1e19);
        let huge = [[2e19; D], lead(-2e19, 2e19), last];
        let mut items = around_the_bisector(rng, huge[0], huge[1]);
        items.extend((0..64).map(|_| Point([0; D].map(|_| (rng.coord() - 0.5) * 8e19))));
        check(&huge, &items);
        // Centroids beyond `f32` range: r = ∞, nothing is certified.
        let items: Vec<Point<D>> = (0..64).map(|_| Point([0; D].map(|_| rng.coord()))).collect();
        for far in [1e39, 1e300, f64::INFINITY] {
            check(&[[0.25; D], lead(far, 0.5), [0.75; D]], &items);
        }
        // Duplicated centroids: equal distances, the lower index wins.
        check(&[[0.25; D], [0.75; D], [0.25; D], [0.75; D], [0.5; D]], &items);
        ran
    }

    /// Steps 1–2 of the certificate's derivation, checked directly: for
    /// random `f32` points and centroids near the origin, far from it, with
    /// subnormal squares, with subnormal coordinates, and near `f32`
    /// overflow, stage 1's `‖x′‖²` stays under the bound stage 2 puts on it,
    /// and every score within the charge of `‖x′ − ĉⱼ‖² − ‖x′‖²`, computed in
    /// `f64` from the same `f32` inputs (exact products; the sum's own
    /// rounding, under `2⁻⁴⁸` of the terms, is what the `2⁻²⁰` of slack
    /// allows). Whether any point falls back plays no part.
    #[test]
    fn stage_one_stays_within_what_stage_two_charges() {
        let mut rng = SplitMix(11);
        stage_one_bound::<4>(&mut rng);
        stage_one_bound::<8>(&mut rng);
    }

    fn stage_one_bound<const D: usize>(rng: &mut SplitMix) {
        let slack = 1.0 + 1.0 / f64::from(1u32 << 20);
        // Centroids at `at` ± `spread / 2`, points at `at` ± `reach / 2`.
        let cases = [
            (0.0, 1.0, 1.0),
            (1e3, 1.0, 1.0),
            (-3e4, 10.0, 10.0),
            (1e6, 1e3, 1e3),
            (0.0, 1e-20, 1e-20),
            (0.0, 1e-22, 1e-22),
            (0.0, 1e-40, 1e-40),
            (1e-38, 1e-39, 1e-39),
            (0.0, 2e18, 2e18),
            (0.0, 1e18, 1.2e19),
        ];
        for (at, spread, reach) in cases {
            let coord = |rng: &mut SplitMix, scale: f64| at + (fine(rng) - 0.5) * scale;
            let app = KMeans::new((0..9).map(|_| [0; D].map(|_| coord(rng, spread))).collect());
            let (centred, origin) = app.filter.centred();
            let mut charged = 0;
            for _ in 0..512 {
                let x: [f32; D] = [0; D].map(|_| coord(rng, reach) as f32);
                let (nx, scores) = app.filter.scores(&x);
                let Some((x_bar, charge)) = app.filter.charges(nx) else {
                    continue;
                };
                charged += 1;
                let x: [f64; D] = std::array::from_fn(|d| f64::from(x[d] - origin[d]));
                let norm: f64 = x.iter().map(|x| x * x).sum();
                assert!(norm <= x_bar, "D={D} at {at} ± {reach}: ‖x′‖² {norm} > {x_bar}");
                for (c, &s) in centred.iter().zip(&scores) {
                    let exact: f64 = c
                        .iter()
                        .zip(&x)
                        .map(|(&c, &x)| f64::from(c) * (f64::from(c) - 2.0 * x))
                        .sum();
                    let err = (f64::from(s) - exact).abs();
                    assert!(
                        err <= charge * slack,
                        "D={D} at {at} ± {reach}: score {s} is {err} off {exact}, charged {charge}"
                    );
                }
            }
            assert!(charged > 256, "D={D} at {at} ± {reach}: {charged} of 512 points charged");
        }
    }

    #[test]
    fn the_filter_certifies_nearly_every_clustered_point() {
        // The ladder's shape: k = 32, D = 8, spread 0.08, started from the
        // first 32 points.
        let (data, _) = gen_clustered_points::<8>(16_384, 32, 0.08, 42);
        let mut items = Vec::new();
        decode_all(&data, Point::<8>::SIZE, &mut items, Point::<8>::decode);
        let mut centroids: Vec<[f64; 8]> = items[..32].iter().map(|p| p.0.map(f64::from)).collect();
        let mut ran = Vec::new();
        for step in 0..2 {
            let app = KMeans::new(centroids.clone());
            for (width, fallbacks) in kernel_matches_fold(&app, &items) {
                assert!(
                    fallbacks * 100 <= items.len(),
                    "{width:?}, step {step}: {fallbacks} of {} points fell back",
                    items.len()
                );
                ran.push((width, fallbacks));
            }
            // After one Lloyd step the centroids are no longer f32 values.
            centroids = fold(&app, &items).new_centroids(&centroids);
        }
        report_skipped(&ran);
    }

    /// Steps 4–8 of the derivation, checked directly: wherever stage 2's
    /// linear test passes, the inequality it stands for holds, `√b − δ >
    /// κ(√a + δ) + θ` at the largest `‖x′‖²` stage 1 allows (the worst
    /// case: the left side falls faster as it grows), with `a`, `b` the
    /// bounds on the nearest and the runner-up, `δ = u₃₂·√X̄ + r` and `κ`,
    /// `θ` the reference's rounding, each computed here from its
    /// definition. `m2` is the smallest `f32` that passes, for `‖x′‖²`,
    /// nearest distances and centroid spreads over many orders of
    /// magnitude.
    #[test]
    fn stage_two_passes_only_where_its_inequality_holds() {
        let mut rng = SplitMix(13);
        stage_two_holds::<4>(&mut rng);
        stage_two_holds::<8>(&mut rng);
    }

    fn stage_two_holds<const D: usize>(rng: &mut SplitMix) {
        let g64 = {
            let nu = (D + 3) as f64 * f64::EPSILON / 2.0;
            nu / (1.0 - nu)
        };
        let kappa = ((1.0 + g64) / (1.0 - g64)).sqrt();
        let theta = (4.0 * 3.0 * D as f64 * f64::from_bits(1) / (1.0 - g64)).sqrt();
        let u = f64::from(f32::EPSILON) / 2.0;
        // Centroids at `at` ± `scale / 2`, with all 53 bits (r > 0).
        for (at, scale) in [(0.0, 1.0), (1e3, 1.0), (0.0, 1e4), (0.0, 1e-20), (1e6, 1e-3)] {
            let app = KMeans::new(
                (0..9).map(|_| [0; D].map(|_| at + (fine(rng) - 0.5) * scale)).collect(),
            );
            let (filter, r) = (&app.filter, app.filter.r());
            let mut tried = 0;
            for _ in 0..4096 {
                // `‖x′‖²` and the nearest distance `a`, log-uniform.
                let log =
                    |rng: &mut SplitMix, lo: f64, hi: f64| 10f64.powf(lo + fine(rng) * (hi - lo));
                let nx = log(rng, -45.0, 2.0 * (scale + 1.0).log10() + 2.0) as f32;
                let Some((x_bar, charge)) = filter.charges(nx) else {
                    continue;
                };
                let a_want = log(rng, -46.0, (x_bar + 1.0).log10() + 1.0);
                let m1 = (a_want - x_bar - charge) as f32;
                let a = x_bar + f64::from(m1) + charge;
                if a < 0.0 || !filter.passes(nx, m1, f32::MAX) {
                    continue;
                }
                // The smallest `m2` that passes.
                let (mut lo, mut hi) = (m1, f32::MAX);
                while lo.next_up() < hi {
                    let mid = (lo + (hi - lo) / 2.0).clamp(lo.next_up(), hi.next_down());
                    if filter.passes(nx, m1, mid) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                tried += 1;
                let b = x_bar + f64::from(hi) - charge;
                let delta = u * x_bar.sqrt() + r;
                assert!(
                    b >= 0.0 && b.sqrt() - delta > kappa * (a.sqrt() + delta) + theta,
                    "D={D} at {at} ± {scale}: nx {nx} m1 {m1} m2 {hi} (a {a}, b {b}, δ {delta})"
                );
            }
            assert!(tried > 1024, "D={D} at {at} ± {scale}: {tried} cases");
        }
    }

    /// The first 32 points as centroids, and after one Lloyd step: at
    /// most 1 % of `items` may fall back, at every width, from both sources,
    /// with the fold's bits.
    fn nearly_every_point_is_certified(name: &str, items: &[Point<8>]) -> Vec<(Width, usize)> {
        let mut centroids: Vec<[f64; 8]> = items[..32].iter().map(|p| p.0.map(f64::from)).collect();
        let mut ran = Vec::new();
        for step in 0..2 {
            let app = KMeans::new(centroids.clone());
            for (width, fallbacks) in kernel_matches_fold(&app, items) {
                assert!(
                    fallbacks * 100 <= items.len(),
                    "{name}, {width:?}, step {step}: {fallbacks} of {} points fell back",
                    items.len()
                );
                ran.push((width, fallbacks));
            }
            centroids = fold(&app, items).new_centroids(&centroids);
        }
        ran
    }

    #[test]
    fn the_filter_certifies_shifted_and_widely_spread_clusters() {
        // The ladder's shape moved by +1 000 in every coordinate: centred,
        // `x − o` is exact and the scores as small as at the origin.
        let (data, _) = gen_clustered_points::<8>(16_384, 32, 0.08, 42);
        let mut shifted = Vec::new();
        decode_all(&data, Point::<8>::SIZE, &mut shifted, Point::<8>::decode);
        shifted.iter_mut().for_each(|p| p.0 = p.0.map(|x| x + 1000.0));
        // Tight clusters spread wide: 32 centres anywhere in [−10⁴, 10⁴)⁸,
        // each point within 5·10⁻³ of its centre in every coordinate.
        let mut rng = SplitMix(23);
        let centres: Vec<[f32; 8]> =
            (0..32).map(|_| [0; 8].map(|_| ((fine(&mut rng) - 0.5) * 2e4) as f32)).collect();
        let spread: Vec<Point<8>> = (0..16_384)
            .map(|i| Point(centres[i % 32].map(|c| c + (rng.coord() - 0.5) * 1e-2)))
            .collect();
        let mut ran = nearly_every_point_is_certified("shifted", &shifted);
        ran.extend(nearly_every_point_is_certified("spread", &spread));
        report_skipped(&ran);
    }

    /// A dispatcher that always fell back would pass every bit-exact test
    /// and only be slow: on a CPU with AVX2 and FMA, `Filter::reduce` must
    /// run a kernel, and on the ladder's shape send at most 1 % of points
    /// through the reference scan; elsewhere it must leave `robj` alone.
    #[test]
    fn the_dispatcher_runs_a_kernel_wherever_the_cpu_has_one() {
        #[cfg(target_arch = "x86_64")]
        let kernel = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        #[cfg(not(target_arch = "x86_64"))]
        let kernel = false;
        let (data, _) = gen_clustered_points::<8>(16_384, 32, 0.08, 42);
        let mut items = Vec::new();
        decode_all(&data, Point::<8>::SIZE, &mut items, Point::<8>::decode);
        let app = KMeans::new(items[..32].iter().map(|p| p.0.map(f64::from)).collect());
        let want = fold(&app, &items);
        for group in [Group::Points(&items), Group::Units(&data)] {
            let mut got = app.make_robj();
            let fallbacks = app.filter.reduce(&app, &mut got, group);
            if kernel {
                let fallbacks = fallbacks.expect("a CPU with AVX2 and FMA runs a kernel");
                assert!(fallbacks * 100 <= items.len(), "{fallbacks} of {} fell back", items.len());
                assert_eq!(bits(&got), bits(&want));
            } else {
                assert_eq!((fallbacks, got), (None, app.make_robj()));
            }
        }
    }

    #[test]
    fn a_point_no_centroid_beats_folds_into_centroid_zero() {
        let app = KMeans::new(vec![[0.25, 0.25], [0.75, 0.75], [0.5, 0.5]]);
        let items = [Point([f32::NAN, 0.7]), Point([0.7, f32::INFINITY]), Point([0.7, 0.7])];
        assert_eq!(items.each_ref().map(|p| app.nearest(&p.0)), [0, 0, 1]);
        let mut got = app.make_robj();
        app.reduce_group(&mut got, &items);
        assert_eq!(got.counts, [2, 1, 0]);
        assert!(got.sums[0].is_nan() && got.sums[1] == f64::INFINITY);
        assert_eq!(got.sums[2..], [f64::from(0.7f32), f64::from(0.7f32), 0.0, 0.0]);
    }
}
