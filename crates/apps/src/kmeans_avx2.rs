//! The k-means assignment kernel: centroids laid out in tiles of eight,
//! scanned with AVX2. This file holds the crate's only `unsafe` — the call
//! into the `target_feature` function and its unaligned loads and stores.
//!
//! The kernel is bit-exact against the scalar `nearest` loop, not close to
//! it. Each lane accumulates one centroid's distance as `acc += (x − c)²`
//! for `d = 0..D` in order, with a separate multiply and add (no FMA), so it
//! holds exactly the bits `units::dist2` produces; the lanes are then
//! scanned in centroid order with the same strict `<`, so ties go to the
//! lowest index and a point no centroid beats (NaN distances) lands on 0.
//! (One thing no Rust loop pins, this or the scalar one: which NaN a sum
//! that has gone NaN holds — its sign and payload follow the operand order
//! the compiler picks for the add.)

use crate::kmeans::KMeansObj;
use crate::units::Point;

/// Centroids per tile: two 4-lane `f64` registers.
const LANES: usize = 8;

/// The centroids of one iteration, dimension-major in tiles of [`LANES`]:
/// coordinate `d` of centroid `t·8 + j` is `lanes[(t·D + d)·8 + j]`. The
/// tail tile is padded with `+∞` coordinates: a padding lane's distance is
/// `+∞` (or NaN against an infinite point) and never passes `d < best_d`.
#[derive(Debug, Clone)]
pub(crate) struct Tiles<const D: usize> {
    lanes: Vec<f64>,
}

impl<const D: usize> Tiles<D> {
    pub(crate) fn new(centroids: &[[f64; D]]) -> Tiles<D> {
        let mut lanes = vec![f64::INFINITY; centroids.len().div_ceil(LANES) * D * LANES];
        for (i, c) in centroids.iter().enumerate() {
            for (d, &x) in c.iter().enumerate() {
                lanes[(i / LANES * D + d) * LANES + i % LANES] = x;
            }
        }
        Tiles { lanes }
    }

    /// Fold `items` into `robj` exactly as the `local_reduce` loop would.
    /// Returns `false`, with `robj` untouched, when the CPU has no AVX2.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn reduce_group(&self, robj: &mut KMeansObj, items: &[Point<D>]) -> bool {
        if !is_x86_feature_detected!("avx2") {
            return false;
        }
        // SAFETY: the CPU reports avx2, the one feature `fold_avx2` enables.
        unsafe { fold_avx2(&self.lanes, robj, items) };
        true
    }

    /// No kernel for this target: the caller keeps the `local_reduce` loop.
    #[cfg(not(target_arch = "x86_64"))]
    pub(crate) fn reduce_group(&self, _robj: &mut KMeansObj, _items: &[Point<D>]) -> bool {
        let _ = &self.lanes; // read only by the kernel
        false
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fold_avx2<const D: usize>(lanes: &[f64], robj: &mut KMeansObj, items: &[Point<D>]) {
    use core::arch::x86_64::{
        _mm256_add_pd, _mm256_cmp_pd, _mm256_loadu_pd, _mm256_movemask_pd, _mm256_mul_pd,
        _mm256_or_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd,
        _CMP_LT_OQ,
    };
    for item in items {
        let x = item.0.map(f64::from);
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (t, tile) in lanes.chunks_exact(D * LANES).enumerate() {
            let mut lo = _mm256_setzero_pd();
            let mut hi = _mm256_setzero_pd();
            for (d, &xd) in x.iter().enumerate() {
                let xd = _mm256_set1_pd(xd);
                // SAFETY: `tile` is `D * LANES` long and `d < D`, so the
                // eight `f64`s from `d * LANES` are inside it; `loadu` asks
                // for no alignment.
                let (c_lo, c_hi) = unsafe {
                    let row = tile.as_ptr().add(d * LANES);
                    (_mm256_loadu_pd(row), _mm256_loadu_pd(row.add(4)))
                };
                let (d_lo, d_hi) = (_mm256_sub_pd(xd, c_lo), _mm256_sub_pd(xd, c_hi));
                lo = _mm256_add_pd(lo, _mm256_mul_pd(d_lo, d_lo));
                hi = _mm256_add_pd(hi, _mm256_mul_pd(d_hi, d_hi));
            }
            // `_CMP_LT_OQ` is the scan's own `<` (false on NaN): a tile with
            // no lane below the best distance so far cannot change the
            // answer, and on clustered data that is most tiles.
            let bound = _mm256_set1_pd(best_d);
            let below = _mm256_or_pd(
                _mm256_cmp_pd::<_CMP_LT_OQ>(lo, bound),
                _mm256_cmp_pd::<_CMP_LT_OQ>(hi, bound),
            );
            if _mm256_movemask_pd(below) == 0 {
                continue;
            }
            let mut dist = [0f64; LANES];
            // SAFETY: `dist` is eight `f64`s, one per lane of the two
            // registers; `storeu` asks for no alignment.
            unsafe {
                _mm256_storeu_pd(dist.as_mut_ptr(), lo);
                _mm256_storeu_pd(dist.as_mut_ptr().add(4), hi);
            }
            for (j, &dj) in dist.iter().enumerate() {
                if dj < best_d {
                    best_d = dj;
                    best = t * LANES + j;
                }
            }
        }
        for (sum, &xd) in robj.sums[best * D..][..D].iter_mut().zip(&x) {
            *sum += xd;
        }
        robj.counts[best] += 1;
    }
}
