//! The k-means assignment kernel: an `f32` filter proposes each point's
//! nearest centroid, an `f64` certificate proves the proposal is what the
//! reference `nearest` scan would pick, and the points it cannot prove go
//! through that scan itself. It reads a group of decoded points or, with no
//! decode pass, the little-endian chunk they were decoded from. This file
//! holds the crate's only `unsafe`: the calls into the two `target_feature`
//! functions behind their CPU checks, and the intrinsics wrapped by the lane
//! types that only those checks construct.
//!
//! **Stage 1, points across lanes.** A block of `P` points is transposed so
//! that lane `l` of row `d` is coordinate `d` of point `l` (`P` = 16 under
//! AVX-512F, 8 under AVX2 + FMA): a full block of encoded points by one
//! gather per row, anything else point by point. The centroids, rounded to
//! `f32` (`c̃`), are scanned in order; each lane accumulates `s = Σ_d
//! fma(x_d − c̃_d, x_d − c̃_d, s)` and keeps, with no branch and no
//! horizontal reduction, the smallest `s` (`m1`, updated on strict `<`),
//! its centroid (`idx`), and the smallest `s` of every *other* centroid
//! (`m2`).
//!
//! **Stage 2, the certificate.** With `γ₃₂ = γ_{D+3}(2⁻²⁴)` bounding the
//! `f32` sum, `γ₆₄ = γ_{D+3}(2⁻⁵³)` bounding `units::dist2`, `η` the `f32`
//! underflow term and `r ≥ maxⱼ ‖cⱼ − c̃ⱼ‖₂`, a lane's `idx` is accepted only
//! if
//!
//! ```text
//! (1+γ₆₄)·(√((m1+η)/(1−γ₃₂)) + r)²·(1+σ) < (1−γ₆₄)·max(0, √(max(0, m2−η)/(1+γ₃₂)) − r)²·(1−σ)
//! ```
//!
//! and then `dist2(x, c_idx) < dist2(x, c_j)` for every `j ≠ idx`, so the
//! reference scan picks `idx` whatever its tie order. DESIGN.md §3.1.1
//! derives the bound, rounding by rounding. The fold is the reference's:
//! points in group order, `sums[idx·D + d] += x_d`, `counts[idx] += 1`.

// Off x86-64 no width is compiled, and the stage-2 helpers go unused.
#![cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]

use crate::kmeans::{KMeans, KMeansObj};
use crate::units::Point;

/// The check's own roundings (a score of `2⁻⁵³` steps) with room to spare.
const SIGMA: f64 = 1.0 / (1u64 << 30) as f64;

/// `2⁻¹⁴⁹`, the smallest `f32` subnormal: twice the absolute error of one
/// `f32` rounding that underflows.
const F32_TINY: f64 = f32::from_bits(1) as f64;

/// `γ_n(u) = n·u / (1 − n·u)`: `(1 ± u)ⁿ` lies within `1 ± γ_n(u)`.
fn gamma(n: usize, u: f64) -> f64 {
    let nu = n as f64 * u;
    nu / (1.0 - nu)
}

/// One vector width the kernel is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Width {
    /// 16 points per `zmm` register, under AVX-512F.
    X16,
    /// 8 points per `ymm` register, under AVX2 and FMA.
    X8,
}

impl Width {
    /// Every width, widest first: the order the dispatcher tries them in.
    pub(crate) const ALL: [Width; 2] = [Width::X16, Width::X8];
}

/// The most points one block holds (the widest register's lanes).
const MAX_P: usize = 16;

/// A group of points as the kernel reads them.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Group<'a, const D: usize> {
    /// Decoded.
    Points(&'a [Point<D>]),
    /// Encoded, and read where they lie: `D` little-endian `f32` per point,
    /// from any byte offset. A tail shorter than a point is not read, as
    /// `units::decode_all` would not decode it.
    Units(&'a [u8]),
}

/// The centroids of one iteration as stage 1 reads them, and the bound
/// stage 2 needs on their rounding.
#[derive(Debug, Clone)]
pub(crate) struct Filter<const D: usize> {
    /// `c as f32`, in centroid order.
    rounded: Vec<[f32; D]>,
    /// An upper bound on `maxⱼ ‖cⱼ − c̃ⱼ‖₂`; `+∞` when a centroid is not
    /// finite or outside `f32` range, and then no point is certified.
    r: f64,
}

impl<const D: usize> Filter<D> {
    pub(crate) fn new(centroids: &[[f64; D]]) -> Filter<D> {
        let rounded: Vec<[f32; D]> = centroids.iter().map(|c| c.map(|x| x as f32)).collect();
        let r2 = centroids
            .iter()
            .zip(&rounded)
            .map(|(c, c32)| {
                c.iter().zip(c32).map(|(&x, &y)| (x - f64::from(y)) * (x - f64::from(y))).sum()
            })
            // A centroid `f32` cannot hold (beyond its range: `∞ − ∞` is
            // NaN; or infinite, or NaN) makes the bound `+∞`.
            .fold(0.0, |r2: f64, e: f64| if e.is_nan() { f64::INFINITY } else { r2.max(e) });
        // Rounded up: the sum's relative error γ (doubled to cover the
        // product that applies it), the square root's half ulp, and the
        // `f64` underflow of the squares, at most `√(D·2⁻¹⁰⁷⁴)` — far below
        // `2⁻⁵⁰⁰` for any `D` that fits in memory.
        let slack = 1.0 + 2.0 * gamma(D + 3, f64::EPSILON / 2.0);
        let r =
            (r2 * slack).sqrt() * (1.0 + 4.0 * f64::EPSILON) + f64::from_bits((1023 - 500) << 52);
        Filter { rounded, r }
    }

    /// The bound on the centroids' rounding, for tests.
    #[cfg(test)]
    pub(crate) fn r(&self) -> f64 {
        self.r
    }

    /// Fold `group` into `robj` exactly as the `local_reduce` loop over its
    /// decoded points would, with the widest kernel this CPU has. Returns
    /// how many points went through the reference scan, or `None`, with
    /// `robj` untouched, when the CPU has no kernel.
    pub(crate) fn reduce(
        &self,
        app: &KMeans<D>,
        robj: &mut KMeansObj,
        group: Group<'_, D>,
    ) -> Option<usize> {
        Width::ALL.into_iter().find_map(|width| self.fold(width, app, robj, group))
    }

    /// [`Filter::reduce`] at one width; `None` when the CPU lacks it.
    pub(crate) fn fold(
        &self,
        width: Width,
        app: &KMeans<D>,
        robj: &mut KMeansObj,
        group: Group<'_, D>,
    ) -> Option<usize> {
        #[cfg(target_arch = "x86_64")]
        {
            x86::fold(width, self, app, robj, group)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (width, app, robj, group, &self.rounded, self.r);
            None
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{certify, fold_into, Filter, Group, Width, MAX_P};
    use crate::kmeans::{KMeans, KMeansObj};
    use crate::units::Point;
    use cloudburst_core::Reduction;
    use core::arch::x86_64::{
        __m256, __m256i, __m512, __m512i, __mmask16, _mm256_blendv_epi8, _mm256_castps_si256,
        _mm256_cmp_ps, _mm256_fmadd_ps, _mm256_i32gather_ps, _mm256_loadu_ps, _mm256_loadu_si256,
        _mm256_max_ps, _mm256_min_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_storeu_ps,
        _mm256_storeu_si256, _mm256_sub_ps, _mm512_cmp_ps_mask, _mm512_fmadd_ps,
        _mm512_i32gather_ps, _mm512_loadu_ps, _mm512_loadu_si512, _mm512_mask_blend_epi32,
        _mm512_max_ps, _mm512_min_ps, _mm512_set1_epi32, _mm512_set1_ps, _mm512_storeu_ps,
        _mm512_storeu_si512, _mm512_sub_ps, _CMP_LT_OQ,
    };

    /// Run `filter` over `group` at `width` if this CPU has it.
    pub(super) fn fold<const D: usize>(
        width: Width,
        filter: &Filter<D>,
        app: &KMeans<D>,
        robj: &mut KMeansObj,
        group: Group<'_, D>,
    ) -> Option<usize> {
        match group {
            Group::Points(points) => fold_from(width, filter, app, robj, points),
            Group::Units(units) => fold_from(width, filter, app, robj, Encoded(units)),
        }
    }

    fn fold_from<S: Source<D>, const D: usize>(
        width: Width,
        filter: &Filter<D>,
        app: &KMeans<D>,
        robj: &mut KMeansObj,
        points: S,
    ) -> Option<usize> {
        Some(match width {
            Width::X16 => {
                let lanes = Avx512::new()?;
                // SAFETY: an `Avx512` exists, so the CPU has avx512f, the one
                // feature `fold_x16` enables.
                unsafe { fold_x16(lanes, filter, app, robj, points) }
            }
            Width::X8 => {
                let lanes = Avx2::new()?;
                // SAFETY: an `Avx2` exists, so the CPU has avx2 and fma, the
                // features `fold_x8` enables.
                unsafe { fold_x8(lanes, filter, app, robj, points) }
            }
        })
    }

    #[target_feature(enable = "avx512f")]
    fn fold_x16<S: Source<D>, const D: usize>(
        lanes: Avx512,
        filter: &Filter<D>,
        app: &KMeans<D>,
        robj: &mut KMeansObj,
        points: S,
    ) -> usize {
        fold_lanes(lanes, filter, app, robj, points)
    }

    #[target_feature(enable = "avx2,fma")]
    fn fold_x8<S: Source<D>, const D: usize>(
        lanes: Avx2,
        filter: &Filter<D>,
        app: &KMeans<D>,
        robj: &mut KMeansObj,
        points: S,
    ) -> usize {
        fold_lanes(lanes, filter, app, robj, points)
    }

    /// Where [`fold_lanes`] reads a group's points from: both sources give
    /// it the same points, in the same order.
    trait Source<const D: usize>: Copy {
        /// How many points the group holds.
        fn count(self) -> usize;
        /// Point `i`, for `i < count`.
        fn point(self, i: usize) -> Point<D>;
        /// Stage 1's rows for the `L::P` points from `i`, all below `count`.
        fn rows<L: Lanes>(self, lanes: L, i: usize) -> [L::F; D];
    }

    impl<const D: usize> Source<D> for &[Point<D>] {
        #[inline(always)]
        fn count(self) -> usize {
            self.len()
        }

        #[inline(always)]
        fn point(self, i: usize) -> Point<D> {
            self[i]
        }

        #[inline(always)]
        fn rows<L: Lanes>(self, lanes: L, i: usize) -> [L::F; D] {
            transpose(lanes, self[i..i + L::P].iter().copied())
        }
    }

    /// Points read where they lie in their encoding ([`Group::Units`]).
    #[derive(Clone, Copy)]
    struct Encoded<'a>(&'a [u8]);

    impl<const D: usize> Source<D> for Encoded<'_> {
        #[inline(always)]
        fn count(self) -> usize {
            self.0.len() / Point::<D>::SIZE
        }

        #[inline(always)]
        fn point(self, i: usize) -> Point<D> {
            Point::decode(&self.0[i * Point::<D>::SIZE..][..Point::<D>::SIZE])
        }

        #[inline(always)]
        fn rows<L: Lanes>(self, lanes: L, i: usize) -> [L::F; D] {
            let size = Point::<D>::SIZE;
            lanes.gather(&self.0[i * size..][..L::P * size])
        }
    }

    /// Stage 1's rows for up to `P` points, one scalar store per coordinate
    /// and a vector load per row; missing lanes hold zeros.
    #[inline(always)]
    fn transpose<L: Lanes, const D: usize>(
        lanes: L,
        block: impl Iterator<Item = Point<D>>,
    ) -> [L::F; D] {
        let mut rows = [[0f32; MAX_P]; D];
        for (l, point) in block.enumerate() {
            for (row, x) in rows.iter_mut().zip(point.0) {
                row[l] = x;
            }
        }
        rows.map(|row| lanes.load(&row))
    }

    /// The operations stage 1 is written in, on one register of `P` `f32`
    /// lanes (`F`), their centroid indices (`I`) and a lane mask (`M`). A
    /// value of the implementing type is proof that the CPU has the
    /// instructions: its one constructor is the CPU check. Every method is
    /// `#[inline(always)]`, so inside `fold_x16`/`fold_x8` each becomes the
    /// one instruction it names.
    trait Lanes: Copy {
        /// Points per register.
        const P: usize;
        type F: Copy;
        type I: Copy;
        type M: Copy;
        fn splat(self, x: f32) -> Self::F;
        /// The first `P` of `lanes`.
        fn load(self, lanes: &[f32; MAX_P]) -> Self::F;
        /// Stage 1's rows for the first `P` points encoded in `block`: lane
        /// `l` of row `d` is the little-endian `f32` at byte `4·(l·D + d)`.
        ///
        /// # Panics
        /// When `block` is shorter than `P` points of `D` coordinates.
        fn gather<const D: usize>(self, block: &[u8]) -> [Self::F; D];
        /// Into the first `P` of `out`.
        fn store(self, v: Self::F, out: &mut [f32; MAX_P]);
        fn sub(self, a: Self::F, b: Self::F) -> Self::F;
        /// `a·b + c`, rounded once.
        fn fma(self, a: Self::F, b: Self::F, c: Self::F) -> Self::F;
        /// `if a < b { a } else { b }` per lane.
        fn min(self, a: Self::F, b: Self::F) -> Self::F;
        /// `if a > b { a } else { b }` per lane.
        fn max(self, a: Self::F, b: Self::F) -> Self::F;
        /// `a < b` per lane, false on NaN.
        fn lt(self, a: Self::F, b: Self::F) -> Self::M;
        fn splat_index(self, j: u32) -> Self::I;
        /// `if m { a } else { b }` per lane.
        fn select_index(self, m: Self::M, a: Self::I, b: Self::I) -> Self::I;
        /// Into the first `P` of `out`.
        fn store_index(self, v: Self::I, out: &mut [u32; MAX_P]);
    }

    /// AVX-512F: 16 lanes.
    #[derive(Clone, Copy)]
    struct Avx512(());

    impl Avx512 {
        fn new() -> Option<Avx512> {
            is_x86_feature_detected!("avx512f").then_some(Avx512(()))
        }
    }

    // SAFETY (every block in this impl): `self` is an `Avx512`, which
    // exists only where the CPU has avx512f; the loads and stores touch the
    // 16 `f32`/`u32`/`i32` of the array they are given, and `gather` says
    // what its gathers read.
    impl Lanes for Avx512 {
        const P: usize = 16;
        type F = __m512;
        type I = __m512i;
        type M = __mmask16;

        #[inline(always)]
        fn splat(self, x: f32) -> __m512 {
            // SAFETY: see the impl.
            unsafe { _mm512_set1_ps(x) }
        }

        #[inline(always)]
        fn load(self, lanes: &[f32; MAX_P]) -> __m512 {
            // SAFETY: see the impl.
            unsafe { _mm512_loadu_ps(lanes.as_ptr()) }
        }

        #[inline(always)]
        fn gather<const D: usize>(self, block: &[u8]) -> [__m512; D] {
            assert!(D <= i32::MAX as usize / 16 && block.len() >= 16 * 4 * D, "16 points");
            let offsets: [i32; MAX_P] = std::array::from_fn(|l| (l * D) as i32);
            // SAFETY: see the impl.
            let offsets = unsafe { _mm512_loadu_si512(offsets.as_ptr().cast()) };
            std::array::from_fn(|d| {
                // SAFETY: see the impl. Lane `l` reads the 4 bytes at byte
                // `4·(l·D + d)` of `block` (an `f32` scale on the offsets
                // `l·D`, which the assert keeps inside `i32`), and the
                // highest, `4·(15·D + d) + 4 ≤ 64·D`, is inside `block` by
                // the assert on its length. A gather has no alignment
                // requirement, so `block` may start at any byte.
                unsafe {
                    _mm512_i32gather_ps::<4>(offsets, block.as_ptr().cast::<f32>().wrapping_add(d))
                }
            })
        }

        #[inline(always)]
        fn store(self, v: __m512, out: &mut [f32; MAX_P]) {
            // SAFETY: see the impl.
            unsafe { _mm512_storeu_ps(out.as_mut_ptr(), v) }
        }

        #[inline(always)]
        fn sub(self, a: __m512, b: __m512) -> __m512 {
            // SAFETY: see the impl.
            unsafe { _mm512_sub_ps(a, b) }
        }

        #[inline(always)]
        fn fma(self, a: __m512, b: __m512, c: __m512) -> __m512 {
            // SAFETY: see the impl.
            unsafe { _mm512_fmadd_ps(a, b, c) }
        }

        #[inline(always)]
        fn min(self, a: __m512, b: __m512) -> __m512 {
            // SAFETY: see the impl.
            unsafe { _mm512_min_ps(a, b) }
        }

        #[inline(always)]
        fn max(self, a: __m512, b: __m512) -> __m512 {
            // SAFETY: see the impl.
            unsafe { _mm512_max_ps(a, b) }
        }

        #[inline(always)]
        fn lt(self, a: __m512, b: __m512) -> __mmask16 {
            // SAFETY: see the impl.
            unsafe { _mm512_cmp_ps_mask::<_CMP_LT_OQ>(a, b) }
        }

        #[inline(always)]
        fn splat_index(self, j: u32) -> __m512i {
            // SAFETY: see the impl.
            unsafe { _mm512_set1_epi32(j as i32) }
        }

        #[inline(always)]
        fn select_index(self, m: __mmask16, a: __m512i, b: __m512i) -> __m512i {
            // SAFETY: see the impl.
            unsafe { _mm512_mask_blend_epi32(m, b, a) }
        }

        #[inline(always)]
        fn store_index(self, v: __m512i, out: &mut [u32; MAX_P]) {
            // SAFETY: see the impl.
            unsafe { _mm512_storeu_si512(out.as_mut_ptr().cast(), v) }
        }
    }

    /// AVX2 with FMA: 8 lanes.
    #[derive(Clone, Copy)]
    struct Avx2(());

    impl Avx2 {
        fn new() -> Option<Avx2> {
            (is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
                .then_some(Avx2(()))
        }
    }

    // SAFETY (every block in this impl): `self` is an `Avx2`, which exists
    // only where the CPU has avx2 and fma; the loads and stores touch the
    // first 8 `f32`/`u32`/`i32` of the 16 in the array they are given, and
    // `gather` says what its gathers read.
    impl Lanes for Avx2 {
        const P: usize = 8;
        type F = __m256;
        type I = __m256i;
        type M = __m256;

        #[inline(always)]
        fn splat(self, x: f32) -> __m256 {
            // SAFETY: see the impl.
            unsafe { _mm256_set1_ps(x) }
        }

        #[inline(always)]
        fn load(self, lanes: &[f32; MAX_P]) -> __m256 {
            // SAFETY: see the impl.
            unsafe { _mm256_loadu_ps(lanes.as_ptr()) }
        }

        #[inline(always)]
        fn gather<const D: usize>(self, block: &[u8]) -> [__m256; D] {
            assert!(D <= i32::MAX as usize / 8 && block.len() >= 8 * 4 * D, "8 points");
            let offsets: [i32; MAX_P] = std::array::from_fn(|l| (l * D) as i32);
            // SAFETY: see the impl.
            let offsets = unsafe { _mm256_loadu_si256(offsets.as_ptr().cast()) };
            std::array::from_fn(|d| {
                // SAFETY: see the impl. Lane `l` reads the 4 bytes at byte
                // `4·(l·D + d)` of `block` (an `f32` scale on the offsets
                // `l·D`, which the assert keeps inside `i32`), and the
                // highest, `4·(7·D + d) + 4 ≤ 32·D`, is inside `block` by the
                // assert on its length. A gather has no alignment
                // requirement, so `block` may start at any byte.
                unsafe {
                    _mm256_i32gather_ps::<4>(block.as_ptr().cast::<f32>().wrapping_add(d), offsets)
                }
            })
        }

        #[inline(always)]
        fn store(self, v: __m256, out: &mut [f32; MAX_P]) {
            // SAFETY: see the impl.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr(), v) }
        }

        #[inline(always)]
        fn sub(self, a: __m256, b: __m256) -> __m256 {
            // SAFETY: see the impl.
            unsafe { _mm256_sub_ps(a, b) }
        }

        #[inline(always)]
        fn fma(self, a: __m256, b: __m256, c: __m256) -> __m256 {
            // SAFETY: see the impl.
            unsafe { _mm256_fmadd_ps(a, b, c) }
        }

        #[inline(always)]
        fn min(self, a: __m256, b: __m256) -> __m256 {
            // SAFETY: see the impl.
            unsafe { _mm256_min_ps(a, b) }
        }

        #[inline(always)]
        fn max(self, a: __m256, b: __m256) -> __m256 {
            // SAFETY: see the impl.
            unsafe { _mm256_max_ps(a, b) }
        }

        #[inline(always)]
        fn lt(self, a: __m256, b: __m256) -> __m256 {
            // SAFETY: see the impl.
            unsafe { _mm256_cmp_ps::<_CMP_LT_OQ>(a, b) }
        }

        #[inline(always)]
        fn splat_index(self, j: u32) -> __m256i {
            // SAFETY: see the impl.
            unsafe { _mm256_set1_epi32(j as i32) }
        }

        #[inline(always)]
        fn select_index(self, m: __m256, a: __m256i, b: __m256i) -> __m256i {
            // SAFETY: see the impl. A compare lane is all ones or all zeros,
            // so its bytes' top bits select whole lanes.
            unsafe { _mm256_blendv_epi8(b, a, _mm256_castps_si256(m)) }
        }

        #[inline(always)]
        fn store_index(self, v: __m256i, out: &mut [u32; MAX_P]) {
            // SAFETY: see the impl.
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), v) }
        }
    }

    /// The kernel, one body for both widths and both sources: `L::P` points
    /// at a time.
    #[inline(always)]
    fn fold_lanes<L: Lanes, S: Source<D>, const D: usize>(
        lanes: L,
        filter: &Filter<D>,
        app: &KMeans<D>,
        robj: &mut KMeansObj,
        points: S,
    ) -> usize {
        let n = points.count();
        if filter.rounded.len() == 1 {
            // One centroid: the reference scan answers 0 for every point.
            for i in 0..n {
                fold_into(robj, 0, &points.point(i));
            }
            return 0;
        }
        let mut fallbacks = 0;
        for at in (0..n).step_by(L::P) {
            // Stage 1. A partial block is transposed point by point; its
            // missing lanes hold zeros and are never folded.
            let xs = if n - at >= L::P {
                points.rows(lanes, at)
            } else {
                transpose(lanes, (at..n).map(|i| points.point(i)))
            };
            let inf = lanes.splat(f32::INFINITY);
            let (mut m1, mut m2, mut idx) = (inf, inf, lanes.splat_index(0));
            for (j, c) in filter.rounded.iter().enumerate() {
                let mut s = lanes.splat(0.0);
                for (&x, &cd) in xs.iter().zip(c) {
                    let t = lanes.sub(x, lanes.splat(cd));
                    s = lanes.fma(t, t, s);
                }
                // `m2` takes whichever of `s` and `m1` loses. A NaN `s`
                // (`maxps` then answers `m1`) pulls `m2` down to `m1`, and
                // the certificate fails.
                m2 = lanes.min(lanes.max(s, m1), m2);
                idx = lanes.select_index(lanes.lt(s, m1), lanes.splat_index(j as u32), idx);
                m1 = lanes.min(s, m1);
            }
            // Stage 2, then the fold in point order.
            let (mut best, mut rest, mut pick) = ([0f32; MAX_P], [0f32; MAX_P], [0u32; MAX_P]);
            lanes.store(m1, &mut best);
            lanes.store(m2, &mut rest);
            lanes.store_index(idx, &mut pick);
            let sure = certify::<D>(filter.r, &best[..L::P], &rest[..L::P]);
            for l in 0..L::P.min(n - at) {
                let point = points.point(at + l);
                if sure[l] {
                    fold_into(robj, pick[l] as usize, &point);
                } else {
                    fallbacks += 1;
                    app.local_reduce(robj, &point);
                }
            }
        }
        fallbacks
    }
}

/// `local_reduce`'s fold with the centroid already known.
#[inline(always)]
fn fold_into<const D: usize>(robj: &mut KMeansObj, c: usize, item: &Point<D>) {
    // Widened first, so no store to `sums` can alias the point and the
    // adds can go as one vector (each lane the same scalar add).
    let x = item.0.map(f64::from);
    for (sum, x) in robj.sums[c * D..][..D].iter_mut().zip(x) {
        *sum += x;
    }
    robj.counts[c] += 1;
}

/// Stage 2 for each lane: whether `m1`'s centroid is provably the strict
/// nearest in `f64` (see the module docs and DESIGN.md §3.1.1).
#[inline(always)]
fn certify<const D: usize>(r: f64, m1: &[f32], m2: &[f32]) -> [bool; MAX_P] {
    let g32 = gamma(D + 3, f64::from(f32::EPSILON) / 2.0);
    let g64 = gamma(D + 3, f64::EPSILON / 2.0);
    // At most `2⁻¹⁵⁰` per rounding that can underflow (the `D` products),
    // doubled to cover the roundings that follow it.
    let eta = D as f64 * F32_TINY;
    let (near_scale, far_scale) = (1.0 / (1.0 - g32), 1.0 / (1.0 + g32));
    let (lhs_scale, rhs_scale) = ((1.0 + g64) * (1.0 + SIGMA), (1.0 - g64) * (1.0 - SIGMA));
    let mut sure = [false; MAX_P];
    for ((sure, &m1), &m2) in sure.iter_mut().zip(m1).zip(m2) {
        let (a, b) = (f64::from(m1), f64::from(m2));
        let near = ((a + eta) * near_scale).sqrt() + r;
        let rest = b - eta;
        let far = (if rest > 0.0 { rest } else { 0.0 } * far_scale).sqrt() - r;
        let far = if far > 0.0 { far } else { 0.0 };
        *sure = a.is_finite() & b.is_finite() & (lhs_scale * near * near < rhs_scale * far * far);
    }
    sure
}
