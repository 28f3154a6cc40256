//! The k-means assignment kernel: an `f32` filter proposes each point's
//! nearest centroid, an `f64` certificate proves the proposal is what the
//! reference `nearest` scan would pick, and the points it cannot prove go
//! through that scan itself. It reads a group of decoded points or, with no
//! decode pass, the little-endian chunk they were decoded from. This file
//! holds the crate's only `unsafe`: the calls into the two `target_feature`
//! functions behind their CPU checks, and the intrinsics wrapped by the lane
//! types that only those checks construct.
//!
//! **Stage 1, points across lanes, centred, in dot form.** A block of `P`
//! points is transposed so that lane `l` of row `d` is coordinate `d` of
//! point `l` (`P` = 16 under AVX-512F, 8 under AVX2 + FMA): a full block of
//! encoded points by one gather per row, anything else point by point. Each
//! row is moved to the filter's `f32` origin `o` (`x′ = x − o`, one
//! subtraction per row and block) and `‖x′‖²` is formed once. The centred
//! centroids `ĉⱼ = (cⱼ − o) as f32` are scanned in order as `wⱼ = −2ĉⱼ` and
//! `qⱼ = ‖ĉⱼ‖²`: each lane accumulates `s = Σ_d fma(x′_d, wⱼ_d, ·)` from
//! `qⱼ`, which is `‖x′ − ĉⱼ‖² − ‖x′‖²` up to rounding, and keeps, with no
//! branch and no horizontal reduction, the smallest `s` (`m1`, updated on
//! strict `<`), its centroid (`idx`), and the smallest `s` of every *other*
//! centroid (`m2`).
//!
//! **Stage 2, the certificate, across the block.** The three `f32` vectors
//! `‖x′‖²`, `m1` and `m2` are widened to `f64` and a lane's `idx` is
//! accepted only if
//!
//! ```text
//! m2 − m1 > c0 + c1·‖x′‖² + c2·m1
//! ```
//!
//! with three constants per iteration ([`Check`]) that charge the scores'
//! absolute error, `‖x′‖²`'s, the rounding of `x − o`, the centroids'
//! rounding `r`, and the reference's own rounding. Then `dist2(x, c_idx) <
//! dist2(x, c_j)` for every `j ≠ idx`, so the reference scan picks `idx`
//! whatever its tie order. DESIGN.md §3.1.1 derives the test, rounding by
//! rounding. The fold is the reference's: points in group order,
//! `sums[idx·D + d] += x_d` as one widening convert and one vector add,
//! `counts[idx] += 1`.

// Off x86-64 no width is compiled, and stage 2's constants go unused.
#![cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]

use crate::kmeans::{KMeans, KMeansObj};
use crate::units::Point;

/// `u₃₂ = 2⁻²⁴`: the relative error of one `f32` rounding.
const U32: f64 = f32::EPSILON as f64 / 2.0;

/// `2⁻¹⁴⁹`, the smallest `f32` subnormal: twice the absolute error of one
/// `f32` rounding that underflows.
const F32_TINY: f64 = f32::from_bits(1) as f64;

/// `2¹²⁵`: a filter whose centred centroids' squares reach it certifies
/// nothing. Below it no stage-1 operation on a finite `‖x′‖²` can overflow
/// `f32`: every partial score is at most `Q + 2√(‖x′‖²·Q) < 2¹²⁷·⁸`.
const LIMIT: f64 = (1u128 << 125) as f64;

/// `τ`: the AM–GM split of the certificate's one cross term, `2κh√a ≤
/// κτ·a + κh²/τ`. It asks a margin of `τ` relative to the nearest distance.
const TAU: f64 = 1.0 / (1u64 << 20) as f64;

/// The check's own roundings (a constant of `2⁻⁵³` steps) with room to
/// spare.
const SIGMA: f64 = 1.0 / (1u64 << 30) as f64;

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

/// The centroids of one iteration as stage 1 reads them, and stage 2's
/// test for them.
#[derive(Debug, Clone)]
pub(crate) struct Filter<const D: usize> {
    /// `o`: the centroids' mean, rounded to `f32`.
    origin: [f32; D],
    /// `wⱼ = −2ĉⱼ`, with `ĉⱼ = (cⱼ − o) as f32`, in centroid order.
    w: Vec<[f32; D]>,
    /// `qⱼ = ‖ĉⱼ‖²`, rounded to `f32`.
    q: Vec<f32>,
    check: Check,
    /// `r ≥ maxⱼ ‖(cⱼ − o) − ĉⱼ‖₂`, for tests.
    #[cfg(test)]
    r: f64,
    /// `Q ≥ maxⱼ max(qⱼ, ‖ĉⱼ‖²)`, for tests.
    #[cfg(test)]
    q_max: f64,
}

impl<const D: usize> Filter<D> {
    pub(crate) fn new(centroids: &[[f64; D]]) -> Filter<D> {
        let k = centroids.len() as f64;
        let origin: [f32; D] = std::array::from_fn(|d| {
            let o = (centroids.iter().map(|c| c[d]).sum::<f64>() / k) as f32;
            if o.is_finite() {
                o
            } else {
                0.0
            }
        });
        let (mut w, mut q) =
            (Vec::with_capacity(centroids.len()), Vec::with_capacity(centroids.len()));
        let (mut r2, mut q_max) = (0f64, 0f64);
        // `f64` sums of `D` exact squares, rounded up.
        let sum_up = 1.0 + 2.0 * gamma(D, f64::EPSILON / 2.0);
        for c in centroids {
            let mut e2 = 0.0;
            let centred: [f32; D] = std::array::from_fn(|d| {
                let t = c[d] - f64::from(origin[d]);
                let ct = t as f32;
                // `t − ĉ` is exact (ĉ is `t` rounded), and `t` is within
                // `2⁻⁵³·|t|` of the exact `c − o`. A centroid `f32` cannot
                // hold (beyond its range, infinite, or NaN) makes `e` NaN
                // or `+∞`.
                let e = (t - f64::from(ct)).abs() + t.abs() * f64::EPSILON;
                e2 += e * e;
                ct
            });
            r2 = if e2.is_nan() { f64::INFINITY } else { r2.max(e2) };
            let norm: f64 = centred.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
            let qj = norm as f32;
            let top = (norm * sum_up).max(f64::from(qj));
            q_max = if top.is_nan() { f64::INFINITY } else { q_max.max(top) };
            w.push(centred.map(|x| -2.0 * x));
            q.push(qj);
        }
        // Rounded up: the sum's relative error γ (doubled to cover the
        // product that applies it), the square root's half ulp, and the
        // `f64` underflow of the squares, at most `√(D·2⁻¹⁰⁷⁴)` — far below
        // `2⁻⁵⁰⁰` for any `D` that fits in memory.
        let slack = 1.0 + 2.0 * gamma(D + 3, f64::EPSILON / 2.0);
        let r =
            (r2 * slack).sqrt() * (1.0 + 4.0 * f64::EPSILON) + f64::from_bits((1023 - 500) << 52);
        Filter {
            origin,
            w,
            q,
            check: Check::new::<D>(q_max, r),
            #[cfg(test)]
            r,
            #[cfg(test)]
            q_max,
        }
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
            let _ = (width, app, robj, group, &self.origin, &self.w, &self.q, self.check);
            None
        }
    }
}

#[cfg(test)]
impl<const D: usize> Filter<D> {
    pub(crate) fn r(&self) -> f64 {
        self.r
    }

    /// One lane of stage 1 for the point `x`: its `‖x′‖²` and every
    /// centroid's score, by the kernel's operations in the kernel's order
    /// (`f32::mul_add` rounds once, as `vfmadd` does).
    pub(crate) fn scores(&self, x: &[f32; D]) -> (f32, Vec<f32>) {
        let x: [f32; D] = std::array::from_fn(|d| x[d] - self.origin[d]);
        let nx = x.iter().fold(0.0, |acc, &v| v.mul_add(v, acc));
        let scores = self
            .w
            .iter()
            .zip(&self.q)
            .map(|(w, &q)| x.iter().zip(w).fold(q, |s, (&x, &w)| x.mul_add(w, s)));
        (nx, scores.collect())
    }

    /// `ĉⱼ` (exactly `−wⱼ / 2`) and `o`.
    pub(crate) fn centred(&self) -> (Vec<[f32; D]>, [f32; D]) {
        (self.w.iter().map(|w| w.map(|x| x * -0.5)).collect(), self.origin)
    }

    /// What stage 2 charges a point whose `‖x′‖²` stage 1 computed as `nx`:
    /// an upper bound on the exact `‖x′‖²`, and on how far each score may
    /// be from `‖x′ − ĉⱼ‖² − ‖x′‖²`. `None` when stage 2 refuses the point
    /// whatever its scores.
    pub(crate) fn charges(&self, nx: f32) -> Option<(f64, f64)> {
        let nx = f64::from(nx);
        let x_bar = norm_bound::<D>().at(nx);
        (nx.is_finite() && self.check.c0.is_finite())
            .then(|| (x_bar, score_error::<D>(self.q_max).at(x_bar)))
    }

    /// One lane of stage 2: whether a point with these stage-1 results is
    /// certified, by the kernel's `f64` operations in the kernel's order.
    pub(crate) fn passes(&self, nx: f32, m1: f32, m2: f32) -> bool {
        let Check { c0, c1, c2 } = self.check;
        let (nx, m1) = (f64::from(nx), f64::from(m1));
        c1.mul_add(nx, c2.mul_add(m1, c0)) < f64::from(m2) - m1
    }
}

/// `slope·v + offset`: the shape of every bound stage 2 charges.
#[derive(Debug, Clone, Copy)]
struct Affine {
    slope: f64,
    offset: f64,
}

impl Affine {
    fn at(self, v: f64) -> f64 {
        self.slope * v + self.offset
    }
}

/// `X̄(nx)`: an upper bound on the exact `‖x′‖²` of a lane whose `D` fused
/// squares stage 1 summed to `nx`, underflow included.
fn norm_bound<const D: usize>() -> Affine {
    let slope = 1.0 + gamma(2 * D, U32);
    Affine { slope, offset: slope * D as f64 * F32_TINY }
}

/// `A(X̄)`: how far a score may be from `‖x′ − ĉⱼ‖² − ‖x′‖²` when `‖x′‖² ≤
/// X̄` and `Q ≥ maxⱼ max(qⱼ, ‖ĉⱼ‖²)`. The `D` FMAs from `qⱼ` err by at most
/// `γ_D·(qⱼ + Σ|x′_d·wⱼ_d|) ≤ γ_D·(2Q + X̄)` (AM–GM on `2‖x′‖·‖ĉⱼ‖`) plus
/// `2⁻¹⁵⁰` each when they underflow, and `qⱼ` itself is `‖ĉⱼ‖²` to within
/// `2u₃₂·Q + 2⁻¹⁵⁰`.
fn score_error<const D: usize>(q: f64) -> Affine {
    let g = gamma(D + 1, U32);
    Affine { slope: g, offset: 2.0 * g * q + D as f64 * F32_TINY + 2.0 * U32 * q + F32_TINY / 2.0 }
}

/// Stage 2's test for one iteration: lane `l` passes when `m2 − m1 > c0 +
/// c1·nx + c2·m1`, with `nx` its `‖x′‖²` (DESIGN.md §3.1.1 derives it). An
/// `nx` that is `+∞` or NaN makes the right side `+∞` or NaN, and the
/// lane fails.
#[derive(Debug, Clone, Copy)]
struct Check {
    c0: f64,
    c1: f64,
    c2: f64,
}

impl Check {
    /// The test for `Q ≥ maxⱼ max(qⱼ, ‖ĉⱼ‖²)` and `r ≥ maxⱼ ‖(cⱼ − o) −
    /// ĉⱼ‖₂`; `c0 = +∞`, which no lane passes, when either is out of range.
    fn new<const D: usize>(q: f64, r: f64) -> Check {
        // `dist2`'s rounding: its two sides differ by `κ² = (1+γ₆₄)/(1−γ₆₄)`.
        let g64 = gamma(D + 3, f64::EPSILON / 2.0);
        let kappa2 = (1.0 + g64) / (1.0 - g64);
        let kappa = kappa2.sqrt();
        let lambda = kappa2 + kappa * TAU - 1.0;
        let mu = 3.0 * (1.0 + kappa / TAU) * (1.0 + kappa) * (1.0 + kappa);
        // `θ² ≥ 2ζ/(1−γ₆₄)`, `ζ = 3D·2⁻¹⁰⁷⁴` bounding `dist2`'s underflow.
        let theta2 = (12 * D) as f64 * f64::from_bits(1);
        // (2+λ)·A + λ·(X̄ + m1) + μ·(u₃₂²·X̄ + r² + θ²), affine in X̄ and
        // X̄ affine in nx.
        let (x_bar, score) = (norm_bound::<D>(), score_error::<D>(q));
        let rhs = Affine {
            slope: (2.0 + lambda) * score.slope + lambda + mu * U32 * U32,
            offset: (2.0 + lambda) * score.offset + mu * (r * r + theta2),
        };
        let c0 = rhs.at(x_bar.offset);
        Check {
            c0: if q <= LIMIT && r.is_finite() { c0 * (1.0 + SIGMA) } else { f64::INFINITY },
            c1: rhs.slope * x_bar.slope * (1.0 + SIGMA),
            c2: lambda,
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Check, Filter, Group, Width, MAX_P};
    use crate::kmeans::{KMeans, KMeansObj};
    use crate::units::Point;
    use cloudburst_core::Reduction;
    use core::arch::x86_64::{
        __m256, __m256d, __m256i, __m512, __m512d, __m512i, __mmask16, _mm256_add_pd,
        _mm256_blendv_epi8, _mm256_castpd_ps, _mm256_castps256_ps128, _mm256_castps_si256,
        _mm256_cmp_pd, _mm256_cmp_ps, _mm256_cvtps_pd, _mm256_extractf128_ps, _mm256_fmadd_pd,
        _mm256_fmadd_ps, _mm256_i32gather_ps, _mm256_loadu_pd, _mm256_loadu_ps, _mm256_loadu_si256,
        _mm256_max_ps, _mm256_min_ps, _mm256_movemask_pd, _mm256_set1_epi32, _mm256_set1_pd,
        _mm256_set1_ps, _mm256_storeu_pd, _mm256_storeu_si256, _mm256_sub_pd, _mm256_sub_ps,
        _mm512_add_pd, _mm512_castps512_ps256, _mm512_castps_pd, _mm512_cmp_pd_mask,
        _mm512_cmp_ps_mask, _mm512_cvtps_pd, _mm512_extractf64x4_pd, _mm512_fmadd_pd,
        _mm512_fmadd_ps, _mm512_i32gather_ps, _mm512_loadu_pd, _mm512_loadu_ps, _mm512_loadu_si512,
        _mm512_mask_blend_epi32, _mm512_max_ps, _mm512_min_ps, _mm512_set1_epi32, _mm512_set1_pd,
        _mm512_set1_ps, _mm512_storeu_pd, _mm512_storeu_si512, _mm512_sub_pd, _mm512_sub_ps,
        _mm_loadu_ps, _CMP_LT_OQ,
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

    /// The operations the kernel is written in, on one register of `P`
    /// `f32` lanes (`F`), their centroid indices (`I`), a lane mask (`M`),
    /// and half as many `f64` lanes (`W`). A value of the implementing type
    /// is proof that the CPU has the instructions: its one constructor is
    /// the CPU check. Every method is `#[inline(always)]`, so inside
    /// `fold_x16`/`fold_x8` each becomes the instructions it names.
    trait Lanes: Copy {
        /// Points per register.
        const P: usize;
        type F: Copy;
        type I: Copy;
        type M: Copy;
        type W: Copy;
        fn splat(self, x: f32) -> Self::F;
        /// The first `P` of `lanes`.
        fn load(self, lanes: &[f32; MAX_P]) -> Self::F;
        /// Stage 1's rows for the first `P` points encoded in `block`: lane
        /// `l` of row `d` is the little-endian `f32` at byte `4·(l·D + d)`.
        ///
        /// # Panics
        /// When `block` is shorter than `P` points of `D` coordinates.
        fn gather<const D: usize>(self, block: &[u8]) -> [Self::F; D];
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
        /// The low and the high `P/2` lanes of `v`, each widened to `f64`
        /// (exactly).
        fn widen(self, v: Self::F) -> [Self::W; 2];
        fn splat_f64(self, x: f64) -> Self::W;
        fn sub_f64(self, a: Self::W, b: Self::W) -> Self::W;
        /// `a·b + c`, rounded once.
        fn fma_f64(self, a: Self::W, b: Self::W, c: Self::W) -> Self::W;
        /// Bit `l` set where `a < b` in lane `l`, clear on NaN.
        fn lt_f64(self, a: Self::W, b: Self::W) -> u32;
        /// `sums[d] += f64::from(x[d])` for every `d`: the same IEEE adds,
        /// a vector of them at a time.
        fn add_widened<const D: usize>(self, sums: &mut [f64; D], x: &[f32; D]);
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
    // exists only where the CPU has avx512f (and with it avx2); the loads
    // and stores touch the 16 `u32`/`i32` of the array they are given or the
    // 8 `f32`/`f64` of the slices `add_widened` cuts, and `gather` says what
    // its gathers read.
    impl Lanes for Avx512 {
        const P: usize = 16;
        type F = __m512;
        type I = __m512i;
        type M = __mmask16;
        type W = __m512d;

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

        #[inline(always)]
        fn widen(self, v: __m512) -> [__m512d; 2] {
            // SAFETY: see the impl.
            unsafe {
                let high = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v)));
                [_mm512_cvtps_pd(_mm512_castps512_ps256(v)), _mm512_cvtps_pd(high)]
            }
        }

        #[inline(always)]
        fn splat_f64(self, x: f64) -> __m512d {
            // SAFETY: see the impl.
            unsafe { _mm512_set1_pd(x) }
        }

        #[inline(always)]
        fn sub_f64(self, a: __m512d, b: __m512d) -> __m512d {
            // SAFETY: see the impl.
            unsafe { _mm512_sub_pd(a, b) }
        }

        #[inline(always)]
        fn fma_f64(self, a: __m512d, b: __m512d, c: __m512d) -> __m512d {
            // SAFETY: see the impl.
            unsafe { _mm512_fmadd_pd(a, b, c) }
        }

        #[inline(always)]
        fn lt_f64(self, a: __m512d, b: __m512d) -> u32 {
            // SAFETY: see the impl.
            u32::from(unsafe { _mm512_cmp_pd_mask::<_CMP_LT_OQ>(a, b) })
        }

        #[inline(always)]
        fn add_widened<const D: usize>(self, sums: &mut [f64; D], x: &[f32; D]) {
            let whole = D - D % 8;
            for (sums, x) in sums[..whole].chunks_exact_mut(8).zip(x.chunks_exact(8)) {
                // SAFETY: see the impl; both slices are 8 long.
                unsafe {
                    let x = _mm512_cvtps_pd(_mm256_loadu_ps(x.as_ptr()));
                    _mm512_storeu_pd(
                        sums.as_mut_ptr(),
                        _mm512_add_pd(_mm512_loadu_pd(sums.as_ptr()), x),
                    );
                }
            }
            for (sum, &x) in sums[whole..].iter_mut().zip(&x[whole..]) {
                *sum += f64::from(x);
            }
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
    // first 8 `f32`/`u32`/`i32` of the 16 in the array they are given or the
    // 4 `f32`/`f64` of the slices `add_widened` cuts, and `gather` says what
    // its gathers read.
    impl Lanes for Avx2 {
        const P: usize = 8;
        type F = __m256;
        type I = __m256i;
        type M = __m256;
        type W = __m256d;

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

        #[inline(always)]
        fn widen(self, v: __m256) -> [__m256d; 2] {
            // SAFETY: see the impl.
            unsafe {
                [
                    _mm256_cvtps_pd(_mm256_castps256_ps128(v)),
                    _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(v)),
                ]
            }
        }

        #[inline(always)]
        fn splat_f64(self, x: f64) -> __m256d {
            // SAFETY: see the impl.
            unsafe { _mm256_set1_pd(x) }
        }

        #[inline(always)]
        fn sub_f64(self, a: __m256d, b: __m256d) -> __m256d {
            // SAFETY: see the impl.
            unsafe { _mm256_sub_pd(a, b) }
        }

        #[inline(always)]
        fn fma_f64(self, a: __m256d, b: __m256d, c: __m256d) -> __m256d {
            // SAFETY: see the impl.
            unsafe { _mm256_fmadd_pd(a, b, c) }
        }

        #[inline(always)]
        fn lt_f64(self, a: __m256d, b: __m256d) -> u32 {
            // SAFETY: see the impl. `movmskpd` sets only the low 4 bits.
            unsafe { _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(a, b)) as u32 }
        }

        #[inline(always)]
        fn add_widened<const D: usize>(self, sums: &mut [f64; D], x: &[f32; D]) {
            let whole = D - D % 4;
            for (sums, x) in sums[..whole].chunks_exact_mut(4).zip(x.chunks_exact(4)) {
                // SAFETY: see the impl; both slices are 4 long.
                unsafe {
                    let x = _mm256_cvtps_pd(_mm_loadu_ps(x.as_ptr()));
                    _mm256_storeu_pd(
                        sums.as_mut_ptr(),
                        _mm256_add_pd(_mm256_loadu_pd(sums.as_ptr()), x),
                    );
                }
            }
            for (sum, &x) in sums[whole..].iter_mut().zip(&x[whole..]) {
                *sum += f64::from(x);
            }
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
        let inf = lanes.splat(f32::INFINITY);
        let mut pick = [0u32; MAX_P];
        let mut fallbacks = 0;
        for at in (0..n).step_by(L::P) {
            // Stage 1: the block centred on `o`, its `‖x′‖²`, and every
            // centroid's score. A partial block is transposed point by
            // point; its missing lanes hold zeros and are never folded.
            let mut x = if n - at >= L::P {
                points.rows(lanes, at)
            } else {
                transpose(lanes, (at..n).map(|i| points.point(i)))
            };
            for (x, &o) in x.iter_mut().zip(&filter.origin) {
                *x = lanes.sub(*x, lanes.splat(o));
            }
            let nx = x.iter().fold(lanes.splat(0.0), |nx, &x| lanes.fma(x, x, nx));
            let (mut m1, mut m2, mut idx) = (inf, inf, lanes.splat_index(0));
            for (j, (w, &q)) in filter.w.iter().zip(&filter.q).enumerate() {
                let s = x
                    .iter()
                    .zip(w)
                    .fold(lanes.splat(q), |s, (&x, &w)| lanes.fma(x, lanes.splat(w), s));
                // `m2` takes whichever of `s` and `m1` loses. A NaN `s`
                // (`maxps` then answers `m1`) pulls `m2` down to `m1`, and
                // the certificate fails.
                m2 = lanes.min(lanes.max(s, m1), m2);
                idx = lanes.select_index(lanes.lt(s, m1), lanes.splat_index(j as u32), idx);
                m1 = lanes.min(s, m1);
            }
            // Stage 2, then the fold in point order.
            let sure = certify(lanes, &filter.check, nx, m1, m2);
            lanes.store_index(idx, &mut pick);
            for (l, &c) in pick.iter().enumerate().take(L::P.min(n - at)) {
                let point = points.point(at + l);
                if sure >> l & 1 == 1 {
                    let c = c as usize;
                    let sums = robj.sums[c * D..].first_chunk_mut().expect("a centroid's sums");
                    lanes.add_widened(sums, &point.0);
                    robj.counts[c] += 1;
                } else {
                    fallbacks += 1;
                    app.local_reduce(robj, &point);
                }
            }
        }
        fallbacks
    }

    /// Stage 2 for a block: bit `l` is set where lane `l`'s `idx` is
    /// certified, `m2 − m1 > c0 + c1·nx + c2·m1` in `f64` (see [`Check`]).
    #[inline(always)]
    fn certify<L: Lanes>(lanes: L, check: &Check, nx: L::F, m1: L::F, m2: L::F) -> u32 {
        let (c0, c1, c2) =
            (lanes.splat_f64(check.c0), lanes.splat_f64(check.c1), lanes.splat_f64(check.c2));
        let (nx, m1, m2) = (lanes.widen(nx), lanes.widen(m1), lanes.widen(m2));
        let mut sure = 0;
        for half in 0..2 {
            let gap = lanes.sub_f64(m2[half], m1[half]);
            let bound = lanes.fma_f64(c1, nx[half], lanes.fma_f64(c2, m1[half], c0));
            sure |= lanes.lt_f64(bound, gap) << (half * L::P / 2);
        }
        sure
    }
}
