//! A library of ready-made reduction objects (paper §III-A: "A user can
//! choose from one of the several common combination functions already
//! implemented in the generalized reduction system library (such as
//! aggregation, concatenation, etc.), or they can provide one of their own").
//!
//! Every type here implements [`Merge`] (associative + commutative) and
//! [`ReductionObject`], so it can be used directly as an application's
//! accumulator or composed into larger ones (tuples of reduction objects
//! merge component-wise).

use crate::reduction::{Merge, ReductionObject};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;
use std::mem;
use std::ops::AddAssign;

// ---------------------------------------------------------------------------
// Scalar aggregation
// ---------------------------------------------------------------------------

/// Sum of numeric contributions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Sum<T>(pub T);

impl<T: AddAssign> Merge for Sum<T> {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
}

impl<T: AddAssign + Send + 'static> ReductionObject for Sum<T> {
    fn byte_size(&self) -> usize {
        mem::size_of::<T>()
    }
}

/// Count of observed elements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Count(pub u64);

impl Count {
    /// Record one more element.
    pub fn bump(&mut self) {
        self.0 += 1;
    }
}

impl Merge for Count {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
}

impl ReductionObject for Count {
    fn byte_size(&self) -> usize {
        8
    }
}

/// Running minimum and maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MinMax<T> {
    /// Smallest value observed so far, if any.
    pub min: Option<T>,
    /// Largest value observed so far, if any.
    pub max: Option<T>,
}

impl<T: PartialOrd + Copy> MinMax<T> {
    /// Fold one value into the running extremes.
    pub fn observe(&mut self, v: T) {
        match self.min {
            Some(m) if m <= v => {}
            _ => self.min = Some(v),
        }
        match self.max {
            Some(m) if m >= v => {}
            _ => self.max = Some(v),
        }
    }
}

impl<T: PartialOrd + Copy> Merge for MinMax<T> {
    fn merge(&mut self, other: Self) {
        if let Some(v) = other.min {
            self.observe(v);
        }
        if let Some(v) = other.max {
            self.observe(v);
        }
    }
}

impl<T: PartialOrd + Copy + Send + 'static> ReductionObject for MinMax<T> {
    fn byte_size(&self) -> usize {
        2 * mem::size_of::<Option<T>>()
    }
}

/// Arithmetic mean via (sum, count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Mean {
    /// Sum of all observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl Mean {
    /// Fold one value into the running mean.
    pub fn observe(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
    }

    /// The mean, or `None` before any observation.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

impl Merge for Mean {
    fn merge(&mut self, other: Self) {
        self.sum += other.sum;
        self.count += other.count;
    }
}

impl ReductionObject for Mean {
    fn byte_size(&self) -> usize {
        16
    }
}

// ---------------------------------------------------------------------------
// Vector / array aggregation
// ---------------------------------------------------------------------------

/// Element-wise vector addition — the accumulator shape of k-means (per-
/// centroid coordinate sums) and PageRank (per-page rank mass).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VecAdd(pub Vec<f64>);

impl VecAdd {
    /// A zero vector of dimension `n`.
    #[must_use]
    pub fn zeros(n: usize) -> VecAdd {
        VecAdd(vec![0.0; n])
    }
}

impl Merge for VecAdd {
    /// # Panics
    /// Panics when the dimensions differ: merging accumulators of different
    /// shapes is an application bug, not a recoverable condition.
    fn merge(&mut self, other: Self) {
        assert_eq!(self.0.len(), other.0.len(), "VecAdd dimension mismatch");
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

impl ReductionObject for VecAdd {
    fn byte_size(&self) -> usize {
        self.0.len() * 8
    }
}

/// Fixed-bin histogram over `[lo, hi)`; out-of-range values clamp to the
/// edge bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Inclusive lower bound of the binned range.
    pub lo: f64,
    /// Exclusive upper bound of the binned range.
    pub hi: f64,
    /// Observation counts per bin.
    pub bins: Vec<u64>,
}

impl Histogram {
    /// # Panics
    /// Panics if `n_bins == 0` or `lo >= hi`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, n_bins: usize) -> Histogram {
        assert!(n_bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-empty");
        Histogram { lo, hi, bins: vec![0; n_bins] }
    }

    /// Fold one value into its bin (clamping to the edge bins).
    pub fn observe(&mut self, v: f64) {
        let n = self.bins.len();
        let t = (v - self.lo) / (self.hi - self.lo);
        let i = ((t * n as f64).floor() as i64).clamp(0, n as i64 - 1) as usize;
        self.bins[i] += 1;
    }

    /// Total number of observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }
}

impl Merge for Histogram {
    /// # Panics
    /// Panics when bin layouts differ.
    fn merge(&mut self, other: Self) {
        assert_eq!(self.bins.len(), other.bins.len(), "histogram bin-count mismatch");
        assert_eq!((self.lo, self.hi), (other.lo, other.hi), "histogram range mismatch");
        for (a, b) in self.bins.iter_mut().zip(other.bins) {
            *a += b;
        }
    }
}

impl ReductionObject for Histogram {
    fn byte_size(&self) -> usize {
        16 + self.bins.len() * 8
    }
}

// ---------------------------------------------------------------------------
// Concatenation and selection
// ---------------------------------------------------------------------------

/// Concatenation of per-worker results (order is unspecified, matching the
/// unordered processing contract).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Concat<T>(pub Vec<T>);

impl<T> Merge for Concat<T> {
    fn merge(&mut self, other: Self) {
        self.0.extend(other.0);
    }
}

impl<T: Send + 'static> ReductionObject for Concat<T> {
    fn byte_size(&self) -> usize {
        self.0.len() * mem::size_of::<T>()
    }
}

/// The `k` smallest elements seen — the accumulator shape of k-nearest
/// neighbors (elements are `(distance, id)` pairs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopK<T: Ord> {
    k: usize,
    /// Invariant: sorted ascending, `len() <= k`.
    items: Vec<T>,
}

impl<T: Ord> TopK<T> {
    /// The set grows with what it holds: `k` is a bound, never an up-front
    /// allocation, so any `k` is cheap until that many elements are seen.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> TopK<T> {
        assert!(k > 0, "TopK needs k >= 1");
        TopK { k, items: Vec::new() }
    }

    /// The bound `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current best elements, ascending.
    #[must_use]
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Offer one element; kept only if among the `k` smallest so far.
    pub fn observe(&mut self, v: T) {
        if self.items.len() == self.k {
            if let Some(last) = self.items.last() {
                if v >= *last {
                    return;
                }
            }
        }
        let pos = self.items.partition_point(|x| *x < v);
        self.items.insert(pos, v);
        self.items.truncate(self.k);
    }

    /// Consume and return the best elements, ascending.
    #[must_use]
    pub fn into_sorted(self) -> Vec<T> {
        self.items
    }
}

impl<T: Ord> Merge for TopK<T> {
    /// # Panics
    /// Panics when the two accumulators disagree on `k`.
    fn merge(&mut self, other: Self) {
        assert_eq!(self.k, other.k, "TopK k mismatch");
        for v in other.items {
            self.observe(v);
        }
    }
}

impl<T: Ord + Send + 'static> ReductionObject for TopK<T> {
    fn byte_size(&self) -> usize {
        8 + self.items.len() * mem::size_of::<T>()
    }
}

// ---------------------------------------------------------------------------
// Keyed aggregation
// ---------------------------------------------------------------------------

/// Keyed merge: a map whose values are themselves mergeable — the general
/// substitute for MapReduce's shuffle-by-key (e.g. wordcount uses
/// `MergeMap<String, Count>`).
#[derive(Debug, Clone, PartialEq)]
pub struct MergeMap<K: Eq + Hash, V: Merge>(pub HashMap<K, V>);

impl<K: Eq + Hash, V: Merge> Default for MergeMap<K, V> {
    fn default() -> Self {
        MergeMap(HashMap::new())
    }
}

impl<K: Eq + Hash, V: Merge> MergeMap<K, V> {
    /// Fold `value` into the entry for `key`.
    pub fn observe(&mut self, key: K, value: V) {
        use std::collections::hash_map::Entry;
        match self.0.entry(key) {
            Entry::Occupied(mut e) => e.get_mut().merge(value),
            Entry::Vacant(e) => {
                e.insert(value);
            }
        }
    }
}

impl<K: Eq + Hash, V: Merge> Merge for MergeMap<K, V> {
    fn merge(&mut self, other: Self) {
        for (k, v) in other.0 {
            self.observe(k, v);
        }
    }
}

impl<K, V> ReductionObject for MergeMap<K, V>
where
    K: Eq + Hash + Send + 'static,
    V: Merge + Send + 'static,
{
    fn byte_size(&self) -> usize {
        self.0.len() * (mem::size_of::<K>() + mem::size_of::<V>())
    }
}

// ---------------------------------------------------------------------------
// Composition
// ---------------------------------------------------------------------------

impl<A: Merge, B: Merge> Merge for (A, B) {
    fn merge(&mut self, other: Self) {
        self.0.merge(other.0);
        self.1.merge(other.1);
    }
}

impl<A: ReductionObject, B: ReductionObject> ReductionObject for (A, B) {
    fn byte_size(&self) -> usize {
        self.0.byte_size() + self.1.byte_size()
    }
}

impl<A: Merge, B: Merge, C: Merge> Merge for (A, B, C) {
    fn merge(&mut self, other: Self) {
        self.0.merge(other.0);
        self.1.merge(other.1);
        self.2.merge(other.2);
    }
}

impl<A: ReductionObject, B: ReductionObject, C: ReductionObject> ReductionObject for (A, B, C) {
    fn byte_size(&self) -> usize {
        self.0.byte_size() + self.1.byte_size() + self.2.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_and_count_merge() {
        let mut s = Sum(3u64);
        s.merge(Sum(4));
        assert_eq!(s, Sum(7));
        let mut c = Count(2);
        c.bump();
        c.merge(Count(5));
        assert_eq!(c, Count(8));
    }

    #[test]
    fn minmax_tracks_extremes_across_merges() {
        let mut a = MinMax::default();
        a.observe(3.0);
        a.observe(-1.0);
        let mut b = MinMax::default();
        b.observe(10.0);
        a.merge(b);
        assert_eq!(a.min, Some(-1.0));
        assert_eq!(a.max, Some(10.0));
    }

    #[test]
    fn minmax_empty_merge_is_identity() {
        let mut a = MinMax::default();
        a.observe(5i32);
        let before = a;
        a.merge(MinMax::default());
        assert_eq!(a, before);
    }

    #[test]
    fn mean_of_split_streams_matches_whole() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut whole = Mean::default();
        xs.iter().for_each(|&x| whole.observe(x));
        let mut a = Mean::default();
        let mut b = Mean::default();
        xs[..2].iter().for_each(|&x| a.observe(x));
        xs[2..].iter().for_each(|&x| b.observe(x));
        a.merge(b);
        assert_eq!(a.value(), whole.value());
        assert_eq!(a.value(), Some(3.5));
    }

    #[test]
    fn mean_empty_has_no_value() {
        assert_eq!(Mean::default().value(), None);
    }

    #[test]
    fn vecadd_merges_elementwise() {
        let mut a = VecAdd(vec![1.0, 2.0]);
        a.merge(VecAdd(vec![10.0, 20.0]));
        assert_eq!(a.0, vec![11.0, 22.0]);
        assert_eq!(a.byte_size(), 16);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn vecadd_rejects_shape_mismatch() {
        VecAdd::zeros(2).merge(VecAdd::zeros(3));
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.observe(0.0); // bin 0
        h.observe(9.99); // bin 4
        h.observe(-3.0); // clamp -> bin 0
        h.observe(42.0); // clamp -> bin 4
        h.observe(5.0); // bin 2
        assert_eq!(h.bins, vec![2, 0, 1, 0, 2]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_merge_adds_bins() {
        let mut a = Histogram::new(0.0, 1.0, 2);
        a.observe(0.1);
        let mut b = Histogram::new(0.0, 1.0, 2);
        b.observe(0.9);
        b.observe(0.2);
        a.merge(b);
        assert_eq!(a.bins, vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "range mismatch")]
    fn histogram_merge_rejects_different_ranges() {
        Histogram::new(0.0, 1.0, 2).merge(Histogram::new(0.0, 2.0, 2));
    }

    #[test]
    fn concat_appends() {
        let mut a = Concat(vec![1, 2]);
        a.merge(Concat(vec![3]));
        assert_eq!(a.0.len(), 3);
    }

    #[test]
    fn topk_keeps_k_smallest() {
        let mut t = TopK::new(3);
        for v in [9, 1, 8, 2, 7, 3] {
            t.observe(v);
        }
        assert_eq!(t.items(), &[1, 2, 3]);
    }

    #[test]
    fn topk_merge_equals_single_stream() {
        let vals = [5, 3, 8, 1, 9, 2, 7, 4, 6, 0];
        let mut whole = TopK::new(4);
        vals.iter().for_each(|&v| whole.observe(v));
        let mut a = TopK::new(4);
        let mut b = TopK::new(4);
        vals[..5].iter().for_each(|&v| a.observe(v));
        vals[5..].iter().for_each(|&v| b.observe(v));
        a.merge(b);
        assert_eq!(a.items(), whole.items());
        assert_eq!(a.into_sorted(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn topk_duplicate_values_are_kept() {
        let mut t = TopK::new(3);
        for v in [2, 2, 2, 1] {
            t.observe(v);
        }
        assert_eq!(t.items(), &[1, 2, 2]);
    }

    #[test]
    fn mergemap_wordcount_style() {
        let mut a: MergeMap<&str, Count> = MergeMap::default();
        a.observe("cloud", Count(1));
        a.observe("burst", Count(1));
        let mut b: MergeMap<&str, Count> = MergeMap::default();
        b.observe("cloud", Count(2));
        a.merge(b);
        assert_eq!(a.0["cloud"], Count(3));
        assert_eq!(a.0["burst"], Count(1));
    }

    #[test]
    fn tuples_merge_componentwise() {
        let mut t = (Sum(1u64), Count(1));
        t.merge((Sum(2), Count(3)));
        assert_eq!(t, (Sum(3), Count(4)));
        let mut t3 = (Sum(1u64), Count(0), Mean::default());
        t3.merge((Sum(1), Count(1), Mean { sum: 2.0, count: 1 }));
        assert_eq!(t3.1, Count(1));
        assert_eq!(t3.2.value(), Some(2.0));
    }
}
