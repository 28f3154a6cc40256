//! Property tests for the reduction-object algebra.
//!
//! The Generalized Reduction contract (paper §III-A) requires results to be
//! independent of processing order, i.e. every `Merge` implementation must
//! be commutative and associative (up to the application's equivalence):
//! these properties are what make work stealing and arbitrary chunk
//! interleavings safe.

use cloudburst_core::combiners::{Concat, Count, Histogram, Mean, MinMax, Sum, TopK, VecAdd};
use cloudburst_core::Merge;
use proptest::prelude::*;

/// Build, merge in both orders, compare.
fn commutes<T: Merge + Clone + PartialEq + std::fmt::Debug>(a: T, b: T) {
    let mut ab = a.clone();
    ab.merge(b.clone());
    let mut ba = b;
    ba.merge(a);
    assert_eq!(ab, ba);
}

/// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
fn associates<T: Merge + Clone + PartialEq + std::fmt::Debug>(a: T, b: T, c: T) {
    let mut left = a.clone();
    left.merge(b.clone());
    left.merge(c.clone());
    let mut bc = b;
    bc.merge(c);
    let mut right = a;
    right.merge(bc);
    assert_eq!(left, right);
}

proptest! {
    #[test]
    fn sum_is_commutative_and_associative(a in 0u64..1 << 40, b in 0u64..1 << 40, c in 0u64..1 << 40) {
        commutes(Sum(a), Sum(b));
        associates(Sum(a), Sum(b), Sum(c));
    }

    #[test]
    fn count_is_commutative_and_associative(a in 0u64..1 << 40, b in 0u64..1 << 40, c in 0u64..1 << 40) {
        commutes(Count(a), Count(b));
        associates(Count(a), Count(b), Count(c));
    }

    #[test]
    fn minmax_merge_equals_observing_everything(
        xs in prop::collection::vec(-1e9f64..1e9, 0..40),
        split in 0usize..40,
    ) {
        let split = split.min(xs.len());
        let mut whole = MinMax::default();
        xs.iter().for_each(|&x| whole.observe(x));
        let mut a = MinMax::default();
        let mut b = MinMax::default();
        xs[..split].iter().for_each(|&x| a.observe(x));
        xs[split..].iter().for_each(|&x| b.observe(x));
        a.merge(b);
        prop_assert_eq!(a, whole);
    }

    #[test]
    fn mean_of_any_partition_matches_whole(
        xs in prop::collection::vec(-1e6f64..1e6, 1..60),
        split in 0usize..60,
    ) {
        let split = split.min(xs.len());
        let mut whole = Mean::default();
        xs.iter().for_each(|&x| whole.observe(x));
        let mut a = Mean::default();
        let mut b = Mean::default();
        xs[..split].iter().for_each(|&x| a.observe(x));
        xs[split..].iter().for_each(|&x| b.observe(x));
        a.merge(b);
        prop_assert_eq!(a.count, whole.count);
        prop_assert!((a.sum - whole.sum).abs() < 1e-6_f64.max(whole.sum.abs() * 1e-12));
    }

    #[test]
    fn vecadd_is_commutative_and_associative(
        a in prop::collection::vec(-1e6f64..1e6, 1..8),
        b in prop::collection::vec(-1e6f64..1e6, 1..8),
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (VecAdd(a[..n].to_vec()), VecAdd(b[..n].to_vec()));
        // FP addition commutes exactly (same pairwise operations).
        commutes(a.clone(), b.clone());
        let c = VecAdd(vec![1.0; n]);
        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());
        let mut bc = b;
        bc.merge(c);
        let mut right = a;
        right.merge(bc);
        for (l, r) in left.0.iter().zip(&right.0) {
            prop_assert!((l - r).abs() < 1e-6);
        }
    }

    #[test]
    fn histogram_merge_equals_single_stream(
        xs in prop::collection::vec(-2.0f64..2.0, 0..80),
        split in 0usize..80,
        bins in 1usize..16,
    ) {
        let split = split.min(xs.len());
        let mut whole = Histogram::new(-1.0, 1.0, bins);
        xs.iter().for_each(|&x| whole.observe(x));
        let mut a = Histogram::new(-1.0, 1.0, bins);
        let mut b = Histogram::new(-1.0, 1.0, bins);
        xs[..split].iter().for_each(|&x| a.observe(x));
        xs[split..].iter().for_each(|&x| b.observe(x));
        a.merge(b);
        prop_assert_eq!(a, whole);
    }

    #[test]
    fn topk_merge_equals_single_stream(
        xs in prop::collection::vec(0i64..1000, 0..60),
        split in 0usize..60,
        k in 1usize..12,
    ) {
        let split = split.min(xs.len());
        let mut whole = TopK::new(k);
        xs.iter().for_each(|&x| whole.observe(x));
        let mut a = TopK::new(k);
        let mut b = TopK::new(k);
        xs[..split].iter().for_each(|&x| a.observe(x));
        xs[split..].iter().for_each(|&x| b.observe(x));
        a.merge(b);
        prop_assert_eq!(a.items(), whole.items());
        // And it really is the k smallest.
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        sorted.truncate(k);
        prop_assert_eq!(whole.into_sorted(), sorted);
    }

    #[test]
    fn topk_with_an_unbounded_k_keeps_everything_sorted(
        xs in prop::collection::vec(0i64..1000, 0..60),
        split in 0usize..60,
    ) {
        // `k` bounds the set; it sizes nothing up front.
        let split = split.min(xs.len());
        let mut a = TopK::new(usize::MAX);
        let mut b = TopK::new(usize::MAX);
        xs[..split].iter().for_each(|&x| a.observe(x));
        xs[split..].iter().for_each(|&x| b.observe(x));
        a.merge(b);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(a.into_sorted(), sorted);
    }

    #[test]
    fn concat_preserves_multiset(
        a in prop::collection::vec(0u32..100, 0..20),
        b in prop::collection::vec(0u32..100, 0..20),
    ) {
        let mut merged = Concat(a.clone());
        merged.merge(Concat(b.clone()));
        let mut got = merged.0;
        got.sort_unstable();
        let mut expect = a;
        expect.extend(b);
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn tuple_merge_is_componentwise(
        a in 0u64..1000, b in 0u64..1000, c in 0u64..1000, d in 0u64..1000,
    ) {
        let mut t = (Sum(a), Count(b));
        t.merge((Sum(c), Count(d)));
        prop_assert_eq!(t, (Sum(a + c), Count(b + d)));
    }
}
