//! Order statistics and span arithmetic. Pure functions, no runtime types.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// The `pct`-th percentile (nearest rank) of `values`, reported only when at
/// least ten samples lie beyond it — 100 samples for p90, 1 000 for p99 —
/// so a tail figure is never one or two outliers. The median (`pct <= 50`)
/// needs a single sample.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let n = values.len();
    if pct > 50.0 && (n as f64) * (100.0 - pct) / 100.0 < 10.0 {
        return None;
    }
    if pct <= 50.0 {
        return median(values);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    Some(v[rank.clamp(1, n) - 1])
}

/// `(Q3 − Q1) / median`, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` — the spread the benchmark driver
/// computes over runs, here over the repeats inside one run. 0 for fewer
/// than two values or a zero median.
pub fn rel_iqr(values: &[f64]) -> f64 {
    let Some(med) = median(values) else { return 0.0 };
    let n = values.len();
    if n < 2 || med == 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The "exclusive" method: quartile i sits at position i·(n+1)/4, linearly
    // interpolated (extrapolated at the ends) between its neighbours.
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / med
}

/// `(max − min) / median`: the full relative range of a handful of repeats.
/// 0 for fewer than two values or a zero median.
pub fn rel_range(values: &[f64]) -> f64 {
    let Some(med) = median(values) else { return 0.0 };
    if values.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / med
}

/// Nanoseconds of `parent` covered by no child: the parent's duration minus
/// the union of the child intervals, each clipped to the parent. Children
/// may overlap each other and arrive in any order.
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    if p1 <= p0 {
        return 0;
    }
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(p0, p1), e.clamp(p0, p1)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut reach = p0;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (p1 - p0) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let small: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&small, 99.0), None, "999 samples leave 9.99 beyond p99");
        assert_eq!(percentile(&small, 90.0), Some(900.0));
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
        assert_eq!(percentile(&big, 50.0), Some(500.5));
        let tiny: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&tiny, 90.0), None);
        assert_eq!(percentile(&tiny, 50.0), Some(50.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn range_and_interquartile_spreads() {
        assert_eq!(rel_range(&[]), 0.0);
        assert_eq!(rel_range(&[2.0]), 0.0);
        assert!((rel_range(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(rel_iqr(&[2.0]), 0.0);
        // statistics.quantiles([1, 2, 3, 4, 100], n=4) == [1.5, 3.0, 52.0]
        assert!((rel_iqr(&[100.0, 1.0, 4.0, 2.0, 3.0]) - 50.5 / 3.0).abs() < 1e-12);
        // statistics.quantiles([10, 11, 12, 13], n=4) == [10.25, 11.5, 12.75]
        assert!((rel_iqr(&[10.0, 11.0, 12.0, 13.0]) - 2.5 / 11.5).abs() < 1e-12);
        // statistics.quantiles([9, 10, 11], n=4) == [9.0, 10.0, 11.0]
        assert!((rel_iqr(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all self.
        assert_eq!(self_time_ns((100, 200), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time_ns((100, 200), &[(110, 120), (150, 170)]), 70);
        // Overlapping and nested children count once; order is irrelevant.
        assert_eq!(self_time_ns((100, 200), &[(150, 180), (110, 160), (120, 130)]), 30);
        // Children are clipped to the parent; outside ones vanish.
        assert_eq!(self_time_ns((100, 200), &[(50, 110), (190, 400), (300, 310)]), 80);
        // Fully covered, and a degenerate parent.
        assert_eq!(self_time_ns((100, 200), &[(0, 500)]), 0);
        assert_eq!(self_time_ns((200, 200), &[(0, 500)]), 0);
    }
}
