//! Percentiles, and the per-window summary every timing metric uses.

/// Nearest-rank percentile of `sorted` (ascending); `None` when empty.
pub fn percentile_sorted<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the two middle ones when even); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The `q`-percentile of each window, in window order, and the number of
/// samples in all of them. Empty windows are skipped. A run's metric is
/// then a [`quantile`] of these per-window values.
pub fn window_percentiles(windows: &mut [Vec<u32>], q: f64) -> (Vec<f64>, usize) {
    let mut values = Vec::new();
    let mut samples = 0;
    for w in windows.iter_mut() {
        w.sort_unstable();
        if let Some(p) = percentile_sorted(w, q) {
            values.push(p as f64);
            samples += w.len();
        }
    }
    (values, samples)
}

/// Nearest-rank `q`-quantile of `values` in any order (`q` = 0 is the
/// lowest); `None` when empty. A latency metric is the lowest of its
/// per-window values: on a shared host interference only ever adds time,
/// sometimes for seconds on end, and a median over windows moves with it; a
/// stall the program itself causes in every window still shows in every
/// window.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, q)
}

/// First quartile, median, third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some([at(1), at(2), at(3)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), Some(50));
        assert_eq!(percentile_sorted(&v, 0.99), Some(99));
        assert_eq!(percentile_sorted(&v, 1.0), Some(100));
        assert_eq!(percentile_sorted(&[7u32], 0.99), Some(7));
        assert_eq!(percentile_sorted::<u32>(&[], 0.5), None);
    }

    #[test]
    fn window_percentiles_then_the_quiet_side() {
        // Two windows slowed from outside and one quiet: the lowest
        // per-window percentile is the quiet one's; every sample is counted.
        let quiet: Vec<u32> = (1..=100).collect();
        let slowed: Vec<u32> = (1..=100).map(|x| x * 3).collect();
        let mut windows = vec![slowed.clone(), quiet, slowed, Vec::new()];
        let (p99, n) = window_percentiles(&mut windows, 0.99);
        assert_eq!(p99, vec![297.0, 99.0, 297.0]);
        assert_eq!(n, 300);
        assert_eq!(quantile(&p99, 0.0), Some(99.0));
        // A stall in every window cannot hide.
        let stalled: Vec<u32> = (1..=100).map(|x| if x > 95 { 5_000 } else { x }).collect();
        let mut windows = vec![stalled.clone(), stalled];
        let (p99, _) = window_percentiles(&mut windows, 0.99);
        assert_eq!(quantile(&p99, 0.0), Some(5_000.0));
        assert_eq!(window_percentiles(&mut [Vec::new()], 0.5), (Vec::new(), 0));
    }

    #[test]
    fn quantile_is_nearest_rank_from_either_side() {
        let v = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 0.25), Some(3.0));
        assert_eq!(quantile(&v, 0.75), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    }
}
