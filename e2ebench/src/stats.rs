//! Order statistics the benchmark reports. Every timed metric is a
//! quantile over per-operation samples, never a total or a mean over a
//! handful of operations.

/// Sorted copy of `values` (NaNs are a bug in the caller).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The median, averaging the two middle values of an even-sized sample
/// (Python's `statistics.median`). `None` on an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. `None` with fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        // j is clamped to 1..=n-1 as Python does for small samples; delta
        // is taken from the clamped j, so tiny samples extrapolate.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics at position `q·(n−1)`. `None` on an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    let frac = pos - lo as f64;
    Some(v[lo] + (v[hi] - v[lo]) * frac)
}

/// How many of `n` samples lie strictly beyond the interpolation position
/// of the `q`-quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let pos = (q.clamp(0.0, 1.0) * (n - 1) as f64).floor() as usize;
    n - 1 - pos
}

/// The mean over groups of each group's `q`-quantile. A closed loop that
/// cycles through a pool of different calls keeps one group per call:
/// pooling their samples would put the quantile on whichever call's
/// cluster happens to straddle it. `None` when any group is empty.
pub fn pooled_quantile(groups: &[Vec<f64>], q: f64) -> Option<f64> {
    let per_group: Option<Vec<f64>> = groups.iter().map(|g| percentile(g, q)).collect();
    let per_group = per_group?;
    if per_group.is_empty() {
        return None;
    }
    Some(per_group.iter().sum::<f64>() / per_group.len() as f64)
}

/// Samples lying beyond each group's `q`-quantile, summed over groups.
pub fn tail_support(groups: &[Vec<f64>], q: f64) -> usize {
    groups.iter().map(|g| samples_beyond(g.len(), q)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: Python
        // clamps the order-statistic index but extrapolates the weight.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some([15.0, 30.0, 45.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&[1.0, 2.0], 0.25), Some(1.25));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn pooled_quantile_averages_per_group_quantiles() {
        let groups = vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0, 40.0]];
        assert_eq!(pooled_quantile(&groups, 0.5), Some((2.0 + 25.0) / 2.0));
        assert_eq!(pooled_quantile(&groups, 1.0), Some((3.0 + 40.0) / 2.0));
        assert_eq!(pooled_quantile(&[], 0.5), None);
        assert_eq!(pooled_quantile(&[vec![1.0], vec![]], 0.5), None);
        // The median of one group is the plain median.
        assert_eq!(pooled_quantile(&[vec![4.0, 1.0, 3.0, 2.0]], 0.5), Some(2.5));
    }

    #[test]
    fn tail_support_sums_over_groups() {
        let groups = vec![vec![0.0; 15]; 5];
        // p75 of 15 samples sits at position 10.5: 4 samples beyond each.
        assert_eq!(tail_support(&groups, 0.75), 20);
        assert_eq!(tail_support(&[], 0.75), 0);
    }

    #[test]
    fn samples_beyond_counts_strictly_later_order_statistics() {
        assert_eq!(samples_beyond(40, 0.75), 10);
        assert_eq!(samples_beyond(30, 0.65), 11);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(1, 0.5), 0);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }
}
