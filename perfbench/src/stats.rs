//! Order statistics over measured samples.

/// The nearest-rank `p`-quantile (`0 < p ≤ 1`) of `samples`; `0.0` when
/// there are none.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `samples` (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The mean of the sorted samples from position `n·lo` up to `n·hi`, both
/// rounded (`0 ≤ lo < hi ≤ 1`; at least one sample); `0.0` when there are
/// none.  Around
/// the median this is a robust estimate of it that, unlike the median
/// itself, does not flip between two clusters when the median falls in the
/// gap between them.
pub fn central_mean(samples: &[f64], lo: f64, hi: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let first = ((n * lo).round() as usize).min(sorted.len() - 1);
    let last = ((n * hi).round() as usize).clamp(first + 1, sorted.len());
    let window = &sorted[first..last];
    window.iter().sum::<f64>() / window.len() as f64
}

/// The geometric mean of positive `values`; `0.0` when there are none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// `part / whole`, or `0.0` when `whole` is zero.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(central_mean(&v, 0.45, 0.55), 50.5);
        assert_eq!(central_mean(&[7.0], 0.45, 0.55), 7.0);
        let two_clusters: Vec<f64> = [1.0; 50].iter().chain(&[3.0; 50]).copied().collect();
        assert_eq!(central_mean(&two_clusters, 0.45, 0.55), 2.0);
    }
}
