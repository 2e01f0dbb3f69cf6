//! Order statistics used by every workload: nearest-rank percentiles, the
//! rule that a reported percentile needs at least ten samples beyond it,
//! and medians of run-level figures.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile in a sample of `n`:
/// `ceil(p / 100 * n)`, clamped to `1..=n`.
pub fn rank(n: usize, p: f64) -> usize {
    let r = ((p / 100.0) * n as f64).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Samples strictly above the nearest-rank `p`-th percentile's position.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Nearest-rank percentile of an ascending-sorted sample; `None` when the
/// sample is empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// [`percentile`], but only when at least [`MIN_BEYOND`] samples lie
/// beyond it; a thinner tail does not support the figure.
pub fn supported_percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if beyond(sorted.len(), p) >= MIN_BEYOND {
        percentile(sorted, p)
    } else {
        None
    }
}

/// Median of run-level figures (mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nanoseconds to microseconds.
pub fn us(nanos: u64) -> f64 {
    nanos as f64 / 1e3
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never ran).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
