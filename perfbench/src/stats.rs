//! Order statistics for the harness: medians, quartiles, and the highest
//! percentile a sample can support.
//!
//! A percentile is *supported* only when at least [`MIN_BEYOND`] samples
//! lie beyond it, so a "p99" is never the maximum of a dozen requests.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the benchmark's own spread check matches an outside one. `None`
/// for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// 1-based nearest rank of percentile `p` (in `(0, 1)`) among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error in `p * n` from bumping an exact
    // rank (0.9 * 100) up by one.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let s = sorted(values);
    (!s.is_empty()).then(|| s[rank(s.len(), p) - 1])
}

/// How many of `n` samples lie strictly beyond the percentile-`p` rank.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether `n` samples support percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The highest of `candidates` that `n` samples support, if any.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| supports(n, p))
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some((2.0, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn support_needs_ten_samples_beyond() {
        assert_eq!(beyond(100, 0.9), 10);
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(!supports(12, 0.99));
        assert!(supports(1000, 0.99));
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn highest_supported_picks_the_tail_the_sample_allows() {
        let ps = [0.5, 0.9, 0.99, 0.999];
        assert_eq!(highest_supported(15, &ps), None);
        assert_eq!(highest_supported(20, &ps), Some(0.5));
        assert_eq!(highest_supported(150, &ps), Some(0.9));
        assert_eq!(highest_supported(1000, &ps), Some(0.99));
        assert_eq!(highest_supported(20_000, &ps), Some(0.999));
    }
}
