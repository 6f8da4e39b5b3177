//! Order statistics for repetitions and probe samples.

/// Median, quartiles, extremes and count of a set of values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `k/4` by the rule of Python's `statistics.quantiles(values,
/// n=4)` (exclusive method), so spreads computed here equal the ones the
/// driver computes. `v` is sorted and has at least two values.
fn quartile(v: &[f64], k: usize) -> f64 {
    let n = v.len();
    let pos = k * (n + 1);
    let j = (pos / 4).clamp(1, n - 1);
    let delta = pos as f64 / 4.0 - j as f64;
    v[j - 1] + (v[j] - v[j - 1]) * delta
}

/// Summarise `values`; `None` when empty. A single value is its own
/// median and quartiles.
pub fn summary(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    let n = v.len();
    let (&min, &max) = (v.first()?, v.last()?);
    let (q1, median, q3) = if n == 1 {
        (min, min, min)
    } else {
        (quartile(&v, 1), quartile(&v, 2), quartile(&v, 3))
    };
    Some(Summary {
        n,
        min,
        q1,
        median,
        q3,
        max,
    })
}

/// Median of `values` (0 when empty — only for printing).
pub fn median(values: &[f64]) -> f64 {
    summary(values).map_or(0.0, |s| s.median)
}

/// The tail percentiles a timing may be reported at, ascending, each with
/// the `k` of "one sample in `k` lies beyond it".
pub const TAILS: [(f64, usize); 3] = [(0.9, 10), (0.99, 100), (0.999, 1000)];

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// The highest of [`TAILS`] with at least [`BEYOND`] samples beyond it in
/// a sample of `n`; `None` when even p90 has too few (report the median
/// alone then).
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .filter(|(_, one_in)| n / one_in >= BEYOND)
        .map(|(p, _)| *p)
        .next_back()
}

/// Nearest-rank percentile `p` in `(0, 1]` of `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied()
}

/// p50 and p99 of a timing sample; `Err` when the sample is too small for
/// p99 to have [`BEYOND`] samples beyond it.
pub fn p50_p99(values: &[f64]) -> Result<(f64, f64), String> {
    match highest_supported_tail(values.len()) {
        Some(tail) if tail >= 0.99 => Ok((
            percentile(values, 0.5).expect("non-empty"),
            percentile(values, 0.99).expect("non-empty"),
        )),
        _ => Err(format!(
            "{} samples cannot support p99 with {BEYOND} beyond it",
            values.len()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summary(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summary(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summary(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        let s = summary(&[5.0, 1.0, 9.0, 3.0, 7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.0, 5.0, 8.0));
        assert!(summary(&[]).is_none());
        let s = summary(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(0.9));
        assert_eq!(highest_supported_tail(999), Some(0.9));
        assert_eq!(highest_supported_tail(1000), Some(0.99));
        assert_eq!(highest_supported_tail(9_999), Some(0.99));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
        let small: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(p50_p99(&small).is_err());
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p50_p99(&enough).unwrap(), (500.0, 990.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.5), Some(3.0));
        assert_eq!(percentile(&v, 0.9), Some(5.0));
        assert_eq!(percentile(&v, 0.2), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }
}
