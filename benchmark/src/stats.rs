//! Summaries of timing samples: the percentile rule, medians and the
//! quartile spread the acceptance rule of `BENCHMARK.json` is stated in.

/// A percentile is *resolved* only when at least this many samples lie
/// beyond it; below that the value is one of a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile and whether enough samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub resolved: bool,
}

/// Nearest-rank percentile `p ∈ (0, 100]` of ascending `sorted` samples.
pub fn percentile(sorted: &[u64], p: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    Some(Percentile {
        value: sorted[idx] as f64,
        resolved: n - 1 - idx >= MIN_BEYOND,
    })
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Python extrapolates past the ends of short inputs: no clamp.
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the spread the
/// benchmark's bounds are compared with.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Latency samples of one measured phase, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            ns: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn append(&mut self, other: &mut Samples) {
        self.ns.append(&mut other.ns);
    }

    /// All of `parts` as one sample set.
    pub fn pooled(parts: Vec<Samples>) -> Samples {
        Samples {
            ns: parts.into_iter().flat_map(|p| p.ns).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn sum_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Percentile in microseconds; `None` without samples.
    pub fn percentile_us(&mut self, p: f64) -> Option<Percentile> {
        self.ns.sort_unstable();
        percentile(&self.ns, p).map(|pc| Percentile {
            value: pc.value / 1e3,
            resolved: pc.resolved,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=100).collect();
        // p50 of 100: rank 50, 50 beyond.
        let p50 = percentile(&v, 50.0).unwrap();
        assert_eq!(p50.value, 50.0);
        assert!(p50.resolved);
        // p90 of 100: rank 90, exactly 10 beyond.
        let p90 = percentile(&v, 90.0).unwrap();
        assert_eq!(p90.value, 90.0);
        assert!(p90.resolved);
        // p99 of 100: one sample beyond.
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!(p99.value, 99.0);
        assert!(!p99.resolved);
        // p99 resolves from 1 000 samples on (10 beyond), not from 999.
        let v: Vec<u64> = (1..=1000).collect();
        assert!(percentile(&v, 99.0).unwrap().resolved);
        let v: Vec<u64> = (1..=999).collect();
        assert!(!percentile(&v, 99.0).unwrap().resolved);
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One stalled round does not move the reported rate.
        assert_eq!(median(&[100.0, 101.0, 99.0, 100.5, 3.0]), 100.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
