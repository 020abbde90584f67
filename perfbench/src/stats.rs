//! Percentiles from per-request samples.
//!
//! The rule: a percentile is reported only when at least [`MIN_BEYOND`]
//! samples lie strictly above its rank, and always together with its
//! sample count. Nothing here reads a bucketed histogram.

/// Samples that must lie beyond a percentile's rank for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Per-request samples of one quantity, sorted ascending.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile at quantile `q` in `(0, 1]`, or `None` when
    /// fewer than [`MIN_BEYOND`] samples lie above that rank.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        (n - rank >= MIN_BEYOND).then(|| self.sorted[rank - 1])
    }

    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }
}

/// Median of a handful of repeated measurements (set-up repeats, not
/// per-request samples), averaging the middle pair for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(1000);
        assert_eq!(s.percentile(0.5), Some(500.0));
        assert_eq!(s.percentile(0.99), Some(990.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly 10 above it: reported.
        assert_eq!(ramp(1000).percentile(0.99), Some(990.0));
        // p99 of 999 samples has 9 above it: withheld.
        assert_eq!(ramp(999).percentile(0.99), None);
        // A median needs 20 samples.
        assert_eq!(ramp(20).percentile(0.5), Some(10.0));
        assert_eq!(ramp(19).percentile(0.5), None);
        assert_eq!(Samples::default().percentile(0.5), None);
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
