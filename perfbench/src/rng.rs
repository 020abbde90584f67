//! Seeded randomness for the benchmark's inputs: the generator, weighted
//! draws and arrival schedules. Everything a run feeds the program is
//! derived from the workload seed through [`stream`], so one seed always
//! yields the same corpus, users, arrival times and appends.

use std::time::Duration;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// An exponential gap with the given mean rate (events per second).
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}

/// An independent seed for one purpose (`tag`) of one workload seed.
pub fn stream(seed: u64, tag: u64) -> u64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// Draws indices with probability proportional to fixed integer weights.
#[derive(Debug, Clone)]
pub struct Weighted {
    cumulative: Vec<u64>,
}

impl Weighted {
    /// # Panics
    ///
    /// Panics if every weight is zero.
    pub fn new(weights: &[u32]) -> Self {
        let mut total = 0u64;
        let cumulative: Vec<u64> = weights
            .iter()
            .map(|&w| {
                total += w as u64;
                total
            })
            .collect();
        assert!(total > 0, "weighted draw needs a positive total weight");
        Self { cumulative }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> u32 {
        let total = *self.cumulative.last().expect("non-empty weights");
        let x = rng.below(total);
        self.cumulative.partition_point(|&c| c <= x) as u32
    }
}

/// Poisson arrival offsets at `rate` per second over `[0, span)`.
pub fn poisson_arrivals(rng: &mut SplitMix64, rate: f64, span: Duration) -> Vec<Duration> {
    let end = span.as_secs_f64();
    let mut t = rng.exp_gap(rate);
    let mut out = Vec::new();
    while t < end {
        out.push(Duration::from_secs_f64(t));
        t += rng.exp_gap(rate);
    }
    out
}

/// Evenly spaced arrival offsets at `rate` per second over `[0, span)`.
pub fn even_arrivals(rate: f64, span: Duration) -> Vec<Duration> {
    let n = (span.as_secs_f64() * rate).floor() as u64;
    (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_schedule() {
        let span = Duration::from_secs(2);
        let a = poisson_arrivals(&mut SplitMix64::new(stream(7, 3)), 500.0, span);
        let b = poisson_arrivals(&mut SplitMix64::new(stream(7, 3)), 500.0, span);
        assert_eq!(a, b);
        let c = poisson_arrivals(&mut SplitMix64::new(stream(8, 3)), 500.0, span);
        assert_ne!(a, c, "another seed gives another schedule");
    }

    #[test]
    fn poisson_schedule_is_sorted_and_near_its_rate() {
        let span = Duration::from_secs(10);
        let a = poisson_arrivals(&mut SplitMix64::new(1), 1000.0, span);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|&t| t < span));
        let n = a.len() as f64;
        assert!(
            (n - 10_000.0).abs() < 400.0,
            "{n} arrivals for 10k expected"
        );
    }

    #[test]
    fn streams_differ_by_tag() {
        assert_ne!(stream(1, 1), stream(1, 2));
        assert_eq!(stream(5, 9), stream(5, 9));
    }

    #[test]
    fn weighted_draws_follow_weights_and_skip_zeros() {
        let w = Weighted::new(&[0, 1, 3, 0]);
        let mut rng = SplitMix64::new(3);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            counts[w.sample(&mut rng) as usize] += 1;
        }
        assert_eq!(counts[0] + counts[3], 0);
        assert!(counts[2] > 2 * counts[1]);
    }

    #[test]
    fn even_arrivals_are_evenly_spaced() {
        let a = even_arrivals(4.0, Duration::from_secs(1));
        assert_eq!(a.len(), 4);
        assert_eq!(a[1], Duration::from_millis(250));
    }
}
