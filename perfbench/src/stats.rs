//! Sample statistics for the benchmark: a timing is kept as its
//! samples, and reported as a median, quartiles, the sample count, and
//! the highest percentile the count can support.

/// The share `q` of the highest percentile with at least ten samples
/// beyond it, never below the median: 0.95 at n = 200, 0.998 at
/// n = 5000, and 0.5 at n = 11, where no tail can be told from noise.
pub fn tail_quantile(n: usize) -> f64 {
    if n <= 20 {
        return 0.5;
    }
    1.0 - 10.0 / n as f64
}

/// A set of samples, kept sorted.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` into a sample set.
    ///
    /// # Panics
    ///
    /// Panics on NaN, which no timer or counter here can produce.
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
    /// two nearest ranks; 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// First and third quartile.
    pub fn quartiles(&self) -> (f64, f64) {
        (self.quantile(0.25), self.quantile(0.75))
    }

    /// The quantile asked for, capped at [`tail_quantile`] of the sample
    /// count; returns the share actually used and the value.
    pub fn capped_quantile(&self, q: f64) -> (f64, f64) {
        let used = q.min(tail_quantile(self.len()));
        (used, self.quantile(used))
    }

    /// One line for the human-readable report: median, quartiles, the
    /// supported tail and the count.
    pub fn describe(&self, unit: &str) -> String {
        let (q1, q3) = self.quartiles();
        let (share, tail) = self.capped_quantile(1.0);
        format!(
            "median {:.4} {unit} (q1 {:.4}, q3 {:.4}, p{:.1} {:.4}, n = {})",
            self.median(),
            q1,
            q3,
            share * 100.0,
            tail,
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(11), 0.5);
        assert!((tail_quantile(200) - 0.95).abs() < 1e-12);
        assert!((tail_quantile(5000) - 0.998).abs() < 1e-12);
        // The cap is what a p95 request reads at each count.
        let ramp = |n: usize| Samples::new((0..n).map(|i| i as f64).collect());
        assert_eq!(ramp(11).capped_quantile(0.95), (0.5, 5.0));
        let (share, value) = ramp(200).capped_quantile(0.99);
        assert!((share - 0.95).abs() < 1e-12);
        assert!((200.0 - value) >= 10.0, "ten samples lie beyond {value}");
        assert_eq!(ramp(5000).capped_quantile(0.95).0, 0.95);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Samples::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quartiles(), (1.75, 3.25));
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.sum(), 10.0);
        assert_eq!(Samples::default().median(), 0.0);
    }
}
