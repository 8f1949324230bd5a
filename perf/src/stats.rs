//! The estimators every metric goes through.

/// One metric's samples from one run.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    /// Mean of the faster (smaller) half: host interference only ever adds
    /// time, so the fast half is the part of the run the host left alone.
    pub fast_half_mean: f64,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// The same samples in another unit.
    pub fn scaled(self, k: f64) -> Summary {
        Summary {
            n: self.n,
            fast_half_mean: self.fast_half_mean * k,
            median: self.median * k,
            p25: self.p25 * k,
            p75: self.p75 * k,
            min: self.min * k,
            max: self.max * k,
        }
    }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarize a non-empty sample set.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "a metric needs at least one sample");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let half = s.len().div_ceil(2);
    Summary {
        n: s.len(),
        fast_half_mean: s[..half].iter().sum::<f64>() / half as f64,
        median: quantile(&s, 0.5),
        p25: quantile(&s, 0.25),
        p75: quantile(&s, 0.75),
        min: s[0],
        max: s[s.len() - 1],
    }
}

/// Median of a non-empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_half_ignores_the_slow_tail() {
        let s = summarize(&[4.0, 1.0, 100.0, 2.0, 3.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.fast_half_mean, 2.0); // mean of 1, 2, 3
        assert_eq!(s.median, 3.0);
        assert_eq!((s.min, s.max), (1.0, 100.0));
        assert_eq!(s.p25, 2.0);
        assert_eq!(s.p75, 4.0);
    }
}
