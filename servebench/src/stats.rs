//! Latency summaries.

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A client-observed latency distribution.
pub struct Latency {
    /// Sample count.
    pub n: usize,
    pub p50_ms: f64,
    /// The highest percentile that still has ten samples above it: the
    /// 11th-largest sample.
    pub tail_ms: f64,
    /// Which percentile `tail_ms` is, `100·(1 − 10/n)`.
    pub tail_pct: f64,
}

impl Latency {
    /// `None` with fewer than eleven samples: no percentile has ten
    /// samples beyond it.
    pub fn of(samples_ms: &[f64]) -> Option<Latency> {
        let n = samples_ms.len();
        if n < 11 {
            return None;
        }
        let mut s = samples_ms.to_vec();
        s.sort_by(f64::total_cmp);
        Some(Latency {
            n,
            p50_ms: median(&s),
            tail_ms: s[n - 11],
            tail_pct: 100.0 * (1.0 - 10.0 / n as f64),
        })
    }

    pub fn describe(&self, name: &str) -> String {
        format!(
            "{name}: p50 {:.3} ms, tail {:.3} ms at p{:.2}, {} samples",
            self.p50_ms, self.tail_ms, self.tail_pct, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let l = Latency::of(&v).unwrap();
        assert_eq!(l.tail_ms, 90.0);
        assert_eq!(l.tail_pct, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > l.tail_ms).count(), 10);
        assert!(Latency::of(&v[..10]).is_none());
    }
}
