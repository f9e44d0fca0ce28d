//! Pure arithmetic behind the reported metrics: percentiles, ratios with
//! an explicit base, and the paper's modelled-time cost measure.

use std::time::Duration;

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median of `v` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
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
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile, `100 · rank / n` with a 1-based rank.
    pub percentile: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Select the tail of `v`. With `n` sorted samples the 1-based rank
/// `n − TAIL_BEYOND` is the highest that leaves `TAIL_BEYOND` samples above
/// it; `None` when there are too few samples for any such rank.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: s[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

/// `part / base`, or `0.0` when the base is zero (nothing was attempted,
/// so nothing can have failed or hit).
pub fn ratio(part: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        part / base
    }
}

/// The paper's cost measure: compute wall-clock plus the UDF cost charged
/// for `calls` evaluations at `per_call` each, in milliseconds.
pub fn modelled_ms(wall: Duration, calls: u64, per_call: Duration) -> f64 {
    wall.as_secs_f64() * 1e3 + calls as f64 * per_call.as_secs_f64() * 1e3
}

/// Probability that a Binomial(`n`, `p`) variable is at least `k`.
pub fn binomial_upper_tail(n: u64, k: u64, p: f64) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if k > n {
        return 0.0;
    }
    // P(X < k) by the pmf recurrence pmf(i+1) = pmf(i)·(n−i)/(i+1)·p/(1−p).
    let mut pmf = (1.0 - p).powf(n as f64);
    let mut below = 0.0;
    for i in 0..k {
        below += pmf;
        pmf *= (n - i) as f64 / (i + 1) as f64 * p / (1.0 - p);
    }
    (1.0 - below).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        // Unsorted input, smallest sample count that has a tail.
        let v: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 1.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&[1.0; 10]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn ratio_base_zero_is_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
    }

    #[test]
    fn modelled_time_adds_charged_cost() {
        // 40 ms of compute plus 10 calls at 1.82085 ms each.
        let per_call = Duration::from_nanos(1_820_850);
        let ms = modelled_ms(Duration::from_millis(40), 10, per_call);
        assert!((ms - 58.2085).abs() < 1e-9, "{ms}");
        // A free UDF charges nothing: modelled time is wall time.
        assert_eq!(
            modelled_ms(Duration::from_millis(7), 1000, Duration::ZERO),
            7.0
        );
    }

    #[test]
    fn binomial_tail_matches_closed_forms() {
        assert_eq!(binomial_upper_tail(10, 0, 0.3), 1.0);
        assert_eq!(binomial_upper_tail(10, 11, 0.3), 0.0);
        // P(X ≥ 1) = 1 − (1−p)^n.
        let p1 = binomial_upper_tail(20, 1, 0.05);
        assert!((p1 - (1.0 - 0.95f64.powi(20))).abs() < 1e-12);
        // P(X ≥ n) = p^n.
        let pn = binomial_upper_tail(5, 5, 0.5);
        assert!((pn - 0.5f64.powi(5)).abs() < 1e-12);
    }
}
