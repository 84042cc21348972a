//! Order statistics over timing samples: median, quartiles and the tail
//! percentile rule the benchmark reports latencies with.

/// A sorted copy of `xs` (NaN-free input assumed: every sample is a
/// measured duration or count).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count, 0 for no
/// samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads printed here match the ones computed over repeated runs.
/// Needs at least two samples; fewer return the lone value (or 0) three
/// times.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency distribution, with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at the reported percentile.
    pub value: f64,
    /// The percentile (nearest-rank) the value sits at.
    pub percentile: f64,
    /// Samples strictly beyond that rank.
    pub beyond: usize,
    /// Samples in the distribution.
    pub n: usize,
}

/// The highest percentile that still has at least [`TAIL_BEYOND`] samples
/// beyond it: the order statistic of rank `n - 10`, i.e. percentile
/// `100 (n - 10) / n`.  A tail is never reported below the median: with
/// fewer than 20 samples the rule would land there, so the tail falls
/// back to the median and `beyond` says how thin it is.
pub fn tail(xs: &[f64]) -> Tail {
    let v = sorted(xs);
    let n = v.len();
    if n >= 2 * TAIL_BEYOND {
        let rank = n - TAIL_BEYOND;
        Tail {
            value: v[rank - 1],
            percentile: 100.0 * rank as f64 / n as f64,
            beyond: TAIL_BEYOND,
            n,
        }
    } else {
        Tail {
            value: median(&v),
            percentile: 50.0,
            beyond: n / 2,
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(
            (t.value, t.percentile, t.beyond, t.n),
            (90.0, 90.0, 10, 100)
        );
        let xs: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond, t.n), (20.0, 10, 30));
        assert!((t.percentile - 200.0 / 3.0).abs() < 1e-12);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.percentile, t.beyond), (10.0, 50.0, 10));
    }

    #[test]
    fn short_tail_falls_back_to_median() {
        let t = tail(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((t.value, t.percentile, t.beyond, t.n), (3.0, 50.0, 2, 5));
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.percentile, t.beyond), (10.0, 50.0, 9));
    }
}
