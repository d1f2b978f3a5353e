//! Order statistics for reported timings.

/// Samples a tail statistic must leave above itself.
pub const TAIL_BEYOND: usize = 10;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v`; the mean of the two middle samples for an even count.
/// `None` for no samples.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The highest percentile of a sample set that still has at least
/// [`TAIL_BEYOND`] samples above it, with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile `value` is (100 when the set is too small to
    /// leave ten samples above any of its members: `value` is then the
    /// maximum).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
}

/// The tail statistic of `v`: with `n > TAIL_BEYOND` samples it is the
/// `n - TAIL_BEYOND`-th smallest, i.e. percentile `100 (n - 10) / n`;
/// with fewer it falls back to the maximum. `None` for no samples.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return None;
    }
    if n <= TAIL_BEYOND {
        return Some(Tail {
            percentile: 100.0,
            value: s[n - 1],
            n,
        });
    }
    Some(Tail {
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        value: s[n - TAIL_BEYOND - 1],
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_above() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.n, 100);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_percentile_tracks_the_sample_count() {
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.n), (50.0, 9.0, 20));
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 0.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().percentile, 99.0);
    }

    #[test]
    fn small_sets_fall_back_to_the_maximum() {
        assert_eq!(tail(&[]), None);
        let t = tail(&[5.0, 7.0, 6.0]).unwrap();
        assert_eq!((t.percentile, t.value, t.n), (100.0, 7.0, 3));
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().value, 9.0);
    }
}
