//! Order statistics over latency samples.

/// `values` sorted ascending (NaN-total order).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest percentile with at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The order statistic itself.
    pub value: f64,
    /// Its percentile rank, `100 * k / n` for the `k`-th smallest sample.
    pub percentile: f64,
    /// Samples strictly beyond it in rank (0 when there are too few
    /// samples and the maximum stands in).
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest percentile with [`TAIL_BEYOND`] samples beyond it. With
/// too few samples for that, the maximum stands in and `beyond` is 0, so
/// the shortfall is visible in the output rather than hidden.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let s = sorted(values);
    let n = s.len();
    let last = *s.last()?;
    if n <= TAIL_BEYOND {
        return Some(Tail {
            value: last,
            percentile: 100.0,
            beyond: 0,
            samples: n,
        });
    }
    let k = n - TAIL_BEYOND;
    Some(Tail {
        value: s[k - 1],
        percentile: 100.0 * k as f64 / n as f64,
        beyond: TAIL_BEYOND,
        samples: n,
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
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).expect("non-empty");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
        let few = tail(&[5.0, 1.0]).expect("non-empty");
        assert_eq!((few.value, few.beyond), (5.0, 0));
    }
}
