//! Order statistics over latency samples.
//!
//! Every timing the benchmark reports is a median plus a *tail*: the
//! highest percentile that still has at least [`TAIL_BEYOND`] samples
//! above it. With 100 samples the tail is p90, with 30 it is p66, and
//! with 10 or fewer there is no tail at all — a tail read off fewer
//! samples than that moves with single outliers.

/// How many samples must lie strictly above the tail sample.
pub const TAIL_BEYOND: usize = 10;

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail read: the sample value, the percentile it sits at, and the
/// sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the tail rank.
    pub value: f64,
    /// Share of samples at or below `value`, in percent, rounded down to
    /// one decimal.
    pub percentile: f64,
    /// Number of samples the tail was read from.
    pub samples: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the `(TAIL_BEYOND + 1)`-th largest sample. `None` when there are
/// not more than [`TAIL_BEYOND`] samples.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let sorted = sorted(samples);
    let rank = n - TAIL_BEYOND - 1;
    let percentile = ((rank + 1) as f64 * 1000.0 / n as f64).floor() / 10.0;
    Some(Tail { value: sorted[rank], percentile, samples: n })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
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
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        for n in [11usize, 20, 37, 100, 1000] {
            let mut samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            samples.reverse();
            let t = tail(&samples).unwrap();
            let beyond = samples.iter().filter(|&&s| s > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
        }
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred).unwrap();
        assert_eq!((t.value, t.percentile), (90.0, 90.0));
        let thirty: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&thirty).unwrap().percentile, 66.6);
    }
}
