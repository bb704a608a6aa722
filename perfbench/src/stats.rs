//! Order statistics over host-time and tick-domain samples.

/// The median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile, at most the 99th, that still has at least ten
/// samples above it: `(value, percentile)`.  With ten samples or fewer the
/// maximum is returned as the 100th percentile.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= 10 {
        return (sorted[n - 1], 100.0);
    }
    // Ten samples beyond the reported one, or the top 1 % when that is more.
    let beyond = (n / 100).max(10);
    let rank = n - beyond - 1;
    (sorted[rank], 100.0 * (rank + 1) as f64 / n as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&samples), (990.0, 99.0));
        let few: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&few), (40.0, 80.0));
        assert_eq!(tail(&[5.0, 7.0]), (7.0, 100.0));
    }
}
