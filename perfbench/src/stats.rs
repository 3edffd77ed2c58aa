//! Order statistics over measured samples.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`); 0 when
/// empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts samples ascending (NaN-free by construction: every sample is a
/// measured duration or a count).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// A tail percentile that the sample supports.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile actually read, as a fraction (0.99 when the sample
    /// holds at least 1000 values).
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// The highest percentile, capped at p99, that leaves at least ten
/// samples above it (falls back to the median on tiny samples).
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let q = if n > 20 {
        ((n - 10) as f64 / n as f64).min(0.99)
    } else {
        0.5
    };
    Tail {
        q,
        value: quantile(sorted, q),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.n, 500);
        assert_eq!(t.value, 490.0);
        let big: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&big).q, 0.99);
        assert_eq!(tail(&big).value, 4950.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
