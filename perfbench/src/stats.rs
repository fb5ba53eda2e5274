//! Order statistics for the reported timings.

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile of `n` samples that still leaves at least ten
/// samples above it, capped at p95. With twenty samples or fewer no such
/// percentile lies above the median, and the median is used. Returns the
/// quantile as a fraction.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (n.saturating_sub(10) as f64 / n as f64).clamp(0.5, 0.95)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        assert_eq!(tail_quantile(5), 0.5);
        assert_eq!(tail_quantile(17), 0.5);
        assert_eq!(tail_quantile(1000), 0.95);
        let q = tail_quantile(60);
        assert!(((1.0 - q) * 60.0 - 10.0).abs() < 1e-9);
    }
}
