//! Order statistics for the end-to-end timings.

/// Samples that must lie strictly above a tail percentile before it is
/// reported: fewer than this and the percentile is one or two outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (`0 <= q <= 1`) of `samples` by linear interpolation
/// between closest ranks, or `None` for an empty slice.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples`, or `None` for an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The `q`-quantile of `samples`, but only when at least
/// [`MIN_TAIL_SAMPLES`] samples lie strictly above it.
#[must_use]
pub fn tail_quantile(samples: &[f64], q: f64) -> Option<f64> {
    let value = quantile(samples, q)?;
    let above = samples.iter().filter(|&&s| s > value).count();
    (above >= MIN_TAIL_SAMPLES).then_some(value)
}

/// Geometric mean of positive ratios, or `None` for an empty slice.
#[must_use]
pub fn geomean(ratios: &[f64]) -> Option<f64> {
    if ratios.is_empty() {
        return None;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.ln()).sum();
    Some((log_sum / ratios.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_is_reported_only_with_ten_samples_above_it() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 1..=99 is 89.2; only 10 samples (90..=99) lie above.
        assert_eq!(tail_quantile(&ninety_nine, 0.9), quantile(&ninety_nine, 0.9));
        let ninety: Vec<f64> = (1..=90).map(f64::from).collect();
        // p90 of 1..=90 is 81.1; only 9 samples lie above it.
        assert_eq!(tail_quantile(&ninety, 0.9), None);
        // Ties at the top do not count as lying above.
        let flat = vec![5.0; 200];
        assert_eq!(tail_quantile(&flat, 0.9), None);
    }

    #[test]
    fn geomean_of_equal_ratios_is_that_ratio() {
        let g = geomean(&[1.1, 1.1, 1.1]).expect("non-empty");
        assert!((g - 1.1).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }
}
