//! Order statistics for gesture latencies.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it, so a p95 needs 200 samples and a p90 needs 100; asking
//! for a thinner tail is an error rather than a quietly noisy number.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (0 < q < 1) of `samples` by linear interpolation
/// between closest ranks, as `numpy.percentile` computes it by default.
/// Refuses a tail (`q > 0.5`) with fewer than [`MIN_BEYOND`] samples
/// beyond it, and an empty input.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("no samples".into());
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(format!("quantile {q} outside [0, 1]"));
    }
    if q > 0.5 {
        // The epsilon keeps 1 - 0.9 = 0.0999… from losing a sample.
        let beyond = ((1.0 - q) * samples.len() as f64 + 1e-9).floor() as usize;
        if beyond < MIN_BEYOND {
            return Err(format!(
                "p{} needs {MIN_BEYOND} samples beyond it; {} samples leave {beyond}",
                q * 100.0,
                samples.len()
            ));
        }
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Ok(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median (never refused for a non-empty input).
pub fn median(samples: &[f64]) -> Result<f64, String> {
    percentile(samples, 0.5)
}

/// The arithmetic mean, or 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spread the benchmark reports about itself matches the acceptance rule.
pub fn quartiles(values: &[f64]) -> Result<[f64; 3], String> {
    if values.len() < 2 {
        return Err("quartiles need at least two values".into());
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        // Python: j = i*m // 4 clamped to 1..n-1, delta = i*m - 4*j.
        let im = (i + 1) * (sorted.len() + 1);
        let j = (im / 4).clamp(1, sorted.len() - 1);
        let delta = im as f64 - (4 * j) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Ok(out)
}

/// A sum divided by a count of units (frames, commits, results), or 0
/// when nothing was counted: "per frame" figures of an idle layer read 0.
pub fn per_unit(total: f64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        total / units as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(percentile(&hundred, 0.90).is_ok());
        assert!(percentile(&hundred, 0.95).is_err());
        let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
        assert!(percentile(&two_hundred, 0.95).is_ok());
        assert!(percentile(&two_hundred[..199], 0.95).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v).unwrap(), 2.5);
        let hundred: Vec<f64> = (0..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 0.9).unwrap() - 90.0).abs() < 1e-9);
        assert_eq!(median(&[7.0]).unwrap(), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten).unwrap(), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]).unwrap(), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]).unwrap(), [0.75, 1.5, 2.25]);
        assert!(quartiles(&[1.0]).is_err());
    }

    #[test]
    fn per_unit_normalises_and_reads_zero_when_idle() {
        assert_eq!(per_unit(12.0, 4), 3.0);
        assert_eq!(per_unit(12.0, 0), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
