//! Sample summaries: the median, and the highest percentile that still
//! has at least ten samples beyond it.

/// Percentiles a tail is reported at, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a reported tail percentile must have beyond it.
const TAIL_SAMPLES: f64 = 10.0;

/// The median of `values` (the mean of the middle two for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of [`TAIL_PERCENTILES`] with at least ten samples beyond
/// it, with its nearest-rank value; `None` below 40 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as f64;
    let p = TAIL_PERCENTILES.into_iter().find(|p| n * (1.0 - p / 100.0) >= TAIL_SAMPLES)?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n).ceil() as usize;
    Some((p, v[rank.clamp(1, v.len()) - 1]))
}

/// Timing samples behind one reported number.
#[derive(Clone, Debug)]
pub struct Samples {
    /// What was timed.
    pub name: String,
    /// Unit of the values.
    pub unit: &'static str,
    /// One value per repetition.
    pub values: Vec<f64>,
}

impl Samples {
    /// A one-line summary: count, median and tail.
    pub fn summary(&self) -> String {
        let tail = match tail(&self.values) {
            Some((p, v)) => format!("p{p} {v:.4}"),
            None => "no tail (fewer than 40 samples)".to_string(),
        };
        format!(
            "{:<28} n={:<5} median {:.4} {} | {tail}",
            self.name,
            self.values.len(),
            median(&self.values),
            self.unit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), Some((95.0, 190.0)));
        assert_eq!(tail(&v[..39]), None);
        assert_eq!(tail(&v[..40]).map(|t| t.0), Some(75.0));
    }
}
