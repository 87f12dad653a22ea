//! Percentiles over latency samples in which a failed, refused or wrong
//! answer is infinitely slow.

/// One request's outcome: `Some(ms)` for a correct answer, `None` for a
/// failed, refused, wrong or missing one.
pub type Sample = Option<f64>;

/// Nearest-rank percentile (`q` in `0..=1`) of `samples`, counting each
/// `None` as `+inf`. Returns `None` for an empty sample.
pub fn percentile(samples: &[Sample], q: f64) -> Option<f64> {
    let mut values: Vec<f64> = samples.iter().map(|s| s.unwrap_or(f64::INFINITY)).collect();
    percentile_of(&mut values, q)
}

/// Nearest-rank percentile of plain values (sorted in place).
pub fn percentile_of(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// Median of plain values (the mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// How many samples lie strictly beyond the `q` percentile — the tail
/// support behind a reported percentile.
pub fn beyond(samples: &[Sample], q: f64) -> usize {
    samples.len() - (q * samples.len() as f64).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_known_sample() {
        let s: Vec<Sample> = (1..=100).map(|i| Some(i as f64)).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn failures_count_as_infinitely_slow() {
        // 100 answers, 11 of them failed: p90 lands on a failure, p50 not.
        let mut s: Vec<Sample> = (1..=89).map(|i| Some(i as f64)).collect();
        s.extend(std::iter::repeat_n(None, 11));
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.89), Some(89.0));
        assert_eq!(percentile(&s, 0.9), Some(f64::INFINITY));
        // Order of arrival does not matter.
        s.reverse();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
    }

    #[test]
    fn median_and_tail_support() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let s: Vec<Sample> = (0..1000).map(|i| Some(i as f64)).collect();
        assert_eq!(beyond(&s, 0.99), 10);
        assert_eq!(beyond(&s, 0.5), 500);
    }
}
