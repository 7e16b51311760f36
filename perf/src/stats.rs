//! The estimator's arithmetic: percentiles within a round, medians and
//! quartiles over rounds.

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1). With
/// 1 000 samples and `q = 0.99` exactly ten samples lie beyond the result,
/// which is why no round is shorter than that.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of integer nanosecond samples, as `f64`.
pub fn median_ns(xs: &[u64]) -> f64 {
    median(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// First, second and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the exclusive method), so spreads
/// printed here can be compared with the ones the driver computes.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two values");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The second-best of the per-round values: second-highest when higher is
/// better, second-lowest otherwise. One fluke round cannot set it, and
/// interference — which only ever makes a round worse — has to reach all
/// rounds but one to move it.
pub fn second_best(xs: &[f64], higher_is_better: bool) -> f64 {
    assert!(xs.len() >= 2, "second best of fewer than two rounds");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v[v.len() - 2]
    } else {
        v[1]
    }
}

/// Interquartile range as a share of the median — the spread figure the
/// acceptance rule uses.
pub fn iqr_ratio(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.50), 500);
        assert_eq!(percentile(&v, 0.99), 990);
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 0.99)).count(), 10);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[1, 2, 3], 0.0), 1);
    }

    #[test]
    fn median_of_rounds() {
        // one noisy round out of five does not move the estimate
        assert_eq!(median(&[100.0, 101.0, 99.0, 100.5, 30.0]), 100.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_ns(&[5, 1, 9]), 5.0);
    }

    #[test]
    fn second_best_of_rounds() {
        // three disturbed rounds out of five and one fluke do not move it
        let qps = [100.0, 71.0, 99.0, 64.0, 80.0];
        assert_eq!(second_best(&qps, true), 99.0);
        let p99 = [57.0, 21.0, 58.0, 90.0, 140.0];
        assert_eq!(second_best(&p99, false), 57.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        assert_eq!(quartiles(&[80.0, 10.0, 40.0, 20.0]), [12.5, 30.0, 70.0]);
        assert!((iqr_ratio(&v) - 1.0).abs() < 1e-12);
    }
}
