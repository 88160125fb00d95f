//! The harness's own arithmetic: percentiles, the tail-percentile rule,
//! the quartile over rounds and the spread figures `--repeat` prints.

/// Linear-interpolated percentile (`p` in `[0, 1]`) of unsorted samples.
/// Panics on an empty slice — every caller has at least one sample or has
/// already counted the run as failed.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// [`median`], or NaN when there are no samples — a run that produced none
/// has already failed, and NaN keeps it from reading as a time.
pub fn median_or_nan(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        median(samples)
    }
}

/// The percentiles a tail latency may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// Samples a tail percentile needs beyond it before it means anything.
pub const MIN_BEYOND: f64 = 10.0;

/// The highest percentile of the ladder that still has at least
/// [`MIN_BEYOND`] of `n` samples beyond it (the median when none has).
/// `lat_p90_ms` is valid only on runs where this returns at least 0.90; the
/// harness prints the sample count and warns otherwise.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p) >= MIN_BEYOND)
        .unwrap_or(0.50)
}

/// The value of rank `⌈n/4⌉` from the better end of `values` (nearest-rank
/// quartile; the second best of five rounds): lowest-first when lower is
/// better, highest-first otherwise. NaN when there are none.
///
/// Why not the median over rounds: what a neighbour on the shared host does
/// to a round (a slower memory system, a busy sibling thread, neither of
/// which the clock reading sees) only ever adds time, and such phases last
/// from seconds to a whole run. With two or three of five rounds inside one
/// the median reads the neighbour; the rounds it left alone read the
/// program. The best round alone would be one sample; the quartile needs two
/// rounds to agree. A change to the program moves every round, so it moves
/// this as it moves the median.
pub fn quiet_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v[v.len().div_ceil(4) - 1]
}

/// [`quiet_quartile`] over rounds of each round's median latency. Empty
/// rounds are skipped; NaN when every round is empty.
pub fn quiet_round_median<R: AsRef<[f64]>>(rounds: &[R]) -> f64 {
    let per_round: Vec<f64> = rounds
        .iter()
        .map(AsRef::as_ref)
        .filter(|r| !r.is_empty())
        .map(median)
        .collect();
    quiet_quartile(&per_round, false)
}

/// `(max − min) / median` of a set of per-round figures — the per-round
/// spread `--repeat` prints beside each difference.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (hi - lo) / m
    }
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better). `higher_is_better` flips the sign.
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first;
    if higher_is_better {
        -change
    } else {
        change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn tail_rule_is_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(999), 0.95);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(199), 0.90);
        // engine_long makes ≈ 190 samples in a 15 s run: p90 has 19 beyond.
        assert_eq!(tail_percentile(190), 0.90);
        assert_eq!(tail_percentile(99), 0.75);
        assert_eq!(tail_percentile(39), 0.50);
        assert_eq!(tail_percentile(3), 0.50);
    }

    #[test]
    fn quiet_round_median_shrugs_off_three_slow_rounds() {
        let fast = vec![10.0, 10.2, 9.9, 10.1];
        let faster = vec![9.8, 9.9, 9.7, 9.8];
        let slow = vec![13.3, 13.0, 13.5, 13.1];
        // Three of five rounds inside a slow phase: their median would read
        // 13.2; the second best round reads the program.
        let rounds = vec![slow.clone(), fast, slow.clone(), faster, slow];
        assert!((quiet_round_median(&rounds) - 10.05).abs() < 1e-9);
        // Empty rounds are ignored, not counted as zero.
        assert_eq!(quiet_round_median(&[vec![], vec![5.0]]), 5.0);
        assert!(quiet_round_median(&[vec![], vec![]]).is_nan());
    }

    #[test]
    fn quiet_quartile_is_the_nearest_rank_from_the_better_end() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quiet_quartile(&v, false), 2.0);
        assert_eq!(quiet_quartile(&v, true), 4.0);
        assert_eq!(quiet_quartile(&v[..4], false), 1.0);
        assert_eq!(quiet_quartile(&[7.0], true), 7.0);
        // Eight rounds: the second best again; nine: the third.
        let eight: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quiet_quartile(&eight, false), 2.0);
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quiet_quartile(&nine, false), 3.0);
        assert!(quiet_quartile(&[], false).is_nan());
        assert!(quiet_quartile(&[f64::NAN], false).is_nan());
    }

    #[test]
    fn spread_and_worsening() {
        assert!((relative_spread(&[9.0, 10.0, 12.0]) - 0.3).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, false) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, true) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, true) - 0.2).abs() < 1e-12);
    }
}
