//! Order statistics for timings: median, quartiles and the tail rule.

/// Median of `xs` (mean of the middle pair for an even count); 0 for an
/// empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (0 < p ≤ 100) of an ascending slice by the
/// nearest-rank rule: the smallest sample with at least `p`% of the
/// samples at or below it. Returns the value and its 1-based rank.
pub fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    // The epsilon keeps float error in p·n (99.9 × 10000 is not exactly
    // 999000) from pushing an exact rank up by one.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], rank)
}

/// The percentiles the tail rule may pick, highest first.
pub const TAIL_LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: the percentile picked, its value, and the samples it
/// was taken over.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.0.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Sample count.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond its nearest rank. Falls
/// back to the [`median`] when even the median has fewer than that
/// beyond it (fewer than 20 samples), so the tail then equals the p50;
/// `None` for no samples.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let pick = |p: f64| {
        let (value, _) = nearest_rank(&v, p);
        Tail {
            percentile: p,
            value,
            samples: n,
        }
    };
    for p in TAIL_LADDER {
        let (_, rank) = nearest_rank(&v, p);
        if n - rank >= TAIL_MIN_BEYOND {
            return Some(pick(p));
        }
    }
    Some(Tail {
        percentile: 50.0,
        value: median(&v),
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n so the rule cannot rely on input order.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 has rank 990 and exactly 10 beyond; p99.9
        // (rank 999) has only 1.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: p99's rank is 990 with 9 beyond, so p95 wins.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.percentile, t.value), (95.0, 950.0));
        // 10000 samples: p99.9 has rank 9990 and 10 beyond.
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.percentile, t.value), (99.9, 9990.0));
        // 200 samples: p95 (rank 190, 10 beyond) beats p99 (2 beyond).
        let t = tail(&ramp(200)).unwrap();
        assert_eq!((t.percentile, t.value), (95.0, 190.0));
    }

    #[test]
    fn tail_falls_back_to_median_on_few_samples() {
        // 32 samples: p75 has rank 24 and 8 beyond; p50 has 16 beyond.
        let t = tail(&ramp(32)).unwrap();
        assert_eq!((t.percentile, t.value), (50.0, 16.0));
        // 5 samples: nothing has 10 beyond; the median is reported.
        let t = tail(&ramp(5)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 3.0, 5));
        // An even count falls back to the same median as `median`.
        assert_eq!(tail(&[4.0, 1.0]).unwrap().value, median(&[4.0, 1.0]));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn every_picked_percentile_has_ten_beyond_and_the_next_does_not() {
        for n in [
            20, 21, 39, 40, 41, 99, 100, 101, 199, 200, 201, 1009, 10_009,
        ] {
            let v = ramp(n);
            let t = tail(&v).unwrap();
            let beyond = v.iter().filter(|&&x| x > t.value).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: {t:?}");
            let i = TAIL_LADDER.iter().position(|&p| p == t.percentile).unwrap();
            if i > 0 {
                let mut sorted = v.clone();
                sorted.sort_by(f64::total_cmp);
                let (higher, _) = nearest_rank(&sorted, TAIL_LADDER[i - 1]);
                let beyond_higher = v.iter().filter(|&&x| x > higher).count();
                assert!(
                    beyond_higher < TAIL_MIN_BEYOND,
                    "n={n}: a higher percentile qualified"
                );
            }
        }
    }
}
