//! Order statistics, spreads and bound verdicts — the arithmetic the
//! benchmark's own numbers and `jjbench compare` rest on.

/// Nearest-rank percentile of `samples` (`q` in 0..=100): the smallest
/// sample with at least `q` % of the samples at or below it. Always one of
/// the samples, never an interpolation, so with an odd number of request
/// shapes the median lands inside a cluster of identical requests.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the even case averaged (used for run-level summaries such as
/// `setup_s`, where there is no cluster structure to respect).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method): position `i * (n + 1) / 4` in the
/// sorted list, linearly interpolated, clamped to the ends.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Clamping `j` can push `delta` outside 0..4 (extrapolation), as in
        // Python, so it is signed.
        let delta = ((i * (n + 1)) as f64 - (j * 4) as f64) / 4.0;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark contract bounds.
pub fn spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The outcome of comparing one (workload, metric) pair across two result
/// sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs of one side disagree among themselves by more than the
    /// bound, so a difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare a base and a new sample set under a regression bound (a share
/// of the base median). `worse` / `better` need the medians to differ by
/// more than the bound; a spread wider than the bound on either side makes
/// the row `unresolved` unless every new run beats every base run (or the
/// reverse), which no amount of noise explains.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (mb, mn) = (median(base), median(new));
    // Positive `worse_by` means the new side is worse.
    let worse_by = match better {
        Better::Lower => (mn - mb) / mb.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (mb - mn) / mb.abs().max(f64::MIN_POSITIVE),
    };
    let noisy = spread(base) > bound || spread(new) > bound;
    if noisy {
        let (min_b, max_b) = min_max(base);
        let (min_n, max_n) = min_max(new);
        let new_all_lower = max_n < min_b;
        let new_all_higher = min_n > max_b;
        return match (better, new_all_lower, new_all_higher) {
            (Better::Lower, true, _) | (Better::Higher, _, true) => Verdict::Better,
            (Better::Lower, _, true) | (Better::Higher, true, _) => Verdict::Worse,
            _ => Verdict::Unresolved,
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// 64-bit FNV-1a over a byte stream, chained through `state` so several
/// texts fold into one fingerprint. Start from [`FNV_OFFSET`].
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_always_a_sample() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 90.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        // Ten samples: p90 is the ninth, p50 the fifth.
        let t: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&t, 90.0), 9.0);
        assert_eq!(percentile(&t, 50.0), 5.0);
    }

    #[test]
    fn percentile_lands_inside_a_cluster_for_odd_request_counts() {
        // Five request shapes, four passes: twenty samples in five tight
        // clusters. The median must be a member of the middle cluster.
        let mut v = Vec::new();
        for pass in 0..4 {
            for shape in 0..5 {
                v.push(10.0 * f64::from(shape + 1) + 0.01 * f64::from(pass));
            }
        }
        let p50 = percentile(&v, 50.0);
        assert!((30.0..30.1).contains(&p50), "{p50}");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let t: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&t);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((spread(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn bound_verdicts() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [102.0, 103.0, 101.0, 102.5, 101.5];
        let worse = [110.0, 111.0, 109.0, 110.5, 109.5];
        let faster = [90.0, 91.0, 89.0, 90.5, 89.5];
        assert_eq!(verdict(&base, &same, Better::Lower, 0.05), Verdict::Same);
        assert_eq!(verdict(&base, &worse, Better::Lower, 0.05), Verdict::Worse);
        assert_eq!(
            verdict(&base, &faster, Better::Lower, 0.05),
            Verdict::Better
        );
        // Direction flips for throughput-like metrics.
        assert_eq!(
            verdict(&base, &worse, Better::Higher, 0.05),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &faster, Better::Higher, 0.05),
            Verdict::Worse
        );
        // A side noisier than the bound cannot resolve an overlapping shift…
        let noisy = [80.0, 120.0, 95.0, 105.0, 100.0];
        assert_eq!(
            verdict(&noisy, &same, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // …unless every run of one side beats every run of the other.
        let far = [200.0, 210.0, 205.0, 202.0, 208.0];
        assert_eq!(verdict(&noisy, &far, Better::Lower, 0.05), Verdict::Worse);
        assert_eq!(verdict(&far, &noisy, Better::Lower, 0.05), Verdict::Better);
    }

    #[test]
    fn fingerprint_is_fnv1a_and_chains() {
        // Reference vectors of 64-bit FNV-1a.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_F739_67E8);
        // Chaining two texts equals hashing their concatenation.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
        assert_ne!(fnv1a(FNV_OFFSET, b"foobar"), fnv1a(FNV_OFFSET, b"foobaz"));
    }
}
