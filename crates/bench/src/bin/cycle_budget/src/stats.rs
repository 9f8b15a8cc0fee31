//! Order statistics over timing samples, and the merge of per-round
//! sample sets into one pooled set.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it — a p99 over 48
//! samples would be one sample's opinion.

use crate::host::Timed;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles a report may name, highest first.
const TAILS: [u32; 5] = [99, 95, 90, 75, 50];

/// The `p`-th percentile (`0..=100`) by linear interpolation between
/// closest ranks, of an unsorted sample set. `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of an unsorted sample set (`0.0` when empty, so a metric that
/// does not apply to a workload reads as zero).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// The highest tail percentile with at least [`MIN_BEYOND`] samples
/// beyond it, for a set of `n` samples.
pub fn highest_tail(n: usize) -> u32 {
    TAILS
        .into_iter()
        .find(|&p| n * (100 - p as usize) / 100 >= MIN_BEYOND)
        .unwrap_or(50)
}

/// `samples`' value at `wanted`, or `0.0` when fewer than
/// [`MIN_BEYOND`] samples would lie beyond it.
pub fn tail(samples: &[f64], wanted: u32) -> f64 {
    if highest_tail(samples.len()) < wanted {
        return 0.0;
    }
    percentile(samples, f64::from(wanted)).unwrap_or(0.0)
}

/// Fewest undisturbed samples a median may rest on.
pub const MIN_QUIET: usize = 10;

/// The samples a run's median is taken over: the operations during
/// which the hypervisor stole no more than 1 % of the VM's CPU time
/// (`nproc` CPUs for the operation's wall time) — the program is
/// charged for what it did, not for what a neighbour did to the host.
/// With fewer than [`MIN_QUIET`] such operations every sample is used:
/// a run wholly inside a burst says so by its value.
pub fn quiet(samples: &[Timed], nproc: usize) -> Vec<f64> {
    let undisturbed: Vec<f64> = samples
        .iter()
        .filter(|t| t.stolen_ms <= 0.01 * t.ms * nproc as f64)
        .map(|t| t.ms)
        .collect();
    if undisturbed.len() >= MIN_QUIET {
        undisturbed
    } else {
        samples.iter().map(|t| t.ms).collect()
    }
}

/// Pool the sample sets of several rounds into one. A burst of
/// neighbour noise taxes one round of every workload, so pooling before
/// the median lets the quiet rounds outvote it.
pub fn pool<'a>(rounds: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    rounds.into_iter().flatten().copied().collect()
}

/// `(q3 - q1) / median` of `values`, the quartiles as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the spread the driver holds each end-to-end metric to.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    (med != 0.0).then(|| (quantile(3) - quantile(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_interpolates_between_closest_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(percentile(&v, 75.0), Some(4.0));
        assert_eq!(percentile(&v, 90.0), Some(4.6));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 48 recoveries leave 12 beyond p75 but only 4 beyond p90.
        assert_eq!(highest_tail(48), 75);
        assert_eq!(highest_tail(200), 95);
        assert_eq!(highest_tail(1000), 99);
        assert_eq!(highest_tail(19), 50);
        let v: Vec<f64> = (0..48).map(f64::from).collect();
        assert!(tail(&v, 75) > 0.0);
        assert_eq!(tail(&v, 95), 0.0, "p95 of 48 samples is not reported");
    }

    #[test]
    fn operations_the_hypervisor_disturbed_are_set_aside() {
        let t = |ms: f64, stolen_ms: f64| Timed { ms, stolen_ms };
        // 12 quiet 30 ms makes and 6 that lost a 10 ms tick each
        let mut run: Vec<Timed> = (0..12).map(|_| t(30.0, 0.0)).collect();
        run.extend((0..6).map(|_| t(45.0, 10.0)));
        assert_eq!(quiet(&run, 2), vec![30.0; 12]);
        // a 750 ms solve on 2 CPUs tolerates one tick (1 % of 1500 ms), not two
        let solves: Vec<Timed> = (0..10)
            .map(|_| t(750.0, 10.0))
            .chain([t(900.0, 20.0)])
            .collect();
        assert_eq!(quiet(&solves, 2), vec![750.0; 10]);
        // wholly inside a burst: too few quiet samples, so all are kept
        let burst: Vec<Timed> = (0..20)
            .map(|i| t(60.0 + i as f64, 10.0))
            .chain([t(30.0, 0.0)])
            .collect();
        assert_eq!(quiet(&burst, 2).len(), 21);
        assert_eq!(quiet(&[], 2), Vec::<f64>::new());
    }

    #[test]
    fn pooling_lets_quiet_rounds_outvote_a_noisy_one() {
        let calm = vec![10.0; 5];
        let noisy = vec![30.0; 5];
        let pooled = pool([&calm[..], &noisy, &calm, &calm]);
        assert_eq!(pooled.len(), 20);
        assert_eq!(median(&pooled), 10.0);
        assert_eq!(pool([]), Vec::<f64>::new());
    }

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let got = iqr_over_median(&v).unwrap();
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{got}");
        assert_eq!(iqr_over_median(&[1.0]), None);
        assert_eq!(iqr_over_median(&[0.0, 0.0, 0.0]), None);
    }
}
