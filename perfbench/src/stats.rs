//! Percentiles, slice medians and the seeded Poisson arrival schedule.
//!
//! Every timed phase is cut into [`SLICES`] consecutive equal slices and the
//! reported value is the median of the per-slice values, so one scheduler
//! hiccup on a shared box moves one slice, not the number.

use knnta_util::rng::Rng;

/// Slices per timed phase.
pub const SLICES: usize = 5;

/// The `p`-quantile (`0..=1`) of an ascending slice, linearly interpolated
/// between the two nearest ranks. 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sorts `values` in place and returns its `p`-quantile.
pub fn percentile_of(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, p)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A value reported as the median of its per-slice values, with the slice
/// minimum and maximum kept for the printed report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sliced {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Sliced {
    pub fn exact(v: f64) -> Sliced {
        Sliced {
            median: v,
            min: v,
            max: v,
        }
    }
}

/// Median, minimum and maximum of the per-slice values.
pub fn slice_median(per_slice: &[f64]) -> Sliced {
    if per_slice.is_empty() {
        return Sliced::exact(0.0);
    }
    let mut v = per_slice.to_vec();
    v.sort_by(f64::total_cmp);
    Sliced {
        median: percentile(&v, 0.5),
        min: v[0],
        max: v[v.len() - 1],
    }
}

/// One timed operation: when it belongs on the phase clock (seconds from
/// the phase start — the due time in an open loop, the completion time in a
/// closed loop) and how long it took (µs).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at_s: f64,
    pub us: f64,
}

/// Cuts `[0, duration_s)` into `slices` equal slices and returns the
/// samples' latencies per slice (samples outside the window are dropped).
pub fn cut(samples: &[Sample], duration_s: f64, slices: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); slices];
    if duration_s <= 0.0 {
        return out;
    }
    for s in samples {
        let i = (s.at_s / duration_s * slices as f64).floor();
        if i >= 0.0 && (i as usize) < slices {
            out[i as usize].push(s.us);
        }
    }
    out
}

/// Median over `slices` slices of the `p`-quantile latency.
pub fn sliced_percentile(samples: &[Sample], duration_s: f64, slices: usize, p: f64) -> Sliced {
    let per: Vec<f64> = cut(samples, duration_s, slices)
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| percentile_of(s, p))
        .collect();
    slice_median(&per)
}

/// Median over `slices` slices of operations completed per second.
pub fn sliced_rate(samples: &[Sample], duration_s: f64, slices: usize) -> Sliced {
    let slice_s = duration_s / slices as f64;
    let per: Vec<f64> = cut(samples, duration_s, slices)
        .iter()
        .map(|s| s.len() as f64 / slice_s)
        .collect();
    slice_median(&per)
}

/// Due times (seconds from the phase start, ascending) of a Poisson arrival
/// process at `rate_per_s` over `[0, duration_s)`: exponential gaps drawn
/// from `rng`, so the schedule is a pure function of the seed.
pub fn poisson_schedule<R: Rng>(rng: &mut R, rate_per_s: f64, duration_s: f64) -> Vec<f64> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut out = Vec::with_capacity((rate_per_s * duration_s) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate_per_s;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knnta_util::rng::StdRng;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 0.5), 30.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert!((percentile(&v, 0.95) - 48.0).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let mut unsorted = [3.0, 1.0, 2.0];
        assert_eq!(percentile_of(&mut unsorted, 0.5), 2.0);
    }

    #[test]
    fn slice_median_ignores_one_outlier_slice() {
        let s = slice_median(&[100.0, 101.0, 99.0, 900.0, 100.5]);
        assert_eq!(s.median, 100.5);
        assert_eq!((s.min, s.max), (99.0, 900.0));
        assert_eq!(slice_median(&[]), Sliced::exact(0.0));
    }

    #[test]
    fn cut_assigns_samples_to_equal_slices() {
        let samples: Vec<Sample> = (0..100)
            .map(|i| Sample {
                at_s: i as f64 / 10.0,
                us: i as f64,
            })
            .collect();
        let slices = cut(&samples, 10.0, SLICES);
        assert_eq!(slices.len(), SLICES);
        assert!(slices.iter().all(|s| s.len() == 20));
        assert_eq!(slices[4][0], 80.0);
        // Out-of-window samples are dropped, not folded into the last slice.
        let late = [Sample {
            at_s: 10.0,
            us: 1.0,
        }];
        assert!(cut(&late, 10.0, SLICES).iter().all(Vec::is_empty));
        assert_eq!(sliced_rate(&samples, 10.0, SLICES).median, 10.0);
        assert_eq!(sliced_rate(&samples, 10.0, 20).median, 10.0);
        assert_eq!(sliced_percentile(&samples, 10.0, SLICES, 0.5).median, 49.5);
    }

    #[test]
    fn poisson_schedule_is_seeded_ascending_and_on_rate() {
        let a = poisson_schedule(&mut StdRng::seed_from_u64(7), 2000.0, 5.0);
        let b = poisson_schedule(&mut StdRng::seed_from_u64(7), 2000.0, 5.0);
        let c = poisson_schedule(&mut StdRng::seed_from_u64(8), 2000.0, 5.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));
        // 10 000 expected arrivals; 5 sigma is 500.
        assert!((a.len() as f64 - 10_000.0).abs() < 500.0, "{}", a.len());
        // Exponential gaps: the mean gap matches the rate, the variance is
        // the square of the mean (coefficient of variation 1).
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let m = mean(&gaps);
        let var = gaps.iter().map(|g| (g - m) * (g - m)).sum::<f64>() / gaps.len() as f64;
        assert!((m * 2000.0 - 1.0).abs() < 0.05);
        assert!((var.sqrt() / m - 1.0).abs() < 0.1);
    }
}
