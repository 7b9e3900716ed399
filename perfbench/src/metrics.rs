//! The metric arithmetic, kept pure so it can be unit-tested: medians,
//! the nearest-rank tail percentile with the ≥10-beyond rule, due-time
//! latency and generator lag, counter deltas and derived layer costs.

use std::collections::BTreeMap;

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The nearest-rank tail of `values`: the 99th percentile when at least
/// ten samples lie beyond it, otherwise the highest percentile that
/// still has ten samples beyond it. When even that would fall below the
/// median (fewer than 20 samples) there is no tail to speak of and the
/// maximum is reported. Returns `(percentile, value)`, percentile in
/// `(0, 1]`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n == 0 {
        return (1.0, 0.0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Nearest rank of p99 is ceil(0.99 n); cap it so n - rank >= 10.
    let rank = (99 * n).div_ceil(100).min(n.saturating_sub(10));
    if rank < n.div_ceil(2) {
        return (1.0, sorted[n - 1]);
    }
    (rank as f64 / n as f64, sorted[rank - 1])
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its full response arrived, seconds from the start
/// of the schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
}

impl Timing {
    /// Latency as the user sees it, timed from the due time so that a
    /// stall also charges the requests it delayed.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent the request.
    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.due).max(0.0) * 1e3
    }
}

/// `after - before` for every counter in `after` (missing = 0).
pub fn deltas(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// The shadow-casting and sun/transposition share of extraction, which
/// has no public entry point of its own: extract minus the horizon map
/// and weather generation it runs internally.
pub fn shadow_sun_s(extract_s: f64, horizon_s: f64, weather_s: f64) -> f64 {
    extract_s - horizon_s - weather_s
}

/// A normalized cost: `seconds` spread over `units` work items, in ns.
pub fn ns_per(seconds: f64, units: f64) -> f64 {
    if units > 0.0 {
        seconds * 1e9 / units
    } else {
        0.0
    }
}

/// Share of `total` that the `parts` leave unaccounted.
pub fn unaccounted_share(total: f64, parts: f64) -> f64 {
    if total > 0.0 {
        (total - parts) / total
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_p99_with_enough_samples() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (q, v) = tail(&values);
        assert!((q - 0.99).abs() < 1e-12);
        assert_eq!(v, 990.0); // ten samples (991..=1000) beyond it
        let values: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&values), (0.99, 1980.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_on_short_runs() {
        let values: Vec<f64> = (1..=375).rev().map(f64::from).collect();
        let (q, v) = tail(&values);
        assert_eq!(v, 365.0);
        assert!((q - 365.0 / 375.0).abs() < 1e-12);
        assert_eq!(values.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn tail_of_fewer_than_twenty_samples_is_the_maximum() {
        assert_eq!(tail(&[5.0, 9.0, 1.0]), (1.0, 9.0));
        let twelve: Vec<f64> = (0..12).map(f64::from).collect();
        assert_eq!(tail(&twelve), (1.0, 11.0));
        let nineteen: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&nineteen), (1.0, 18.0));
        // From 20 samples on, the rank with ten beyond is the median.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), (0.5, 10.0));
    }

    #[test]
    fn latency_is_timed_from_the_due_time_and_lag_is_separate() {
        let t = Timing {
            due: 1.000,
            sent: 1.004,
            done: 1.010,
        };
        assert!((t.latency_ms() - 10.0).abs() < 1e-9);
        assert!((t.lag_ms() - 4.0).abs() < 1e-9);
        let early = Timing {
            due: 2.0,
            sent: 1.9999,
            done: 2.002,
        };
        assert_eq!(early.lag_ms(), 0.0);
    }

    #[test]
    fn counter_deltas_cover_new_and_existing_counters() {
        let before: BTreeMap<String, f64> = [("a".to_string(), 3.0)].into();
        let after: BTreeMap<String, f64> = [("a".to_string(), 10.0), ("b".to_string(), 2.0)].into();
        let d = deltas(&before, &after);
        assert_eq!(d["a"], 7.0);
        assert_eq!(d["b"], 2.0);
    }

    #[test]
    fn derived_layer_costs() {
        assert!((shadow_sun_s(3.3, 1.0, 0.2) - 2.1).abs() < 1e-12);
        assert_eq!(ns_per(2.0, 4e9), 0.5);
        assert_eq!(ns_per(2.0, 0.0), 0.0);
        assert!((unaccounted_share(10.0, 9.5) - 0.05).abs() < 1e-12);
    }
}
