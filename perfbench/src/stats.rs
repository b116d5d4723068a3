//! Estimators over latency samples, on top of
//! `armada_metrics::percentile` (rounded rank, so a reported value is
//! always one that was measured).
//!
//! A sample set reports a tail percentile only when at least ten
//! samples lie beyond it ([`supported_tail`]).

pub use armada_metrics::percentile;

/// The fastest of `values` (full sim run times): NaN when empty.
///
/// A shared host's speed drifts by up to 1.9× in phases of seconds, and
/// interference only ever slows a run down. The fastest of the runs is
/// the least disturbed one, so it repeats across invocations far better
/// than their median does.
pub fn fastest(values: &[f64]) -> f64 {
    percentile(values, 0.0).unwrap_or(f64::NAN)
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// A run's quiet-window rate: the highest rate of events completed in
/// a whole `window_s` window of `[0, span_s)`, or the overall rate when
/// `span_s` holds no whole window. `times` are completion times.
pub fn quiet_rate(times: &[f64], span_s: f64, window_s: f64) -> f64 {
    let n = (span_s / window_s).floor() as usize;
    let mut counts = vec![0u64; n];
    for &t in times {
        if let Some(c) = counts.get_mut((t / window_s).floor() as usize) {
            *c += 1;
        }
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / window_s).collect();
    percentile(&rates, 1.0).unwrap_or(times.len() as f64 / span_s)
}

/// The highest of the 0.999, 0.99, 0.95, 0.9 and 0.5 quantiles that
/// leaves at least ten samples above it in a set of `n`, or `None`
/// when even the median does not.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.5].into_iter().find(|&q| {
        // The index `armada_metrics::percentile` reads for `q`.
        let index = ((n.saturating_sub(1)) as f64 * q).round() as usize;
        n > 0 && n - 1 - index >= 10
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_rate_counts_whole_windows_only() {
        // Ten whole windows holding 1..=10 events; 10.5 is partial.
        let mut times = Vec::new();
        for w in 0..10 {
            for i in 0..=w {
                times.push(w as f64 + i as f64 / 20.0);
            }
        }
        times.push(10.2);
        assert_eq!(quiet_rate(&times, 10.5, 1.0), 10.0);
        // No whole window: the overall rate.
        assert_eq!(quiet_rate(&[0.1, 0.2], 0.5, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(999), Some(0.99));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(21), Some(0.5));
        assert_eq!(supported_tail(20), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn the_tail_read_has_ten_samples_above_it() {
        for n in [21, 100, 200, 999, 1_000, 10_000] {
            let v: Vec<f64> = (0..n).map(f64::from).collect();
            let q = supported_tail(n as usize).expect("supported");
            let tail = percentile(&v, q).expect("non-empty");
            assert!(v.iter().filter(|&&x| x > tail).count() >= 10, "n={n}");
        }
    }
}
