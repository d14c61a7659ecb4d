//! Order statistics over latency samples.

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`; `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Samples a chunked quantile needs per chunk: a p99 then has ten samples beyond it.
pub const CHUNK: usize = 1000;
/// Most chunks or windows a run is split into.
pub const MAX_WINDOWS: usize = 5;

/// The mean of the middle values (the median of an even count averages the two).
fn middle(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    Some(if n % 2 == 1 { values[n / 2] } else { (values[n / 2 - 1] + values[n / 2]) / 2.0 })
}

/// A tail quantile that a short disturbance cannot move: `(time, value)` samples are
/// split in time order into equal chunks of at least [`CHUNK`] samples (at most
/// [`MAX_WINDOWS`] chunks, one chunk when fewer samples exist), and the result is the
/// median over chunks of each chunk's `q`-quantile.
pub fn chunked_quantile(samples: &[(f64, f64)], q: f64) -> Option<f64> {
    let mut ordered = samples.to_vec();
    ordered.sort_by(|a, b| a.0.total_cmp(&b.0));
    let chunks = (ordered.len() / CHUNK).clamp(1, MAX_WINDOWS);
    let n = ordered.len();
    let mut per_chunk: Vec<f64> = (0..chunks)
        .filter_map(|c| {
            let values: Vec<f64> =
                ordered[c * n / chunks..(c + 1) * n / chunks].iter().map(|s| s.1).collect();
            quantile(&values, q)
        })
        .collect();
    middle(&mut per_chunk)
}

/// A rate that a short disturbance cannot move: `(time, amount)` events over
/// `[0, span_s)` are split into [`MAX_WINDOWS`] equal time windows, and the result is
/// the median over windows of amount per second.
pub fn windowed_rate(events: &[(f64, f64)], span_s: f64) -> Option<f64> {
    if events.is_empty() || span_s <= 0.0 {
        return None;
    }
    let width = span_s / MAX_WINDOWS as f64;
    let mut per_window = [0.0; MAX_WINDOWS];
    for &(t, amount) in events {
        per_window[((t / width) as usize).min(MAX_WINDOWS - 1)] += amount;
    }
    let mut rates: Vec<f64> = per_window.iter().map(|a| a / width).collect();
    middle(&mut rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), Some(50.0));
        assert_eq!(quantile(&samples, 0.99), Some(99.0));
        assert_eq!(quantile(&samples, 1.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn one_disturbed_chunk_does_not_move_the_chunked_tail() {
        let mut samples: Vec<(f64, f64)> = (0..5000).map(|i| (i as f64, 1.0)).collect();
        for s in &mut samples[..200] {
            s.1 = 100.0;
        }
        assert_eq!(chunked_quantile(&samples, 0.99), Some(1.0));
        assert_eq!(chunked_quantile(&samples[..10], 1.0), Some(100.0));
    }

    #[test]
    fn windowed_rate_is_the_median_window() {
        let mut events: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 / 10.0, 1.0)).collect();
        events.extend((0..50).map(|_| (0.5, 1.0)));
        assert_eq!(windowed_rate(&events, 10.0), Some(10.0));
    }
}
