//! Sample summaries: nearest-rank percentiles over wall-time samples.

use std::time::Duration;

/// Wall-time samples of one repeated call, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    nanos: Vec<u64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.nanos
            .push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn len(&self) -> usize {
        self.nanos.len()
    }

    /// Sum of every sample, in seconds.
    pub fn total_s(&self) -> f64 {
        self.nanos.iter().map(|&n| n as f64).sum::<f64>() / 1e9
    }

    /// Nearest-rank percentile `p` (0..=100), in seconds; 0 when empty.
    pub fn pct_s(&self, p: f64) -> f64 {
        percentile(&self.nanos, p) / 1e9
    }

    /// The samples cut into `windows` consecutive runs of equal length (the
    /// remainder, fewer than `windows` samples, is left out).
    fn windows(&self, windows: usize) -> impl Iterator<Item = &[u64]> {
        let per = (self.nanos.len() / windows.max(1)).max(1);
        self.nanos.chunks(per).filter(move |w| w.len() == per)
    }

    /// Calls per second of each of `windows` consecutive runs of samples.
    pub fn window_rates(&self, windows: usize) -> Vec<f64> {
        self.windows(windows)
            .map(|w| w.len() as f64 * 1e9 / w.iter().sum::<u64>().max(1) as f64)
            .collect()
    }

    /// Calls per second on the fast side of the run: the `100 - fast`
    /// percentile of the per-window rates: the program's speed in the least
    /// disturbed part of the run.
    pub fn fast_rate(&self, windows: usize, fast: f64) -> f64 {
        quantile_f64(&self.window_rates(windows), 1.0 - fast / 100.0)
    }

    /// Percentile `p` of each window, and the `fast` percentile of those
    /// (the fast side of the run, as in [`Samples::fast_rate`]), in seconds.
    pub fn fast_pct_s(&self, p: f64, windows: usize, fast: f64) -> f64 {
        let per_window: Vec<f64> = self.windows(windows).map(|w| percentile(w, p)).collect();
        quantile_f64(&per_window, fast / 100.0) / 1e9
    }
}

/// Nearest-rank percentile of `values` (unsorted); 0 when empty.
pub fn percentile(values: &[u64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Quantile `q` (0..=1) of a few floats, interpolated between the nearest
/// ranks; 0 when empty.
pub fn quantile_f64(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Median of a few floats (set-up repetitions); 0 when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile_f64(&[4.0, 1.0, 2.0, 3.0], 0.5), 2.5);
        assert_eq!(quantile_f64(&[4.0, 1.0, 2.0, 3.0], 1.0), 4.0);
        // two slow windows out of four do not move the fast-side figures
        let mut s = Samples::default();
        for i in 0..80u64 {
            let ms = if i < 40 { 100 } else { 10 + i % 10 };
            s.push(Duration::from_millis(ms));
        }
        assert_eq!(s.fast_pct_s(90.0, 4, 25.0), 0.018);
        assert_eq!(s.pct_s(90.0), 0.1);
        let mut flat = Samples::default();
        for i in 0..80u64 {
            flat.push(Duration::from_millis(if i < 40 { 40 } else { 10 }));
        }
        assert_eq!(flat.fast_rate(4, 25.0), 100.0);
    }
}
