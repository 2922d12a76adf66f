//! Small order statistics over timing samples, and the process's peak
//! resident memory.

/// Nearest-rank `q`-quantile of `samples` (`q` in `[0, 1]`); sorts a
/// copy. Returns 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    sorted_quantile(&sorted, q)
}

/// [`quantile`] over an already ascending slice.
pub fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (nearest-rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The percentiles a latency tail is reported at, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// The highest of [`TAIL_PERCENTILES`] that leaves at least ten samples
/// beyond it, so the reported tail is a tail and not one unlucky sample.
/// `None` below 100 samples (then only the median means anything).
pub fn tail_percentile(count: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|p| count as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Splits a timed phase into slices of fixed wall time and keeps each
/// slice's throughput and latency quantiles. The reported figures are
/// medians over slices, so a few seconds of a slower host (this class of
/// shared machine slows by 10–20% for seconds at a time) move them less
/// than whole-run aggregates.
pub struct Slices {
    len_s: f64,
    start: Option<std::time::Instant>,
    latencies: Vec<f64>,
    estimates: u64,
    /// `(x, t)` answers per second, one entry per closed slice.
    pub rates: Vec<f64>,
    /// Median latency (µs) of each closed slice that saw a request.
    pub p50s: Vec<f64>,
    /// 90th-percentile latency (µs) of each closed slice that saw a
    /// request.
    pub p90s: Vec<f64>,
    /// 99th-percentile latency (µs) of each closed slice that saw a
    /// request.
    pub p99s: Vec<f64>,
    /// Every latency recorded in a closed slice, µs.
    pub all: Vec<f64>,
}

impl Slices {
    pub fn new(len_s: f64) -> Slices {
        Slices {
            len_s,
            start: None,
            latencies: Vec::new(),
            estimates: 0,
            rates: Vec::new(),
            p50s: Vec::new(),
            p90s: Vec::new(),
            p99s: Vec::new(),
            all: Vec::new(),
        }
    }

    /// Opens a measuring window at `now`.
    pub fn open(&mut self, now: std::time::Instant) {
        self.start = Some(now);
        self.latencies.clear();
        self.estimates = 0;
    }

    /// Records a request that completed at `done` after `latency_us`
    /// with `estimates` answers, closing every slice that ended before.
    pub fn record(&mut self, done: std::time::Instant, latency_us: f64, estimates: u64) {
        let len = std::time::Duration::from_secs_f64(self.len_s);
        while let Some(start) = self.start {
            if done < start + len {
                break;
            }
            self.close(self.len_s);
            self.start = Some(start + len);
        }
        self.latencies.push(latency_us);
        self.estimates += estimates;
    }

    /// Closes the window at `now`; its last, partial slice counts when it
    /// spans at least half a slice.
    pub fn shut(&mut self, now: std::time::Instant) {
        if let Some(start) = self.start.take() {
            let span = now.saturating_duration_since(start).as_secs_f64();
            if span >= self.len_s / 2.0 {
                self.close(span);
            }
        }
    }

    fn close(&mut self, span_s: f64) {
        self.rates.push(self.estimates as f64 / span_s);
        if !self.latencies.is_empty() {
            let mut sorted = std::mem::take(&mut self.latencies);
            sorted.sort_unstable_by(f64::total_cmp);
            self.p50s.push(sorted_quantile(&sorted, 0.5));
            self.p90s.push(sorted_quantile(&sorted, 0.9));
            self.p99s.push(sorted_quantile(&sorted, 0.99));
            self.all.extend_from_slice(&sorted);
        }
        self.estimates = 0;
    }
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`); 0 where the file is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.9));
    }

    #[test]
    fn slices_split_by_wall_time() {
        use std::time::{Duration, Instant};
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut s = Slices::new(1.0);
        s.open(t0);
        s.record(at(100), 10.0, 2);
        s.record(at(900), 30.0, 2);
        // a stall: the second slice sees nothing
        s.record(at(2_500), 20.0, 6);
        s.shut(at(2_600));
        s.open(at(5_000));
        s.record(at(5_100), 5.0, 1);
        // a partial slice under half a slice is dropped
        s.shut(at(5_400));
        assert_eq!(s.rates.len(), 3);
        assert_eq!(&s.rates[..2], &[4.0, 0.0]);
        assert!((s.rates[2] - 10.0).abs() < 1e-6);
        assert_eq!(s.p50s, vec![10.0, 20.0]);
        assert_eq!(s.p99s, vec![30.0, 20.0]);
        assert_eq!(s.all, vec![10.0, 30.0, 20.0]);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
    }
}
