//! Bucketed time series for utilization-over-time reporting.

use serde::{Deserialize, Serialize};

/// Accumulates amounts into fixed-width time buckets.
///
/// The serving engine records GPU busy-seconds into a [`TimeSeries`] so
/// reports can show utilization over the run (e.g. the backlog building
/// up during the arrival burst and draining afterwards).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    bucket_secs: f64,
    buckets: Vec<f64>,
}

impl Default for TimeSeries {
    /// One-minute buckets.
    fn default() -> Self {
        TimeSeries::new(60.0)
    }
}

impl TimeSeries {
    /// Creates a series with the given bucket width in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_secs` is not strictly positive.
    pub fn new(bucket_secs: f64) -> TimeSeries {
        assert!(bucket_secs > 0.0, "bucket width must be positive");
        TimeSeries {
            bucket_secs,
            buckets: Vec::new(),
        }
    }

    /// Returns the bucket width in seconds.
    pub fn bucket_secs(&self) -> f64 {
        self.bucket_secs
    }

    /// Adds `amount` at instant `at_secs` (the bucket containing it).
    pub fn add(&mut self, at_secs: f64, amount: f64) {
        let idx = (at_secs.max(0.0) / self.bucket_secs) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += amount;
    }

    /// Records a gauge sample at `at_secs`: the bucket keeps the
    /// *maximum* value seen rather than a sum, so the series traces an
    /// occupancy curve's peaks (HBM reservations, tier occupancy).
    pub fn record_max(&mut self, at_secs: f64, value: f64) {
        let idx = (at_secs.max(0.0) / self.bucket_secs) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] = self.buckets[idx].max(value);
    }

    /// Spreads `amount` uniformly over `[start_secs, start_secs + dur_secs)`,
    /// splitting across bucket boundaries.
    pub fn add_span(&mut self, start_secs: f64, dur_secs: f64, amount: f64) {
        if dur_secs <= 0.0 {
            self.add(start_secs, amount);
            return;
        }
        // A span carrying its own length (busy seconds over a busy
        // interval) has rate exactly 1.0, so each chunk adds its width.
        let rate = (amount != dur_secs).then(|| amount / dur_secs);
        let mut t = start_secs.max(0.0);
        let end = start_secs + dur_secs;
        // Each chunk after the first starts on the boundary of the next
        // bucket. Stepping the index (instead of re-deriving it from
        // `t / bucket_secs`, which can round to the bucket just left and
        // stall) makes every chunk advance.
        let mut idx = (t / self.bucket_secs) as usize;
        while t < end {
            let chunk_end = (((idx + 1) as f64) * self.bucket_secs).min(end);
            if idx >= self.buckets.len() {
                self.buckets.resize(idx + 1, 0.0);
            }
            let width = chunk_end - t;
            self.buckets[idx] += rate.map_or(width, |r| width * r);
            t = chunk_end;
            idx += 1;
        }
    }

    /// Returns the bucket values.
    pub fn buckets(&self) -> &[f64] {
        &self.buckets
    }

    /// Returns the number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Returns `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Returns the sum over all buckets.
    pub fn total(&self) -> f64 {
        self.buckets.iter().sum()
    }

    /// Returns the largest bucket value (0 when empty).
    pub fn peak(&self) -> f64 {
        self.buckets.iter().copied().fold(0.0, f64::max)
    }

    /// Renders a compact ASCII sparkline (one char per bucket, eight
    /// levels), capped at `max_width` chars by merging buckets.
    pub fn sparkline(&self, max_width: usize) -> String {
        const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.buckets.is_empty() || max_width == 0 {
            return String::new();
        }
        let group = self.buckets.len().div_ceil(max_width);
        let merged: Vec<f64> = self
            .buckets
            .chunks(group)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        let peak = merged.iter().copied().fold(0.0f64, f64::max);
        if peak == 0.0 {
            return LEVELS[0].to_string().repeat(merged.len());
        }
        merged
            .iter()
            .map(|&v| LEVELS[((v / peak * 7.0).round() as usize).min(7)])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_lands_in_the_right_bucket() {
        let mut ts = TimeSeries::new(10.0);
        ts.add(0.0, 1.0);
        ts.add(9.99, 2.0);
        ts.add(25.0, 4.0);
        assert_eq!(ts.buckets(), &[3.0, 0.0, 4.0]);
        assert_eq!(ts.total(), 7.0);
        assert_eq!(ts.peak(), 4.0);
    }

    #[test]
    fn add_span_splits_across_boundaries() {
        let mut ts = TimeSeries::new(10.0);
        // 6 units over [5, 35): 5s in bucket 0, 10s each in 1-2, 5s in 3.
        ts.add_span(5.0, 30.0, 6.0);
        let b = ts.buckets();
        assert_eq!(b.len(), 4);
        assert!((b[0] - 1.0).abs() < 1e-9);
        assert!((b[1] - 2.0).abs() < 1e-9);
        assert!((b[2] - 2.0).abs() < 1e-9);
        assert!((b[3] - 1.0).abs() < 1e-9);
        assert!((ts.total() - 6.0).abs() < 1e-9);
    }

    /// The pre-optimisation span loop, kept as the oracle.
    fn add_span_general(ts: &mut TimeSeries, start_secs: f64, dur_secs: f64, amount: f64) {
        let rate = amount / dur_secs;
        let mut t = start_secs.max(0.0);
        let end = start_secs + dur_secs;
        while t < end {
            let bucket_end = (((t / ts.bucket_secs) as usize + 1) as f64) * ts.bucket_secs;
            let chunk_end = bucket_end.min(end);
            ts.add(t, (chunk_end - t) * rate);
            t = chunk_end;
        }
    }

    #[test]
    fn self_rate_span_is_bit_identical_to_the_general_loop() {
        // Widths whose boundaries divide back exactly: the general loop
        // stalls on the others (see the next test).
        for width in [1.0, 0.25, 60.0] {
            let mut fast = TimeSeries::new(width);
            let mut slow = TimeSeries::new(width);
            let mut t = 0.0;
            for i in 0..2_000u32 {
                // Durations from sub-bucket to several buckets long, so
                // spans start, end and straddle boundaries everywhere.
                let d = 0.013 * f64::from(i % 97) + 1e-4 + width * f64::from(i % 5) / 3.0;
                fast.add_span(t, d, d);
                add_span_general(&mut slow, t, d, d);
                // Spans with a foreign amount keep the general rate.
                fast.add_span(t, d, 0.5 * d);
                add_span_general(&mut slow, t, d, 0.5 * d);
                t += d * 0.75;
            }
            assert_eq!(fast.len(), slow.len());
            for (a, b) in fast.buckets().iter().zip(slow.buckets()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// With a width like 0.37, `(k * w) / w` can round just below `k`,
    /// which sent the old loop back to the bucket it had just filled with
    /// a zero-width chunk, forever.
    #[test]
    fn spans_over_inexact_boundaries_terminate_and_conserve() {
        let w = 0.37;
        assert!(
            (1..10_000usize).any(|k| (((k as f64) * w) / w) < k as f64),
            "no inexact boundary below 10k buckets"
        );
        let mut ts = TimeSeries::new(w);
        ts.add_span(0.0, 10_000.0 * w, 10_000.0 * w);
        assert_eq!(ts.len(), 10_000);
        assert!((ts.total() - 10_000.0 * w).abs() < 1e-6);
        assert!(ts.buckets().iter().all(|&b| (b - w).abs() < 1e-9));
    }

    #[test]
    fn zero_duration_span_degenerates_to_point() {
        let mut ts = TimeSeries::new(10.0);
        ts.add_span(12.0, 0.0, 5.0);
        assert_eq!(ts.buckets(), &[0.0, 5.0]);
    }

    #[test]
    fn record_max_keeps_the_bucket_peak() {
        let mut ts = TimeSeries::new(10.0);
        ts.record_max(1.0, 5.0);
        ts.record_max(2.0, 3.0);
        ts.record_max(15.0, 7.0);
        assert_eq!(ts.buckets(), &[5.0, 7.0]);
        assert_eq!(ts.peak(), 7.0);
    }

    #[test]
    fn sparkline_compacts_to_width() {
        let mut ts = TimeSeries::new(1.0);
        for i in 0..100 {
            ts.add(i as f64, (i % 10) as f64);
        }
        let s = ts.sparkline(20);
        assert!(s.chars().count() <= 20);
        let empty = TimeSeries::new(1.0);
        assert!(empty.sparkline(20).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bucket_width_rejected() {
        let _ = TimeSeries::new(0.0);
    }
}
