//! Hierarchical metrics registry: counters, sampled gauges, log2 histograms.
//!
//! The live handles ([`GaugeSeries`], [`Histogram`]) are plain values owned
//! by whatever layer produces them (a core, the memory system) — recording
//! into one is a couple of arithmetic ops, no allocation, no locking. At
//! the end of a run every layer *exports* its handles and counters into a
//! [`MetricsRegistry`] under dot-separated hierarchical names
//! (`pipeline.core0.rob_occupancy`, `mem.l2.misses`, `mte.tag_reads`),
//! which renders to JSONL for `sas-trace --metrics` and to Chrome counter
//! tracks for `--chrome`.

use crate::json::escape;

/// Number of log2 buckets: bucket 0 holds value 0, bucket `i` holds values
/// with `bit_length == i`, so 65 buckets cover all of `u64`.
pub const HIST_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Bucket index of a value: 0 for 0, else its bit length.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records `n` samples of `value` at once — the same histogram as `n`
    /// calls to [`Histogram::observe`].
    #[inline]
    pub fn observe_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Inclusive upper bound of bucket `i`: 0 for bucket 0, else
    /// `2^i - 1` (saturating at `u64::MAX` for the top bucket).
    pub fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`) from the log2 buckets:
    /// the inclusive upper bound of the first bucket whose cumulative
    /// count reaches the nearest-rank target, clamped to the observed
    /// `[min, max]` range. Exact when all samples share a bucket, and
    /// never off by more than one bucket width otherwise — plenty for
    /// latency summaries. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if n > 0 && cum >= rank {
                return Self::bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Nonzero buckets as `(bucket_index, count)`; the bucket covers values
    /// in `[2^(i-1), 2^i)` (and bucket 0 covers exactly 0).
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect()
    }

    /// Serializes the histogram (sparse bucket list plus summary fields).
    pub fn encode(&self, e: &mut sas_snap::Enc) {
        let nz = self.nonzero_buckets();
        e.usz(nz.len());
        for (i, n) in nz {
            e.usz(i);
            e.uv(n);
        }
        e.uv(self.count);
        e.uv(self.sum);
        e.uv(self.min);
        e.uv(self.max);
    }

    /// Restores a histogram serialized by [`Histogram::encode`].
    ///
    /// # Errors
    ///
    /// Truncated input or an out-of-range bucket index.
    pub fn restore(&mut self, d: &mut sas_snap::Dec) -> Result<(), sas_snap::SnapError> {
        let mut buckets = [0u64; HIST_BUCKETS];
        let nz = d.usz_max(HIST_BUCKETS)?;
        for _ in 0..nz {
            let i = d.usz_max(HIST_BUCKETS - 1)?;
            buckets[i] = d.uv()?;
        }
        self.buckets = buckets;
        self.count = d.uv()?;
        self.sum = d.uv()?;
        self.min = d.uv()?;
        self.max = d.uv()?;
        Ok(())
    }
}

/// A gauge sampled on a fixed cycle interval, kept bounded by doubling the
/// effective sampling stride once the series is full (classic reservoir
/// decimation — old points are thinned, never silently dropped from the
/// summary statistics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSeries {
    points: Vec<(u64, u64)>, // (cycle, value)
    cap: usize,
    keep_every: u64,
    seen: u64,
    min: u64,
    max: u64,
    sum: u64,
    count: u64,
    last: u64,
}

impl GaugeSeries {
    /// Creates a series holding at most `cap` points (`cap >= 2`).
    pub fn new(cap: usize) -> GaugeSeries {
        GaugeSeries {
            points: Vec::new(),
            cap: cap.max(2),
            keep_every: 1,
            seen: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
            count: 0,
            last: 0,
        }
    }

    /// Records one sample. Summary statistics see every sample; the stored
    /// series is decimated once it reaches capacity.
    pub fn record(&mut self, cycle: u64, value: u64) {
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value;
        self.count += 1;
        self.last = value;
        if self.seen.is_multiple_of(self.keep_every) {
            if self.points.len() >= self.cap {
                // Thin to every other stored point and double the stride.
                let mut i = 0;
                self.points.retain(|_| {
                    i += 1;
                    (i - 1) % 2 == 0
                });
                self.keep_every *= 2;
            }
            if self.seen.is_multiple_of(self.keep_every) {
                self.points.push((cycle, value));
            }
        }
        self.seen += 1;
    }

    /// The stored (possibly decimated) series.
    pub fn points(&self) -> &[(u64, u64)] {
        &self.points
    }

    /// Number of samples recorded (before decimation).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Most recent sample.
    pub fn last(&self) -> u64 {
        self.last
    }

    /// Serializes the full series state, including the decimation cursor, so
    /// a restored series continues recording exactly as the original would.
    pub fn encode(&self, e: &mut sas_snap::Enc) {
        e.usz(self.cap);
        e.uv(self.keep_every);
        e.uv(self.seen);
        e.uv(self.min);
        e.uv(self.max);
        e.uv(self.sum);
        e.uv(self.count);
        e.uv(self.last);
        e.seq(&self.points, |e, (c, v)| {
            e.uv(*c);
            e.uv(*v);
        });
    }

    /// Restores a series serialized by [`GaugeSeries::encode`].
    ///
    /// # Errors
    ///
    /// Truncated input or a stored series longer than its capacity.
    pub fn restore(&mut self, d: &mut sas_snap::Dec) -> Result<(), sas_snap::SnapError> {
        self.cap = d.usz_max(1 << 24)?.max(2);
        self.keep_every = d.uv()?;
        self.seen = d.uv()?;
        self.min = d.uv()?;
        self.max = d.uv()?;
        self.sum = d.uv()?;
        self.count = d.uv()?;
        self.last = d.uv()?;
        self.points = d.seq(self.cap, |d| Ok((d.uv()?, d.uv()?)))?;
        Ok(())
    }
}

/// One exported metric. A histogram's buckets are boxed, so a counter
/// entry stays small.
#[derive(Debug, Clone, PartialEq)]
enum MetricValue {
    Counter(u64),
    Gauge(GaugeSeries),
    Histogram(Box<Histogram>),
}

/// The export-time registry: hierarchical names mapped to metric values,
/// in registration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: Vec<(String, MetricValue)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Exports a counter under `name`.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.entries.push((name.into(), MetricValue::Counter(value)));
    }

    /// Exports a gauge series under `name`.
    pub fn gauge(&mut self, name: impl Into<String>, series: &GaugeSeries) {
        self.entries.push((name.into(), MetricValue::Gauge(series.clone())));
    }

    /// Exports a histogram under `name`.
    pub fn histogram(&mut self, name: impl Into<String>, hist: &Histogram) {
        self.entries.push((name.into(), MetricValue::Histogram(Box::new(hist.clone()))));
    }

    /// Number of exported metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no metric was exported.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All metric names, in registration order.
    pub fn keys(&self) -> Vec<&str> {
        self.entries.iter().map(|(k, _)| k.as_str()).collect()
    }

    /// Looks up a counter value by exact name.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(k, v)| match v {
            MetricValue::Counter(c) if k == name => Some(*c),
            _ => None,
        })
    }

    /// Histogram under `name`, if exported.
    pub fn histogram_value(&self, name: &str) -> Option<&Histogram> {
        self.entries.iter().find_map(|(k, v)| match v {
            MetricValue::Histogram(h) if k == name => Some(&**h),
            _ => None,
        })
    }

    /// All exported gauges as `(name, series)`.
    pub fn gauges(&self) -> Vec<(&str, &GaugeSeries)> {
        self.entries
            .iter()
            .filter_map(|(k, v)| match v {
                MetricValue::Gauge(g) => Some((k.as_str(), g)),
                _ => None,
            })
            .collect()
    }

    /// Renders one JSON line per metric. Counter lines are flat; gauge and
    /// histogram lines carry summary fields plus a nested series/buckets
    /// array.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.entries {
            let name = escape(name);
            match v {
                MetricValue::Counter(c) => {
                    out.push_str(&format!(
                        "{{\"metric\":\"{name}\",\"type\":\"counter\",\"value\":{c}}}\n"
                    ));
                }
                MetricValue::Gauge(g) => {
                    let series: Vec<String> =
                        g.points().iter().map(|(c, v)| format!("[{c},{v}]")).collect();
                    out.push_str(&format!(
                        "{{\"metric\":\"{name}\",\"type\":\"gauge\",\"last\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\"samples\":{},\"series\":[{}]}}\n",
                        g.last(), g.min(), g.max(), g.mean(), g.count(), series.join(",")
                    ));
                }
                MetricValue::Histogram(h) => {
                    let buckets: Vec<String> =
                        h.nonzero_buckets().iter().map(|(i, n)| format!("[{i},{n}]")).collect();
                    out.push_str(&format!(
                        "{{\"metric\":\"{name}\",\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\"buckets\":[{}]}}\n",
                        h.count(), h.sum(), h.min(), h.max(), h.mean(), buckets.join(",")
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        let total: u64 = h.nonzero_buckets().iter().map(|(_, n)| n).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn observe_n_equals_repeated_observe() {
        for (value, n) in [(1, 1), (1, 37), (0, 5), (1000, 3), (u64::MAX, 4), (7, 0)] {
            let mut bulk = Histogram::new();
            let mut single = Histogram::new();
            bulk.observe(3);
            single.observe(3);
            bulk.observe_n(value, n);
            for _ in 0..n {
                single.observe(value);
            }
            assert_eq!(bulk, single, "observe_n({value}, {n})");
        }
    }

    #[test]
    fn quantiles_track_bucket_upper_bounds() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for _ in 0..99 {
            h.observe(10); // bucket 4 ([8, 16))
        }
        h.observe(1000); // bucket 10
        // p50/p95 land in the 10s bucket; clamped to max(10)=10 … upper 15.
        assert_eq!(h.quantile(0.50), 15);
        assert_eq!(h.quantile(0.95), 15);
        // p99 rank 99 is still in the 10s bucket; p100 reaches 1000's.
        assert_eq!(h.quantile(0.99), 15);
        assert_eq!(h.quantile(1.0), Histogram::bucket_upper(10).clamp(10, 1000));
        // Single-value histograms are exact.
        let mut one = Histogram::new();
        one.observe(42);
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(one.quantile(q), 42);
        }
        assert_eq!(Histogram::bucket_upper(0), 0);
        assert_eq!(Histogram::bucket_upper(4), 15);
        assert_eq!(Histogram::bucket_upper(64), u64::MAX);
    }

    #[test]
    fn gauge_series_decimates_but_keeps_exact_summary() {
        let mut g = GaugeSeries::new(16);
        for i in 0..1000u64 {
            g.record(i * 10, i);
        }
        assert_eq!(g.count(), 1000);
        assert_eq!(g.min(), 0);
        assert_eq!(g.max(), 999);
        assert_eq!(g.last(), 999);
        assert!(g.points().len() <= 16, "decimation bounds the series");
        assert!(g.points().len() >= 4, "decimation keeps a usable series");
    }

    #[test]
    fn registry_jsonl_lines_are_valid_json() {
        let mut reg = MetricsRegistry::new();
        reg.counter("pipeline.core0.cycles", 1234);
        let mut g = GaugeSeries::new(8);
        g.record(0, 3);
        g.record(64, 5);
        reg.gauge("pipeline.core0.rob_occupancy", &g);
        let mut h = Histogram::new();
        h.observe(7);
        reg.histogram("mem.load_latency", &h);
        let jsonl = reg.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            crate::json::parse(line).expect("metrics line parses as JSON");
        }
        assert_eq!(reg.counter_value("pipeline.core0.cycles"), Some(1234));
        assert_eq!(reg.keys().len(), 3);
    }
}
