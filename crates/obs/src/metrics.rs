//! Operational metrics: counters, gauges and log-scale histograms keyed
//! by name + labels, with snapshot and Prometheus-style text exposition.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap clones of a
//! shared cell, so instrumented layers hold their handles directly and
//! never touch the registry on the hot path. A count a layer already
//! keeps is not mirrored: the layer publishes it at scrape time
//! ([`Counter::catch_up`], [`Gauge::set`]). All metric names follow the
//! `tacc_<layer>_<name>` convention enforced (in debug builds) at
//! registration time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log-2 histogram buckets: bounds `1e-6 * 2^i` seconds for
/// `i in 0..46`, spanning one microsecond to roughly 400 days. Values
/// above the last bound land in the implicit `+Inf` overflow bucket.
const HIST_BUCKETS: usize = 46;

fn bucket_bound(i: usize) -> f64 {
    1e-6 * (1u64 << i) as f64
}

fn bucket_index(v: f64) -> usize {
    let mut i = 0;
    while i < HIST_BUCKETS - 1 && v > bucket_bound(i) {
        i += 1;
    }
    i
}

/// Monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// New free-standing counter at zero (registry-less use in tests).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.inc_by(1);
    }

    /// Adds `n`.
    pub fn inc_by(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Publishes `total`, a count its layer keeps itself: the counter
    /// catches up to it and never goes back.
    pub fn catch_up(&self, total: u64) {
        self.0.fetch_max(total, Ordering::Relaxed);
    }
}

/// Instantaneous value that may go up or down: the `f64`'s bits in an
/// atomic word, so the once-a-round `set` is a plain store.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// New free-standing gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        // The closure always returns `Some`, so the update cannot fail.
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Default)]
struct HistInner {
    counts: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Log-scale (base-2) histogram of nonnegative samples, typically
/// latencies in seconds.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<Mutex<HistInner>>);

impl Histogram {
    /// New free-standing histogram with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. Negative samples are clamped to zero.
    pub fn observe(&self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        let mut h = self.0.lock().expect("histogram lock");
        if h.counts.is_empty() {
            h.counts = vec![0; HIST_BUCKETS];
        }
        if v > bucket_bound(HIST_BUCKETS - 1) {
            h.overflow += 1;
        } else {
            let i = bucket_index(v);
            h.counts[i] += 1;
        }
        if h.count == 0 {
            h.min = v;
            h.max = v;
        } else {
            h.min = h.min.min(v);
            h.max = h.max.max(v);
        }
        h.count += 1;
        h.sum += v;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.lock().expect("histogram lock").count
    }

    /// Immutable snapshot of the current distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = self.0.lock().expect("histogram lock");
        // Trim trailing empty buckets so snapshots (and exposition) stay
        // proportional to the observed range, not the full 46 bounds.
        let last = h
            .counts
            .iter()
            .rposition(|&c| c > 0)
            .map(|i| i + 1)
            .unwrap_or(0);
        let buckets = (0..last)
            .map(|i| BucketCount {
                le: bucket_bound(i),
                count: h.counts[i],
            })
            .collect();
        HistogramSnapshot {
            count: h.count,
            sum: h.sum,
            min: if h.count == 0 { 0.0 } else { h.min },
            max: if h.count == 0 { 0.0 } else { h.max },
            buckets,
        }
    }
}

/// One histogram bucket: number of samples `<= le` (non-cumulative count
/// for this bucket alone; exposition accumulates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketCount {
    /// Upper bound of the bucket (seconds).
    pub le: f64,
    /// Samples that fell in this bucket.
    pub count: u64,
}

/// Serializable view of a [`Histogram`] at a point in time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Per-bucket counts, trimmed after the last non-empty bucket.
    /// Samples above the last listed bound are in the implicit overflow
    /// bucket (`count - sum of bucket counts`).
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile `q in [0, 1]`: the upper bound of the bucket
    /// containing the `q`-th sample (`max` for the overflow bucket,
    /// 0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= target {
                return b.le.min(self.max);
            }
        }
        self.max
    }
}

/// Metric identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricId {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        debug_assert!(valid_metric_name(name), "invalid metric name: {name}");
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }

    fn render(&self) -> String {
        render_series(&self.name, &self.labels, &[])
    }
}

fn render_series(name: &str, labels: &[(String, String)], extra: &[(&str, String)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return name.to_string();
    }
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    parts.extend(extra.iter().map(|(k, v)| format!("{k}=\"{v}\"")));
    format!("{name}{{{}}}", parts.join(","))
}

/// True when `name` is a valid `tacc_<layer>_<name>` metric name:
/// lowercase ASCII, digits and underscores only, `tacc_` prefix.
pub(crate) fn valid_metric_name(name: &str) -> bool {
    name.starts_with("tacc_")
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<MetricId, Counter>,
    gauges: BTreeMap<MetricId, Gauge>,
    histograms: BTreeMap<MetricId, Histogram>,
}

/// Shared registry of named metrics. Cloning shares the underlying map;
/// `counter`/`gauge`/`histogram` are get-or-create, so the same
/// name + labels always yields a handle to the same cell.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry(Arc<Mutex<RegistryInner>>);

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Handle to the counter `name{labels}`, created at zero on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let id = MetricId::new(name, labels);
        self.0
            .lock()
            .expect("registry lock")
            .counters
            .entry(id)
            .or_default()
            .clone()
    }

    /// Handle to the gauge `name{labels}`, created at zero on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = MetricId::new(name, labels);
        self.0
            .lock()
            .expect("registry lock")
            .gauges
            .entry(id)
            .or_default()
            .clone()
    }

    /// Handle to the histogram `name{labels}`, created empty on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let id = MetricId::new(name, labels);
        self.0
            .lock()
            .expect("registry lock")
            .histograms
            .entry(id)
            .or_default()
            .clone()
    }

    /// Serializable snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.0.lock().expect("registry lock");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(id, c)| ScrapedCounter {
                    name: id.name.clone(),
                    labels: id.labels.clone(),
                    value: c.get(),
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(id, g)| ScrapedGauge {
                    name: id.name.clone(),
                    labels: id.labels.clone(),
                    value: g.get(),
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(id, h)| ScrapedHistogram {
                    name: id.name.clone(),
                    labels: id.labels.clone(),
                    hist: h.snapshot(),
                })
                .collect(),
        }
    }

    /// Prometheus-style text exposition of every registered metric.
    pub fn expose(&self) -> String {
        let inner = self.0.lock().expect("registry lock");
        let mut out = String::new();
        let mut last_type_line = String::new();
        let mut typed = |out: &mut String, name: &str, kind: &str| {
            let line = format!("# TYPE {name} {kind}\n");
            if line != last_type_line {
                out.push_str(&line);
                last_type_line = line;
            }
        };
        for (id, c) in &inner.counters {
            typed(&mut out, &id.name, "counter");
            out.push_str(&format!("{} {}\n", id.render(), c.get()));
        }
        for (id, g) in &inner.gauges {
            typed(&mut out, &id.name, "gauge");
            out.push_str(&format!("{} {}\n", id.render(), g.get()));
        }
        for (id, h) in &inner.histograms {
            typed(&mut out, &id.name, "histogram");
            let snap = h.snapshot();
            let mut cum = 0u64;
            for b in &snap.buckets {
                cum += b.count;
                let series = render_series(
                    &format!("{}_bucket", id.name),
                    &id.labels,
                    &[("le", format!("{}", b.le))],
                );
                out.push_str(&format!("{series} {cum}\n"));
            }
            let inf = render_series(
                &format!("{}_bucket", id.name),
                &id.labels,
                &[("le", "+Inf".to_string())],
            );
            out.push_str(&format!("{inf} {}\n", snap.count));
            out.push_str(&format!(
                "{} {}\n",
                render_series(&format!("{}_sum", id.name), &id.labels, &[]),
                snap.sum
            ));
            out.push_str(&format!(
                "{} {}\n",
                render_series(&format!("{}_count", id.name), &id.labels, &[]),
                snap.count
            ));
        }
        out
    }
}

/// Scraped value of one counter series.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapedCounter {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Counter value at scrape time.
    pub value: u64,
}

/// Scraped value of one gauge series.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapedGauge {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Gauge value at scrape time.
    pub value: f64,
}

/// Scraped distribution of one histogram series.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapedHistogram {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Distribution at scrape time.
    pub hist: HistogramSnapshot,
}

/// Point-in-time view of a whole [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name then labels.
    pub counters: Vec<ScrapedCounter>,
    /// All gauges, sorted by name then labels.
    pub gauges: Vec<ScrapedGauge>,
    /// All histograms, sorted by name then labels.
    pub histograms: Vec<ScrapedHistogram>,
}

impl MetricsSnapshot {
    /// Value of the counter `name` with no labels, if scraped.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && c.labels.is_empty())
            .map(|c| c.value)
    }

    /// Value of the gauge `name` with no labels, if scraped.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && g.labels.is_empty())
            .map(|g| g.value)
    }

    /// Distribution of the histogram `name` with no labels, if scraped.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name && h.labels.is_empty())
            .map(|h| &h.hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_semantics() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("tacc_test_hits_total", &[]);
        let b = reg.counter("tacc_test_hits_total", &[]);
        a.inc();
        b.inc_by(4);
        // Same name + labels -> same underlying cell.
        assert_eq!(a.get(), 5);
        let other = reg.counter("tacc_test_hits_total", &[("layer", "sched")]);
        other.inc();
        assert_eq!(other.get(), 1);
        assert_eq!(a.get(), 5);
        // A published total only ever moves the counter forward.
        a.catch_up(9);
        a.catch_up(7);
        assert_eq!(b.get(), 9);
    }

    #[test]
    fn gauge_semantics() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("tacc_test_depth", &[]);
        g.set(7.5);
        g.add(-2.5);
        assert!((g.get() - 5.0).abs() < 1e-12);
        assert!((reg.gauge("tacc_test_depth", &[]).get() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for v in [0.0, 1e-6, 1e-3, 1e-3, 0.5, 2.0, 1000.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert!((s.sum - 1002.502001).abs() < 1e-6);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 1000.0);
        assert!((s.mean() - s.sum / 7.0).abs() < 1e-12);
        // Bucket counts account for every sample (no overflow here).
        let total: u64 = s.buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, 7);
        // Median is on the order of the 1e-3 samples.
        let q50 = s.quantile(0.5);
        assert!((1e-3..1e-2).contains(&q50), "q50 = {q50}");
        assert_eq!(s.quantile(1.0), 1000.0);
        // Negative samples clamp to zero instead of panicking.
        h.observe(-3.0);
        assert_eq!(h.snapshot().min, 0.0);
    }

    #[test]
    fn histogram_empty_snapshot() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.99), 0.0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn bucket_bounds_are_log2() {
        assert!((bucket_bound(0) - 1e-6).abs() < 1e-18);
        assert!((bucket_bound(1) - 2e-6).abs() < 1e-18);
        assert!((bucket_bound(10) - 1024e-6).abs() < 1e-12);
        for i in 1..HIST_BUCKETS {
            assert!((bucket_bound(i) / bucket_bound(i - 1) - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn exposition_format() {
        let reg = MetricsRegistry::new();
        reg.counter("tacc_sched_rounds_total", &[]).inc_by(3);
        reg.gauge("tacc_cluster_free_gpus", &[]).set(128.0);
        let h = reg.histogram("tacc_sched_round_latency_seconds", &[]);
        h.observe(1e-4);
        h.observe(1e-4);
        let text = reg.expose();
        assert!(text.contains("# TYPE tacc_sched_rounds_total counter\n"));
        assert!(text.contains("tacc_sched_rounds_total 3\n"));
        assert!(text.contains("# TYPE tacc_cluster_free_gpus gauge\n"));
        assert!(text.contains("tacc_cluster_free_gpus 128\n"));
        assert!(text.contains("# TYPE tacc_sched_round_latency_seconds histogram\n"));
        assert!(text.contains("tacc_sched_round_latency_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("tacc_sched_round_latency_seconds_count 2\n"));
        // Cumulative bucket lines end at the total count.
        assert!(text.contains("_bucket{le=\"0.000128\"} 2\n"), "{text}");
    }

    #[test]
    fn exposition_labels_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter(
            "tacc_exec_faults_total",
            &[("runtime", "mpi"), ("kind", "node")],
        )
        .inc();
        let text = reg.expose();
        assert!(
            text.contains("tacc_exec_faults_total{kind=\"node\",runtime=\"mpi\"} 1\n"),
            "{text}"
        );
    }

    #[test]
    fn snapshot_lookup() {
        let reg = MetricsRegistry::new();
        reg.counter("tacc_core_jobs_submitted_total", &[]).inc_by(9);
        reg.gauge("tacc_cluster_fragmentation", &[]).set(0.25);
        reg.histogram("tacc_core_queue_delay_seconds", &[])
            .observe(3.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("tacc_core_jobs_submitted_total"), Some(9));
        assert_eq!(snap.gauge("tacc_cluster_fragmentation"), Some(0.25));
        assert_eq!(
            snap.histogram("tacc_core_queue_delay_seconds")
                .map(|h| h.count),
            Some(1)
        );
        assert_eq!(snap.counter("tacc_core_nope"), None);
    }

    #[test]
    fn metric_name_validation() {
        assert!(valid_metric_name("tacc_sched_rounds_total"));
        assert!(!valid_metric_name("sched_rounds_total"));
        assert!(!valid_metric_name("tacc_Sched_rounds"));
        assert!(!valid_metric_name("tacc_sched-rounds"));
    }
}
