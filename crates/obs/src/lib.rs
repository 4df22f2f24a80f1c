//! # qsync-obs — lock-light observability primitives for the serving stack
//!
//! Three instrument types sized for the reactor hot path, a registry that
//! interns them at registration time, and a trace-span ring buffer:
//!
//! * [`Counter`] — monotonic `AtomicU64`; one `fetch_add` to record.
//! * [`Gauge`] — signed level (`AtomicI64`); `set`/`add` with relaxed stores.
//! * [`Histogram`] — fixed-bucket **log-linear** histogram ([`NUM_BUCKETS`]
//!   buckets, 16 linear subdivisions per power of two, so every recorded
//!   value lands in a bucket whose width is at most 1/16 of its lower bound).
//!   Recording is four relaxed atomic ops: bucket, count, sum, min/max. No
//!   allocation, no locks.
//! * [`Registry`] — names are interned once at registration (a `Mutex` is
//!   taken *only* there); the returned `Arc` handles are then recorded
//!   against lock-free. [`Registry::snapshot`] produces the serializable
//!   [`MetricsSnapshot`], which also renders a Prometheus-style text
//!   exposition ([`MetricsSnapshot::render_prometheus`]).
//! * [`TraceLog`] — mints per-request trace ids and keeps the last
//!   [`TraceLog::capacity`] spans in a ring, so one slow request can be
//!   reconstructed stage by stage after the fact.
//!
//! A [`Registry`] (and every instrument it hands out) can be constructed
//! disabled — record calls become a branch on a `bool` — which is how
//! `qsync-serve`'s `obs_overhead` test pins the metrics-on vs metrics-off
//! overhead.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// log2 of the number of linear subdivisions per power of two (16).
const SUB_BITS: u32 = 4;
/// Linear subdivisions per power of two.
const SUBDIVISIONS: u64 = 1 << SUB_BITS;
/// Total bucket count: values `< 16` get exact unit buckets, then 16 buckets
/// per power of two up to `u64::MAX` (msb 4..=63 → 60 groups of 16).
pub const NUM_BUCKETS: usize = (SUBDIVISIONS as usize) * 61;

/// The bucket index a value records into.
///
/// Values below 16 map to themselves (exact); larger values map to
/// `((msb - 3) << 4) + top-4-mantissa-bits`, giving a relative bucket width
/// of at most 1/16.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUBDIVISIONS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BITS;
    let within = ((value >> shift) - SUBDIVISIONS) as usize;
    (((msb - SUB_BITS + 1) as usize) << SUB_BITS) + within
}

/// The smallest value that records into bucket `index`.
#[inline]
pub fn bucket_lower_bound(index: usize) -> u64 {
    if index < SUBDIVISIONS as usize {
        return index as u64;
    }
    let group = (index >> SUB_BITS) - 1;
    (SUBDIVISIONS + (index as u64 & (SUBDIVISIONS - 1))) << group
}

/// The largest value that records into bucket `index` (inclusive).
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index < SUBDIVISIONS as usize {
        return index as u64;
    }
    let group = (index >> SUB_BITS) - 1;
    bucket_lower_bound(index) + ((1u64 << group) - 1)
}

/// A monotonic counter. Recording is one relaxed `fetch_add`.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
    enabled: bool,
}

impl Counter {
    fn new(enabled: bool) -> Self {
        Counter { value: AtomicU64::new(0), enabled }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed level (queue depth, open connections, window occupancy).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
    enabled: bool,
}

impl Gauge {
    fn new(enabled: bool) -> Self {
        Gauge { value: AtomicI64::new(0), enabled }
    }

    /// Overwrite the level.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Move the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if self.enabled {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket log-linear histogram; see the crate docs for the layout.
///
/// The bucket array is allocated once at registration; recording touches
/// only atomics (bucket, count, sum, min, max) with relaxed ordering.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    enabled: bool,
}

impl Histogram {
    fn new(enabled: bool) -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            enabled,
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, value: u64) {
        if !self.enabled {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        let mut buckets = Vec::new();
        for (index, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push(BucketCount { index: index as u32, count: n });
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// One non-empty bucket in a [`HistogramSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Bucket index (see [`bucket_lower_bound`]/[`bucket_upper_bound`]).
    pub index: u32,
    /// Values recorded into this bucket.
    pub count: u64,
}

/// A serializable point-in-time copy of a [`Histogram`]. Only non-empty
/// buckets are carried.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Non-empty buckets in index order.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// holding that rank, clamped into `[min, max]` — so the estimate is
    /// never below the true quantile and overshoots by at most 1/16 of it.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for bucket in &self.buckets {
            seen += bucket.count;
            if seen >= target {
                return bucket_upper_bound(bucket.index as usize).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold `other` into `self` (bucket-wise addition; min/max widen).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut merged: Vec<BucketCount> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) if x.index == y.index => {
                    merged.push(BucketCount { index: x.index, count: x.count + y.count });
                    a.next();
                    b.next();
                }
                (Some(x), Some(y)) if x.index < y.index => {
                    merged.push((*x).clone());
                    a.next();
                }
                (Some(_), Some(y)) => {
                    merged.push((*y).clone());
                    b.next();
                }
                (Some(x), None) => {
                    merged.push((*x).clone());
                    a.next();
                }
                (None, Some(y)) => {
                    merged.push((*y).clone());
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }
}

/// A named counter value inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterValue {
    /// Metric name (may carry a `{label="value"}` block).
    pub name: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// A named gauge level inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeValue {
    /// Metric name (may carry a `{label="value"}` block).
    pub name: String,
    /// Gauge level at snapshot time.
    pub value: i64,
}

/// A named histogram inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramMetric {
    /// Metric name (may carry a `{label="value"}` block).
    pub name: String,
    /// The distribution snapshot.
    pub histogram: HistogramSnapshot,
}

/// Everything a [`Registry`] knows, in registration order — the payload of
/// the wire `Metrics` reply and the source of the text exposition.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters in registration order.
    pub counters: Vec<CounterValue>,
    /// All gauges in registration order.
    pub gauges: Vec<GaugeValue>,
    /// All histograms in registration order.
    pub histograms: Vec<HistogramMetric>,
}

impl MetricsSnapshot {
    /// Find a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Find a gauge by exact name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Find a histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name).map(|h| &h.histogram)
    }

    /// Render the Prometheus-style text exposition: one `# TYPE` line per
    /// *base* metric name (labeled series sharing a base — e.g.
    /// `qsync_plan_latency_us{kind="cold"|"warm"}` — are grouped under a
    /// single declaration, as the text-format parser requires), one sample
    /// per counter/gauge, and cumulative `_bucket{le="…"}` series (plus
    /// `_sum`/`_count`) per histogram. Names carrying a `{label="value"}`
    /// block keep it; the `le` label is spliced in.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let counter_names: Vec<&str> = self.counters.iter().map(|c| c.name.as_str()).collect();
        for (base, idxs) in group_by_base(&counter_names) {
            out.push_str(&format!("# TYPE {base} counter\n"));
            for i in idxs {
                let c = &self.counters[i];
                out.push_str(&format!("{} {}\n", c.name, c.value));
            }
        }
        let gauge_names: Vec<&str> = self.gauges.iter().map(|g| g.name.as_str()).collect();
        for (base, idxs) in group_by_base(&gauge_names) {
            out.push_str(&format!("# TYPE {base} gauge\n"));
            for i in idxs {
                let g = &self.gauges[i];
                out.push_str(&format!("{} {}\n", g.name, g.value));
            }
        }
        let hist_names: Vec<&str> = self.histograms.iter().map(|h| h.name.as_str()).collect();
        for (base, idxs) in group_by_base(&hist_names) {
            out.push_str(&format!("# TYPE {base} histogram\n"));
            for i in idxs {
                let h = &self.histograms[i];
                let (_, labels) = split_labels(&h.name);
                let mut cumulative = 0u64;
                for bucket in &h.histogram.buckets {
                    cumulative += bucket.count;
                    let le = bucket_upper_bound(bucket.index as usize);
                    out.push_str(&format!(
                        "{base}_bucket{{{}le=\"{le}\"}} {cumulative}\n",
                        labels_prefix(labels)
                    ));
                }
                out.push_str(&format!(
                    "{base}_bucket{{{}le=\"+Inf\"}} {}\n",
                    labels_prefix(labels),
                    h.histogram.count
                ));
                let suffix = match labels {
                    Some(l) => format!("{{{l}}}"),
                    None => String::new(),
                };
                out.push_str(&format!("{base}_sum{suffix} {}\n", h.histogram.sum));
                out.push_str(&format!("{base}_count{suffix} {}\n", h.histogram.count));
            }
        }
        out
    }
}

/// Group metric names by base (label block stripped), preserving the
/// first-appearance order of bases and the entry order within each group.
/// The Prometheus text format allows at most one `# TYPE` line per metric
/// name and wants all of a name's series contiguous.
fn group_by_base(names: &[&str]) -> Vec<(String, Vec<usize>)> {
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let (base, _) = split_labels(name);
        match groups.iter_mut().find(|(b, _)| b == base) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((base.to_string(), vec![i])),
        }
    }
    groups
}

/// Split `name{a="b"}` into `("name", Some("a=\"b\""))`.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match (name.find('{'), name.ends_with('}')) {
        (Some(open), true) => (&name[..open], Some(&name[open + 1..name.len() - 1])),
        _ => (name, None),
    }
}

fn labels_prefix(labels: Option<&str>) -> String {
    match labels {
        Some(l) => format!("{l},"),
        None => String::new(),
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Vec<(String, Arc<Counter>)>,
    gauges: Vec<(String, Arc<Gauge>)>,
    histograms: Vec<(String, Arc<Histogram>)>,
}

/// Interns instruments by name at registration time; handing out `Arc`
/// handles that record lock-free afterwards. Registering the same name twice
/// returns the same instrument.
#[derive(Debug)]
pub struct Registry {
    enabled: bool,
    inner: Mutex<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An enabled registry: instruments record.
    pub fn new() -> Self {
        Registry { enabled: true, inner: Mutex::new(RegistryInner::default()) }
    }

    /// A disabled registry: every instrument it hands out drops records at a
    /// branch. Used to pin the instrumentation overhead in tests.
    pub fn disabled() -> Self {
        Registry { enabled: false, inner: Mutex::new(RegistryInner::default()) }
    }

    /// Whether instruments from this registry record.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Register (or look up) a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new(self.enabled));
        inner.counters.push((name.to_string(), Arc::clone(&c)));
        c
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new(self.enabled));
        inner.gauges.push((name.to_string(), Arc::clone(&g)));
        g
    }

    /// Register (or look up) a histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some((_, h)) = inner.histograms.iter().find(|(n, _)| n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new(self.enabled));
        inner.histograms.push((name.to_string(), Arc::clone(&h)));
        h
    }

    /// Snapshot every registered instrument in registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(name, c)| CounterValue { name: name.clone(), value: c.get() })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(name, g)| GaugeValue { name: name.clone(), value: g.get() })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| HistogramMetric { name: name.clone(), histogram: h.snapshot() })
                .collect(),
        }
    }
}

/// One stage of one request's journey through the server.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// The request's trace id.
    pub trace_id: u64,
    /// Stage name (`parse`, `dispatch`, `cache_hit`, `cold_plan`, …).
    pub stage: String,
    /// Stage start, microseconds since the trace log's origin.
    pub start_us: u64,
    /// Stage duration in microseconds.
    pub dur_us: u64,
    /// Free-form detail (cache key, outcome, byte count, …).
    pub detail: String,
}

/// A bounded ring of recent [`TraceSpan`]s plus the trace-id mint.
///
/// Spans from all requests interleave in one ring; [`TraceLog::spans_for`]
/// filters by id. The ring holds the last [`TraceLog::capacity`] spans, so
/// reconstruction works for recent requests — which is the case that
/// matters when chasing a slow one.
#[derive(Debug)]
pub struct TraceLog {
    origin: Instant,
    next_trace: AtomicU64,
    ring: Mutex<VecDeque<TraceSpan>>,
    capacity: usize,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::new(4096)
    }
}

impl TraceLog {
    /// A trace log keeping the last `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        TraceLog {
            origin: Instant::now(),
            next_trace: AtomicU64::new(1),
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            capacity: capacity.max(1),
        }
    }

    /// Maximum number of retained spans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Mint a fresh trace id (1, 2, 3, …).
    pub fn mint(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    /// Microseconds since this log was created — span timestamps.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Append a span, evicting the oldest beyond capacity.
    pub fn record(&self, span: TraceSpan) {
        let mut ring = self.ring.lock().expect("trace log poisoned");
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(span);
    }

    /// Record a stage that started at `start_us` and just finished.
    pub fn span(&self, trace_id: u64, stage: &str, start_us: u64, detail: String) {
        let dur_us = self.now_us().saturating_sub(start_us);
        self.record(TraceSpan { trace_id, stage: stage.to_string(), start_us, dur_us, detail });
    }

    /// The most recent `limit` spans for `trace_id`, oldest first.
    pub fn spans_for(&self, trace_id: u64, limit: usize) -> Vec<TraceSpan> {
        let ring = self.ring.lock().expect("trace log poisoned");
        let mut spans: Vec<TraceSpan> =
            ring.iter().filter(|s| s.trace_id == trace_id).cloned().collect();
        if spans.len() > limit {
            spans.drain(..spans.len() - limit);
        }
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_inverse_bounds_bracket_it() {
        let mut last = 0usize;
        for v in [0u64, 1, 2, 15, 16, 17, 31, 32, 33, 100, 1000, 12345, u32::MAX as u64, u64::MAX]
        {
            let i = bucket_index(v);
            assert!(i >= last || v == 0, "index must be monotone in value");
            last = i;
            assert!(bucket_lower_bound(i) <= v, "lower({i}) > {v}");
            assert!(bucket_upper_bound(i) >= v, "upper({i}) < {v}");
            assert!(i < NUM_BUCKETS);
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0u64..32 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_width_is_at_most_one_sixteenth_of_lower_bound() {
        for i in 16..NUM_BUCKETS {
            let lower = bucket_lower_bound(i);
            let width = bucket_upper_bound(i) - lower + 1;
            assert!(width * 16 <= lower.max(16), "bucket {i}: width {width} lower {lower}");
        }
    }

    #[test]
    fn disabled_instruments_do_not_record() {
        let registry = Registry::disabled();
        let c = registry.counter("c");
        let g = registry.gauge("g");
        let h = registry.histogram("h");
        c.inc();
        g.set(7);
        h.record(100);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn registry_interns_by_name() {
        let registry = Registry::new();
        let a = registry.counter("same");
        let b = registry.counter("same");
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(registry.snapshot().counters.len(), 1);
    }

    #[test]
    fn snapshot_lookup_helpers_find_by_name() {
        let registry = Registry::new();
        registry.counter("c").add(3);
        registry.gauge("g").set(-2);
        registry.histogram("h").record(10);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("c"), Some(3));
        assert_eq!(snap.gauge("g"), Some(-2));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn prometheus_rendering_splices_le_into_label_blocks() {
        let registry = Registry::new();
        registry.counter("qsync_cache_hits{shard=\"3\"}").add(5);
        let h = registry.histogram("qsync_plan_us{kind=\"cold\"}");
        h.record(10);
        h.record(20);
        let text = registry.snapshot().render_prometheus();
        assert!(text.contains("# TYPE qsync_cache_hits counter"), "{text}");
        assert!(text.contains("qsync_cache_hits{shard=\"3\"} 5"), "{text}");
        assert!(text.contains("qsync_plan_us_bucket{kind=\"cold\",le=\"10\"} 1"), "{text}");
        assert!(text.contains("qsync_plan_us_bucket{kind=\"cold\",le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("qsync_plan_us_sum{kind=\"cold\"} 30"), "{text}");
        assert!(text.contains("qsync_plan_us_count{kind=\"cold\"} 2"), "{text}");
    }

    #[test]
    fn prometheus_rendering_declares_each_base_name_once() {
        // Labeled series sharing a base name — the normal case for every
        // per-kind/per-shard instrument — must sit under a single `# TYPE`
        // declaration with all their samples contiguous, or the Prometheus
        // text-format parser rejects the scrape.
        let registry = Registry::new();
        registry.counter("qsync_cache_hits{shard=\"0\"}").inc();
        registry.gauge("qsync_queue_depth{class=\"interactive\"}").set(1);
        for kind in ["cold", "warm", "hit"] {
            registry.histogram(&format!("qsync_plan_latency_us{{kind=\"{kind}\"}}")).record(10);
        }
        registry.counter("qsync_accepts_total").inc();
        registry.counter("qsync_cache_hits{shard=\"1\"}").inc();
        registry.gauge("qsync_queue_depth{class=\"batch\"}").set(2);
        let text = registry.snapshot().render_prometheus();
        let mut declared = std::collections::HashSet::new();
        let mut current = String::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap();
                assert!(declared.insert(name.to_string()), "duplicate # TYPE for {name}:\n{text}");
                current = name.to_string();
            } else {
                assert!(
                    line.starts_with(&current),
                    "sample outside its base's TYPE block: {line}\n{text}"
                );
            }
        }
        assert!(declared.contains("qsync_plan_latency_us"), "{text}");
        assert!(text.contains("qsync_cache_hits{shard=\"0\"} 1"), "{text}");
        assert!(text.contains("qsync_cache_hits{shard=\"1\"} 1"), "{text}");
        assert!(text.contains("qsync_queue_depth{class=\"batch\"} 2"), "{text}");
    }

    #[test]
    fn trace_log_rings_and_filters() {
        let log = TraceLog::new(4);
        let id = log.mint();
        let other = log.mint();
        assert_ne!(id, other);
        for i in 0..6u64 {
            log.record(TraceSpan {
                trace_id: if i % 2 == 0 { id } else { other },
                stage: format!("s{i}"),
                start_us: i,
                dur_us: 1,
                detail: String::new(),
            });
        }
        // Ring of 4 keeps spans 2..6; ids alternate, so two spans each.
        let spans = log.spans_for(id, 16);
        assert_eq!(spans.iter().map(|s| s.stage.as_str()).collect::<Vec<_>>(), ["s2", "s4"]);
        assert_eq!(log.spans_for(id, 1).len(), 1);
        assert_eq!(log.spans_for(id, 1)[0].stage, "s4");
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let registry = Registry::new();
        registry.counter("c").add(3);
        registry.gauge("g").set(-2);
        let h = registry.histogram("h");
        h.record(1);
        h.record(1_000_000);
        let snap = registry.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
