//! Metrics registry: counters, gauges, histograms, Prometheus exposition.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Reasonable buckets (seconds) for sub-second query/remote latencies.
pub const DEFAULT_LATENCY_BUCKETS: &[f64] = &[
    0.000_01, 0.000_05, 0.000_1, 0.000_5, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
];

/// Buckets (seconds) for observed replica staleness: spans heartbeat
/// intervals of a few seconds up to badly stalled regions.
pub const DEFAULT_STALENESS_BUCKETS: &[f64] = &[
    0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0,
];

/// Buckets (seconds) for currency slack — promised bound minus delivered
/// staleness. Slack is signed: negative buckets capture how badly a served
/// snapshot overran its clause's bound.
pub const DEFAULT_SLACK_BUCKETS: &[f64] = &[
    -600.0, -60.0, -10.0, -5.0, -1.0, 0.0, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0, 3600.0,
];

/// Buckets (row counts) for batch cardinality: from near-empty trailing
/// batches up to oversized scan fills.
pub const DEFAULT_BATCH_ROWS_BUCKETS: &[f64] = &[
    1.0, 16.0, 64.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0, 16384.0,
];

/// Buckets (ratio) for filter selectivity: fraction of a batch surviving
/// a predicate.
pub const DEFAULT_SELECTIVITY_BUCKETS: &[f64] = &[0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];

/// A metric identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    fn render(&self) -> String {
        if self.labels.is_empty() {
            self.name.clone()
        } else {
            let inner: Vec<String> = self
                .labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect();
            format!("{}{{{}}}", self.name, inner.join(","))
        }
    }

    fn render_with(&self, extra_key: &str, extra_val: &str) -> String {
        let mut labels = self.labels.clone();
        labels.push((extra_key.to_string(), extra_val.to_string()));
        let inner: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{}{{{}}}", self.name, inner.join(","))
    }
}

/// Handle to a monotonically increasing (but resettable) counter.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the value — used by facade collectors that mirror an
    /// external source of truth (including its resets) into the registry.
    pub fn set(&self, n: u64) {
        self.cell.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Handle to a gauge (an arbitrary `f64` that goes up and down).
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (may be negative) atomically — occupancy-style gauges
    /// (open connections, pooled sockets in use) are incremented and
    /// decremented from many threads.
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Subtract one.
    pub fn dec(&self) {
        self.add(-1.0);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Handle to a fixed-bucket histogram.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds (inclusive), ascending; an implicit +Inf bucket follows.
    bounds: Vec<f64>,
    /// One count per bound, plus the trailing +Inf bucket.
    counts: Vec<AtomicU64>,
    /// Total of observed values, as `f64` bits (CAS-accumulated).
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.inner.bounds.len());
        self.inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.inner.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the containing bucket; `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.snapshot().quantile(q)
    }

    /// A point-in-time copy of the bucket state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.inner.bounds.clone(),
            counts: self
                .inner
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum(),
            count: self.count(),
        }
    }
}

/// Frozen histogram state with quantile estimation.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (ascending); a +Inf bucket follows implicitly.
    pub bounds: Vec<f64>,
    /// Per-bucket counts, one per bound plus the +Inf bucket.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
    /// Total observation count.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile; `None` if no observations.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cumulative + c;
            if (next as f64) >= rank && c > 0 {
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    // +Inf bucket: report its lower edge
                    return Some(lo);
                };
                let within = (rank - cumulative as f64) / c as f64;
                return Some(lo + (hi - lo) * within.clamp(0.0, 1.0));
            }
            cumulative = next;
        }
        Some(*self.bounds.last().unwrap_or(&0.0))
    }
}

/// One value in a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub enum SnapshotValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// Point-in-time copy of every registered metric, keyed by rendered name
/// (`name{label="v"}`).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Rendered key → value.
    pub values: BTreeMap<String, SnapshotValue>,
}

impl MetricsSnapshot {
    /// Counter value by rendered key (`name` or `name{k="v"}`); 0 if absent.
    pub fn counter(&self, key: &str) -> u64 {
        match self.values.get(key) {
            Some(SnapshotValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value by rendered key; `None` if absent.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        match self.values.get(key) {
            Some(SnapshotValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram by rendered key; `None` if absent.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSnapshot> {
        match self.values.get(key) {
            Some(SnapshotValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }
}

/// Metric handles whose label comes from a small run-time key (a region
/// id, say): each is resolved from the registry by name the first time its
/// key is seen and held from then on, so a hot path pays a read lock and a
/// hash of the key, not a by-name lookup (key allocation, mutex, map walk).
#[derive(Debug)]
pub struct HandlesByKey<K, H> {
    held: RwLock<HashMap<K, H>>,
}

impl<K, H> Default for HandlesByKey<K, H> {
    fn default() -> Self {
        HandlesByKey {
            held: RwLock::new(HashMap::new()),
        }
    }
}

impl<K: Eq + Hash, H: Clone> HandlesByKey<K, H> {
    /// The handle held for `key`, resolving it first if this is the key's
    /// first sighting.
    pub fn get(&self, key: K, resolve: impl FnOnce() -> H) -> H {
        let held = self.held.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(handle) = held.get(&key) {
            return handle.clone();
        }
        drop(held);
        let mut held = self.held.write().unwrap_or_else(PoisonError::into_inner);
        held.entry(key).or_insert_with(resolve).clone()
    }
}

type Collector = Box<dyn Fn() + Send + Sync>;

/// Registry of named metrics. Cheap to clone handles out of; all handles
/// stay live after the registry is snapshotted or rendered.
///
/// Layers that keep their own counters (e.g. the executor's `ExecCounters`
/// facade) register a *collector* closure that mirrors those values into
/// registry handles; collectors run before every snapshot/render, so
/// external resets are always reflected.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<MetricKey, Counter>>,
    gauges: Mutex<BTreeMap<MetricKey, Gauge>>,
    histograms: Mutex<BTreeMap<MetricKey, Histogram>>,
    help: Mutex<BTreeMap<String, &'static str>>,
    collectors: Mutex<Vec<Collector>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or create a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        lock(&self.counters)
            .entry(MetricKey::new(name, labels))
            .or_insert_with(|| Counter {
                cell: Arc::new(AtomicU64::new(0)),
            })
            .clone()
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        lock(&self.gauges)
            .entry(MetricKey::new(name, labels))
            .or_insert_with(|| Gauge {
                bits: Arc::new(AtomicU64::new(0f64.to_bits())),
            })
            .clone()
    }

    /// Get or create a histogram with the given bucket upper bounds.
    ///
    /// Bounds are fixed at first creation; later calls with the same name
    /// and labels return the existing histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        lock(&self.histograms)
            .entry(MetricKey::new(name, labels))
            .or_insert_with(|| Histogram {
                inner: Arc::new(HistogramInner {
                    bounds: bounds.to_vec(),
                    counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                    sum_bits: AtomicU64::new(0f64.to_bits()),
                    count: AtomicU64::new(0),
                }),
            })
            .clone()
    }

    /// Attach a `# HELP` line to a metric name.
    pub fn describe(&self, name: &str, help: &'static str) {
        lock(&self.help).insert(name.to_string(), help);
    }

    /// Register a closure run before every snapshot/render; used to mirror
    /// externally owned counters into the registry.
    pub fn register_collector(&self, f: impl Fn() + Send + Sync + 'static) {
        lock(&self.collectors).push(Box::new(f));
    }

    fn run_collectors(&self) {
        // take the collectors out while running so a collector that
        // touches the registry cannot deadlock on the collectors lock
        let collectors = std::mem::take(&mut *lock(&self.collectors));
        for c in &collectors {
            c();
        }
        let mut slot = lock(&self.collectors);
        let newly_added = std::mem::take(&mut *slot);
        *slot = collectors;
        slot.extend(newly_added);
    }

    /// Point-in-time copy of every metric (collectors run first).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.run_collectors();
        let mut values = BTreeMap::new();
        for (k, c) in lock(&self.counters).iter() {
            values.insert(k.render(), SnapshotValue::Counter(c.get()));
        }
        for (k, g) in lock(&self.gauges).iter() {
            values.insert(k.render(), SnapshotValue::Gauge(g.get()));
        }
        for (k, h) in lock(&self.histograms).iter() {
            values.insert(k.render(), SnapshotValue::Histogram(h.snapshot()));
        }
        MetricsSnapshot { values }
    }

    /// Distinct metric names currently registered.
    pub fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = lock(&self.counters)
            .keys()
            .chain(lock(&self.gauges).keys())
            .chain(lock(&self.histograms).keys())
            .map(|k| k.name.clone())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Render everything in Prometheus text exposition format
    /// (collectors run first).
    pub fn render_prometheus(&self) -> String {
        self.run_collectors();
        let help = lock(&self.help);
        let mut out = String::new();
        let mut typed: BTreeMap<String, &str> = BTreeMap::new();

        let counters = lock(&self.counters);
        for (k, c) in counters.iter() {
            Self::header(&mut out, &mut typed, &help, &k.name, "counter");
            let _ = writeln!(out, "{} {}", k.render(), c.get());
        }
        drop(counters);

        let gauges = lock(&self.gauges);
        for (k, g) in gauges.iter() {
            Self::header(&mut out, &mut typed, &help, &k.name, "gauge");
            let _ = writeln!(out, "{} {}", k.render(), g.get());
        }
        drop(gauges);

        let histograms = lock(&self.histograms);
        for (k, h) in histograms.iter() {
            Self::header(&mut out, &mut typed, &help, &k.name, "histogram");
            let snap = h.snapshot();
            let mut cumulative = 0u64;
            let bucket_name = format!("{}_bucket", k.name);
            let bucket_key = MetricKey {
                name: bucket_name,
                labels: k.labels.clone(),
            };
            for (i, count) in snap.counts.iter().enumerate() {
                cumulative += count;
                let le = if i < snap.bounds.len() {
                    format!("{}", snap.bounds[i])
                } else {
                    "+Inf".to_string()
                };
                let _ = writeln!(out, "{} {}", bucket_key.render_with("le", &le), cumulative);
            }
            let _ = writeln!(
                out,
                "{} {}",
                MetricKey {
                    name: format!("{}_sum", k.name),
                    labels: k.labels.clone()
                }
                .render(),
                snap.sum
            );
            let _ = writeln!(
                out,
                "{} {}",
                MetricKey {
                    name: format!("{}_count", k.name),
                    labels: k.labels.clone()
                }
                .render(),
                snap.count
            );
        }
        out
    }

    fn header(
        out: &mut String,
        typed: &mut BTreeMap<String, &str>,
        help: &BTreeMap<String, &'static str>,
        name: &str,
        kind: &'static str,
    ) {
        if typed.insert(name.to_string(), kind).is_none() {
            if let Some(h) = help.get(name) {
                let _ = writeln!(out, "# HELP {name} {h}");
            }
            let _ = writeln!(out, "# TYPE {name} {kind}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("reqs_total", &[("kind", "select")]);
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("reqs_total", &[("kind", "select")]).get(), 5);
        let g = reg.gauge("lag_seconds", &[("region", "cr1")]);
        g.set(2.5);
        assert_eq!(reg.gauge("lag_seconds", &[("region", "cr1")]).get(), 2.5);
    }

    #[test]
    fn label_order_is_canonical() {
        let reg = MetricsRegistry::new();
        reg.counter("m", &[("b", "2"), ("a", "1")]).inc();
        reg.counter("m", &[("a", "1"), ("b", "2")]).inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("m{a=\"1\",b=\"2\"}"), 2);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[], &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.6, 3.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 6.6).abs() < 1e-9);
        let p50 = h.quantile(0.5).unwrap();
        assert!((1.0..=2.0).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 > 2.0, "p99={p99}");
        assert!(reg.histogram("lat", &[], &[1.0]).quantile(0.5).is_some());
    }

    #[test]
    fn histogram_overflow_bucket() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[], &[1.0]);
        h.observe(50.0);
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![0, 1]);
        // +Inf bucket reports its lower edge
        assert_eq!(h.quantile(0.9), Some(1.0));
    }

    #[test]
    fn collectors_run_on_snapshot_and_render() {
        let reg = Arc::new(MetricsRegistry::new());
        let source = Arc::new(AtomicU64::new(7));
        let mirror = reg.counter("mirrored_total", &[]);
        let src = source.clone();
        reg.register_collector(move || mirror.set(src.load(Ordering::Relaxed)));
        assert_eq!(reg.snapshot().counter("mirrored_total"), 7);
        source.store(3, Ordering::Relaxed); // external reset goes down too
        assert_eq!(reg.snapshot().counter("mirrored_total"), 3);
        assert!(reg.render_prometheus().contains("mirrored_total 3"));
    }

    #[test]
    fn prometheus_rendering_shape() {
        let reg = MetricsRegistry::new();
        reg.describe("reqs_total", "Total requests.");
        reg.counter("reqs_total", &[("kind", "select")]).add(2);
        reg.gauge("temp", &[]).set(1.25);
        reg.histogram("lat_seconds", &[], &[0.1, 1.0]).observe(0.05);
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP reqs_total Total requests."));
        assert!(text.contains("# TYPE reqs_total counter"));
        assert!(text.contains("reqs_total{kind=\"select\"} 2"));
        assert!(text.contains("# TYPE temp gauge"));
        assert!(text.contains("temp 1.25"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lat_seconds_count 1"));
    }

    #[test]
    fn handles_by_key_resolve_once_per_key() {
        let registry = MetricsRegistry::new();
        let held: HandlesByKey<u32, Counter> = HandlesByKey::default();
        let resolved = std::cell::Cell::new(0);
        for key in [1, 2, 1, 1, 2] {
            let label = key.to_string();
            held.get(key, || {
                resolved.set(resolved.get() + 1);
                registry.counter("c", &[("k", &label)])
            })
            .inc();
        }
        assert_eq!(resolved.get(), 2, "one by-name lookup per key");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("c{k=\"1\"}"), 3);
        assert_eq!(snap.counter("c{k=\"2\"}"), 2);
    }

    #[test]
    fn metric_names_dedup() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", &[("x", "1")]);
        reg.counter("a_total", &[("x", "2")]);
        reg.gauge("b", &[]);
        assert_eq!(
            reg.metric_names(),
            vec!["a_total".to_string(), "b".to_string()]
        );
    }
}
