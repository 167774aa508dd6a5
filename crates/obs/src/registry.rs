//! The lock-free metrics registry: counters, gauges, and log2
//! histograms registered once by name and updated with relaxed atomic
//! operations only.
//!
//! Metric handles are `&'static` references into a leaked arena, so a
//! hot path holds a plain pointer and never touches the registry lock
//! after first use. The [`LazyCounter`] / [`LazyGauge`] /
//! [`LazyHistogram`] wrappers make that pattern a one-liner:
//!
//! ```
//! use orochi_obs::LazyCounter;
//! static REQUESTS: LazyCounter = LazyCounter::new("example_requests_total");
//! REQUESTS.inc();
//! ```

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// A monotonically increasing relaxed-atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depth, inflight work).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket
/// `k >= 1` holds values in `[2^(k-1), 2^k - 1]`, so 65 buckets cover
/// the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `[lo, hi]` value range covered by bucket `idx`.
#[inline]
fn bucket_range(idx: usize) -> (u64, u64) {
    if idx == 0 {
        (0, 0)
    } else {
        let lo = 1u64 << (idx - 1);
        let hi = if idx >= 64 {
            u64::MAX
        } else {
            (1u64 << idx) - 1
        };
        (lo, hi)
    }
}

/// A fixed-bucket log2 histogram: 65 relaxed atomic buckets plus a
/// running count and sum. Recording is wait-free (two `fetch_add`s and
/// one bucket `fetch_add`); reading takes a [`HistogramSnapshot`].
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub const fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the array element by element
        // via a const-friendly literal.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// An owned, mergeable point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records into the owned snapshot directly (for per-run instances
    /// that are merged later rather than shared atomically).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Folds another snapshot into this one. Merging is associative
    /// and commutative (it is a per-field sum), so stripe snapshots
    /// can be combined in any order or grouping.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Inclusive `[lo, hi]` bounds on the p-th percentile (nearest-rank,
    /// `0 < p <= 100`). The true nearest-rank percentile of the recorded
    /// values — as computed by `orochi_common::metrics::percentile` —
    /// always lies within the returned bucket range.
    pub fn quantile_bounds(&self, p: f64) -> Option<(u64, u64)> {
        if self.count == 0 || !(0.0..=100.0).contains(&p) {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_range(idx));
            }
        }
        // Unreachable when count > 0, but stay total.
        Some(bucket_range(HISTOGRAM_BUCKETS - 1))
    }

    /// Point estimate of the p-th percentile: the midpoint of the
    /// bucket containing the nearest-rank sample.
    pub fn quantile_est(&self, p: f64) -> Option<f64> {
        let (lo, hi) = self.quantile_bounds(p)?;
        Some((lo as f64 + hi as f64) / 2.0)
    }
}

/// One named metric in the global registry.
pub enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

struct Registry {
    entries: Vec<(&'static str, Metric)>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            entries: Vec::new(),
        })
    })
}

fn lock_registry() -> std::sync::MutexGuard<'static, Registry> {
    match registry().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Finds or registers the counter named `name`. The handle is
/// `'static`: cache it (or use [`LazyCounter`]) so hot paths skip the
/// registry lock.
pub fn counter(name: &'static str) -> &'static Counter {
    counter_owned(name)
}

/// [`counter`] for a runtime-constructed name (per-engine metrics like
/// `vm_dispatch_executed_register_total`). The name is leaked only on
/// first registration, so repeated lookups do not accumulate memory.
pub fn counter_owned(name: &str) -> &'static Counter {
    let mut reg = lock_registry();
    for (n, m) in &reg.entries {
        if *n == name {
            match m {
                Metric::Counter(c) => return c,
                _ => panic!("metric `{name}` already registered with a different type"),
            }
        }
    }
    let name: &'static str = Box::leak(name.to_string().into_boxed_str());
    let c: &'static Counter = Box::leak(Box::new(Counter::new()));
    reg.entries.push((name, Metric::Counter(c)));
    c
}

/// Finds or registers the gauge named `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    gauge_owned(name)
}

/// [`gauge`] for a runtime-constructed name (per-app gauges). The name
/// is leaked only on first registration, so repeated lookups do not
/// accumulate memory.
pub fn gauge_owned(name: &str) -> &'static Gauge {
    let mut reg = lock_registry();
    for (n, m) in &reg.entries {
        if *n == name {
            match m {
                Metric::Gauge(g) => return g,
                _ => panic!("metric `{name}` already registered with a different type"),
            }
        }
    }
    let name: &'static str = Box::leak(name.to_string().into_boxed_str());
    let g: &'static Gauge = Box::leak(Box::new(Gauge::new()));
    reg.entries.push((name, Metric::Gauge(g)));
    g
}

/// Finds or registers the histogram named `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    histogram_owned(name)
}

/// [`histogram`] for a runtime-constructed name (per-worker metrics
/// like `frontend_worker3_service_ns`). The name is leaked only on
/// first registration, so repeated lookups do not accumulate memory.
pub fn histogram_owned(name: &str) -> &'static Histogram {
    let mut reg = lock_registry();
    for (n, m) in &reg.entries {
        if *n == name {
            match m {
                Metric::Histogram(h) => return h,
                _ => panic!("metric `{name}` already registered with a different type"),
            }
        }
    }
    let name: &'static str = Box::leak(name.to_string().into_boxed_str());
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    reg.entries.push((name, Metric::Histogram(h)));
    h
}

/// A point-in-time value of one registered metric. The histogram
/// snapshot is boxed: at 65 buckets it dwarfs the scalar variants, and
/// snapshots are taken at export time, never on a hot path.
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(Box<HistogramSnapshot>),
}

/// Snapshots every registered metric, sorted by name.
pub fn snapshot_all() -> Vec<(&'static str, MetricValue)> {
    let reg = lock_registry();
    let mut out: Vec<(&'static str, MetricValue)> = reg
        .entries
        .iter()
        .map(|(name, m)| {
            let v = match m {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
            };
            (*name, v)
        })
        .collect();
    out.sort_by_key(|(name, _)| *name);
    out
}

/// A counter static that registers itself on first use. After the
/// first call, the cost of `inc` is one `OnceLock` load plus one
/// relaxed `fetch_add`.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    #[inline]
    pub fn get(&self) -> &'static Counter {
        self.cell.get_or_init(|| counter(self.name))
    }

    #[inline]
    pub fn inc(&self) {
        self.get().inc();
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.get().add(n);
    }

    #[inline]
    pub fn value(&self) -> u64 {
        self.get().get()
    }
}

/// A gauge static that registers itself on first use.
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<&'static Gauge>,
}

impl LazyGauge {
    pub const fn new(name: &'static str) -> Self {
        LazyGauge {
            name,
            cell: OnceLock::new(),
        }
    }

    #[inline]
    pub fn get(&self) -> &'static Gauge {
        self.cell.get_or_init(|| gauge(self.name))
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.get().add(n);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.get().sub(n);
    }

    #[inline]
    pub fn value(&self) -> i64 {
        self.get().get()
    }
}

/// A histogram static that registers itself on first use.
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    pub const fn new(name: &'static str) -> Self {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    #[inline]
    pub fn get(&self) -> &'static Histogram {
        self.cell.get_or_init(|| histogram(self.name))
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.get().record(v);
    }

    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.get().record_duration(d);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        self.get().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for idx in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_range(idx);
            assert_eq!(bucket_index(lo), idx);
            assert_eq!(bucket_index(hi), idx);
        }
    }

    #[test]
    fn histogram_counts_and_sum() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 5, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 111);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[bucket_index(5)], 2);
    }

    #[test]
    fn quantile_bounds_bracket_exact_values() {
        let mut s = HistogramSnapshot::new();
        let values = [3u64, 7, 7, 120, 4096];
        for v in values {
            s.record(v);
        }
        // p50 nearest-rank over 5 samples is the 3rd smallest: 7.
        let (lo, hi) = s.quantile_bounds(50.0).unwrap();
        assert!(lo <= 7 && 7 <= hi);
        // p100 is the max.
        let (lo, hi) = s.quantile_bounds(100.0).unwrap();
        assert!(lo <= 4096 && 4096 <= hi);
    }

    #[test]
    fn snapshot_merge_is_sum() {
        let mut a = HistogramSnapshot::new();
        let mut b = HistogramSnapshot::new();
        a.record(10);
        a.record(20);
        b.record(3000);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum, 3030);
        assert_eq!(merged.buckets[bucket_index(3000)], 1);
    }

    #[test]
    fn registry_find_or_create_returns_same_handle() {
        let a = counter("test_registry_same_handle");
        let b = counter("test_registry_same_handle");
        assert!(std::ptr::eq(a, b));
        a.inc();
        assert_eq!(b.get(), a.get());
    }

    #[test]
    fn lazy_counter_registers_once() {
        static C: LazyCounter = LazyCounter::new("test_lazy_counter_total");
        let before = C.value();
        C.inc();
        C.add(2);
        assert_eq!(C.value(), before + 3);
    }

    #[test]
    fn snapshot_all_is_sorted() {
        counter("test_zzz_counter");
        gauge("test_aaa_gauge");
        let snap = snapshot_all();
        let names: Vec<_> = snap.iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }
}
