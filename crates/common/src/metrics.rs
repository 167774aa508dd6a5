//! Timing and measurement helpers for the evaluation harness.
//!
//! The paper decomposes audit-time CPU cost into phases (Fig. 9: "PHP",
//! "DB query", "ProcOpRep", "DB redo", "Other") and reports latency
//! percentiles (Fig. 8 right). [`PhaseTimer`] accumulates named phase
//! durations; [`percentile`] computes the order statistics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Accumulates named phase durations, in the style of Fig. 9.
///
/// # Examples
///
/// ```
/// use orochi_common::metrics::PhaseTimer;
///
/// let mut timer = PhaseTimer::new();
/// timer.time("redo", || { let _ = 1 + 1; });
/// assert!(timer.get("redo").as_nanos() > 0);
/// assert_eq!(timer.get("absent").as_nanos(), 0);
/// ```
#[derive(Debug, Default, Clone)]
pub struct PhaseTimer {
    phases: BTreeMap<&'static str, Duration>,
}

impl PhaseTimer {
    /// Creates an empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f`, charging its wall time to `phase`. Panic-safe: if `f`
    /// unwinds, the time spent before the panic is still recorded
    /// (the accounting happens in an RAII guard's drop).
    pub fn time<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.phase(phase);
        f()
    }

    /// Opens an RAII guard charging `phase` from now until the guard
    /// drops — including on unwind, so a panicking phase cannot
    /// silently drop its accumulated time the way a forgotten manual
    /// `stop()` would.
    pub fn phase(&mut self, phase: &'static str) -> PhaseGuard<'_> {
        PhaseGuard {
            timer: self,
            phase,
            t0: Instant::now(),
        }
    }

    /// Adds an externally measured duration to `phase`.
    pub fn add(&mut self, phase: &'static str, d: Duration) {
        *self.phases.entry(phase).or_default() += d;
    }

    /// Accumulated time for `phase` (zero if never recorded).
    pub fn get(&self, phase: &str) -> Duration {
        self.phases.get(phase).copied().unwrap_or_default()
    }

    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.phases.values().sum()
    }

    /// Iterates phases in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Duration)> + '_ {
        self.phases.iter().map(|(k, v)| (*k, *v))
    }

    /// Merges another timer's phases into this one.
    pub fn merge(&mut self, other: &PhaseTimer) {
        for (phase, d) in other.iter() {
            self.add(phase, d);
        }
    }
}

/// Charges elapsed time to one phase of a [`PhaseTimer`] when
/// dropped. Created by [`PhaseTimer::phase`].
#[must_use = "a PhaseGuard records on drop; binding it to `_` drops it immediately"]
pub struct PhaseGuard<'a> {
    timer: &'a mut PhaseTimer,
    phase: &'static str,
    t0: Instant,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.timer.add(self.phase, self.t0.elapsed());
    }
}

/// Returns the `p`-th percentile (0.0–100.0) of `samples` using
/// nearest-rank on a sorted copy.
///
/// Returns `None` for an empty slice.
///
/// # Examples
///
/// ```
/// use orochi_common::metrics::percentile;
///
/// let xs = vec![10.0, 20.0, 30.0, 40.0];
/// assert_eq!(percentile(&xs, 50.0), Some(20.0));
/// assert_eq!(percentile(&xs, 100.0), Some(40.0));
/// assert_eq!(percentile(&[], 50.0), None);
/// ```
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let idx = rank.max(1) - 1;
    Some(sorted[idx.min(sorted.len() - 1)])
}

/// A counting global allocator: wraps the system allocator and tracks
/// the current and peak number of live heap bytes.
///
/// The streaming-epoch audit's headline claim is a *peak-memory* bound
/// (O(epoch + carry) instead of O(trace)), and OS-level RSS is too
/// coarse to compare two audits inside one process — the allocator
/// caches pages from the first run. Counting live bytes at the
/// allocator seam gives an exact, portable measurement. A test binary
/// (`tests/peak_heap.rs`) opts in with
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: orochi_common::metrics::TrackingAllocator =
///     orochi_common::metrics::TrackingAllocator::new();
/// ```
///
/// and then brackets each measured region with
/// [`alloc_tracking::reset_peak`] / [`alloc_tracking::peak_bytes`].
/// Binaries that don't declare it pay nothing; the counters read zero.
pub struct TrackingAllocator {
    _priv: (),
}

impl TrackingAllocator {
    /// Creates the allocator (a zero-sized shim over
    /// [`std::alloc::System`]).
    pub const fn new() -> Self {
        Self { _priv: () }
    }
}

impl Default for TrackingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

static ALLOC_CURRENT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
static ALLOC_PEAK: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

#[inline]
fn alloc_record(bytes: usize) {
    use std::sync::atomic::Ordering::Relaxed;
    let now = ALLOC_CURRENT.fetch_add(bytes, Relaxed) + bytes;
    // Racy max: a concurrent reset_peak may clip a momentary high-water
    // mark, but the measured regions are single-threaded brackets and
    // the error is at most one in-flight allocation.
    ALLOC_PEAK.fetch_max(now, Relaxed);
}

unsafe impl std::alloc::GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let p = std::alloc::System.alloc(layout);
        if !p.is_null() {
            alloc_record(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout);
        ALLOC_CURRENT.fetch_sub(layout.size(), std::sync::atomic::Ordering::Relaxed);
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        let p = std::alloc::System.alloc_zeroed(layout);
        if !p.is_null() {
            alloc_record(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        let p = std::alloc::System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                alloc_record(new_size - layout.size());
            } else {
                ALLOC_CURRENT.fetch_sub(
                    layout.size() - new_size,
                    std::sync::atomic::Ordering::Relaxed,
                );
            }
        }
        p
    }
}

/// Readers for the [`TrackingAllocator`] counters. Meaningful only in
/// binaries that installed the allocator with `#[global_allocator]`;
/// elsewhere every function returns zero.
pub mod alloc_tracking {
    use std::sync::atomic::Ordering::Relaxed;

    /// Live heap bytes right now.
    pub fn current_bytes() -> usize {
        super::ALLOC_CURRENT.load(Relaxed)
    }

    /// High-water mark of live heap bytes since the last
    /// [`reset_peak`].
    pub fn peak_bytes() -> usize {
        super::ALLOC_PEAK.load(Relaxed)
    }

    /// Restarts peak tracking from the current live-byte count, so a
    /// measured region's peak excludes whatever earlier regions
    /// allocated and freed.
    pub fn reset_peak() {
        super::ALLOC_PEAK.store(current_bytes(), Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_timer_merges() {
        let mut a = PhaseTimer::new();
        a.add("x", Duration::from_millis(5));
        let mut b = PhaseTimer::new();
        b.add("x", Duration::from_millis(3));
        b.add("y", Duration::from_millis(2));
        a.merge(&b);
        assert_eq!(a.get("x"), Duration::from_millis(8));
        assert_eq!(a.get("y"), Duration::from_millis(2));
        assert_eq!(a.total(), Duration::from_millis(10));
    }

    #[test]
    fn phase_guard_records_on_panic() {
        let mut timer = PhaseTimer::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            timer.time("doomed", || panic!("phase body panicked"));
        }));
        assert!(result.is_err());
        assert!(timer.get("doomed").as_nanos() > 0);
    }

    #[test]
    fn phase_guard_manual_scope() {
        let mut timer = PhaseTimer::new();
        {
            let _g = timer.phase("scoped");
            let _work: u64 = (0..100).sum();
        }
        assert!(timer.get("scoped").as_nanos() > 0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    // The tracking allocator is not installed in the test binary, so
    // the counters stay at whatever alloc_record was fed directly.
    #[test]
    fn alloc_tracking_counts_and_resets() {
        let base = alloc_tracking::current_bytes();
        alloc_record(1024);
        assert_eq!(alloc_tracking::current_bytes(), base + 1024);
        assert!(alloc_tracking::peak_bytes() >= base + 1024);
        ALLOC_CURRENT.fetch_sub(1024, std::sync::atomic::Ordering::Relaxed);
        alloc_tracking::reset_peak();
        assert_eq!(
            alloc_tracking::peak_bytes(),
            alloc_tracking::current_bytes()
        );
    }
}
