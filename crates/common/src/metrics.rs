//! Measurement helpers: an order statistic and a counting allocator.
//!
//! [`percentile`] is the exact nearest-rank reference that the
//! histogram bounds of `orochi_obs` are tested against, and
//! [`TrackingAllocator`] counts live heap bytes for the tests that bound
//! peak memory. Everything that accumulates at run time — counters,
//! gauges, histograms, spans — lives in `orochi_obs`; the audit's Fig. 9
//! phase walls are typed fields of `orochi_core::AuditStats`, mirrored
//! into `orochi_obs` once per audit.

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
