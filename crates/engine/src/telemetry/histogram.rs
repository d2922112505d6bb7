//! Lock-free log-bucketed latency histograms.
//!
//! [`Histogram`] is a fixed-size array of atomic counters over
//! logarithmically spaced nanosecond buckets: every power-of-two octave is
//! split into [`SUB_BUCKETS`] linear sub-buckets, bounding the relative
//! quantile error at `1 / SUB_BUCKETS` (12.5%) while keeping recording to
//! three relaxed atomic adds — safe to hammer from any number of threads
//! with no locks and no lost increments.
//!
//! Quantiles are never read off the live atomics (a concurrent reader could
//! see a torn distribution); instead [`Histogram::snapshot`] copies the
//! non-empty buckets into an immutable [`HistogramSnapshot`] that answers
//! `p50`/`p90`/`p99` by cumulative walk.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Linear sub-buckets per power-of-two octave (8 → ≤12.5% quantile error).
const SUB_BUCKETS: u64 = 8;

/// Bucket count covering the full `u64` nanosecond range: values below
/// [`SUB_BUCKETS`] get exact singleton buckets, every octave above
/// contributes [`SUB_BUCKETS`] more, and the widest `u64` has 60 octaves
/// past the linear range (`60 * 8 + 16 = 496 < 512`).
const BUCKETS: usize = 512;

/// Maps a nanosecond value to its bucket index.
fn bucket_index(ns: u64) -> usize {
    if ns < SUB_BUCKETS {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros() as u64;
    let exp = msb - SUB_BUCKETS.trailing_zeros() as u64;
    (exp * SUB_BUCKETS + (ns >> exp)) as usize
}

/// The inclusive lower bound of bucket `index` (inverse of [`bucket_index`]).
fn bucket_low(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let exp = index / SUB_BUCKETS - 1;
    let sub = index - exp * SUB_BUCKETS;
    sub << exp
}

/// The representative value reported for bucket `index`: its midpoint,
/// which halves the worst-case quantile error vs the lower bound.
fn bucket_mid(index: usize) -> u64 {
    let low = bucket_low(index);
    if (index as u64) < SUB_BUCKETS {
        return low;
    }
    let exp = index as u64 / SUB_BUCKETS - 1;
    low + (1u64 << exp) / 2
}

/// A lock-free latency histogram over log-spaced nanosecond buckets.
///
/// ```
/// use sac_engine::telemetry::Histogram;
/// use std::time::Duration;
///
/// let h = Histogram::new();
/// for ms in 1..=100u64 {
///     h.record(Duration::from_millis(ms));
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 100);
/// // p50 lands near 50ms, within the 12.5% bucket resolution.
/// let p50 = snap.p50() as f64;
/// assert!((40_000_000.0..=60_000_000.0).contains(&p50));
/// assert!(snap.p50() <= snap.p90() && snap.p90() <= snap.p99());
/// ```
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one observed duration.
    pub fn record(&self, elapsed: Duration) {
        self.record_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one observed duration in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded durations in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// An immutable copy of the current distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u16, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u16, n))
            })
            .collect();
        // A racing `record_ns` between the bucket scan and these loads can
        // only make count/total run slightly ahead of the buckets — the
        // quantile walk below clamps, so the snapshot stays well-formed.
        HistogramSnapshot {
            count: buckets.iter().map(|&(_, n)| n).sum(),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Clears all buckets and totals.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// An immutable point-in-time copy of a [`Histogram`]: non-empty buckets
/// plus totals, cheap to clone and compare (it is plain data, so it can
/// ride inside larger `Eq` metric snapshots).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations across all buckets.
    pub count: u64,
    /// Sum of all observed durations in nanoseconds.
    pub total_ns: u64,
    /// Largest single observation in nanoseconds.
    pub max_ns: u64,
    /// Sparse `(bucket index, count)` pairs, ascending by index.
    buckets: Vec<(u16, u64)>,
}

impl HistogramSnapshot {
    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The value at quantile `q` in `[0, 1]`, in nanoseconds: the
    /// representative (midpoint) value of the bucket holding the
    /// observation with rank `ceil(q * count)`, clamped to the observed
    /// maximum so high quantiles never report past `max_ns`.  Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_mid(index as usize).min(self.max_ns);
            }
        }
        // Racing writers can leave `count` slightly ahead of the bucket
        // scan; the highest occupied bucket is the honest answer then.
        self.buckets
            .last()
            .map_or(0, |&(index, _)| bucket_mid(index as usize).min(self.max_ns))
    }

    /// Median latency in nanoseconds.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile latency in nanoseconds.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile latency in nanoseconds.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

impl fmt::Display for HistogramSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "no samples");
        }
        write!(
            f,
            "{} samples, p50 {} / p90 {} / p99 {} / max {}",
            self.count,
            fmt_ns(self.p50()),
            fmt_ns(self.p90()),
            fmt_ns(self.p99()),
            fmt_ns(self.max_ns)
        )
    }
}

/// Formats a nanosecond duration with a human unit (`ns`, `µs`, `ms`, `s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_inverts() {
        let mut last = 0usize;
        for ns in [0u64, 1, 7, 8, 9, 15, 16, 100, 1_000, 123_456, u64::MAX / 2] {
            let idx = bucket_index(ns);
            assert!(idx >= last, "bucket index regressed at {ns}");
            last = idx;
            assert!(bucket_low(idx) <= ns, "low bound exceeds value at {ns}");
            if idx + 1 < BUCKETS {
                assert!(ns < bucket_low(idx + 1), "value past next bucket at {ns}");
            }
            assert!(bucket_mid(idx) >= bucket_low(idx));
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn small_values_are_exact() {
        for ns in 0..SUB_BUCKETS {
            assert_eq!(bucket_index(ns) as u64, ns);
            assert_eq!(bucket_mid(ns as usize), ns);
        }
    }

    #[test]
    fn quantiles_track_a_uniform_distribution() {
        let h = Histogram::new();
        for ns in 1..=10_000u64 {
            h.record_ns(ns * 1_000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 10_000);
        // Each quantile must land within the 12.5% bucket resolution.
        for (q, expect) in [(0.5, 5_000_000.0), (0.9, 9_000_000.0), (0.99, 9_900_000.0)] {
            let got = snap.quantile(q) as f64;
            assert!(
                (got - expect).abs() / expect < 0.13,
                "q{q}: got {got}, want ≈{expect}"
            );
        }
        assert!(snap.p50() <= snap.p90() && snap.p90() <= snap.p99());
        assert!(snap.p99() <= snap.max_ns);
        assert_eq!(snap.max_ns, 10_000_000);
    }

    #[test]
    fn reset_restores_the_empty_snapshot() {
        let h = Histogram::new();
        h.record(Duration::from_micros(42));
        assert_eq!(h.count(), 1);
        assert!(h.total_ns() >= 42_000);
        h.reset();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        assert!(h.snapshot().is_empty());
        assert_eq!(h.snapshot().quantile(0.5), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..1_000 {
                        h.record_ns(t * 1_000 + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 8_000);
        assert_eq!(h.count(), 8_000);
        assert_eq!(snap.total_ns, (0..8_000).sum::<u64>());
        assert_eq!(snap.max_ns, 7_999);
    }

    #[test]
    fn display_is_informative() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().to_string(), "no samples");
        h.record(Duration::from_micros(100));
        let text = h.snapshot().to_string();
        assert!(text.contains("1 samples"), "{text}");
        assert!(text.contains("p99"), "{text}");
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
