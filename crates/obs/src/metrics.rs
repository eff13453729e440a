//! Lock-free instruments: counters, gauges and log2-bucketed histograms.
//!
//! Every instrument carries an `enabled` flag frozen at creation (copied
//! from the owning [`Registry`](crate::Registry)): a disabled instrument
//! reduces every operation to one predictable branch and never reads the
//! clock, so a database opened without telemetry pays nothing.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// A monotonically increasing `u64` counter.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
    enabled: bool,
}

impl Counter {
    pub(crate) fn new(enabled: bool) -> Counter {
        Counter {
            value: AtomicU64::new(0),
            enabled,
        }
    }

    /// Add one.
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

/// A signed gauge: a value that can go up and down (queue depths,
/// in-doubt transaction counts).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
    enabled: bool,
}

impl Gauge {
    pub(crate) fn new(enabled: bool) -> Gauge {
        Gauge {
            value: AtomicI64::new(0),
            enabled,
        }
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        if self.enabled {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Bit pattern used as the "never set" sentinel for [`FloatGauge`]. It is a
/// NaN payload, so no finite `f64` the gauge accepts can collide with it.
const FLOAT_UNSET: u64 = u64::MAX;

/// A floating-point gauge that knows whether it has ever been set.
///
/// Ratios like space amplification are meaningless before their inputs
/// exist (no mark pass has measured `live_bytes` yet); this gauge reports
/// `None` until the first [`set`](FloatGauge::set) instead of a made-up
/// number. Non-finite values are rejected so snapshots never carry NaN.
#[derive(Debug)]
pub struct FloatGauge {
    bits: AtomicU64,
    enabled: bool,
}

impl FloatGauge {
    pub(crate) fn new(enabled: bool) -> FloatGauge {
        FloatGauge {
            bits: AtomicU64::new(FLOAT_UNSET),
            enabled,
        }
    }

    /// Overwrite the value. Non-finite inputs are ignored.
    #[inline]
    pub fn set(&self, v: f64) {
        if self.enabled && v.is_finite() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// The last value set, or `None` if the gauge was never set.
    pub fn get(&self) -> Option<f64> {
        let bits = self.bits.load(Ordering::Relaxed);
        if bits == FLOAT_UNSET {
            None
        } else {
            Some(f64::from_bits(bits))
        }
    }
}

/// Number of histogram buckets: one for zero plus one per power of two.
pub const BUCKETS: usize = 65;

/// A lock-free histogram with log2-spaced buckets.
///
/// Bucket 0 counts zeros; bucket `k ≥ 1` covers `[2^(k-1), 2^k - 1]`. A
/// quantile query returns the *upper edge* of the bucket holding the
/// requested rank, so for any recorded distribution the estimate `e` of a
/// true quantile `q ≥ 1` satisfies `q ≤ e < 2·q` — a guaranteed
/// within-2× bound that needs no per-sample storage.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    enabled: bool,
}

/// Bucket index for a value.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Upper edge of bucket `k`: the histogram's representative value.
fn bucket_edge(k: usize) -> u64 {
    if k == 0 {
        0
    } else if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

impl Histogram {
    pub(crate) fn new(enabled: bool) -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            enabled,
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.enabled {
            return;
        }
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Start a latency measurement; returns `None` (no clock read) when the
    /// instrument is disabled. Pair with [`finish`](Histogram::finish).
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Record the nanoseconds elapsed since [`start`](Histogram::start) and
    /// return them (0 for a disabled measurement).
    #[inline]
    pub fn finish(&self, start: Option<Instant>) -> u64 {
        match start {
            Some(t) => {
                let nanos = t.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                self.record(nanos);
                nanos
            }
            None => 0,
        }
    }

    /// RAII span: records elapsed nanoseconds into this histogram on drop.
    #[inline]
    pub fn span(&self) -> Span<'_> {
        Span {
            hist: self,
            start: self.start(),
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// One internally consistent read of all buckets.
    fn capture(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Quantile estimate for `q ∈ [0, 1]`: the upper edge of the bucket
    /// containing rank `ceil(q·n)`. Returns `None` when empty.
    ///
    /// All ranks are resolved against a single capture of the buckets, so
    /// concurrent writers cannot make `p50 > p95` within one query.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        Self::quantile_of(&self.capture(), q)
    }

    /// `(p50, p95, p99)` from one shared capture.
    pub fn quantiles(&self) -> Option<(u64, u64, u64)> {
        Self::quantiles_of(&self.capture())
    }

    /// The observation count and `(p50, p95, p99)` from one shared capture,
    /// so the two always describe the same observations: the quantiles are
    /// `None` exactly when the count is 0. (The `count` counter, read on its
    /// own, may run ahead of or behind a concurrent capture.)
    pub(crate) fn count_and_quantiles(&self) -> (u64, Option<(u64, u64, u64)>) {
        let snap = self.capture();
        (snap.iter().sum(), Self::quantiles_of(&snap))
    }

    fn quantiles_of(snap: &[u64; BUCKETS]) -> Option<(u64, u64, u64)> {
        Some((
            Self::quantile_of(snap, 0.50)?,
            Self::quantile_of(snap, 0.95)?,
            Self::quantile_of(snap, 0.99)?,
        ))
    }

    fn quantile_of(buckets: &[u64; BUCKETS], q: f64) -> Option<u64> {
        let n: u64 = buckets.iter().sum();
        if n == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (k, &c) in buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_edge(k));
            }
        }
        Some(bucket_edge(BUCKETS - 1))
    }
}

/// RAII guard from [`Histogram::span`]: drops record elapsed nanoseconds.
#[derive(Debug)]
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.hist.finish(self.start.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_edge(0), 0);
        assert_eq!(bucket_edge(1), 1);
        assert_eq!(bucket_edge(2), 3);
        assert_eq!(bucket_edge(64), u64::MAX);
    }

    #[test]
    fn disabled_instruments_record_nothing() {
        let c = Counter::new(false);
        c.inc();
        assert_eq!(c.get(), 0);
        let h = Histogram::new(false);
        h.record(7);
        assert_eq!(h.count(), 0);
        assert!(h.start().is_none());
        let g = FloatGauge::new(false);
        g.set(2.5);
        assert_eq!(g.get(), None);
    }

    #[test]
    fn float_gauge_rejects_non_finite() {
        let g = FloatGauge::new(true);
        g.set(f64::NAN);
        assert_eq!(g.get(), None);
        g.set(f64::INFINITY);
        assert_eq!(g.get(), None);
        g.set(3.5);
        assert_eq!(g.get(), Some(3.5));
    }
}
