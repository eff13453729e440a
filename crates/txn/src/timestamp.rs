//! Timestamp allocation.
//!
//! Serializable ordering in Spitz relies on transaction timestamps. The
//! paper discusses two options: a central timestamp oracle (simple but a
//! potential bottleneck) and hybrid logical clocks allocated per node (no
//! central service, still serializable). The oracle is what Spitz uses.

use std::sync::atomic::{AtomicU64, Ordering};

/// A central, strictly monotonic timestamp allocator (the "Timestamp Oracle"
/// of Percolator-style systems).
#[derive(Debug, Default)]
pub struct TimestampOracle {
    next: AtomicU64,
}

impl TimestampOracle {
    /// Create an oracle starting at timestamp 1.
    pub fn new() -> Self {
        TimestampOracle {
            next: AtomicU64::new(1),
        }
    }

    /// Allocate the next timestamp. Strictly increasing across all callers.
    pub fn allocate(&self) -> u64 {
        self.next.fetch_add(1, Ordering::SeqCst)
    }

    /// The most recently allocated timestamp (0 if none).
    pub fn current(&self) -> u64 {
        self.next.load(Ordering::SeqCst).saturating_sub(1)
    }

    /// Make every future [`TimestampOracle::allocate`] return a value
    /// strictly greater than `seen`. Used on reopen: durable logs may
    /// record transaction ids issued by a previous process incarnation,
    /// and recycling one would let a new transaction collide with a stale
    /// staged entry. Monotone — a `seen` at or below the current position
    /// is a no-op.
    pub fn advance_past(&self, seen: u64) {
        self.next
            .fetch_max(seen.saturating_add(1), Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn oracle_is_strictly_monotonic() {
        let oracle = TimestampOracle::new();
        let mut last = 0;
        for _ in 0..1000 {
            let ts = oracle.allocate();
            assert!(ts > last);
            last = ts;
        }
        assert_eq!(oracle.current(), last);
    }

    #[test]
    fn advance_past_skips_stale_ids_and_never_rewinds() {
        let oracle = TimestampOracle::new();
        oracle.advance_past(100);
        assert_eq!(oracle.allocate(), 101);
        // Advancing to an already-passed position must not rewind.
        oracle.advance_past(5);
        assert_eq!(oracle.allocate(), 102);
        oracle.advance_past(u64::MAX);
        assert_eq!(oracle.current(), u64::MAX.saturating_sub(1));
    }

    #[test]
    fn oracle_is_monotonic_across_threads() {
        let oracle = Arc::new(TimestampOracle::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let oracle = Arc::clone(&oracle);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| oracle.allocate()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "timestamps must be unique");
    }
}
