//! Communication statistics, used by tests and the scale experiments to
//! show the structural difference between flat and tree backends.

use parking_lot::Mutex;
use std::collections::HashSet;

/// Counters accumulated by a [`crate::CommWorld`] over its lifetime.
#[derive(Debug, Default)]
pub struct CommStats {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default, Clone)]
struct Inner {
    /// Distinct point-to-point "connections" established, as (lo, hi) pairs.
    /// Flat backends establish root↔peer channels per collective root;
    /// tree backends only parent↔child edges.
    connections: HashSet<(usize, usize)>,
    /// Total collective operations executed (one per group op, not per rank).
    ops: u64,
    /// Total per-rank participations.
    participations: u64,
    /// Approximate payload bytes moved by collective ops (where callers
    /// provide sizes); point-to-point sends are not counted.
    bytes: u64,
}

/// A point-in-time snapshot of [`CommStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommStatsSnapshot {
    /// Number of distinct point-to-point connections established.
    pub connections: usize,
    /// Collective operations executed.
    pub ops: u64,
    /// Per-rank participations in collectives.
    pub participations: u64,
    /// Approximate payload bytes moved by collective ops; point-to-point
    /// sends are not counted.
    pub bytes: u64,
}

impl CommStats {
    /// Record a connection between two ranks (undirected, deduplicated).
    pub fn record_connection(&self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let key = (a.min(b), a.max(b));
        self.inner.lock().connections.insert(key);
    }

    /// Record one collective op with `participants` members moving
    /// approximately `bytes` of payload.
    pub fn record_op(&self, participants: usize, bytes: u64) {
        let mut g = self.inner.lock();
        g.ops += 1;
        g.participations += participants as u64;
        g.bytes += bytes;
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> CommStatsSnapshot {
        let g = self.inner.lock();
        CommStatsSnapshot {
            connections: g.connections.len(),
            ops: g.ops,
            participations: g.participations,
            bytes: g.bytes,
        }
    }

    /// Reset all counters (tests).
    pub fn reset(&self) {
        *self.inner.lock() = Inner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connections_dedupe_and_ignore_self() {
        let s = CommStats::default();
        s.record_connection(1, 2);
        s.record_connection(2, 1);
        s.record_connection(3, 3);
        assert_eq!(s.snapshot().connections, 1);
    }

    #[test]
    fn ops_accumulate() {
        let s = CommStats::default();
        s.record_op(4, 100);
        s.record_op(2, 50);
        let snap = s.snapshot();
        assert_eq!(snap.ops, 2);
        assert_eq!(snap.participations, 6);
        assert_eq!(snap.bytes, 150);
        s.reset();
        assert_eq!(s.snapshot().ops, 0);
    }
}
