//! Cost instrumentation.
//!
//! The paper's evaluation is expressed in **cells touched** (e.g. the
//! Figure 15 update modifies 16 cells where the prefix-sum method modifies
//! 64), not wall-clock time. Every engine therefore counts the cells it
//! reads and writes, so the benches can reproduce the paper's arithmetic
//! exactly.

use std::fmt;
use std::ops::{Add, Sub};
use std::sync::atomic::{AtomicU64, Ordering};

/// Running totals of cell accesses and operations for one engine.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CostStats {
    /// Cells read from any backing array (A, P, RP, or overlay).
    pub cell_reads: u64,
    /// Cells written to any backing array.
    pub cell_writes: u64,
    /// Range queries answered.
    pub queries: u64,
    /// Point updates applied.
    pub updates: u64,
}

impl CostStats {
    /// Total cells touched (reads + writes).
    pub fn cells_touched(&self) -> u64 {
        self.cell_reads + self.cell_writes
    }

    /// Mean cells read per query, or `None` before the first query.
    pub fn reads_per_query(&self) -> Option<f64> {
        // lint:allow(L4): diagnostics; f64 rounding beyond 2^53 ops is irrelevant
        (self.queries != 0).then(|| self.cell_reads as f64 / self.queries as f64)
    }

    /// Mean cells written per update, or `None` before the first update.
    pub fn writes_per_update(&self) -> Option<f64> {
        // lint:allow(L4): diagnostics; f64 rounding beyond 2^53 ops is irrelevant
        (self.updates != 0).then(|| self.cell_writes as f64 / self.updates as f64)
    }
}

impl Add for CostStats {
    type Output = CostStats;

    fn add(self, rhs: CostStats) -> CostStats {
        CostStats {
            cell_reads: self.cell_reads + rhs.cell_reads,
            cell_writes: self.cell_writes + rhs.cell_writes,
            queries: self.queries + rhs.queries,
            updates: self.updates + rhs.updates,
        }
    }
}

impl Sub for CostStats {
    type Output = CostStats;

    fn sub(self, rhs: CostStats) -> CostStats {
        CostStats {
            cell_reads: self.cell_reads - rhs.cell_reads,
            cell_writes: self.cell_writes - rhs.cell_writes,
            queries: self.queries - rhs.queries,
            updates: self.updates - rhs.updates,
        }
    }
}

impl fmt::Display for CostStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads={} writes={} queries={} updates={}",
            self.cell_reads, self.cell_writes, self.queries, self.updates
        )
    }
}

/// Interior-mutable counter an engine embeds so `&self` queries can record
/// their reads.
///
/// Backed by relaxed atomics so engines stay `Sync` and can sit behind
/// [`crate::SharedEngine`]'s read lock; relaxed ordering is sufficient
/// because the counters carry no synchronization responsibility.
#[derive(Debug, Default)]
pub struct StatsCell {
    cell_reads: AtomicU64,
    cell_writes: AtomicU64,
    queries: AtomicU64,
    updates: AtomicU64,
}

impl StatsCell {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        StatsCell::default()
    }

    /// Snapshot of the current totals.
    pub fn get(&self) -> CostStats {
        CostStats {
            cell_reads: self.cell_reads.load(Ordering::Relaxed),
            cell_writes: self.cell_writes.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.cell_reads.store(0, Ordering::Relaxed);
        self.cell_writes.store(0, Ordering::Relaxed);
        self.queries.store(0, Ordering::Relaxed);
        self.updates.store(0, Ordering::Relaxed);
    }

    /// Records `n` cell reads.
    #[inline]
    pub fn reads(&self, n: u64) {
        self.cell_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` cell writes.
    #[inline]
    pub fn writes(&self, n: u64) {
        self.cell_writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one answered query.
    #[inline]
    pub fn query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one applied update.
    #[inline]
    pub fn update(&self) {
        self.updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` applied updates in one add — batch paths coalesce
    /// their op counting the same way they coalesce cell counts.
    #[inline]
    pub fn updates_n(&self, n: u64) {
        self.updates.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` answered queries in one add — a `query_many` batch
    /// counts once instead of touching the shared counter once per
    /// query.
    #[inline]
    pub fn queries_n(&self, n: u64) {
        self.queries.fetch_add(n, Ordering::Relaxed);
    }

    /// Folds a whole snapshot into the counters (e.g. carrying history
    /// across a structure rebuild).
    pub fn add_snapshot(&self, s: CostStats) {
        self.cell_reads.fetch_add(s.cell_reads, Ordering::Relaxed);
        self.cell_writes.fetch_add(s.cell_writes, Ordering::Relaxed);
        self.queries.fetch_add(s.queries, Ordering::Relaxed);
        self.updates.fetch_add(s.updates, Ordering::Relaxed);
    }
}

impl Clone for StatsCell {
    fn clone(&self) -> Self {
        let snap = self.get();
        let c = StatsCell::new();
        c.reads(snap.cell_reads);
        c.writes(snap.cell_writes);
        c.queries.store(snap.queries, Ordering::Relaxed);
        c.updates.store(snap.updates, Ordering::Relaxed);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = StatsCell::new();
        s.reads(3);
        s.writes(2);
        s.reads(1);
        s.query();
        s.update();
        let snap = s.get();
        assert_eq!(snap.cell_reads, 4);
        assert_eq!(snap.cell_writes, 2);
        assert_eq!(snap.queries, 1);
        assert_eq!(snap.updates, 1);
        assert_eq!(snap.cells_touched(), 6);
    }

    #[test]
    fn updates_n_matches_repeated_update() {
        let a = StatsCell::new();
        let b = StatsCell::new();
        for _ in 0..5 {
            a.update();
        }
        b.updates_n(5);
        assert_eq!(a.get(), b.get());
    }

    #[test]
    fn queries_n_matches_repeated_query() {
        let a = StatsCell::new();
        let b = StatsCell::new();
        for _ in 0..7 {
            a.query();
        }
        b.queries_n(7);
        assert_eq!(a.get(), b.get());
    }

    #[test]
    fn reset_zeroes() {
        let s = StatsCell::new();
        s.reads(10);
        s.reset();
        assert_eq!(s.get(), CostStats::default());
    }

    #[test]
    fn per_op_averages() {
        let mut s = CostStats::default();
        assert_eq!(s.reads_per_query(), None);
        s.queries = 4;
        s.cell_reads = 16;
        assert_eq!(s.reads_per_query(), Some(4.0));
        s.updates = 2;
        s.cell_writes = 10;
        assert_eq!(s.writes_per_update(), Some(5.0));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = CostStats {
            cell_reads: 5,
            cell_writes: 3,
            queries: 2,
            updates: 1,
        };
        let b = CostStats {
            cell_reads: 1,
            cell_writes: 1,
            queries: 1,
            updates: 0,
        };
        assert_eq!((a + b) - b, a);
    }
}
