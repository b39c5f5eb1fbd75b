//! A delta-buffer ("differential file") combinator.
//!
//! The classic warehouse-refresh technique the paper's introduction
//! alludes to when it says systems tolerate update cost by batching:
//! absorb point updates into a small side structure with O(1) updates,
//! answer queries as `main ⊕ delta`, and merge the buffer into the main
//! structure when it grows past a threshold. Wrapped around the
//! prefix-sum engine this trades its O(n^d) per-update cost for an
//! amortized one; wrapped around RPS it trims the constant further for
//! update-heavy phases. `exp_batch_updates` measures the trade-off.
//!
//! The versioned engine offers the same batching lever on its write
//! path: [`crate::VersionedEngine::apply_batch`] applies a caller's
//! batch and publishes it as one copy-on-write version, amortizing the
//! per-publish slab clones the way this combinator amortizes the
//! wrapped engine's per-update cost — but with snapshot-atomic
//! visibility instead of read-time merging.

use std::collections::HashMap;

use ndcube::{NdError, Region, Shape};

use crate::engine::RangeSumEngine;
use crate::stats::{CostStats, StatsCell};
use crate::value::GroupValue;

/// A sparse bag of pending deltas, itself a (deliberately naive)
/// range-sum engine: O(1) updates, O(m) queries over `m` buffered cells.
#[derive(Debug, Clone)]
pub struct SparseDelta<T> {
    shape: Shape,
    entries: HashMap<Vec<usize>, T>,
    stats: StatsCell,
}

impl<T: GroupValue> SparseDelta<T> {
    /// An empty buffer for a cube of the given shape.
    pub fn new(shape: Shape) -> Self {
        SparseDelta {
            shape,
            entries: HashMap::new(),
            stats: StatsCell::new(),
        }
    }

    /// Number of distinct buffered cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drains the buffer, yielding every (cell, accumulated delta) pair.
    pub fn drain(&mut self) -> Vec<(Vec<usize>, T)> {
        self.entries.drain().collect()
    }

    /// Iterates buffered entries without draining.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<usize>, &T)> {
        self.entries.iter()
    }
}

impl<T: GroupValue> RangeSumEngine<T> for SparseDelta<T> {
    fn name(&self) -> &'static str {
        "sparse-delta"
    }

    fn shape(&self) -> &Shape {
        &self.shape
    }

    fn query(&self, region: &Region) -> Result<T, NdError> {
        self.shape.check_region(region)?;
        let mut acc = T::zero();
        let mut reads = 0u64;
        for (coords, delta) in &self.entries {
            reads += 1;
            if region.contains(coords) {
                acc.add_assign(delta);
            }
        }
        self.stats.reads(reads);
        self.stats.query();
        Ok(acc)
    }

    fn update(&mut self, coords: &[usize], delta: T) -> Result<(), NdError> {
        self.shape.check(coords)?;
        let entry = self.entries.entry(coords.to_vec()).or_insert_with(T::zero);
        entry.add_assign(&delta);
        if entry.is_zero() {
            // Keep the buffer tight: a cancelled delta costs queries.
            self.entries.remove(coords);
        }
        self.stats.writes(1);
        self.stats.update();
        Ok(())
    }

    fn stats(&self) -> CostStats {
        self.stats.get()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }

    fn storage_cells(&self) -> usize {
        self.entries.len()
    }
}

/// `main ⊕ delta`: queries hit both structures; updates hit only the
/// buffer until it reaches `merge_threshold`, then flush into `main`.
///
/// ```
/// use rps_core::{BufferedEngine, PrefixSumEngine, RangeSumEngine};
/// use ndcube::{NdCube, Region};
///
/// let cube = NdCube::from_fn(&[9, 9], |_| 1i64).unwrap();
/// let mut b = BufferedEngine::new(PrefixSumEngine::from_cube(&cube), 100);
/// b.update(&[0, 0], 10).unwrap(); // O(1): lands in the buffer
/// let all = Region::new(&[0, 0], &[8, 8]).unwrap();
/// assert_eq!(b.query(&all).unwrap(), 81 + 10); // visible immediately
/// assert_eq!(b.pending(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BufferedEngine<M, T> {
    main: M,
    delta: SparseDelta<T>,
    merge_threshold: usize,
    merges: u64,
}

impl<T: GroupValue, M: RangeSumEngine<T>> BufferedEngine<M, T> {
    /// Wraps `main` with a delta buffer that flushes at
    /// `merge_threshold` distinct buffered cells (≥ 1).
    pub fn new(main: M, merge_threshold: usize) -> Self {
        assert!(merge_threshold >= 1);
        let shape = main.shape().clone();
        BufferedEngine {
            main,
            delta: SparseDelta::new(shape),
            merge_threshold,
            merges: 0,
        }
    }

    /// The wrapped main engine.
    pub fn main(&self) -> &M {
        &self.main
    }

    /// Cells currently buffered.
    pub fn pending(&self) -> usize {
        self.delta.len()
    }

    /// Number of merges performed so far.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Flushes every buffered delta into the main structure.
    pub fn merge(&mut self) -> Result<(), NdError> {
        for (coords, delta) in self.delta.drain() {
            self.main.update(&coords, delta)?;
        }
        self.merges += 1;
        Ok(())
    }
}

impl<T: GroupValue, M: RangeSumEngine<T>> RangeSumEngine<T> for BufferedEngine<M, T> {
    fn name(&self) -> &'static str {
        "buffered"
    }

    fn shape(&self) -> &Shape {
        self.main.shape()
    }

    fn query(&self, region: &Region) -> Result<T, NdError> {
        let mut acc = self.main.query(region)?;
        acc.add_assign(&self.delta.query(region)?);
        Ok(acc)
    }

    fn update(&mut self, coords: &[usize], delta: T) -> Result<(), NdError> {
        self.delta.update(coords, delta)?;
        if self.delta.len() >= self.merge_threshold {
            self.merge()?;
        }
        Ok(())
    }

    // Bulk updates bypass the buffer: flush pending point deltas first so
    // order-dependent observers (stats, merges) stay coherent, then hand
    // the rectangle to the wrapped engine's own fast path — buffering it
    // per-cell would turn one O(fast) operation into |R| buffer entries.
    fn range_update(&mut self, region: &Region, delta: T) -> Result<(), NdError> {
        self.shape().check_region(region)?;
        if !self.delta.is_empty() {
            self.merge()?;
        }
        self.main.range_update(region, delta)?;
        // Book the logical operation on the buffer's op counters, where
        // `stats()` reads user-facing query/update counts from.
        self.delta.stats.update();
        Ok(())
    }

    fn stats(&self) -> CostStats {
        // Reads/writes aggregate across both structures, but each logical
        // query/update passes through the delta buffer exactly once —
        // counting the main engine's op counters too would double-count
        // queries (and book merge flushes as user updates).
        let m = self.main.stats();
        let d = self.delta.stats();
        CostStats {
            cell_reads: m.cell_reads + d.cell_reads,
            cell_writes: m.cell_writes + d.cell_writes,
            queries: d.queries,
            updates: d.updates,
        }
    }

    fn reset_stats(&self) {
        self.main.reset_stats();
        self.delta.reset_stats();
    }

    fn storage_cells(&self) -> usize {
        self.main.storage_cells() + self.delta.storage_cells()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveEngine;
    use crate::prefix::PrefixSumEngine;
    use crate::rps::RpsEngine;
    use crate::testdata::paper_array_a;

    #[test]
    fn sparse_delta_is_an_engine() {
        let mut d = SparseDelta::<i64>::new(Shape::new(&[5, 5]).unwrap());
        d.update(&[1, 1], 3).unwrap();
        d.update(&[4, 4], 7).unwrap();
        d.update(&[1, 1], 2).unwrap();
        assert_eq!(d.len(), 2);
        let all = Region::new(&[0, 0], &[4, 4]).unwrap();
        assert_eq!(d.query(&all).unwrap(), 12);
        let corner = Region::new(&[0, 0], &[2, 2]).unwrap();
        assert_eq!(d.query(&corner).unwrap(), 5);
    }

    #[test]
    fn cancelled_deltas_evicted() {
        let mut d = SparseDelta::<i64>::new(Shape::new(&[3, 3]).unwrap());
        d.update(&[1, 1], 5).unwrap();
        d.update(&[1, 1], -5).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn buffered_prefix_sum_matches_naive() {
        let a = paper_array_a();
        let mut buffered = BufferedEngine::new(PrefixSumEngine::from_cube(&a), 4);
        let mut naive = NaiveEngine::from_cube(a);
        let updates = [
            ([1usize, 1usize], 3i64),
            ([0, 8], 2),
            ([5, 5], -1),
            ([1, 1], 4),
            ([8, 8], 9),
        ];
        for (c, delta) in updates {
            buffered.update(&c, delta).unwrap();
            naive.update(&c, delta).unwrap();
            // Queries must see buffered deltas immediately.
            let r = Region::new(&[0, 0], &[8, 8]).unwrap();
            assert_eq!(buffered.query(&r).unwrap(), naive.query(&r).unwrap());
        }
        assert!(buffered.merges() >= 1, "threshold 4 must have merged");
    }

    #[test]
    fn explicit_merge_empties_buffer() {
        let a = paper_array_a();
        let mut b = BufferedEngine::new(RpsEngine::from_cube_uniform(&a, 3).unwrap(), 100);
        b.update(&[2, 2], 10).unwrap();
        b.update(&[7, 7], 20).unwrap();
        assert_eq!(b.pending(), 2);
        b.merge().unwrap();
        assert_eq!(b.pending(), 0);
        assert_eq!(b.main().cell(&[2, 2]).unwrap(), 2 + 10);
        assert_eq!(b.total(), 290 + 30);
    }

    #[test]
    fn buffering_cuts_prefix_sum_update_cost() {
        // 100 updates into buffered prefix-sum (threshold 100) write ~100
        // buffer cells + one merge; plain prefix-sum writes ~n²/4 × 100.
        let a = paper_array_a();
        let mut plain = PrefixSumEngine::from_cube(&a);
        let mut buffered = BufferedEngine::new(PrefixSumEngine::from_cube(&a), 1000);
        plain.reset_stats();
        buffered.reset_stats();
        for i in 0..100usize {
            let c = [i % 9, (i * 3) % 9];
            plain.update(&c, 1).unwrap();
            buffered.update(&c, 1).unwrap();
        }
        assert!(
            buffered.stats().cell_writes * 10 < plain.stats().cell_writes,
            "buffered {} vs plain {}",
            buffered.stats().cell_writes,
            plain.stats().cell_writes
        );
        // And the answers still agree.
        let r = Region::new(&[0, 0], &[8, 8]).unwrap();
        assert_eq!(buffered.query(&r).unwrap(), plain.query(&r).unwrap());
    }

    #[test]
    fn set_through_buffer() {
        let mut b = BufferedEngine::new(RpsEngine::<i64>::zeros(&[6, 6]).unwrap(), 3);
        b.set(&[1, 2], 41).unwrap();
        b.set(&[1, 2], 17).unwrap();
        assert_eq!(b.cell(&[1, 2]).unwrap(), 17);
    }
}
