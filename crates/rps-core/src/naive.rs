//! The naive method (paper §2): store `A` itself.
//!
//! Queries scan every cell of the region — O(n^d) worst case — while
//! updates write a single cell, O(1). The query·update cost product is
//! O(n^d), the figure the relative prefix sum method improves on.

use ndcube::{NdCube, NdError, Region, Shape};

use crate::engine::RangeSumEngine;
use crate::rps::kernels;
use crate::stats::{CostStats, StatsCell};
use crate::value::GroupValue;

/// Range-sum engine backed by the raw data cube `A`.
#[derive(Debug, Clone)]
pub struct NaiveEngine<T> {
    a: NdCube<T>,
    stats: StatsCell,
}

impl<T: GroupValue> NaiveEngine<T> {
    /// Builds the engine over an all-zero cube of the given dimensions.
    pub fn zeros(dims: &[usize]) -> Result<Self, NdError> {
        Ok(NaiveEngine {
            a: NdCube::filled(dims, T::zero())?,
            stats: StatsCell::new(),
        })
    }

    /// Builds the engine from an existing cube (takes ownership; no copy).
    pub fn from_cube(a: NdCube<T>) -> Self {
        NaiveEngine {
            a,
            stats: StatsCell::new(),
        }
    }

    /// Read-only access to the backing cube.
    pub fn cube(&self) -> &NdCube<T> {
        &self.a
    }
}

impl<T: GroupValue> RangeSumEngine<T> for NaiveEngine<T> {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn shape(&self) -> &Shape {
        self.a.shape()
    }

    fn query(&self, region: &Region) -> Result<T, NdError> {
        self.a.shape().check_region(region)?;
        let mut acc = T::zero();
        let mut cells = 0u64;
        for lin in self.a.shape().linear_region_iter(region) {
            acc.add_assign(self.a.get_linear(lin));
            cells += 1;
        }
        self.stats.reads(cells);
        self.stats.query();
        Ok(acc)
    }

    fn update(&mut self, coords: &[usize], delta: T) -> Result<(), NdError> {
        let lin = self.a.shape().linear(coords)?;
        self.a.get_linear_mut(lin).add_assign(&delta);
        self.stats.writes(1);
        self.stats.update();
        Ok(())
    }

    // Fast path: `A` is stored directly, so a range update is one
    // lane-kernel delta add per contiguous run of the region.
    fn range_update(&mut self, region: &Region, delta: T) -> Result<(), NdError> {
        self.a.shape().check_region(region)?;
        let m = crate::obs::core();
        m.range_update_fast.inc();
        m.range_update_cells
            .add(u64::try_from(region.cell_count()).unwrap_or(u64::MAX));
        if delta.is_zero() {
            return Ok(());
        }
        let _span = rps_obs::Span::enter("naive.range_update", &m.range_update_ns);
        let mut writes = 0u64;
        let mut lane_runs = 0u64;
        let mut cur = Vec::with_capacity(region.ndim());
        let (shape, data) = self.a.parts_mut();
        shape.for_each_contiguous_run_in_bounds(
            region.lo(),
            region.hi(),
            &mut cur,
            |start, len| {
                // lint:allow(L1): run bounds come from the shape's own region walk
                kernels::add_delta_run(&mut data[start..start + len], &delta);
                writes += u64::try_from(len).unwrap_or(u64::MAX);
                lane_runs += u64::from(kernels::is_lane_run(len));
            },
        );
        if lane_runs > 0 {
            m.lane_runs.add(lane_runs);
        }
        self.stats.writes(writes);
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
        self.a.len()
    }

    // Direct read: cheaper and clearer than the default point query, and
    // it keeps `set` O(1) for this engine as the paper describes.
    fn cell(&self, coords: &[usize]) -> Result<T, NdError> {
        let lin = self.a.shape().linear(coords)?;
        self.stats.reads(1);
        Ok(self.a.get_linear(lin).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_array_a() -> NdCube<i64> {
        crate::testdata::paper_array_a()
    }

    #[test]
    fn zeros_total_is_zero() {
        let e = NaiveEngine::<i64>::zeros(&[4, 4]).unwrap();
        assert_eq!(e.total(), 0);
    }

    #[test]
    fn full_region_sums_everything() {
        let e = NaiveEngine::from_cube(paper_array_a());
        // Figure 2: P[8,8] = 290 is the sum of the entire A array.
        assert_eq!(e.total(), 290);
    }

    #[test]
    fn row_query_matches_paper_example() {
        // "total sales to 37-year-old customers from days 20 to 22" analog:
        // sum A[1, 3..=5] = 6 + 8 + 7 = 21.
        let e = NaiveEngine::from_cube(paper_array_a());
        let r = Region::new(&[1, 3], &[1, 5]).unwrap();
        assert_eq!(e.query(&r).unwrap(), 21);
    }

    #[test]
    fn update_then_query() {
        let mut e = NaiveEngine::from_cube(paper_array_a());
        e.update(&[1, 1], 1).unwrap(); // Figure 4's A[1,1]: 3 → 4
        assert_eq!(e.cell(&[1, 1]).unwrap(), 4);
        assert_eq!(e.total(), 291);
    }

    #[test]
    fn set_overwrites() {
        let mut e = NaiveEngine::<i64>::zeros(&[3, 3]).unwrap();
        e.set(&[1, 2], 9).unwrap();
        e.set(&[1, 2], 4).unwrap();
        assert_eq!(e.cell(&[1, 2]).unwrap(), 4);
        assert_eq!(e.total(), 4);
    }

    #[test]
    fn query_cost_is_region_size() {
        let e = NaiveEngine::from_cube(paper_array_a());
        e.reset_stats();
        let r = Region::new(&[2, 2], &[4, 5]).unwrap();
        e.query(&r).unwrap();
        let s = e.stats();
        assert_eq!(s.cell_reads, 12); // 3 × 4 cells scanned
        assert_eq!(s.queries, 1);
    }

    #[test]
    fn update_cost_is_one_write() {
        let mut e = NaiveEngine::from_cube(paper_array_a());
        e.reset_stats();
        e.update(&[0, 0], 5).unwrap();
        assert_eq!(e.stats().cell_writes, 1);
    }

    #[test]
    fn rejects_out_of_bounds() {
        let mut e = NaiveEngine::<i64>::zeros(&[3, 3]).unwrap();
        assert!(e.update(&[3, 0], 1).is_err());
        assert!(e.query(&Region::new(&[0, 0], &[3, 3]).unwrap()).is_err());
    }

    #[test]
    fn storage_is_exactly_a() {
        let e = NaiveEngine::<i64>::zeros(&[9, 9]).unwrap();
        assert_eq!(e.storage_cells(), 81);
    }
}
