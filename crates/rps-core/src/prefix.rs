//! The prefix sum method of Ho, Agrawal, Megiddo and Srikant (SIGMOD'97),
//! as described in §2 of the RPS paper.
//!
//! A precomputed array `P` of the same size as `A` stores
//! `P[x] = Sum(A[0,…,0] : A[x])`. Any range sum is then 2^d reads of `P`
//! (Figure 3) — O(1). The price is the cascading update of Figure 4: a
//! point update to `A[c]` must rewrite every `P[x]` with `x ≥ c`
//! componentwise, O(n^d) in the worst case.

use ndcube::{NdCube, NdError, Region, Shape};

use crate::corners::range_sum_from_prefix;
use crate::engine::RangeSumEngine;
use crate::rps::kernels;
use crate::stats::{CostStats, StatsCell};
use crate::value::GroupValue;

/// Range-sum engine backed by the prefix-sum array `P`.
///
/// Only `P` is stored (the cell values of `A` are recovered by point
/// queries), matching the paper's storage accounting of one array the size
/// of the data cube.
#[derive(Debug, Clone)]
pub struct PrefixSumEngine<T> {
    p: NdCube<T>,
    stats: StatsCell,
}

/// Computes the prefix-sum cube of `a` in place via d sweeps (one running
/// sum per dimension) — O(d·N) rather than the naive O(N·2^d) or worse.
///
/// Exposed for reuse by the RPS build (which needs `P` transiently to
/// derive overlay anchors and borders).
pub fn prefix_sums_in_place<T: GroupValue>(a: &mut NdCube<T>) {
    let shape = a.shape().clone();
    for dim in 0..shape.ndim() {
        sweep_dim_forward(
            a.as_mut_slice(),
            shape.strides()[dim],
            shape.dim(dim),
            usize::MAX,
        );
    }
}

/// One dimension's forward running-sum sweep over a row-major buffer:
/// every cell whose `dim`-coordinate is ≥ 1 (and, when `k ≠ usize::MAX`,
/// not a multiple of `k` — the box-boundary reset of the RP sweep)
/// accumulates its predecessor along `dim`.
///
/// Two regimes, both built on the run kernels:
///
/// * `stride == 1` (the innermost dimension): each period is one
///   contiguous run and the running sum is a loop-carried scan —
///   [`kernels::prefix_scan_run`] per run.
/// * `stride > 1` (outer dimensions): consecutive coordinates are rows of
///   `stride` contiguous cells that combine *elementwise*
///   ([`kernels::add_rows`]), tiled into
///   [`kernels::tile_width`]-sized column blocks so the row pair being
///   combined stays resident in L1 across the whole coordinate walk.
///
/// This kernel is the build path's inner loop for P, RP and the RP
/// inverse.
pub(crate) fn sweep_dim_forward<T: GroupValue>(data: &mut [T], stride: usize, n: usize, k: usize) {
    if stride == 1 {
        for run in data.chunks_mut(n) {
            kernels::prefix_scan_run(run, k);
        }
        return;
    }
    let period = stride * n;
    let tile = kernels::tile_width::<T>(stride);
    let mut base = 0usize;
    while base < data.len() {
        let block = &mut data[base..base + period];
        let mut col = 0usize;
        while col < stride {
            let w = tile.min(stride - col);
            for coord in 1..n {
                if k != usize::MAX && coord % k == 0 {
                    continue; // first cell of a box along `dim`: no carry-in
                }
                let row = coord * stride;
                let (prev, cur) = block.split_at_mut(row);
                kernels::add_rows(&mut cur[col..col + w], &prev[row - stride + col..][..w]);
            }
            col += w;
        }
        base += period;
    }
}

/// The inverse of [`sweep_dim_backward`]'s forward twin: processes
/// coordinates in descending order so each cell subtracts a predecessor
/// that is still in its summed state. Same tile structure as
/// [`sweep_dim_forward`] with [`kernels::sub_rows`] /
/// [`kernels::inverse_prefix_scan_run`].
pub(crate) fn sweep_dim_backward<T: GroupValue>(data: &mut [T], stride: usize, n: usize, k: usize) {
    if stride == 1 {
        for run in data.chunks_mut(n) {
            kernels::inverse_prefix_scan_run(run, k);
        }
        return;
    }
    let period = stride * n;
    let tile = kernels::tile_width::<T>(stride);
    let mut base = 0usize;
    while base < data.len() {
        let block = &mut data[base..base + period];
        let mut col = 0usize;
        while col < stride {
            let w = tile.min(stride - col);
            for coord in (1..n).rev() {
                if k != usize::MAX && coord % k == 0 {
                    continue;
                }
                let row = coord * stride;
                let (prev, cur) = block.split_at_mut(row);
                kernels::sub_rows(&mut cur[col..col + w], &prev[row - stride + col..][..w]);
            }
            col += w;
        }
        base += period;
    }
}

/// The original per-cell sweeps, kept verbatim as the oracle the row
/// sweeps are property-tested against (bit-identical results for every
/// dimension, stride, and box size k, including k = 1 and non-divisible
/// n/k tails).
#[cfg(test)]
pub(crate) mod sweep_oracle {
    use crate::value::GroupValue;

    pub fn sweep_dim_forward<T: GroupValue>(data: &mut [T], stride: usize, n: usize, k: usize) {
        let period = stride * n;
        let mut base = 0usize;
        while base < data.len() {
            for coord in 1..n {
                if k != usize::MAX && coord % k == 0 {
                    continue;
                }
                let row = base + coord * stride;
                for off in 0..stride {
                    let prev = data[row + off - stride].clone();
                    data[row + off].add_assign(&prev);
                }
            }
            base += period;
        }
    }

    pub fn sweep_dim_backward<T: GroupValue>(data: &mut [T], stride: usize, n: usize, k: usize) {
        let period = stride * n;
        let mut base = 0usize;
        while base < data.len() {
            for coord in (1..n).rev() {
                if k != usize::MAX && coord % k == 0 {
                    continue;
                }
                let row = base + coord * stride;
                for off in 0..stride {
                    let prev = data[row + off - stride].clone();
                    data[row + off].sub_assign(&prev);
                }
            }
            base += period;
        }
    }
}

impl<T: GroupValue> PrefixSumEngine<T> {
    /// Builds the engine over an all-zero cube.
    pub fn zeros(dims: &[usize]) -> Result<Self, NdError> {
        Ok(PrefixSumEngine {
            p: NdCube::filled(dims, T::zero())?,
            stats: StatsCell::new(),
        })
    }

    /// Builds `P` from a data cube `A` (O(d·N) construction).
    pub fn from_cube(a: &NdCube<T>) -> Self {
        let mut p = a.clone();
        prefix_sums_in_place(&mut p);
        PrefixSumEngine {
            p,
            stats: StatsCell::new(),
        }
    }

    /// Read-only access to the prefix array `P` (Figure 2).
    pub fn p_array(&self) -> &NdCube<T> {
        &self.p
    }

    /// The prefix region sum `Sum(A[0,…,0] : A[x])`: one read of `P`.
    pub fn prefix_sum(&self, x: &[usize]) -> Result<T, NdError> {
        let lin = self.p.shape().linear(x)?;
        self.stats.reads(1);
        Ok(self.p.get_linear(lin).clone())
    }
}

impl<T: GroupValue> RangeSumEngine<T> for PrefixSumEngine<T> {
    fn name(&self) -> &'static str {
        "prefix-sum"
    }

    fn shape(&self) -> &Shape {
        self.p.shape()
    }

    fn query(&self, region: &Region) -> Result<T, NdError> {
        self.p.shape().check_region(region)?;
        let shape = self.p.shape();
        let stats = &self.stats;
        let p = &self.p;
        let sum = range_sum_from_prefix(region, |corner| {
            stats.reads(1);
            p.get_linear(shape.linear_unchecked(corner)).clone()
        });
        self.stats.query();
        Ok(sum)
    }

    fn update(&mut self, coords: &[usize], delta: T) -> Result<(), NdError> {
        self.p.shape().check(coords)?;
        // Cascading update (Figure 4): every P[x] with x ≥ coords
        // (componentwise) contains A[coords] and must change.
        let shape = self.p.shape().clone();
        let hi: Vec<usize> = shape.dims().iter().map(|&n| n - 1).collect();
        // lint:allow(L2): shape.check(coords) above proves coords ≤ n−1 per axis
        let region = Region::new(coords, &hi).expect("coords ≤ hi");
        let mut writes = 0u64;
        for lin in shape.linear_region_iter(&region) {
            self.p.get_linear_mut(lin).add_assign(&delta);
            writes += 1;
        }
        self.stats.writes(writes);
        self.stats.update();
        Ok(())
    }

    // Fast path: a rectangle update changes `P[x]` by
    // `delta · ∏ᵢ (min(xᵢ,hiᵢ) − loᵢ + 1)` for every `x ≥ lo` — the count
    // of updated source cells inside the prefix region of `x`. The count
    // is separable, so each innermost-axis row of the affected suffix is
    // one ramp ([`kernels::add_ramp_run`]) up to `hi` followed by one
    // constant add past it — O(suffix) total instead of the per-cell
    // loop's O(|region| · suffix).
    fn range_update(&mut self, region: &Region, delta: T) -> Result<(), NdError> {
        self.p.shape().check_region(region)?;
        let m = crate::obs::core();
        m.range_update_fast.inc();
        m.range_update_cells
            .add(u64::try_from(region.cell_count()).unwrap_or(u64::MAX));
        if delta.is_zero() {
            return Ok(());
        }
        let _span = rps_obs::Span::enter("prefix.range_update", &m.range_update_ns);
        let (shape, data) = self.p.parts_mut();
        let d = shape.ndim();
        let last = d - 1;
        let (lo, hi) = (region.lo(), region.hi());
        let n_last = shape.dim(last);
        let mut writes = 0u64;
        // Odometer over the outer coordinates of the affected suffix
        // `lo ..= n−1`; the innermost row is handled as two slices.
        let mut cur: Vec<usize> = lo[..last].to_vec();
        let mut base: usize = cur.iter().zip(shape.strides()).map(|(&c, &s)| c * s).sum();
        'rows: loop {
            // lint:allow(L4): per-dimension counts multiply to ≤ shape.len() ≤ u64::MAX
            let mult = cur
                .iter()
                .enumerate()
                .fold(1u64, |acc, (i, &c)| acc * (c.min(hi[i]) - lo[i] + 1) as u64); // lint:allow(L4): counts fit u64
            let row = &mut data[base + lo[last]..base + n_last];
            let ramp_len = hi[last] - lo[last] + 1;
            let step = delta.scale(mult);
            let (ramp, rest) = row.split_at_mut(ramp_len);
            let acc = kernels::add_ramp_run(ramp, &step);
            kernels::add_delta_run(rest, &acc);
            writes += u64::try_from(ramp_len + rest.len()).unwrap_or(u64::MAX);
            // Advance the outer odometer within `lo ..= dims−1`.
            let mut dim = last;
            loop {
                if dim == 0 {
                    break 'rows;
                }
                dim -= 1;
                if cur[dim] < shape.dim(dim) - 1 {
                    cur[dim] += 1;
                    base += shape.strides()[dim];
                    break;
                }
                let span = cur[dim] - lo[dim];
                base -= span * shape.strides()[dim];
                cur[dim] = lo[dim];
            }
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
        self.p.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::{paper_array_a, paper_array_p};

    #[test]
    fn figure2_p_array_reproduced() {
        let e = PrefixSumEngine::from_cube(&paper_array_a());
        assert_eq!(e.p_array(), &paper_array_p());
    }

    #[test]
    fn figure2_spot_values() {
        // "cell P[4,0] contains the sum of A[0,0]..A[4,0], or 19, while
        //  P[2,1] contains the sum of A[0,0]..A[2,1], or 24"
        let e = PrefixSumEngine::from_cube(&paper_array_a());
        assert_eq!(e.prefix_sum(&[4, 0]).unwrap(), 19);
        assert_eq!(e.prefix_sum(&[2, 1]).unwrap(), 24);
        assert_eq!(e.prefix_sum(&[8, 8]).unwrap(), 290);
    }

    #[test]
    fn queries_match_naive_scan() {
        let a = paper_array_a();
        let e = PrefixSumEngine::from_cube(&a);
        for (lo, hi) in [
            ([0, 0], [8, 8]),
            ([2, 3], [7, 5]),
            ([4, 4], [4, 4]),
            ([0, 5], [3, 8]),
        ] {
            let r = Region::new(&lo, &hi).unwrap();
            let brute: i64 = a
                .shape()
                .linear_region_iter(&r)
                .map(|l| *a.get_linear(l))
                .sum();
            assert_eq!(e.query(&r).unwrap(), brute, "region {r:?}");
        }
    }

    #[test]
    fn figure4_update_cascade() {
        // Updating A[1,1] by +1 must add 1 to the shaded region
        // P[1..=8, 1..=8] — 64 cells — and leave the rest untouched.
        let mut e = PrefixSumEngine::from_cube(&paper_array_a());
        e.reset_stats();
        e.update(&[1, 1], 1).unwrap();
        assert_eq!(e.stats().cell_writes, 64);

        let before = paper_array_p();
        for r in 0..9 {
            for c in 0..9 {
                let expect = before.get(&[r, c]) + i64::from(r >= 1 && c >= 1);
                assert_eq!(e.p_array().get(&[r, c]), expect, "P[{r},{c}]");
            }
        }
    }

    #[test]
    fn worst_case_update_touches_whole_cube() {
        let mut e = PrefixSumEngine::from_cube(&paper_array_a());
        e.reset_stats();
        e.update(&[0, 0], 1).unwrap();
        assert_eq!(e.stats().cell_writes, 81);
    }

    #[test]
    fn query_cost_constant() {
        let e = PrefixSumEngine::from_cube(&paper_array_a());
        e.reset_stats();
        let r = Region::new(&[2, 3], &[7, 5]).unwrap();
        e.query(&r).unwrap();
        assert_eq!(e.stats().cell_reads, 4); // 2^d with d = 2
    }

    #[test]
    fn set_and_cell_via_point_queries() {
        let mut e = PrefixSumEngine::from_cube(&paper_array_a());
        assert_eq!(e.cell(&[1, 1]).unwrap(), 3);
        e.set(&[1, 1], 4).unwrap(); // the Figure 4 update as a "set"
        assert_eq!(e.cell(&[1, 1]).unwrap(), 4);
        assert_eq!(e.total(), 291);
    }

    #[test]
    fn three_dim_prefix_sweep() {
        let a = NdCube::from_fn(&[3, 3, 3], |c| (c[0] + 2 * c[1] + 4 * c[2]) as i64).unwrap();
        let e = PrefixSumEngine::from_cube(&a);
        let r = Region::new(&[1, 0, 1], &[2, 2, 2]).unwrap();
        let brute: i64 = a
            .shape()
            .linear_region_iter(&r)
            .map(|l| *a.get_linear(l))
            .sum();
        assert_eq!(e.query(&r).unwrap(), brute);
        // 3-dim full-cube prefix equals total.
        assert_eq!(e.prefix_sum(&[2, 2, 2]).unwrap(), e.total());
    }

    #[test]
    fn rejects_bad_input() {
        let mut e = PrefixSumEngine::<i64>::zeros(&[3, 3]).unwrap();
        assert!(e.update(&[0, 3], 1).is_err());
        assert!(e.prefix_sum(&[3, 0]).is_err());
    }

    #[test]
    fn lane_sweeps_match_oracle_on_wide_rows() {
        // A stride (37) wider than `LANES` exercises whole-row combines
        // and tiling in a single deterministic case.
        let dims = [7usize, 37];
        let shape = Shape::new(&dims).unwrap();
        let data: Vec<i64> = (0..shape.len())
            .map(|i| (i as i64 * 31) % 101 - 50)
            .collect();
        for dim in 0..dims.len() {
            for k in [1usize, 3, 5, usize::MAX] {
                let mut a = data.clone();
                let mut b = data.clone();
                sweep_dim_forward(&mut a, shape.strides()[dim], shape.dim(dim), k);
                sweep_oracle::sweep_dim_forward(&mut b, shape.strides()[dim], shape.dim(dim), k);
                assert_eq!(a, b, "forward dim {dim} k {k}");
                sweep_dim_backward(&mut a, shape.strides()[dim], shape.dim(dim), k);
                sweep_oracle::sweep_dim_backward(&mut b, shape.strides()[dim], shape.dim(dim), k);
                assert_eq!(a, b, "backward dim {dim} k {k}");
                assert_eq!(a, data, "round trip dim {dim} k {k}");
            }
        }
    }
}

#[cfg(test)]
mod sweep_props {
    use super::*;
    use proptest::prelude::*;

    /// Random geometry + contents + box size, for d ∈ 1..=4.
    fn sweep_case() -> impl Strategy<Value = (Vec<usize>, Vec<i64>, usize)> {
        (1usize..=4)
            .prop_flat_map(|d| proptest::collection::vec(1usize..=6, d))
            .prop_flat_map(|dims| {
                let len: usize = dims.iter().product();
                (
                    Just(dims),
                    proptest::collection::vec(-100i64..100, len..=len),
                    1usize..=7,
                )
            })
    }

    proptest! {
        /// The row sweeps are bit-identical to the retained
        /// per-cell oracle for every dimension, every stride, and box
        /// sizes k ∈ {1, random, ∞} — including non-divisible n/k tails
        /// — and backward exactly inverts forward.
        #[test]
        fn lane_sweeps_match_scalar_oracle((dims, data, k) in sweep_case()) {
            let shape = Shape::new(&dims).unwrap();
            for dim in 0..dims.len() {
                for kk in [1usize, k, usize::MAX] {
                    let mut a = data.clone();
                    let mut b = data.clone();
                    sweep_dim_forward(&mut a, shape.strides()[dim], shape.dim(dim), kk);
                    sweep_oracle::sweep_dim_forward(&mut b, shape.strides()[dim], shape.dim(dim), kk);
                    prop_assert_eq!(&a, &b, "forward dim {} k {}", dim, kk);
                    sweep_dim_backward(&mut a, shape.strides()[dim], shape.dim(dim), kk);
                    sweep_oracle::sweep_dim_backward(&mut b, shape.strides()[dim], shape.dim(dim), kk);
                    prop_assert_eq!(&a, &b, "backward dim {} k {}", dim, kk);
                    prop_assert_eq!(&a, &data, "round trip dim {} k {}", dim, kk);
                }
            }
        }
    }
}
