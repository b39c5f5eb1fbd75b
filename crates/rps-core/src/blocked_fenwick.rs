//! A cache-blocked b-ary Fenwick engine (b = one cache line of lanes).
//!
//! The classic binary Fenwick tree pays `log₂ n` *dependent* memory
//! touches per dimension — every chain step is a pointer-chase into a
//! different cache line. This engine flattens the bottom of the tree
//! along the innermost (stride-1) dimension into blocks of
//! `B = `[`LANES`]` = 8` **raw** cells, so for 8-byte values one block
//! spans exactly one 64-byte cache line:
//!
//! * `cells` — the cube's own shape; outer dimensions are
//!   Fenwick-aggregated as usual, the innermost dimension stores raw
//!   (per-cell) values.
//! * `blocks` — the outer dimensions unchanged, the innermost dimension
//!   shrunk to `⌈n/B⌉` entries holding a **binary** Fenwick tree over
//!   per-block totals.
//!
//! A prefix sum along the innermost dimension is then: one contiguous
//! `≤ B`-cell partial summed lane-wide by [`crate::rps::kernels::sum_run`]
//! (a single cache line, no dependence chain), plus a `log₂⌈n/B⌉` chain
//! over block totals — three fewer dependent touches than binary Fenwick
//! at every innermost chain, in exchange for ≤ 8 contiguous reads the
//! prefetcher serves for free. A point update writes **one** raw cell
//! plus the block chain. Outer dimensions keep the standard chains, so
//! queries cost `O(log^{d−1} n · (B + log(n/B)))` and updates
//! `O(log^{d−1} n · log(n/B))`.
//!
//! Range updates reuse the d-dimensional dual-BIT decomposition shared
//! with [`crate::FenwickEngine`] (see `fenwick::range_update_aux`):
//! the auxiliary trees are plain binary Fenwick cubes allocated on the
//! first range update, so point-only workloads keep the blocked-only
//! footprint.
//!
//! Like the RPS kernels this module is allocation-free on its hot paths
//! (enforced by the workspace lint `L5`): queries borrow the
//! thread-local [`crate::rps::Scratch`] via [`with_scratch`], updates reuse an
//! engine-owned [`KernelScratch`].

use ndcube::{NdCube, NdError, Region, Shape};

use crate::corners::range_sum_from_prefix_with;
use crate::engine::RangeSumEngine;
use crate::fenwick::{aux_prefix_part, range_update_aux};
use crate::rps::kernels::{sum_run, LANES};
use crate::rps::{with_scratch, KernelScratch};
use crate::stats::{CostStats, StatsCell};
use crate::value::GroupValue;

/// Cells per innermost-dimension block: one 64-byte cache line of 8-byte
/// lanes, matching the kernels' vector width.
pub const BLOCK: usize = LANES;

/// Range-sum engine backed by a cache-blocked b-ary Fenwick tree
/// (`b = `[`BLOCK`]` = 8`): raw innermost-dimension cells grouped into
/// cache-line blocks with a binary Fenwick tree over block totals, and
/// standard Fenwick aggregation across the outer dimensions. See the
/// [module docs](self) for the layout and cost model.
///
/// ```
/// use rps_core::{BlockedFenwickEngine, RangeSumEngine};
/// use ndcube::Region;
///
/// let mut e = BlockedFenwickEngine::<i64>::zeros(&[16, 100]).unwrap();
/// e.update(&[3, 40], 10).unwrap();
/// e.range_update(&Region::new(&[0, 0], &[7, 49]).unwrap(), 2).unwrap();
/// let r = Region::new(&[0, 0], &[10, 60]).unwrap();
/// assert_eq!(e.query(&r).unwrap(), 10 + 2 * 8 * 50);
/// assert_eq!(e.total(), 10 + 2 * 8 * 50);
/// ```
#[derive(Debug, Clone)]
pub struct BlockedFenwickEngine<T> {
    /// The cube's shape; outer dims Fenwick-aggregated, innermost raw.
    cells: NdCube<T>,
    /// Outer dims as in `cells`; innermost dim is a binary Fenwick tree
    /// over the `⌈n/B⌉` per-block totals.
    blocks: NdCube<T>,
    /// `2^d` auxiliary binary trees for the dual-BIT range-update
    /// decomposition (empty until the first range update).
    aux: Vec<NdCube<T>>,
    /// Cached grand total, bumped on every update — `total()` in O(1).
    total: T,
    stats: StatsCell,
    /// Workspace for the `&mut self` update paths; queries use the
    /// thread-local scratch instead to stay `Sync`.
    scratch: KernelScratch,
}

/// One blocked prefix chain walk: standard descending Fenwick chains over
/// the outer dimensions (mirrored into both index buffers — `cells` and
/// `blocks` share those dimensions), then at the innermost dimension a
/// lane-wide sum of the `≤ B` raw cells inside the target's block plus a
/// binary chain over the preceding block totals.
fn blocked_prefix_rec<T: GroupValue>(
    cells: &NdCube<T>,
    blocks: &NdCube<T>,
    stats: &StatsCell,
    x: &[usize],
    dim: usize,
    idx_c: &mut [usize],
    idx_b: &mut [usize],
) -> T {
    if dim + 1 == x.len() {
        let y = x[dim];
        let q = y / BLOCK;
        idx_c[dim] = q * BLOCK;
        let start = cells.shape().linear_unchecked(idx_c);
        // The block's raw cells up to and including y: stride-1, ≤ B long,
        // within one cache line — summed with lane-wide partials.
        let run = &cells.as_slice()[start..=start + (y - q * BLOCK)];
        stats.reads(run.len() as u64); // lint:allow(L4): run length ≤ B fits u64
        let mut acc = sum_run(run);
        // Binary Fenwick chain over the q complete blocks before it.
        let mut i = q;
        while i > 0 {
            idx_b[dim] = i - 1;
            let lin = blocks.shape().linear_unchecked(idx_b);
            stats.reads(1);
            acc.add_assign(blocks.get_linear(lin));
            i -= i & i.wrapping_neg();
        }
        acc
    } else {
        let mut acc = T::zero();
        let mut i = x[dim] + 1;
        while i > 0 {
            idx_c[dim] = i - 1;
            idx_b[dim] = i - 1;
            let sub = blocked_prefix_rec(cells, blocks, stats, x, dim + 1, idx_c, idx_b);
            acc.add_assign(&sub);
            i -= i & i.wrapping_neg();
        }
        acc
    }
}

/// One blocked point-add chain walk: ascending Fenwick chains over the
/// outer dimensions of both arrays, then at the innermost dimension a
/// single raw-cell write plus the ascending binary chain over block
/// totals.
#[allow(clippy::too_many_arguments)] // mirrors `blocked_prefix_rec`
fn blocked_add_rec<T: GroupValue>(
    cells: &mut NdCube<T>,
    blocks: &mut NdCube<T>,
    stats: &StatsCell,
    coords: &[usize],
    dim: usize,
    idx_c: &mut [usize],
    idx_b: &mut [usize],
    delta: &T,
) {
    if dim + 1 == coords.len() {
        idx_c[dim] = coords[dim];
        let lin = cells.shape().linear_unchecked(idx_c);
        cells.get_linear_mut(lin).add_assign(delta);
        stats.writes(1);
        let nb = blocks.shape().dim(dim);
        let mut i = coords[dim] / BLOCK + 1;
        while i <= nb {
            idx_b[dim] = i - 1;
            let lin = blocks.shape().linear_unchecked(idx_b);
            blocks.get_linear_mut(lin).add_assign(delta);
            stats.writes(1);
            i += i & i.wrapping_neg();
        }
    } else {
        let n = cells.shape().dim(dim);
        let mut i = coords[dim] + 1;
        while i <= n {
            idx_c[dim] = i - 1;
            idx_b[dim] = i - 1;
            blocked_add_rec(cells, blocks, stats, coords, dim + 1, idx_c, idx_b, delta);
            i += i & i.wrapping_neg();
        }
    }
}

impl<T: GroupValue> BlockedFenwickEngine<T> {
    /// Builds the engine over an all-zero cube. The innermost dimension
    /// need not be a multiple of [`BLOCK`]; the last block is simply
    /// short.
    pub fn zeros(dims: &[usize]) -> Result<Self, NdError> {
        let cells = NdCube::filled(dims, T::zero())?;
        // lint:allow(L5): one-time shape construction at engine build
        let mut bdims = dims.to_vec();
        if let Some(last) = bdims.last_mut() {
            *last = last.div_ceil(BLOCK);
        }
        Ok(BlockedFenwickEngine {
            cells,
            blocks: NdCube::filled(&bdims, T::zero())?,
            // lint:allow(L5): construction-time placeholder; aux trees allocate lazily on the first range update
            aux: Vec::new(),
            total: T::zero(),
            stats: StatsCell::new(),
            scratch: KernelScratch::new(),
        })
    }

    /// Builds the engine from a data cube by N point updates.
    pub fn from_cube(a: &NdCube<T>) -> Self {
        // lint:allow(L2): dims come from an existing valid shape
        let mut e = BlockedFenwickEngine::zeros(a.shape().dims()).expect("valid dims");
        let full = a.shape().full_region();
        let mut total = T::zero();
        // lint:allow(L5): one-time build-side coordinate buffers
        let (mut idx_c, mut idx_b) = (vec![0; a.ndim()], vec![0; a.ndim()]);
        a.shape().for_each_region_cell(&full, |coords, lin| {
            let v = a.get_linear(lin);
            total.add_assign(v);
            if !v.is_zero() {
                blocked_add_rec(
                    &mut e.cells,
                    &mut e.blocks,
                    &e.stats,
                    coords,
                    0,
                    &mut idx_c,
                    &mut idx_b,
                    v,
                );
            }
        });
        e.total = total;
        e.reset_stats();
        e
    }

    /// Inclusive prefix sum `Sum(A[0,…,0] : A[x])`.
    pub fn prefix_sum(&self, x: &[usize]) -> Result<T, NdError> {
        self.cells.shape().check(x)?;
        Ok(with_scratch(|s| self.prefix_with(x, &mut s.kernel)))
    }

    /// Prefix reconstruction against caller-provided coordinate buffers:
    /// the blocked base walk plus the auxiliary trees' range-update share.
    fn prefix_with(&self, x: &[usize], ks: &mut KernelScratch) -> T {
        ks.ensure(x.len());
        let KernelScratch {
            lo: idx_c,
            hi: idx_b,
            ..
        } = ks;
        let mut acc =
            blocked_prefix_rec(&self.cells, &self.blocks, &self.stats, x, 0, idx_c, idx_b);
        if !self.aux.is_empty() {
            acc.add_assign(&aux_prefix_part(&self.aux, &self.stats, x, idx_c));
        }
        acc
    }
}

impl<T: GroupValue> RangeSumEngine<T> for BlockedFenwickEngine<T> {
    fn name(&self) -> &'static str {
        "blocked-fenwick"
    }

    fn shape(&self) -> &Shape {
        self.cells.shape()
    }

    fn query(&self, region: &Region) -> Result<T, NdError> {
        self.cells.shape().check_region(region)?;
        let sum = with_scratch(|s| {
            let (corner, ks) = s.split();
            range_sum_from_prefix_with(region, corner, |c| self.prefix_with(c, ks))
        });
        self.stats.query();
        Ok(sum)
    }

    fn update(&mut self, coords: &[usize], delta: T) -> Result<(), NdError> {
        self.cells.shape().check(coords)?;
        self.total.add_assign(&delta);
        self.scratch.ensure(coords.len());
        let KernelScratch {
            lo: idx_c,
            hi: idx_b,
            ..
        } = &mut self.scratch;
        blocked_add_rec(
            &mut self.cells,
            &mut self.blocks,
            &self.stats,
            coords,
            0,
            idx_c,
            idx_b,
            &delta,
        );
        self.stats.update();
        Ok(())
    }

    // Fast path: the same d-dimensional dual-BIT decomposition as
    // `FenwickEngine` — the blocked base layout is untouched; the 2^d
    // corner suffix-adds land in the shared auxiliary trees.
    fn range_update(&mut self, region: &Region, delta: T) -> Result<(), NdError> {
        self.cells.shape().check_region(region)?;
        let m = crate::obs::core();
        m.range_update_fast.inc();
        m.range_update_cells
            .add(u64::try_from(region.cell_count()).unwrap_or(u64::MAX));
        if delta.is_zero() {
            self.stats.update();
            return Ok(());
        }
        let _span = rps_obs::Span::enter("blocked_fenwick.range_update", &m.range_update_ns);
        self.total
            .add_assign(&delta.scale(u64::try_from(region.cell_count()).unwrap_or(u64::MAX)));
        range_update_aux(
            self.cells.shape(),
            &mut self.aux,
            &self.stats,
            region,
            &delta,
            &mut self.scratch,
        );
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
        self.cells.len() + self.blocks.len() + self.aux.iter().map(NdCube::len).sum::<usize>()
    }

    // O(1): the cached running total, maintained by both update paths.
    fn total(&self) -> T {
        self.total.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fenwick::FenwickEngine;
    use crate::testdata::paper_array_a;
    use proptest::prelude::*;

    #[test]
    fn matches_brute_force_on_paper_array() {
        let a = paper_array_a();
        let e = BlockedFenwickEngine::from_cube(&a);
        for (lo, hi) in [
            ([0, 0], [8, 8]),
            ([2, 3], [7, 5]),
            ([4, 4], [4, 4]),
            ([0, 5], [3, 8]),
            ([7, 0], [8, 8]), // spans the short tail block (9 = 8 + 1)
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
    fn non_divisible_tail_blocks() {
        // n = 13: blocks of 8 + a 5-cell tail; every prefix crosses or
        // lands inside a partial block at some point.
        let a = NdCube::from_fn(&[13], |c| (3 * c[0] + 1) as i64).unwrap();
        let e = BlockedFenwickEngine::from_cube(&a);
        for y in 0..13 {
            let brute: i64 = (0..=y).map(|i| (3 * i + 1) as i64).sum();
            assert_eq!(e.prefix_sum(&[y]).unwrap(), brute, "prefix {y}");
        }
    }

    #[test]
    fn update_then_query() {
        let mut e = BlockedFenwickEngine::<i64>::zeros(&[8, 8]).unwrap();
        e.update(&[3, 4], 10).unwrap();
        e.update(&[0, 0], 1).unwrap();
        e.update(&[7, 7], 5).unwrap();
        assert_eq!(e.total(), 16);
        assert_eq!(
            e.query(&Region::new(&[0, 0], &[3, 4]).unwrap()).unwrap(),
            11
        );
        assert_eq!(e.cell(&[3, 4]).unwrap(), 10);
    }

    #[test]
    fn three_dimensional() {
        let a = NdCube::from_fn(&[5, 4, 11], |c| (c[0] * 31 + c[1] * 7 + c[2]) as i64).unwrap();
        let e = BlockedFenwickEngine::from_cube(&a);
        let r = Region::new(&[1, 0, 2], &[4, 3, 9]).unwrap();
        let brute: i64 = a
            .shape()
            .linear_region_iter(&r)
            .map(|l| *a.get_linear(l))
            .sum();
        assert_eq!(e.query(&r).unwrap(), brute);
    }

    #[test]
    fn point_update_write_cost_beats_binary_innermost() {
        // n = 64 innermost: binary Fenwick touches up to 7 chain entries;
        // blocked writes 1 raw cell + ≤ ⌈log2(9)⌉ = 4 block entries.
        let mut e = BlockedFenwickEngine::<i64>::zeros(&[64]).unwrap();
        e.reset_stats();
        e.update(&[0], 1).unwrap(); // worst case: longest chain
        let writes = e.stats().cell_writes;
        assert!(writes <= 5, "writes = {writes}");
    }

    #[test]
    fn range_update_matches_per_cell_loop() {
        let a = paper_array_a();
        let mut fast = BlockedFenwickEngine::from_cube(&a);
        let mut slow = BlockedFenwickEngine::from_cube(&a);
        for (lo, hi, delta) in [
            ([0usize, 0usize], [8usize, 8usize], 3i64),
            ([2, 3], [7, 5], -4),
            ([4, 4], [4, 4], 9), // point region
            ([0, 5], [3, 8], 1), // flush against the hi edge
        ] {
            let r = Region::new(&lo, &hi).unwrap();
            fast.range_update(&r, delta).unwrap();
            for c in &r {
                slow.update(&c, delta).unwrap();
            }
            assert_eq!(fast.materialize(), slow.materialize(), "after {r:?}");
            assert_eq!(fast.total(), slow.total());
        }
    }

    #[test]
    fn storage_accounts_blocks_and_lazy_aux() {
        let mut e = BlockedFenwickEngine::<i64>::zeros(&[16, 16]).unwrap();
        // 256 raw cells + 16 rows × ⌈16/8⌉ = 32 block totals.
        assert_eq!(e.storage_cells(), 256 + 32);
        e.range_update(&Region::new(&[0, 0], &[7, 7]).unwrap(), 1)
            .unwrap();
        // + 2² full-shape aux trees.
        assert_eq!(e.storage_cells(), 256 + 32 + 4 * 256);
    }

    #[test]
    fn rejects_out_of_bounds() {
        let mut e = BlockedFenwickEngine::<i64>::zeros(&[4, 4]).unwrap();
        assert!(e.update(&[4, 0], 1).is_err());
        assert!(e.prefix_sum(&[0, 4]).is_err());
        assert!(e
            .range_update(&Region::new(&[0, 0], &[4, 0]).unwrap(), 1)
            .is_err());
    }

    proptest! {
        /// Random cubes and op sequences: blocked engine stays
        /// bit-identical to the plain binary Fenwick engine (which the
        /// conformance suite in turn pins to the materialized oracle).
        #[test]
        fn agrees_with_binary_fenwick(
            (dims, ops) in (1usize..=3)
                .prop_flat_map(|d| proptest::collection::vec(1usize..=19, d))
                .prop_flat_map(|dims| {
                    let coord = dims
                        .iter()
                        .map(|&n| 0..n)
                        .collect::<Vec<_>>();
                    let op = (
                        proptest::collection::vec(coord.clone(), 2),
                        -50i64..50,
                        any::<bool>(),
                    );
                    (Just(dims), proptest::collection::vec(op, 1..8))
                })
        ) {
            let mut blocked = BlockedFenwickEngine::<i64>::zeros(&dims).unwrap();
            let mut binary = FenwickEngine::<i64>::zeros(&dims).unwrap();
            for (corners, delta, ranged) in &ops {
                let lo: Vec<usize> = corners[0].iter().zip(&corners[1]).map(|(&a, &b)| a.min(b)).collect();
                let hi: Vec<usize> = corners[0].iter().zip(&corners[1]).map(|(&a, &b)| a.max(b)).collect();
                let r = Region::new(&lo, &hi).unwrap();
                if *ranged {
                    blocked.range_update(&r, *delta).unwrap();
                    binary.range_update(&r, *delta).unwrap();
                } else {
                    blocked.update(&lo, *delta).unwrap();
                    binary.update(&lo, *delta).unwrap();
                }
                prop_assert_eq!(blocked.query(&r).unwrap(), binary.query(&r).unwrap());
            }
            prop_assert_eq!(blocked.materialize(), binary.materialize());
            prop_assert_eq!(blocked.total(), binary.total());
        }
    }
}
