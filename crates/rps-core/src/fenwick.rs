//! A d-dimensional Fenwick tree (binary indexed tree) engine.
//!
//! Not part of the ICDE'99 paper itself, but the classic point on the
//! query/update trade-off curve that later range-sum work (e.g. Chan &
//! Ioannidis, SIGMOD'99) compares against: O(log^d n) for **both** queries
//! and updates, with a query·update product of O(log^{2d} n) — asymptotically
//! far below O(n^{d/2}) but with a larger constant per query than RPS's
//! 2^d·(d+2) reads. Including it lets the benches show where each method
//! wins.

use ndcube::{NdCube, NdError, Region, Shape};

use crate::corners::range_sum_from_prefix_with;
use crate::engine::RangeSumEngine;
use crate::rps::{with_scratch, KernelScratch};
use crate::stats::{CostStats, StatsCell};
use crate::value::GroupValue;

/// Range-sum engine backed by a d-dimensional Fenwick tree.
///
/// The tree array has the same cell count as `A` (1-based internally).
///
/// ```
/// use rps_core::{FenwickEngine, RangeSumEngine};
/// use ndcube::Region;
///
/// let mut e = FenwickEngine::<i64>::zeros(&[16, 16]).unwrap();
/// e.update(&[3, 4], 10).unwrap();
/// e.update(&[12, 9], 5).unwrap();
/// let r = Region::new(&[0, 0], &[10, 10]).unwrap();
/// assert_eq!(e.query(&r).unwrap(), 10);
/// assert_eq!(e.total(), 15);
/// ```
///
/// **Range updates** use the classic dual-BIT trick generalized to `d`
/// dimensions: a suffix-add of `δ` at corner `p` contributes
/// `δ·∏ᵢ(yᵢ − pᵢ + 1)` to `prefix(y)` for `y ≥ p`; expanding
/// `∏ᵢ((yᵢ+1) − pᵢ)` over subsets `S` of the dimensions turns that into
/// `2^d` auxiliary trees, where tree `S` takes a point-add of
/// `(−1)^{d−|S|}·δ·∏_{i∉S} pᵢ` at `p` and contributes
/// `prefix_S(y)·∏_{i∈S}(yᵢ+1)` to every later query. A range update is
/// the usual `2^d`-corner inclusion–exclusion of suffix-adds — so
/// `O(4^d·log^d n)` total, independent of the rectangle size. The
/// auxiliary trees are allocated on the first range update; point-only
/// workloads keep the original single-tree footprint.
#[derive(Debug, Clone)]
pub struct FenwickEngine<T> {
    tree: NdCube<T>,
    /// `2^d` auxiliary trees for the dual-BIT range-update decomposition
    /// (empty until the first range update). `aux[s]` accumulates the
    /// corner terms whose query-side factor is `∏_{i∈s}(yᵢ+1)`.
    aux: Vec<NdCube<T>>,
    /// Cached grand total, bumped on every update — `total()` in O(1).
    total: T,
    stats: StatsCell,
    /// Chain index of point updates and corner and index buffers of the
    /// range-update walk, reused across calls. Queries take `&self` and
    /// use the thread-local scratch instead to stay `Sync`.
    scratch: KernelScratch,
}

/// One Fenwick prefix chain walk over `tree` (recursive over dimensions).
fn tree_prefix_rec<T: GroupValue>(
    tree: &NdCube<T>,
    stats: &StatsCell,
    x: &[usize],
    dim: usize,
    idx: &mut [usize],
) -> T {
    let mut acc = T::zero();
    // 1-based chain: i = x[dim]+1; i > 0; i -= i & (-i)
    let mut i = x[dim] + 1;
    while i > 0 {
        idx[dim] = i - 1;
        if dim + 1 == x.len() {
            let lin = tree.shape().linear_unchecked(idx);
            stats.reads(1);
            acc.add_assign(tree.get_linear(lin));
        } else {
            let sub = tree_prefix_rec(tree, stats, x, dim + 1, idx);
            acc.add_assign(&sub);
        }
        i -= i & i.wrapping_neg();
    }
    acc
}

/// One Fenwick point-add chain walk over `tree` (recursive over
/// dimensions).
fn tree_add_rec<T: GroupValue>(
    tree: &mut NdCube<T>,
    stats: &StatsCell,
    coords: &[usize],
    dim: usize,
    idx: &mut [usize],
    delta: &T,
) {
    let n = tree.shape().dim(dim);
    let mut i = coords[dim] + 1;
    while i <= n {
        idx[dim] = i - 1;
        if dim + 1 == coords.len() {
            let lin = tree.shape().linear_unchecked(idx);
            tree.get_linear_mut(lin).add_assign(delta);
            stats.writes(1);
        } else {
            tree_add_rec(tree, stats, coords, dim + 1, idx, delta);
        }
        i += i & i.wrapping_neg();
    }
}

/// Applies the `2^d`-corner dual-BIT decomposition of a range update to
/// the auxiliary trees, allocating them on first use — shared by
/// [`FenwickEngine`] and [`crate::BlockedFenwickEngine`], whose base
/// layouts differ but whose range-update mechanism is identical. The
/// corner and the chain index live in the engine-owned `ks`, so once the
/// trees exist a call allocates nothing.
pub(crate) fn range_update_aux<T: GroupValue>(
    shape: &Shape,
    aux: &mut Vec<NdCube<T>>,
    stats: &StatsCell,
    region: &Region,
    delta: &T,
    ks: &mut KernelScratch,
) {
    let d = shape.ndim();
    if aux.is_empty() {
        // One-time lazy allocation on the first range update; point-only
        // workloads never pay for the auxiliary trees.
        *aux = (0..1usize << d)
            .map(|_| {
                NdCube::filled(shape.dims(), T::zero())
                    // lint:allow(L2): dims come from the engine's own valid shape
                    .expect("valid dims")
            })
            .collect();
    }
    ks.ensure(d);
    let KernelScratch { lo: p, hi: idx, .. } = ks;
    // Inclusion–exclusion over the 2^d region corners: +δ at lo-side
    // corners, −δ past the hi side; corners past the cube edge are empty
    // suffixes and vanish.
    'corners: for c in 0..1usize << d {
        let mut corner_sign = false;
        for (i, pi) in p.iter_mut().enumerate() {
            if c & (1 << i) != 0 {
                let past = region.hi()[i] + 1;
                if past >= shape.dim(i) {
                    continue 'corners;
                }
                *pi = past;
                corner_sign = !corner_sign;
            } else {
                *pi = region.lo()[i];
            }
        }
        for (s, tree) in aux.iter_mut().enumerate() {
            // lint:allow(L4): ∏ pᵢ ≤ the cube's cell count fits u64
            let mut coeff = 1u64;
            let mut sign = corner_sign;
            for (i, &pi) in p.iter().enumerate() {
                if s & (1 << i) == 0 {
                    coeff *= pi as u64; // lint:allow(L4): pᵢ ≤ n fits u64
                    sign = !sign;
                }
            }
            if coeff == 0 {
                continue; // a zero coordinate outside S: no term
            }
            let mut val = delta.scale(coeff);
            if sign {
                val = T::zero().sub(&val);
            }
            tree_add_rec(tree, stats, p, 0, idx, &val);
        }
    }
}

/// The auxiliary trees' share of a prefix sum:
/// `Σ_S prefix_S(x) · ∏_{i∈S}(xᵢ+1)`. Zero work while `aux` is empty.
pub(crate) fn aux_prefix_part<T: GroupValue>(
    aux: &[NdCube<T>],
    stats: &StatsCell,
    x: &[usize],
    idx: &mut [usize],
) -> T {
    let mut acc = T::zero();
    // lint:allow(L4): per-dimension factors (≤ dim size) multiply to ≤
    // the cube's cell count, which fits u64.
    for (s, tree) in aux.iter().enumerate() {
        let part = tree_prefix_rec(tree, stats, x, 0, idx);
        if part.is_zero() {
            continue;
        }
        let factor = x
            .iter()
            .enumerate()
            .filter(|&(i, _)| s & (1 << i) != 0)
            .fold(1u64, |f, (_, &xi)| f * (xi + 1) as u64); // lint:allow(L4): ∏(xᵢ+1) ≤ cell count fits u64
        acc.add_assign(&part.scale(factor));
    }
    acc
}

impl<T: GroupValue> FenwickEngine<T> {
    /// Builds the engine over an all-zero cube.
    pub fn zeros(dims: &[usize]) -> Result<Self, NdError> {
        Ok(FenwickEngine {
            tree: NdCube::filled(dims, T::zero())?,
            // lint:allow(L5): construction-time placeholder; aux trees allocate lazily on the first range update
            aux: Vec::new(),
            total: T::zero(),
            stats: StatsCell::new(),
            scratch: KernelScratch::new(),
        })
    }

    /// Builds the engine from a data cube by N point updates —
    /// O(N·log^d n) total, amortized fine for the workloads here.
    pub fn from_cube(a: &NdCube<T>) -> Self {
        // lint:allow(L2): dims come from an existing valid shape
        let mut e = FenwickEngine::zeros(a.shape().dims()).expect("valid dims");
        let full = a.shape().full_region();
        let mut total = T::zero();
        a.shape().for_each_region_cell(&full, |coords, lin| {
            let v = a.get_linear(lin);
            total.add_assign(v);
            if !v.is_zero() {
                e.add_internal(coords, v);
            }
        });
        e.total = total;
        e.reset_stats();
        e
    }

    /// Inclusive prefix sum `Sum(A[0,…,0] : A[x])` — O(log^d n) reads
    /// (`O(2^d·log^d n)` once range updates have populated the auxiliary
    /// trees).
    pub fn prefix_sum(&self, x: &[usize]) -> Result<T, NdError> {
        self.tree.shape().check(x)?;
        Ok(with_scratch(|s| self.prefix_with(x, &mut s.kernel)))
    }

    /// Prefix reconstruction against a caller-provided chain index: the
    /// base tree plus the auxiliary trees' range-update share.
    fn prefix_with(&self, x: &[usize], ks: &mut KernelScratch) -> T {
        ks.ensure(x.len());
        let mut acc = tree_prefix_rec(&self.tree, &self.stats, x, 0, &mut ks.lo);
        acc.add_assign(&aux_prefix_part(&self.aux, &self.stats, x, &mut ks.lo));
        acc
    }

    fn add_internal(&mut self, coords: &[usize], delta: &T) {
        self.scratch.ensure(coords.len());
        tree_add_rec(
            &mut self.tree,
            &self.stats,
            coords,
            0,
            &mut self.scratch.lo,
            delta,
        );
    }
}

impl<T: GroupValue> RangeSumEngine<T> for FenwickEngine<T> {
    fn name(&self) -> &'static str {
        "fenwick"
    }

    fn shape(&self) -> &Shape {
        self.tree.shape()
    }

    fn query(&self, region: &Region) -> Result<T, NdError> {
        self.tree.shape().check_region(region)?;
        let sum = with_scratch(|s| {
            let (corner, ks) = s.split();
            range_sum_from_prefix_with(region, corner, |c| self.prefix_with(c, ks))
        });
        self.stats.query();
        Ok(sum)
    }

    fn update(&mut self, coords: &[usize], delta: T) -> Result<(), NdError> {
        self.tree.shape().check(coords)?;
        self.total.add_assign(&delta);
        self.add_internal(coords, &delta);
        self.stats.update();
        Ok(())
    }

    // Fast path: the d-dimensional dual-BIT decomposition — 2^d corner
    // suffix-adds into 2^d auxiliary trees, O(4^d·log^d n) regardless of
    // the rectangle size (see the type-level docs).
    fn range_update(&mut self, region: &Region, delta: T) -> Result<(), NdError> {
        self.tree.shape().check_region(region)?;
        let m = crate::obs::core();
        m.range_update_fast.inc();
        m.range_update_cells
            .add(u64::try_from(region.cell_count()).unwrap_or(u64::MAX));
        if delta.is_zero() {
            self.stats.update();
            return Ok(());
        }
        let _span = rps_obs::Span::enter("fenwick.range_update", &m.range_update_ns);
        self.total
            .add_assign(&delta.scale(u64::try_from(region.cell_count()).unwrap_or(u64::MAX)));
        range_update_aux(
            self.tree.shape(),
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
        self.tree.len() + self.aux.iter().map(NdCube::len).sum::<usize>()
    }

    // O(1): the cached running total, maintained by both update paths.
    fn total(&self) -> T {
        self.total.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::paper_array_a;

    #[test]
    fn matches_brute_force_on_paper_array() {
        let a = paper_array_a();
        let e = FenwickEngine::from_cube(&a);
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
    fn update_then_query() {
        let mut e = FenwickEngine::<i64>::zeros(&[8, 8]).unwrap();
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
    fn logarithmic_update_cost() {
        // n = 16: an update touches at most ⌈log2(17)⌉ = 5 chain entries
        // per dimension, so ≤ 25 writes for d = 2 — far below n^d = 256.
        let mut e = FenwickEngine::<i64>::zeros(&[16, 16]).unwrap();
        e.reset_stats();
        e.update(&[0, 0], 1).unwrap(); // worst case: longest chains
        assert!(
            e.stats().cell_writes <= 25,
            "writes = {}",
            e.stats().cell_writes
        );
        assert!(e.stats().cell_writes >= 4);
    }

    #[test]
    fn logarithmic_query_cost() {
        let a = NdCube::from_fn(&[16, 16], |c| (c[0] + c[1]) as i64).unwrap();
        let e = FenwickEngine::from_cube(&a);
        e.reset_stats();
        e.query(&Region::new(&[1, 1], &[14, 14]).unwrap()).unwrap();
        // 4 corners × ≤ 4·4 chain reads each.
        assert!(
            e.stats().cell_reads <= 64,
            "reads = {}",
            e.stats().cell_reads
        );
    }

    #[test]
    fn three_dimensional() {
        let a = NdCube::from_fn(&[5, 4, 6], |c| (c[0] * 31 + c[1] * 7 + c[2]) as i64).unwrap();
        let e = FenwickEngine::from_cube(&a);
        let r = Region::new(&[1, 0, 2], &[4, 3, 5]).unwrap();
        let brute: i64 = a
            .shape()
            .linear_region_iter(&r)
            .map(|l| *a.get_linear(l))
            .sum();
        assert_eq!(e.query(&r).unwrap(), brute);
    }

    #[test]
    fn one_dimensional() {
        let mut e = FenwickEngine::<i64>::zeros(&[10]).unwrap();
        for i in 0..10 {
            e.update(&[i], i as i64).unwrap();
        }
        assert_eq!(
            e.query(&Region::new(&[3], &[6]).unwrap()).unwrap(),
            3 + 4 + 5 + 6
        );
    }

    #[test]
    fn rejects_out_of_bounds() {
        let mut e = FenwickEngine::<i64>::zeros(&[4, 4]).unwrap();
        assert!(e.update(&[4, 0], 1).is_err());
        assert!(e.prefix_sum(&[0, 4]).is_err());
    }

    #[test]
    fn range_update_matches_per_cell_loop() {
        let a = paper_array_a();
        let mut fast = FenwickEngine::from_cube(&a);
        let mut slow = FenwickEngine::from_cube(&a);
        for (lo, hi, delta) in [
            ([0usize, 0usize], [8usize, 8usize], 3i64),
            ([2, 3], [7, 5], -4),
            ([4, 4], [4, 4], 9), // point region
            ([0, 5], [3, 8], 1), // flush against the hi edge
            ([8, 0], [8, 8], -7),
        ] {
            let r = Region::new(&lo, &hi).unwrap();
            fast.range_update(&r, delta).unwrap();
            for c in &r {
                slow.update(&c, delta).unwrap();
            }
            for (qlo, qhi) in [
                ([0usize, 0usize], [8usize, 8usize]),
                ([1, 2], [6, 7]),
                ([8, 8], [8, 8]),
                ([0, 0], [0, 0]),
            ] {
                let q = Region::new(&qlo, &qhi).unwrap();
                assert_eq!(
                    fast.query(&q).unwrap(),
                    slow.query(&q).unwrap(),
                    "query {q:?} after range {r:?}"
                );
            }
        }
    }

    #[test]
    fn range_update_3d_matches_per_cell_loop() {
        let a = NdCube::from_fn(&[5, 4, 6], |c| (c[0] * 31 + c[1] * 7 + c[2]) as i64).unwrap();
        let mut fast = FenwickEngine::from_cube(&a);
        let mut slow = FenwickEngine::from_cube(&a);
        let r = Region::new(&[1, 0, 2], &[4, 2, 5]).unwrap();
        fast.range_update(&r, -13).unwrap();
        for c in &r {
            slow.update(&c, -13).unwrap();
        }
        assert_eq!(fast.materialize(), slow.materialize());
    }

    #[test]
    fn cached_total_is_o1_and_exact() {
        let mut e = FenwickEngine::from_cube(&paper_array_a());
        assert_eq!(e.total(), 290);
        e.update(&[3, 4], 7).unwrap();
        e.range_update(&Region::new(&[1, 1], &[5, 6]).unwrap(), -2)
            .unwrap();
        let full = e.shape().full_region();
        assert_eq!(e.total(), e.query(&full).unwrap());
        // O(1): the cached total reads no tree cells.
        e.reset_stats();
        let _ = e.total();
        assert_eq!(e.stats().cell_reads, 0);
    }

    #[test]
    fn point_only_workloads_allocate_no_aux_trees() {
        let mut e = FenwickEngine::<i64>::zeros(&[16, 16]).unwrap();
        e.update(&[3, 4], 10).unwrap();
        assert_eq!(e.storage_cells(), 256);
        e.range_update(&Region::new(&[0, 0], &[7, 7]).unwrap(), 1)
            .unwrap();
        assert_eq!(e.storage_cells(), 256 * 5); // base + 2² aux trees
    }
}
