//! Batch updates and structure rebuilds.
//!
//! The paper targets "weekly or daily" refresh cycles: updates arrive in
//! batches, not one at a time. For a batch of m updates the engine can
//! either apply them incrementally (m × the §4.3 per-update cost) or
//! recover `A`, apply the whole batch, and rebuild RP + overlay in
//! O(d·N). The crossover m* ≈ d·N / update_cost(n, d, k) is decided with
//! the paper's own cost model; `exp_batch_updates` measures the ablation.
//!
//! The crossover is reachable through the trait: `RpsEngine`'s
//! [`RangeSumEngine::update_batch`] is [`RpsEngine::apply_batch`], so a
//! caller that only knows the trait, such as WAL replay at recovery,
//! gets the rebuild leg when the batch is large enough.

use ndcube::{NdCube, NdError};

use crate::engine::RangeSumEngine;
use crate::rps::RpsEngine;
use crate::value::GroupValue;

/// Moves a count/extent into the cost model's f64 domain. All lossy
/// numeric entry into the estimator funnels through this one function.
pub(crate) fn est(x: usize) -> f64 {
    // lint:allow(L4): cost estimates tolerate f64 rounding above 2^53
    x as f64
}

impl<T: GroupValue> RpsEngine<T> {
    /// Recovers the data cube `A` from the RP array alone by inverting
    /// the box-local prefix sweeps — O(d·N), no point queries.
    ///
    /// The inverse runs the sweeps backwards: within each box, a cell
    /// subtracts its predecessor along each dimension (in reverse linear
    /// order, so predecessors are still in their summed state when read).
    pub fn to_cube(&self) -> NdCube<T> {
        crate::rps::build::inverse_relative_prefix_sums(self.rp_array(), self.grid())
    }

    /// Rebuilds RP and the overlay from scratch for a new cube of the
    /// same shape and box size — O(d·N).
    pub fn rebuild_from(&mut self, a: &NdCube<T>) -> Result<(), NdError> {
        if a.shape() != self.shape() {
            return Err(NdError::ShapeMismatch {
                expected: self.shape().dims().to_vec(),
                got: a.shape().dims().to_vec(),
            });
        }
        let fresh = RpsEngine::from_cube_with_box_size(a, self.grid().box_size())?;
        // Carry counters across the rebuild.
        let prior = self.stats();
        // lint:allow(L4): the estimate is nonnegative and far below 2^53
        let rebuild_writes = self.rebuild_cost() as u64;
        *self = fresh;
        // The fresh engine starts at zero; restore history and account
        // the reconstruction as the cells it wrote.
        let cell = crate::stats::StatsCell::new();
        cell.add_snapshot(prior);
        cell.writes(rebuild_writes);
        self.set_stats(cell);
        Ok(())
    }

    /// Estimated worst-case per-update write cost for this engine's
    /// geometry — the §4.3 three-term formula generalized dimension-wise
    /// to non-hypercube shapes:
    /// `∏(kᵢ−1)` RP cells + `Σᵢ (nᵢ/kᵢ)·∏_{j≠i} kⱼ` border cells +
    /// `∏(nᵢ/kᵢ − 1)` anchors.
    ///
    /// Reporting/estimation only ([`Self::apply_batch`] *measures* its
    /// crossover instead). Differs deliberately from
    /// `rps_analysis::rps_update_cost` — the paper's literal hypercube
    /// formula — in two ways: per-dimension shapes, and an RP term
    /// clamped to ≥ 1 because the updated cell itself is always written
    /// even at k = 1.
    pub fn estimated_update_cost(&self) -> f64 {
        let dims = self.shape().dims();
        let ks = self.grid().box_size();
        let rp: f64 = ks.iter().map(|&k| (est(k) - 1.0).max(1.0)).product();
        let anchors: f64 = dims
            .iter()
            .zip(ks)
            .map(|(&n, &k)| (est(n) / est(k) - 1.0).max(0.0))
            .product();
        let mut borders = 0.0;
        for (i, (&n, &k)) in dims.iter().zip(ks).enumerate() {
            let mut term = est(n) / est(k);
            for (j, &kj) in ks.iter().enumerate() {
                if j != i {
                    term *= est(kj);
                }
            }
            borders += term;
        }
        rp + borders + anchors
    }

    /// Cell writes a full rebuild costs: recovering A (d sweeps) plus
    /// reconstructing RP and the overlay.
    pub(crate) fn rebuild_cost(&self) -> f64 {
        (est(self.shape().ndim()) + 2.0) * est(self.shape().len())
    }

    /// Applies a batch of point updates, adaptively choosing between
    /// incremental application and a full rebuild. Returns `true` when
    /// the rebuild path was taken.
    ///
    /// Strategy: apply a small sample incrementally while *measuring* the
    /// actual per-update write cost (the worst-case formula is too
    /// pessimistic for uniform positions), then extrapolate; if the
    /// projected remaining incremental cost exceeds the O((d+2)·N)
    /// rebuild, recover `A`, fold in the rest of the batch, and rebuild.
    ///
    /// Duplicate coordinates in the batch are fine (deltas accumulate).
    /// Every coordinate is checked before the first write, so a batch is
    /// all-or-nothing. An empty batch counts nothing.
    pub fn apply_batch(&mut self, updates: &[(Vec<usize>, T)]) -> Result<bool, NdError> {
        const SAMPLE: usize = 32;
        if updates.is_empty() {
            return Ok(false);
        }
        for (coords, _) in updates {
            self.shape().check(coords)?;
        }
        let m = crate::obs::engine(crate::obs::EngineKind::Rps);
        m.batches.inc();
        m.batch_updates
            .add(u64::try_from(updates.len()).unwrap_or(u64::MAX));
        let (sampled, rest) = updates.split_at(updates.len().min(SAMPLE));
        let before = self.stats().cell_writes;
        for (coords, delta) in sampled {
            self.update(coords, delta.clone())?;
        }
        if rest.is_empty() {
            return Ok(false);
        }
        // lint:allow(L4): write counters stay far below 2^53; f64 rounding is harmless here
        let measured = (self.stats().cell_writes - before) as f64 / est(sampled.len());
        if measured * est(rest.len()) <= self.rebuild_cost() {
            for (coords, delta) in rest {
                self.update(coords, delta.clone())?;
            }
            return Ok(false);
        }
        let mut a = self.to_cube();
        for (coords, delta) in rest {
            let lin = a.shape().linear_unchecked(coords);
            a.get_linear_mut(lin).add_assign(delta);
        }
        self.rebuild_from(&a)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveEngine;
    use crate::testdata::{paper_array_a, PAPER_BOX_SIZE};
    use ndcube::Region;

    #[test]
    fn to_cube_inverts_build() {
        let a = paper_array_a();
        let e = RpsEngine::from_cube_uniform(&a, PAPER_BOX_SIZE).unwrap();
        assert_eq!(e.to_cube(), a);
    }

    #[test]
    fn to_cube_after_updates() {
        let a = paper_array_a();
        let mut e = RpsEngine::from_cube_uniform(&a, PAPER_BOX_SIZE).unwrap();
        e.update(&[1, 1], 5).unwrap();
        e.update(&[8, 0], -2).unwrap();
        let mut expect = a;
        expect.set(&[1, 1], expect.get(&[1, 1]) + 5);
        expect.set(&[8, 0], expect.get(&[8, 0]) - 2);
        assert_eq!(e.to_cube(), expect);
    }

    #[test]
    fn to_cube_three_dim_ragged() {
        let a = ndcube::NdCube::from_fn(&[5, 7, 4], |c| (c[0] * 100 + c[1] * 10 + c[2]) as i64)
            .unwrap();
        let e = RpsEngine::from_cube_with_box_size(&a, &[2, 3, 3]).unwrap();
        assert_eq!(e.to_cube(), a);
    }

    #[test]
    fn small_batch_stays_incremental() {
        let a = paper_array_a();
        let mut e = RpsEngine::from_cube_uniform(&a, PAPER_BOX_SIZE).unwrap();
        let batch = vec![(vec![1, 1], 1i64), (vec![4, 4], 2)];
        let rebuilt = e.apply_batch(&batch).unwrap();
        assert!(!rebuilt, "tiny batch should apply incrementally");
        assert_eq!(e.cell(&[1, 1]).unwrap(), 4);
        assert_eq!(e.cell(&[4, 4]).unwrap(), 5);
    }

    #[test]
    fn huge_batch_triggers_rebuild() {
        let a = paper_array_a();
        let mut e = RpsEngine::from_cube_uniform(&a, PAPER_BOX_SIZE).unwrap();
        // 9×9 cube: rebuild ≈ 4·81 = 324 vs ~26 per update ⇒ rebuild at
        // a few dozen updates.
        let batch: Vec<(Vec<usize>, i64)> = (0..81).map(|i| (vec![i / 9, i % 9], 1i64)).collect();
        let rebuilt = e.apply_batch(&batch).unwrap();
        assert!(rebuilt, "cube-sized batch should rebuild");
        assert_eq!(e.total(), 290 + 81);
    }

    #[test]
    fn both_paths_agree_with_naive() {
        let a = paper_array_a();
        let batch: Vec<(Vec<usize>, i64)> = (0..30)
            .map(|i| (vec![(i * 7) % 9, (i * 5) % 9], (i % 5) as i64 - 2))
            .collect();

        let mut naive = NaiveEngine::from_cube(a.clone());
        for (c, d) in &batch {
            naive.update(c, *d).unwrap();
        }

        // Force each path and compare against the oracle.
        for force_rebuild in [false, true] {
            let mut e = RpsEngine::from_cube_uniform(&a, PAPER_BOX_SIZE).unwrap();
            if force_rebuild {
                let mut cube = e.to_cube();
                for (c, d) in &batch {
                    let lin = cube.shape().linear_unchecked(c);
                    cube.get_linear_mut(lin).add_assign(d);
                }
                e.rebuild_from(&cube).unwrap();
            } else {
                for (c, d) in &batch {
                    e.update(c, *d).unwrap();
                }
            }
            for (lo, hi) in [([0, 0], [8, 8]), ([2, 2], [7, 5]), ([5, 0], [8, 8])] {
                let r = Region::new(&lo, &hi).unwrap();
                assert_eq!(
                    e.query(&r).unwrap(),
                    naive.query(&r).unwrap(),
                    "rebuild={force_rebuild} {r:?}"
                );
            }
        }
    }

    #[test]
    fn batch_with_duplicates_accumulates() {
        let mut e = RpsEngine::<i64>::zeros(&[6, 6]).unwrap();
        let batch = vec![(vec![2, 2], 3i64), (vec![2, 2], 4), (vec![2, 2], -1)];
        e.apply_batch(&batch).unwrap();
        assert_eq!(e.cell(&[2, 2]).unwrap(), 6);
    }

    #[test]
    fn batch_is_all_or_nothing_on_bad_coords() {
        let mut e = RpsEngine::<i64>::zeros(&[4, 4]).unwrap();
        let batch = vec![(vec![1, 1], 1i64), (vec![9, 9], 1)];
        assert!(e.apply_batch(&batch).is_err());
        // First update must NOT have been applied.
        assert_eq!(e.cell(&[1, 1]).unwrap(), 0);
    }

    #[test]
    fn rebuild_from_rejects_shape_mismatch() {
        let mut e = RpsEngine::<i64>::zeros(&[4, 4]).unwrap();
        let wrong = ndcube::NdCube::<i64>::zeros(&[5, 5]);
        assert!(e.rebuild_from(&wrong).is_err());
    }
}
