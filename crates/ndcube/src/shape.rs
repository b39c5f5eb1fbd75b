use crate::{LinearRegionIter, NdError, Region};

/// The extent of a d-dimensional array plus its row-major stride table.
///
/// `Shape` is the single source of truth for coordinate ↔ linear-offset
/// arithmetic in this workspace. The last dimension varies fastest.
///
/// ```
/// use ndcube::Shape;
/// let s = Shape::new(&[9, 9]).unwrap();
/// assert_eq!(s.len(), 81);
/// assert_eq!(s.linear(&[7, 5]).unwrap(), 7 * 9 + 5);
/// assert_eq!(s.coords_of(68), vec![7, 5]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    dims: Vec<usize>,
    strides: Vec<usize>,
    len: usize,
}

impl Shape {
    /// Builds a shape from per-dimension sizes.
    ///
    /// Fails on an empty dimension list, a zero-sized dimension, or a total
    /// cell count that overflows `usize`.
    pub fn new(dims: &[usize]) -> Result<Shape, NdError> {
        if dims.is_empty() {
            return Err(NdError::EmptyShape);
        }
        let mut len: usize = 1;
        for (dim, &sz) in dims.iter().enumerate() {
            if sz == 0 {
                return Err(NdError::ZeroDim { dim });
            }
            len = len.checked_mul(sz).ok_or(NdError::SizeOverflow)?;
        }
        let mut strides = vec![1usize; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        Ok(Shape {
            dims: dims.to_vec(),
            strides,
            len,
        })
    }

    /// Builds the hypercube shape `[n; d]` used throughout the paper's
    /// cost model (every dimension has the same size `n`).
    pub fn hypercube(n: usize, d: usize) -> Result<Shape, NdError> {
        Shape::new(&vec![n; d])
    }

    /// Number of dimensions `d`.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension sizes.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Size of one dimension.
    #[inline]
    pub fn dim(&self, i: usize) -> usize {
        self.dims[i]
    }

    /// Row-major strides (elements, not bytes).
    #[inline]
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the shape holds no cells. Unreachable for constructed
    /// shapes (zero dims are rejected) but required by convention.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Validates a coordinate vector against this shape.
    pub fn check(&self, coords: &[usize]) -> Result<(), NdError> {
        if coords.len() != self.dims.len() {
            return Err(NdError::DimMismatch {
                expected: self.dims.len(),
                got: coords.len(),
            });
        }
        for (dim, (&c, &sz)) in coords.iter().zip(&self.dims).enumerate() {
            if c >= sz {
                return Err(NdError::OutOfBounds {
                    dim,
                    coord: c,
                    size: sz,
                });
            }
        }
        Ok(())
    }

    /// Checked coordinate → linear offset.
    pub fn linear(&self, coords: &[usize]) -> Result<usize, NdError> {
        self.check(coords)?;
        Ok(self.linear_unchecked(coords))
    }

    /// Coordinate → linear offset without bounds checks (still safe; an
    /// out-of-range coordinate simply yields a wrong/out-of-range offset).
    ///
    /// Hot path for the engines: callers guarantee validity.
    #[inline]
    pub fn linear_unchecked(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.dims.len());
        coords.iter().zip(&self.strides).map(|(&c, &s)| c * s).sum()
    }

    /// Linear offset → coordinate vector.
    pub fn coords_of(&self, mut linear: usize) -> Vec<usize> {
        debug_assert!(linear < self.len);
        let mut out = vec![0usize; self.dims.len()];
        for (i, &s) in self.strides.iter().enumerate() {
            out[i] = linear / s;
            linear %= s;
        }
        out
    }

    /// The region spanning the entire shape: `[0,0,…] ..= [n₁−1, …]`.
    pub fn full_region(&self) -> Region {
        let lo = vec![0usize; self.ndim()];
        let hi: Vec<usize> = self.dims.iter().map(|&n| n - 1).collect();
        // lint:allow(L2): shapes reject zero-sized dims, so 0 ≤ n−1 always holds
        Region::new(&lo, &hi).expect("full region of a valid shape is valid")
    }

    /// Validates that a region fits inside this shape.
    pub fn check_region(&self, region: &Region) -> Result<(), NdError> {
        self.check(region.hi())?;
        // lo ≤ hi is guaranteed by Region's constructor, so lo is in bounds
        // whenever hi is, but the dimension count still needs checking when
        // ndim differs (covered by the check above).
        Ok(())
    }

    /// Iterates the linear offsets of every cell in `region`, in row-major
    /// order, without allocating per cell.
    pub fn linear_region_iter<'a>(&'a self, region: &'a Region) -> LinearRegionIter<'a> {
        LinearRegionIter::new(self, region)
    }

    /// Calls `f` with `(start, len)` for every maximal contiguous run of
    /// cells in `lo ..= hi`: the innermost-axis span at each outer
    /// coordinate. Row-major layout makes the last dimension the only
    /// contiguous one, so a run is `hi[last] − lo[last] + 1` cells long and
    /// starts at the linear offset of `(…outer…, lo[last])`.
    ///
    /// This is the walk the kernels in `rps-core` consume: one callback
    /// per run lets them process the run as a slice (chunked,
    /// autovectorizable) instead of paying the odometer per cell.
    /// Reuses the caller's coordinate buffer: zero allocations. Bounds
    /// must be in range (debug-asserted).
    pub fn for_each_contiguous_run_in_bounds(
        &self,
        lo: &[usize],
        hi: &[usize],
        cur: &mut Vec<usize>,
        f: impl FnMut(usize, usize),
    ) {
        debug_assert!(self.check(hi).is_ok());
        crate::for_each_run_in_bounds(&self.strides, lo, hi, cur, f);
    }

    /// Calls `f` with each (coordinates, linear offset) pair of `region`
    /// in row-major order, reusing one coordinate buffer — the pairing
    /// every cube-walking loop needs, so call sites don't hand-roll the
    /// odometer carry logic.
    pub fn for_each_region_cell(&self, region: &Region, mut f: impl FnMut(&[usize], usize)) {
        debug_assert!(self.check_region(region).is_ok());
        let mut coords = region.lo().to_vec();
        let mut linear = self.linear_unchecked(&coords);
        let d = self.ndim();
        loop {
            f(&coords, linear);
            // Odometer advance, keeping the linear offset in lock-step.
            let mut dim = d;
            loop {
                if dim == 0 {
                    return;
                }
                dim -= 1;
                if coords[dim] < region.hi()[dim] {
                    coords[dim] += 1;
                    linear += self.strides()[dim];
                    break;
                }
                // Rewind this dimension to the region's start.
                let span = coords[dim] - region.lo()[dim];
                linear -= span * self.strides()[dim];
                coords[dim] = region.lo()[dim];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]).unwrap();
        assert_eq!(s.strides(), &[12, 4, 1]);
        assert_eq!(s.len(), 24);
        assert_eq!(s.ndim(), 3);
    }

    #[test]
    fn linear_round_trip() {
        let s = Shape::new(&[3, 5, 7]).unwrap();
        for lin in 0..s.len() {
            let c = s.coords_of(lin);
            assert_eq!(s.linear(&c).unwrap(), lin);
        }
    }

    #[test]
    fn one_dimensional() {
        let s = Shape::new(&[10]).unwrap();
        assert_eq!(s.linear(&[3]).unwrap(), 3);
        assert_eq!(s.coords_of(9), vec![9]);
    }

    #[test]
    fn hypercube_shape() {
        let s = Shape::hypercube(4, 3).unwrap();
        assert_eq!(s.dims(), &[4, 4, 4]);
        assert_eq!(s.len(), 64);
    }

    #[test]
    fn rejects_empty_and_zero() {
        assert_eq!(Shape::new(&[]), Err(NdError::EmptyShape));
        assert_eq!(Shape::new(&[3, 0]), Err(NdError::ZeroDim { dim: 1 }));
    }

    #[test]
    fn rejects_overflow() {
        assert_eq!(Shape::new(&[usize::MAX, 2]), Err(NdError::SizeOverflow));
    }

    #[test]
    fn check_reports_errors() {
        let s = Shape::new(&[3, 3]).unwrap();
        assert_eq!(
            s.check(&[1]),
            Err(NdError::DimMismatch {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            s.check(&[1, 3]),
            Err(NdError::OutOfBounds {
                dim: 1,
                coord: 3,
                size: 3
            })
        );
        assert!(s.check(&[2, 2]).is_ok());
    }

    #[test]
    fn for_each_region_cell_matches_iterators() {
        let s = Shape::new(&[3, 4, 2]).unwrap();
        let r = Region::new(&[1, 0, 1], &[2, 3, 1]).unwrap();
        let mut pairs = Vec::new();
        s.for_each_region_cell(&r, |c, lin| pairs.push((c.to_vec(), lin)));
        let coords: Vec<Vec<usize>> = r.iter().collect();
        let linears: Vec<usize> = s.linear_region_iter(&r).collect();
        assert_eq!(pairs.len(), coords.len());
        for ((pc, plin), (c, lin)) in pairs.iter().zip(coords.iter().zip(&linears)) {
            assert_eq!(pc, c);
            assert_eq!(plin, lin);
        }
    }

    #[test]
    fn contiguous_runs_cover_the_region_in_order() {
        let s = Shape::new(&[3, 4, 5]).unwrap();
        let r = Region::new(&[1, 0, 2], &[2, 3, 4]).unwrap();
        let mut buf = vec![9usize; 5]; // pre-dirtied: must be cleared
        let mut via_runs = Vec::new();
        let mut count = 0;
        s.for_each_contiguous_run_in_bounds(r.lo(), r.hi(), &mut buf, |start, len| {
            via_runs.extend(start..start + len);
            count += 1;
        });
        let want: Vec<usize> = s.linear_region_iter(&r).collect();
        assert_eq!(via_runs, want);
        assert_eq!(count, 2 * 4);
    }

    #[test]
    fn contiguous_runs_one_dim_is_a_single_run() {
        let s = Shape::new(&[10]).unwrap();
        let r = Region::new(&[3], &[7]).unwrap();
        let mut buf = Vec::new();
        let mut runs = Vec::new();
        s.for_each_contiguous_run_in_bounds(r.lo(), r.hi(), &mut buf, |start, len| {
            runs.push((start, len));
        });
        assert_eq!(runs, vec![(3, 5)]);
    }

    #[test]
    fn contiguous_runs_singleton_and_unit_rows() {
        // Unit innermost extent: every run has length 1 (worst case, the
        // walk degrades to the per-cell odometer).
        let s = Shape::new(&[4, 4]).unwrap();
        let r = Region::new(&[1, 2], &[3, 2]).unwrap();
        let mut buf = Vec::new();
        let mut runs = Vec::new();
        s.for_each_contiguous_run_in_bounds(r.lo(), r.hi(), &mut buf, |start, len| {
            runs.push((start, len));
        });
        assert_eq!(runs, vec![(6, 1), (10, 1), (14, 1)]);
    }

    #[test]
    fn full_region_spans_shape() {
        let s = Shape::new(&[2, 4]).unwrap();
        let r = s.full_region();
        assert_eq!(r.lo(), &[0, 0]);
        assert_eq!(r.hi(), &[1, 3]);
        assert_eq!(r.cell_count(), 8);
    }
}
