use crate::{Region, Shape};

/// Row-major "odometer" iterator over the coordinate vectors of a [`Region`].
///
/// Yields an owned `Vec<usize>` per cell for ergonomic use in tests and
/// cold paths; the allocation-free alternatives are
/// [`RegionIter::for_each_coords`] and [`LinearRegionIter`].
pub struct RegionIter<'a> {
    region: &'a Region,
    current: Vec<usize>,
    done: bool,
}

impl<'a> RegionIter<'a> {
    pub(crate) fn new(region: &'a Region) -> Self {
        RegionIter {
            region,
            current: region.lo().to_vec(),
            done: false,
        }
    }

    /// Calls `f` with each coordinate vector in row-major order, reusing a
    /// single buffer (one allocation per call, none per cell).
    pub fn for_each_coords(region: &Region, f: impl FnMut(&[usize])) {
        let mut cur = Vec::new();
        for_each_coords_in_bounds(region.lo(), region.hi(), &mut cur, f);
    }
}

/// The run walk underlying [`Shape::for_each_contiguous_run_in_bounds`],
/// over any row-major buffer with the given `strides` (innermost stride
/// 1): calls `f(start, len)` for every innermost-axis run of
/// `lo ..= hi`, where `start = Σ coordᵢ·stridesᵢ` is the run's first
/// cell. A buffer that holds one box of a larger array passes the
/// strides of the box's own extents and box-local bounds. Reuses the
/// caller's coordinate buffer: zero allocations.
pub fn for_each_run_in_bounds(
    strides: &[usize],
    lo: &[usize],
    hi: &[usize],
    cur: &mut Vec<usize>,
    mut f: impl FnMut(usize, usize),
) {
    let d = strides.len();
    debug_assert_eq!(lo.len(), d);
    debug_assert_eq!(hi.len(), d);
    debug_assert!(lo.iter().zip(hi).all(|(l, h)| l <= h));
    debug_assert_eq!(strides[d - 1], 1, "rows are contiguous");
    cur.clear();
    cur.extend_from_slice(lo);
    let mut start: usize = lo.iter().zip(strides).map(|(&c, &s)| c * s).sum();
    let run_len = hi[d - 1] - lo[d - 1] + 1;
    loop {
        f(start, run_len);
        if d == 1 {
            return;
        }
        // Odometer over the outer dimensions only; the innermost
        // coordinate stays pinned at lo[last] (the run start).
        let mut dim = d - 1;
        loop {
            if dim == 0 {
                return;
            }
            dim -= 1;
            if cur[dim] < hi[dim] {
                cur[dim] += 1;
                start += strides[dim];
                break;
            }
            let span = cur[dim] - lo[dim];
            start -= span * strides[dim];
            cur[dim] = lo[dim];
        }
    }
}

/// The odometer walk underlying [`RegionIter::for_each_coords`],
/// taking raw `lo`/`hi` slices so callers holding bounds in scratch
/// buffers need not materialize a [`Region`] (whose constructor
/// allocates). Bounds are inclusive; `lo[i] ≤ hi[i]` must hold for every
/// dimension (debug-asserted, like the `Region` invariant it mirrors).
pub fn for_each_coords_in_bounds(
    lo: &[usize],
    hi: &[usize],
    cur: &mut Vec<usize>,
    mut f: impl FnMut(&[usize]),
) {
    let d = lo.len();
    debug_assert_eq!(d, hi.len());
    debug_assert!(lo.iter().zip(hi).all(|(l, h)| l <= h));
    cur.clear();
    cur.extend_from_slice(lo);
    loop {
        f(cur);
        // Odometer increment: bump the last dimension, carrying left.
        let mut dim = d;
        loop {
            if dim == 0 {
                return;
            }
            dim -= 1;
            if cur[dim] < hi[dim] {
                cur[dim] += 1;
                for (later, &l) in cur.iter_mut().zip(lo.iter()).skip(dim + 1) {
                    *later = l;
                }
                break;
            }
        }
    }
}

impl Iterator for RegionIter<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let out = self.current.clone();
        // Odometer increment.
        let d = self.region.ndim();
        let mut dim = d;
        loop {
            if dim == 0 {
                self.done = true;
                break;
            }
            dim -= 1;
            if self.current[dim] < self.region.hi()[dim] {
                self.current[dim] += 1;
                for later in dim + 1..d {
                    self.current[later] = self.region.lo()[later];
                }
                break;
            }
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            (0, Some(0))
        } else {
            // Remaining count is cheap to bound but fiddly to compute
            // exactly mid-iteration; the total is a correct upper bound.
            (0, Some(self.region.cell_count()))
        }
    }
}

/// Iterates the **linear offsets** of every cell of a region inside a shape,
/// in row-major order.
///
/// This is the hot-path iterator used by the engines: it never allocates
/// per cell and advances with a single add in the common case (stepping
/// along the last dimension).
pub struct LinearRegionIter<'a> {
    shape: &'a Shape,
    region: &'a Region,
    coords: Vec<usize>,
    linear: usize,
    remaining: usize,
}

impl<'a> LinearRegionIter<'a> {
    pub(crate) fn new(shape: &'a Shape, region: &'a Region) -> Self {
        debug_assert!(shape.check_region(region).is_ok());
        let coords = region.lo().to_vec();
        let linear = shape.linear_unchecked(&coords);
        LinearRegionIter {
            shape,
            region,
            coords,
            linear,
            remaining: region.cell_count(),
        }
    }
}

impl Iterator for LinearRegionIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let out = self.linear;
        // Advance the odometer and the running linear offset together.
        let d = self.coords.len();
        let last = d - 1;
        if self.coords[last] < self.region.hi()[last] {
            // Fast path: step within the innermost dimension.
            self.coords[last] += 1;
            self.linear += self.shape.strides()[last];
        } else {
            let mut dim = last;
            loop {
                // Rewind this dimension to its region start.
                let span = self.coords[dim] - self.region.lo()[dim];
                self.linear -= span * self.shape.strides()[dim];
                self.coords[dim] = self.region.lo()[dim];
                if dim == 0 {
                    break; // fully exhausted; remaining already hit 0
                }
                dim -= 1;
                if self.coords[dim] < self.region.hi()[dim] {
                    self.coords[dim] += 1;
                    self.linear += self.shape.strides()[dim];
                    break;
                }
            }
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for LinearRegionIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Region;

    #[test]
    fn region_iter_counts() {
        let r = Region::new(&[0, 0, 0], &[1, 2, 3]).unwrap();
        assert_eq!(r.iter().count(), 24);
    }

    #[test]
    fn region_iter_order_matches_linear() {
        let shape = Shape::new(&[4, 5]).unwrap();
        let r = Region::new(&[1, 2], &[3, 4]).unwrap();
        let via_coords: Vec<usize> = r.iter().map(|c| shape.linear(&c).unwrap()).collect();
        let via_linear: Vec<usize> = shape.linear_region_iter(&r).collect();
        assert_eq!(via_coords, via_linear);
    }

    #[test]
    fn linear_iter_full_shape() {
        let shape = Shape::new(&[3, 3, 3]).unwrap();
        let r = shape.full_region();
        let got: Vec<usize> = shape.linear_region_iter(&r).collect();
        let want: Vec<usize> = (0..27).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn linear_iter_singleton() {
        let shape = Shape::new(&[5, 5]).unwrap();
        let r = Region::point(&[2, 3]).unwrap();
        let got: Vec<usize> = shape.linear_region_iter(&r).collect();
        assert_eq!(got, vec![13]);
    }

    #[test]
    fn linear_iter_exact_size() {
        let shape = Shape::new(&[6, 7]).unwrap();
        let r = Region::new(&[2, 1], &[4, 5]).unwrap();
        let it = shape.linear_region_iter(&r);
        assert_eq!(it.len(), 15);
        assert_eq!(it.count(), 15);
    }

    #[test]
    fn for_each_coords_matches_iter() {
        let r = Region::new(&[1, 0, 2], &[2, 1, 3]).unwrap();
        let mut collected = Vec::new();
        RegionIter::for_each_coords(&r, |c| collected.push(c.to_vec()));
        let expected: Vec<Vec<usize>> = r.iter().collect();
        assert_eq!(collected, expected);
    }

    #[test]
    fn bounds_walk_matches_region_walk() {
        let r = Region::new(&[2, 1], &[4, 3]).unwrap();
        let mut buf = Vec::new();
        let mut via_bounds = Vec::new();
        for_each_coords_in_bounds(&[2, 1], &[4, 3], &mut buf, |c| via_bounds.push(c.to_vec()));
        let via_region: Vec<Vec<usize>> = r.iter().collect();
        assert_eq!(via_bounds, via_region);
    }

    #[test]
    fn bounds_walk_singleton() {
        let mut buf = Vec::new();
        let mut seen = Vec::new();
        for_each_coords_in_bounds(&[3, 3], &[3, 3], &mut buf, |c| seen.push(c.to_vec()));
        assert_eq!(seen, vec![vec![3, 3]]);
    }

    #[test]
    fn three_dim_region_in_larger_shape() {
        let shape = Shape::new(&[4, 4, 4]).unwrap();
        let r = Region::new(&[1, 1, 1], &[2, 3, 2]).unwrap();
        let got: Vec<usize> = shape.linear_region_iter(&r).collect();
        let want: Vec<usize> = r.iter().map(|c| shape.linear(&c).unwrap()).collect();
        assert_eq!(got, want);
        assert_eq!(got.len(), 2 * 3 * 2);
    }
}
