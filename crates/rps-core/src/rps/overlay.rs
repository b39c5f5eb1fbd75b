//! The overlay structure (§3.1): per-box anchor + border values, stored
//! compactly (only `∏tᵢ − ∏(tᵢ−1)` cells per box, never the full box).

use ndcube::Shape;

use crate::rps::grid::BoxGrid;
use crate::rps::scratch::KernelScratch;
use crate::value::GroupValue;

/// Read-only view of overlay storage, for the prefix reconstruction.
///
/// Implemented by the flat [`Overlay`] and by the versioned engine's
/// snapshots ([`crate::versioned::VersionedEngine`]), whose overlay is
/// one copy-on-write granule per dim-0 box row, so the
/// inclusion–exclusion arithmetic in [`overlay_prefix_part_src`] — the
/// subtlest in the workspace — exists exactly once regardless of how
/// the cells are laid out.
pub(crate) trait OverlaySource<T> {
    /// The per-box offset table: `offsets()[b] .. offsets()[b+1]` is box
    /// `b`'s slot range in the flat cell numbering.
    fn offsets(&self) -> &[usize];

    /// Reads the stored cell at flat index `idx`. The index always lies
    /// in the slot range of a box whose dim-0 grid index is `box_row` —
    /// chunked implementations use the row to locate the owning slab,
    /// the flat [`Overlay`] ignores it.
    fn cell(&self, box_row: usize, idx: usize) -> &T;
}

impl<T: GroupValue> OverlaySource<T> for Overlay<T> {
    #[inline]
    fn offsets(&self) -> &[usize] {
        &self.box_offsets
    }

    #[inline]
    fn cell(&self, _box_row: usize, idx: usize) -> &T {
        &self.cells[idx]
    }
}

/// The overlay's share of a prefix-sum reconstruction — anchor plus the
/// border combination for `x` — generic over the storage layout.
///
/// This is the single home of the alternating corner sum (see
/// [`crate::rps::RpsEngine::prefix_sum`] for the derivation); the public
/// [`crate::rps::overlay_prefix_part_with`] delegates here with the flat
/// [`Overlay`], the versioned engine's snapshots with their granules.
/// Returns the accumulated value and the number of overlay cells read.
///
/// On return `ks.b`, `ks.extents` and `ks.offsets` hold `x`'s box index,
/// that box's clamped extents and `x`'s offsets within it: the versioned
/// engine reads `x`'s RP cell from its box granule through them.
pub(crate) fn overlay_prefix_part_src<T, S>(
    grid: &BoxGrid,
    src: &S,
    x: &[usize],
    ks: &mut KernelScratch,
) -> (T, u64)
where
    T: GroupValue,
    S: OverlaySource<T> + ?Sized,
{
    let d = x.len();
    ks.ensure(d);
    let KernelScratch {
        b,
        anchor,
        extents,
        offsets,
        e,
        ..
    } = ks;
    grid.box_index_into(x, b);
    let box_lin = grid.grid_shape().linear_unchecked(b);
    let box_row = b.first().copied().unwrap_or(0);
    grid.anchor_into(b, anchor);
    grid.extents_into(b, extents);

    let base = src.offsets()[box_lin];

    // Anchor value: everything preceding the box's anchor cell (the
    // anchor is always slot 0 of its box).
    let mut acc = src.cell(box_row, base).clone();
    let mut reads = 1u64;

    for (o, (&xi, &ai)) in offsets.iter_mut().zip(x.iter().zip(anchor.iter())) {
        *o = xi - ai;
    }

    if offsets.contains(&0) {
        // x itself is a stored overlay cell: every other border term
        // cancels in pairs and the sum telescopes to
        // anchor + border[x] (+ RP[x] added by the caller). At x = α the
        // border is the (zero-valued by definition) anchor slot itself
        // and is skipped.
        if offsets.iter().any(|&o| o != 0) {
            let slot = BoxGrid::slot_of(offsets, extents)
                // lint:allow(L2): x has a non-zero offset, so its border slot is stored
                .expect("zero-offset cells are stored");
            acc.add_assign(src.cell(box_row, base + slot));
            reads += 1;
        }
    } else {
        // Interior x: alternating sum over the proper corner cells of
        // the sub-box α..=x. Subset S of dimensions taking x's offset.
        for mask in 1u64..((1u64 << d) - 1) {
            for (i, (ei, &off)) in e.iter_mut().zip(offsets.iter()).enumerate() {
                *ei = if mask & (1 << i) != 0 { off } else { 0 };
            }
            let slot = BoxGrid::slot_of(e, extents)
                // lint:allow(L2): mask < 2^d−1 keeps at least one zero offset, so the slot is stored
                .expect("corner cells have a zero offset");
            let term = src.cell(box_row, base + slot);
            // lint:allow(L4): u32 → usize is lossless on every supported target
            let s = mask.count_ones() as usize;
            if (d - 1 - s).is_multiple_of(2) {
                acc.add_assign(term);
            } else {
                acc.sub_assign(term);
            }
            reads += 1;
        }
    }
    (acc, reads)
}

/// Compact storage for every overlay box's anchor and border values.
///
/// All boxes' stored cells live in one flat `Vec`, indexed by a per-box
/// offset table; within a box, cells are numbered by
/// [`BoxGrid::slot_of`] (slot 0 = anchor).
#[derive(Debug, Clone)]
pub struct Overlay<T> {
    grid: BoxGrid,
    /// `box_offsets[b] .. box_offsets[b+1]` is box `b`'s slot range.
    box_offsets: Vec<usize>,
    cells: Vec<T>,
}

impl<T: GroupValue> Overlay<T> {
    /// An all-zero overlay for the given grid (consistent with an all-zero
    /// cube).
    pub fn zeros(grid: BoxGrid) -> Overlay<T> {
        let num_boxes = grid.num_boxes();
        let mut box_offsets = Vec::with_capacity(num_boxes + 1);
        box_offsets.push(0usize);
        let grid_region = grid.grid_shape().full_region();
        let mut total = 0usize;
        ndcube::RegionIter::for_each_coords(&grid_region, |b| {
            total += BoxGrid::stored_cells(&grid.extents_of(b));
            box_offsets.push(total);
        });
        let cells = vec![T::zero(); total];
        Overlay {
            grid,
            box_offsets,
            cells,
        }
    }

    /// The grid this overlay partitions.
    pub fn grid(&self) -> &BoxGrid {
        &self.grid
    }

    /// Total stored cells across all boxes — the overlay's storage
    /// footprint (Figure 16 accounting).
    pub fn storage_cells(&self) -> usize {
        self.cells.len()
    }

    /// Linear box number of a per-dimension box index.
    #[inline]
    pub fn box_linear(&self, box_idx: &[usize]) -> usize {
        self.grid.grid_shape().linear_unchecked(box_idx)
    }

    /// Flat index of a stored cell, or `None` for interior (unstored)
    /// offsets.
    #[inline]
    pub fn cell_index(&self, box_lin: usize, e: &[usize], extents: &[usize]) -> Option<usize> {
        BoxGrid::slot_of(e, extents).map(|slot| self.box_offsets[box_lin] + slot)
    }

    /// Flat index of a box's anchor (always its slot 0).
    #[inline]
    pub fn anchor_index(&self, box_lin: usize) -> usize {
        self.box_offsets[box_lin]
    }

    /// Reads a stored cell by flat index.
    #[inline]
    pub fn get(&self, idx: usize) -> &T {
        &self.cells[idx]
    }

    /// Mutates a stored cell by flat index.
    #[inline]
    pub fn get_mut(&mut self, idx: usize) -> &mut T {
        &mut self.cells[idx]
    }

    /// Reads the overlay value stored for a *global* cube coordinate, or
    /// `None` when that coordinate is an interior cell of its box.
    ///
    /// Convenience for tests and figure reproduction; engines use the flat
    /// index paths.
    pub fn value_at(&self, coords: &[usize]) -> Option<&T> {
        let b = self.grid.box_index_of(coords);
        let anchor = self.grid.anchor_of(&b);
        let extents = self.grid.extents_of(&b);
        let e: Vec<usize> = coords.iter().zip(&anchor).map(|(&c, &a)| c - a).collect();
        let box_lin = self.box_linear(&b);
        self.cell_index(box_lin, &e, &extents)
            .map(|i| &self.cells[i])
    }

    /// The offset table and the mutable flat cell buffer together, for the
    /// update walks: the offset table stays readable while the cells are
    /// written.
    #[inline]
    pub(crate) fn parts_mut(&mut self) -> (&[usize], &mut [T]) {
        (&self.box_offsets, &mut self.cells)
    }

    /// Consumes the overlay into its offset table and flat cell buffer.
    /// The versioned engine uses this to decompose an overlay into its
    /// copy-on-write box-row slabs.
    #[inline]
    pub(crate) fn into_parts(self) -> (Vec<usize>, Vec<T>) {
        (self.box_offsets, self.cells)
    }

    /// The number of stored cells of one box.
    pub fn box_stored_count(&self, box_lin: usize) -> usize {
        self.box_offsets[box_lin + 1] - self.box_offsets[box_lin]
    }

    /// The cube shape this overlay belongs to.
    pub fn cube_shape(&self) -> &Shape {
        self.grid.cube_shape()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndcube::Shape;

    fn overlay_9x9_k3() -> Overlay<i64> {
        let grid = BoxGrid::new(Shape::new(&[9, 9]).unwrap(), &[3, 3]).unwrap();
        Overlay::zeros(grid)
    }

    #[test]
    fn storage_matches_formula() {
        // 9 boxes × 5 stored cells (k^d − (k−1)^d = 5).
        let o = overlay_9x9_k3();
        assert_eq!(o.storage_cells(), 45);
        for b in 0..9 {
            assert_eq!(o.box_stored_count(b), 5);
        }
    }

    #[test]
    fn ragged_storage() {
        let grid = BoxGrid::new(Shape::new(&[5, 5]).unwrap(), &[3, 3]).unwrap();
        let o = Overlay::<i64>::zeros(grid);
        // Boxes: (0,0) 3×3→5, (0,1) 3×2→4, (1,0) 2×3→4, (1,1) 2×2→3.
        assert_eq!(o.storage_cells(), 5 + 4 + 4 + 3);
    }

    #[test]
    fn value_at_distinguishes_stored_and_interior() {
        let mut o = overlay_9x9_k3();
        // (6,3) is an anchor; (7,4) is interior to box (2,1).
        let b = o.grid().box_index_of(&[6, 3]);
        let lin = o.box_linear(&b);
        let idx = o.anchor_index(lin);
        *o.get_mut(idx) = 86;
        assert_eq!(o.value_at(&[6, 3]), Some(&86));
        assert_eq!(o.value_at(&[7, 4]), None);
    }

    #[test]
    fn cell_index_addresses_all_slots_uniquely() {
        let o = overlay_9x9_k3();
        let mut seen = std::collections::HashSet::new();
        let grid_region = o.grid().grid_shape().full_region();
        for b in &grid_region {
            let lin = o.box_linear(&b);
            let extents = o.grid().extents_of(&b);
            for e0 in 0..3 {
                for e1 in 0..3 {
                    if let Some(i) = o.cell_index(lin, &[e0, e1], &extents) {
                        assert!(seen.insert(i), "index {i} reused");
                        assert!(i < o.storage_cells());
                    }
                }
            }
        }
        assert_eq!(seen.len(), 45);
    }
}
