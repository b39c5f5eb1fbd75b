//! A d-dimensional array mapped onto device pages.
//!
//! Two layouts:
//!
//! * [`Layout::RowMajor`] — the obvious flat mapping; a box-shaped RP
//!   region straddles many pages (bad for §4.4 updates).
//! * [`Layout::BoxAligned`] — each overlay box's region is packed into its
//!   own whole number of pages, exactly the arrangement §4.4 recommends
//!   ("set the overlay box size such that the corresponding region of RP
//!   fits exactly into a constant number of disk pages; both queries and
//!   updates will then require only a constant number of disk reads or
//!   writes").

use ndcube::Shape;
use rps_core::BoxGrid;

use crate::device::PageId;
use crate::error::StorageError;
use crate::file_device::PageStore;
use crate::pool::BufferPool;

/// How array cells map to pages.
#[derive(Debug, Clone)]
pub enum Layout {
    /// Flat row-major order across the whole array.
    RowMajor,
    /// Cells grouped by overlay box; each box starts on a page boundary.
    BoxAligned(BoxGrid),
}

/// A page-resident d-dimensional array accessed through a [`BufferPool`].
#[derive(Debug)]
pub struct DiskArray<T> {
    shape: Shape,
    layout: Layout,
    first_page: PageId,
    cells_per_page: usize,
    /// For `BoxAligned`: page index (relative to `first_page`) where each
    /// box's run begins, plus one trailing entry.
    box_page_offsets: Vec<usize>,
    _marker: std::marker::PhantomData<T>,
}

/// Shared layout computation for [`DiskArray::allocate`] and
/// [`DiskArray::attach`]: total pages plus per-box page offsets.
fn layout_pages(
    shape: &Shape,
    layout: &Layout,
    cells_per_page: usize,
) -> Result<(usize, Vec<usize>), StorageError> {
    match layout {
        Layout::RowMajor => Ok((shape.len().div_ceil(cells_per_page), Vec::new())),
        Layout::BoxAligned(grid) => {
            if grid.cube_shape() != shape {
                return Err(StorageError::Layout {
                    detail: format!(
                        "grid shape {:?} does not match array shape {:?}",
                        grid.cube_shape().dims(),
                        shape.dims()
                    ),
                });
            }
            let mut offsets = Vec::with_capacity(grid.num_boxes() + 1);
            offsets.push(0usize);
            let region = grid.grid_shape().full_region();
            let mut total = 0usize;
            ndcube::RegionIter::for_each_coords(&region, |b| {
                let cells: usize = grid.extents_of(b).iter().product();
                total += cells.div_ceil(cells_per_page);
                offsets.push(total);
            });
            Ok((total, offsets))
        }
    }
}

impl<T: Clone + Default> DiskArray<T> {
    /// Allocates pages on the pool's device for an array of `shape` and
    /// returns the mapped array (all cells zero).
    pub fn allocate<S: PageStore<T>>(
        pool: &mut BufferPool<T, S>,
        shape: Shape,
        layout: Layout,
    ) -> Result<Self, StorageError> {
        let cells_per_page = pool.device().cells_per_page();
        let (total_pages, box_page_offsets) = layout_pages(&shape, &layout, cells_per_page)?;
        let first_page = pool.device_mut().alloc_pages(total_pages.max(1))?;
        Ok(DiskArray {
            shape,
            layout,
            first_page,
            cells_per_page,
            box_page_offsets,
            _marker: std::marker::PhantomData,
        })
    }

    /// Maps an array onto pages that already exist on the device
    /// (restart path) — same layout computation as [`Self::allocate`]
    /// but no allocation; the device must hold at least the required
    /// pages starting at page 0.
    pub fn attach<S: PageStore<T>>(
        pool: &mut BufferPool<T, S>,
        shape: Shape,
        layout: Layout,
    ) -> Result<Self, StorageError> {
        let cells_per_page = pool.device().cells_per_page();
        let (total_pages, box_page_offsets) = layout_pages(&shape, &layout, cells_per_page)?;
        if pool.device().num_pages() < total_pages.max(1) {
            return Err(StorageError::Layout {
                detail: format!(
                    "device holds {} pages, layout needs {}",
                    pool.device().num_pages(),
                    total_pages.max(1)
                ),
            });
        }
        Ok(DiskArray {
            shape,
            layout,
            first_page: PageId(0),
            cells_per_page,
            box_page_offsets,
            _marker: std::marker::PhantomData,
        })
    }

    /// The array's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// First device page of the array's run (pages are contiguous:
    /// `first_page .. first_page + num_pages`).
    pub fn first_page(&self) -> PageId {
        self.first_page
    }

    /// Number of device pages occupied.
    pub fn num_pages(&self) -> usize {
        match &self.layout {
            Layout::RowMajor => self.shape.len().div_ceil(self.cells_per_page),
            // lint:allow(L2): box_page_offsets always starts with a pushed 0 entry
            Layout::BoxAligned(_) => *self.box_page_offsets.last().unwrap(),
        }
    }

    /// Page and in-page slot of a cell.
    pub fn locate(&self, coords: &[usize]) -> (PageId, usize) {
        match &self.layout {
            Layout::RowMajor => {
                let lin = self.shape.linear_unchecked(coords);
                let page = lin / self.cells_per_page;
                (
                    PageId(self.first_page.0 + page as u32),
                    lin % self.cells_per_page,
                )
            }
            Layout::BoxAligned(grid) => {
                // One pass per dimension, no coordinate vectors: the box
                // index (row-major over the grid) and the cell's offset in
                // its clamped box (row-major within the box).
                let mut box_lin = 0usize;
                let mut local = 0usize;
                let dims = self.shape.dims().iter().zip(grid.grid_shape().dims());
                for ((&c, &k), (&n, &g)) in coords.iter().zip(grid.box_size()).zip(dims) {
                    let b = c / k;
                    let anchor = b * k;
                    box_lin = box_lin * g + b;
                    local = local * k.min(n - anchor) + (c - anchor);
                }
                let page = self.box_page_offsets[box_lin] + local / self.cells_per_page;
                (
                    PageId(self.first_page.0 + page as u32),
                    local % self.cells_per_page,
                )
            }
        }
    }

    /// Reads one cell through the pool.
    pub fn get<S: PageStore<T>>(
        &self,
        pool: &mut BufferPool<T, S>,
        coords: &[usize],
    ) -> Result<T, StorageError> {
        let (page, slot) = self.locate(coords);
        pool.with_page(page, |data| data[slot].clone())
    }

    /// Mutates one cell through the pool.
    pub fn modify<S: PageStore<T>>(
        &self,
        pool: &mut BufferPool<T, S>,
        coords: &[usize],
        f: impl FnOnce(&mut T),
    ) -> Result<(), StorageError> {
        let (page, slot) = self.locate(coords);
        pool.with_page_mut(page, |data| f(&mut data[slot]))
    }

    /// Writes one cell through the pool.
    pub fn set<S: PageStore<T>>(
        &self,
        pool: &mut BufferPool<T, S>,
        coords: &[usize],
        value: T,
    ) -> Result<(), StorageError> {
        self.modify(pool, coords, |c| *c = value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{BlockDevice, DeviceConfig};

    fn pool(cpp: usize) -> BufferPool<i64> {
        BufferPool::new(
            BlockDevice::new(DeviceConfig {
                cells_per_page: cpp,
            }),
            4,
        )
    }

    #[test]
    fn row_major_round_trip() {
        let mut pool = pool(4);
        let arr =
            DiskArray::allocate(&mut pool, Shape::new(&[5, 5]).unwrap(), Layout::RowMajor).unwrap();
        assert_eq!(arr.num_pages(), 7); // ⌈25/4⌉
        for r in 0..5 {
            for c in 0..5 {
                arr.set(&mut pool, &[r, c], (r * 5 + c) as i64).unwrap();
            }
        }
        for r in 0..5 {
            for c in 0..5 {
                assert_eq!(arr.get(&mut pool, &[r, c]).unwrap(), (r * 5 + c) as i64);
            }
        }
    }

    #[test]
    fn box_aligned_pages_per_box() {
        let mut pool = pool(4);
        let shape = Shape::new(&[6, 6]).unwrap();
        let grid = BoxGrid::new(shape.clone(), &[3, 3]).unwrap();
        let arr = DiskArray::allocate(&mut pool, shape, Layout::BoxAligned(grid)).unwrap();
        // 4 boxes × ⌈9/4⌉ = 3 pages each.
        assert_eq!(arr.num_pages(), 12);
    }

    #[test]
    fn box_aligned_round_trip_ragged() {
        let mut pool = pool(5);
        let shape = Shape::new(&[7, 5]).unwrap();
        let grid = BoxGrid::new(shape.clone(), &[3, 3]).unwrap();
        let arr = DiskArray::allocate(&mut pool, shape, Layout::BoxAligned(grid)).unwrap();
        for r in 0..7 {
            for c in 0..5 {
                arr.set(&mut pool, &[r, c], (r * 100 + c) as i64).unwrap();
            }
        }
        for r in 0..7 {
            for c in 0..5 {
                assert_eq!(
                    arr.get(&mut pool, &[r, c]).unwrap(),
                    (r * 100 + c) as i64,
                    "({r},{c})"
                );
            }
        }
    }

    #[test]
    fn box_aligned_region_stays_in_its_pages() {
        // All cells of one box must land in that box's page run — the
        // §4.4 property that bounds update I/O.
        let mut pool = pool(4);
        let shape = Shape::new(&[6, 6]).unwrap();
        let grid = BoxGrid::new(shape.clone(), &[3, 3]).unwrap();
        let arr = DiskArray::allocate(&mut pool, shape, Layout::BoxAligned(grid.clone())).unwrap();
        let region = grid.box_region(&[1, 0]); // box 2 in linear order
        let pages: std::collections::HashSet<u32> =
            region.iter().map(|c| arr.locate(&c).0 .0).collect();
        assert!(pages.len() <= 3, "box region spans {} pages", pages.len());
        // Disjoint from box (0,0)'s pages.
        let pages0: std::collections::HashSet<u32> = grid
            .box_region(&[0, 0])
            .iter()
            .map(|c| arr.locate(&c).0 .0)
            .collect();
        assert!(pages.is_disjoint(&pages0));
    }

    #[test]
    fn modify_accumulates() {
        let mut pool = pool(8);
        let arr =
            DiskArray::allocate(&mut pool, Shape::new(&[4]).unwrap(), Layout::RowMajor).unwrap();
        arr.modify(&mut pool, &[2], |c| *c += 5).unwrap();
        arr.modify(&mut pool, &[2], |c| *c += 7).unwrap();
        assert_eq!(arr.get(&mut pool, &[2]).unwrap(), 12);
    }
}
