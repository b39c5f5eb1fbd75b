//! The paper's §4.4 deployment: overlay in main memory, RP on disk.

use std::cell::RefCell;
use std::collections::HashMap;

use ndcube::{NdCube, NdError, Region, Shape};
use rps_core::obs::EngineKind;
use rps_core::rps::{
    apply_overlay_update_with, build_overlay, for_each_rp_cascade_cell,
    inverse_relative_prefix_sums, overlay_prefix_part_with, range_sum, range_sums,
    relative_prefix_sums, with_scratch, KernelScratch, PrefixSource,
};
use rps_core::{BoxGrid, CostStats, GroupValue, Overlay, RangeSumEngine, StatsCell};

use crate::device::{BlockDevice, DeviceConfig, PageId};
use crate::disk_array::{DiskArray, Layout};
use crate::error::{to_nd_error, StorageError};
use crate::file_device::PageStore;
use crate::pool::{BufferPool, IoStats};

/// Outcome of a [`DiskRpsEngine::scrub`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// RP pages checked.
    pub pages_checked: usize,
    /// Pages found corrupt (checksum mismatch or unreadable payload).
    pub corrupted: Vec<PageId>,
    /// Pages rebuilt from the base cube.
    pub rebuilt: usize,
}

/// Relative-prefix-sum engine with a disk-resident RP array.
///
/// The overlay (anchors + borders) lives in memory — §4.4 shows it needs a
/// small fraction of RP's storage (≈ 2% for 100×100 boxes) — while RP sits
/// behind an LRU [`BufferPool`] on a [`crate::BlockDevice`]. With the
/// box-aligned layout, each query touches at most one RP page per corner
/// and each update touches only the page run of a single box: the
/// constant-block-I/O behaviour the paper predicts.
///
/// The buffer pool is interior-mutable (`RefCell`): faulting a page on a
/// read query mutates LRU state, exactly as in a real database engine
/// where reads dirty the cache but not the data. The engine is
/// single-threaded (`!Sync`), which the `RefCell` encodes in the type.
///
/// Storage failures surface as [`NdError::Backend`] through the
/// [`RangeSumEngine`] trait. An update that fails mid-cascade may have
/// partially applied its RP writes; pair the engine with
/// [`crate::DurableEngine`] so the WAL record makes the update
/// recoverable.
#[derive(Debug)]
pub struct DiskRpsEngine<T, S = BlockDevice<T>> {
    grid: BoxGrid,
    overlay: Overlay<T>,
    rp: DiskArray<T>,
    pool: RefCell<BufferPool<T, S>>,
    stats: StatsCell,
}

impl<T: GroupValue + Default> DiskRpsEngine<T> {
    /// Builds from a cube with uniform box side `k`, the given device
    /// geometry, and `pool_frames` buffer-pool frames. RP is laid out
    /// box-aligned.
    pub fn from_cube_uniform(
        a: &NdCube<T>,
        k: usize,
        device: DeviceConfig,
        pool_frames: usize,
    ) -> Result<Self, StorageError> {
        let grid = BoxGrid::new(a.shape().clone(), &vec![k; a.ndim()])?;
        Self::from_cube_with_grid(a, grid, device, pool_frames, true)
    }

    /// Builds with an explicit grid and a choice of RP layout
    /// (`box_aligned = false` gives the flat row-major layout, the
    /// configuration the §4.4 benches compare against).
    pub fn from_cube_with_grid(
        a: &NdCube<T>,
        grid: BoxGrid,
        device: DeviceConfig,
        pool_frames: usize,
        box_aligned: bool,
    ) -> Result<Self, StorageError> {
        let pool = BufferPool::new(BlockDevice::new(device), pool_frames);
        Self::from_cube_with_pool(a, grid, pool, box_aligned)
    }
}

impl<T: GroupValue + Default, S: PageStore<T>> DiskRpsEngine<T, S> {
    /// Builds on an explicit buffer pool — the entry point for custom
    /// page stores such as the persistent [`crate::FileDevice`].
    pub fn from_cube_with_pool(
        a: &NdCube<T>,
        grid: BoxGrid,
        mut pool: BufferPool<T, S>,
        box_aligned: bool,
    ) -> Result<Self, StorageError> {
        // Construction happens in memory (one pass), then RP is spilled
        // to the device page by page.
        let rp_mem = relative_prefix_sums(a, &grid);
        let overlay = build_overlay(a, &rp_mem, grid.clone());

        let layout = if box_aligned {
            Layout::BoxAligned(grid.clone())
        } else {
            Layout::RowMajor
        };
        let rp = DiskArray::allocate(&mut pool, a.shape().clone(), layout)?;
        let full = a.shape().full_region();
        let mut io_err: Option<StorageError> = None;
        a.shape().for_each_region_cell(&full, |coords, lin| {
            if io_err.is_some() {
                return;
            }
            if let Err(e) = rp.set(&mut pool, coords, rp_mem.get_linear(lin).clone()) {
                io_err = Some(e);
            }
        });
        if let Some(e) = io_err {
            return Err(e);
        }
        pool.flush()?;
        pool.reset_stats();

        Ok(DiskRpsEngine {
            grid,
            overlay,
            rp,
            pool: RefCell::new(pool),
            stats: StatsCell::new(),
        })
    }

    /// Reattaches to an RP array already resident on a page store —
    /// restart after a shutdown with a persistent device (e.g.
    /// [`crate::FileDevice`]). Reads RP back (O(N) page reads), recovers
    /// `A` by the inverse sweep, and rebuilds the in-memory overlay.
    ///
    /// The caller must supply the same grid and layout the engine was
    /// created with; RP pages must start at the store's first page, as
    /// [`Self::from_cube_with_pool`] lays them out on a fresh device.
    pub fn reopen(
        grid: BoxGrid,
        mut pool: BufferPool<T, S>,
        box_aligned: bool,
    ) -> Result<Self, StorageError> {
        let shape = grid.cube_shape().clone();
        let layout = if box_aligned {
            Layout::BoxAligned(grid.clone())
        } else {
            Layout::RowMajor
        };
        // Re-derive the page mapping without allocating: the device
        // already holds the pages, so allocation would double them.
        let rp = DiskArray::attach(&mut pool, shape.clone(), layout)?;

        // Read RP back into memory to rebuild the overlay.
        let mut rp_mem = NdCube::filled(shape.dims(), T::default())?;
        let full = shape.full_region();
        let mut io_err: Option<StorageError> = None;
        shape.for_each_region_cell(&full, |coords, lin| {
            if io_err.is_some() {
                return;
            }
            match rp.get(&mut pool, coords) {
                Ok(v) => *rp_mem.get_linear_mut(lin) = v,
                Err(e) => io_err = Some(e),
            }
        });
        if let Some(e) = io_err {
            return Err(e);
        }
        let a = inverse_relative_prefix_sums(&rp_mem, &grid);
        let overlay = build_overlay(&a, &rp_mem, grid.clone());
        pool.reset_stats();
        Ok(DiskRpsEngine {
            grid,
            overlay,
            rp,
            pool: RefCell::new(pool),
            stats: StatsCell::new(),
        })
    }

    /// Runs `f` against the underlying page store (e.g. to inspect a
    /// [`crate::CheckedStore`]'s quarantine or a [`crate::FaultyStore`]'s
    /// injection counters).
    pub fn with_device<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(self.pool.borrow().device())
    }

    /// Runs `f` against the underlying page store mutably (tests use
    /// this to plant corruption beneath the engine).
    pub fn with_device_mut<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(self.pool.borrow_mut().device_mut())
    }

    /// Page-level I/O counters (reads, writes, hits, misses, evictions).
    pub fn io_stats(&self) -> IoStats {
        self.pool.borrow().io_stats()
    }

    /// Resets page-level counters.
    pub fn reset_io_stats(&self) {
        self.pool.borrow_mut().reset_stats();
    }

    /// Writes all dirty pages back to the device.
    pub fn flush(&self) -> Result<(), StorageError> {
        self.pool.borrow_mut().flush()
    }

    /// The box partition in use.
    pub fn grid(&self) -> &BoxGrid {
        &self.grid
    }

    /// Number of device pages the RP array occupies.
    pub fn rp_pages(&self) -> usize {
        self.rp.num_pages()
    }

    /// In-memory overlay cells (the RAM footprint §4.4 reasons about).
    pub fn overlay_cells(&self) -> usize {
        self.overlay.storage_cells()
    }

    /// Reads every RP page directly from the device and reports the
    /// pages whose payload fails validation (a [`crate::CheckedStore`]
    /// beneath the pool turns checksum mismatches into
    /// [`StorageError::Corrupted`], which this collects). Dirty cached
    /// pages are flushed first so the device state is current; other
    /// error kinds propagate.
    pub fn verify_pages(&self) -> Result<Vec<PageId>, StorageError> {
        self.pool.borrow_mut().flush()?;
        let pool = self.pool.borrow();
        let dev = pool.device();
        let first = self.rp.first_page().0;
        let mut corrupt = Vec::new();
        let mut buf = Vec::new();
        for p in 0..self.rp.num_pages() {
            let id = PageId(first + p as u32);
            match dev.read_page(id, &mut buf) {
                Ok(()) => {}
                Err(StorageError::Corrupted { .. }) => corrupt.push(id),
                Err(e) => return Err(e),
            }
        }
        Ok(corrupt)
    }

    /// Detects corrupt RP pages and rebuilds them from `base`, the
    /// engine's current logical cube `A` (e.g. reloaded from the last
    /// snapshot plus replayed WAL). Quarantined pages are rewritten with
    /// freshly computed RP values — refreshing their checksums — the
    /// overlay is rebuilt to match, and the pool cache is dropped so no
    /// stale pre-repair bytes survive.
    ///
    /// Graceful degradation, not silent repair: the report lists every
    /// page that was corrupt, and corruption the base cube cannot fix
    /// (wrong shape) is a typed error.
    pub fn scrub(&mut self, base: &NdCube<T>) -> Result<ScrubReport, StorageError> {
        let corrupted = self.verify_pages()?;
        let pages_checked = self.rp.num_pages();
        crate::obs::storage()
            .scrub_pages_checked
            .add(u64::try_from(pages_checked).unwrap_or(u64::MAX));
        if corrupted.is_empty() {
            return Ok(ScrubReport {
                pages_checked,
                corrupted,
                rebuilt: 0,
            });
        }
        if base.shape() != self.rp.shape() {
            return Err(StorageError::Layout {
                detail: format!(
                    "scrub base cube shape {:?} does not match engine shape {:?}",
                    base.shape().dims(),
                    self.rp.shape().dims()
                ),
            });
        }
        let rp_mem = relative_prefix_sums(base, &self.grid);
        let pool = self.pool.get_mut();
        let cells_per_page = pool.device().cells_per_page();
        let mut rebuilt_pages: HashMap<PageId, Vec<T>> = corrupted
            .iter()
            .map(|&id| (id, vec![T::default(); cells_per_page]))
            .collect();
        let full = self.rp.shape().full_region();
        let rp = &self.rp;
        self.rp.shape().for_each_region_cell(&full, |coords, lin| {
            let (page, slot) = rp.locate(coords);
            if let Some(buf) = rebuilt_pages.get_mut(&page) {
                buf[slot] = rp_mem.get_linear(lin).clone();
            }
        });
        for (page, buf) in &rebuilt_pages {
            pool.device_mut().write_page(*page, buf)?;
        }
        // The pool may cache pre-repair bytes for the rewritten pages.
        pool.drop_cache()?;
        // The overlay is rebuilt from the same base so overlay and RP
        // agree again even if the corruption predated overlay updates.
        self.overlay = build_overlay(base, &rp_mem, self.grid.clone());
        crate::obs::storage()
            .scrub_repairs
            .add(u64::try_from(corrupted.len()).unwrap_or(u64::MAX));
        Ok(ScrubReport {
            pages_checked,
            rebuilt: corrupted.len(),
            corrupted,
        })
    }

    /// The prefix region sum `Sum(A[0,…,0] : A[x])` — the same
    /// reconstruction as [`rps_core::RpsEngine::prefix_sum`], with the
    /// single RP read going to disk.
    pub fn prefix_sum(&self, x: &[usize]) -> Result<T, NdError> {
        self.rp.shape().check(x)?;
        let (acc, reads) = with_scratch(|s| self.prefix(x, s.split().1))?;
        self.stats.reads(reads);
        Ok(acc)
    }

    /// Answers a batch of range-sum queries with a shared corner cache,
    /// through the same batch path as [`rps_core::RpsEngine::query_many`]
    /// ([`range_sums`]). Adjacent dashboard panels share corners, and
    /// every cache hit saves a buffer-pool probe (potentially a page
    /// fault).
    pub fn query_many(&self, regions: &[Region]) -> Result<Vec<T>, NdError> {
        range_sums(self, regions)
    }
}

/// The buffer pool: the in-memory overlay part plus one RP read that
/// can fail.
impl<T: GroupValue + Default, S: PageStore<T>> PrefixSource<T> for DiskRpsEngine<T, S> {
    const KIND: EngineKind = EngineKind::Disk;

    fn bounds(&self) -> &Shape {
        self.rp.shape()
    }

    fn prefix(&self, x: &[usize], ks: &mut KernelScratch) -> Result<(T, u64), NdError> {
        let (mut acc, reads) = overlay_prefix_part_with(&self.grid, &self.overlay, x, ks);
        // The single disk access of the reconstruction: one RP cell.
        let rp_val = self.rp.get(&mut self.pool.borrow_mut(), x);
        acc.add_assign(&rp_val.map_err(to_nd_error)?);
        Ok((acc, reads + 1))
    }

    fn stats_cell(&self) -> Option<&StatsCell> {
        Some(&self.stats)
    }
}

impl<T: GroupValue + Default, S: PageStore<T>> RangeSumEngine<T> for DiskRpsEngine<T, S> {
    fn name(&self) -> &'static str {
        "disk-rps"
    }

    fn shape(&self) -> &Shape {
        self.rp.shape()
    }

    fn query(&self, region: &Region) -> Result<T, NdError> {
        let _span = rps_obs::Span::enter(
            "disk.query",
            &rps_core::obs::engine(EngineKind::Disk).query_ns,
        );
        range_sum(self, region)
    }

    fn update(&mut self, coords: &[usize], delta: T) -> Result<(), NdError> {
        self.rp.shape().check(coords)?;
        let m = rps_core::obs::engine(rps_core::obs::EngineKind::Disk);
        m.updates.inc();
        let _span = rps_obs::Span::enter("disk.update", &m.update_ns);
        if delta.is_zero() {
            // Same short-circuit as the in-memory engine: adding the
            // identity must not fault or dirty any RP page.
            self.stats.update();
            return Ok(());
        }

        let mut io_err: Option<StorageError> = None;
        let writes = with_scratch(|s| {
            let (_, ks) = s.split();
            // RP cascade within the box, through the pool.
            let mut writes = 0u64;
            {
                let pool = self.pool.get_mut();
                let rp = &self.rp;
                for_each_rp_cascade_cell(&self.grid, coords, ks, |cur| {
                    if io_err.is_some() {
                        return;
                    }
                    match rp.modify(pool, cur, |c| c.add_assign(&delta)) {
                        Ok(()) => writes += 1,
                        Err(e) => io_err = Some(e),
                    }
                });
            }
            if io_err.is_some() {
                return writes;
            }

            // Overlay walk — the overlay lives in memory, so this half is
            // shared verbatim with the in-memory engine.
            writes + apply_overlay_update_with(&self.grid, &mut self.overlay, coords, &delta, ks)
        });
        if let Some(e) = io_err {
            // The RP cascade may be partially applied; the caller's WAL
            // record (via DurableEngine) is what makes this recoverable.
            return Err(to_nd_error(e));
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
        self.rp.shape().len() + self.overlay.storage_cells()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube_16() -> NdCube<i64> {
        NdCube::from_fn(&[16, 16], |c| ((c[0] * 31 + c[1] * 7) % 11) as i64).unwrap()
    }

    #[test]
    fn matches_in_memory_rps() {
        let a = cube_16();
        let disk = DiskRpsEngine::from_cube_uniform(&a, 4, DeviceConfig { cells_per_page: 16 }, 8)
            .unwrap();
        let mem = rps_core::RpsEngine::from_cube_uniform(&a, 4).unwrap();
        for (lo, hi) in [([0, 0], [15, 15]), ([3, 5], [12, 14]), ([7, 7], [7, 7])] {
            let r = Region::new(&lo, &hi).unwrap();
            assert_eq!(disk.query(&r).unwrap(), mem.query(&r).unwrap(), "{r:?}");
        }
    }

    #[test]
    fn updates_persist_through_pool() {
        let a = cube_16();
        let mut disk = DiskRpsEngine::from_cube_uniform(
            &a,
            4,
            DeviceConfig { cells_per_page: 8 },
            2, // tiny pool: forces evictions + write-backs
        )
        .unwrap();
        let full = Region::new(&[0, 0], &[15, 15]).unwrap();
        let before = disk.query(&full).unwrap();
        disk.update(&[5, 9], 100).unwrap();
        disk.update(&[0, 0], -7).unwrap();
        assert_eq!(disk.query(&full).unwrap(), before + 93);
        assert!(disk.io_stats().evictions > 0, "tiny pool must evict");
    }

    #[test]
    fn box_aligned_update_touches_one_box_run() {
        // §4.4: with box-aligned layout, an update's RP I/O is confined
        // to the pages of one box.
        let a = cube_16();
        let mut disk = DiskRpsEngine::from_cube_uniform(
            &a,
            4,
            DeviceConfig { cells_per_page: 16 }, // one box = exactly 1 page
            4,
        )
        .unwrap();
        disk.reset_io_stats();
        disk.update(&[1, 1], 1).unwrap();
        disk.flush().unwrap();
        let io = disk.io_stats();
        assert_eq!(io.page_reads, 1, "update should fault exactly one RP page");
        assert_eq!(io.page_writes, 1, "flush writes exactly one dirty page");
    }

    #[test]
    fn query_faults_bounded_pages() {
        let a = cube_16();
        let disk = DiskRpsEngine::from_cube_uniform(&a, 4, DeviceConfig { cells_per_page: 16 }, 8)
            .unwrap();
        disk.reset_io_stats();
        let r = Region::new(&[2, 3], &[13, 12]).unwrap();
        disk.query(&r).unwrap();
        // ≤ 4 corners ⇒ ≤ 4 distinct RP pages.
        assert!(disk.io_stats().page_reads <= 4);
    }

    #[test]
    fn overlay_is_small_fraction_of_rp() {
        let a = NdCube::from_fn(&[100, 100], |c| (c[0] + c[1]) as i64).unwrap();
        let disk = DiskRpsEngine::from_cube_uniform(
            &a,
            10,
            DeviceConfig {
                cells_per_page: 100,
            },
            16,
        )
        .unwrap();
        let overlay = disk.overlay_cells() as f64;
        let rp = (disk.rp_pages() * 100) as f64;
        assert!(overlay / rp < 0.25, "overlay {overlay} vs rp {rp}");
    }

    #[test]
    fn zero_delta_update_does_no_io() {
        let a = cube_16();
        let mut disk =
            DiskRpsEngine::from_cube_uniform(&a, 4, DeviceConfig { cells_per_page: 16 }, 4)
                .unwrap();
        disk.reset_io_stats();
        disk.update(&[5, 5], 0).unwrap();
        disk.flush().unwrap();
        let io = disk.io_stats();
        assert_eq!(io.page_reads, 0);
        assert_eq!(io.page_writes, 0);
    }

    #[test]
    fn set_round_trip() {
        let a = cube_16();
        let mut disk =
            DiskRpsEngine::from_cube_uniform(&a, 4, DeviceConfig { cells_per_page: 32 }, 8)
                .unwrap();
        disk.set(&[3, 3], 42).unwrap();
        assert_eq!(disk.cell(&[3, 3]).unwrap(), 42);
    }

    #[test]
    fn three_dimensional_disk_engine() {
        let a = NdCube::from_fn(&[8, 8, 8], |c| (c[0] + 2 * c[1] + 3 * c[2]) as i64).unwrap();
        let mut disk =
            DiskRpsEngine::from_cube_uniform(&a, 2, DeviceConfig { cells_per_page: 8 }, 16)
                .unwrap();
        let mem = rps_core::RpsEngine::from_cube_uniform(&a, 2).unwrap();
        let r = Region::new(&[1, 2, 3], &[6, 7, 7]).unwrap();
        assert_eq!(disk.query(&r).unwrap(), mem.query(&r).unwrap());
        disk.update(&[4, 4, 4], 99).unwrap();
        assert_eq!(disk.query(&r).unwrap(), mem.query(&r).unwrap() + 99);
    }

    #[test]
    fn row_major_layout_also_correct() {
        let a = cube_16();
        let shape = a.shape().clone();
        let grid = BoxGrid::new(shape, &[4, 4]).unwrap();
        let disk = DiskRpsEngine::from_cube_with_grid(
            &a,
            grid,
            DeviceConfig { cells_per_page: 16 },
            8,
            false, // row-major RP layout
        )
        .unwrap();
        let mem = rps_core::RpsEngine::from_cube_uniform(&a, 4).unwrap();
        let r = Region::new(&[3, 5], &[12, 14]).unwrap();
        assert_eq!(disk.query(&r).unwrap(), mem.query(&r).unwrap());
    }

    #[test]
    fn verify_pages_clean_engine_reports_nothing() {
        let a = cube_16();
        let disk = DiskRpsEngine::from_cube_uniform(&a, 4, DeviceConfig { cells_per_page: 16 }, 8)
            .unwrap();
        assert!(disk.verify_pages().unwrap().is_empty());
    }
}
