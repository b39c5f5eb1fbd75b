//! Versioned-snapshot (MVCC-lite) engine: a read path that never waits
//! for the writer's copy-on-write work, for the paper's read-heavy OLAP
//! deployment.
//!
//! [`crate::SharedEngine`] serializes every reader against the writer
//! with one `RwLock`; a single update stalls a whole `query_many`
//! batch. [`VersionedEngine`] takes the update work off the read path:
//!
//! * The **writer** owns the RPS structures chunked into copy-on-write
//!   *granules* (`Arc<[T]>`): one per RPS box for the RP array and one
//!   per dim-0 box row for the overlay. It applies each write call
//!   copy-on-write and publishes the result as one new immutable
//!   [`Version`]. A point update's RP cascade stays inside its own box
//!   (§4.2), the box §4.4 sizes to one disk block, so a publish clones
//!   only the boxes it wrote and the overlay box rows its orthant walk
//!   reached; every other granule is shared with earlier versions.
//! * **Readers** take a [`VersionedEngine::snapshot`] and run
//!   [`Version::query`] / [`Version::query_many`] against it. A held
//!   snapshot never changes and is never freed under its reader.
//!
//! # Publication
//!
//! The current version sits behind one `RwLock<Arc<Version>>`. A
//! snapshot clones the `Arc` under the read lock; a publish swaps the
//! new `Arc` in under the write lock, while the writer holds its own
//! mutex. Both critical sections are a pointer copy: the copy-on-write
//! apply runs before the swap, and the retired version is dropped after
//! the lock is released, so a reader never waits for a granule copy
//! or free. `Arc` reference counts free a retired version once its last
//! snapshot is dropped. Interleavings are exercised by
//! `tests/loom_versioned_engine.rs` and the module runs under TSan in CI
//! (`scripts/tsan.sh`).

use crate::sync_compat::{Arc, AtomicU64, Mutex, Ordering, RwLock};

use ndcube::{NdCube, NdError, Region, Shape};

use crate::engine::RangeSumEngine;
use crate::obs::EngineKind;
use crate::rps::{
    kernels, overlay_prefix_part_src, overlay_range_walk, overlay_update_walk, range_sum,
    range_sums, rp_range_box, BoxGrid, KernelScratch, OverlaySource, PrefixSource, RpsEngine,
};
use crate::stats::CostStats;
use crate::value::GroupValue;

/// The RPS structures of one immutable version, chunked into
/// copy-on-write granules.
///
/// RP granule `b` holds the RP cells of box `b` (grid row-major order),
/// row-major within the box's clamped extents — the order of the disk
/// engine's box-aligned layout. Overlay granule `r` holds the stored
/// cells of every box whose dim-0 grid index is `r` (flat indices
/// `ov_base[r] .. ov_base[r+1]`). The writer shares untouched granules
/// between consecutive versions by `Arc` clone.
#[derive(Debug, Clone)]
struct VersionData<T> {
    grid: BoxGrid,
    shape: Shape,
    /// Per-box slot offsets (shared by every version; never mutated).
    box_offsets: Arc<Vec<usize>>,
    /// `ov_base[r]` = first flat overlay index of box row `r`
    /// (`rows + 1` entries; also shared and immutable).
    ov_base: Arc<Vec<usize>>,
    ov_slabs: Vec<Arc<[T]>>,
    rp_boxes: Vec<Arc<[T]>>,
}

impl<T: GroupValue> OverlaySource<T> for VersionData<T> {
    #[inline]
    fn offsets(&self) -> &[usize] {
        &self.box_offsets
    }

    #[inline]
    fn cell(&self, box_row: usize, idx: usize) -> &T {
        &self.ov_slabs[box_row][idx - self.ov_base[box_row]]
    }
}

impl<T: GroupValue> VersionData<T> {
    /// The RP cell of the coordinate the overlay kernel has just
    /// reconstructed: box `ks.b`, in-box offsets `ks.offsets` within the
    /// clamped extents `ks.extents` (see [`overlay_prefix_part_src`]).
    #[inline]
    fn rp_cell(&self, ks: &KernelScratch) -> &T {
        let granule = &self.rp_boxes[self.grid.grid_shape().linear_unchecked(&ks.b)];
        let local = ks
            .offsets
            .iter()
            .zip(&ks.extents)
            .fold(0, |acc, (&o, &t)| acc * t + o);
        &granule[local]
    }
}

/// Calls `f(box_lin, lo, hi)` with the inclusive cube bounds of every
/// box of `grid`, in grid row-major order: the order of the RP granule
/// table. Used by the two cold paths that move whole in-box rows
/// between the flat RP array and the granules.
fn for_each_box_bounds(grid: &BoxGrid, mut f: impl FnMut(usize, &[usize], &[usize])) {
    let d = grid.cube_shape().ndim();
    let (mut lo, mut hi) = (vec![0; d], vec![0; d]);
    let mut box_lin = 0;
    ndcube::RegionIter::for_each_coords(&grid.grid_shape().full_region(), |bp| {
        grid.anchor_into(bp, &mut lo);
        grid.extents_into(bp, &mut hi);
        for (h, &l) in hi.iter_mut().zip(&lo) {
            *h = l + *h - 1;
        }
        f(box_lin, &lo, &hi);
        box_lin += 1;
    });
}

/// Row-major strides of a granule with the given clamped extents.
fn granule_strides_into(extents: &[usize], out: &mut [usize]) {
    let mut stride = 1;
    for (o, &t) in out.iter_mut().zip(extents).rev() {
        *o = stride;
        stride *= t;
    }
}

/// One immutable published state of a [`VersionedEngine`].
///
/// All query methods are `&self` and answer through the same query path
/// as [`RpsEngine`]: `query` is allocation-free after scratch warm-up, a
/// batch allocates its output and one corner cache, and every answer is
/// bit-identical to a serial [`RpsEngine`] that applied the same prefix
/// of the update sequence.
#[derive(Debug)]
pub struct Version<T> {
    number: u64,
    total_updates: u64,
    data: VersionData<T>,
}

impl<T: GroupValue> Version<T> {
    /// This version's publication number (0 = the initial build).
    pub fn number(&self) -> u64 {
        self.number
    }

    /// Total updates folded into this version since the initial build —
    /// the length of the update-sequence prefix this version reflects.
    pub fn update_count(&self) -> u64 {
        self.total_updates
    }

    /// The cube shape.
    pub fn shape(&self) -> &Shape {
        &self.data.shape
    }

    /// The overlay box size per dimension (the RP geometry).
    pub fn box_size(&self) -> &[usize] {
        self.data.grid.box_size()
    }

    /// Recovers the conceptual cube `A` this version represents: each RP
    /// granule's in-box rows copied back to their row-major places, then
    /// the backward in-box sweeps of [`RpsEngine::to_cube`] — O(d·N), no
    /// overlay reads.
    pub fn to_cube(&self) -> NdCube<T> {
        let VersionData {
            grid,
            shape,
            rp_boxes,
            ..
        } = &self.data;
        let mut cells = vec![T::zero(); shape.len()];
        let mut cur = Vec::new();
        for_each_box_bounds(grid, |box_lin, lo, hi| {
            let granule = &rp_boxes[box_lin];
            let mut from = 0;
            shape.for_each_contiguous_run_in_bounds(lo, hi, &mut cur, |start, len| {
                cells[start..start + len].clone_from_slice(&granule[from..from + len]);
                from += len;
            });
        });
        for dim in (0..shape.ndim()).rev() {
            crate::prefix::sweep_dim_backward(
                &mut cells,
                shape.strides()[dim],
                shape.dim(dim),
                self.box_size()[dim],
            );
        }
        NdCube::from_vec(shape.dims(), cells)
            // lint:allow(L2): the granules partition exactly the cells of this shape
            .expect("view dims match cell count")
    }

    /// Range-sum query against this version (the paper's O(1) corner
    /// reconstruction, [`range_sum`]).
    pub fn query(&self, region: &Region) -> Result<T, NdError> {
        range_sum(self, region)
    }

    /// Reads one cell (a point-region query).
    pub fn cell(&self, coords: &[usize]) -> Result<T, NdError> {
        self.query(&Region::point(coords)?)
    }

    /// Sum over the whole cube.
    pub fn total(&self) -> T {
        self.query(&self.data.shape.full_region())
            // lint:allow(L2): the shape's own full region always validates
            .expect("full region is always valid")
    }

    /// Answers a batch of range queries, sharing reconstructed prefix
    /// sums across them through the corner cache of
    /// [`RpsEngine::query_many`] ([`range_sums`]).
    pub fn query_many(&self, regions: &[Region]) -> Result<Vec<T>, NdError> {
        range_sums(self, regions)
    }
}

/// The copy-on-write granules: the same overlay arithmetic as
/// [`crate::rps::overlay_prefix_part_with`], routed through the
/// storage-generic kernel, plus the RP cell read from the box granule
/// that kernel has just located. A version keeps no per-instance stats.
impl<T: GroupValue> PrefixSource<T> for Version<T> {
    const KIND: EngineKind = EngineKind::Rps;

    fn bounds(&self) -> &Shape {
        &self.data.shape
    }

    fn prefix(&self, x: &[usize], ks: &mut KernelScratch) -> Result<(T, u64), NdError> {
        let (mut acc, reads) = overlay_prefix_part_src(&self.data.grid, &self.data, x, ks);
        acc.add_assign(self.data.rp_cell(ks));
        Ok((acc, reads + 1))
    }
}

/// Cells written, box granules and bytes cloned, and lane-kernel runs
/// of one publish.
#[derive(Debug, Default)]
struct WriteCost {
    writes: u64,
    cow_boxes: u64,
    cow_bytes: u64,
    lane_runs: u64,
}

/// `granule`, made writable: cloned first while a published version
/// still shares it, and counted as `boxes` box granules and its size in
/// bytes.
fn cow_granule<'g, T: Clone>(
    granule: &'g mut Arc<[T]>,
    boxes: u64,
    cost: &mut WriteCost,
) -> &'g mut [T] {
    if Arc::get_mut(granule).is_none() {
        cost.cow_boxes += boxes;
        cost.cow_bytes += u64::try_from(std::mem::size_of_val::<[T]>(granule)).unwrap_or(u64::MAX);
        *granule = Arc::from(&granule[..]);
    }
    match Arc::get_mut(granule) {
        Some(cells) => cells,
        // lint:allow(L2): the clone above left the granule with no other owner
        None => unreachable!("a fresh granule clone is unique"),
    }
}

/// The writer's private, mutable twin of the published [`VersionData`],
/// plus reusable scratch.
#[derive(Debug)]
struct WriterState<T> {
    data: VersionData<T>,
    scratch: KernelScratch,
    /// Updates folded into the published state so far.
    total_updates: u64,
    /// Number of the most recently published version.
    version: u64,
}

impl<T: GroupValue> WriterState<T> {
    /// Box granules in one overlay box row: the cost of one row clone.
    fn row_boxes(&self) -> u64 {
        u64::try_from(self.data.grid.grid_shape().strides()[0]).unwrap_or(u64::MAX)
    }

    /// Adds `delta` at cell `c`, copy-on-write.
    ///
    /// The RP cascade stays inside `c`'s own box, so it clones one RP
    /// granule. The overlay orthant walk only ever touches boxes at
    /// dim-0 index `b₀ = c₀/k₀` or below (see
    /// [`crate::rps::apply_update_with`]), so earlier overlay rows keep
    /// sharing their granules with published versions untouched.
    fn apply_point(&mut self, c: &[usize], delta: &T, cost: &mut WriteCost) {
        if delta.is_zero() {
            return;
        }
        let row_boxes = self.row_boxes();
        let WriterState {
            data, scratch: ks, ..
        } = self;
        let VersionData {
            grid,
            box_offsets,
            ov_base,
            ov_slabs,
            rp_boxes,
            ..
        } = data;
        ks.ensure(c.len());
        // RP cascade: the cells x ≥ c of c's box, one lane-kernel call
        // per in-box run of its granule, c − anchor ..= extents − 1.
        let KernelScratch {
            b,
            anchor,
            extents,
            offsets,
            hi,
            lb: strides,
            cur,
            ..
        } = &mut *ks;
        grid.box_index_into(c, b);
        grid.anchor_into(b, anchor);
        grid.extents_into(b, extents);
        granule_strides_into(extents, strides);
        for (o, (&ci, &ai)) in offsets.iter_mut().zip(c.iter().zip(anchor.iter())) {
            *o = ci - ai;
        }
        for (h, &t) in hi.iter_mut().zip(extents.iter()) {
            *h = t - 1;
        }
        let own = grid.grid_shape().linear_unchecked(b);
        let cells = cow_granule(&mut rp_boxes[own], 1, cost);
        ndcube::for_each_run_in_bounds(strides, offsets, hi, cur, |start, len| {
            kernels::add_delta_run(&mut cells[start..start + len], delta);
            cost.writes += u64::try_from(len).unwrap_or(u64::MAX);
            cost.lane_runs += u64::from(kernels::is_lane_run(len));
        });
        let b0 = b[0];
        // Overlay orthant walk, clipped to one box row at a time. Rows
        // before b₀ are never touched (the walk's row clip would return
        // 0 writes), so they are not even cloned.
        for (r, slab) in (b0..).zip(&mut ov_slabs[b0..]) {
            let cells = cow_granule(slab, row_boxes, cost);
            cost.writes +=
                overlay_update_walk(grid, box_offsets, cells, ov_base[r], r, r + 1, c, delta, ks);
        }
    }

    /// Adds `delta` to every cell of `region`, copy-on-write: one RP
    /// granule per box the region meets, and the overlay rows from
    /// `box(lo)₀` on, like [`Self::apply_point`].
    fn apply_range(&mut self, region: &Region, delta: &T, cost: &mut WriteCost) {
        if delta.is_zero() {
            return;
        }
        let row_boxes = self.row_boxes();
        let WriterState {
            data, scratch: ks, ..
        } = self;
        let VersionData {
            grid,
            box_offsets,
            ov_base,
            ov_slabs,
            rp_boxes,
            ..
        } = data;
        let (lo, hi) = (region.lo(), region.hi());
        ks.ensure(lo.len());
        // RP half: every box of the [box(lo), box(hi)] index rectangle,
        // each through its own granule, addressed from the box's anchor
        // with the strides of its clamped extents.
        let KernelScratch {
            b,
            offsets,
            anchor,
            extents,
            lb: strides,
            alpha,
            lo: rlo,
            hi: box_hi,
            cur,
            e,
        } = &mut *ks;
        grid.box_index_into(lo, b);
        grid.box_index_into(hi, offsets);
        let grid_shape = grid.grid_shape();
        ndcube::for_each_coords_in_bounds(b, offsets, cur, |bp| {
            let cells = cow_granule(&mut rp_boxes[grid_shape.linear_unchecked(bp)], 1, cost);
            grid.anchor_into(bp, anchor);
            grid.extents_into(bp, extents);
            granule_strides_into(extents, strides);
            cost.writes += rp_range_box(
                grid, cells, anchor, strides, bp, lo, hi, delta, alpha, rlo, box_hi, e,
            );
        });
        let b0 = b[0];
        // Overlay half: every box row of lo's upper orthant, one
        // row-clipped walk per row.
        for (r, slab) in (b0..).zip(&mut ov_slabs[b0..]) {
            let cells = cow_granule(slab, row_boxes, cost);
            cost.writes += overlay_range_walk(
                grid,
                box_offsets,
                cells,
                ov_base[r],
                r,
                r + 1,
                lo,
                hi,
                delta,
                ks,
            );
        }
    }
}

/// Shared state behind every [`VersionedEngine`] handle.
#[derive(Debug)]
struct VersionedShared<T> {
    /// Writer-side granules. Always the outermost guard: `current` is only
    /// write-locked beneath it. The sanctioned nesting (writer before
    /// current) is declared next to `SharedEngine`'s in `concurrent.rs`.
    writer: Mutex<WriterState<T>>,
    /// The most recently published version. Readers clone the `Arc`
    /// under the read lock; the writer swaps it under the write lock.
    current: RwLock<Arc<Version<T>>>,
    /// Cube shape (immutable; validates without taking a lock).
    shape: Shape,
    queries: AtomicU64,
    cell_writes: AtomicU64,
}

impl<T: GroupValue> VersionedShared<T> {
    /// Runs `apply` against the writer's granules and publishes the result
    /// as exactly one new version that folds in `updates` more updates.
    fn publish(&self, updates: u64, apply: impl FnOnce(&mut WriterState<T>, &mut WriteCost)) {
        let mut cost = WriteCost::default();
        // lint:allow(L2): poisoning means a writer already panicked; fail fast is the policy
        let mut w = self.writer.lock().expect("engine lock poisoned");
        apply(&mut w, &mut cost);
        w.total_updates += updates;
        w.version += 1;
        let next = Arc::new(Version {
            number: w.version,
            total_updates: w.total_updates,
            data: w.data.clone(),
        });
        let retired = {
            // lint:allow(L2): poisoning means a writer already panicked; fail fast is the policy
            let mut current = self.current.write().expect("engine lock poisoned");
            std::mem::replace(&mut *current, next)
        };
        drop(w);
        // Only now, with both locks released, can the retired version
        // free the granules no snapshot still holds.
        drop(retired);
        self.cell_writes.fetch_add(cost.writes, Ordering::Relaxed);
        let m = crate::obs::snapshot();
        m.versions.inc();
        m.cow_boxes.add(cost.cow_boxes);
        m.cow_bytes.add(cost.cow_bytes);
        if cost.lane_runs > 0 {
            crate::obs::core().lane_runs.add(cost.lane_runs);
        }
    }
}

/// Cheap-to-clone handle around the versioned engine.
///
/// ```
/// use rps_core::{RpsEngine, VersionedEngine};
/// use ndcube::Region;
///
/// let engine = VersionedEngine::new(RpsEngine::<i64>::zeros(&[8, 8]).unwrap());
///
/// let before = engine.snapshot(); // an immutable version
/// engine.update(&[2, 2], 5).unwrap();
///
/// // The held snapshot still sees the pre-update state; a fresh
/// // snapshot sees the published update.
/// let all = Region::new(&[0, 0], &[7, 7]).unwrap();
/// assert_eq!(before.query(&all).unwrap(), 0);
/// assert_eq!(engine.snapshot().query(&all).unwrap(), 5);
/// ```
#[derive(Debug)]
pub struct VersionedEngine<T> {
    inner: Arc<VersionedShared<T>>,
}

impl<T> Clone for VersionedEngine<T> {
    fn clone(&self) -> Self {
        VersionedEngine {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: GroupValue> VersionedEngine<T> {
    /// Takes ownership of a built engine and publishes its state as
    /// version 0.
    ///
    /// Every granule is copied out of the engine's flat buffers, whole
    /// in-box rows at a time, into an allocation of exactly its size.
    pub fn new(engine: RpsEngine<T>) -> Self {
        let (grid, overlay, rp) = engine.into_parts();
        let shape = rp.shape().clone();
        let (box_offsets, cells) = overlay.into_parts();
        let rows = grid.grid_shape().dim(0);
        let row_boxes = grid.grid_shape().strides()[0];
        let ov_base: Vec<usize> = (0..=rows).map(|r| box_offsets[r * row_boxes]).collect();
        let ov_slabs = ov_base
            .windows(2)
            .map(|w| Arc::from(&cells[w[0]..w[1]]))
            .collect();
        let rp = rp.as_slice();
        let mut rp_boxes = Vec::with_capacity(grid.num_boxes());
        let (mut box_cells, mut cur) = (Vec::new(), Vec::new());
        for_each_box_bounds(&grid, |_, lo, hi| {
            box_cells.clear();
            shape.for_each_contiguous_run_in_bounds(lo, hi, &mut cur, |start, len| {
                box_cells.extend_from_slice(&rp[start..start + len]);
            });
            rp_boxes.push(Arc::from(&box_cells[..]));
        });

        let state = WriterState {
            data: VersionData {
                grid,
                shape: shape.clone(),
                box_offsets: Arc::new(box_offsets),
                ov_base: Arc::new(ov_base),
                ov_slabs,
                rp_boxes,
            },
            scratch: KernelScratch::new(),
            total_updates: 0,
            version: 0,
        };
        let initial = Arc::new(Version {
            number: 0,
            total_updates: 0,
            data: state.data.clone(),
        });
        crate::obs::snapshot().versions.inc();
        VersionedEngine {
            inner: Arc::new(VersionedShared {
                writer: Mutex::new(state),
                current: RwLock::new(initial),
                shape,
                queries: AtomicU64::new(0),
                cell_writes: AtomicU64::new(0),
            }),
        }
    }

    /// Builds from a data cube (paper-recommended `k = ⌈√n⌉` boxes).
    pub fn from_cube(a: &NdCube<T>) -> Self {
        Self::new(RpsEngine::from_cube(a))
    }

    /// An all-zero cube with `k = ⌈√n⌉` boxes.
    pub fn zeros(dims: &[usize]) -> Result<Self, NdError> {
        Ok(Self::new(RpsEngine::zeros(dims)?))
    }

    /// The number of the most recently published version.
    pub fn current_version(&self) -> u64 {
        self.snapshot().number
    }

    /// The cube shape.
    pub fn shape(&self) -> &Shape {
        &self.inner.shape
    }

    /// Total queries served through the engine-level convenience
    /// methods (queries against held snapshots are not counted here).
    pub fn query_count(&self) -> u64 {
        self.inner.queries.load(Ordering::Relaxed)
    }

    /// Total updates published across all handles.
    pub fn update_count(&self) -> u64 {
        self.snapshot().total_updates
    }

    /// Total cells written by published versions (the paper's
    /// update-cost accounting, aggregated across versions).
    pub fn write_count(&self) -> u64 {
        self.inner.cell_writes.load(Ordering::Relaxed)
    }

    /// The current published version. The returned `Arc` keeps it
    /// alive and unchanged for as long as it is held; later publishes
    /// are seen by later calls.
    pub fn snapshot(&self) -> Arc<Version<T>> {
        // lint:allow(L2): poisoning means a writer already panicked; fail fast is the policy
        Arc::clone(&self.inner.current.read().expect("engine lock poisoned"))
    }

    /// Applies one update and publishes it as a new version.
    pub fn update(&self, coords: &[usize], delta: T) -> Result<(), NdError> {
        self.inner.shape.check(coords)?;
        crate::obs::engine(crate::obs::EngineKind::Rps)
            .updates
            .inc();
        self.inner
            .publish(1, move |w, cost| w.apply_point(coords, &delta, cost));
        Ok(())
    }

    /// Applies one bulk range update — `delta` is added to every cell of
    /// `region` — and publishes it as one new version, so readers always
    /// observe the whole rectangle or none of it.
    pub fn range_update(&self, region: &Region, delta: T) -> Result<(), NdError> {
        self.inner.shape.check_region(region)?;
        let m = crate::obs::core();
        m.range_update_fast.inc();
        m.range_update_cells
            .add(u64::try_from(region.cell_count()).unwrap_or(u64::MAX));
        let _span = rps_obs::Span::enter("versioned.range_update", &m.range_update_ns);
        crate::obs::engine(crate::obs::EngineKind::Rps)
            .updates
            .inc();
        self.inner
            .publish(1, move |w, cost| w.apply_range(region, &delta, cost));
        Ok(())
    }

    /// Applies a batch of updates and publishes exactly one new version
    /// for it, so readers observe the batch atomically — never a partial
    /// batch.
    ///
    /// An empty batch publishes and counts nothing.
    pub fn apply_batch(&self, updates: &[(Vec<usize>, T)]) -> Result<(), NdError> {
        if updates.is_empty() {
            return Ok(());
        }
        for (coords, _) in updates {
            self.inner.shape.check(coords)?;
        }
        let m = crate::obs::engine(crate::obs::EngineKind::Rps);
        m.batches.inc();
        let n = u64::try_from(updates.len()).unwrap_or(u64::MAX);
        m.batch_updates.add(n);
        self.inner.publish(n, |w, cost| {
            for (coords, delta) in updates {
                w.apply_point(coords, delta, cost);
            }
        });
        Ok(())
    }

    /// One-shot query against the current version.
    pub fn query(&self, region: &Region) -> Result<T, NdError> {
        let out = self.snapshot().query(region);
        if out.is_ok() {
            self.inner.queries.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// One-shot batch query against the current version.
    pub fn query_many(&self, regions: &[Region]) -> Result<Vec<T>, NdError> {
        let out = self.snapshot().query_many(regions);
        if out.is_ok() {
            self.inner.queries.fetch_add(
                u64::try_from(regions.len()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
        }
        out
    }

    /// Reads one cell of the current version.
    pub fn cell(&self, coords: &[usize]) -> Result<T, NdError> {
        self.snapshot().cell(coords)
    }

    /// Sum over the whole cube in the current version.
    pub fn total(&self) -> T {
        self.snapshot().total()
    }
}

/// The common engine interface, delegating to the inherent methods: every
/// write call publishes exactly one version, and
/// [`RangeSumEngine::update_batch`] is [`VersionedEngine::apply_batch`],
/// so readers never see part of a batch.
///
/// [`RangeSumEngine::stats`] reports [`VersionedEngine::write_count`],
/// [`VersionedEngine::query_count`] and [`VersionedEngine::update_count`].
/// Its `cell_reads` stays 0: queries run against published snapshots,
/// which count no cell reads. [`RangeSumEngine::reset_stats`] zeroes the
/// write and query counters; the update count is the current version's
/// and does not rewind.
impl<T: GroupValue> RangeSumEngine<T> for VersionedEngine<T> {
    fn name(&self) -> &'static str {
        "versioned"
    }

    fn shape(&self) -> &Shape {
        VersionedEngine::shape(self)
    }

    fn query(&self, region: &Region) -> Result<T, NdError> {
        VersionedEngine::query(self, region)
    }

    fn update(&mut self, coords: &[usize], delta: T) -> Result<(), NdError> {
        VersionedEngine::update(self, coords, delta)
    }

    fn range_update(&mut self, region: &Region, delta: T) -> Result<(), NdError> {
        VersionedEngine::range_update(self, region, delta)
    }

    fn update_batch(&mut self, updates: &[(Vec<usize>, T)]) -> Result<(), NdError> {
        self.apply_batch(updates)
    }

    fn stats(&self) -> CostStats {
        CostStats {
            cell_reads: 0,
            cell_writes: self.write_count(),
            queries: self.query_count(),
            updates: self.update_count(),
        }
    }

    fn reset_stats(&self) {
        self.inner.queries.store(0, Ordering::Relaxed);
        self.inner.cell_writes.store(0, Ordering::Relaxed);
    }

    fn storage_cells(&self) -> usize {
        let v = self.snapshot();
        v.data.shape.len() + v.data.ov_base.last().copied().unwrap_or(0)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::testdata::paper_array_a;

    fn paper_versioned() -> VersionedEngine<i64> {
        VersionedEngine::new(RpsEngine::from_cube_uniform(&paper_array_a(), 3).unwrap())
    }

    #[test]
    fn initial_version_matches_serial_engine() {
        let serial = RpsEngine::from_cube_uniform(&paper_array_a(), 3).unwrap();
        let v = paper_versioned();
        let snap = v.snapshot();
        assert_eq!(snap.number(), 0);
        for (lo, hi) in [([0, 0], [8, 8]), ([2, 3], [7, 5]), ([4, 4], [4, 4])] {
            let r = Region::new(&lo, &hi).unwrap();
            assert_eq!(snap.query(&r).unwrap(), serial.query(&r).unwrap(), "{r:?}");
        }
        // Every prefix cell agrees too (exercises every box boundary).
        for x in &snap.shape().full_region() {
            let r = Region::new(&[0; 2], &x).unwrap();
            assert_eq!(snap.query(&r).unwrap(), serial.query(&r).unwrap(), "{x:?}");
        }
    }

    #[test]
    fn updates_publish_new_versions() {
        let v = paper_versioned();
        let all = Region::new(&[0, 0], &[8, 8]).unwrap();
        assert_eq!(v.query(&all).unwrap(), 290);
        v.update(&[1, 1], 10).unwrap();
        assert_eq!(v.current_version(), 1);
        assert_eq!(v.query(&all).unwrap(), 300);
        assert_eq!(v.update_count(), 1);
        assert_eq!(v.query_count(), 2);
    }

    #[test]
    fn pinned_snapshot_is_immutable() {
        let v = paper_versioned();
        let all = Region::new(&[0, 0], &[8, 8]).unwrap();
        let pinned = v.snapshot();
        assert_eq!(pinned.query(&all).unwrap(), 290);
        v.update(&[0, 0], 7).unwrap();
        // The pin still observes version 0; a fresh pin sees version 1.
        assert_eq!(pinned.query(&all).unwrap(), 290);
        assert_eq!(pinned.number(), 0);
        drop(pinned);
        let pinned = v.snapshot();
        assert_eq!(pinned.number(), 1);
        assert_eq!(pinned.query(&all).unwrap(), 297);
    }

    #[test]
    fn cow_shares_untouched_slabs() {
        let v = paper_versioned();
        let before = v.snapshot();
        // Update at cube cell (4, 4): box (1, 1), box row 1 of the 3×3
        // grid. Every other RP box granule is shared with version 0, as
        // is overlay row 0; box (1, 1)'s granule and rows 1..=2 are new.
        v.update(&[4, 4], 1).unwrap();
        let after = v.snapshot();
        let own = 4; // box (1, 1) in grid row-major order
        for (b, (old, new)) in before
            .data
            .rp_boxes
            .iter()
            .zip(&after.data.rp_boxes)
            .enumerate()
        {
            assert_eq!(Arc::ptr_eq(old, new), b != own, "RP box {b}");
        }
        for (r, (old, new)) in before
            .data
            .ov_slabs
            .iter()
            .zip(&after.data.ov_slabs)
            .enumerate()
        {
            assert_eq!(Arc::ptr_eq(old, new), r < 1, "overlay row {r}");
        }
        // Write cost matches the serial engine's accounting for the
        // same update.
        let mut serial = RpsEngine::from_cube_uniform(&paper_array_a(), 3).unwrap();
        serial.update(&[4, 4], 1).unwrap();
        assert_eq!(v.write_count(), serial.stats().cell_writes);
    }

    #[test]
    fn write_cost_counts_each_cloned_granule_once() {
        let v = paper_versioned();
        let mut w = v.inner.writer.lock().unwrap();
        let mut cost = WriteCost::default();
        // Version 0 shares every granule, so the first write to each
        // clones it: box (1, 1)'s 3×3 RP granule (one box) and overlay
        // rows 1 and 2 (3 boxes of 5 stored cells each).
        w.apply_point(&[4, 4], &1, &mut cost);
        let cell = std::mem::size_of::<i64>() as u64;
        assert_eq!(cost.cow_boxes, 1 + 3 + 3);
        assert_eq!(cost.cow_bytes, (9 + 2 * 15) * cell);
        // A second write to the same granules clones nothing more.
        w.apply_point(&[5, 3], &2, &mut cost);
        assert_eq!(cost.cow_boxes, 7);
        assert_eq!(cost.cow_bytes, 39 * cell);
        // A range over boxes (0, 0)..=(0, 1) clones their two RP
        // granules and overlay row 0.
        let r = Region::new(&[1, 1], &[2, 4]).unwrap();
        w.apply_range(&r, &3, &mut cost);
        assert_eq!(cost.cow_boxes, 7 + 2 + 3);
        assert_eq!(cost.cow_bytes, (39 + 18 + 15) * cell);
    }

    #[test]
    fn empty_batch_publishes_nothing() {
        let v = paper_versioned();
        v.apply_batch(&[]).unwrap();
        assert_eq!(v.current_version(), 0);
        assert_eq!(v.update_count(), 0);
        v.apply_batch(&[(vec![1, 1], 2)]).unwrap();
        v.apply_batch(&[]).unwrap();
        assert_eq!(v.current_version(), 1);
    }

    #[test]
    fn batch_is_one_version() {
        let v = paper_versioned();
        v.apply_batch(&[(vec![0, 0], 1), (vec![8, 8], 2), (vec![4, 4], 3)])
            .unwrap();
        assert_eq!(v.current_version(), 1);
        assert_eq!(v.update_count(), 3);
        assert_eq!(v.snapshot().update_count(), 3);
        assert_eq!(v.total(), 296);
    }

    #[test]
    fn query_many_variants_match_serial() {
        let v = paper_versioned();
        v.apply_batch(&[(vec![2, 2], 9), (vec![7, 7], -4)]).unwrap();
        let regions: Vec<Region> = (0..24)
            .map(|i| Region::new(&[i % 5, i % 4], &[(i % 5) + 3, (i % 4) + 4]).unwrap())
            .collect();
        let snap = v.snapshot();
        let one_by_one: Vec<i64> = regions.iter().map(|r| snap.query(r).unwrap()).collect();
        assert_eq!(snap.query_many(&regions).unwrap(), one_by_one);
        assert_eq!(v.query_many(&regions).unwrap(), one_by_one);
    }

    #[test]
    fn held_snapshot_survives_many_publishes() {
        const PUBLISHES: usize = 19;
        let v = paper_versioned();
        let old = v.snapshot();
        for i in 0..PUBLISHES {
            v.update(&[i % 9, (i * 5) % 9], 1).unwrap();
        }
        // The held Arc still answers from version 0.
        assert_eq!(old.total(), 290);
        assert_eq!(old.number(), 0);
        // And fresh snapshots see the newest version.
        let newest = v.snapshot();
        assert_eq!(newest.number(), u64::try_from(PUBLISHES).unwrap());
        assert_eq!(newest.total(), 290 + i64::try_from(PUBLISHES).unwrap());
    }

    #[test]
    fn concurrent_writer_and_pinned_readers() {
        let v = VersionedEngine::new(RpsEngine::<i64>::zeros(&[32, 32]).unwrap());
        let full = Region::new(&[0, 0], &[31, 31]).unwrap();
        let writer = {
            let v = v.clone();
            std::thread::spawn(move || {
                for i in 0..400usize {
                    v.update(&[i % 32, (i * 7) % 32], 1).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let v = v.clone();
                let full = full.clone();
                std::thread::spawn(move || {
                    let mut last = 0i64;
                    for _ in 0..150 {
                        let pinned = v.snapshot();
                        let t = pinned.query(&full).unwrap();
                        // Each snapshot is exactly some prefix of the
                        // update sequence (all deltas are +1).
                        assert_eq!(t, i64::try_from(pinned.update_count()).unwrap());
                        assert!(t >= last, "total went backwards: {last} → {t}");
                        last = t;
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(v.total(), 400);
        assert_eq!(v.update_count(), 400);
    }

    #[test]
    fn versioned_matches_serial_after_many_updates() {
        // d = 3, ragged boxes: every box-boundary case in one sweep.
        let a = NdCube::from_fn(&[6, 5, 4], |c| (c[0] * 20 + c[1] * 4 + c[2]) as i64).unwrap();
        let mut serial = RpsEngine::from_cube_with_box_size(&a, &[2, 3, 2]).unwrap();
        let v = VersionedEngine::new(RpsEngine::from_cube_with_box_size(&a, &[2, 3, 2]).unwrap());
        for i in 0..40usize {
            let c = [i % 6, (i * 3) % 5, (i * 7) % 4];
            let delta = i64::try_from(i).unwrap() % 11 - 5;
            serial.update(&c, delta).unwrap();
            v.update(&c, delta).unwrap();
        }
        let snap = v.snapshot();
        for x in &a.shape().full_region() {
            let r = Region::new(&[0; 3], &x).unwrap();
            assert_eq!(snap.query(&r).unwrap(), serial.query(&r).unwrap(), "{x:?}");
        }
    }

    #[test]
    fn range_update_matches_serial_and_respects_pins() {
        let v = paper_versioned();
        let mut serial = RpsEngine::from_cube_uniform(&paper_array_a(), 3).unwrap();
        let pinned = v.snapshot();
        let r = Region::new(&[1, 2], &[6, 7]).unwrap();
        v.range_update(&r, 5).unwrap();
        serial.range_update(&r, 5).unwrap();
        // The pin still observes the pre-update state...
        assert_eq!(pinned.total(), 290);
        drop(pinned);
        // ...and a fresh pin sees the whole rectangle at once, cell-for-
        // cell identical to the serial engine's fast path.
        let snap = v.snapshot();
        for x in &snap.shape().full_region() {
            let pr = Region::new(&[0; 2], &x).unwrap();
            assert_eq!(
                snap.query(&pr).unwrap(),
                serial.query(&pr).unwrap(),
                "{x:?}"
            );
        }
    }

    #[test]
    fn mixed_point_and_range_ops_match_serial_3d() {
        // d = 3, ragged boxes: range rectangles crossing box boundaries
        // interleaved with point deltas.
        let a = NdCube::from_fn(&[6, 5, 4], |c| (c[0] * 20 + c[1] * 4 + c[2]) as i64).unwrap();
        let mut serial = RpsEngine::from_cube_with_box_size(&a, &[2, 3, 2]).unwrap();
        let v = VersionedEngine::new(RpsEngine::from_cube_with_box_size(&a, &[2, 3, 2]).unwrap());
        for i in 0..24usize {
            let c = [i % 6, (i * 3) % 5, (i * 7) % 4];
            let delta = i64::try_from(i).unwrap() % 11 - 5;
            if i % 3 == 0 {
                let hi = [(c[0] + 3).min(5), (c[1] + 2).min(4), (c[2] + 1).min(3)];
                let r = Region::new(&c, &hi).unwrap();
                serial.range_update(&r, delta).unwrap();
                v.range_update(&r, delta).unwrap();
            } else {
                serial.update(&c, delta).unwrap();
                v.update(&c, delta).unwrap();
            }
        }
        let snap = v.snapshot();
        for x in &a.shape().full_region() {
            let r = Region::new(&[0; 3], &x).unwrap();
            assert_eq!(snap.query(&r).unwrap(), serial.query(&r).unwrap(), "{x:?}");
        }
    }

    #[test]
    fn one_dimensional_cube() {
        let a = NdCube::from_fn(&[17], |c| c[0] as i64).unwrap();
        let v = VersionedEngine::from_cube(&a);
        let serial = RpsEngine::from_cube(&a);
        v.update(&[16], 100).unwrap();
        let snap = v.snapshot();
        for x in 0..17 {
            let r = Region::new(&[0], &[x]).unwrap();
            let expect = serial.query(&r).unwrap() + if x == 16 { 100 } else { 0 };
            assert_eq!(snap.query(&r).unwrap(), expect, "prefix to {x}");
        }
    }

    #[test]
    fn rejects_out_of_bounds() {
        let v = VersionedEngine::<i64>::zeros(&[4, 4]).unwrap();
        assert!(v.update(&[4, 0], 1).is_err());
        assert!(v.query(&Region::new(&[0, 0], &[4, 4]).unwrap()).is_err());
        assert!(v.apply_batch(&[(vec![0, 0], 1), (vec![9, 9], 1)]).is_err());
        // The failed batch published nothing.
        assert_eq!(v.current_version(), 0);
        assert_eq!(v.total(), 0);
    }
}
