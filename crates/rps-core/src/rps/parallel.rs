//! Parallel structure construction and parallel batch updates.
//!
//! Building RP and P is O(d·N) of running-sum sweeps — embarrassing to
//! leave single-threaded for the cube sizes the paper targets. Both
//! sweeps decompose over contiguous row-major slabs of the first
//! dimension (`std::thread::scope`, no dependencies):
//!
//! * **RP** — slabs aligned to the dim-0 box side `k₀` are fully
//!   independent: the box-local sweep never crosses a `k₀` boundary, and
//!   sweeps along later dimensions stay inside a row anyway.
//! * **P** — dims ≥ 1 are independent per slab; dim 0 uses the classic
//!   two-phase scan: local prefix per slab, then each slab adds the
//!   accumulated last-row of every earlier slab.
//!
//! **Batch updates** decompose the same way, by dim-0 *box rows*: an
//! update's RP cascade stays inside its own box, and the overlay walk
//! visits boxes grouped contiguously by their dim-0 index (both the
//! offset table and the RP buffer are row-major). Each worker owns a
//! disjoint slab of box rows — a contiguous range of overlay cells plus
//! the matching range of RP rows — and replays *every* update of the
//! batch against its slab only. Writes never overlap, no locks are
//! needed, and each cell receives exactly the adds the serial loop would
//! have applied, in the same order: the result is bit-identical to
//! serial application.

use ndcube::{NdCube, NdError, Region};

use crate::rps::grid::BoxGrid;
use crate::rps::kernels;
use crate::rps::scratch::KernelScratch;
use crate::rps::update::overlay_update_walk;
use crate::value::GroupValue;

/// Worker-thread count for [`crate::rps::RpsEngine::apply_batch`]:
/// available parallelism, capped — batch updates are memory-bound and
/// stop scaling well before large core counts.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(8)
}

/// Caps a requested shard count at the host's available parallelism.
///
/// Query shards are pure CPU with nothing to overlap, so spawning more
/// workers than cores only adds scheduling overhead — the cause of the
/// `query_many_parallel_t2` < `_t1` inversion BENCH_THROUGHPUT.json
/// recorded on a 1-CPU host before the clamp.
pub(crate) fn effective_threads(requested: usize) -> usize {
    requested
        .min(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
        .max(1)
}

/// Runs one dimension's (box-local or global) sweep over a contiguous
/// chunk of the row-major buffer. `global_offset` is the chunk's first
/// linear index in the full array; `k = usize::MAX` gives the global
/// (prefix-sum) sweep, otherwise accumulation stops at multiples of `k`.
///
/// The slab splits hand every chunk out row-aligned (and, for `stride ==
/// 1`, aligned to whole innermost runs or box boundaries), so the sweep
/// runs row-at-a-time through the run kernels instead of dividing per
/// cell: scans ([`kernels::prefix_scan_run`]) along the innermost
/// dimension, elementwise row combines ([`kernels::add_rows`]) elsewhere.
fn sweep_chunk<T: GroupValue>(
    chunk: &mut [T],
    global_offset: usize,
    stride: usize,
    n: usize,
    k: usize,
) {
    if stride == 1 {
        // Innermost dimension. For d ≥ 2 the chunk is whole periods of
        // `n`, so every run starts at coordinate 0; the d = 1 slabs are
        // aligned to box boundaries, so restarting at *local* multiples
        // of `k` matches the global sweep there too.
        let run = n.min(chunk.len()).max(1);
        for r in chunk.chunks_mut(run) {
            kernels::prefix_scan_run(r, k);
        }
        return;
    }
    // Outer dimension: all `stride` cells of a row share one
    // `dim`-coordinate, so the divide runs once per row and the row pair
    // combines elementwise.
    debug_assert!(global_offset.is_multiple_of(stride));
    debug_assert!(chunk.len().is_multiple_of(stride));
    let first = global_offset / stride;
    let rows = chunk.len() / stride;
    for r in 0..rows {
        let coord = (first + r) % n;
        let in_box = if k == usize::MAX {
            coord > 0
        } else {
            !coord.is_multiple_of(k)
        };
        if in_box {
            let row = r * stride;
            debug_assert!(row >= stride, "predecessor lies within the chunk");
            let (prev, cur) = chunk.split_at_mut(row);
            kernels::add_rows(&mut cur[..stride], &prev[row - stride..]);
        }
    }
}

/// Splits the buffer into per-thread slabs of whole dim-0 rows, each a
/// multiple of `align` rows (except possibly the last).
pub(crate) fn slab_sizes(rows: usize, row_len: usize, align: usize, threads: usize) -> Vec<usize> {
    let align = align.max(1);
    let target_rows = rows.div_ceil(threads).div_ceil(align) * align;
    let mut sizes = Vec::new();
    let mut left = rows;
    while left > 0 {
        let take = target_rows.min(left);
        sizes.push(take * row_len);
        left -= take;
    }
    sizes
}

/// Parallel box-local prefix sweep: identical output to
/// [`crate::rps::relative_prefix_sums`].
pub fn relative_prefix_sums_parallel<T: GroupValue>(
    a: &NdCube<T>,
    grid: &BoxGrid,
    threads: usize,
) -> NdCube<T> {
    let threads = threads.max(1);
    let shape = a.shape().clone();
    if threads == 1 || shape.ndim() == 0 {
        return crate::rps::relative_prefix_sums(a, grid);
    }
    let mut rp = a.clone();
    let rows = shape.dim(0);
    let row_len = shape.strides()[0];
    let k0 = grid.box_size()[0];
    let sizes = slab_sizes(rows, row_len, k0, threads);

    for dim in 0..shape.ndim() {
        let stride = shape.strides()[dim];
        let n = shape.dim(dim);
        let k = grid.box_size()[dim];
        let data = rp.as_mut_slice();
        std::thread::scope(|scope| {
            let mut rest = data;
            let mut offset = 0usize;
            for &size in &sizes {
                let (chunk, tail) = rest.split_at_mut(size);
                rest = tail;
                let off = offset;
                scope.spawn(move || sweep_chunk(chunk, off, stride, n, k));
                offset += size;
            }
        });
    }
    rp
}

/// Parallel global prefix sums: identical output to
/// [`crate::prefix::prefix_sums_in_place`].
pub fn prefix_sums_parallel<T: GroupValue>(a: &mut NdCube<T>, threads: usize) {
    let threads = threads.max(1);
    let shape = a.shape().clone();
    // The dim-0 two-phase scan does the dim-0 work twice (local prefix +
    // base add); below 3 threads that overhead cancels the parallelism.
    if threads <= 2 {
        crate::prefix::prefix_sums_in_place(a);
        return;
    }
    let rows = shape.dim(0);
    let row_len = shape.strides()[0];
    let sizes = slab_sizes(rows, row_len, 1, threads);

    // Dims ≥ 1: sweeps never cross a row, so slabs are independent.
    for dim in 1..shape.ndim() {
        let stride = shape.strides()[dim];
        let n = shape.dim(dim);
        let data = a.as_mut_slice();
        std::thread::scope(|scope| {
            let mut rest = data;
            let mut offset = 0usize;
            for &size in &sizes {
                let (chunk, tail) = rest.split_at_mut(size);
                rest = tail;
                let off = offset;
                scope.spawn(move || sweep_chunk(chunk, off, stride, n, usize::MAX));
                offset += size;
            }
        });
    }

    if shape.ndim() == 0 || rows == 1 {
        return;
    }

    // Dim 0, phase 1: local prefix within each slab (parallel).
    {
        let data = a.as_mut_slice();
        std::thread::scope(|scope| {
            let mut rest = data;
            for &size in &sizes {
                let (chunk, tail) = rest.split_at_mut(size);
                rest = tail;
                scope.spawn(move || {
                    // Local sweep: offset 0 makes the first row of the
                    // chunk the sweep's row 0.
                    sweep_chunk(chunk, 0, row_len, usize::MAX, usize::MAX);
                });
            }
        });
    }

    // Dim 0, phase 2: accumulate each slab's last row into a running
    // base and add it to every row of the following slab (parallel per
    // slab after the serial base accumulation).
    let mut bases: Vec<Vec<T>> = Vec::with_capacity(sizes.len());
    {
        let data = a.as_slice();
        let mut base = vec![T::zero(); row_len];
        let mut offset = 0usize;
        for &size in &sizes {
            bases.push(base.clone());
            let last_row = &data[offset + size - row_len..offset + size];
            for (b, v) in base.iter_mut().zip(last_row) {
                b.add_assign(v);
            }
            offset += size;
        }
    }
    {
        let data = a.as_mut_slice();
        std::thread::scope(|scope| {
            let mut rest = data;
            for (i, &size) in sizes.iter().enumerate() {
                let (chunk, tail) = rest.split_at_mut(size);
                rest = tail;
                let base = &bases[i];
                scope.spawn(move || {
                    if base.iter().all(T::is_zero) {
                        return; // first slab: nothing to add
                    }
                    for row in chunk.chunks_exact_mut(row_len) {
                        for (cell, b) in row.iter_mut().zip(base) {
                            cell.add_assign(b);
                        }
                    }
                });
            }
        });
    }
}

impl<T: GroupValue> crate::rps::RpsEngine<T> {
    /// Builds the engine using `threads` worker threads for the P and RP
    /// sweeps (overlay derivation is serial; it is O(d·N/k), dwarfed by
    /// the sweeps).
    pub fn from_cube_parallel(a: &NdCube<T>, threads: usize) -> Self {
        let grid = BoxGrid::with_sqrt_boxes(a.shape().clone());
        let rp = relative_prefix_sums_parallel(a, &grid, threads);
        let mut p = a.clone();
        prefix_sums_parallel(&mut p, threads);
        let overlay = crate::rps::build::build_overlay_from_p(a, &p, &rp, grid.clone());
        Self::from_parts(grid, overlay, rp)
    }

    /// Applies a batch of point updates using up to `threads` worker
    /// threads, with the same adaptive incremental/rebuild decision as
    /// [`Self::apply_batch`]. Returns `true` when the rebuild path was
    /// taken.
    ///
    /// A sample of the batch is applied serially to *measure* the
    /// per-update write cost; if the projected incremental cost beats a
    /// rebuild, the remainder is partitioned across `threads` workers by
    /// dim-0 box-row slabs (see the module docs — the result is
    /// bit-identical to serial application). Otherwise the engine
    /// recovers `A`, folds the batch in, and rebuilds. An empty batch
    /// counts nothing.
    pub fn apply_batch_parallel(
        &mut self,
        updates: &[(Vec<usize>, T)],
        threads: usize,
    ) -> Result<bool, ndcube::NdError> {
        use crate::engine::RangeSumEngine;
        use crate::rps::batch::est;

        const SAMPLE: usize = 32;
        if updates.is_empty() {
            return Ok(false);
        }
        // Validate everything up front: a batch is all-or-nothing.
        for (coords, _) in updates {
            self.shape().check(coords)?;
        }
        let m = crate::obs::engine(crate::obs::EngineKind::Rps);
        m.batches.inc();
        m.batch_updates
            .add(u64::try_from(updates.len()).unwrap_or(u64::MAX));
        let sample = updates.len().min(SAMPLE);
        let before = self.stats().cell_writes;
        let (sampled, rest) = updates.split_at(sample);
        for (coords, delta) in sampled {
            self.update(coords, delta.clone())?;
        }
        if rest.is_empty() {
            return Ok(false);
        }
        // lint:allow(L4): write counters stay far below 2^53; f64 rounding is harmless here
        let measured = (self.stats().cell_writes - before) as f64 / est(sample);
        if measured * est(rest.len()) <= self.rebuild_cost() {
            let rows = self.grid().grid_shape().dim(0);
            if threads > 1 && rows >= 2 && rest.len() >= 2 {
                self.apply_updates_parallel(rest, threads);
            } else {
                for (coords, delta) in rest {
                    self.update(coords, delta.clone())?;
                }
            }
            Ok(false)
        } else {
            let mut a = self.to_cube();
            for (coords, delta) in rest {
                let lin = a.shape().linear_unchecked(coords);
                a.get_linear_mut(lin).add_assign(delta);
            }
            self.rebuild_from(&a)?;
            Ok(true)
        }
    }

    /// Applies pre-validated updates by slab-partitioning the structures
    /// across scoped worker threads. Every worker replays the whole batch
    /// in order against its own disjoint slab, so the outcome matches the
    /// serial loop exactly (see the module docs for the argument).
    pub(crate) fn apply_updates_parallel(&mut self, updates: &[(Vec<usize>, T)], threads: usize) {
        let k0 = self.grid.box_size()[0];
        let rows = self.grid.grid_shape().dim(0);
        // Boxes per dim-0 box row: the tail dimensions of the grid shape.
        let row_boxes = self.grid.grid_shape().strides()[0];
        let row_counts = slab_sizes(rows, 1, 1, threads);

        let grid = &self.grid;
        let (box_offsets, mut ov_rest) = self.overlay.parts_mut();
        let (rp_shape, mut rp_rest) = self.rp.parts_mut();
        let stride0 = rp_shape.strides()[0];
        let n0 = rp_shape.dim(0);

        let mut total_writes = 0u64;
        let mut total_lane_runs = 0u64;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(row_counts.len());
            let mut r_lo = 0usize;
            let mut ov_base = 0usize;
            let mut rp_base = 0usize;
            for &nrows in &row_counts {
                let r_hi = r_lo + nrows;
                // Overlay cells of box rows r_lo..r_hi are contiguous.
                let ov_hi = box_offsets[r_hi * row_boxes];
                let (my_cells, ov_tail) = ov_rest.split_at_mut(ov_hi - ov_base);
                ov_rest = ov_tail;
                // RP rows of the same slab: cube rows r_lo·k₀ .. r_hi·k₀.
                let cube_row_hi = (r_hi * k0).min(n0);
                let rp_hi = cube_row_hi * stride0;
                let (my_rp, rp_tail) = rp_rest.split_at_mut(rp_hi - rp_base);
                rp_rest = rp_tail;
                let (my_ov_base, my_rp_base, my_r_lo) = (ov_base, rp_base, r_lo);
                let cube_row_lo = my_r_lo * k0;
                handles.push(scope.spawn(move || {
                    let mut ks = KernelScratch::new();
                    let mut writes = 0u64;
                    let mut lane_runs = 0u64;
                    for (c, delta) in updates {
                        if delta.is_zero() {
                            continue;
                        }
                        // RP cascade — confined to c's own box, which lies
                        // entirely inside one slab (slab bounds are box-row
                        // multiples). Run-structured through the lane
                        // kernel, like the serial cascade.
                        if c[0] >= cube_row_lo && c[0] < cube_row_hi {
                            ks.ensure(c.len());
                            grid.box_hi_of_cell_into(c, &mut ks.hi);
                            rp_shape.for_each_contiguous_run_in_bounds(
                                c,
                                &ks.hi,
                                &mut ks.cur,
                                |start, len| {
                                    let lo = start - my_rp_base;
                                    kernels::add_delta_run(&mut my_rp[lo..lo + len], delta);
                                    writes += u64::try_from(len).unwrap_or(u64::MAX);
                                    lane_runs += u64::from(kernels::is_lane_run(len));
                                },
                            );
                        }
                        // Overlay orthant walk, clipped to this slab's rows.
                        writes += overlay_update_walk(
                            grid,
                            box_offsets,
                            my_cells,
                            my_ov_base,
                            my_r_lo,
                            r_hi,
                            c,
                            delta,
                            &mut ks,
                        );
                    }
                    (writes, lane_runs)
                }));
                r_lo = r_hi;
                ov_base = ov_hi;
                rp_base = rp_hi;
            }
            for h in handles {
                // lint:allow(L2): a worker panic is already a bug; propagate it
                let (writes, lane_runs) = h.join().expect("batch update worker panicked");
                total_writes += writes;
                total_lane_runs += lane_runs;
            }
        });
        self.stats.writes(total_writes);
        // lint:allow(L4): batch lengths are far below 2^64
        self.stats.updates_n(updates.len() as u64);
        if total_lane_runs > 0 {
            // Worker-local counts merged on join: one relaxed add per
            // batch, none on the per-update hot path.
            crate::obs::core().lane_runs.add(total_lane_runs);
        }
    }

    /// Answers a batch of range queries sharded across up to `threads`
    /// scoped worker threads, each with its own scratch and corner cache.
    /// Corner caching never changes a reconstructed value, so the results
    /// are **bit-identical** to [`crate::rps::RpsEngine::query_many`].
    /// The thread count is clamped to
    /// [`std::thread::available_parallelism`]; one thread, or fewer than
    /// two regions per thread, takes the serial path.
    pub fn query_many_parallel(
        &self,
        regions: &[Region],
        threads: usize,
    ) -> Result<Vec<T>, NdError> {
        crate::rps::range_sums_parallel(self, regions, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RangeSumEngine;
    use crate::prefix::prefix_sums_in_place;
    use crate::rps::{relative_prefix_sums, RpsEngine};
    use crate::testdata::paper_array_a;
    use ndcube::Region;

    #[test]
    fn parallel_rp_matches_serial() {
        for dims in [vec![9usize, 9], vec![16, 8], vec![7, 5, 6], vec![33, 4]] {
            let a = NdCube::from_fn(&dims, |c| {
                c.iter()
                    .enumerate()
                    .map(|(i, &x)| (x + 1) * (i + 2))
                    .sum::<usize>() as i64
            })
            .unwrap();
            let grid = BoxGrid::with_sqrt_boxes(a.shape().clone());
            let serial = relative_prefix_sums(&a, &grid);
            for threads in [2, 3, 8] {
                let par = relative_prefix_sums_parallel(&a, &grid, threads);
                assert_eq!(par, serial, "dims {dims:?}, threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_prefix_matches_serial() {
        for dims in [
            vec![9usize, 9],
            vec![16, 8],
            vec![7, 5, 6],
            vec![2, 31],
            vec![64],
        ] {
            let a = NdCube::from_fn(&dims, |c| (c.iter().sum::<usize>() * 3 + 1) as i64).unwrap();
            let mut serial = a.clone();
            prefix_sums_in_place(&mut serial);
            for threads in [2, 4, 7] {
                let mut par = a.clone();
                prefix_sums_parallel(&mut par, threads);
                assert_eq!(par, serial, "dims {dims:?}, threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_engine_matches_serial_engine() {
        let a = paper_array_a();
        let serial = RpsEngine::from_cube(&a);
        let par = RpsEngine::from_cube_parallel(&a, 4);
        assert_eq!(par.rp_array(), serial.rp_array());
        for r in 0..9 {
            for c in 0..9 {
                assert_eq!(
                    par.prefix_sum(&[r, c]).unwrap(),
                    serial.prefix_sum(&[r, c]).unwrap(),
                    "P[{r},{c}]"
                );
            }
        }
    }

    #[test]
    fn parallel_engine_updates_and_queries() {
        let a = NdCube::from_fn(&[40, 40], |c| ((c[0] * 17 + c[1]) % 23) as i64).unwrap();
        let mut e = RpsEngine::from_cube_parallel(&a, 8);
        let naive = crate::naive::NaiveEngine::from_cube(a);
        let r = Region::new(&[3, 5], &[30, 38]).unwrap();
        assert_eq!(e.query(&r).unwrap(), naive.query(&r).unwrap());
        e.update(&[10, 10], 99).unwrap();
        assert_eq!(e.query(&r).unwrap(), naive.query(&r).unwrap() + 99);
    }

    #[test]
    fn parallel_batch_updates_match_naive() {
        // Geometry chosen so the measured crossover keeps the batch
        // incremental: 50 updates on a 64×64 cube (rebuild ≈ 16k writes)
        // leaves the post-sample remainder on the slab-parallel path.
        let a = NdCube::from_fn(&[64, 64], |c| ((c[0] * 13 + c[1] * 29) % 17) as i64).unwrap();
        let mut e = RpsEngine::from_cube_uniform(&a, 8).unwrap();
        let mut naive = crate::naive::NaiveEngine::from_cube(a);
        let batch: Vec<(Vec<usize>, i64)> = (0..50)
            .map(|i| (vec![(i * 11) % 64, (i * 23) % 64], (i % 9) as i64 - 4))
            .collect();
        for (c, d) in &batch {
            naive.update(c, *d).unwrap();
        }
        let rebuilt = e.apply_batch_parallel(&batch, 4).unwrap();
        assert!(!rebuilt, "this batch should stay incremental");
        for (lo, hi) in [([0, 0], [63, 63]), ([5, 9], [60, 44]), ([33, 33], [33, 33])] {
            let r = Region::new(&lo, &hi).unwrap();
            assert_eq!(e.query(&r).unwrap(), naive.query(&r).unwrap(), "{r:?}");
        }
    }

    #[test]
    fn parallel_batch_stats_match_serial() {
        let a = NdCube::from_fn(&[24, 24], |c| (c[0] + c[1]) as i64).unwrap();
        let batch: Vec<(Vec<usize>, i64)> = (0..40)
            .map(|i| (vec![(i * 7) % 24, (i * 3) % 24], 1i64))
            .collect();

        let mut serial = RpsEngine::from_cube_uniform(&a, 4).unwrap();
        for (c, d) in &batch {
            serial.update(c, *d).unwrap();
        }
        let mut par = RpsEngine::from_cube_uniform(&a, 4).unwrap();
        par.apply_updates_parallel(&batch, 4);
        // Same write totals, same op counts — the coalesced batch
        // accounting is indistinguishable from per-op accounting.
        assert_eq!(par.stats(), serial.stats());
        assert_eq!(par.rp_array(), serial.rp_array());
    }

    #[test]
    fn single_thread_falls_back() {
        let a = paper_array_a();
        let grid = BoxGrid::new(a.shape().clone(), &[3, 3]).unwrap();
        assert_eq!(
            relative_prefix_sums_parallel(&a, &grid, 1),
            relative_prefix_sums(&a, &grid)
        );
    }

    #[test]
    fn more_threads_than_rows() {
        let a = NdCube::from_fn(&[3, 50], |c| (c[0] + c[1]) as i64).unwrap();
        let grid = BoxGrid::with_sqrt_boxes(a.shape().clone());
        assert_eq!(
            relative_prefix_sums_parallel(&a, &grid, 16),
            relative_prefix_sums(&a, &grid)
        );
        let mut p = a.clone();
        prefix_sums_parallel(&mut p, 16);
        let mut s = a.clone();
        prefix_sums_in_place(&mut s);
        assert_eq!(p, s);
    }

    /// A dashboard-style mixed batch: rolling windows, group-bys, points.
    fn query_batch(n: usize) -> Vec<Region> {
        (0..n)
            .map(|i| match i % 3 {
                0 => Region::new(&[i % 30, i % 20], &[(i % 30) + 9, (i % 20) + 14]).unwrap(),
                1 => Region::new(&[0, i % 35], &[39, (i % 35) + 4]).unwrap(),
                _ => Region::point(&[i % 40, (i * 7) % 40]).unwrap(),
            })
            .collect()
    }

    #[test]
    fn query_many_parallel_matches_serial() {
        let a = NdCube::from_fn(&[40, 40], |c| ((c[0] * 17 + c[1] * 3) % 29) as i64).unwrap();
        let e = RpsEngine::from_cube_uniform(&a, 7).unwrap();
        let regions = query_batch(64);
        let serial = e.query_many(&regions).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let par = e.query_many_parallel(&regions, threads).unwrap();
            assert_eq!(par, serial, "threads {threads}");
        }
    }

    #[test]
    fn query_many_parallel_counts_queries_and_reads() {
        let a = NdCube::from_fn(&[40, 40], |c| (c[0] + c[1]) as i64).unwrap();
        let e = RpsEngine::from_cube_uniform(&a, 6).unwrap();
        let regions = query_batch(48);
        e.reset_stats();
        e.query_many_parallel(&regions, 4).unwrap();
        let s = e.stats();
        assert_eq!(s.queries, 48);
        // Reads are bounded by the uncached worst case 2^d·(d+2)·q.
        assert!(
            s.cell_reads > 0 && s.cell_reads <= 16 * 48,
            "{}",
            s.cell_reads
        );
    }

    #[test]
    fn query_many_parallel_small_batch_falls_back() {
        // Fewer regions than 2 × threads: the serial path answers, with
        // identical values.
        let a = NdCube::from_fn(&[20, 20], |c| (c[0] * c[1]) as i64).unwrap();
        let e = RpsEngine::from_cube_uniform(&a, 5).unwrap();
        let regions: Vec<Region> = (0..5)
            .map(|i| Region::new(&[i, 0], &[i + 3, 19]).unwrap())
            .collect();
        assert_eq!(
            e.query_many_parallel(&regions, 8).unwrap(),
            e.query_many(&regions).unwrap()
        );
    }

    #[test]
    fn effective_threads_clamps_to_host() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(effective_threads(0), 1);
        assert_eq!(effective_threads(1), 1);
        // Requests beyond the host cap come back as exactly the cap.
        assert_eq!(effective_threads(cores), cores);
        assert_eq!(effective_threads(cores + 7), cores);
        assert_eq!(effective_threads(usize::MAX), cores);
    }

    #[test]
    fn query_many_parallel_rejects_bad_region() {
        let e = RpsEngine::<i64>::zeros(&[10, 10]).unwrap();
        let mut regions = query_batch(20)
            .into_iter()
            .map(|_| Region::new(&[0, 0], &[5, 5]).unwrap())
            .collect::<Vec<_>>();
        regions.push(Region::new(&[0, 0], &[10, 10]).unwrap()); // out of bounds
        assert!(e.query_many_parallel(&regions, 4).is_err());
    }
}

/// Property tests for the slab decomposition itself — the invariants the
/// scoped-thread splitting in the sweeps above relies on. Exercised over
/// geometries chosen to hit the awkward cases: rows not divisible by
/// `k₀ × threads`, single-row slabs, and more threads than rows.
#[cfg(test)]
mod props {
    use super::*;
    use crate::prefix::prefix_sums_in_place;
    use crate::rps::relative_prefix_sums;
    use proptest::prelude::*;

    fn geometry() -> impl Strategy<Value = (usize, usize, usize, usize)> {
        // (rows, row_len, align, threads) — small enough to stay fast,
        // wide enough to cover ragged/degenerate splits.
        (1usize..=40, 1usize..=12, 1usize..=7, 1usize..=10)
    }

    proptest! {
        /// Slabs partition the buffer exactly: they are all nonempty,
        /// whole multiples of the row length, and sum to the total size.
        #[test]
        fn slabs_partition_the_buffer((rows, row_len, align, threads) in geometry()) {
            let sizes = slab_sizes(rows, row_len, align, threads);
            prop_assert!(sizes.iter().all(|&s| s > 0));
            prop_assert!(sizes.iter().all(|&s| s.is_multiple_of(row_len)));
            prop_assert_eq!(sizes.iter().sum::<usize>(), rows * row_len);
        }

        /// Every slab except possibly the last holds a multiple of
        /// `align` rows — the guarantee that keeps each RP slab's box
        /// sweeps from crossing a `k₀` boundary.
        #[test]
        fn slabs_are_aligned((rows, row_len, align, threads) in geometry()) {
            let sizes = slab_sizes(rows, row_len, align, threads);
            for &s in &sizes[..sizes.len() - 1] {
                prop_assert!((s / row_len).is_multiple_of(align));
            }
        }

        /// The split never produces more slabs than requested threads —
        /// each slab becomes one spawned worker.
        #[test]
        fn slab_count_bounded_by_threads((rows, row_len, align, threads) in geometry()) {
            let sizes = slab_sizes(rows, row_len, align, threads);
            prop_assert!(sizes.len() <= threads);
        }

        /// A whole-buffer `sweep_chunk` with `k = usize::MAX` along dim 0
        /// is exactly a running prefix along that dimension.
        #[test]
        fn sweep_chunk_is_prefix_along_dim0(
            rows in 1usize..=12,
            cols in 1usize..=8,
        ) {
            let a = NdCube::from_fn(&[rows, cols], |c| (c[0] * 31 + c[1] * 7 + 1) as i64).unwrap();
            let mut swept = a.clone().into_vec();
            sweep_chunk(&mut swept, 0, cols, rows, usize::MAX);
            for r in 0..rows {
                for c in 0..cols {
                    let expect: i64 = (0..=r).map(|i| a.get(&[i, c])).sum();
                    prop_assert_eq!(swept[r * cols + c], expect);
                }
            }
        }

        /// Box-bounded `sweep_chunk` restarts accumulation at every
        /// multiple of `k` instead of running to the edge.
        #[test]
        fn sweep_chunk_restarts_at_box_boundaries(
            rows in 1usize..=12,
            cols in 1usize..=8,
            k in 1usize..=5,
        ) {
            let a = NdCube::from_fn(&[rows, cols], |c| (c[0] * 13 + c[1] + 1) as i64).unwrap();
            let mut swept = a.clone().into_vec();
            sweep_chunk(&mut swept, 0, cols, rows, k);
            for r in 0..rows {
                let box_lo = (r / k) * k;
                for c in 0..cols {
                    let expect: i64 = (box_lo..=r).map(|i| a.get(&[i, c])).sum();
                    prop_assert_eq!(swept[r * cols + c], expect);
                }
            }
        }

        /// Slab-parallel batch updates are bit-identical to the serial
        /// update loop — structures AND stats — for every thread count,
        /// including threads > box rows and single-box-row grids.
        #[test]
        fn parallel_batch_matches_serial_updates(
            (dims, ks, batch) in (1usize..=3)
                .prop_flat_map(|d| {
                    (
                        proptest::collection::vec(1usize..=8, d),
                        proptest::collection::vec(1usize..=4, d),
                    )
                })
                .prop_flat_map(|(dims, ks)| {
                    let coord: Vec<std::ops::Range<usize>> =
                        dims.iter().map(|&n| 0..n).collect();
                    let upd = (coord, -50i64..50);
                    (
                        Just(dims),
                        Just(ks),
                        proptest::collection::vec(upd, 0..=12),
                    )
                }),
        ) {
            let a = NdCube::from_fn(&dims, |c| {
                c.iter().enumerate().map(|(i, &x)| (x + 2) * (i + 1)).sum::<usize>() as i64
            })
            .unwrap();
            let mut serial = crate::rps::RpsEngine::from_cube_with_box_size(&a, &ks).unwrap();
            for (c, d) in &batch {
                crate::engine::RangeSumEngine::update(&mut serial, c, *d).unwrap();
            }
            for threads in [1usize, 2, 4, 7] {
                let mut par = crate::rps::RpsEngine::from_cube_with_box_size(&a, &ks).unwrap();
                par.apply_updates_parallel(&batch, threads);
                prop_assert_eq!(par.rp_array(), serial.rp_array(), "rp, threads {}", threads);
                for i in 0..par.overlay.storage_cells() {
                    prop_assert_eq!(
                        par.overlay.get(i),
                        serial.overlay.get(i),
                        "overlay cell {}, threads {}", i, threads
                    );
                }
                prop_assert_eq!(
                    crate::engine::RangeSumEngine::stats(&par),
                    crate::engine::RangeSumEngine::stats(&serial),
                    "stats, threads {}", threads
                );
            }
        }

        /// End-to-end: the parallel RP and P builds agree with the serial
        /// sweeps on arbitrary small shapes and thread counts, including
        /// rows not divisible by `k₀ × threads` and threads > rows.
        #[test]
        fn parallel_sweeps_agree_with_serial(
            dims in (1usize..=3).prop_flat_map(|d| {
                proptest::collection::vec(1usize..=14, d..=d)
            }),
            threads in 1usize..=9,
        ) {
            let a = NdCube::from_fn(&dims, |c| {
                c.iter().enumerate().map(|(i, &x)| (x + 1) * (i + 3)).sum::<usize>() as i64
            })
            .unwrap();
            let grid = BoxGrid::with_sqrt_boxes(a.shape().clone());
            prop_assert_eq!(
                relative_prefix_sums_parallel(&a, &grid, threads),
                relative_prefix_sums(&a, &grid)
            );
            let mut par = a.clone();
            prefix_sums_parallel(&mut par, threads);
            let mut ser = a.clone();
            prefix_sums_in_place(&mut ser);
            prop_assert_eq!(par, ser);
        }
    }
}
