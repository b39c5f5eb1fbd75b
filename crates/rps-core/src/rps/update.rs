//! The RPS point-update algorithm (§4.2, Figures 14–15).
//!
//! An update to `A[c]` with box index `b = c ÷ k` touches:
//!
//! 1. **RP** — only cells of `c`'s own box with coordinates ≥ `c`
//!    (cascading stops at the box boundary): at most `(k−1)^d + …` ≈ `k^d`.
//! 2. **Overlay** — boxes in the "upper orthant" `b' ≥ b`:
//!    * *interior* boxes (`c ≤ α'`, the anchor region sum contains `A[c]`):
//!      anchor gets the delta; borders provably unchanged;
//!    * *border* boxes (same slab as `c` in ≥ 1 dimension, strictly later
//!      in ≥ 1): stored cells `p ≥ c` get the delta — these are the shaded
//!      "cross" regions of Figure 14;
//!    * the box containing `c` itself: overlay untouched (its anchor and
//!      borders describe regions outside the box, none containing `c`).
//!
//! The classification follows from the defining identities
//! `anchor(α) = P[α] − A[α]` and `border(p) = P[p] − RP[p] − anchor`:
//! differencing each with respect to `A[c]` gives
//! `Δborder(p) = Δ·([c≤p] − [α≤c≤p] − [c≤α ∧ c≠α])`, which collapses to
//! the three cases above. Every case is pinned against the paper's
//! Figure 15 numbers in the tests below and against brute-force rebuilds
//! in the property tests.
//!
//! The `_with` kernels take a [`KernelScratch`] and perform **zero heap
//! allocations**; the scratch-free functions are compatibility wrappers
//! that borrow the thread-local workspace. The orthant walk itself lives
//! in `overlay_update_walk`, parameterized by a dim-0 box-row range so
//! [`crate::VersionedEngine`] can run it once per copy-on-write box-row
//! granule.
//!
//! **Range updates** (`+δ` over every cell of a region `R = [lo, hi]`)
//! generalize the same classification by *counting* instead of testing:
//! with `N(y) = |R ∩ {q : q ≤ y}|` and `N_B(y) = |R ∩ B ∩ {q : q ≤ y}|`,
//! linearity of the defining identities gives, uniformly for every box,
//!
//! ```text
//! ΔRP[x]      = δ · N_B(x)
//! Δanchor(α)  = δ · (N(α) − [α ∈ R])
//! Δborder(p)  = δ · (N(p) − N_B(p) − (N(α) − [α ∈ R]))
//! ```
//!
//! which collapses to the point-update cases at `|R| = 1`. The affected
//! boxes are exactly the upper orthant of `lo`'s box (everything else has
//! all three counts zero), `lo`'s own box is overlay-untouched (any
//! `q ∈ R` with `q ≤ p ∈ B` satisfies `α ≤ lo ≤ q ≤ p ≤ hi(B)`, so
//! `N = N_B` there), and boxes wholly past `R` (`hi ≤ α` componentwise)
//! are anchor-only. `apply_range_update_with` walks RP box by box, turning
//! each innermost row into one ramp + one constant run, so the whole
//! update is `O(cells touched)` with lane-kernel inner loops instead of
//! `|R|` separate cascades.

use ndcube::{NdCube, Region};

use crate::rps::grid::BoxGrid;
use crate::rps::kernels;
use crate::rps::overlay::Overlay;
use crate::rps::scratch::{with_scratch, KernelScratch};
use crate::stats::StatsCell;
use crate::value::GroupValue;

/// Applies `delta` at `c`, mutating `rp` and `overlay`. Returns nothing;
/// cell-write counts are recorded on `stats`.
///
/// Compatibility wrapper over [`apply_update_with`] using the
/// thread-local scratch. `c` must already be validated against the cube
/// shape.
pub fn apply_update<T: GroupValue>(
    grid: &BoxGrid,
    overlay: &mut Overlay<T>,
    rp: &mut NdCube<T>,
    stats: &StatsCell,
    c: &[usize],
    delta: &T,
) {
    let writes = with_scratch(|s| apply_update_with(grid, overlay, rp, c, delta, &mut s.kernel));
    stats.writes(writes);
}

/// Applies `delta` at `c`, mutating `rp` and `overlay`, using caller
/// scratch — zero heap allocations. Returns the number of cells written
/// (RP + overlay), for the caller to record on its stats in one add.
///
/// `c` must already be validated against the cube shape.
pub fn apply_update_with<T: GroupValue>(
    grid: &BoxGrid,
    overlay: &mut Overlay<T>,
    rp: &mut NdCube<T>,
    c: &[usize],
    delta: &T,
    ks: &mut KernelScratch,
) -> u64 {
    ks.ensure(c.len());

    // --- 1. RP: cascade within the box, clipped to x ≥ c. ---
    // Run-structured: one lane-kernel call per contiguous innermost-axis
    // run instead of one closure call per cell.
    grid.box_hi_of_cell_into(c, &mut ks.hi);
    let mut writes = 0u64;
    let mut lane_runs = 0u64;
    {
        let (shape, data) = rp.parts_mut();
        shape.for_each_contiguous_run_in_bounds(c, &ks.hi, &mut ks.cur, |start, len| {
            kernels::add_delta_run(&mut data[start..start + len], delta);
            writes += u64::try_from(len).unwrap_or(u64::MAX);
            lane_runs += u64::from(kernels::is_lane_run(len));
        });
    }
    if lane_runs > 0 {
        // Coalesced: one relaxed add per update, not one per run.
        crate::obs::core().lane_runs.add(lane_runs);
    }

    // --- 2. Overlay: walk the upper orthant of boxes. ---
    writes + apply_overlay_update_with(grid, overlay, c, delta, ks)
}

/// Walks the RP cells a point update at `c` must touch — `c`'s own box,
/// clipped to coordinates ≥ `c` — invoking `f` with each cell's
/// coordinates. Zero allocations.
///
/// The coordinate-level twin of the cascade inside [`apply_update_with`],
/// for engines that resolve cells through an indirection (the
/// disk-resident engine routes each coordinate through its buffer pool).
pub fn for_each_rp_cascade_cell(
    grid: &BoxGrid,
    c: &[usize],
    ks: &mut KernelScratch,
    f: impl FnMut(&[usize]),
) {
    ks.ensure(c.len());
    grid.box_hi_of_cell_into(c, &mut ks.hi);
    ndcube::for_each_coords_in_bounds(c, &ks.hi, &mut ks.cur, f);
}

/// The overlay half of a point update: walks the upper orthant of boxes,
/// adding `delta` to interior anchors and to border cells with offsets
/// `≥` the per-dimension lower bounds (§4.2, Figure 14). Returns the
/// number of overlay cells written.
///
/// Compatibility wrapper over [`apply_overlay_update_with`] using the
/// thread-local scratch.
pub fn apply_overlay_update<T: GroupValue>(
    grid: &BoxGrid,
    overlay: &mut Overlay<T>,
    c: &[usize],
    delta: &T,
) -> u64 {
    with_scratch(|s| apply_overlay_update_with(grid, overlay, c, delta, &mut s.kernel))
}

/// The overlay half of a point update, using caller scratch — zero heap
/// allocations. Returns the number of overlay cells written.
///
/// Shared by the in-memory engine and the disk-resident engine — the
/// overlay always lives in memory, so this half is byte-identical in
/// both deployments and must exist exactly once.
pub fn apply_overlay_update_with<T: GroupValue>(
    grid: &BoxGrid,
    overlay: &mut Overlay<T>,
    c: &[usize],
    delta: &T,
    ks: &mut KernelScratch,
) -> u64 {
    let rows = grid.grid_shape().dim(0);
    let (box_offsets, cells) = overlay.parts_mut();
    overlay_update_walk(grid, box_offsets, cells, 0, 0, rows, c, delta, ks)
}

/// The upper-orthant overlay walk, restricted to boxes whose dim-0 index
/// lies in `row_lo .. row_hi` and writing through a cell slice that starts
/// at flat overlay index `base`.
///
/// With `base = 0` and the full row range this **is** the overlay update;
/// the versioned engine walks one box row at a time, handing in that
/// row's granule as `cells` with its flat start as `base`. Returns cells
/// written.
#[allow(clippy::too_many_arguments)]
pub(crate) fn overlay_update_walk<T: GroupValue>(
    grid: &BoxGrid,
    box_offsets: &[usize],
    cells: &mut [T],
    base: usize,
    row_lo: usize,
    row_hi: usize,
    c: &[usize],
    delta: &T,
    ks: &mut KernelScratch,
) -> u64 {
    debug_assert!(row_lo < row_hi && row_hi <= grid.grid_shape().dim(0));
    ks.ensure(c.len());
    let KernelScratch {
        b,
        alpha,
        lb,
        extents,
        lo,
        hi,
        cur,
        e,
        ..
    } = ks;
    grid.box_index_into(c, b);
    if b[0] >= row_hi {
        // Every box of this slab precedes c's box in dim 0: the upper
        // orthant misses the slab entirely.
        return 0;
    }
    // Walk bounds: the orthant `b' ≥ b`, with dim 0 clamped to the slab.
    lo.copy_from_slice(b);
    lo[0] = lo[0].max(row_lo);
    for (h, &g) in hi.iter_mut().zip(grid.grid_shape().dims()) {
        *h = g - 1;
    }
    hi[0] = row_hi - 1;

    let grid_shape = grid.grid_shape();
    let mut writes = 0u64;
    ndcube::for_each_coords_in_bounds(lo, hi, cur, |bp| {
        if bp == b.as_slice() {
            return; // own box: overlay provably unchanged
        }
        for (ai, (&bi, &ki)) in alpha.iter_mut().zip(bp.iter().zip(grid.box_size())) {
            *ai = bi * ki;
        }
        let cell_base = box_offsets[grid_shape.linear_unchecked(bp)] - base;
        if c.iter().zip(&*alpha).all(|(&ci, &ai)| ci <= ai) {
            // Interior box: A[c] is part of the anchor's region sum.
            // (c = α' is impossible here: that would make bp the own box.)
            cells[cell_base].add_assign(delta); // anchor is always slot 0
            writes += 1;
        } else {
            // Border box: same slab as c in every dim where α'_i < c_i.
            // Affected stored cells are those with offset e ≥ lb.
            for (l, (&ci, &ai)) in lb.iter_mut().zip(c.iter().zip(&*alpha)) {
                *l = ci.saturating_sub(ai);
            }
            grid.extents_into(bp, extents);
            for_each_stored_offset_geq_with(extents, lb, e, |eo| {
                let slot = BoxGrid::slot_of(eo, extents)
                    // lint:allow(L2): the offset enumeration visits exactly the stored slots
                    .expect("enumeration yields stored cells");
                cells[cell_base + slot].add_assign(delta);
                writes += 1;
            });
        }
    });
    writes
}

/// `N(y) = |R ∩ {q : q ≤ y}|` for `R = [lo, hi]`: the number of region
/// cells weakly preceding `y` componentwise. Separable, so it is a product
/// of per-dimension counts; any empty dimension zeroes the whole product.
// lint:allow(L4): per-dimension counts are ≤ the cube side and their
// product is ≤ the cube's cell count, which fits u64 on every target.
#[inline]
fn region_cells_leq(lo: &[usize], hi: &[usize], y: &[usize]) -> u64 {
    let mut n = 1u64;
    for ((&l, &h), &yi) in lo.iter().zip(hi).zip(y) {
        let top = yi.min(h);
        if top < l {
            return 0;
        }
        n *= (top - l + 1) as u64; // lint:allow(L4): extent ≤ n fits u64
    }
    n
}

/// [`region_cells_leq`] at `y = α + e`, without materializing `y` — the
/// border enumeration hands out in-box offsets, not absolute coordinates.
// lint:allow(L4): see region_cells_leq
#[inline]
fn region_cells_leq_off(lo: &[usize], hi: &[usize], alpha: &[usize], e: &[usize]) -> u64 {
    let mut n = 1u64;
    for i in 0..lo.len() {
        let top = (alpha[i] + e[i]).min(hi[i]);
        if top < lo[i] {
            return 0;
        }
        n *= (top - lo[i] + 1) as u64; // lint:allow(L4): extent ≤ n fits u64
    }
    n
}

/// `N_B(y) = |R ∩ B ∩ {q : q ≤ y}|` at `y = α + e`, for the box anchored
/// at `alpha`. `y` always lies inside `B`, so clamping the lower end to
/// the anchor is the only difference from [`region_cells_leq_off`].
// lint:allow(L4): see region_cells_leq
#[inline]
fn box_region_cells_leq_off(lo: &[usize], hi: &[usize], alpha: &[usize], e: &[usize]) -> u64 {
    let mut n = 1u64;
    for i in 0..lo.len() {
        let top = (alpha[i] + e[i]).min(hi[i]);
        let bot = lo[i].max(alpha[i]);
        if top < bot {
            return 0;
        }
        n *= (top - bot + 1) as u64; // lint:allow(L4): extent ≤ n fits u64
    }
    n
}

/// Applies a range update to `rp` and `overlay` using caller scratch —
/// zero heap allocations after the scratch buffers are sized. Returns the
/// number of cells written (RP + overlay).
///
/// The region must already be validated against the cube shape. The
/// result is bit-identical to a per-cell [`apply_update_with`] loop over
/// the region (pinned by the property tests below) at the cost of the
/// cells *touched*, not `|R|` separate cascades.
pub fn apply_range_update_with<T: GroupValue>(
    grid: &BoxGrid,
    overlay: &mut Overlay<T>,
    rp: &mut NdCube<T>,
    region: &Region,
    delta: &T,
    ks: &mut KernelScratch,
) -> u64 {
    ks.ensure(region.ndim());
    let mut writes = rp_range_cascade(grid, rp, region.lo(), region.hi(), delta, ks);
    let rows = grid.grid_shape().dim(0);
    let (box_offsets, cells) = overlay.parts_mut();
    writes += overlay_range_walk(
        grid,
        box_offsets,
        cells,
        0,
        0,
        rows,
        region.lo(),
        region.hi(),
        delta,
        ks,
    );
    writes
}

/// The RP half of a range update: every box intersecting `R` gets
/// `δ·N_B(x)` added to its cells `x ≥ max(α, lo)`, one box at a time via
/// [`rp_range_box`], addressing the flat array from the cube's origin
/// with the cube's strides.
fn rp_range_cascade<T: GroupValue>(
    grid: &BoxGrid,
    rp: &mut NdCube<T>,
    lo: &[usize],
    hi: &[usize],
    delta: &T,
    ks: &mut KernelScratch,
) -> u64 {
    ks.ensure(lo.len());
    let KernelScratch {
        b,
        offsets,
        anchor: origin,
        alpha,
        lo: rlo,
        hi: box_hi,
        cur,
        e,
        ..
    } = ks;
    // Boxes intersecting R form the index rectangle [box(lo), box(hi)].
    grid.box_index_into(lo, b);
    grid.box_index_into(hi, offsets);
    origin.fill(0);
    let (shape, data) = rp.parts_mut();
    let mut writes = 0u64;
    ndcube::for_each_coords_in_bounds(b, offsets, cur, |bp| {
        writes += rp_range_box(
            grid,
            data,
            origin,
            shape.strides(),
            bp,
            lo,
            hi,
            delta,
            alpha,
            rlo,
            box_hi,
            e,
        );
    });
    writes
}

/// Adds `δ·N_B(x)` to the RP cells of one box `bp` intersecting
/// `R = [lo, hi]`, writing through a row-major cell slice that holds
/// the cell at cube coordinate `x` at `Σ (xᵢ − originᵢ)·stridesᵢ`.
/// The in-memory engine passes the whole RP array with the cube's
/// origin (all zeros) and strides; the versioned engine passes one
/// box's copy-on-write granule with the box's anchor and the strides
/// of its clamped extents. Either way the innermost stride is 1.
///
/// Per innermost row the count factorizes as `m · (x_last-dependent
/// term)`: a ramp of step `δ·m` up to `min(hi, box_hi)` in the last
/// dimension, then that ramp's final value as a constant over the rest of
/// the row — one [`kernels::add_ramp_run`] plus one
/// [`kernels::add_delta_run`] per row. Returns cells written.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rp_range_box<T: GroupValue>(
    grid: &BoxGrid,
    data: &mut [T],
    origin: &[usize],
    strides: &[usize],
    bp: &[usize],
    lo: &[usize],
    hi: &[usize],
    delta: &T,
    alpha: &mut [usize],
    rlo: &mut [usize],
    box_hi: &mut [usize],
    row: &mut Vec<usize>,
) -> u64 {
    let d = bp.len();
    let last = d - 1;
    grid.anchor_into(bp, alpha);
    let sizes = grid.box_size().iter().zip(grid.cube_shape().dims());
    for (o, ((&b, (&k, &n)), (&a, &l))) in box_hi
        .iter_mut()
        .zip(bp.iter().zip(sizes).zip(alpha.iter().zip(lo)))
    {
        *o = ((b + 1) * k).min(n) - 1;
        debug_assert!(*o >= a.max(l), "box must intersect the region");
    }
    for (r, (&a, &l)) in rlo.iter_mut().zip(alpha.iter().zip(lo)) {
        *r = a.max(l);
    }
    debug_assert_eq!(strides[last], 1, "rows are contiguous");
    row.clear();
    row.extend_from_slice(&rlo[..last]);
    let mut row_base: usize = row
        .iter()
        .zip(origin.iter().zip(strides))
        .map(|(&c, (&o, &s))| (c - o) * s)
        .sum();
    let mut writes = 0u64;
    let mut lane_runs = 0u64;
    'rows: loop {
        // Prefactor: region cells preceding this row in the outer dims.
        let m = row.iter().enumerate().fold(1u64, |acc, (i, &c)| {
            // Per-dimension counts multiply to ≤ the cube's cell count.
            // lint:allow(L4): counts fit u64
            acc * (c.min(hi[i]) - rlo[i] + 1) as u64
        });
        let start = row_base + rlo[last] - origin[last];
        let ramp_len = hi[last].min(box_hi[last]) - rlo[last] + 1;
        let total_len = box_hi[last] - rlo[last] + 1;
        let slice = &mut data[start..start + total_len];
        let step = delta.scale(m);
        let (ramp, rest) = slice.split_at_mut(ramp_len);
        let acc = kernels::add_ramp_run(ramp, &step);
        kernels::add_delta_run(rest, &acc);
        writes += u64::try_from(total_len).unwrap_or(u64::MAX);
        lane_runs += u64::from(kernels::is_lane_run(total_len));
        if last == 0 {
            break;
        }
        let mut dim = last;
        loop {
            if dim == 0 {
                break 'rows;
            }
            dim -= 1;
            if row[dim] < box_hi[dim] {
                row[dim] += 1;
                row_base += strides[dim];
                break;
            }
            row_base -= (row[dim] - rlo[dim]) * strides[dim];
            row[dim] = rlo[dim];
        }
    }
    if lane_runs > 0 {
        crate::obs::core().lane_runs.add(lane_runs);
    }
    writes
}

/// The overlay half of a range update, restricted to boxes whose dim-0
/// index lies in `row_lo .. row_hi` and writing through a cell slice that
/// starts at flat overlay index `base` — the same slab parameterization as
/// [`overlay_update_walk`], so the versioned engine can reuse it per
/// copy-on-write granule. Returns cells written.
///
/// Every box of the upper orthant of `lo`'s box gets the counting form of
/// the point-update classification (see the module docs): the anchor gets
/// `δ·(N(α) − [α∈R])`, border cells `p = α + e` get
/// `δ·(N(p) − N_B(p) − Δanchor-count)`. Boxes wholly past the region
/// (`hi ≤ α`) are anchor-only; `lo`'s own box is untouched.
#[allow(clippy::too_many_arguments)]
pub(crate) fn overlay_range_walk<T: GroupValue>(
    grid: &BoxGrid,
    box_offsets: &[usize],
    cells: &mut [T],
    base: usize,
    row_lo: usize,
    row_hi: usize,
    lo: &[usize],
    hi: &[usize],
    delta: &T,
    ks: &mut KernelScratch,
) -> u64 {
    debug_assert!(row_lo < row_hi && row_hi <= grid.grid_shape().dim(0));
    ks.ensure(lo.len());
    let KernelScratch {
        b,
        alpha,
        lb,
        extents,
        lo: wlo,
        hi: whi,
        cur,
        e,
        ..
    } = ks;
    grid.box_index_into(lo, b);
    if b[0] >= row_hi {
        return 0;
    }
    wlo.copy_from_slice(b);
    wlo[0] = wlo[0].max(row_lo);
    for (h, &g) in whi.iter_mut().zip(grid.grid_shape().dims()) {
        *h = g - 1;
    }
    whi[0] = row_hi - 1;

    let grid_shape = grid.grid_shape();
    let mut writes = 0u64;
    ndcube::for_each_coords_in_bounds(wlo, whi, cur, |bp| {
        if bp == b.as_slice() {
            return; // lo's own box: N = N_B there, overlay untouched
        }
        for (ai, (&bi, &ki)) in alpha.iter_mut().zip(bp.iter().zip(grid.box_size())) {
            *ai = bi * ki;
        }
        let cell_base = box_offsets[grid_shape.linear_unchecked(bp)] - base;
        let mut anchor_count = region_cells_leq(lo, hi, alpha);
        if alpha
            .iter()
            .zip(lo.iter().zip(hi))
            .all(|(&a, (&l, &h))| l <= a && a <= h)
        {
            // α ∈ R: P[α] and A[α] move together, so the anchor
            // (= P[α] − A[α]) excludes α itself.
            anchor_count -= 1;
        }
        if anchor_count > 0 {
            cells[cell_base].add_assign(&delta.scale(anchor_count)); // anchor is slot 0
            writes += 1;
        }
        if alpha.iter().zip(hi).all(|(&ai, &h)| ai >= h) {
            return; // R ≤ α componentwise: border counts cancel exactly
        }
        // Offsets below lo − α have all three counts zero; enumerate the
        // rest, with the uniform per-cell count.
        for (l, (&li, &ai)) in lb.iter_mut().zip(lo.iter().zip(&*alpha)) {
            *l = li.saturating_sub(ai);
        }
        grid.extents_into(bp, extents);
        for_each_stored_offset_geq_with(extents, lb, e, |eo| {
            if eo.iter().all(|&x| x == 0) {
                return; // the anchor (slot 0), handled above
            }
            let n_p = region_cells_leq_off(lo, hi, alpha, eo);
            let nb_p = box_region_cells_leq_off(lo, hi, alpha, eo);
            debug_assert!(n_p - nb_p >= anchor_count, "border count is non-negative");
            let count = n_p - nb_p - anchor_count;
            if count > 0 {
                let slot = BoxGrid::slot_of(eo, extents)
                    // lint:allow(L2): the offset enumeration visits exactly the stored slots
                    .expect("enumeration yields stored cells");
                cells[cell_base + slot].add_assign(&delta.scale(count));
                writes += 1;
            }
        });
    });
    writes
}

/// Enumerates every *stored* offset `e` (at least one zero component) of a
/// box with the given extents satisfying `e ≥ lb` componentwise, visiting
/// each exactly once (canonical order: grouped by first zero dimension).
///
/// Compatibility wrapper over [`for_each_stored_offset_geq_with`] using
/// the thread-local scratch.
pub fn for_each_stored_offset_geq(extents: &[usize], lb: &[usize], f: impl FnMut(&[usize])) {
    with_scratch(|s| for_each_stored_offset_geq_with(extents, lb, &mut s.kernel.e, f));
}

/// [`for_each_stored_offset_geq`] with a caller-provided cursor buffer —
/// zero allocations.
///
/// Cost is proportional to the number of offsets yielded, never to the
/// full box volume — this is what keeps border updates within the paper's
/// `d·(n/k)·k^(d−1)` bound.
pub fn for_each_stored_offset_geq_with(
    extents: &[usize],
    lb: &[usize],
    e: &mut Vec<usize>,
    mut f: impl FnMut(&[usize]),
) {
    let d = extents.len();
    e.clear();
    e.resize(d, 0);
    for z in 0..d {
        // Dimension z is the first zero component: requires lb[z] = 0.
        if lb[z] != 0 {
            continue;
        }
        // Ranges: dims before z must be ≥ 1 (z is the FIRST zero), dims
        // after z may be anything ≥ lb.
        let mut empty = false;
        for i in 0..d {
            let start = match i.cmp(&z) {
                std::cmp::Ordering::Less => lb[i].max(1),
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => lb[i],
            };
            if start >= extents[i] && i != z {
                empty = true;
                break;
            }
            e[i] = start;
        }
        if empty {
            continue;
        }
        e[z] = 0;
        // Odometer over the constrained ranges (dim z fixed at 0).
        'class: loop {
            f(e);
            let mut dim = d;
            loop {
                if dim == 0 {
                    break 'class;
                }
                dim -= 1;
                if dim == z {
                    continue;
                }
                if e[dim] + 1 < extents[dim] {
                    e[dim] += 1;
                    // Reset later dims to their range starts.
                    for j in dim + 1..d {
                        if j == z {
                            continue;
                        }
                        e[j] = if j < z { lb[j].max(1) } else { lb[j] };
                    }
                    break;
                }
            }
        }
    }
}

/// The original allocating update path, kept verbatim as the oracle the
/// scratch kernels are property-tested against.
#[cfg(test)]
pub(crate) mod oracle {
    use ndcube::{NdCube, Region};

    use super::{BoxGrid, GroupValue, Overlay};

    /// Pre-scratch `apply_update`: allocates per call, returns writes.
    pub fn apply_update<T: GroupValue>(
        grid: &BoxGrid,
        overlay: &mut Overlay<T>,
        rp: &mut NdCube<T>,
        c: &[usize],
        delta: &T,
    ) -> u64 {
        let b = grid.box_index_of(c);
        let box_region = grid.box_region(&b);
        let rp_region = Region::new(c, box_region.hi()).expect("c within its box");
        let shape = rp.shape().clone();
        let mut writes = 0u64;
        for lin in shape.linear_region_iter(&rp_region) {
            rp.get_linear_mut(lin).add_assign(delta);
            writes += 1;
        }
        writes + apply_overlay_update(grid, overlay, c, delta)
    }

    /// Per-cell range-update reference: one point update per region cell.
    /// The counting fast path must land bit-identical to this loop.
    pub fn apply_range_update<T: GroupValue>(
        grid: &BoxGrid,
        overlay: &mut Overlay<T>,
        rp: &mut NdCube<T>,
        region: &Region,
        delta: &T,
    ) -> u64 {
        let mut writes = 0u64;
        for c in region {
            writes += apply_update(grid, overlay, rp, &c, delta);
        }
        writes
    }

    /// Pre-scratch `apply_overlay_update`: Region-based orthant walk.
    pub fn apply_overlay_update<T: GroupValue>(
        grid: &BoxGrid,
        overlay: &mut Overlay<T>,
        c: &[usize],
        delta: &T,
    ) -> u64 {
        let d = c.len();
        let b = grid.box_index_of(c);
        let grid_hi: Vec<usize> = grid.grid_shape().dims().iter().map(|&g| g - 1).collect();
        let orthant = Region::new(&b, &grid_hi).expect("b within grid");

        let mut overlay_writes = 0u64;
        let mut alpha = vec![0usize; d];
        let mut lb = vec![0usize; d];
        ndcube::RegionIter::for_each_coords(&orthant, |bp| {
            if bp == b.as_slice() {
                return;
            }
            for (ai, (&bi, &ki)) in alpha.iter_mut().zip(bp.iter().zip(grid.box_size())) {
                *ai = bi * ki;
            }
            let box_lin = overlay.box_linear(bp);
            if c.iter().zip(&alpha).all(|(&ci, &ai)| ci <= ai) {
                let idx = overlay.anchor_index(box_lin);
                overlay.get_mut(idx).add_assign(delta);
                overlay_writes += 1;
            } else {
                for (l, (&ci, &ai)) in lb.iter_mut().zip(c.iter().zip(&alpha)) {
                    *l = ci.saturating_sub(ai);
                }
                let extents = grid.extents_of(bp);
                super::for_each_stored_offset_geq(&extents, &lb, |e| {
                    let idx = overlay
                        .cell_index(box_lin, e, &extents)
                        .expect("enumeration yields stored cells");
                    overlay.get_mut(idx).add_assign(delta);
                    overlay_writes += 1;
                });
            }
        });
        overlay_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndcube::Shape;
    use std::collections::HashSet;

    fn collect(extents: &[usize], lb: &[usize]) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for_each_stored_offset_geq(extents, lb, |e| out.push(e.to_vec()));
        out
    }

    /// Oracle: brute-force enumeration over the whole box.
    fn brute(extents: &[usize], lb: &[usize]) -> HashSet<Vec<usize>> {
        let shape = Shape::new(extents).unwrap();
        shape
            .full_region()
            .iter()
            .filter(|e| e.contains(&0) && e.iter().zip(lb).all(|(&x, &l)| x >= l))
            .collect()
    }

    #[test]
    fn enumeration_matches_brute_force_2d() {
        for ext in [[3usize, 3], [1, 4], [4, 1], [2, 5]] {
            for lb0 in 0..ext[0] {
                for lb1 in 0..ext[1] {
                    let lb = [lb0, lb1];
                    let got: HashSet<_> = collect(&ext, &lb).into_iter().collect();
                    let want = brute(&ext, &lb);
                    assert_eq!(got, want, "extents {ext:?} lb {lb:?}");
                }
            }
        }
    }

    #[test]
    fn enumeration_matches_brute_force_3d() {
        let ext = [3usize, 2, 3];
        for lb0 in 0..3 {
            for lb1 in 0..2 {
                for lb2 in 0..3 {
                    let lb = [lb0, lb1, lb2];
                    let got = collect(&ext, &lb);
                    let got_set: HashSet<_> = got.iter().cloned().collect();
                    assert_eq!(got.len(), got_set.len(), "duplicates for lb {lb:?}");
                    assert_eq!(got_set, brute(&ext, &lb), "lb {lb:?}");
                }
            }
        }
    }

    #[test]
    fn zero_lb_yields_all_stored_cells() {
        let ext = [3usize, 3];
        assert_eq!(collect(&ext, &[0, 0]).len(), BoxGrid::stored_cells(&ext));
    }

    #[test]
    fn unsatisfiable_lb_yields_nothing() {
        // Every dimension needs e ≥ 1, but stored cells need a zero.
        assert!(collect(&[3, 3], &[1, 1]).is_empty());
        assert!(collect(&[3, 3], &[2, 1]).is_empty());
    }

    #[test]
    fn with_variant_reuses_dirty_buffer() {
        let mut e = vec![9usize; 5];
        let mut n = 0usize;
        for_each_stored_offset_geq_with(&[3, 3], &[0, 0], &mut e, |_| n += 1);
        assert_eq!(n, BoxGrid::stored_cells(&[3, 3]));
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::rps::scratch::Scratch;
    use ndcube::Shape;
    use proptest::prelude::*;

    /// Random geometry + one update point, for d ∈ 1..=4.
    fn update_case() -> impl Strategy<Value = (Vec<usize>, Vec<usize>, Vec<usize>, i64)> {
        (1usize..=4)
            .prop_flat_map(|d| {
                (
                    proptest::collection::vec(1usize..=6, d),
                    proptest::collection::vec(1usize..=4, d),
                )
            })
            .prop_flat_map(|(dims, ks)| {
                let coord: Vec<std::ops::Range<usize>> = dims.iter().map(|&n| 0..n).collect();
                (Just(dims), Just(ks), coord, -50i64..50)
            })
    }

    /// Random geometry + two region corners (sorted per dimension by the
    /// test), for d ∈ 1..=4.
    #[allow(clippy::type_complexity)]
    fn range_update_case(
    ) -> impl Strategy<Value = (Vec<usize>, Vec<usize>, Vec<usize>, Vec<usize>, i64)> {
        (1usize..=4)
            .prop_flat_map(|d| {
                (
                    proptest::collection::vec(1usize..=6, d),
                    proptest::collection::vec(1usize..=4, d),
                )
            })
            .prop_flat_map(|(dims, ks)| {
                let a: Vec<std::ops::Range<usize>> = dims.iter().map(|&n| 0..n).collect();
                let b = a.clone();
                (Just(dims), Just(ks), a, b, -50i64..50)
            })
    }

    proptest! {
        /// The scratch update kernel and the original allocating path
        /// produce identical overlay cells, RP arrays, and write counts.
        #[test]
        fn scratch_update_matches_oracle((dims, ks, c, delta) in update_case()) {
            let grid = BoxGrid::new(Shape::new(&dims).unwrap(), &ks).unwrap();
            let mut ov_new = Overlay::<i64>::zeros(grid.clone());
            let mut ov_old = ov_new.clone();
            let mut rp_new = NdCube::<i64>::zeros(&dims);
            let mut rp_old = rp_new.clone();

            let mut scratch = Scratch::new();
            let w_new =
                apply_update_with(&grid, &mut ov_new, &mut rp_new, &c, &delta, &mut scratch.kernel);
            let w_old = oracle::apply_update(&grid, &mut ov_old, &mut rp_old, &c, &delta);

            prop_assert_eq!(w_new, w_old);
            prop_assert_eq!(rp_new.as_slice(), rp_old.as_slice());
            let all: Vec<usize> = (0..ov_new.storage_cells()).collect();
            for i in all {
                prop_assert_eq!(ov_new.get(i), ov_old.get(i), "overlay cell {}", i);
            }
        }

        /// The counting range-update kernel lands bit-identical to a
        /// per-cell point-update loop over the same region — RP array and
        /// every overlay cell — across random geometry, including point,
        /// full-cube, and box-straddling regions.
        #[test]
        fn range_update_matches_per_cell_loop((dims, ks, a, b, delta) in range_update_case()) {
            let lo: Vec<usize> = a.iter().zip(&b).map(|(&x, &y)| x.min(y)).collect();
            let hi: Vec<usize> = a.iter().zip(&b).map(|(&x, &y)| x.max(y)).collect();
            let region = ndcube::Region::new(&lo, &hi).unwrap();
            let grid = BoxGrid::new(Shape::new(&dims).unwrap(), &ks).unwrap();
            let mut ov_fast = Overlay::<i64>::zeros(grid.clone());
            let mut ov_ref = ov_fast.clone();
            let mut rp_fast = NdCube::<i64>::zeros(&dims);
            let mut rp_ref = rp_fast.clone();

            let mut scratch = Scratch::new();
            apply_range_update_with(
                &grid, &mut ov_fast, &mut rp_fast, &region, &delta, &mut scratch.kernel,
            );
            oracle::apply_range_update(&grid, &mut ov_ref, &mut rp_ref, &region, &delta);

            prop_assert_eq!(rp_fast.as_slice(), rp_ref.as_slice());
            for i in 0..ov_fast.storage_cells() {
                prop_assert_eq!(ov_fast.get(i), ov_ref.get(i), "overlay cell {}", i);
            }
        }

        /// Scratch reuse across a sequence of updates does not leak state
        /// between calls (same result as fresh scratch every time).
        #[test]
        fn scratch_reuse_is_stateless((dims, ks, c, delta) in update_case()) {
            // Dirty the scratch with a *different* dimension count, then
            // run the real case through it.
            let grid = BoxGrid::new(Shape::new(&dims).unwrap(), &ks).unwrap();
            let mut ov_a = Overlay::<i64>::zeros(grid.clone());
            let mut ov_b = ov_a.clone();
            let mut rp_a = NdCube::<i64>::zeros(&dims);
            let mut rp_b = rp_a.clone();

            let mut dirty = Scratch::new();
            dirty.kernel.ensure(7);
            let w_a = apply_update_with(&grid, &mut ov_a, &mut rp_a, &c, &delta, &mut dirty.kernel);
            let mut fresh = Scratch::new();
            let w_b = apply_update_with(&grid, &mut ov_b, &mut rp_b, &c, &delta, &mut fresh.kernel);

            prop_assert_eq!(w_a, w_b);
            prop_assert_eq!(rp_a.as_slice(), rp_b.as_slice());
        }
    }
}
