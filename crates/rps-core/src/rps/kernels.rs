//! Kernels for the contiguous innermost-axis runs.
//!
//! Row-major layout makes the last dimension the only contiguous one, so
//! every hot loop in the workspace — the RP update cascade, the build
//! sweeps, the overlay reconstruction — ultimately reduces to one of a
//! handful of operations over a contiguous run of cells. This module is
//! the single home for those operations. No nightly `std::simd`, no
//! unsafe, no dependencies.
//!
//! Each kernel keeps whichever form measured faster. Two walk the run as
//! `LANES`-wide chunks via `chunks_exact` (a shape LLVM reliably turns
//! into SIMD for the primitive `GroupValue` instances) and finish with a
//! scalar remainder tail: [`add_delta_run`] and [`sum_run`]. Each keeps a
//! `_scalar` twin, the one-cell-at-a-time form: the property tests pin
//! the lane kernel bit-identical to it (including non-multiple-of-`LANES`
//! tails and runs shorter than one lane), and `exp_hot_path` times
//! `add_delta_run` against its twin (`lane_add_delta`/`scalar_add_delta`). The row combines ([`add_rows`], [`sub_rows`]) and
//! the fused border kernel ([`border_from_p_run`]) are plain zipped loops:
//! their chunked forms ran about twice as slow on rows of 64–1024 `i64`.
//!
//! The scan kernels ([`prefix_scan_run`], [`inverse_prefix_scan_run`])
//! stay deliberately scalar: a prefix sum along the run *is* a loop-carried
//! dependence chain, so the win there is restructuring callers to call
//! them once per run instead of once per cell — the outer-axis sweeps in
//! `crate::prefix` combine whole rows via [`add_rows`]/[`sub_rows`]
//! instead, with [`tile_width`]-sized column blocks so the row pair being
//! combined stays resident in L1.
//!
//! Everything here is allocation-free (enforced by `cargo xtask lint` L5)
//! and index-free (no `[i]` — iterator zips only), so the panic and
//! raw-indexing lints hold without any escape comments.

use crate::value::GroupValue;

/// Lane width of the chunked loops: 8 × `i64` is one 64-byte cache line
/// and two AVX2 / one AVX-512 vector; narrower types simply pack more
/// elements per vector at the same chunk width.
pub const LANES: usize = 8;

/// Per-tile L1 budget for the cache-blocked outer-axis sweeps: half of a
/// conservative 32 KiB L1d, because a sweep step touches two rows (the
/// accumulating row and its predecessor).
const L1_TILE_BYTES: usize = 16 * 1024;

/// Whether a run of `len` cells takes the lane path of [`add_delta_run`]
/// (at least one full `LANES` chunk) — the predicate behind the
/// `rps_lane_runs_total` observability counter.
#[inline]
#[must_use]
pub fn is_lane_run(len: usize) -> bool {
    len >= LANES
}

/// Column-tile width for a cache-blocked sweep over rows of `stride`
/// cells: the widest `LANES`-multiple block such that two `T`-rows of
/// that width fit the L1 budget, clamped to the row itself.
#[inline]
#[must_use]
pub fn tile_width<T>(stride: usize) -> usize {
    let cell = std::mem::size_of::<T>().max(1);
    let budget = (L1_TILE_BYTES / (2 * cell)).max(LANES);
    let aligned = budget - budget % LANES;
    aligned.max(LANES).min(stride.max(1))
}

/// Adds `delta` to every cell of a contiguous run (the RP update
/// cascade's inner loop), `LANES` cells at a time plus a remainder tail.
#[inline]
pub fn add_delta_run<T: GroupValue>(run: &mut [T], delta: &T) {
    let mut chunks = run.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        for cell in chunk {
            cell.add_assign(delta);
        }
    }
    for cell in chunks.into_remainder() {
        cell.add_assign(delta);
    }
}

/// The retained scalar form of [`add_delta_run`] (oracle + baseline).
#[inline]
pub fn add_delta_run_scalar<T: GroupValue>(run: &mut [T], delta: &T) {
    for cell in run {
        cell.add_assign(delta);
    }
}

/// Elementwise `dst[i] ⊕= src[i]` over two equal-length rows — the inner
/// step of every outer-axis forward sweep.
#[inline]
pub fn add_rows<T: GroupValue>(dst: &mut [T], src: &[T]) {
    debug_assert_eq!(dst.len(), src.len());
    for (x, y) in dst.iter_mut().zip(src) {
        x.add_assign(y);
    }
}

/// Elementwise `dst[i] ⊖= src[i]` — the backward-sweep twin of
/// [`add_rows`].
#[inline]
pub fn sub_rows<T: GroupValue>(dst: &mut [T], src: &[T]) {
    debug_assert_eq!(dst.len(), src.len());
    for (x, y) in dst.iter_mut().zip(src) {
        x.sub_assign(y);
    }
}

/// Overlay border reconstruction over one run of stored cells:
/// `dst[i] = p[i] ⊖ rp[i] ⊖ anchor` (the §3.3 border identity), fused so
/// the three streams are read once each.
#[inline]
pub fn border_from_p_run<T: GroupValue>(dst: &mut [T], p: &[T], rp: &[T], anchor: &T) {
    debug_assert_eq!(dst.len(), p.len());
    debug_assert_eq!(dst.len(), rp.len());
    for ((x, pv), rv) in dst.iter_mut().zip(p).zip(rp) {
        *x = pv.sub(rv).sub(anchor);
    }
}

/// Sum of a contiguous run, accumulated as `LANES` independent partial
/// sums folded at the end — the in-block partial-prefix read of the
/// blocked Fenwick engine (`crate::blocked_fenwick`). Reassociating the
/// adds is exact for the integer instances (wrapping addition is
/// commutative and associative mod 2^w), which is what the property test
/// pins against the scalar twin.
#[inline]
#[must_use]
pub fn sum_run<T: GroupValue>(run: &[T]) -> T {
    let mut accs: [T; LANES] = std::array::from_fn(|_| T::zero());
    let mut chunks = run.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (a, v) in accs.iter_mut().zip(chunk) {
            a.add_assign(v);
        }
    }
    let mut acc = T::zero();
    for a in &accs {
        acc.add_assign(a);
    }
    for v in chunks.remainder() {
        acc.add_assign(v);
    }
    acc
}

/// The retained scalar form of [`sum_run`] (oracle + baseline).
#[inline]
#[must_use]
pub fn sum_run_scalar<T: GroupValue>(run: &[T]) -> T {
    let mut acc = T::zero();
    for v in run {
        acc.add_assign(v);
    }
    acc
}

/// Adds a running multiple of `step` to a contiguous run:
/// `run[i] ⊕= (i+1)·step` — the innermost-axis shape of a range update's
/// prefix-count ramp (each successive cell absorbs one more source cell
/// of the updated rectangle). Returns the final accumulated value
/// `len·step`, which callers reuse as the constant delta for the cells
/// past the rectangle's upper bound ([`add_delta_run`]).
///
/// Deliberately scalar, like the scan kernels: the running accumulator is
/// a loop-carried dependence chain.
#[inline]
pub fn add_ramp_run<T: GroupValue>(run: &mut [T], step: &T) -> T {
    let mut acc = T::zero();
    for cell in run {
        acc.add_assign(step);
        cell.add_assign(&acc);
    }
    acc
}

/// In-place running sum along one contiguous run, restarting at every
/// multiple of `k` (`k = usize::MAX` scans the whole run) — the
/// innermost-dimension (stride 1) sweep, where the loop-carried
/// dependence rules out lane widening.
#[inline]
pub fn prefix_scan_run<T: GroupValue>(run: &mut [T], k: usize) {
    if k == usize::MAX || k >= run.len() {
        scan_segment(run);
    } else {
        for seg in run.chunks_mut(k) {
            scan_segment(seg);
        }
    }
}

/// Inverse of [`prefix_scan_run`]: recovers the original values from
/// their (box-restarting) running sums.
#[inline]
pub fn inverse_prefix_scan_run<T: GroupValue>(run: &mut [T], k: usize) {
    if k == usize::MAX || k >= run.len() {
        unscan_segment(run);
    } else {
        for seg in run.chunks_mut(k) {
            unscan_segment(seg);
        }
    }
}

#[inline]
fn scan_segment<T: GroupValue>(seg: &mut [T]) {
    let mut it = seg.iter_mut();
    let Some(first) = it.next() else { return };
    let mut acc = first.clone();
    for cell in it {
        cell.add_assign(&acc);
        acc = cell.clone();
    }
}

#[inline]
fn unscan_segment<T: GroupValue>(seg: &mut [T]) {
    // Forward walk with a saved predecessor: new[i] = old[i] ⊖ old[i−1],
    // equivalent to the classical reverse-order in-place difference.
    let mut it = seg.iter_mut();
    let Some(first) = it.next() else { return };
    let mut prev = first.clone();
    for cell in it {
        let old = cell.clone();
        cell.sub_assign(&prev);
        prev = old;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_width_is_lane_aligned_and_clamped() {
        // i64: budget = 16384 / 16 = 1024 cells, already a LANES multiple.
        assert_eq!(tile_width::<i64>(4096), 1024);
        assert!(tile_width::<i64>(4096).is_multiple_of(LANES));
        // Clamped to the row when the row is narrow.
        assert_eq!(tile_width::<i64>(5), 5);
        assert_eq!(tile_width::<i64>(1), 1);
        // Never zero, even for degenerate strides.
        assert!(tile_width::<i64>(0) >= 1);
        // A 16-byte cell halves the tile relative to i64.
        assert_eq!(tile_width::<i128>(4096), 512);
    }

    #[test]
    fn lane_run_predicate() {
        assert!(!is_lane_run(0));
        assert!(!is_lane_run(LANES - 1));
        assert!(is_lane_run(LANES));
        assert!(is_lane_run(1000));
    }

    #[test]
    fn scan_and_inverse_round_trip() {
        for len in [0usize, 1, 2, 7, 8, 9, 30] {
            for k in [1usize, 2, 3, 7, usize::MAX] {
                let orig: Vec<i64> = (0..len).map(|i| (i * 13 % 7) as i64 - 3).collect();
                let mut x = orig.clone();
                prefix_scan_run(&mut x, k);
                inverse_prefix_scan_run(&mut x, k);
                assert_eq!(x, orig, "len {len} k {k}");
            }
        }
    }

    #[test]
    fn scan_restarts_at_box_multiples() {
        let mut x = vec![1i64; 10];
        prefix_scan_run(&mut x, 4);
        assert_eq!(x, vec![1, 2, 3, 4, 1, 2, 3, 4, 1, 2]);
    }

    #[test]
    fn ramp_adds_running_multiples_and_returns_total() {
        let mut x = vec![10i64; 5];
        let total = add_ramp_run(&mut x, &3);
        assert_eq!(x, vec![13, 16, 19, 22, 25]);
        assert_eq!(total, 15);
        let mut empty: Vec<i64> = Vec::new();
        assert_eq!(add_ramp_run(&mut empty, &3), 0);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    /// A run with a length that exercises the tail: shorter than a lane,
    /// exact multiples, and non-multiples.
    fn run() -> impl Strategy<Value = Vec<i64>> {
        proptest::collection::vec(-1000i64..1000, 0..=3 * LANES + 5)
    }

    proptest! {
        /// The lane kernels are bit-identical to the retained scalar
        /// kernels for every run length, including tails.
        #[test]
        fn add_delta_lane_matches_scalar(mut a in run(), delta in -100i64..100) {
            let mut b = a.clone();
            add_delta_run(&mut a, &delta);
            add_delta_run_scalar(&mut b, &delta);
            prop_assert_eq!(a, b);
        }

        /// The folded lane sum is bit-identical to the scalar left fold
        /// for the integer instance, every run length.
        #[test]
        fn sum_run_lane_matches_scalar(a in run()) {
            prop_assert_eq!(sum_run(&a), sum_run_scalar(&a));
        }

        /// The scan restarts exactly at multiples of k (including k = 1,
        /// where every cell is its own box and the scan is the identity).
        #[test]
        fn scan_matches_naive(orig in run(), k in 1usize..=12) {
            let mut x = orig.clone();
            prefix_scan_run(&mut x, k);
            for (i, &got) in x.iter().enumerate() {
                let lo = (i / k) * k;
                let want: i64 = orig[lo..=i].iter().sum();
                prop_assert_eq!(got, want, "index {}", i);
            }
        }
    }
}
