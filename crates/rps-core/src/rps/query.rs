//! The one query path of every RPS storage (§3.3, Figure 3).
//!
//! A range sum is the alternating sum of up to 2^d prefix sums
//! ([`crate::corners`]), each rebuilt from one anchor, its borders and
//! one RP cell. The storages differ only in where those cells live — flat
//! arrays ([`super::RpsEngine`]), copy-on-write slabs ([`crate::Version`])
//! or a buffer pool whose reads can fail (`rps-storage`'s
//! `DiskRpsEngine`) — so each supplies a [`PrefixSource`] and this module
//! answers single regions ([`range_sum`]) and corner-cached batches
//! ([`range_sums`]).
//!
//! The batch path alone decides the cache key (the corner's linear cell
//! index), the cache bound (`min(regions · 2^d, cells in the cube)`, so
//! no request can size a table beyond the cube) and the counts it
//! reports: `rps_engine_queries_total` under the source's `engine` label
//! and the `query_many` corner hits and misses.

use std::collections::HashMap;

use ndcube::{NdError, Region, Shape};

use crate::corners::range_sum_from_prefix_with;
use crate::obs::EngineKind;
use crate::rps::scratch::{with_scratch, KernelScratch, Scratch};
use crate::stats::StatsCell;
use crate::value::GroupValue;

/// A storage of the RPS structures as the query path sees it.
pub trait PrefixSource<T: GroupValue> {
    /// The `engine` label this storage's queries are counted under.
    const KIND: EngineKind;

    /// The cube shape: it checks every region and bounds the corner cache.
    fn bounds(&self) -> &Shape;

    /// `Sum(A[0,…,0] : A[x])` for an in-bounds `x`, and the cells read.
    ///
    /// # Errors
    ///
    /// A storage read that failed; in-memory storages never fail.
    fn prefix(&self, x: &[usize], ks: &mut KernelScratch) -> Result<(T, u64), NdError>;

    /// The storage's own cost counters, if it keeps any.
    fn stats_cell(&self) -> Option<&StatsCell> {
        None
    }
}

/// Answers one region with no cache and no allocation: each of its up to
/// 2^d corners is rebuilt straight from `src`.
///
/// # Errors
///
/// An out-of-bounds region, or the first failed storage read.
pub fn range_sum<T: GroupValue, S: PrefixSource<T>>(
    src: &S,
    region: &Region,
) -> Result<T, NdError> {
    src.bounds().check_region(region)?;
    crate::obs::engine(S::KIND).queries.inc();
    let (mut reads, mut failed) = (0u64, None);
    let sum = with_scratch(|s| {
        let (corner_buf, ks) = s.split();
        range_sum_from_prefix_with(region, corner_buf, |corner| {
            prefix_until_failure(src, corner, ks, &mut reads, &mut failed)
        })
    });
    if let Some(e) = failed {
        return Err(e);
    }
    if let Some(stats) = src.stats_cell() {
        // One atomic add for the whole query, not one per corner.
        stats.reads(reads);
        stats.query();
    }
    Ok(sum)
}

/// Answers a batch of regions through one corner cache, so `q` regions
/// with `s` distinct corners cost `s` prefix rebuilds instead of `2^d·q`.
///
/// # Errors
///
/// An out-of-bounds region (checked before any work), or the first
/// failed storage read.
pub fn range_sums<T: GroupValue, S: PrefixSource<T>>(
    src: &S,
    regions: &[Region],
) -> Result<Vec<T>, NdError> {
    for r in regions {
        src.bounds().check_region(r)?;
    }
    crate::obs::engine(S::KIND)
        .queries
        .add(u64::try_from(regions.len()).unwrap_or(u64::MAX));
    // lint:allow(L5): the batch's output, one allocation per batch
    let mut out = vec![T::zero(); regions.len()];
    with_scratch(|s| eval_batch(src, regions, &mut out, s))?;
    Ok(out)
}

/// The corner-cached evaluation behind [`range_sums`]: fills `out` with
/// the sums of `regions`, rebuilding each distinct corner once, then
/// reports its counts with one add per counter, none per corner.
///
/// The key is the corner's linear cell index: corners reach the callback
/// in bounds (underflowed ones are skipped upstream), so it is
/// collision-free and costs no allocation. The cache never holds more
/// entries than the batch has corners or the cube has cells, so it is
/// sized for that bound up front and never rehashes mid-batch.
fn eval_batch<T: GroupValue, S: PrefixSource<T>>(
    src: &S,
    regions: &[Region],
    out: &mut [T],
    scratch: &mut Scratch,
) -> Result<(), NdError> {
    let shape = src.bounds();
    let corners_per_region = 1usize
        .checked_shl(u32::try_from(shape.ndim()).unwrap_or(u32::MAX))
        .unwrap_or(usize::MAX);
    let bound = regions.len().saturating_mul(corners_per_region);
    let mut cache: HashMap<usize, T> = HashMap::with_capacity(bound.min(shape.len()));
    let (corner_buf, ks) = scratch.split();
    let (mut lookups, mut reads, mut failed) = (0u64, 0u64, None);
    for (slot, region) in out.iter_mut().zip(regions) {
        *slot = range_sum_from_prefix_with(region, corner_buf, |corner| {
            lookups += 1;
            // Entry API: one hash per corner, hit or miss.
            cache
                .entry(shape.linear_unchecked(corner))
                .or_insert_with(|| prefix_until_failure(src, corner, ks, &mut reads, &mut failed))
                .clone()
        });
        if let Some(e) = failed.take() {
            return Err(e);
        }
    }
    // Misses are exactly the distinct corners the cache ended up holding.
    let misses = u64::try_from(cache.len()).unwrap_or(u64::MAX);
    let core = crate::obs::core();
    core.query_many_corner_misses.add(misses);
    core.query_many_corner_hits
        .add(lookups.saturating_sub(misses));
    if let Some(stats) = src.stats_cell() {
        stats.reads(reads);
        stats.queries_n(u64::try_from(regions.len()).unwrap_or(u64::MAX));
    }
    Ok(())
}

/// One corner's prefix sum. After a failed read it reads nothing more
/// and returns zero; the caller returns the error once the region ends.
fn prefix_until_failure<T: GroupValue, S: PrefixSource<T>>(
    src: &S,
    corner: &[usize],
    ks: &mut KernelScratch,
    reads: &mut u64,
    failed: &mut Option<NdError>,
) -> T {
    match failed.is_none().then(|| src.prefix(corner, ks)) {
        Some(Ok((v, n))) => {
            *reads += n;
            v
        }
        Some(Err(e)) => {
            *failed = Some(e);
            T::zero()
        }
        None => T::zero(),
    }
}
