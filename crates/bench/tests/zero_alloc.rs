//! The allocation contract, enforced: steady-state `RpsEngine::query`,
//! `::prefix_sum` and `::update`, and the Fenwick engines' warm `query`,
//! `update` and `range_update`, perform **zero** heap allocations.
//!
//! This is the measured form of the promise `docs/PERFORMANCE.md` makes
//! and the L5 lint guards statically: after one warm-up pass (which is
//! allowed to size the thread-local `Scratch` and the engine-owned
//! `KernelScratch` for the cube's dimensionality), the hot paths must run
//! entirely out of reused buffers. The test installs the counting global
//! allocator from [`rps_bench::alloc_counter`] and asserts the per-thread
//! allocation counter does not move across thousands of operations.
//!
//! The counter is thread-local, so the assertions are immune to allocator
//! traffic from other test threads — but to keep the warm/measure pairing
//! on one thread, each scenario runs start-to-finish in a single `#[test]`.

use ndcube::{NdCube, NdError, Region};
use rps_bench::alloc_counter::{thread_alloc_bytes, thread_allocs, CountingAllocator};
use rps_core::{BlockedFenwickEngine, FenwickEngine, RangeSumEngine, RpsEngine, VersionedEngine};
use rps_storage::{DeviceConfig, DiskRpsEngine};
use rps_workload::{CubeGen, QueryGen, RegionSpec, UpdateGen, UpdateSpec};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Warm-up ops: enough to fault in every lazily-grown buffer.
const WARM: usize = 16;
/// Measured ops: enough that even a single allocation per op would be
/// unmissable, small enough to stay instant in debug builds.
const OPS: usize = 2_000;

fn cube_for(dims: &[usize]) -> NdCube<i64> {
    CubeGen::new(0xA110C).uniform(dims, -50, 50).expect("dims")
}

fn engine_for(dims: &[usize]) -> RpsEngine<i64> {
    RpsEngine::from_cube(&cube_for(dims))
}

/// Runs `check` on the `query_many` of every storage that answers through
/// the shared batch path — the flat engine, a versioned snapshot and a
/// disk engine whose pool holds every page — after one warm-up batch
/// each (sizes the thread-local scratch, faults in the pages).
fn for_each_batch_path(
    dims: &[usize],
    regions: &[Region],
    check: impl Fn(&str, &dyn Fn() -> Vec<i64>),
) {
    let engine = engine_for(dims);
    let snap = VersionedEngine::new(engine_for(dims)).snapshot();
    let (k, frames) = (engine.grid().box_size()[0], 64);
    let disk = DiskRpsEngine::from_cube_uniform(
        &engine.to_cube(),
        k,
        DeviceConfig { cells_per_page: 64 },
        frames,
    )
    .expect("disk engine");
    assert!(disk.rp_pages() <= frames, "the pool must hold every page");
    let expected = engine.query_many(regions).expect("in bounds");
    let batches: [(&str, &dyn Fn() -> Vec<i64>); 3] = [
        ("serial", &|| engine.query_many(regions).expect("in bounds")),
        ("snapshot", &|| snap.query_many(regions).expect("in bounds")),
        ("disk", &|| disk.query_many(regions).expect("in bounds")),
    ];
    for (name, batch) in batches {
        assert_eq!(
            batch(),
            expected,
            "{name} query_many must answer identically"
        );
        check(name, batch);
    }
}

/// Runs the warm/measure protocol on an RPS engine over one cube shape.
fn measure(dims: &[usize]) -> (u64, u64) {
    measure_engine(engine_for(dims), dims, RpsEngine::prefix_sum)
}

/// Runs the warm/measure protocol on one engine and returns the
/// allocation counts observed across the measured query (with
/// `prefix_sum`) and update loops.
fn measure_engine<E: RangeSumEngine<i64>>(
    mut engine: E,
    dims: &[usize],
    prefix_sum: impl Fn(&E, &[usize]) -> Result<i64, NdError>,
) -> (u64, u64) {
    let regions: Vec<Region> = QueryGen::new(dims, 7, RegionSpec::Fraction(0.5)).take(OPS);
    let points: Vec<Region> = QueryGen::new(dims, 11, RegionSpec::Point).take(OPS);
    let updates: Vec<(Vec<usize>, i64)> = UpdateGen::uniform(dims, 13, 50).take(OPS);

    // Warm-up: first query sizes the thread-local scratch, first update
    // sizes the engine-owned kernel scratch.
    let mut sink = 0i64;
    for r in regions.iter().chain(points.iter()).take(WARM) {
        sink = sink.wrapping_add(engine.query(r).expect("in bounds"));
    }
    for (c, d) in updates.iter().take(WARM) {
        engine.update(c, *d).expect("in bounds");
        sink = sink.wrapping_add(prefix_sum(&engine, c).expect("in bounds"));
    }

    let before = thread_allocs();
    for r in regions.iter().chain(points.iter()) {
        sink = sink.wrapping_add(engine.query(r).expect("in bounds"));
    }
    for (c, _) in &updates {
        sink = sink.wrapping_add(prefix_sum(&engine, c).expect("in bounds"));
    }
    let query_allocs = thread_allocs() - before;

    let before = thread_allocs();
    for (c, d) in &updates {
        engine.update(c, *d).expect("in bounds");
    }
    let update_allocs = thread_allocs() - before;

    // Keep the checksum alive so the loops cannot be optimized away.
    assert!(sink != i64::MIN, "checksum sentinel");
    (query_allocs, update_allocs)
}

#[test]
fn steady_state_query_and_update_do_not_allocate_d2() {
    let (q, u) = measure(&[48, 48]);
    assert_eq!(q, 0, "d=2 queries allocated {q} times in {OPS} ops");
    assert_eq!(u, 0, "d=2 updates allocated {u} times in {OPS} ops");
}

#[test]
fn steady_state_query_and_update_do_not_allocate_d3() {
    let (q, u) = measure(&[16, 16, 16]);
    assert_eq!(q, 0, "d=3 queries allocated {q} times in {OPS} ops");
    assert_eq!(u, 0, "d=3 updates allocated {u} times in {OPS} ops");
}

/// The observability layer must not break the contract even in its most
/// expensive configuration: latency timing enabled (every query/update
/// span reads the clock and records into a histogram) and the global
/// trace ring installed (every finished span is pushed into the
/// preallocated ring). Metric registration itself allocates, but only
/// once — the warm-up pass inside `measure` absorbs it.
#[test]
fn instrumented_paths_stay_alloc_free_with_timing_and_tracing() {
    rps_obs::set_timing(true);
    rps_obs::trace::install(1024);
    let (q, u) = measure(&[32, 32]);
    assert_eq!(
        q, 0,
        "instrumented queries allocated {q} times in {OPS} ops"
    );
    assert_eq!(
        u, 0,
        "instrumented updates allocated {u} times in {OPS} ops"
    );
    assert!(rps_obs::trace::installed());
    // The spans above must actually have been recorded, or this test
    // proves nothing about the instrumented path. Updates run last, so
    // after thousands of ops the ring (capacity 1024, overwrite-oldest)
    // holds the trailing rps.update spans.
    let (events, _overwritten) = rps_obs::trace::drain();
    assert!(
        events.iter().any(|e| e.name == "rps.update"),
        "expected rps.update spans in the trace ring"
    );
}

/// Allocations across `OPS` range updates after `WARM` warm-up ones. The
/// first range update allocates the `2^d` auxiliary trees; none after it
/// may allocate.
fn warm_range_update_allocs<E: RangeSumEngine<i64>>(mut engine: E, dims: &[usize]) -> u64 {
    let mut gen = UpdateGen::uniform(dims, 23, 50).with_region_spec(UpdateSpec::Fraction(0.05));
    let rects: Vec<(Region, i64)> = (0..WARM + OPS).map(|_| gen.next_range_update()).collect();
    let (warm, measured) = rects.split_at(WARM);
    for (r, d) in warm {
        engine.range_update(r, *d).expect("in bounds");
    }
    let before = thread_allocs();
    for (r, d) in measured {
        engine.range_update(r, *d).expect("in bounds");
    }
    thread_allocs() - before
}

#[test]
fn warm_fenwick_range_updates_do_not_allocate() {
    for dims in [vec![48usize, 48], vec![16, 16, 16]] {
        let cube = cube_for(&dims);
        let fenwick = warm_range_update_allocs(FenwickEngine::from_cube(&cube), &dims);
        assert_eq!(
            fenwick, 0,
            "fenwick range updates on {dims:?} allocated {fenwick} times in {OPS} ops"
        );
        let blocked = warm_range_update_allocs(BlockedFenwickEngine::from_cube(&cube), &dims);
        assert_eq!(
            blocked, 0,
            "blocked-fenwick range updates on {dims:?} allocated {blocked} times in {OPS} ops"
        );
    }
}

/// The Fenwick engines' chain walks run on the thread-local scratch
/// (queries) and the engine-owned scratch (updates).
#[test]
fn steady_state_fenwick_queries_and_updates_do_not_allocate() {
    for dims in [vec![64usize, 64], vec![16, 16, 16]] {
        let cube = cube_for(&dims);
        for (name, (q, u)) in [
            (
                "fenwick",
                measure_engine(
                    FenwickEngine::from_cube(&cube),
                    &dims,
                    FenwickEngine::prefix_sum,
                ),
            ),
            (
                "blocked-fenwick",
                measure_engine(
                    BlockedFenwickEngine::from_cube(&cube),
                    &dims,
                    BlockedFenwickEngine::prefix_sum,
                ),
            ),
        ] {
            assert_eq!(q, 0, "{name} queries on {dims:?} allocated {q} times");
            assert_eq!(u, 0, "{name} updates on {dims:?} allocated {u} times");
        }
    }
}

/// The lane-width kernels ride the same contract: on a cube whose
/// innermost axis is wide (runs ≫ `LANES`, so the chunked lane path —
/// not the remainder tail — does the work), steady-state updates and
/// queries through an explicit wide-box grid must not allocate. This is
/// the instrumented runtime check backing the L5 lint's static coverage
/// of `rps/kernels.rs`.
#[test]
fn instrumented_lane_kernels_stay_alloc_free() {
    let cube = CubeGen::new(0xA110C)
        .uniform(&[8, 512], -50, 50)
        .expect("dims");
    // k = 64 along the innermost axis: every RP cascade and sweep run is
    // 64 contiguous cells — 8 full lanes per run.
    let mut engine = RpsEngine::from_cube_uniform(&cube, 64).expect("grid");
    assert!(
        engine.grid().box_size()[1] >= 8 * rps_core::rps::kernels::LANES,
        "box must span many lanes for this test to exercise the lane path"
    );
    let dims = [8usize, 512];
    let regions: Vec<Region> = QueryGen::new(&dims, 7, RegionSpec::Fraction(0.5)).take(OPS);
    let updates: Vec<(Vec<usize>, i64)> = UpdateGen::uniform(&dims, 13, 50).take(OPS);

    let mut sink = 0i64;
    for r in regions.iter().take(WARM) {
        sink = sink.wrapping_add(engine.query(r).expect("in bounds"));
    }
    for (c, d) in updates.iter().take(WARM) {
        engine.update(c, *d).expect("in bounds");
    }

    let before = thread_allocs();
    for (c, d) in &updates {
        engine.update(c, *d).expect("in bounds");
    }
    let update_allocs = thread_allocs() - before;
    let before = thread_allocs();
    for r in &regions {
        sink = sink.wrapping_add(engine.query(r).expect("in bounds"));
    }
    let query_allocs = thread_allocs() - before;

    assert!(sink != i64::MIN, "checksum sentinel");
    assert_eq!(
        update_allocs, 0,
        "lane-kernel updates allocated {update_allocs} times in {OPS} ops"
    );
    assert_eq!(
        query_allocs, 0,
        "lane-kernel queries allocated {query_allocs} times in {OPS} ops"
    );
}

/// The batched front-ends ride the contract too (S1): `query_many`'s
/// corner cache is keyed by linear cell index (`usize`), not by cloned
/// coordinate vectors, so a batch performs only a small per-batch
/// constant of allocations (the output `Vec` plus the pre-sized cache
/// table) regardless of batch length — ≈0 allocs/op amortized. The
/// versioned snapshot and the disk engine share the batch path and the
/// bound.
#[test]
fn query_many_batches_stay_near_zero_alloc() {
    const BATCH: usize = 512;
    const ROUNDS: u64 = 8;
    // Worst-case per batch: output Vec + cache table + a possible grow.
    const PER_BATCH_BUDGET: u64 = 4;

    let dims = [48usize, 48];
    let regions: Vec<Region> = QueryGen::new(&dims, 7, RegionSpec::Fraction(0.5)).take(BATCH);
    for_each_batch_path(&dims, &regions, |name, batch| {
        let before = thread_allocs();
        let mut sink = 0i64;
        for _ in 0..ROUNDS {
            sink = sink.wrapping_add(batch().last().copied().unwrap_or(0));
        }
        let allocs = thread_allocs() - before;
        assert!(sink != i64::MIN, "checksum sentinel");
        assert!(
            allocs <= ROUNDS * PER_BATCH_BUDGET,
            "{name} query_many allocated {allocs} times across {ROUNDS} \
             batches of {BATCH} ops (budget {PER_BATCH_BUDGET}/batch)"
        );
    });
}

/// The corner cache is bounded by the cube, not by the request: 64
/// one-cell regions on the 4096-cell `[2; 12]` cube name up to 64 · 2^12
/// corners, but only 4096 distinct ones exist. Every storage's batch must
/// request no more bytes than its output plus one cache table sized for
/// the cube's cells.
#[test]
fn query_many_cache_is_bounded_by_the_cube() {
    const D: usize = 12;
    let cells = 1usize << D;
    let regions: Vec<Region> = (0..64)
        .map(|i| {
            let lin = i * 61 % cells;
            let coords: Vec<usize> = (0..D).map(|b| (lin >> (D - 1 - b)) & 1).collect();
            Region::point(&coords).expect("in bounds")
        })
        .collect();
    let before = thread_alloc_bytes();
    drop(std::collections::HashMap::<usize, i64>::with_capacity(
        cells,
    ));
    let table_bytes = thread_alloc_bytes() - before;
    let budget = table_bytes + (regions.len() * std::mem::size_of::<i64>()) as u64;

    for_each_batch_path(&[2; D], &regions, |name, batch| {
        let before = thread_alloc_bytes();
        batch();
        let bytes = thread_alloc_bytes() - before;
        assert!(
            bytes <= budget,
            "{name} query_many requested {bytes} bytes for 64 regions on {cells} cells \
             (budget: output + a {table_bytes}-byte table sized by the cube)"
        );
    });
}

/// Dimensionality changes re-size the shared thread-local scratch; after
/// one warm-up on the new shape the counter must freeze again. This pins
/// the `ensure(d)` grow-only design: switching between engines of
/// different rank on one thread stays allocation-free once the scratch
/// has seen the largest rank.
#[test]
fn scratch_survives_rank_switching() {
    let (q3, u3) = measure(&[8, 8, 8]);
    assert_eq!(q3, 0, "d=3 warm queries allocated");
    assert_eq!(u3, 0, "d=3 warm updates allocated");
    // Dropping back to d=2 on the same thread: scratch is already large
    // enough, so even the "warm-up" is allocation-free — but re-measure
    // through the same protocol to keep the assertion about steady state.
    let (q2, u2) = measure(&[32, 32]);
    assert_eq!(q2, 0, "d=2 after d=3 queries allocated");
    assert_eq!(u2, 0, "d=2 after d=3 updates allocated");
}
