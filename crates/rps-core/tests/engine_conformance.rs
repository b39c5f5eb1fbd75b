//! Cross-engine conformance: every engine must agree with the naive scan
//! on arbitrary shapes, box sizes, update sequences and query regions.
//!
//! This is the main correctness net for the RPS reconstruction — in
//! particular the d ≥ 3 alternating-border query and the orthant-walk
//! update, neither of which is spelled out in the paper body.

use ndcube::{NdCube, Region, Shape};
use proptest::prelude::*;
use rps_core::{
    BlockedFenwickEngine, FenwickEngine, NaiveEngine, PrefixSumEngine, RangeSumEngine, RpsEngine,
    VersionedEngine,
};

/// A random cube of 1..=4 dimensions with small per-dimension sizes,
/// a compatible box size per dimension, a batch of point updates and a
/// batch of query regions.
#[derive(Debug, Clone)]
struct Scenario {
    dims: Vec<usize>,
    box_size: Vec<usize>,
    initial: Vec<i64>,
    updates: Vec<(Vec<usize>, i64)>,
    queries: Vec<(Vec<usize>, Vec<usize>)>,
}

/// A coordinate inside `dims`.
fn coords_in(dims: Vec<usize>) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..usize::MAX, dims.len()).prop_map(move |raw| {
        raw.iter()
            .zip(&dims)
            .map(|(&r, &s)| r % s)
            .collect::<Vec<_>>()
    })
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (1usize..=4)
        .prop_flat_map(|d| {
            (
                proptest::collection::vec(1usize..=7, d..=d),
                proptest::collection::vec(1usize..=5, d..=d),
            )
        })
        .prop_flat_map(|(dims, box_size)| {
            let n: usize = dims.iter().product();
            let coord = {
                let dims = dims.clone();
                move || coords_in(dims.clone())
            };
            let corners = {
                (coord(), coord()).prop_map(move |(a, b)| {
                    let lo: Vec<usize> = a.iter().zip(&b).map(|(&x, &y)| x.min(y)).collect();
                    let hi: Vec<usize> = a.iter().zip(&b).map(|(&x, &y)| x.max(y)).collect();
                    (lo, hi)
                })
            };
            (
                Just(dims),
                Just(box_size),
                proptest::collection::vec(-50i64..50, n..=n),
                proptest::collection::vec((coord(), -100i64..100), 0..12),
                proptest::collection::vec(corners, 1..8),
            )
        })
        .prop_map(|(dims, box_size, initial, updates, queries)| Scenario {
            dims,
            box_size,
            initial,
            updates,
            queries,
        })
}

fn run_against_naive<E: RangeSumEngine<i64>>(mut engine: E, sc: &Scenario) {
    let cube = NdCube::from_vec(&sc.dims, sc.initial.clone()).unwrap();
    let mut naive = NaiveEngine::from_cube(cube);
    for (c, delta) in &sc.updates {
        engine.update(c, *delta).unwrap();
        naive.update(c, *delta).unwrap();
    }
    for (lo, hi) in &sc.queries {
        let r = Region::new(lo, hi).unwrap();
        assert_eq!(
            engine.query(&r).unwrap(),
            naive.query(&r).unwrap(),
            "{} disagrees with naive on {r:?} (scenario {sc:?})",
            engine.name()
        );
    }
    assert_eq!(engine.total(), naive.total());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn rps_matches_naive(sc in scenario()) {
        let cube = NdCube::from_vec(&sc.dims, sc.initial.clone()).unwrap();
        let engine = RpsEngine::from_cube_with_box_size(&cube, &sc.box_size).unwrap();
        run_against_naive(engine, &sc);
    }

    #[test]
    fn rps_sqrt_boxes_match_naive(sc in scenario()) {
        let cube = NdCube::from_vec(&sc.dims, sc.initial.clone()).unwrap();
        let engine = RpsEngine::from_cube(&cube);
        run_against_naive(engine, &sc);
    }

    #[test]
    fn prefix_sum_matches_naive(sc in scenario()) {
        let cube = NdCube::from_vec(&sc.dims, sc.initial.clone()).unwrap();
        let engine = PrefixSumEngine::from_cube(&cube);
        run_against_naive(engine, &sc);
    }

    #[test]
    fn fenwick_matches_naive(sc in scenario()) {
        let cube = NdCube::from_vec(&sc.dims, sc.initial.clone()).unwrap();
        let engine = FenwickEngine::from_cube(&cube);
        run_against_naive(engine, &sc);
    }

    #[test]
    fn versioned_matches_naive(sc in scenario()) {
        let mut cube = NdCube::from_vec(&sc.dims, sc.initial.clone()).unwrap();
        let engine = VersionedEngine::new(
            RpsEngine::from_cube_with_box_size(&cube, &sc.box_size).unwrap(),
        );
        let handle = engine.clone();
        run_against_naive(engine, &sc);
        for (c, delta) in &sc.updates {
            let old = cube.get(c);
            cube.set(c, old + *delta);
        }
        prop_assert_eq!(handle.snapshot().to_cube(), cube);
    }

    #[test]
    fn rps_incremental_equals_rebuilt(sc in scenario()) {
        // Applying updates incrementally must produce the *same internal
        // state* as rebuilding from the updated cube.
        let mut cube = NdCube::from_vec(&sc.dims, sc.initial.clone()).unwrap();
        let mut engine = RpsEngine::from_cube_with_box_size(&cube, &sc.box_size).unwrap();
        for (c, delta) in &sc.updates {
            engine.update(c, *delta).unwrap();
            let old = cube.get(c);
            cube.set(c, old + *delta);
        }
        let rebuilt = RpsEngine::from_cube_with_box_size(&cube, &sc.box_size).unwrap();
        prop_assert_eq!(engine.rp_array(), rebuilt.rp_array());
        // Overlay equality via every prefix sum (covers anchors + borders).
        for (lo, _hi) in &sc.queries {
            prop_assert_eq!(
                engine.prefix_sum(lo).unwrap(),
                rebuilt.prefix_sum(lo).unwrap()
            );
        }
    }

    #[test]
    fn set_then_cell_round_trips(sc in scenario()) {
        let cube = NdCube::from_vec(&sc.dims, sc.initial.clone()).unwrap();
        let mut engine = RpsEngine::from_cube_with_box_size(&cube, &sc.box_size).unwrap();
        for (i, (c, v)) in sc.updates.iter().enumerate() {
            let value = *v + i as i64;
            engine.set(c, value).unwrap();
            prop_assert_eq!(engine.cell(c).unwrap(), value);
        }
    }

    #[test]
    fn materialize_recovers_cube(sc in scenario()) {
        let cube = NdCube::from_vec(&sc.dims, sc.initial.clone()).unwrap();
        let engine = RpsEngine::from_cube_with_box_size(&cube, &sc.box_size).unwrap();
        prop_assert_eq!(engine.materialize(), cube);
    }
}

// ---------------------------------------------------------------------
// Range-update conformance: interleaved point and rectangle updates on
// every engine must be bit-identical to a per-cell flat-array oracle —
// the oracle never goes through any engine's fast path.
// ---------------------------------------------------------------------

/// One update operation: a point delta or a rectangle delta.
#[derive(Debug, Clone)]
enum Op {
    Point(Vec<usize>, i64),
    Range(Vec<usize>, Vec<usize>, i64),
}

/// Mixed point/range workload over a random cube of 1..=3 dimensions.
/// The innermost dimension ranges past one blocked-Fenwick block (8), so
/// non-divisible tail blocks are exercised.
#[derive(Debug, Clone)]
struct RangeScenario {
    dims: Vec<usize>,
    box_size: Vec<usize>,
    initial: Vec<i64>,
    ops: Vec<Op>,
    queries: Vec<(Vec<usize>, Vec<usize>)>,
}

fn range_scenario() -> impl Strategy<Value = RangeScenario> {
    (1usize..=3)
        .prop_flat_map(|d| {
            (
                proptest::collection::vec(1usize..=11, d..=d),
                proptest::collection::vec(1usize..=5, d..=d),
            )
        })
        .prop_flat_map(|(dims, box_size)| {
            let n: usize = dims.iter().product();
            let coord = {
                let dims = dims.clone();
                move || coords_in(dims.clone())
            };
            let corners = {
                let coord = coord.clone();
                move || {
                    (coord(), coord()).prop_map(|(a, b)| {
                        let lo: Vec<usize> = a.iter().zip(&b).map(|(&x, &y)| x.min(y)).collect();
                        let hi: Vec<usize> = a.iter().zip(&b).map(|(&x, &y)| x.max(y)).collect();
                        (lo, hi)
                    })
                }
            };
            let op = (any::<bool>(), coord(), corners(), -100i64..100).prop_map(
                |(is_range, c, (lo, hi), v)| {
                    if is_range {
                        Op::Range(lo, hi, v)
                    } else {
                        Op::Point(c, v)
                    }
                },
            );
            (
                Just(dims),
                Just(box_size),
                proptest::collection::vec(-50i64..50, n..=n),
                proptest::collection::vec(op, 0..14),
                proptest::collection::vec(corners(), 1..8),
            )
        })
        .prop_map(|(dims, box_size, initial, ops, queries)| RangeScenario {
            dims,
            box_size,
            initial,
            ops,
            queries,
        })
}

/// Applies the scenario's ops to `engine` and to a flat per-cell oracle,
/// then checks every query region, every single cell, and the total.
fn run_range_ops<E: RangeSumEngine<i64>>(mut engine: E, sc: &RangeScenario) {
    let shape = Shape::new(&sc.dims).unwrap();
    let mut oracle = sc.initial.clone();
    for op in &sc.ops {
        match op {
            Op::Point(c, delta) => {
                engine.update(c, *delta).unwrap();
                oracle[shape.linear(c).unwrap()] += *delta;
            }
            Op::Range(lo, hi, delta) => {
                let r = Region::new(lo, hi).unwrap();
                engine.range_update(&r, *delta).unwrap();
                for c in &r {
                    oracle[shape.linear(&c).unwrap()] += *delta;
                }
            }
        }
    }
    for (lo, hi) in &sc.queries {
        let r = Region::new(lo, hi).unwrap();
        let mut want = 0i64;
        for c in &r {
            want += oracle[shape.linear(&c).unwrap()];
        }
        assert_eq!(
            engine.query(&r).unwrap(),
            want,
            "{} disagrees with the per-cell oracle on {r:?} (scenario {sc:?})",
            engine.name()
        );
    }
    assert_eq!(
        engine.materialize(),
        NdCube::from_vec(&sc.dims, oracle.clone()).unwrap(),
        "{} materializes differently from the oracle",
        engine.name()
    );
    assert_eq!(engine.total(), oracle.iter().sum::<i64>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn naive_range_updates_match_oracle(sc in range_scenario()) {
        let cube = NdCube::from_vec(&sc.dims, sc.initial.clone()).unwrap();
        run_range_ops(NaiveEngine::from_cube(cube), &sc);
    }

    #[test]
    fn prefix_sum_range_updates_match_oracle(sc in range_scenario()) {
        let cube = NdCube::from_vec(&sc.dims, sc.initial.clone()).unwrap();
        run_range_ops(PrefixSumEngine::from_cube(&cube), &sc);
    }

    #[test]
    fn rps_range_updates_match_oracle(sc in range_scenario()) {
        let cube = NdCube::from_vec(&sc.dims, sc.initial.clone()).unwrap();
        let engine = RpsEngine::from_cube_with_box_size(&cube, &sc.box_size).unwrap();
        run_range_ops(engine, &sc);
    }

    #[test]
    fn versioned_range_updates_match_oracle(sc in range_scenario()) {
        let cube = NdCube::from_vec(&sc.dims, sc.initial.clone()).unwrap();
        let engine = RpsEngine::from_cube_with_box_size(&cube, &sc.box_size).unwrap();
        run_range_ops(VersionedEngine::new(engine), &sc);
    }

    #[test]
    fn fenwick_range_updates_match_oracle(sc in range_scenario()) {
        let cube = NdCube::from_vec(&sc.dims, sc.initial.clone()).unwrap();
        run_range_ops(FenwickEngine::from_cube(&cube), &sc);
    }

    #[test]
    fn blocked_fenwick_range_updates_match_oracle(sc in range_scenario()) {
        let cube = NdCube::from_vec(&sc.dims, sc.initial.clone()).unwrap();
        run_range_ops(BlockedFenwickEngine::from_cube(&cube), &sc);
    }
}

#[test]
fn range_update_edge_regions_all_engines() {
    // Deterministic edge coverage on a 5×13 cube: the innermost extent
    // 13 = 8 + 5 gives the blocked-Fenwick layout a non-divisible tail
    // block. Point region, full region, full row, and a box that ends
    // exactly on the 8-boundary.
    let dims = [5usize, 13];
    let cube = NdCube::from_fn(&dims, |c| (c[0] * 13 + c[1]) as i64 % 9).unwrap();
    let edges = [
        Region::new(&[2, 7], &[2, 7]).unwrap(),  // single cell
        Region::new(&[0, 0], &[4, 12]).unwrap(), // full cube
        Region::new(&[3, 0], &[3, 12]).unwrap(), // full row
        Region::new(&[1, 0], &[2, 7]).unwrap(),  // ends on the block edge
        Region::new(&[0, 8], &[4, 12]).unwrap(), // entirely in the tail block
    ];
    let sc = RangeScenario {
        dims: dims.to_vec(),
        box_size: vec![2, 4],
        initial: cube.as_slice().to_vec(),
        ops: edges
            .iter()
            .enumerate()
            .map(|(i, r)| Op::Range(r.lo().to_vec(), r.hi().to_vec(), 3 * i as i64 - 5))
            .collect(),
        queries: edges
            .iter()
            .map(|r| (r.lo().to_vec(), r.hi().to_vec()))
            .collect(),
    };
    run_range_ops(NaiveEngine::from_cube(cube.clone()), &sc);
    run_range_ops(PrefixSumEngine::from_cube(&cube), &sc);
    run_range_ops(
        RpsEngine::from_cube_with_box_size(&cube, &sc.box_size).unwrap(),
        &sc,
    );
    run_range_ops(
        VersionedEngine::new(RpsEngine::from_cube_with_box_size(&cube, &sc.box_size).unwrap()),
        &sc,
    );
    run_range_ops(FenwickEngine::from_cube(&cube), &sc);
    run_range_ops(BlockedFenwickEngine::from_cube(&cube), &sc);
}

#[test]
fn four_dimensional_smoke() {
    // A deterministic 4-d case exercising the alternating query signs
    // (d − 1 − |S| spans both parities).
    let a = NdCube::from_fn(&[4, 4, 4, 4], |c| {
        (c[0] * 27 + c[1] * 9 + c[2] * 3 + c[3] + 1) as i64
    })
    .unwrap();
    let mut rps = RpsEngine::from_cube_uniform(&a, 2).unwrap();
    let naive = NaiveEngine::from_cube(a);
    let regions = [
        Region::new(&[1, 1, 1, 1], &[2, 3, 2, 3]).unwrap(),
        Region::new(&[0, 0, 0, 0], &[3, 3, 3, 3]).unwrap(),
        Region::new(&[1, 0, 2, 1], &[1, 0, 2, 1]).unwrap(),
        Region::new(&[0, 2, 1, 3], &[3, 3, 1, 3]).unwrap(),
    ];
    for r in &regions {
        assert_eq!(rps.query(r).unwrap(), naive.query(r).unwrap(), "{r:?}");
    }
    rps.update(&[1, 2, 3, 0], 1000).unwrap();
    let r = Region::new(&[0, 0, 0, 0], &[3, 3, 3, 3]).unwrap();
    assert_eq!(rps.query(&r).unwrap(), naive.query(&r).unwrap() + 1000);
}

#[test]
fn large_2d_engines_agree() {
    let a = NdCube::from_fn(&[64, 64], |c| ((c[0] * 131 + c[1] * 7) % 23) as i64).unwrap();
    let rps = RpsEngine::from_cube(&a);
    let ps = PrefixSumEngine::from_cube(&a);
    let fw = FenwickEngine::from_cube(&a);
    let naive = NaiveEngine::from_cube(a);
    for (lo, hi) in [
        ([0, 0], [63, 63]),
        ([17, 3], [61, 58]),
        ([32, 32], [32, 32]),
    ] {
        let r = Region::new(&lo, &hi).unwrap();
        let want = naive.query(&r).unwrap();
        assert_eq!(rps.query(&r).unwrap(), want);
        assert_eq!(ps.query(&r).unwrap(), want);
        assert_eq!(fw.query(&r).unwrap(), want);
    }
}

// ---------------------------------------------------------------------
// Batch conformance: `update_batch` on every engine is bit-identical to
// the per-record loop, on both legs of RPS's incremental-or-rebuild
// crossover, and leaves every cell untouched when one coordinate is out
// of bounds.
// ---------------------------------------------------------------------

/// A cube of 1..=3 dimensions with a small batch (at most the 32-record
/// sample, so RPS stays incremental) and a large one: `(d + 2)·N + 33`
/// records with nonzero deltas. Each sampled record writes at least its
/// own RP cell, so the sample projects more than the `(d + 2)·N` cell
/// writes of a rebuild and RPS takes the rebuild leg.
#[derive(Debug, Clone)]
struct BatchScenario {
    dims: Vec<usize>,
    box_size: Vec<usize>,
    k: usize,
    initial: Vec<i64>,
    small: Vec<(Vec<usize>, i64)>,
    large: Vec<(Vec<usize>, i64)>,
    bad_at: usize,
}

fn batch_scenario() -> impl Strategy<Value = BatchScenario> {
    (1usize..=3)
        .prop_flat_map(|d| {
            (
                proptest::collection::vec(1usize..=6, d..=d),
                proptest::collection::vec(1usize..=5, d..=d),
                1usize..=5,
            )
        })
        .prop_flat_map(|(dims, box_size, k)| {
            let n: usize = dims.iter().product();
            let large = (dims.len() + 2) * n + 33;
            let update = {
                let dims = dims.clone();
                move || {
                    (coords_in(dims.clone()), 1i64..=100, any::<bool>())
                        .prop_map(|(c, v, neg)| (c, if neg { -v } else { v }))
                }
            };
            (
                Just(dims),
                Just(box_size),
                Just(k),
                proptest::collection::vec(-50i64..50, n..=n),
                (
                    proptest::collection::vec(update(), 1..=32),
                    proptest::collection::vec(update(), large..=large),
                ),
                any::<usize>(),
            )
        })
        .prop_map(
            |(dims, box_size, k, initial, (small, large), bad_at)| BatchScenario {
                dims,
                box_size,
                k,
                initial,
                small,
                large,
                bad_at,
            },
        )
}

/// Runs both batches of `sc` through `make()`'s engine: `update_batch`
/// must give the per-record loop's cube, and the same batch with one
/// coordinate out of bounds must fail and change no cell.
fn check_update_batch<E: RangeSumEngine<i64>>(make: impl Fn() -> E, sc: &BatchScenario) {
    let initial = NdCube::from_vec(&sc.dims, sc.initial.clone()).unwrap();
    for (leg, batch) in [("small", &sc.small), ("large", &sc.large)] {
        let mut looped = make();
        for (c, delta) in batch {
            looped.update(c, *delta).unwrap();
        }
        let mut batched = make();
        batched.update_batch(batch).unwrap();
        assert_eq!(
            batched.materialize(),
            looped.materialize(),
            "{} {leg} batch differs from the per-record loop ({sc:?})",
            batched.name()
        );

        let mut bad = batch.clone();
        let at = sc.bad_at % bad.len();
        bad[at].0[0] = sc.dims[0];
        let mut rejected = make();
        assert!(rejected.update_batch(&bad).is_err());
        assert_eq!(
            rejected.materialize(),
            initial,
            "{} applied part of a rejected {leg} batch ({sc:?})",
            rejected.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn update_batch_matches_the_per_record_loop(sc in batch_scenario()) {
        let cube = NdCube::from_vec(&sc.dims, sc.initial.clone()).unwrap();
        let uniform = RpsEngine::from_cube_uniform(&cube, sc.k).unwrap();
        let sqrt = RpsEngine::from_cube(&cube);
        for rps in [&uniform, &sqrt] {
            prop_assert!(!rps.clone().apply_batch(&sc.small).unwrap(), "small batch rebuilt");
            prop_assert!(rps.clone().apply_batch(&sc.large).unwrap(), "large batch stayed incremental");
        }
        check_update_batch(|| NaiveEngine::from_cube(cube.clone()), &sc);
        check_update_batch(|| PrefixSumEngine::from_cube(&cube), &sc);
        check_update_batch(|| uniform.clone(), &sc);
        check_update_batch(|| sqrt.clone(), &sc);
        check_update_batch(|| FenwickEngine::from_cube(&cube), &sc);
        check_update_batch(|| BlockedFenwickEngine::from_cube(&cube), &sc);
        check_update_batch(
            || {
                VersionedEngine::new(
                    RpsEngine::from_cube_with_box_size(&cube, &sc.box_size).unwrap(),
                )
            },
            &sc,
        );
    }
}
