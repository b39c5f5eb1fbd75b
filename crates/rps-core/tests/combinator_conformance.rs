//! Property tests for the engine combinators: the delta buffer and the
//! shared (thread-safe) wrapper must be behaviour-transparent — any
//! op sequence gives the same answers as the bare engine. (Snapshot
//! round trips are property-tested in rps-storage, which owns the
//! format.)

use ndcube::{NdCube, Region};
use proptest::prelude::*;
use rps_core::{
    BufferedEngine, NaiveEngine, PrefixSumEngine, RangeSumEngine, RpsEngine, SharedEngine,
};

#[derive(Debug, Clone)]
struct Ops {
    n: usize,
    initial: Vec<i64>,
    updates: Vec<((usize, usize), i64)>,
    queries: Vec<((usize, usize), (usize, usize))>,
    merge_threshold: usize,
}

fn ops() -> impl Strategy<Value = Ops> {
    (3usize..=9)
        .prop_flat_map(|n| {
            let coord = move || (0..n, 0..n);
            let corners = (coord(), coord())
                .prop_map(|((a, b), (c, d))| ((a.min(c), b.min(d)), (a.max(c), b.max(d))));
            (
                Just(n),
                proptest::collection::vec(-9i64..9, n * n..=n * n),
                proptest::collection::vec((coord(), -30i64..30), 0..15),
                proptest::collection::vec(corners, 1..6),
                1usize..6,
            )
        })
        .prop_map(|(n, initial, updates, queries, merge_threshold)| Ops {
            n,
            initial,
            updates,
            queries,
            merge_threshold,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn buffered_engine_is_transparent(sc in ops()) {
        let cube = NdCube::from_vec(&[sc.n, sc.n], sc.initial.clone()).unwrap();
        let mut oracle = NaiveEngine::from_cube(cube.clone());
        let mut buffered =
            BufferedEngine::new(PrefixSumEngine::from_cube(&cube), sc.merge_threshold);
        for (i, ((r, c), delta)) in sc.updates.iter().enumerate() {
            oracle.update(&[*r, *c], *delta).unwrap();
            buffered.update(&[*r, *c], *delta).unwrap();
            // Interleave queries with updates so both merged and
            // unmerged buffer states are exercised.
            if let Some(((r0, c0), (r1, c1))) = sc.queries.get(i % sc.queries.len()) {
                let region = Region::new(&[*r0, *c0], &[*r1, *c1]).unwrap();
                prop_assert_eq!(
                    buffered.query(&region).unwrap(),
                    oracle.query(&region).unwrap()
                );
            }
        }
        // Final merge must not change answers.
        buffered.merge().unwrap();
        for ((r0, c0), (r1, c1)) in &sc.queries {
            let region = Region::new(&[*r0, *c0], &[*r1, *c1]).unwrap();
            prop_assert_eq!(buffered.query(&region).unwrap(), oracle.query(&region).unwrap());
        }
    }

    #[test]
    fn shared_engine_is_transparent(sc in ops()) {
        let cube = NdCube::from_vec(&[sc.n, sc.n], sc.initial.clone()).unwrap();
        let mut oracle = NaiveEngine::from_cube(cube.clone());
        let shared = SharedEngine::new(RpsEngine::from_cube(&cube));
        for ((r, c), delta) in &sc.updates {
            oracle.update(&[*r, *c], *delta).unwrap();
            shared.update(&[*r, *c], *delta).unwrap();
        }
        for ((r0, c0), (r1, c1)) in &sc.queries {
            let region = Region::new(&[*r0, *c0], &[*r1, *c1]).unwrap();
            let got: i64 = shared.query(&region).unwrap();
            prop_assert_eq!(got, oracle.query(&region).unwrap());
        }
        prop_assert_eq!(shared.update_count(), sc.updates.len() as u64);
    }
}
