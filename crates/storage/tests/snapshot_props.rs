//! Property tests for the `RPSSNAP1` codec over arbitrary engine
//! states: capture → encode → decode → restore answers every query like
//! the original, and no single-byte flip decodes to a different cube.

use ndcube::{NdCube, Region};
use proptest::prelude::*;
use rps_core::{RangeSumEngine, RpsEngine};
use rps_storage::{decode_snapshot, encode_snapshot, SnapshotState};

#[derive(Debug, Clone)]
struct State {
    n: usize,
    initial: Vec<i64>,
    updates: Vec<((usize, usize), i64)>,
    queries: Vec<((usize, usize), (usize, usize))>,
}

fn state() -> impl Strategy<Value = State> {
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
            )
        })
        .prop_map(|(n, initial, updates, queries)| State {
            n,
            initial,
            updates,
            queries,
        })
}

/// The state's engine after its updates.
fn engine(sc: &State) -> RpsEngine<i64> {
    let cube = NdCube::from_vec(&[sc.n, sc.n], sc.initial.clone()).unwrap();
    let mut engine = RpsEngine::from_cube(&cube);
    for ((r, c), delta) in &sc.updates {
        engine.update(&[*r, *c], *delta).unwrap();
    }
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn snapshot_round_trips_arbitrary_state(sc in state()) {
        let engine = engine(&sc);
        let (dims, box_size, cells) = engine.capture();
        let bytes = encode_snapshot(sc.updates.len() as u64, &dims, &box_size, &cells).unwrap();
        let (header, decoded) = decode_snapshot(&bytes).unwrap();
        prop_assert_eq!(header.lsn, sc.updates.len() as u64);
        let loaded = RpsEngine::<i64>::restore(&header.dims, &header.box_size, decoded).unwrap();
        prop_assert_eq!(loaded.grid().box_size(), engine.grid().box_size());
        prop_assert_eq!(loaded.to_cube(), engine.to_cube());
        for ((r0, c0), (r1, c1)) in &sc.queries {
            let region = Region::new(&[*r0, *c0], &[*r1, *c1]).unwrap();
            prop_assert_eq!(loaded.query(&region).unwrap(), engine.query(&region).unwrap());
        }
    }

    #[test]
    fn snapshot_rejects_any_single_byte_corruption(
        sc in state(),
        victim in any::<proptest::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let (dims, box_size, cells) = engine(&sc).capture();
        let mut bytes = encode_snapshot(0, &dims, &box_size, &cells).unwrap();
        let pos = victim.index(bytes.len());
        bytes[pos] ^= flip;
        // Corruption anywhere (magic, header, payload or trailer) must
        // never decode silently to a different cube.
        if let Ok((header, decoded)) = decode_snapshot(&bytes) {
            prop_assert_eq!(
                (header.dims, header.box_size, decoded),
                (dims, box_size, cells),
                "corruption at byte {} missed",
                pos
            );
        }
    }
}
