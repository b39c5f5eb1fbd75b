//! Property tests for the versioned-snapshot engine (S3): snapshot
//! monotonicity, batch atomicity, and point, range and batch writes
//! against the per-cell oracle.
//!
//! The versioned engine's contract is that every snapshot is
//! bit-identical to a serial [`RpsEngine`] that applied some *prefix* of
//! the update sequence — never a reordering, never a partial batch.
//! These properties drive random cubes (d = 1..=3), random box sizes,
//! and random interleavings of writer publishes with held snapshots,
//! and check every snapshot against serial replays of all possible
//! prefixes.

use ndcube::{NdCube, Region};
use proptest::prelude::*;
use rps_core::{RangeSumEngine, RpsEngine, VersionedEngine};

type Coords = Vec<usize>;

#[derive(Debug, Clone)]
struct Scenario {
    dims: Vec<usize>,
    k: Vec<usize>,
    initial: Vec<i64>,
    /// Update batches; each is published atomically via `apply_batch`.
    batches: Vec<Vec<(Coords, i64)>>,
    /// Probe region, clamped in-bounds.
    probe: (Coords, Coords),
}

fn scenario(d: usize) -> impl Strategy<Value = Scenario> {
    proptest::collection::vec(2usize..=7, d..=d)
        .prop_flat_map(move |dims| {
            let n: usize = dims.iter().product();
            let coord = dims.iter().map(|&n_i| 0..n_i).collect::<Vec<_>>();
            let k = dims.iter().map(|&n_i| 1..=n_i).collect::<Vec<_>>();
            (
                Just(dims.clone()),
                k,
                proptest::collection::vec(-9i64..9, n..=n),
                proptest::collection::vec(
                    proptest::collection::vec((coord.clone(), -20i64..20), 1..4),
                    0..5,
                ),
                (coord.clone(), coord),
            )
        })
        .prop_map(|(dims, k, initial, batches, probe)| Scenario {
            dims,
            k,
            initial,
            batches,
            probe,
        })
}

/// The region spanned by two corners, in either order.
fn bounding_box(a: &[usize], b: &[usize]) -> Region {
    let lo: Vec<usize> = a.iter().zip(b).map(|(&x, &y)| x.min(y)).collect();
    let hi: Vec<usize> = a.iter().zip(b).map(|(&x, &y)| x.max(y)).collect();
    Region::new(&lo, &hi).unwrap()
}

impl Scenario {
    fn probe_region(&self) -> Region {
        bounding_box(&self.probe.0, &self.probe.1)
    }

    fn cube(&self) -> NdCube<i64> {
        NdCube::from_vec(&self.dims, self.initial.clone()).unwrap()
    }

    /// The probe answer of a serial engine that applied the first
    /// `prefix` whole batches.
    fn serial_answer_after(&self, prefix: usize, region: &Region) -> i64 {
        let mut serial = RpsEngine::from_cube_with_box_size(&self.cube(), &self.k).unwrap();
        for batch in &self.batches[..prefix] {
            for (c, delta) in batch {
                serial.update(c, *delta).unwrap();
            }
        }
        serial.query(region).unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Snapshot monotonicity: with a reader pinning between every
    // publish, each pinned snapshot answers exactly as a serial engine
    // that applied some prefix of the batch sequence — and the prefix
    // lengths observed by successive pins never decrease. One instance
    // per dimension count so shrinking stays within one shape family.

    /// d = 1.
    #[test]
    fn monotone_prefixes_d1(s in scenario(1)) {
        check_monotone_prefixes(&s);
    }

    /// d = 2.
    #[test]
    fn monotone_prefixes_d2(s in scenario(2)) {
        check_monotone_prefixes(&s);
    }

    /// d = 3.
    #[test]
    fn monotone_prefixes_d3(s in scenario(3)) {
        check_monotone_prefixes(&s);
    }

    /// Negative test (batch atomicity): a reader pinned *before* a
    /// multi-update batch publishes never sees any proper subset of it
    /// — the pinned answer matches a whole-batch prefix exactly.
    #[test]
    fn pinned_reader_never_sees_partial_batches(s in scenario(2)) {
        prop_assume!(!s.batches.is_empty());
        let region = s.probe_region();
        let v = VersionedEngine::new(
            RpsEngine::from_cube_with_box_size(&s.cube(), &s.k).unwrap(),
        );

        // Pin before anything publishes, hold across every publish.
        let pinned = v.snapshot();
        let before = pinned.query(&region).unwrap();
        for batch in &s.batches {
            v.apply_batch(batch).unwrap();
        }
        // The held pin still answers from prefix 0 — not from any
        // partially-applied state of the batches published meanwhile.
        prop_assert_eq!(pinned.query(&region).unwrap(), before);
        prop_assert_eq!(before, s.serial_answer_after(0, &region));
        drop(pinned);

        // Every fresh pin lands exactly on a whole-batch boundary: its
        // update_count equals the length of some batch prefix, and its
        // answer matches the serial replay of exactly that prefix.
        let pinned = v.snapshot();
        let total_updates: usize = s.batches.iter().map(Vec::len).sum();
        prop_assert_eq!(pinned.update_count(), total_updates as u64);
        prop_assert_eq!(
            pinned.query(&region).unwrap(),
            s.serial_answer_after(s.batches.len(), &region)
        );
    }
}

/// Shared body: publish batches one at a time, pinning between each
/// publish; every pinned answer must equal the serial replay of the
/// exact whole-batch prefix the snapshot's metadata claims, and the
/// claimed prefixes must be monotone.
fn check_monotone_prefixes(s: &Scenario) {
    let region = s.probe_region();
    let v = VersionedEngine::new(RpsEngine::from_cube_with_box_size(&s.cube(), &s.k).unwrap());

    // Cumulative batch sizes → map a snapshot's update_count back to
    // the batch prefix it claims to be.
    let mut boundaries = vec![0usize];
    for b in &s.batches {
        boundaries.push(boundaries.last().unwrap() + b.len());
    }

    let mut last_count = 0u64;
    for (i, batch) in s.batches.iter().enumerate() {
        {
            let pinned = v.snapshot();
            let count = pinned.update_count();
            // Monotone: a later pin never observes an older prefix.
            assert!(count >= last_count, "prefix went backwards");
            last_count = count;
            // The claimed prefix is a whole-batch boundary…
            let prefix = boundaries
                .iter()
                .position(|&b| b as u64 == count)
                .expect("snapshot landed inside a batch");
            // …and the answer matches the serial replay of exactly it.
            assert_eq!(
                pinned.query(&region).unwrap(),
                s.serial_answer_after(prefix, &region),
                "snapshot diverged from serial prefix {prefix}"
            );
        }
        v.apply_batch(batch).unwrap();
        let _ = i;
    }
    // Final state: full sequence.
    assert_eq!(
        v.query(&region).unwrap(),
        s.serial_answer_after(s.batches.len(), &region)
    );
}

/// One write call: each publishes exactly one version.
#[derive(Debug, Clone)]
enum Write {
    Point(Coords, i64),
    /// Any two corners; the rectangle is their bounding box.
    Range(Coords, Coords, i64),
    Batch(Vec<(Coords, i64)>),
}

impl Write {
    /// Updates this write adds to `update_count`.
    fn updates(&self) -> u64 {
        match self {
            Write::Point(..) | Write::Range(..) => 1,
            Write::Batch(b) => b.len() as u64,
        }
    }
}

#[derive(Debug, Clone)]
struct WriteScenario {
    dims: Vec<usize>,
    k: Vec<usize>,
    initial: Vec<i64>,
    writes: Vec<Write>,
}

fn write_scenario(d: usize) -> impl Strategy<Value = WriteScenario> {
    proptest::collection::vec(2usize..=7, d..=d)
        .prop_flat_map(move |dims| {
            let n: usize = dims.iter().product();
            let coord = dims.iter().map(|&n_i| 0..n_i).collect::<Vec<_>>();
            let k = dims.iter().map(|&n_i| 1..=n_i).collect::<Vec<_>>();
            let write = (
                0u8..3,
                coord.clone(),
                coord.clone(),
                -20i64..20,
                proptest::collection::vec((coord, -20i64..20), 1..4),
            )
                .prop_map(|(kind, a, b, delta, batch)| match kind {
                    0 => Write::Point(a, delta),
                    1 => Write::Range(a, b, delta),
                    _ => Write::Batch(batch),
                });
            (
                Just(dims),
                k,
                proptest::collection::vec(-9i64..9, n..=n),
                proptest::collection::vec(write, 1..8),
            )
        })
        .prop_map(|(dims, k, initial, writes)| WriteScenario {
            dims,
            k,
            initial,
            writes,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Interleaved `update`, `range_update` and `apply_batch` calls, with
    // a snapshot held from between every two publishes: at the end,
    // each held snapshot equals, cell for cell, the per-cell oracle
    // after the write prefix its own `update_count` names. Box sizes
    // are random, so most do not divide the extent.

    /// d = 1.
    #[test]
    fn held_snapshots_match_per_cell_oracle_d1(s in write_scenario(1)) {
        check_held_snapshots(&s);
    }

    /// d = 2.
    #[test]
    fn held_snapshots_match_per_cell_oracle_d2(s in write_scenario(2)) {
        check_held_snapshots(&s);
    }

    /// d = 3.
    #[test]
    fn held_snapshots_match_per_cell_oracle_d3(s in write_scenario(3)) {
        check_held_snapshots(&s);
    }
}

fn check_held_snapshots(s: &WriteScenario) {
    let cube = NdCube::from_vec(&s.dims, s.initial.clone()).unwrap();
    let v = VersionedEngine::new(RpsEngine::from_cube_with_box_size(&cube, &s.k).unwrap());

    // The per-cell oracle after each write prefix, keyed by the
    // prefix's update count.
    let mut oracle = cube;
    let mut states = vec![(0u64, oracle.clone())];
    let mut held = vec![v.snapshot()];
    for w in &s.writes {
        match w {
            Write::Point(c, delta) => {
                v.update(c, *delta).unwrap();
                oracle.set(c, oracle.get(c) + delta);
            }
            Write::Range(a, b, delta) => {
                let region = bounding_box(a, b);
                v.range_update(&region, *delta).unwrap();
                for x in &region {
                    oracle.set(&x, oracle.get(&x) + delta);
                }
            }
            Write::Batch(batch) => {
                v.apply_batch(batch).unwrap();
                for (c, delta) in batch {
                    oracle.set(c, oracle.get(c) + delta);
                }
            }
        }
        let count = states.last().unwrap().0 + w.updates();
        states.push((count, oracle.clone()));
        held.push(v.snapshot());
    }

    let full = oracle.shape().full_region();
    for (i, snap) in held.iter().enumerate() {
        let (_, expect) = states
            .iter()
            .find(|(count, _)| *count == snap.update_count())
            .expect("snapshot landed inside a write");
        // One snapshot per publish, in order: snapshot i is version i.
        assert_eq!(snap.number(), i as u64);
        for x in &full {
            assert_eq!(
                snap.cell(&x).unwrap(),
                expect.get(&x),
                "snapshot {i} cell {x:?}"
            );
        }
        let total: i64 = expect.as_slice().iter().sum();
        assert_eq!(snap.total(), total, "snapshot {i} total");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // `VersionedEngine::new` moves the RP array into per-box granules,
    // and `Version::to_cube` moves them back: after the build and after
    // every write, a snapshot's cube equals the serial engine's own
    // `to_cube` given the same writes. Box sizes are random, so most
    // boxes are ragged.

    /// d = 1.
    #[test]
    fn snapshot_to_cube_matches_serial_d1(s in write_scenario(1)) {
        check_to_cube(&s);
    }

    /// d = 2.
    #[test]
    fn snapshot_to_cube_matches_serial_d2(s in write_scenario(2)) {
        check_to_cube(&s);
    }

    /// d = 3.
    #[test]
    fn snapshot_to_cube_matches_serial_d3(s in write_scenario(3)) {
        check_to_cube(&s);
    }
}

fn check_to_cube(s: &WriteScenario) {
    let cube = NdCube::from_vec(&s.dims, s.initial.clone()).unwrap();
    let mut serial = RpsEngine::from_cube_with_box_size(&cube, &s.k).unwrap();
    let v = VersionedEngine::new(serial.clone());
    assert_eq!(v.snapshot().to_cube(), serial.to_cube(), "built engines");
    for (i, w) in s.writes.iter().enumerate() {
        match w {
            Write::Point(c, delta) => {
                v.update(c, *delta).unwrap();
                serial.update(c, *delta).unwrap();
            }
            Write::Range(a, b, delta) => {
                let region = bounding_box(a, b);
                v.range_update(&region, *delta).unwrap();
                serial.range_update(&region, *delta).unwrap();
            }
            Write::Batch(batch) => {
                v.apply_batch(batch).unwrap();
                for (c, delta) in batch {
                    serial.update(c, *delta).unwrap();
                }
            }
        }
        assert_eq!(v.snapshot().to_cube(), serial.to_cube(), "after write {i}");
    }
}
