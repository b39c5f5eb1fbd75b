//! Property: recovery is serial replay.
//!
//! For random workloads across d ∈ {1, 2, 3}, with and without
//! `sync_every_append`, with and without a mid-workload checkpoint:
//! recovering a [`DurableEngine`] — after a clean shutdown-less crash
//! (all updates issued) *and* after a mid-batch crash (a prefix of the
//! updates issued) — yields exactly the state of serially replaying the
//! same updates against a [`NaiveEngine`]. No lost updates, no
//! double-applies, regardless of where the checkpoint fell relative to
//! the crash.

use ndcube::NdCube;
use proptest::prelude::*;
use rps_core::{NaiveEngine, RangeSumEngine, RpsEngine};
use rps_storage::{
    DurableEngine, FaultPlan, RecoverySource, SimLogFile, SimRng, SimSnapshotStore, StorageError,
};

#[derive(Debug, Clone)]
struct Scenario {
    dims: Vec<usize>,
    updates: Vec<(Vec<usize>, i64)>,
    /// Checkpoint after this update index, if any.
    checkpoint_at: Option<usize>,
    /// Mid-batch crash: only updates[..crash_at] were issued.
    crash_at: usize,
    strict: bool,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (1usize..=3)
        .prop_flat_map(|d| {
            (
                proptest::collection::vec(2usize..=6, d),
                proptest::collection::vec(
                    (proptest::collection::vec(0usize..64, d), -50i64..=50),
                    1..32,
                ),
                any::<bool>(),
                0usize..64,
                (any::<bool>(), 0usize..64),
            )
        })
        .prop_map(|(dims, raw_updates, strict, crash_raw, (use_cp, cp_raw))| {
            let n = raw_updates.len();
            let updates: Vec<(Vec<usize>, i64)> = raw_updates
                .into_iter()
                .map(|(c, delta)| (c.iter().zip(&dims).map(|(r, &m)| r % m).collect(), delta))
                .collect();
            Scenario {
                checkpoint_at: use_cp.then(|| cp_raw % n),
                crash_at: crash_raw % (n + 1),
                dims,
                updates,
                strict,
            }
        })
}

/// Issues `updates[..stop]`, checkpointing where the scenario says, and
/// returns the crashed log bytes plus the snapshot (cube, LSN) the
/// checkpoint persisted (zeros/0 when no checkpoint ran).
fn run_until(sc: &Scenario, stop: usize) -> (Vec<u8>, NdCube<i64>, u64) {
    let log = SimLogFile::new(FaultPlan::none(), 1);
    let handle = log.handle();
    let mut d = DurableEngine::open_log(NaiveEngine::<i64>::zeros(&sc.dims).unwrap(), log, 0)
        .expect("fresh open");
    d.set_sync_every_append(sc.strict);
    let mut model = NdCube::filled(&sc.dims, 0i64).unwrap();
    let mut snapshot = (NdCube::filled(&sc.dims, 0i64).unwrap(), 0u64);
    for (i, (coords, delta)) in sc.updates.iter().take(stop).enumerate() {
        d.update(coords, *delta).expect("fault-free update");
        let lin = model.shape().linear_unchecked(coords);
        *model.get_linear_mut(lin) += *delta;
        if Some(i) == sc.checkpoint_at {
            let lsn = d
                .checkpoint_to(&mut SimSnapshotStore::new(FaultPlan::none(), 1))
                .expect("fault-free checkpoint");
            snapshot = (model.clone(), lsn);
        }
    }
    // The crash: the process dies here. A fault-free SimLogFile keeps
    // every appended byte in its cache (process crash, not power loss),
    // so recovery sees exactly what a real intact WAL file would hold.
    (handle.cache(), snapshot.0, snapshot.1)
}

/// Serial-replay oracle: the same prefix applied to a fresh NaiveEngine.
fn oracle_after(sc: &Scenario, stop: usize) -> NaiveEngine<i64> {
    let mut e = NaiveEngine::<i64>::zeros(&sc.dims).unwrap();
    for (coords, delta) in sc.updates.iter().take(stop) {
        e.update(coords, *delta).unwrap();
    }
    e
}

fn assert_recovery_matches(sc: &Scenario, stop: usize, label: &str) {
    let (bytes, snap_cube, snap_lsn) = run_until(sc, stop);
    let recovered = DurableEngine::open_log(
        NaiveEngine::from_cube(snap_cube),
        SimLogFile::from_bytes(bytes),
        snap_lsn,
    )
    .expect("recovery must succeed");
    let oracle = oracle_after(sc, stop);
    let shape = oracle.shape().clone();
    let full = shape.full_region();
    let mut mismatch: Option<String> = None;
    shape.for_each_region_cell(&full, |coords, _| {
        if mismatch.is_some() {
            return;
        }
        let got = recovered.engine().cell(coords).unwrap();
        let want = oracle.cell(coords).unwrap();
        if got != want {
            mismatch = Some(format!(
                "{label}: cell {coords:?} recovered {got}, serial replay {want} ({sc:?})"
            ));
        }
    });
    if let Some(msg) = mismatch {
        panic!("{msg}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn recovery_equals_serial_replay(sc in scenario()) {
        // Clean crash: every update issued, then the process dies.
        assert_recovery_matches(&sc, sc.updates.len(), "clean crash");
        // Mid-batch crash: only a prefix issued. The checkpoint may fall
        // before, at, or after the crash point — the LSN filter must
        // keep recovery exact in all three configurations.
        assert_recovery_matches(&sc, sc.crash_at, "mid-batch crash");
    }
}

// ---------------------------------------------------------------------
// Snapshot-path recovery: snapshot-then-replay ≡ full-replay ≡ serial
// oracle, with binary checkpoints cut at arbitrary points.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SnapScenario {
    dims: Vec<usize>,
    updates: Vec<(Vec<usize>, i64)>,
    /// Cut a binary snapshot after each of these update indices.
    checkpoints: Vec<usize>,
    /// Mid-batch crash: only updates[..crash_at] were issued.
    crash_at: usize,
    /// Which byte the negative control flips in the newest snapshot.
    flip_at: usize,
}

fn snap_scenario() -> impl Strategy<Value = SnapScenario> {
    (1usize..=3)
        .prop_flat_map(|d| {
            (
                proptest::collection::vec(2usize..=6, d),
                proptest::collection::vec(
                    (proptest::collection::vec(0usize..64, d), -50i64..=50),
                    1..32,
                ),
                proptest::collection::vec(0usize..64, 0..4),
                0usize..64,
                any::<usize>(),
            )
        })
        .prop_map(|(dims, raw_updates, cp_raw, crash_raw, flip_at)| {
            let n = raw_updates.len();
            let updates: Vec<(Vec<usize>, i64)> = raw_updates
                .into_iter()
                .map(|(c, delta)| (c.iter().zip(&dims).map(|(r, &m)| r % m).collect(), delta))
                .collect();
            let mut checkpoints: Vec<usize> = cp_raw.into_iter().map(|c| c % n).collect();
            checkpoints.sort_unstable();
            checkpoints.dedup();
            SnapScenario {
                crash_at: crash_raw % (n + 1),
                dims,
                updates,
                checkpoints,
                flip_at,
            }
        })
}

/// Issues `updates[..crash_at]`, cutting binary snapshots where the
/// scenario says, and returns the store chain plus the crashed WAL.
fn run_with_snapshots(sc: &SnapScenario) -> (SimSnapshotStore, Vec<u8>) {
    let log = SimLogFile::new(FaultPlan::none(), 1);
    let handle = log.handle();
    let mut d = DurableEngine::open_log(RpsEngine::<i64>::zeros(&sc.dims).unwrap(), log, 0)
        .expect("fresh open");
    let mut store = SimSnapshotStore::new(FaultPlan::none(), 1);
    for (i, (coords, delta)) in sc.updates.iter().take(sc.crash_at).enumerate() {
        d.update(coords, *delta).expect("fault-free update");
        if sc.checkpoints.contains(&i) {
            d.checkpoint_to(&mut store).expect("fault-free checkpoint");
        }
    }
    (store, handle.cache())
}

/// Recovers from `store` + WAL and compares cell-for-cell against the
/// serial-replay oracle; returns the recovery report for source checks.
fn assert_snapshot_recovery_matches(
    sc: &SnapScenario,
    store: &mut SimSnapshotStore,
    wal: &[u8],
    label: &str,
) -> rps_storage::RecoveryReport {
    let fresh = || Ok::<_, StorageError>(RpsEngine::<i64>::zeros(&sc.dims)?);
    let (recovered, report) =
        DurableEngine::recover_with(store, SimLogFile::from_bytes(wal.to_vec()), fresh)
            .unwrap_or_else(|e| panic!("{label}: recovery must never fail: {e} ({sc:?})"));
    let oracle = {
        let mut e = NaiveEngine::<i64>::zeros(&sc.dims).unwrap();
        for (coords, delta) in sc.updates.iter().take(sc.crash_at) {
            e.update(coords, *delta).unwrap();
        }
        e
    };
    let shape = oracle.shape().clone();
    let full = shape.full_region();
    let mut mismatch: Option<String> = None;
    shape.for_each_region_cell(&full, |coords, _| {
        if mismatch.is_some() {
            return;
        }
        let got = recovered.engine().cell(coords).unwrap();
        let want = oracle.cell(coords).unwrap();
        if got != want {
            mismatch = Some(format!(
                "{label}: cell {coords:?} recovered {got}, serial replay {want} ({sc:?})"
            ));
        }
    });
    if let Some(msg) = mismatch {
        panic!("{msg}");
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn snapshot_recovery_equals_full_replay_equals_serial_replay(sc in snap_scenario()) {
        let (store, wal) = run_with_snapshots(&sc);
        // The newest snapshot the run actually cut (checkpoint after
        // update i ⇒ snapshot at LSN i+1; only those before the crash).
        let newest = sc
            .checkpoints
            .iter()
            .filter(|&&i| i < sc.crash_at)
            .max()
            .map(|&i| (i + 1) as u64);

        // 1. Snapshot-then-replay: the newest snapshot must be chosen as
        //    the base, and the result must equal the serial oracle.
        let mut chain = store.fork();
        let report = assert_snapshot_recovery_matches(&sc, &mut chain, &wal, "snapshot+replay");
        match newest {
            Some(lsn) => prop_assert_eq!(report.source, RecoverySource::Snapshot(lsn)),
            None => prop_assert_eq!(report.source, RecoverySource::FullReplay),
        }
        prop_assert_eq!(report.fallbacks(), 0);

        // 2. Full replay (no snapshots at all) reaches the same state.
        let mut empty = SimSnapshotStore::new(FaultPlan::none(), 2);
        let report = assert_snapshot_recovery_matches(&sc, &mut empty, &wal, "full replay");
        prop_assert_eq!(report.source, RecoverySource::FullReplay);
        prop_assert_eq!(report.replayed, sc.crash_at as u64);

        // 3. Negative control: flip ONE byte anywhere in the newest
        //    snapshot — recovery must take the fallback path (quarantine
        //    the rotted artifact) and still match the oracle exactly.
        if let Some(lsn) = newest {
            let mut rotted = store.fork();
            let mut bytes = rotted.slots()[&lsn].clone();
            let flip = sc.flip_at % bytes.len();
            bytes[flip] ^= 1 << (sc.flip_at % 8);
            rotted.plant(lsn, bytes);
            let report =
                assert_snapshot_recovery_matches(&sc, &mut rotted, &wal, "one-byte rot");
            prop_assert!(
                report.fallbacks() >= 1,
                "a flipped byte at offset {} must force a fallback ({:?})",
                flip,
                report
            );
            prop_assert_eq!(
                report.quarantined.first().map(|q| q.0),
                Some(lsn),
                "the rotted newest snapshot must be the quarantined one"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Batch-path recovery: a mixed point/range tail long enough for RPS's
// rebuild leg replays to the per-cell oracle.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct TailScenario {
    dims: Vec<usize>,
    /// Seeds the records.
    seed: u64,
    /// Records logged before the checkpoint (none when 0).
    prefix: usize,
    /// Range records mixed into the tail.
    ranges: usize,
}

fn tail_scenario() -> impl Strategy<Value = TailScenario> {
    (1usize..=3)
        .prop_flat_map(|d| {
            (
                proptest::collection::vec(2usize..=6, d),
                any::<u64>(),
                0usize..16,
                0usize..12,
            )
        })
        .prop_map(|(dims, seed, prefix, ranges)| TailScenario {
            dims,
            seed,
            prefix,
            ranges,
        })
}

/// One logged record: a point delta (`lo == hi`) or a range delta.
type Rec = (Vec<usize>, Vec<usize>, i64);

/// `count` records, `ranges` of them rectangles at random places, with
/// nonzero deltas in −50..=50.
fn records(dims: &[usize], rng: &mut SimRng, count: usize, ranges: usize) -> Vec<Rec> {
    let mut out: Vec<Rec> = (0..count)
        .map(|i| {
            let a: Vec<usize> = dims.iter().map(|&n| rng.below(n)).collect();
            let b: Vec<usize> = if i < ranges {
                dims.iter().map(|&n| rng.below(n)).collect()
            } else {
                a.clone()
            };
            let lo = a.iter().zip(&b).map(|(&x, &y)| x.min(y)).collect();
            let hi = a.iter().zip(&b).map(|(&x, &y)| x.max(y)).collect();
            let delta = i64::try_from(rng.below(100)).unwrap() - 50;
            (lo, hi, if delta == 0 { 50 } else { delta })
        })
        .collect();
    // Spread the ranges through the tail.
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn long_mixed_tail_recovers_through_the_rebuild_leg(sc in tail_scenario()) {
        let mut rng = SimRng::new(sc.seed);
        let n: usize = sc.dims.iter().product();
        // More point records after the sample than a rebuild writes
        // cells: each writes at least one, so RPS rebuilds.
        let tail_points = (sc.dims.len() + 2) * n + 33;
        let prefix = records(&sc.dims, &mut rng, sc.prefix, sc.prefix / 3);
        let tail = records(&sc.dims, &mut rng, tail_points + sc.ranges, sc.ranges);

        let log = SimLogFile::new(FaultPlan::none(), 1);
        let handle = log.handle();
        let mut d = DurableEngine::open_log(RpsEngine::<i64>::zeros(&sc.dims).unwrap(), log, 0)
            .expect("fresh open");
        let mut store = SimSnapshotStore::new(FaultPlan::none(), 1);
        let shape = ndcube::Shape::new(&sc.dims).unwrap();
        let mut oracle = vec![0i64; n];
        for (i, (lo, hi, delta)) in prefix.iter().chain(&tail).enumerate() {
            if i == sc.prefix && i > 0 {
                d.checkpoint_to(&mut store).expect("fault-free checkpoint");
            }
            let region = ndcube::Region::new(lo, hi).unwrap();
            if lo == hi {
                d.update(lo, *delta).expect("fault-free update");
            } else {
                d.range_update(&region, *delta).expect("fault-free update");
            }
            for c in &region {
                oracle[shape.linear(&c).unwrap()] += *delta;
            }
        }

        let fresh = || Ok::<_, StorageError>(RpsEngine::<i64>::zeros(&sc.dims)?);
        let (recovered, report) =
            DurableEngine::recover_with(&mut store, SimLogFile::from_bytes(handle.cache()), fresh)
                .expect("recovery must succeed");
        let source = if sc.prefix > 0 {
            RecoverySource::Snapshot(sc.prefix as u64)
        } else {
            RecoverySource::FullReplay
        };
        prop_assert_eq!(report.source, source);
        prop_assert_eq!(report.replayed, tail.len() as u64);
        let got = recovered.engine().to_cube();
        prop_assert_eq!(got.as_slice(), &oracle[..]);
    }
}
