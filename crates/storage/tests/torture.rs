//! FoundationDB-style deterministic crash-consistency torture.
//!
//! For each seed: derive a fault plan, run a scripted update/checkpoint
//! workload through a [`DurableEngine`] over a fault-injecting
//! [`SimLogFile`], and after **every** operation enumerate every
//! byte-granular state the log's media could be in if the machine lost
//! power right then ([`SimLogHandle::crash_states`]). Each state is
//! recovered via [`DurableEngine::open_log`] and compared cell-for-cell
//! against the oracle — the last snapshot plus exactly the records
//! [`decode_records`] says survive. The invariants:
//!
//! * **exact recovery** — recovered state ≡ snapshot ⊕ surviving
//!   records with LSN > snapshot LSN (no lost updates, no
//!   double-applies, at every crash point);
//! * **no fabrication** — every surviving record matches an update the
//!   workload actually acknowledged, with strictly increasing LSNs;
//! * **no-loss under honest fsync** — in `sync_every_append` mode with
//!   no lying syncs, recovery from the durable media alone reproduces
//!   the *current* state: an acknowledged update is never lost. (Seeds
//!   whose plan includes `sync_lie` deliberately breach this; only
//!   prefix consistency holds there — see docs/DURABILITY.md.)
//! * **corruption is loud** — a bit flip in the page store surfaces as
//!   a typed error or is repaired by `scrub`; it never changes a query
//!   answer. A negative control proves the harness would catch a
//!   disabled checksum path.
//!
//! Seed count: 64 in release, 12 in debug; override with
//! `TORTURE_SEEDS=n`. Every failure message carries the seed and the
//! full fault plan, which replay the run exactly.

use ndcube::{NdCube, Region};
use rps_core::{BoxGrid, NaiveEngine, RangeSumEngine, RpsEngine};
use rps_storage::{
    decode_records, BlockDevice, BufferPool, CheckedStore, DeviceConfig, DiskRpsEngine,
    DurableEngine, FaultPlan, FaultyStore, RecoveryReport, RecoverySource, RetryPolicy, SimLogFile,
    SimLogHandle, SimRng, SimSnapshotStore, SnapshotPolicy, StorageError,
};
use std::collections::BTreeMap;

const SIDE: usize = 8;
const DIMS: [usize; 2] = [SIDE, SIDE];
const OPS: usize = 40;

/// Turns latency timing on when a metrics export was requested, so the
/// WAL append/fsync histograms populate. Called at the top of every
/// test in this binary.
fn metrics_init() {
    if std::env::var_os("TORTURE_METRICS_FILE").is_some() {
        rps_obs::set_timing(true);
    }
}

/// When `TORTURE_METRICS_FILE` is set, dumps the current registry on
/// test completion. Every test in this binary exports (serialized by a
/// lock — the tests share one process), so whichever finishes last
/// leaves the union of everything the run injected and everything the
/// stack did about it: the CI `torture-metrics` artifact
/// (see docs/OBSERVABILITY.md and scripts/torture.sh).
fn export_metrics() {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    if let Ok(path) = std::env::var("TORTURE_METRICS_FILE") {
        // A poisoned lock only means another test failed mid-export; the
        // file write itself is still safe to serialize on it.
        let guard = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&path, rps_obs::registry().render()).expect("write TORTURE_METRICS_FILE");
        drop(guard);
    }
}

fn seed_count() -> u64 {
    std::env::var("TORTURE_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 12 } else { 64 })
}

/// The fault mix for a seed. Deterministic; includes fault-free seeds
/// (the workload itself must hold up) and every fault class the log
/// wrapper models.
fn plan_for(seed: u64) -> FaultPlan {
    match seed % 5 {
        0 => FaultPlan::none(),
        1 => FaultPlan {
            append_torn: 150,
            ..FaultPlan::none()
        },
        2 => FaultPlan {
            append_transient: 180,
            append_torn: 90,
            ..FaultPlan::none()
        },
        3 => FaultPlan {
            append_torn: 90,
            sync_fail: 150,
            ..FaultPlan::none()
        },
        _ => FaultPlan {
            append_transient: 70,
            append_torn: 70,
            sync_fail: 70,
            sync_lie: 60,
            ..FaultPlan::none()
        },
    }
}

fn lin(coords: &[usize]) -> usize {
    coords[0] * SIDE + coords[1]
}

/// Applies one surviving WAL record — point or range — to a flat oracle.
fn apply_to_oracle(oracle: &mut [i64], rec: &rps_storage::WalRecord) {
    match &rec.hi {
        None => oracle[lin(&rec.coords)] += rec.delta,
        Some(hi) => {
            for r in rec.coords[0]..=hi[0] {
                for c in rec.coords[1]..=hi[1] {
                    oracle[r * SIDE + c] += rec.delta;
                }
            }
        }
    }
}

/// Ground truth carried alongside the engine under test.
struct Model {
    /// Current logical state (every acknowledged update applied).
    cells: Vec<i64>,
    /// State of the last durably persisted checkpoint.
    snapshot: Vec<i64>,
    snapshot_lsn: u64,
    /// Every acknowledged update, by LSN.
    acked: BTreeMap<u64, Acked>,
}

/// One acknowledged update: lo corner, optional hi corner (range
/// records), delta.
type Acked = (Vec<usize>, Option<Vec<usize>>, i64);

/// Recovers one crash state and checks it cell-for-cell against
/// snapshot ⊕ surviving records.
fn check_recovery(seed: u64, plan: &FaultPlan, op: usize, state: &[u8], model: &Model) {
    let ctx = || {
        format!(
            "seed {seed}, op {op}, crash state of {} bytes, {plan}",
            state.len()
        )
    };
    let (records, _) = decode_records(state);
    let base = NaiveEngine::from_cube(
        NdCube::from_vec(&DIMS, model.snapshot.clone()).expect("snapshot shape"),
    );
    let recovered = DurableEngine::open_log(
        base,
        SimLogFile::from_bytes(state.to_vec()),
        model.snapshot_lsn,
    )
    .unwrap_or_else(|e| panic!("recovery must never fail: {e} ({})", ctx()));
    let mut oracle = model.snapshot.clone();
    for rec in records.iter().filter(|r| r.lsn > model.snapshot_lsn) {
        apply_to_oracle(&mut oracle, rec);
    }
    for r in 0..SIDE {
        for c in 0..SIDE {
            let got = recovered.engine().cell(&[r, c]).expect("in bounds");
            assert_eq!(
                got,
                oracle[r * SIDE + c],
                "recovered cell [{r},{c}] diverges from snapshot ⊕ surviving records ({})",
                ctx()
            );
        }
    }
}

/// Decode-level invariants that are cheap enough to run on every single
/// byte-granular crash state: strictly increasing LSNs and no record
/// that was not an acknowledged update.
fn check_no_fabrication(seed: u64, plan: &FaultPlan, op: usize, state: &[u8], model: &Model) {
    let (records, _) = decode_records(state);
    let mut prev = 0u64;
    for rec in &records {
        assert!(
            rec.lsn > prev,
            "LSN regression {prev} → {} (seed {seed}, op {op}, {plan})",
            rec.lsn
        );
        prev = rec.lsn;
        match model.acked.get(&rec.lsn) {
            Some((coords, hi, delta)) => assert!(
                *coords == rec.coords && *hi == rec.hi && *delta == rec.delta,
                "record at LSN {} does not match the acknowledged update \
                 (seed {seed}, op {op}, {plan})",
                rec.lsn
            ),
            None => panic!(
                "fabricated record at LSN {} — never acknowledged \
                 (seed {seed}, op {op}, {plan})",
                rec.lsn
            ),
        }
    }
}

/// Runs the whole crash-state sweep for one operation boundary. Full
/// recovery is byte-granular near the tail (the mid-write region the
/// torn-append faults produce) and strided further back; the cheap
/// fabrication check runs on every state.
fn sweep_crash_states(
    seed: u64,
    plan: &FaultPlan,
    op: usize,
    handle: &SimLogHandle,
    model: &Model,
) {
    let states = handle.crash_states();
    let media_len = states[0].len();
    let cache_len = states[states.len() - 1].len();
    for state in &states {
        check_no_fabrication(seed, plan, op, state, model);
        let cut = state.len();
        let byte_granular_tail = cache_len.saturating_sub(45);
        if cut == media_len
            || cut == cache_len
            || cut >= byte_granular_tail
            || (cut - media_len).is_multiple_of(17)
        {
            check_recovery(seed, plan, op, state, model);
        }
    }
}

/// One full torture run: scripted workload, crash sweep at every
/// boundary, no-loss check under honest fsync. Returns the log
/// wrapper's own injection counts `(torn, transient, sync_fail)` so the
/// caller can check the process-wide metrics against them.
fn torture_one_seed(seed: u64) -> (u64, u64, u64) {
    let plan = plan_for(seed);
    let strict = seed.is_multiple_of(2);
    let log = SimLogFile::new(plan, seed);
    let handle = log.handle();
    let mut d = DurableEngine::open_log(NaiveEngine::<i64>::zeros(&DIMS).unwrap(), log, 0)
        .expect("fresh open");
    d.set_sync_every_append(strict);
    d.set_retry_policy(RetryPolicy::no_backoff(3));
    let mut snapshots = SimSnapshotStore::new(FaultPlan::none(), seed);
    let mut rng = SimRng::new(seed.wrapping_mul(0x51D0_9E4A_2B1C_F00D).wrapping_add(7));
    let mut model = Model {
        cells: vec![0; SIDE * SIDE],
        snapshot: vec![0; SIDE * SIDE],
        snapshot_lsn: 0,
        acked: BTreeMap::new(),
    };

    for op in 0..OPS {
        if op % 13 == 12 {
            // Checkpoint into a fault-free snapshot store. An injected WAL
            // sync failure legitimately aborts it before any artifact is
            // cut; on success the snapshot holds the model at its LSN, and
            // the sweep below proves the LSN filter keeps recovery exact.
            if let Ok(lsn) = d.checkpoint_to(&mut snapshots) {
                model.snapshot = model.cells.clone();
                model.snapshot_lsn = lsn;
            }
        } else if op % 5 == 4 {
            // A bulk range update: one WAL record covers the whole box,
            // so crash recovery must see it all-or-nothing.
            let a = [rng.below(SIDE), rng.below(SIDE)];
            let b = [rng.below(SIDE), rng.below(SIDE)];
            let lo = [a[0].min(b[0]), a[1].min(b[1])];
            let hi = [a[0].max(b[0]), a[1].max(b[1])];
            let region = Region::new(&lo, &hi).unwrap();
            let delta = (rng.next_u64() % 21) as i64 - 10;
            let lsn_before = d.last_lsn();
            match d.range_update(&region, delta) {
                Ok(()) => {
                    let lsn = d.last_lsn();
                    assert_eq!(lsn, lsn_before + 1, "seed {seed}: range takes one LSN");
                    for r in lo[0]..=hi[0] {
                        for c in lo[1]..=hi[1] {
                            model.cells[r * SIDE + c] += delta;
                        }
                    }
                    model
                        .acked
                        .insert(lsn, (lo.to_vec(), Some(hi.to_vec()), delta));
                }
                Err(_) => {
                    assert_eq!(
                        d.last_lsn(),
                        lsn_before,
                        "failed range update must not burn an LSN"
                    );
                }
            }
        } else {
            let coords = [rng.below(SIDE), rng.below(SIDE)];
            let delta = (rng.next_u64() % 21) as i64 - 10;
            let lsn_before = d.last_lsn();
            match d.update(&coords, delta) {
                Ok(()) => {
                    let lsn = d.last_lsn();
                    assert_eq!(lsn, lsn_before + 1, "seed {seed}: LSNs must be dense");
                    model.cells[lin(&coords)] += delta;
                    model.acked.insert(lsn, (coords.to_vec(), None, delta));
                }
                Err(_) => {
                    // The contract under test: an errored update was NOT
                    // applied and is NOT in the log. The sweep's oracle
                    // (which never applies it) verifies both.
                    assert_eq!(
                        d.last_lsn(),
                        lsn_before,
                        "failed update must not burn an LSN"
                    );
                }
            }
            if plan == FaultPlan::none() {
                assert_eq!(
                    model.cells[lin(&coords)],
                    {
                        let r = Region::new(&coords, &coords).unwrap();
                        d.query(&r).unwrap()
                    },
                    "fault-free seed {seed}: engine and model must agree"
                );
            }
        }
        sweep_crash_states(seed, &plan, op, &handle, &model);
        if strict && !handle.sync_lied() {
            check_no_loss(seed, &plan, op, &handle, &model);
        }
    }
    handle.injected()
}

/// No-loss: with per-append fsync and no lying syncs, what's on the
/// media alone (plus the snapshot) must reproduce the current state —
/// an acknowledged update is never lost.
fn check_no_loss(seed: u64, plan: &FaultPlan, op: usize, handle: &SimLogHandle, model: &Model) {
    let media = handle.media();
    let (records, _) = decode_records(&media);
    let mut durable = model.snapshot.clone();
    for rec in records.iter().filter(|r| r.lsn > model.snapshot_lsn) {
        apply_to_oracle(&mut durable, rec);
    }
    assert_eq!(
        durable, model.cells,
        "no-loss breach: durable media + snapshot ≠ acknowledged state \
         (seed {seed}, op {op}, {plan})"
    );
}

#[test]
fn wal_crash_torture_across_seeds() {
    metrics_init();
    // Dual accounting: the injectors' per-instance counters are
    // authoritative; the process-wide `storage_faults_injected_total`
    // mirrors must move in lockstep. Other tests in this binary run
    // concurrently and bump the same process-wide counters, so the
    // race-free form of "lockstep" is ≥ our own injections.
    let faults = rps_storage::obs::faults();
    let torn_before = faults.torn_append.get();
    let transient_before = faults.append_transient.get();
    let sync_fail_before = faults.sync_fail.get();
    let fsyncs_before = rps_storage::obs::storage().wal_fsyncs.get();

    let seeds = seed_count();
    let (mut torn, mut transient, mut sync_fails) = (0u64, 0u64, 0u64);
    for seed in 0..seeds {
        let (t, tr, sf) = torture_one_seed(seed);
        torn += t;
        transient += tr;
        sync_fails += sf;
    }

    assert!(
        faults.torn_append.get() - torn_before >= torn,
        "obs mirror lost torn-append injections ({torn} counted here)"
    );
    assert!(
        faults.append_transient.get() - transient_before >= transient,
        "obs mirror lost transient-append injections ({transient} counted here)"
    );
    assert!(
        faults.sync_fail.get() - sync_fail_before >= sync_fails,
        "obs mirror lost sync-failure injections ({sync_fails} counted here)"
    );
    assert!(
        rps_storage::obs::storage().wal_fsyncs.get() > fsyncs_before,
        "the seed sweep must have attempted WAL fsyncs"
    );
    export_metrics();
}

#[test]
fn faulty_seeds_actually_inject() {
    metrics_init();
    // Guard against a vacuous pass: across the seed set, torn appends,
    // transients and sync failures must all actually fire.
    let (mut torn, mut transient, mut sync_fails, mut lied) = (0u64, 0u64, 0u64, false);
    for seed in 0..seed_count().max(16) {
        let plan = plan_for(seed);
        let log = SimLogFile::new(plan, seed);
        let handle = log.handle();
        let mut d =
            DurableEngine::open_log(NaiveEngine::<i64>::zeros(&DIMS).unwrap(), log, 0).unwrap();
        d.set_sync_every_append(seed % 2 == 0);
        d.set_retry_policy(RetryPolicy::NONE);
        let mut rng = SimRng::new(seed);
        for _ in 0..OPS {
            let _ = d.update(&[rng.below(SIDE), rng.below(SIDE)], 1);
        }
        let (t, tr, sf) = handle.injected();
        torn += t;
        transient += tr;
        sync_fails += sf;
        lied |= handle.sync_lied();
    }
    assert!(torn > 0, "no torn append ever fired");
    assert!(transient > 0, "no transient append error ever fired");
    assert!(sync_fails > 0, "no sync failure ever fired");
    assert!(lied, "no sync lie ever fired");
    // The lie has no count accessor on the handle, only a flag — the obs
    // mirror is where its count lives; it must have seen at least one.
    assert!(
        rps_storage::obs::faults().sync_lie.get() > 0,
        "sync lies fired but the obs mirror never counted one"
    );
    export_metrics();
}

// ---------------------------------------------------------------------
// Page-store torture: bit rot beneath the RP array.
// ---------------------------------------------------------------------

const N: usize = 16;
const K: usize = 4;
const CPP: usize = 16; // one box = one page

fn cube() -> NdCube<i64> {
    NdCube::from_fn(&[N, N], |c| ((c[0] * 13 + c[1] * 5) % 17) as i64).unwrap()
}

fn grid() -> BoxGrid {
    BoxGrid::new(ndcube::Shape::new(&[N, N]).unwrap(), &[K, K]).unwrap()
}

type RotStack = CheckedStore<i64, FaultyStore<i64, BlockDevice<i64>>>;

fn engine_over_faulty(seed: u64, frames: usize) -> DiskRpsEngine<i64, RotStack> {
    let device = BlockDevice::new(DeviceConfig {
        cells_per_page: CPP,
    });
    // Faults are switched on after construction: the torture targets
    // steady-state traffic, not the build loop.
    let faulty = FaultyStore::new(device, FaultPlan::none(), seed);
    let checked = CheckedStore::new(faulty).unwrap();
    let mut pool = BufferPool::new(checked, frames);
    pool.set_retry_policy(RetryPolicy::NONE);
    DiskRpsEngine::from_cube_with_pool(&cube(), grid(), pool, true).unwrap()
}

#[test]
fn bit_flips_never_change_an_answer() {
    // Read-side bit flips under the checksum layer: every flipped read
    // is caught and surfaces as a typed error; a successful query is
    // always the correct answer. Wrong answers: never.
    metrics_init();
    let oracle = RpsEngine::from_cube_uniform(&cube(), K).unwrap();
    let flips_obs_before = rps_storage::obs::faults().bit_flip.get();
    let quarantines_before = rps_storage::obs::storage().checksum_quarantines.get();
    let (mut flips_seen, mut errors_seen, mut oks_seen) = (0u64, 0u64, 0u64);
    for seed in 0..seed_count() {
        let engine = engine_over_faulty(seed, 2); // tiny pool: constant re-reads
        engine.with_device_mut(|checked| {
            checked.inner_mut().set_plan(FaultPlan {
                read_bit_flip: 150,
                ..FaultPlan::none()
            });
        });
        let mut rng = SimRng::new(seed ^ 0xB17F11B5);
        for _ in 0..24 {
            let a = [rng.below(N), rng.below(N)];
            let b = [rng.below(N), rng.below(N)];
            let lo = [a[0].min(b[0]), a[1].min(b[1])];
            let hi = [a[0].max(b[0]), a[1].max(b[1])];
            let region = Region::new(&lo, &hi).unwrap();
            match engine.query(&region) {
                Ok(v) => {
                    oks_seen += 1;
                    assert_eq!(
                        v,
                        oracle.query(&region).unwrap(),
                        "WRONG ANSWER served under bit flips (seed {seed}, {region:?})"
                    );
                }
                Err(e) => {
                    errors_seen += 1;
                    assert!(
                        e.to_string().contains("checksum"),
                        "flip surfaced as the wrong error kind: {e} (seed {seed})"
                    );
                }
            }
        }
        flips_seen += engine.with_device(|c| c.inner().injected().bit_flips);
    }
    assert!(flips_seen > 0, "no bit flip ever injected — vacuous run");
    assert!(errors_seen > 0, "no flip was ever caught — vacuous run");
    assert!(oks_seen > 0, "every query failed — the harness is too hot");
    // Dual accounting (≥: parallel tests share the process-wide counters).
    assert!(
        rps_storage::obs::faults().bit_flip.get() - flips_obs_before >= flips_seen,
        "obs mirror lost bit-flip injections ({flips_seen} counted here)"
    );
    assert!(
        rps_storage::obs::storage().checksum_quarantines.get() - quarantines_before >= errors_seen,
        "every caught flip must register a checksum quarantine"
    );
    export_metrics();
}

#[test]
fn planted_rot_is_detected_and_scrub_repairs_it() {
    metrics_init();
    let base = cube();
    let mut engine = engine_over_faulty(3, 4);
    engine.flush().unwrap();
    assert!(engine.verify_pages().unwrap().is_empty());

    // Rot two pages beneath both wrappers (checksums not updated).
    let garbage = vec![i64::MAX / 3; CPP];
    engine.with_device_mut(|checked| {
        let dev = checked.inner_mut().inner_mut();
        dev.write_page(rps_storage::PageId(0), &garbage);
        dev.write_page(rps_storage::PageId(5), &garbage);
    });

    let corrupt = engine.verify_pages().unwrap();
    assert_eq!(corrupt.len(), 2, "both rotted pages must be detected");

    let report = engine.scrub(&base).unwrap();
    assert_eq!(report.pages_checked, engine.rp_pages());
    assert_eq!(report.rebuilt, 2);
    assert_eq!(report.corrupted.len(), 2);

    // Fully healed: clean verification and exact answers everywhere.
    assert!(engine.verify_pages().unwrap().is_empty());
    assert!(engine.with_device(|c| c.quarantined().is_empty()));
    let oracle = RpsEngine::from_cube_uniform(&base, K).unwrap();
    for (lo, hi) in [
        ([0, 0], [N - 1, N - 1]),
        ([1, 2], [9, 14]),
        ([0, 0], [3, 3]),
    ] {
        let r = Region::new(&lo, &hi).unwrap();
        assert_eq!(
            engine.query(&r).unwrap(),
            oracle.query(&r).unwrap(),
            "{r:?}"
        );
    }
    export_metrics();
}

#[test]
fn disabled_verification_serves_garbage_negative_control() {
    metrics_init();
    // The acceptance gate: this test FAILS if checksum verification is
    // not doing its job. With verification on, planted rot is a typed
    // error; with it off, the identical read silently returns garbage.
    let engine = engine_over_faulty(9, 1); // single frame: no stale cache
    engine.flush().unwrap();
    let garbage = vec![424_242i64; CPP];
    engine.with_device_mut(|checked| {
        checked
            .inner_mut()
            .inner_mut()
            .write_page(rps_storage::PageId(0), &garbage);
    });
    let region = Region::new(&[0, 0], &[1, 1]).unwrap(); // corner in box 0 = page 0
    let oracle = RpsEngine::from_cube_uniform(&cube(), K).unwrap();

    let guarded = engine.query(&region);
    assert!(
        guarded.is_err(),
        "verification must catch the rot — if this fails, checksums are off"
    );

    engine.with_device(|c| c.set_verify(false));
    let unguarded = engine.query(&region).expect("unverified read succeeds");
    assert_ne!(
        unguarded,
        oracle.query(&region).unwrap(),
        "without verification the same rot flows through as a silent wrong answer"
    );
    export_metrics();
}

#[test]
fn transient_faults_are_retried_to_success() {
    metrics_init();
    let transients_obs_before = rps_storage::obs::faults().transient.get();
    let retries_before = rps_storage::obs::storage().retry_attempts.get();
    let device = BlockDevice::new(DeviceConfig {
        cells_per_page: CPP,
    });
    let faulty = FaultyStore::new(device, FaultPlan::none(), 77);
    let mut pool = BufferPool::new(faulty, 2);
    pool.set_retry_policy(RetryPolicy::no_backoff(16));
    let mut engine = DiskRpsEngine::from_cube_with_pool(&cube(), grid(), pool, true).unwrap();
    engine.with_device_mut(|f| {
        f.set_plan(FaultPlan {
            read_transient: 250,
            write_transient: 250,
            ..FaultPlan::none()
        });
    });
    let mut oracle = RpsEngine::from_cube_uniform(&cube(), K).unwrap();
    let mut rng = SimRng::new(0xEE10);
    for _ in 0..32 {
        let coords = [rng.below(N), rng.below(N)];
        let delta = (rng.next_u64() % 9) as i64 - 4;
        engine
            .update(&coords, delta)
            .expect("retries absorb transients");
        oracle.update(&coords, delta).unwrap();
        let r = Region::new(&[0, 0], &[N - 1, N - 1]).unwrap();
        assert_eq!(engine.query(&r).unwrap(), oracle.query(&r).unwrap());
    }
    let injected = engine.with_device(rps_storage::FaultyStore::injected);
    assert!(injected.transients > 0, "no transient ever injected");
    // Dual accounting (≥: parallel tests share the process-wide
    // counters): every injected transient was mirrored, and every one of
    // them cost the retry loop at least one extra try.
    assert!(
        rps_storage::obs::faults().transient.get() - transients_obs_before >= injected.transients,
        "obs mirror lost transient injections ({} counted here)",
        injected.transients
    );
    assert!(
        rps_storage::obs::storage().retry_attempts.get() - retries_before >= injected.transients,
        "retries must have absorbed the injected transients"
    );
    export_metrics();
}

#[test]
fn torn_page_write_surfaces_then_recovers_by_rewrite() {
    metrics_init();
    // A torn page write errors out of update(); the page content is
    // unknown (prefix of new + suffix of old). A later full-page flush
    // rewrites it, and the checksum layer confirms the heal.
    let device = BlockDevice::new(DeviceConfig {
        cells_per_page: CPP,
    });
    let faulty = FaultyStore::new(device, FaultPlan::none(), 41);
    let checked = CheckedStore::new(faulty).unwrap();
    let mut pool: BufferPool<i64, RotStack> = BufferPool::new(checked, 1);
    pool.set_retry_policy(RetryPolicy::NONE);
    let mut engine = DiskRpsEngine::from_cube_with_pool(&cube(), grid(), pool, true).unwrap();
    engine.with_device_mut(|c| {
        c.inner_mut().set_plan(FaultPlan {
            torn_write: 1000,
            ..FaultPlan::none()
        });
    });
    // With a 1-frame pool, the next update forces an eviction write-back
    // of a dirty page — which tears.
    engine.update(&[0, 0], 5).unwrap();
    let second = engine.update(&[8, 8], 7);
    assert!(second.is_err(), "the torn write-back must surface");
    assert!(engine.with_device(|c| c.inner().injected().torn_writes > 0));

    // Stop injecting and flush: full-page rewrites heal everything.
    engine.with_device_mut(|c| c.inner_mut().set_plan(FaultPlan::none()));
    engine.flush().unwrap();
    assert!(engine.verify_pages().unwrap().is_empty());
    export_metrics();
}

// ---------------------------------------------------------------------
// Snapshot torture: crash at every byte offset of the snapshot write,
// corrupt chains mid-stream, fall back provably to full WAL replay.
// ---------------------------------------------------------------------

fn fresh_rps() -> Result<RpsEngine<i64>, StorageError> {
    Ok(RpsEngine::<i64>::zeros(&DIMS)?)
}

/// Recovers from `store` + the given WAL bytes and asserts the result
/// is bit-identical to the serial-replay oracle `expect_cells`.
fn check_snapshot_recovery(
    seed: u64,
    op: usize,
    store: &mut SimSnapshotStore,
    wal_bytes: &[u8],
    expect_cells: &[i64],
    ctx: &str,
) -> RecoveryReport {
    let (recovered, report) =
        DurableEngine::recover_with(store, SimLogFile::from_bytes(wal_bytes.to_vec()), fresh_rps)
            .unwrap_or_else(|e| {
                panic!("snapshot recovery must never fail: {e} (seed {seed}, op {op}, {ctx})")
            });
    for r in 0..SIDE {
        for c in 0..SIDE {
            assert_eq!(
                recovered.engine().cell(&[r, c]).expect("in bounds"),
                expect_cells[r * SIDE + c],
                "recovered cell [{r},{c}] diverges from the serial-replay oracle \
                 (seed {seed}, op {op}, {ctx}, report: {report})"
            );
        }
    }
    report
}

/// The tentpole sweep: per seed, a faulty-WAL workload checkpoints into
/// a snapshot store; at every checkpoint, for **every byte offset** of
/// the written snapshot artifact, simulate a crash that left exactly
/// that prefix on disk and recover. A partial artifact must be
/// quarantined (typed check, fallback counted) and recovery must still
/// be bit-identical to the serial-replay oracle — corruption can make
/// recovery slower, never lossy. The complete artifact must be chosen
/// as the recovery base.
#[test]
fn snapshot_write_crash_offsets_recover_exactly() {
    metrics_init();
    let m = rps_storage::obs::storage();
    let fallbacks_before = m.snapshot_fallbacks.get();
    let saves_before = m.snapshot_saves.get();
    let loads_before = m.snapshot_loads.get();
    let (mut cuts_swept, mut partial_cuts, mut checkpoints, mut full_loads) =
        (0u64, 0u64, 0u64, 0u64);
    for seed in 0..seed_count() {
        let plan = plan_for(seed);
        let log = SimLogFile::new(plan, seed);
        let handle = log.handle();
        let mut d = DurableEngine::open_log(RpsEngine::<i64>::zeros(&DIMS).unwrap(), log, 0)
            .expect("fresh open");
        d.set_retry_policy(RetryPolicy::no_backoff(3));
        let mut store = SimSnapshotStore::new(FaultPlan::none(), seed);
        let mut rng = SimRng::new(seed.wrapping_mul(0xD15C_0FF5_E77E_5EED).wrapping_add(3));
        let mut cells = vec![0i64; SIDE * SIDE];
        for op in 0..OPS {
            if op % 13 == 12 {
                let before = store.fork();
                // An injected WAL sync failure aborts the checkpoint
                // before any artifact is cut; nothing to sweep.
                let Ok(lsn) = d.checkpoint_to(&mut store) else {
                    continue;
                };
                checkpoints += 1;
                let bytes = store.slots().get(&lsn).expect("artifact present").clone();
                let wal = handle.cache();
                for cut in 0..=bytes.len() {
                    // Crash mid-write: the atomic tmp+rename protocol
                    // means a *real* FS shows all-or-nothing, but a
                    // non-atomic store (or a lying rename) can expose any
                    // prefix — recovery must absorb every one of them.
                    let mut crashed = before.fork();
                    crashed.plant(lsn, bytes[..cut].to_vec());
                    let ctx = format!("crash at byte {cut}/{} of snapshot write", bytes.len());
                    let report =
                        check_snapshot_recovery(seed, op, &mut crashed, &wal, &cells, &ctx);
                    if cut == bytes.len() {
                        assert_eq!(
                            report.source,
                            RecoverySource::Snapshot(lsn),
                            "a complete artifact must be the recovery base \
                             (seed {seed}, op {op})"
                        );
                        full_loads += 1;
                    } else {
                        assert_eq!(
                            report.quarantined.first().map(|q| q.0),
                            Some(lsn),
                            "a partial artifact must be quarantined first \
                             (seed {seed}, op {op}, {ctx})"
                        );
                        partial_cuts += 1;
                    }
                    cuts_swept += 1;
                }
            } else {
                let coords = [rng.below(SIDE), rng.below(SIDE)];
                let delta = (rng.next_u64() % 21) as i64 - 10;
                if d.update(&coords, delta).is_ok() {
                    cells[lin(&coords)] += delta;
                }
            }
        }
    }
    assert!(
        checkpoints > 0,
        "no checkpoint ever completed — vacuous run"
    );
    assert!(
        cuts_swept > checkpoints * 500,
        "the sweep must cover every byte offset ({cuts_swept} cuts, {checkpoints} checkpoints)"
    );
    // Dual accounting (≥: parallel tests share the process-wide counters).
    assert!(
        m.snapshot_saves.get() - saves_before >= checkpoints,
        "every completed checkpoint must count a snapshot save"
    );
    assert!(
        m.snapshot_loads.get() - loads_before >= full_loads,
        "every complete-artifact recovery must count a snapshot load"
    );
    assert!(
        m.snapshot_fallbacks.get() - fallbacks_before >= partial_cuts,
        "every partial artifact must count at least one fallback \
         ({partial_cuts} counted here)"
    );
    export_metrics();
}

/// Acceptance gate: an intentionally corrupted snapshot chain provably
/// falls back (fallback counter > 0) — first to the next-older valid
/// snapshot, and with the whole chain rotted, to full WAL replay — with
/// no data loss in either case.
#[test]
fn snapshot_chain_corruption_falls_back_lossless() {
    metrics_init();
    let m = rps_storage::obs::storage();
    let fallbacks_before = m.snapshot_fallbacks.get();
    let mut fallbacks_counted = 0u64;
    for seed in 0..seed_count().min(16) {
        // Fault-free WAL: the chain geometry must be deterministic.
        let log = SimLogFile::new(FaultPlan::none(), seed);
        let handle = log.handle();
        let mut d = DurableEngine::open_log(RpsEngine::<i64>::zeros(&DIMS).unwrap(), log, 0)
            .expect("fresh open");
        d.set_snapshot_policy(SnapshotPolicy {
            max_wal_bytes: None,
            max_records: Some(10),
            retain: 8,
        });
        let mut store = SimSnapshotStore::new(FaultPlan::none(), seed);
        let mut rng = SimRng::new(seed.wrapping_mul(0xC0FF_EE00_D15E_A5ED).wrapping_add(11));
        let mut cells = vec![0i64; SIDE * SIDE];
        for _ in 0..30 {
            let coords = [rng.below(SIDE), rng.below(SIDE)];
            let delta = (rng.next_u64() % 21) as i64 - 10;
            d.update(&coords, delta).expect("fault-free update");
            cells[lin(&coords)] += delta;
            d.maybe_checkpoint(&mut store)
                .expect("fault-free checkpoint");
        }
        let chain: Vec<u64> = store.slots().keys().copied().collect();
        assert_eq!(
            chain,
            vec![10, 20, 30],
            "seed {seed}: chain at LSNs 10/20/30"
        );
        let wal = handle.cache();

        // Corrupt the newest two snapshots: recovery must quarantine
        // both and fall back to the oldest valid one.
        let mut two_bad = store.fork();
        for &lsn in &chain[1..] {
            let mut bytes = two_bad.slots()[&lsn].clone();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
            two_bad.plant(lsn, bytes);
        }
        let report =
            check_snapshot_recovery(seed, 0, &mut two_bad, &wal, &cells, "newest two corrupted");
        assert_eq!(report.source, RecoverySource::Snapshot(10));
        assert_eq!(report.fallbacks(), 2, "both rotted snapshots must count");
        assert_eq!(
            report.replayed, 20,
            "records 11..=30 replay over the LSN-10 base"
        );
        fallbacks_counted += report.fallbacks();

        // Rot the whole chain: recovery degrades to full WAL replay —
        // slower, never lossy (check_snapshot_recovery proved equality).
        let mut all_bad = store.fork();
        for &lsn in &chain {
            let mut bytes = all_bad.slots()[&lsn].clone();
            bytes[0] ^= 0xFF; // magic rot on one, mid-rot on the rest
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            all_bad.plant(lsn, bytes);
        }
        let report = check_snapshot_recovery(
            seed,
            0,
            &mut all_bad,
            &wal,
            &cells,
            "entire chain corrupted",
        );
        assert_eq!(report.source, RecoverySource::FullReplay);
        assert_eq!(report.fallbacks(), 3, "the whole chain must be quarantined");
        assert_eq!(
            report.replayed, 30,
            "full replay applies every acknowledged record"
        );
        fallbacks_counted += report.fallbacks();
    }
    assert!(fallbacks_counted > 0, "fallback counter must provably move");
    assert!(
        m.snapshot_fallbacks.get() - fallbacks_before >= fallbacks_counted,
        "obs mirror lost snapshot fallbacks ({fallbacks_counted} counted here)"
    );
    export_metrics();
}

/// Snapshot I/O faults (torn writes, lost writes = fsync lies,
/// transients, read-side bit rot) injected by the store itself: the
/// workload shrugs off failed checkpoints, and recovery through the
/// still-faulty store is bit-identical to the oracle — the WAL floor
/// makes every snapshot strictly an optimization.
#[test]
fn snapshot_io_faults_never_lose_data() {
    metrics_init();
    let faults = rps_storage::obs::faults();
    let torn_before = faults.torn_write.get();
    let lost_before = faults.lost_write.get();
    let (mut torn, mut lost, mut transients, mut flips) = (0u64, 0u64, 0u64, 0u64);
    for seed in 0..seed_count().max(16) {
        let log = SimLogFile::new(FaultPlan::none(), seed ^ 0xA5);
        let handle = log.handle();
        let mut d = DurableEngine::open_log(RpsEngine::<i64>::zeros(&DIMS).unwrap(), log, 0)
            .expect("fresh open");
        d.set_retry_policy(RetryPolicy::NONE);
        let mut store = SimSnapshotStore::new(
            FaultPlan {
                torn_write: 250,
                lost_write: 200,
                write_transient: 150,
                read_bit_flip: 120,
                ..FaultPlan::none()
            },
            seed,
        );
        let mut rng = SimRng::new(seed.wrapping_mul(0x5EED_FAD5_0FF0_0D01).wrapping_add(5));
        let mut cells = vec![0i64; SIDE * SIDE];
        for op in 0..OPS {
            if op % 7 == 6 {
                // A failed checkpoint is not an error of the engine: the
                // WAL still holds everything; the next one retries.
                let _ckpt_may_fail = d.checkpoint_to(&mut store);
            } else {
                let coords = [rng.below(SIDE), rng.below(SIDE)];
                let delta = (rng.next_u64() % 21) as i64 - 10;
                d.update(&coords, delta).expect("fault-free WAL update");
                cells[lin(&coords)] += delta;
            }
        }
        // Recover through the SAME faulty store: reads may rot bits and
        // fail transiently, torn artifacts may sit in slots — recovery
        // quarantines its way down to whatever is sound.
        check_snapshot_recovery(seed, OPS, &mut store, &handle.cache(), &cells, "faulty I/O");
        let inj = store.injected(); // sampled after recovery: read faults count too
        torn += inj.torn_writes;
        lost += inj.lost_writes;
        transients += inj.transients;
        flips += inj.bit_flips;
    }
    // Vacuous-pass guards: every fault class must actually fire across
    // the seed set, and the obs mirrors must have kept up (≥: other
    // tests in this binary bump the same process-wide counters).
    assert!(torn > 0, "no torn snapshot write ever fired");
    assert!(lost > 0, "no lost snapshot write (fsync lie) ever fired");
    assert!(transients > 0, "no transient snapshot-I/O fault ever fired");
    assert!(flips > 0, "no snapshot read ever rotted a bit");
    assert!(
        faults.torn_write.get() - torn_before >= torn,
        "obs mirror lost torn snapshot writes ({torn} counted here)"
    );
    assert!(
        faults.lost_write.get() - lost_before >= lost,
        "obs mirror lost lost-write injections ({lost} counted here)"
    );
    export_metrics();
}
