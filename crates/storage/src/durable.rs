//! Durability wrapper: WAL-protected updates over any engine.
//!
//! Protocol (classic ARIES-lite at the granularity of whole snapshots):
//!
//! 1. [`DurableEngine::recover`] enumerates the snapshot chain
//!    newest-first, verifies each artifact's header and CRCs, loads the
//!    newest valid one and replays only WAL records **newer than the
//!    LSN in its header**, as one batch — quarantining anything corrupt
//!    and degrading gracefully down to full WAL replay;
//! 2. every [`update`](DurableEngine::update) appends to the WAL *before*
//!    touching the structure (optionally fsyncing per append);
//! 3. [`checkpoint_to`](DurableEngine::checkpoint_to) captures the
//!    engine at the current LSN into an `RPSSNAP1` artifact (the LSN
//!    lives *in the header* — no out-of-band sidecar needed) and GC's
//!    snapshots past the [`SnapshotPolicy`] retention;
//!    [`maybe_checkpoint`](DurableEngine::maybe_checkpoint) applies the
//!    policy's bytes/records hybrid trigger.
//!
//! Because recovery filters by LSN, a crash *anywhere* — including
//! mid-snapshot-write — replays exactly the updates the loaded snapshot
//! does not contain: no loss, no double-apply. Nothing truncates the
//! WAL: the intact log is what lets a later recovery fall past a corrupt
//! snapshot all the way to full replay, so corruption can only make
//! recovery slower, never lossy.
//!
//! [`DurableEngine::open`] / [`DurableEngine::open_log`] start from a
//! base engine the caller supplies together with the LSN its state
//! already includes (0 for a fresh cube); tests and the torture harness
//! use them to start from a known base.
//!
//! The wrapped engine can be the served [`rps_core::VersionedEngine`]
//! itself: each logged write is then applied once and published as one
//! version, a batch included ([`RangeSumEngine::update_batch`]).
//! Recover on the serial [`rps_core::RpsEngine`] and move the result in
//! with [`DurableEngine::map_engine`], so replay publishes no versions.
//!
//! Failure semantics (see `docs/DURABILITY.md`): a failed append is
//! rolled back, so an update that returns an error was **not** applied
//! and will **not** reappear at recovery; transient faults are retried
//! under the engine's [`RetryPolicy`] first. In strict
//! (`sync_every_append`) mode a failed sync also rolls the record back —
//! an acknowledged update is durable, an errored one is gone.

use std::path::Path;

use ndcube::Region;
use rps_core::{CostStats, RangeSumEngine};

use crate::error::{RetryPolicy, StorageError};
use crate::snapshot::{
    decode_snapshot, encode_snapshot, FsSnapshotDir, RecoveryReport, RecoverySource,
    SnapshotCheckFailed, SnapshotPolicy, SnapshotState, SnapshotStore,
};
use crate::wal::{FsLogFile, LogFile, Wal, WalRecord};

/// Replays the decoded WAL `records` newer than `base_lsn` onto
/// `engine`, and returns `(replayed, prefix_bytes)`: the number of
/// records applied, and the encoded bytes of the older records the base
/// already contains.
///
/// The point records go to [`RangeSumEngine::update_batch`] in one call,
/// so an RPS engine picks incremental cascades or one rebuild by the
/// paper's cost model; the range records follow one by one. Deltas form
/// a commutative group (wrapping `i64` adds), so the order inside the
/// tail cannot change any cell. The batch takes each record's
/// coordinates and reuses the decoded buffer: the tail is never copied.
fn replay_tail<E: RangeSumEngine<i64>>(
    engine: &mut E,
    mut records: Vec<WalRecord>,
    base_lsn: u64,
) -> Result<(u64, u64), StorageError> {
    let sw = rps_obs::Stopwatch::start();
    let mut prefix_bytes = 0u64;
    records.retain(|rec| {
        let newer = rec.lsn > base_lsn;
        if !newer {
            prefix_bytes += rec.encoded_len() as u64;
        }
        newer
    });
    let replayed = u64::try_from(records.len()).unwrap_or(u64::MAX);
    let mut ranges = Vec::new();
    let points: Vec<(Vec<usize>, i64)> = records
        .into_iter()
        .filter_map(|rec| match rec.hi {
            None => Some((rec.coords, rec.delta)),
            Some(hi) => {
                ranges.push((rec.coords, hi, rec.delta));
                None
            }
        })
        .collect();
    engine.update_batch(&points).map_err(StorageError::Engine)?;
    for (lo, hi, delta) in ranges {
        Region::new(&lo, &hi)
            .and_then(|region| engine.range_update(&region, delta))
            .map_err(StorageError::Engine)?;
    }
    sw.record(&crate::obs::storage().wal_replay_ns);
    Ok((replayed, prefix_bytes))
}

/// Retention GC after a checkpoint: removes every artifact but the
/// newest `retain` (at least 1). Best-effort throughout: a leftover
/// artifact costs disk, not correctness, and the next checkpoint
/// retries it.
fn gc_snapshots<S: SnapshotStore>(store: &mut S, retain: usize) {
    let Ok(lsns) = store.list() else {
        return;
    };
    let retain = retain.max(1);
    if lsns.len() > retain {
        for &old in &lsns[..lsns.len() - retain] {
            let _gc_best_effort = store.remove(old);
        }
    }
}

/// An engine whose updates are write-ahead logged.
///
/// ```
/// use ndcube::{NdCube, Region};
/// use rps_core::RpsEngine;
/// use rps_storage::DurableEngine;
///
/// # let dir = std::env::temp_dir().join("rps-durable-doctest");
/// # std::fs::create_dir_all(&dir)?;
/// # let wal_path = dir.join("ops.wal");
/// # let _ = std::fs::remove_file(&wal_path);
/// // Fresh structure, no record applied yet → base LSN 0.
/// let base = NdCube::from_fn(&[8, 8], |_| 0i64)?;
/// let mut durable = DurableEngine::open(RpsEngine::from_cube(&base), &wal_path, 0)?;
/// durable.update(&[3, 4], 250)?;   // WAL append happens first
///
/// // A crash here loses nothing: reopening replays the log.
/// let recovered = DurableEngine::open(RpsEngine::from_cube(&base), &wal_path, 0)?;
/// let everything = Region::new(&[0, 0], &[7, 7])?;
/// assert_eq!(recovered.query(&everything)?, 250);
/// # std::fs::remove_file(&wal_path)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Deltas are `i64` — the WAL frame stores one fixed-width delta, so
/// wrapping a `SumCount`/float engine would need a pluggable delta codec
/// (deliberately out of scope; see DESIGN.md S21). Every example and the
/// CLI persist `i64` measures.
///
/// Generic over the [`LogFile`] so the torture harness can swap the real
/// file for the fault-injecting [`crate::SimLogFile`].
#[derive(Debug)]
pub struct DurableEngine<E, L: LogFile = FsLogFile> {
    engine: E,
    wal: Wal<L>,
    sync_every_append: bool,
    retry: RetryPolicy,
    policy: SnapshotPolicy,
    /// WAL length at the last checkpoint — the byte half of the
    /// policy's hybrid trigger measures growth past this mark.
    wal_len_at_checkpoint: u64,
    /// Updates logged since the last checkpoint (the record half).
    records_since_checkpoint: u64,
    /// `(WAL length, records since checkpoint)` when the last policy
    /// checkpoint failed, if one has failed since the last success. The
    /// trigger then measures from this mark, so a failing store is tried
    /// again after another full interval, not on every write.
    failed_checkpoint_mark: Option<(u64, u64)>,
}

impl<E: RangeSumEngine<i64>> DurableEngine<E, FsLogFile> {
    /// Wraps `engine`, whose state already includes every WAL record up
    /// to `snapshot_lsn` (0 for a fresh structure), and replays the newer
    /// records of the log at `wal_path` onto it. Repairs a torn tail left
    /// by a crash.
    ///
    /// Services restart through [`DurableEngine::recover`] instead: an
    /// `RPSSNAP1` snapshot carries its LSN in its header, and recovery
    /// falls past a corrupt snapshot chain.
    pub fn open(
        engine: E,
        wal_path: &Path,
        snapshot_lsn: u64,
    ) -> Result<DurableEngine<E, FsLogFile>, StorageError> {
        Self::open_log(engine, FsLogFile::open(wal_path)?, snapshot_lsn)
    }
}

impl<E: RangeSumEngine<i64> + SnapshotState> DurableEngine<E, FsLogFile> {
    /// Recovers from the snapshot directory at `dir` plus the WAL at
    /// `wal_path`: newest valid snapshot wins, corrupt ones are
    /// quarantined, and with no usable snapshot the whole WAL is
    /// replayed onto `fresh()`. See [`DurableEngine::recover_with`].
    pub fn recover(
        dir: &Path,
        wal_path: &Path,
        fresh: impl FnOnce() -> Result<E, StorageError>,
    ) -> Result<(DurableEngine<E, FsLogFile>, RecoveryReport), StorageError> {
        let mut store = FsSnapshotDir::open(dir)?;
        Self::recover_with(&mut store, FsLogFile::open(wal_path)?, fresh)
    }
}

impl<E: RangeSumEngine<i64>, L: LogFile> DurableEngine<E, L> {
    /// [`Self::open`] over any [`LogFile`] — how the fault harness starts
    /// from a known base over a [`crate::SimLogFile`].
    pub fn open_log(
        mut engine: E,
        log: L,
        snapshot_lsn: u64,
    ) -> Result<DurableEngine<E, L>, StorageError> {
        let (mut wal, records) = Wal::from_log(log)?;
        let (replayed, prefix_bytes) = replay_tail(&mut engine, records, snapshot_lsn)?;
        // A log that lost its records (or never had them) would restart
        // the counter below snapshot_lsn, and recovery would later
        // discard the new records; pin the floor to the base's LSN.
        wal.ensure_lsn_after(snapshot_lsn);
        Ok(Self::recovered(engine, wal, replayed, prefix_bytes))
    }

    /// A freshly recovered engine. The replay-skipped prefix still sits
    /// in the untruncated log but must not count toward the next policy
    /// trigger; the replayed tail is what no snapshot covers, so both
    /// halves of the trigger count it.
    fn recovered(engine: E, wal: Wal<L>, replayed: u64, prefix_bytes: u64) -> Self {
        DurableEngine {
            engine,
            wal,
            sync_every_append: false,
            retry: RetryPolicy::default(),
            policy: SnapshotPolicy::default(),
            wal_len_at_checkpoint: prefix_bytes,
            records_since_checkpoint: replayed,
            failed_checkpoint_mark: None,
        }
    }

    /// Moves the wrapped engine through `f` — e.g. a recovered serial
    /// [`rps_core::RpsEngine`] into the [`rps_core::VersionedEngine`]
    /// that serves it — keeping the WAL, the LSN counter, the retry and
    /// snapshot policies and the checkpoint-trigger state.
    pub fn map_engine<F>(self, f: impl FnOnce(E) -> F) -> DurableEngine<F, L> {
        DurableEngine {
            engine: f(self.engine),
            wal: self.wal,
            sync_every_append: self.sync_every_append,
            retry: self.retry,
            policy: self.policy,
            wal_len_at_checkpoint: self.wal_len_at_checkpoint,
            records_since_checkpoint: self.records_since_checkpoint,
            failed_checkpoint_mark: self.failed_checkpoint_mark,
        }
    }

    /// Replaces the automatic-checkpoint policy consulted by
    /// [`Self::maybe_checkpoint`] (default: explicit trigger only,
    /// retain 2).
    pub fn set_snapshot_policy(&mut self, policy: SnapshotPolicy) {
        self.policy = policy;
    }

    /// The active automatic-checkpoint policy.
    pub fn snapshot_policy(&self) -> SnapshotPolicy {
        self.policy
    }

    /// Per-append `fdatasync` for strict durability (survives power
    /// loss, not just process crash). Default off: group-commit style,
    /// records are synced at checkpoints.
    pub fn set_sync_every_append(&mut self, on: bool) {
        self.sync_every_append = on;
    }

    /// Replaces the transient-fault retry policy for WAL appends and
    /// syncs (default: [`RetryPolicy::default`]).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Logged point update: the WAL append happens first, so a crash
    /// after the append but before the structural change is replayed on
    /// recovery, and a crash during the append leaves a repairable tail.
    ///
    /// On error the update was **not** applied and its record is not in
    /// the log (failed appends and failed strict-mode syncs are rolled
    /// back), so an error here never resurfaces as a phantom update at
    /// recovery.
    pub fn update(&mut self, coords: &[usize], delta: i64) -> Result<(), StorageError> {
        let m = rps_core::obs::engine(rps_core::obs::EngineKind::Durable);
        m.updates.inc();
        let _span = rps_obs::Span::enter("durable.update", &m.update_ns);
        self.engine
            .shape()
            .check(coords)
            .map_err(StorageError::Engine)?;
        self.log_then_apply(
            1,
            |wal, _| wal.append(coords, delta),
            |engine| engine.update(coords, delta),
        )
    }

    /// Logged bulk range update: one WAL record covers the whole
    /// rectangle, so an arbitrarily large `region` is atomic under crash
    /// recovery — either the record is intact and replay re-applies the
    /// entire box, or it is torn and none of it reappears. Same
    /// error-means-not-applied contract as [`Self::update`]: a failed
    /// append (or failed strict-mode sync) is rolled back.
    pub fn range_update(&mut self, region: &Region, delta: i64) -> Result<(), StorageError> {
        let m = rps_core::obs::engine(rps_core::obs::EngineKind::Durable);
        m.updates.inc();
        let _span = rps_obs::Span::enter("durable.range_update", &m.update_ns);
        self.engine
            .shape()
            .check_region(region)
            .map_err(StorageError::Engine)?;
        self.log_then_apply(
            1,
            |wal, _| wal.append_range(region.lo(), region.hi(), delta),
            |engine| engine.range_update(region, delta),
        )
    }

    /// Logged atomic batch: every record is validated against the
    /// engine's shape *before* the first WAL append, and a failure
    /// anywhere in the append run (or a failed strict-mode sync) rolls
    /// the whole batch's records back in one truncation. A batch that
    /// returns an error was therefore **not** applied — in whole or in
    /// part — and leaves no durable trace to resurface at recovery,
    /// which is what lets a server promise rejected-means-not-applied
    /// for client batches. The records are then applied through
    /// [`RangeSumEngine::update_batch`], so a versioned engine publishes
    /// the batch as one version. An empty batch logs, applies and counts
    /// nothing.
    pub fn update_batch(&mut self, updates: &[(Vec<usize>, i64)]) -> Result<(), StorageError> {
        if updates.is_empty() {
            return Ok(());
        }
        let m = rps_core::obs::engine(rps_core::obs::EngineKind::Durable);
        m.batches.inc();
        m.batch_updates
            .add(u64::try_from(updates.len()).unwrap_or(u64::MAX));
        let _span = rps_obs::Span::enter("durable.update_batch", &m.update_ns);
        for (coords, _) in updates {
            self.engine
                .shape()
                .check(coords)
                .map_err(StorageError::Engine)?;
        }
        self.log_then_apply(
            updates.len(),
            |wal, i| wal.append(&updates[i].0, updates[i].1),
            // Shape-checked above, so structural application cannot fail.
            |engine| engine.update_batch(updates),
        )
    }

    /// The logged-write protocol of every write method: append the
    /// `records` WAL records (record `i` by `append(wal, i)`, so a retry
    /// re-runs the same record) under the retry policy, sync in strict
    /// mode, then apply the write and count it.
    ///
    /// On a failure the records this write already appended are rolled
    /// back in one truncation (`Wal::append` trims its own torn tail):
    /// leaving them would let recovery apply a write the caller sees
    /// fail.
    fn log_then_apply(
        &mut self,
        records: usize,
        mut append: impl FnMut(&mut Wal<L>, usize) -> Result<u64, StorageError>,
        apply: impl FnOnce(&mut E) -> Result<(), ndcube::NdError>,
    ) -> Result<(), StorageError> {
        let prev_len = self.wal.len();
        let prev_next_lsn = self.wal.last_lsn() + 1;
        let mut logged =
            (0..records).try_for_each(|i| self.retry.run(|| append(&mut self.wal, i)).map(drop));
        if logged.is_ok() && self.sync_every_append {
            logged = self.retry.run(|| self.wal.sync());
        }
        if let Err(e) = logged {
            if self.wal.len() != prev_len {
                self.wal.rollback_last(prev_len, prev_next_lsn)?;
            }
            return Err(e);
        }
        apply(&mut self.engine).map_err(StorageError::Engine)?;
        self.records_since_checkpoint += u64::try_from(records).unwrap_or(u64::MAX);
        Ok(())
    }

    /// Range query (read-only; never logged).
    pub fn query(&self, region: &Region) -> Result<i64, StorageError> {
        let m = rps_core::obs::engine(rps_core::obs::EngineKind::Durable);
        m.queries.inc();
        let _span = rps_obs::Span::enter("durable.query", &m.query_ns);
        self.engine.query(region).map_err(StorageError::Engine)
    }

    /// LSN of the most recent logged update (0 when none ever).
    pub fn last_lsn(&self) -> u64 {
        self.wal.last_lsn()
    }

    /// WAL bytes accumulated since the last checkpoint — the byte half
    /// of the [`SnapshotPolicy`] hybrid trigger.
    pub fn wal_bytes_since_checkpoint(&self) -> u64 {
        self.wal.len().saturating_sub(self.wal_len_at_checkpoint)
    }

    /// Updates logged since the last checkpoint (the record half).
    pub fn records_since_checkpoint(&self) -> u64 {
        self.records_since_checkpoint
    }

    /// Unflushed updates currently protected only by the WAL.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.len()
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Engine cost counters.
    pub fn stats(&self) -> CostStats {
        self.engine.stats()
    }
}

impl<E: RangeSumEngine<i64> + SnapshotState, L: LogFile> DurableEngine<E, L> {
    /// Checkpoints the engine into `store` as an `RPSSNAP1` artifact at
    /// the current LSN, then GC's snapshots beyond the policy's
    /// retention. Returns the checkpoint LSN.
    ///
    /// The WAL is synced first (so the snapshot never gets *ahead* of
    /// the durable log) but **never truncated**: bounded recovery time
    /// comes from starting replay at the snapshot's LSN, and the intact
    /// log is exactly what lets [`Self::recover_with`] fall past a
    /// corrupt snapshot all the way to full replay with no data loss.
    ///
    /// A failed snapshot write leaves recovery no worse than before the
    /// call: the WAL still holds everything, and any partial artifact
    /// fails its CRC at load and is quarantined. The failure counts in
    /// `rps_snapshot_save_failures_total`. GC is best-effort and cannot
    /// fail a checkpoint whose artifact is written.
    pub fn checkpoint_to<S: SnapshotStore>(&mut self, store: &mut S) -> Result<u64, StorageError> {
        let m = crate::obs::storage();
        let sw = rps_obs::Stopwatch::start();
        let saved = self.save_snapshot(store);
        match saved {
            Ok(_) => {
                gc_snapshots(store, self.policy.retain);
                self.wal_len_at_checkpoint = self.wal.len();
                self.records_since_checkpoint = 0;
                self.failed_checkpoint_mark = None;
            }
            Err(_) => m.snapshot_save_failures.inc(),
        }
        sw.record(&m.snapshot_checkpoint_ns);
        saved
    }

    /// The write half of [`Self::checkpoint_to`]: syncs the WAL, captures
    /// and encodes the engine at the current LSN, and writes the
    /// artifact. Each stage has its own histogram.
    fn save_snapshot<S: SnapshotStore>(&mut self, store: &mut S) -> Result<u64, StorageError> {
        self.retry.run(|| self.wal.sync())?;
        let lsn = self.wal.last_lsn();
        let m = crate::obs::storage();
        let sw = rps_obs::Stopwatch::start();
        let bytes = {
            let (dims, box_size, cells) = self.engine.capture();
            encode_snapshot(lsn, &dims, &box_size, &cells)?
        };
        sw.record(&m.snapshot_encode_ns);
        let sw = rps_obs::Stopwatch::start();
        self.retry.run(|| store.write(lsn, &bytes))?;
        sw.record(&m.snapshot_save_ns);
        m.snapshot_saves.inc();
        m.snapshot_last_lsn.set(lsn);
        m.checkpoints.inc();
        Ok(lsn)
    }

    /// Runs [`Self::checkpoint_to`] iff the [`SnapshotPolicy`] hybrid
    /// trigger (bytes-since-checkpoint OR records-since-checkpoint)
    /// fires; returns the checkpoint LSN when one was cut. Call after a
    /// batch of updates to drive automatic checkpointing.
    ///
    /// After a failed attempt the trigger measures from the failure, so
    /// the next attempt comes one full interval later rather than on
    /// the very next call.
    pub fn maybe_checkpoint<S: SnapshotStore>(
        &mut self,
        store: &mut S,
    ) -> Result<Option<u64>, StorageError> {
        let (len_mark, records_mark) = self
            .failed_checkpoint_mark
            .unwrap_or((self.wal_len_at_checkpoint, 0));
        if !self.policy.should_checkpoint(
            self.wal.len().saturating_sub(len_mark),
            self.records_since_checkpoint.saturating_sub(records_mark),
        ) {
            return Ok(None);
        }
        let checkpoint = self.checkpoint_to(store);
        if checkpoint.is_err() {
            self.failed_checkpoint_mark = Some((self.wal.len(), self.records_since_checkpoint));
        }
        checkpoint.map(Some)
    }

    /// Recovers from a snapshot chain plus the WAL, degrading
    /// gracefully:
    ///
    /// 1. enumerate `store`'s snapshots **newest-first**;
    /// 2. verify header + checksums, load the first valid one and
    ///    replay WAL records with LSN > its header LSN, the points as one
    ///    [`RangeSumEngine::update_batch`];
    /// 3. quarantine anything corrupt, torn or unreadable (typed in the
    ///    [`RecoveryReport`]) and try the next-older snapshot;
    /// 4. with no usable snapshot, replay the **whole** WAL onto
    ///    `fresh()` — corruption can make recovery slower, never lossy.
    ///
    /// `fresh` builds the empty engine full replay starts from (its
    /// geometry is the caller's, since no snapshot survived to provide
    /// one); it is not called when a snapshot loads.
    pub fn recover_with<S: SnapshotStore>(
        store: &mut S,
        log: L,
        fresh: impl FnOnce() -> Result<E, StorageError>,
    ) -> Result<(DurableEngine<E, L>, RecoveryReport), StorageError> {
        let (mut wal, records) = Wal::from_log(log)?;
        let m = crate::obs::storage();
        let mut quarantined: Vec<(u64, SnapshotCheckFailed)> = Vec::new();
        let mut quarantine_failures = 0u64;
        let mut base: Option<(E, u64)> = None;
        let lsns = store.list()?;
        for &slot in lsns.iter().rev() {
            let sw = rps_obs::Stopwatch::start();
            let failed = match store.read(slot) {
                Err(_) => SnapshotCheckFailed::Unreadable,
                Ok(bytes) => match decode_snapshot(&bytes) {
                    Err(check) => check,
                    Ok((header, cells)) => {
                        match E::restore(&header.dims, &header.box_size, cells) {
                            // The bytes verified but the engine rejects
                            // the geometry — same policy as a corrupt
                            // header: quarantine, fall back.
                            Err(_) => SnapshotCheckFailed::Geometry,
                            Ok(engine) => {
                                sw.record(&m.snapshot_load_ns);
                                m.snapshot_loads.inc();
                                base = Some((engine, header.lsn));
                                break;
                            }
                        }
                    }
                },
            };
            m.snapshot_fallbacks.inc();
            quarantined.push((slot, failed));
            if store.quarantine(slot).is_err() {
                quarantine_failures += 1;
            }
        }
        let (mut engine, snap_lsn, source) = match base {
            Some((engine, lsn)) => (engine, lsn, RecoverySource::Snapshot(lsn)),
            None => (fresh()?, 0, RecoverySource::FullReplay),
        };
        let (replayed, prefix_bytes) = replay_tail(&mut engine, records, snap_lsn)?;
        wal.ensure_lsn_after(snap_lsn);
        Ok((
            Self::recovered(engine, wal, replayed, prefix_bytes),
            RecoveryReport {
                source,
                quarantined,
                replayed,
                quarantine_failures,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rps_core::RpsEngine;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rps-durable-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    fn full() -> Region {
        Region::new(&[0, 0], &[7, 7]).unwrap()
    }

    #[test]
    fn rejected_batch_leaves_no_durable_trace() {
        let wal = tmp("batchatomic.wal");
        {
            let mut d =
                DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
            d.update(&[0, 0], 1).unwrap();
            let len_before = d.wal_bytes();
            let lsn_before = d.last_lsn();

            // Valid prefix, out-of-bounds tail: must reject before the
            // first append, so neither the log nor the engine moves.
            let bad: Vec<(Vec<usize>, i64)> =
                vec![(vec![1, 1], 5), (vec![2, 2], 6), (vec![9, 9], 7)];
            assert!(matches!(d.update_batch(&bad), Err(StorageError::Engine(_))));
            assert_eq!(d.wal_bytes(), len_before, "rejected batch logged records");
            assert_eq!(d.last_lsn(), lsn_before, "rejected batch advanced the LSN");
            assert_eq!(d.query(&full()).unwrap(), 1);

            // A clean batch still goes through afterwards.
            d.update_batch(&[(vec![1, 1], 5), (vec![2, 2], 6)]).unwrap();
            assert_eq!(d.query(&full()).unwrap(), 12);
        }
        // Recovery replays exactly the accepted updates — no phantom
        // prefix from the rejected batch.
        let d = DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
        assert_eq!(d.query(&full()).unwrap(), 12);
    }

    #[test]
    fn updates_after_checkpoint_and_restart_survive_next_recovery() {
        // Regression (found in review): session 1 checkpoints at LSN 3
        // and its WAL is lost; session 2 recovers from the snapshot alone
        // and applies more updates; session 3 recovers. Without an LSN
        // floor the session-2 records get LSNs 1.. and are filtered out.
        let dir = tmp_dir("restartlsn");
        let wal = dir.join("ops.wal");
        let snaps = dir.join("snaps");

        // Session 1.
        {
            let mut d = DurableEngine::open(fresh_8x8().unwrap(), &wal, 0).unwrap();
            d.update(&[0, 0], 1).unwrap();
            d.update(&[0, 1], 2).unwrap();
            d.update(&[0, 2], 4).unwrap();
            let mut store = FsSnapshotDir::open(&snaps).unwrap();
            assert_eq!(d.checkpoint_to(&mut store).unwrap(), 3);
        }
        std::fs::remove_file(&wal).unwrap();
        // Session 2: more updates, no checkpoint ("crash" at the end).
        {
            let (mut d, report) = DurableEngine::recover(&snaps, &wal, fresh_8x8).unwrap();
            assert_eq!(report.source, RecoverySource::Snapshot(3));
            d.update(&[1, 0], 8).unwrap();
            d.update(&[1, 1], 16).unwrap();
            assert_eq!(d.last_lsn(), 5, "LSNs must continue past the snapshot");
        }
        // Session 3: recovery must include the session-2 updates.
        let (d, _) = DurableEngine::recover(&snaps, &wal, fresh_8x8).unwrap();
        assert_eq!(d.query(&full()).unwrap(), 31);
    }

    #[test]
    fn torn_wal_tail_recovers_prefix() {
        let wal = tmp("torn.wal");
        {
            let mut d =
                DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
            d.update(&[0, 0], 1).unwrap();
            d.update(&[1, 1], 2).unwrap();
        }
        let len = std::fs::metadata(&wal).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(len - 3)
            .unwrap();

        let d = DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
        assert_eq!(d.query(&full()).unwrap(), 1); // first update survived
    }

    #[test]
    fn range_update_recovers_from_wal() {
        let wal = tmp("range.wal");
        {
            let mut d =
                DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
            d.update(&[0, 0], 1).unwrap();
            let box2x3 = Region::new(&[2, 1], &[3, 3]).unwrap();
            d.range_update(&box2x3, 5).unwrap(); // 6 cells × 5 = 30
            d.update(&[7, 7], 2).unwrap();
            assert_eq!(d.query(&full()).unwrap(), 33);
            assert_eq!(d.last_lsn(), 3, "range record takes one LSN");
        }
        // Recovery replays the range record as a single bulk op.
        let d = DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
        assert_eq!(d.query(&full()).unwrap(), 33);
        let inside = Region::new(&[2, 1], &[2, 1]).unwrap();
        assert_eq!(
            d.query(&inside).unwrap(),
            5,
            "every cell of the box got the delta"
        );
    }

    #[test]
    fn torn_range_record_drops_whole_box_atomically() {
        let wal = tmp("range-torn.wal");
        {
            let mut d =
                DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
            d.update(&[0, 0], 1).unwrap();
            d.range_update(&Region::new(&[0, 0], &[7, 7]).unwrap(), 3)
                .unwrap();
        }
        let len = std::fs::metadata(&wal).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let d = DurableEngine::open(RpsEngine::<i64>::zeros(&[8, 8]).unwrap(), &wal, 0).unwrap();
        // All 64 cells of the torn bulk update vanish together; the
        // intact point update survives.
        assert_eq!(d.query(&full()).unwrap(), 1);
    }

    #[test]
    fn range_update_rejects_out_of_bounds_without_logging() {
        let wal = tmp("range-oob.wal");
        let mut d =
            DurableEngine::open(RpsEngine::<i64>::zeros(&[4, 4]).unwrap(), &wal, 0).unwrap();
        let out = Region::new(&[2, 2], &[5, 5]).unwrap();
        assert!(d.range_update(&out, 1).is_err());
        assert_eq!(d.wal_bytes(), 0, "invalid range updates must not be logged");
    }

    #[test]
    fn range_update_survives_snapshot_chain_recovery() {
        let dir = tmp_dir("range-snap");
        let wal = dir.join("ops.wal");
        let snaps = dir.join("snaps");
        {
            let mut d = DurableEngine::open(fresh_8x8().unwrap(), &wal, 0).unwrap();
            let mut store = FsSnapshotDir::open(&snaps).unwrap();
            d.range_update(&Region::new(&[0, 0], &[1, 1]).unwrap(), 10)
                .unwrap(); // 4 cells → 40, lsn 1
            d.checkpoint_to(&mut store).unwrap();
            d.range_update(&Region::new(&[4, 4], &[5, 5]).unwrap(), 1)
                .unwrap(); // post-checkpoint tail, lsn 2
        }
        let (d, report) = DurableEngine::recover(&snaps, &wal, fresh_8x8).unwrap();
        assert_eq!(report.source, RecoverySource::Snapshot(1));
        assert_eq!(report.replayed, 1, "only the post-checkpoint range record");
        assert_eq!(d.query(&full()).unwrap(), 44, "no loss, no double-apply");
    }

    #[test]
    fn rejects_out_of_bounds_without_logging() {
        let wal = tmp("oob.wal");
        let mut d =
            DurableEngine::open(RpsEngine::<i64>::zeros(&[4, 4]).unwrap(), &wal, 0).unwrap();
        assert!(d.update(&[9, 9], 1).is_err());
        assert_eq!(d.wal_bytes(), 0, "invalid updates must not be logged");
    }

    #[test]
    fn sync_every_append_mode() {
        fn full_small() -> Region {
            Region::new(&[0, 0], &[3, 3]).unwrap()
        }
        let wal = tmp("strict.wal");
        let mut d =
            DurableEngine::open(RpsEngine::<i64>::zeros(&[4, 4]).unwrap(), &wal, 0).unwrap();
        d.set_sync_every_append(true);
        d.update(&[1, 1], 3).unwrap();
        assert_eq!(d.query(&full_small()).unwrap(), 3);
    }

    // --- RPSSNAP1 snapshot-chain checkpoints ---------------------------

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rps-durable-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fresh_8x8() -> Result<RpsEngine<i64>, StorageError> {
        RpsEngine::<i64>::zeros(&[8, 8]).map_err(StorageError::Engine)
    }

    #[test]
    fn checkpoint_to_and_recover_round_trip() {
        let dir = tmp_dir("snapchain");
        let wal = dir.join("ops.wal");
        let snaps = dir.join("snaps");
        {
            let mut d = DurableEngine::open(fresh_8x8().unwrap(), &wal, 0).unwrap();
            let mut store = FsSnapshotDir::open(&snaps).unwrap();
            d.update(&[1, 1], 10).unwrap();
            d.update(&[2, 2], 20).unwrap();
            let lsn = d.checkpoint_to(&mut store).unwrap();
            assert_eq!(lsn, 2);
            assert!(d.wal_bytes() > 0, "checkpoint_to must not truncate the WAL");
            d.update(&[3, 3], 12).unwrap(); // post-checkpoint tail
        }
        let (d, report) = DurableEngine::recover(&snaps, &wal, fresh_8x8).unwrap();
        assert_eq!(report.source, RecoverySource::Snapshot(2));
        assert_eq!(report.replayed, 1, "only the post-checkpoint record");
        assert!(report.quarantined.is_empty());
        assert_eq!(d.query(&full()).unwrap(), 42);
        assert_eq!(d.last_lsn(), 3, "LSN counter continues past recovery");
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older_then_full_replay() {
        let dir = tmp_dir("snapfallback");
        let wal = dir.join("ops.wal");
        let snaps = dir.join("snaps");
        {
            let mut d = DurableEngine::open(fresh_8x8().unwrap(), &wal, 0).unwrap();
            let mut store = FsSnapshotDir::open(&snaps).unwrap();
            d.update(&[0, 0], 1).unwrap();
            d.checkpoint_to(&mut store).unwrap(); // lsn 1
            d.update(&[0, 1], 2).unwrap();
            d.checkpoint_to(&mut store).unwrap(); // lsn 2
            d.update(&[0, 2], 4).unwrap();
        }
        // Flip one payload byte in the newest snapshot.
        let store = FsSnapshotDir::open(&snaps).unwrap();
        let newest = store.slot_path(2);
        let mut bytes = std::fs::read(&newest).unwrap();
        let len = bytes.len();
        bytes[len - 20] ^= 0x01;
        std::fs::write(&newest, &bytes).unwrap();

        let (d, report) = DurableEngine::recover(&snaps, &wal, fresh_8x8).unwrap();
        assert_eq!(report.source, RecoverySource::Snapshot(1));
        assert_eq!(
            report.quarantined,
            vec![(2, crate::SnapshotCheckFailed::PayloadCrc)]
        );
        assert_eq!(report.replayed, 2);
        assert_eq!(
            d.query(&full()).unwrap(),
            7,
            "no data loss through fallback"
        );
        // The bad artifact left the chain.
        assert_eq!(
            FsSnapshotDir::open(&snaps).unwrap().list().unwrap(),
            vec![1]
        );

        // Corrupt the remaining snapshot too → full replay, still lossless.
        let store = FsSnapshotDir::open(&snaps).unwrap();
        let mut bytes = std::fs::read(store.slot_path(1)).unwrap();
        bytes[0] = b'X';
        std::fs::write(store.slot_path(1), &bytes).unwrap();
        let (d, report) = DurableEngine::recover(&snaps, &wal, fresh_8x8).unwrap();
        assert_eq!(report.source, RecoverySource::FullReplay);
        assert_eq!(report.fallbacks(), 1);
        assert_eq!(report.replayed, 3);
        assert_eq!(d.query(&full()).unwrap(), 7);
        assert!(
            store.list().unwrap().is_empty(),
            "all artifacts quarantined"
        );
    }

    #[test]
    fn recover_with_empty_chain_is_full_replay() {
        let dir = tmp_dir("snapnone");
        let wal = dir.join("ops.wal");
        {
            let mut d = DurableEngine::open(fresh_8x8().unwrap(), &wal, 0).unwrap();
            d.update(&[4, 4], 9).unwrap();
        }
        let (d, report) = DurableEngine::recover(&dir.join("snaps"), &wal, fresh_8x8).unwrap();
        assert_eq!(report.source, RecoverySource::FullReplay);
        assert_eq!(report.fallbacks(), 0, "an empty chain is not corruption");
        assert_eq!(d.query(&full()).unwrap(), 9);
    }

    #[test]
    fn maybe_checkpoint_hybrid_trigger_and_retention_gc() {
        let dir = tmp_dir("snappolicy");
        let wal = dir.join("ops.wal");
        let mut store = FsSnapshotDir::open(&dir.join("snaps")).unwrap();
        let mut d = DurableEngine::open(fresh_8x8().unwrap(), &wal, 0).unwrap();
        d.set_snapshot_policy(SnapshotPolicy {
            max_wal_bytes: None,
            max_records: Some(3),
            retain: 2,
        });
        let mut cut = Vec::new();
        for i in 0..12u64 {
            d.update(&[(i % 8) as usize, 0], 1).unwrap();
            if let Some(lsn) = d.maybe_checkpoint(&mut store).unwrap() {
                cut.push(lsn);
            }
        }
        assert_eq!(cut, vec![3, 6, 9, 12], "every 3rd record cuts a checkpoint");
        assert_eq!(
            store.list().unwrap(),
            vec![9, 12],
            "retention keeps the newest two"
        );
        assert_eq!(d.records_since_checkpoint(), 0);
        // Recovery from the retained chain reproduces the state.
        let (r, report) = DurableEngine::recover_with(
            &mut FsSnapshotDir::open(&dir.join("snaps")).unwrap(),
            crate::FsLogFile::open(&wal).unwrap(),
            fresh_8x8,
        )
        .unwrap();
        assert_eq!(report.source, RecoverySource::Snapshot(12));
        assert_eq!(r.query(&full()).unwrap(), 12);
    }

    #[test]
    fn failed_policy_checkpoint_rearms_after_a_full_interval() {
        let log = crate::SimLogFile::new(crate::FaultPlan::none(), 1);
        let mut d = DurableEngine::open_log(fresh_8x8().unwrap(), log, 0).unwrap();
        d.set_retry_policy(RetryPolicy::NONE);
        d.set_snapshot_policy(SnapshotPolicy {
            max_wal_bytes: None,
            max_records: Some(3),
            retain: 2,
        });
        // Every artifact write fails; each attempt is one injected fault.
        let mut store = crate::SimSnapshotStore::new(
            crate::FaultPlan {
                write_transient: 1000,
                ..crate::FaultPlan::none()
            },
            1,
        );
        let failures = &crate::obs::storage().snapshot_save_failures;
        let failures_before = failures.get();
        let mut attempts = Vec::new();
        for i in 0..9usize {
            d.update(&[i % 8, 1], 1).unwrap();
            let tried = store.injected().transients;
            let result = d.maybe_checkpoint(&mut store);
            if store.injected().transients > tried {
                assert!(result.is_err());
                attempts.push(d.last_lsn());
            } else {
                assert_eq!(result.unwrap(), None);
            }
        }
        assert_eq!(attempts, vec![3, 6, 9], "one attempt per full interval");
        assert!(failures.get() >= failures_before + 3);
        assert_eq!(d.records_since_checkpoint(), 9, "no checkpoint was cut");
        store.set_plan(crate::FaultPlan::none());
        for i in 0..3usize {
            d.update(&[i, 2], 1).unwrap();
            let cut = d.maybe_checkpoint(&mut store).unwrap();
            assert_eq!(cut, (i == 2).then_some(12));
        }
        assert_eq!(d.records_since_checkpoint(), 0);
    }

    #[test]
    fn recovered_tail_counts_toward_the_record_trigger() {
        let dir = tmp_dir("snaptail");
        let wal = dir.join("ops.wal");
        let snaps = dir.join("snaps");
        {
            let mut d = DurableEngine::open(fresh_8x8().unwrap(), &wal, 0).unwrap();
            d.update(&[0, 0], 1).unwrap();
            d.update(&[1, 1], 1).unwrap();
            let mut store = FsSnapshotDir::open(&snaps).unwrap();
            assert_eq!(d.checkpoint_to(&mut store).unwrap(), 2);
            for i in 0..5 {
                d.update(&[i, 2], 1).unwrap();
            }
        }
        let (mut d, report) = DurableEngine::recover(&snaps, &wal, fresh_8x8).unwrap();
        assert_eq!((report.replayed, d.records_since_checkpoint()), (5, 5));
        d.set_snapshot_policy(SnapshotPolicy {
            max_wal_bytes: None,
            max_records: Some(4),
            retain: 2,
        });
        let mut store = FsSnapshotDir::open(&snaps).unwrap();
        assert_eq!(d.maybe_checkpoint(&mut store).unwrap(), Some(7));
    }

    #[test]
    fn map_engine_keeps_log_and_trigger_state() {
        let dir = tmp_dir("map-engine");
        let wal = dir.join("ops.wal");
        let snaps = dir.join("snaps");
        let mut d = DurableEngine::open(fresh_8x8().unwrap(), &wal, 0).unwrap();
        d.set_snapshot_policy(SnapshotPolicy {
            max_wal_bytes: None,
            max_records: Some(4),
            retain: 2,
        });
        d.update(&[0, 0], 1).unwrap();
        d.update(&[1, 1], 2).unwrap();
        let mut d = d.map_engine(rps_core::VersionedEngine::new);
        assert_eq!((d.last_lsn(), d.records_since_checkpoint()), (2, 2));
        d.update_batch(&[(vec![2, 2], 4), (vec![3, 3], 8)]).unwrap();
        assert_eq!(d.engine().current_version(), 1, "one batch, one version");
        let mut store = FsSnapshotDir::open(&snaps).unwrap();
        assert_eq!(d.maybe_checkpoint(&mut store).unwrap(), Some(4));
        let (r, report) = DurableEngine::recover(&snaps, &wal, fresh_8x8).unwrap();
        assert_eq!(report.source, RecoverySource::Snapshot(4));
        assert_eq!(report.replayed, 0);
        assert_eq!(r.query(&full()).unwrap(), 15);
    }

    #[test]
    fn empty_batch_logs_and_publishes_nothing() {
        let wal = tmp("emptybatch.wal");
        let mut d = DurableEngine::open(fresh_8x8().unwrap(), &wal, 0)
            .unwrap()
            .map_engine(rps_core::VersionedEngine::new);
        d.update_batch(&[(vec![1, 1], 3)]).unwrap();
        let before = (d.wal_bytes(), d.last_lsn(), d.records_since_checkpoint());
        d.update_batch(&[]).unwrap();
        assert_eq!(d.engine().current_version(), 1, "no version for no records");
        assert_eq!(
            (d.wal_bytes(), d.last_lsn(), d.records_since_checkpoint()),
            before
        );
        assert_eq!(d.query(&full()).unwrap(), 3);
    }

    /// The bytes of a log holding one point record per update in
    /// `updates`, at LSNs 1, 2, ….
    fn logged(dims: &[usize], updates: &[(Vec<usize>, i64)]) -> Vec<u8> {
        let log = crate::SimLogFile::new(crate::FaultPlan::none(), 1);
        let handle = log.handle();
        let mut d =
            DurableEngine::open_log(RpsEngine::<i64>::zeros(dims).unwrap(), log, 0).unwrap();
        for (coords, delta) in updates {
            d.update(coords, *delta).unwrap();
        }
        handle.cache()
    }

    #[test]
    fn open_log_counts_the_replayed_tail_toward_the_trigger() {
        let updates: Vec<(Vec<usize>, i64)> = (0..7).map(|i| (vec![i, 1], 1)).collect();
        let bytes = logged(&[8, 8], &updates);
        let mut base = fresh_8x8().unwrap();
        for (coords, delta) in &updates[..2] {
            base.update(coords, *delta).unwrap();
        }
        let mut d = DurableEngine::open_log(base, crate::SimLogFile::from_bytes(bytes), 2).unwrap();
        assert_eq!(d.records_since_checkpoint(), 5);
        assert_eq!(d.query(&full()).unwrap(), 7, "the tail replayed once");
        assert_eq!(
            d.wal_bytes_since_checkpoint() * 7,
            d.wal_bytes() * 5,
            "the byte half counts the five tail records alone"
        );
        d.set_snapshot_policy(SnapshotPolicy {
            max_wal_bytes: None,
            max_records: Some(4),
            retain: 2,
        });
        let mut store = crate::SimSnapshotStore::new(crate::FaultPlan::none(), 1);
        assert_eq!(d.maybe_checkpoint(&mut store).unwrap(), Some(7));
    }

    #[test]
    fn long_tail_replays_through_the_rebuild_leg() {
        let dims = [16usize, 16];
        let mut rng = crate::SimRng::new(17);
        let updates: Vec<(Vec<usize>, i64)> = (0..2000)
            .map(|_| {
                let coords = vec![rng.below(16), rng.below(16)];
                let delta = i64::try_from(rng.below(100)).unwrap() - 49;
                (coords, if delta == 0 { 50 } else { delta })
            })
            .collect();
        let bytes = logged(&dims, &updates);

        let mut oracle = RpsEngine::<i64>::zeros(&dims).unwrap();
        for (coords, delta) in &updates {
            oracle.update(coords, *delta).unwrap();
        }
        let base = RpsEngine::<i64>::zeros(&dims).unwrap();
        let bound = (2.0 + 2.0) * 256.0 + 32.0 * base.estimated_update_cost();
        let before = base.stats().cell_writes;
        let d = DurableEngine::open_log(base, crate::SimLogFile::from_bytes(bytes), 0).unwrap();
        let writes = d.stats().cell_writes - before;
        assert!(
            writes as f64 <= bound,
            "replay wrote {writes} cells; one batch costs at most {bound} \
             (one-at-a-time replay wrote {})",
            oracle.stats().cell_writes
        );
        assert_eq!(d.engine().to_cube(), oracle.to_cube());
        assert_eq!(d.records_since_checkpoint(), 2000);
    }
}
