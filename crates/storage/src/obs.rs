//! Storage-stack metrics: the durable path's side of the observability
//! layer.
//!
//! Registered with [`rps_obs::registry()`] on first use and exported by
//! `rps-cube stats` / `--metrics-file`; docs/OBSERVABILITY.md catalogs
//! every name below. Counters are process-wide relaxed atomics — the
//! per-instance counters ([`crate::IoStats`], `FaultyStore::injected`)
//! stay authoritative for single-engine accounting, while these roll
//! the whole process up for exposition, and the torture harness asserts
//! the two views agree.
//!
//! WAL append/fsync latency histograms obey the global
//! [`rps_obs::set_timing`] gate, like every other span in the
//! workspace.

use std::sync::OnceLock;

use rps_obs::{registry, Counter, Gauge, Histogram};

/// Process-wide storage metrics. Obtain via [`storage`].
#[derive(Debug)]
pub struct StorageMetrics {
    /// Buffer-pool page requests served from a cached frame.
    pub pool_hits: Counter,
    /// Buffer-pool page requests that had to fault the page in.
    pub pool_misses: Counter,
    /// Frames evicted (clean or dirty) to make room.
    pub pool_evictions: Counter,
    /// WAL append attempts.
    pub wal_appends: Counter,
    /// WAL appends that failed (after the pool's own retries, if any).
    pub wal_append_failures: Counter,
    /// WAL append latency (ns; gated by `rps_obs::set_timing`).
    pub wal_append_ns: Histogram,
    /// WAL fsync attempts.
    pub wal_fsyncs: Counter,
    /// WAL fsyncs that returned an error.
    pub wal_fsync_failures: Counter,
    /// WAL fsync latency (ns; gated by `rps_obs::set_timing`).
    pub wal_fsync_ns: Histogram,
    /// Torn WAL tails truncated away (at open and after failed appends).
    pub wal_torn_trims: Counter,
    /// Acknowledged-then-unsyncable records rolled back.
    pub wal_rollbacks: Counter,
    /// Extra tries spent retrying transient storage errors.
    pub retry_attempts: Counter,
    /// Operations that exhausted their retry budget on transients.
    pub retry_exhausted: Counter,
    /// Page reads rejected (and quarantined) by checksum verification.
    pub checksum_quarantines: Counter,
    /// Pages examined by `DiskRpsEngine::scrub`.
    pub scrub_pages_checked: Counter,
    /// Corrupted pages rebuilt from the base cube by scrub.
    pub scrub_repairs: Counter,
    /// Durable-engine checkpoints completed.
    pub checkpoints: Counter,
    /// Snapshot checkpoints written (`checkpoint_to`/`maybe_checkpoint`).
    pub snapshot_saves: Counter,
    /// Snapshots verified and loaded as a recovery base.
    pub snapshot_loads: Counter,
    /// Recovery fallbacks past a corrupt, torn or unreadable snapshot.
    pub snapshot_fallbacks: Counter,
    /// Checkpoints whose WAL sync, encode or artifact write failed.
    pub snapshot_save_failures: Counter,
    /// Whole-checkpoint latency: WAL sync, capture, encode, artifact
    /// write and GC (ns; gated by `rps_obs::set_timing`).
    pub snapshot_checkpoint_ns: Histogram,
    /// Checkpoint capture+encode latency (ns; gated by
    /// `rps_obs::set_timing`).
    pub snapshot_encode_ns: Histogram,
    /// Snapshot artifact write latency: tmp write, fsync, rename and
    /// directory fsync (ns; gated by `rps_obs::set_timing`).
    pub snapshot_save_ns: Histogram,
    /// Snapshot read+verify+restore latency (ns; gated by
    /// `rps_obs::set_timing`).
    pub snapshot_load_ns: Histogram,
    /// WAL tail replay latency at recovery (ns; gated by
    /// `rps_obs::set_timing`).
    pub wal_replay_ns: Histogram,
    /// LSN of the most recently written snapshot checkpoint.
    pub snapshot_last_lsn: Gauge,
}

/// Injected-fault counters (one per `kind` label of
/// `storage_faults_injected_total`), mirroring the deterministic
/// injectors' own accounting so a torture run is visible in exposition.
#[derive(Debug)]
pub struct FaultMetrics {
    /// `FaultyStore`: transient read/write EIOs.
    pub transient: Counter,
    /// `FaultyStore`: read-side bit flips.
    pub bit_flip: Counter,
    /// `FaultyStore`: torn page writes.
    pub torn_write: Counter,
    /// `FaultyStore`: silently dropped page writes.
    pub lost_write: Counter,
    /// `SimLogFile`: torn (partial) log appends.
    pub torn_append: Counter,
    /// `SimLogFile`: transient log append errors.
    pub append_transient: Counter,
    /// `SimLogFile`: fsyncs that failed honestly.
    pub sync_fail: Counter,
    /// `SimLogFile`: fsyncs that lied (reported success, persisted
    /// nothing).
    pub sync_lie: Counter,
}

static STORAGE: StorageMetrics = StorageMetrics {
    pool_hits: Counter::new(),
    pool_misses: Counter::new(),
    pool_evictions: Counter::new(),
    wal_appends: Counter::new(),
    wal_append_failures: Counter::new(),
    wal_append_ns: Histogram::new(),
    wal_fsyncs: Counter::new(),
    wal_fsync_failures: Counter::new(),
    wal_fsync_ns: Histogram::new(),
    wal_torn_trims: Counter::new(),
    wal_rollbacks: Counter::new(),
    retry_attempts: Counter::new(),
    retry_exhausted: Counter::new(),
    checksum_quarantines: Counter::new(),
    scrub_pages_checked: Counter::new(),
    scrub_repairs: Counter::new(),
    checkpoints: Counter::new(),
    snapshot_saves: Counter::new(),
    snapshot_loads: Counter::new(),
    snapshot_fallbacks: Counter::new(),
    snapshot_save_failures: Counter::new(),
    snapshot_checkpoint_ns: Histogram::new(),
    snapshot_encode_ns: Histogram::new(),
    snapshot_save_ns: Histogram::new(),
    snapshot_load_ns: Histogram::new(),
    wal_replay_ns: Histogram::new(),
    snapshot_last_lsn: Gauge::new(),
};

static FAULTS: FaultMetrics = FaultMetrics {
    transient: Counter::new(),
    bit_flip: Counter::new(),
    torn_write: Counter::new(),
    lost_write: Counter::new(),
    torn_append: Counter::new(),
    append_transient: Counter::new(),
    sync_fail: Counter::new(),
    sync_lie: Counter::new(),
};

#[allow(clippy::too_many_lines)] // one registration call per metric, by design
fn register_all() {
    let reg = registry();
    let sub = "storage";
    reg.counter(
        "storage_pool_hits_total",
        "Buffer-pool page requests served from a cached frame",
        "ops",
        sub,
        &[],
        &STORAGE.pool_hits,
    );
    reg.counter(
        "storage_pool_misses_total",
        "Buffer-pool page requests that faulted the page in",
        "ops",
        sub,
        &[],
        &STORAGE.pool_misses,
    );
    reg.counter(
        "storage_pool_evictions_total",
        "Buffer-pool frames evicted to make room",
        "pages",
        sub,
        &[],
        &STORAGE.pool_evictions,
    );
    reg.counter(
        "storage_wal_appends_total",
        "WAL append attempts",
        "ops",
        sub,
        &[],
        &STORAGE.wal_appends,
    );
    reg.counter(
        "storage_wal_append_failures_total",
        "WAL appends that returned an error",
        "ops",
        sub,
        &[],
        &STORAGE.wal_append_failures,
    );
    reg.histogram(
        "storage_wal_append_ns",
        "WAL append latency",
        "ns",
        sub,
        &[],
        &STORAGE.wal_append_ns,
    );
    reg.counter(
        "storage_wal_fsyncs_total",
        "WAL fsync attempts",
        "ops",
        sub,
        &[],
        &STORAGE.wal_fsyncs,
    );
    reg.counter(
        "storage_wal_fsync_failures_total",
        "WAL fsyncs that returned an error",
        "ops",
        sub,
        &[],
        &STORAGE.wal_fsync_failures,
    );
    reg.histogram(
        "storage_wal_fsync_ns",
        "WAL fsync latency",
        "ns",
        sub,
        &[],
        &STORAGE.wal_fsync_ns,
    );
    reg.counter(
        "storage_wal_torn_trims_total",
        "Torn WAL tails truncated away (open-time repair and failed appends)",
        "ops",
        sub,
        &[],
        &STORAGE.wal_torn_trims,
    );
    reg.counter(
        "storage_wal_rollbacks_total",
        "Logged writes whose appended WAL records were rolled back after a later append or the strict-mode sync failed",
        "ops",
        sub,
        &[],
        &STORAGE.wal_rollbacks,
    );
    reg.counter(
        "storage_retry_attempts_total",
        "Extra tries spent retrying transient storage errors",
        "ops",
        sub,
        &[],
        &STORAGE.retry_attempts,
    );
    reg.counter(
        "storage_retry_exhausted_total",
        "Operations that exhausted their retry budget on transients",
        "ops",
        sub,
        &[],
        &STORAGE.retry_exhausted,
    );
    reg.counter(
        "storage_checksum_quarantines_total",
        "Page reads rejected and quarantined by checksum verification",
        "pages",
        sub,
        &[],
        &STORAGE.checksum_quarantines,
    );
    reg.counter(
        "storage_scrub_pages_checked_total",
        "Pages examined by DiskRpsEngine::scrub",
        "pages",
        sub,
        &[],
        &STORAGE.scrub_pages_checked,
    );
    reg.counter(
        "storage_scrub_repairs_total",
        "Corrupted pages rebuilt from the base cube by scrub",
        "pages",
        sub,
        &[],
        &STORAGE.scrub_repairs,
    );
    reg.counter(
        "storage_checkpoints_total",
        "Durable-engine checkpoints completed",
        "ops",
        sub,
        &[],
        &STORAGE.checkpoints,
    );
    reg.counter(
        "rps_snapshot_saves_total",
        "Snapshot checkpoints written",
        "ops",
        sub,
        &[],
        &STORAGE.snapshot_saves,
    );
    reg.counter(
        "rps_snapshot_loads_total",
        "Snapshots verified and loaded as a recovery base",
        "ops",
        sub,
        &[],
        &STORAGE.snapshot_loads,
    );
    reg.counter(
        "rps_snapshot_fallbacks_total",
        "Recovery fallbacks past a corrupt, torn or unreadable snapshot",
        "ops",
        sub,
        &[],
        &STORAGE.snapshot_fallbacks,
    );
    reg.counter(
        "rps_snapshot_save_failures_total",
        "Checkpoints whose WAL sync, encode or artifact write failed",
        "ops",
        sub,
        &[],
        &STORAGE.snapshot_save_failures,
    );
    reg.histogram(
        "rps_snapshot_checkpoint_ns",
        "Whole checkpoint: WAL sync, capture+encode, artifact write, GC",
        "ns",
        sub,
        &[],
        &STORAGE.snapshot_checkpoint_ns,
    );
    reg.histogram(
        "rps_snapshot_encode_ns",
        "Checkpoint capture+encode latency",
        "ns",
        sub,
        &[],
        &STORAGE.snapshot_encode_ns,
    );
    reg.histogram(
        "rps_snapshot_save_ns",
        "Snapshot artifact write latency (tmp write, fsync, rename, directory fsync)",
        "ns",
        sub,
        &[],
        &STORAGE.snapshot_save_ns,
    );
    reg.histogram(
        "rps_snapshot_load_ns",
        "Snapshot read+verify+restore latency",
        "ns",
        sub,
        &[],
        &STORAGE.snapshot_load_ns,
    );
    reg.histogram(
        "rps_wal_replay_ns",
        "WAL tail replay at recovery",
        "ns",
        sub,
        &[],
        &STORAGE.wal_replay_ns,
    );
    reg.gauge(
        "rps_snapshot_last_lsn",
        "LSN of the most recently written snapshot checkpoint",
        "lsn",
        sub,
        &[],
        &STORAGE.snapshot_last_lsn,
    );
    for (labels, c) in [
        (
            &[("kind", "transient")] as &'static [(&'static str, &'static str)],
            &FAULTS.transient,
        ),
        (&[("kind", "bit_flip")], &FAULTS.bit_flip),
        (&[("kind", "torn_write")], &FAULTS.torn_write),
        (&[("kind", "lost_write")], &FAULTS.lost_write),
        (&[("kind", "torn_append")], &FAULTS.torn_append),
        (&[("kind", "append_transient")], &FAULTS.append_transient),
        (&[("kind", "sync_fail")], &FAULTS.sync_fail),
        (&[("kind", "sync_lie")], &FAULTS.sync_lie),
    ] {
        reg.counter(
            "storage_faults_injected_total",
            "Deterministically injected faults, by kind",
            "faults",
            sub,
            labels,
            c,
        );
    }
}

#[inline]
fn ensure_registered() {
    static REGISTERED: OnceLock<()> = OnceLock::new();
    REGISTERED.get_or_init(register_all);
}

/// The process-wide storage metrics, registering the whole family with
/// the global registry on first use.
#[inline]
pub fn storage() -> &'static StorageMetrics {
    ensure_registered();
    &STORAGE
}

/// The injected-fault counters (see [`storage`]).
#[inline]
pub fn faults() -> &'static FaultMetrics {
    ensure_registered();
    &FAULTS
}
