//! Engine metrics: the observability layer's view of the cost model.
//!
//! The paper's trade-off — O(1)-read queries against O(n^{d/2}) updates
//! — is counted per engine instance by [`crate::stats::StatsCell`];
//! this module adds the *process-wide* layer on top: operation counts
//! and latency histograms per engine kind, scratch-reuse accounting,
//! and the `query_many` corner-cache hit rate, all registered with
//! [`rps_obs::registry()`] for `rps-cube stats` / `--metrics-file`
//! exposition (see docs/OBSERVABILITY.md for the full catalog).
//!
//! Everything here follows the crate's hot-path rules: metrics are
//! `static` relaxed atomics touched directly (registration happens once
//! behind a `OnceLock`), latency spans obey the global
//! [`rps_obs::set_timing`] gate, and nothing allocates per operation.

use std::sync::OnceLock;

use rps_obs::{registry, Counter, Histogram};

/// Which engine implementation emitted an operation — the `engine`
/// label on the `rps_engine_*` metric families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// In-memory [`crate::RpsEngine`].
    Rps,
    /// Disk-resident `rps-storage::DiskRpsEngine` (RP array on pages).
    Disk,
    /// WAL-fronted `rps-storage::DurableEngine`.
    Durable,
}

/// Operation counters and latency histograms for one engine kind.
#[derive(Debug)]
pub struct EngineMetrics {
    /// Range-sum queries served (attempts, counted at entry).
    pub queries: Counter,
    /// Point updates applied (attempts, counted at entry).
    pub updates: Counter,
    /// Batch-update calls.
    pub batches: Counter,
    /// Individual updates folded into batches.
    pub batch_updates: Counter,
    /// Query latency (ns; populated only while timing is enabled).
    pub query_ns: Histogram,
    /// Update latency (ns; populated only while timing is enabled).
    pub update_ns: Histogram,
}

impl EngineMetrics {
    const fn new() -> Self {
        EngineMetrics {
            queries: Counter::new(),
            updates: Counter::new(),
            batches: Counter::new(),
            batch_updates: Counter::new(),
            query_ns: Histogram::new(),
            update_ns: Histogram::new(),
        }
    }
}

/// Cross-engine metrics owned by `rps-core` itself.
#[derive(Debug)]
pub struct CoreMetrics {
    /// `query_many` prefix reconstructions answered from the corner
    /// cache instead of recomputed.
    pub query_many_corner_hits: Counter,
    /// `query_many` corner-cache misses (actual reconstructions).
    pub query_many_corner_misses: Counter,
    /// Hot-path ops served by the thread-local reusable scratch.
    pub scratch_reuse: Counter,
    /// Ops that fell back to a fresh scratch (re-entrant `with_scratch`).
    pub scratch_fresh: Counter,
    /// Contiguous runs processed by the lane-width kernels (runs of at
    /// least [`crate::rps::kernels::LANES`] cells).
    pub lane_runs: Counter,
    /// `range_update` calls answered by an engine fast path (anything
    /// cheaper than the per-cell default loop).
    pub range_update_fast: Counter,
    /// `range_update` calls that fell through to the per-cell default.
    pub range_update_slow: Counter,
    /// Conceptual cells covered by `range_update` regions (the work a
    /// per-cell loop would have done, fast path or not).
    pub range_update_cells: Counter,
    /// `range_update` latency (ns; populated only while timing is
    /// enabled).
    pub range_update_ns: Histogram,
}

/// Metrics for the versioned snapshot engine
/// ([`crate::versioned::VersionedEngine`]).
#[derive(Debug)]
pub struct SnapshotMetrics {
    /// Immutable versions published by the writer.
    pub versions: Counter,
    /// Box granules cloned copy-on-write because a published version
    /// still referenced them: one per RP box granule, and one per box of
    /// an overlay box-row granule.
    pub cow_boxes: Counter,
    /// Bytes of the granules counted in `cow_boxes`.
    pub cow_bytes: Counter,
}

static RPS: EngineMetrics = EngineMetrics::new();
static DISK: EngineMetrics = EngineMetrics::new();
static DURABLE: EngineMetrics = EngineMetrics::new();
static CORE: CoreMetrics = CoreMetrics {
    query_many_corner_hits: Counter::new(),
    query_many_corner_misses: Counter::new(),
    scratch_reuse: Counter::new(),
    scratch_fresh: Counter::new(),
    lane_runs: Counter::new(),
    range_update_fast: Counter::new(),
    range_update_slow: Counter::new(),
    range_update_cells: Counter::new(),
    range_update_ns: Histogram::new(),
};
static SNAPSHOT: SnapshotMetrics = SnapshotMetrics {
    versions: Counter::new(),
    cow_boxes: Counter::new(),
    cow_bytes: Counter::new(),
};

fn register_kind(m: &'static EngineMetrics, labels: &'static [(&'static str, &'static str)]) {
    let reg = registry();
    reg.counter(
        "rps_engine_queries_total",
        "Range-sum queries served",
        "ops",
        "rps-core",
        labels,
        &m.queries,
    );
    reg.counter(
        "rps_engine_updates_total",
        "Point updates applied",
        "ops",
        "rps-core",
        labels,
        &m.updates,
    );
    reg.counter(
        "rps_engine_batches_total",
        "Batch-update calls",
        "ops",
        "rps-core",
        labels,
        &m.batches,
    );
    reg.counter(
        "rps_engine_batch_updates_total",
        "Updates applied through batches",
        "ops",
        "rps-core",
        labels,
        &m.batch_updates,
    );
    reg.histogram(
        "rps_engine_query_ns",
        "Query latency",
        "ns",
        "rps-core",
        labels,
        &m.query_ns,
    );
    reg.histogram(
        "rps_engine_update_ns",
        "Update latency",
        "ns",
        "rps-core",
        labels,
        &m.update_ns,
    );
}

fn register_all() {
    register_kind(&RPS, &[("engine", "rps")]);
    register_kind(&DISK, &[("engine", "disk")]);
    register_kind(&DURABLE, &[("engine", "durable")]);
    let reg = registry();
    reg.counter(
        "rps_query_many_corner_hits_total",
        "query_many prefix reconstructions served from the corner cache",
        "ops",
        "rps-core",
        &[],
        &CORE.query_many_corner_hits,
    );
    reg.counter(
        "rps_query_many_corner_misses_total",
        "query_many corner-cache misses (reconstructions computed)",
        "ops",
        "rps-core",
        &[],
        &CORE.query_many_corner_misses,
    );
    reg.counter(
        "rps_scratch_reuse_total",
        "Hot-path ops served by the thread-local reusable scratch",
        "ops",
        "rps-core",
        &[],
        &CORE.scratch_reuse,
    );
    reg.counter(
        "rps_scratch_fresh_total",
        "Ops that fell back to a fresh scratch (re-entrant with_scratch)",
        "ops",
        "rps-core",
        &[],
        &CORE.scratch_fresh,
    );
    reg.counter(
        "rps_lane_runs_total",
        "Contiguous runs processed by the lane-width kernels",
        "ops",
        "rps-core",
        &[],
        &CORE.lane_runs,
    );
    reg.counter(
        "rps_range_update_fast_total",
        "range_update calls answered by an engine fast path",
        "ops",
        "rps-core",
        &[],
        &CORE.range_update_fast,
    );
    reg.counter(
        "rps_range_update_slow_total",
        "range_update calls served by the per-cell default loop",
        "ops",
        "rps-core",
        &[],
        &CORE.range_update_slow,
    );
    reg.counter(
        "rps_range_update_cells_total",
        "Conceptual cells covered by range_update regions",
        "cells",
        "rps-core",
        &[],
        &CORE.range_update_cells,
    );
    reg.histogram(
        "rps_range_update_ns",
        "range_update latency",
        "ns",
        "rps-core",
        &[],
        &CORE.range_update_ns,
    );
    register_snapshot();
}

/// The versioned engine's copy-on-write metrics.
fn register_snapshot() {
    let reg = registry();
    reg.counter(
        "rps_snapshot_versions_total",
        "Immutable versions published by the versioned engine's writer",
        "ops",
        "rps-core",
        &[],
        &SNAPSHOT.versions,
    );
    reg.counter(
        "rps_snapshot_cow_boxes_total",
        "Box granules cloned copy-on-write during versioned publishes",
        "boxes",
        "rps-core",
        &[],
        &SNAPSHOT.cow_boxes,
    );
    reg.counter(
        "rps_snapshot_cow_bytes_total",
        "Bytes of box granules cloned copy-on-write during versioned publishes",
        "bytes",
        "rps-core",
        &[],
        &SNAPSHOT.cow_bytes,
    );
}

#[inline]
fn ensure_registered() {
    static REGISTERED: OnceLock<()> = OnceLock::new();
    REGISTERED.get_or_init(register_all);
}

/// The metrics for one engine kind. First call registers every
/// `rps-core` metric with the global registry; afterwards this is one
/// initialized-`OnceLock` load.
#[inline]
pub fn engine(kind: EngineKind) -> &'static EngineMetrics {
    ensure_registered();
    match kind {
        EngineKind::Rps => &RPS,
        EngineKind::Disk => &DISK,
        EngineKind::Durable => &DURABLE,
    }
}

/// The cross-engine `rps-core` metrics (registering on first use, like
/// [`engine`]).
#[inline]
pub fn core() -> &'static CoreMetrics {
    ensure_registered();
    &CORE
}

/// The versioned-snapshot metrics (registering on first use, like
/// [`engine`]).
#[inline]
pub fn snapshot() -> &'static SnapshotMetrics {
    ensure_registered();
    &SNAPSHOT
}
