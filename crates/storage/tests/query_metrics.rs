//! Every RPS storage counts its queries and corner lookups through the
//! one query path: `rps_engine_queries_total` moves by the regions
//! answered, and the `query_many` corner hits plus misses by the corner
//! lookups made — for the flat arrays, the versioned snapshot and the
//! disk engine alike.
//!
//! The test lives alone in its own integration binary because the
//! counters are process-global: a sibling `#[test]` running queries on
//! another thread would legitimately move them mid-measurement.

use ndcube::{NdCube, Region};
use rps_core::corners::corner_count;
use rps_core::obs::{self, EngineKind};
use rps_core::{RangeSumEngine, RpsEngine, VersionedEngine};
use rps_storage::{DeviceConfig, DiskRpsEngine};

/// (queries under `kind`, corner hits + misses) so far.
fn counts(kind: EngineKind) -> (u64, u64) {
    let core = obs::core();
    let corners = core.query_many_corner_hits.get() + core.query_many_corner_misses.get();
    (obs::engine(kind).queries.get(), corners)
}

#[test]
fn every_storage_counts_queries_and_corner_lookups() {
    let cube = NdCube::from_fn(&[64, 64], |c| (c[0] * 7 + c[1]) as i64).unwrap();
    // Overlapping windows, half of them touching row 0 (fewer corners).
    let regions: Vec<Region> = (0..8)
        .map(|i| Region::new(&[i * 5, 3 * (i % 2)], &[i * 5 + 20, 40]).unwrap())
        .collect();
    let batch = (
        regions.len() as u64,
        regions.iter().map(|r| corner_count(r) as u64).sum(),
    );
    let engine = RpsEngine::from_cube(&cube);
    let snap = VersionedEngine::from_cube(&cube).snapshot();
    let disk =
        DiskRpsEngine::from_cube_uniform(&cube, 8, DeviceConfig { cells_per_page: 64 }, 8).unwrap();
    let expected: Vec<i64> = regions.iter().map(|r| engine.query(r).unwrap()).collect();

    // `want` is how far (queries, corner lookups) must move.
    let check = |name: &str, kind: EngineKind, want: (u64, u64), run: &dyn Fn() -> Vec<i64>| {
        let before = counts(kind);
        let out = run();
        let after = counts(kind);
        assert_eq!((after.0 - before.0, after.1 - before.1), want, "{name}");
        assert_eq!(out[..], expected[..out.len()], "{name}");
    };
    let (rps, disk_kind) = (EngineKind::Rps, EngineKind::Disk);
    check("RpsEngine::query_many", rps, batch, &|| {
        engine.query_many(&regions).unwrap()
    });
    check("Version::query_many", rps, batch, &|| {
        snap.query_many(&regions).unwrap()
    });
    check("DiskRpsEngine::query_many", disk_kind, batch, &|| {
        disk.query_many(&regions).unwrap()
    });
    // A single region counts one query and no corner-cache lookups.
    check("Version::query", rps, (1, 0), &|| {
        vec![snap.query(&regions[0]).unwrap()]
    });
    check("DiskRpsEngine::query", disk_kind, (1, 0), &|| {
        vec![disk.query(&regions[0]).unwrap()]
    });
}
