//! The nightly-refresh pipeline the paper motivates: a persistent cube
//! absorbs a day's batch of sales, choosing incremental updates or a
//! full rebuild with the cost model, then snapshots itself for the next
//! session — while analysts' query answers stay exact throughout.
//!
//! ```text
//! cargo run --release --example batch_refresh
//! ```

use rps::storage::{decode_snapshot, encode_snapshot, SnapshotState};
use rps::workload::SalesScenario;
use rps::{RangeSumEngine, RpsEngine};

/// The engine as one `RPSSNAP1` artifact (docs/FORMATS.md).
fn snapshot(engine: &RpsEngine<i64>) -> Vec<u8> {
    let (dims, box_size, cells) = engine.capture();
    encode_snapshot(0, &dims, &box_size, &cells).unwrap()
}

fn main() {
    const AGES: usize = 100;
    const DAYS: usize = 365;
    let mut scenario = SalesScenario::new(AGES, DAYS, 99);

    // Day 0: initial load, built and persisted.
    let base = scenario.base_cube();
    let mut engine = RpsEngine::from_cube(&base);
    let mut store = snapshot(&engine);
    println!(
        "initial load: {} cells, box size {:?}, snapshot {} bytes",
        engine.shape().len(),
        engine.grid().box_size(),
        store.len()
    );

    // Five "nights" of refreshes with growing batch sizes.
    for (night, &batch_size) in [200usize, 2_000, 20_000, 60_000, 120_000]
        .iter()
        .enumerate()
    {
        // Restore yesterday's state (round-trips the snapshot).
        let (header, cells) = decode_snapshot(&store).unwrap();
        let mut restored =
            RpsEngine::<i64>::restore(&header.dims, &header.box_size, cells).unwrap();
        let before = restored.total();

        let batch: Vec<(Vec<usize>, i64)> = scenario
            .sales_batch(batch_size)
            .into_iter()
            .map(|([a, d], amount)| (vec![a, d], amount))
            .collect();
        let expected_delta: i64 = batch.iter().map(|(_, v)| v).sum();

        restored.reset_stats();
        let est = restored.estimated_update_cost();
        let rebuilt = restored.apply_batch(&batch).unwrap();
        let writes = restored.stats().cell_writes;

        assert_eq!(restored.total(), before + expected_delta);
        println!(
            "night {}: batch {:>6} → {:<11} ({} cell writes; est {:.0}/update, \
             rebuild ≈ {:.0})",
            night + 1,
            batch_size,
            if rebuilt { "REBUILD" } else { "incremental" },
            writes,
            est,
            (restored.shape().ndim() as f64 + 2.0) * restored.shape().len() as f64,
        );

        store = snapshot(&restored);
        engine = restored;
    }

    // The analysts' view stays exact: compare a spot query against a
    // brute-force rebuild of the final state.
    let check = RpsEngine::from_cube(&engine.to_cube());
    let q = scenario.age_window_query(37, 52, 90);
    assert_eq!(engine.query(&q).unwrap(), check.query(&q).unwrap());
    println!(
        "\nfinal state verified: 90-day window query = {} (exact after {} nights)",
        engine.query(&q).unwrap(),
        5
    );
}
