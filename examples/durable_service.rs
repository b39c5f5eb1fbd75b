//! Durability end to end: a long-running cube service that survives
//! crashes. Updates are write-ahead logged; a mid-session checkpoint
//! writes an `RPSSNAP1` snapshot whose header carries its LSN; a
//! simulated crash (dropping the engine without checkpointing, plus a
//! torn final log record) recovers — newest snapshot plus the WAL tail
//! past its LSN — to exactly the acknowledged state.
//!
//! ```text
//! cargo run --release --example durable_service
//! ```

use std::path::PathBuf;

use rps::ndcube::Region;
use rps::storage::{DurableEngine, FsSnapshotDir, StorageError, Wal};
use rps::workload::SalesScenario;
use rps::RpsEngine;

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join("rps-durable-example");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn main() {
    const AGES: usize = 50;
    const DAYS: usize = 120;
    let snap_dir = workdir().join("snapshots");
    let wal_path = workdir().join("service.wal");
    let _ = std::fs::remove_dir_all(&snap_dir);
    let _ = std::fs::remove_file(&wal_path);

    let mut scenario = SalesScenario::new(AGES, DAYS, 4242);
    let window = scenario.age_window_query(20, 35, 30);
    // The empty cube a recovery starts from when no snapshot survives.
    let fresh = || RpsEngine::<i64>::zeros(&[AGES, DAYS]).map_err(StorageError::Engine);

    // --- Session 1: bootstrap, absorb sales, checkpoint, "crash". -------
    let mut acknowledged = 0i64;
    {
        let (mut service, _) = DurableEngine::recover(&snap_dir, &wal_path, fresh).unwrap();
        let mut snapshots = FsSnapshotDir::open(&snap_dir).unwrap();

        for i in 0..5_000 {
            let ([age, day], amount) = scenario.next_sale();
            service.update(&[age, day], amount).unwrap();
            acknowledged += amount;
            if i == 2_500 {
                // Mid-session checkpoint: a snapshot at the current LSN.
                // The WAL keeps every record; recovery starts past it.
                let lsn = service.checkpoint_to(&mut snapshots).unwrap();
                println!(
                    "checkpoint at sale {i} (lsn {lsn}) → {}",
                    snapshots.slot_path(lsn).display()
                );
            }
        }
        println!(
            "session 1: 5,000 sales acknowledged (total {acknowledged}); \
             {} bytes of WAL since the checkpoint — crashing now",
            service.wal_bytes_since_checkpoint()
        );
        // `service` dropped here without a final checkpoint = crash.
    }

    // Make the crash nastier: tear the last WAL record in half.
    let len = std::fs::metadata(&wal_path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .unwrap()
        .set_len(len - 7)
        .unwrap();
    println!("simulated torn final record (truncated 7 bytes of WAL)");

    // --- Session 2: recover = newest snapshot + WAL tail (> its LSN). ----
    let (recovered, report) = DurableEngine::recover(&snap_dir, &wal_path, fresh).unwrap();
    println!("session 2: {report}");
    let full = Region::new(&[0, 0], &[AGES - 1, DAYS - 1]).unwrap();
    let recovered_total = recovered.query(&full).unwrap();

    // The torn record was the *last* sale; everything acknowledged before
    // it must be present. (A real service acknowledges only after the
    // append returns, so at most that in-flight sale is lost.)
    let lost = acknowledged - recovered_total;
    println!(
        "session 2: recovered total {recovered_total} of {acknowledged} \
         acknowledged ({lost} lost to the torn in-flight record)"
    );
    assert!(
        (0..=500).contains(&lost),
        "at most one sale may be lost, got {lost}"
    );

    // Structural audit + a live query on the recovered service.
    assert!(recovered.engine().check_invariants().is_empty());
    println!(
        "structural audit clean; ages 20–35 / last 30 days = {}",
        recovered.query(&window).unwrap()
    );

    // WAL is repaired and appendable: the service continues.
    let mut wal_check = Wal::open(&wal_path).unwrap();
    wal_check.append(&[0, 0], 1).unwrap();
    println!("service resumed: WAL healthy and accepting appends ✓");
}
