//! Loom interleaving tests for the concurrent paths.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (see `scripts/loom.sh`),
//! where `rps_core::sync_compat` swaps `std::sync` for loom's
//! instrumented primitives. Each test body runs under `loom::model`,
//! which explores thread interleavings (exhaustively with upstream
//! loom; via the stress scheduler with the in-tree compat shim) and
//! fails on any schedule that violates an assertion.
//!
//! Models are deliberately tiny — a handful of operations on 2–3
//! threads — because loom's state space is exponential in the number
//! of synchronization events.

#![cfg(loom)]

use ndcube::Region;
use rps_core::{BufferedEngine, NaiveEngine, RpsEngine, SharedEngine};

/// A query racing one update must observe either none or all of it:
/// the RP cascade + overlay walk happens entirely under the write
/// lock, so a partially-applied update (some RP cells bumped, overlay
/// not yet) must never be visible.
#[test]
fn query_sees_update_atomically() {
    loom::model(|| {
        let shared = SharedEngine::new(RpsEngine::<i64>::zeros(&[4, 4]).unwrap());
        let full = Region::new(&[0, 0], &[3, 3]).unwrap();

        let writer = {
            let shared = shared.clone();
            loom::thread::spawn(move || {
                // One update touches many RP/overlay cells — plenty of
                // intermediate states for a racing reader to catch.
                shared.update(&[1, 1], 7).unwrap();
            })
        };
        let total: i64 = shared.query(&full).unwrap();
        assert!(
            total == 0 || total == 7,
            "query observed a half-applied update: {total}"
        );
        writer.join().unwrap();
        assert_eq!(shared.total(), 7);
    });
}

/// Two writers racing on different cells: both deltas must land, and
/// the op counters must agree with what the threads did.
#[test]
fn concurrent_updates_all_land() {
    loom::model(|| {
        let shared = SharedEngine::new(RpsEngine::<i64>::zeros(&[4, 4]).unwrap());
        let handles: Vec<_> = [(0usize, 0usize, 3i64), (3, 3, 4)]
            .into_iter()
            .map(|(r, c, d)| {
                let shared = shared.clone();
                loom::thread::spawn(move || shared.update(&[r, c], d).unwrap())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.total(), 7);
        assert_eq!(shared.update_count(), 2);
    });
}

/// Two writers racing on the SAME cell: deltas commute, so the final
/// cell value must be the sum regardless of lock acquisition order.
#[test]
fn same_cell_updates_commute() {
    loom::model(|| {
        let shared = SharedEngine::new(RpsEngine::<i64>::zeros(&[4, 4]).unwrap());
        let a = {
            let shared = shared.clone();
            loom::thread::spawn(move || shared.update(&[2, 2], 5).unwrap())
        };
        let b = {
            let shared = shared.clone();
            loom::thread::spawn(move || shared.update(&[2, 2], -2).unwrap())
        };
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(shared.cell(&[2, 2]).unwrap(), 3);
    });
}

/// A reader racing a buffered engine's threshold flush: the merge
/// drains the delta buffer into the main structure inside one write
/// lock hold, so a query must never see a delta counted zero or two
/// times (dropped mid-drain or double-counted by `main ⊕ delta`).
#[test]
fn buffered_flush_is_atomic_to_readers() {
    loom::model(|| {
        // Threshold 2 ⇒ the second update triggers a merge.
        let shared = SharedEngine::new(BufferedEngine::new(
            NaiveEngine::<i64>::zeros(&[4, 4]).unwrap(),
            2,
        ));
        let full = Region::new(&[0, 0], &[3, 3]).unwrap();

        let writer = {
            let shared = shared.clone();
            loom::thread::spawn(move || {
                shared.update(&[0, 0], 1).unwrap();
                shared.update(&[1, 1], 1).unwrap(); // flush happens here
            })
        };
        let t: i64 = shared.query(&full).unwrap();
        assert!(
            (0..=2).contains(&t),
            "reader saw a torn buffer flush: total = {t}"
        );
        writer.join().unwrap();
        // After the flush everything lives in the main engine.
        assert_eq!(shared.total(), 2);
        assert_eq!(shared.read(|b| b.pending()), 0);
        assert_eq!(shared.read(|b| b.merges()), 1);
    });
}

/// Query/update counters are updated outside the engine lock with
/// relaxed atomics — interleavings may reorder the bumps relative to
/// each other, but every completed operation must be counted exactly
/// once by the time all threads join.
#[test]
fn op_counters_exact_after_join() {
    loom::model(|| {
        let shared = SharedEngine::new(RpsEngine::<i64>::zeros(&[4, 4]).unwrap());
        let full = Region::new(&[0, 0], &[3, 3]).unwrap();
        let w = {
            let shared = shared.clone();
            loom::thread::spawn(move || {
                shared.update(&[1, 2], 1).unwrap();
            })
        };
        let r = {
            let shared = shared.clone();
            let full = full.clone();
            loom::thread::spawn(move || {
                let _: i64 = shared.query(&full).unwrap();
            })
        };
        w.join().unwrap();
        r.join().unwrap();
        assert_eq!(shared.update_count(), 1);
        assert_eq!(shared.query_count(), 1);
    });
}

/// A whole batch runs under ONE shared-lock hold
/// ([`SharedEngine::query_many`]), so a racing update must be invisible
/// to the entire batch or visible to the entire batch. Any mixed answer
/// vector means a region was read after the lock was released.
#[test]
fn batch_queries_see_one_snapshot() {
    loom::model(|| {
        let shared = SharedEngine::new(RpsEngine::<i64>::zeros(&[4, 4]).unwrap());
        let full = Region::new(&[0, 0], &[3, 3]).unwrap();
        // 8 identical full-cube regions: one corner each, so the batch
        // is short while keeping the schedule space small.
        let regions: Vec<Region> = (0..8).map(|_| full.clone()).collect();

        let writer = {
            let shared = shared.clone();
            loom::thread::spawn(move || {
                shared.update(&[1, 1], 7).unwrap();
            })
        };
        let answers = shared.query_many::<i64>(&regions).unwrap();
        let first = answers[0];
        assert!(
            first == 0 || first == 7,
            "batch observed a half-applied update: {first}"
        );
        assert!(
            answers.iter().all(|&a| a == first),
            "regions disagree within one lock hold: {answers:?}"
        );
        writer.join().unwrap();
        assert_eq!(shared.total(), 7);
    });
}

/// A batch's queries reach the handle's atomic counter in one add per
/// batch. Two concurrent batches of 12 regions each must bump it by
/// exactly 24 however the two readers interleave.
#[test]
fn batch_query_stats_count_each_region_once() {
    loom::model(|| {
        let shared = SharedEngine::new(RpsEngine::<i64>::zeros(&[4, 4]).unwrap());
        let regions: Vec<Region> = (0..12)
            .map(|i| Region::new(&[i % 3, i % 4], &[3, 3]).unwrap())
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let shared = shared.clone();
                let regions = regions.clone();
                loom::thread::spawn(move || {
                    let answers = shared.query_many::<i64>(&regions).unwrap();
                    assert!(answers.iter().all(|&a| a == 0));
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(shared.query_count(), 24, "each region counted exactly once");
    });
}
