//! Loom interleaving tests for the versioned engine's publication
//! protocol (`rps_core::versioned`).
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (see `scripts/loom.sh`),
//! where `rps_core::sync_compat` swaps `std::sync` for loom's
//! instrumented primitives. The protocol under test is one
//! `RwLock<Arc<Version>>`: the writer applies copy-on-write under its
//! mutex, then swaps the new `Arc` in under the write lock; a snapshot
//! clones the `Arc` under the read lock.
//!
//! Models are deliberately tiny — a handful of operations on 2–3
//! threads — because loom's state space is exponential in the number
//! of synchronization events.

#![cfg(loom)]

use ndcube::Region;
use rps_core::{RpsEngine, VersionedEngine};

/// A snapshot racing one publish observes a complete version: either
/// the pre-update state or the post-update one, never a mix.
#[test]
fn snapshot_racing_publish_is_never_torn() {
    loom::model(|| {
        let v = VersionedEngine::new(RpsEngine::<i64>::zeros(&[4, 4]).unwrap());
        let full = Region::new(&[0, 0], &[3, 3]).unwrap();

        let writer = {
            let v = v.clone();
            loom::thread::spawn(move || {
                v.update(&[1, 1], 7).unwrap();
            })
        };
        let snap = v.snapshot();
        let total = snap.query(&full).unwrap();
        assert!(total == 0 || total == 7, "torn snapshot: {total}");
        writer.join().unwrap();
        assert_eq!(v.total(), 7);
        assert_eq!(v.current_version(), 1);
    });
}

/// A held snapshot answers the same before and after two concurrent
/// publishes have retired the version it was taken from.
#[test]
fn held_snapshot_is_stable_across_two_publishes() {
    loom::model(|| {
        let v = VersionedEngine::new(RpsEngine::<i64>::zeros(&[4, 4]).unwrap());
        let full = Region::new(&[0, 0], &[3, 3]).unwrap();

        let writer = {
            let v = v.clone();
            loom::thread::spawn(move || {
                v.update(&[0, 0], 1).unwrap();
                v.update(&[3, 3], 1).unwrap();
            })
        };
        let snap = v.snapshot();
        let total = snap.query(&full).unwrap();
        writer.join().unwrap();
        // Both publishes are done; the held snapshot is unchanged.
        assert_eq!(snap.query(&full).unwrap(), total);
        assert_eq!(v.total(), 2);
    });
}

/// Successive snapshots around a publish are monotone: a snapshot
/// taken after another can never see an older version.
#[test]
fn successive_snapshots_are_monotone() {
    loom::model(|| {
        let v = VersionedEngine::new(RpsEngine::<i64>::zeros(&[4, 4]).unwrap());

        let writer = {
            let v = v.clone();
            loom::thread::spawn(move || {
                v.update(&[2, 2], 1).unwrap();
            })
        };
        let first = v.snapshot().number();
        let second = v.snapshot().number();
        assert!(
            second >= first,
            "snapshot went backwards: {first} → {second}"
        );
        writer.join().unwrap();
        assert_eq!(v.snapshot().number(), 1);
    });
}

/// A snapshot agrees with its own `update_count`, whether it lands
/// before, between or after a point update and a two-update batch.
#[test]
fn snapshot_agrees_with_its_update_count() {
    loom::model(|| {
        let v = VersionedEngine::new(RpsEngine::<i64>::zeros(&[4, 4]).unwrap());
        let full = Region::new(&[0, 0], &[3, 3]).unwrap();

        let writer = {
            let v = v.clone();
            loom::thread::spawn(move || {
                v.update(&[0, 1], 1).unwrap();
                v.apply_batch(&[(vec![1, 2], 1), (vec![3, 0], 1)]).unwrap();
            })
        };
        let snap = v.snapshot();
        let n = snap.update_count();
        // Every delta is +1, and the batch publishes as one version.
        assert!(matches!(n, 0 | 1 | 3), "snapshot inside a batch: {n}");
        assert_eq!(snap.query(&full).unwrap(), i64::try_from(n).unwrap());
        writer.join().unwrap();
        assert_eq!(v.total(), 3);
    });
}
