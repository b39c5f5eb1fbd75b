//! A thread-safe engine wrapper for read-heavy OLAP service workloads.
//!
//! The paper's target deployment — many analysts querying while a feed
//! applies updates — is naturally a readers–writer problem: queries are
//! `&self` and side-effect-free on every engine, updates are `&mut self`.
//! [`SharedEngine`] wraps any engine in an `RwLock` so queries run
//! concurrently and updates serialize, with snapshot-consistent answers
//! (a query never observes a half-applied update, since updates hold the
//! write lock across the whole RP-cascade + overlay walk).
//!
//! Note: the per-engine [`crate::CostStats`] counters use `Cell` and are
//! *not* shared across threads; `SharedEngine` therefore exposes its own
//! atomic op counters instead of the cell-level ones.
//!
//! For workloads where readers dominate and writer stalls are
//! unacceptable, prefer [`crate::VersionedEngine`]: it removes the
//! reader side of this lock entirely by publishing immutable
//! copy-on-write snapshots (see `docs/PERFORMANCE.md` §8 for the
//! trade-off).

use crate::sync_compat::{Arc, AtomicU64, Ordering, RwLock};

use ndcube::{NdError, Region};

use crate::engine::RangeSumEngine;
use crate::value::GroupValue;

/// Cheap-to-clone, thread-safe handle around a range-sum engine.
///
/// ```
/// use rps_core::{RpsEngine, SharedEngine};
/// use ndcube::Region;
///
/// let shared = SharedEngine::new(RpsEngine::<i64>::zeros(&[8, 8]).unwrap());
/// let handle = shared.clone();
/// std::thread::spawn(move || handle.update(&[2, 2], 5).unwrap())
///     .join()
///     .unwrap();
/// let total: i64 = shared.query(&Region::new(&[0, 0], &[7, 7]).unwrap()).unwrap();
/// assert_eq!(total, 5);
/// ```
#[derive(Debug)]
pub struct SharedEngine<E> {
    inner: Arc<Shared<E>>,
}

#[derive(Debug)]
struct Shared<E> {
    // The sanctioned nestings, enforced workspace-wide by the L7 lint:
    // the engine RwLock is always the outermost guard, and a disk-backed
    // engine's page-pool RefCell (`DiskRpsEngine::pool` in the storage
    // crate) may only be borrowed while it is held. In the versioned
    // engine (`crate::versioned`), the writer mutex is the outermost
    // guard and the `current` version lock is only write-locked beneath
    // it; snapshots read-lock `current` alone, never the writer mutex.
    // lock-order: engine < pool
    // lock-order: writer < current
    engine: RwLock<E>,
    queries: AtomicU64,
    updates: AtomicU64,
}

impl<E> Clone for SharedEngine<E> {
    fn clone(&self) -> Self {
        SharedEngine {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<E> SharedEngine<E> {
    /// Wraps an engine.
    pub fn new(engine: E) -> Self {
        SharedEngine {
            inner: Arc::new(Shared {
                engine: RwLock::new(engine),
                queries: AtomicU64::new(0),
                updates: AtomicU64::new(0),
            }),
        }
    }

    /// Total queries served across all handles.
    pub fn query_count(&self) -> u64 {
        self.inner.queries.load(Ordering::Relaxed)
    }

    /// Total updates applied across all handles.
    pub fn update_count(&self) -> u64 {
        self.inner.updates.load(Ordering::Relaxed)
    }

    /// Runs a closure with shared (read) access to the engine.
    pub fn read<R>(&self, f: impl FnOnce(&E) -> R) -> R {
        // lint:allow(L2): poisoning means a writer already panicked; fail fast is the policy
        f(&self.inner.engine.read().expect("engine lock poisoned"))
    }

    /// Runs a closure with exclusive (write) access to the engine.
    pub fn write<R>(&self, f: impl FnOnce(&mut E) -> R) -> R {
        // lint:allow(L2): poisoning means a writer already panicked; fail fast is the policy
        f(&mut self.inner.engine.write().expect("engine lock poisoned"))
    }
}

impl<E> SharedEngine<E> {
    /// Concurrent range-sum query (shared lock).
    pub fn query<T: GroupValue>(&self, region: &Region) -> Result<T, NdError>
    where
        E: RangeSumEngine<T>,
    {
        let out = self.read(|e| e.query(region));
        if out.is_ok() {
            self.inner.queries.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Serialized point update (exclusive lock).
    pub fn update<T: GroupValue>(&self, coords: &[usize], delta: T) -> Result<(), NdError>
    where
        E: RangeSumEngine<T>,
    {
        let out = self.write(|e| e.update(coords, delta));
        if out.is_ok() {
            self.inner.updates.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Serialized bulk range update (exclusive lock): the whole rectangle
    /// becomes visible atomically, like a single point update.
    pub fn range_update<T: GroupValue>(&self, region: &Region, delta: T) -> Result<(), NdError>
    where
        E: RangeSumEngine<T>,
    {
        let out = self.write(|e| e.range_update(region, delta));
        if out.is_ok() {
            self.inner.updates.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Reads one cell.
    pub fn cell<T: GroupValue>(&self, coords: &[usize]) -> Result<T, NdError>
    where
        E: RangeSumEngine<T>,
    {
        self.read(|e| e.cell(coords))
    }

    /// Answers a batch of queries through the engine's corner-cached
    /// [`crate::RpsEngine::query_many`] under one shared-lock hold — the
    /// whole batch observes one snapshot, exactly like a single
    /// [`SharedEngine::query`] does.
    pub fn query_many<T>(&self, regions: &[Region]) -> Result<Vec<T>, NdError>
    where
        T: GroupValue,
        E: std::borrow::Borrow<crate::RpsEngine<T>>,
    {
        let out = self.read(|e| e.borrow().query_many(regions));
        if out.is_ok() {
            self.inner.queries.fetch_add(
                u64::try_from(regions.len()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
        }
        out
    }

    /// Sum of the entire cube.
    pub fn total<T: GroupValue>(&self) -> T
    where
        E: RangeSumEngine<T>,
    {
        self.read(super::engine::RangeSumEngine::total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveEngine;
    use crate::rps::RpsEngine;
    use crate::testdata::paper_array_a;
    use std::thread;

    #[test]
    fn basic_shared_ops() {
        let shared = SharedEngine::new(RpsEngine::from_cube_uniform(&paper_array_a(), 3).unwrap());
        let all = Region::new(&[0, 0], &[8, 8]).unwrap();
        assert_eq!(shared.query(&all).unwrap(), 290);
        shared.update(&[1, 1], 1).unwrap();
        assert_eq!(shared.query(&all).unwrap(), 291);
        assert_eq!(shared.query_count(), 2);
        assert_eq!(shared.update_count(), 1);
    }

    #[test]
    fn clones_share_state() {
        let a = SharedEngine::new(RpsEngine::<i64>::zeros(&[8, 8]).unwrap());
        let b = a.clone();
        b.update(&[3, 3], 42).unwrap();
        assert_eq!(a.cell(&[3, 3]).unwrap(), 42);
    }

    #[test]
    fn concurrent_readers_and_writer_stay_consistent() {
        // 4 reader threads hammer full-cube queries while a writer applies
        // deltas that always come in consistent ±pairs within one lock
        // hold... they don't — each update is atomic, so the only invariant
        // readers can check is that the total matches SOME prefix of the
        // update sequence: totals must be non-decreasing (all deltas ≥ 0).
        let shared = SharedEngine::new(RpsEngine::<i64>::zeros(&[32, 32]).unwrap());
        let full = Region::new(&[0, 0], &[31, 31]).unwrap();

        let writer = {
            let shared = shared.clone();
            thread::spawn(move || {
                for i in 0..500usize {
                    shared.update(&[i % 32, (i * 7) % 32], 1).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let shared = shared.clone();
                let full = full.clone();
                thread::spawn(move || {
                    let mut last = 0i64;
                    for _ in 0..200 {
                        let t = shared.query(&full).unwrap();
                        assert!(t >= last, "total went backwards: {last} → {t}");
                        assert!(t <= 500);
                        last = t;
                    }
                })
            })
            .collect();

        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(shared.total(), 500);
        assert_eq!(shared.update_count(), 500);
    }

    #[test]
    fn parallel_writers_all_land() {
        let shared = SharedEngine::new(NaiveEngine::<i64>::zeros(&[16, 16]).unwrap());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let shared = shared.clone();
                thread::spawn(move || {
                    for i in 0..100usize {
                        shared.update(&[(t * 2) % 16, i % 16], 1).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.total(), 800);
    }

    #[test]
    fn shared_query_many_matches_serial_queries() {
        let shared = SharedEngine::new(RpsEngine::from_cube_uniform(&paper_array_a(), 3).unwrap());
        let regions: Vec<Region> = (0..24)
            .map(|i| Region::new(&[i % 5, i % 4], &[(i % 5) + 3, (i % 4) + 4]).unwrap())
            .collect();
        let serial: Vec<i64> = regions.iter().map(|r| shared.query(r).unwrap()).collect();
        let before = shared.query_count();
        let batch = shared.query_many::<i64>(&regions).unwrap();
        assert_eq!(batch, serial);
        assert_eq!(shared.query_count(), before + 24);
    }

    #[test]
    fn read_write_escape_hatches() {
        let shared = SharedEngine::new(RpsEngine::<i64>::zeros(&[9, 9]).unwrap());
        shared.write(|e| e.apply_batch(&[(vec![0, 0], 5), (vec![8, 8], 6)]).unwrap());
        let k = shared.read(|e| e.grid().box_size().to_vec());
        assert_eq!(k, vec![3, 3]);
        assert_eq!(shared.total(), 11);
    }
}
