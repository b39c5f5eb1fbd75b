//! Named per-tenant cubes: one [`VersionedEngine`] per tenant —
//! WAL-fronted when durable — and admission state.
//!
//! Reads never take a tenant lock — they run against the engine's
//! published snapshots. A durable tenant's cube is a
//! `DurableEngine<VersionedEngine<i64>>`, and [`Tenant::versioned`] is
//! a handle to that same engine. Writes serialize per tenant behind the
//! durable mutex: the WAL append happens first, then the engine applies
//! the write once and publishes it, then the snapshot policy is
//! consulted. Readers therefore never see an update the WAL could lose,
//! and a crash between WAL append and publish is repaired by recovery
//! exactly like any other torn write.
//!
//! The registry hosts up to `max_tenants` tenants; provisioning one
//! past the cap evicts the least-recently-used tenant (after a
//! best-effort final checkpoint when it is durable).
//!
//! Lock classes, outermost first:
//! `reserved` (in-flight creations), then `tenants` (registry map),
//! then any per-tenant `durable` mutex, then the versioned engine's own
//! `writer` mutex and `current` lock (a checkpoint only read-locks
//! `current`). `reserved` and `tenants` are never held together.
// lock-order: reserved < tenants < durable

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use rps_core::{RpsEngine, VersionedEngine};
use rps_storage::{
    DurableEngine, FsSnapshotDir, RecoveryReport, SnapshotPolicy, SnapshotStore, StorageError,
};

use crate::quota::{QuotaState, TenantQuota};
use crate::wire::{RejectCode, TenantStats};

/// The durable half of a tenant: the WAL-fronted versioned engine plus
/// its snapshot directory, serialized behind one mutex (writes are
/// per-tenant serial by design — the paper's update cost dominates the
/// lock).
#[derive(Debug)]
pub struct DurableTenant {
    engine: DurableEngine<VersionedEngine<i64>>,
    store: FsSnapshotDir,
    last_checkpoint_lsn: u64,
}

impl DurableTenant {
    /// Consults the snapshot policy after a write that is already
    /// logged, applied and published, so a failed policy checkpoint must
    /// not fail the write: `internal` promises the request had no effect
    /// on published state, and a client that retried would apply the
    /// write twice. The WAL still holds the write; the failure counts in
    /// `rps_snapshot_save_failures_total`, and the trigger re-arms one
    /// full interval later ([`DurableEngine::maybe_checkpoint`]). The
    /// explicit [`Tenant::checkpoint`] still reports its failures.
    fn checkpoint_by_policy(&mut self) {
        // lint:allow(L7): callers hold the durable mutex. The WAL-first
        // contract requires the policy-driven checkpoint to run under the
        // same per-tenant write lock that ordered the update.
        if let Ok(Some(lsn)) = self.engine.maybe_checkpoint(&mut self.store) {
            self.last_checkpoint_lsn = lsn;
        }
    }
}

/// One hosted cube.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    /// The tenant's cube; for a durable tenant, a handle to the engine
    /// its [`DurableTenant`] logs for.
    versioned: VersionedEngine<i64>,
    durable: Option<Mutex<DurableTenant>>,
    quota: QuotaState,
    /// Logical LRU stamp (registry counter value at last touch).
    last_used: AtomicU64,
}

impl Tenant {
    /// Tenant name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The read/write engine (reads clone the published version's `Arc`).
    #[must_use]
    pub fn versioned(&self) -> &VersionedEngine<i64> {
        &self.versioned
    }

    /// Admission state.
    #[must_use]
    pub fn quota(&self) -> &QuotaState {
        &self.quota
    }

    /// Whether writes go through the WAL-backed durable path.
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Applies one point update: WAL-first when durable, then one
    /// versioned publish.
    pub fn update(&self, coords: &[usize], delta: i64) -> Result<(), ServeError> {
        if let Some(durable) = &self.durable {
            let mut d = lock_durable(durable);
            d.engine.update(coords, delta)?;
            d.checkpoint_by_policy();
        } else {
            self.versioned.update(coords, delta)?;
        }
        Ok(())
    }

    /// Applies a batch atomically as one published version: readers
    /// observe all updates or none. When durable, every record is
    /// validated before the first WAL append (and the whole batch is
    /// rolled back on any append failure) — so a rejected batch leaves
    /// no durable trace to reappear at the next checkpoint or restart.
    pub fn batch_update(&self, updates: &[(Vec<usize>, i64)]) -> Result<(), ServeError> {
        if let Some(durable) = &self.durable {
            let mut d = lock_durable(durable);
            d.engine.update_batch(updates)?;
            d.checkpoint_by_policy();
        } else {
            self.versioned.apply_batch(updates)?;
        }
        Ok(())
    }

    /// Forces a durable checkpoint, returning its LSN.
    pub fn checkpoint(&self) -> Result<u64, ServeError> {
        let Some(durable) = &self.durable else {
            return Err(ServeError::Reject(
                RejectCode::NotDurable,
                "server runs without --data-dir".to_string(),
            ));
        };
        let mut d = lock_durable(durable);
        let DurableTenant {
            engine,
            store,
            last_checkpoint_lsn,
        } = &mut *d;
        // lint:allow(L7): explicit checkpoint request; the snapshot write
        // must serialize with this tenant's WAL appends.
        let lsn = engine.checkpoint_to(store)?;
        *last_checkpoint_lsn = lsn;
        Ok(lsn)
    }

    /// Point-in-time statistics.
    #[must_use]
    pub fn stats(&self) -> TenantStats {
        let last_checkpoint_lsn = self
            .durable
            .as_ref()
            .map_or(0, |d| lock_durable(d).last_checkpoint_lsn);
        TenantStats {
            version: self.versioned.current_version(),
            update_count: self.versioned.update_count(),
            last_checkpoint_lsn,
            dims: self.versioned.shape().dims().to_vec(),
        }
    }
}

fn lock_durable(m: &Mutex<DurableTenant>) -> std::sync::MutexGuard<'_, DurableTenant> {
    match m.lock() {
        Ok(g) => g,
        // A panic while holding the durable lock cannot leave the WAL
        // and the published cube disagreeing in a way recovery doesn't
        // already handle (WAL-first), so serve on rather than wedging
        // the tenant.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Errors from tenant operations: a typed wire rejection or a storage
/// failure surfaced as [`RejectCode::Internal`].
#[derive(Debug)]
pub enum ServeError {
    /// Mapped directly to a typed wire rejection.
    Reject(RejectCode, String),
    /// Storage-stack failure (reported as `internal`).
    Storage(StorageError),
    /// Engine failure (reported as `bad_payload` — the request named
    /// coordinates the cube does not have).
    Engine(ndcube::NdError),
}

impl ServeError {
    /// The wire rejection this error maps to, as `(code, message)`.
    #[must_use]
    pub fn reject(&self) -> (RejectCode, String) {
        match self {
            ServeError::Reject(code, msg) => (*code, msg.clone()),
            ServeError::Storage(e) => (RejectCode::Internal, e.to_string()),
            ServeError::Engine(e) => (RejectCode::BadPayload, e.to_string()),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (code, msg) = self.reject();
        write!(f, "{}: {msg}", code.as_str())
    }
}

impl std::error::Error for ServeError {}

impl From<StorageError> for ServeError {
    fn from(e: StorageError) -> ServeError {
        ServeError::Storage(e)
    }
}

impl From<ndcube::NdError> for ServeError {
    fn from(e: ndcube::NdError) -> ServeError {
        ServeError::Engine(e)
    }
}

/// How tenant state is kept.
#[derive(Debug, Clone)]
pub enum Persistence {
    /// In-memory only; state dies with the process.
    Ephemeral,
    /// WAL + snapshot chain per tenant under this directory, with the
    /// given automatic-checkpoint policy.
    Durable {
        /// Root directory; each tenant gets `<root>/<name>/`.
        root: PathBuf,
        /// Automatic checkpoint trigger.
        policy: SnapshotPolicy,
    },
}

/// The tenant registry: named cubes behind an `RwLock` map (reads take
/// the map read lock only to clone an `Arc`).
#[derive(Debug)]
pub struct Registry {
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    /// Names with a provisioning in flight. A name is reserved here
    /// *before* any durable recovery I/O runs, because recovery opens
    /// (and may repair-truncate) `<root>/<name>/wal.log` — which must
    /// never happen for a name that is live in `tenants` or mid-recovery
    /// on another thread.
    reserved: Mutex<HashSet<String>>,
    persistence: Persistence,
    quota: TenantQuota,
    max_tenants: usize,
    lru_clock: AtomicU64,
}

/// Removes a name from [`Registry::reserved`] on drop, so every exit
/// from [`Registry::create`] — including error paths — releases the
/// reservation.
struct Reservation<'a> {
    reserved: &'a Mutex<HashSet<String>>,
    name: &'a str,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        lock_set(self.reserved).remove(self.name);
    }
}

fn lock_set(m: &Mutex<HashSet<String>>) -> std::sync::MutexGuard<'_, HashSet<String>> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Registry {
    /// An empty registry. `max_tenants == 0` means unlimited.
    #[must_use]
    pub fn new(persistence: Persistence, quota: TenantQuota, max_tenants: usize) -> Registry {
        Registry {
            tenants: RwLock::new(HashMap::new()),
            reserved: Mutex::new(HashSet::new()),
            persistence,
            quota,
            max_tenants,
            lru_clock: AtomicU64::new(0),
        }
    }

    fn read_map(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<Tenant>>> {
        match self.tenants.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write_map(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, Arc<Tenant>>> {
        match self.tenants.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks up a tenant, stamping its LRU slot.
    pub fn get(&self, name: &str) -> Result<Arc<Tenant>, ServeError> {
        let map = self.read_map();
        let Some(t) = map.get(name) else {
            return Err(ServeError::Reject(
                RejectCode::UnknownTenant,
                format!("no tenant `{name}`"),
            ));
        };
        t.last_used.store(
            self.lru_clock.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        Ok(Arc::clone(t))
    }

    /// Provisions (or recovers, when durable state exists on disk) a
    /// tenant with the given cube dimensions. Evicts the LRU tenant
    /// when the registry is at capacity; returns the number of
    /// evictions performed (0 or 1).
    pub fn create(&self, name: &str, dims: &[usize]) -> Result<usize, ServeError> {
        if name.is_empty() || name.len() > 255 {
            return Err(ServeError::Reject(
                RejectCode::BadPayload,
                "tenant name must be 1..=255 bytes".to_string(),
            ));
        }
        // Reserve the name, then check liveness, and only then recover:
        // durable recovery opens (and may repair-truncate) the tenant's
        // WAL, so it must never run while the same name is hosted or a
        // concurrent create of it is mid-recovery. The reservation is
        // dropped after the map insert, so the name is always in at
        // least one of the two sets until creation fully resolves.
        if !lock_set(&self.reserved).insert(name.to_string()) {
            return Err(ServeError::Reject(
                RejectCode::TenantExists,
                format!("tenant `{name}` is being provisioned"),
            ));
        }
        let _reservation = Reservation {
            reserved: &self.reserved,
            name,
        };
        if self.read_map().contains_key(name) {
            return Err(ServeError::Reject(
                RejectCode::TenantExists,
                format!("tenant `{name}` already exists"),
            ));
        }
        let tenant = self.build_tenant(name, dims)?;
        let mut map = self.write_map();
        let mut evicted = 0usize;
        if self.max_tenants != 0 && map.len() >= self.max_tenants {
            let lru = map
                .values()
                .min_by_key(|t| t.last_used.load(Ordering::Relaxed))
                .map(|t| t.name.clone());
            if let Some(victim) = lru {
                if let Some(t) = map.remove(&victim) {
                    // Best-effort final checkpoint: the WAL already holds
                    // everything, so a failure here costs recovery time,
                    // never data.
                    if t.is_durable() {
                        let _checkpoint_best_effort = t.checkpoint();
                    }
                    crate::obs::serve().tenant_evictions.inc();
                    evicted = 1;
                }
            }
        }
        map.insert(name.to_string(), Arc::new(tenant));
        Ok(evicted)
    }

    fn build_tenant(&self, name: &str, dims: &[usize]) -> Result<Tenant, ServeError> {
        let (versioned, durable) = match &self.persistence {
            Persistence::Ephemeral => (VersionedEngine::zeros(dims)?, None),
            Persistence::Durable { root, policy } => {
                let (d, _report) = recover_tenant(root, name, dims, *policy)?;
                let versioned = d.engine.engine().clone();
                (versioned, Some(Mutex::new(d)))
            }
        };
        Ok(Tenant {
            name: name.to_string(),
            versioned,
            durable,
            quota: QuotaState::new(self.quota),
            last_used: AtomicU64::new(self.lru_clock.fetch_add(1, Ordering::Relaxed)),
        })
    }

    /// Names of all hosted tenants.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read_map().keys().cloned().collect();
        names.sort();
        names
    }

    /// Snapshot handles to all hosted tenants (for drain).
    #[must_use]
    pub fn all(&self) -> Vec<Arc<Tenant>> {
        self.read_map().values().map(Arc::clone).collect()
    }
}

/// Recovers (or freshly creates) one tenant's durable state under
/// `<root>/<name>/`: snapshot chain in `snapshots/`, WAL in `wal.log`.
/// Replay runs on the serial [`RpsEngine`], which is then moved into the
/// served [`VersionedEngine`] once — replaying straight into it would
/// publish a version (and copy a slab) per record.
fn recover_tenant(
    root: &Path,
    name: &str,
    dims: &[usize],
    policy: SnapshotPolicy,
) -> Result<(DurableTenant, RecoveryReport), ServeError> {
    let dir = root.join(name);
    let snap_dir = dir.join("snapshots");
    std::fs::create_dir_all(&snap_dir).map_err(|source| StorageError::Io {
        op: "create tenant dir",
        source,
    })?;
    let wal_path = dir.join("wal.log");
    let dims_owned = dims.to_vec();
    let (engine, report) = DurableEngine::recover(&snap_dir, &wal_path, move || {
        RpsEngine::zeros(&dims_owned).map_err(StorageError::Engine)
    })?;
    let mut engine = engine.map_engine(VersionedEngine::new);
    engine.set_snapshot_policy(policy);
    let store = FsSnapshotDir::open(&snap_dir)?;
    let last_checkpoint_lsn = store.list()?.last().copied().unwrap_or(0);
    Ok((
        DurableTenant {
            engine,
            store,
            last_checkpoint_lsn,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndcube::Region;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rps-serve-tenant-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    #[test]
    fn ephemeral_update_and_query() {
        let reg = Registry::new(Persistence::Ephemeral, TenantQuota::default(), 0);
        reg.create("a", &[8, 8]).unwrap();
        let t = reg.get("a").unwrap();
        t.update(&[3, 4], 7).unwrap();
        let snap = t.versioned().snapshot();
        let sum = snap.query(&Region::new(&[0, 0], &[7, 7]).unwrap()).unwrap();
        assert_eq!(sum, 7);
        assert!(t.checkpoint().is_err(), "ephemeral tenants cannot snapshot");
    }

    #[test]
    fn unknown_and_duplicate_tenants() {
        let reg = Registry::new(Persistence::Ephemeral, TenantQuota::default(), 0);
        assert!(matches!(
            reg.get("missing").unwrap_err(),
            ServeError::Reject(RejectCode::UnknownTenant, _)
        ));
        reg.create("a", &[4]).unwrap();
        assert!(matches!(
            reg.create("a", &[4]).unwrap_err(),
            ServeError::Reject(RejectCode::TenantExists, _)
        ));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let reg = Registry::new(Persistence::Ephemeral, TenantQuota::default(), 2);
        reg.create("a", &[4]).unwrap();
        reg.create("b", &[4]).unwrap();
        // Touch `a` so `b` is the LRU victim.
        let _ = reg.get("a").unwrap();
        let evicted = reg.create("c", &[4]).unwrap();
        assert_eq!(evicted, 1);
        let mut names = reg.names();
        names.sort();
        assert_eq!(names, vec!["a", "c"]);
    }

    #[test]
    fn durable_tenant_survives_reprovisioning() {
        let root = tmp("durable-roundtrip");
        let persistence = Persistence::Durable {
            root: root.clone(),
            policy: SnapshotPolicy::default(),
        };
        {
            let reg = Registry::new(persistence.clone(), TenantQuota::default(), 0);
            reg.create("sales", &[8, 8]).unwrap();
            let t = reg.get("sales").unwrap();
            t.update(&[1, 1], 5).unwrap();
            t.update(&[2, 2], 6).unwrap();
            let lsn = t.checkpoint().unwrap();
            assert!(lsn >= 2);
            t.update(&[3, 3], 9).unwrap(); // WAL-only tail past the snapshot
        }
        let reg = Registry::new(persistence, TenantQuota::default(), 0);
        reg.create("sales", &[8, 8]).unwrap();
        let t = reg.get("sales").unwrap();
        let snap = t.versioned().snapshot();
        let sum = snap.query(&Region::new(&[0, 0], &[7, 7]).unwrap()).unwrap();
        assert_eq!(sum, 20, "snapshot base + WAL tail must both recover");
        assert_eq!(t.stats().last_checkpoint_lsn, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_batch_publishes_no_version() {
        let root = tmp("empty-batch");
        for persistence in [
            Persistence::Ephemeral,
            Persistence::Durable {
                root: root.clone(),
                policy: SnapshotPolicy::default(),
            },
        ] {
            let reg = Registry::new(persistence, TenantQuota::default(), 0);
            reg.create("a", &[8, 8]).unwrap();
            let t = reg.get("a").unwrap();
            t.batch_update(&[(vec![1, 1], 5)]).unwrap();
            let version = t.versioned().current_version();
            t.batch_update(&[]).unwrap();
            assert_eq!(
                t.versioned().current_version(),
                version,
                "{}",
                t.is_durable()
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn duplicate_create_never_reopens_a_live_tenants_wal() {
        let root = tmp("dup-create");
        let persistence = Persistence::Durable {
            root: root.clone(),
            policy: SnapshotPolicy::default(),
        };
        {
            let reg = Registry::new(persistence.clone(), TenantQuota::default(), 0);
            reg.create("sales", &[8, 8]).unwrap();
            let t = reg.get("sales").unwrap();
            t.update(&[1, 1], 5).unwrap();
            // The duplicate create must be refused before any recovery
            // I/O touches the live tenant's directory.
            assert!(matches!(
                reg.create("sales", &[8, 8]).unwrap_err(),
                ServeError::Reject(RejectCode::TenantExists, _)
            ));
            // The live WAL is still intact and appendable.
            t.update(&[2, 2], 6).unwrap();
        }
        let reg = Registry::new(persistence, TenantQuota::default(), 0);
        reg.create("sales", &[8, 8]).unwrap();
        let t = reg.get("sales").unwrap();
        let snap = t.versioned().snapshot();
        let sum = snap.query(&Region::new(&[0, 0], &[7, 7]).unwrap()).unwrap();
        assert_eq!(sum, 11, "updates around the duplicate create must survive");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_creates_of_one_name_yield_exactly_one_winner() {
        let root = tmp("race-create");
        let persistence = Persistence::Durable {
            root: root.clone(),
            policy: SnapshotPolicy::default(),
        };
        let reg = Arc::new(Registry::new(persistence, TenantQuota::default(), 0));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    reg.create("hot", &[8, 8]).is_ok()
                })
            })
            .collect();
        let wins = threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .filter(|&won| won)
            .count();
        assert_eq!(wins, 1, "exactly one create may open the tenant's WAL");
        assert!(reg.get("hot").is_ok());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn rejected_batch_leaves_no_trace_on_either_path() {
        let root = tmp("batch-reject");
        let persistence = Persistence::Durable {
            root: root.clone(),
            policy: SnapshotPolicy::default(),
        };
        {
            let reg = Registry::new(persistence.clone(), TenantQuota::default(), 0);
            reg.create("a", &[8, 8]).unwrap();
            let t = reg.get("a").unwrap();
            t.update(&[0, 0], 1).unwrap();
            let version_before = t.versioned().current_version();
            // Valid prefix, out-of-bounds last item: the whole batch
            // must be rejected with no durable or published effect.
            let bad: Vec<(Vec<usize>, i64)> =
                vec![(vec![1, 1], 5), (vec![2, 2], 6), (vec![9, 9], 7)];
            assert!(t.batch_update(&bad).is_err());
            assert_eq!(t.versioned().current_version(), version_before);
            let snap = t.versioned().snapshot();
            assert_eq!(snap.total(), 1, "rejected prefix published");
        }
        // The rejected prefix must not resurface from the WAL either.
        let reg = Registry::new(persistence, TenantQuota::default(), 0);
        reg.create("a", &[8, 8]).unwrap();
        let t = reg.get("a").unwrap();
        let snap = t.versioned().snapshot();
        let sum = snap.query(&Region::new(&[0, 0], &[7, 7]).unwrap()).unwrap();
        assert_eq!(sum, 1, "rejected batch reappeared after recovery");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_policy_checkpoint_still_acks_the_applied_batch() {
        let root = tmp("checkpoint-fails");
        let persistence = Persistence::Durable {
            root: root.clone(),
            policy: SnapshotPolicy {
                max_wal_bytes: None,
                max_records: Some(1),
                retain: 2,
            },
        };
        let snapshots = root.join("a").join("snapshots");
        let batch: Vec<(Vec<usize>, i64)> = vec![(vec![1, 1], 5), (vec![6, 2], 7)];
        let failures = &rps_storage::obs::storage().snapshot_save_failures;
        {
            let reg = Registry::new(persistence.clone(), TenantQuota::default(), 0);
            reg.create("a", &[8, 8]).unwrap();
            let t = reg.get("a").unwrap();
            // Every artifact write now fails: `snapshots/` is a file.
            std::fs::remove_dir_all(&snapshots).unwrap();
            std::fs::write(&snapshots, b"not a directory").unwrap();
            let before = failures.get();
            t.batch_update(&batch)
                .expect("the batch is logged and published before the checkpoint runs");
            assert_eq!(t.versioned().total(), 12, "the acked batch is visible");
            assert!(failures.get() > before, "the failed checkpoint is counted");
            assert_eq!(t.stats().last_checkpoint_lsn, 0);
            // The explicit snapshot request still reports the failure.
            assert!(t.checkpoint().is_err());
        }
        std::fs::remove_file(&snapshots).unwrap();
        std::fs::create_dir(&snapshots).unwrap();
        let reg = Registry::new(persistence, TenantQuota::default(), 0);
        reg.create("a", &[8, 8]).unwrap();
        let t = reg.get("a").unwrap();
        assert_eq!(t.versioned().total(), 12, "the WAL replays the acked batch");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn batch_publishes_atomically() {
        let reg = Registry::new(Persistence::Ephemeral, TenantQuota::default(), 0);
        reg.create("a", &[8, 8]).unwrap();
        let t = reg.get("a").unwrap();
        let before = t.versioned().current_version();
        t.batch_update(&[(vec![0, 0], 1), (vec![7, 7], 2)]).unwrap();
        assert_eq!(t.versioned().current_version(), before + 1);
        let snap = t.versioned().snapshot();
        assert_eq!(snap.total(), 3);
    }

    #[test]
    fn durable_tenant_serves_and_logs_one_engine() {
        let root = tmp("one-engine");
        let persistence = Persistence::Durable {
            root: root.clone(),
            policy: SnapshotPolicy {
                max_wal_bytes: None,
                max_records: Some(4),
                retain: 2,
            },
        };
        let batch: Vec<(Vec<usize>, i64)> = vec![
            (vec![0, 0], 1),
            (vec![1, 2], 2),
            (vec![3, 3], 4),
            (vec![7, 7], 8),
        ];
        {
            let reg = Registry::new(persistence.clone(), TenantQuota::default(), 0);
            reg.create("a", &[8, 8]).unwrap();
            let t = reg.get("a").unwrap();
            let before = t.versioned().current_version();
            t.batch_update(&batch).unwrap();
            assert_eq!(
                t.versioned().current_version(),
                before + 1,
                "one apply, one version"
            );
            let durable = lock_durable(t.durable.as_ref().unwrap());
            assert!(
                Arc::ptr_eq(
                    &t.versioned().snapshot(),
                    &durable.engine.engine().snapshot()
                ),
                "the served engine and the logged engine must be one"
            );
            // The policy trigger survived `map_engine`: the batch cut one.
            assert_eq!(durable.last_checkpoint_lsn, 4);
        }
        // Replay starts past the snapshot at LSN 4, so only the snapshot
        // holds the batch: the same total proves it captured the
        // published version.
        let reg = Registry::new(persistence, TenantQuota::default(), 0);
        reg.create("a", &[8, 8]).unwrap();
        assert_eq!(reg.get("a").unwrap().versioned().total(), 15);
        let _ = std::fs::remove_dir_all(&root);
    }
}
