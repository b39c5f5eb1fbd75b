//! Checkpointed binary snapshots: bounded recovery with graceful
//! fallback.
//!
//! Recovery by full WAL replay is correct but unbounded — replay time
//! grows with the life of the update stream. A snapshot pins the
//! engine's state at an LSN so recovery becomes *load newest snapshot +
//! replay the WAL suffix*, and — critically — a corrupt or torn
//! snapshot can never make recovery **worse** than today: every check
//! failure is typed, the bad artifact is quarantined, and recovery
//! degrades to the next-older snapshot and ultimately to full replay.
//!
//! Binary format `RPSSNAP1` (little-endian; exact layout in
//! `docs/FORMATS.md`):
//!
//! ```text
//! magic        8 B   "RPSSNAP1"
//! version      u32   1
//! lsn          u64   WAL offset: replay records with LSN > this
//! ndim         u32   1 ..= 16
//! dims         u32 × ndim
//! box          u32 × ndim   overlay box size (RP geometry)
//! payload_crc  u32   CRC32 (IEEE) of the payload bytes
//! header_crc   u32   CRC32 (IEEE) of every header byte above
//! payload      i64 × Π dims  row-major recovered cube A
//! trailer      u32   payload_crc repeated (truncation tripwire)
//! ```
//!
//! Writes are atomic ([`write_atomic`]): [`FsSnapshotDir`] stages to a
//! `.tmp`, fsyncs, then renames into place, so a crash mid-write leaves
//! either the old chain or a `.tmp` that enumeration ignores. The
//! simulated store ([`crate::SimSnapshotStore`]) instead exposes every
//! byte-granular crash state to the torture harness.
//!
//! This is the one cube format at rest: the `rps-cube` CLI's cube,
//! engine and facts files are `RPSSNAP1` artifacts too. Its checksum,
//! [`crc32`], is the one at-rest checksum — WAL frames and
//! [`crate::CheckedStore`] page sums use it as well.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::error::StorageError;
use crate::le::LeReader;

/// Magic bytes opening every snapshot ("RPSSNAP1").
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"RPSSNAP1";

/// Current (and only) format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Dimension limit shared with the WAL frame format.
const MAX_NDIM: usize = 16;

/// Refuse to allocate more than this many cells while decoding — a
/// corrupt header must not become an OOM.
const MAX_SNAPSHOT_CELLS: u64 = 1 << 28;

// ---------------------------------------------------------------------------
// Typed verification failures.

/// Which verification check a snapshot failed — carried inside
/// [`StorageError::Corrupted`] so recovery policy (and the torture
/// harness) can see *why* an artifact was quarantined, not just that it
/// was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotCheckFailed {
    /// Too short to hold even the fixed header prefix, or cut inside
    /// the geometry arrays.
    HeaderTruncated,
    /// The first 8 bytes are not `RPSSNAP1`.
    Magic,
    /// A format version this build does not understand.
    Version,
    /// The header CRC32 does not match the header bytes.
    HeaderCrc,
    /// ndim/dims/box values the format cannot represent (zero or
    /// oversized dimensions, cell count beyond the decode cap).
    Geometry,
    /// The payload (or its CRC trailer) is shorter than the header
    /// promises — a torn write.
    PayloadTruncated,
    /// The payload CRC32 does not match the payload bytes (bit rot), or
    /// the trailer disagrees with the header copy.
    PayloadCrc,
    /// The store could not produce the artifact's bytes at all.
    Unreadable,
}

impl fmt::Display for SnapshotCheckFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SnapshotCheckFailed::HeaderTruncated => "header truncated",
            SnapshotCheckFailed::Magic => "bad magic",
            SnapshotCheckFailed::Version => "unsupported version",
            SnapshotCheckFailed::HeaderCrc => "header checksum mismatch",
            SnapshotCheckFailed::Geometry => "invalid geometry",
            SnapshotCheckFailed::PayloadTruncated => "payload truncated",
            SnapshotCheckFailed::PayloadCrc => "payload checksum mismatch",
            SnapshotCheckFailed::Unreadable => "unreadable",
        };
        f.write_str(s)
    }
}

impl SnapshotCheckFailed {
    /// Wraps this check failure as the typed [`StorageError::Corrupted`]
    /// the storage stack reports.
    #[must_use]
    pub fn into_error(self, lsn: u64) -> StorageError {
        StorageError::Corrupted {
            detail: format!("snapshot at LSN {lsn} failed verification: {self}"),
            page: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Header + encode/decode.

/// The decoded fixed header of an `RPSSNAP1` artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version (currently always [`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The LSN this snapshot includes: recovery replays WAL records
    /// with LSN strictly greater.
    pub lsn: u64,
    /// Cube dimensions.
    pub dims: Vec<usize>,
    /// Overlay box size per dimension (RP geometry; equal to `dims`
    /// for engines without box structure).
    pub box_size: Vec<usize>,
    /// CRC32 of the payload bytes.
    pub payload_crc: u32,
}

impl SnapshotHeader {
    /// Encoded header length in bytes for `ndim` dimensions.
    #[must_use]
    pub fn encoded_len(ndim: usize) -> usize {
        8 + 4 + 8 + 4 + 8 * ndim + 4 + 4
    }

    /// Total artifact length (header + payload + trailer) this header
    /// promises.
    #[must_use]
    pub fn total_len(&self) -> usize {
        Self::encoded_len(self.dims.len()) + self.cells() * 8 + 4
    }

    /// Number of payload cells (Π dims).
    #[must_use]
    pub fn cells(&self) -> usize {
        self.dims.iter().product()
    }
}

/// Serializes one snapshot: header, payload, CRC trailer. `cells` must
/// be the row-major recovered cube with exactly Π`dims` entries.
///
/// Returns a [`StorageError::Layout`] when the geometry is not
/// representable (rather than writing bytes decode would reject).
pub fn encode_snapshot(
    lsn: u64,
    dims: &[usize],
    box_size: &[usize],
    cells: &[i64],
) -> Result<Vec<u8>, StorageError> {
    let ndim = dims.len();
    if ndim == 0 || ndim > MAX_NDIM || box_size.len() != ndim {
        return Err(StorageError::Layout {
            detail: format!("snapshot supports 1..={MAX_NDIM} dimensions, got {ndim}"),
        });
    }
    let expected: usize = dims.iter().product();
    if expected != cells.len() || expected as u64 > MAX_SNAPSHOT_CELLS {
        return Err(StorageError::Layout {
            detail: format!(
                "snapshot payload holds {} cells but dims {:?} imply {expected}",
                cells.len(),
                dims
            ),
        });
    }
    if let Some(&d) = dims
        .iter()
        .chain(box_size)
        .find(|&&d| d == 0 || d > u32::MAX as usize)
    {
        return Err(StorageError::Layout {
            detail: format!("snapshot dimension {d} outside the format's u32 range"),
        });
    }

    // One buffer, written once: the header with both CRC fields zeroed,
    // then the payload; the CRCs are computed over the bytes in place
    // and patched in.
    let header_len = SnapshotHeader::encoded_len(ndim);
    let payload_end = header_len + cells.len() * 8;
    let mut out = Vec::with_capacity(payload_end + 4);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&lsn.to_le_bytes());
    out.extend_from_slice(&(ndim as u32).to_le_bytes());
    for &d in dims.iter().chain(box_size) {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    out.resize(payload_end, 0);
    for (dst, c) in out[header_len..].chunks_exact_mut(8).zip(cells) {
        dst.copy_from_slice(&c.to_le_bytes());
    }
    let payload_crc = crc32(&out[header_len..]).to_le_bytes();
    out[header_len - 8..header_len - 4].copy_from_slice(&payload_crc);
    let header_crc = crc32(&out[..header_len - 4]).to_le_bytes();
    out[header_len - 4..header_len].copy_from_slice(&header_crc);
    out.extend_from_slice(&payload_crc);
    Ok(out)
}

/// Verifies and decodes the header of `bytes` without touching the
/// payload (beyond its length). Every failure is a typed check.
pub fn peek_header(bytes: &[u8]) -> Result<SnapshotHeader, SnapshotCheckFailed> {
    read_header(bytes).map(|(header, _payload)| header)
}

/// [`peek_header`], also returning a reader positioned at the payload.
fn read_header(bytes: &[u8]) -> Result<(SnapshotHeader, LeReader<'_>), SnapshotCheckFailed> {
    use SnapshotCheckFailed::{Geometry, HeaderCrc, HeaderTruncated, Magic, Version};
    if bytes.len() < SnapshotHeader::encoded_len(1) {
        return Err(HeaderTruncated);
    }
    let mut r = LeReader::new(bytes);
    if r.take(SNAPSHOT_MAGIC.len()) != Some(&SNAPSHOT_MAGIC[..]) {
        return Err(Magic);
    }
    let version = r.u32().ok_or(HeaderTruncated)?;
    if version != SNAPSHOT_VERSION {
        return Err(Version);
    }
    let lsn = r.u64().ok_or(HeaderTruncated)?;
    let ndim = r.u32().ok_or(HeaderTruncated)? as usize;
    if ndim == 0 || ndim > MAX_NDIM {
        return Err(Geometry);
    }
    let dims: Vec<usize> = r.u32s(ndim).ok_or(HeaderTruncated)?;
    let box_size: Vec<usize> = r.u32s(ndim).ok_or(HeaderTruncated)?;
    let payload_crc = r.u32().ok_or(HeaderTruncated)?;
    let covered = &bytes[..r.pos()];
    if r.u32().ok_or(HeaderTruncated)? != crc32(covered) {
        return Err(HeaderCrc);
    }
    // Geometry is trustworthy only now that the header CRC has passed.
    let cells = dims
        .iter()
        .fold(1u64, |cells, &d| cells.saturating_mul(d as u64));
    if dims.contains(&0) || cells > MAX_SNAPSHOT_CELLS || box_size.contains(&0) {
        return Err(Geometry);
    }
    let header = SnapshotHeader {
        version,
        lsn,
        dims,
        box_size,
        payload_crc,
    };
    Ok((header, r))
}

/// Verifies `bytes` end to end and decodes the payload cells.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(SnapshotHeader, Vec<i64>), SnapshotCheckFailed> {
    use SnapshotCheckFailed::{PayloadCrc, PayloadTruncated};
    let (header, mut r) = read_header(bytes)?;
    let cells = header.cells();
    let payload = r.take(cells * 8).ok_or(PayloadTruncated)?;
    let trailer = r.u32().ok_or(PayloadTruncated)?;
    if trailer != header.payload_crc || crc32(payload) != header.payload_crc {
        return Err(PayloadCrc);
    }
    let cells = LeReader::new(payload).i64s(cells).ok_or(PayloadTruncated)?;
    Ok((header, cells))
}

// ---------------------------------------------------------------------------
// Engine capture/restore.

/// State an engine can checkpoint into (and restore from) an
/// `RPSSNAP1` payload: the row-major recovered cube plus the box
/// geometry needed to rebuild the RP/overlay decomposition.
pub trait SnapshotState: Sized {
    /// (dims, box size, row-major cells) of the current state.
    fn capture(&self) -> (Vec<usize>, Vec<usize>, Vec<i64>);
    /// Rebuilds an engine from a decoded snapshot.
    fn restore(dims: &[usize], box_size: &[usize], cells: Vec<i64>) -> Result<Self, StorageError>;
}

impl SnapshotState for rps_core::RpsEngine<i64> {
    fn capture(&self) -> (Vec<usize>, Vec<usize>, Vec<i64>) {
        use rps_core::RangeSumEngine;
        (
            self.shape().dims().to_vec(),
            self.grid().box_size().to_vec(),
            self.to_cube().into_vec(),
        )
    }

    fn restore(dims: &[usize], box_size: &[usize], cells: Vec<i64>) -> Result<Self, StorageError> {
        let cube = ndcube::NdCube::from_vec(dims, cells).map_err(StorageError::Engine)?;
        rps_core::RpsEngine::from_cube_with_box_size(&cube, box_size).map_err(StorageError::Engine)
    }
}

impl SnapshotState for rps_core::VersionedEngine<i64> {
    /// Captures one pinned version: later publishes cannot tear it.
    fn capture(&self) -> (Vec<usize>, Vec<usize>, Vec<i64>) {
        let version = self.snapshot();
        (
            version.shape().dims().to_vec(),
            version.box_size().to_vec(),
            version.to_cube().into_vec(),
        )
    }

    fn restore(dims: &[usize], box_size: &[usize], cells: Vec<i64>) -> Result<Self, StorageError> {
        rps_core::RpsEngine::restore(dims, box_size, cells).map(rps_core::VersionedEngine::new)
    }
}

impl SnapshotState for rps_core::NaiveEngine<i64> {
    fn capture(&self) -> (Vec<usize>, Vec<usize>, Vec<i64>) {
        use rps_core::RangeSumEngine;
        let dims = self.shape().dims().to_vec();
        (dims.clone(), dims, self.cube().clone().into_vec())
    }

    fn restore(dims: &[usize], _box_size: &[usize], cells: Vec<i64>) -> Result<Self, StorageError> {
        let cube = ndcube::NdCube::from_vec(dims, cells).map_err(StorageError::Engine)?;
        Ok(rps_core::NaiveEngine::from_cube(cube))
    }
}

// ---------------------------------------------------------------------------
// Snapshot stores.

/// Where snapshot artifacts live: a keyed blob store addressed by the
/// checkpoint LSN. [`FsSnapshotDir`] is the real directory;
/// [`crate::SimSnapshotStore`] is the fault-injecting double.
pub trait SnapshotStore {
    /// Atomically persists `bytes` as the snapshot at `lsn`. On error
    /// the slot must be either absent or detectably partial — never
    /// silently wrong (detection is the reader's CRC's job).
    fn write(&mut self, lsn: u64, bytes: &[u8]) -> Result<(), StorageError>;
    /// The LSNs with a (non-quarantined) artifact, ascending.
    fn list(&self) -> Result<Vec<u64>, StorageError>;
    /// Reads the artifact at `lsn` in full.
    fn read(&mut self, lsn: u64) -> Result<Vec<u8>, StorageError>;
    /// Moves the artifact at `lsn` out of the recovery chain (kept for
    /// forensics, never returned by [`SnapshotStore::list`] again).
    fn quarantine(&mut self, lsn: u64) -> Result<(), StorageError>;
    /// Deletes the artifact at `lsn` (retention GC). The deletion need
    /// not be durable on return: a removed artifact that reappears after
    /// a crash is an older, still-valid snapshot, and the next GC
    /// removes it again.
    fn remove(&mut self, lsn: u64) -> Result<(), StorageError>;
}

/// Writes `bytes` to `path` atomically: stage to `<path>.tmp`, `fsync`,
/// rename into place, best-effort directory sync. A crash mid-write
/// leaves the old file (or none) plus at most a stray `.tmp`, never a
/// torn `path`.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    let mut tmp_path = path.as_os_str().to_owned();
    tmp_path.push(".tmp");
    let tmp_path = PathBuf::from(tmp_path);
    let mut tmp =
        fs::File::create(&tmp_path).map_err(|e| StorageError::io("create snapshot tmp", e))?;
    tmp.write_all(bytes)
        .map_err(|e| StorageError::io("write snapshot tmp", e))?;
    tmp.sync_all()
        .map_err(|e| StorageError::io("sync snapshot tmp", e))?;
    drop(tmp);
    fs::rename(&tmp_path, path).map_err(|e| StorageError::io("rename snapshot into place", e))?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    sync_dir(dir.unwrap_or(Path::new(".")));
    Ok(())
}

/// Directory fsync makes a rename itself durable; best-effort because
/// not every filesystem supports opening a directory.
fn sync_dir(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        if d.sync_all().is_err() {
            crate::obs::storage().wal_fsync_failures.inc();
        }
    }
}

/// A directory of `snap-<lsn>.rpssnap` files written by [`write_atomic`]
/// — a crash mid-write leaves the previous chain intact.
#[derive(Debug, Clone)]
pub struct FsSnapshotDir {
    dir: PathBuf,
}

const SNAP_PREFIX: &str = "snap-";
const SNAP_SUFFIX: &str = ".rpssnap";

impl FsSnapshotDir {
    /// Opens (creating if absent) the snapshot directory at `dir`.
    pub fn open(dir: &Path) -> Result<Self, StorageError> {
        fs::create_dir_all(dir).map_err(|e| StorageError::io("create snapshot dir", e))?;
        Ok(FsSnapshotDir {
            dir: dir.to_path_buf(),
        })
    }

    /// The directory path.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the artifact for `lsn` (zero-padded so lexicographic
    /// order is LSN order).
    #[must_use]
    pub fn slot_path(&self, lsn: u64) -> PathBuf {
        self.dir
            .join(format!("{SNAP_PREFIX}{lsn:020}{SNAP_SUFFIX}"))
    }

    fn parse_slot(name: &str) -> Option<u64> {
        let rest = name.strip_prefix(SNAP_PREFIX)?;
        let digits = rest.strip_suffix(SNAP_SUFFIX)?;
        digits.parse().ok()
    }
}

impl SnapshotStore for FsSnapshotDir {
    fn write(&mut self, lsn: u64, bytes: &[u8]) -> Result<(), StorageError> {
        write_atomic(&self.slot_path(lsn), bytes)
    }

    fn list(&self) -> Result<Vec<u64>, StorageError> {
        let entries =
            fs::read_dir(&self.dir).map_err(|e| StorageError::io("list snapshot dir", e))?;
        let mut lsns = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| StorageError::io("list snapshot dir", e))?;
            if let Some(name) = entry.file_name().to_str() {
                if let Some(lsn) = Self::parse_slot(name) {
                    lsns.push(lsn);
                }
            }
        }
        lsns.sort_unstable();
        Ok(lsns)
    }

    fn read(&mut self, lsn: u64) -> Result<Vec<u8>, StorageError> {
        fs::read(self.slot_path(lsn)).map_err(|e| StorageError::io("read snapshot", e))
    }

    fn quarantine(&mut self, lsn: u64) -> Result<(), StorageError> {
        let from = self.slot_path(lsn);
        let to = from.with_extension("quarantined");
        fs::rename(&from, &to).map_err(|e| StorageError::io("quarantine snapshot", e))?;
        sync_dir(&self.dir);
        Ok(())
    }

    /// Unlinks the artifact without a directory sync: the rename sync of
    /// the next [`write_atomic`] into this directory makes the removal
    /// durable, so a checkpoint pays one directory fsync, not two.
    fn remove(&mut self, lsn: u64) -> Result<(), StorageError> {
        fs::remove_file(self.slot_path(lsn)).map_err(|e| StorageError::io("remove snapshot", e))
    }
}

// ---------------------------------------------------------------------------
// Policy + recovery report.

/// When to cut a checkpoint automatically, and how many to keep.
///
/// The hybrid trigger fires when **either** threshold is crossed
/// (lithair-style size/time hybrid, with "time" replaced by the
/// record count — wall clocks don't replay deterministically).
/// [`crate::DurableEngine::checkpoint_to`] is the explicit trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotPolicy {
    /// Checkpoint once this many WAL bytes accumulate past the last
    /// checkpoint (`None` = never on bytes).
    pub max_wal_bytes: Option<u64>,
    /// Checkpoint once this many records accumulate past the last
    /// checkpoint (`None` = never on records).
    pub max_records: Option<u64>,
    /// Snapshots to retain; older ones are GC'd after a successful
    /// checkpoint. Clamped to at least 1.
    pub retain: usize,
}

impl Default for SnapshotPolicy {
    /// Explicit-trigger-only policy retaining the last 2 snapshots.
    fn default() -> Self {
        SnapshotPolicy {
            max_wal_bytes: None,
            max_records: None,
            retain: 2,
        }
    }
}

impl SnapshotPolicy {
    /// Whether the hybrid trigger fires for the given distance past the
    /// last checkpoint.
    #[must_use]
    pub fn should_checkpoint(&self, bytes_since: u64, records_since: u64) -> bool {
        self.max_wal_bytes.is_some_and(|b| bytes_since >= b)
            || self.max_records.is_some_and(|r| records_since >= r)
    }
}

/// Where a recovery's base state came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// A verified snapshot at this LSN.
    Snapshot(u64),
    /// No usable snapshot: full WAL replay onto a fresh engine.
    FullReplay,
}

/// What [`crate::DurableEngine::recover_with`] did: which base it
/// loaded, what it threw away, and how much log it replayed — the
/// torture harness asserts on this, and operators log it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The base state recovery started from.
    pub source: RecoverySource,
    /// Snapshots rejected on the way down the chain, newest first,
    /// with the check each one failed.
    pub quarantined: Vec<(u64, SnapshotCheckFailed)>,
    /// WAL records replayed on top of the base state.
    pub replayed: u64,
    /// Quarantine renames that themselves failed (the artifact stays in
    /// place but was still skipped for this recovery).
    pub quarantine_failures: u64,
}

impl RecoveryReport {
    /// How many times recovery had to fall past a bad snapshot.
    #[must_use]
    pub fn fallbacks(&self) -> u64 {
        self.quarantined.len() as u64
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.source {
            RecoverySource::Snapshot(lsn) => write!(f, "recovered from snapshot at LSN {lsn}")?,
            RecoverySource::FullReplay => write!(f, "recovered by full WAL replay")?,
        }
        write!(f, ", {} records replayed", self.replayed)?;
        if !self.quarantined.is_empty() {
            write!(f, ", {} snapshot(s) quarantined:", self.quarantined.len())?;
            for (lsn, check) in &self.quarantined {
                write!(f, " [lsn {lsn}: {check}]")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let cells: Vec<i64> = (0..24).map(|i| i * 3 - 7).collect();
        let bytes = encode_snapshot(42, &[4, 6], &[2, 3], &cells).unwrap();
        let header = peek_header(&bytes).unwrap();
        assert_eq!(header.version, SNAPSHOT_VERSION);
        assert_eq!(header.lsn, 42);
        assert_eq!(header.dims, vec![4, 6]);
        assert_eq!(header.box_size, vec![2, 3]);
        assert_eq!(bytes.len(), header.total_len());
        let (h2, decoded) = decode_snapshot(&bytes).unwrap();
        assert_eq!(h2, header);
        assert_eq!(decoded, cells);
    }

    #[test]
    fn every_truncation_is_detected() {
        let cells: Vec<i64> = (0..16).collect();
        let bytes = encode_snapshot(7, &[4, 4], &[2, 2], &cells).unwrap();
        for cut in 0..bytes.len() {
            let err =
                decode_snapshot(&bytes[..cut]).expect_err("a truncated snapshot must not decode");
            assert!(
                matches!(
                    err,
                    SnapshotCheckFailed::HeaderTruncated | SnapshotCheckFailed::PayloadTruncated
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let cells: Vec<i64> = (0..16).map(|i| i * i).collect();
        let bytes = encode_snapshot(9, &[4, 4], &[2, 2], &cells).unwrap();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(
                decode_snapshot(&bad).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn typed_checks_name_the_failure() {
        let cells: Vec<i64> = vec![1, 2, 3, 4];
        let bytes = encode_snapshot(1, &[2, 2], &[2, 2], &cells).unwrap();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode_snapshot(&bad_magic), Err(SnapshotCheckFailed::Magic));

        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        // The version field is covered by the header CRC; a *consistent*
        // future version re-CRCs, so rebuild the CRC to isolate the check.
        let hlen = SnapshotHeader::encoded_len(2);
        let crc = crc32(&bad_version[..hlen - 4]).to_le_bytes();
        bad_version[hlen - 4..hlen].copy_from_slice(&crc);
        assert_eq!(
            decode_snapshot(&bad_version),
            Err(SnapshotCheckFailed::Version)
        );

        let mut bad_header = bytes.clone();
        bad_header[12] ^= 1; // lsn byte → header CRC mismatch
        assert_eq!(
            decode_snapshot(&bad_header),
            Err(SnapshotCheckFailed::HeaderCrc)
        );

        let mut bad_payload = bytes.clone();
        let last = bytes.len() - 5; // inside the payload, before the trailer
        bad_payload[last] ^= 1;
        assert_eq!(
            decode_snapshot(&bad_payload),
            Err(SnapshotCheckFailed::PayloadCrc)
        );

        assert_eq!(
            decode_snapshot(&bytes[..bytes.len() - 2]),
            Err(SnapshotCheckFailed::PayloadTruncated)
        );
    }

    #[test]
    fn rejects_unrepresentable_geometry() {
        assert!(encode_snapshot(0, &[], &[], &[]).is_err());
        assert!(encode_snapshot(0, &[2, 2], &[2], &[0; 4]).is_err());
        assert!(encode_snapshot(0, &[2, 2], &[2, 2], &[0; 3]).is_err());
        assert!(encode_snapshot(0, &[0, 2], &[1, 1], &[]).is_err());
    }

    #[test]
    fn writers_enforce_loader_geometry_limits() {
        // What cannot be decoded must not be encodable: 17 dimensions.
        let dims = [2usize; 17];
        assert!(matches!(
            encode_snapshot(0, &dims, &dims, &vec![0; 1 << 17]),
            Err(StorageError::Layout { .. })
        ));
    }

    #[test]
    fn rejects_absurd_declared_geometry_before_allocating() {
        // A header declaring a multi-billion-cell cube fails the Geometry
        // check even when its CRC is consistent — before any allocation.
        let mut bytes = encode_snapshot(0, &[2, 2], &[2, 2], &[1, 2, 3, 4]).unwrap();
        bytes[24..28].copy_from_slice(&u32::MAX.to_le_bytes()); // dims[0]
        let hlen = SnapshotHeader::encoded_len(2);
        let crc = crc32(&bytes[..hlen - 4]).to_le_bytes();
        bytes[hlen - 4..hlen].copy_from_slice(&crc);
        assert_eq!(decode_snapshot(&bytes), Err(SnapshotCheckFailed::Geometry));
    }

    #[test]
    fn cube_round_trip() {
        // A raw cube is an artifact whose box equals its dims.
        let cube = rps_core::testdata::paper_array_a();
        let dims = cube.shape().dims().to_vec();
        let bytes = encode_snapshot(0, &dims, &dims, cube.as_slice()).unwrap();
        let (h, cells) = decode_snapshot(&bytes).unwrap();
        let restored = rps_core::NaiveEngine::<i64>::restore(&h.dims, &h.box_size, cells).unwrap();
        assert_eq!(restored.cube(), &cube);
    }

    #[test]
    fn rps_round_trip_preserves_answers() {
        use rps_core::{RangeSumEngine, RpsEngine};
        let mut e = RpsEngine::from_cube_uniform(&rps_core::testdata::paper_array_a(), 3).unwrap();
        e.update(&[4, 4], 17).unwrap();
        let (dims, box_size, cells) = e.capture();
        let bytes = encode_snapshot(1, &dims, &box_size, &cells).unwrap();
        let (h, cells) = decode_snapshot(&bytes).unwrap();
        let loaded = RpsEngine::<i64>::restore(&h.dims, &h.box_size, cells).unwrap();
        assert_eq!(loaded.grid().box_size(), e.grid().box_size());
        for (lo, hi) in [([0, 0], [8, 8]), ([2, 2], [7, 5])] {
            let r = ndcube::Region::new(&lo, &hi).unwrap();
            assert_eq!(loaded.query(&r).unwrap(), e.query(&r).unwrap());
        }
    }

    #[test]
    fn three_dim_engine_round_trip() {
        use rps_core::RpsEngine;
        let cube =
            ndcube::NdCube::from_fn(&[5, 4, 6], |c| (c[0] * 31 + c[1] * 7 + c[2]) as i64).unwrap();
        let e = RpsEngine::from_cube_with_box_size(&cube, &[2, 2, 3]).unwrap();
        let (dims, box_size, cells) = e.capture();
        let bytes = encode_snapshot(0, &dims, &box_size, &cells).unwrap();
        let (h, cells) = decode_snapshot(&bytes).unwrap();
        assert_eq!(
            (h.dims.as_slice(), h.box_size.as_slice()),
            (&[5, 4, 6][..], &[2, 2, 3][..])
        );
        let loaded = RpsEngine::<i64>::restore(&h.dims, &h.box_size, cells).unwrap();
        assert_eq!(loaded.to_cube(), cube);
    }

    #[test]
    fn fs_snapshot_dir_round_trip_list_gc_quarantine() {
        let dir = std::env::temp_dir().join("rps-snapdir-test");
        let _ = fs::remove_dir_all(&dir);
        let mut store = FsSnapshotDir::open(&dir).unwrap();
        let a = encode_snapshot(3, &[2, 2], &[2, 2], &[1, 2, 3, 4]).unwrap();
        let b = encode_snapshot(9, &[2, 2], &[2, 2], &[5, 6, 7, 8]).unwrap();
        store.write(3, &a).unwrap();
        store.write(9, &b).unwrap();
        assert_eq!(store.list().unwrap(), vec![3, 9]);
        assert_eq!(store.read(9).unwrap(), b);
        // No .tmp residue after atomic writes.
        assert!(fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .path()
            .to_string_lossy()
            .ends_with(".tmp")));
        store.quarantine(9).unwrap();
        assert_eq!(store.list().unwrap(), vec![3]);
        assert!(store.read(9).is_err());
        store.remove(3).unwrap();
        assert_eq!(store.list().unwrap(), Vec::<u64>::new());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_hybrid_trigger() {
        let p = SnapshotPolicy {
            max_wal_bytes: Some(100),
            max_records: Some(10),
            retain: 2,
        };
        assert!(!p.should_checkpoint(99, 9));
        assert!(p.should_checkpoint(100, 0));
        assert!(p.should_checkpoint(0, 10));
        assert!(!SnapshotPolicy::default().should_checkpoint(u64::MAX, u64::MAX - 1));
    }

    #[test]
    fn rps_engine_capture_restore_round_trip() {
        use rps_core::RpsEngine;
        let cube = ndcube::NdCube::from_fn(&[6, 4], |c| (c[0] * 10 + c[1]) as i64).unwrap();
        let e = RpsEngine::from_cube_with_box_size(&cube, &[3, 2]).unwrap();
        let (dims, box_size, cells) = e.capture();
        assert_eq!(dims, vec![6, 4]);
        assert_eq!(box_size, vec![3, 2]);
        let restored = RpsEngine::<i64>::restore(&dims, &box_size, cells).unwrap();
        assert_eq!(restored.to_cube(), cube);
        assert_eq!(restored.grid().box_size(), &[3, 2]);
    }

    #[test]
    fn versioned_engine_capture_restore_round_trip() {
        use rps_core::{RangeSumEngine, RpsEngine, VersionedEngine};
        let cube = ndcube::NdCube::from_fn(&[6, 4], |c| (c[0] * 10 + c[1]) as i64).unwrap();
        let e = VersionedEngine::new(RpsEngine::from_cube_with_box_size(&cube, &[3, 2]).unwrap());
        e.update(&[4, 1], 7).unwrap();
        let (dims, box_size, cells) = e.capture();
        assert_eq!(
            (dims.as_slice(), box_size.as_slice()),
            (&[6, 4][..], &[3, 2][..])
        );
        let restored = VersionedEngine::<i64>::restore(&dims, &box_size, cells).unwrap();
        assert_eq!(restored.snapshot().box_size(), &[3, 2]);
        assert_eq!(restored.materialize(), e.materialize());
        assert_eq!(restored.cell(&[4, 1]).unwrap(), 48);
    }
}
