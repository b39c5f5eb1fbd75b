//! A write-ahead log for near-current durability.
//!
//! The paper's motivation is data that "arrives on a daily basis" and
//! must be queryable *now* — but an in-memory overlay and a buffer pool
//! full of dirty pages lose updates on a crash. The WAL closes the gap
//! the standard way: every update is appended (checksummed, with a
//! monotone LSN) to a log before being applied; a checkpoint writes an
//! `RPSSNAP1` snapshot whose header carries the LSN it includes; recovery
//! replays only records newer than that LSN, so a record the snapshot
//! already holds is never applied twice. Nothing trims acknowledged
//! records from the log: it stays the full-replay floor when every
//! snapshot is corrupt.
//!
//! File layout (little-endian): the 8-byte magic [`WAL_MAGIC`]
//! (`"RPSWAL02"`), written in the same append as the first record, then
//! the records back to back:
//!
//! ```text
//! lsn    u64   monotone sequence number, 1-based
//! ndim   u32   1 ..= 16; bit 31 set ⇒ range record
//! coords u32 × ndim          (range: the low corner)
//! hi     u32 × ndim          (range records only: the high corner)
//! delta  i64
//! crc    u32   CRC-32 (IEEE) over the fields above
//! ```
//!
//! Point records apply `delta` at `coords`. Range records (bit 31 of the
//! ndim word set — [`RANGE_FLAG`]) apply `delta` to **every** cell of the
//! axis-aligned box `coords ..= hi`; one record makes an arbitrarily
//! large bulk update atomic under crash recovery, since a record is
//! either wholly intact or cut off with the torn tail.
//!
//! A torn tail (partial final record, or one with a bad checksum) is
//! detected and cut off — exactly what a crash mid-append produces. A
//! file that does not open with the magic is not a torn log but some
//! other file (or a log from before this format): opening it is a typed
//! [`StorageError::Wal`] and its bytes are left alone. Only a strict
//! prefix of the magic — a torn first append — counts as an empty log.
//!
//! The log's byte-level behaviour is abstracted behind [`LogFile`]:
//! [`FsLogFile`] is the real file; the fault-injection
//! [`crate::SimLogFile`] models torn appends, lying fsyncs and crashes
//! for the torture harness. [`Wal`] itself tracks the length of the
//! valid region (`valid_len`) so a failed or torn append can be rolled
//! back instead of leaving garbage that would silently swallow every
//! later record at replay.
//!
//! Durability policy: appends land in the OS page cache; call
//! [`Wal::sync`] to force them to the device (per-append for strict
//! durability, or at interval for group commit).

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::error::StorageError;
use crate::le::LeReader;

/// Magic opening every log file ("RPSWAL02").
pub const WAL_MAGIC: [u8; 8] = *b"RPSWAL02";

/// The dimension limit shared with the snapshot format.
const MAX_NDIM: usize = 16;

/// Bit 31 of the record's ndim word: set on range records, whose coord
/// section holds two corners (`lo` then `hi`) instead of one cell.
pub const RANGE_FLAG: u32 = 0x8000_0000;

/// One logged update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotone sequence number (1-based).
    pub lsn: u64,
    /// Target cell (point records) or the low corner (range records).
    pub coords: Vec<usize>,
    /// High corner of a range record: the delta applies to every cell of
    /// `coords ..= hi` inclusive. `None` for point records.
    pub hi: Option<Vec<usize>>,
    /// Applied delta.
    pub delta: i64,
}

impl WalRecord {
    /// Encoded size of this record in bytes.
    pub fn encoded_len(&self) -> usize {
        let sides = if self.hi.is_some() { 2 } else { 1 };
        8 + 4 + sides * self.coords.len() * 4 + 8 + 4
    }
}

/// Length of a log file holding `records` bytes of records: the magic is
/// there exactly when a record is.
fn file_len(records: u64) -> u64 {
    if records == 0 {
        0
    } else {
        WAL_MAGIC.len() as u64 + records
    }
}

/// Appends the framed `rec` to `buf`.
fn encode_into(rec: &WalRecord, buf: &mut Vec<u8>) {
    let start = buf.len();
    buf.extend_from_slice(&rec.lsn.to_le_bytes());
    let mut ndim_word = rec.coords.len() as u32;
    if rec.hi.is_some() {
        ndim_word |= RANGE_FLAG;
    }
    buf.extend_from_slice(&ndim_word.to_le_bytes());
    for &c in &rec.coords {
        buf.extend_from_slice(&(c as u32).to_le_bytes());
    }
    if let Some(hi) = &rec.hi {
        for &c in hi {
            buf.extend_from_slice(&(c as u32).to_le_bytes());
        }
    }
    buf.extend_from_slice(&rec.delta.to_le_bytes());
    let crc = crc32(&buf[start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Decodes every intact record of a log image, stopping at the first
/// torn or corrupt record. Returns the records and how many bytes of the
/// image were valid (so callers may truncate the tail): 0 when no record
/// is intact, else the magic plus the intact records.
///
/// An image that does not open with [`WAL_MAGIC`] holds no records;
/// [`decode_log`] and every path that truncates ([`Wal::open`],
/// [`Wal::repair`]) refuse it with a typed error instead.
///
/// This is the single source of truth for recovery: [`Wal::replay`],
/// [`Wal::repair`] and the torture harness's crash-state oracle all go
/// through it, so "what survives a crash" is defined in exactly one
/// place.
pub fn decode_records(bytes: &[u8]) -> (Vec<WalRecord>, u64) {
    let mut records: Vec<WalRecord> = Vec::new();
    let Some(body) = bytes.strip_prefix(&WAL_MAGIC[..]) else {
        return (records, 0);
    };
    let mut r = LeReader::new(body);
    while let Some(rec) = next_record(&mut r, records.last().map(|last| last.lsn)) {
        records.push(rec);
    }
    (records, file_len(r.pos() as u64))
}

/// Decodes the record at `r`, or `None` when it is torn or corrupt, or
/// does not follow `prev_lsn`: the end of the intact log. Consumes the
/// record only when it decodes.
fn next_record(r: &mut LeReader<'_>, prev_lsn: Option<u64>) -> Option<WalRecord> {
    // Two cursors over the record: `fields` reads it field by field,
    // `framed` takes the CRC-covered bytes and the CRC behind them.
    let mut fields = r.clone();
    let lsn = fields.u64()?;
    let ndim_word = fields.u32()?;
    let is_range = ndim_word & RANGE_FLAG != 0;
    let ndim = (ndim_word & !RANGE_FLAG) as usize;
    if ndim == 0 || ndim > MAX_NDIM {
        return None; // corrupt header: treat as torn tail
    }
    let sides = if is_range { 2 } else { 1 };
    let mut framed = r.clone();
    let covered = framed.take(8 + 4 + sides * ndim * 4 + 8)?;
    if framed.u32()? != crc32(covered) {
        return None;
    }
    // LSNs must be strictly increasing; a regression means the bytes are
    // stale garbage after an unsynced truncation.
    if prev_lsn.is_some_and(|last| lsn <= last) {
        return None;
    }
    let coords: Vec<usize> = fields.u32s(ndim)?;
    let hi = if is_range {
        let hi: Vec<usize> = fields.u32s(ndim)?;
        // An inverted box would panic Region construction at replay;
        // treat it like any other corrupt header.
        if coords.iter().zip(&hi).any(|(l, h)| l > h) {
            return None;
        }
        Some(hi)
    } else {
        None
    };
    let delta = fields.i64()?;
    *r = framed;
    Some(WalRecord {
        lsn,
        coords,
        hi,
        delta,
    })
}

/// [`decode_records`] behind the magic check: a log image that is not an
/// `RPSWAL02` log is a typed [`StorageError::Wal`], never "all torn". An
/// empty image or a strict prefix of the magic (a torn first append) is
/// an empty log.
pub fn decode_log(bytes: &[u8]) -> Result<(Vec<WalRecord>, u64), StorageError> {
    let n = bytes.len().min(WAL_MAGIC.len());
    if bytes[..n] != WAL_MAGIC[..n] {
        return Err(StorageError::Wal {
            detail: "not an RPSWAL02 log (bad magic); left untouched".into(),
        });
    }
    Ok(decode_records(bytes))
}

/// Byte-level log storage: append-only writes plus truncation, behind
/// which the WAL's framing and recovery logic is device-agnostic.
pub trait LogFile {
    /// Appends `bytes` at the end of the log. On error nothing, some
    /// prefix, or all of `bytes` may have landed — [`Wal`] rolls the
    /// tail back via [`LogFile::truncate`].
    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError>;
    /// Forces appended bytes to stable storage.
    fn sync(&mut self) -> Result<(), StorageError>;
    /// Truncates the log to `len` bytes.
    fn truncate(&mut self, len: u64) -> Result<(), StorageError>;
    /// Current log length in bytes.
    fn len(&self) -> Result<u64, StorageError>;
    /// Whether the log is empty.
    fn is_empty(&self) -> Result<bool, StorageError> {
        Ok(self.len()? == 0)
    }
    /// Reads the whole log into memory (recovery path).
    fn read_all(&mut self) -> Result<Vec<u8>, StorageError>;
}

/// The real-file [`LogFile`].
#[derive(Debug)]
pub struct FsLogFile {
    file: File,
    path: PathBuf,
}

impl FsLogFile {
    /// Opens (creating if absent) the log file at `path`, cursor at the
    /// end.
    pub fn open(path: &Path) -> Result<Self, StorageError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StorageError::io("open WAL file", e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| StorageError::io("seek WAL file", e))?;
        Ok(FsLogFile {
            file,
            path: path.to_path_buf(),
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl LogFile for FsLogFile {
    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.file
            .write_all(bytes)
            .map_err(|e| StorageError::io("append WAL record", e))
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.file
            .sync_data()
            .map_err(|e| StorageError::io("sync WAL", e))
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.file
            .set_len(len)
            .map_err(|e| StorageError::io("truncate WAL", e))?;
        self.file
            .seek(SeekFrom::Start(len))
            .map_err(|e| StorageError::io("seek WAL file", e))?;
        Ok(())
    }

    fn len(&self) -> Result<u64, StorageError> {
        Ok(self
            .file
            .metadata()
            .map_err(|e| StorageError::io("stat WAL file", e))?
            .len())
    }

    fn read_all(&mut self) -> Result<Vec<u8>, StorageError> {
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| StorageError::io("seek WAL file", e))?;
        let mut bytes = Vec::new();
        self.file
            .read_to_end(&mut bytes)
            .map_err(|e| StorageError::io("read WAL file", e))?;
        Ok(bytes)
    }
}

/// An append-only update log over any [`LogFile`].
#[derive(Debug)]
pub struct Wal<L: LogFile = FsLogFile> {
    log: L,
    next_lsn: u64,
    /// Bytes of intact records in the log (the magic excluded). Appends
    /// extend it only on success; a failed append truncates back to it,
    /// so garbage from a torn write can never sit *between* valid
    /// records.
    valid_len: u64,
    /// Set when a failed append could not be rolled back: the tail may
    /// hold garbage that would swallow later appends at replay, so the
    /// log refuses further writes.
    poisoned: bool,
}

impl Wal<FsLogFile> {
    /// Opens (creating if absent) the log at `path`, appending after the
    /// last *intact* record; the next LSN continues from there.
    ///
    /// Any torn tail left by a crash is truncated first — otherwise new
    /// appends would land behind garbage that replay treats as the end
    /// of the log, silently losing them. A file that is not an
    /// `RPSWAL02` log is refused ([`StorageError::Wal`]) and left as is.
    pub fn open(path: &Path) -> Result<Wal<FsLogFile>, StorageError> {
        let (wal, _) = Wal::from_log(FsLogFile::open(path)?)?;
        Ok(wal)
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Reads every intact record from the start of the log at `path`,
    /// stopping at the first torn or corrupt record (returning how many
    /// bytes were valid, so callers may truncate the tail). Read-only,
    /// so it follows [`decode_records`]: a file without the magic holds
    /// no records.
    pub fn replay(path: &Path) -> Result<(Vec<WalRecord>, u64), StorageError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
            Err(e) => return Err(StorageError::io("read WAL file", e)),
        };
        Ok(decode_records(&bytes))
    }

    /// Drops the torn tail after a crash: truncates the log to its last
    /// intact record. Refuses a file that is not an `RPSWAL02` log.
    pub fn repair(path: &Path) -> Result<Vec<WalRecord>, StorageError> {
        if !path.exists() {
            return Ok(Vec::new());
        }
        let (_, records) = Wal::from_log(FsLogFile::open(path)?)?;
        Ok(records)
    }
}

impl<L: LogFile> Wal<L> {
    /// Wraps an opened [`LogFile`], truncating any torn tail and
    /// returning the intact records found (recovery input). A log that
    /// is not an `RPSWAL02` log is refused before anything is truncated.
    pub fn from_log(mut log: L) -> Result<(Wal<L>, Vec<WalRecord>), StorageError> {
        let bytes = log.read_all()?;
        let (records, valid) = decode_log(&bytes)?;
        if valid < bytes.len() as u64 {
            log.truncate(valid)?;
            crate::obs::storage().wal_torn_trims.inc();
        }
        let next_lsn = records.last().map_or(1, |r| r.lsn + 1);
        Ok((
            Wal {
                log,
                next_lsn,
                valid_len: valid.saturating_sub(WAL_MAGIC.len() as u64),
                poisoned: false,
            },
            records,
        ))
    }

    /// Appends one update record and returns its LSN.
    ///
    /// Rejects records the format cannot represent (more than 16
    /// dimensions, or coordinates beyond `u32::MAX`) instead of writing
    /// something replay would later misread as corruption.
    ///
    /// On an append failure the torn tail is truncated away, so the log
    /// stays appendable; if that rollback itself fails, the log is
    /// poisoned and refuses further appends (garbage between records
    /// would silently swallow them at replay).
    pub fn append(&mut self, coords: &[usize], delta: i64) -> Result<u64, StorageError> {
        self.check_corner(coords)?;
        self.append_record(&WalRecord {
            lsn: self.next_lsn,
            coords: coords.to_vec(),
            hi: None,
            delta,
        })
    }

    /// Appends one **range** record — `delta` applied to every cell of
    /// the box `lo ..= hi` — and returns its LSN. Same representability
    /// rules as [`Self::append`], plus `lo[i] <= hi[i]` componentwise and
    /// matching dimensionality (an inverted or ragged box would be
    /// unreplayable).
    pub fn append_range(
        &mut self,
        lo: &[usize],
        hi: &[usize],
        delta: i64,
    ) -> Result<u64, StorageError> {
        self.check_corner(lo)?;
        self.check_corner(hi)?;
        if lo.len() != hi.len() {
            return Err(StorageError::Wal {
                detail: format!(
                    "range record corners disagree on dimensionality: {} vs {}",
                    lo.len(),
                    hi.len()
                ),
            });
        }
        if let Some((l, h)) = lo.iter().zip(hi).find(|(l, h)| l > h) {
            return Err(StorageError::Wal {
                detail: format!("range record has inverted box: lo {l} > hi {h}"),
            });
        }
        self.append_record(&WalRecord {
            lsn: self.next_lsn,
            coords: lo.to_vec(),
            hi: Some(hi.to_vec()),
            delta,
        })
    }

    fn check_corner(&self, coords: &[usize]) -> Result<(), StorageError> {
        if self.poisoned {
            return Err(StorageError::Wal {
                detail: "log poisoned by an unrollbackable torn append".into(),
            });
        }
        if coords.is_empty() || coords.len() > MAX_NDIM {
            return Err(StorageError::Wal {
                detail: format!(
                    "WAL records support 1..={MAX_NDIM} dimensions, got {}",
                    coords.len()
                ),
            });
        }
        if let Some(&c) = coords.iter().find(|&&c| c > u32::MAX as usize) {
            return Err(StorageError::Wal {
                detail: format!("coordinate {c} exceeds the WAL's u32 coordinate range"),
            });
        }
        Ok(())
    }

    fn append_record(&mut self, rec: &WalRecord) -> Result<u64, StorageError> {
        // The magic rides in the first record's append, so a torn first
        // append leaves at most a prefix of it: an empty log.
        let mut bytes = Vec::with_capacity(WAL_MAGIC.len() + rec.encoded_len());
        if self.valid_len == 0 {
            bytes.extend_from_slice(&WAL_MAGIC);
        }
        encode_into(rec, &mut bytes);
        let m = crate::obs::storage();
        m.wal_appends.inc();
        let sw = rps_obs::Stopwatch::start();
        match self.log.append(&bytes) {
            Ok(()) => {
                sw.record(&m.wal_append_ns);
                self.valid_len += rec.encoded_len() as u64;
                self.next_lsn += 1;
                Ok(rec.lsn)
            }
            Err(e) => {
                m.wal_append_failures.inc();
                // The failed append may have landed a partial prefix;
                // cut it off so the next append starts at a record
                // boundary.
                m.wal_torn_trims.inc();
                if self.log.truncate(file_len(self.valid_len)).is_err() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Rolls back every record appended since [`Self::len`] read
    /// `prev_len` (used when a later append of the same write or a
    /// required post-append sync fails: leaving the records in the log
    /// would let recovery apply a write the caller saw fail).
    pub fn rollback_last(&mut self, prev_len: u64, prev_next_lsn: u64) -> Result<(), StorageError> {
        crate::obs::storage().wal_rollbacks.inc();
        if self.log.truncate(file_len(prev_len)).is_err() {
            self.poisoned = true;
            return Err(StorageError::Wal {
                detail: "rollback truncation failed; log poisoned".into(),
            });
        }
        self.valid_len = prev_len;
        self.next_lsn = prev_next_lsn;
        Ok(())
    }

    /// Forces appended records to the device (`fdatasync`). Call after
    /// each append for strict durability, or at interval for group
    /// commit; without it, records survive a process crash but not a
    /// power failure.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        let m = crate::obs::storage();
        m.wal_fsyncs.inc();
        let sw = rps_obs::Stopwatch::start();
        let out = self.log.sync();
        if out.is_ok() {
            sw.record(&m.wal_fsync_ns);
        } else {
            m.wal_fsync_failures.inc();
        }
        out
    }

    /// The LSN of the most recently appended record (0 when none).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Raises the LSN counter to at least `lsn + 1`.
    ///
    /// The counter lives in memory and is re-derived from surviving
    /// records at [`Self::open`]; when the log lost records a snapshot
    /// already holds (or was replaced by an empty file), it would restart
    /// LSNs *below* the snapshot's LSN, and recovery's `> snapshot_lsn`
    /// filter would silently discard every subsequent update.
    /// [`crate::DurableEngine`] restores the floor through this method
    /// when it recovers from a snapshot.
    pub fn ensure_lsn_after(&mut self, lsn: u64) {
        if self.next_lsn <= lsn {
            self.next_lsn = lsn + 1;
        }
    }

    /// Bytes of intact records currently in the log, the 8-byte magic
    /// excluded.
    pub fn len(&self) -> u64 {
        self.valid_len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.valid_len == 0
    }

    /// The underlying log file.
    pub fn log_mut(&mut self) -> &mut L {
        &mut self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rps-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_and_replay_with_lsns() {
        let path = tmp("basic.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            assert_eq!(wal.append(&[1, 2], 5).unwrap(), 1);
            assert_eq!(wal.append(&[3, 4], -7).unwrap(), 2);
            assert_eq!(wal.last_lsn(), 2);
        }
        let (recs, _) = Wal::replay(&path).unwrap();
        assert_eq!(
            recs,
            vec![
                WalRecord {
                    lsn: 1,
                    coords: vec![1, 2],
                    hi: None,
                    delta: 5
                },
                WalRecord {
                    lsn: 2,
                    coords: vec![3, 4],
                    hi: None,
                    delta: -7
                },
            ]
        );
    }

    #[test]
    fn lsns_continue_across_reopen() {
        let path = tmp("reopen.wal");
        assert_eq!(Wal::open(&path).unwrap().append(&[0], 1).unwrap(), 1);
        assert_eq!(Wal::open(&path).unwrap().append(&[1], 2).unwrap(), 2);
        let (recs, _) = Wal::replay(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].lsn, 2);
    }

    #[test]
    fn torn_tail_is_cut() {
        let path = tmp("torn.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&[5, 6], 11).unwrap();
            wal.append(&[7, 8], 13).unwrap();
        }
        // Simulate a crash mid-append: chop the last 5 bytes.
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        let recs = Wal::repair(&path).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].coords, vec![5, 6]);
        // After repair the log is clean and appendable again.
        Wal::open(&path).unwrap().append(&[9, 9], 1).unwrap();
        let (recs, _) = Wal::replay(&path).unwrap();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let path = tmp("corrupt.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&[1], 1).unwrap();
            wal.append(&[2], 2).unwrap();
        }
        // Flip a byte inside the second record.
        let mut bytes = std::fs::read(&path).unwrap();
        let first_len = 8 + 4 + 4 + 8 + 4;
        bytes[WAL_MAGIC.len() + first_len + 14] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (recs, _) = Wal::replay(&path).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn rejects_unrepresentable_records() {
        let path = tmp("reject.wal");
        let mut wal = Wal::open(&path).unwrap();
        // Too many dimensions.
        let too_many = vec![0usize; 17];
        assert!(wal.append(&too_many, 1).is_err());
        // Coordinate beyond u32.
        if usize::BITS > 32 {
            assert!(wal.append(&[u32::MAX as usize + 1], 1).is_err());
        }
        // Empty coords.
        assert!(wal.append(&[], 1).is_err());
        // Nothing was written by the failed appends.
        assert!(wal.is_empty());
        assert_eq!(wal.last_lsn(), 0);
    }

    #[test]
    fn missing_file_is_empty() {
        let path = tmp("absent.wal");
        let _ = std::fs::remove_file(&path);
        let (recs, valid) = Wal::replay(&path).unwrap();
        assert!(recs.is_empty());
        assert_eq!(valid, 0);
    }

    #[test]
    fn open_after_torn_tail_keeps_new_appends_readable() {
        // Regression (found in review): without truncating the torn tail
        // at open, new appends land after garbage and replay never
        // reaches them.
        let path = tmp("torn-open.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&[1], 10).unwrap();
            wal.append(&[2], 20).unwrap();
        }
        // Crash tears the second record.
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        // Plain open (no explicit repair), then append.
        {
            let mut wal = Wal::open(&path).unwrap();
            assert_eq!(wal.last_lsn(), 1, "only the intact record counts");
            wal.append(&[3], 30).unwrap();
        }
        let (recs, _) = Wal::replay(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].coords, vec![3]);
        assert_eq!(recs[1].delta, 30);
    }

    #[test]
    fn lsn_floor_survives_truncate_and_reopen() {
        // Regression (found in review): the log loses records a snapshot
        // at LSN 2 holds, the process restarts, and the empty log
        // restarts LSNs at 1 — below the snapshot LSN — unless the
        // caller restores the floor.
        let path = tmp("floor.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&[1], 1).unwrap();
            wal.append(&[2], 2).unwrap();
        }
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(0)
            .unwrap();
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.last_lsn(), 0, "fresh counter from an empty log");
        wal.ensure_lsn_after(2);
        assert_eq!(wal.append(&[3], 3).unwrap(), 3, "must not reuse LSN ≤ 2");
    }

    #[test]
    fn sync_is_callable() {
        let path = tmp("sync.wal");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&[1], 1).unwrap();
        wal.sync().unwrap();
        let (recs, _) = Wal::replay(&path).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn range_records_round_trip_interleaved_with_points() {
        let path = tmp("range.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            assert_eq!(wal.append(&[1, 2], 5).unwrap(), 1);
            assert_eq!(wal.append_range(&[0, 0], &[3, 7], -2).unwrap(), 2);
            assert_eq!(wal.append(&[4, 4], 9).unwrap(), 3);
            assert_eq!(wal.append_range(&[2, 2], &[2, 2], 11).unwrap(), 4);
        }
        let (recs, _) = Wal::replay(&path).unwrap();
        assert_eq!(
            recs,
            vec![
                WalRecord {
                    lsn: 1,
                    coords: vec![1, 2],
                    hi: None,
                    delta: 5
                },
                WalRecord {
                    lsn: 2,
                    coords: vec![0, 0],
                    hi: Some(vec![3, 7]),
                    delta: -2
                },
                WalRecord {
                    lsn: 3,
                    coords: vec![4, 4],
                    hi: None,
                    delta: 9
                },
                WalRecord {
                    lsn: 4,
                    coords: vec![2, 2],
                    hi: Some(vec![2, 2]),
                    delta: 11
                },
            ]
        );
    }

    #[test]
    fn torn_range_record_tail_is_cut() {
        let path = tmp("range-torn.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&[1], 1).unwrap();
            wal.append_range(&[0], &[9], 2).unwrap();
        }
        // Crash mid-append: tear into the range record's hi corner.
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 14)
            .unwrap();
        let recs = Wal::repair(&path).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].hi, None);
        // Clean and appendable again; the next range record replays.
        Wal::open(&path)
            .unwrap()
            .append_range(&[2], &[5], 7)
            .unwrap();
        let (recs, _) = Wal::replay(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].hi, Some(vec![5]));
    }

    #[test]
    fn rejects_unrepresentable_range_records() {
        let path = tmp("range-reject.wal");
        let mut wal = Wal::open(&path).unwrap();
        // Inverted box.
        assert!(wal.append_range(&[5, 0], &[3, 9], 1).is_err());
        // Ragged corners.
        assert!(wal.append_range(&[1, 1], &[2], 1).is_err());
        // Too many dimensions.
        let many = vec![0usize; 17];
        assert!(wal.append_range(&many, &many, 1).is_err());
        // Coordinate beyond u32.
        if usize::BITS > 32 {
            assert!(wal.append_range(&[0], &[u32::MAX as usize + 1], 1).is_err());
        }
        assert!(wal.is_empty());
        assert_eq!(wal.last_lsn(), 0);
    }

    #[test]
    fn corrupt_inverted_range_box_stops_replay() {
        // A bit flip inside a range record's corners that still passed
        // the CRC would be caught by decode's lo <= hi check; simulate by
        // hand-encoding an inverted box with a valid checksum.
        let path = tmp("range-inverted.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&[1], 1).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mut bad = Vec::new();
        bad.extend_from_slice(&2u64.to_le_bytes());
        bad.extend_from_slice(&(1u32 | RANGE_FLAG).to_le_bytes());
        bad.extend_from_slice(&9u32.to_le_bytes()); // lo = 9
        bad.extend_from_slice(&3u32.to_le_bytes()); // hi = 3 < lo
        bad.extend_from_slice(&1i64.to_le_bytes());
        let crc = crc32(&bad);
        bad.extend_from_slice(&crc.to_le_bytes());
        bytes.extend_from_slice(&bad);
        std::fs::write(&path, &bytes).unwrap();
        let (recs, valid) = Wal::replay(&path).unwrap();
        assert_eq!(recs.len(), 1, "inverted box must be treated as torn");
        assert!(valid < bytes.len() as u64);
    }

    #[test]
    fn decode_records_matches_file_replay() {
        let path = tmp("decode.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&[4, 2], 6).unwrap();
            wal.append(&[1, 0], -3).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let (via_bytes, valid) = decode_records(&bytes);
        let (via_file, valid_file) = Wal::replay(&path).unwrap();
        assert_eq!(via_bytes, via_file);
        assert_eq!(valid, valid_file);
        assert_eq!(valid, bytes.len() as u64);
    }
}
