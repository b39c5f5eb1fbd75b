//! Exhaustive torn-tail coverage: truncate the log at **every** byte
//! offset of the final record — through the LSN, the header, the
//! coordinates, the delta and every byte of the CRC field, down to a
//! zero-length tail — and require recovery to cleanly cut the tail at
//! the last intact record every single time. No offset may error, lose
//! an earlier record, or fabricate a partial one.

use rps_core::RpsEngine;
use rps_storage::{
    decode_records, encode_snapshot, DurableEngine, StorageError, Wal, WalRecord, WAL_MAGIC,
};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rps-torn-tail-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

/// Builds a log of `full` records and returns its bytes plus the byte
/// length of one record.
fn build_log(name: &str, ndim: usize, full: usize) -> (PathBuf, Vec<u8>, usize) {
    let path = tmp(name);
    let mut wal = Wal::open(&path).unwrap();
    for i in 0..full {
        let coords: Vec<usize> = (0..ndim).map(|d| i + d).collect();
        wal.append(&coords, (i as i64 + 1) * 3).unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    let rec_len = 8 + 4 + 4 * ndim + 8 + 4;
    assert_eq!(bytes.len(), 8 + full * rec_len, "framing size sanity");
    (path, bytes, rec_len)
}

#[test]
fn every_byte_offset_of_the_final_record_recovers_cleanly() {
    for ndim in [1usize, 2, 3] {
        let full = 3;
        let (_, bytes, rec_len) = build_log(&format!("sweep-{ndim}.wal"), ndim, full);
        let intact_prefix = 8 + (full - 1) * rec_len;
        // Cut at every byte of the final record: 0 extra bytes (clean
        // boundary) through rec_len-1 (one byte short — mid-CRC).
        for extra in 0..rec_len {
            let cut = intact_prefix + extra;
            let (records, valid) = decode_records(&bytes[..cut]);
            assert_eq!(
                records.len(),
                full - 1,
                "cut {extra} bytes into the final {ndim}-d record: \
                 the {} intact records must survive, no more, no fewer",
                full - 1
            );
            assert_eq!(
                valid, intact_prefix as u64,
                "valid length must stop at the last intact record (cut at +{extra})"
            );
            for (i, rec) in records.iter().enumerate() {
                assert_eq!(rec.lsn, i as u64 + 1);
                assert_eq!(rec.delta, (i as i64 + 1) * 3);
            }
        }
        // The full log decodes completely.
        let (records, valid) = decode_records(&bytes);
        assert_eq!(records.len(), full);
        assert_eq!(valid, bytes.len() as u64);
    }
}

#[test]
fn every_byte_offset_of_a_final_range_record_recovers_cleanly() {
    // Same exhaustive sweep for the doubled-coordinate range framing:
    // point, point, range — then cut at every byte of the range record.
    for ndim in [1usize, 2, 3] {
        let path = tmp(&format!("range-sweep-{ndim}.wal"));
        let point_len = 8 + 4 + 4 * ndim + 8 + 4;
        let range_len = 8 + 4 + 8 * ndim + 8 + 4;
        {
            let mut wal = Wal::open(&path).unwrap();
            let coords: Vec<usize> = (0..ndim).collect();
            wal.append(&coords, 3).unwrap();
            wal.append(&coords, 6).unwrap();
            let hi: Vec<usize> = (0..ndim).map(|d| d + 4).collect();
            wal.append_range(&coords, &hi, 9).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            bytes.len(),
            8 + 2 * point_len + range_len,
            "framing size sanity"
        );
        let intact_prefix = 8 + 2 * point_len;
        for extra in 0..range_len {
            let cut = intact_prefix + extra;
            let (records, valid) = decode_records(&bytes[..cut]);
            assert_eq!(
                records.len(),
                2,
                "cut {extra} bytes into the final {ndim}-d range record"
            );
            assert_eq!(valid, intact_prefix as u64);
            assert!(records.iter().all(|r| r.hi.is_none()));
        }
        // The full log decodes the range record intact.
        let (records, valid) = decode_records(&bytes);
        assert_eq!(records.len(), 3);
        assert_eq!(valid, bytes.len() as u64);
        let last = records.last().unwrap();
        assert_eq!(last.coords, (0..ndim).collect::<Vec<_>>());
        assert_eq!(last.hi, Some((0..ndim).map(|d| d + 4).collect::<Vec<_>>()));
        assert_eq!(last.delta, 9);
    }
}

#[test]
fn every_crc_byte_offset_via_real_file_repair() {
    // The same sweep through the CRC field specifically, but through the
    // file-based repair path (truncate file → Wal::repair → reopen →
    // append) instead of the pure decoder.
    let ndim = 2;
    let rec_len = 8 + 4 + 4 * ndim + 8 + 4;
    for missing in 1..=4usize {
        let name = format!("crc-{missing}.wal");
        let (path, bytes, _) = build_log(&name, ndim, 2);
        // Chop `missing` bytes off the end: the cut lands inside the CRC.
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len((bytes.len() - missing) as u64)
            .unwrap();
        let records = Wal::repair(&path).unwrap();
        assert_eq!(records.len(), 1, "cut {missing} bytes into the CRC");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            (8 + rec_len) as u64,
            "repair must truncate to the intact prefix"
        );
        // The repaired log is appendable and the new record replays.
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.append(&[9, 9], 99).unwrap(), 2, "LSN continues");
        let (records, _) = Wal::replay(&path).unwrap();
        assert_eq!(
            records[1],
            WalRecord {
                lsn: 2,
                coords: vec![9, 9],
                hi: None,
                delta: 99
            }
        );
    }
}

#[test]
fn zero_length_tail_and_empty_log() {
    // The degenerate ends of the sweep: a log cut exactly at a record
    // boundary (zero-length tail) and a fully empty log.
    let (path, bytes, rec_len) = build_log("boundary.wal", 2, 2);
    let (records, valid) = decode_records(&bytes[..8 + rec_len]);
    assert_eq!(records.len(), 1);
    assert_eq!(valid, (8 + rec_len) as u64);

    let (records, valid) = decode_records(&[]);
    assert!(records.is_empty());
    assert_eq!(valid, 0);

    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(0)
        .unwrap();
    let records = Wal::repair(&path).unwrap();
    assert!(records.is_empty());
    let mut wal = Wal::open(&path).unwrap();
    assert_eq!(
        wal.append(&[1], 1).unwrap(),
        1,
        "fresh LSNs on an empty log"
    );
}

#[test]
fn tiny_tails_shorter_than_a_header_are_cut() {
    // Tails of 1..12 bytes can't even hold the (lsn, ndim) header; all
    // must be treated as torn, not as a decode error.
    let (_, bytes, rec_len) = build_log("tiny.wal", 1, 1);
    assert_eq!(8 + rec_len, bytes.len());
    for cut in 0..(8 + 12).min(bytes.len()) {
        let (records, valid) = decode_records(&bytes[..cut]);
        assert!(records.is_empty(), "cut {cut}: no record can be intact");
        assert_eq!(valid, 0);
    }
}

#[test]
fn garbage_after_valid_records_does_not_lose_them() {
    // A tail of random garbage (not a truncation — actual junk bytes,
    // e.g. from a torn append of a later record) must leave the intact
    // prefix fully recoverable.
    let (path, bytes, rec_len) = build_log("garbage.wal", 2, 2);
    let mut with_junk = bytes.clone();
    with_junk.extend_from_slice(&[0xAB; 7]);
    std::fs::write(&path, &with_junk).unwrap();
    let records = Wal::repair(&path).unwrap();
    assert_eq!(records.len(), 2);
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        (8 + rec_len * 2) as u64,
        "repair cuts the junk"
    );
}

#[test]
fn every_single_byte_flip_keeps_exactly_the_records_before_it() {
    // Corruption sweep over a mixed point/range log: flip each byte once.
    // A flip inside a record must cut the log right before that record;
    // a flip inside the magic makes the file "not a log", which opening
    // refuses with a typed error and without touching its bytes.
    let path = tmp("flip-sweep.wal");
    {
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&[1, 2], 5).unwrap();
        wal.append_range(&[0, 0], &[3, 7], -2).unwrap();
        wal.append(&[4, 4], 9).unwrap();
        wal.append_range(&[2, 2], &[2, 2], 11).unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    let (all, _) = decode_records(&bytes);
    assert_eq!(all.len(), 4);
    // Record i spans bytes [starts[i], starts[i + 1]).
    let mut starts = vec![WAL_MAGIC.len()];
    for rec in &all {
        starts.push(starts.last().unwrap() + rec.encoded_len());
    }
    assert_eq!(*starts.last().unwrap(), bytes.len());
    for pos in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[pos] ^= 0xA5;
        if pos < WAL_MAGIC.len() {
            std::fs::write(&path, &bad).unwrap();
            assert!(
                matches!(Wal::open(&path), Err(StorageError::Wal { .. })),
                "flip at magic byte {pos} must be refused"
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bad,
                "refused log was modified"
            );
            continue;
        }
        let victim = starts.iter().filter(|&&s| s <= pos).count() - 1;
        let (records, valid) = decode_records(&bad);
        assert_eq!(
            records,
            all[..victim],
            "flip at byte {pos} (record {victim})"
        );
        let intact = if victim == 0 { 0 } else { starts[victim] };
        assert_eq!(valid, intact as u64, "flip at byte {pos}");
    }
}

#[test]
fn a_file_that_is_not_a_log_is_refused_and_left_intact() {
    // Opening a snapshot artifact, or a log without the magic (the shape
    // of a log from before it), used to truncate the whole file as a
    // "torn tail".
    let artifact = encode_snapshot(0, &[4, 4], &[4, 4], &[1; 16]).unwrap();
    let (_, log, _) = build_log("magicless-src.wal", 2, 3);
    let snaps = std::env::temp_dir()
        .join("rps-torn-tail-tests")
        .join("no-snaps");
    for (name, bytes) in [
        ("artifact.wal", artifact),
        ("magicless.wal", log[8..].to_vec()),
    ] {
        let path = tmp(name);
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(Wal::open(&path), Err(StorageError::Wal { .. })),
            "{name}"
        );
        assert!(
            matches!(Wal::repair(&path), Err(StorageError::Wal { .. })),
            "{name}"
        );
        let recovered = DurableEngine::recover(&snaps, &path, || {
            RpsEngine::<i64>::zeros(&[4, 4]).map_err(StorageError::Engine)
        });
        assert!(matches!(recovered, Err(StorageError::Wal { .. })), "{name}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "{name} was modified");
    }
}

#[test]
fn a_torn_first_append_inside_the_magic_is_an_empty_log() {
    for cut in 0..WAL_MAGIC.len() {
        let path = tmp(&format!("torn-magic-{cut}.wal"));
        std::fs::write(&path, &WAL_MAGIC[..cut]).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        assert!(wal.is_empty(), "cut {cut}");
        assert_eq!(
            wal.append(&[3], 7).unwrap(),
            1,
            "fresh LSNs after cut {cut}"
        );
        let (records, _) = Wal::replay(&path).unwrap();
        assert_eq!(records.len(), 1, "cut {cut}");
    }
}

#[test]
fn log_length_counts_record_bytes_not_the_magic() {
    let path = tmp("record-bytes.wal");
    let mut d = DurableEngine::open(RpsEngine::<i64>::zeros(&[4, 4]).unwrap(), &path, 0).unwrap();
    d.update(&[1, 2], 5).unwrap();
    let point_2d = 8 + 4 + 2 * 4 + 8 + 4;
    assert_eq!(d.wal_bytes(), point_2d);
    assert_eq!(d.wal_bytes_since_checkpoint(), point_2d);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), 8 + point_2d);
}
