//! Byte-for-byte pins of the three byte formats: one `RPSSNAP1`
//! artifact, one 2-D WAL point record and one `RPSWIRE1` frame
//! (docs/FORMATS.md, docs/SERVING.md). Each literal was recorded from
//! the encoders while [`rps_storage::crc32`] still folded one byte per
//! table lookup, so these tests also prove that the slicing-by-8 CRC and
//! the one-buffer snapshot encoder moved no byte on disk or on the wire.
//!
//! It lives in `rps-serve` because this is the one crate that sees the
//! storage formats and the wire format together.

use rps_serve::wire::{self, Frame};
use rps_serve::Opcode;
use rps_storage::{
    decode_records, decode_snapshot, encode_snapshot, FaultPlan, SimLogFile, Wal, WAL_MAGIC,
};

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// dims `[2, 3]`, box `[1, 3]`, LSN 7, cells 1..=6.
const SNAPSHOT: &str = "\
525053534e415031\
01000000\
0700000000000000\
02000000\
0200000003000000\
0100000003000000\
f73fee56\
6da40a05\
0100000000000000020000000000000003000000000000000400000000000000\
05000000000000000600000000000000\
f73fee56";

/// A log file holding one point record: LSN 1, cell `[2, 1]`, delta −5.
const WAL_ONE_RECORD: &str = "\
52505357414c3032\
0100000000000000\
02000000\
0200000001000000\
fbffffffffffffff\
fb9b2297";

/// An `update` request for tenant `sales`: cell `[2, 1]`, delta −5.
const WIRE_UPDATE: &str = "\
5250535749524531\
01000000\
03000000\
05000000\
1c000000\
08499627\
73616c6573\
02000000\
0200000000000000\
0100000000000000\
fbffffffffffffff\
4da5cfb8";

#[test]
fn rpssnap1_artifact_bytes_are_pinned() {
    let cells = [1i64, 2, 3, 4, 5, 6];
    let bytes = encode_snapshot(7, &[2, 3], &[1, 3], &cells).unwrap();
    assert_eq!(bytes, unhex(SNAPSHOT));
    let (header, decoded) = decode_snapshot(&bytes).unwrap();
    assert_eq!(
        (header.lsn, header.dims, header.box_size),
        (7, vec![2, 3], vec![1, 3])
    );
    assert_eq!(decoded, cells);
}

#[test]
fn wal_point_record_bytes_are_pinned() {
    let log = SimLogFile::new(FaultPlan::none(), 1);
    let handle = log.handle();
    let (mut wal, _) = Wal::from_log(log).unwrap();
    assert_eq!(wal.append(&[2, 1], -5).unwrap(), 1);
    let bytes = handle.cache();
    assert_eq!(bytes, unhex(WAL_ONE_RECORD));
    assert_eq!(
        bytes.len() - WAL_MAGIC.len(),
        32,
        "a 2-D point record is 32 bytes"
    );
    let (records, valid) = decode_records(&bytes);
    assert_eq!(valid, bytes.len() as u64);
    assert_eq!(
        (
            records[0].lsn,
            records[0].coords.as_slice(),
            records[0].delta
        ),
        (1, &[2usize, 1][..], -5)
    );
}

#[test]
fn rpswire1_frame_bytes_are_pinned() {
    let frame = Frame {
        opcode: Opcode::Update,
        tenant: "sales".to_string(),
        payload: wire::encode_update(&[2, 1], -5),
    };
    let bytes = frame.encode();
    assert_eq!(bytes, unhex(WIRE_UPDATE));
    let read = Frame::read_from(&mut bytes.as_slice(), 1 << 20).unwrap();
    assert_eq!(read, Ok(Some(frame)));
}
