//! Every decoder of bytes from outside the process, fed noise and valid
//! encodings with one edit (a byte overwritten, a cut, bytes appended):
//! the nine `RPSWIRE1` payload decoders, `Frame::read_from` over those
//! bytes sealed into a valid frame, `decode_log`/`decode_records` and
//! `peek_header`/`decode_snapshot`. None may panic, and whatever decodes
//! must re-encode to the bytes it consumed. Every count or length field
//! past its cap, up to its maximum, gets its typed rejection.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::Index;
use rps_serve::wire::{self, Frame, RejectCode, TenantStats, WireError};
use rps_storage::SnapshotCheckFailed::Geometry;
use rps_storage::{crc32, decode_log, decode_records, decode_snapshot, encode_snapshot};
use rps_storage::{peek_header, FaultPlan, SimLogFile, Wal, WalRecord, RANGE_FLAG, WAL_MAGIC};

/// `(kind, at, byte, tail)`: keep, overwrite a byte, cut, or append.
type Edit = (u8, Index, u8, Vec<u8>);

fn edit() -> impl Strategy<Value = Edit> {
    (0u8..4, any::<Index>(), any::<u8>(), vec(any::<u8>(), 1..12))
}

fn apply((kind, at, byte, tail): &Edit, mut bytes: Vec<u8>) -> Vec<u8> {
    let n = bytes.len();
    match kind {
        1 if n > 0 => bytes[at.index(n)] = *byte,
        2 => bytes.truncate(at.index(n + 1)),
        3 => bytes.extend_from_slice(tail),
        _ => {}
    }
    bytes
}

/// A frame header declaring the two lengths, sealed by its CRC, then
/// `body` and the body CRC.
fn frame(opcode: u32, tenant_len: u32, payload_len: u32, body: &[u8]) -> Vec<u8> {
    let mut out = wire::WIRE_MAGIC.to_vec();
    for field in [wire::WIRE_VERSION, opcode, tenant_len, payload_len] {
        out.extend(field.to_le_bytes());
    }
    out.extend(crc32(&out).to_le_bytes());
    out.extend_from_slice(body);
    out.extend(crc32(body).to_le_bytes());
    out
}

fn read_frame(bytes: &[u8]) -> (Result<Option<Frame>, WireError>, usize) {
    let mut r = bytes;
    let got = Frame::read_from(&mut r, wire::DEFAULT_MAX_FRAME_BYTES).unwrap();
    (got, bytes.len() - r.len())
}

/// The log [`Wal`] writes for `records`, each at its own LSN.
fn log_of(records: &[WalRecord]) -> Vec<u8> {
    let log = SimLogFile::new(FaultPlan::none(), 1);
    let handle = log.handle();
    let (mut wal, _) = Wal::from_log(log).unwrap();
    for rec in records {
        wal.ensure_lsn_after(rec.lsn.saturating_sub(1));
        let lsn = match &rec.hi {
            None => wal.append(&rec.coords, rec.delta),
            Some(hi) => wal.append_range(&rec.coords, hi, rec.delta),
        };
        assert_eq!(lsn.unwrap(), rec.lsn);
    }
    handle.cache()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wire_decoders_reject_or_round_trip(
        corners in vec((any::<usize>(), any::<usize>()), 0..4),
        (delta, code, message) in (any::<i64>(), 0u32..20, vec(0u8..0x90, 0..6)),
        (opcode, tenant) in (0u32..0x100, vec(0u8..0x90, 0..6)),
        (e, noise) in (edit(), vec(any::<u8>(), 0..96)),
    ) {
        let (lo, hi): (Vec<usize>, Vec<usize>) = corners.into_iter().unzip();
        let dims = hi.clone();
        let stats = TenantStats { version: 1, update_count: 2, last_checkpoint_lsn: 3, dims };
        let code = RejectCode::from_u32(code).unwrap_or(RejectCode::Internal);
        let valid = [
            wire::encode_query(&lo, &hi),
            wire::encode_query_many(&[(lo.clone(), hi.clone()), (hi.clone(), lo.clone())]),
            wire::encode_update(&lo, delta),
            wire::encode_batch_update(&[(lo.clone(), delta), (hi.clone(), !delta)]),
            wire::encode_create(&lo),
            wire::encode_sums(&[delta, !delta]),
            wire::encode_u64(delta as u64),
            wire::encode_stats(&stats),
            wire::encode_error(code, &String::from_utf8_lossy(&message)),
        ];
        // A known opcode half the time; the tenant may not be UTF-8.
        let known = [1, 2, 3, 4, 5, 6, 7, 8, 0x81, 0x82, 0x83, 0x84, 0xFF];
        let opcode = if opcode < 0x80 { known[opcode as usize % known.len()] } else { opcode };
        // Every decoder sees every encoding, edited, and the noise.
        for b in valid.into_iter().map(|v| apply(&e, v)).chain([noise]) {
            let again = [
                wire::decode_query(&b).map(|(lo, hi)| wire::encode_query(&lo, &hi)),
                wire::decode_query_many(&b).map(|regions| wire::encode_query_many(&regions)),
                wire::decode_update(&b).map(|(coords, d)| wire::encode_update(&coords, d)),
                wire::decode_batch_update(&b).map(|batch| wire::encode_batch_update(&batch)),
                wire::decode_create(&b).map(|dims| wire::encode_create(&dims)),
                wire::decode_sums(&b).map(|sums| wire::encode_sums(&sums)),
                wire::decode_u64(&b).map(wire::encode_u64),
                wire::decode_stats(&b).map(|stats| wire::encode_stats(&stats)),
                wire::decode_error(&b).map(|(code, msg)| wire::encode_error(code, &msg)),
            ];
            for encoded in again.into_iter().flatten() {
                prop_assert_eq!(&encoded, &b);
            }
            // The same bytes sealed into a frame, as is and edited.
            let body = [&tenant[..], &b].concat();
            let sealed = frame(opcode, tenant.len() as u32, b.len() as u32, &body);
            for bytes in [apply(&e, sealed.clone()), sealed, b] {
                match read_frame(&bytes) {
                    (Ok(Some(frame)), n) => prop_assert_eq!(frame.encode(), &bytes[..n]),
                    (Ok(None), _) => prop_assert!(bytes.is_empty()),
                    (Err(_), _) => {}
                }
            }
        }
    }

    #[test]
    fn storage_decoders_reject_or_round_trip(
        records in vec((vec(any::<u32>(), 1..4), any::<bool>(), any::<i64>()), 0..5),
        (dims, lsn) in (vec(1usize..5, 1..4), any::<u64>()),
        (e, noise) in (edit(), vec(any::<u8>(), 0..96)),
    ) {
        let records: Vec<WalRecord> = (1..).zip(records).map(|(lsn, (coords, range, delta))| {
            let hi = range.then(|| coords.iter().map(|&c| (c | 0xFF) as usize).collect());
            WalRecord { lsn, coords: coords.into_iter().map(|c| c as usize).collect(), hi, delta }
        }).collect();
        let magic_noise = [&WAL_MAGIC[..], &noise].concat();
        for bytes in [apply(&e, log_of(&records)), noise.clone(), magic_noise] {
            let (decoded, valid) = decode_records(&bytes);
            prop_assert_eq!(log_of(&decoded), &bytes[..valid as usize]);
            let n = bytes.len().min(WAL_MAGIC.len());
            match decode_log(&bytes) {
                Ok(got) => prop_assert_eq!(got, (decoded, valid)),
                Err(_) => prop_assert_ne!(&bytes[..n], &WAL_MAGIC[..n]),
            }
        }
        let cells: Vec<i64> = (0..dims.iter().product::<usize>() as i64).collect();
        let box_size: Vec<usize> = dims.iter().map(|d| d.div_ceil(2)).collect();
        let snapshot = encode_snapshot(lsn, &dims, &box_size, &cells).unwrap();
        for bytes in [apply(&e, snapshot), noise] {
            match (peek_header(&bytes), decode_snapshot(&bytes)) {
                (peeked, Ok((h, cells))) => {
                    prop_assert_eq!(peeked, Ok(h.clone()));
                    let again = encode_snapshot(h.lsn, &h.dims, &h.box_size, &cells).unwrap();
                    prop_assert_eq!(again, &bytes[..h.total_len()]);
                }
                // The header is checked first, so its failure is the one reported.
                (Err(first), Err(check)) => prop_assert_eq!(first, check),
                (Ok(_), Err(_)) => {}
            }
        }
    }

    #[test]
    fn fields_past_their_caps_are_rejected(
        (ndim, items, small_ndim) in (65u32..=u32::MAX, (1u32 << 20) + 1..=u32::MAX, 65usize..99),
        lens in (any::<u32>(), any::<u32>()),
        (wal_ndim, snap_ndim) in (17u32..RANGE_FLAG, 17u32..=u32::MAX),
        dim in (1u32 << 28) + 1..=u32::MAX,
    ) {
        // Wire: ndim is capped at 64, item counts and the message length at 2^20.
        for (ndim, items) in [(ndim, items), (u32::MAX, u32::MAX)] {
            let field = |prefix: &[u8], v: u32| [prefix, &v.to_le_bytes(), &[0; 64]].concat();
            let (one, internal) = (1u32.to_le_bytes(), (RejectCode::Internal as u32).to_le_bytes());
            prop_assert_eq!(wire::decode_query(&field(&[], ndim)), None);
            prop_assert_eq!(wire::decode_update(&field(&[], ndim)), None);
            prop_assert_eq!(wire::decode_create(&field(&[], ndim)), None);
            prop_assert_eq!(wire::decode_stats(&field(&[0; 24], ndim)), None);
            prop_assert_eq!(wire::decode_query_many(&field(&one, ndim)), None);
            prop_assert_eq!(wire::decode_batch_update(&field(&one, ndim)), None);
            prop_assert_eq!(wire::decode_query_many(&field(&[], items)), None);
            prop_assert_eq!(wire::decode_batch_update(&field(&[], items)), None);
            prop_assert_eq!(wire::decode_sums(&field(&[], items)), None);
            prop_assert_eq!(wire::decode_error(&field(&internal, items)), None);
        }
        // The ndim cap holds with every byte there.
        let (at_cap, past_cap) = (vec![1; 64], vec![1; small_ndim]);
        prop_assert!(wire::decode_query(&wire::encode_query(&at_cap, &at_cap)).is_some());
        prop_assert_eq!(wire::decode_query(&wire::encode_query(&past_cap, &past_cap)), None);
        // Frame: the declared body meets the cap before any body byte is read.
        let cap = u64::from(wire::DEFAULT_MAX_FRAME_BYTES);
        for (t, p) in [lens, (u32::MAX, u32::MAX), (1, wire::DEFAULT_MAX_FRAME_BYTES)] {
            let declared = u64::from(t) + u64::from(p);
            let (got, n) = read_frame(&frame(wire::Opcode::Query as u32, t, p, &[]));
            if declared > cap {
                prop_assert_eq!((got, n), (Err(WireError::Oversized(declared)), wire::HEADER_LEN));
            }
        }
        // WAL: a CRC-sealed record with an out-of-range ndim word is a torn tail.
        let record = |lsn: u64, ndim_word: u32, coords: usize| {
            let mut rec = [&lsn.to_le_bytes()[..], &ndim_word.to_le_bytes()].concat();
            rec.resize(rec.len() + 4 * coords + 8, 0);
            rec.extend(crc32(&rec).to_le_bytes());
            rec
        };
        let intact = [&WAL_MAGIC[..], &record(1, 2, 2)].concat();
        prop_assert_eq!(decode_records(&intact).0.len(), 1);
        for word in [wal_ndim, wal_ndim | RANGE_FLAG, u32::MAX, !RANGE_FLAG, RANGE_FLAG, 0] {
            let bytes = [intact.clone(), record(2, word, 34)].concat();
            prop_assert_eq!(decode_log(&bytes).unwrap(), decode_records(&intact));
        }
        // Snapshot: ndim (checked before the header CRC), then a dim past
        // the cell cap, a dim or a box of 0, behind a re-sealed header CRC.
        let snap = encode_snapshot(9, &[2, 2], &[1, 2], &[1, 2, 3, 4]).unwrap();
        let m = u32::MAX;
        for (at, v) in [(20, snap_ndim), (20, m), (24, dim), (28, m), (24, 0), (36, 0)] {
            let mut bad = snap.clone();
            bad[at..at + 4].copy_from_slice(&v.to_le_bytes());
            let crc = crc32(&bad[..44]);
            bad[44..48].copy_from_slice(&crc.to_le_bytes());
            prop_assert_eq!(decode_snapshot(&bad), Err(Geometry), "{}: {}", at, v);
        }
    }
}
