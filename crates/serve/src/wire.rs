//! The `RPSWIRE1` frame format: length-prefixed, CRC-sealed binary
//! messages carrying cube requests and replies.
//!
//! Framing mirrors the `RPSSNAP1` snapshot artifact (docs/FORMATS.md):
//! a fixed header whose integrity is sealed by its own CRC, followed by
//! a variable body sealed by a second CRC, every integer little-endian.
//! The header carries both body lengths, so a reader always knows
//! exactly how many bytes to pull off the stream before it has to trust
//! any of them — and the header CRC is verified *before* the lengths
//! are used, so a corrupt length can reject the frame but never drive
//! an allocation.
//!
//! The canonical layout lives in [`HEADER_LAYOUT`]; docs/SERVING.md
//! reproduces it as a byte-offset table and the `serve_wire` golden
//! test diffs the two, so doc drift fails CI the same way the metric
//! catalog does.

use std::io::{Read, Write};

use rps_storage::{crc32, LeReader};

/// Leading magic of every frame.
pub const WIRE_MAGIC: [u8; 8] = *b"RPSWIRE1";

/// Format version this module reads and writes.
pub const WIRE_VERSION: u32 = 1;

/// Fixed header length in bytes (magic through header CRC).
pub const HEADER_LEN: usize = 28;

/// Length of the body CRC trailer.
pub const TRAILER_LEN: usize = 4;

/// The header layout docs/SERVING.md documents and the golden test
/// pins: `(offset, size, field)` for every fixed-position field.
pub const HEADER_LAYOUT: &[(usize, usize, &str)] = &[
    (0, 8, "magic"),
    (8, 4, "version"),
    (12, 4, "opcode"),
    (16, 4, "tenant_len"),
    (20, 4, "payload_len"),
    (24, 4, "header_crc"),
];

/// Default cap on `tenant_len + payload_len` (1 MiB). Frames above the
/// cap are rejected before any body byte is read.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 1 << 20;

/// Request and reply opcodes. Requests use the low range, replies set
/// the high bit, and `0xFF` is the typed error reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Opcode {
    /// Range-sum query over one region.
    Query = 0x01,
    /// Range-sum query over a batch of regions.
    QueryMany = 0x02,
    /// Single point update.
    Update = 0x03,
    /// Atomic batch of point updates.
    BatchUpdate = 0x04,
    /// Force a durable snapshot checkpoint.
    Snapshot = 0x05,
    /// Tenant statistics.
    Stats = 0x06,
    /// Provision a tenant (payload: cube dims).
    CreateTenant = 0x07,
    /// Begin graceful server shutdown (drain + final checkpoint).
    Shutdown = 0x08,
    /// Reply: vector of signed 64-bit sums.
    Sums = 0x81,
    /// Reply: acknowledgement with an applied-operation count.
    Ack = 0x82,
    /// Reply: checkpoint complete, payload is its LSN.
    SnapshotDone = 0x83,
    /// Reply: tenant statistics.
    StatsReply = 0x84,
    /// Reply: typed rejection.
    Error = 0xFF,
}

impl Opcode {
    /// Decodes a wire opcode.
    #[must_use]
    pub fn from_u32(v: u32) -> Option<Opcode> {
        Some(match v {
            0x01 => Opcode::Query,
            0x02 => Opcode::QueryMany,
            0x03 => Opcode::Update,
            0x04 => Opcode::BatchUpdate,
            0x05 => Opcode::Snapshot,
            0x06 => Opcode::Stats,
            0x07 => Opcode::CreateTenant,
            0x08 => Opcode::Shutdown,
            0x81 => Opcode::Sums,
            0x82 => Opcode::Ack,
            0x83 => Opcode::SnapshotDone,
            0x84 => Opcode::StatsReply,
            0xFF => Opcode::Error,
            _ => return None,
        })
    }
}

/// Typed rejection codes carried by [`Opcode::Error`] replies.
///
/// docs/SERVING.md catalogs every code; the split between *framing*
/// codes (1–6, the stream can no longer be trusted, the server closes
/// the connection after replying) and *semantic* codes (7+, the
/// connection stays usable, except `shutting_down` where the drain
/// closes it) is part of the contract. `unknown_opcode` is semantic on
/// both paths: the decoder consumes the CRC-verified body before
/// checking the opcode, so even an undecodable opcode field leaves the
/// stream in sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum RejectCode {
    /// Frame did not start with `RPSWIRE1`.
    BadMagic = 1,
    /// Unsupported format version.
    BadVersion = 2,
    /// Header CRC mismatch.
    BadHeaderCrc = 3,
    /// Body CRC mismatch.
    BadBodyCrc = 4,
    /// Stream ended inside a frame.
    Truncated = 5,
    /// Declared body exceeds the server's frame cap.
    Oversized = 6,
    /// Opcode unknown or not valid as a request.
    UnknownOpcode = 7,
    /// Payload failed to decode for the opcode.
    BadPayload = 8,
    /// No tenant with the given name.
    UnknownTenant = 9,
    /// `CreateTenant` for a name already hosted.
    TenantExists = 10,
    /// Per-tenant in-flight request quota exhausted.
    QuotaInFlight = 11,
    /// Batch larger than the per-tenant batch quota.
    QuotaBatch = 12,
    /// Per-tenant byte-rate token bucket empty.
    QuotaBytes = 13,
    /// Snapshot requested but the server runs without a data dir.
    NotDurable = 14,
    /// Server is draining; no new requests are admitted.
    ShuttingDown = 15,
    /// Engine or storage error while executing the request.
    Internal = 16,
}

impl RejectCode {
    /// Decodes a wire rejection code.
    #[must_use]
    pub fn from_u32(v: u32) -> Option<RejectCode> {
        Some(match v {
            1 => RejectCode::BadMagic,
            2 => RejectCode::BadVersion,
            3 => RejectCode::BadHeaderCrc,
            4 => RejectCode::BadBodyCrc,
            5 => RejectCode::Truncated,
            6 => RejectCode::Oversized,
            7 => RejectCode::UnknownOpcode,
            8 => RejectCode::BadPayload,
            9 => RejectCode::UnknownTenant,
            10 => RejectCode::TenantExists,
            11 => RejectCode::QuotaInFlight,
            12 => RejectCode::QuotaBatch,
            13 => RejectCode::QuotaBytes,
            14 => RejectCode::NotDurable,
            15 => RejectCode::ShuttingDown,
            16 => RejectCode::Internal,
            _ => return None,
        })
    }

    /// Whether the server hangs up after sending this rejection:
    /// framing-level corruption desynchronizes the stream, and a
    /// draining server stops serving the connection. A client should
    /// reconnect (after the drain, for [`RejectCode::ShuttingDown`]).
    #[must_use]
    pub fn closes_connection(self) -> bool {
        matches!(
            self,
            RejectCode::BadMagic
                | RejectCode::BadVersion
                | RejectCode::BadHeaderCrc
                | RejectCode::BadBodyCrc
                | RejectCode::Truncated
                | RejectCode::Oversized
                | RejectCode::ShuttingDown
        )
    }

    /// Stable snake_case label, used for the `reason` label of
    /// `rps_serve_rejects_total`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RejectCode::BadMagic => "bad_magic",
            RejectCode::BadVersion => "bad_version",
            RejectCode::BadHeaderCrc => "bad_header_crc",
            RejectCode::BadBodyCrc => "bad_body_crc",
            RejectCode::Truncated => "truncated",
            RejectCode::Oversized => "oversized",
            RejectCode::UnknownOpcode => "unknown_opcode",
            RejectCode::BadPayload => "bad_payload",
            RejectCode::UnknownTenant => "unknown_tenant",
            RejectCode::TenantExists => "tenant_exists",
            RejectCode::QuotaInFlight => "quota_in_flight",
            RejectCode::QuotaBatch => "quota_batch",
            RejectCode::QuotaBytes => "quota_bytes",
            RejectCode::NotDurable => "not_durable",
            RejectCode::ShuttingDown => "shutting_down",
            RejectCode::Internal => "internal",
        }
    }
}

/// Why a frame failed to decode. Each variant maps onto the
/// [`RejectCode`] the server replies with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Bad leading magic.
    BadMagic,
    /// Unsupported version.
    BadVersion(u32),
    /// Header CRC mismatch.
    BadHeaderCrc,
    /// Body CRC mismatch.
    BadBodyCrc,
    /// Stream ended inside a frame.
    Truncated,
    /// Declared body length exceeds the frame cap.
    Oversized(u64),
    /// Opcode field holds no known opcode.
    UnknownOpcode(u32),
    /// Tenant name is not UTF-8.
    BadTenantName,
}

impl WireError {
    /// The rejection code the server sends for this decode failure.
    #[must_use]
    pub fn reject_code(&self) -> RejectCode {
        match self {
            WireError::BadMagic => RejectCode::BadMagic,
            WireError::BadVersion(_) => RejectCode::BadVersion,
            WireError::BadHeaderCrc => RejectCode::BadHeaderCrc,
            WireError::BadBodyCrc | WireError::BadTenantName => RejectCode::BadBodyCrc,
            WireError::Truncated => RejectCode::Truncated,
            WireError::Oversized(_) => RejectCode::Oversized,
            WireError::UnknownOpcode(_) => RejectCode::UnknownOpcode,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "frame does not start with RPSWIRE1"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadHeaderCrc => write!(f, "header CRC mismatch"),
            WireError::BadBodyCrc => write!(f, "body CRC mismatch"),
            WireError::Truncated => write!(f, "stream ended inside a frame"),
            WireError::Oversized(n) => write!(f, "declared body of {n} bytes exceeds frame cap"),
            WireError::UnknownOpcode(v) => write!(f, "unknown opcode {v:#x}"),
            WireError::BadTenantName => write!(f, "tenant name is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// One decoded frame: opcode, tenant (empty for admin ops and protocol
/// errors) and opaque payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame asks for or replies with.
    pub opcode: Opcode,
    /// Addressed tenant; empty where no tenant applies.
    pub tenant: String,
    /// Opcode-specific payload (see the payload encoders below).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A request/reply with no tenant.
    #[must_use]
    pub fn admin(opcode: Opcode, payload: Vec<u8>) -> Frame {
        Frame {
            opcode,
            tenant: String::new(),
            payload,
        }
    }

    /// Serializes the frame: header (with CRC over its first 24 bytes),
    /// tenant + payload body, body CRC trailer.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let t = self.tenant.as_bytes();
        let total = HEADER_LEN + t.len() + self.payload.len() + TRAILER_LEN;
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&WIRE_MAGIC);
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.opcode as u32).to_le_bytes());
        push_len(&mut out, t.len());
        push_len(&mut out, self.payload.len());
        let header_crc = crc32(&out[..HEADER_LEN - 4]);
        out.extend_from_slice(&header_crc.to_le_bytes());
        out.extend_from_slice(t);
        out.extend_from_slice(&self.payload);
        let body_crc = crc32(&out[HEADER_LEN..]);
        out.extend_from_slice(&body_crc.to_le_bytes());
        out
    }

    /// Writes the encoded frame to `w`.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        w.write_all(&self.encode())
    }

    /// Reads and verifies one frame. `max_frame_bytes` caps the body
    /// (tenant + payload) before anything is allocated.
    ///
    /// An EOF cleanly *between* frames returns `Ok(None)`; an EOF
    /// inside one is [`WireError::Truncated`].
    pub fn read_from(
        r: &mut impl Read,
        max_frame_bytes: u32,
    ) -> std::io::Result<Result<Option<Frame>, WireError>> {
        let mut header = [0u8; HEADER_LEN];
        match read_exact_or_eof(r, &mut header)? {
            ReadOutcome::CleanEof => return Ok(Ok(None)),
            ReadOutcome::TruncatedEof => return Ok(Err(WireError::Truncated)),
            ReadOutcome::Full => {}
        }
        if header[..WIRE_MAGIC.len()] != WIRE_MAGIC {
            return Ok(Err(WireError::BadMagic));
        }
        let mut h = LeReader::new(&header[WIRE_MAGIC.len()..]);
        let Some([version, opcode_raw, tenant_len, payload_len, crc_stored]) =
            (|| Some([h.u32()?, h.u32()?, h.u32()?, h.u32()?, h.u32()?]))()
        else {
            return Ok(Err(WireError::Truncated)); // HEADER_LEN holds every field
        };
        if crc32(&header[..HEADER_LEN - 4]) != crc_stored {
            return Ok(Err(WireError::BadHeaderCrc));
        }
        if version != WIRE_VERSION {
            return Ok(Err(WireError::BadVersion(version)));
        }
        let body_len = u64::from(tenant_len) + u64::from(payload_len);
        if body_len > u64::from(max_frame_bytes) {
            return Ok(Err(WireError::Oversized(body_len)));
        }
        // Cap verified above, so the cast cannot truncate on any
        // supported target (the cap is a u32).
        let mut body = vec![0u8; usize::try_from(body_len).unwrap_or(usize::MAX)];
        let mut trailer = [0u8; TRAILER_LEN];
        if !matches!(read_exact_or_eof(r, &mut body)?, ReadOutcome::Full)
            || !matches!(read_exact_or_eof(r, &mut trailer)?, ReadOutcome::Full)
        {
            return Ok(Err(WireError::Truncated));
        }
        if LeReader::new(&trailer).u32() != Some(crc32(&body)) {
            return Ok(Err(WireError::BadBodyCrc));
        }
        // The opcode check runs only after the CRC-verified body has
        // been consumed, so an unknown opcode leaves the stream in sync
        // and the connection stays usable — which is what lets
        // `RejectCode::UnknownOpcode::closes_connection()` be `false`
        // unconditionally.
        let Some(opcode) = Opcode::from_u32(opcode_raw) else {
            return Ok(Err(WireError::UnknownOpcode(opcode_raw)));
        };
        let split = usize::try_from(tenant_len).unwrap_or(usize::MAX);
        let Ok(tenant) = std::str::from_utf8(&body[..split]) else {
            return Ok(Err(WireError::BadTenantName));
        };
        let tenant = tenant.to_string();
        let payload = body.split_off(split);
        Ok(Ok(Some(Frame {
            opcode,
            tenant,
            payload,
        })))
    }
}

enum ReadOutcome {
    Full,
    CleanEof,
    TruncatedEof,
}

/// `read_exact`, except an EOF before the *first* byte is reported as
/// clean (a peer hanging up between frames is not an error).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<ReadOutcome> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::TruncatedEof
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

/// Per-payload dimensionality cap: a request region cannot credibly
/// have more axes than this, and the cap bounds decode-side allocation.
const MAX_NDIM: usize = 64;

/// Per-payload batch cap on *decode* (the tenant quota is usually far
/// lower; this bounds worst-case allocation for any accepted frame).
const MAX_ITEMS: usize = 1 << 20;

/// Writes a count or a length as the `u32` the wire stores.
fn push_len(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&u32::try_from(n).unwrap_or(u32::MAX).to_le_bytes());
}

fn push_u64s(out: &mut Vec<u8>, values: &[usize]) {
    for &v in values {
        out.extend_from_slice(&(v as u64).to_le_bytes());
    }
}

/// Writes `ndim`, then the coordinates.
fn push_coords(out: &mut Vec<u8>, coords: &[usize]) {
    push_len(out, coords.len());
    push_u64s(out, coords);
}

/// Reads a `u32` count, `None` above `cap`.
fn read_count(r: &mut LeReader<'_>, cap: usize) -> Option<usize> {
    let n = usize::try_from(r.u32()?).ok()?;
    (n <= cap).then_some(n)
}

/// Reads what [`push_coords`] writes.
fn read_coords(r: &mut LeReader<'_>) -> Option<Vec<usize>> {
    let ndim = read_count(r, MAX_NDIM)?;
    r.u64s(ndim)
}

/// Reads one `lo, hi` region: what [`encode_query`] writes.
fn read_region(r: &mut LeReader<'_>) -> Option<(Vec<usize>, Vec<usize>)> {
    let lo = read_coords(r)?;
    let hi = r.u64s(lo.len())?;
    Some((lo, hi))
}

/// Reads one `coords, delta` update: what [`encode_update`] writes.
fn read_update(r: &mut LeReader<'_>) -> Option<(Vec<usize>, i64)> {
    Some((read_coords(r)?, r.i64()?))
}

/// Reads a count, then that many items.
fn read_list<T>(
    r: &mut LeReader<'_>,
    mut item: impl FnMut(&mut LeReader<'_>) -> Option<T>,
) -> Option<Vec<T>> {
    let count = read_count(r, MAX_ITEMS)?;
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        out.push(item(r)?);
    }
    Some(out)
}

/// Decodes a whole payload with `read`: trailing bytes reject it.
fn whole<'a, T>(payload: &'a [u8], read: impl FnOnce(&mut LeReader<'a>) -> Option<T>) -> Option<T> {
    let mut r = LeReader::new(payload);
    let value = read(&mut r)?;
    r.is_empty().then_some(value)
}

/// Encodes a [`Opcode::Query`] payload: `ndim, lo[ndim], hi[ndim]`.
#[must_use]
pub fn encode_query(lo: &[usize], hi: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 16 * lo.len());
    push_coords(&mut out, lo);
    push_u64s(&mut out, hi);
    out
}

/// Decodes a [`Opcode::Query`] payload into `(lo, hi)`.
#[must_use]
pub fn decode_query(payload: &[u8]) -> Option<(Vec<usize>, Vec<usize>)> {
    whole(payload, read_region)
}

/// Encodes a [`Opcode::QueryMany`] payload: `count` regions, each
/// `ndim, lo[ndim], hi[ndim]`.
#[must_use]
pub fn encode_query_many(regions: &[(Vec<usize>, Vec<usize>)]) -> Vec<u8> {
    let mut out = Vec::new();
    push_len(&mut out, regions.len());
    for (lo, hi) in regions {
        push_coords(&mut out, lo);
        push_u64s(&mut out, hi);
    }
    out
}

/// Decodes a [`Opcode::QueryMany`] payload.
#[must_use]
pub fn decode_query_many(payload: &[u8]) -> Option<Vec<(Vec<usize>, Vec<usize>)>> {
    whole(payload, |r| read_list(r, read_region))
}

/// Encodes an [`Opcode::Update`] payload: `ndim, coords[ndim], delta`.
#[must_use]
pub fn encode_update(coords: &[usize], delta: i64) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 * coords.len() + 8);
    push_coords(&mut out, coords);
    out.extend_from_slice(&delta.to_le_bytes());
    out
}

/// Decodes an [`Opcode::Update`] payload into `(coords, delta)`.
#[must_use]
pub fn decode_update(payload: &[u8]) -> Option<(Vec<usize>, i64)> {
    whole(payload, read_update)
}

/// Encodes a [`Opcode::BatchUpdate`] payload: `count` updates, each
/// `ndim, coords[ndim], delta`.
#[must_use]
pub fn encode_batch_update(updates: &[(Vec<usize>, i64)]) -> Vec<u8> {
    let mut out = Vec::new();
    push_len(&mut out, updates.len());
    for (coords, delta) in updates {
        push_coords(&mut out, coords);
        out.extend_from_slice(&delta.to_le_bytes());
    }
    out
}

/// Decodes a [`Opcode::BatchUpdate`] payload.
#[must_use]
pub fn decode_batch_update(payload: &[u8]) -> Option<Vec<(Vec<usize>, i64)>> {
    whole(payload, |r| read_list(r, read_update))
}

/// Encodes a [`Opcode::CreateTenant`] payload: `ndim, dims[ndim]`.
#[must_use]
pub fn encode_create(dims: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 * dims.len());
    push_coords(&mut out, dims);
    out
}

/// Decodes a [`Opcode::CreateTenant`] payload.
#[must_use]
pub fn decode_create(payload: &[u8]) -> Option<Vec<usize>> {
    whole(payload, read_coords)
}

/// Encodes an [`Opcode::Sums`] reply payload.
#[must_use]
pub fn encode_sums(sums: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 * sums.len());
    push_len(&mut out, sums.len());
    for &s in sums {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out
}

/// Decodes an [`Opcode::Sums`] reply payload.
#[must_use]
pub fn decode_sums(payload: &[u8]) -> Option<Vec<i64>> {
    whole(payload, |r| {
        let count = read_count(r, MAX_ITEMS)?;
        r.i64s(count)
    })
}

/// Encodes an [`Opcode::Ack`] / [`Opcode::SnapshotDone`] `u64` payload.
#[must_use]
pub fn encode_u64(v: u64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

/// Decodes an [`Opcode::Ack`] / [`Opcode::SnapshotDone`] payload.
#[must_use]
pub fn decode_u64(payload: &[u8]) -> Option<u64> {
    whole(payload, LeReader::u64)
}

/// Tenant statistics carried by an [`Opcode::StatsReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Published version number of the tenant's engine.
    pub version: u64,
    /// Point updates applied since the tenant was created/recovered.
    pub update_count: u64,
    /// Last durable checkpoint LSN (0 when never checkpointed or the
    /// server runs without a data dir).
    pub last_checkpoint_lsn: u64,
    /// Cube dimensions.
    pub dims: Vec<usize>,
}

/// Encodes an [`Opcode::StatsReply`] payload.
#[must_use]
pub fn encode_stats(stats: &TenantStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + 4 + 8 * stats.dims.len());
    out.extend_from_slice(&stats.version.to_le_bytes());
    out.extend_from_slice(&stats.update_count.to_le_bytes());
    out.extend_from_slice(&stats.last_checkpoint_lsn.to_le_bytes());
    push_coords(&mut out, &stats.dims);
    out
}

/// Decodes an [`Opcode::StatsReply`] payload.
#[must_use]
pub fn decode_stats(payload: &[u8]) -> Option<TenantStats> {
    whole(payload, |r| {
        Some(TenantStats {
            version: r.u64()?,
            update_count: r.u64()?,
            last_checkpoint_lsn: r.u64()?,
            dims: read_coords(r)?,
        })
    })
}

/// Encodes an [`Opcode::Error`] payload: `code, msg_len, msg`.
#[must_use]
pub fn encode_error(code: RejectCode, message: &str) -> Vec<u8> {
    let m = message.as_bytes();
    let mut out = Vec::with_capacity(8 + m.len());
    out.extend_from_slice(&(code as u32).to_le_bytes());
    push_len(&mut out, m.len());
    out.extend_from_slice(m);
    out
}

/// Decodes an [`Opcode::Error`] payload into `(code, message)`.
#[must_use]
pub fn decode_error(payload: &[u8]) -> Option<(RejectCode, String)> {
    whole(payload, |r| {
        let code = RejectCode::from_u32(r.u32()?)?;
        let len = read_count(r, MAX_ITEMS)?;
        Some((code, String::from_utf8(r.take(len)?.to_vec()).ok()?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        let bytes = frame.encode();
        let mut r = &bytes[..];
        Frame::read_from(&mut r, DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .unwrap()
            .unwrap()
    }

    #[test]
    fn frame_roundtrip() {
        let f = Frame {
            opcode: Opcode::Query,
            tenant: "sales".to_string(),
            payload: encode_query(&[0, 0], &[63, 63]),
        };
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn empty_tenant_and_payload() {
        let f = Frame::admin(Opcode::Shutdown, Vec::new());
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn clean_eof_between_frames() {
        let mut r = &[][..];
        assert!(matches!(
            Frame::read_from(&mut r, DEFAULT_MAX_FRAME_BYTES),
            Ok(Ok(None))
        ));
    }

    #[test]
    fn every_truncation_detected() {
        let bytes = Frame {
            opcode: Opcode::Update,
            tenant: "t".to_string(),
            payload: encode_update(&[3, 4], 7),
        }
        .encode();
        for cut in 1..bytes.len() {
            let mut r = &bytes[..cut];
            let got = Frame::read_from(&mut r, DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert!(got.is_err(), "cut at {cut} not detected");
        }
    }

    #[test]
    fn every_byte_flip_detected() {
        let bytes = Frame {
            opcode: Opcode::Query,
            tenant: "t".to_string(),
            payload: encode_query(&[1], &[2]),
        }
        .encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                let mut r = &corrupt[..];
                let got = Frame::read_from(&mut r, DEFAULT_MAX_FRAME_BYTES).unwrap();
                match got {
                    Err(_) => {}
                    // A flip that survives CRC32 would be a bug; a flip
                    // may never silently change the decoded frame.
                    Ok(other) => panic!("flip {i}:{bit} decoded as {other:?}"),
                }
            }
        }
    }

    #[test]
    fn oversized_rejected_before_allocation() {
        let mut bytes = Frame::admin(Opcode::Stats, Vec::new()).encode();
        // Forge a huge payload_len and fix up the header CRC so only the
        // cap check can reject it.
        bytes[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&bytes[..24]);
        bytes[24..28].copy_from_slice(&crc.to_le_bytes());
        let mut r = &bytes[..];
        assert_eq!(
            Frame::read_from(&mut r, DEFAULT_MAX_FRAME_BYTES).unwrap(),
            Err(WireError::Oversized(u64::from(u32::MAX)))
        );
    }

    #[test]
    fn payload_codecs_roundtrip() {
        let q = encode_query(&[1, 2, 3], &[4, 5, 6]);
        assert_eq!(decode_query(&q).unwrap(), (vec![1, 2, 3], vec![4, 5, 6]));

        let regions = vec![(vec![0, 0], vec![7, 7]), (vec![1, 1], vec![2, 3])];
        assert_eq!(
            decode_query_many(&encode_query_many(&regions)).unwrap(),
            regions
        );

        let ups = vec![(vec![3, 4], -7i64), (vec![0, 1], 42)];
        assert_eq!(
            decode_batch_update(&encode_batch_update(&ups)).unwrap(),
            ups
        );

        assert_eq!(
            decode_update(&encode_update(&[9], 5)).unwrap(),
            (vec![9], 5)
        );
        assert_eq!(
            decode_create(&encode_create(&[64, 64])).unwrap(),
            vec![64, 64]
        );
        assert_eq!(
            decode_sums(&encode_sums(&[1, -2, 3])).unwrap(),
            vec![1, -2, 3]
        );
        assert_eq!(decode_u64(&encode_u64(99)).unwrap(), 99);

        let stats = TenantStats {
            version: 7,
            update_count: 21,
            last_checkpoint_lsn: 14,
            dims: vec![64, 64],
        };
        assert_eq!(decode_stats(&encode_stats(&stats)).unwrap(), stats);

        let (code, msg) =
            decode_error(&encode_error(RejectCode::QuotaBatch, "batch of 9 > 4")).unwrap();
        assert_eq!(code, RejectCode::QuotaBatch);
        assert_eq!(msg, "batch of 9 > 4");
    }

    #[test]
    fn trailing_garbage_rejected_by_codecs() {
        let mut q = encode_query(&[1], &[2]);
        q.push(0);
        assert!(decode_query(&q).is_none());
        let mut u = encode_update(&[1], 2);
        u.push(0);
        assert!(decode_update(&u).is_none());
    }

    #[test]
    fn reject_code_connection_policy() {
        assert!(RejectCode::BadMagic.closes_connection());
        assert!(RejectCode::Truncated.closes_connection());
        assert!(!RejectCode::QuotaBatch.closes_connection());
        assert!(!RejectCode::UnknownTenant.closes_connection());
    }
}
