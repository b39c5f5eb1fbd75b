//! Seeded workload generation. Every frame a run sends, and the history
//! the durable tenant is seeded with, is built here before any clock
//! starts; the server only ever receives these frames.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rps_serve::wire::{self, Frame, Opcode};

/// An inclusive query window `(lo, hi)`.
pub type Window = (Vec<usize>, Vec<usize>);
/// A point update `(coords, delta)`.
pub type Cell = (Vec<usize>, i64);

/// Whether a frame counts as a read or an update in the latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `query_many`.
    Read,
    /// `batch_update`.
    Update,
}

/// What a request frame asks for, kept decoded for the oracle and the
/// traced replay.
#[derive(Debug, Clone)]
pub enum Body {
    QueryMany(Vec<Window>),
    Batch(Vec<Cell>),
}

/// One generated request: its decoded body and its encoded bytes, ready
/// to write to the socket.
#[derive(Debug, Clone)]
pub struct Req {
    pub body: Body,
    pub bytes: Vec<u8>,
}

impl Req {
    fn new(tenant: &str, body: Body) -> Req {
        let frame = frame_for(tenant, &body);
        Req {
            bytes: frame.encode(),
            body,
        }
    }

    pub fn kind(&self) -> Kind {
        match self.body {
            Body::QueryMany(_) => Kind::Read,
            Body::Batch(_) => Kind::Update,
        }
    }
}

/// The request frame for `body` addressed to tenant `name`.
pub fn frame_for(name: &str, body: &Body) -> Frame {
    let (opcode, payload) = match body {
        Body::QueryMany(ws) => (Opcode::QueryMany, wire::encode_query_many(ws)),
        Body::Batch(cs) => (Opcode::BatchUpdate, wire::encode_batch_update(cs)),
    };
    Frame {
        opcode,
        tenant: name.to_string(),
        payload,
    }
}

/// The durable tenant's seeded directory and checkpoint trigger.
#[derive(Debug, Clone)]
pub struct DurableSeed {
    /// Every update logged before the restart, in LSN order (LSN = index + 1).
    pub history: Vec<Cell>,
    /// The snapshot covers LSNs `1..=snapshot_lsn`; the rest is the WAL tail.
    pub snapshot_lsn: u64,
    /// `--snapshot-records`: a checkpoint after this many logged updates.
    pub records_per_checkpoint: u64,
}

/// A generated workload: its one tenant, one frame pool per connection
/// (each connection cycles through its pool in order), and the durable
/// seed.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Tenant name and dimensions.
    pub tenant: (String, Vec<usize>),
    pub pools: Vec<Vec<Req>>,
    /// Dashboard: connection 1 sends one frame per this many frames of
    /// connection 0.
    pub writer_every: Option<usize>,
    pub durable: Option<DurableSeed>,
    /// Timed phases per untraced run, each against a freshly started
    /// server.
    pub phases: usize,
    /// One line per fact the benchmark records about itself.
    pub describe: Vec<String>,
}

pub const NAMES: [&str; 2] = ["dashboard", "durable_ingest"];

/// Builds workload `name` from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    match name {
        "dashboard" => Some(dashboard(&mut rng)),
        "durable_ingest" => Some(durable_ingest(&mut rng)),
        _ => None,
    }
}

fn window(rng: &mut StdRng, dims: &[usize]) -> Window {
    let mut lo = Vec::with_capacity(dims.len());
    let mut hi = Vec::with_capacity(dims.len());
    for &n in dims {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        lo.push(a.min(b));
        hi.push(a.max(b));
    }
    (lo, hi)
}

fn cell(rng: &mut StdRng, dims: &[usize], delta_lo: i64, delta_hi: i64) -> Cell {
    let coords = dims.iter().map(|&n| rng.gen_range(0..n)).collect();
    (coords, rng.gen_range(delta_lo..=delta_hi))
}

const DASH_N: usize = 1024;
const DASH_GRID: usize = 6;
const DASH_ADHOC: usize = 4;
const DASH_READER_POOL: usize = 2048;
const DASH_WRITER_POOL: usize = 512;
const DASH_BATCH: usize = 4;
const DASH_WRITER_EVERY: usize = 8;
/// One server's figures differed from the next server's by more than
/// they drifted within one server; more, shorter phases sample more
/// servers.
const DASH_PHASES: usize = 14;

fn dashboard(rng: &mut StdRng) -> Workload {
    let name = "dash";
    let dims = vec![DASH_N, DASH_N];
    let full = (vec![0, 0], vec![DASH_N - 1, DASH_N - 1]);
    let reader = (0..DASH_READER_POOL)
        .map(|_| {
            // The whole cube first: its total names the batch prefix the
            // reply saw (every writer delta is positive).
            let mut ws = vec![full.clone()];
            let side = rng.gen_range(24..=96);
            let ox = rng.gen_range(0..=DASH_N - DASH_GRID * side);
            let oy = rng.gen_range(0..=DASH_N - DASH_GRID * side);
            for i in 0..DASH_GRID {
                for j in 0..DASH_GRID {
                    let lo = vec![ox + i * side, oy + j * side];
                    let hi = vec![lo[0] + side - 1, lo[1] + side - 1];
                    ws.push((lo, hi));
                }
            }
            ws.extend((0..DASH_ADHOC).map(|_| window(rng, &dims)));
            Req::new(name, Body::QueryMany(ws))
        })
        .collect();
    let writer = (0..DASH_WRITER_POOL)
        .map(|_| {
            let cells = (0..DASH_BATCH).map(|_| cell(rng, &dims, 1, 9)).collect();
            Req::new(name, Body::Batch(cells))
        })
        .collect();
    Workload {
        name: "dashboard",
        describe: vec![
            format!("tenants: 1 ephemeral, {DASH_N}x{DASH_N}"),
            format!(
                "frames: reader connection cycles {DASH_READER_POOL} query_many of {} regions (whole cube + {DASH_GRID}x{DASH_GRID} adjacent tiles of side 24..96 + {DASH_ADHOC} ad-hoc windows)",
                1 + DASH_GRID * DASH_GRID + DASH_ADHOC
            ),
            format!(
                "frames: writer connection cycles {DASH_WRITER_POOL} batch_update of {DASH_BATCH} positive deltas, one after every {DASH_WRITER_EVERY} reader frames"
            ),
            format!("phases: {DASH_PHASES} per untraced run, each on a fresh server"),
        ],
        tenant: (name.to_string(), dims),
        pools: vec![reader, writer],
        writer_every: Some(DASH_WRITER_EVERY),
        durable: None,
        phases: DASH_PHASES,
    }
}

const INGEST_N: usize = 256;
const INGEST_HISTORY: usize = 150_000;
const INGEST_TAIL: usize = 100_000;
const INGEST_POOL: usize = 4096;
const INGEST_BATCH: usize = 64;
const INGEST_QUERY_EVERY: usize = 8;
const INGEST_WINDOWS: usize = 16;
const INGEST_CHECKPOINT_RECORDS: u64 = 2048;
/// Fewer, longer phases: each start copies and recovers the seeded
/// directory, and each phase should hold many checkpoints.
const INGEST_PHASES: usize = 7;

fn durable_ingest(rng: &mut StdRng) -> Workload {
    let name = "ingest";
    let dims = vec![INGEST_N, INGEST_N];
    let history = (0..INGEST_HISTORY)
        .map(|_| cell(rng, &dims, -50, 50))
        .collect();
    let pool = (0..INGEST_POOL)
        .map(|i| {
            let body = if (i + 1) % INGEST_QUERY_EVERY == 0 {
                Body::QueryMany((0..INGEST_WINDOWS).map(|_| window(rng, &dims)).collect())
            } else {
                Body::Batch(
                    (0..INGEST_BATCH)
                        .map(|_| cell(rng, &dims, -50, 50))
                        .collect(),
                )
            };
            Req::new(name, body)
        })
        .collect();
    let batches_per_checkpoint = INGEST_CHECKPOINT_RECORDS / INGEST_BATCH as u64;
    Workload {
        name: "durable_ingest",
        describe: vec![
            format!(
                "tenants: 1 durable, {INGEST_N}x{INGEST_N} (seeded: snapshot at LSN {} + WAL tail of {INGEST_TAIL} records)",
                INGEST_HISTORY - INGEST_TAIL
            ),
            format!(
                "frames: 1 connection cycling {INGEST_POOL} frames: batch_update of {INGEST_BATCH}, every {INGEST_QUERY_EVERY}th a query_many of {INGEST_WINDOWS} windows"
            ),
            format!(
                "checkpoint: every {INGEST_CHECKPOINT_RECORDS} logged records (1 in {batches_per_checkpoint} write frames); WAL-byte trigger off; retain 2"
            ),
            "flush: server default, WAL fsynced only at checkpoints and at drain".to_string(),
            format!("phases: {INGEST_PHASES} per untraced run, each on a fresh server"),
        ],
        tenant: (name.to_string(), dims),
        pools: vec![pool],
        writer_every: None,
        durable: Some(DurableSeed {
            history,
            snapshot_lsn: (INGEST_HISTORY - INGEST_TAIL) as u64,
            records_per_checkpoint: INGEST_CHECKPOINT_RECORDS,
        }),
        phases: INGEST_PHASES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_frames() {
        for name in NAMES {
            let a = build(name, 7).unwrap();
            let b = build(name, 7).unwrap();
            let c = build(name, 8).unwrap();
            for (x, y) in a.pools[0].iter().zip(&b.pools[0]).take(256) {
                assert_eq!(x.bytes, y.bytes);
            }
            assert!(a.pools[0]
                .iter()
                .zip(&c.pools[0])
                .take(256)
                .any(|(x, y)| x.bytes != y.bytes));
        }
    }

    #[test]
    fn dashboard_writer_deltas_are_positive() {
        let w = build("dashboard", 3).unwrap();
        for r in &w.pools[1] {
            let Body::Batch(cells) = &r.body else {
                panic!("writer sends batches")
            };
            assert!(cells.iter().all(|(_, d)| *d > 0));
        }
    }
}
