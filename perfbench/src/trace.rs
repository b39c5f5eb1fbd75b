//! The traced run: per-layer metrics for one workload.
//!
//! 1. Two closed-loop phases on two servers, one untraced and one
//!    started with `--timing on`. Their client-side means give the
//!    tracing overhead; the traced server's `/metrics`
//!    (`rps_serve_request_ns`) give `server.route_ns`, and the client
//!    mean minus that gives `transport_us`.
//! 2. An in-process replay of the workload's frames, in the order the
//!    server handles them (frame read, tenant lookup, admission, engine,
//!    reply encode), timing each layer's public functions from here.
//!    Where one call contains another layer (`Tenant::batch_update`
//!    holds the WAL append, the durable apply and the versioned
//!    publish), the inner layers are timed on engines this benchmark
//!    owns, fed the same frames, and the parent's self time is the
//!    difference of the means. Means add up; each is printed with its p50.
//!
//! The durable layers (WAL, durable engine, snapshots) are fed every
//! workload's updates, so each metric is measured on each workload; the
//! report says which layers the served path of the workload includes.

use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

use ndcube::Region;
use rps_core::corners::range_sum_from_prefix_with;
use rps_core::{RangeSumEngine, RpsEngine, VersionedEngine};
use rps_serve::wire::{self, Frame, Opcode, DEFAULT_MAX_FRAME_BYTES, HEADER_LEN, TRAILER_LEN};
use rps_serve::{Persistence, Registry, TenantQuota};
use rps_storage::{DurableEngine, FsSnapshotDir, SnapshotPolicy, StorageError, Wal};

use crate::drive::Phase;
use crate::gen::{self, Body, Kind, Req};
use crate::{server, stats, Bench, Metric};

/// Nanosecond samples of one measured call.
#[derive(Debug, Default)]
struct Acc(Vec<u64>);

impl Acc {
    fn add(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(t.elapsed());
        r
    }

    fn mean(&self) -> f64 {
        stats::mean(&self.0)
    }

    fn p50(&self) -> f64 {
        let mut v = self.0.clone();
        v.sort_unstable();
        stats::quantile(&v, 0.5)
    }

    fn total(&self) -> f64 {
        self.0.iter().map(|&v| v as f64).sum()
    }
}

/// Per-layer samples of the replay. `[read, update]` pairs split the
/// shared stages by frame kind for the stage shares.
#[derive(Debug, Default)]
struct Layers {
    encode: [Acc; 2],
    decode: [Acc; 2],
    lookup: [Acc; 2],
    admit: [Acc; 2],
    bytes: u64,
    frames: u64,
    versioned_query: Acc,
    tenant_update: Acc,
    versioned_apply: Acc,
    durable_batch: Acc,
    checkpoint: Acc,
    policy_checkpoints: u64,
    wal_append: Acc,
    wal_bytes: u64,
    rps_query: Acc,
    rps_update: Acc,
    corner_evals: u64,
    corner_distinct: u64,
    cells_updated: u64,
}

fn idx(k: Kind) -> usize {
    match k {
        Kind::Read => 0,
        Kind::Update => 1,
    }
}

/// The engines the replay drives: the served objects (a `Registry`
/// built like the server's) and engines this benchmark owns for timing
/// the inner layers.
struct Replay {
    registry: Registry,
    name: String,
    own_versioned: VersionedEngine<i64>,
    own_rps: RpsEngine<i64>,
    own_durable: DurableEngine<RpsEngine<i64>>,
    own_store: FsSnapshotDir,
    wal: Wal,
    clock: Instant,
    corner_buf: Vec<usize>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The checkpoint policy the durable layers run under: the workload's
/// for `durable_ingest`, the `rps-serve` default elsewhere.
fn policy(b: &Bench) -> SnapshotPolicy {
    match &b.w.durable {
        Some(seed) => SnapshotPolicy {
            max_wal_bytes: None,
            max_records: Some(seed.records_per_checkpoint),
            retain: 2,
        },
        None => SnapshotPolicy {
            max_wal_bytes: Some(1 << 20),
            max_records: Some(8192),
            retain: 2,
        },
    }
}

fn recover(dir: &Path, dims: &[usize]) -> Result<DurableEngine<RpsEngine<i64>>, String> {
    let snap = dir.join("snapshots");
    std::fs::create_dir_all(&snap).map_err(err)?;
    let dims = dims.to_vec();
    let (engine, _report) = DurableEngine::recover(&snap, &dir.join("wal.log"), move || {
        RpsEngine::zeros(&dims).map_err(StorageError::Engine)
    })
    .map_err(err)?;
    Ok(engine)
}

impl Replay {
    /// Builds the served registry and the owned engines. Returns the
    /// replay plus `versioned.build_s` and `snapshot.recover_s` (`None`
    /// for ephemeral workloads, which recover at the end instead).
    fn new(b: &Bench) -> Result<(Replay, f64, Option<f64>), String> {
        let work = b.args.work_dir.join("replay");
        crate::remove_dir(&work)?;
        std::fs::create_dir_all(&work).map_err(err)?;
        let policy = policy(b);
        let persistence = match &b.seed_dir {
            Some(seed) => {
                server::copy_tree(seed, &work.join("served"))?;
                Persistence::Durable {
                    root: work.join("served"),
                    policy,
                }
            }
            None => Persistence::Ephemeral,
        };
        let registry = Registry::new(persistence, TenantQuota::default(), 0);
        let (name, dims) = &b.w.tenant;
        registry.create(name, dims).map_err(err)?;
        let dir = work.join("owned").join(name);
        let (mut durable, recover_s) = match &b.seed_dir {
            Some(seed) => {
                server::copy_tree(&seed.join(name), &dir)?;
                let t = Instant::now();
                let d = recover(&dir, dims)?;
                (d, Some(t.elapsed().as_secs_f64()))
            }
            None => (recover(&dir, dims)?, None),
        };
        durable.set_snapshot_policy(policy);
        let base = durable.engine().clone();
        let own_rps = base.clone();
        let t = Instant::now();
        let own_versioned = VersionedEngine::new(base);
        let build_s = t.elapsed().as_secs_f64();
        let r = Replay {
            registry,
            name: name.clone(),
            own_versioned,
            own_rps,
            own_durable: durable,
            own_store: FsSnapshotDir::open(&dir.join("snapshots")).map_err(err)?,
            wal: Wal::open(&work.join("standalone-wal.log")).map_err(err)?,
            clock: Instant::now(),
            corner_buf: Vec::new(),
        };
        Ok((r, build_s, recover_s))
    }

    /// Replays one request frame through every layer.
    #[allow(clippy::too_many_lines)] // one frame's path, in server order
    fn frame(&mut self, req: &Req, l: &mut Layers) -> Result<(), String> {
        let k = idx(req.kind());
        let request = gen::frame_for(&self.name, &req.body);
        let mut enc = Duration::ZERO;
        let mut dec = Duration::ZERO;

        // Client encodes; server reads the frame (CRCs) and decodes the payload.
        let t0 = Instant::now();
        let bytes = request.encode();
        enc += t0.elapsed();
        let t0 = Instant::now();
        let served = Frame::read_from(&mut &bytes[..], DEFAULT_MAX_FRAME_BYTES)
            .ok()
            .and_then(|r| r.ok().flatten())
            .ok_or("replayed frame does not decode")?;
        let body = decode_body(&served).ok_or("replayed payload does not decode")?;
        dec += t0.elapsed();

        let tenant = l.lookup[k]
            .time(|| self.registry.get(&served.tenant))
            .map_err(err)?;
        let frame_bytes =
            (HEADER_LEN + TRAILER_LEN + served.tenant.len() + served.payload.len()) as u64;
        let now = self.clock.elapsed().as_nanos() as u64;
        let admitted = l.admit[k].time(|| {
            let slot = tenant.quota().admit();
            slot.is_ok() && tenant.quota().take_bytes(frame_bytes, now).is_ok()
        });
        if !admitted {
            return Err("replay frame was not admitted".to_string());
        }

        let (opcode, payload) = match body {
            Body::QueryMany(windows) => {
                let regions: Vec<Region> = windows
                    .iter()
                    .map(|(lo, hi)| Region::new(lo, hi))
                    .collect::<Result<_, _>>()
                    .map_err(err)?;
                let sums = l
                    .versioned_query
                    .time(|| tenant.versioned().snapshot().query_many(&regions))
                    .map_err(err)?;
                let shape = self.own_rps.shape().clone();
                let mut seen = HashSet::new();
                for (r, want) in regions.iter().zip(&sums) {
                    let got = l.rps_query.time(|| self.own_rps.query(r)).map_err(err)?;
                    if got != *want {
                        return Err(format!(
                            "replay: rps engine says {got}, served tenant {want}"
                        ));
                    }
                    range_sum_from_prefix_with(r, &mut self.corner_buf, |c| {
                        l.corner_evals += 1;
                        seen.insert(shape.linear_unchecked(c));
                        0i64
                    });
                }
                l.corner_distinct += seen.len() as u64;
                (Opcode::Sums, sums)
            }
            Body::Batch(cells) => {
                l.tenant_update
                    .time(|| tenant.batch_update(&cells))
                    .map_err(err)?;
                let v = &self.own_versioned;
                l.versioned_apply
                    .time(|| v.apply_batch(&cells))
                    .map_err(err)?;
                let d = &mut self.own_durable;
                l.durable_batch
                    .time(|| d.update_batch(&cells))
                    .map_err(err)?;
                let t0 = Instant::now();
                if d.maybe_checkpoint(&mut self.own_store)
                    .map_err(err)?
                    .is_some()
                {
                    l.checkpoint.add(t0.elapsed());
                    l.policy_checkpoints += 1;
                }
                let before = self.wal.len();
                for (c, delta) in &cells {
                    l.wal_append
                        .time(|| self.wal.append(c, *delta))
                        .map_err(err)?;
                    l.rps_update
                        .time(|| self.own_rps.update(c, *delta))
                        .map_err(err)?;
                }
                l.wal_bytes += self.wal.len() - before;
                l.cells_updated += cells.len() as u64;
                (Opcode::Ack, vec![cells.len() as i64])
            }
        };

        // Server encodes the reply; the client reads and decodes it.
        let t0 = Instant::now();
        let reply_payload = match opcode {
            Opcode::Sums => wire::encode_sums(&payload),
            _ => wire::encode_u64(payload[0] as u64),
        };
        let reply = Frame::admin(opcode, reply_payload).encode();
        enc += t0.elapsed();
        let t0 = Instant::now();
        let back = Frame::read_from(&mut &reply[..], DEFAULT_MAX_FRAME_BYTES)
            .ok()
            .and_then(|r| r.ok().flatten())
            .ok_or("replayed reply does not decode")?;
        let ok = match opcode {
            Opcode::Sums => wire::decode_sums(&back.payload).is_some(),
            _ => wire::decode_u64(&back.payload).is_some(),
        };
        dec += t0.elapsed();
        if !ok {
            return Err("replayed reply payload does not decode".to_string());
        }
        l.encode[k].add(enc);
        l.decode[k].add(dec);
        l.bytes += (bytes.len() + reply.len()) as u64;
        l.frames += 1;
        Ok(())
    }
}

/// Decodes a served request's payload the way the server routes it.
fn decode_body(f: &Frame) -> Option<Body> {
    Some(match f.opcode {
        Opcode::QueryMany => Body::QueryMany(wire::decode_query_many(&f.payload)?),
        Opcode::BatchUpdate => Body::Batch(wire::decode_batch_update(&f.payload)?),
        _ => return None,
    })
}

/// Client-side mean (µs) of the timed frames of `kind` in a phase.
fn client_mean(p: &Phase, kind: Kind) -> f64 {
    stats::mean(&p.latencies(Some(kind))) / 1e3
}

fn line(name: &str, mean: f64, p50: f64, unit: &str, n: usize, on_path: bool) {
    let path = if on_path {
        "on the served path"
    } else {
        "off the served path"
    };
    println!("# {name}: mean {mean:.1} {unit}, p50 {p50:.1} {unit}, {n} samples, {path}");
}

/// Runs both closed-loop phases and the replay; returns the gate's
/// verdict, frame counts and the per-layer metrics.
#[allow(clippy::too_many_lines)] // one metric per line, in table order
pub fn run(b: &Bench) -> Result<(bool, usize, usize, Vec<Metric>), String> {
    let seconds = b.args.seconds;
    let durable_path = b.w.durable.is_some();

    // Untraced and traced end-to-end phases.
    let (srv, _, launch) = b.start("plain", false)?;
    let plain = b.phase(&srv, 0.3 * seconds, &mut || Ok(()))?;
    srv.shutdown()?;
    let mut verdict = b.verify(&plain, &launch);
    let (srv, _, launch) = b.start("traced", true)?;
    let mut before = (0.0, 0.0);
    let route = |addr| -> Result<(f64, f64), String> {
        Ok((
            server::scrape_sum(addr, "rps_serve_request_ns_sum")?,
            server::scrape_sum(addr, "rps_serve_request_ns_count")?,
        ))
    };
    let addr = srv.addr;
    let traced = b.phase(&srv, 0.3 * seconds, &mut || {
        before = route(addr)?;
        Ok(())
    })?;
    let after = route(addr)?;
    srv.shutdown()?;
    verdict = verdict.and_then(|()| b.verify(&traced, &launch));
    if let Err(e) = &verdict {
        println!("# MISMATCH: {e}");
    }
    let route_ns = (after.0 - before.0) / (after.1 - before.1);
    let (plain_read, plain_update) = (
        client_mean(&plain, Kind::Read),
        client_mean(&plain, Kind::Update),
    );
    let (read_us, update_us) = (
        client_mean(&traced, Kind::Read),
        client_mean(&traced, Kind::Update),
    );
    let all_us = stats::mean(&traced.latencies(None)) / 1e3;

    // In-process replay.
    let cow0 = rps_core::obs::snapshot().cow_boxes.get();
    let (mut r, build_s, seeded_recover_s) = Replay::new(b)?;
    let write_count = |r: &Replay| -> u64 {
        r.own_versioned.write_count()
            + r.registry
                .all()
                .iter()
                .map(|t| t.versioned().write_count())
                .sum::<u64>()
    };
    let writes0 = write_count(&r);
    let stats0 = r.own_rps.stats();
    let mut l = Layers::default();
    let pool = &b.w.pools;
    let budget = Duration::from_secs_f64(0.4 * seconds);
    let start = Instant::now();
    let (mut lead, mut follow) = (0usize, 0usize);
    while start.elapsed() < budget || l.frames < 64 {
        r.frame(&pool[0][lead % pool[0].len()], &mut l)?;
        lead += 1;
        if let Some(every) = b.w.writer_every {
            if lead % every == 0 {
                r.frame(&pool[1][follow % pool[1].len()], &mut l)?;
                follow += 1;
            }
        }
    }
    let cow = rps_core::obs::snapshot().cow_boxes.get() - cow0;
    let writes = write_count(&r) - writes0;
    let cost = r.own_rps.stats() - stats0;
    let update_frames = l.tenant_update.0.len().max(1) as f64;
    // A workload whose updates never reach the policy's trigger still
    // measures one checkpoint, forced at the end.
    if l.checkpoint.0.is_empty() {
        let (d, store) = (&mut r.own_durable, &mut r.own_store);
        l.checkpoint.time(|| d.checkpoint_to(store)).map_err(err)?;
    }
    let recover_s = match seeded_recover_s {
        Some(s) => s,
        None => {
            let dir = b.args.work_dir.join("replay/owned").join(&r.name);
            let t = Instant::now();
            recover(&dir, &b.w.tenant.1)?;
            t.elapsed().as_secs_f64()
        }
    };

    let mean2 = |a: &[Acc; 2], k: usize| a[k].mean();
    let both = |a: &[Acc; 2]| -> (f64, f64, usize) {
        let all: Vec<u64> = a[0].0.iter().chain(&a[1].0).copied().collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        (stats::mean(&all), stats::quantile(&sorted, 0.5), all.len())
    };
    let (enc, enc50, n) = both(&l.encode);
    line(
        "wire.encode_ns (request + reply)",
        enc,
        enc50,
        "ns",
        n,
        true,
    );
    let (dec, dec50, _) = both(&l.decode);
    line(
        "wire.decode_ns (request + reply)",
        dec,
        dec50,
        "ns",
        n,
        true,
    );
    let (lookup, lookup50, _) = both(&l.lookup);
    line("tenant.lookup_ns", lookup, lookup50, "ns", n, true);
    let (admit, admit50, _) = both(&l.admit);
    line("quota.admit_ns", admit, admit50, "ns", n, true);
    let ckpt_per_frame = l.checkpoint.total() / update_frames;
    let durable_share = if durable_path {
        l.durable_batch.mean() + ckpt_per_frame
    } else {
        0.0
    };
    let update_self = l.tenant_update.mean() - l.versioned_apply.mean() - durable_share;
    for (name, acc, on) in [
        (
            "versioned.query_ns (per read frame)",
            &l.versioned_query,
            true,
        ),
        (
            "tenant update total (Tenant::batch_update)",
            &l.tenant_update,
            true,
        ),
        (
            "versioned.apply_ns (per update frame)",
            &l.versioned_apply,
            true,
        ),
        (
            "durable.update_batch_ns (per update frame)",
            &l.durable_batch,
            durable_path,
        ),
        ("wal.append_ns (per record)", &l.wal_append, durable_path),
        ("rps.query_ns (per region)", &l.rps_query, true),
        ("rps.update_ns (per cell)", &l.rps_update, true),
    ] {
        line(name, acc.mean(), acc.p50(), "ns", acc.0.len(), on);
    }
    line(
        "snapshot.checkpoint_ns",
        l.checkpoint.mean(),
        l.checkpoint.p50(),
        "ns",
        l.checkpoint.0.len(),
        durable_path,
    );

    // Shares of the traced client means the in-process stages explain.
    let read_stages = mean2(&l.encode, 0)
        + mean2(&l.decode, 0)
        + mean2(&l.lookup, 0)
        + mean2(&l.admit, 0)
        + l.versioned_query.mean();
    let update_stages = mean2(&l.encode, 1)
        + mean2(&l.decode, 1)
        + mean2(&l.lookup, 1)
        + mean2(&l.admit, 1)
        + l.tenant_update.mean();
    let read_share = read_stages / 1e3 / read_us;
    let update_share = update_stages / 1e3 / update_us;
    println!(
        "# stages explain {:.1}% of the read mean ({read_us:.1} us) and {:.1}% of the update mean ({update_us:.1} us); the rest is loopback transport and scheduling",
        100.0 * read_share,
        100.0 * update_share
    );
    println!(
        "# tracing overhead: read {plain_read:.2} -> {read_us:.2} us, update {plain_update:.2} -> {update_us:.2} us (untraced -> traced client means)"
    );
    println!(
        "# replayed {} frames; {} policy checkpoints over {} updated cells; served path includes durable layers: {durable_path}",
        l.frames, l.policy_checkpoints, l.cells_updated
    );

    let per = |a: f64, b: u64| if b == 0 { f64::NAN } else { a / b as f64 };
    let metrics: Vec<Metric> = vec![
        ("wire.encode_ns", enc, "ns"),
        ("wire.decode_ns", dec, "ns"),
        ("wire.bytes_per_req", per(l.bytes as f64, l.frames), "B"),
        ("server.route_ns", route_ns, "ns"),
        ("transport_us", all_us - route_ns / 1e3, "us"),
        ("quota.admit_ns", admit, "ns"),
        ("tenant.lookup_ns", lookup, "ns"),
        ("tenant.update_self_ns", update_self, "ns"),
        ("versioned.build_s", build_s, "s"),
        ("versioned.query_ns", l.versioned_query.mean(), "ns"),
        ("versioned.apply_ns", l.versioned_apply.mean(), "ns"),
        (
            "versioned.cow_boxes_per_cell_written",
            per(cow as f64, writes),
            "ratio",
        ),
        ("rps.query_ns", l.rps_query.mean(), "ns"),
        ("rps.update_ns", l.rps_update.mean(), "ns"),
        (
            "rps.cells_read_per_query",
            per(cost.cell_reads as f64, cost.queries),
            "count",
        ),
        (
            "rps.cells_written_per_update",
            per(cost.cell_writes as f64, cost.updates),
            "count",
        ),
        (
            "rps.corner_hit_ratio",
            1.0 - per(l.corner_distinct as f64, l.corner_evals),
            "ratio",
        ),
        ("wal.append_ns", l.wal_append.mean(), "ns"),
        (
            "wal.bytes_per_update",
            per(l.wal_bytes as f64, l.cells_updated),
            "B",
        ),
        ("durable.update_batch_ns", l.durable_batch.mean(), "ns"),
        ("snapshot.checkpoint_ms", l.checkpoint.mean() / 1e6, "ms"),
        (
            "snapshot.checkpoints_per_10k_updates",
            per(1e4 * l.policy_checkpoints as f64, l.cells_updated),
            "count",
        ),
        ("snapshot.recover_s", recover_s, "s"),
        ("client.read_mean_us", read_us, "us"),
        ("client.update_mean_us", update_us, "us"),
        ("stages.read_share", read_share, "ratio"),
        ("stages.update_share", update_share, "ratio"),
        ("trace.read_overhead_us", read_us - plain_read, "us"),
        ("trace.update_overhead_us", update_us - plain_update, "us"),
    ];
    let attempted = plain.frames() + traced.frames();
    let failed = plain.failed() + traced.failed();
    Ok((verdict.is_ok(), attempted, failed, metrics))
}
