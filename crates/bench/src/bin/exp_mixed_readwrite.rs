//! Mixed read/write throughput: the versioned-snapshot engine's read
//! path (`rps_core::VersionedEngine`, one `Arc` clone per batch)
//! against the `RwLock`-based `SharedEngine`, measured as aggregate
//! reader throughput while a writer publishes point updates paced at
//! 0%, 1% and 10% of reader ops. Emitted as the `exp_mixed_readwrite`
//! section of `BENCH_THROUGHPUT.json` (see `rps_bench::throughput`).
//!
//! ```text
//! cargo run --release -p rps-bench --bin exp_mixed_readwrite            # full
//! cargo run --release -p rps-bench --bin exp_mixed_readwrite -- --smoke # CI
//! ```
//!
//! Pacing: readers bump a shared op counter after every batch; the
//! writer applies updates only while `updates < reader_ops × rate /
//! 100`, so the write load tracks the measured read load instead of
//! free-running. After every run the engine's total is checked against
//! the initial cube total plus the updates applied (all deltas are +1)
//! — a throughput number for wrong answers would be worse than none.
//!
//! The `*_updates_w{rate}` rows time each writer call (apply plus
//! publish or unlock) and report the mean ns per update applied; a run
//! that applies no updates (w0) emits no writer row.
//!
//! `allocs_per_op` is reported for the single-threaded serial baseline
//! row only; the multi-threaded rows report 0 (the counting allocator
//! is per-thread and the readers run on worker threads).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ndcube::{NdCube, Region};
use rps_bench::alloc_counter::CountingAllocator;
use rps_bench::throughput::{measure_batch, section_json, write_section, Measurement, Scenario};
use rps_core::{RangeSumEngine, RpsEngine, SharedEngine, VersionedEngine};
use rps_workload::{CubeGen, QueryGen, RegionSpec};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Writer update rates, in percent of reader ops.
const RATES: &[u64] = &[0, 1, 10];

struct Config {
    dims: Vec<usize>,
    batch_len: usize,
    batches_per_reader: usize,
    readers: usize,
}

/// A deterministic stream of in-bounds update coordinates.
fn update_coords(dims: &[usize], i: u64) -> Vec<usize> {
    dims.iter()
        .enumerate()
        .map(|(d, &n)| {
            let mixed = i
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(d as u64 * 0x85EB_CA6B);
            (mixed % n as u64) as usize
        })
        .collect()
}

/// One paced run: `read_batch` drives the engine-specific read loop,
/// `apply_update` the engine-specific write. Returns the reader
/// measurement and the writer's (one op per update applied).
fn run_paced(
    cfg: &Config,
    rate: u64,
    read_batch: impl Fn(usize, &[Region]) + Sync,
    apply_update: impl Fn(&[usize]),
) -> (Measurement, Measurement) {
    let reader_ops = AtomicU64::new(0);
    let mut updates_applied = 0u64;
    let mut update_ns = 0u128;
    let total_ops = cfg.readers * cfg.batches_per_reader * cfg.batch_len;

    let start = Instant::now();
    std::thread::scope(|scope| {
        for r in 0..cfg.readers {
            let reader_ops = &reader_ops;
            let read_batch = &read_batch;
            let regions: Vec<Region> =
                QueryGen::new(&cfg.dims, 11 + r as u64, RegionSpec::Fraction(0.5))
                    .take(cfg.batch_len);
            scope.spawn(move || {
                for _ in 0..cfg.batches_per_reader {
                    read_batch(r, &regions);
                    reader_ops.fetch_add(regions.len() as u64, Ordering::Relaxed);
                }
            });
        }
        // The writer is paced on this thread: apply updates while below
        // target, yield while ahead. Once the readers finish, the
        // target freezes at `total_ops × rate / 100` and the writer
        // catches up to it before exiting, so every run applies a
        // deterministic update count even if the reader threads
        // outpaced this one (e.g. on a single-CPU host).
        loop {
            let ops = reader_ops.load(Ordering::Relaxed).min(total_ops as u64);
            let target = ops * rate / 100;
            if updates_applied < target {
                let coords = update_coords(&cfg.dims, updates_applied);
                let t0 = Instant::now();
                apply_update(&coords);
                update_ns += t0.elapsed().as_nanos();
                updates_applied += 1;
            } else if ops >= total_ops as u64 {
                break;
            } else {
                std::thread::yield_now();
            }
        }
    });
    let elapsed = start.elapsed();

    (
        Measurement {
            ops: total_ops,
            ns_per_op: elapsed.as_nanos() as f64 / total_ops as f64,
            allocs_per_op: 0.0,
        },
        Measurement {
            ops: usize::try_from(updates_applied).expect("fits"),
            ns_per_op: update_ns as f64 / updates_applied.max(1) as f64,
            allocs_per_op: 0.0,
        },
    )
}

fn run_scenario(name: &str, cfg: &Config) -> Scenario {
    let mut gen = CubeGen::new(0xC0FFEE);
    let cube: NdCube<i64> = gen.uniform(&cfg.dims, 0, 100).expect("valid dims");
    let initial_total: i64 = {
        let e = RpsEngine::from_cube(&cube);
        e.query(&e.shape().full_region()).expect("in bounds")
    };

    let mut results = Vec::new();
    let mut result_names = Vec::new();

    // Serial baseline on this thread — this is the row the zero-alloc
    // contract is asserted against (S1: query_many ≈ 0 allocs/op after
    // warm-up).
    let engine = RpsEngine::from_cube(&cube);
    let regions: Vec<Region> =
        QueryGen::new(&cfg.dims, 7, RegionSpec::Fraction(0.5)).take(cfg.batch_len);
    let _warm = engine.query_many(&regions).expect("in bounds");
    let (m, _) = measure_batch(cfg.batches_per_reader.max(2), cfg.batch_len, || {
        let out = engine.query_many(&regions).expect("in bounds");
        out.last().copied().unwrap_or(0)
    });
    results.push(m);
    result_names.push("query_many_serial_baseline".to_string());

    let mut push_paced = |engine: &str, rate: u64, readers: Measurement, writer: Measurement| {
        results.push(readers);
        result_names.push(format!("{engine}_readers_w{rate}"));
        if writer.ops > 0 {
            results.push(writer);
            result_names.push(format!("{engine}_updates_w{rate}"));
        }
    };

    for &rate in RATES {
        // Versioned engine: readers take a snapshot per batch, the
        // writer publishes a version per update.
        let v = VersionedEngine::new(RpsEngine::from_cube(&cube));
        let (readers, writer) = run_paced(
            cfg,
            rate,
            |_, regions| {
                let snap = v.snapshot();
                let out = snap.query_many(regions).expect("in bounds");
                assert!(out.len() == regions.len());
            },
            |c| v.update(c, 1).expect("in bounds"),
        );
        assert_eq!(
            v.total(),
            initial_total + i64::try_from(writer.ops).expect("fits"),
            "versioned total diverged after paced run"
        );
        push_paced("versioned", rate, readers, writer);

        // RwLock baseline: readers serialize against the writer.
        let shared = SharedEngine::new(RpsEngine::from_cube(&cube));
        let (readers, writer) = run_paced(
            cfg,
            rate,
            |_, regions| {
                let out = shared.query_many(regions).expect("in bounds");
                assert!(out.len() == regions.len());
            },
            |c| shared.update(c, 1).expect("in bounds"),
        );
        assert_eq!(
            shared.total(),
            initial_total + i64::try_from(writer.ops).expect("fits"),
            "shared total diverged after paced run"
        );
        push_paced("shared", rate, readers, writer);
    }

    let box_size = RpsEngine::from_cube(&cube).grid().box_size().to_vec();
    Scenario {
        name: name.to_string(),
        dims: cfg.dims.clone(),
        box_size,
        results,
        result_names,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("{}/../../BENCH_THROUGHPUT.json", env!("CARGO_MANIFEST_DIR")));

    let scenarios = if smoke {
        vec![run_scenario(
            "d2_n64",
            &Config {
                dims: vec![64, 64],
                batch_len: 64,
                batches_per_reader: 4,
                readers: 2,
            },
        )]
    } else {
        vec![
            run_scenario(
                "d2_n256",
                &Config {
                    dims: vec![256, 256],
                    batch_len: 1024,
                    batches_per_reader: 16,
                    readers: 4,
                },
            ),
            run_scenario(
                "d3_n32",
                &Config {
                    dims: vec![32, 32, 32],
                    batch_len: 1024,
                    batches_per_reader: 16,
                    readers: 4,
                },
            ),
        ]
    };

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let section = section_json(if smoke { "smoke" } else { "full" }, host_cpus, &scenarios);

    println!("=== mixed read/write throughput ({host_cpus} host cpus) ===\n");
    for s in &scenarios {
        println!("scenario {} dims {:?} k {:?}", s.name, s.dims, s.box_size);
        for (m, n) in s.results.iter().zip(&s.result_names) {
            if n.contains("updates") {
                println!(
                    "  {n:<28} {:>10.1} ns/update ({} updates applied)",
                    m.ns_per_op, m.ops
                );
            } else {
                println!(
                    "  {n:<28} {:>10.1} ns/op  {:>12.0} ops/s  ({:.4} allocs/op)",
                    m.ns_per_op,
                    1e9 / m.ns_per_op.max(1e-9),
                    m.allocs_per_op
                );
            }
        }
    }

    write_section(&out_path, "exp_mixed_readwrite", &section);
    println!("\nwrote {out_path} (section exp_mixed_readwrite)");
}
